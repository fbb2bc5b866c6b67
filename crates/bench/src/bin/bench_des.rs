//! Event-core benchmark: the per-PR perf trajectory for `ppc-des`.
//!
//! Measures the binary-heap event core on three layers, plus a reference
//! loop, and writes the machine-readable `BENCH_des.json` CI tracks:
//!
//! 1. **Dense-timer hold model** (raw [`EventQueue`]): a steady-state
//!    population of near-horizon timers, each pop immediately replaced.
//! 2. **Full engine** (slab + closures): self-rechaining timers fired
//!    through [`Engine::run`], counting events/sec end to end.
//! 3. **Paradigm sweep**: the Classic Cloud simulator over a paper-scale
//!    task grid, counting simulated tasks/sec and sweep wall-clock.
//! 4. **Reference**: a hold loop on a plain
//!    `std::collections::BinaryHeap<Reverse<(u64, u64)>>` that calls no
//!    `ppc` code, so no change to this repository can move it.
//!
//! ```bash
//! cargo run --release -p ppc-bench --bin bench_des                 # full, writes BENCH_des.json
//! cargo run --release -p ppc-bench --bin bench_des -- --smoke      # reduced CI sizes
//! cargo run --release -p ppc-bench --bin bench_des -- --smoke --check BENCH_des.json
//! ```
//!
//! `--check <baseline>` compares the fresh run against the committed
//! baseline and exits non-zero if the sweep's tasks/sec over the
//! reference loop's events/sec fell more than 20% below the baseline's
//! ratio. Both rates come from the same host moments apart, so the ratio
//! cancels machine speed and CI hardware changes don't false-alarm the
//! gate.

use ppc_compute::cluster::Cluster;
use ppc_compute::instance::EC2_HCXL;
use ppc_core::json::Json;
use ppc_core::rng::Pcg32;
use ppc_core::task::{ResourceProfile, TaskSpec};
use ppc_des::queue::EventEntry;
use ppc_des::{Engine, EventQueue, QueueKind, SimTime};
use ppc_exec::RunContext;
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;
use std::time::Instant;

struct Sizes {
    /// Steady-state pending population in the hold model.
    hold_population: usize,
    /// Pop+push rounds timed in the hold model.
    hold_ops: usize,
    /// Self-rechaining timer chains × fires per chain in the engine bench.
    chains: usize,
    fires_per_chain: usize,
}

/// The gated pair — the Classic sweep (tasks per sim, sims per sweep) and
/// the reference loop — runs at the same sizes in both modes, so a smoke
/// run's ratio compares with the full-mode baseline.
const SWEEP_TASKS: u64 = 8_192;
const SWEEP_RUNS: usize = 6;
const REFERENCE_POPULATION: u64 = 1 << 16;
const REFERENCE_OPS: u64 = 1_000_000;
/// Rounds of the gated pair ([`bench_gated`]).
const GATED_TRIALS: usize = 9;

const FULL: Sizes = Sizes {
    hold_population: 1 << 18,
    hold_ops: 2_000_000,
    chains: 256,
    fires_per_chain: 4_000,
};

const SMOKE: Sizes = Sizes {
    hold_population: 1 << 18,
    hold_ops: 1_000_000,
    chains: 64,
    fires_per_chain: 1_000,
};

/// Dense-timer hold model: `population` pending timers, `ops` rounds of
/// pop-min + push-replacement with a near-horizon delta. Returns events
/// (pops) per second, best of three trials — the maximum is the standard
/// noise filter for throughput micro-benchmarks (scheduler preemption and
/// frequency dips only ever push a trial *down*).
fn bench_hold(sizes: &Sizes) -> f64 {
    let mut best = 0.0f64;
    for trial in 0..3u64 {
        let mut q = QueueKind::BinaryHeap.boxed();
        let mut rng = Pcg32::new(0xDE5B ^ (trial << 32));
        let mut seq = 0u64;
        let push = |q: &mut Box<dyn EventQueue>, at: u64, seq: &mut u64| {
            q.push(EventEntry {
                at: SimTime::from_micros(at),
                seq: *seq,
                idx: *seq as u32,
            });
            *seq += 1;
        };
        for _ in 0..sizes.hold_population {
            let at = rng.next_below(4096) as u64;
            push(&mut q, at, &mut seq);
        }
        let start = Instant::now();
        for _ in 0..sizes.hold_ops {
            let e = q.pop().expect("hold model never drains");
            let at = e.at.as_micros() + rng.next_below(4096) as u64;
            push(&mut q, at, &mut seq);
        }
        best = best.max(sizes.hold_ops as f64 / start.elapsed().as_secs_f64());
    }
    best
}

/// Full-engine events/sec: `chains` concurrent self-rechaining timers,
/// each firing `fires_per_chain` times through the slab + closure path.
fn bench_engine(sizes: &Sizes) -> f64 {
    fn rechain(engine: &mut Engine, remaining: usize, stride_us: u64, fired: Rc<Cell<u64>>) {
        fired.set(fired.get() + 1);
        if remaining > 0 {
            engine.schedule_in(SimTime::from_micros(stride_us), move |e| {
                rechain(e, remaining - 1, stride_us, fired);
            });
        }
    }
    let mut engine = Engine::new();
    let fired = Rc::new(Cell::new(0u64));
    let mut rng = Pcg32::new(0xE91);
    for _ in 0..sizes.chains {
        let stride = 1 + rng.next_below(97) as u64;
        let f = fired.clone();
        let n = sizes.fires_per_chain;
        engine.schedule_in(SimTime::from_micros(stride), move |e| {
            rechain(e, n - 1, stride, f);
        });
    }
    let start = Instant::now();
    engine.run();
    let total = fired.get();
    assert_eq!(total, (sizes.chains * sizes.fires_per_chain) as u64);
    total as f64 / start.elapsed().as_secs_f64()
}

/// The gated pair, measured in [`GATED_TRIALS`] rounds. Each round times
/// one reference trial and then one Classic sweep, so both rates of a
/// round see the same host conditions.
struct Gated {
    /// Simulated tasks/sec and wall-clock seconds of the fastest sweep.
    sim_tasks_per_s: f64,
    sweep_wall_s: f64,
    /// Best reference-loop events/sec.
    reference_per_s: f64,
    /// Median over rounds of sweep tasks/sec ÷ reference events/sec.
    ratio: f64,
}

fn bench_gated() -> Gated {
    let tasks: Vec<TaskSpec> = (0..SWEEP_TASKS)
        .map(|i| {
            let mut p = ResourceProfile::cpu_bound(10.0 + (i % 7) as f64);
            p.input_bytes = 200 << 10;
            p.output_bytes = 100 << 10;
            TaskSpec::new(i, "cap3", format!("f{i}"), p)
        })
        .collect();
    let simulated = (SWEEP_TASKS * SWEEP_RUNS as u64) as f64;
    let mut walls = Vec::new();
    let mut references = Vec::new();
    let mut ratios = Vec::new();
    for trial in 0..GATED_TRIALS as u64 {
        let reference = reference_trial(trial);
        let wall = sweep_trial(&tasks);
        ratios.push(simulated / wall / reference);
        walls.push(wall);
        references.push(reference);
    }
    ratios.sort_by(f64::total_cmp);
    let sweep_wall_s = walls.into_iter().fold(f64::INFINITY, f64::min);
    Gated {
        sim_tasks_per_s: simulated / sweep_wall_s,
        sweep_wall_s,
        reference_per_s: references.into_iter().fold(0.0, f64::max),
        ratio: ratios[ratios.len() / 2],
    }
}

/// Paradigm sweep: Classic Cloud sims at paper scale over 8-, 16- and
/// 32-slot fleets. Returns the sweep's wall-clock seconds.
fn sweep_trial(tasks: &[TaskSpec]) -> f64 {
    let cfg = ppc_classic::SimConfig::ec2();
    let start = Instant::now();
    for run in 0..SWEEP_RUNS {
        let workers = 8 << (run % 3); // 8, 16, 32 slots per fleet
        let cluster = Cluster::provision(EC2_HCXL, 4, workers);
        let report = ppc_classic::simulate(&RunContext::new(&cluster), tasks, &cfg);
        assert!(report.is_complete(), "sweep run {run} dropped tasks");
    }
    start.elapsed().as_secs_f64()
}

/// The reference: a hold loop on a plain `BinaryHeap<Reverse<(u64, u64)>>`
/// of `(time, sequence)` keys with a local xorshift generator — no `ppc`
/// code. Returns pops per second.
fn reference_trial(trial: u64) -> f64 {
    let mut x = 0x9E37_79B9_7F4A_7C15 ^ trial;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % 4096
    };
    let mut heap = BinaryHeap::new();
    for seq in 0..REFERENCE_POPULATION {
        heap.push(Reverse((next(), seq)));
    }
    let start = Instant::now();
    for seq in REFERENCE_POPULATION..REFERENCE_POPULATION + REFERENCE_OPS {
        let Reverse((at, _)) = heap.pop().expect("hold model never drains");
        heap.push(Reverse((at + next(), seq)));
    }
    let rate = REFERENCE_OPS as f64 / start.elapsed().as_secs_f64();
    std::hint::black_box(&heap);
    rate
}

fn get_f64(json: &Json, path: &[&str]) -> Option<f64> {
    let mut cur = json;
    for key in path {
        cur = cur.get(key)?;
    }
    cur.as_f64().ok()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let check: Option<&String> = args
        .iter()
        .position(|a| a == "--check")
        .and_then(|i| args.get(i + 1));
    let out = args
        .iter()
        .rfind(|a| !a.starts_with("--") && Some(*a) != check)
        .cloned()
        .unwrap_or_else(|| "BENCH_des.json".into());
    let sizes = if smoke { &SMOKE } else { &FULL };

    let kind = QueueKind::BinaryHeap;
    let dense = bench_hold(sizes);
    let engine = bench_engine(sizes);
    let Gated {
        sim_tasks_per_s: tasks_per_s,
        sweep_wall_s: sweep_wall,
        reference_per_s: reference,
        ratio,
    } = bench_gated();
    eprintln!(
        "{} dense {dense:>12.0} ev/s | engine {engine:>12.0} ev/s | sim {tasks_per_s:>9.0} tasks/s \
         | sweep {sweep_wall:.3}s | reference {reference:>12.0} ev/s",
        kind.name(),
    );
    eprintln!("sim tasks/s over reference events/s (median of rounds): {ratio:.4}");
    let backends = vec![Json::Obj(vec![
        ("queue".into(), Json::Str(kind.name().into())),
        ("dense_timer_events_per_sec".into(), Json::Float(dense)),
        ("engine_events_per_sec".into(), Json::Float(engine)),
        ("sim_tasks_per_sec".into(), Json::Float(tasks_per_s)),
        ("sweep_wall_s".into(), Json::Float(sweep_wall)),
    ])];

    let json = Json::Obj(vec![
        ("bench".into(), Json::Str("des_core".into())),
        (
            "mode".into(),
            Json::Str(if smoke { "smoke" } else { "full" }.into()),
        ),
        (
            "workload".into(),
            Json::Obj(vec![
                (
                    "hold_population".into(),
                    Json::Int(sizes.hold_population as i128),
                ),
                ("hold_ops".into(), Json::Int(sizes.hold_ops as i128)),
                (
                    "engine_events".into(),
                    Json::Int((sizes.chains * sizes.fires_per_chain) as i128),
                ),
                ("sim_tasks".into(), Json::Int(SWEEP_TASKS as i128)),
                ("sweep_runs".into(), Json::Int(SWEEP_RUNS as i128)),
                (
                    "reference_population".into(),
                    Json::Int(REFERENCE_POPULATION as i128),
                ),
                ("reference_ops".into(), Json::Int(REFERENCE_OPS as i128)),
            ]),
        ),
        ("backends".into(), Json::Arr(backends)),
        ("reference_events_per_sec".into(), Json::Float(reference)),
        ("sim_over_reference".into(), Json::Float(ratio)),
    ]);

    if let Some(baseline_path) = check {
        let text = std::fs::read_to_string(baseline_path)
            .unwrap_or_else(|e| panic!("read baseline {baseline_path}: {e}"));
        let baseline = Json::parse(&text).expect("baseline parses");
        let want = get_f64(&baseline, &["sim_over_reference"]).expect("baseline carries the ratio");
        let floor = want * 0.8;
        eprintln!("baseline ratio {want:.4}; regression floor {floor:.4}");
        if ratio < floor {
            eprintln!("FAIL: sim/reference ratio {ratio:.4} regressed below {floor:.4}");
            std::process::exit(1);
        }
        eprintln!("OK: ratio {ratio:.4} within 20% of baseline {want:.4}");
        return; // a check run never overwrites the committed baseline
    }

    std::fs::write(&out, format!("{json}\n")).unwrap_or_else(|e| panic!("write {out}: {e}"));
    eprintln!("wrote {out}");
}
