//! Differential harness for the pluggable event core.
//!
//! The binary heap is the reference oracle; the timing wheel and the
//! calendar queue must be indistinguishable from it at every layer:
//!
//! 1. **Raw queue traces** — randomized push/pop interleavings drained
//!    through the bare [`EventQueue`] trait produce identical sequences.
//! 2. **Engine traces** — randomized schedule/cancel/reschedule programs
//!    replayed through [`Engine`] fire the same events at the same
//!    virtual times in the same order, with identical counters; and ticks
//!    routed through the engine's fixed-delay lane are indistinguishable
//!    from the self-re-arming closures they replace.
//! 3. **Whole-platform sims** — each paradigm simulator produces a
//!    bit-identical report (full JSON) on every backend, under the same
//!    hostile chaos schedule and hedging policy CI sweeps elsewhere
//!    (`PPC_CHAOS_SEED`), so the backend swap is invisible end to end.

use ppc::chaos::FaultSchedule;
use ppc::compute::cluster::Cluster;
use ppc::compute::instance::{BARE_CAP3, EC2_HCXL};
use ppc::core::rng::Pcg32;
use ppc::core::task::{ResourceProfile, TaskSpec};
use ppc::des::queue::EventEntry;
use ppc::des::{Engine, EventId, QueueKind, SimTime};
use ppc::exec::RunContext;
use ppc::resilience::{HedgeConfig, ResiliencePolicy};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// Schedule seed: `PPC_CHAOS_SEED` if set (the CI matrix sweeps a few),
/// else a fixed default.
fn chaos_seed() -> u64 {
    std::env::var("PPC_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4242)
}

// ---------------------------------------------------------------------
// Layer 1: raw EventQueue traces.
// ---------------------------------------------------------------------

/// Random interleavings of pushes (at or after the last popped time, per
/// the trait contract) and pops drain identically on every backend.
#[test]
fn raw_queues_agree_on_random_traces() {
    for seed in 0..48u64 {
        let mut rng = Pcg32::new(0xD1FF ^ (seed << 8));
        // Generate one trace: Some(entry) = push, None = pop.
        let mut trace: Vec<Option<EventEntry>> = Vec::new();
        {
            let mut oracle: Vec<EventEntry> = Vec::new(); // sorted model
            let mut now = 0u64;
            let mut seq = 0u64;
            for _ in 0..400 {
                if !oracle.is_empty() && rng.next_below(3) == 0 {
                    oracle.sort_unstable();
                    now = oracle.remove(0).at.as_micros();
                    trace.push(None);
                } else {
                    // Mix dense near-term timers with rare far horizons.
                    let delta = match rng.next_below(10) {
                        0 => rng.next_below(1_000_000_000) as u64 * 4096,
                        1..=3 => 0,
                        _ => rng.next_below(5_000) as u64,
                    };
                    let e = EventEntry {
                        at: SimTime::from_micros(now + delta),
                        seq,
                        idx: seq as u32,
                    };
                    seq += 1;
                    oracle.push(e);
                    trace.push(Some(e));
                }
            }
        }
        let replay = |kind: QueueKind| -> Vec<EventEntry> {
            let mut q = kind.boxed();
            let mut popped = Vec::new();
            for op in &trace {
                match op {
                    Some(e) => q.push(*e),
                    None => popped.push(q.pop().expect("model says non-empty")),
                }
            }
            while let Some(e) = q.pop() {
                popped.push(e);
            }
            assert!(q.is_empty());
            popped
        };
        let want = replay(QueueKind::BinaryHeap);
        for kind in [QueueKind::TimingWheel, QueueKind::Calendar] {
            assert_eq!(replay(kind), want, "{} vs oracle, seed {seed}", kind.name());
        }
    }
}

// ---------------------------------------------------------------------
// Layer 2: Engine traces with cancellation and rescheduling.
// ---------------------------------------------------------------------

/// One step of a pre-generated engine program. Handle slots index into
/// the replayer's handle table so the *same* program is replayable on
/// every backend.
#[derive(Clone, Copy)]
enum Op {
    Schedule { at_us: u64, token: u32 },
    Cancel { pick: usize },
    Reschedule { pick: usize, at_us: u64 },
    Step,
}

/// What a replay observed: the fire log plus the engine's final counters.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    fired: Vec<(u64, u32)>, // (micros, token)
    final_now_us: u64,
    events_fired: u64,
    events_cancelled: u64,
    pending: usize,
}

fn replay_program(kind: QueueKind, ops: &[Op]) -> Observed {
    let mut engine = Engine::with_queue(kind);
    let log: Rc<RefCell<Vec<(u64, u32)>>> = Rc::new(RefCell::new(Vec::new()));
    let mut handles: Vec<EventId> = Vec::new();
    for op in ops {
        match *op {
            Op::Schedule { at_us, token } => {
                let l = log.clone();
                handles.push(engine.schedule_at(SimTime::from_micros(at_us), move |e| {
                    l.borrow_mut().push((e.now().as_micros(), token));
                }));
            }
            Op::Cancel { pick } => {
                if !handles.is_empty() {
                    engine.cancel(handles[pick % handles.len()]);
                }
            }
            Op::Reschedule { pick, at_us } => {
                if !handles.is_empty() {
                    let i = pick % handles.len();
                    if let Some(id) = engine.reschedule_at(handles[i], SimTime::from_micros(at_us))
                    {
                        handles[i] = id;
                    }
                }
            }
            Op::Step => {
                engine.step();
            }
        }
    }
    engine.run();
    let fired = log.borrow().clone();
    Observed {
        fired,
        final_now_us: engine.now().as_micros(),
        events_fired: engine.events_fired(),
        events_cancelled: engine.events_cancelled(),
        pending: engine.pending(),
    }
}

/// Randomized schedule/cancel/reschedule programs observe identical fire
/// logs, virtual clocks, and counters on every backend.
#[test]
fn engines_agree_on_random_programs() {
    for seed in 0..48u64 {
        let mut rng = Pcg32::new(0xE9612E ^ (seed << 4));
        let n_ops = 60 + rng.next_below(240) as usize;
        let mut token = 0u32;
        let ops: Vec<Op> = (0..n_ops)
            .map(|_| match rng.next_below(8) {
                0..=3 => {
                    token += 1;
                    Op::Schedule {
                        // Cluster times so cancels race real schedules and
                        // equal timestamps are common.
                        at_us: rng.next_below(20_000) as u64,
                        token,
                    }
                }
                4 => Op::Cancel {
                    pick: rng.next_below(1 << 16) as usize,
                },
                5 => Op::Reschedule {
                    pick: rng.next_below(1 << 16) as usize,
                    at_us: rng.next_below(40_000) as u64,
                },
                _ => Op::Step,
            })
            .collect();
        let want = replay_program(QueueKind::BinaryHeap, &ops);
        for kind in [QueueKind::TimingWheel, QueueKind::Calendar] {
            let got = replay_program(kind, &ops);
            assert_eq!(got, want, "{} vs oracle, seed {seed}", kind.name());
        }
    }
}

// ---------------------------------------------------------------------
// Layer 2b: the fixed-delay lane against the closures it replaces.
// ---------------------------------------------------------------------

/// One step of a lane program. `Push` goes through the lane in one replay
/// and through `schedule_in(delay, closure)` in the other.
#[derive(Clone, Copy)]
enum LaneOp {
    Schedule { at_us: u64, token: u32 },
    Push { token: u32 },
    Horizon { at_us: u64 },
    Cancel { pick: usize },
    Step,
    RunUntil { at_us: u64 },
    Peek,
}

/// State both replays share with their tick handlers.
struct LaneWorld {
    delay: SimTime,
    log: RefCell<Vec<(u64, u32)>>,
    horizon: std::cell::Cell<SimTime>,
}

/// A tick's handler, identical in both replays: log it, and, as a pure
/// function of token and time, schedule a closure event, move the quiet
/// horizon, and re-push. Returns (re-push, new horizon).
fn lane_tick_body(e: &mut Engine, w: &Rc<LaneWorld>, token: u32) -> (bool, Option<SimTime>) {
    let now = e.now().as_micros();
    w.log.borrow_mut().push((now, token));
    // SplitMix64's finalizer over (time, token): every low bit depends on
    // both, so each token's re-push chain ends after a few ticks.
    let mut h = now ^ u64::from(token) << 32;
    h = (h ^ h >> 30).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ h >> 27).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 31;
    if h.is_multiple_of(5) {
        let w2 = w.clone();
        let at = e.now() + SimTime(h % 3 * (w.delay.as_micros() / 2));
        e.schedule_at(at, move |e| {
            w2.log
                .borrow_mut()
                .push((e.now().as_micros(), token | 1 << 31))
        });
    }
    let horizon = h
        .is_multiple_of(7)
        .then(|| e.now() + SimTime(h % 40 * w.delay.as_micros()));
    (!h.is_multiple_of(4), horizon)
}

/// The reference tick: a boxed closure that re-arms itself while quiet.
fn closure_tick(e: &mut Engine, w: Rc<LaneWorld>, token: u32) {
    if e.now() < w.horizon.get() {
        e.schedule_in(w.delay, move |e| closure_tick(e, w, token));
        return;
    }
    let (again, horizon) = lane_tick_body(e, &w, token);
    if let Some(h) = horizon {
        w.horizon.set(h);
    }
    if again {
        e.schedule_in(w.delay, move |e| closure_tick(e, w, token));
    }
}

/// Everything a lane replay observed.
#[derive(Debug, PartialEq, Eq)]
struct LaneObserved {
    log: Vec<(u64, u32)>,
    /// `(peek_time, pending, events_fired, now)` at every `Peek` and after
    /// every `RunUntil`.
    probes: Vec<(Option<u64>, usize, u64, u64)>,
    final_now_us: u64,
    events_fired: u64,
    events_cancelled: u64,
}

fn replay_lane_program(kind: QueueKind, delay_us: u64, ops: &[LaneOp], lane: bool) -> LaneObserved {
    let w = Rc::new(LaneWorld {
        delay: SimTime(delay_us),
        log: RefCell::new(Vec::new()),
        horizon: std::cell::Cell::new(SimTime::ZERO),
    });
    let mut engine = Engine::with_queue(kind);
    if lane {
        let w = w.clone();
        engine.set_lane(SimTime(delay_us), move |e, token| {
            let (again, horizon) = lane_tick_body(e, &w, token);
            if let Some(h) = horizon {
                w.horizon.set(h);
                e.set_quiet_horizon(h);
            }
            if again {
                e.lane_push(token);
            }
        });
    }
    let mut handles: Vec<EventId> = Vec::new();
    let mut probes = Vec::new();
    for op in ops {
        match *op {
            LaneOp::Schedule { at_us, token } => {
                let w = w.clone();
                handles.push(engine.schedule_at(SimTime(at_us), move |e| {
                    w.log.borrow_mut().push((e.now().as_micros(), token))
                }));
            }
            LaneOp::Push { token } if lane => engine.lane_push(token),
            LaneOp::Push { token } => {
                let w = w.clone();
                engine.schedule_in(SimTime(delay_us), move |e| closure_tick(e, w, token));
            }
            LaneOp::Horizon { at_us } => {
                w.horizon.set(SimTime(at_us));
                if lane {
                    engine.set_quiet_horizon(SimTime(at_us));
                }
            }
            LaneOp::Cancel { pick } => {
                if !handles.is_empty() {
                    engine.cancel(handles[pick % handles.len()]);
                }
            }
            LaneOp::Step => {
                engine.step();
            }
            LaneOp::RunUntil { at_us } => {
                engine.run_until(SimTime(at_us));
            }
            LaneOp::Peek => {}
        }
        if matches!(op, LaneOp::Peek | LaneOp::RunUntil { .. }) {
            probes.push((
                engine.peek_time().map(SimTime::as_micros),
                engine.pending(),
                engine.events_fired(),
                engine.now().as_micros(),
            ));
        }
    }
    let end = engine.run();
    assert_eq!(engine.pending(), 0);
    let log = w.log.borrow().clone();
    LaneObserved {
        log,
        probes,
        final_now_us: end.as_micros(),
        events_fired: engine.events_fired(),
        events_cancelled: engine.events_cancelled(),
    }
}

/// Random programs mixing closure events, lane pushes, quiet horizons,
/// cancels, single steps and `run_until` checkpoints observe the same
/// fire log, clock, counters, `peek_time` and `pending` whether the ticks
/// ride the lane (with whole-round quiet advances) or are boxed closures
/// re-arming themselves, on every backend.
#[test]
fn lane_matches_closure_ticks_on_random_programs() {
    for seed in 0..64u64 {
        let mut rng = Pcg32::new(0x1A7E ^ (seed << 6));
        let delay_us = 1 + rng.next_below(2_000) as u64;
        // A grid of half-delays, so ticks, closures and horizons tie often.
        let grid = |rng: &mut Pcg32, n: u32| rng.next_below(n) as u64 * delay_us.div_ceil(2);
        let mut now_hint = 0u64;
        let mut token = 0u32;
        let ops: Vec<LaneOp> = (0..60 + rng.next_below(200))
            .map(|_| match rng.next_below(10) {
                0 | 1 => {
                    token += 1;
                    LaneOp::Schedule {
                        at_us: now_hint + grid(&mut rng, 60),
                        token,
                    }
                }
                2 | 3 => {
                    token += 1;
                    LaneOp::Push { token }
                }
                4 => LaneOp::Horizon {
                    at_us: now_hint + grid(&mut rng, 120),
                },
                5 => LaneOp::Cancel {
                    pick: rng.next_below(1 << 16) as usize,
                },
                6 | 7 => LaneOp::Step,
                8 => {
                    now_hint += grid(&mut rng, 30);
                    LaneOp::RunUntil { at_us: now_hint }
                }
                _ => LaneOp::Peek,
            })
            .collect();
        let want = replay_lane_program(QueueKind::BinaryHeap, delay_us, &ops, false);
        assert!(!want.log.is_empty());
        for kind in QueueKind::ALL {
            assert_eq!(
                replay_lane_program(kind, delay_us, &ops, true),
                want,
                "lane vs closures on {}, seed {seed}",
                kind.name()
            );
            assert_eq!(
                replay_lane_program(kind, delay_us, &ops, false),
                want,
                "closures on {} vs oracle, seed {seed}",
                kind.name()
            );
        }
    }
}

// ---------------------------------------------------------------------
// Layer 3: whole-platform simulations, bit-identical reports.
// ---------------------------------------------------------------------

fn sim_tasks(n: u64) -> Vec<TaskSpec> {
    (0..n)
        .map(|i| {
            let mut p = ResourceProfile::cpu_bound(10.0 + (i % 7) as f64);
            p.input_bytes = 200 << 10;
            p.output_bytes = 100 << 10;
            TaskSpec::new(i, "cap3", format!("f{i}"), p)
        })
        .collect()
}

/// A hostile chaos schedule plus hedging, so the sims exercise timer
/// cancellation (hedge timers are cancelled when the primary wins) on
/// top of the usual churn.
fn hostile_ctx(cluster: &Cluster, kind: QueueKind) -> RunContext {
    RunContext::new(cluster)
        .with_schedule(Arc::new(FaultSchedule::hostile(chaos_seed())))
        .with_resilience(ResiliencePolicy::hedged(HedgeConfig::quantile(20.0)))
        .with_event_queue(kind)
}

/// The Classic Cloud simulator's full report is bit-identical across
/// backends under chaos + hedging.
#[test]
fn classic_sim_is_backend_invariant() {
    let tasks = sim_tasks(64);
    let cluster = Cluster::provision(EC2_HCXL, 4, 8);
    let cfg = ppc::classic::SimConfig::ec2().with_failures(0.0, 60.0);
    let oracle =
        ppc::classic::simulate(&hostile_ctx(&cluster, QueueKind::BinaryHeap), &tasks, &cfg)
            .to_json()
            .to_string();
    for kind in [QueueKind::TimingWheel, QueueKind::Calendar] {
        let got = ppc::classic::simulate(&hostile_ctx(&cluster, kind), &tasks, &cfg)
            .to_json()
            .to_string();
        assert_eq!(got, oracle, "classic sim diverged on {}", kind.name());
    }
}

/// The elastic (autoscaled) Classic path runs its own engine loop; its
/// report must also be backend-invariant.
#[test]
fn classic_elastic_sim_is_backend_invariant() {
    use ppc::autoscale::{AutoscaleConfig, Policy};
    let tasks = sim_tasks(48);
    let autoscale = AutoscaleConfig {
        policy: Policy::TargetBacklog { per_worker: 12.0 },
        min_workers: 1,
        max_workers: 4,
        interval_s: 10.0,
        scale_up_cooldown_s: 30.0,
        scale_down_cooldown_s: 20.0,
        warmup_s: 0.0,
        billing_aware: false,
        billing_window_s: 60.0,
        billing_hour_s: 3600.0,
    };
    let cfg = ppc::classic::SimConfig::ec2();
    let run = |kind: QueueKind| {
        let ctx = RunContext::elastic(EC2_HCXL, autoscale.clone(), Vec::new())
            .with_schedule(Arc::new(FaultSchedule::hostile(chaos_seed())))
            .with_event_queue(kind);
        ppc::classic::simulate(&ctx, &tasks, &cfg)
            .to_json()
            .to_string()
    };
    let oracle = run(QueueKind::BinaryHeap);
    for kind in [QueueKind::TimingWheel, QueueKind::Calendar] {
        assert_eq!(run(kind), oracle, "elastic sim diverged on {}", kind.name());
    }
}

/// The MapReduce simulator's full report is bit-identical across
/// backends under chaos + hedged speculation.
#[test]
fn mapreduce_sim_is_backend_invariant() {
    let tasks = sim_tasks(64);
    let cluster = Cluster::provision(BARE_CAP3, 4, 8);
    let cfg = ppc::mapreduce::HadoopSimConfig::default();
    let oracle =
        ppc::mapreduce::simulate(&hostile_ctx(&cluster, QueueKind::BinaryHeap), &tasks, &cfg)
            .to_json()
            .to_string();
    for kind in [QueueKind::TimingWheel, QueueKind::Calendar] {
        let got = ppc::mapreduce::simulate(&hostile_ctx(&cluster, kind), &tasks, &cfg)
            .to_json()
            .to_string();
        assert_eq!(got, oracle, "mapreduce sim diverged on {}", kind.name());
    }
}

/// The Dryad simulator has no event calendar (quantized list scheduler),
/// so backend choice must be a literal no-op on its report.
#[test]
fn dryad_sim_is_backend_invariant() {
    let tasks = sim_tasks(64);
    let cluster = Cluster::provision(BARE_CAP3, 4, 8);
    let cfg = ppc::dryad::DryadSimConfig::default();
    let oracle = ppc::dryad::simulate(&hostile_ctx(&cluster, QueueKind::BinaryHeap), &tasks, &cfg)
        .to_json()
        .to_string();
    for kind in [QueueKind::TimingWheel, QueueKind::Calendar] {
        let got = ppc::dryad::simulate(&hostile_ctx(&cluster, kind), &tasks, &cfg)
            .to_json()
            .to_string();
        assert_eq!(got, oracle, "dryad sim diverged on {}", kind.name());
    }
}
