//! # ppc-perfbench — the repository benchmark
//!
//! One process per workload. After set-up it cycles round-robin through
//! four lanes — the Classic, MapReduce and Dryad engines and the serve
//! front door — for `--seconds` of host time, timing a benchmark-owned
//! reference probe between every two lane calls (see [`probe`]). Every
//! lane call is checked by the output oracle ([`oracle`]).
//!
//! ```text
//! perfbench --workload <sim_paper|sim_chaos|native_bio> --seed <n> --seconds <s> --trace 0
//! perfbench-traced --workload <…> --seed <n> --seconds <s> --trace 1
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` (the traced binary, which installs the
//! counting allocator) reports the per-layer metrics of [`traced`].
//! `NOTES.md` beside this package explains the workloads, the metrics and
//! the drift correction.

pub mod alloc;
pub mod lanes;
pub mod oracle;
pub mod probe;
pub mod traced;
pub mod workloads;

use lanes::{round_robin, Lane, LaneStats};
use probe::{DesProbe, NOMINAL_DES_PER_S};
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <sim_paper|sim_chaos|native_bio> --seed <n> --seconds <s> --trace <0|1>";

pub fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = args;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(bad("a number in (0, 120]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}'"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Variables that silently change what the program runs: the sims'
/// default event-queue backend (`QueueKind::from_env`, read by the Classic
/// and MapReduce sim defaults) and the conformance suites' chaos seed.
const FORBIDDEN_ENV: [&str; 2] = ["PPC_DES_QUEUE", "PPC_CHAOS_SEED"];

fn check_env() -> Result<(), String> {
    match FORBIDDEN_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        Some(v) => Err(format!("refusing to run with {v} set: unset it")),
        None => Ok(()),
    }
}

/// Peak resident set (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn median(xs: &[f64]) -> f64 {
    let mut v: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One metric of the result line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The result line: the last line of standard output.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Call every lane once, untimed by the probe: the set-up warm-up.
fn warm_up(lanes: &mut [Lane]) -> Vec<LaneStats> {
    lanes
        .iter_mut()
        .map(|lane| {
            let mut st = LaneStats::default();
            let (result, secs) = lane.clock.time(&mut lane.call);
            st.record(lane.name, result, secs, NOMINAL_DES_PER_S);
            st
        })
        .collect()
}

/// A workload set up [`SETUPS`] times: the last set-up, its warm-up
/// stats, the host seconds of each set-up, and the warm-up calls made and
/// failed across all set-ups.
pub struct Prepared {
    pub setup: workloads::Setup,
    pub warm: Vec<LaneStats>,
    pub setup_s: Vec<f64>,
    pub warm_calls: u64,
    pub warm_failed: u64,
}

/// Set up (input generation, service construction, one warm-up round of
/// every lane) `setups` times, keeping the last; digests must agree.
pub fn prepare(args: &Args, setups: usize) -> Result<Prepared, String> {
    let mut setup_s = Vec::new();
    let (mut warm_calls, mut warm_failed) = (0, 0);
    let mut kept: Option<(workloads::Setup, Vec<LaneStats>)> = None;
    for i in 0..setups {
        let prev: Option<Vec<Option<u64>>> = kept
            .take()
            .map(|(_, warm)| warm.iter().map(|s| s.digest).collect());
        let start = Instant::now();
        let mut setup = workloads::setup(&args.workload, args.seed, i == 0)?;
        let warm = warm_up(&mut setup.lanes);
        setup_s.push(start.elapsed().as_secs_f64());
        warm_calls += warm.len() as u64;
        warm_failed += warm.iter().map(|s| s.failed).sum::<u64>();
        if prev.is_some_and(|prev| prev.iter().zip(&warm).any(|(d, s)| *d != s.digest)) {
            return Err("lane digests differ between set-ups of one seed".into());
        }
        kept = Some((setup, warm));
    }
    let (setup, warm) = kept.expect("at least one set-up");
    Ok(Prepared {
        setup,
        warm,
        setup_s,
        warm_calls,
        warm_failed,
    })
}

/// The benchmark entry point shared by both binaries. `counting` says
/// whether this binary installed the counting allocator (the traced one).
pub fn main(counting: bool) -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.trace != counting {
        eprintln!(
            "error: --trace {} runs the {} binary",
            args.trace as u8,
            if args.trace {
                "perfbench-traced"
            } else {
                "perfbench"
            }
        );
        return ExitCode::from(2);
    }
    if let Err(e) = check_env() {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    println!("queue_backend {}", ppc::des::QueueKind::from_env().name());
    println!(
        "host_threads {}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let result = if args.trace {
        traced::run(&args)
    } else {
        end_to_end(&args)
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Print each lane's digest, rates and probe-relative spread diagnostics.
pub fn report_lanes(lanes: &[Lane], rr: &lanes::RoundRobin) {
    for (lane, st) in lanes.iter().zip(&rr.lanes) {
        println!(
            "lane {} clock={} calls={} failed={} work={} digest={:016x} raw_per_s={:.3} corrected_per_s={:.3}",
            lane.name,
            lane.clock.name(),
            st.calls,
            st.failed,
            st.work,
            st.digest.unwrap_or(0),
            st.raw_rate(),
            st.corrected_rate()
        );
    }
    println!(
        "rounds {} probe_des_median {:.0} probe_alu_median {:.0}",
        rr.rounds,
        median(&rr.des_probe),
        median(&rr.alu_probe)
    );
}

fn end_to_end(args: &Args) -> Result<String, String> {
    let mut prep = prepare(args, SETUPS)?;
    println!("setup_s {:?}", prep.setup_s);
    let mut probe = DesProbe::new();
    let digests: Vec<Option<u64>> = prep.warm.iter().map(|s| s.digest).collect();
    let rr = round_robin(&mut prep.setup.lanes, &mut probe, args.seconds, &digests);
    report_lanes(&prep.setup.lanes, &rr);

    let attempted = prep.warm_calls + rr.lanes.iter().map(|s| s.calls).sum::<u64>();
    let failed = prep.warm_failed + rr.lanes.iter().map(|s| s.failed).sum::<u64>();
    let mut metrics: Vec<Metric> = prep
        .setup
        .lanes
        .iter()
        .enumerate()
        .map(|(i, lane)| {
            let (name, unit) = lane.metric();
            Metric::new(name, rr.lanes[i].corrected_rate(), unit)
        })
        .collect();
    metrics.push(Metric::new("setup_s", median(&prep.setup_s), "s"));
    metrics.push(Metric::new("peak_rss_mb", peak_rss_mb(), "MB"));
    Ok(result_json(failed == 0, attempted, failed, &metrics))
}
