//! Lanes and the round-robin runner.
//!
//! A lane is one paradigm's share of a workload (Classic, MapReduce,
//! Dryad, or the serve front door), callable any number of times. The
//! runner cycles through every lane in turn for the whole run, timing the
//! DES reference probe between every two lane calls, so every lane is
//! sampled across the same stretch of host drift instead of each getting
//! a phase of its own.

use crate::probe::{alu_rate, thread_cpu_s, DesProbe, NOMINAL_DES_PER_S};
use std::time::Instant;

/// How a lane's calls are timed.
#[derive(Clone, Copy)]
pub enum Clock {
    /// The calling thread's CPU time: sim lanes, which run entirely on
    /// the calling thread. It leaves out hypervisor steal, which varies
    /// from run to run on a shared host.
    ThreadCpu,
    /// Host (wall) time: native lanes, whose work runs on worker threads.
    Wall,
}

impl Clock {
    /// Run `f`; return its result and the seconds it took on this clock.
    pub fn time<T>(self, f: impl FnOnce() -> T) -> (T, f64) {
        match self {
            Clock::ThreadCpu => {
                let start = thread_cpu_s();
                let out = f();
                (out, thread_cpu_s() - start)
            }
            Clock::Wall => {
                let start = Instant::now();
                let out = f();
                (out, start.elapsed().as_secs_f64())
            }
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Clock::ThreadCpu => "thread_cpu",
            Clock::Wall => "wall",
        }
    }
}

/// What one lane call did.
pub struct Outcome {
    /// Units of work completed: simulated or real tasks, or submissions.
    pub work: u64,
    /// Attempts the engines ran for that work (retries and duplicates
    /// included).
    pub attempts: u64,
    /// Digest of the call's results. Every call of a lane must repeat the
    /// digest of its first call: a sim is a pure function of its inputs,
    /// and native outputs are checked byte for byte inside the call.
    pub digest: u64,
}

pub type LaneFn = Box<dyn FnMut() -> Result<Outcome, String>>;

pub struct Lane {
    /// `classic`, `mapreduce`, `dryad` or `serve`.
    pub name: &'static str,
    pub clock: Clock,
    pub call: LaneFn,
}

impl Lane {
    /// End-to-end metric name and unit for this lane.
    pub fn metric(&self) -> (String, &'static str) {
        if self.name == "serve" {
            ("serve_jobs_per_s".into(), "jobs/s")
        } else {
            (format!("{}_tasks_per_s", self.name), "tasks/s")
        }
    }
}

/// Per-lane totals over a run, plus each successful call's rate.
#[derive(Default, Clone)]
pub struct LaneStats {
    pub calls: u64,
    pub failed: u64,
    pub work: u64,
    pub attempts: u64,
    /// Work per second on the lane's clock, one entry per successful call.
    pub raw_rates: Vec<f64>,
    /// The same, with each call's seconds scaled by (adjacent probe rate ÷
    /// nominal rate).
    pub corrected_rates: Vec<f64>,
    /// Digest of the first call; later calls must match it.
    pub digest: Option<u64>,
}

/// The upper quartile of per-call rates. Host contention only ever slows
/// a call down, so the upper quartile tracks the program's own speed
/// while ignoring up to a quarter of the run spent in a slow stretch —
/// the same reasoning as best-of-N, with more samples behind it.
pub fn upper_quartile(rates: &[f64]) -> f64 {
    let mut v = rates.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    match v.len() {
        0 => 0.0,
        n => v[(3 * n / 4).min(n - 1)],
    }
}

impl LaneStats {
    pub fn raw_rate(&self) -> f64 {
        upper_quartile(&self.raw_rates)
    }

    pub fn corrected_rate(&self) -> f64 {
        upper_quartile(&self.corrected_rates)
    }

    /// Record one call: its result, seconds, and adjacent probe rate.
    pub fn record(&mut self, name: &str, result: Result<Outcome, String>, secs: f64, probe: f64) {
        self.calls += 1;
        match result {
            Ok(out) => {
                if *self.digest.get_or_insert(out.digest) != out.digest {
                    eprintln!("[{name}] digest changed between calls: {:016x}", out.digest);
                    self.failed += 1;
                    return;
                }
                self.work += out.work;
                self.attempts += out.attempts;
                self.raw_rates.push(out.work as f64 / secs);
                self.corrected_rates
                    .push(out.work as f64 / (secs * probe / NOMINAL_DES_PER_S));
            }
            Err(e) => {
                eprintln!("[{name}] failed: {e}");
                self.failed += 1;
            }
        }
    }
}

/// Everything a round-robin run measured.
pub struct RoundRobin {
    pub lanes: Vec<LaneStats>,
    pub rounds: u64,
    pub des_probe: Vec<f64>,
    pub alu_probe: Vec<f64>,
}

/// Call every lane once, in order, recording into `stats`.
pub fn one_round(
    lanes: &mut [Lane],
    stats: &mut [LaneStats],
    probe: &mut DesProbe,
    des_probe: &mut Vec<f64>,
    alu_probe: &mut Vec<f64>,
) {
    let mut before = probe.rate();
    for (lane, st) in lanes.iter_mut().zip(stats.iter_mut()) {
        let (result, secs) = lane.clock.time(&mut lane.call);
        alu_probe.push(alu_rate());
        let after = probe.rate();
        des_probe.push(after);
        st.record(lane.name, result, secs, (before + after) / 2.0);
        before = after;
    }
}

/// Round-robin over `lanes` for `seconds` of host time (whole rounds).
/// `digests` are the warm-up digests every call must repeat.
pub fn round_robin(
    lanes: &mut [Lane],
    probe: &mut DesProbe,
    seconds: f64,
    digests: &[Option<u64>],
) -> RoundRobin {
    let mut stats: Vec<LaneStats> = digests
        .iter()
        .map(|&digest| LaneStats {
            digest,
            ..LaneStats::default()
        })
        .collect();
    let (mut des_probe, mut alu_probe) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut rounds = 0;
    while rounds == 0 || start.elapsed().as_secs_f64() < seconds {
        one_round(lanes, &mut stats, probe, &mut des_probe, &mut alu_probe);
        rounds += 1;
    }
    RoundRobin {
        lanes: stats,
        rounds,
        des_probe,
        alu_probe,
    }
}
