//! Evaluation metrics from the paper's §3.
//!
//! * **Equation 1 — parallel efficiency**: `E = T1 / (P · Tp)` where `T1` is
//!   the best sequential time for the same workload on the same platform and
//!   `Tp` the parallel time on `P` cores.
//! * **Equation 2 — average time per task per core**: the wall time a user
//!   can expect one unit of work to take on one core of a given environment,
//!   `t̄ = Tp · P / N` for `N` tasks.
//!
//! Also provides [`RunSummary`], the record every framework run returns to
//! the harness, and simple descriptive statistics for reporting.

/// Equation 1: parallel efficiency on `p` cores.
///
/// `t1` is the sequential time for the *whole* workload; `tp` the measured
/// parallel time. Returns 0 for degenerate inputs rather than panicking so
/// sweeps with empty cells stay well-formed.
pub fn parallel_efficiency(t1_seconds: f64, tp_seconds: f64, p_cores: usize) -> f64 {
    if tp_seconds <= 0.0 || p_cores == 0 {
        return 0.0;
    }
    t1_seconds / (p_cores as f64 * tp_seconds)
}

/// Equation 2: average time for a single task on a single core.
pub fn avg_time_per_task_per_core(tp_seconds: f64, p_cores: usize, n_tasks: usize) -> f64 {
    if n_tasks == 0 {
        return 0.0;
    }
    tp_seconds * p_cores as f64 / n_tasks as f64
}

/// Outcome of one framework run, consumed by the benchmark harness.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Which framework produced this run ("classic-ec2", "hadoop", ...).
    pub platform: String,
    /// Number of worker cores used.
    pub cores: usize,
    /// Number of tasks completed (including none-lost re-executions only once).
    pub tasks: usize,
    /// Wall-clock (native) or simulated (DES) makespan, seconds.
    pub makespan_seconds: f64,
    /// Count of task executions that were retries/duplicates — wasted work.
    pub redundant_executions: usize,
    /// Total bytes moved through remote storage (0 for local-disk platforms).
    pub remote_bytes: u64,
}

impl RunSummary {
    /// Canonical JSON rendering. This is the one shared report serializer:
    /// `ppc_exec::RunReport::to_json` embeds it, and every paradigm
    /// report's JSON in turn embeds that — no per-crate copies.
    pub fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        Json::Obj(vec![
            ("platform".into(), Json::from(self.platform.as_str())),
            ("cores".into(), Json::from(self.cores)),
            ("tasks".into(), Json::from(self.tasks)),
            (
                "makespan_seconds".into(),
                Json::Float(self.makespan_seconds),
            ),
            (
                "redundant_executions".into(),
                Json::from(self.redundant_executions),
            ),
            ("remote_bytes".into(), Json::from(self.remote_bytes)),
        ])
    }

    /// Equation 1 against a supplied sequential baseline.
    pub fn efficiency(&self, t1_seconds: f64) -> f64 {
        parallel_efficiency(t1_seconds, self.makespan_seconds, self.cores)
    }
}

/// Descriptive statistics over a sample, used when reporting repeated runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    pub n: usize,
    pub mean: f64,
    pub std_dev: f64,
    pub min: f64,
    pub max: f64,
}

impl Stats {
    /// Compute stats over a non-empty sample; returns `None` when empty.
    pub fn from_sample(xs: &[f64]) -> Option<Stats> {
        if xs.is_empty() {
            return None;
        }
        let n = xs.len();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for &x in xs {
            min = min.min(x);
            max = max.max(x);
        }
        Some(Stats {
            n,
            mean,
            std_dev: var.sqrt(),
            min,
            max,
        })
    }

    /// Coefficient of variation in percent — the paper reports 1.56% (AWS)
    /// and 2.25% (Azure) sustained-performance variation this way.
    pub fn cv_percent(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            100.0 * self.std_dev / self.mean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_perfect_scaling() {
        // 1600 s sequential, 100 s on 16 cores -> E = 1.
        assert!((parallel_efficiency(1600.0, 100.0, 16) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn efficiency_with_overhead() {
        // 25% overhead -> E = 0.8.
        assert!((parallel_efficiency(1600.0, 125.0, 16) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn efficiency_degenerate() {
        assert_eq!(parallel_efficiency(1.0, 0.0, 4), 0.0);
        assert_eq!(parallel_efficiency(1.0, 1.0, 0), 0.0);
    }

    #[test]
    fn per_task_per_core() {
        // 200 tasks, 1000 s on 16 cores -> 80 s per task per core.
        assert!((avg_time_per_task_per_core(1000.0, 16, 200) - 80.0).abs() < 1e-12);
        assert_eq!(avg_time_per_task_per_core(1000.0, 16, 0), 0.0);
    }

    #[test]
    fn summary_wraps_equations() {
        let s = RunSummary {
            platform: "hadoop".into(),
            cores: 16,
            tasks: 200,
            makespan_seconds: 125.0,
            redundant_executions: 3,
            remote_bytes: 0,
        };
        assert!((s.efficiency(1600.0) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn summary_json_round_trips() {
        let s = RunSummary {
            platform: "classic-ec2".into(),
            cores: 128,
            tasks: 4096,
            makespan_seconds: 3000.5,
            redundant_executions: 4,
            remote_bytes: 2 << 30,
        };
        let j = crate::json::Json::parse(&s.to_json().to_string()).unwrap();
        assert_eq!(
            j.field("platform").unwrap().as_str().unwrap(),
            "classic-ec2"
        );
        assert_eq!(j.field("cores").unwrap().as_usize().unwrap(), 128);
        assert_eq!(
            j.field("makespan_seconds").unwrap().as_f64().unwrap(),
            3000.5
        );
        assert_eq!(j.field("remote_bytes").unwrap().as_u64().unwrap(), 2 << 30);
    }

    #[test]
    fn stats_basics() {
        let s = Stats::from_sample(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert_eq!(s.n, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.std_dev - 2.13809).abs() < 1e-4); // sample std dev
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
    }

    #[test]
    fn stats_empty_and_singleton() {
        assert!(Stats::from_sample(&[]).is_none());
        let s = Stats::from_sample(&[3.0]).unwrap();
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.cv_percent(), 0.0);
    }

    #[test]
    fn cv_percent() {
        let s = Stats {
            n: 2,
            mean: 100.0,
            std_dev: 1.56,
            min: 0.0,
            max: 0.0,
        };
        assert!((s.cv_percent() - 1.56).abs() < 1e-12);
    }
}
