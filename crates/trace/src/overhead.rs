//! Overhead decomposition: attribute the Eq. 1 efficiency gap to named
//! per-framework overheads, recomputed purely from spans.
//!
//! The paper explains each framework's efficiency loss with a different
//! mechanism — Classic Cloud pays queue-control round-trips and blob
//! transfers, Hadoop pays dispatch latency and non-local reads, DryadLINQ
//! pays vertex startup and static-partition idle time. Each paradigm gets a
//! *fixed* category list (zero-valued categories included), so a sim trace
//! and a native trace of the same paradigm always decompose into the same
//! structure even when the numbers differ.

use crate::span::{Phase, NO_WORKER};
use crate::store::Trace;
use ppc_core::report::Table;
use std::collections::HashMap;

/// Category name for core-time burnt by attempts that lost: hedged
/// duplicates and chaos re-executions of tasks some other attempt won.
/// Present (zero-valued when unused) in every paradigm's taxonomy.
pub const WASTED_DUPLICATE_WORK: &str = "wasted duplicate work";

/// Category name for inter-stage materialization barriers in a workflow
/// trace: the storage round-trips moving one stage's outputs into the next
/// stage's inputs. Present (zero-valued for single-stage runs) in every
/// paradigm's taxonomy. Unlike per-attempt phases these spans carry
/// [`NO_WORKER`] — the barrier serializes the whole stage boundary — so
/// [`OverheadReport::from_trace`] bills them specially.
pub const INTER_STAGE_MATERIALIZATION: &str = "inter-stage materialization";

/// Which of the paper's three frameworks a trace came from, detected from
/// the platform string every engine stamps into [`RunMeta`](crate::RunMeta).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Paradigm {
    Classic,
    Hadoop,
    Dryad,
}

impl Paradigm {
    /// Detect from a platform name: `classic*`, `hadoop*`, `dryad*`.
    pub fn detect(platform: &str) -> Option<Paradigm> {
        if platform.starts_with("classic") {
            Some(Paradigm::Classic)
        } else if platform.starts_with("hadoop") {
            Some(Paradigm::Hadoop)
        } else if platform.starts_with("dryad") {
            Some(Paradigm::Dryad)
        } else {
            None
        }
    }

    /// The fixed overhead taxonomy: `(category name, phases billed to it)`.
    ///
    /// Every paradigm ends with [`WASTED_DUPLICATE_WORK`], an empty-phase
    /// bucket filled specially by [`OverheadReport::from_trace`]: all
    /// non-structural time of *losing* attempts (hedged duplicates, chaos
    /// re-executions) for tasks some other attempt won.
    pub fn categories(self) -> &'static [(&'static str, &'static [Phase])] {
        match self {
            Paradigm::Classic => &[
                ("queue control", &[Phase::Dequeue, Phase::Ack]),
                ("storage download", &[Phase::Download]),
                ("storage upload", &[Phase::Upload]),
                (INTER_STAGE_MATERIALIZATION, &[Phase::Materialize]),
                (WASTED_DUPLICATE_WORK, &[]),
            ],
            Paradigm::Hadoop => &[
                ("dispatch", &[Phase::Dispatch]),
                ("local read", &[Phase::ReadLocal]),
                ("remote read", &[Phase::ReadRemote]),
                ("commit write", &[Phase::Commit]),
                (INTER_STAGE_MATERIALIZATION, &[Phase::Materialize]),
                (WASTED_DUPLICATE_WORK, &[]),
            ],
            Paradigm::Dryad => &[
                ("vertex startup", &[Phase::VertexStart]),
                ("local io", &[Phase::ReadLocal, Phase::Write]),
                (INTER_STAGE_MATERIALIZATION, &[Phase::Materialize]),
                (WASTED_DUPLICATE_WORK, &[]),
            ],
        }
    }
}

/// One named overhead bucket: total worker-seconds spent in its phases.
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadCategory {
    pub name: &'static str,
    pub seconds: f64,
}

/// Eq. 1 / Eq. 2 recomputed from spans plus a core-time decomposition:
/// `cores × horizon = compute + Σ overheads + idle`.
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadReport {
    pub paradigm: Paradigm,
    pub platform: String,
    pub cores: usize,
    pub tasks: usize,
    pub makespan_s: f64,
    /// Last span end — ≥ makespan, because speculative duplicates keep
    /// burning cores after the winning attempt completes the job. This,
    /// not the makespan, bounds the core-time being decomposed.
    pub horizon_s: f64,
    /// Worker-seconds of application compute (execute/map), all attempts.
    pub compute_s: f64,
    /// Fixed per-paradigm overhead buckets (zeros kept).
    pub categories: Vec<OverheadCategory>,
    /// Core-seconds not covered by compute or overheads: scheduling gaps,
    /// static-partition imbalance, post-death idleness.
    pub idle_s: f64,
}

impl OverheadReport {
    /// Decompose a finished trace. Panics if the platform string does not
    /// identify a paradigm — traces are always stamped by an engine.
    pub fn from_trace(trace: &Trace) -> OverheadReport {
        let meta = trace.meta();
        let paradigm = Paradigm::detect(&meta.platform)
            .unwrap_or_else(|| panic!("unknown paradigm for platform {:?}", meta.platform));
        let makespan_s = trace.makespan_s();
        let horizon_s = trace
            .spans()
            .iter()
            .map(|s| s.end_s)
            .fold(makespan_s, f64::max);
        let mut compute_s = 0.0;
        let mut categories: Vec<OverheadCategory> = paradigm
            .categories()
            .iter()
            .map(|(name, _)| OverheadCategory { name, seconds: 0.0 })
            .collect();
        let wasted_idx = categories
            .iter()
            .position(|c| c.name == WASTED_DUPLICATE_WORK)
            .expect("every taxonomy ends with the wasted-duplicate bucket");
        // The attempt that won each task, identified by its terminal span
        // (ack/commit/write). Attempts of the same task that are not the
        // winner burnt core-time without producing the output: their whole
        // footprint is wasted duplicate work, not compute or overhead.
        let mut winner: HashMap<u64, u32> = HashMap::new();
        for s in trace.spans() {
            if s.phase.is_terminal() {
                winner.entry(s.task).or_insert(s.attempt);
            }
        }
        let mat_idx = categories
            .iter()
            .position(|c| c.name == INTER_STAGE_MATERIALIZATION)
            .expect("every taxonomy has the materialization bucket");
        for s in trace.spans() {
            // Materialization barriers are driver-side (NO_WORKER) spans,
            // billed before the worker filter below would drop them.
            if s.phase == Phase::Materialize {
                categories[mat_idx].seconds += s.duration_s();
                continue;
            }
            if s.worker == NO_WORKER || s.phase.is_structural() || s.phase.is_stage_boundary() {
                continue;
            }
            if winner.get(&s.task).is_some_and(|&w| w != s.attempt) {
                categories[wasted_idx].seconds += s.duration_s();
                continue;
            }
            if s.phase.is_compute() {
                compute_s += s.duration_s();
                continue;
            }
            for (i, (_, phases)) in paradigm.categories().iter().enumerate() {
                if phases.contains(&s.phase) {
                    categories[i].seconds += s.duration_s();
                    break;
                }
            }
        }
        let overhead_s: f64 = categories.iter().map(|c| c.seconds).sum();
        let idle_s = (meta.cores as f64 * horizon_s - compute_s - overhead_s).max(0.0);
        OverheadReport {
            paradigm,
            platform: meta.platform.clone(),
            cores: meta.cores,
            tasks: meta.tasks,
            makespan_s,
            horizon_s,
            compute_s,
            categories,
            idle_s,
        }
    }

    /// Total worker-seconds across all overhead categories.
    pub fn overhead_s(&self) -> f64 {
        self.categories.iter().map(|c| c.seconds).sum()
    }

    /// The category names, in taxonomy order — structure, not values.
    pub fn category_names(&self) -> Vec<&'static str> {
        self.categories.iter().map(|c| c.name).collect()
    }

    /// Fraction of total core-time (`cores × horizon`) a bucket takes.
    fn share(&self, seconds: f64) -> f64 {
        let total = self.cores as f64 * self.horizon_s;
        if total > 0.0 {
            seconds / total
        } else {
            0.0
        }
    }

    /// Render the decomposition: each row attributes a slice of the
    /// efficiency gap to a named overhead.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            format!("overhead decomposition — {}", self.platform),
            &["bucket", "core-seconds", "share of core-time"],
        );
        t.row(vec![
            "compute".into(),
            format!("{:.3}", self.compute_s),
            format!("{:.1}%", 100.0 * self.share(self.compute_s)),
        ]);
        for c in &self.categories {
            t.row(vec![
                c.name.into(),
                format!("{:.3}", c.seconds),
                format!("{:.1}%", 100.0 * self.share(c.seconds)),
            ]);
        }
        t.row(vec![
            "idle".into(),
            format!("{:.3}", self.idle_s),
            format!("{:.1}%", 100.0 * self.share(self.idle_s)),
        ]);
        t.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{RunMeta, Span};
    use crate::store::Trace;

    fn classic_trace() -> Trace {
        let meta = RunMeta {
            platform: "classic-sim-test".into(),
            cores: 2,
            tasks: 1,
            makespan_seconds: 10.0,
        };
        let spans = vec![
            Span::job(10.0),
            Span::new(0, 0, 0, Phase::Dequeue, 0.0, 1.0),
            Span::new(0, 0, 0, Phase::Download, 1.0, 3.0),
            Span::new(0, 0, 0, Phase::Execute, 3.0, 8.0),
            Span::new(0, 0, 0, Phase::Upload, 8.0, 9.0),
            Span::new(0, 0, 0, Phase::Ack, 9.0, 9.5),
            Span::new(0, 0, 0, Phase::Attempt, 0.0, 9.5),
        ];
        Trace::new(meta, spans, Vec::new())
    }

    #[test]
    fn detects_paradigm_from_platform() {
        assert_eq!(Paradigm::detect("classic"), Some(Paradigm::Classic));
        assert_eq!(
            Paradigm::detect("classic-autoscale-ec2-hcxl"),
            Some(Paradigm::Classic)
        );
        assert_eq!(Paradigm::detect("hadoop-sim-x"), Some(Paradigm::Hadoop));
        assert_eq!(Paradigm::detect("dryadlinq"), Some(Paradigm::Dryad));
        assert_eq!(Paradigm::detect("unknown"), None);
    }

    #[test]
    fn decomposition_accounts_for_all_core_time() {
        let r = OverheadReport::from_trace(&classic_trace());
        assert_eq!(r.paradigm, Paradigm::Classic);
        assert_eq!(r.compute_s, 5.0);
        assert_eq!(
            r.category_names(),
            vec![
                "queue control",
                "storage download",
                "storage upload",
                INTER_STAGE_MATERIALIZATION,
                WASTED_DUPLICATE_WORK,
            ]
        );
        assert_eq!(r.categories[0].seconds, 1.5); // dequeue + ack
        assert_eq!(r.categories[1].seconds, 2.0);
        assert_eq!(r.categories[2].seconds, 1.0);
        let total = r.compute_s + r.overhead_s() + r.idle_s;
        assert!((total - 2.0 * 10.0).abs() < 1e-9);
        let rendered = r.render();
        assert!(rendered.contains("queue control"));
        assert!(rendered.contains("idle"));
    }

    #[test]
    fn zero_categories_are_kept_for_structural_parity() {
        let meta = RunMeta {
            platform: "hadoop".into(),
            cores: 1,
            tasks: 1,
            makespan_seconds: 1.0,
        };
        let spans = vec![
            Span::job(1.0),
            Span::new(0, 0, 0, Phase::Dispatch, 0.0, 0.1),
            Span::new(0, 0, 0, Phase::ReadLocal, 0.1, 0.2),
            Span::new(0, 0, 0, Phase::Map, 0.2, 0.8),
            Span::new(0, 0, 0, Phase::Commit, 0.8, 0.9),
            Span::new(0, 0, 0, Phase::Attempt, 0.0, 0.9),
        ];
        let r = OverheadReport::from_trace(&Trace::new(meta, spans, Vec::new()));
        // No remote read happened, but the category is still present.
        assert!(r.category_names().contains(&"remote read"));
        let remote = r
            .categories
            .iter()
            .find(|c| c.name == "remote read")
            .unwrap();
        assert_eq!(remote.seconds, 0.0);
        // Same for the wasted-duplicate bucket: no hedge ran, zero kept.
        let wasted = r
            .categories
            .iter()
            .find(|c| c.name == WASTED_DUPLICATE_WORK)
            .unwrap();
        assert_eq!(wasted.seconds, 0.0);
    }

    #[test]
    fn materialize_spans_bill_to_the_inter_stage_bucket() {
        use crate::span::{JOB_TASK, NO_WORKER};
        let meta = RunMeta {
            platform: "classic-workflow".into(),
            cores: 2,
            tasks: 2,
            makespan_seconds: 12.0,
        };
        let spans = vec![
            Span::job(12.0),
            Span::new(JOB_TASK, 0, NO_WORKER, Phase::StageStart, 0.0, 0.0),
            Span::new(0, 0, 0, Phase::Dequeue, 0.0, 1.0),
            Span::new(0, 0, 0, Phase::Execute, 1.0, 4.0),
            Span::new(0, 0, 0, Phase::Ack, 4.0, 4.5),
            Span::new(0, 0, 0, Phase::Attempt, 0.0, 4.5),
            Span::new(JOB_TASK, 0, NO_WORKER, Phase::StageDone, 4.5, 4.5),
            // The stage boundary: outputs round-trip through storage.
            Span::new(JOB_TASK, 1, NO_WORKER, Phase::Materialize, 4.5, 6.5),
            Span::new(JOB_TASK, 1, NO_WORKER, Phase::StageStart, 6.5, 6.5),
            Span::new(1, 0, 1, Phase::Dequeue, 6.5, 7.0),
            Span::new(1, 0, 1, Phase::Execute, 7.0, 11.0),
            Span::new(1, 0, 1, Phase::Ack, 11.0, 11.5),
            Span::new(1, 0, 1, Phase::Attempt, 6.5, 11.5),
            Span::new(JOB_TASK, 1, NO_WORKER, Phase::StageDone, 11.5, 11.5),
        ];
        let r = OverheadReport::from_trace(&Trace::new(meta, spans, Vec::new()));
        let mat = r
            .categories
            .iter()
            .find(|c| c.name == INTER_STAGE_MATERIALIZATION)
            .unwrap();
        assert!((mat.seconds - 2.0).abs() < 1e-9);
        assert!((r.compute_s - 7.0).abs() < 1e-9);
        // Stage markers are zero-width and billed nowhere; the Eq. 1
        // identity still closes.
        let total = r.compute_s + r.overhead_s() + r.idle_s;
        assert!((total - 2.0 * 12.0).abs() < 1e-9);
    }

    #[test]
    fn losing_attempts_bill_to_wasted_duplicate_work() {
        let meta = RunMeta {
            platform: "classic-sim-hedged".into(),
            cores: 2,
            tasks: 1,
            makespan_seconds: 10.0,
        };
        let spans = vec![
            Span::job(10.0),
            // Attempt 0 straggles: dequeued, downloaded, still executing
            // when attempt 1 acks. It never reaches a terminal span.
            Span::new(0, 0, 0, Phase::Dequeue, 0.0, 1.0),
            Span::new(0, 0, 0, Phase::Download, 1.0, 2.0),
            Span::new(0, 0, 0, Phase::Execute, 2.0, 9.0),
            Span::new(0, 0, 0, Phase::Attempt, 0.0, 9.0),
            // Attempt 1 is the hedge — it wins.
            Span::new(0, 1, 1, Phase::Dequeue, 4.0, 4.5),
            Span::new(0, 1, 1, Phase::Download, 4.5, 5.0),
            Span::new(0, 1, 1, Phase::Execute, 5.0, 8.0),
            Span::new(0, 1, 1, Phase::Upload, 8.0, 8.5),
            Span::new(0, 1, 1, Phase::Ack, 8.5, 9.0),
            Span::new(0, 1, 1, Phase::Attempt, 4.0, 9.0),
        ];
        let r = OverheadReport::from_trace(&Trace::new(meta, spans, Vec::new()));
        let wasted = r
            .categories
            .iter()
            .find(|c| c.name == WASTED_DUPLICATE_WORK)
            .unwrap();
        // All of attempt 0's non-structural time: 1 + 1 + 7.
        assert!((wasted.seconds - 9.0).abs() < 1e-9);
        // The loser's execute time is wasted, not compute.
        assert!((r.compute_s - 3.0).abs() < 1e-9);
        // The identity still holds: compute + overheads + idle = cores x horizon.
        let total = r.compute_s + r.overhead_s() + r.idle_s;
        assert!((total - 2.0 * 10.0).abs() < 1e-9);
    }
}
