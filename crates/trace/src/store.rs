//! The immutable span store: queries, well-formedness, Eq. 1 / Eq. 2
//! recomputation, and the legacy Gantt view.

use crate::span::{EventKind, Phase, RunMeta, Span, TraceEvent, JOB_TASK, NO_WORKER};
use ppc_core::metrics::parallel_efficiency;
use ppc_core::trace::Timeline;
use std::collections::{BTreeMap, BTreeSet};

/// Tolerance for interval-containment checks: spans are recorded from f64
/// arithmetic on both engines, so exact nesting can be off by rounding.
const EPS_S: f64 = 1e-9;

/// An immutable snapshot of a run's spans and fleet events.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    meta: RunMeta,
    spans: Vec<Span>,
    events: Vec<TraceEvent>,
}

impl Trace {
    pub fn new(meta: RunMeta, spans: Vec<Span>, events: Vec<TraceEvent>) -> Trace {
        Trace {
            meta,
            spans,
            events,
        }
    }

    pub fn meta(&self) -> &RunMeta {
        &self.meta
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    pub fn events_of_kind(&self, kind: EventKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }

    /// All distinct task ids with at least one span (excluding the job root).
    pub fn task_ids(&self) -> BTreeSet<u64> {
        self.spans
            .iter()
            .filter(|s| s.task != JOB_TASK)
            .map(|s| s.task)
            .collect()
    }

    /// Distinct attempt numbers recorded for `task` (from Attempt spans).
    pub fn attempts_of(&self, task: u64) -> BTreeSet<u32> {
        self.spans
            .iter()
            .filter(|s| s.task == task && s.phase == Phase::Attempt)
            .map(|s| s.attempt)
            .collect()
    }

    /// The job-level root span, if the engine recorded one.
    pub fn job_span(&self) -> Option<Span> {
        self.spans.iter().find(|s| s.phase == Phase::Job).copied()
    }

    /// Makespan seen by the trace: the job span's duration, else the latest
    /// span end.
    pub fn makespan_s(&self) -> f64 {
        self.job_span()
            .map(|s| s.duration_s())
            .unwrap_or_else(|| self.spans.iter().map(|s| s.end_s).fold(0.0, f64::max))
    }

    /// Task ids that finished: at least one terminal (ack/commit/write) span.
    pub fn completed_tasks(&self) -> BTreeSet<u64> {
        self.spans
            .iter()
            .filter(|s| s.phase.is_terminal())
            .map(|s| s.task)
            .collect()
    }

    /// Number of terminal spans recorded for `task`.
    pub fn terminal_spans_of(&self, task: u64) -> usize {
        self.spans
            .iter()
            .filter(|s| s.task == task && s.phase.is_terminal())
            .count()
    }

    /// Lifecycle phase set of the attempt that won `task` (the attempt
    /// holding a terminal span), excluding structural spans. Empty if the
    /// task never completed.
    pub fn terminal_attempt_phases(&self, task: u64) -> BTreeSet<Phase> {
        let Some(win) = self
            .spans
            .iter()
            .find(|s| s.task == task && s.phase.is_terminal())
        else {
            return BTreeSet::new();
        };
        self.spans
            .iter()
            .filter(|s| s.task == task && s.attempt == win.attempt && !s.phase.is_structural())
            .map(|s| s.phase)
            .collect()
    }

    /// Eq. 1 from spans: `E = T1 / (P · Tp)` with `Tp` the job span's
    /// duration and `P` the recorded core count.
    pub fn parallel_efficiency(&self, t1_seconds: f64) -> f64 {
        parallel_efficiency(t1_seconds, self.makespan_s(), self.meta.cores)
    }

    /// Structural well-formedness violations; empty means the trace is sound.
    ///
    /// Checks: finite non-negative durations; at most one Attempt span per
    /// `(task, attempt)`; every phase span that requires an attempt has an
    /// Attempt parent on the same worker whose interval contains it.
    pub fn check_well_formed(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let mut attempts: BTreeMap<(u64, u32), Span> = BTreeMap::new();
        for s in &self.spans {
            if !s.start_s.is_finite() || !s.end_s.is_finite() {
                problems.push(format!("non-finite span: {s:?}"));
                continue;
            }
            if s.end_s < s.start_s - EPS_S {
                problems.push(format!(
                    "negative duration ({:.9}s) on {:?} task {} attempt {}",
                    s.duration_s(),
                    s.phase,
                    s.task,
                    s.attempt
                ));
            }
            if s.phase == Phase::Attempt {
                if let Some(prev) = attempts.insert((s.task, s.attempt), *s) {
                    problems.push(format!(
                        "duplicate attempt span for task {} attempt {} (prev {:?})",
                        s.task, s.attempt, prev
                    ));
                }
            }
        }
        for s in &self.spans {
            if !s.phase.requires_attempt() {
                continue;
            }
            match attempts.get(&(s.task, s.attempt)) {
                None => problems.push(format!(
                    "{} span for task {} attempt {} has no attempt parent",
                    s.phase.name(),
                    s.task,
                    s.attempt
                )),
                Some(parent) => {
                    if s.start_s < parent.start_s - EPS_S || s.end_s > parent.end_s + EPS_S {
                        problems.push(format!(
                            "{} span [{:.9}, {:.9}] outside attempt [{:.9}, {:.9}] (task {} attempt {})",
                            s.phase.name(),
                            s.start_s,
                            s.end_s,
                            parent.start_s,
                            parent.end_s,
                            s.task,
                            s.attempt
                        ));
                    }
                    if s.worker != parent.worker {
                        problems.push(format!(
                            "{} span on worker {} but attempt parent on worker {} (task {} attempt {})",
                            s.phase.name(),
                            s.worker,
                            parent.worker,
                            s.task,
                            s.attempt
                        ));
                    }
                }
            }
        }
        problems
    }

    /// Legacy per-worker busy view: one [`Timeline`] interval per *winning*
    /// attempt (an Attempt span whose `(task, attempt)` holds a terminal
    /// span). This is the view `ClassicReport::timeline` used to maintain by
    /// hand in the simulator.
    pub fn to_timeline(&self) -> Timeline {
        let winners: BTreeSet<(u64, u32)> = self
            .spans
            .iter()
            .filter(|s| s.phase.is_terminal())
            .map(|s| (s.task, s.attempt))
            .collect();
        let mut tl = Timeline::new();
        for s in &self.spans {
            if s.phase == Phase::Attempt
                && s.worker != NO_WORKER
                && winners.contains(&(s.task, s.attempt))
            {
                tl.push(s.worker as usize, s.task, s.start_s, s.end_s);
            }
        }
        tl
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> RunMeta {
        RunMeta {
            platform: "classic-test".into(),
            cores: 2,
            tasks: 2,
            makespan_seconds: 10.0,
        }
    }

    /// Two tasks on two workers; task 1 needs two attempts.
    fn sample() -> Trace {
        let mut spans = vec![Span::job(10.0)];
        // task 0, attempt 0, worker 0: clean run.
        spans.push(Span::new(0, 0, NO_WORKER, Phase::Enqueue, 0.0, 0.1));
        spans.push(Span::new(0, 0, 0, Phase::Dequeue, 1.0, 1.2));
        spans.push(Span::new(0, 0, 0, Phase::Download, 1.2, 2.0));
        spans.push(Span::new(0, 0, 0, Phase::Execute, 2.0, 6.0));
        spans.push(Span::new(0, 0, 0, Phase::Upload, 6.0, 6.5));
        spans.push(Span::new(0, 0, 0, Phase::Ack, 6.5, 6.7));
        spans.push(Span::new(0, 0, 0, Phase::Attempt, 1.0, 6.7));
        // task 1, attempt 0, worker 1: dies mid-execute (no terminal).
        spans.push(Span::new(1, 0, 1, Phase::Dequeue, 1.0, 1.1));
        spans.push(Span::new(1, 0, 1, Phase::Execute, 1.1, 3.0));
        spans.push(Span::new(1, 0, 1, Phase::Attempt, 1.0, 3.0));
        // task 1, attempt 1, worker 0: wins.
        spans.push(Span::new(1, 1, 0, Phase::Dequeue, 6.8, 6.9));
        spans.push(Span::new(1, 1, 0, Phase::Download, 6.9, 7.2));
        spans.push(Span::new(1, 1, 0, Phase::Execute, 7.2, 9.0));
        spans.push(Span::new(1, 1, 0, Phase::Upload, 9.0, 9.5));
        spans.push(Span::new(1, 1, 0, Phase::Ack, 9.5, 9.6));
        spans.push(Span::new(1, 1, 0, Phase::Attempt, 6.8, 9.6));
        let events = vec![TraceEvent {
            at_s: 3.0,
            worker: 1,
            kind: EventKind::Death,
        }];
        Trace::new(meta(), spans, events)
    }

    #[test]
    fn sample_is_well_formed() {
        let t = sample();
        let problems = t.check_well_formed();
        assert!(problems.is_empty(), "{problems:?}");
    }

    #[test]
    fn queries_see_attempts_and_terminals() {
        let t = sample();
        assert_eq!(t.task_ids().len(), 2);
        assert_eq!(t.attempts_of(1).len(), 2);
        assert_eq!(t.completed_tasks().len(), 2);
        assert_eq!(t.terminal_spans_of(0), 1);
        assert_eq!(t.terminal_spans_of(1), 1);
        let phases = t.terminal_attempt_phases(1);
        assert!(phases.contains(&Phase::Ack));
        assert!(phases.contains(&Phase::Execute));
        assert!(!phases.contains(&Phase::Attempt));
        assert_eq!(t.events_of_kind(EventKind::Death), 1);
    }

    #[test]
    fn efficiency_matches_core_metrics() {
        let t = sample();
        assert_eq!(t.makespan_s(), 10.0);
        let e = t.parallel_efficiency(18.0);
        assert!((e - 18.0 / (2.0 * 10.0)).abs() < 1e-12);
    }

    #[test]
    fn timeline_view_keeps_only_winning_attempts() {
        let t = sample();
        let tl = t.to_timeline();
        // 3 attempt spans, but only 2 won.
        assert_eq!(tl.intervals().len(), 2);
    }

    #[test]
    fn malformed_traces_are_reported() {
        let mut t = sample();
        t.spans.push(Span::new(7, 0, 0, Phase::Execute, 1.0, 2.0));
        let problems = t.check_well_formed();
        assert!(problems.iter().any(|p| p.contains("no attempt parent")));

        let mut t2 = sample();
        t2.spans.push(Span::new(9, 0, 0, Phase::Attempt, 5.0, 4.0));
        assert!(t2
            .check_well_formed()
            .iter()
            .any(|p| p.contains("negative duration")));

        let mut t3 = sample();
        t3.spans.push(Span::new(0, 0, 0, Phase::Attempt, 0.0, 1.0));
        assert!(t3
            .check_well_formed()
            .iter()
            .any(|p| p.contains("duplicate attempt")));
    }
}
