//! The master's task scheduler: a global queue with data-locality
//! preference over the shared [`AttemptLedger`], which owns every
//! attempt's state (retries, speculative duplicates, first-result-wins
//! commit, and the native runtime's kill tokens and deadline cuts) with
//! every task in its one partition. The native runtime's slot pool and
//! the simulator both drive it, so the scheduling measured is the same.
//! Hadoop's default speculation is [`HedgeConfig::legacy_speculation`].

use crate::input::InputSplit;
use ppc_hdfs::block::DataNodeId;
use ppc_resilience::{AttemptLedger, HedgeConfig};
use std::collections::VecDeque;

pub use ppc_resilience::{AttemptId, CompleteOutcome, FailOutcome};

/// A unit of work handed to a worker slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    pub id: AttemptId,
    /// Index into the scheduler's split list.
    pub split: usize,
    /// Whether the input's replicas include the requesting node.
    pub local: bool,
    /// Whether this is a speculative duplicate of a running attempt.
    pub speculative: bool,
}

/// Counters the report surfaces.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    pub local_assignments: u64,
    pub remote_assignments: u64,
    pub speculative_assignments: u64,
    pub retries: u64,
    pub duplicate_completions: u64,
}

/// The global-queue scheduler.
pub struct Scheduler {
    splits: Vec<InputSplit>,
    /// Tasks with no live attempt, waiting for a slot.
    pending: VecDeque<usize>,
    ledger: AttemptLedger,
    local_assignments: u64,
    remote_assignments: u64,
}

impl Scheduler {
    /// No speculation without a hedge config; `max_attempts` failures
    /// fail a task.
    pub fn with_policy(
        splits: Vec<InputSplit>,
        hedge: Option<HedgeConfig>,
        max_attempts: u32,
    ) -> Scheduler {
        let n = splits.len();
        Scheduler {
            splits,
            pending: (0..n).collect(),
            ledger: AttemptLedger::new(vec![0; n], hedge, max_attempts),
            local_assignments: 0,
            remote_assignments: 0,
        }
    }

    pub fn n_done(&self) -> usize {
        self.ledger.n_done()
    }

    pub fn failed_tasks(&self) -> Vec<usize> {
        self.ledger.failed_tasks()
    }

    pub fn stats(&self) -> SchedulerStats {
        SchedulerStats {
            local_assignments: self.local_assignments,
            remote_assignments: self.remote_assignments,
            speculative_assignments: self.ledger.hedges_launched() as u64,
            retries: self.ledger.retries(),
            duplicate_completions: self.ledger.duplicate_completions(),
        }
    }

    /// All tasks resolved (done or permanently failed).
    pub fn is_complete(&self) -> bool {
        self.ledger.is_complete()
    }

    /// Work for a worker on `node` at `now_s`: a pending task replicated
    /// on `node`, else any pending task, else a hedge of the oldest
    /// running task that the ledger's hedge policy approves.
    pub fn next_at(&mut self, node: DataNodeId, now_s: f64) -> Option<Assignment> {
        let local = self
            .pending
            .iter()
            .position(|&t| self.splits[t].hosts.contains(&node));
        let task = match local {
            Some(pos) => self.pending.remove(pos),
            None => self.pending.pop_front(),
        };
        let (id, speculative) = match task {
            Some(task) => (self.ledger.launch(task, now_s), false),
            None => (self.ledger.launch_hedge(0, now_s)?, true),
        };
        let local = self.splits[id.task].hosts.contains(&node);
        if local {
            self.local_assignments += 1;
        } else {
            self.remote_assignments += 1;
        }
        Some(Assignment {
            id,
            split: id.task,
            local,
            speculative,
        })
    }

    /// The earliest time [`Scheduler::next_at`] could hand out work:
    /// `now_s` while a task is pending, else
    /// [`AttemptLedger::earliest_hedge_s`].
    pub fn earliest_assign_s(&self, now_s: f64) -> Option<f64> {
        if !self.pending.is_empty() {
            return Some(now_s);
        }
        self.ledger.earliest_hedge_s(0)
    }

    /// The ledger the native slot pool settles attempts through.
    pub fn ledger(&mut self) -> &mut AttemptLedger {
        &mut self.ledger
    }

    pub fn complete_at(&mut self, id: AttemptId, now_s: f64) -> CompleteOutcome {
        self.ledger.complete_at(id, now_s)
    }

    /// A retried task with no attempt left live goes back in the queue.
    pub fn fail(&mut self, id: AttemptId) -> FailOutcome {
        let outcome = self.ledger.fail(id);
        if outcome == FailOutcome::Retried && self.ledger.live_attempts(id.task) == 0 {
            self.requeue(id.task);
        }
        outcome
    }

    /// Put retried `task`, with no attempt live, back in the queue.
    pub fn requeue(&mut self, task: usize) {
        self.pending.push_back(task);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn splits(hosts: Vec<Vec<usize>>) -> Vec<InputSplit> {
        hosts
            .into_iter()
            .enumerate()
            .map(|(i, h)| InputSplit {
                index: i,
                path: format!("/in/f{i}"),
                name: format!("f{i}"),
                len: 100,
                hosts: h.into_iter().map(DataNodeId).collect(),
            })
            .collect()
    }

    /// A scheduler with Hadoop's default speculation on or off.
    fn scheduler(hosts: Vec<Vec<usize>>, speculative: bool, max_attempts: u32) -> Scheduler {
        let hedge = speculative.then(HedgeConfig::legacy_speculation);
        Scheduler::with_policy(splits(hosts), hedge, max_attempts)
    }

    fn next(s: &mut Scheduler, node: usize) -> Option<Assignment> {
        s.next_at(DataNodeId(node), 0.0)
    }

    #[test]
    fn prefers_local_tasks() {
        let mut s = scheduler(vec![vec![1], vec![0], vec![1]], false, 1);
        // Node 0 should pick task 1 (its local one) even though task 0 is first.
        let a = next(&mut s, 0).unwrap();
        assert_eq!(a.split, 1);
        assert!(a.local);
        // Node 1 then gets task 0 or 2, both local to it.
        let b = next(&mut s, 1).unwrap();
        assert!(b.local);
        assert_eq!(s.stats().local_assignments, 2);
    }

    #[test]
    fn falls_back_to_remote() {
        let mut s = scheduler(vec![vec![5]], false, 1);
        let a = next(&mut s, 0).unwrap();
        assert!(!a.local);
        assert_eq!(s.stats().remote_assignments, 1);
    }

    #[test]
    fn completion_drains_the_job() {
        let mut s = scheduler(vec![vec![0], vec![0]], false, 1);
        let a = next(&mut s, 0).unwrap();
        let b = next(&mut s, 0).unwrap();
        assert!(next(&mut s, 0).is_none());
        assert_eq!(s.complete_at(a.id, 0.0), CompleteOutcome::First);
        assert!(!s.is_complete());
        assert_eq!(s.complete_at(b.id, 0.0), CompleteOutcome::First);
        assert!(s.is_complete());
        assert_eq!(s.n_done(), 2);
    }

    #[test]
    fn failure_retries_then_gives_up() {
        let mut s = scheduler(vec![vec![0]], false, 2);
        let a = next(&mut s, 0).unwrap();
        assert_eq!(s.fail(a.id), FailOutcome::Retried);
        assert_eq!(s.earliest_assign_s(3.0), Some(3.0), "requeued");
        let b = next(&mut s, 0).unwrap();
        assert_eq!(b.id.attempt, 1, "fresh attempt ordinal");
        assert_eq!(s.fail(b.id), FailOutcome::TaskFailed);
        assert!(s.is_complete());
        assert_eq!(s.failed_tasks(), vec![0]);
        assert_eq!(s.stats().retries, 1);
    }

    #[test]
    fn speculation_only_when_queue_empty() {
        let mut s = scheduler(vec![vec![0], vec![0]], true, 4);
        let a = next(&mut s, 0).unwrap();
        assert!(!a.speculative);
        let b = next(&mut s, 0).unwrap();
        assert!(!b.speculative);
        // Queue empty, two tasks running: next request gets a duplicate of
        // the oldest-running task (task of `a`).
        let c = next(&mut s, 1).unwrap();
        assert!(c.speculative);
        assert_eq!(c.id.task, a.id.task);
        assert!(!c.local, "node 1 holds no replica");
        // No third attempt while two are live.
        let d = next(&mut s, 1).unwrap();
        assert!(d.speculative);
        assert_eq!(d.id.task, b.id.task, "other task gets its duplicate next");
        assert!(next(&mut s, 1).is_none(), "all tasks at 2 live attempts");
        let stats = s.stats();
        assert_eq!(stats.speculative_assignments, 2);
        assert_eq!((stats.local_assignments, stats.remote_assignments), (2, 2));
    }

    #[test]
    fn failed_speculative_attempt_is_harmless() {
        let mut s = scheduler(vec![vec![0]], true, 4);
        let a = next(&mut s, 0).unwrap();
        let dup = next(&mut s, 1).unwrap();
        assert_eq!(s.fail(dup.id), FailOutcome::Retried);
        assert_eq!(s.earliest_assign_s(0.0), Some(0.0), "hedgeable again");
        assert_eq!(
            s.next_at(DataNodeId(1), 0.0).map(|x| x.speculative),
            Some(true)
        );
        assert_eq!(s.complete_at(a.id, 0.0), CompleteOutcome::First);
        assert!(s.is_complete());
    }

    #[test]
    fn no_speculation_when_disabled() {
        let mut s = scheduler(vec![vec![0]], false, 4);
        let _a = next(&mut s, 0).unwrap();
        assert!(next(&mut s, 1).is_none());
        assert_eq!(s.earliest_assign_s(0.0), None);
    }

    #[test]
    fn quantile_policy_delays_and_budgets_hedges() {
        let cfg = HedgeConfig {
            quantile: 0.5,
            factor: 2.0,
            min_observations: 1,
            min_delay_s: 0.0,
            budget_fraction: 0.5,
            max_live_attempts: 2,
        };
        let mut s = Scheduler::with_policy(splits(vec![vec![0], vec![0]]), Some(cfg), 4);
        let a = s.next_at(DataNodeId(0), 0.0).unwrap();
        let _b = s.next_at(DataNodeId(0), 0.0).unwrap();
        // One completion at 10 s arms the trigger: delay = p50(10) × 2 = 20.
        assert_eq!(s.complete_at(a.id, 10.0), CompleteOutcome::First);
        assert_eq!(s.earliest_assign_s(15.0), Some(20.0));
        // The surviving task started at t=0; at t=15 it is under the delay.
        assert!(s.next_at(DataNodeId(1), 15.0).is_none());
        // At t=20 it crosses the delay and gets its hedge.
        let h = s.next_at(DataNodeId(1), 20.0).unwrap();
        assert!(h.speculative);
        assert_eq!(s.stats().speculative_assignments, 1);
        // Budget = ceil(0.5 × 2) = 1: no further duplicates even later.
        assert_eq!(s.complete_at(h.id, 25.0), CompleteOutcome::First);
        assert!(s.next_at(DataNodeId(1), 100.0).is_none());
    }
}
