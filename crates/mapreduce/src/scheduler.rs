//! The master's task scheduler: a global queue with data-locality
//! preference, failure retries, and hedged (speculative) execution.
//!
//! Both the native runtime (threads asking for work) and the simulator
//! (virtual workers asking for work) drive this same state machine, so the
//! scheduling behaviour being measured is identical in both.
//!
//! Speculation is delegated to the shared [`ppc_resilience::HedgePolicy`]:
//! Hadoop's default speculation is [`HedgeConfig::legacy_speculation`]
//! (duplicate the oldest running task whenever a slot would otherwise
//! idle), while richer configs add quantile-derived hedge delays and a
//! hedge budget.

use crate::input::InputSplit;
use ppc_hdfs::block::DataNodeId;
use ppc_resilience::{HedgeConfig, HedgePolicy};
use std::collections::{BTreeSet, HashMap, VecDeque};

/// Identifies one attempt of one task (task index, attempt ordinal).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AttemptId {
    pub task: usize,
    pub attempt: u32,
}

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

/// What `complete` tells the caller about an attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompleteOutcome {
    /// This attempt finished the task.
    First,
    /// The task was already done (speculative duplicate or stale retry):
    /// this attempt's work is redundant.
    Duplicate,
}

/// What `fail` tells the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailOutcome {
    /// The task went back in the queue for another attempt.
    Retried,
    /// The retry budget is exhausted; the task is failed permanently.
    TaskFailed,
    /// The task already completed via another attempt; nothing to do.
    Stale,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskPhase {
    Pending,
    Running,
    Done,
    Failed,
}

struct TaskState {
    phase: TaskPhase,
    live_attempts: u32,
    next_attempt: u32,
    failures: u32,
    /// Monotone stamp of when the task first started running (for picking
    /// speculation candidates: oldest-running first).
    started_seq: u64,
    /// Clock time the current running period began (for hedge-delay ages).
    started_at_s: f64,
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
    tasks: Vec<TaskState>,
    pending: VecDeque<usize>,
    n_done: usize,
    n_failed: usize,
    hedge: Option<HedgePolicy>,
    max_attempts: u32,
    seq: u64,
    stats: SchedulerStats,
    /// Launch time of each live attempt, for latency observation.
    attempt_started: HashMap<AttemptId, f64>,
    /// Hedge candidates, oldest-running first: `(started_seq, task)` of
    /// every `Running` task below the live-attempt cap (kept only when
    /// hedging is on). `started_at_s` is non-decreasing in `started_seq`,
    /// so the first entry is also the oldest by clock and the only one a
    /// hedge decision needs to look at.
    candidates: BTreeSet<(u64, usize)>,
    /// `started_at_s` of the latest launch (checks the ordering above).
    last_started_at_s: f64,
}

impl Scheduler {
    /// Legacy constructor: `speculative` maps to
    /// [`HedgeConfig::legacy_speculation`] (duplicate the oldest running
    /// task whenever a slot would otherwise idle, no delay, no budget).
    pub fn new(splits: Vec<InputSplit>, speculative: bool, max_attempts: u32) -> Scheduler {
        Scheduler::with_policy(
            splits,
            speculative.then(HedgeConfig::legacy_speculation),
            max_attempts,
        )
    }

    /// Full constructor: hedging behavior comes from the shared policy
    /// (`None` = never launch duplicates).
    pub fn with_policy(
        splits: Vec<InputSplit>,
        hedge: Option<HedgeConfig>,
        max_attempts: u32,
    ) -> Scheduler {
        assert!(max_attempts >= 1);
        let n = splits.len();
        Scheduler {
            splits,
            tasks: (0..n)
                .map(|_| TaskState {
                    phase: TaskPhase::Pending,
                    live_attempts: 0,
                    next_attempt: 0,
                    failures: 0,
                    started_seq: 0,
                    started_at_s: 0.0,
                })
                .collect(),
            pending: (0..n).collect(),
            n_done: 0,
            n_failed: 0,
            hedge: hedge.map(HedgePolicy::new),
            max_attempts,
            seq: 0,
            stats: SchedulerStats::default(),
            attempt_started: HashMap::new(),
            candidates: BTreeSet::new(),
            last_started_at_s: f64::NEG_INFINITY,
        }
    }

    pub fn split(&self, index: usize) -> &InputSplit {
        &self.splits[index]
    }

    pub fn n_tasks(&self) -> usize {
        self.splits.len()
    }

    pub fn n_done(&self) -> usize {
        self.n_done
    }

    pub fn failed_tasks(&self) -> Vec<usize> {
        self.tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.phase == TaskPhase::Failed)
            .map(|(i, _)| i)
            .collect()
    }

    pub fn stats(&self) -> SchedulerStats {
        self.stats
    }

    /// All tasks resolved (done or permanently failed) and no attempt running.
    pub fn is_complete(&self) -> bool {
        self.n_done + self.n_failed == self.tasks.len()
    }

    /// Ask for work on behalf of a worker on `node`, with no clock — the
    /// legacy entry point, equivalent to [`Scheduler::next_at`] at `t = 0`
    /// (under legacy speculation the hedge delay is zero, so the clock
    /// never matters).
    pub fn next(&mut self, node: DataNodeId) -> Option<Assignment> {
        self.next_at(node, 0.0)
    }

    /// Ask for work on behalf of a worker on `node` at time `now_s`.
    ///
    /// Selection order (Hadoop's essentials):
    /// 1. a pending task whose input is replicated on `node` (data-local),
    /// 2. any pending task (remote read),
    /// 3. if hedging is on and nothing is pending: a duplicate of the
    ///    oldest-running task the [`HedgePolicy`] approves (under live-
    ///    attempt cap, within budget, older than the hedge delay).
    pub fn next_at(&mut self, node: DataNodeId, now_s: f64) -> Option<Assignment> {
        // 1. Local pending task.
        if let Some(pos) = self
            .pending
            .iter()
            .position(|&t| self.splits[t].hosts.contains(&node))
        {
            let task = self.pending.remove(pos).expect("position valid");
            self.stats.local_assignments += 1;
            return Some(self.launch(task, true, false, now_s));
        }
        // 2. Any pending task.
        if let Some(task) = self.pending.pop_front() {
            self.stats.remote_assignments += 1;
            return Some(self.launch(task, false, false, now_s));
        }
        // 3. Hedged duplicate: the oldest-running candidate is also the
        // one that has run longest, so if it is not yet past the hedge
        // delay, no candidate is.
        if let Some(policy) = &self.hedge {
            let n_tasks = self.splits.len();
            let candidate = self
                .candidates
                .first()
                .map(|&(_, task)| task)
                .filter(|&task| {
                    let t = &self.tasks[task];
                    policy.should_hedge(now_s - t.started_at_s, t.live_attempts, n_tasks)
                });
            if let Some(task) = candidate {
                self.hedge
                    .as_mut()
                    .expect("hedge checked above")
                    .record_hedge();
                self.stats.speculative_assignments += 1;
                let local = self.splits[task].hosts.contains(&node);
                if local {
                    self.stats.local_assignments += 1;
                } else {
                    self.stats.remote_assignments += 1;
                }
                return Some(self.launch_attempt(task, local, true, now_s));
            }
        }
        None
    }

    /// The earliest clock time at which [`Scheduler::next_at`] could hand
    /// out work, given the current state: `now_s` while a task is pending;
    /// otherwise the oldest hedge candidate's start plus the hedge delay
    /// when hedging is on and its budget allows; otherwise `None` (only a
    /// completion or failure can make work appear). Pure. The value is the
    /// exact f64 sum `started_at_s + delay`; `next_at` compares `now_s -
    /// started_at_s >= delay`, so a caller that treats earlier instants as
    /// idle should leave a rounding margin below it.
    pub fn earliest_assign_s(&self, now_s: f64) -> Option<f64> {
        if !self.pending.is_empty() {
            return Some(now_s);
        }
        let policy = self.hedge.as_ref()?;
        if !policy.budget_remaining(self.splits.len()) {
            return None;
        }
        let &(_, task) = self.candidates.first()?;
        Some(self.tasks[task].started_at_s + policy.hedge_delay())
    }

    /// The current hedge delay (None when hedging is off) — what the
    /// runtimes use to decide how long an idle slot should wait before
    /// asking again.
    pub fn hedge_delay_s(&self) -> Option<f64> {
        self.hedge.as_ref().map(|p| p.hedge_delay())
    }

    /// Hedged duplicates launched so far (counts against the budget).
    pub fn hedges_launched(&self) -> usize {
        self.hedge.as_ref().map_or(0, |p| p.hedges_launched())
    }

    fn launch(&mut self, task: usize, local: bool, speculative: bool, now_s: f64) -> Assignment {
        debug_assert!(
            now_s >= self.last_started_at_s,
            "launch clock went backwards: {now_s} < {}",
            self.last_started_at_s
        );
        self.last_started_at_s = now_s;
        self.tasks[task].phase = TaskPhase::Running;
        self.seq += 1;
        self.tasks[task].started_seq = self.seq;
        self.tasks[task].started_at_s = now_s;
        self.launch_attempt(task, local, speculative, now_s)
    }

    fn launch_attempt(
        &mut self,
        task: usize,
        local: bool,
        speculative: bool,
        now_s: f64,
    ) -> Assignment {
        let t = &mut self.tasks[task];
        t.live_attempts += 1;
        let id = AttemptId {
            task,
            attempt: t.next_attempt,
        };
        t.next_attempt += 1;
        self.attempt_started.insert(id, now_s);
        self.reindex(task);
        Assignment {
            id,
            split: task,
            local,
            speculative,
        }
    }

    /// Bring `task`'s hedge-candidate entry in line with its state. Its
    /// `started_seq` only changes while it is `Pending` (never indexed), so
    /// the key is the one any stale entry would carry.
    fn reindex(&mut self, task: usize) {
        let Some(policy) = &self.hedge else {
            return;
        };
        let t = &self.tasks[task];
        let key = (t.started_seq, task);
        if t.phase == TaskPhase::Running && t.live_attempts < policy.config().max_live_attempts {
            self.candidates.insert(key);
        } else {
            self.candidates.remove(&key);
        }
    }

    /// Report an attempt's successful completion (legacy clockless form).
    pub fn complete(&mut self, id: AttemptId) -> CompleteOutcome {
        self.complete_at(id, 0.0)
    }

    /// Report an attempt's successful completion at `now_s`; the attempt's
    /// latency feeds the hedge policy's quantile estimate.
    pub fn complete_at(&mut self, id: AttemptId, now_s: f64) -> CompleteOutcome {
        if let Some(started) = self.attempt_started.remove(&id) {
            if let Some(policy) = &mut self.hedge {
                policy.observe(now_s - started);
            }
        }
        let t = &mut self.tasks[id.task];
        t.live_attempts = t.live_attempts.saturating_sub(1);
        let outcome = match t.phase {
            TaskPhase::Done | TaskPhase::Failed => {
                self.stats.duplicate_completions += 1;
                CompleteOutcome::Duplicate
            }
            _ => {
                t.phase = TaskPhase::Done;
                self.n_done += 1;
                CompleteOutcome::First
            }
        };
        self.reindex(id.task);
        outcome
    }

    /// Release a live attempt the runtime killed because another attempt
    /// of its task already committed (Hadoop kills the losing attempts).
    /// Like a duplicate that ran to the end it counts in
    /// `duplicate_completions`, but its truncated run time is no latency
    /// sample for the hedge policy, and it is no failure: the retry budget
    /// is untouched.
    pub fn release_cancelled(&mut self, id: AttemptId) {
        let live = self.attempt_started.remove(&id).is_some();
        debug_assert!(live, "released attempt {id:?} is not live");
        let t = &mut self.tasks[id.task];
        debug_assert_eq!(
            t.phase,
            TaskPhase::Done,
            "only a committed task's losers are killed"
        );
        t.live_attempts = t.live_attempts.saturating_sub(1);
        self.stats.duplicate_completions += 1;
        self.reindex(id.task);
    }

    /// Report an attempt's failure.
    pub fn fail(&mut self, id: AttemptId) -> FailOutcome {
        let outcome = self.fail_inner(id);
        self.reindex(id.task);
        outcome
    }

    fn fail_inner(&mut self, id: AttemptId) -> FailOutcome {
        self.attempt_started.remove(&id);
        let t = &mut self.tasks[id.task];
        t.live_attempts = t.live_attempts.saturating_sub(1);
        match t.phase {
            TaskPhase::Done => FailOutcome::Stale,
            TaskPhase::Failed => FailOutcome::Stale,
            _ => {
                t.failures += 1;
                if t.failures >= self.max_attempts {
                    // Let any still-live duplicate finish; if none, fail now.
                    if t.live_attempts == 0 {
                        t.phase = TaskPhase::Failed;
                        self.n_failed += 1;
                        return FailOutcome::TaskFailed;
                    }
                    return FailOutcome::Stale;
                }
                self.stats.retries += 1;
                if t.live_attempts == 0 {
                    t.phase = TaskPhase::Pending;
                    self.pending.push_back(id.task);
                }
                FailOutcome::Retried
            }
        }
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

    #[test]
    fn prefers_local_tasks() {
        let mut s = Scheduler::new(splits(vec![vec![1], vec![0], vec![1]]), false, 1);
        // Node 0 should pick task 1 (its local one) even though task 0 is first.
        let a = s.next(DataNodeId(0)).unwrap();
        assert_eq!(a.split, 1);
        assert!(a.local);
        // Node 1 then gets task 0 or 2, both local to it.
        let b = s.next(DataNodeId(1)).unwrap();
        assert!(b.local);
        assert_eq!(s.stats().local_assignments, 2);
    }

    #[test]
    fn falls_back_to_remote() {
        let mut s = Scheduler::new(splits(vec![vec![5]]), false, 1);
        let a = s.next(DataNodeId(0)).unwrap();
        assert!(!a.local);
        assert_eq!(s.stats().remote_assignments, 1);
    }

    #[test]
    fn completion_drains_the_job() {
        let mut s = Scheduler::new(splits(vec![vec![0], vec![0]]), false, 1);
        let a = s.next(DataNodeId(0)).unwrap();
        let b = s.next(DataNodeId(0)).unwrap();
        assert!(s.next(DataNodeId(0)).is_none());
        assert_eq!(s.complete(a.id), CompleteOutcome::First);
        assert!(!s.is_complete());
        assert_eq!(s.complete(b.id), CompleteOutcome::First);
        assert!(s.is_complete());
        assert_eq!(s.n_done(), 2);
    }

    #[test]
    fn failure_retries_then_gives_up() {
        let mut s = Scheduler::new(splits(vec![vec![0]]), false, 2);
        let a = s.next(DataNodeId(0)).unwrap();
        assert_eq!(s.fail(a.id), FailOutcome::Retried);
        let b = s.next(DataNodeId(0)).unwrap();
        assert_eq!(b.id.attempt, 1, "fresh attempt ordinal");
        assert_eq!(s.fail(b.id), FailOutcome::TaskFailed);
        assert!(s.is_complete());
        assert_eq!(s.failed_tasks(), vec![0]);
    }

    #[test]
    fn speculation_only_when_queue_empty() {
        let mut s = Scheduler::new(splits(vec![vec![0], vec![0]]), true, 4);
        let a = s.next(DataNodeId(0)).unwrap();
        assert!(!a.speculative);
        let b = s.next(DataNodeId(0)).unwrap();
        assert!(!b.speculative);
        // Queue empty, two tasks running: next request gets a duplicate of
        // the oldest-running task (task of `a`).
        let c = s.next(DataNodeId(1)).unwrap();
        assert!(c.speculative);
        assert_eq!(c.id.task, a.id.task);
        // No third attempt while two are live.
        let d = s.next(DataNodeId(1)).unwrap();
        assert!(d.speculative);
        assert_eq!(d.id.task, b.id.task, "other task gets its duplicate next");
        assert!(
            s.next(DataNodeId(1)).is_none(),
            "all tasks at 2 live attempts"
        );
    }

    #[test]
    fn duplicate_completion_counts_redundant() {
        let mut s = Scheduler::new(splits(vec![vec![0]]), true, 4);
        let a = s.next(DataNodeId(0)).unwrap();
        let dup = s.next(DataNodeId(1)).unwrap();
        assert!(dup.speculative);
        assert_eq!(s.complete(a.id), CompleteOutcome::First);
        assert_eq!(s.complete(dup.id), CompleteOutcome::Duplicate);
        assert_eq!(s.stats().duplicate_completions, 1);
        assert!(s.is_complete());
    }

    #[test]
    fn released_loser_frees_its_slot_without_a_failure() {
        let mut s = Scheduler::new(splits(vec![vec![0], vec![0]]), true, 1);
        let a = s.next(DataNodeId(0)).unwrap();
        let b = s.next(DataNodeId(0)).unwrap();
        let dup = s.next(DataNodeId(1)).unwrap();
        assert!(dup.speculative);
        assert_eq!(dup.id.task, a.id.task);
        // Two live attempts: `a`'s task left the hedge-candidate index.
        assert_eq!(s.tasks[a.id.task].live_attempts, 2);
        assert!(!s.candidates.iter().any(|&(_, t)| t == a.id.task));
        assert_eq!(s.complete(dup.id), CompleteOutcome::First);
        s.release_cancelled(a.id);
        assert_eq!(s.tasks[a.id.task].live_attempts, 0);
        assert!(!s.attempt_started.contains_key(&a.id));
        assert!(!s.candidates.iter().any(|&(_, t)| t == a.id.task));
        let stats = s.stats();
        assert_eq!(
            stats.duplicate_completions, 1,
            "the killed loser is redundant work"
        );
        assert_eq!(stats.retries, 0, "and no failure");
        assert!(s.failed_tasks().is_empty());
        // With max_attempts = 1 a failure would have failed the task; the
        // release did not touch the budget, and `b` still completes.
        assert!(!s.is_complete());
        assert_eq!(s.complete(b.id), CompleteOutcome::First);
        assert!(s.is_complete());
        assert_eq!(s.n_done(), 2);
    }

    #[test]
    fn released_loser_feeds_no_latency_sample() {
        let cfg = HedgeConfig {
            quantile: 0.5,
            factor: 1.0,
            min_observations: 1,
            min_delay_s: 0.0,
            budget_fraction: f64::INFINITY,
            max_live_attempts: 2,
        };
        let mut s = Scheduler::with_policy(splits(vec![vec![0], vec![0]]), Some(cfg), 4);
        let a = s.next_at(DataNodeId(0), 0.0).unwrap();
        let b = s.next_at(DataNodeId(0), 0.0).unwrap();
        assert_eq!(s.complete_at(a.id, 2.0), CompleteOutcome::First);
        assert_eq!(s.hedge_delay_s(), Some(2.0));
        let dup = s.next_at(DataNodeId(1), 2.0).unwrap();
        assert_eq!(dup.id.task, b.id.task);
        // Latencies {1, 2}: p50 = 1.
        assert_eq!(s.complete_at(dup.id, 3.0), CompleteOutcome::First);
        assert_eq!(s.hedge_delay_s(), Some(1.0));
        // The original, killed at t = 3 after running 3 s, is no sample:
        // {1, 2, 3} would move the p50 to 2.
        s.release_cancelled(b.id);
        assert_eq!(s.hedge_delay_s(), Some(1.0));
        assert!(s.is_complete());
    }

    #[test]
    fn failed_speculative_attempt_is_harmless() {
        let mut s = Scheduler::new(splits(vec![vec![0]]), true, 4);
        let a = s.next(DataNodeId(0)).unwrap();
        let dup = s.next(DataNodeId(1)).unwrap();
        assert_eq!(s.fail(dup.id), FailOutcome::Retried);
        assert_eq!(s.complete(a.id), CompleteOutcome::First);
        assert!(s.is_complete());
    }

    #[test]
    fn no_speculation_when_disabled() {
        let mut s = Scheduler::new(splits(vec![vec![0]]), false, 4);
        let _a = s.next(DataNodeId(0)).unwrap();
        assert!(s.next(DataNodeId(1)).is_none());
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
        assert_eq!(s.hedge_delay_s(), Some(20.0));
        // The surviving task started at t=0; at t=15 it is under the delay.
        assert!(s.next_at(DataNodeId(1), 15.0).is_none());
        // At t=20 it crosses the delay and gets its hedge.
        let h = s.next_at(DataNodeId(1), 20.0).unwrap();
        assert!(h.speculative);
        assert_eq!(s.hedges_launched(), 1);
        // Budget = ceil(0.5 × 2) = 1: no further duplicates even later.
        assert_eq!(s.complete_at(h.id, 25.0), CompleteOutcome::First);
        assert!(s.next_at(DataNodeId(1), 100.0).is_none());
    }

    /// The hedge candidate as `next_at` chose it before the index: scan
    /// every task, keep the running ones the policy approves, take the
    /// oldest by start stamp.
    fn scan_candidate(s: &Scheduler, now_s: f64) -> Option<usize> {
        let policy = s.hedge.as_ref()?;
        let n_tasks = s.splits.len();
        s.tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| {
                t.phase == TaskPhase::Running
                    && policy.should_hedge(now_s - t.started_at_s, t.live_attempts, n_tasks)
            })
            .min_by_key(|(_, t)| t.started_seq)
            .map(|(i, _)| i)
    }

    #[test]
    fn candidate_index_matches_full_scan() {
        use ppc_core::rng::Pcg32;
        for seed in 0..300u64 {
            let mut rng = Pcg32::new(0x5CA7 ^ (seed << 8));
            let n_tasks = 1 + rng.next_below(12) as usize;
            let hosts = (0..n_tasks)
                .map(|_| vec![rng.next_below(3) as usize])
                .collect();
            let cfg = match rng.next_below(3) {
                0 => HedgeConfig::legacy_speculation(),
                1 => HedgeConfig::quantile(f64::from(rng.next_below(4))),
                _ => HedgeConfig {
                    quantile: 0.5,
                    factor: 1.0,
                    min_observations: 1,
                    min_delay_s: f64::from(rng.next_below(3)) * 0.5,
                    budget_fraction: [0.25, 1.0, f64::INFINITY][rng.next_below(3) as usize],
                    max_live_attempts: 2 + rng.next_below(3),
                },
            };
            let mut s = Scheduler::with_policy(splits(hosts), Some(cfg), 1 + rng.next_below(4));
            let mut now = 0.0;
            let mut live: Vec<AttemptId> = Vec::new();
            for _ in 0..200 {
                now += f64::from(rng.next_below(4)) * 0.5;
                match rng.next_below(4) {
                    0 | 1 => {
                        let idle = s.pending.is_empty();
                        let want = if idle { scan_candidate(&s, now) } else { None };
                        let earliest = s.earliest_assign_s(now);
                        let got = s.next_at(DataNodeId(rng.next_below(3) as usize), now);
                        if idle {
                            assert_eq!(got.as_ref().map(|a| a.id.task), want, "seed {seed}");
                        }
                        match got {
                            Some(a) => {
                                assert!(earliest.is_some_and(|t| t <= now), "seed {seed}");
                                live.push(a.id);
                            }
                            None => assert!(earliest.is_none_or(|t| t > now), "seed {seed}"),
                        }
                    }
                    op if !live.is_empty() => {
                        let id = live.swap_remove(rng.next_below(live.len() as u32) as usize);
                        if op == 2 {
                            s.complete_at(id, now);
                        } else {
                            s.fail(id);
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn late_success_after_budget_exhausted_via_live_duplicate() {
        let mut s = Scheduler::new(splits(vec![vec![0]]), true, 1);
        let a = s.next(DataNodeId(0)).unwrap();
        let dup = s.next(DataNodeId(1)).unwrap();
        // First attempt fails and the budget is gone, but the duplicate is
        // still live, so the task is not failed yet.
        assert_eq!(s.fail(a.id), FailOutcome::Stale);
        assert!(!s.is_complete());
        assert_eq!(s.complete(dup.id), CompleteOutcome::First);
        assert!(s.is_complete());
        assert!(s.failed_tasks().is_empty());
    }
}
