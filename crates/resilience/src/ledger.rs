//! The attempt ledger: one sans-IO state machine for every attempt of a
//! job's tasks — launches, queue redeliveries, hedges, the failure budget,
//! first-result-wins commit, killed losers and deadline cuts. Callers pass
//! the time of each call. MapReduce's scheduler and both Classic engines
//! keep every task in one partition (a global queue), the Classic ones
//! pulling through one delivery step ([`AttemptLedger::deliver`]); native
//! Dryad gives each node its own.
//!
//! A native engine also [`arm`](AttemptLedger::arm)s each attempt it
//! launches with its worker and gets back its kill token, which the ledger
//! fires when another attempt commits the task or a deadline cut
//! ([`AttemptLedger::cut_overdue`]) fails it. Simulators never arm, and
//! native Classic arms only so a deadline can cut: it kills no loser.

use crate::{HedgeConfig, HedgePolicy};
use ppc_core::Cancel;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Identifies one attempt of one task (task index, attempt ordinal).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AttemptId {
    pub task: usize,
    pub attempt: u32,
}

/// What [`AttemptLedger::complete_at`] tells the caller about an attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompleteOutcome {
    /// This attempt finished the task.
    First,
    /// The task was already done: this attempt's work is redundant.
    Duplicate,
}

/// What [`AttemptLedger::fail`] tells the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailOutcome {
    /// Another attempt is due; with none live, the task is pending again.
    Retried,
    /// The retry budget is exhausted; the task is failed permanently.
    TaskFailed,
    /// Done already, or the budget is spent while a duplicate is live.
    Stale,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum TaskPhase {
    #[default]
    Pending,
    Running,
    Done,
    Failed,
}

#[derive(Default)]
struct TaskState {
    partition: usize,
    phase: TaskPhase,
    live_attempts: u32,
    next_attempt: u32,
    failures: u32,
    /// Launch stamp and clock time of the current running period.
    started_seq: u64,
    started_at_s: f64,
    /// Ordinal and launch time of up to two live attempts; any more live
    /// at once spill to [`AttemptLedger::spill`].
    live: [Option<(u32, f64)>; 2],
    /// Whether the partition's candidate heap holds this task's key for
    /// the current `started_seq`.
    indexed: bool,
}

impl TaskState {
    /// Whether the task may be hedged: running, below the live-attempt
    /// cap, with failure budget left.
    fn is_candidate(&self, max_live_attempts: u32, max_attempts: u32) -> bool {
        self.phase == TaskPhase::Running
            && self.live_attempts < max_live_attempts
            && self.failures < max_attempts
    }
}

/// The attempt state of one job's tasks. See the module docs.
pub struct AttemptLedger {
    tasks: Vec<TaskState>,
    n_done: usize,
    n_failed: usize,
    hedge: Option<HedgePolicy>,
    max_attempts: u32,
    seq: u64,
    retries: u64,
    duplicate_completions: u64,
    /// Launch time of each live attempt beyond its task's two inline ones.
    spill: Vec<(AttemptId, f64)>,
    /// Kill token and worker of each armed live attempt.
    armed: Vec<(AttemptId, Cancel, u32)>,
    /// Each partition's hedge candidates when hedging is on: a min-heap of
    /// `(started_seq, task)` keys holding every task that
    /// [`is_candidate`](TaskState::is_candidate), plus stale keys of tasks
    /// that no longer are, pruned lazily. [`AttemptLedger::reindex`] keeps
    /// the head a live candidate. Launch clocks are monotone, so the head
    /// is the partition's oldest candidate, the only one a hedge decision
    /// needs.
    candidates: Vec<BinaryHeap<Reverse<(u64, usize)>>>,
    last_started_at_s: f64,
}

impl AttemptLedger {
    /// `partitions.len()` pending tasks, task `i` in `partitions[i]`; no
    /// hedges without a config; `max_attempts` failures fail a task.
    pub fn new(
        partitions: Vec<usize>,
        hedge: Option<HedgeConfig>,
        max_attempts: u32,
    ) -> AttemptLedger {
        assert!(max_attempts >= 1);
        let n_partitions = partitions.iter().max().map_or(0, |&p| p + 1);
        AttemptLedger {
            tasks: partitions
                .into_iter()
                .map(|partition| TaskState {
                    partition,
                    ..TaskState::default()
                })
                .collect(),
            n_done: 0,
            n_failed: 0,
            hedge: hedge.map(HedgePolicy::new),
            max_attempts,
            seq: 0,
            retries: 0,
            duplicate_completions: 0,
            spill: Vec::new(),
            armed: Vec::new(),
            candidates: vec![BinaryHeap::new(); n_partitions],
            last_started_at_s: f64::NEG_INFINITY,
        }
    }

    pub fn n_done(&self) -> usize {
        self.n_done
    }

    /// Tasks resolved so far, done or permanently failed.
    pub fn n_resolved(&self) -> usize {
        self.n_done + self.n_failed
    }

    pub fn n_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// The partition task `task` was placed in.
    pub fn partition(&self, task: usize) -> usize {
        self.tasks[task].partition
    }

    /// All tasks resolved (done or permanently failed).
    #[inline]
    pub fn is_complete(&self) -> bool {
        self.n_done + self.n_failed == self.tasks.len()
    }

    /// Whether `task` is resolved: done, or failed permanently.
    #[inline]
    pub fn is_resolved(&self, task: usize) -> bool {
        matches!(self.tasks[task].phase, TaskPhase::Done | TaskPhase::Failed)
    }

    pub fn failed_tasks(&self) -> Vec<usize> {
        self.tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.phase == TaskPhase::Failed)
            .map(|(i, _)| i)
            .collect()
    }

    #[inline]
    pub fn live_attempts(&self, task: usize) -> u32 {
        self.tasks[task].live_attempts
    }

    pub fn retries(&self) -> u64 {
        self.retries
    }

    pub fn duplicate_completions(&self) -> u64 {
        self.duplicate_completions
    }

    pub fn hedges_launched(&self) -> usize {
        self.hedge.as_ref().map_or(0, |p| p.hedges_launched())
    }

    /// Start a pending task's next attempt; launch times never go back.
    pub fn launch(&mut self, task: usize, now_s: f64) -> AttemptId {
        debug_assert!(
            now_s >= self.last_started_at_s,
            "launch clock went backwards: {now_s} < {}",
            self.last_started_at_s
        );
        self.last_started_at_s = now_s;
        self.seq += 1;
        let t = &mut self.tasks[task];
        debug_assert_eq!(t.phase, TaskPhase::Pending, "task {task} is not pending");
        t.phase = TaskPhase::Running;
        t.started_seq = self.seq;
        t.started_at_s = now_s;
        t.indexed = false;
        self.launch_attempt(task, now_s)
    }

    /// The attempt a queue pull of a message of `task` runs, the delivery
    /// step of both Classic Cloud engines; `hedge` is the attempt a hedge
    /// copy carries, launched by [`launch_hedge`](Self::launch_hedge) when
    /// the copy was sent. A message of a resolved task is dropped, failing
    /// the hedge attempt it carries; a hedge copy runs its attempt; with
    /// no live attempt the task launches, else the message is a
    /// redelivery. `None`: drop the message.
    pub fn deliver(&mut self, task: usize, hedge: Option<u32>, now_s: f64) -> Option<AttemptId> {
        let hedge = hedge.map(|attempt| AttemptId { task, attempt });
        if self.is_resolved(task) {
            if let Some(id) = hedge {
                self.fail(id);
            }
            None
        } else if hedge.is_some() {
            hedge
        } else if self.tasks[task].live_attempts == 0 {
            Some(self.launch(task, now_s))
        } else {
            self.redeliver(task, now_s)
        }
    }

    /// Add a live attempt to a running task: a queue redelivery while an
    /// earlier attempt is still live. The running period, and with it the
    /// task's hedge age, carries on. `None` once the task's failure budget
    /// is spent: the delivery is dead-lettered.
    fn redeliver(&mut self, task: usize, now_s: f64) -> Option<AttemptId> {
        let t = &self.tasks[task];
        debug_assert_eq!(t.phase, TaskPhase::Running, "task {task} is not running");
        (t.failures < self.max_attempts).then(|| self.launch_attempt(task, now_s))
    }

    /// Duplicate the oldest running task of `partition` if the
    /// [`HedgePolicy`] approves it at `now_s`; if the oldest is not past
    /// the hedge delay, no candidate is.
    pub fn launch_hedge(&mut self, partition: usize, now_s: f64) -> Option<AttemptId> {
        let task = self.first_candidate(partition)?;
        let t = &self.tasks[task];
        let policy = self.hedge.as_mut()?;
        if !policy.should_hedge(now_s - t.started_at_s, t.live_attempts, self.tasks.len()) {
            return None;
        }
        policy.record_hedge();
        Some(self.launch_attempt(task, now_s))
    }

    /// The earliest time [`AttemptLedger::launch_hedge`] could launch in
    /// `partition` (`None`: not before the state changes). It is the f64
    /// sum `started_at_s + delay`, while `launch_hedge` tests `now_s -
    /// started_at_s >= delay`: leave a rounding margin below it.
    pub fn earliest_hedge_s(&self, partition: usize) -> Option<f64> {
        let policy = self.hedge.as_ref()?;
        if !policy.budget_remaining(self.tasks.len()) {
            return None;
        }
        let task = self.first_candidate(partition)?;
        Some(self.tasks[task].started_at_s + policy.hedge_delay())
    }

    /// Arm live attempt `id`, running on `worker`: its kill token, which
    /// fires when another attempt commits the task or a deadline cut fails
    /// this one.
    pub fn arm(&mut self, id: AttemptId, worker: u32) -> Cancel {
        debug_assert!(self.is_live(id), "armed attempt {id:?} is not live");
        let token = Cancel::new();
        self.armed.push((id, token.clone(), worker));
        token
    }

    /// Whether `id` is live: launched and not yet settled. An engine whose
    /// attempt is no longer live finds it cut at its deadline.
    pub fn is_live(&self, id: AttemptId) -> bool {
        self.launched_at(id).is_some()
    }

    fn launched_at(&self, id: AttemptId) -> Option<f64> {
        let spilled = self.spill.iter().filter(|(s, _)| s.task == id.task);
        let inline = self.tasks[id.task].live.iter().flatten().copied();
        let mut live = inline.chain(spilled.map(|&(s, at)| (s.attempt, at)));
        live.find(|&(a, _)| a == id.attempt).map(|(_, at)| at)
    }

    /// Cut the oldest armed attempt of a running task in `partition` past
    /// `timeout_s` at `now_s`, a deadline breach: fire its token and fail
    /// it. Returns the attempt, the worker it was armed on and how failing
    /// it settled the task.
    pub fn cut_overdue(
        &mut self,
        partition: usize,
        now_s: f64,
        timeout_s: f64,
    ) -> Option<(AttemptId, u32, FailOutcome)> {
        let (_, id, token, worker) = self
            .armed
            .iter()
            .filter_map(|(id, token, worker)| {
                let at = self.launched_at(*id);
                debug_assert!(at.is_some(), "armed attempt {id:?} is not live");
                let t = &self.tasks[id.task];
                let breach = t.partition == partition && t.phase == TaskPhase::Running;
                let at = at.filter(|at| breach && now_s - at > timeout_s)?;
                Some((at, *id, token, *worker))
            })
            .min_by(|(at, a, ..), (bt, b, ..)| {
                at.total_cmp(bt)
                    .then((a.task, a.attempt).cmp(&(b.task, b.attempt)))
            })?;
        token.cancel();
        Some((id, worker, self.fail(id)))
    }

    fn first_candidate(&self, partition: usize) -> Option<usize> {
        let &Reverse((_, task)) = self.candidates.get(partition)?.peek()?;
        Some(task)
    }

    fn launch_attempt(&mut self, task: usize, now_s: f64) -> AttemptId {
        let t = &mut self.tasks[task];
        t.live_attempts += 1;
        let id = AttemptId {
            task,
            attempt: t.next_attempt,
        };
        t.next_attempt += 1;
        match t.live.iter_mut().find(|slot| slot.is_none()) {
            Some(slot) => *slot = Some((id.attempt, now_s)),
            None => self.spill.push((id, now_s)),
        }
        self.reindex(task);
        id
    }

    /// Take attempt `id` off the live set; its launch time, if it was live.
    fn retire(&mut self, id: AttemptId) -> Option<f64> {
        let t = &mut self.tasks[id.task];
        let started = match t
            .live
            .iter_mut()
            .find(|slot| matches!(slot, Some((a, _)) if *a == id.attempt))
        {
            Some(slot) => slot.take().map(|(_, at)| at),
            None => {
                let i = self.spill.iter().position(|&(s, _)| s == id)?;
                Some(self.spill.swap_remove(i).1)
            }
        };
        t.live_attempts -= 1;
        if let Some(i) = self.armed.iter().position(|(a, _, _)| *a == id) {
            self.armed.swap_remove(i);
        }
        started
    }

    /// Bring the candidate heap of `task`'s partition in line with the
    /// task's new state, in amortized O(log n) with no per-call
    /// allocation: push the task's key if it has become a candidate and
    /// its key is not in the heap, then pop stale keys off the head until
    /// the head is a candidate. Only `task` changed, so every other key
    /// kept its standing; a key's `started_seq` only changes on
    /// [`launch`](AttemptLedger::launch), which unindexes the task.
    fn reindex(&mut self, task: usize) {
        let Some(policy) = &self.hedge else {
            return;
        };
        let (cap, max_attempts) = (policy.config().max_live_attempts, self.max_attempts);
        let t = &mut self.tasks[task];
        let heap = &mut self.candidates[t.partition];
        if !t.indexed && t.is_candidate(cap, max_attempts) {
            heap.push(Reverse((t.started_seq, task)));
            t.indexed = true;
        }
        while let Some(&Reverse((seq, head))) = heap.peek() {
            let h = &mut self.tasks[head];
            let current = h.started_seq == seq;
            if current && h.is_candidate(cap, max_attempts) {
                break;
            }
            if current {
                h.indexed = false;
            }
            heap.pop();
        }
    }

    /// Settle a successful attempt; its latency feeds the hedge quantile. A
    /// first commit fires the task's other armed tokens.
    pub fn complete_at(&mut self, id: AttemptId, now_s: f64) -> CompleteOutcome {
        if let (Some(started), Some(policy)) = (self.retire(id), &mut self.hedge) {
            policy.observe(now_s - started);
        }
        let t = &mut self.tasks[id.task];
        let outcome = match t.phase {
            TaskPhase::Done | TaskPhase::Failed => {
                self.duplicate_completions += 1;
                CompleteOutcome::Duplicate
            }
            _ => {
                t.phase = TaskPhase::Done;
                self.n_done += 1;
                CompleteOutcome::First
            }
        };
        if outcome == CompleteOutcome::First {
            for (_, token, _) in self.armed.iter().filter(|(a, ..)| a.task == id.task) {
                token.cancel();
            }
        }
        self.reindex(id.task);
        outcome
    }

    /// Release a loser killed after its task committed: a duplicate
    /// completion, but no latency sample and no failure.
    pub fn release_cancelled(&mut self, id: AttemptId) {
        debug_assert!(
            self.armed
                .iter()
                .any(|(a, token, _)| *a == id && token.is_cancelled()),
            "released attempt {id:?} was not killed"
        );
        let live = self.retire(id).is_some();
        debug_assert!(live, "released attempt {id:?} is not live");
        debug_assert_eq!(
            self.tasks[id.task].phase,
            TaskPhase::Done,
            "only a committed task's losers are killed"
        );
        self.duplicate_completions += 1;
        self.reindex(id.task);
    }

    /// Settle a failed attempt (a death, an error or a deadline cut).
    pub fn fail(&mut self, id: AttemptId) -> FailOutcome {
        self.settle_failure(id, false)
    }

    /// Settle a failed attempt whose task can never succeed (its input is
    /// missing): the task fails at once, whatever budget it has left.
    pub fn abandon(&mut self, id: AttemptId) -> FailOutcome {
        self.settle_failure(id, true)
    }

    fn settle_failure(&mut self, id: AttemptId, hopeless: bool) -> FailOutcome {
        self.retire(id);
        let t = &mut self.tasks[id.task];
        let outcome = match t.phase {
            TaskPhase::Done | TaskPhase::Failed => FailOutcome::Stale,
            _ if hopeless => {
                t.phase = TaskPhase::Failed;
                self.n_failed += 1;
                FailOutcome::TaskFailed
            }
            _ => {
                t.failures += 1;
                if t.failures < self.max_attempts {
                    self.retries += 1;
                    if t.live_attempts == 0 {
                        t.phase = TaskPhase::Pending;
                    }
                    FailOutcome::Retried
                } else if t.live_attempts == 0 {
                    t.phase = TaskPhase::Failed;
                    self.n_failed += 1;
                    FailOutcome::TaskFailed
                } else {
                    // Let the still-live duplicate finish.
                    FailOutcome::Stale
                }
            }
        };
        self.reindex(id.task);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppc_core::rng::Pcg32;

    /// A ledger over `n` tasks in partition 0, with Hadoop's default
    /// speculation on or off.
    fn ledger(n: usize, speculative: bool, max_attempts: u32) -> AttemptLedger {
        let hedge = speculative.then(HedgeConfig::legacy_speculation);
        AttemptLedger::new(vec![0; n], hedge, max_attempts)
    }

    #[test]
    fn duplicate_completion_counts_redundant() {
        let mut l = ledger(1, true, 4);
        let a = l.launch(0, 0.0);
        let dup = l.launch_hedge(0, 0.0).unwrap();
        assert_eq!(l.complete_at(a, 0.0), CompleteOutcome::First);
        assert_eq!(l.complete_at(dup, 0.0), CompleteOutcome::Duplicate);
        assert_eq!(l.duplicate_completions(), 1);
        assert!(l.is_complete());
    }

    #[test]
    fn released_loser_frees_its_slot_without_a_failure() {
        let mut l = ledger(2, true, 1);
        let a = l.launch(0, 0.0);
        let a_token = l.arm(a, 0);
        let b = l.launch(1, 0.0);
        let b_token = l.arm(b, 1);
        let dup = l.launch_hedge(0, 0.0).unwrap();
        assert_eq!(dup.task, a.task);
        // Two live attempts: `a`'s task is no hedge candidate.
        assert_eq!(l.live_attempts(a.task), 2);
        assert_eq!(l.first_candidate(0), Some(b.task));
        assert_eq!(l.complete_at(dup, 0.0), CompleteOutcome::First);
        assert!(a_token.is_cancelled(), "the commit kills the loser");
        assert!(!b_token.is_cancelled(), "and only its task's attempts");
        l.release_cancelled(a);
        assert_eq!(l.live_attempts(a.task), 0);
        assert!(!l.is_live(a));
        assert_eq!(l.first_candidate(0), Some(b.task));
        assert_eq!(
            l.duplicate_completions(),
            1,
            "the killed loser is redundant work"
        );
        assert_eq!(l.retries(), 0, "and no failure");
        assert!(l.failed_tasks().is_empty());
        // With max_attempts = 1 a failure would have failed the task; the
        // release did not touch the budget, and `b` still completes.
        assert!(!l.is_complete());
        assert_eq!(l.complete_at(b, 0.0), CompleteOutcome::First);
        assert!(l.is_complete());
        assert_eq!(l.n_done(), 2);
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
        let mut l = AttemptLedger::new(vec![0, 0], Some(cfg), 4);
        let delay = |l: &AttemptLedger| l.hedge.as_ref().unwrap().hedge_delay();
        let a = l.launch(0, 0.0);
        let b = l.launch(1, 0.0);
        l.arm(b, 1);
        assert_eq!(l.complete_at(a, 2.0), CompleteOutcome::First);
        assert_eq!(delay(&l), 2.0);
        let dup = l.launch_hedge(0, 2.0).unwrap();
        assert_eq!(dup.task, b.task);
        // Latencies {1, 2}: p50 = 1.
        assert_eq!(l.complete_at(dup, 3.0), CompleteOutcome::First);
        assert_eq!(delay(&l), 1.0);
        // The original, killed at t = 3 after running 3 s, is no sample:
        // {1, 2, 3} would move the p50 to 2.
        l.release_cancelled(b);
        assert_eq!(delay(&l), 1.0);
        assert!(l.is_complete());
    }

    #[test]
    fn redelivery_and_original_settle_in_either_order() {
        let cfg = HedgeConfig {
            quantile: 0.5,
            factor: 1.0,
            min_observations: 1,
            min_delay_s: 5.0,
            budget_fraction: f64::INFINITY,
            max_live_attempts: 3,
        };
        for (original_first, first_dies) in
            [(true, true), (true, false), (false, true), (false, false)]
        {
            let ctx = format!("original first {original_first}, first dies {first_dies}");
            let mut l = AttemptLedger::new(vec![0], Some(cfg), 3);
            let a = l.launch(0, 0.0);
            // The visibility timeout lapses while `a` still runs.
            let b = l.redeliver(0, 4.0).expect("budget left");
            assert_eq!(
                b,
                AttemptId {
                    task: 0,
                    attempt: 1
                },
                "{ctx}"
            );
            assert_eq!(l.live_attempts(0), 2, "{ctx}");
            assert_eq!(
                l.earliest_hedge_s(0),
                Some(5.0),
                "{ctx}: the running period carries on"
            );
            let (first, second) = if original_first { (a, b) } else { (b, a) };
            if first_dies {
                assert_eq!(l.fail(first), FailOutcome::Retried, "{ctx}");
                assert!(
                    !l.is_resolved(0),
                    "{ctx}: the other attempt keeps it running"
                );
                assert_eq!(l.earliest_hedge_s(0), Some(5.0), "{ctx}");
                assert_eq!(l.complete_at(second, 9.0), CompleteOutcome::First, "{ctx}");
                assert_eq!(l.retries(), 1, "{ctx}");
            } else {
                assert_eq!(l.complete_at(first, 9.0), CompleteOutcome::First, "{ctx}");
                assert!(l.is_resolved(0), "{ctx}");
                assert_eq!(
                    l.complete_at(second, 10.0),
                    CompleteOutcome::Duplicate,
                    "{ctx}"
                );
                assert_eq!(l.duplicate_completions(), 1, "{ctx}");
            }
            assert!(l.is_complete(), "{ctx}");
            assert!(!l.is_live(a) && !l.is_live(b), "{ctx}");
            assert_eq!(l.live_attempts(0), 0, "{ctx}");
        }
    }

    #[test]
    fn redelivery_past_the_spent_budget_is_dead_lettered() {
        let mut l = ledger(1, false, 2);
        let a = l.launch(0, 0.0);
        let b = l.redeliver(0, 1.0).unwrap();
        // A third live attempt spills past the two inline slots.
        let c = l.redeliver(0, 2.0).unwrap();
        assert_eq!(l.live_attempts(0), 3);
        assert!(l.is_live(c) && l.spill.len() == 1);
        assert_eq!(l.fail(a), FailOutcome::Retried);
        assert_eq!(l.fail(b), FailOutcome::Stale, "budget spent, c live");
        assert_eq!(l.redeliver(0, 3.0), None);
        assert!(!l.is_resolved(0));
        assert_eq!(l.fail(c), FailOutcome::TaskFailed);
        assert!(l.is_resolved(0) && l.spill.is_empty());
        assert_eq!(l.failed_tasks(), vec![0]);
    }

    /// The delivery step's four cases: first launch, hedge copy,
    /// redelivery (dead-lettered once the budget is spent) and a
    /// resolved task's message, dropped with the hedge attempt it carries.
    #[test]
    fn delivery_step_launches_carries_redelivers_and_drops() {
        let mut l = ledger(3, true, 2);
        // No live attempt: the pull launches.
        let a = l.deliver(0, None, 0.0).unwrap();
        assert_eq!(
            a,
            AttemptId {
                task: 0,
                attempt: 0
            }
        );
        assert_eq!(l.live_attempts(0), 1);
        // A hedge copy runs the attempt launched when it was sent.
        let h = l.launch_hedge(0, 1.0).unwrap();
        assert_eq!(l.deliver(0, Some(h.attempt), 2.0), Some(h));
        assert_eq!(l.live_attempts(0), 2, "carrying launches nothing");
        // A plain message with a live attempt is a redelivery.
        let r = l.deliver(0, None, 3.0).unwrap();
        assert_eq!(r.attempt, 2);
        assert_eq!(l.live_attempts(0), 3);
        // Spent budget: a redelivery is dropped, the task still running.
        assert_eq!(l.fail(a), FailOutcome::Retried);
        assert_eq!(l.fail(h), FailOutcome::Stale, "budget spent, r live");
        assert_eq!(l.deliver(0, None, 4.0), None);
        assert!(!l.is_resolved(0));
        assert_eq!(l.fail(r), FailOutcome::TaskFailed);
        // A failed task's message is dropped, with or without a hedge.
        assert_eq!(l.deliver(0, None, 5.0), None);
        let b = l.deliver(1, None, 5.0).unwrap();
        let hb = l.launch_hedge(0, 6.0).unwrap();
        assert_eq!(hb.task, 1);
        assert_eq!(l.abandon(b), FailOutcome::TaskFailed, "input missing");
        assert!(l.is_live(hb), "the copy is still in the queue");
        assert_eq!(l.deliver(1, Some(hb.attempt), 7.0), None);
        assert_eq!(l.live_attempts(1), 0);
        // A done task's message is dropped; the hedge it carries fails
        // without touching the budget, and the hedge attempt leaves.
        let c = l.deliver(2, None, 8.0).unwrap();
        let hc = l.launch_hedge(0, 9.0).unwrap();
        assert_eq!(l.complete_at(c, 10.0), CompleteOutcome::First);
        assert_eq!(l.deliver(2, None, 11.0), None);
        assert_eq!(l.deliver(2, Some(hc.attempt), 11.0), None);
        assert!(!l.is_live(hc));
        assert_eq!(l.failed_tasks(), vec![0, 1]);
        assert!(l.is_complete() && l.n_resolved() == 3);
        assert_eq!(l.retries(), 1, "neither the drops nor the abandon");
    }

    #[test]
    fn late_success_after_budget_exhausted_via_live_duplicate() {
        let mut l = ledger(1, true, 1);
        let a = l.launch(0, 0.0);
        let dup = l.launch_hedge(0, 0.0).unwrap();
        // First attempt fails and the budget is gone, but the duplicate is
        // still live, so the task is not failed yet.
        assert_eq!(l.fail(a), FailOutcome::Stale);
        assert!(!l.is_complete());
        assert_eq!(l.complete_at(dup, 0.0), CompleteOutcome::First);
        assert!(l.is_complete());
        assert!(l.failed_tasks().is_empty());
    }

    #[test]
    fn spent_budget_gets_no_fresh_hedges() {
        // Unbounded hedging: each failure below the budget leaves the task
        // a candidate, but once its failures reach the budget the last
        // live attempt runs alone and the task then fails.
        let mut l = ledger(1, true, 2);
        let a = l.launch(0, 0.0);
        let h1 = l.launch_hedge(0, 0.0).unwrap();
        assert_eq!(l.fail(a), FailOutcome::Retried);
        let h2 = l
            .launch_hedge(0, 1.0)
            .expect("one failure: still a candidate");
        assert_eq!(l.fail(h1), FailOutcome::Stale, "budget spent, h2 live");
        assert_eq!(l.launch_hedge(0, 2.0), None);
        assert_eq!(l.earliest_hedge_s(0), None);
        assert_eq!(l.fail(h2), FailOutcome::TaskFailed);
        assert_eq!(l.failed_tasks(), vec![0]);
    }

    #[test]
    fn hedges_and_deadlines_stay_in_their_partition() {
        let mut l = AttemptLedger::new(vec![0, 1, 1], Some(HedgeConfig::legacy_speculation()), 4);
        let a = l.launch(0, 0.0);
        let b = l.launch(1, 1.0);
        let c = l.launch(2, 2.0);
        assert_eq!(l.earliest_hedge_s(1), Some(1.0));
        assert_eq!(l.launch_hedge(1, 3.0).map(|h| h.task), Some(1));
        assert_eq!(l.launch_hedge(1, 3.0).map(|h| h.task), Some(2));
        assert_eq!(l.launch_hedge(1, 3.0), None, "node 1 is at the cap");
        assert_eq!(l.launch_hedge(0, 3.0).map(|h| h.task), Some(0));
        // Only armed attempts are cut.
        assert_eq!(l.cut_overdue(1, 10.0, 5.0), None);
        let tokens = [l.arm(a, 0), l.arm(b, 1), l.arm(c, 2)];
        // A committed task's losers are no deadline breaches.
        let c_hedge = AttemptId {
            task: 2,
            attempt: 1,
        };
        assert_eq!(l.complete_at(c_hedge, 4.0), CompleteOutcome::First);
        assert!(tokens[2].is_cancelled() && l.is_live(c));
        let cut = l.cut_overdue(1, 10.0, 5.0);
        assert_eq!(cut, Some((b, 1, FailOutcome::Retried)), "oldest breach");
        assert!(tokens[1].is_cancelled() && !l.is_live(b));
        assert_eq!(l.cut_overdue(1, 100.0, 1.0), None, "the hedge is unarmed");
        assert_eq!(
            l.cut_overdue(0, 10.0, 10.0),
            None,
            "strictly past the timeout"
        );
        assert!(!tokens[0].is_cancelled());
        assert_eq!(l.cut_overdue(0, 10.5, 10.0).map(|(id, ..)| id), Some(a));
        assert!(tokens[0].is_cancelled());
        l.release_cancelled(c);
    }

    /// The ledger's decisions recomputed by scanning every task and live
    /// attempt: no candidate index, no cached counts. It holds a clone of
    /// every armed token the ledger hands out.
    struct Model {
        partitions: Vec<usize>,
        phase: Vec<TaskPhase>,
        failures: Vec<u32>,
        next_attempt: Vec<u32>,
        started: Vec<(u64, f64)>,
        live: Vec<(AttemptId, f64)>,
        armed: Vec<(AttemptId, Cancel, u32)>,
        launched: Vec<AttemptId>,
        seq: u64,
        policy: HedgePolicy,
        max_attempts: u32,
        retries: u64,
        duplicates: u64,
    }

    impl Model {
        fn live_of(&self, task: usize) -> u32 {
            self.live.iter().filter(|(id, _)| id.task == task).count() as u32
        }

        fn take(&mut self, id: AttemptId) -> f64 {
            self.armed.retain(|(a, _, _)| *a != id);
            let i = self.live.iter().position(|&(l, _)| l == id).unwrap();
            self.live.swap_remove(i).1
        }

        fn token(&self, id: AttemptId) -> Option<&Cancel> {
            self.armed
                .iter()
                .find(|(a, _, _)| *a == id)
                .map(|(_, t, _)| t)
        }

        /// Running tasks of `p` below the live cap with budget left,
        /// oldest first.
        fn candidate(&self, p: usize) -> Option<usize> {
            (0..self.phase.len())
                .filter(|&t| {
                    self.partitions[t] == p
                        && self.phase[t] == TaskPhase::Running
                        && self.live_of(t) < self.policy.config().max_live_attempts
                        && self.failures[t] < self.max_attempts
                })
                .min_by_key(|&t| self.started[t].0)
        }

        fn launch_attempt(&mut self, task: usize, now: f64) -> AttemptId {
            let id = AttemptId {
                task,
                attempt: self.next_attempt[task],
            };
            self.next_attempt[task] += 1;
            self.live.push((id, now));
            self.launched.push(id);
            id
        }

        fn fail(&mut self, id: AttemptId) -> FailOutcome {
            self.take(id);
            let t = id.task;
            if matches!(self.phase[t], TaskPhase::Done | TaskPhase::Failed) {
                return FailOutcome::Stale;
            }
            self.failures[t] += 1;
            let live = self.live_of(t);
            if self.failures[t] < self.max_attempts {
                self.retries += 1;
                if live == 0 {
                    self.phase[t] = TaskPhase::Pending;
                }
                FailOutcome::Retried
            } else if live == 0 {
                self.phase[t] = TaskPhase::Failed;
                FailOutcome::TaskFailed
            } else {
                FailOutcome::Stale
            }
        }
    }

    /// Programs run long enough, over enough tasks, that tasks leave the
    /// candidate set and rejoin it both with their heap key still buried
    /// (re-validated in place) and after it was pruned (pushed again).
    #[test]
    fn ledger_matches_scan_reference_model() {
        for seed in 0..300u64 {
            let mut rng = Pcg32::new(0x5CA7 ^ (seed << 8));
            let n_tasks = 1 + rng.next_below(24) as usize;
            let n_parts = 1 + rng.next_below(3);
            let partitions: Vec<usize> = (0..n_tasks)
                .map(|_| rng.next_below(n_parts) as usize)
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
            let max_attempts = 1 + rng.next_below(4);
            let mut l = AttemptLedger::new(partitions.clone(), Some(cfg), max_attempts);
            let mut m = Model {
                partitions,
                phase: vec![TaskPhase::Pending; n_tasks],
                failures: vec![0; n_tasks],
                next_attempt: vec![0; n_tasks],
                started: vec![(0, 0.0); n_tasks],
                live: Vec::new(),
                armed: Vec::new(),
                launched: Vec::new(),
                seq: 0,
                policy: HedgePolicy::new(cfg),
                max_attempts,
                retries: 0,
                duplicates: 0,
            };
            let mut now = 0.0;
            for step in 0..1_000 {
                let ctx = format!("seed {seed} step {step}");
                now += f64::from(rng.next_below(4)) * 0.5;
                let p = rng.next_below(n_parts) as usize;
                match rng.next_below(9) {
                    // Launch (or relaunch, in place) a pending task.
                    0 | 1 => {
                        let pending: Vec<usize> = (0..n_tasks)
                            .filter(|&t| m.phase[t] == TaskPhase::Pending)
                            .collect();
                        if pending.is_empty() {
                            continue;
                        }
                        let task = pending[rng.next_below(pending.len() as u32) as usize];
                        m.seq += 1;
                        m.phase[task] = TaskPhase::Running;
                        m.started[task] = (m.seq, now);
                        let want = m.launch_attempt(task, now);
                        assert_eq!(l.launch(task, now), want, "{ctx}");
                    }
                    // Hedge within one partition.
                    2 => {
                        let cand = m.candidate(p);
                        let earliest = cand
                            .filter(|_| m.policy.budget_remaining(n_tasks))
                            .map(|t| m.started[t].1 + m.policy.hedge_delay());
                        assert_eq!(l.earliest_hedge_s(p), earliest, "{ctx}");
                        let want = cand.filter(|&t| {
                            m.policy
                                .should_hedge(now - m.started[t].1, m.live_of(t), n_tasks)
                        });
                        let got = l.launch_hedge(p, now);
                        assert_eq!(got.map(|id| id.task), want, "{ctx}");
                        if let Some(task) = want {
                            m.policy.record_hedge();
                            assert_eq!(got, Some(m.launch_attempt(task, now)), "{ctx}");
                        }
                    }
                    // Cut the oldest armed deadline breach within one
                    // partition: its token fires and it leaves the live set.
                    3 => {
                        let timeout = f64::from(rng.next_below(6)) * 0.5;
                        let breach = m
                            .armed
                            .iter()
                            .map(|&(id, _, worker)| {
                                let &(_, at) = m.live.iter().find(|(l, _)| *l == id).unwrap();
                                (at, id, worker)
                            })
                            .filter(|&(at, id, _)| {
                                m.partitions[id.task] == p
                                    && m.phase[id.task] == TaskPhase::Running
                                    && now - at > timeout
                            })
                            .min_by(|a, b| {
                                (a.0, a.1.task, a.1.attempt)
                                    .partial_cmp(&(b.0, b.1.task, b.1.attempt))
                                    .unwrap()
                            });
                        let token = breach.map(|(_, id, _)| m.token(id).unwrap().clone());
                        let want = breach.map(|(_, id, worker)| (id, worker, m.fail(id)));
                        assert_eq!(l.cut_overdue(p, now, timeout), want, "{ctx}");
                        if let (Some(token), Some((id, ..))) = (token, want) {
                            assert!(token.is_cancelled(), "{ctx}: cut {id:?} not fired");
                            assert!(!l.is_live(id), "{ctx}: cut {id:?} still live");
                        }
                    }
                    // Arm a live attempt of a running task, as a native
                    // engine arms each attempt it launches.
                    8 => {
                        let unarmed: Vec<AttemptId> = m
                            .live
                            .iter()
                            .map(|&(id, _)| id)
                            .filter(|&id| {
                                m.phase[id.task] == TaskPhase::Running && m.token(id).is_none()
                            })
                            .collect();
                        if unarmed.is_empty() {
                            continue;
                        }
                        let id = unarmed[rng.next_below(unarmed.len() as u32) as usize];
                        let worker = rng.next_below(4);
                        let token = l.arm(id, worker);
                        assert!(!token.is_cancelled(), "{ctx}");
                        m.armed.push((id, token, worker));
                    }
                    // Redeliver a running task (dead-lettered once its
                    // budget is spent).
                    7 => {
                        let running: Vec<usize> = (0..n_tasks)
                            .filter(|&t| m.phase[t] == TaskPhase::Running)
                            .collect();
                        if running.is_empty() {
                            continue;
                        }
                        let task = running[rng.next_below(running.len() as u32) as usize];
                        let want = (m.failures[task] < m.max_attempts)
                            .then(|| m.launch_attempt(task, now));
                        assert_eq!(l.redeliver(task, now), want, "{ctx}");
                    }
                    // Settle a random live attempt.
                    op if !m.live.is_empty() => {
                        let (id, _) = m.live[rng.next_below(m.live.len() as u32) as usize];
                        let done = m.phase[id.task] == TaskPhase::Done;
                        if op == 4 && done && m.token(id).is_some() {
                            let token = m.token(id).unwrap();
                            assert!(token.is_cancelled(), "{ctx}: released {id:?} not fired");
                            m.take(id);
                            m.duplicates += 1;
                            l.release_cancelled(id);
                        } else if op <= 5 {
                            let started = m.take(id);
                            m.policy.observe(now - started);
                            let want = if matches!(
                                m.phase[id.task],
                                TaskPhase::Done | TaskPhase::Failed
                            ) {
                                m.duplicates += 1;
                                CompleteOutcome::Duplicate
                            } else {
                                m.phase[id.task] = TaskPhase::Done;
                                CompleteOutcome::First
                            };
                            assert_eq!(l.complete_at(id, now), want, "{ctx}");
                        } else {
                            let want = m.fail(id);
                            assert_eq!(l.fail(id), want, "{ctx}");
                        }
                    }
                    _ => {}
                }
                let count = |ph| m.phase.iter().filter(|&&x| x == ph).count();
                assert_eq!(l.n_done(), count(TaskPhase::Done), "{ctx}");
                assert_eq!(
                    l.is_complete(),
                    count(TaskPhase::Done) + count(TaskPhase::Failed) == n_tasks,
                    "{ctx}"
                );
                assert_eq!(l.retries(), m.retries, "{ctx}");
                assert_eq!(l.duplicate_completions(), m.duplicates, "{ctx}");
                assert_eq!(l.hedges_launched(), m.policy.hedges_launched(), "{ctx}");
                for t in 0..n_tasks {
                    assert_eq!(l.live_attempts(t), m.live_of(t), "{ctx} task {t}");
                    let resolved = matches!(m.phase[t], TaskPhase::Done | TaskPhase::Failed);
                    assert_eq!(l.is_resolved(t), resolved, "{ctx} task {t}");
                }
                let failed: Vec<usize> = (0..n_tasks)
                    .filter(|&t| m.phase[t] == TaskPhase::Failed)
                    .collect();
                assert_eq!(l.failed_tasks(), failed, "{ctx}");
                for &id in &m.launched {
                    let live = m.live.iter().any(|(l, _)| *l == id);
                    assert_eq!(l.is_live(id), live, "{ctx} {id:?}");
                }
                // Only arms of running tasks: a token has fired exactly
                // when its task committed (a cut one left the armed set).
                for (id, token, _) in &m.armed {
                    let done = m.phase[id.task] == TaskPhase::Done;
                    assert_eq!(token.is_cancelled(), done, "{ctx} {id:?}");
                }
            }
        }
    }
}
