//! One native slot pool: the slot lifecycle native MapReduce and native
//! Dryad share, with the paradigm left to a small [`SlotPolicy`].
//!
//! One thread runs per (node, slot), each in a partition: the paradigm's
//! unit of scheduling (MapReduce: one global queue; Dryad: a node's static
//! list). A slot loops: run a re-run handed to it; leave once its partition
//! is settled; pass the health gate; take work from the policy under the
//! pool's one lock, which guards the policy's book and its
//! [`AttemptLedger`]; check the schedule's timed kills on the slot's
//! [`ChaosCursor`]; run the policy's data path, which rolls the attempt's
//! one death roll ([`Attempt::dice`]); settle through the ledger's
//! `is_live` guard. The first Ok commits and fires the losers' kill
//! tokens; a killed loser leaves as redundant work; a failed attempt's
//! task is queued again by the policy or re-run in place by the pool. The
//! calling thread cuts every attempt past the context's deadline. The last
//! slot of a partition to die fails what is left on it. The health
//! tracker's lock is never taken under the pool's. A run closes through
//! [`RunReport::close`], as every engine's does.

use crate::{HealthTrace, RunContext, RunReport};
use ppc_chaos::{ChaosCursor, FaultSchedule, RunClock};
use ppc_compute::billing::CostBreakdown;
use ppc_core::metrics::RunSummary;
use ppc_core::task::TaskId;
use ppc_core::{Cancel, PpcError, Result};
use ppc_resilience::{
    Admit, AttemptId, AttemptLedger, CompleteOutcome, FailOutcome, HealthTracker,
};
use ppc_trace::{AttemptMarker, EventKind, Phase, TraceEvent, TraceSink};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Poll sleep of a slot with nothing to run, and of the deadline cutter.
pub const POLL: Duration = Duration::from_micros(200);

/// One slot thread: its flat worker index (node-major, the schedule's and
/// the trace's name for it), node, partition and place in the schedule.
#[derive(Debug, Clone, Copy)]
pub struct Slot {
    pub worker: u32,
    pub node: usize,
    pub partition: usize,
    pub chaos: ChaosCursor,
}

/// Work a slot takes: `task`, already `launched` by the policy or pending.
/// With `dice`, its `(worker, task_seq)` chaos address, the slot also
/// checks the schedule's timed kills. `hedge` names the worker of a `Hedge`
/// event.
pub struct Pick {
    pub task: usize,
    pub launched: Option<AttemptId>,
    pub dice: Option<(u32, u32)>,
    pub hedge: Option<u32>,
}

/// A paradigm's part of the slot lifecycle. Methods taking the book run
/// under the pool's lock.
pub trait SlotPolicy: Sync + Sized {
    /// Scheduling state behind the pool's lock; it owns the ledger.
    type Book: Send;
    /// A successful attempt's output, for [`SlotPolicy::commit`].
    type Out;
    /// The phase every attempt opens with, marked at launch.
    const LAUNCH_PHASE: Phase;

    fn ledger(book: &mut Self::Book) -> &mut AttemptLedger;

    /// The id spans and failures name ledger task `task` by.
    fn task_id(&self, task: usize) -> TaskId;

    /// `slot`'s next work at `now_s`, if any.
    fn take(&self, book: &mut Self::Book, slot: &mut Slot, now_s: f64) -> Option<Pick>;

    /// Take back a pending pick whose slot a timed kill took down.
    fn put_back(&self, _book: &mut Self::Book, _slot: &Slot, _pick: Pick) {
        unreachable!("every pick is launched");
    }

    /// Queue retried `task`, with no attempt live, and say so; `false`
    /// re-runs it in place.
    fn requeue(&self, book: &mut Self::Book, task: usize) -> bool;

    /// The data path. After its token fired, an `Err` is a killed loser's.
    fn attempt(&self, a: &mut Attempt<'_, '_, Self>) -> Result<Self::Out>;

    /// Commit the task's first Ok output.
    fn commit(&self, a: &mut Attempt<'_, '_, Self>, out: Self::Out);
}

/// One launched attempt, as the data path sees it.
pub struct Attempt<'s, 'a, P: SlotPolicy> {
    pub id: AttemptId,
    pub slot: Slot,
    pub cancel: Cancel,
    dice: Option<(u32, u32)>,
    started: Instant,
    marker: Option<AttemptMarker<'a>>,
    pool: &'s SlotPool<'a, P>,
}

impl<P: SlotPolicy> Attempt<'_, '_, P> {
    pub fn now_s(&self) -> f64 {
        self.pool.clock.now_s()
    }

    pub fn chaos(&self) -> Option<&FaultSchedule> {
        self.pool.chaos
    }

    /// Close the running phase's span as `phase`, now.
    pub fn mark(&mut self, phase: Phase) {
        let now_s = self.now_s();
        if let Some(m) = self.marker.as_mut() {
            m.mark(phase, now_s);
        }
    }

    /// Roll the attempt's one death roll and its torn output: a hit fails
    /// the attempt, a death is counted and traced.
    pub fn dice(&self) -> Result<()> {
        let (Some(s), Some((w, seq))) = (self.pool.chaos, self.dice) else {
            return Ok(());
        };
        let died = s.dies(w, seq);
        if died {
            self.pool.death(&mut self.pool.lock(), self.slot.worker);
        }
        match died || s.is_torn_upload(w, seq) {
            true => Err(PpcError::Transient("chaos: attempt killed".into())),
            false => Ok(()),
        }
    }

    /// Gray degradation: stretch the work done `since` by the slot's
    /// slowdown; `Err(Cancelled)` once the attempt is killed.
    pub fn stretch(&self, since: Instant) -> Result<()> {
        let slowdown = self
            .chaos()
            .map(|s| s.slowdown(self.slot.worker, self.now_s()));
        match slowdown.filter(|&f| f > 1.0) {
            Some(f) => self.cancel.sleep(since.elapsed().mul_f64(f - 1.0)),
            None => Ok(()),
        }
    }
}

/// A run's state: behind the pool's lock while it runs, handed back when
/// it ends. It holds the policy's book, the tasks failed for good (in
/// failure order), the launched attempts and deaths, the time the last
/// task settled (the makespan: a killed loser may drain past it) and when
/// each partition's last slot left.
pub struct Run<'a, P: SlotPolicy> {
    pub book: P::Book,
    pub failed: Vec<(usize, PpcError)>,
    pub attempts: usize,
    pub deaths: usize,
    pub finished_s: f64,
    pub partition_s: Vec<f64>,
    pub clock: RunClock,
    sink: Option<&'a dyn TraceSink>,
    held: Vec<Held>,
    /// Per partition: the unsettled tasks, and the live slots.
    remaining: Vec<usize>,
    live: Vec<usize>,
}

impl<P: SlotPolicy> Run<'_, P> {
    /// The report core of a run on `platform`, closed on the run's sink:
    /// its cores are the pool's slots, its tasks the committed ones.
    pub fn report(
        &mut self,
        platform: &str,
        makespan_seconds: f64,
        remote_bytes: u64,
        failed: Vec<TaskId>,
        cost: Option<CostBreakdown>,
    ) -> RunReport {
        let ledger = P::ledger(&mut self.book);
        let summary = RunSummary {
            platform: platform.into(),
            cores: self.held.len(),
            tasks: ledger.n_done(),
            makespan_seconds,
            redundant_executions: ledger.duplicate_completions() as usize,
            remote_bytes,
        };
        RunReport::close(summary, failed, self.attempts, self.deaths, cost, self.sink)
    }
}

/// A slot as a re-run sees it.
#[derive(Default)]
enum Held {
    #[default]
    Busy,
    /// Out of work: a deadline cut may hand it a re-run.
    Idle,
    Rerun(AttemptId, Cancel),
}

/// The slot pool. See the module docs.
pub struct SlotPool<'a, P: SlotPolicy> {
    policy: P,
    slots: Vec<Slot>,
    sink: Option<&'a dyn TraceSink>,
    chaos: Option<&'a FaultSchedule>,
    clock: RunClock,
    health: Option<Mutex<HealthTracker>>,
    deadline_s: Option<f64>,
    state: Mutex<Run<'a, P>>,
}

impl<'a, P: SlotPolicy> SlotPool<'a, P> {
    /// A pool over `book`'s tasks with one slot per `(node, partition)` of
    /// `homes`, node-major, every partition holding at least one, under the
    /// context's sink, schedule, quarantine and deadline.
    pub fn new(ctx: &'a RunContext, policy: P, book: P::Book, homes: &[(usize, usize)]) -> Self {
        let slots: Vec<Slot> = (homes.iter().enumerate())
            .map(|(w, &(node, partition))| Slot {
                worker: w as u32,
                node,
                partition,
                chaos: ChaosCursor::default(),
            })
            .collect();
        let n = slots.iter().map(|s| s.partition + 1).max().unwrap_or(0);
        let mut run = Run {
            book,
            failed: Vec::new(),
            attempts: 0,
            deaths: 0,
            finished_s: 0.0,
            partition_s: vec![0.0; n],
            clock: RunClock::start(),
            sink: ctx.sink.as_deref().filter(|s| s.enabled()),
            held: slots.iter().map(|_| Held::Busy).collect(),
            remaining: vec![0; n],
            live: vec![0; n],
        };
        let ledger = P::ledger(&mut run.book);
        (0..ledger.n_tasks()).for_each(|t| run.remaining[ledger.partition(t)] += 1);
        slots.iter().for_each(|s| run.live[s.partition] += 1);
        let defense = ctx.resilience.unwrap_or_default();
        SlotPool {
            policy,
            slots,
            sink: run.sink,
            chaos: ctx.schedule.as_deref(),
            clock: run.clock,
            health: defense
                .quarantine
                .map(|q| Mutex::new(HealthTracker::new(q))),
            deadline_s: defense.deadline.map(|d| d.timeout_s),
            state: Mutex::new(run),
        }
    }

    /// Run every slot until each partition settles or loses all its slots.
    pub fn run(self) -> (P, Run<'a, P>) {
        std::thread::scope(|scope| {
            for &slot in &self.slots {
                let pool = &self;
                scope.spawn(move || pool.slot_loop(slot));
            }
            if let Some(timeout_s) = self.deadline_s {
                self.cut_overdue(timeout_s);
            }
        });
        let mut run = self.state.into_inner().unwrap();
        let ledger = P::ledger(&mut run.book);
        debug_assert!(run.remaining.iter().all(|&r| r == 0));
        debug_assert_eq!(ledger.n_done() + run.failed.len(), ledger.n_tasks());
        (self.policy, run)
    }

    fn lock(&self) -> MutexGuard<'_, Run<'a, P>> {
        self.state.lock().unwrap()
    }

    fn event(&self, worker: u32, kind: EventKind, at_s: f64) {
        if let Some(s) = self.sink {
            s.event(TraceEvent { at_s, worker, kind });
        }
    }

    fn death(&self, run: &mut Run<P>, worker: u32) {
        run.deaths += 1;
        self.event(worker, EventKind::Death, self.clock.now_s());
    }

    fn slot_loop(&self, mut slot: Slot) {
        let w = slot.worker as usize;
        self.event(slot.worker, EventKind::WorkerStart, self.clock.now_s());
        loop {
            let mut run = self.lock();
            let held = std::mem::take(&mut run.held[w]);
            if !matches!(held, Held::Rerun(..)) && run.remaining[slot.partition] == 0 {
                break self.leave(run, slot.partition);
            }
            drop(run);
            if let Held::Rerun(id, cancel) = held {
                self.run_attempt(self.begin(slot, id, cancel, None, self.clock.now_s()));
                continue;
            }
            if let Some(h) = &self.health {
                let now_s = self.clock.now_s();
                let admit = h
                    .lock()
                    .unwrap()
                    .admit(slot.worker, now_s, &HealthTrace(self.sink));
                if admit != Admit::Go {
                    std::thread::sleep(POLL);
                    continue;
                }
            }
            let poll_at = self.clock.now_s();
            let mut run = self.lock();
            let Some(pick) = self
                .policy
                .take(&mut run.book, &mut slot, self.clock.now_s())
            else {
                run.held[w] = Held::Idle;
                drop(run);
                std::thread::sleep(POLL);
                continue;
            };
            let armed = pick.launched.map(|id| (id, self.arm(&mut run, id, w)));
            drop(run);
            if let Some(worker) = pick.hedge {
                self.event(worker, EventKind::Hedge, self.clock.now_s());
            }
            let a = armed.map(|(id, cancel)| self.begin(slot, id, cancel, pick.dice, poll_at));
            let now_s = self.clock.now_s();
            let chaos = self.chaos.filter(|_| pick.dice.is_some());
            if chaos.is_some_and(|s| slot.chaos.killed(s, slot.worker, now_s)) {
                // The whole slot goes down: an in-hand attempt fails, a
                // pending pick goes back, and the slot leaves.
                let mut run = self.lock();
                self.death(&mut run, slot.worker);
                match a {
                    Some(a) if P::ledger(&mut run.book).is_live(a.id) => {
                        let outcome = P::ledger(&mut run.book).fail(a.id);
                        let err = PpcError::Transient("chaos: slot killed".into());
                        run = self.failed(run, a.id, outcome, slot.worker, false, err);
                    }
                    Some(_) => {}
                    None => self.policy.put_back(&mut run.book, &slot, pick),
                }
                break self.leave(run, slot.partition);
            }
            let a = a.unwrap_or_else(|| {
                // Read the clock under the lock: launch times stay in order.
                let mut run = self.lock();
                let id = P::ledger(&mut run.book).launch(pick.task, self.clock.now_s());
                let cancel = self.arm(&mut run, id, w);
                drop(run);
                self.begin(slot, id, cancel, pick.dice, poll_at)
            });
            self.run_attempt(a);
        }
    }

    /// Count launched attempt `id` and arm it on slot `w`: its kill token.
    fn arm(&self, run: &mut Run<P>, id: AttemptId, w: usize) -> Cancel {
        run.attempts += 1;
        P::ledger(&mut run.book).arm(id, w as u32)
    }

    /// Open attempt `id`'s span at `poll_at`.
    fn begin(
        &self,
        slot: Slot,
        id: AttemptId,
        cancel: Cancel,
        dice: Option<(u32, u32)>,
        poll_at: f64,
    ) -> Attempt<'_, 'a, P> {
        let marker = self.sink.map(|s| {
            let task = self.policy.task_id(id.task).0;
            let mut m = AttemptMarker::new(s, task, id.attempt, slot.worker, poll_at);
            m.mark(P::LAUNCH_PHASE, self.clock.now_s());
            m
        });
        let (started, pool) = (Instant::now(), self);
        Attempt {
            id,
            slot,
            cancel,
            dice,
            started,
            marker,
            pool,
        }
    }

    /// Run attempt `a` and settle it, unless a deadline cut already did.
    fn run_attempt(&self, mut a: Attempt<'_, 'a, P>) {
        let out = self.policy.attempt(&mut a);
        let latency_s = a.started.elapsed().as_secs_f64();
        let (id, worker) = (a.id, a.slot.worker);
        let mut run = self.lock();
        let now_s = self.clock.now_s();
        let ledger = P::ledger(&mut run.book);
        if !ledger.is_live(id) {
            return;
        }
        match out {
            Ok(out) => {
                let first = ledger.complete_at(id, now_s) == CompleteOutcome::First;
                drop(run);
                if first {
                    self.policy.commit(&mut a, out);
                    self.settle(&mut self.lock(), id.task, None);
                }
                // A duplicate that lost the race is discarded.
                self.score(worker, Some(latency_s));
            }
            Err(_) if a.cancel.is_cancelled() => {
                // Killed by the committing attempt: no failure, no sample.
                ledger.release_cancelled(id);
                drop(run);
                self.event(worker, EventKind::Cancel, now_s);
            }
            Err(e) => {
                let outcome = ledger.fail(id);
                drop(self.failed(run, id, outcome, worker, false, e));
                self.score(worker, None);
            }
        }
    }

    /// Act on `outcome` of attempt `id`, failed on `worker`: with no other
    /// attempt live, the task is queued by the policy or re-run in place,
    /// on `worker` or, for a deadline `cut`, a slot of its partition idle
    /// now; out of attempts, it fails for good with `err`.
    fn failed<'g>(
        &self,
        mut run: MutexGuard<'g, Run<'a, P>>,
        id: AttemptId,
        outcome: FailOutcome,
        worker: u32,
        cut: bool,
        err: PpcError,
    ) -> MutexGuard<'g, Run<'a, P>> {
        let none_live = P::ledger(&mut run.book).live_attempts(id.task) == 0;
        let retried = outcome == FailOutcome::Retried && none_live;
        if retried && !self.policy.requeue(&mut run.book, id.task) {
            let p = self.slots[worker as usize].partition;
            let idle = |k: &usize| {
                cut && self.slots[*k].partition == p && matches!(run.held[*k], Held::Idle)
            };
            let k = (0..self.slots.len()).find(idle).unwrap_or(worker as usize);
            let rerun = P::ledger(&mut run.book).launch(id.task, self.clock.now_s());
            let cancel = self.arm(&mut run, rerun, k);
            run.held[k] = Held::Rerun(rerun, cancel);
        }
        if outcome == FailOutcome::TaskFailed {
            self.settle(&mut run, id.task, Some(err));
        }
        run
    }

    /// Count `task` settled now: committed, or failed for good with `err`.
    fn settle(&self, run: &mut Run<P>, task: usize, err: Option<PpcError>) {
        run.remaining[P::ledger(&mut run.book).partition(task)] -= 1;
        run.finished_s = run.finished_s.max(self.clock.now_s());
        run.failed.extend(err.map(|e| (task, e)));
    }

    /// Score a finished attempt (`None`: failed) on `worker`'s health.
    fn score(&self, worker: u32, latency_s: Option<f64>) {
        if let Some(h) = &self.health {
            let now_s = self.clock.now_s();
            h.lock()
                .unwrap()
                .record(worker, latency_s, now_s, &HealthTrace(self.sink));
        }
    }

    /// A slot of `partition` leaves; the last one out fails what is left.
    fn leave(&self, mut run: MutexGuard<'_, Run<'a, P>>, partition: usize) {
        run.live[partition] -= 1;
        if run.live[partition] > 0 {
            return;
        }
        run.partition_s[partition] = self.clock.now_s();
        let ledger = P::ledger(&mut run.book);
        let left: Vec<usize> = (0..ledger.n_tasks())
            .filter(|&t| ledger.partition(t) == partition && !ledger.is_resolved(t))
            .collect();
        for task in left {
            let id = self.policy.task_id(task).0;
            let err = format!("task {id}: every slot of partition {partition} died");
            self.settle(&mut run, task, Some(PpcError::TaskFailed(err)));
        }
    }

    /// The task timeout, on the calling thread: until every partition
    /// settles, cut each attempt past `timeout_s`, busy slots or not; the
    /// cut fails it and fires its token, so it stops at its next check.
    fn cut_overdue(&self, timeout_s: f64) {
        let partitions = self.lock().remaining.len();
        while self.lock().remaining.iter().any(|&r| r > 0) {
            let mut cuts = 0;
            for partition in 0..partitions {
                let mut run = self.lock();
                let now_s = self.clock.now_s();
                let cut = P::ledger(&mut run.book).cut_overdue(partition, now_s, timeout_s);
                let Some((id, victim, outcome)) = cut else {
                    continue;
                };
                self.event(victim, EventKind::Cancel, now_s);
                let err = format!("task {}: past its deadline", self.policy.task_id(id.task).0);
                drop(self.failed(run, id, outcome, victim, true, PpcError::Cancelled(err)));
                self.score(victim, None);
                cuts += 1;
            }
            if cuts == 0 {
                std::thread::sleep(POLL);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppc_chaos::FaultSchedule;
    use std::collections::VecDeque;
    use std::sync::Arc;

    /// A policy over per-partition lists of task ids whose work is a nap;
    /// failed tasks re-run in place.
    struct Naps(Mutex<Vec<usize>>);

    impl SlotPolicy for Naps {
        type Book = (AttemptLedger, Vec<VecDeque<usize>>);
        type Out = ();
        const LAUNCH_PHASE: Phase = Phase::VertexStart;

        fn ledger(book: &mut Self::Book) -> &mut AttemptLedger {
            &mut book.0
        }

        fn task_id(&self, task: usize) -> TaskId {
            TaskId(task as u64)
        }

        fn take(&self, book: &mut Self::Book, slot: &mut Slot, _now_s: f64) -> Option<Pick> {
            let task = book.1[slot.partition].pop_front()?;
            let dice = Some((slot.worker, slot.chaos.next_seq()));
            let (launched, hedge) = (None, None);
            Some(Pick {
                task,
                launched,
                dice,
                hedge,
            })
        }

        fn put_back(&self, book: &mut Self::Book, slot: &Slot, pick: Pick) {
            book.1[slot.partition].push_front(pick.task);
        }

        fn requeue(&self, _book: &mut Self::Book, _task: usize) -> bool {
            false
        }

        fn attempt(&self, a: &mut Attempt<'_, '_, Self>) -> Result<()> {
            a.dice()?;
            a.cancel.sleep(Duration::from_millis(2))
        }

        fn commit(&self, a: &mut Attempt<'_, '_, Self>, (): ()) {
            self.0.lock().unwrap().push(a.id.task);
        }
    }

    /// Two partitions of `per` tasks each, two slots each.
    fn pool(ctx: &RunContext, per: usize) -> SlotPool<'_, Naps> {
        let partitions: Vec<usize> = (0..2 * per).map(|t| t / per).collect();
        let lists = vec![(0..per).collect(), (per..2 * per).collect()];
        let ledger = AttemptLedger::new(partitions, None, 3);
        let homes = [(0, 0), (0, 0), (1, 1), (1, 1)];
        SlotPool::new(ctx, Naps(Mutex::new(Vec::new())), (ledger, lists), &homes)
    }

    #[test]
    fn every_task_commits_once_and_retries_stay_in_place() {
        let schedule = FaultSchedule::new(9).with_death_probabilities(0.5, 0.0, 0.0);
        let ctx = RunContext::local().with_schedule(Arc::new(schedule));
        let (naps, run) = pool(&ctx, 12).run();
        let mut committed = naps.0.into_inner().unwrap();
        committed.sort();
        assert_eq!(committed, (0..24).collect::<Vec<_>>());
        assert!(run.failed.is_empty());
        // First pulls roll the dice; each death earns one in-place re-run.
        assert!(run.deaths > 0, "the dice must fail some attempts");
        assert_eq!(run.deaths as u64, run.book.0.retries());
        assert_eq!(run.attempts, 24 + run.deaths);
        assert!(run
            .partition_s
            .iter()
            .all(|&s| s > 0.0 && s <= run.finished_s + 0.01));
    }

    #[test]
    fn a_partition_whose_slots_all_die_fails_what_is_left() {
        let schedule = FaultSchedule::new(1).kill_at(2, 1e-9).kill_at(3, 1e-9);
        let ctx = RunContext::local().with_schedule(Arc::new(schedule));
        let (naps, run) = pool(&ctx, 6).run();
        let mut committed = naps.0.into_inner().unwrap();
        committed.sort();
        assert_eq!(
            committed,
            (0..6).collect::<Vec<_>>(),
            "partition 0 is untouched"
        );
        let mut failed: Vec<usize> = run.failed.iter().map(|&(t, _)| t).collect();
        failed.sort();
        assert_eq!(failed, (6..12).collect::<Vec<_>>());
        assert_eq!(
            (run.deaths, run.attempts),
            (2, 6),
            "killed pulls never launch"
        );
    }
}
