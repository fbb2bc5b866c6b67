//! The native Classic Cloud runtime: real threads, real queues, real bytes.
//!
//! One thread per worker slot plays the part of a worker process in a cloud
//! instance (paper Figure 1). The pipeline per task is exactly the paper's:
//! receive → download input over the storage service → run the executable →
//! upload output → report to the monitoring queue → delete the message.
//! Everything that can fail does so through the services' own error
//! surfaces, and recovery is purely the visibility-timeout mechanism.
//! Every attempt lives in one [`AttemptLedger`], which each pull drives
//! through the delivery step the sim shares ([`AttemptLedger::deliver`]).
//!
//! The run context's [`ppc_chaos::FaultSchedule`] kills workers, by timed
//! kill or i.i.d. death dice tracked on a [`ppc_chaos::ChaosCursor`], at
//! three points: **before execute** (no output exists), **mid execute**
//! (the atomic PUT lands nothing) and **before delete** (the output is
//! uploaded, so redelivery harmlessly overwrites it with identical bytes).
//! Redelivery re-runs the task in each case. A dead worker abandons its
//! message and is replaced after [`ClassicConfig::restart_delay_ms`] (the
//! cloud's instance auto-recovery).

use crate::fleet::{Autoscaler, Fleet, POISONED};
use crate::report::ClassicReport;
use crate::spec::JobSpec;
use ppc_autoscale::{Decision, Telemetry};
use ppc_chaos::{ChaosCursor, RunClock};
use ppc_core::exec::Executor;
use ppc_core::metrics::RunSummary;
use ppc_core::retry::{CircuitBreaker, RetryPolicy};
use ppc_core::rng::{Pcg32, CLIENT_STREAM};
use ppc_core::task::{TaskId, TaskSpec};
use ppc_core::{PpcError, Result};
use ppc_exec::slots::join_all;
use ppc_exec::{HealthTrace, RunContext, RunReport};
use ppc_queue::queue::QueueConfig;
use ppc_queue::service::QueueService;
use ppc_resilience::{Admit, AttemptLedger, CompleteOutcome, FailOutcome, HealthTracker};
use ppc_storage::service::StorageService;
use ppc_trace::{AttemptMarker, EventKind, Phase, Span, TraceEvent, TraceSink, NO_WORKER};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::Scope;
use std::time::{Duration, Instant};

/// Tuning knobs for the native runtime.
#[derive(Debug, Clone)]
pub struct ClassicConfig {
    /// Long-poll window for worker and monitor receives (SQS
    /// `WaitTimeSeconds`): each receive request blocks up to this long,
    /// billed as one request, instead of hammering the endpoint with empty
    /// receives. It bounds how long a receive can wait, not how long it
    /// does: a parked receive wakes as soon as a message is sent or a
    /// lease lapses, and at job end the monitor closes the scheduling
    /// queue, which releases every parked worker at once. A longer window
    /// therefore only saves empty receives on an idle queue.
    pub long_poll_wait: Duration,
    /// How long a replacement worker takes to come up after an injected
    /// death, milliseconds.
    pub restart_delay_ms: u64,
    /// Chaos dials for the queues this job creates.
    pub queue_chaos: ppc_queue::chaos::ChaosConfig,
    /// Optional live progress probe: the monitor stores the number
    /// of resolved (done + failed) tasks here as the job runs, so an
    /// external observer can watch a running job — the role of the paper's
    /// monitoring queue.
    pub progress: Option<Arc<AtomicUsize>>,
}

impl Default for ClassicConfig {
    fn default() -> Self {
        ClassicConfig {
            long_poll_wait: Duration::from_millis(20),
            restart_delay_ms: 0,
            queue_chaos: ppc_queue::chaos::ChaosConfig::NONE,
            progress: None,
        }
    }
}

/// Sleep between polls when the scheduling queue comes up empty.
const POLL_BACKOFF: Duration = Duration::from_micros(200);
/// Retry budget for eventually consistent input fetches.
const INPUT_FETCH_ATTEMPTS: u32 = 16;
/// Consecutive retryable storage-fetch failures before the shared circuit
/// breaker opens and workers fast-fail to redelivery instead of hammering
/// a browned-out store.
const STORAGE_BREAKER_THRESHOLD: u32 = 8;
/// Seconds an open storage breaker waits before letting a probe through.
const STORAGE_BREAKER_RESET_S: f64 = 0.005;

/// Seed of a run whose context sets none.
const DEFAULT_SEED: u64 = 0;

/// The context's span sink, if tracing is on: `None` costs one branch.
/// Every attempt records its phases (`enqueue → dequeue → download →
/// execute → upload → ack`) and worker events into it.
fn live_sink(ctx: &RunContext) -> Option<&dyn TraceSink> {
    ctx.sink.as_deref().filter(|s| s.enabled())
}

/// A hedge copy's body prefix: `hedge:<attempt>:` and then the task's
/// body, so the pull that takes the copy runs the attempt the ledger
/// launched when the copy was sent.
const HEDGE_PREFIX: &str = "hedge:";

/// Split a scheduling-queue body into the hedge attempt it carries, if
/// any, and the task's body.
fn split_hedge(body: &str) -> (Option<u32>, &str) {
    body.strip_prefix(HEDGE_PREFIX)
        .and_then(|rest| rest.split_once(':'))
        .and_then(|(attempt, task)| Some((Some(attempt.parse().ok()?), task)))
        .unwrap_or((None, body))
}

/// Retry policy for scheduling-queue sends: effectively unbounded
/// attempts (queue chaos send failures are transient) with a short
/// jittered backoff instead of a busy spin.
const SEND_POLICY: RetryPolicy = RetryPolicy {
    max_attempts: u32::MAX,
    base_delay: Duration::from_micros(100),
    max_delay: Duration::from_millis(5),
    multiplier: 2.0,
    jitter: 0.5,
    budget: None,
};

/// Everything the threads of one native run share: the job's queues and
/// services, its context and config, its attempt ledger, and the counters
/// the monitor and workers update.
struct Run<'a> {
    sched: Arc<ppc_queue::Queue>,
    monitor: Arc<ppc_queue::Queue>,
    dlq: Arc<ppc_queue::Queue>,
    storage: &'a StorageService,
    job: &'a JobSpec,
    ctx: &'a RunContext,
    /// The context's seed, else [`DEFAULT_SEED`].
    seed: u64,
    config: &'a ClassicConfig,
    executor: &'a dyn Executor,
    clock: RunClock,
    breaker: CircuitBreaker,
    health: Option<Mutex<HealthTracker>>,
    stop: AtomicBool,
    /// Every attempt of every task, in one partition as in the sim: the
    /// run's only book, whose failure budget is the job's
    /// `max_deliveries`. Workers and the monitor share it behind one lock
    /// and read the run clock under it, so launch times stay in order.
    ledger: Mutex<AttemptLedger>,
    /// `(task id, task index)` of every task, sorted: a message names its
    /// task by id, the ledger by index.
    index: Vec<(u64, usize)>,
    total_executions: AtomicUsize,
    worker_deaths: AtomicUsize,
    remote_bytes: AtomicU64,
    /// Successful task completions credited per instance group (hybrid
    /// accounting).
    per_fleet: Mutex<Vec<usize>>,
}

/// Execute `job` natively on the context's fleet plan: real worker
/// threads polling a real queue, moving real bytes through `storage`.
/// Workers pull from one scheduling queue, whatever instance group they
/// belong to: one cluster, several side by side (the paper's §2.1.3
/// extension: "One interesting feature of the Classic Cloud framework is
/// the ability to extend it to use the local machines and clusters side
/// by side with the clouds."), or single-worker instances a
/// `ppc-autoscale` controller launches and retires. Returns once every
/// task has either completed or been declared failed after
/// `max_deliveries` attempts.
///
/// One send rule holds on every plan: the tasks at arrival offset 0 are
/// sent before any worker starts, and a send that fails for good aborts
/// the run; a client thread, spawned only if some task arrives later,
/// sends each at its offset until the job stops. Only spawning follows
/// the plan: a constant group's workers take flat spawn indices across
/// groups and trace a `WorkerStart`; an autoscaled group gets a
/// controller thread (its times in wall seconds), whose workers take their
/// slot id and a drain flag. A drained victim finishes its lease before it
/// exits, so scale-in never orphans a leased message.
///
/// The calling thread runs the monitor, as a monitor thread would be one
/// runnable thread more than a small host has cores at every job start,
/// and then joins every thread `run` spawned. A malformed job, context or
/// arrival offset is an `InvalidArgument` error, returned before any
/// thread starts. Without a context seed the run uses seed 0.
pub fn run(
    ctx: &RunContext,
    storage: &Arc<StorageService>,
    queues: &Arc<QueueService>,
    job: &JobSpec,
    executor: Arc<dyn Executor>,
    config: &ClassicConfig,
) -> Result<ClassicReport> {
    let mut fleet = Fleet::new(&ctx.fleet, job.tasks.len())?;
    job.validate()?;
    ctx.validate()?;
    config.queue_chaos.validate()?;
    let seed = ctx.seed.unwrap_or(DEFAULT_SEED);

    let sched = queues.create_queue(
        &job.sched_queue(),
        QueueConfig {
            visibility_timeout: job.visibility_timeout,
            chaos: config.queue_chaos,
            seed,
        },
    )?;
    let monitor = queues.create_queue(&job.monitor_queue(), QueueConfig::default())?;
    // Unlike the scheduling and monitoring queues, the DLQ persists after
    // the job so operators can inspect or redrive parked tasks, so a rerun
    // finds it already there.
    let dlq = match queues.create_queue(&job.dead_letter_queue(), QueueConfig::default()) {
        Err(PpcError::AlreadyExists(_)) => queues.queue(&job.dead_letter_queue())?,
        q => q?,
    };
    storage.ensure_bucket(&job.output_bucket);

    let n_tasks = job.tasks.len();
    let hedge = ctx.resilience.and_then(|p| p.hedge);
    let ledger = AttemptLedger::new(vec![0; n_tasks], hedge, job.max_deliveries);
    let mut index: Vec<(u64, usize)> = job.tasks.iter().map(|t| t.id.0).zip(0..).collect();
    index.sort_unstable();
    let run = Run {
        sched,
        monitor,
        dlq,
        storage,
        job,
        ctx,
        seed,
        config,
        executor: executor.as_ref(),
        clock: RunClock::start(),
        breaker: CircuitBreaker::new(STORAGE_BREAKER_THRESHOLD, STORAGE_BREAKER_RESET_S),
        health: ctx
            .resilience
            .and_then(|p| p.quarantine)
            .map(|q| Mutex::new(HealthTracker::new(q))),
        stop: AtomicBool::new(false),
        ledger: Mutex::new(ledger),
        index,
        total_executions: AtomicUsize::new(0),
        worker_deaths: AtomicUsize::new(0),
        remote_bytes: AtomicU64::new(0),
        per_fleet: Mutex::new(vec![0; fleet.groups.len()]),
    };
    // Arm the storage service with the chaos schedule (brownouts,
    // partitions) for the duration of the run; workers share the run
    // clock so timed worker kills line up with storage windows.
    if let Some(schedule) = &ctx.schedule {
        storage.set_chaos(schedule.clone());
    }

    let storage_before = storage.metering().snapshot();
    let requests_before = queues.total_requests();
    let start = Instant::now();

    // The client populates the scheduling queue (Figure 1).
    let mut rng = Pcg32::for_stream(seed, CLIENT_STREAM);
    for &i in &fleet.batch {
        run.enqueue(&job.tasks[i], &mut rng)?;
    }

    let finished = std::thread::scope(|scope| {
        let run = &run;
        let mut threads = Vec::new();
        if !fleet.later.is_empty() {
            threads.push(scope.spawn(|| run.send_arrivals(&fleet.later, rng, start)));
        }
        // The chaos schedule addresses a constant group's workers by their
        // flat spawn index across groups.
        let mut worker = 0;
        for (g, group) in fleet.groups.iter().enumerate() {
            if let Some(auto) = group.autoscaler() {
                threads.push(scope.spawn(move || run.control(scope, auto, g, start)));
                continue;
            }
            for _ in 0..group.instances().iter().sum() {
                threads.push(scope.spawn(move || {
                    run.event(worker, EventKind::WorkerStart);
                    run.work(worker, g, None);
                }));
                worker += 1;
            }
        }
        let finished = run.monitor_loop();
        join_all(threads);
        finished
    });
    if ctx.schedule.is_some() {
        storage.clear_chaos();
    }

    let makespan = finished.duration_since(start).as_secs_f64();
    let failed = run.ledger.into_inner().unwrap().failed_tasks();
    let mut failed: Vec<TaskId> = failed.into_iter().map(|i| job.tasks[i].id).collect();
    failed.sort_unstable();
    let completed = n_tasks - failed.len();
    let total_executions = run.total_executions.load(Ordering::Relaxed);
    let sink = live_sink(ctx);
    let (cores, cost, fleet_report) = fleet.close(makespan, sink);

    let storage_after = storage.metering().snapshot();
    let summary = RunSummary {
        platform: fleet.platform(false),
        cores,
        tasks: completed,
        makespan_seconds: makespan,
        redundant_executions: total_executions.saturating_sub(completed),
        remote_bytes: run.remote_bytes.load(Ordering::Relaxed),
    };
    let deaths = run.worker_deaths.load(Ordering::Relaxed);
    let core = RunReport::close(summary, failed, total_executions, deaths, Some(cost), sink);
    let report = ClassicReport {
        timeline: core.trace.as_ref().map(ppc_trace::Trace::to_timeline),
        core,
        queue_requests: queues.total_requests() - requests_before,
        executions_per_fleet: run.per_fleet.into_inner().unwrap(),
        fleet: fleet_report,
        storage: ppc_storage::metering::MeteringSnapshot {
            requests: storage_after.requests - storage_before.requests,
            bytes_in: storage_after.bytes_in - storage_before.bytes_in,
            bytes_out: storage_after.bytes_out - storage_before.bytes_out,
            stored_bytes: storage_after.stored_bytes,
            peak_stored_bytes: storage_after.peak_stored_bytes,
        },
    };
    // Clean up the job queues; the DLQ and the buckets are left for the
    // caller to inspect.
    let _ = queues.delete_queue(&job.sched_queue());
    let _ = queues.delete_queue(&job.monitor_queue());

    Ok(report)
}

impl Run<'_> {
    /// Send `body` to the scheduling queue. Transient send failures
    /// (queue chaos) retry through the client policy; a stop mid-retry
    /// surfaces as a non-retryable error.
    fn send(&self, body: &str, rng: &mut Pcg32) -> Result<()> {
        SEND_POLICY.run_blocking(rng, |_| {
            if self.stop.load(Ordering::Acquire) {
                return Err(PpcError::InvalidState("job stopped".into()));
            }
            self.sched.send(body)
        })?;
        Ok(())
    }

    /// Send one task to the scheduling queue, tracing its enqueue span.
    fn enqueue(&self, task: &TaskSpec, rng: &mut Pcg32) -> Result<()> {
        let body = task.to_message()?;
        let sent_at = self.clock.now_s();
        self.send(&body, rng)?;
        if let Some(s) = live_sink(self.ctx) {
            let (id, now) = (task.id.0, self.clock.now_s());
            s.span(Span::new(id, 0, NO_WORKER, Phase::Enqueue, sent_at, now));
        }
        Ok(())
    }

    /// The client thread: sends each later task at its offset until the job
    /// stops, skipping a task whose send fails.
    fn send_arrivals(&self, later: &[(usize, f64)], mut rng: Pcg32, start: Instant) {
        for &(i, at_s) in later {
            let at = Duration::from_secs_f64(at_s);
            while start.elapsed() < at && !self.stop.load(Ordering::Acquire) {
                let left = at.saturating_sub(start.elapsed());
                std::thread::sleep(left.min(Duration::from_millis(2)));
            }
            if self.stop.load(Ordering::Acquire) {
                return;
            }
            let _ = self.enqueue(&self.job.tasks[i], &mut rng);
        }
    }

    /// The controller thread of autoscaled group `group`: spawns the seed
    /// instances' workers, then ticks every `interval_s` on the scheduling
    /// queue's [`metrics snapshot`](ppc_queue::Queue::metrics_snapshot),
    /// spawning and draining workers until the job stops, and joins them.
    /// A timed kill raises its instance's drain flag.
    fn control<'s, 'e>(
        &'e self,
        scope: &'s Scope<'s, 'e>,
        auto: &'e Mutex<Autoscaler>,
        group: usize,
        start: Instant,
    ) {
        // A worker's thread and drain flag; the chaos schedule addresses
        // the worker by its slot id.
        let spawn = |slot: u32| {
            let drain = Arc::new(AtomicBool::new(false));
            let flag = drain.clone();
            let thread = scope.spawn(move || {
                self.work(slot, group, Some(&drain));
                if drain.load(Ordering::Acquire) {
                    auto.lock().expect(POISONED).exited.push(slot);
                }
            });
            (flag, thread)
        };
        let cfg = auto.lock().expect(POISONED).controller.config().clone();
        // Drain flags by slot id: the controller hands out dense ids.
        let (mut drains, mut workers): (Vec<_>, Vec<_>) = (0..cfg.min_workers).map(spawn).unzip();

        let interval = Duration::from_secs_f64(cfg.interval_s);
        let quantum = interval.min(Duration::from_millis(2));
        let mut next_tick = interval;
        while !self.stop.load(Ordering::Acquire) {
            std::thread::sleep(quantum);
            let now = start.elapsed();
            if now < next_tick {
                continue;
            }
            next_tick += interval;
            let now_s = now.as_secs_f64();
            let mut auto = auto.lock().expect(POISONED);
            for id in auto.sweep(self.ctx.schedule.as_deref(), now_s) {
                drains[id as usize].store(true, Ordering::Release);
            }
            let snap = self.sched.metrics_snapshot();
            let telemetry = Telemetry {
                queued: snap.visible,
                in_flight: snap.in_flight,
                oldest_age_s: snap.oldest_age.map(|d| d.as_secs_f64()),
            };
            match auto.controller.decide(now_s, &telemetry) {
                Decision::Launch { ids } => {
                    drop(auto);
                    for (drain, thread) in ids.into_iter().map(spawn) {
                        drains.push(drain);
                        workers.push(thread);
                    }
                }
                Decision::Drain { ids } => {
                    for id in ids {
                        drains[id as usize].store(true, Ordering::Release);
                    }
                }
                Decision::Hold => {}
            }
        }
        join_all(workers);
    }

    /// Record a worker event at the run clock's now, when tracing is on.
    fn event(&self, worker: u32, kind: EventKind) {
        if let Some(s) = live_sink(self.ctx) {
            s.event(TraceEvent {
                at_s: self.clock.now_s(),
                worker,
                kind,
            });
        }
    }

    /// One long-poll receive from `queue` (SQS `WaitTimeSeconds`: one
    /// billable request per wait window instead of a busy-poll storm). An
    /// error, or an empty poll on a zero-length window, naps
    /// [`POLL_BACKOFF`] first, so no caller loop can spin.
    fn receive(&self, queue: &ppc_queue::Queue) -> Option<ppc_queue::Message> {
        let got = queue.receive_wait(self.config.long_poll_wait);
        if got.is_err() || matches!(got, Ok(None)) && self.config.long_poll_wait.is_zero() {
            std::thread::sleep(POLL_BACKOFF);
        }
        got.ok().flatten()
    }

    /// Park the message of a task the ledger failed in the DLQ and report
    /// the failure. A task fails once, so it is parked once.
    fn dead_letter(&self, body: &str, id: TaskId) {
        let _ = self.dlq.send(body);
        let _ = self.monitor.send(format!("fail:{}", id.0));
    }

    /// One worker's life: poll until the job stops or, on an autoscaled
    /// group, until its drain flag is raised. One poll holds at most one
    /// lease, so stopping between polls never abandons a leased message.
    fn work(&self, worker: u32, group: usize, drain: Option<&AtomicBool>) {
        let mut chaos = ChaosCursor::default();
        while !self.stop.load(Ordering::Acquire)
            && !drain.is_some_and(|d| d.load(Ordering::Acquire))
        {
            self.poll_once(worker, group, &mut chaos);
        }
    }

    /// The monitor, on the calling thread: drains the monitoring queue's
    /// `done:`/`fail:` reports, publishes the ledger's progress, and once
    /// the ledger has resolved every task flips `stop` (closing `sched`)
    /// and returns when it did. It also plays job manager, sweeping the
    /// ledger after each report or empty long poll ([`Run::sweep`]).
    fn monitor_loop(&self) -> Instant {
        let mut rng = Pcg32::for_stream(self.seed, CLIENT_STREAM);
        loop {
            if let Some(report) = self.receive(&self.monitor) {
                let _ = self.monitor.delete(report.receipt);
            }
            let resolved = {
                let mut ledger = self.ledger.lock().unwrap();
                self.sweep(&mut ledger, &mut rng);
                ledger.n_resolved()
            };
            if let Some(probe) = &self.config.progress {
                probe.store(resolved, Ordering::Relaxed);
            }
            if resolved == self.job.tasks.len() {
                let finished = Instant::now();
                self.stop.store(true, Ordering::Release);
                // Wake workers parked in a long poll so the scope joins
                // now, not when their wait windows run out.
                self.sched.close();
                return finished;
            }
        }
    }

    /// One job-manager pass over the ledger, a no-op without a deadline
    /// or hedge policy: cut each attempt past its deadline, re-sending its
    /// task at once while the ledger retries it (cancel-and-requeue), then
    /// send a copy of each task the hedge policy duplicates, carrying the
    /// copy's attempt. Losers run to completion, as on SQS: nothing is
    /// killed. The sends hold the ledger lock, which no worker holds
    /// across a queue call.
    fn sweep(&self, ledger: &mut AttemptLedger, rng: &mut Pcg32) {
        let now_s = self.clock.now_s();
        if let Some(d) = self.ctx.resilience.and_then(|p| p.deadline) {
            while let Some((id, worker, outcome)) = ledger.cut_overdue(0, now_s, d.timeout_s) {
                self.event(worker, EventKind::Cancel);
                let task = &self.job.tasks[id.task];
                match (outcome, task.to_message()) {
                    (FailOutcome::Retried, Ok(body)) => {
                        let _ = self.send(&body, rng);
                    }
                    (FailOutcome::TaskFailed, Ok(body)) => self.dead_letter(&body, task.id),
                    _ => {}
                }
            }
        }
        while let Some(hedge) = ledger.launch_hedge(0, now_s) {
            if let Ok(body) = self.job.tasks[hedge.task].to_message() {
                let _ = self.send(&format!("{HEDGE_PREFIX}{}:{body}", hedge.attempt), rng);
            }
            self.event(NO_WORKER, EventKind::Hedge);
        }
    }

    /// One iteration of `worker`: receive → download → execute → upload →
    /// report → delete. The pull takes its attempt from the ledger's
    /// delivery step, which the sim shares; every failure settles it, and
    /// a `return` leaves any in-flight message to the visibility timeout.
    /// The run's fault schedule hits the worker at the pipeline's three
    /// points through its `chaos` cursor, by timed kill or by the point's
    /// own death die; dice are pure hashes of `(seed, point, worker, roll
    /// index)`, whatever the thread interleaving.
    fn poll_once(&self, worker: u32, group: usize, chaos: &mut ChaosCursor) {
        let (sched, job, clock, ledger) = (&self.sched, self.job, &self.clock, &self.ledger);
        let (ctx, breaker) = (self.ctx, &self.breaker);
        let health = self.health.as_ref();
        let sink = live_sink(ctx);
        let schedule = ctx.schedule.as_deref();
        // Score a finished attempt (`None` = failed) into the health tracker,
        // which traces any bench it imposes.
        let score = |latency_s: Option<f64>, now_s: f64| {
            if let Some(h) = health {
                h.lock()
                    .unwrap()
                    .record(worker, latency_s, now_s, &HealthTrace(sink));
            }
        };

        // Health-scored quarantine: a benched worker stays off the assignment
        // path entirely (it does not even receive), then re-enters through
        // probation when its bench expires.
        let benched = health.is_some_and(|h| {
            let now_s = clock.now_s();
            h.lock().unwrap().admit(worker, now_s, &HealthTrace(sink)) != Admit::Go
        });
        if benched {
            std::thread::sleep(POLL_BACKOFF);
            return;
        }

        let polled_at = sink.map(|_| clock.now_s());
        let Some(msg) = self.receive(sched) else {
            return;
        };

        let (hedge, body) = split_hedge(&msg.body);
        let pulled = TaskSpec::from_message(body).ok().and_then(|spec| {
            let i = self.index.binary_search_by_key(&spec.id.0, |&(id, _)| id);
            Some((self.index[i.ok()?].1, spec))
        });
        let Some((task, spec)) = pulled else {
            // Poison message, or no task of this job: park it in the DLQ
            // and drop it.
            let _ = self.dlq.send(body);
            let _ = sched.delete(msg.receipt);
            return;
        };
        // The delivery step. A hedge copy carries its attempt on its first
        // delivery only: redelivered (its lease lapsed, or chaos duplicated
        // it), it is a plain redelivery. Under a deadline the attempt is
        // armed, so the monitor's sweep can cut it.
        let id = {
            let mut ledger = ledger.lock().unwrap();
            let hedge = hedge.filter(|_| msg.receive_count == 1);
            let id = ledger.deliver(task, hedge, clock.now_s());
            if let Some(id) = id.filter(|_| ctx.resilience.is_some_and(|p| p.deadline.is_some())) {
                ledger.arm(id, worker);
            }
            id
        };
        let Some(id) = id else {
            // Its task is resolved, or its delivery budget is spent.
            let _ = sched.delete(msg.receipt);
            return;
        };
        let seq = chaos.next_seq();
        let attempt_began_s = clock.now_s();

        // The attempt's ledger ordinal names its spans, so re-executions
        // and hedges show up in the trace as distinct attempts of the same
        // task. The structural Attempt span is flushed when `tt` drops,
        // whichever exit is taken.
        let mut tt = sink.map(|s| {
            AttemptMarker::new(s, spec.id.0, id.attempt, worker, polled_at.unwrap_or(0.0))
        });
        let mut mark = |phase| {
            if let Some(tt) = tt.as_mut() {
                tt.mark(phase, clock.now_s());
            }
        };
        mark(Phase::Dequeue);

        // Settle the failed attempt, unless a deadline cut already did. The
        // settle that fails the task parks its message and deletes the
        // lease; otherwise the message reappears after the visibility
        // timeout. `hopeless` fails the task at once.
        let settle_failed = |hopeless: bool| {
            let outcome = {
                let mut ledger = ledger.lock().unwrap();
                if !ledger.is_live(id) {
                    return;
                }
                if hopeless {
                    ledger.abandon(id)
                } else {
                    ledger.fail(id)
                }
            };
            if outcome == FailOutcome::TaskFailed {
                self.dead_letter(body, spec.id);
                let _ = sched.delete(msg.receipt);
            }
        };
        // An injected death: the worker restarts after a delay.
        let die = || {
            self.worker_deaths.fetch_add(1, Ordering::Relaxed);
            self.event(worker, EventKind::Death);
            score(None, clock.now_s());
            settle_failed(false);
            std::thread::sleep(Duration::from_millis(self.config.restart_delay_ms));
        };

        // Injected death between receive and execute — a timed kill from the
        // schedule or an i.i.d. roll.
        let mut killed = |s| chaos.killed(s, worker, clock.now_s());
        if schedule.is_some_and(|s| killed(s) || s.die_before_execute(worker, seq)) {
            die();
            return;
        }

        // Download the input file over the storage web interface, behind the
        // shared circuit breaker: during a storage brownout the first few
        // workers exhaust their retries and trip the breaker, and everyone
        // else fast-fails to redelivery instead of piling on.
        if !breaker.allow(clock.now_s()) {
            settle_failed(false);
            std::thread::sleep(POLL_BACKOFF);
            return;
        }
        let input = match self.storage.get_with_retry(
            &job.input_bucket,
            &spec.input_key,
            INPUT_FETCH_ATTEMPTS,
        ) {
            Ok(d) => {
                breaker.record_success();
                mark(Phase::Download);
                d
            }
            Err(e) if e.is_retryable() => {
                breaker.record_failure(clock.now_s());
                settle_failed(false);
                return;
            }
            Err(_) => {
                // Input genuinely missing: the task can never run.
                settle_failed(true);
                return;
            }
        };

        self.total_executions.fetch_add(1, Ordering::Relaxed);
        let exec_started = Instant::now();
        let output = match self.executor.run(&spec, &input) {
            Ok(o) => o,
            Err(_) => {
                // Redelivery retries until the ledger's budget is spent.
                mark(Phase::Execute);
                score(None, clock.now_s());
                settle_failed(false);
                return;
            }
        };
        // Gray failure: a degraded (not dead) worker runs slower by the
        // schedule's factor — it still completes, it just holds tasks longer.
        let factor = schedule.map_or(1.0, |s| s.slowdown(worker, clock.now_s()));
        if factor > 1.0 {
            std::thread::sleep(exec_started.elapsed().mul_f64(factor - 1.0));
        }
        mark(Phase::Execute);

        // Death mid-upload: the worker dies before its PUT completes. An
        // object-store PUT (S3, Azure Blob) commits atomically, so nothing
        // lands, and a lapsed lease can never clobber a redelivered attempt's
        // committed output. Redelivery re-runs the task.
        if schedule.is_some_and(|s| s.die_mid_execute(worker, seq)) {
            die();
            return;
        }
        // Torn upload without a death: the PUT fails partway, so (being
        // atomic) it writes nothing; the worker abandons the lease and
        // redelivery retries the task.
        if schedule.is_some_and(|s| s.is_torn_upload(worker, seq)) {
            score(None, clock.now_s());
            settle_failed(false);
            return;
        }

        self.remote_bytes
            .fetch_add(input.len() as u64 + output.len() as u64, Ordering::Relaxed);
        if self
            .storage
            .put(&job.output_bucket, &spec.output_key, output)
            .is_err()
        {
            settle_failed(false);
            return; // redelivery will retry the whole task
        }
        mark(Phase::Upload);

        // Injected death between upload and delete: the duplicate re-execution
        // must overwrite with identical output.
        if schedule.is_some_and(|s| s.die_before_delete(worker, seq)) {
            die();
            return;
        }

        // First result wins: only the commit that finishes the task reports.
        let first = ledger.lock().unwrap().complete_at(id, clock.now_s());
        if first == CompleteOutcome::First {
            let _ = self.monitor.send(format!("done:{}", spec.id.0));
        }
        self.per_fleet.lock().unwrap()[group] += 1;
        // A stale receipt here means someone else finished the task first —
        // harmless by idempotence.
        let _ = sched.delete(msg.receipt);
        let done_s = clock.now_s();
        score(Some(done_s - attempt_began_s), done_s);
        mark(Phase::Ack);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppc_autoscale::AutoscaleConfig;
    use ppc_chaos::FaultSchedule;
    use ppc_compute::cluster::Cluster;
    use ppc_compute::instance::EC2_HCXL;
    use ppc_core::exec::FnExecutor;
    use ppc_core::task::ResourceProfile;
    use ppc_exec::RunContext;
    use ppc_resilience::ResiliencePolicy;
    use ppc_trace::Recorder;
    use std::collections::HashSet;

    #[test]
    fn hedge_copies_carry_their_attempt() {
        let body = TaskSpec::new(3, "rev", "f3", ResourceProfile::cpu_bound(0.0))
            .to_message()
            .unwrap();
        assert_eq!(split_hedge(&body), (None, body.as_str()));
        let copy = format!("{HEDGE_PREFIX}7:{body}");
        assert_eq!(split_hedge(&copy), (Some(7), body.as_str()));
        // A malformed prefix is no hedge: the body then fails to parse.
        let bad = format!("{HEDGE_PREFIX}x:{body}");
        assert_eq!(split_hedge(&bad), (None, bad.as_str()));
    }

    fn setup(n_tasks: u64) -> (Arc<StorageService>, Arc<QueueService>, JobSpec) {
        let storage = StorageService::in_memory();
        let queues = QueueService::new();
        let tasks: Vec<TaskSpec> = (0..n_tasks)
            .map(|i| TaskSpec::new(i, "rev", format!("f{i}"), ResourceProfile::cpu_bound(0.0)))
            .collect();
        let job = JobSpec::new("t", tasks);
        storage.create_bucket(&job.input_bucket).unwrap();
        for i in 0..n_tasks {
            storage
                .put(
                    &job.input_bucket,
                    &format!("f{i}"),
                    format!("payload-{i}").into_bytes(),
                )
                .unwrap();
        }
        (storage, queues, job)
    }

    fn reverse_executor() -> Arc<dyn Executor> {
        FnExecutor::new("rev", |_s, input: &[u8]| {
            let mut v = input.to_vec();
            v.reverse();
            Ok(v)
        })
    }

    // Every native run below goes through the harness entry point
    // (`crate::run` + a `RunContext`); these helpers spell out the context
    // each fleet shape needs.
    fn run_job(
        storage: &Arc<StorageService>,
        queues: &Arc<QueueService>,
        cluster: &Cluster,
        job: &JobSpec,
        executor: Arc<dyn Executor>,
        config: &ClassicConfig,
    ) -> Result<ClassicReport> {
        crate::run(
            &RunContext::new(cluster),
            storage,
            queues,
            job,
            executor,
            config,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn run_job_autoscaled(
        storage: &Arc<StorageService>,
        queues: &Arc<QueueService>,
        itype: ppc_compute::instance::InstanceType,
        job: &JobSpec,
        arrivals: &[f64],
        executor: Arc<dyn Executor>,
        config: &ClassicConfig,
        autoscale: &AutoscaleConfig,
    ) -> Result<ClassicReport> {
        crate::run(
            &RunContext::elastic(itype, autoscale.clone(), arrivals.to_vec()),
            storage,
            queues,
            job,
            executor,
            config,
        )
    }

    #[test]
    fn small_job_end_to_end() {
        let (storage, queues, job) = setup(20);
        let cluster = Cluster::provision(EC2_HCXL, 1, 4);
        let report = run_job(
            &storage,
            &queues,
            &cluster,
            &job,
            reverse_executor(),
            &ClassicConfig::default(),
        )
        .unwrap();
        assert!(report.is_complete());
        assert_eq!(report.summary.tasks, 20);
        assert!(report.total_attempts >= 20);
        // Every output object exists and is correct.
        for i in 0..20 {
            let out = storage
                .get(&job.output_bucket, &format!("f{i}.out"))
                .unwrap();
            let mut expect = format!("payload-{i}").into_bytes();
            expect.reverse();
            assert_eq!(*out, expect);
        }
        // Queues were cleaned up.
        assert!(queues.queue(&job.sched_queue()).is_err());
        assert!(report.queue_requests > 0);
        assert!(report.storage.requests > 0);
    }

    #[test]
    fn empty_job_is_invalid() {
        let (storage, queues, _) = setup(1);
        let cluster = Cluster::provision(EC2_HCXL, 1, 1);
        let job = JobSpec::new("empty", vec![]);
        let err = run_job(
            &storage,
            &queues,
            &cluster,
            &job,
            reverse_executor(),
            &ClassicConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err.code(), "InvalidArgument");
    }

    #[test]
    fn missing_input_fails_that_task_only() {
        let (storage, queues, mut job) = setup(5);
        // Add a task whose input was never uploaded.
        job.tasks.push(TaskSpec::new(
            99,
            "rev",
            "ghost",
            ResourceProfile::cpu_bound(0.0),
        ));
        let cluster = Cluster::provision(EC2_HCXL, 1, 2);
        let report = run_job(
            &storage,
            &queues,
            &cluster,
            &job,
            reverse_executor(),
            &ClassicConfig::default(),
        )
        .unwrap();
        assert_eq!(report.failed, vec![TaskId(99)]);
        assert_eq!(report.summary.tasks, 5);
    }

    #[test]
    fn poison_task_hits_dead_letter_policy() {
        let (storage, queues, job) = setup(4);
        let job = job
            .with_visibility_timeout(Duration::from_millis(20))
            .with_max_deliveries(3);
        let exec = FnExecutor::new("half-poison", |spec: &TaskSpec, input: &[u8]| {
            if spec.id.0 == 2 {
                Err(PpcError::TaskFailed("cannot process".into()))
            } else {
                Ok(input.to_vec())
            }
        });
        let cluster = Cluster::provision(EC2_HCXL, 1, 2);
        let report = run_job(
            &storage,
            &queues,
            &cluster,
            &job,
            exec,
            &ClassicConfig::default(),
        )
        .unwrap();
        assert_eq!(report.failed, vec![TaskId(2)]);
        assert_eq!(report.summary.tasks, 3);
        assert!(
            report.total_attempts >= 3 + 3,
            "poison task retried to the delivery cap"
        );
    }

    #[test]
    fn survives_worker_deaths() {
        let (storage, queues, job) = setup(30);
        let job = job.with_visibility_timeout(Duration::from_millis(25));
        let cluster = Cluster::provision(EC2_HCXL, 2, 4);
        let ctx = RunContext::new(&cluster)
            .with_seed(17)
            .with_schedule(Arc::new(
                FaultSchedule::new(17).with_death_probabilities(0.08, 0.05, 0.08),
            ));
        let config = ClassicConfig {
            restart_delay_ms: 1,
            ..ClassicConfig::default()
        };
        let report =
            crate::run(&ctx, &storage, &queues, &job, reverse_executor(), &config).unwrap();
        assert!(report.is_complete(), "all tasks complete despite deaths");
        assert_eq!(report.summary.tasks, 30);
        for i in 0..30 {
            let out = storage
                .get(&job.output_bucket, &format!("f{i}.out"))
                .unwrap();
            let mut expect = format!("payload-{i}").into_bytes();
            expect.reverse();
            assert_eq!(*out, expect, "idempotent re-execution left output intact");
        }
    }

    #[test]
    fn survives_queue_chaos() {
        let (storage, queues, job) = setup(25);
        let job = job.with_visibility_timeout(Duration::from_millis(25));
        let cluster = Cluster::provision(EC2_HCXL, 1, 4);
        let config = ClassicConfig {
            queue_chaos: ppc_queue::chaos::ChaosConfig::flaky(),
            ..ClassicConfig::default()
        };
        let report = run_job(
            &storage,
            &queues,
            &cluster,
            &job,
            reverse_executor(),
            &config,
        )
        .unwrap();
        assert!(report.is_complete());
        assert_eq!(report.summary.tasks, 25);
    }

    #[test]
    fn hybrid_fleets_share_one_queue() {
        // The paper's cloud + local-cluster extension: both fleets drain
        // the same scheduling queue.
        let (storage, queues, job) = setup(24);
        let cloud = Cluster::provision(EC2_HCXL, 1, 4);
        let local = Cluster::provision(ppc_compute::instance::BARE_CAP3, 1, 4);
        let report = crate::run(
            &RunContext::on_fleets(vec![cloud, local]),
            &storage,
            &queues,
            &job,
            reverse_executor(),
            &ClassicConfig::default(),
        )
        .unwrap();
        assert!(report.is_complete());
        assert_eq!(report.summary.cores, 8, "both fleets' workers counted");
        assert_eq!(report.summary.tasks, 24);
        // Fault-free with a 600-s lease: no task is redelivered, so every
        // task is credited to exactly one of the two fleets.
        assert_eq!(report.executions_per_fleet.len(), 2);
        assert_eq!(report.executions_per_fleet.iter().sum::<usize>(), 24);
    }

    #[test]
    fn traced_fixed_fleets_send_first_and_start_each_worker_once() {
        let (storage, queues, job) = setup(24);
        let fleets = vec![
            Cluster::provision(EC2_HCXL, 1, 4),
            Cluster::provision(ppc_compute::instance::BARE_CAP3, 1, 2),
        ];
        let report = crate::run(
            &RunContext::on_fleets(fleets.clone())
                .with_sink(Arc::new(Recorder::new()) as Arc<dyn TraceSink>),
            &storage,
            &queues,
            &job,
            reverse_executor(),
            &ClassicConfig::default(),
        )
        .unwrap();
        assert!(report.is_complete());
        assert_eq!(report.summary.platform, "classic");
        assert_eq!(report.summary.cores, 6);
        let makespan = report.summary.makespan_seconds;
        let (a, b) = (fleets[0].cost(makespan), fleets[1].cost(makespan));
        let cost = report.cost.expect("a fleet bill");
        assert_eq!(cost.compute_cost, a.compute_cost + b.compute_cost);
        assert_eq!(cost.amortized_cost, a.amortized_cost + b.amortized_cost);
        assert!(report.fleet.is_none());
        let trace = report.trace.as_ref().expect("traced run");
        // One WorkerStart per worker, numbered in flat spawn order.
        let mut started: Vec<u32> = trace
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::WorkerStart)
            .map(|e| e.worker)
            .collect();
        started.sort_unstable();
        assert_eq!(started, (0..6).collect::<Vec<u32>>());
        // Every task was sent before any worker started.
        let first_start = trace
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::WorkerStart)
            .map(|e| e.at_s)
            .fold(f64::INFINITY, f64::min);
        let sends: Vec<&Span> = trace
            .spans()
            .iter()
            .filter(|s| s.phase == Phase::Enqueue)
            .collect();
        assert_eq!(sends.len(), 24);
        assert!(sends.iter().all(|s| s.end_s <= first_start));
    }

    #[test]
    fn empty_fleet_list_rejected() {
        let (storage, queues, job) = setup(1);
        let err = crate::run(
            &RunContext::on_fleets(vec![]),
            &storage,
            &queues,
            &job,
            reverse_executor(),
            &ClassicConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err.code(), "InvalidArgument");
    }

    fn sleep_executor(ms: u64) -> Arc<dyn Executor> {
        FnExecutor::new("rev-slow", move |_s, input: &[u8]| {
            std::thread::sleep(Duration::from_millis(ms));
            let mut v = input.to_vec();
            v.reverse();
            Ok(v)
        })
    }

    fn fast_autoscale() -> ppc_autoscale::AutoscaleConfig {
        // Millisecond-compressed timing: 10 ms controller ticks against
        // 30 ms tasks, so elastic behavior plays out in under a second.
        ppc_autoscale::AutoscaleConfig {
            policy: ppc_autoscale::Policy::TargetBacklog { per_worker: 12.0 },
            min_workers: 1,
            max_workers: 4,
            interval_s: 0.01,
            scale_up_cooldown_s: 0.03,
            scale_down_cooldown_s: 0.02,
            warmup_s: 0.0,
            billing_aware: false,
            billing_window_s: 0.02,
            billing_hour_s: 0.1,
        }
    }

    #[test]
    fn autoscaled_job_end_to_end() {
        let (storage, queues, job) = setup(48);
        let report = run_job_autoscaled(
            &storage,
            &queues,
            EC2_HCXL,
            &job,
            &[],
            sleep_executor(30),
            &ClassicConfig::default(),
            &fast_autoscale(),
        )
        .unwrap();
        assert!(report.is_complete());
        assert_eq!(report.summary.tasks, 48);
        for i in 0..48 {
            let out = storage
                .get(&job.output_bucket, &format!("f{i}.out"))
                .unwrap();
            let mut expect = format!("payload-{i}").into_bytes();
            expect.reverse();
            assert_eq!(*out, expect);
        }
        let fleet = report.fleet.expect("autoscaled run reports its fleet");
        assert!(
            (2..=4).contains(&fleet.peak_fleet()),
            "one burst must trigger scale-out: peak {}",
            fleet.peak_fleet()
        );
        assert!(fleet.billed_hours >= 1);
        // Every launched slot's bill is closed or open-but-billed; the
        // timeline starts at the minimum fleet.
        assert_eq!(fleet.timeline.size_sequence()[0], 1);
        // Queues were cleaned up.
        assert!(queues.queue(&job.sched_queue()).is_err());
    }

    #[test]
    fn autoscaled_scale_in_never_loses_a_task() {
        // Staggered arrivals force scale-out then scale-in while messages
        // are in flight; draining must never orphan a leased message.
        let (storage, queues, job) = setup(40);
        let arrivals: Vec<f64> = (0..40).map(|i| if i < 30 { 0.0 } else { 0.4 }).collect();
        let report = run_job_autoscaled(
            &storage,
            &queues,
            EC2_HCXL,
            &job,
            &arrivals,
            sleep_executor(20),
            &ClassicConfig::default(),
            &fast_autoscale(),
        )
        .unwrap();
        assert!(report.is_complete(), "failed: {:?}", report.failed);
        assert_eq!(report.summary.tasks, 40);
        assert_eq!(
            report.total_attempts, 40,
            "no redeliveries: scale-in drained cleanly"
        );
    }

    #[test]
    fn traced_elastic_run_replays_its_fleet_ledger() {
        // Staggered arrivals make the fleet scale out and, usually, back
        // in. The trace must hold the controller's fleet events, and only
        // those: no WorkerStart, and no per-task death on a fault-free run.
        let (storage, queues, job) = setup(40);
        let arrivals: Vec<f64> = (0..40).map(|i| if i < 30 { 0.0 } else { 0.4 }).collect();
        let report = crate::run(
            &RunContext::elastic(EC2_HCXL, fast_autoscale(), arrivals)
                .with_sink(Arc::new(Recorder::new()) as Arc<dyn TraceSink>),
            &storage,
            &queues,
            &job,
            sleep_executor(20),
            &ClassicConfig::default(),
        )
        .unwrap();
        assert!(report.is_complete(), "failed: {:?}", report.failed);
        assert_eq!(report.executions_per_fleet, vec![40]);
        let fleet = report
            .fleet
            .as_ref()
            .expect("elastic run reports its fleet");
        assert_eq!(
            report.summary.platform,
            format!("classic-autoscale-{}", EC2_HCXL.name)
        );
        assert_eq!(report.summary.cores, fleet.peak_fleet() as usize);
        assert_eq!(report.cost, Some(fleet.cost));
        let trace = report.trace.as_ref().expect("traced run");
        assert_eq!(trace.events_of_kind(EventKind::WorkerStart), 0);
        // Replaying the trace's launches, retirements and deaths in order
        // rebuilds the controller's fleet-size timeline; launches take
        // slot ids in order, and a slot retires only after its drain.
        let mut replayed = ppc_core::trace::FleetTimeline::new();
        let (mut size, mut launched) = (0u32, 0u32);
        let mut draining = HashSet::new();
        for e in trace.events() {
            match e.kind {
                EventKind::Launch => {
                    assert_eq!(e.worker, launched, "slot ids are handed out in order");
                    launched += 1;
                    size += 1;
                }
                EventKind::Drain => {
                    assert!(e.worker < launched, "drain of an unlaunched slot");
                    assert!(draining.insert(e.worker), "slot drained twice");
                    continue;
                }
                EventKind::Retire => {
                    assert!(draining.remove(&e.worker), "retire without a drain");
                    size -= 1;
                }
                EventKind::Death => size -= 1,
                _ => continue,
            }
            replayed.record(e.at_s, size);
        }
        assert!(launched >= 2, "one burst must trigger scale-out");
        assert!(draining.is_empty(), "every drained slot retired");
        assert_eq!(&replayed, &fleet.timeline);
        // The job's queues are gone; its dead-letter queue stays.
        assert!(queues.queue(&job.sched_queue()).is_err());
        assert!(queues.queue(&job.monitor_queue()).is_err());
        assert!(queues.queue(&job.dead_letter_queue()).is_ok());
    }

    #[test]
    fn elastic_run_rejects_bad_arrivals_before_starting() {
        // Each bad offset must be refused before any thread starts. The run
        // goes on a helper thread so a regression fails here instead of
        // hanging the suite.
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let (storage, queues, job) = setup(2);
                let err = run_job_autoscaled(
                    &storage,
                    &queues,
                    EC2_HCXL,
                    &job,
                    &[0.0, bad],
                    reverse_executor(),
                    &ClassicConfig::default(),
                    &fast_autoscale(),
                )
                .err();
                let untouched = queues.queue(&job.sched_queue()).is_err();
                let _ = tx.send((err, untouched));
            });
            let (err, untouched) = rx
                .recv_timeout(Duration::from_secs(10))
                .unwrap_or_else(|_| panic!("offset {bad}: the run did not return"));
            let err = err.unwrap_or_else(|| panic!("offset {bad} was accepted"));
            assert_eq!(err.code(), "InvalidArgument", "offset {bad}: {err}");
            assert!(untouched, "offset {bad}: the run created its queues");
        }
    }

    #[test]
    fn unparseable_task_is_rejected_before_starting() {
        // Regression: a non-finite cpu_seconds_ref travels as `null`, so
        // the task's message cannot be parsed back; a worker parked it in
        // the DLQ as poison without settling the task, and the run never
        // returned. The run goes on a helper thread so a regression fails
        // here instead of hanging the suite.
        for bad in [f64::NAN, f64::INFINITY] {
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let (storage, queues, mut job) = setup(2);
                job.tasks[1].profile = ResourceProfile::cpu_bound(bad);
                let cluster = Cluster::provision(EC2_HCXL, 1, 2);
                let config = ClassicConfig::default();
                let run = run_job(
                    &storage,
                    &queues,
                    &cluster,
                    &job,
                    reverse_executor(),
                    &config,
                );
                let _ = tx.send(run.err());
            });
            let err = rx
                .recv_timeout(Duration::from_secs(10))
                .unwrap_or_else(|_| panic!("{bad}: the run did not return"))
                .unwrap_or_else(|| panic!("{bad}: the task was accepted"));
            assert_eq!(err.code(), "InvalidArgument", "{bad}: {err}");
            assert!(err.to_string().contains("task 1 "), "{bad}: {err}");
        }
    }

    #[test]
    fn autoscaled_rejects_mismatched_arrivals() {
        let (storage, queues, job) = setup(4);
        let err = run_job_autoscaled(
            &storage,
            &queues,
            EC2_HCXL,
            &job,
            &[0.0, 1.0],
            reverse_executor(),
            &ClassicConfig::default(),
            &fast_autoscale(),
        )
        .unwrap_err();
        assert_eq!(err.code(), "InvalidArgument");
    }

    #[test]
    fn mid_execute_death_leaves_no_output_and_is_redelivered() {
        // A worker dying mid-upload lands nothing (PUTs are atomic); the
        // redelivered task must commit the full output.
        let (storage, queues, job) = setup(20);
        let job = job
            .with_visibility_timeout(Duration::from_millis(25))
            .with_max_deliveries(20);
        let ctx = RunContext::new(&Cluster::provision(EC2_HCXL, 2, 4))
            .with_seed(7)
            .with_schedule(Arc::new(
                FaultSchedule::new(7).with_death_probabilities(0.0, 0.45, 0.0),
            ));
        let config = ClassicConfig {
            restart_delay_ms: 1,
            ..ClassicConfig::default()
        };
        let report =
            crate::run(&ctx, &storage, &queues, &job, reverse_executor(), &config).unwrap();
        assert!(report.is_complete(), "failed: {:?}", report.failed);
        assert!(report.worker_deaths > 0, "mid-execute deaths were rolled");
        for i in 0..20 {
            let out = storage
                .get(&job.output_bucket, &format!("f{i}.out"))
                .unwrap();
            let mut expect = format!("payload-{i}").into_bytes();
            expect.reverse();
            assert_eq!(*out, expect, "redelivery committed the full output");
        }
    }

    #[test]
    fn interrupted_upload_never_clobbers_committed_output() {
        // A worker whose lease lapsed can reach its upload after a
        // redelivered attempt already committed the task. Its interrupted
        // PUT must land nothing: pre-commit the full output, tear the only
        // worker's upload, allow no redelivery, and the bytes must survive.
        let (storage, queues, job) = setup(1);
        let job = job
            .with_visibility_timeout(Duration::from_millis(20))
            .with_max_deliveries(1);
        let mut full = b"payload-0".to_vec();
        full.reverse();
        storage.ensure_bucket(&job.output_bucket);
        storage
            .put(&job.output_bucket, "f0.out", full.clone())
            .unwrap();
        let ctx = RunContext::new(&Cluster::provision(EC2_HCXL, 1, 1))
            .with_schedule(Arc::new(FaultSchedule::new(1).torn_upload(0, 0)));
        let report = crate::run(
            &ctx,
            &storage,
            &queues,
            &job,
            reverse_executor(),
            &ClassicConfig::default(),
        )
        .unwrap();
        assert_eq!(
            report.failed,
            vec![TaskId(0)],
            "the torn task is not retried"
        );
        let out = storage.get(&job.output_bucket, "f0.out").unwrap();
        assert_eq!(*out, full, "committed output survives the torn upload");
    }

    #[test]
    fn exhausted_task_parks_in_dead_letter_queue() {
        let (storage, queues, job) = setup(4);
        let job = job
            .with_visibility_timeout(Duration::from_millis(20))
            .with_max_deliveries(3);
        let exec = FnExecutor::new("half-poison", |spec: &TaskSpec, input: &[u8]| {
            if spec.id.0 == 2 {
                Err(PpcError::TaskFailed("cannot process".into()))
            } else {
                Ok(input.to_vec())
            }
        });
        let cluster = Cluster::provision(EC2_HCXL, 1, 2);
        let report = run_job(
            &storage,
            &queues,
            &cluster,
            &job,
            exec,
            &ClassicConfig::default(),
        )
        .unwrap();
        assert_eq!(report.failed, vec![TaskId(2)]);
        // The DLQ outlives the job and holds exactly the poison task.
        let dlq = queues.queue(&job.dead_letter_queue()).unwrap();
        let parked = dlq.receive().unwrap().expect("poison task parked");
        let spec = TaskSpec::from_message(&parked.body).unwrap();
        assert_eq!(spec.id, TaskId(2));
        dlq.delete(parked.receipt).unwrap();
        assert!(dlq.receive().unwrap().is_none(), "exactly one parked task");
    }

    #[test]
    fn survives_scheduled_chaos() {
        // A full hostile schedule: timed kills, a mid-execute kill, a torn
        // upload, a gray-degraded worker, and a storage brownout window.
        let (storage, queues, job) = setup(24);
        let job = job
            .with_visibility_timeout(Duration::from_millis(30))
            .with_max_deliveries(20);
        let cluster = Cluster::provision(EC2_HCXL, 2, 4);
        let schedule = FaultSchedule::new(11)
            .kill_at(0, 0.005)
            .kill_mid_execute(1, 0)
            .torn_upload(2, 1)
            .degrade(3, 3.0, 0.0, 1.0)
            .brownout(0.010, 0.020);
        let ctx = RunContext::new(&cluster).with_schedule(Arc::new(schedule));
        let report = crate::run(
            &ctx,
            &storage,
            &queues,
            &job,
            sleep_executor(2),
            &ClassicConfig::default(),
        )
        .unwrap();
        assert!(report.is_complete(), "failed: {:?}", report.failed);
        assert_eq!(report.summary.tasks, 24);
        for i in 0..24 {
            let out = storage
                .get(&job.output_bucket, &format!("f{i}.out"))
                .unwrap();
            let mut expect = format!("payload-{i}").into_bytes();
            expect.reverse();
            assert_eq!(*out, expect);
        }
        // The chaos injection was disarmed on the way out.
        assert!(storage.get(&job.output_bucket, "f0.out").is_ok());
    }

    #[test]
    fn invalid_schedule_rejected_up_front() {
        let (storage, queues, job) = setup(2);
        let cluster = Cluster::provision(EC2_HCXL, 1, 1);
        let ctx = RunContext::new(&cluster).with_schedule(Arc::new(
            FaultSchedule::new(1).kill_at(0, 0.01).brownout(0.5, 0.1),
        ));
        let err = crate::run(
            &ctx,
            &storage,
            &queues,
            &job,
            reverse_executor(),
            &ClassicConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err.code(), "InvalidArgument");
    }

    #[test]
    fn autoscaled_replaces_chaos_killed_instance() {
        // A timed kill takes out slot 0 (the only seed worker); the
        // controller must record the death and launch a replacement, and
        // the job must still finish every task.
        let (storage, queues, job) = setup(30);
        let job = job.with_visibility_timeout(Duration::from_millis(60));
        let ctx = RunContext::elastic(EC2_HCXL, fast_autoscale(), vec![])
            .with_schedule(Arc::new(FaultSchedule::new(5).kill_at(0, 0.05)));
        let report = crate::run(
            &ctx,
            &storage,
            &queues,
            &job,
            sleep_executor(10),
            &ClassicConfig::default(),
        )
        .unwrap();
        assert!(report.is_complete(), "failed: {:?}", report.failed);
        assert_eq!(report.summary.tasks, 30);
        let fleet = report.fleet.expect("autoscaled run reports its fleet");
        assert!(fleet.billed_hours >= 1);
    }

    /// 32 2-ms tasks on four workers, worker 0 running 30x slow, under
    /// `policy` with tracing on: every task completes, the defense fires
    /// `kind` events, and the trace is well formed. A hedge copy or a
    /// deadline re-send runs under a fresh ledger ordinal, so no two
    /// attempt spans collide. The other three workers need about 20 ms
    /// for all the tasks, so worker 0 gets one unless it starts that late.
    fn assert_defended_straggler_run(policy: ResiliencePolicy, kind: EventKind) {
        let (storage, queues, job) = setup(32);
        let ctx = RunContext::new(&Cluster::provision(EC2_HCXL, 1, 4))
            .with_schedule(Arc::new(FaultSchedule::new(1).degrade(0, 30.0, 0.0, 1e9)))
            .with_resilience(policy)
            .with_sink(Arc::new(Recorder::new()) as Arc<dyn TraceSink>);
        let report = crate::run(
            &ctx,
            &storage,
            &queues,
            &job,
            sleep_executor(2),
            &ClassicConfig::default(),
        )
        .unwrap();
        assert!(report.is_complete(), "failed: {:?}", report.failed);
        let trace = report.trace.as_ref().expect("traced run");
        assert_eq!(trace.check_well_formed(), Vec::<String>::new());
        assert!(trace.events_of_kind(kind) > 0, "no {kind:?} event");
    }

    #[test]
    fn hedged_straggler_run_is_well_formed() {
        let hedge = ppc_resilience::HedgeConfig::quantile(0.002);
        assert_defended_straggler_run(ResiliencePolicy::hedged(hedge), EventKind::Hedge);
    }

    #[test]
    fn deadline_cut_resends_and_is_well_formed() {
        let policy = ResiliencePolicy::default().with_deadline(0.03);
        assert_defended_straggler_run(policy, EventKind::Cancel);
    }

    /// Kernel thread id of the calling thread (Linux), read from
    /// `/proc/thread-self`; `None` elsewhere.
    fn os_tid() -> Option<String> {
        let link = std::fs::read_link("/proc/thread-self").ok()?;
        Some(link.file_name()?.to_string_lossy().into_owned())
    }

    /// A tiny job with a 5-s long-poll window must not wait the window out
    /// at job end: the monitor closes the scheduling queue as it stops the
    /// job, which releases every parked worker at once. Checks wall time,
    /// report, and that every worker thread exits.
    fn assert_job_end_wakes_parked_workers(ctx: &RunContext) {
        let (storage, queues, job) = setup(4);
        let tids = Arc::new(Mutex::new(Vec::new()));
        let seen = tids.clone();
        let executor = FnExecutor::new("rev", move |_s, input: &[u8]| {
            seen.lock().unwrap().extend(os_tid());
            let mut v = input.to_vec();
            v.reverse();
            Ok(v)
        });
        let config = ClassicConfig {
            long_poll_wait: Duration::from_secs(5),
            ..ClassicConfig::default()
        };
        let start = Instant::now();
        let report = crate::run(ctx, &storage, &queues, &job, executor, &config).unwrap();
        let took = start.elapsed();
        assert!(report.is_complete());
        assert_eq!(report.summary.tasks, 4);
        assert!(
            took < Duration::from_secs(2),
            "job end left workers parked in 5-s long polls: {took:?}"
        );
        // The scope saw every worker finish before `run` returned; their OS
        // threads exit right after (the benchmark's thread check allows 2 s).
        let gone_by = Instant::now() + Duration::from_secs(2);
        for tid in tids.lock().unwrap().iter() {
            let task = format!("/proc/self/task/{tid}");
            while std::path::Path::new(&task).exists() {
                assert!(Instant::now() < gone_by, "worker {tid} still alive");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    #[test]
    fn job_end_wakes_workers_parked_in_long_polls() {
        assert_job_end_wakes_parked_workers(&RunContext::new(&Cluster::provision(EC2_HCXL, 1, 4)));
    }

    #[test]
    fn elastic_job_end_wakes_workers_parked_in_long_polls() {
        let autoscale = ppc_autoscale::AutoscaleConfig {
            min_workers: 2,
            ..fast_autoscale()
        };
        assert_job_end_wakes_parked_workers(&RunContext::elastic(EC2_HCXL, autoscale, vec![]));
    }
}
