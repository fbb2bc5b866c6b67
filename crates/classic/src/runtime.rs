//! The native Classic Cloud runtime: real threads, real queues, real bytes.
//!
//! One thread per worker slot plays the part of a worker process in a cloud
//! instance (paper Figure 1). The pipeline per task is exactly the paper's:
//! receive → download input over the storage service → run the executable →
//! upload output → report to the monitoring queue → delete the message.
//! Everything that can fail does so through the services' own error
//! surfaces, and recovery is purely the visibility-timeout mechanism.
//!
//! The run context's [`ppc_chaos::FaultSchedule`] kills workers at the
//! three interesting points of that pipeline, by timed kill or i.i.d.
//! death dice, each worker tracking its place in the schedule on a
//! [`ppc_chaos::ChaosCursor`]:
//!
//! * **before execute** — the worker took the message and died; no output
//!   exists; redelivery re-runs the task.
//! * **mid execute** — the worker ran the task but died during the output
//!   upload; the PUT is atomic, so nothing lands, and redelivery re-runs
//!   the task.
//! * **before delete** — the worker produced and uploaded the output but
//!   died before deleting the message; redelivery runs the task *again*,
//!   harmlessly overwriting the identical output (idempotence).
//!
//! A dead worker abandons its current message and is replaced after
//! [`ClassicConfig::restart_delay_ms`] (the cloud's instance
//! auto-recovery).

use crate::elastic;
use crate::report::ClassicReport;
use crate::spec::JobSpec;
use ppc_autoscale::{AutoscaleConfig, Controller, Decision, Telemetry};
use ppc_chaos::{ChaosCursor, RunClock};
use ppc_compute::cluster::Cluster;
use ppc_compute::instance::InstanceType;
use ppc_core::exec::Executor;
use ppc_core::metrics::RunSummary;
use ppc_core::retry::{CircuitBreaker, RetryPolicy};
use ppc_core::rng::{Pcg32, CLIENT_STREAM};
use ppc_core::task::{TaskId, TaskSpec};
use ppc_core::{PpcError, Result};
use ppc_exec::slots::join_all;
use ppc_exec::{FleetPlan, HealthTrace, RunContext, RunReport};
use ppc_queue::queue::QueueConfig;
use ppc_queue::service::QueueService;
use ppc_resilience::{Admit, DeadlineConfig, HealthTracker, HedgePolicy, ResiliencePolicy};
use ppc_storage::service::StorageService;
use ppc_trace::{AttemptMarker, EventKind, Phase, Span, TraceEvent, TraceSink, NO_WORKER};
use std::collections::{HashMap, HashSet};
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
/// Every task attempt records its lifecycle phases (`enqueue → dequeue →
/// download → execute → upload → ack`) plus worker events, and the report
/// carries the finished [`ppc_trace::Trace`].
fn live_sink(ctx: &RunContext) -> Option<&dyn TraceSink> {
    ctx.sink.as_deref().filter(|s| s.enabled())
}

/// The monitor's straggler defense: watches `start:`/`done:`
/// progress reports against the run clock and re-dispatches the bodies of
/// tasks that outlive the hedge delay (a duplicate attempt races the
/// straggler — Hadoop's speculation generalized to queue re-dispatch) or
/// their deadline (cancel-and-requeue). First result wins: outputs are
/// idempotent overwrites and the done set ignores late duplicates.
struct MonitorDefense {
    hedge: Option<HedgePolicy>,
    deadline: Option<DeadlineConfig>,
    /// Message body of each task, for re-dispatch.
    bodies: HashMap<u64, String>,
    /// Start time of the most recent attempt of each unresolved task.
    running: HashMap<u64, f64>,
    /// Tasks already hedged once (one duplicate per task).
    hedged: HashSet<u64>,
    n_tasks: usize,
}

impl MonitorDefense {
    /// Build the defense when the policy asks for hedging or deadlines.
    fn new(policy: Option<ResiliencePolicy>, job: &JobSpec) -> Option<MonitorDefense> {
        let policy = policy?;
        if policy.hedge.is_none() && policy.deadline.is_none() {
            return None;
        }
        let bodies = job
            .tasks
            .iter()
            .filter_map(|t| t.to_message().ok().map(|b| (t.id.0, b)))
            .collect();
        Some(MonitorDefense {
            hedge: policy.hedge.map(HedgePolicy::new),
            deadline: policy.deadline,
            bodies,
            running: HashMap::new(),
            hedged: HashSet::new(),
            n_tasks: job.tasks.len(),
        })
    }

    fn on_start(&mut self, id: u64, now_s: f64) {
        self.running.insert(id, now_s);
    }

    fn on_done(&mut self, id: u64, now_s: f64) {
        if let Some(started) = self.running.remove(&id) {
            if let Some(policy) = &mut self.hedge {
                policy.observe(now_s - started);
            }
        }
        self.hedged.remove(&id);
    }

    /// One pass over the running set, oldest attempt first (as the attempt
    /// ledger picks hedges): hedge stragglers, cancel-and-requeue deadline
    /// breaches. Called on every monitor iteration.
    fn sweep(
        &mut self,
        sched: &ppc_queue::Queue,
        sink: Option<&dyn TraceSink>,
        done: &HashSet<u64>,
        now_s: f64,
    ) {
        #[allow(clippy::disallowed_methods)] // sorted before use
        let mut by_age: Vec<(f64, u64)> = self.running.iter().map(|(&id, &at)| (at, id)).collect();
        by_age.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        for (_, id) in by_age {
            if done.contains(&id) {
                self.running.remove(&id);
                continue;
            }
            let started = self.running[&id];
            let age = now_s - started;
            if let Some(d) = self.deadline {
                if age > d.timeout_s {
                    // Cancel-and-requeue: the stuck attempt is abandoned to
                    // its lease and a fresh copy of the task re-enters the
                    // queue right now instead of waiting out the
                    // visibility timeout.
                    if let Some(body) = self.bodies.get(&id) {
                        if sched.send(body.clone()).is_ok() {
                            if let Some(s) = sink {
                                s.event(TraceEvent {
                                    at_s: now_s,
                                    worker: NO_WORKER,
                                    kind: EventKind::Cancel,
                                });
                            }
                            self.running.insert(id, now_s);
                        }
                    }
                    continue;
                }
            }
            if let Some(policy) = &mut self.hedge {
                let live = if self.hedged.contains(&id) { 2 } else { 1 };
                if policy.should_hedge(age, live, self.n_tasks) {
                    if let Some(body) = self.bodies.get(&id) {
                        if sched.send(body.clone()).is_ok() {
                            policy.record_hedge();
                            self.hedged.insert(id);
                            if let Some(s) = sink {
                                s.event(TraceEvent {
                                    at_s: now_s,
                                    worker: NO_WORKER,
                                    kind: EventKind::Hedge,
                                });
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Create (or reuse) the job's dead-letter queue. Unlike the scheduling
/// and monitoring queues, the DLQ persists after the job so operators can
/// inspect or redrive parked tasks — so a rerun finds it already there.
fn dead_letter_queue(queues: &QueueService, job: &JobSpec) -> Result<Arc<ppc_queue::Queue>> {
    match queues.create_queue(&job.dead_letter_queue(), QueueConfig::default()) {
        Ok(q) => Ok(q),
        Err(PpcError::AlreadyExists(_)) => queues.queue(&job.dead_letter_queue()),
        Err(e) => Err(e),
    }
}

/// Retry policy for the client's task-submission sends: effectively
/// unbounded attempts (queue chaos send failures are transient and the
/// original loop retried forever) with a short jittered backoff instead
/// of a busy spin.
fn client_send_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: u32::MAX,
        base_delay: Duration::from_micros(100),
        max_delay: Duration::from_millis(5),
        multiplier: 2.0,
        jitter: 0.5,
        budget: None,
    }
}

/// Everything the threads of one native run share: the job's queues and
/// services, its context and config, and the counters the monitor and
/// workers update.
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
    total_executions: AtomicUsize,
    worker_deaths: AtomicUsize,
    remote_bytes: AtomicU64,
    finished_at: Mutex<Option<Instant>>,
    failed: Mutex<Vec<TaskId>>,
    /// Successful task completions credited per fleet (hybrid accounting).
    per_fleet: Mutex<Vec<usize>>,
}

/// What a fixed and an elastic fleet do differently in a native run, as
/// in the sim's `Fleet`; everything else is shared.
enum Fleet<'a> {
    /// One or more fixed fleets: every worker slot runs for the whole job.
    Fixed(&'a [Cluster]),
    /// Single-worker instances launched and drained by a controller.
    Elastic(Box<Elastic<'a>>),
}

/// An elastic fleet's live state, driven by a `ppc-autoscale`
/// [`Controller`] watching the scheduling queue's
/// [`metrics snapshot`](ppc_queue::Queue::metrics_snapshot). Every
/// `AutoscaleConfig` time is in wall seconds: tests and examples compress
/// them (10 ms ticks, 100 ms "billing hours") so elastic behavior plays
/// out in milliseconds.
struct Elastic<'a> {
    itype: InstanceType,
    autoscale: &'a AutoscaleConfig,
    arrivals: &'a [f64],
    controller: Mutex<Controller>,
    /// Per-slot drain flags, indexed by slot id; grown under the lock as
    /// the controller launches instances.
    drain: Mutex<Vec<Arc<AtomicBool>>>,
    /// Slots whose workers left on their drain flag (drained or killed),
    /// awaiting confirmation at the controller's next tick.
    exited: Mutex<Vec<u32>>,
}

/// Execute `job` natively on the context's fleet plan: real worker
/// threads polling a real queue, moving real bytes through `storage`.
/// Workers pull from one scheduling queue, whether they come from one
/// fixed fleet, from several side by side (the paper's §2.1.3 extension:
/// "One interesting feature of the Classic Cloud framework is the ability
/// to extend it to use the local machines and clusters side by side with
/// the clouds."), or from an elastic pool of single-worker instances a
/// `ppc-autoscale` controller launches and retires. Returns once every
/// task has either completed or been declared failed after
/// `max_deliveries` attempts.
///
/// Only these steps branch on the fleet:
/// * sending: a fixed fleet gets every task before any worker starts, and
///   a failed send aborts the job; an elastic fleet's client thread sends
///   each task at its arrival offset (in wall seconds, finite and
///   non-negative, else an `InvalidArgument` error) until the job stops;
/// * spawning: fixed-fleet workers are numbered in flat spawn order, each
///   credited to its fleet and traced with a `WorkerStart`; elastic
///   workers take their controller slot id and a drain flag;
/// * the controller thread, elastic fleets only. Scale-in drains: a
///   victim finishes the lease it holds, then exits, and the next tick
///   confirms it, so scale-in never orphans a leased message;
/// * the report's platform, core count and cost. An elastic report also
///   carries a [`FleetReport`](crate::report::FleetReport) with the
///   fleet-size timeline and the staggered per-instance bill.
///
/// Threads: one per worker slot (on an elastic fleet, one per live
/// instance, plus the client and the controller); the calling thread runs
/// the monitor, which drains the monitoring queue and closes the job. A
/// separate monitor thread would be one more runnable thread than a small
/// host has cores at every job start: on a 2-core host with two slots,
/// about half of all two-task jobs started their second worker 0.9–1.9 ms
/// late or ran both workers on one core. The monitor then joins the
/// threads it spawned, so `run` returns once they have exited.
///
/// A malformed context schedule or policy is an `InvalidArgument` error,
/// returned before any thread starts. Without a context seed the run uses
/// seed 0.
pub fn run(
    ctx: &RunContext,
    storage: &Arc<StorageService>,
    queues: &Arc<QueueService>,
    job: &JobSpec,
    executor: Arc<dyn Executor>,
    config: &ClassicConfig,
) -> Result<ClassicReport> {
    if matches!(&ctx.fleet, FleetPlan::Fixed(fleets) if fleets.is_empty()) {
        return Err(PpcError::InvalidArgument(
            "run context has an empty fleet list".into(),
        ));
    }
    job.validate()?;
    ctx.validate()?;
    config.queue_chaos.validate()?;
    let seed = ctx.seed.unwrap_or(DEFAULT_SEED);
    let fleet = match &ctx.fleet {
        FleetPlan::Fixed(fleets) => Fleet::Fixed(fleets),
        FleetPlan::Elastic {
            itype,
            autoscale,
            arrivals,
        } => {
            elastic::check_arrivals(arrivals, job.tasks.len())?;
            Fleet::Elastic(Box::new(Elastic {
                itype: *itype,
                autoscale,
                arrivals,
                controller: Mutex::new(Controller::new(autoscale.clone())),
                drain: Mutex::new(Vec::new()),
                exited: Mutex::new(Vec::new()),
            }))
        }
    };

    let sched = queues.create_queue(
        &job.sched_queue(),
        QueueConfig {
            visibility_timeout: job.visibility_timeout,
            chaos: config.queue_chaos,
            seed,
        },
    )?;
    let monitor = queues.create_queue(&job.monitor_queue(), QueueConfig::default())?;
    let dlq = dead_letter_queue(queues, job)?;
    storage.ensure_bucket(&job.output_bucket);

    let n_fleets = match &fleet {
        Fleet::Fixed(fleets) => fleets.len(),
        Fleet::Elastic(_) => 1,
    };
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
        total_executions: AtomicUsize::new(0),
        worker_deaths: AtomicUsize::new(0),
        remote_bytes: AtomicU64::new(0),
        finished_at: Mutex::new(None),
        failed: Mutex::new(Vec::new()),
        per_fleet: Mutex::new(vec![0; n_fleets]),
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

    // The client populates the scheduling queue with tasks (Figure 1). A
    // fixed fleet gets them all before any worker starts; a send that
    // fails for good aborts the job.
    if let Fleet::Fixed(_) = fleet {
        let mut rng = Pcg32::for_stream(seed, CLIENT_STREAM);
        for task in &job.tasks {
            run.send(task, &mut rng)?;
        }
    }

    std::thread::scope(|scope| {
        let run = &run;
        let threads = match &fleet {
            Fleet::Fixed(fleets) => {
                // One thread per worker slot, across every fleet. The chaos
                // schedule addresses workers by their flat spawn index.
                let fleet_ids = fleets
                    .iter()
                    .enumerate()
                    .flat_map(|(f, c)| c.worker_slots().map(move |_| f));
                (fleet_ids.enumerate())
                    .map(|(windex, fleet_id)| {
                        let worker = windex as u32;
                        scope.spawn(move || {
                            run.event(worker, EventKind::WorkerStart);
                            run.work(worker, fleet_id, None);
                        })
                    })
                    .collect()
            }
            Fleet::Elastic(el) => vec![
                scope.spawn(|| run.send_arrivals(el.arrivals, start)),
                scope.spawn(|| el.control(scope, run, start)),
            ],
        };
        // The monitor, on the calling thread: drains the monitoring queue
        // and decides when the job is done.
        run.monitor_loop();
        join_all(threads);
    });
    if ctx.schedule.is_some() {
        storage.clear_chaos();
    }

    let finished = run.finished_at.lock().unwrap().unwrap_or_else(Instant::now);
    let makespan = finished.duration_since(start).as_secs_f64();
    let failed = run.failed.into_inner().unwrap();
    let completed = job.tasks.len() - failed.len();
    let total_executions = run.total_executions.load(Ordering::Relaxed);
    let (platform, cores, cost, fleet) = match fleet {
        Fleet::Fixed(fleets) => (
            "classic".to_string(),
            fleets.iter().map(Cluster::total_workers).sum(),
            crate::report::fleets_cost(fleets, makespan),
            None,
        ),
        Fleet::Elastic(el) => {
            let mut ctrl = el.controller.into_inner().unwrap();
            let exited = el.exited.into_inner().unwrap();
            let fleet = elastic::close_fleet(&mut ctrl, exited, makespan, el.itype);
            if let Some(s) = live_sink(ctx) {
                elastic::trace_fleet_events(&ctrl, s);
            }
            (
                format!("classic-autoscale-{}", el.itype.name),
                fleet.peak_fleet() as usize,
                fleet.cost,
                Some(fleet),
            )
        }
    };

    let storage_after = storage.metering().snapshot();
    let summary = RunSummary {
        platform,
        cores,
        tasks: completed,
        makespan_seconds: makespan,
        redundant_executions: total_executions.saturating_sub(completed),
        remote_bytes: run.remote_bytes.load(Ordering::Relaxed),
    };
    let deaths = run.worker_deaths.load(Ordering::Relaxed);
    let sink = live_sink(ctx);
    let core = RunReport::close(summary, failed, total_executions, deaths, Some(cost), sink);
    let report = ClassicReport {
        timeline: core.trace.as_ref().map(ppc_trace::Trace::to_timeline),
        core,
        queue_requests: queues.total_requests() - requests_before,
        executions_per_fleet: run.per_fleet.into_inner().unwrap(),
        fleet,
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

impl Elastic<'_> {
    /// The controller thread: seeds `min_workers` workers, then ticks
    /// every `interval_s` (wall seconds), spawning and draining worker
    /// threads per the policy's decisions until the job stops.
    fn control<'s, 'e>(&'e self, scope: &'s Scope<'s, 'e>, run: &'e Run<'_>, start: Instant) {
        let spawn_worker = |slot: u32| {
            let drain = {
                let mut flags = self.drain.lock().unwrap();
                while flags.len() <= slot as usize {
                    flags.push(Arc::new(AtomicBool::new(false)));
                }
                flags[slot as usize].clone()
            };
            // The chaos schedule addresses an elastic fleet's workers by
            // their controller slot id.
            scope.spawn(move || {
                run.work(slot, 0, Some(&drain));
                if drain.load(Ordering::Acquire) {
                    self.exited.lock().unwrap().push(slot);
                }
            });
        };

        // The controller seeded `min_workers` active slots at t = 0.
        for slot in 0..self.autoscale.min_workers {
            spawn_worker(slot);
        }

        let interval = Duration::from_secs_f64(self.autoscale.interval_s);
        let quantum = interval.min(Duration::from_millis(2));
        let mut next_tick = interval;
        let mut last_tick_s = 0.0_f64;
        while !run.stop.load(Ordering::Acquire) {
            std::thread::sleep(quantum);
            let now = start.elapsed();
            if now < next_tick {
                continue;
            }
            next_tick += interval;
            let now_s = now.as_secs_f64();
            let mut ctrl = self.controller.lock().unwrap();
            // Dead-instance detection: a timed kill addressed to a live
            // slot takes the whole instance down. The controller records
            // the death (waiving the scale-up cooldown) so `decide` below
            // can launch a replacement immediately.
            if let Some(schedule) = &run.ctx.schedule {
                let victims = elastic::dead_slots(&ctrl, schedule, last_tick_s, now_s);
                if !victims.is_empty() {
                    let flags = self.drain.lock().unwrap();
                    for id in victims {
                        if let Some(f) = flags.get(id as usize) {
                            f.store(true, Ordering::Release);
                        }
                        ctrl.mark_dead(id, now_s);
                    }
                }
            }
            last_tick_s = now_s;
            elastic::confirm_exits(&mut ctrl, self.exited.lock().unwrap().drain(..), now_s);
            let snap = run.sched.metrics_snapshot();
            let telemetry = Telemetry {
                queued: snap.visible,
                in_flight: snap.in_flight,
                oldest_age_s: snap.oldest_age.map(|d| d.as_secs_f64()),
            };
            match ctrl.decide(now_s, &telemetry) {
                Decision::Launch { ids } => {
                    drop(ctrl);
                    for id in ids {
                        spawn_worker(id);
                    }
                }
                Decision::Drain { ids } => {
                    let flags = self.drain.lock().unwrap();
                    for id in ids {
                        flags[id as usize].store(true, Ordering::Release);
                    }
                }
                Decision::Hold => {}
            }
        }
    }
}

impl Run<'_> {
    /// Send one task to the scheduling queue, tracing its enqueue span.
    /// Transient send failures (queue chaos) retry through the client
    /// policy; a stop mid-retry surfaces as a non-retryable error.
    fn send(&self, task: &TaskSpec, rng: &mut Pcg32) -> Result<()> {
        let body = task.to_message()?;
        let sent_at = live_sink(self.ctx).map(|_| self.clock.now_s());
        client_send_policy().run_blocking(rng, |_| {
            if self.stop.load(Ordering::Acquire) {
                return Err(PpcError::InvalidState("job stopped".into()));
            }
            self.sched.send(body.clone())
        })?;
        if let (Some(s), Some(at)) = (live_sink(self.ctx), sent_at) {
            s.span(Span::new(
                task.id.0,
                0,
                NO_WORKER,
                Phase::Enqueue,
                at,
                self.clock.now_s(),
            ));
        }
        Ok(())
    }

    /// The elastic client thread: sends each task at its arrival offset
    /// (every task at once when `arrivals` is empty) until the job stops.
    /// A task whose send fails is skipped.
    fn send_arrivals(&self, arrivals: &[f64], start: Instant) {
        let mut rng = Pcg32::for_stream(self.seed, CLIENT_STREAM);
        let mut order: Vec<usize> = (0..self.job.tasks.len()).collect();
        // The offsets were checked finite up front, so they compare.
        if !arrivals.is_empty() {
            order.sort_by(|&a, &b| arrivals[a].partial_cmp(&arrivals[b]).unwrap());
        }
        for i in order {
            let at = Duration::from_secs_f64(arrivals.get(i).copied().unwrap_or(0.0));
            while start.elapsed() < at {
                if self.stop.load(Ordering::Acquire) {
                    return;
                }
                let left = at.saturating_sub(start.elapsed());
                std::thread::sleep(left.min(Duration::from_millis(2)));
            }
            let _ = self.send(&self.job.tasks[i], &mut rng);
            if self.stop.load(Ordering::Acquire) {
                return;
            }
        }
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

    /// One worker's life: poll until the job stops or, on an elastic
    /// fleet, until its drain flag is raised. One poll holds at most one
    /// lease, so stopping between polls never abandons a leased message.
    fn work(&self, worker: u32, fleet_id: usize, drain: Option<&AtomicBool>) {
        let mut chaos = ChaosCursor::default();
        while !self.stop.load(Ordering::Acquire)
            && !drain.is_some_and(|d| d.load(Ordering::Acquire))
        {
            self.poll_once(worker, fleet_id, &mut chaos);
        }
    }

    /// The monitor, on the calling thread: drains the monitoring queue and
    /// flips `stop` (closing `sched`) once every task is resolved (done or
    /// failed). When a resilience policy with hedging or deadlines is set, the
    /// monitor also plays job manager: it tracks `start:` progress reports and
    /// re-dispatches straggling tasks through `sched` (see [`MonitorDefense`]).
    fn monitor_loop(&self) {
        let Run {
            monitor,
            sched,
            ctx,
            config,
            job,
            clock,
            ..
        } = self;
        let n_tasks = job.tasks.len();
        let mut done: HashSet<u64> = HashSet::with_capacity(n_tasks);
        let mut failed: HashSet<u64> = HashSet::new();
        let mut defense = MonitorDefense::new(ctx.resilience, job);
        let sink = live_sink(ctx);
        while !self.stop.load(Ordering::Acquire) {
            match monitor.receive_wait(config.long_poll_wait) {
                Ok(Some(msg)) => {
                    if let Some(id) = msg.body.strip_prefix("done:") {
                        if let Ok(id) = id.parse::<u64>() {
                            done.insert(id);
                            failed.remove(&id); // a late success still counts
                            if let Some(d) = &mut defense {
                                d.on_done(id, clock.now_s());
                            }
                        }
                    } else if let Some(id) = msg.body.strip_prefix("fail:") {
                        if let Ok(id) = id.parse::<u64>() {
                            if !done.contains(&id) {
                                failed.insert(id);
                            }
                        }
                    } else if let Some(id) = msg.body.strip_prefix("start:") {
                        if let (Ok(id), Some(d)) = (id.parse::<u64>(), &mut defense) {
                            if !done.contains(&id) {
                                d.on_start(id, clock.now_s());
                            }
                        }
                    }
                    let _ = monitor.delete(msg.receipt);
                    if let Some(probe) = &config.progress {
                        probe.store(done.len() + failed.len(), Ordering::Relaxed);
                    }
                    if done.len() + failed.len() >= n_tasks {
                        *self.finished_at.lock().unwrap() = Some(Instant::now());
                        #[allow(clippy::disallowed_methods)] // sorted before use
                        let mut f: Vec<TaskId> = failed.iter().map(|&i| TaskId(i)).collect();
                        f.sort();
                        *self.failed.lock().unwrap() = f;
                        self.stop.store(true, Ordering::Release);
                        // Wake workers parked in a long poll so the scope
                        // joins now, not when their wait windows run out.
                        sched.close();
                    }
                }
                // Guard against a zero-length long-poll window turning
                // this loop into a busy spin (and a billing storm).
                Ok(None) => {
                    if config.long_poll_wait.is_zero() {
                        std::thread::sleep(POLL_BACKOFF);
                    }
                }
                Err(_) => std::thread::sleep(POLL_BACKOFF),
            }
            if let Some(d) = &mut defense {
                d.sweep(sched, sink, &done, clock.now_s());
            }
        }
    }

    /// One iteration of `worker`: receive → download → execute → upload →
    /// report → delete. A `return` leaves any in-flight message to the
    /// visibility timeout. The run's fault schedule hits the worker at the
    /// pipeline's three points through its `chaos` cursor, by timed kill
    /// or by the point's own death die; dice are pure hashes of `(seed,
    /// point, worker, roll index)`, whatever the thread interleaving.
    fn poll_once(&self, worker: u32, fleet_id: usize, chaos: &mut ChaosCursor) {
        let Run {
            sched,
            monitor,
            dlq,
            storage,
            job,
            ctx,
            config,
            executor,
            clock,
            breaker,
            ..
        } = self;
        let health = self.health.as_ref();
        let restart_delay = Duration::from_millis(config.restart_delay_ms);
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
        // An injected death: the worker restarts after a delay and its
        // message, still in flight, reappears after the visibility timeout.
        let die = || {
            self.worker_deaths.fetch_add(1, Ordering::Relaxed);
            self.event(worker, EventKind::Death);
            score(None, self.clock.now_s());
            std::thread::sleep(restart_delay);
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
        // Long polling (SQS WaitTimeSeconds): one billable request per wait
        // window instead of a busy-poll storm.
        let msg = match sched.receive_wait(config.long_poll_wait) {
            Ok(Some(m)) => m,
            Ok(None) => {
                if config.long_poll_wait.is_zero() {
                    std::thread::sleep(POLL_BACKOFF);
                }
                return;
            }
            Err(_) => {
                std::thread::sleep(POLL_BACKOFF);
                return;
            }
        };

        let spec = match TaskSpec::from_message(&msg.body) {
            Ok(s) => s,
            Err(_) => {
                // Poison message: park it in the DLQ, report, and drop it.
                let _ = dlq.send(msg.body.clone());
                let _ = monitor.send("fail:poison".to_string());
                let _ = sched.delete(msg.receipt);
                return;
            }
        };
        let seq = chaos.next_seq();
        let attempt_began_s = clock.now_s();

        // Attempt number = redelivery ordinal, so chaos re-executions show up
        // in the trace as distinct attempts of the same task. The structural
        // Attempt span is flushed when `tt` drops, whichever exit is taken.
        let mut tt = sink.map(|s| {
            let mut tt = AttemptMarker::new(
                s,
                spec.id.0,
                msg.receive_count.saturating_sub(1),
                worker,
                polled_at.unwrap_or(0.0),
            );
            tt.mark(Phase::Dequeue, clock.now_s());
            tt
        });

        // Dead-letter policy: give up on tasks that keep failing and park the
        // original message in the DLQ for offline inspection or redrive.
        if msg.receive_count > job.max_deliveries {
            let _ = dlq.send(msg.body.clone());
            let _ = monitor.send(format!("fail:{}", spec.id.0));
            let _ = sched.delete(msg.receipt);
            return;
        }

        // Progress report for the monitor's straggler defense: lets it hedge
        // or deadline-cancel this attempt if it never reports done.
        if ctx
            .resilience
            .is_some_and(|p| p.hedge.is_some() || p.deadline.is_some())
        {
            let _ = monitor.send(format!("start:{}", spec.id.0));
        }

        // Injected death between receive and execute — a timed kill from the
        // schedule or an i.i.d. roll. The message stays in flight and
        // reappears after the visibility timeout.
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
            std::thread::sleep(POLL_BACKOFF);
            return; // lease reappears after the timeout
        }
        let input = match storage.get_with_retry(
            &job.input_bucket,
            &spec.input_key,
            INPUT_FETCH_ATTEMPTS,
        ) {
            Ok(d) => {
                breaker.record_success();
                if let Some(tt) = tt.as_mut() {
                    tt.mark(Phase::Download, clock.now_s());
                }
                d
            }
            Err(e) if e.is_retryable() => {
                breaker.record_failure(clock.now_s());
                return; // let it reappear
            }
            Err(_) => {
                // Input genuinely missing: the task can never run.
                let _ = monitor.send(format!("fail:{}", spec.id.0));
                let _ = sched.delete(msg.receipt);
                return;
            }
        };

        self.total_executions.fetch_add(1, Ordering::Relaxed);
        let exec_started = Instant::now();
        let output = match executor.run(&spec, &input) {
            Ok(o) => o,
            Err(_) => {
                // Leave the message; redelivery retries until the dead-letter
                // policy gives up.
                if let Some(tt) = tt.as_mut() {
                    tt.mark(Phase::Execute, clock.now_s());
                }
                score(None, clock.now_s());
                return;
            }
        };
        // Gray failure: a degraded (not dead) worker runs slower by the
        // schedule's factor — it still completes, it just holds tasks longer.
        let factor = schedule.map_or(1.0, |s| s.slowdown(worker, clock.now_s()));
        if factor > 1.0 {
            std::thread::sleep(exec_started.elapsed().mul_f64(factor - 1.0));
        }
        if let Some(tt) = tt.as_mut() {
            tt.mark(Phase::Execute, clock.now_s());
        }

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
            return;
        }

        self.remote_bytes
            .fetch_add(input.len() as u64 + output.len() as u64, Ordering::Relaxed);
        if storage
            .put(&job.output_bucket, &spec.output_key, output)
            .is_err()
        {
            return; // redelivery will retry the whole task
        }
        if let Some(tt) = tt.as_mut() {
            tt.mark(Phase::Upload, clock.now_s());
        }

        // Injected death between upload and delete: the duplicate re-execution
        // must overwrite with identical output.
        if schedule.is_some_and(|s| s.die_before_delete(worker, seq)) {
            die();
            return;
        }

        let _ = monitor.send(format!("done:{}", spec.id.0));
        self.per_fleet.lock().unwrap()[fleet_id] += 1;
        // A stale receipt here means someone else finished the task first —
        // harmless by idempotence.
        let _ = sched.delete(msg.receipt);
        let done_s = clock.now_s();
        score(Some(done_s - attempt_began_s), done_s);
        if let Some(tt) = tt.as_mut() {
            tt.mark(Phase::Ack, done_s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppc_chaos::FaultSchedule;
    use ppc_compute::cluster::Cluster;
    use ppc_compute::instance::EC2_HCXL;
    use ppc_core::exec::FnExecutor;
    use ppc_core::task::ResourceProfile;
    use ppc_exec::RunContext;
    use ppc_trace::Recorder;

    #[test]
    fn sweep_resends_overdue_tasks_oldest_first() {
        // Ten tasks started in a scrambled order, all past a 1-s deadline:
        // the sweep must re-send them oldest attempt first, ties by id.
        let (_, _, job) = setup(10);
        let policy = ResiliencePolicy::default().with_deadline(1.0);
        let mut defense = MonitorDefense::new(Some(policy), &job).unwrap();
        let starts = [(7, 0.3), (2, 0.9), (9, 0.1), (4, 0.5), (0, 0.7)];
        let ties = [(8, 0.2), (1, 0.2), (6, 0.6), (3, 0.4), (5, 0.8)];
        for &(id, at) in starts.iter().chain(&ties) {
            defense.on_start(id, at);
        }
        let queue = ppc_queue::Queue::new("sweep", QueueConfig::default());
        defense.sweep(&queue, None, &HashSet::new(), 10.0);
        let mut sent = Vec::new();
        while let Some(m) = queue.receive().unwrap() {
            sent.push((m.id.0, TaskSpec::from_message(&m.body).unwrap().id.0));
        }
        sent.sort_unstable();
        let order: Vec<u64> = sent.into_iter().map(|(_, task)| task).collect();
        assert_eq!(order, [9, 1, 8, 7, 3, 4, 6, 0, 5, 2]);
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
        assert_eq!(
            report.cost,
            Some(crate::report::fleets_cost(
                &fleets,
                report.summary.makespan_seconds
            ))
        );
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
