//! The simulated Classic Cloud runtime (discrete-event, virtual time).
//!
//! Models the identical pipeline to [`crate::runtime`] — receive → download
//! → execute → upload → report → delete — but on the `ppc-des` engine, so a
//! 128-instance fleet processing hours of work runs in milliseconds of real
//! time. Task execution times come from the calibrated
//! `ppc_compute::model::task_service_seconds` service-time model; transfer
//! times from `ppc_storage::latency::LatencyModel`.
//!
//! The dynamic global queue is inherent here: every worker pulls its next
//! task from the shared pool the moment it frees up, which is precisely the
//! "natural load balancing" property the paper credits this architecture
//! with sharing with Hadoop (§4.2).

use crate::report::ClassicReport;
use ppc_autoscale::{AutoscaleConfig, Controller, Decision, SlotState, Telemetry};
use ppc_chaos::FaultSchedule;
use ppc_compute::cluster::Cluster;
use ppc_compute::model::{task_service_seconds, AppModel};
use ppc_core::metrics::RunSummary;
use ppc_core::rng::{Pcg32, CLIENT_STREAM};
use ppc_core::task::TaskSpec;
use ppc_core::{PpcError, Result};
use ppc_des::{Engine, EventId, SimTime};
use ppc_exec::{RunContext, RunReport};
use ppc_resilience::{Health, HealthTracker, HedgePolicy, ResiliencePolicy};
use ppc_storage::latency::LatencyModel;
use ppc_storage::metering::MeteringSnapshot;
use ppc_trace::{EventKind, Phase, Recorder, RunMeta, Span, TraceEvent, TraceSink, NO_WORKER};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::rc::Rc;
use std::sync::Arc;

/// Configuration of the simulated platform.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Latency/bandwidth of the object-store data path.
    pub storage_latency: LatencyModel,
    /// Latency of queue API calls.
    pub queue_latency: LatencyModel,
    /// Application service-time knobs (Windows factor, disk model).
    pub app: AppModel,
    /// Random seed (task arrival order, jitter, failures).
    pub seed: u64,
    /// P(a task execution is lost before its delete — worker death).
    pub failure_rate: f64,
    /// Visibility timeout: how long a lost task takes to reappear, seconds.
    pub visibility_timeout_s: f64,
    /// Log-normal sigma applied to execution times (run-to-run variation;
    /// the paper measured ~1.5–2.3% CV on the clouds).
    pub jitter_sigma: f64,
    /// Record a per-task span [`ppc_trace::Trace`] in the report (costs
    /// memory proportional to span count; the legacy per-worker
    /// [`ppc_core::trace::Timeline`] is derived from it).
    pub trace: bool,
    /// Model a shared per-instance NIC: concurrent storage transfers on one
    /// node serialize through a link of this bandwidth (bytes/s). `None`
    /// (default) gives every worker the full per-connection storage path —
    /// the regime where paper-scale tasks live; enable it to study
    /// IO-heavy workloads (the `ablate_nic_contention` bench).
    pub nic_bandwidth_bytes_per_s: Option<f64>,
    /// Straggler and gray-failure defense (hedged duplicate messages,
    /// health-scored worker quarantine, per-task deadlines) — the DES twin
    /// of [`crate::runtime::ClassicConfig::resilience`]. `None` (default)
    /// keeps legacy behavior bit-identical. Hedging and deadlines are not
    /// modeled on the NIC-contention path.
    pub resilience: Option<ResiliencePolicy>,
}

impl SimConfig {
    /// EC2-flavored defaults: 2010 S3/SQS latencies, no failures.
    pub fn ec2() -> SimConfig {
        SimConfig {
            storage_latency: LatencyModel::cloud_storage_2010(),
            queue_latency: LatencyModel::cloud_queue_2010(),
            app: AppModel::DEFAULT,
            seed: 42,
            failure_rate: 0.0,
            visibility_timeout_s: 600.0,
            jitter_sigma: 0.02,
            trace: false,
            nic_bandwidth_bytes_per_s: None,
            resilience: None,
        }
    }

    /// Azure-flavored defaults (same service latencies; Azure's edge in the
    /// paper comes from instance types and the Windows factor, not queues).
    pub fn azure() -> SimConfig {
        SimConfig::ec2()
    }

    pub fn with_app(mut self, app: AppModel) -> SimConfig {
        self.app = app;
        self
    }

    pub fn with_seed(mut self, seed: u64) -> SimConfig {
        self.seed = seed;
        self
    }

    pub fn with_failures(mut self, rate: f64, visibility_timeout_s: f64) -> SimConfig {
        self.failure_rate = rate;
        self.visibility_timeout_s = visibility_timeout_s;
        self
    }

    /// Reject malformed simulation dials with a descriptive error; every
    /// `simulate*` entry point checks this up front.
    pub fn validate(&self) -> Result<()> {
        if !(0.0..=1.0).contains(&self.failure_rate) {
            return Err(PpcError::InvalidArgument(format!(
                "sim config: failure_rate = {} is not a probability in [0, 1]",
                self.failure_rate
            )));
        }
        if !self.jitter_sigma.is_finite() || self.jitter_sigma < 0.0 {
            return Err(PpcError::InvalidArgument(format!(
                "sim config: jitter_sigma = {} must be finite and >= 0",
                self.jitter_sigma
            )));
        }
        if self.failure_rate > 0.0
            && (!self.visibility_timeout_s.is_finite() || self.visibility_timeout_s <= 0.0)
        {
            return Err(PpcError::InvalidArgument(format!(
                "sim config: visibility_timeout_s = {} must be positive when failures are on",
                self.visibility_timeout_s
            )));
        }
        if let Some(policy) = &self.resilience {
            policy.validate()?;
        }
        Ok(())
    }
}

/// Panic with the validation message when a simulation entry point is
/// handed malformed dials — simulators return reports, not `Result`s, so
/// a bad configuration fails loudly rather than silently skewing results.
fn check_sim_inputs(cfg: &SimConfig, schedule: Option<&Arc<FaultSchedule>>) {
    if let Err(e) = cfg.validate() {
        panic!("{e}");
    }
    if let Some(schedule) = schedule {
        if let Err(e) = schedule.validate() {
            panic!("{e}");
        }
    }
}

/// Distribute one attempt's phase spans over `[start_s, end_s]` from the
/// pipeline's modeled durations. The dequeue round-trip opens the attempt
/// and the monitor-send + delete round-trips close it; a failed attempt
/// lumps everything after the download into `execute` (the worker died
/// somewhere in there) and records no terminal ack.
#[allow(clippy::too_many_arguments)]
fn record_attempt(
    rec: &Recorder,
    worker: u32,
    task: u64,
    attempt: u32,
    start_s: f64,
    end_s: f64,
    t_in: f64,
    t_exec: f64,
    t_out: f64,
    t_ctrl: f64,
    ok: bool,
) {
    let c = t_ctrl / 3.0;
    let mut at = start_s;
    let mut push = |phase, dur: f64| {
        rec.span(Span::new(task, attempt, worker, phase, at, at + dur));
        at += dur;
    };
    push(Phase::Dequeue, c);
    push(Phase::Download, t_in);
    if ok {
        push(Phase::Execute, t_exec);
        // Anchor the tail on end_s so NIC queueing delay (if any) lands in
        // the attempt gap between execute and upload.
        let up = end_s - 2.0 * c - t_out;
        rec.span(Span::new(
            task,
            attempt,
            worker,
            Phase::Upload,
            up,
            up + t_out,
        ));
        rec.span(Span::new(
            task,
            attempt,
            worker,
            Phase::Ack,
            up + t_out,
            end_s,
        ));
    } else {
        rec.span(Span::new(task, attempt, worker, Phase::Execute, at, end_s));
    }
    rec.span(Span::new(
        task,
        attempt,
        worker,
        Phase::Attempt,
        start_s,
        end_s,
    ));
}

/// Score a failed attempt into the health tracker (if any), emitting a
/// `Quarantine` event on the Healthy→Quarantined edge. No-op on legacy runs.
fn sim_note_failure(
    health: &mut Option<HealthTracker>,
    rec: &Option<Recorder>,
    worker: u32,
    now_s: f64,
) {
    if let Some(tracker) = health {
        let benched_before = matches!(tracker.health(worker), Health::Quarantined { .. });
        tracker.record_failure(worker, now_s);
        if !benched_before && matches!(tracker.health(worker), Health::Quarantined { .. }) {
            if let Some(rec) = rec {
                rec.event(TraceEvent {
                    at_s: now_s,
                    worker,
                    kind: EventKind::Quarantine,
                });
            }
        }
    }
}

/// Score a successful attempt's latency into the health tracker (if any) —
/// a gray-slow worker can be benched off a success, so this too can emit
/// the `Quarantine` event. No-op on legacy runs.
fn sim_note_success(
    health: &mut Option<HealthTracker>,
    rec: &Option<Recorder>,
    worker: u32,
    latency_s: f64,
    now_s: f64,
) {
    if let Some(tracker) = health {
        let benched_before = matches!(tracker.health(worker), Health::Quarantined { .. });
        tracker.record_success(worker, latency_s, now_s);
        if !benched_before && matches!(tracker.health(worker), Health::Quarantined { .. }) {
            if let Some(rec) = rec {
                rec.event(TraceEvent {
                    at_s: now_s,
                    worker,
                    kind: EventKind::Quarantine,
                });
            }
        }
    }
}

struct SimState {
    rec: Option<Recorder>,
    /// Next attempt index per task id (allocated at message pull).
    attempts: HashMap<u64, u32>,
    pending: VecDeque<TaskSpec>,
    idle_workers: Vec<WorkerRef>,
    completed: usize,
    executions: usize,
    deaths: usize,
    queue_requests: u64,
    storage_requests: u64,
    remote_bytes: u64,
    bytes_in: u64,
    bytes_out: u64,
    /// One independent RNG stream per worker slot (jitter, failure dice),
    /// all derived from the run seed — see [`ppc_core::rng::stream_seed`].
    rngs: Vec<Pcg32>,
    /// Optional event-based chaos shared with the other engines.
    schedule: Option<Arc<FaultSchedule>>,
    /// Per-worker count of tasks pulled so far (the chaos roll index).
    task_seqs: Vec<u32>,
    /// Per-worker virtual time of the last timed-kill check.
    last_kill: Vec<f64>,
    /// Hedging state when the run carries a [`ResiliencePolicy`] with a
    /// hedge config; `None` keeps the legacy path untouched.
    hedge: Option<HedgePolicy>,
    /// Worker quarantine state machine, when the policy asks for one.
    health: Option<HealthTracker>,
    /// Tasks whose first result already committed (first result wins;
    /// duplicate messages are deleted at pull). Empty on legacy runs.
    done: HashSet<u64>,
    /// Tasks that already received their one hedged duplicate.
    hedged: HashSet<u64>,
    /// Armed hedge-check timers per task, cancelled O(1) the moment the
    /// task's first result commits — dead timers stop stretching the
    /// engine's tail (and its event count) for free. Stale handles of
    /// timers that already fired are harmless: `Engine::cancel` is a no-op
    /// on them.
    hedge_timers: HashMap<u64, Vec<EventId>>,
    /// Live attempt count per task (primary + hedge), defended runs only.
    running: HashMap<u64, u32>,
    /// Job size, for the hedge budget.
    n_tasks: usize,
    /// When the last unique task committed. On defended runs this is the
    /// makespan — hedged losers may still be draining after it.
    finished_at_s: f64,
}

#[derive(Clone)]
struct WorkerRef {
    /// Flat index of this worker in the fleet (timeline row).
    index: usize,
    /// Configured workers on this worker's node (drives contention).
    itype_workers: usize,
    /// The node's shared NIC, when NIC contention is modeled.
    nic: Option<ppc_des::FifoServer>,
}

/// Simulate a Classic Cloud run of `tasks` on `cluster`.
#[deprecated(note = "build a `ppc_exec::RunContext` and call `ppc_classic::simulate`")]
pub fn simulate(cluster: &Cluster, tasks: &[TaskSpec], cfg: &SimConfig) -> ClassicReport {
    crate::harness::simulate(&RunContext::new(cluster), tasks, cfg)
}

/// [`simulate`] under an event-based [`FaultSchedule`].
#[deprecated(
    note = "build a `ppc_exec::RunContext` with `.with_schedule(…)` and call `ppc_classic::simulate`"
)]
pub fn simulate_chaos(
    cluster: &Cluster,
    tasks: &[TaskSpec],
    cfg: &SimConfig,
    schedule: Arc<FaultSchedule>,
) -> ClassicReport {
    crate::harness::simulate(
        &RunContext::new(cluster).with_schedule(schedule),
        tasks,
        cfg,
    )
}

/// Simulate a *hybrid* Classic Cloud run: several fleets, one queue.
#[deprecated(
    note = "build a `ppc_exec::RunContext` with `RunContext::on_fleets(…)` and call `ppc_classic::simulate`"
)]
pub fn simulate_fleets(fleets: &[Cluster], tasks: &[TaskSpec], cfg: &SimConfig) -> ClassicReport {
    crate::harness::simulate(&RunContext::on_fleets(fleets.to_vec()), tasks, cfg)
}

/// [`simulate_fleets`] under an optional event-based [`FaultSchedule`].
#[deprecated(
    note = "build a `ppc_exec::RunContext` with `RunContext::on_fleets(…).with_schedule(…)` and call `ppc_classic::simulate`"
)]
pub fn simulate_fleets_chaos(
    fleets: &[Cluster],
    tasks: &[TaskSpec],
    cfg: &SimConfig,
    schedule: Option<Arc<FaultSchedule>>,
) -> ClassicReport {
    crate::harness::simulate(
        &RunContext::on_fleets(fleets.to_vec()).with_schedule(schedule),
        tasks,
        cfg,
    )
}

/// The fixed-fleet simulation body: every worker slot of every fleet polls
/// the shared scheduling queue in virtual time — the simulated twin of
/// [`crate::runtime::run_on_fleets_impl`] for paper-scale what-if studies
/// ("how much does adding my local cluster to the cloud fleet help?").
/// Reached through [`crate::simulate`], which resolves the [`RunContext`].
pub(crate) fn sim_fleets_impl(
    fleets: &[Cluster],
    tasks: &[TaskSpec],
    cfg: &SimConfig,
    schedule: Option<Arc<FaultSchedule>>,
) -> ClassicReport {
    assert!(!tasks.is_empty(), "no tasks to simulate");
    assert!(!fleets.is_empty(), "no fleets to simulate");
    check_sim_inputs(cfg, schedule.as_ref());
    let total_workers: usize = fleets.iter().map(Cluster::total_workers).sum();
    // The client's shuffle and the workers' jitter/failure dice draw from
    // independent streams of the one run seed.
    let mut client_rng = Pcg32::for_stream(cfg.seed, CLIENT_STREAM);
    let mut order: Vec<TaskSpec> = tasks.to_vec();
    // The queue has no ordering guarantee; workers see a shuffled stream.
    client_rng.shuffle(&mut order);

    let state = Rc::new(RefCell::new(SimState {
        rec: cfg.trace.then(Recorder::new),
        attempts: HashMap::new(),
        pending: order.into(),
        idle_workers: Vec::new(),
        completed: 0,
        executions: 0,
        deaths: 0,
        queue_requests: tasks.len() as u64, // the client's sends
        storage_requests: 0,
        remote_bytes: 0,
        bytes_in: 0,
        bytes_out: 0,
        rngs: (0..total_workers)
            .map(|w| Pcg32::for_stream(cfg.seed, w as u64))
            .collect(),
        schedule,
        task_seqs: vec![0; total_workers],
        last_kill: vec![0.0; total_workers],
        hedge: cfg.resilience.and_then(|p| p.hedge).map(HedgePolicy::new),
        health: cfg
            .resilience
            .and_then(|p| p.quarantine)
            .map(HealthTracker::new),
        done: HashSet::new(),
        hedged: HashSet::new(),
        hedge_timers: HashMap::new(),
        running: HashMap::new(),
        n_tasks: tasks.len(),
        finished_at_s: 0.0,
    }));

    if let Some(rec) = &state.borrow().rec {
        // The client pushes every message up front at t = 0.
        for t in tasks {
            rec.span(Span::new(t.id.0, 0, NO_WORKER, Phase::Enqueue, 0.0, 0.0));
        }
    }

    let mut engine = Engine::new();
    let cfg = *cfg;

    let mut worker_index = 0;
    for (fleet_idx, cluster) in fleets.iter().enumerate() {
        let itype = cluster.itype();
        for node in cluster.nodes() {
            // One shared uplink per instance (serializes that node's
            // concurrent storage transfers) when NIC modeling is on.
            let nic = cfg
                .nic_bandwidth_bytes_per_s
                .map(|_| ppc_des::FifoServer::new(format!("nic-f{fleet_idx}-n{}", node.id), 1));
            for _slot in 0..node.workers {
                let state = state.clone();
                let worker = WorkerRef {
                    index: worker_index,
                    itype_workers: node.workers,
                    nic: nic.clone(),
                };
                worker_index += 1;
                engine.schedule_at(SimTime::ZERO, move |e| {
                    worker_tick(e, state, worker, itype, cfg);
                });
            }
        }
    }
    let itype = fleets[0].itype();

    let end = engine.run();
    let st = state.borrow();
    // On defended runs the job is over when the last unique result commits;
    // hedged losers draining afterwards stretch the engine, not the job.
    let makespan = if cfg.resilience.is_some() && st.finished_at_s > 0.0 {
        st.finished_at_s
    } else {
        end.as_secs_f64()
    };

    let platform = format!("classic-sim-{}", itype.name);
    let trace = st.rec.as_ref().and_then(|rec| {
        rec.set_meta(RunMeta {
            platform: platform.clone(),
            cores: total_workers,
            tasks: st.completed,
            makespan_seconds: makespan,
        });
        rec.span(Span::job(makespan));
        rec.snapshot()
    });

    ClassicReport {
        core: RunReport {
            summary: RunSummary {
                platform,
                cores: total_workers,
                tasks: st.completed,
                makespan_seconds: makespan,
                redundant_executions: st.executions - st.completed,
                remote_bytes: st.remote_bytes,
            },
            failed: Vec::new(),
            total_attempts: st.executions,
            worker_deaths: st.deaths,
            cost: Some(crate::report::fleets_cost(fleets, makespan)),
            trace: trace.clone(),
        },
        queue_requests: st.queue_requests,
        executions_per_fleet: Vec::new(),
        timeline: trace.as_ref().map(ppc_trace::Trace::to_timeline),
        fleet: None,
        storage: MeteringSnapshot {
            requests: st.storage_requests,
            bytes_in: st.bytes_in,
            bytes_out: st.bytes_out,
            stored_bytes: st.bytes_in,
            peak_stored_bytes: st.bytes_in,
        },
    }
}

/// `at_s`, unless it rounds onto or before `now`, in which case the next
/// microsecond tick. `SimTime` quantizes to whole microseconds, so a wake
/// or re-check aimed within half a tick of `now` would land back on this
/// same instant, where the f64 guard that sent it (`now_s >= until_s`,
/// `age >= delay`) is still false: the event would re-fire forever
/// without advancing the clock.
fn strictly_after_now(now: SimTime, at_s: f64) -> f64 {
    if SimTime::from_secs_f64(at_s) <= now {
        SimTime(now.as_micros() + 1).as_secs_f64()
    } else {
        at_s
    }
}

fn worker_tick(
    engine: &mut Engine,
    state: Rc<RefCell<SimState>>,
    worker: WorkerRef,
    itype: ppc_compute::instance::InstanceType,
    cfg: SimConfig,
) {
    // Quarantine gate: a benched worker pulls nothing until its sentence
    // expires, then re-enters through probation.
    let benched_until = {
        let mut st = state.borrow_mut();
        let now = engine.now().as_secs_f64();
        let SimState { health, rec, .. } = &mut *st;
        health.as_mut().and_then(|tracker| {
            let w = worker.index as u32;
            let benched_before = matches!(tracker.health(w), Health::Quarantined { .. });
            if tracker.allow(w, now) {
                if benched_before {
                    if let Some(rec) = rec {
                        rec.event(TraceEvent {
                            at_s: now,
                            worker: w,
                            kind: EventKind::Release,
                        });
                    }
                }
                None
            } else {
                match tracker.health(w) {
                    Health::Quarantined { until_s } => Some(until_s),
                    _ => None,
                }
            }
        })
    };
    if let Some(until_s) = benched_until {
        let st = state.clone();
        let w = worker.clone();
        let wake = strictly_after_now(engine.now(), until_s);
        engine.schedule_at(SimTime::from_secs_f64(wake), move |e| {
            worker_tick(e, st, w, itype, cfg);
        });
        return;
    }

    // Pull the next task from the (simulated) scheduling queue. First
    // result wins on defended runs: a duplicate of a task whose result
    // already committed is simply deleted.
    let task = {
        let mut st = state.borrow_mut();
        st.queue_requests += 1; // the receive call
        loop {
            match st.pending.pop_front() {
                Some(t) if st.done.contains(&t.id.0) => {
                    st.queue_requests += 1; // the stale duplicate's delete
                }
                Some(t) => break t,
                None => {
                    // Nothing visible: park; a redelivery event will wake us.
                    st.idle_workers.push(worker);
                    return;
                }
            }
        }
    };

    // Model the full pipeline duration for this task.
    let now_s = engine.now().as_secs_f64();
    let (t_in, t_exec, t_out, t_ctrl, fails) = {
        let mut st = state.borrow_mut();
        st.executions += 1;
        st.storage_requests += 2;
        st.bytes_in += task.profile.output_bytes;
        st.bytes_out += task.profile.input_bytes;
        st.remote_bytes += task.profile.input_bytes + task.profile.output_bytes;

        let mut t_in = cfg
            .storage_latency
            .transfer_seconds(task.profile.input_bytes);
        let t_out = cfg
            .storage_latency
            .transfer_seconds(task.profile.output_bytes);
        let t_exec_base =
            task_service_seconds(&itype, worker.itype_workers, &task.profile, &cfg.app);
        let jitter = if cfg.jitter_sigma > 0.0 {
            st.rngs[worker.index].log_normal(0.0, cfg.jitter_sigma)
        } else {
            1.0
        };
        let mut t_exec = t_exec_base * jitter;
        // receive + monitor-send + delete round trips.
        let t_ctrl = 3.0 * cfg.queue_latency.request_seconds();
        st.queue_requests += 2; // monitor send + delete
        let mut fails = cfg.failure_rate > 0.0 && st.rngs[worker.index].chance(cfg.failure_rate);
        if let Some(schedule) = st.schedule.clone() {
            let w = worker.index as u32;
            let seq = st.task_seqs[worker.index];
            st.task_seqs[worker.index] += 1;
            // Gray failure: a degraded worker computes slower.
            t_exec *= schedule.slowdown(w, now_s);
            // Storage outage: the fetch's retries ride the window out, so
            // the download stalls until the outage closes.
            if let Some(until) = schedule.storage_outage_until(now_s) {
                t_in += until - now_s;
            }
            // Deaths: a pipeline-point die roll, a torn upload, or a timed
            // kill landing inside this task's service window all cost this
            // execution — the message reappears after the visibility
            // timeout, matching the native engine's recovery story.
            let window_end = now_s + t_in + t_exec + t_out + t_ctrl;
            let killed = schedule.kills_in(w, st.last_kill[worker.index], window_end);
            st.last_kill[worker.index] = window_end;
            fails = fails
                || killed
                || schedule.die_before_execute(w, seq)
                || schedule.die_mid_execute(w, seq)
                || schedule.die_before_delete(w, seq)
                || schedule.is_torn_upload(w, seq);
        }
        (t_in, t_exec, t_out, t_ctrl, fails)
    };
    let mut duration_s = t_in + t_exec + t_out + t_ctrl;
    // Per-task deadline: an attempt that would outlive the timeout is cut
    // there and the message re-sent immediately (cancel-and-requeue).
    let deadline = cfg.resilience.and_then(|p| p.deadline);
    let cancelled = match deadline {
        Some(d) if duration_s > d.timeout_s => {
            duration_s = d.timeout_s;
            true
        }
        _ => false,
    };
    // Claim the attempt index at pull time: pulls are ordered in virtual
    // time, so redeliveries get strictly increasing attempt numbers.
    let attempt = if cfg.trace {
        let mut st = state.borrow_mut();
        let a = st.attempts.entry(task.id.0).or_insert(0);
        let n = *a;
        *a += 1;
        n
    } else {
        0
    };
    let parts = if cancelled {
        (t_in.min(duration_s), 0.0, 0.0, 0.0)
    } else {
        (t_in, t_exec, t_out, t_ctrl)
    };
    if cfg.resilience.is_some() {
        let mut st = state.borrow_mut();
        *st.running.entry(task.id.0).or_insert(0) += 1;
    }

    // NIC contention: route the two transfers through the node's shared
    // uplink — concurrent transfers on one instance serialize.
    if let (Some(nic), Some(bw)) = (worker.nic.clone(), cfg.nic_bandwidth_bytes_per_s) {
        let started_at = engine.now().as_secs_f64();
        let task_id = task.id.0;
        let t_nic_in = SimTime::from_secs_f64(task.profile.input_bytes as f64 / bw);
        let t_nic_out = SimTime::from_secs_f64(task.profile.output_bytes as f64 / bw);
        let st2 = state.clone();
        let nic2 = nic.clone();
        let worker2 = worker.clone();
        // Download (storage latency + NIC occupancy) -> compute -> upload
        // (NIC occupancy) -> control -> complete.
        nic.submit(engine, t_nic_in, move |e| {
            let st3 = st2.clone();
            let worker3 = worker2.clone();
            e.schedule_in(SimTime::from_secs_f64(t_in + t_exec), move |e| {
                let st4 = st3.clone();
                let worker4 = worker3.clone();
                nic2.submit(e, t_nic_out, move |e| {
                    e.schedule_in(SimTime::from_secs_f64(t_out + t_ctrl), move |e| {
                        handle_completion(
                            e, st4, worker4, itype, cfg, task, fails, started_at, task_id, attempt,
                            parts,
                        );
                    });
                });
            });
        });
        return;
    }

    // Hedge check: arm a timer one hedge delay past this pull; if the task
    // is still live when it fires, a duplicate message is enqueued.
    if !cancelled && cfg.resilience.is_some_and(|p| p.hedge.is_some()) {
        let delay = state
            .borrow()
            .hedge
            .as_ref()
            .map(|h| h.hedge_delay())
            .unwrap_or(0.0);
        hedge_check_at(
            engine,
            state.clone(),
            task.clone(),
            now_s,
            now_s + delay,
            itype,
            cfg,
        );
    }

    if cancelled {
        // Deadline breach: the worker gives up at the timeout, re-sends the
        // message (no visibility-timeout wait), and polls again.
        let st2 = state.clone();
        let task_id = task.id.0;
        engine.schedule_in(SimTime::from_secs_f64(duration_s), move |e| {
            let now = e.now().as_secs_f64();
            let woken = {
                let mut st = st2.borrow_mut();
                let w = worker.index as u32;
                let SimState {
                    running,
                    health,
                    rec,
                    pending,
                    queue_requests,
                    idle_workers,
                    done,
                    ..
                } = &mut *st;
                if let Some(n) = running.get_mut(&task_id) {
                    *n = n.saturating_sub(1);
                }
                sim_note_failure(health, rec, w, now);
                if let Some(rec) = rec {
                    let (t_in, t_exec, t_out, t_ctrl) = parts;
                    record_attempt(
                        rec,
                        w,
                        task_id,
                        attempt,
                        now - duration_s,
                        now,
                        t_in,
                        t_exec,
                        t_out,
                        t_ctrl,
                        false,
                    );
                    rec.event(TraceEvent {
                        at_s: now,
                        worker: w,
                        kind: EventKind::Cancel,
                    });
                }
                if done.contains(&task_id) {
                    None
                } else {
                    *queue_requests += 1; // the cancel's re-send
                    pending.push_back(task);
                    idle_workers.pop()
                }
            };
            if let Some(w) = woken {
                let st3 = st2.clone();
                e.schedule_in(SimTime::ZERO, move |e| worker_tick(e, st3, w, itype, cfg));
            }
            // Re-poll as an event *after* the wake above, so a woken healthy
            // worker claims the requeued message ahead of this (possibly
            // gray) worker — a direct call here would livelock a lone gray
            // worker on its own cancelled task.
            e.schedule_in(SimTime::ZERO, move |e| {
                worker_tick(e, st2, worker, itype, cfg)
            });
        });
        return;
    }

    if fails {
        // Worker dies before deleting: the message reappears after the
        // visibility timeout, waking an idle worker if one exists.
        let st2 = state.clone();
        let lost_task = task.clone();
        engine.schedule_in(SimTime::from_secs_f64(cfg.visibility_timeout_s), move |e| {
            let woken = {
                let mut st = st2.borrow_mut();
                st.pending.push_back(lost_task);
                st.idle_workers.pop()
            };
            if let Some(w) = woken {
                let st3 = st2.clone();
                e.schedule_in(SimTime::ZERO, move |e| worker_tick(e, st3, w, itype, cfg));
            }
        });
        let st2 = state.clone();
        let task_id = task.id.0;
        engine.schedule_in(SimTime::from_secs_f64(duration_s), move |e| {
            {
                let mut st = st2.borrow_mut();
                st.deaths += 1;
                let end = e.now().as_secs_f64();
                let w = worker.index as u32;
                let SimState {
                    running,
                    health,
                    rec,
                    ..
                } = &mut *st;
                if let Some(n) = running.get_mut(&task_id) {
                    *n = n.saturating_sub(1);
                }
                sim_note_failure(health, rec, w, end);
                if let Some(rec) = rec {
                    let (t_in, t_exec, t_out, t_ctrl) = parts;
                    record_attempt(
                        rec,
                        w,
                        task_id,
                        attempt,
                        end - duration_s,
                        end,
                        t_in,
                        t_exec,
                        t_out,
                        t_ctrl,
                        false,
                    );
                    rec.event(TraceEvent {
                        at_s: end,
                        worker: w,
                        kind: EventKind::Death,
                    });
                }
            }
            // The replacement worker polls again immediately.
            worker_tick(e, st2, worker, itype, cfg);
        });
        return;
    }

    let st2 = state.clone();
    let started_at = engine.now().as_secs_f64();
    let task_id = task.id.0;
    let defended = cfg.resilience.is_some();
    engine.schedule_in(SimTime::from_secs_f64(duration_s), move |e| {
        let dead_timers = {
            let mut st = st2.borrow_mut();
            let end = e.now().as_secs_f64();
            let w = worker.index as u32;
            let SimState {
                running,
                health,
                hedge,
                done,
                rec,
                completed,
                n_tasks,
                finished_at_s,
                hedge_timers,
                ..
            } = &mut *st;
            if let Some(n) = running.get_mut(&task_id) {
                *n = n.saturating_sub(1);
            }
            // First result wins: a hedged loser's output is discarded (its
            // time shows up as wasted duplicate work in the trace).
            let winner = !defended || done.insert(task_id);
            if winner {
                *completed += 1;
                if *completed >= *n_tasks {
                    *finished_at_s = end;
                }
                if let Some(h) = hedge {
                    h.observe(duration_s);
                }
            }
            sim_note_success(health, rec, w, duration_s, end);
            if let Some(rec) = rec {
                let (t_in, t_exec, t_out, t_ctrl) = parts;
                record_attempt(
                    rec, w, task_id, attempt, started_at, end, t_in, t_exec, t_out, t_ctrl, true,
                );
            }
            // The committed result makes every armed hedge check for this
            // task a dead no-op; collect the handles while the state is
            // borrowed, cancel once it isn't.
            if winner {
                hedge_timers.remove(&task_id)
            } else {
                None
            }
        };
        for id in dead_timers.into_iter().flatten() {
            e.cancel(id);
        }
        worker_tick(e, st2, worker, itype, cfg);
    });
}

/// Arm (and, on firing, apply) the hedge check for one pulled attempt: if
/// the task is still live past the policy's delay, a duplicate message is
/// enqueued — the Classic Cloud hedge is a queue re-dispatch, since the
/// queue has no worker affinity and any idle worker picks the copy up.
/// Re-arms itself while the quantile-derived delay grows past the
/// attempt's age.
fn hedge_check_at(
    engine: &mut Engine,
    state: Rc<RefCell<SimState>>,
    task: TaskSpec,
    pulled_s: f64,
    at_s: f64,
    itype: ppc_compute::instance::InstanceType,
    cfg: SimConfig,
) {
    let task_id = task.id.0;
    let reg = state.clone();
    let timer = engine.schedule_at(SimTime::from_secs_f64(at_s.max(pulled_s)), move |e| {
        enum Next {
            Stop,
            Rearm(f64),
            Wake(Option<WorkerRef>),
        }
        let now = e.now().as_secs_f64();
        let next = {
            let mut st = state.borrow_mut();
            let id = task.id.0;
            let SimState {
                hedge,
                hedged,
                done,
                running,
                pending,
                queue_requests,
                rec,
                idle_workers,
                n_tasks,
                ..
            } = &mut *st;
            let live = running.get(&id).copied().unwrap_or(0);
            let policy = hedge.as_mut().expect("hedge check armed without a policy");
            if done.contains(&id) || hedged.contains(&id) || live == 0 {
                Next::Stop
            } else {
                let age = now - pulled_s;
                if policy.should_hedge(age, live, *n_tasks) {
                    policy.record_hedge();
                    hedged.insert(id);
                    *queue_requests += 1; // the duplicate's send
                    pending.push_back(task.clone());
                    if let Some(rec) = rec {
                        rec.event(TraceEvent {
                            at_s: now,
                            worker: NO_WORKER,
                            kind: EventKind::Hedge,
                        });
                    }
                    Next::Wake(idle_workers.pop())
                } else {
                    // Either the delay grew past this attempt's age (re-arm
                    // at the new deadline) or the budget / live-attempt cap
                    // said no (this task will not be hedged).
                    let delay = policy.hedge_delay();
                    if age < delay {
                        Next::Rearm(pulled_s + delay)
                    } else {
                        Next::Stop
                    }
                }
            }
        };
        match next {
            Next::Stop | Next::Wake(None) => {}
            Next::Rearm(at) => {
                let at = strictly_after_now(e.now(), at);
                hedge_check_at(e, state, task, pulled_s, at, itype, cfg)
            }
            Next::Wake(Some(w)) => {
                let st = state.clone();
                e.schedule_in(SimTime::ZERO, move |e| worker_tick(e, st, w, itype, cfg));
            }
        }
    });
    reg.borrow_mut()
        .hedge_timers
        .entry(task_id)
        .or_default()
        .push(timer);
}

/// Completion step for the NIC-modeled pipeline: mirror of the tail of
/// [`worker_tick`], reached after the chained transfer/compute events.
#[allow(clippy::too_many_arguments)]
fn handle_completion(
    engine: &mut Engine,
    state: Rc<RefCell<SimState>>,
    worker: WorkerRef,
    itype: ppc_compute::instance::InstanceType,
    cfg: SimConfig,
    task: TaskSpec,
    fails: bool,
    started_at: f64,
    task_id: u64,
    attempt: u32,
    parts: (f64, f64, f64, f64),
) {
    let end = engine.now().as_secs_f64();
    if fails {
        let st2 = state.clone();
        engine.schedule_in(SimTime::from_secs_f64(cfg.visibility_timeout_s), move |e| {
            let woken = {
                let mut st = st2.borrow_mut();
                st.pending.push_back(task);
                st.idle_workers.pop()
            };
            if let Some(w) = woken {
                let st3 = st2.clone();
                e.schedule_in(SimTime::ZERO, move |e| worker_tick(e, st3, w, itype, cfg));
            }
        });
        {
            let mut st = state.borrow_mut();
            st.deaths += 1;
            let w = worker.index as u32;
            let SimState {
                running,
                health,
                rec,
                ..
            } = &mut *st;
            if let Some(n) = running.get_mut(&task_id) {
                *n = n.saturating_sub(1);
            }
            sim_note_failure(health, rec, w, end);
            if let Some(rec) = rec {
                let (t_in, t_exec, t_out, t_ctrl) = parts;
                record_attempt(
                    rec, w, task_id, attempt, started_at, end, t_in, t_exec, t_out, t_ctrl, false,
                );
                rec.event(TraceEvent {
                    at_s: end,
                    worker: w,
                    kind: EventKind::Death,
                });
            }
        }
        worker_tick(engine, state, worker, itype, cfg);
        return;
    }
    {
        let mut st = state.borrow_mut();
        let w = worker.index as u32;
        let defended = cfg.resilience.is_some();
        let SimState {
            running,
            health,
            hedge,
            done,
            rec,
            completed,
            n_tasks,
            finished_at_s,
            ..
        } = &mut *st;
        if let Some(n) = running.get_mut(&task_id) {
            *n = n.saturating_sub(1);
        }
        let winner = !defended || done.insert(task_id);
        if winner {
            *completed += 1;
            if *completed >= *n_tasks {
                *finished_at_s = end;
            }
            if let Some(h) = hedge {
                h.observe(end - started_at);
            }
        }
        sim_note_success(health, rec, w, end - started_at, end);
        if let Some(rec) = rec {
            let (t_in, t_exec, t_out, t_ctrl) = parts;
            record_attempt(
                rec, w, task_id, attempt, started_at, end, t_in, t_exec, t_out, t_ctrl, true,
            );
        }
    }
    worker_tick(engine, state, worker, itype, cfg);
}

// ------------------------------------------------------------ autoscaled

/// State of the autoscaled simulation: the fixed-fleet fields plus the
/// elastic machinery (controller, drain flags, idle parking by slot id).
struct AsState {
    /// Visible messages: `(task, visible_since_s)` — the timestamp feeds
    /// the oldest-message-age telemetry.
    pending: VecDeque<(TaskSpec, f64)>,
    /// Parked workers with nothing to do (never contains draining slots).
    idle: Vec<u32>,
    /// Slots told to retire after their in-hand task.
    drain: std::collections::HashSet<u32>,
    /// Drained slots whose worker has exited, awaiting confirmation at the
    /// controller's next tick.
    retired_inbox: Vec<u32>,
    in_flight: usize,
    completed: usize,
    executions: usize,
    deaths: usize,
    queue_requests: u64,
    storage_requests: u64,
    remote_bytes: u64,
    bytes_in: u64,
    bytes_out: u64,
    n_tasks: usize,
    finished_at_s: f64,
    rec: Option<Recorder>,
    /// Next attempt index per task id (allocated at message pull).
    attempts: HashMap<u64, u32>,
    /// The run seed; per-slot RNG streams derive from it lazily.
    seed: u64,
    /// Per-slot RNG streams (jitter, failure dice), indexed by controller
    /// slot id and grown as the fleet scales out.
    rngs: Vec<Pcg32>,
    controller: Controller,
    /// Optional event-based chaos; slots are addressed by controller id.
    schedule: Option<Arc<FaultSchedule>>,
    /// Per-slot count of tasks pulled so far (the chaos roll index).
    task_seqs: Vec<u32>,
    /// Slots killed by the schedule: their tick chains must end, and a
    /// task in hand at death is lost to the visibility timeout.
    dead: std::collections::HashSet<u32>,
    /// Virtual time of the controller's last timed-kill sweep.
    last_kill_check_s: f64,
    /// Hedging / quarantine / first-result-wins bookkeeping — the elastic
    /// twin of the fields on [`SimState`]; all inert on legacy runs.
    hedge: Option<HedgePolicy>,
    health: Option<HealthTracker>,
    done: HashSet<u64>,
    hedged: HashSet<u64>,
    running: HashMap<u64, u32>,
    /// Armed hedge-check timers per task; see [`SimState::hedge_timers`].
    hedge_timers: HashMap<u64, Vec<EventId>>,
}

impl AsState {
    /// Claim the chaos roll index for `slot`'s next task.
    fn next_seq(&mut self, slot: u32) -> u32 {
        let i = slot as usize;
        if self.task_seqs.len() <= i {
            self.task_seqs.resize(i + 1, 0);
        }
        let seq = self.task_seqs[i];
        self.task_seqs[i] += 1;
        seq
    }

    /// The RNG stream of `slot`, created on first use.
    fn rng(&mut self, slot: u32) -> &mut Pcg32 {
        let i = slot as usize;
        while self.rngs.len() <= i {
            let stream = self.rngs.len() as u64;
            self.rngs.push(Pcg32::for_stream(self.seed, stream));
        }
        &mut self.rngs[i]
    }
}

/// Simulate an *elastic* Classic Cloud run: single-worker instances of
/// `itype` launched and retired in virtual time by a `ppc-autoscale`
/// [`Controller`] — the simulated twin of
/// [`crate::runtime::run_job_autoscaled`], sharing its decision logic and
/// billing exactly (both engines drive the same pure state machine, so a
/// deterministic workload yields the same fleet-size trajectory).
///
/// `arrivals[i]` is the virtual second at which `tasks[i]` enters the
/// scheduling queue; an empty slice enqueues everything at t = 0.
#[deprecated(
    note = "build a `ppc_exec::RunContext` with `RunContext::elastic(…)` and call `ppc_classic::simulate`"
)]
pub fn simulate_autoscaled(
    itype: ppc_compute::instance::InstanceType,
    tasks: &[TaskSpec],
    arrivals: &[f64],
    cfg: &SimConfig,
    autoscale: &AutoscaleConfig,
) -> ClassicReport {
    crate::harness::simulate(
        &RunContext::elastic(itype, autoscale.clone(), arrivals.to_vec()),
        tasks,
        cfg,
    )
}

/// [`simulate_autoscaled`] under an optional event-based [`FaultSchedule`].
#[deprecated(
    note = "build a `ppc_exec::RunContext` with `RunContext::elastic(…).with_schedule(…)` and call `ppc_classic::simulate`"
)]
pub fn simulate_autoscaled_chaos(
    itype: ppc_compute::instance::InstanceType,
    tasks: &[TaskSpec],
    arrivals: &[f64],
    cfg: &SimConfig,
    autoscale: &AutoscaleConfig,
    schedule: Option<Arc<FaultSchedule>>,
) -> ClassicReport {
    crate::harness::simulate(
        &RunContext::elastic(itype, autoscale.clone(), arrivals.to_vec()).with_schedule(schedule),
        tasks,
        cfg,
    )
}

/// The elastic simulation body: single-worker instances of `itype`
/// launched and retired in virtual time by a `ppc-autoscale`
/// [`Controller`] — the simulated twin of
/// [`crate::runtime::run_autoscaled_impl`], sharing its decision logic and
/// billing exactly (both engines drive the same pure state machine, so a
/// deterministic workload yields the same fleet-size trajectory). Tasks
/// are delivered FIFO (no shuffle) to keep elastic runs reproducible.
/// Under a [`FaultSchedule`], timed kills take whole instances down (the
/// controller detects the death, records it, and launches a replacement
/// with the scale-up cooldown waived), on top of the per-task chaos the
/// fixed-fleet simulator models. Reached through [`crate::simulate`].
pub(crate) fn sim_autoscaled_impl(
    itype: ppc_compute::instance::InstanceType,
    tasks: &[TaskSpec],
    arrivals: &[f64],
    cfg: &SimConfig,
    autoscale: &AutoscaleConfig,
    schedule: Option<Arc<FaultSchedule>>,
) -> ClassicReport {
    assert!(!tasks.is_empty(), "no tasks to simulate");
    assert!(
        arrivals.is_empty() || arrivals.len() == tasks.len(),
        "{} arrival offsets for {} tasks",
        arrivals.len(),
        tasks.len()
    );
    check_sim_inputs(cfg, schedule.as_ref());
    let cfg = *cfg;
    let state = Rc::new(RefCell::new(AsState {
        pending: VecDeque::new(),
        idle: Vec::new(),
        drain: std::collections::HashSet::new(),
        retired_inbox: Vec::new(),
        in_flight: 0,
        completed: 0,
        executions: 0,
        deaths: 0,
        queue_requests: 0,
        storage_requests: 0,
        remote_bytes: 0,
        bytes_in: 0,
        bytes_out: 0,
        n_tasks: tasks.len(),
        finished_at_s: 0.0,
        rec: cfg.trace.then(Recorder::new),
        attempts: HashMap::new(),
        seed: cfg.seed,
        rngs: Vec::new(),
        controller: Controller::new(autoscale.clone()),
        schedule,
        task_seqs: Vec::new(),
        dead: std::collections::HashSet::new(),
        last_kill_check_s: 0.0,
        hedge: cfg.resilience.and_then(|p| p.hedge).map(HedgePolicy::new),
        health: cfg
            .resilience
            .and_then(|p| p.quarantine)
            .map(HealthTracker::new),
        done: HashSet::new(),
        hedged: HashSet::new(),
        running: HashMap::new(),
        hedge_timers: HashMap::new(),
    }));

    let mut engine = Engine::new();
    // Arrivals first, so that same-instant arrivals precede the worker
    // ticks of the initial fleet (events fire in insertion order).
    for (i, task) in tasks.iter().enumerate() {
        let at = if arrivals.is_empty() {
            0.0
        } else {
            arrivals[i]
        };
        let st = state.clone();
        let task = task.clone();
        engine.schedule_at(SimTime::from_secs_f64(at), move |e| {
            let now = e.now().as_secs_f64();
            {
                let mut s = st.borrow_mut();
                s.queue_requests += 1; // the client's send
                if let Some(rec) = &s.rec {
                    rec.span(Span::new(task.id.0, 0, NO_WORKER, Phase::Enqueue, now, now));
                }
                s.pending.push_back((task, now));
            }
            as_wake_idle(e, st, itype, cfg);
        });
    }
    for slot in 0..autoscale.min_workers {
        let st = state.clone();
        engine.schedule_at(SimTime::ZERO, move |e| {
            as_worker_tick(e, st, slot, itype, cfg);
        });
    }
    {
        let st = state.clone();
        engine.schedule_in(SimTime::from_secs_f64(autoscale.interval_s), move |e| {
            as_controller_tick(e, st, itype, cfg);
        });
    }

    let end = engine.run();
    let mut st = state.borrow_mut();
    let makespan = if st.finished_at_s > 0.0 {
        st.finished_at_s
    } else {
        end.as_secs_f64()
    };

    // Close the fleet ledger, mirroring the native runtime's finalization.
    let last_event_s = st.controller.events().last().map(|e| e.at_s).unwrap_or(0.0);
    let end_s = makespan.max(last_event_s);
    let inbox = std::mem::take(&mut st.retired_inbox);
    for slot in inbox {
        st.controller.confirm_retired(slot, end_s);
    }
    let still_draining: Vec<u32> = st
        .controller
        .slots()
        .iter()
        .filter(|s| s.state == ppc_autoscale::SlotState::Draining)
        .map(|s| s.id)
        .collect();
    for slot in still_draining {
        st.controller.confirm_retired(slot, end_s);
    }
    let fleet =
        crate::runtime::fleet_report(&st.controller, itype, autoscale.billing_hour_s, end_s);

    let platform = format!("classic-sim-autoscale-{}", itype.name);
    let trace = st.rec.as_ref().and_then(|rec| {
        for ev in st.controller.events() {
            rec.event(TraceEvent {
                at_s: ev.at_s,
                worker: ev.slot,
                kind: match ev.kind {
                    ppc_autoscale::FleetEventKind::Launch => EventKind::Launch,
                    ppc_autoscale::FleetEventKind::Drain => EventKind::Drain,
                    ppc_autoscale::FleetEventKind::Retire => EventKind::Retire,
                    ppc_autoscale::FleetEventKind::Died => EventKind::Death,
                },
            });
        }
        rec.set_meta(RunMeta {
            platform: platform.clone(),
            cores: fleet.peak_fleet() as usize,
            tasks: st.completed,
            makespan_seconds: makespan,
        });
        rec.span(Span::job(makespan));
        rec.snapshot()
    });

    ClassicReport {
        core: RunReport {
            summary: RunSummary {
                platform,
                cores: fleet.peak_fleet() as usize,
                tasks: st.completed,
                makespan_seconds: makespan,
                redundant_executions: st.executions - st.completed,
                remote_bytes: st.remote_bytes,
            },
            failed: Vec::new(),
            total_attempts: st.executions,
            worker_deaths: st.deaths,
            cost: Some(fleet.cost),
            trace: trace.clone(),
        },
        queue_requests: st.queue_requests,
        executions_per_fleet: Vec::new(),
        timeline: trace.as_ref().map(ppc_trace::Trace::to_timeline),
        fleet: Some(fleet),
        storage: MeteringSnapshot {
            requests: st.storage_requests,
            bytes_in: st.bytes_in,
            bytes_out: st.bytes_out,
            stored_bytes: st.bytes_in,
            peak_stored_bytes: st.bytes_in,
        },
    }
}

/// Wake one parked worker, if any (one message, one worker).
fn as_wake_idle(
    engine: &mut Engine,
    state: Rc<RefCell<AsState>>,
    itype: ppc_compute::instance::InstanceType,
    cfg: SimConfig,
) {
    let woken = state.borrow_mut().idle.pop();
    if let Some(slot) = woken {
        let st = state.clone();
        engine.schedule_in(SimTime::ZERO, move |e| {
            as_worker_tick(e, st, slot, itype, cfg);
        });
    }
}

/// One autoscaled worker iteration: retire if draining, else pull the next
/// task and model the receive → transfer → execute → report → delete
/// pipeline (one worker per instance, so no slot contention).
fn as_worker_tick(
    engine: &mut Engine,
    state: Rc<RefCell<AsState>>,
    slot: u32,
    itype: ppc_compute::instance::InstanceType,
    cfg: SimConfig,
) {
    let now_s = engine.now().as_secs_f64();
    // Quarantine gate (mirrors the fixed-fleet sim): a benched slot pulls
    // nothing until its sentence expires. Dead, draining, or post-job slots
    // skip the gate — the main block below retires them.
    let benched_until = {
        let mut st = state.borrow_mut();
        if st.completed >= st.n_tasks || st.dead.contains(&slot) || st.drain.contains(&slot) {
            None
        } else {
            let AsState { health, rec, .. } = &mut *st;
            health.as_mut().and_then(|tracker| {
                let benched_before = matches!(tracker.health(slot), Health::Quarantined { .. });
                if tracker.allow(slot, now_s) {
                    if benched_before {
                        if let Some(rec) = rec {
                            rec.event(TraceEvent {
                                at_s: now_s,
                                worker: slot,
                                kind: EventKind::Release,
                            });
                        }
                    }
                    None
                } else {
                    match tracker.health(slot) {
                        Health::Quarantined { until_s } => Some(until_s),
                        _ => None,
                    }
                }
            })
        }
    };
    if let Some(until_s) = benched_until {
        let st = state.clone();
        let wake = strictly_after_now(engine.now(), until_s);
        engine.schedule_at(SimTime::from_secs_f64(wake), move |e| {
            as_worker_tick(e, st, slot, itype, cfg);
        });
        return;
    }
    let (task, parts, fails, received_at, attempt) = {
        let mut st = state.borrow_mut();
        if st.completed >= st.n_tasks {
            return; // job done; the fleet winds down
        }
        if st.dead.contains(&slot) {
            return; // the instance was chaos-killed: its chain ends
        }
        if st.drain.contains(&slot) {
            // Between tasks the worker holds no lease: exit immediately.
            st.retired_inbox.push(slot);
            return;
        }
        st.queue_requests += 1; // the receive call
                                // First result wins on defended runs: stale duplicates are deleted.
        let (task, _since) = loop {
            match st.pending.pop_front() {
                Some((t, _)) if st.done.contains(&t.id.0) => {
                    st.queue_requests += 1; // the stale duplicate's delete
                }
                Some(pair) => break pair,
                None => {
                    st.idle.push(slot);
                    return;
                }
            }
        };
        st.executions += 1;
        st.storage_requests += 2;
        st.bytes_in += task.profile.output_bytes;
        st.bytes_out += task.profile.input_bytes;
        st.remote_bytes += task.profile.input_bytes + task.profile.output_bytes;
        let mut t_in = cfg
            .storage_latency
            .transfer_seconds(task.profile.input_bytes);
        let t_out = cfg
            .storage_latency
            .transfer_seconds(task.profile.output_bytes);
        let jitter = if cfg.jitter_sigma > 0.0 {
            st.rng(slot).log_normal(0.0, cfg.jitter_sigma)
        } else {
            1.0
        };
        let mut t_exec = task_service_seconds(&itype, 1, &task.profile, &cfg.app) * jitter;
        let t_ctrl = 3.0 * cfg.queue_latency.request_seconds();
        st.queue_requests += 2; // monitor send + delete
        st.in_flight += 1;
        let mut fails = cfg.failure_rate > 0.0 && st.rng(slot).chance(cfg.failure_rate);
        if let Some(schedule) = st.schedule.clone() {
            let seq = st.next_seq(slot);
            t_exec *= schedule.slowdown(slot, now_s);
            if let Some(until) = schedule.storage_outage_until(now_s) {
                t_in += until - now_s;
            }
            // Timed kills are the controller's concern (whole-instance
            // death); per-task dice and torn uploads cost the execution.
            fails = fails
                || schedule.die_before_execute(slot, seq)
                || schedule.die_mid_execute(slot, seq)
                || schedule.die_before_delete(slot, seq)
                || schedule.is_torn_upload(slot, seq);
        }
        let attempt = if cfg.trace {
            let a = st.attempts.entry(task.id.0).or_insert(0);
            let n = *a;
            *a += 1;
            n
        } else {
            0
        };
        (task, (t_in, t_exec, t_out, t_ctrl), fails, now_s, attempt)
    };
    let duration_s = {
        let (t_in, t_exec, t_out, t_ctrl) = parts;
        t_in + t_exec + t_out + t_ctrl
    };
    // Per-task deadline: cut the attempt at the timeout and requeue at once.
    let deadline = cfg.resilience.and_then(|p| p.deadline);
    let (duration_s, cancelled) = match deadline {
        Some(d) if duration_s > d.timeout_s => (d.timeout_s, true),
        _ => (duration_s, false),
    };
    let parts = if cancelled {
        (parts.0.min(duration_s), 0.0, 0.0, 0.0)
    } else {
        parts
    };
    let defended = cfg.resilience.is_some();
    if defended {
        let mut st = state.borrow_mut();
        *st.running.entry(task.id.0).or_insert(0) += 1;
    }
    // Hedge check: arm a timer one hedge delay past this pull; if the task
    // is still live when it fires, a duplicate message is enqueued.
    if !cancelled && cfg.resilience.is_some_and(|p| p.hedge.is_some()) {
        let delay = state
            .borrow()
            .hedge
            .as_ref()
            .map(|h| h.hedge_delay())
            .unwrap_or(0.0);
        as_hedge_check_at(
            engine,
            state.clone(),
            task.clone(),
            now_s,
            now_s + delay,
            itype,
            cfg,
        );
    }

    let st2 = state.clone();
    engine.schedule_in(SimTime::from_secs_f64(duration_s), move |e| {
        let now = e.now().as_secs_f64();
        // An instance chaos-killed while this task was in hand loses the
        // work: the execution never completes and the message reappears.
        let slot_died = st2.borrow().dead.contains(&slot);
        let lost = fails || slot_died;
        let cancel = cancelled && !slot_died;
        let mut dead_timers = None;
        {
            let mut st = st2.borrow_mut();
            st.in_flight -= 1;
            let AsState {
                running,
                health,
                hedge,
                done,
                rec,
                completed,
                n_tasks,
                finished_at_s,
                deaths,
                hedge_timers,
                ..
            } = &mut *st;
            if let Some(n) = running.get_mut(&task.id.0) {
                *n = n.saturating_sub(1);
            }
            if cancel {
                sim_note_failure(health, rec, slot, now);
            } else if lost {
                *deaths += 1;
                if !slot_died {
                    sim_note_failure(health, rec, slot, now);
                }
            } else {
                // First result wins: a hedged loser's output is discarded.
                let winner = !defended || done.insert(task.id.0);
                if winner {
                    *completed += 1;
                    if *completed >= *n_tasks {
                        *finished_at_s = now;
                    }
                    if let Some(h) = hedge {
                        h.observe(duration_s);
                    }
                    // Armed hedge checks for a committed task are dead
                    // no-ops; collect them here, cancel outside the borrow.
                    dead_timers = hedge_timers.remove(&task.id.0);
                }
                sim_note_success(health, rec, slot, duration_s, now);
            }
            if let Some(rec) = rec {
                let (t_in, t_exec, t_out, t_ctrl) = parts;
                record_attempt(
                    rec,
                    slot,
                    task.id.0,
                    attempt,
                    received_at,
                    now,
                    t_in,
                    t_exec,
                    t_out,
                    t_ctrl,
                    !lost && !cancel,
                );
                // Whole-instance deaths are the controller's events; only
                // per-task dice deaths are recorded here.
                if fails && !slot_died && !cancel {
                    rec.event(TraceEvent {
                        at_s: now,
                        worker: slot,
                        kind: EventKind::Death,
                    });
                }
                if cancel {
                    rec.event(TraceEvent {
                        at_s: now,
                        worker: slot,
                        kind: EventKind::Cancel,
                    });
                }
            }
        }
        for id in dead_timers.into_iter().flatten() {
            e.cancel(id);
        }
        if cancel {
            // Cancel-and-requeue: the worker deleted its lease and re-sent
            // the message, so the retry is visible immediately.
            if !st2.borrow().done.contains(&task.id.0) {
                {
                    let mut st = st2.borrow_mut();
                    st.queue_requests += 1; // the cancel's re-send
                    st.pending.push_back((task, now));
                }
                as_wake_idle(e, st2.clone(), itype, cfg);
            }
        } else if lost {
            // The undeleted message reappears one visibility timeout after
            // its receive, waking a parked worker if one exists.
            let reappear_at = (received_at + cfg.visibility_timeout_s).max(now);
            let st3 = st2.clone();
            e.schedule_at(SimTime::from_secs_f64(reappear_at), move |e| {
                let at = e.now().as_secs_f64();
                st3.borrow_mut().pending.push_back((task, at));
                as_wake_idle(e, st3, itype, cfg);
            });
        }
        if slot_died {
            return; // dead instances do not poll again
        }
        if cancel {
            // Re-poll after the wake above so a woken healthy instance
            // claims the requeued message ahead of this (possibly gray)
            // one — a direct call would livelock a lone gray slot on its
            // own cancelled task.
            e.schedule_in(SimTime::ZERO, move |e| {
                as_worker_tick(e, st2, slot, itype, cfg)
            });
        } else {
            as_worker_tick(e, st2, slot, itype, cfg);
        }
    });
}

/// The elastic twin of [`hedge_check_at`]: re-enqueue a duplicate message
/// for a task still live past the hedge delay, waking a parked instance.
fn as_hedge_check_at(
    engine: &mut Engine,
    state: Rc<RefCell<AsState>>,
    task: TaskSpec,
    pulled_s: f64,
    at_s: f64,
    itype: ppc_compute::instance::InstanceType,
    cfg: SimConfig,
) {
    let task_id = task.id.0;
    let reg = state.clone();
    let timer = engine.schedule_at(SimTime::from_secs_f64(at_s.max(pulled_s)), move |e| {
        enum Next {
            Stop,
            Rearm(f64),
            Wake,
        }
        let now = e.now().as_secs_f64();
        let next = {
            let mut st = state.borrow_mut();
            let id = task.id.0;
            let AsState {
                hedge,
                hedged,
                done,
                running,
                pending,
                queue_requests,
                rec,
                n_tasks,
                ..
            } = &mut *st;
            let live = running.get(&id).copied().unwrap_or(0);
            let policy = hedge.as_mut().expect("hedge check armed without a policy");
            if done.contains(&id) || hedged.contains(&id) || live == 0 {
                Next::Stop
            } else {
                let age = now - pulled_s;
                if policy.should_hedge(age, live, *n_tasks) {
                    policy.record_hedge();
                    hedged.insert(id);
                    *queue_requests += 1; // the duplicate's send
                    pending.push_back((task.clone(), now));
                    if let Some(rec) = rec {
                        rec.event(TraceEvent {
                            at_s: now,
                            worker: NO_WORKER,
                            kind: EventKind::Hedge,
                        });
                    }
                    Next::Wake
                } else {
                    // Either the delay grew past this attempt's age (re-arm
                    // at the new deadline) or the budget / live-attempt cap
                    // said no (this task will not be hedged).
                    let delay = policy.hedge_delay();
                    if age < delay {
                        Next::Rearm(pulled_s + delay)
                    } else {
                        Next::Stop
                    }
                }
            }
        };
        match next {
            Next::Stop => {}
            Next::Rearm(at) => {
                let at = strictly_after_now(e.now(), at);
                as_hedge_check_at(e, state, task, pulled_s, at, itype, cfg)
            }
            Next::Wake => as_wake_idle(e, state, itype, cfg),
        }
    });
    reg.borrow_mut()
        .hedge_timers
        .entry(task_id)
        .or_default()
        .push(timer);
}

/// One controller evaluation in virtual time: confirm retirements, take a
/// telemetry snapshot, apply the decision, and reschedule — until the job
/// completes, after which the tick chain ends and the engine drains.
fn as_controller_tick(
    engine: &mut Engine,
    state: Rc<RefCell<AsState>>,
    itype: ppc_compute::instance::InstanceType,
    cfg: SimConfig,
) {
    let now_s = engine.now().as_secs_f64();
    let (launches, warmup_s, interval_s) = {
        let mut st = state.borrow_mut();
        let inbox = std::mem::take(&mut st.retired_inbox);
        for slot in inbox {
            st.controller.confirm_retired(slot, now_s);
        }
        // Dead-instance sweep: a timed kill addressed to a live slot takes
        // the whole instance down. `mark_dead` records the death and
        // waives the scale-up cooldown so `decide` below can launch a
        // replacement on this very tick.
        if let Some(schedule) = st.schedule.clone() {
            let from_s = st.last_kill_check_s;
            let victims: Vec<u32> = st
                .controller
                .slots()
                .iter()
                .filter(|s| matches!(s.state, SlotState::Warming | SlotState::Active))
                .filter(|s| schedule.kills_in(s.id, from_s, now_s))
                .map(|s| s.id)
                .collect();
            for id in victims {
                st.controller.mark_dead(id, now_s);
                st.dead.insert(id);
                if let Some(pos) = st.idle.iter().position(|&w| w == id) {
                    st.idle.remove(pos);
                }
            }
        }
        st.last_kill_check_s = now_s;
        if st.completed >= st.n_tasks {
            return; // no more ticks: let the engine run dry
        }
        let oldest_age_s = st
            .pending
            .iter()
            .map(|(_, since)| (now_s - since).max(0.0))
            .fold(None, |acc: Option<f64>, age| {
                Some(acc.map_or(age, |m: f64| m.max(age)))
            });
        let telemetry = Telemetry {
            queued: st.pending.len(),
            in_flight: st.in_flight,
            oldest_age_s,
        };
        let launches = match st.controller.decide(now_s, &telemetry) {
            Decision::Launch { ids } => ids,
            Decision::Drain { ids } => {
                for id in ids {
                    st.drain.insert(id);
                    if let Some(pos) = st.idle.iter().position(|&w| w == id) {
                        // An idle victim holds no lease: retire right now.
                        st.idle.remove(pos);
                        st.controller.confirm_retired(id, now_s);
                    }
                }
                Vec::new()
            }
            Decision::Hold => Vec::new(),
        };
        let acfg = st.controller.config();
        (launches, acfg.warmup_s, acfg.interval_s)
    };
    for slot in launches {
        let st = state.clone();
        engine.schedule_in(SimTime::from_secs_f64(warmup_s), move |e| {
            as_worker_tick(e, st, slot, itype, cfg);
        });
    }
    let st = state.clone();
    engine.schedule_in(SimTime::from_secs_f64(interval_s), move |e| {
        as_controller_tick(e, st, itype, cfg);
    });
}

/// Equation 1's sequential baseline on this instance type: all tasks back to
/// back on one otherwise-idle core, inputs local (no transfer terms).
pub fn sequential_baseline_seconds(
    itype: &ppc_compute::instance::InstanceType,
    tasks: &[TaskSpec],
    app: &AppModel,
) -> f64 {
    tasks
        .iter()
        .map(|t| task_service_seconds(itype, 1, &t.profile, app))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppc_compute::instance::{EC2_HCXL, EC2_HM4XL, EC2_LARGE};
    use ppc_core::task::ResourceProfile;

    fn cpu_tasks(n: u64, secs: f64) -> Vec<TaskSpec> {
        (0..n)
            .map(|i| TaskSpec::new(i, "cap3", format!("f{i}"), ResourceProfile::cpu_bound(secs)))
            .collect()
    }

    // Every simulation below goes through the unified harness entry point
    // (`crate::simulate` + a `RunContext`); these helpers shadow the
    // deprecated legacy shims and spell out the context each shape needs.
    fn simulate(cluster: &Cluster, tasks: &[TaskSpec], cfg: &SimConfig) -> ClassicReport {
        crate::simulate(&RunContext::new(cluster), tasks, cfg)
    }

    fn simulate_chaos(
        cluster: &Cluster,
        tasks: &[TaskSpec],
        cfg: &SimConfig,
        schedule: Arc<FaultSchedule>,
    ) -> ClassicReport {
        crate::simulate(
            &RunContext::new(cluster).with_schedule(schedule),
            tasks,
            cfg,
        )
    }

    fn simulate_fleets(fleets: &[Cluster], tasks: &[TaskSpec], cfg: &SimConfig) -> ClassicReport {
        crate::simulate(&RunContext::on_fleets(fleets.to_vec()), tasks, cfg)
    }

    fn simulate_autoscaled(
        itype: ppc_compute::instance::InstanceType,
        tasks: &[TaskSpec],
        arrivals: &[f64],
        cfg: &SimConfig,
        autoscale: &AutoscaleConfig,
    ) -> ClassicReport {
        crate::simulate(
            &RunContext::elastic(itype, autoscale.clone(), arrivals.to_vec()),
            tasks,
            cfg,
        )
    }

    fn simulate_autoscaled_chaos(
        itype: ppc_compute::instance::InstanceType,
        tasks: &[TaskSpec],
        arrivals: &[f64],
        cfg: &SimConfig,
        autoscale: &AutoscaleConfig,
        schedule: Option<Arc<FaultSchedule>>,
    ) -> ClassicReport {
        crate::simulate(
            &RunContext::elastic(itype, autoscale.clone(), arrivals.to_vec())
                .with_schedule(schedule),
            tasks,
            cfg,
        )
    }

    #[test]
    fn makespan_matches_hand_computation() {
        // 16 tasks of 10 s (ref clock) on HCXL-1x8, no jitter, free I/O:
        // two waves of 8 -> exactly 20 s plus queue control time.
        let cluster = Cluster::provision(EC2_HCXL, 1, 8);
        let cfg = SimConfig {
            storage_latency: LatencyModel::FREE,
            queue_latency: LatencyModel::FREE,
            jitter_sigma: 0.0,
            ..SimConfig::ec2()
        };
        let report = simulate(&cluster, &cpu_tasks(16, 10.0), &cfg);
        assert_eq!(report.summary.tasks, 16);
        assert!(
            (report.summary.makespan_seconds - 20.0).abs() < 1e-6,
            "got {}",
            report.summary.makespan_seconds
        );
    }

    #[test]
    fn queue_latency_adds_overhead() {
        let cluster = Cluster::provision(EC2_HCXL, 1, 8);
        let free = SimConfig {
            storage_latency: LatencyModel::FREE,
            queue_latency: LatencyModel::FREE,
            jitter_sigma: 0.0,
            ..SimConfig::ec2()
        };
        let real = SimConfig {
            jitter_sigma: 0.0,
            ..SimConfig::ec2()
        };
        let t_free = simulate(&cluster, &cpu_tasks(16, 10.0), &free)
            .summary
            .makespan_seconds;
        let t_real = simulate(&cluster, &cpu_tasks(16, 10.0), &real)
            .summary
            .makespan_seconds;
        assert!(t_real > t_free);
        // Overheads are small relative to coarse-grained tasks (the paper's
        // "sufficiently coarser grain task decompositions" conclusion).
        assert!(t_real < t_free * 1.1);
    }

    #[test]
    fn deterministic_given_seed() {
        let cluster = Cluster::provision(EC2_HCXL, 2, 8);
        let cfg = SimConfig::ec2();
        let a = simulate(&cluster, &cpu_tasks(50, 5.0), &cfg);
        let b = simulate(&cluster, &cpu_tasks(50, 5.0), &cfg);
        assert_eq!(a.summary.makespan_seconds, b.summary.makespan_seconds);
        let c = simulate(&cluster, &cpu_tasks(50, 5.0), &cfg.with_seed(7));
        assert_ne!(a.summary.makespan_seconds, c.summary.makespan_seconds);
    }

    #[test]
    fn instance_type_ordering_for_cpu_bound_work() {
        // Figure 4's shape: HM4XL < HCXL < L for the same 16-core workload.
        let tasks = cpu_tasks(200, 20.0);
        let cfg = SimConfig {
            jitter_sigma: 0.0,
            ..SimConfig::ec2()
        };
        let t = |cluster: &Cluster| simulate(cluster, &tasks, &cfg).summary.makespan_seconds;
        let hm = t(&Cluster::provision_per_core(EC2_HM4XL, 2));
        let hc = t(&Cluster::provision_per_core(EC2_HCXL, 2));
        let l = t(&Cluster::provision_per_core(EC2_LARGE, 8));
        assert!(hm < hc, "HM4XL ({hm}) beats HCXL ({hc})");
        assert!(hc < l, "HCXL ({hc}) beats Large ({l})");
    }

    #[test]
    fn failures_cause_redelivery_and_slowdown() {
        let cluster = Cluster::provision(EC2_HCXL, 1, 8);
        let tasks = cpu_tasks(64, 5.0);
        let clean = SimConfig {
            jitter_sigma: 0.0,
            ..SimConfig::ec2()
        };
        let faulty = clean.with_failures(0.2, 60.0);
        let r_clean = simulate(&cluster, &tasks, &clean);
        let r_faulty = simulate(&cluster, &tasks, &faulty);
        assert_eq!(r_clean.redundant_executions(), 0);
        assert!(r_faulty.redundant_executions() > 0);
        assert_eq!(r_faulty.summary.tasks, 64, "every task still completes");
        assert!(r_faulty.summary.makespan_seconds > r_clean.summary.makespan_seconds);
        assert!(r_faulty.worker_deaths > 0);
    }

    #[test]
    fn parallel_efficiency_is_high_for_coarse_tasks() {
        let cluster = Cluster::provision(EC2_HCXL, 2, 8);
        let tasks = cpu_tasks(128, 60.0);
        let cfg = SimConfig::ec2();
        let report = simulate(&cluster, &tasks, &cfg);
        let t1 = sequential_baseline_seconds(&EC2_HCXL, &tasks, &cfg.app);
        let eff = report.summary.efficiency(t1);
        assert!(eff > 0.9, "efficiency {eff}");
        assert!(
            eff <= 1.02,
            "efficiency cannot meaningfully exceed 1: {eff}"
        );
    }

    #[test]
    fn nic_contention_hurts_io_heavy_tasks_only() {
        // Tasks moving 1 GB each: 8 workers sharing a 125 MB/s NIC must
        // serialize; without the NIC every worker gets the storage path.
        let mut io_tasks = cpu_tasks(32, 10.0);
        for t in io_tasks.iter_mut() {
            t.profile.input_bytes = 1 << 30;
        }
        let cluster = Cluster::provision(EC2_HCXL, 1, 8);
        let base = SimConfig {
            jitter_sigma: 0.0,
            ..SimConfig::ec2()
        };
        let with_nic = SimConfig {
            nic_bandwidth_bytes_per_s: Some(125e6),
            ..base
        };
        let free = simulate(&cluster, &io_tasks, &base);
        let contended = simulate(&cluster, &io_tasks, &with_nic);
        assert_eq!(contended.summary.tasks, 32);
        assert!(
            contended.summary.makespan_seconds > 1.5 * free.summary.makespan_seconds,
            "contended {} vs free {}",
            contended.summary.makespan_seconds,
            free.summary.makespan_seconds
        );
        // CPU-bound tasks barely notice the same NIC.
        let cpu = cpu_tasks(32, 10.0);
        let free_cpu = simulate(&cluster, &cpu, &base).summary.makespan_seconds;
        let nic_cpu = simulate(&cluster, &cpu, &with_nic).summary.makespan_seconds;
        assert!(
            nic_cpu < 1.05 * free_cpu,
            "nic {nic_cpu} vs free {free_cpu}"
        );
    }

    #[test]
    fn nic_failure_path_still_completes() {
        let mut io_tasks = cpu_tasks(24, 2.0);
        for t in io_tasks.iter_mut() {
            t.profile.input_bytes = 64 << 20;
        }
        let cluster = Cluster::provision(EC2_HCXL, 1, 4);
        let cfg = SimConfig {
            nic_bandwidth_bytes_per_s: Some(125e6),
            jitter_sigma: 0.0,
            ..SimConfig::ec2().with_failures(0.2, 30.0)
        };
        let report = simulate(&cluster, &io_tasks, &cfg);
        assert_eq!(
            report.summary.tasks, 24,
            "all tasks complete despite failures"
        );
        assert!(report.worker_deaths > 0);
    }

    #[test]
    fn hybrid_fleets_speed_up_the_job() {
        // Cloud-only vs cloud + local cluster on the same queue.
        let cloud = Cluster::provision(EC2_HCXL, 2, 8);
        let local = Cluster::provision(ppc_compute::instance::BARE_CAP3, 2, 8);
        let tasks = cpu_tasks(256, 20.0);
        let cfg = SimConfig {
            jitter_sigma: 0.0,
            ..SimConfig::ec2()
        };
        let solo = simulate(&cloud, &tasks, &cfg);
        let hybrid = simulate_fleets(&[cloud.clone(), local], &tasks, &cfg);
        assert_eq!(hybrid.summary.cores, 32);
        assert_eq!(hybrid.summary.tasks, 256);
        // Double the workers: close to half the time (same clock rate).
        let speedup = solo.summary.makespan_seconds / hybrid.summary.makespan_seconds;
        assert!((1.7..2.2).contains(&speedup), "speedup {speedup}");
    }

    #[test]
    fn trace_records_worker_intervals() {
        let cluster = Cluster::provision(EC2_HCXL, 1, 4);
        let mut cfg = SimConfig {
            storage_latency: LatencyModel::FREE,
            queue_latency: LatencyModel::FREE,
            jitter_sigma: 0.0,
            ..SimConfig::ec2()
        };
        cfg.trace = true;
        let report = simulate(&cluster, &cpu_tasks(12, 10.0), &cfg);
        let timeline = report.timeline.expect("trace requested");
        assert_eq!(timeline.intervals().len(), 12, "one interval per task");
        assert_eq!(timeline.n_workers(), 4);
        // 12 equal tasks on 4 workers: perfectly balanced, fully utilized.
        let util = timeline.utilization(4);
        assert!(util > 0.99, "utilization {util}");
        // Rendering works and shows every worker.
        let art = timeline.render_ascii(40);
        assert_eq!(art.lines().count(), 5, "4 worker rows + axis");
        // Untraced runs carry no timeline.
        cfg.trace = false;
        assert!(simulate(&cluster, &cpu_tasks(4, 1.0), &cfg)
            .timeline
            .is_none());
    }

    #[test]
    fn queue_requests_scale_with_tasks() {
        let cluster = Cluster::provision(EC2_HCXL, 1, 4);
        let report = simulate(&cluster, &cpu_tasks(100, 1.0), &SimConfig::ec2());
        // send + receive + monitor + delete per task, plus idle polls.
        assert!(report.queue_requests >= 400);
    }

    fn autoscale_cfg() -> ppc_autoscale::AutoscaleConfig {
        ppc_autoscale::AutoscaleConfig {
            policy: ppc_autoscale::Policy::TargetBacklog { per_worker: 12.0 },
            min_workers: 1,
            max_workers: 4,
            interval_s: 10.0,
            scale_up_cooldown_s: 30.0,
            scale_down_cooldown_s: 20.0,
            warmup_s: 0.0,
            billing_aware: false,
            billing_window_s: 60.0,
            billing_hour_s: 3600.0,
        }
    }

    fn free_cfg() -> SimConfig {
        SimConfig {
            storage_latency: LatencyModel::FREE,
            queue_latency: LatencyModel::FREE,
            jitter_sigma: 0.0,
            ..SimConfig::ec2()
        }
    }

    #[test]
    fn autoscaled_tracks_backlog_up_and_down() {
        // 48 equal tasks in one burst against a 1..4 elastic fleet with a
        // 12-per-worker target: the fleet must jump to 4 (one burst, one
        // launch decision), then step back down to 1 as the backlog
        // drains — one retirement at a time.
        let report = simulate_autoscaled(
            EC2_HCXL,
            &cpu_tasks(48, 30.0),
            &[],
            &free_cfg(),
            &autoscale_cfg(),
        );
        assert_eq!(report.summary.tasks, 48);
        let fleet = report
            .fleet
            .as_ref()
            .expect("autoscaled run reports its fleet");
        assert_eq!(fleet.timeline.size_sequence(), vec![1, 4, 3, 2, 1]);
        assert_eq!(fleet.peak_fleet(), 4);
        assert!(fleet.mean_fleet() > 1.0 && fleet.mean_fleet() < 4.0);
        // Elastic beats the pinned minimum fleet on makespan.
        let fixed_min = simulate(
            &Cluster::provision(EC2_HCXL, 1, 1),
            &cpu_tasks(48, 30.0),
            &free_cfg(),
        );
        assert!(report.summary.makespan_seconds < fixed_min.summary.makespan_seconds);
    }

    #[test]
    fn autoscaled_is_deterministic() {
        let run = || {
            simulate_autoscaled(
                EC2_HCXL,
                &cpu_tasks(60, 20.0),
                &[],
                &SimConfig::ec2(),
                &autoscale_cfg(),
            )
        };
        let (a, b) = (run(), run());
        assert_eq!(a.summary.makespan_seconds, b.summary.makespan_seconds);
        assert_eq!(
            a.fleet.as_ref().unwrap().timeline.steps(),
            b.fleet.as_ref().unwrap().timeline.steps()
        );
        assert_eq!(a.queue_requests, b.queue_requests);
    }

    #[test]
    fn autoscaled_survives_failures() {
        let cfg = SimConfig {
            jitter_sigma: 0.0,
            ..SimConfig::ec2().with_failures(0.1, 120.0)
        };
        let report =
            simulate_autoscaled(EC2_HCXL, &cpu_tasks(64, 20.0), &[], &cfg, &autoscale_cfg());
        assert_eq!(report.summary.tasks, 64, "every task still completes");
        assert!(report.worker_deaths > 0);
        assert!(report.redundant_executions() > 0);
    }

    #[test]
    fn autoscaled_staggered_arrivals_drive_second_ramp() {
        // Two bursts far apart: the fleet ramps up, drains back to the
        // minimum during the lull, then ramps up again.
        let tasks = cpu_tasks(64, 30.0);
        let arrivals: Vec<f64> = (0..64).map(|i| if i < 32 { 0.0 } else { 2000.0 }).collect();
        let acfg = ppc_autoscale::AutoscaleConfig {
            policy: ppc_autoscale::Policy::TargetBacklog { per_worker: 8.0 },
            ..autoscale_cfg()
        };
        let report = simulate_autoscaled(EC2_HCXL, &tasks, &arrivals, &free_cfg(), &acfg);
        assert_eq!(report.summary.tasks, 64);
        let fleet = report.fleet.unwrap();
        let seq = fleet.timeline.size_sequence();
        let peaks = seq.iter().filter(|&&s| s == 4).count();
        assert!(peaks >= 2, "two ramps expected, got {seq:?}");
        assert_eq!(*seq.last().unwrap(), 1, "fleet returns to minimum");
    }

    #[test]
    fn chaos_schedule_drives_redelivery_slowdown_and_determinism() {
        let cluster = Cluster::provision(EC2_HCXL, 1, 8);
        let tasks = cpu_tasks(64, 5.0);
        let cfg = SimConfig {
            jitter_sigma: 0.0,
            visibility_timeout_s: 60.0,
            ..SimConfig::ec2()
        };
        let schedule = Arc::new(
            FaultSchedule::new(9)
                .kill_at(0, 10.0)
                .kill_at(3, 20.0)
                .kill_mid_execute(1, 1)
                .torn_upload(2, 2)
                .degrade(4, 2.0, 0.0, 100.0)
                .brownout(5.0, 15.0)
                .with_death_probabilities(0.02, 0.02, 0.02),
        );
        let clean = simulate(&cluster, &tasks, &cfg);
        let chaos = simulate_chaos(&cluster, &tasks, &cfg, schedule.clone());
        assert_eq!(chaos.summary.tasks, 64, "every task still completes");
        assert!(chaos.worker_deaths > 0);
        assert!(chaos.redundant_executions() > 0);
        assert!(chaos.summary.makespan_seconds > clean.summary.makespan_seconds);
        // Same schedule, same seed: bit-identical runs.
        let again = simulate_chaos(&cluster, &tasks, &cfg, schedule);
        assert_eq!(
            chaos.summary.makespan_seconds,
            again.summary.makespan_seconds
        );
        assert_eq!(chaos.total_attempts, again.total_attempts);
    }

    #[test]
    #[should_panic(expected = "failure_rate")]
    fn invalid_sim_config_panics_with_message() {
        let cluster = Cluster::provision(EC2_HCXL, 1, 2);
        let cfg = SimConfig::ec2().with_failures(1.5, 60.0);
        simulate(&cluster, &cpu_tasks(2, 1.0), &cfg);
    }

    #[test]
    fn autoscaled_chaos_kill_is_survived_and_deterministic() {
        // Kill an instance mid-run: the controller detects the death,
        // launches a replacement, and every task still completes.
        let cfg = SimConfig {
            visibility_timeout_s: 60.0,
            ..free_cfg()
        };
        let schedule = Arc::new(FaultSchedule::new(3).kill_at(0, 25.0));
        let run = || {
            simulate_autoscaled_chaos(
                EC2_HCXL,
                &cpu_tasks(48, 30.0),
                &[],
                &cfg,
                &autoscale_cfg(),
                Some(schedule.clone()),
            )
        };
        let report = run();
        assert_eq!(report.summary.tasks, 48, "every task still completes");
        let fleet = report.fleet.as_ref().expect("fleet report");
        assert!(fleet.peak_fleet() >= 2);
        let again = run();
        assert_eq!(
            report.summary.makespan_seconds,
            again.summary.makespan_seconds
        );
        assert_eq!(
            report.fleet.unwrap().timeline.steps(),
            again.fleet.unwrap().timeline.steps()
        );
    }

    #[test]
    fn billing_aware_scale_in_wastes_fewer_hours() {
        // A burst that finishes mid-"hour" (compressed to 600 s): the naive
        // policy retires immediately and eats the unused remainder of each
        // instance's billed hour; the billing-aware policy holds instances
        // to their boundary, converting the tail into usable (and billed
        // anyway) headroom. Wasted billed hours must not increase.
        let tasks = cpu_tasks(48, 30.0);
        let naive = autoscale_cfg();
        let aware = ppc_autoscale::AutoscaleConfig {
            billing_aware: true,
            billing_window_s: 60.0,
            billing_hour_s: 600.0,
            ..naive.clone()
        };
        let naive_hours = {
            let mut c = naive;
            c.billing_hour_s = 600.0;
            simulate_autoscaled(EC2_HCXL, &tasks, &[], &free_cfg(), &c)
                .fleet
                .unwrap()
                .wasted_hours
        };
        let aware_hours = simulate_autoscaled(EC2_HCXL, &tasks, &[], &free_cfg(), &aware)
            .fleet
            .unwrap()
            .wasted_hours;
        assert!(
            aware_hours <= naive_hours + 1e-9,
            "aware {aware_hours} vs naive {naive_hours}"
        );
    }

    #[test]
    fn hedging_rescues_gray_straggler() {
        use ppc_resilience::{HedgeConfig, ResiliencePolicy};
        // Worker 0 computes 30× slow for the whole run: without hedging the
        // job waits ~300 s for each task it holds; with hedging a duplicate
        // message lands on a healthy worker and the first result wins.
        let cluster = Cluster::provision(EC2_HCXL, 1, 8);
        let tasks = cpu_tasks(64, 10.0);
        let cfg = SimConfig {
            storage_latency: LatencyModel::FREE,
            queue_latency: LatencyModel::FREE,
            jitter_sigma: 0.0,
            trace: true,
            ..SimConfig::ec2()
        };
        let schedule = Arc::new(FaultSchedule::new(1).degrade(0, 30.0, 0.0, 1e9));
        let run = |policy: Option<ResiliencePolicy>| {
            let mut ctx = RunContext::new(&cluster).with_schedule(schedule.clone());
            if let Some(p) = policy {
                ctx = ctx.with_resilience(p);
            }
            crate::simulate(&ctx, &tasks, &cfg)
        };
        let unhedged = run(None);
        let hedged = run(Some(ResiliencePolicy::hedged(HedgeConfig::quantile(30.0))));
        assert_eq!(unhedged.summary.tasks, 64);
        assert_eq!(hedged.summary.tasks, 64, "first result wins exactly once");
        assert!(
            hedged.summary.makespan_seconds < unhedged.summary.makespan_seconds,
            "hedged {} vs unhedged {}",
            hedged.summary.makespan_seconds,
            unhedged.summary.makespan_seconds
        );
        let trace = hedged.core.trace.as_ref().unwrap();
        assert!(trace.events_of_kind(EventKind::Hedge) > 0, "hedges fired");
        assert!(
            hedged.redundant_executions() > 0,
            "the losing duplicates are visible as redundant executions"
        );
    }

    #[test]
    fn hedge_rearm_advances_the_quantized_clock() {
        use ppc_resilience::{HedgeConfig, ResiliencePolicy};
        // Regression: when an attempt's age landed within half a microsecond
        // of the hedge delay, the re-armed check rounded back onto the same
        // `SimTime` instant and re-fired forever — a zero-advance event
        // livelock. Memory-bound tasks whose service times fall on
        // fractional microseconds reproduce it.
        let cluster = Cluster::provision(EC2_HCXL, 4, 8);
        let tasks: Vec<TaskSpec> = (0..8)
            .map(|i| {
                TaskSpec::new(
                    i,
                    "gtm",
                    format!("gtm/in/p{i:05}.bin"),
                    ResourceProfile {
                        cpu_seconds_ref: 2.5,
                        mem_bytes: 1 << 30,
                        shared_mem_bytes: 0,
                        mem_traffic_bytes: 3_800_000_000,
                        input_bytes: 415_000,
                        output_bytes: 160_000,
                    },
                )
            })
            .collect();
        let ctx = RunContext::new(&cluster)
            .with_seed(42)
            .with_schedule(Arc::new(FaultSchedule::new(42).degrade(0, 30.0, 0.0, 1e9)))
            .with_resilience(ResiliencePolicy::hedged(HedgeConfig::quantile(30.0)));
        let report = crate::simulate(&ctx, &tasks, &SimConfig::ec2());
        assert_eq!(report.summary.tasks, 8);
        assert!(report.summary.makespan_seconds.is_finite());
    }

    #[test]
    fn quarantine_benches_gray_worker() {
        use ppc_resilience::{QuarantineConfig, ResiliencePolicy};
        // With quarantine alone (no hedging), the gray worker is benched
        // off the polling path after two slow completions, so healthy
        // workers absorb the queue and the makespan improves. The job must
        // be long enough for the 10×-slow worker to produce that evidence.
        let cluster = Cluster::provision(EC2_HCXL, 1, 8);
        let tasks = cpu_tasks(512, 10.0);
        let cfg = SimConfig {
            storage_latency: LatencyModel::FREE,
            queue_latency: LatencyModel::FREE,
            jitter_sigma: 0.0,
            trace: true,
            ..SimConfig::ec2()
        };
        let schedule = Arc::new(FaultSchedule::new(1).degrade(0, 10.0, 0.0, 1e9));
        let run = |policy: Option<ResiliencePolicy>| {
            let mut ctx = RunContext::new(&cluster).with_schedule(schedule.clone());
            if let Some(p) = policy {
                ctx = ctx.with_resilience(p);
            }
            crate::simulate(&ctx, &tasks, &cfg)
        };
        let undefended = run(None);
        let policy = ResiliencePolicy::default().with_quarantine(QuarantineConfig {
            min_samples: 2,
            quarantine_s: 1e4, // benched for the rest of the run
            ..QuarantineConfig::default()
        });
        let defended = run(Some(policy));
        assert_eq!(defended.summary.tasks, 512);
        let trace = defended.core.trace.as_ref().unwrap();
        assert!(
            trace.events_of_kind(EventKind::Quarantine) > 0,
            "the gray worker was benched"
        );
        assert!(
            defended.summary.makespan_seconds < undefended.summary.makespan_seconds,
            "defended {} vs undefended {}",
            defended.summary.makespan_seconds,
            undefended.summary.makespan_seconds
        );
    }

    #[test]
    fn deadline_cancels_and_requeues() {
        use ppc_resilience::ResiliencePolicy;
        // A 30× degradation window covers the start of the run; per-task
        // deadlines cut attempts that cannot finish by 60 s and requeue
        // them, so every task still completes exactly once.
        let cluster = Cluster::provision(EC2_HCXL, 1, 8);
        let tasks = cpu_tasks(64, 10.0);
        let cfg = SimConfig {
            storage_latency: LatencyModel::FREE,
            queue_latency: LatencyModel::FREE,
            jitter_sigma: 0.0,
            trace: true,
            ..SimConfig::ec2()
        };
        let schedule = Arc::new(FaultSchedule::new(1).degrade(0, 30.0, 0.0, 1e9));
        let ctx = RunContext::new(&cluster)
            .with_schedule(schedule)
            .with_resilience(ResiliencePolicy::default().with_deadline(60.0));
        let report = crate::simulate(&ctx, &tasks, &cfg);
        assert_eq!(report.summary.tasks, 64, "cancelled tasks are requeued");
        let trace = report.core.trace.as_ref().unwrap();
        assert!(
            trace.events_of_kind(EventKind::Cancel) > 0,
            "deadline breaches cancelled attempts"
        );
        assert!(
            report.summary.makespan_seconds < 64.0 * 300.0,
            "the job does not wait out every gray attempt"
        );
    }
}
