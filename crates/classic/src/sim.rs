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
//!
//! Fixed and elastic fleets run one worker lifecycle (`worker_tick` →
//! `finish_attempt`), as the native runtime runs one body for both. Every
//! attempt lives in one [`AttemptLedger`] partition, since the queue has
//! no worker affinity: it owns launches, redeliveries, hedges, first
//! result wins and the delivery budget (native Classic's default
//! `max_deliveries`), and one timer sends its hedges as queue messages.
//! A `Fleet` holds the few steps that differ: the pre-pull gate,
//! timed-kill detection, when a lost message reappears, and set-up and
//! finalisation. The elastic bookkeeping (dead-instance sweep, fleet
//! ledger close, fleet-event trace replay) is shared with the native
//! runtime.
//!
//! Each worker slot keeps its lifecycle state (live, parked, draining,
//! dead) and its [`ChaosCursor`] in the sim's `workers` table; the run
//! closes through [`RunReport::close`], as every engine's does. The
//! attempt spans stay with `record_attempt` (see its docs).
//!
//! The sim runs on a typed `ppc_des::Engine<Event>`: an event names a
//! worker, a task or a timer, the message a worker pulled sits in the
//! sim's per-worker table until its attempt ends, and the node NICs are
//! typed `FifoServer`s whose completions are events too. The run handler
//! borrows the sim's state and the caller's task list directly.

use crate::elastic;
use crate::report::{ClassicReport, FleetReport};
use crate::spec::DEFAULT_MAX_DELIVERIES;
use ppc_autoscale::{AutoscaleConfig, Controller, Decision, Telemetry};
use ppc_chaos::{ChaosCursor, FaultSchedule};
use ppc_compute::billing::CostBreakdown;
use ppc_compute::cluster::Cluster;
use ppc_compute::instance::InstanceType;
use ppc_compute::model::{task_service_seconds, AppModel};
use ppc_core::metrics::RunSummary;
use ppc_core::rng::{Pcg32, CLIENT_STREAM};
use ppc_core::task::TaskSpec;
use ppc_core::{PpcError, Result};
use ppc_des::{Engine, EventId, FifoServer, Fired, SimTime};
use ppc_exec::{HealthTrace, RunContext, RunReport};
use ppc_resilience::{
    Admit, AttemptId, AttemptLedger, CompleteOutcome, FailOutcome, HealthTracker, ResiliencePolicy,
};
use ppc_storage::latency::LatencyModel;
use ppc_storage::metering::MeteringSnapshot;
use ppc_trace::{EventKind, Phase, Recorder, Span, TraceEvent, TraceSink, NO_WORKER};
use std::collections::VecDeque;
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
    /// P(a task execution is lost before its delete — worker death).
    pub failure_rate: f64,
    /// Visibility timeout: how long a lost task takes to reappear, seconds.
    pub visibility_timeout_s: f64,
    /// Log-normal sigma applied to execution times (run-to-run variation;
    /// the paper measured ~1.5–2.3% CV on the clouds).
    pub jitter_sigma: f64,
    /// Model a shared per-instance NIC: concurrent storage transfers on one
    /// node serialize through a link of this bandwidth (bytes/s, finite and
    /// positive). `None` (default) gives every worker the full
    /// per-connection storage path — the regime where paper-scale tasks
    /// live; enable it to study IO-heavy workloads (the
    /// `ablate_nic_contention` bench). Fixed fleets only: an elastic run
    /// panics on it. The NIC-contention path models quarantine only: a
    /// run whose context policy hedges or sets deadlines panics on it.
    pub nic_bandwidth_bytes_per_s: Option<f64>,
}

impl SimConfig {
    /// EC2-flavored defaults: 2010 S3/SQS latencies, no failures.
    pub fn ec2() -> SimConfig {
        SimConfig {
            storage_latency: LatencyModel::cloud_storage_2010(),
            queue_latency: LatencyModel::cloud_queue_2010(),
            app: AppModel::DEFAULT,
            failure_rate: 0.0,
            visibility_timeout_s: 600.0,
            jitter_sigma: 0.02,
            nic_bandwidth_bytes_per_s: None,
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

    pub fn with_failures(mut self, rate: f64, visibility_timeout_s: f64) -> SimConfig {
        self.failure_rate = rate;
        self.visibility_timeout_s = visibility_timeout_s;
        self
    }

    /// Reject malformed simulation dials with a descriptive error; every
    /// simulation checks this up front.
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
        if let Some(bw) = self.nic_bandwidth_bytes_per_s {
            // `bytes / bw` must be a finite, non-negative transfer time.
            if !bw.is_finite() || bw <= 0.0 {
                return Err(PpcError::InvalidArgument(format!(
                    "sim config: nic_bandwidth_bytes_per_s = {bw} must be finite and positive"
                )));
            }
        }
        Ok(())
    }
}

/// Panic with the validation message when a simulation is handed
/// malformed dials or context — simulators return reports, not `Result`s,
/// so a bad configuration fails loudly rather than silently skewing
/// results.
fn check_sim_inputs(cfg: &SimConfig, ctx: &RunContext) {
    if let Err(e) = cfg.validate().and_then(|()| ctx.validate()) {
        panic!("{e}");
    }
    assert!(
        cfg.nic_bandwidth_bytes_per_s.is_none()
            || !ctx
                .resilience
                .is_some_and(|p| p.hedge.is_some() || p.deadline.is_some()),
        "sim config: hedging and deadlines are not modeled with NIC contention"
    );
}

/// Distribute one attempt's phase spans over `[start_s, end_s]` from the
/// pipeline's modeled durations. The dequeue round-trip opens the attempt
/// and the monitor-send + delete round-trips close it; a failed attempt
/// lumps everything after the download into `execute` (the worker died
/// somewhere in there) and records no terminal ack.
///
/// Unlike the MapReduce and Dryad sims, this does not go through
/// `AttemptMarker`: the upload and ack are anchored on the attempt's end,
/// so NIC queueing shows as a gap between execute and upload, and no
/// boundary is clamped. A marker writes contiguous, clamped phases, which
/// would move the pinned Classic trace digests.
fn record_attempt(
    rec: &Recorder,
    worker: u32,
    task: u64,
    a: &Attempt,
    start_s: f64,
    end_s: f64,
    ok: bool,
) {
    let (t_in, t_exec, t_out, t_ctrl) = a.parts;
    let span = |phase, from: f64, to: f64| {
        rec.span(Span::new(task, a.id.attempt, worker, phase, from, to));
    };
    let c = t_ctrl / 3.0;
    span(Phase::Dequeue, start_s, start_s + c);
    let downloaded = start_s + c + t_in;
    span(Phase::Download, start_s + c, downloaded);
    if ok {
        span(Phase::Execute, downloaded, downloaded + t_exec);
        // Anchor the tail on end_s so NIC queueing delay (if any) lands in
        // the attempt gap between execute and upload.
        let up = end_s - 2.0 * c - t_out;
        span(Phase::Upload, up, up + t_out);
        span(Phase::Ack, up + t_out, end_s);
    } else {
        span(Phase::Execute, downloaded, end_s);
    }
    span(Phase::Attempt, start_s, end_s);
}

/// One simulated worker slot.
struct Worker {
    itype: InstanceType,
    /// Configured workers on this worker's node (drives contention).
    per_node: usize,
    /// The node's shared NIC ([`Sim::nics`]), when NIC contention is
    /// modeled.
    nic: Option<u32>,
    /// The pulled message in this worker's hands, from its pull until
    /// the attempt's end.
    attempt: Option<Attempt>,
    life: Life,
    /// This slot's place in the fault schedule.
    chaos: ChaosCursor,
}

/// A worker slot's lifecycle. Only an elastic fleet's slots drain or die.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Life {
    Live,
    /// Waiting in [`SimState::idle`] for a message.
    Parked,
    /// Told to retire after its in-hand task.
    Draining,
    /// Killed by the schedule: its tick chain ends, and a task in hand at
    /// death is lost to the visibility timeout.
    Dead,
}

impl Worker {
    fn new(itype: InstanceType, per_node: usize, nic: Option<u32>) -> Worker {
        Worker {
            itype,
            per_node,
            nic,
            attempt: None,
            life: Life::Live,
            chaos: ChaosCursor::default(),
        }
    }
}

/// What a fixed and an elastic fleet do differently; everything else in
/// the worker lifecycle is shared.
enum Fleet {
    /// A fixed fleet. Timed kills are detected per task: a kill landing in
    /// a pulled task's service window costs that execution.
    Fixed,
    /// Single-worker instances launched and retired by an autoscale
    /// controller, which also sweeps for timed kills (whole-instance
    /// deaths) on each tick.
    Elastic(Box<Elastic>),
}

struct Elastic {
    itype: InstanceType,
    controller: Controller,
    /// Drained slots whose worker has exited, awaiting confirmation at the
    /// controller's next tick.
    retired_inbox: Vec<u32>,
    /// Virtual time of the controller's last timed-kill sweep.
    last_kill_check_s: f64,
}

/// One visible queue message.
struct Message {
    task: usize,
    /// A hedge copy's attempt, launched in the ledger when it was sent.
    hedge: Option<u32>,
    /// When it became visible: the elastic controller's oldest-message age.
    since_s: f64,
}

struct SimState {
    fleet: Fleet,
    rec: Option<Recorder>,
    /// Every attempt of every task, in one partition. Its failure budget
    /// is the delivery budget: a task that spends it is dead-lettered.
    ledger: AttemptLedger,
    /// The one armed hedge timer and its instant (hedged runs only).
    hedge_timer: Option<(EventId, SimTime)>,
    /// Visible messages, oldest first: every send is a `push_back` at the
    /// current time and every receive a `pop_front`.
    pending: VecDeque<Message>,
    /// Parked workers with nothing to do, the last parked on top. A slot
    /// that drained or died while parked stays here until a send pops
    /// it and passes over it.
    idle: Vec<u32>,
    in_flight: usize,
    executions: usize,
    deaths: usize,
    queue_requests: u64,
    storage_requests: u64,
    remote_bytes: u64,
    bytes_in: u64,
    bytes_out: u64,
    /// The run seed; per-slot RNG streams derive from it.
    seed: u64,
    /// One independent RNG stream per worker slot (jitter, failure dice),
    /// all derived from the run seed — see [`ppc_core::rng::stream_seed`].
    /// Grown on first use, as an elastic fleet scales out.
    rngs: Vec<Pcg32>,
    /// Optional event-based chaos shared with the other engines.
    schedule: Option<Arc<FaultSchedule>>,
    /// Worker quarantine state machine, when the policy asks for one.
    health: Option<HealthTracker>,
    /// When the ledger resolved its last task. On defended runs this is
    /// the makespan — hedged losers may still be draining after it.
    finished_at_s: f64,
}

impl SimState {
    fn new(ctx: &RunContext, n_tasks: usize, fleet: Fleet) -> SimState {
        SimState {
            fleet,
            rec: ctx.trace.then(Recorder::new),
            ledger: AttemptLedger::new(
                vec![0; n_tasks],
                ctx.resilience.and_then(|p| p.hedge),
                DEFAULT_MAX_DELIVERIES,
            ),
            hedge_timer: None,
            pending: VecDeque::new(),
            idle: Vec::new(),
            in_flight: 0,
            executions: 0,
            deaths: 0,
            queue_requests: 0,
            storage_requests: 0,
            remote_bytes: 0,
            bytes_in: 0,
            bytes_out: 0,
            seed: ctx.sim_seed(),
            rngs: Vec::new(),
            schedule: ctx.schedule.clone(),
            health: ctx
                .resilience
                .and_then(|p| p.quarantine)
                .map(HealthTracker::new),
            finished_at_s: 0.0,
        }
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

    /// The report both fleets share; `fleet` is `Some` on elastic runs.
    fn report(
        &self,
        tasks: &[TaskSpec],
        platform: String,
        cores: usize,
        makespan: f64,
        cost: CostBreakdown,
        fleet: Option<FleetReport>,
    ) -> ClassicReport {
        let done = self.ledger.n_done();
        let summary = RunSummary {
            platform,
            cores,
            tasks: done,
            makespan_seconds: makespan,
            redundant_executions: self.executions - done,
            remote_bytes: self.remote_bytes,
        };
        let failed = self.ledger.failed_tasks().into_iter();
        let failed = failed.map(|i| tasks[i].id).collect();
        let (attempts, deaths, rec) = (self.executions, self.deaths, self.rec.as_ref());
        let core = RunReport::close(summary, failed, attempts, deaths, Some(cost), rec);
        ClassicReport {
            timeline: core.trace.as_ref().map(ppc_trace::Trace::to_timeline),
            core,
            queue_requests: self.queue_requests,
            executions_per_fleet: Vec::new(),
            fleet,
            storage: MeteringSnapshot {
                requests: self.storage_requests,
                bytes_in: self.bytes_in,
                bytes_out: self.bytes_out,
                stored_bytes: self.bytes_in,
                peak_stored_bytes: self.bytes_in,
            },
        }
    }
}

/// One Classic-sim event. Each is posted where the sim's logic schedules
/// it, so same-instant events keep their `(at, seq)` tie order.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// A worker polls the queue ([`Sim::worker_tick`]).
    Poll(u32),
    /// A worker's attempt ends ([`Sim::finish_attempt`]).
    Finish(u32),
    /// A lost message of a task becomes visible again.
    Reappear(u32),
    /// The client sends a task's message (elastic arrivals).
    Arrive(u32),
    /// The hedge timer ([`Sim::send_hedges`]).
    Hedge,
    /// An autoscale controller evaluation ([`Sim::controller_tick`]).
    Control,
    /// A worker's transfer through its node's NIC ends: the download, or
    /// with `upload` the upload.
    Transferred { worker: u32, upload: bool },
    /// A worker on the NIC path has computed; its upload joins the NIC.
    Computed(u32),
}

type Des = Engine<Event>;

/// One simulation: the mutable state plus the config, policy and tasks
/// every event reads.
struct Sim<'a> {
    cfg: SimConfig,
    resilience: Option<ResiliencePolicy>,
    /// Each task's id and resource profile: all an attempt reads of it.
    tasks: &'a [TaskSpec],
    /// Every worker slot by index (timeline row); on an elastic fleet,
    /// the controller's slot id.
    workers: Vec<Worker>,
    /// One shared uplink per node when NIC contention is modeled.
    nics: Vec<FifoServer<Event>>,
    st: SimState,
}

impl<'a> Sim<'a> {
    fn new(cfg: &SimConfig, ctx: &RunContext, tasks: &'a [TaskSpec], fleet: Fleet) -> Sim<'a> {
        Sim {
            cfg: *cfg,
            resilience: ctx.resilience,
            tasks,
            workers: Vec::new(),
            nics: Vec::new(),
            st: SimState::new(ctx, tasks.len(), fleet),
        }
    }

    /// Run the calendar dry; returns the final simulated time.
    fn run(&mut self, engine: &mut Des) -> SimTime {
        engine.run_with(|e, fired| match fired {
            Fired::Event(Event::Poll(w)) => self.worker_tick(e, w),
            Fired::Event(Event::Finish(w)) => self.finish_attempt(e, w),
            Fired::Event(Event::Reappear(task)) => self.send(e, task as usize, None),
            Fired::Event(Event::Arrive(task)) => self.arrive(e, task as usize),
            Fired::Event(Event::Hedge) => self.send_hedges(e),
            Fired::Event(Event::Control) => self.controller_tick(e),
            Fired::Event(Event::Transferred { worker, upload }) => {
                self.transferred(e, worker, upload)
            }
            Fired::Event(Event::Computed(w)) => self.computed(e, w),
            Fired::Tick(_) => unreachable!("the Classic sim uses no lane"),
        })
    }
}

/// One pulled message in a worker's hands.
struct Attempt {
    id: AttemptId,
    pulled_s: f64,
    /// Modeled duration, cut at the deadline when `cancelled`.
    duration_s: f64,
    /// `(t_in, t_exec, t_out, t_ctrl)` for the trace spans.
    parts: (f64, f64, f64, f64),
    /// The attempt dies before its delete (dice, torn upload, timed kill).
    fails: bool,
    /// The attempt overruns its deadline and is cut there.
    cancelled: bool,
}

/// The fixed-fleet simulation: every worker slot of every fleet polls
/// the shared scheduling queue in virtual time — the simulated twin of
/// the native [`crate::run`] on fixed fleets, for paper-scale what-if
/// studies ("how much does adding my local cluster to the cloud fleet
/// help?").
/// The client pushes every message, shuffled, at t = 0. Reached through
/// [`crate::simulate`], which resolves the `RunContext`.
pub(crate) fn sim_fleets_impl(
    fleets: &[Cluster],
    tasks: &[TaskSpec],
    cfg: &SimConfig,
    ctx: &RunContext,
) -> ClassicReport {
    assert!(!tasks.is_empty(), "no tasks to simulate");
    assert!(!fleets.is_empty(), "no fleets to simulate");
    check_sim_inputs(cfg, ctx);
    let total_workers: usize = fleets.iter().map(Cluster::total_workers).sum();
    let mut sim = Sim::new(cfg, ctx, tasks, Fleet::Fixed);
    {
        let st = &mut sim.st;
        // The client's shuffle and the workers' jitter/failure dice draw
        // from independent streams of the one run seed.
        let mut client_rng = Pcg32::for_stream(st.seed, CLIENT_STREAM);
        // The queue has no ordering guarantee; workers see a shuffled
        // stream. Every message is visible from t = 0.
        let mut order: Vec<Message> = (0..tasks.len())
            .map(|task| Message {
                task,
                hedge: None,
                since_s: 0.0,
            })
            .collect();
        client_rng.shuffle(&mut order);
        st.pending = order.into();
        st.queue_requests = tasks.len() as u64; // the client's sends
        if let Some(rec) = &st.rec {
            for t in tasks {
                rec.span(Span::new(t.id.0, 0, NO_WORKER, Phase::Enqueue, 0.0, 0.0));
            }
        }
    }

    let mut engine = Des::typed();
    for cluster in fleets {
        for node in cluster.nodes() {
            // One shared uplink per instance (serializes that node's
            // concurrent storage transfers) when NIC modeling is on.
            let nic = cfg.nic_bandwidth_bytes_per_s.map(|_| {
                sim.nics.push(FifoServer::new());
                (sim.nics.len() - 1) as u32
            });
            for _slot in 0..node.workers {
                engine.post_at(SimTime::ZERO, Event::Poll(sim.workers.len() as u32));
                sim.workers
                    .push(Worker::new(cluster.itype(), node.workers, nic));
            }
        }
    }

    let end = sim.run(&mut engine);
    let st = &sim.st;
    // On defended runs the job is over when the last unique result commits;
    // hedged losers draining afterwards stretch the engine, not the job.
    let makespan = if ctx.resilience.is_some() && st.finished_at_s > 0.0 {
        st.finished_at_s
    } else {
        end.as_secs_f64()
    };
    st.report(
        tasks,
        format!("classic-sim-{}", fleets[0].itype().name),
        total_workers,
        makespan,
        crate::report::fleets_cost(fleets, makespan),
        None,
    )
}

/// The elastic simulation: single-worker instances of `itype` launched
/// and retired in virtual time by a `ppc-autoscale` [`Controller`] — the
/// simulated twin of the native [`crate::run`] on an elastic fleet,
/// sharing its decision logic and billing exactly (both engines drive the
/// same pure state machine, so a deterministic workload yields the same
/// fleet-size trajectory). `arrivals[i]` is the virtual second at which
/// `tasks[i]` enters the queue (empty: all at t = 0); delivery is FIFO
/// (no shuffle) to keep elastic runs reproducible. Under a
/// [`FaultSchedule`], timed kills take whole instances down (the
/// controller detects the death, records it, and launches a replacement
/// with the scale-up cooldown waived). Reached through
/// [`crate::simulate`].
pub(crate) fn sim_autoscaled_impl(
    itype: InstanceType,
    tasks: &[TaskSpec],
    arrivals: &[f64],
    cfg: &SimConfig,
    autoscale: &AutoscaleConfig,
    ctx: &RunContext,
) -> ClassicReport {
    assert!(!tasks.is_empty(), "no tasks to simulate");
    if let Err(e) = elastic::check_arrivals(arrivals, tasks.len()) {
        panic!("{e}");
    }
    check_sim_inputs(cfg, ctx);
    // Elastic workers have no per-instance NIC model: refuse the dial
    // rather than report a run that silently ignored it.
    assert!(
        cfg.nic_bandwidth_bytes_per_s.is_none(),
        "sim config: nic_bandwidth_bytes_per_s is modeled on fixed fleets only, not on an elastic fleet"
    );
    let fleet = Fleet::Elastic(Box::new(Elastic {
        itype,
        controller: Controller::new(autoscale.clone()),
        retired_inbox: Vec::new(),
        last_kill_check_s: 0.0,
    }));
    let mut sim = Sim::new(cfg, ctx, tasks, fleet);

    let mut engine = Des::typed();
    // Arrivals first, so that same-instant arrivals precede the worker
    // ticks of the initial fleet (events fire in insertion order).
    for task in 0..tasks.len() {
        let at = arrivals.get(task).copied().unwrap_or(0.0);
        engine.post_at(SimTime::from_secs_f64(at), Event::Arrive(task as u32));
    }
    for slot in 0..autoscale.min_workers {
        sim.workers.push(Worker::new(itype, 1, None));
        engine.post_at(SimTime::ZERO, Event::Poll(slot));
    }
    engine.post_in(SimTime::from_secs_f64(autoscale.interval_s), Event::Control);

    let end = sim.run(&mut engine);
    let st = &mut sim.st;
    let makespan = if st.finished_at_s > 0.0 {
        st.finished_at_s
    } else {
        end.as_secs_f64()
    };

    let Fleet::Elastic(el) = &mut st.fleet else {
        unreachable!("an elastic run holds an elastic fleet")
    };
    let exited = std::mem::take(&mut el.retired_inbox);
    let fleet = elastic::close_fleet(&mut el.controller, exited, makespan, itype);
    if let Some(rec) = &st.rec {
        elastic::trace_fleet_events(&el.controller, rec);
    }
    st.report(
        tasks,
        format!("classic-sim-autoscale-{}", itype.name),
        fleet.peak_fleet() as usize,
        makespan,
        fleet.cost,
        Some(fleet),
    )
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

impl Sim<'_> {
    /// Make a message of `task` visible now, waking the last parked
    /// worker, if any (one message, one worker).
    fn send(&mut self, engine: &mut Des, task: usize, hedge: Option<u32>) {
        let since_s = engine.now().as_secs_f64();
        self.st.pending.push_back(Message {
            task,
            hedge,
            since_s,
        });
        while let Some(w) = self.st.idle.pop() {
            let life = &mut self.workers[w as usize].life;
            if *life == Life::Parked {
                *life = Life::Live;
                engine.post_in(SimTime::ZERO, Event::Poll(w));
                break;
            }
        }
    }

    /// The pre-pull gate. Fixed-fleet workers always poll. An elastic slot
    /// stops once the job is done or its instance died; a draining slot
    /// holds no lease between tasks, so it retires here.
    fn may_pull(&mut self, w: u32) -> bool {
        let Fleet::Elastic(el) = &mut self.st.fleet else {
            return true;
        };
        match self.workers[w as usize].life {
            _ if self.st.ledger.is_complete() => false,
            Life::Draining => {
                el.retired_inbox.push(w);
                false
            }
            life => life == Life::Live,
        }
    }

    /// The client's send of `task`'s message on an elastic fleet.
    fn arrive(&mut self, engine: &mut Des, task: usize) {
        let now = engine.now().as_secs_f64();
        self.st.queue_requests += 1; // the client's send
        if let Some(rec) = &self.st.rec {
            let id = self.tasks[task].id.0;
            rec.span(Span::new(id, 0, NO_WORKER, Phase::Enqueue, now, now));
        }
        self.send(engine, task, None);
    }

    /// One worker iteration, on either fleet: pass the pre-pull gate and
    /// the quarantine gate, pull the next message (or park), model the
    /// receive → download → execute → upload → report → delete pipeline,
    /// and schedule the attempt's end ([`Sim::finish_attempt`]).
    fn worker_tick(&mut self, engine: &mut Des, w: u32) {
        let cfg = self.cfg;
        let now_s = engine.now().as_secs_f64();
        if !self.may_pull(w) {
            return;
        }
        let st = &mut self.st;
        // Quarantine gate: a benched worker pulls nothing until its
        // sentence expires, then re-enters through probation.
        let admit = st.health.as_mut().map_or(Admit::Go, |tracker| {
            tracker.admit(w, now_s, &HealthTrace(st.rec.as_ref()))
        });
        if let Admit::Benched { until_s } = admit {
            let wake = strictly_after_now(engine.now(), until_s);
            engine.post_at(SimTime::from_secs_f64(wake), Event::Poll(w));
            return;
        }

        // Pull the next message and model the full pipeline duration for it.
        st.queue_requests += 1; // the receive call
        let id = loop {
            let Some(m) = st.pending.pop_front() else {
                // Nothing visible: park; a redelivery event will wake us.
                self.workers[w as usize].life = Life::Parked;
                st.idle.push(w);
                return;
            };
            // The delivery step both Classic engines share: a message of a
            // resolved task, or one past its task's budget, is deleted.
            match st.ledger.deliver(m.task, m.hedge, now_s) {
                Some(id) => break id,
                None => st.queue_requests += 1, // the dropped message's delete
            }
        };
        let profile = self.tasks[id.task].profile;
        st.executions += 1;
        st.storage_requests += 2;
        st.bytes_in += profile.output_bytes;
        st.bytes_out += profile.input_bytes;
        st.remote_bytes += profile.input_bytes + profile.output_bytes;
        st.in_flight += 1;

        let worker = &mut self.workers[w as usize];
        let mut t_in = cfg.storage_latency.transfer_seconds(profile.input_bytes);
        let t_out = cfg.storage_latency.transfer_seconds(profile.output_bytes);
        let t_exec_base = task_service_seconds(&worker.itype, worker.per_node, &profile, &cfg.app);
        let jitter = if cfg.jitter_sigma > 0.0 {
            st.rng(w).log_normal(0.0, cfg.jitter_sigma)
        } else {
            1.0
        };
        let mut t_exec = t_exec_base * jitter;
        // receive + monitor-send + delete round trips.
        let t_ctrl = 3.0 * cfg.queue_latency.request_seconds();
        st.queue_requests += 2; // monitor send + delete
        let mut fails = cfg.failure_rate > 0.0 && st.rng(w).chance(cfg.failure_rate);
        let schedule = st.schedule.as_deref();
        if let Some(schedule) = schedule {
            // Gray failure: a degraded worker computes slower.
            t_exec *= schedule.slowdown(w, now_s);
            // Storage outage: the fetch's retries ride the window out, so
            // the download stalls until the outage closes.
            if let Some(until) = schedule.storage_outage_until(now_s) {
                t_in += until - now_s;
            }
        }
        let mut duration_s = t_in + t_exec + t_out + t_ctrl;
        // Per-task deadline: an attempt that would outlive the timeout is
        // cut there and the message re-sent immediately (cancel-and-requeue).
        let cancelled = match self.resilience.and_then(|p| p.deadline) {
            Some(d) if duration_s > d.timeout_s => {
                duration_s = d.timeout_s;
                true
            }
            _ => false,
        };
        if let Some(schedule) = schedule {
            // Deaths: a pipeline-point die roll, a torn upload, or a timed
            // kill landing inside this task's service window (cut at the
            // deadline) all cost this execution — the message reappears
            // after the visibility timeout, matching the native engine's
            // recovery story. A death outranks the cut. Elastic fleets
            // leave timed kills to the controller's sweep.
            let window_end = matches!(st.fleet, Fleet::Fixed).then_some(now_s + duration_s);
            fails = worker.chaos.roll(schedule, w, window_end).fails || fails;
        }
        let parts = if cancelled {
            (t_in.min(duration_s), 0.0, 0.0, 0.0)
        } else {
            (t_in, t_exec, t_out, t_ctrl)
        };
        let nic = worker.nic;
        worker.attempt = Some(Attempt {
            id,
            pulled_s: now_s,
            duration_s,
            parts,
            fails,
            cancelled,
        });

        // NIC contention: route the two transfers through the node's
        // shared uplink — concurrent transfers on one instance serialize.
        // Download (storage latency + NIC occupancy) -> compute -> upload
        // (NIC occupancy) -> control -> end.
        if let (Some(nic), Some(bw)) = (nic, cfg.nic_bandwidth_bytes_per_s) {
            let t_nic_in = SimTime::from_secs_f64(profile.input_bytes as f64 / bw);
            let done = Event::Transferred {
                worker: w,
                upload: false,
            };
            self.nics[nic as usize].submit(engine, t_nic_in, done);
            return;
        }

        self.sync_hedge_timer(engine);
        // A fixed fleet's lost message reappears one visibility timeout
        // after its pull, so its redelivery is scheduled now, ahead of the
        // death.
        if fails && matches!(self.st.fleet, Fleet::Fixed) {
            let at = engine.now() + SimTime::from_secs_f64(cfg.visibility_timeout_s);
            engine.post_at(at, Event::Reappear(id.task as u32));
        }
        engine.post_in(SimTime::from_secs_f64(duration_s), Event::Finish(w));
    }

    /// A NIC transfer of worker `w` ended. The node's uplink passes to its
    /// next waiting transfer *before* the attempt moves on, so that
    /// transfer's end ties ahead of the next step posted here: after the
    /// download, download latency and compute; after the upload, the
    /// upload latency and control round trips, then the attempt's end.
    fn transferred(&mut self, engine: &mut Des, w: u32, upload: bool) {
        let worker = &self.workers[w as usize];
        let nic = worker
            .nic
            .expect("a NIC transfer on a worker without a NIC");
        let (t_in, t_exec, t_out, t_ctrl) = worker
            .attempt
            .as_ref()
            .expect("a NIC transfer without an attempt")
            .parts;
        self.nics[nic as usize].finish(engine);
        if upload {
            engine.post_in(SimTime::from_secs_f64(t_out + t_ctrl), Event::Finish(w));
        } else {
            engine.post_in(SimTime::from_secs_f64(t_in + t_exec), Event::Computed(w));
        }
    }

    /// Worker `w` on the NIC path has computed: its upload joins the NIC.
    fn computed(&mut self, engine: &mut Des, w: u32) {
        let worker = &self.workers[w as usize];
        let nic = worker.nic.expect("a NIC upload on a worker without a NIC");
        let task = worker
            .attempt
            .as_ref()
            .expect("a NIC upload without an attempt")
            .id
            .task;
        let bw = self
            .cfg
            .nic_bandwidth_bytes_per_s
            .expect("a NIC upload without NIC bandwidth");
        let t_nic_out = SimTime::from_secs_f64(self.tasks[task].profile.output_bytes as f64 / bw);
        let done = Event::Transferred {
            worker: w,
            upload: true,
        };
        self.nics[nic as usize].submit(engine, t_nic_out, done);
    }

    /// The end of an attempt, on either fleet: a commit (first result
    /// wins), a death (dice, torn upload, timed kill, or — on an elastic
    /// fleet — the whole instance), or a deadline cancel that re-sends the
    /// message at once. A failed attempt's message is re-sent only while
    /// the ledger retries its task; a fixed fleet's reappearance, scheduled
    /// at the pull, is deleted at its pull instead. Scores the worker's
    /// health, records the attempt's spans, and polls again unless the
    /// instance died.
    fn finish_attempt(&mut self, engine: &mut Des, w: u32) {
        let now = engine.now().as_secs_f64();
        let worker = &mut self.workers[w as usize];
        let nic = worker.nic.is_some();
        let a = worker
            .attempt
            .take()
            .expect("an attempt end without an attempt");
        // A whole-instance death (elastic fleets only).
        let slot_died = worker.life == Life::Dead;
        let st = &mut self.st;
        let fixed = matches!(st.fleet, Fleet::Fixed);
        let lost = a.fails || slot_died;
        let cancel = a.cancelled && !a.fails && !slot_died;
        let ok = !lost && !cancel;
        // The NIC path measures its latency end to end (it includes
        // queueing on the shared link); otherwise it is the modeled
        // duration.
        let latency_s = if nic { now - a.pulled_s } else { a.duration_s };
        st.in_flight -= 1;
        // First result wins: a hedged loser's output is discarded (its
        // time shows up as wasted duplicate work in the trace).
        let (resolved, retried) = if ok {
            (
                st.ledger.complete_at(a.id, now) == CompleteOutcome::First,
                false,
            )
        } else {
            st.deaths += usize::from(!cancel);
            let outcome = st.ledger.fail(a.id);
            (
                outcome == FailOutcome::TaskFailed,
                outcome == FailOutcome::Retried,
            )
        };
        if resolved && st.ledger.is_complete() {
            st.finished_at_s = now;
        }
        // A whole-instance death is no evidence against the worker slot.
        if let Some(h) = st.health.as_mut().filter(|_| !slot_died) {
            h.record(
                w,
                ok.then_some(latency_s),
                now,
                &HealthTrace(st.rec.as_ref()),
            );
        }
        if let Some(rec) = &st.rec {
            // A fixed fleet stamps a lost or cancelled attempt back from
            // its end by the modeled duration.
            let start_s = if fixed && !nic && (lost || cancel) {
                now - a.duration_s
            } else {
                a.pulled_s
            };
            record_attempt(rec, w, self.tasks[a.id.task].id.0, &a, start_s, now, ok);
            // Whole-instance deaths are the controller's events; only
            // per-task deaths are recorded here.
            let kind = if cancel {
                Some(EventKind::Cancel)
            } else {
                (a.fails && !slot_died).then_some(EventKind::Death)
            };
            if let Some(kind) = kind {
                rec.event(TraceEvent {
                    at_s: now,
                    worker: w,
                    kind,
                });
            }
        }
        self.sync_hedge_timer(engine);
        let task = a.id.task;
        if cancel {
            // Cancel-and-requeue: the worker deleted its lease and re-sent
            // the message, so the retry is visible immediately.
            if retried {
                self.st.queue_requests += 1; // the cancel's re-send
                self.send(engine, task, None);
            }
            // Re-poll as an event *after* the wake above, so a woken
            // healthy worker claims the requeued message ahead of this
            // (possibly gray) worker — a direct call here would livelock a
            // lone gray worker on its own cancelled task.
            engine.post_in(SimTime::ZERO, Event::Poll(w));
            return;
        }
        if lost && retried {
            // The undeleted message reappears one visibility timeout after
            // its receive. A fixed fleet already scheduled that at the
            // pull, except on the NIC path, whose timeout runs from the
            // attempt's end; an elastic fleet's message reappears no
            // earlier than now.
            let vt = self.cfg.visibility_timeout_s;
            if !fixed {
                let at = SimTime::from_secs_f64((a.pulled_s + vt).max(now));
                engine.post_at(at, Event::Reappear(task as u32));
            } else if nic {
                let at = engine.now() + SimTime::from_secs_f64(vt);
                engine.post_at(at, Event::Reappear(task as u32));
            }
        }
        if !slot_died {
            // The worker (or a dead worker's replacement) polls again at
            // once.
            self.worker_tick(engine, w);
        }
    }

    /// Keep the one hedge timer aimed at the ledger's earliest hedge
    /// time: re-armed (the old one cancelled) when that time moves,
    /// dropped when there is none. Unhedged runs never arm it.
    fn sync_hedge_timer(&mut self, engine: &mut Des) {
        let st = &mut self.st;
        let want = st
            .ledger
            .earliest_hedge_s(0)
            .map(|at_s| SimTime::from_secs_f64(strictly_after_now(engine.now(), at_s)));
        if st.hedge_timer.map(|(_, at)| at) == want {
            return;
        }
        if let Some((timer, _)) = st.hedge_timer.take() {
            engine.cancel(timer);
        }
        if let Some(at) = want {
            st.hedge_timer = Some((engine.post_at(at, Event::Hedge), at));
        }
    }

    /// The hedge timer: send a duplicate message of each task the ledger
    /// hedges now, oldest first, then re-aim the timer. The Classic Cloud
    /// hedge is a queue re-dispatch, since the queue has no worker
    /// affinity and any idle worker picks the copy up; the loser runs to
    /// completion.
    fn send_hedges(&mut self, engine: &mut Des) {
        let now = engine.now().as_secs_f64();
        self.st.hedge_timer = None;
        while let Some(hedge) = self.st.ledger.launch_hedge(0, now) {
            self.st.queue_requests += 1; // the duplicate's send
            if let Some(rec) = &self.st.rec {
                rec.event(TraceEvent {
                    at_s: now,
                    worker: NO_WORKER,
                    kind: EventKind::Hedge,
                });
            }
            self.send(engine, hedge.task, Some(hedge.attempt));
        }
        self.sync_hedge_timer(engine);
    }

    /// One controller evaluation in virtual time: confirm retirements,
    /// sweep for timed kills, take a telemetry snapshot, apply the
    /// decision, and reschedule — until the job completes, after which the
    /// tick chain ends and the engine drains.
    fn controller_tick(&mut self, engine: &mut Des) {
        let now_s = engine.now().as_secs_f64();
        let SimState {
            fleet,
            schedule,
            pending,
            in_flight,
            ledger,
            ..
        } = &mut self.st;
        let Fleet::Elastic(el) = fleet else {
            unreachable!("only elastic fleets have a controller")
        };
        let exited = std::mem::take(&mut el.retired_inbox);
        elastic::confirm_exits(&mut el.controller, exited, now_s);
        // Dead-instance sweep: a timed kill addressed to a live slot takes
        // the whole instance down. `mark_dead` records the death and
        // waives the scale-up cooldown so `decide` below can launch a
        // replacement on this very tick.
        if let Some(schedule) = schedule {
            let from_s = el.last_kill_check_s;
            for id in elastic::dead_slots(&el.controller, schedule, from_s, now_s) {
                el.controller.mark_dead(id, now_s);
                self.workers[id as usize].life = Life::Dead;
            }
        }
        el.last_kill_check_s = now_s;
        if ledger.is_complete() {
            return; // no more ticks: let the engine run dry
        }
        let telemetry = Telemetry {
            queued: pending.len(),
            in_flight: *in_flight,
            // Sends append at the current time: the front is the oldest.
            oldest_age_s: pending.front().map(|m| (now_s - m.since_s).max(0.0)),
        };
        let launches = match el.controller.decide(now_s, &telemetry) {
            Decision::Launch { ids } => ids,
            Decision::Drain { ids } => {
                for id in ids {
                    let life = &mut self.workers[id as usize].life;
                    if *life == Life::Parked {
                        // An idle victim holds no lease: retire right now.
                        el.controller.confirm_retired(id, now_s);
                    }
                    *life = Life::Draining;
                }
                Vec::new()
            }
            Decision::Hold => Vec::new(),
        };
        let acfg = el.controller.config();
        let (warmup_s, interval_s) = (acfg.warmup_s, acfg.interval_s);
        for id in launches {
            assert_eq!(id as usize, self.workers.len(), "slot ids must be dense");
            self.workers.push(Worker::new(el.itype, 1, None));
            engine.post_in(SimTime::from_secs_f64(warmup_s), Event::Poll(id));
        }
        engine.post_in(SimTime::from_secs_f64(interval_s), Event::Control);
    }
}

/// Equation 1's sequential baseline on this instance type: all tasks back to
/// back on one otherwise-idle core, inputs local (no transfer terms).
pub fn sequential_baseline_seconds(
    itype: &InstanceType,
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
    use ppc_exec::RunContext;

    fn cpu_tasks(n: u64, secs: f64) -> Vec<TaskSpec> {
        (0..n)
            .map(|i| TaskSpec::new(i, "cap3", format!("f{i}"), ResourceProfile::cpu_bound(secs)))
            .collect()
    }

    // Every simulation below goes through the harness entry point
    // (`crate::simulate` + a `RunContext`); these helpers spell out the
    // context each shape needs.
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
        let ctx = RunContext::new(&cluster).with_seed(7);
        let c = crate::simulate(&ctx, &cpu_tasks(50, 5.0), &cfg);
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
        let cfg = SimConfig {
            storage_latency: LatencyModel::FREE,
            queue_latency: LatencyModel::FREE,
            jitter_sigma: 0.0,
            ..SimConfig::ec2()
        };
        let traced = RunContext::new(&cluster).with_trace(true);
        let report = crate::simulate(&traced, &cpu_tasks(12, 10.0), &cfg);
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
    fn validate_rejects_a_degenerate_nic_bandwidth() {
        // `bytes / bw` would be infinite or negative, and `SimTime` clamps
        // both to zero: a dead link would act as an infinitely fast one.
        for bw in [0.0, -1e6, f64::NAN, f64::INFINITY] {
            let cfg = SimConfig {
                nic_bandwidth_bytes_per_s: Some(bw),
                ..SimConfig::ec2()
            };
            let err = cfg.validate().unwrap_err();
            assert!(
                matches!(&err, PpcError::InvalidArgument(m) if m.contains("nic_bandwidth")),
                "{bw}: {err}"
            );
        }
        let ok = SimConfig {
            nic_bandwidth_bytes_per_s: Some(125e6),
            ..SimConfig::ec2()
        };
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn simulate_rejects_hedge_or_deadline_with_nic_contention() {
        use ppc_resilience::{HedgeConfig, QuarantineConfig};
        let cluster = Cluster::provision(EC2_HCXL, 1, 2);
        let nic = SimConfig {
            nic_bandwidth_bytes_per_s: Some(125e6),
            ..SimConfig::ec2()
        };
        let run = |policy: ResiliencePolicy| {
            let ctx = RunContext::new(&cluster).with_resilience(policy);
            crate::simulate(&ctx, &cpu_tasks(2, 1.0), &nic)
        };
        for policy in [
            ResiliencePolicy::hedged(HedgeConfig::quantile(20.0)),
            ResiliencePolicy::default().with_deadline(60.0),
        ] {
            let panic = std::panic::catch_unwind(|| run(policy)).expect_err("must panic");
            let msg = panic.downcast_ref::<&str>().expect("static message");
            assert!(msg.contains("NIC"), "{msg}");
        }
        // Quarantine is modeled on the NIC path.
        let quarantine = ResiliencePolicy::default().with_quarantine(QuarantineConfig::default());
        assert_eq!(run(quarantine).summary.tasks, 2);
    }

    #[test]
    #[should_panic(expected = "nic_bandwidth_bytes_per_s is modeled on fixed fleets only")]
    fn elastic_fleet_rejects_nic_contention() {
        // A 1-B/s link would stall every transfer; an elastic run must not
        // quietly report the NIC-free makespan instead.
        let cfg = SimConfig {
            nic_bandwidth_bytes_per_s: Some(1.0),
            ..free_cfg()
        };
        simulate_autoscaled_chaos(
            EC2_HCXL,
            &cpu_tasks(4, 1.0),
            &[],
            &cfg,
            &autoscale_cfg(),
            None,
        );
    }

    #[test]
    fn elastic_fleet_rejects_bad_arrivals() {
        // A negative, NaN or infinite offset must fail loudly, not be
        // clamped to t = 0.
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            let panic = std::panic::catch_unwind(|| {
                simulate_autoscaled(
                    EC2_HCXL,
                    &cpu_tasks(2, 1.0),
                    &[0.0, bad],
                    &free_cfg(),
                    &autoscale_cfg(),
                )
            })
            .expect_err("a bad arrival offset must panic");
            let msg = panic.downcast_ref::<String>().expect("formatted message");
            assert!(msg.contains("arrival offset 1 is"), "{bad}: {msg}");
        }
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
            ..SimConfig::ec2()
        };
        let schedule = Arc::new(FaultSchedule::new(1).degrade(0, 30.0, 0.0, 1e9));
        let run = |policy: Option<ResiliencePolicy>| {
            let mut ctx = RunContext::new(&cluster)
                .with_schedule(schedule.clone())
                .with_trace(true);
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
            ..SimConfig::ec2()
        };
        let schedule = Arc::new(FaultSchedule::new(1).degrade(0, 10.0, 0.0, 1e9));
        let run = |policy: Option<ResiliencePolicy>| {
            let mut ctx = RunContext::new(&cluster)
                .with_schedule(schedule.clone())
                .with_trace(true);
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
    fn deadline_cut_comes_before_a_later_kill() {
        use ppc_resilience::ResiliencePolicy;
        // Worker 0 runs 30x slow and is killed at 100 s; the 60 s deadline
        // cuts each of its attempts. The kill lands in its second cut
        // attempt, which dies: the death outranks the cut.
        let cluster = Cluster::provision(EC2_HCXL, 1, 2);
        let cfg = SimConfig {
            jitter_sigma: 0.0,
            ..SimConfig::ec2()
        };
        let schedule = FaultSchedule::new(11)
            .degrade(0, 30.0, 0.0, 1e9)
            .kill_at(0, 100.0);
        let ctx = RunContext::new(&cluster)
            .with_schedule(Arc::new(schedule))
            .with_resilience(ResiliencePolicy::default().with_deadline(60.0))
            .with_trace(true);
        let report = crate::simulate(&ctx, &cpu_tasks(20, 10.0), &cfg);
        assert_eq!(report.summary.tasks, 20);
        assert_eq!(report.worker_deaths, 1, "the kill is not lost");
        let trace = report.core.trace.as_ref().unwrap();
        let deaths: Vec<_> = trace
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::Death)
            .map(|e| (e.worker, e.at_s))
            .collect();
        assert_eq!(deaths.len(), 1);
        let (worker, at_s) = deaths[0];
        assert_eq!(worker, 0);
        assert!((120.0..121.0).contains(&at_s), "death at {at_s}");
    }

    #[test]
    fn lone_gray_worker_under_a_deadline_dead_letters_its_tasks() {
        use ppc_core::task::TaskId;
        use ppc_resilience::ResiliencePolicy;
        use std::sync::mpsc;
        use std::time::Duration;
        // Regression: with no delivery budget, a lone 30x-slow worker cut
        // at every 60-s deadline requeued the same two tasks for as long
        // as its gray window lasted (~16.7 M attempts for this 1e9-s one).
        // Each task now fails after native Classic's 5 deliveries, on a
        // fixed fleet and on a one-instance elastic fleet, whose
        // controller tick chain must end.
        let (tx, rx) = mpsc::channel();
        let sim = std::thread::spawn(move || {
            let gray = || FaultSchedule::new(11).degrade(0, 30.0, 0.0, 1e9);
            let policy = ResiliencePolicy::default().with_deadline(60.0);
            let one_instance = AutoscaleConfig {
                min_workers: 1,
                max_workers: 1,
                ..autoscale_cfg()
            };
            let fixed = RunContext::new(&Cluster::provision(EC2_HCXL, 1, 1))
                .with_schedule(Arc::new(gray().kill_at(0, 100.0)));
            let elastic = RunContext::elastic(EC2_HCXL, one_instance, Vec::new())
                .with_schedule(Arc::new(gray()));
            let reports = [fixed, elastic].map(|ctx| {
                let ctx = ctx.with_resilience(policy).with_trace(true);
                crate::simulate(&ctx, &cpu_tasks(2, 10.0), &SimConfig::ec2())
            });
            tx.send(reports).unwrap();
        });
        let reports = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the run returns");
        sim.join().expect("the sim thread finishes cleanly");
        for (fleet, report) in ["fixed", "elastic"].into_iter().zip(reports) {
            assert_eq!(report.failed, vec![TaskId(0), TaskId(1)], "{fleet}");
            assert_eq!(report.summary.tasks, 0, "{fleet}");
            assert_eq!(report.total_attempts, 10, "{fleet}");
            let trace = report.core.trace.as_ref().unwrap();
            for task in 0..2 {
                let attempts: Vec<u32> = trace
                    .spans()
                    .iter()
                    .filter(|s| s.task == task && s.phase == Phase::Attempt)
                    .map(|s| s.attempt)
                    .collect();
                assert_eq!(attempts, [0, 1, 2, 3, 4], "{fleet}: task {task}");
            }
        }
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
            ..SimConfig::ec2()
        };
        let schedule = Arc::new(FaultSchedule::new(1).degrade(0, 30.0, 0.0, 1e9));
        let ctx = RunContext::new(&cluster)
            .with_schedule(schedule)
            .with_resilience(ResiliencePolicy::default().with_deadline(60.0))
            .with_trace(true);
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
