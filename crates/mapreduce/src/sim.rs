//! The simulated Hadoop runtime (discrete-event, virtual time).
//!
//! Drives the *same* [`crate::scheduler::Scheduler`] as the native runtime,
//! but workers and time are virtual: task execution times come from the
//! calibrated service-time model, input reads cost local-disk or
//! intra-cluster-network time depending on the locality of the assignment,
//! and each task pays Hadoop's per-task dispatch overhead.
//!
//! Compared to the Classic Cloud simulation the differences are exactly the
//! paper's Table 3 rows: data is on local disks (no cloud-storage transfer),
//! scheduling adds locality awareness, and fault tolerance is re-execution
//! plus speculative duplicates rather than queue visibility timeouts.
//!
//! The sim runs on a typed `ppc_des::Engine<u32>` whose event is a worker
//! slot's flat index: every slot has at most one event pending (its first
//! tick, a benched wake, a re-poll on the engine's fixed-delay lane, or
//! the completion of the attempt it runs), and the attempt's data sits in
//! the sim's per-slot table, so an event allocates nothing. The run
//! handler borrows the sim's state and the caller's task list directly;
//! the splits it synthesizes carry only their locality hints.
//!
//! Chaos, spans and the report attach as in every engine: each slot rolls
//! the schedule on its own [`ChaosCursor`], an attempt's phase spans are
//! written through an [`AttemptMarker`] at its end, and the run closes
//! through [`RunReport::close`].

use crate::input::InputSplit;
use crate::report::MapReduceReport;
use crate::scheduler::{Assignment, CompleteOutcome, Scheduler};
use ppc_chaos::{ChaosCursor, FaultSchedule};
use ppc_compute::cluster::Cluster;
use ppc_compute::instance::InstanceType;
use ppc_compute::model::{task_service_seconds, AppModel};
use ppc_core::metrics::RunSummary;
use ppc_core::rng::{Pcg32, CLIENT_STREAM};
use ppc_core::task::TaskSpec;
use ppc_core::{PpcError, Result};
use ppc_des::{Engine, Fired, SimTime};
use ppc_exec::{HealthTrace, RunContext, RunReport};
use ppc_hdfs::block::DataNodeId;
use ppc_resilience::{Admit, HealthTracker, HedgeConfig, ResiliencePolicy};
use ppc_storage::latency::LatencyModel;
use ppc_trace::{AttemptMarker, EventKind, Phase, Recorder, TraceEvent, TraceSink};

/// Configuration of the simulated Hadoop platform.
#[derive(Debug, Clone, Copy)]
pub struct HadoopSimConfig {
    pub app: AppModel,
    /// Per-attempt dispatch/JVM-startup overhead, seconds (2010 Hadoop paid
    /// on the order of a second per task).
    pub dispatch_overhead_s: f64,
    /// Data path for local (data-local) reads.
    pub local_read: LatencyModel,
    /// Data path for remote (non-local) reads.
    pub remote_read: LatencyModel,
    /// HDFS replication factor used to synthesize locality hints.
    pub replication: usize,
    /// P(an attempt runs `straggler_factor` slower) — models the slow nodes
    /// speculative execution exists for.
    pub straggler_p: f64,
    pub straggler_factor: f64,
    /// P(an attempt fails outright and is retried).
    pub attempt_failure_p: f64,
    /// Log-normal execution-time jitter.
    pub jitter_sigma: f64,
    /// Idle workers re-poll the master at this interval, seconds.
    pub poll_interval_s: f64,
    /// Attempt budget per task.
    pub max_attempts: u32,
    /// Ablation switch: pretend the scheduler has no locality information
    /// (every read goes over the cluster network).
    pub ignore_locality: bool,
}

impl Default for HadoopSimConfig {
    fn default() -> Self {
        HadoopSimConfig {
            app: AppModel::DEFAULT,
            dispatch_overhead_s: 1.0,
            local_read: LatencyModel::local_disk_2010(),
            remote_read: LatencyModel::cluster_network_2010(),
            replication: 3,
            straggler_p: 0.0,
            straggler_factor: 5.0,
            attempt_failure_p: 0.0,
            jitter_sigma: 0.02,
            poll_interval_s: 0.5,
            max_attempts: 4,
            ignore_locality: false,
        }
    }
}

impl HadoopSimConfig {
    /// Reject nonsense configuration before the simulation starts.
    pub fn validate(&self) -> Result<()> {
        for (name, p) in [
            ("attempt_failure_p", self.attempt_failure_p),
            ("straggler_p", self.straggler_p),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(PpcError::InvalidArgument(format!(
                    "hadoop sim config: {name} = {p} is not a probability in [0, 1]"
                )));
            }
        }
        if !self.jitter_sigma.is_finite() || self.jitter_sigma < 0.0 {
            return Err(PpcError::InvalidArgument(format!(
                "hadoop sim config: jitter_sigma = {} must be finite and >= 0",
                self.jitter_sigma
            )));
        }
        if self.max_attempts == 0 {
            return Err(PpcError::InvalidArgument(
                "hadoop sim config: max_attempts must be at least 1".into(),
            ));
        }
        // The engine's clock ticks in microseconds: a shorter interval
        // would round to a zero lane delay.
        if !self.poll_interval_s.is_finite() || self.poll_interval_s < 1e-6 {
            return Err(PpcError::InvalidArgument(format!(
                "hadoop sim config: poll_interval_s = {} must be finite and at least 1 µs",
                self.poll_interval_s
            )));
        }
        Ok(())
    }
}

/// An attempt in flight on a worker slot: what its completion settles.
struct Attempt {
    assignment: Assignment,
    started_s: f64,
    fails: bool,
    killed: bool,
    cancelled: bool,
    t_read: f64,
    t_write: f64,
}

/// One simulation. Its engine's event is a worker slot's flat index: each
/// slot has at most one event pending, which is the completion of its
/// attempt in `running` if there is one, and otherwise its first tick, a
/// benched wake or (on the engine's lane) a re-poll.
struct Sim<'a> {
    scheduler: Scheduler,
    /// One independent stream per worker slot.
    rngs: Vec<Pcg32>,
    running: Vec<Option<Attempt>>,
    completed_at: Option<SimTime>,
    attempts: usize,
    deaths: usize,
    data_local: usize,
    remote_bytes: u64,
    schedule: Option<&'a FaultSchedule>,
    /// Each slot's place in the schedule.
    chaos: Vec<ChaosCursor>,
    rec: Option<Recorder>,
    health: Option<HealthTracker>,
    tasks: &'a [TaskSpec],
    /// `(node, workers on that node)` of each worker slot, by flat index.
    slots: Vec<(DataNodeId, usize)>,
    itype: InstanceType,
    cfg: &'a HadoopSimConfig,
    /// The context's policy; `None` is Hadoop's default speculation.
    resilience: Option<ResiliencePolicy>,
}

/// The simulator body, reached through [`crate::simulate`]: drives the
/// shared [`Scheduler`] over virtual workers on the `ppc-des` engine.
/// Under a [`FaultSchedule`], workers are addressed by their flat spawn
/// index (node-major); kills, death dice, torn outputs, gray slowdowns and
/// storage outage windows all map onto Hadoop's recovery mechanism — the
/// failed attempt is re-executed.
pub(crate) fn simulate_impl(
    cluster: &Cluster,
    tasks: &[TaskSpec],
    cfg: &HadoopSimConfig,
    ctx: &RunContext,
) -> MapReduceReport {
    assert!(!tasks.is_empty(), "no tasks to simulate");
    if let Err(e) = cfg.validate().and_then(|()| ctx.validate()) {
        panic!("{e}");
    }
    let seed = ctx.sim_seed();
    let n_nodes = cluster.n_nodes();
    let total_workers = cluster.total_workers();
    // Locality synthesis happens on the master's stream; each worker slot
    // draws its jitter/failure dice from its own stream below.
    let mut rng = Pcg32::for_stream(seed, CLIENT_STREAM);

    // Synthesize HDFS locality: each input replicated on `replication`
    // distinct pseudo-random nodes. The sim reads no paths.
    let want = cfg.replication.min(n_nodes);
    let splits: Vec<InputSplit> = tasks
        .iter()
        .enumerate()
        .map(|(index, t)| {
            let mut hosts: Vec<DataNodeId> = Vec::with_capacity(want);
            while hosts.len() < want {
                let h = DataNodeId(rng.next_below(n_nodes as u32) as usize);
                if !hosts.contains(&h) {
                    hosts.push(h);
                }
            }
            InputSplit {
                index,
                path: String::new(),
                name: String::new(),
                len: t.profile.input_bytes,
                hosts,
            }
        })
        .collect();

    // No policy means Hadoop's default speculation.
    let hedge = match &ctx.resilience {
        Some(p) => p.hedge,
        None => Some(HedgeConfig::legacy_speculation()),
    };
    let mut sim = Sim {
        scheduler: Scheduler::with_policy(splits, hedge, cfg.max_attempts),
        rngs: (0..total_workers)
            .map(|w| Pcg32::for_stream(seed, w as u64))
            .collect(),
        running: (0..total_workers).map(|_| None).collect(),
        completed_at: None,
        attempts: 0,
        deaths: 0,
        data_local: 0,
        remote_bytes: 0,
        schedule: ctx.schedule.as_deref(),
        chaos: vec![ChaosCursor::default(); total_workers],
        rec: ctx.trace.then(Recorder::new),
        health: ctx
            .resilience
            .and_then(|p| p.quarantine)
            .map(HealthTracker::new),
        tasks,
        slots: cluster
            .nodes()
            .iter()
            .flat_map(|node| (0..node.workers).map(|_| (DataNodeId(node.id), node.workers)))
            .collect(),
        itype: cluster.itype(),
        cfg,
        resilience: ctx.resilience,
    };

    // Idle slots re-poll the master on the engine's fixed-delay lane; the
    // quiet horizon (kept by `sync_quiet_horizon`) lets the engine skip
    // polls that would find no work.
    let mut engine = Engine::typed();
    engine.set_lane_delay(SimTime::from_secs_f64(cfg.poll_interval_s));
    for worker in 0..sim.slots.len() {
        engine.post_at(SimTime::ZERO, worker as u32);
    }
    engine.run_with(|e, fired| match fired {
        Fired::Event(worker) | Fired::Tick(worker) => sim.slot_event(e, worker as usize),
    });

    let makespan = sim.completed_at.unwrap_or(SimTime::ZERO).as_secs_f64();
    let stats = sim.scheduler.stats();

    let summary = RunSummary {
        platform: format!("hadoop-sim-{}", cluster.itype().name),
        cores: cluster.total_workers(),
        tasks: sim.scheduler.n_done(),
        makespan_seconds: makespan,
        redundant_executions: stats.duplicate_completions as usize,
        remote_bytes: sim.remote_bytes,
    };
    let failed = sim
        .scheduler
        .failed_tasks()
        .iter()
        .map(|&i| tasks[i].id)
        .collect();
    MapReduceReport {
        core: RunReport::close(
            summary,
            failed,
            sim.attempts,
            sim.deaths,
            Some(cluster.cost(makespan)),
            sim.rec.as_ref(),
        ),
        scheduler: stats,
        data_local_tasks: sim.data_local,
        map_output_records: 0,
        shuffle_records: 0,
    }
}

/// Lane polls strictly before the returned instant would find no work, so
/// the engine may re-arm them without calling [`Sim::worker_tick`]. A poll
/// changes nothing unless it gets an assignment or finds the job complete
/// (which ends its chain); a polling worker has passed the health gate and
/// its health only moves on its own completions. So the horizon is `now`
/// once the job is complete, and otherwise the scheduler's
/// [`Scheduler::earliest_assign_s`] (never, if `None`), less a margin that
/// keeps float rounding from skipping the first productive poll. Called
/// after every scheduler mutation.
fn sync_quiet_horizon(engine: &mut Engine<u32>, scheduler: &Scheduler) {
    let now = engine.now();
    let horizon = if scheduler.is_complete() {
        now
    } else {
        match scheduler.earliest_assign_s(now.as_secs_f64()) {
            // `as` saturates (and floors): relative and absolute margins
            // put every earlier microsecond clear of `age >= delay`.
            Some(t) => SimTime::from_micros((((t * 1e6) * (1.0 - 1e-9)) as u64).saturating_sub(2)),
            None => SimTime(u64::MAX),
        }
    };
    engine.set_quiet_horizon(horizon);
}

impl Sim<'_> {
    /// Worker slot `worker`'s one pending event fired: settle its attempt,
    /// if it was running one, then let it ask for work.
    fn slot_event(&mut self, engine: &mut Engine<u32>, worker: usize) {
        if let Some(attempt) = self.running[worker].take() {
            self.settle(engine, worker, attempt);
        }
        self.worker_tick(engine, worker);
    }

    fn worker_tick(&mut self, engine: &mut Engine<u32>, worker: usize) {
        let (node, workers_on_node) = self.slots[worker];
        let cfg = self.cfg;
        let now_s = engine.now().as_secs_f64();
        if self.scheduler.is_complete() {
            return; // cluster drains
        }
        // Health gate: a benched worker sleeps until its release time
        // instead of taking work; an expired bench releases (to
        // probation) here.
        let admit = self.health.as_mut().map_or(Admit::Go, |h| {
            h.admit(worker as u32, now_s, &HealthTrace(self.rec.as_ref()))
        });
        if let Admit::Benched { until_s } = admit {
            let wake = (until_s - now_s).max(cfg.poll_interval_s);
            engine.post_in(SimTime::from_secs_f64(wake), worker as u32);
            return;
        }
        // Locality-blind ablation: ask as a node that matches no replica.
        let asking = if cfg.ignore_locality {
            DataNodeId(usize::MAX)
        } else {
            node
        };
        let Some(assignment) = self.scheduler.next_at(asking, now_s) else {
            // With no failure injection, no chaos, and no resilience
            // policy (whose hedge delays and deadline cancels can put
            // work back on the queue later), a retry can never repopulate
            // the queue, so an idle worker can retire instead of polling.
            if cfg.attempt_failure_p <= 0.0 && self.schedule.is_none() && self.resilience.is_none()
            {
                return;
            }
            // Re-poll later (a retry may repopulate the queue).
            engine.lane_push(worker as u32);
            return;
        };
        sync_quiet_horizon(engine, &self.scheduler);
        if assignment.speculative && self.resilience.is_some() {
            if let Some(rec) = &self.rec {
                rec.event(TraceEvent {
                    at_s: now_s,
                    worker: worker as u32,
                    kind: EventKind::Hedge,
                });
            }
        }

        self.attempts += 1;
        let task = &self.tasks[assignment.split];
        let read_model = if assignment.local {
            cfg.local_read
        } else {
            cfg.remote_read
        };
        let mut t_read = read_model.transfer_seconds(task.profile.input_bytes);
        if assignment.local {
            self.data_local += 1;
        } else {
            self.remote_bytes += task.profile.input_bytes;
        }
        let mut t_exec_base =
            task_service_seconds(&self.itype, workers_on_node, &task.profile, &cfg.app);
        let rng = &mut self.rngs[worker];
        let jitter = if cfg.jitter_sigma > 0.0 {
            rng.log_normal(0.0, cfg.jitter_sigma)
        } else {
            1.0
        };
        let straggle = if cfg.straggler_p > 0.0 && rng.chance(cfg.straggler_p) {
            cfg.straggler_factor
        } else {
            1.0
        };
        let t_write = cfg.local_read.transfer_seconds(task.profile.output_bytes);
        let mut fails = cfg.attempt_failure_p > 0.0 && rng.chance(cfg.attempt_failure_p);
        if let Some(schedule) = self.schedule {
            // Gray degradation stretches the attempt; an HDFS outage
            // window stalls the read until the window closes (the
            // client rides it out rather than burning attempts).
            t_exec_base *= schedule.slowdown(worker as u32, now_s);
            if let Some(until) = schedule.storage_outage_until(now_s) {
                t_read += until - now_s;
            }
        }
        let mut duration_s =
            cfg.dispatch_overhead_s + t_read + t_exec_base * jitter * straggle + t_write;
        // Per-task deadline: an attempt that cannot finish inside the
        // timeout is cancelled at the deadline and the task requeued
        // (the cancel burns one unit of the task's attempt budget).
        let cut = self
            .resilience
            .and_then(|p| p.deadline)
            .filter(|d| duration_s > d.timeout_s);
        if let Some(d) = cut {
            duration_s = d.timeout_s;
        }
        // A kill landing anywhere in the attempt's service window (cut at
        // the deadline), any death die, or a torn output fails the attempt;
        // the scheduler re-executes on the attempt budget.
        let window_end = Some(now_s + duration_s);
        let roll = self
            .schedule
            .map(|s| self.chaos[worker].roll(s, worker as u32, window_end))
            .unwrap_or_default();
        self.deaths += usize::from(roll.died);
        fails = fails || roll.fails;
        let killed = roll.killed;
        // A death outranks the cut.
        let cancelled = cut.is_some() && !roll.died;
        engine.post_in(SimTime::from_secs_f64(duration_s), worker as u32);
        self.running[worker] = Some(Attempt {
            assignment,
            started_s: now_s,
            fails: fails || cancelled,
            killed,
            cancelled,
            t_read,
            t_write,
        });
    }

    /// Settle `worker`'s finished attempt at the engine's now.
    fn settle(&mut self, engine: &mut Engine<u32>, worker: usize, attempt: Attempt) {
        let Attempt {
            assignment,
            started_s: now_s,
            fails,
            killed,
            cancelled,
            t_read,
            t_write,
        } = attempt;
        let end = engine.now().as_secs_f64();
        let terminal = if fails {
            self.scheduler.fail(assignment.id);
            false
        } else {
            self.scheduler.complete_at(assignment.id, end) == CompleteOutcome::First
        };
        // Health scoring: successes feed the EWMA, failures the streak;
        // either can bench this worker as gray.
        if let Some(h) = &mut self.health {
            let latency_s = (!fails).then_some(end - now_s);
            h.record(
                worker as u32,
                latency_s,
                end,
                &HealthTrace(self.rec.as_ref()),
            );
        }
        if let Some(rec) = &self.rec {
            // Commit is recorded only for the attempt that actually
            // finished the task, so each completed task has exactly one
            // terminal span; duplicate and failed attempts fold the tail
            // into the map phase.
            let (task_id, w) = (self.tasks[assignment.split].id.0, worker as u32);
            let read = match assignment.local {
                true => Phase::ReadLocal,
                false => Phase::ReadRemote,
            };
            let phases = [Phase::Dispatch, read, Phase::Map, Phase::Commit];
            let parts = (self.cfg.dispatch_overhead_s, t_read, t_write);
            AttemptMarker::new(rec, task_id, assignment.id.attempt, w, now_s)
                .modeled(phases, parts, end, terminal);
            if killed {
                rec.event(TraceEvent {
                    at_s: end,
                    worker: w,
                    kind: EventKind::Death,
                });
            }
            if cancelled {
                rec.event(TraceEvent {
                    at_s: end,
                    worker: w,
                    kind: EventKind::Cancel,
                });
            }
        }
        if self.scheduler.is_complete() && self.completed_at.is_none() {
            self.completed_at = Some(engine.now());
        }
        sync_quiet_horizon(engine, &self.scheduler);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppc_compute::instance::{BARE_CAP3, EC2_HCXL};
    use ppc_core::task::ResourceProfile;
    use ppc_exec::RunContext;
    use std::sync::Arc;

    fn cpu_tasks(n: u64, secs: f64) -> Vec<TaskSpec> {
        (0..n)
            .map(|i| {
                let mut p = ResourceProfile::cpu_bound(secs);
                p.input_bytes = 200 << 10;
                p.output_bytes = 100 << 10;
                TaskSpec::new(i, "cap3", format!("f{i}"), p)
            })
            .collect()
    }

    fn quiet(cfg: HadoopSimConfig) -> HadoopSimConfig {
        HadoopSimConfig {
            jitter_sigma: 0.0,
            dispatch_overhead_s: 0.0,
            ..cfg
        }
    }

    // Shorthands for the RunContext entry point on one cluster.
    fn simulate(cluster: &Cluster, tasks: &[TaskSpec], cfg: &HadoopSimConfig) -> MapReduceReport {
        crate::simulate(&RunContext::new(cluster), tasks, cfg)
    }

    fn simulate_chaos(
        cluster: &Cluster,
        tasks: &[TaskSpec],
        cfg: &HadoopSimConfig,
        schedule: Option<Arc<FaultSchedule>>,
    ) -> MapReduceReport {
        crate::simulate(
            &RunContext::new(cluster).with_schedule(schedule),
            tasks,
            cfg,
        )
    }

    #[test]
    fn ideal_makespan_two_waves() {
        let cluster = Cluster::provision(BARE_CAP3, 2, 8);
        let mut cfg = quiet(HadoopSimConfig::default());
        cfg.local_read = LatencyModel::FREE;
        cfg.remote_read = LatencyModel::FREE;
        let report = simulate(&cluster, &cpu_tasks(32, 10.0), &cfg);
        assert_eq!(report.summary.tasks, 32);
        assert!(
            (report.summary.makespan_seconds - 20.0).abs() < 1e-6,
            "{}",
            report.summary.makespan_seconds
        );
    }

    #[test]
    fn dispatch_overhead_lowers_efficiency() {
        let cluster = Cluster::provision(BARE_CAP3, 2, 8);
        let tasks = cpu_tasks(64, 30.0);
        let lean = quiet(HadoopSimConfig::default());
        let heavy = HadoopSimConfig {
            dispatch_overhead_s: 3.0,
            jitter_sigma: 0.0,
            ..HadoopSimConfig::default()
        };
        let t_lean = simulate(&cluster, &tasks, &lean).summary.makespan_seconds;
        let t_heavy = simulate(&cluster, &tasks, &heavy).summary.makespan_seconds;
        assert!(t_heavy > t_lean);
    }

    #[test]
    fn locality_fraction_high_with_replication() {
        let cluster = Cluster::provision(BARE_CAP3, 8, 8);
        let cfg = HadoopSimConfig {
            replication: 3,
            ..HadoopSimConfig::default()
        };
        let report = simulate(&cluster, &cpu_tasks(256, 10.0), &cfg);
        assert!(
            report.locality_fraction() > 0.7,
            "locality {}",
            report.locality_fraction()
        );
    }

    #[test]
    fn speculation_rescues_stragglers() {
        let cluster = Cluster::provision(BARE_CAP3, 2, 8);
        let tasks = cpu_tasks(64, 20.0);
        let slow = HadoopSimConfig {
            straggler_p: 0.05,
            straggler_factor: 10.0,
            jitter_sigma: 0.0,
            dispatch_overhead_s: 0.0,
            ..HadoopSimConfig::default()
        };
        // An empty policy turns speculation off; no policy is Hadoop's
        // default speculation.
        let no_spec = RunContext::new(&cluster).with_resilience(ResiliencePolicy::default());
        let t_no = crate::simulate(&no_spec, &tasks, &slow)
            .summary
            .makespan_seconds;
        let r_yes = simulate(&cluster, &tasks, &slow);
        assert!(r_yes.scheduler.speculative_assignments > 0);
        assert!(
            r_yes.summary.makespan_seconds < t_no,
            "speculation helps: {} vs {}",
            r_yes.summary.makespan_seconds,
            t_no
        );
    }

    #[test]
    fn failures_retried_to_completion() {
        let cluster = Cluster::provision(BARE_CAP3, 2, 8);
        let cfg = HadoopSimConfig {
            attempt_failure_p: 0.15,
            ..HadoopSimConfig::default()
        };
        let report = simulate(&cluster, &cpu_tasks(64, 5.0), &cfg);
        assert!(report.is_complete());
        assert!(report.scheduler.retries > 0);
    }

    #[test]
    fn deterministic() {
        let cluster = Cluster::provision(BARE_CAP3, 4, 8);
        let tasks = cpu_tasks(100, 7.0);
        let cfg = HadoopSimConfig::default();
        let a = simulate(&cluster, &tasks, &cfg).summary.makespan_seconds;
        let b = simulate(&cluster, &tasks, &cfg).summary.makespan_seconds;
        assert_eq!(a, b);
    }

    #[test]
    fn chaos_schedule_drives_retries_and_stays_deterministic() {
        let cluster = Cluster::provision(BARE_CAP3, 4, 8);
        let tasks = cpu_tasks(64, 10.0);
        let cfg = quiet(HadoopSimConfig::default());
        let schedule = Arc::new(
            FaultSchedule::new(17)
                .kill_at(0, 15.0)
                .kill_at(9, 25.0)
                .degrade(3, 2.0, 0.0, 60.0)
                .brownout(5.0, 8.0)
                .with_death_probabilities(0.02, 0.02, 0.02),
        );
        let clean = simulate(&cluster, &tasks, &cfg);
        let a = simulate_chaos(&cluster, &tasks, &cfg, Some(schedule.clone()));
        let b = simulate_chaos(&cluster, &tasks, &cfg, Some(schedule));
        assert!(a.is_complete(), "failed: {:?}", a.failed);
        assert_eq!(a.summary.tasks, 64);
        assert!(a.scheduler.retries > 0, "chaos must fail some attempts");
        assert!(
            a.summary.makespan_seconds > clean.summary.makespan_seconds,
            "chaos must cost time: {} vs {}",
            a.summary.makespan_seconds,
            clean.summary.makespan_seconds
        );
        assert_eq!(a.summary.makespan_seconds, b.summary.makespan_seconds);
        assert_eq!(a.total_attempts, b.total_attempts);
    }

    #[test]
    fn deadline_cut_comes_before_a_later_kill() {
        // The lone slot runs 30x slow and is killed at 100 s; every
        // attempt is cut at the 60 s deadline. The kill lands inside the
        // second attempt's cut span [60, 120], never the first's.
        let cluster = Cluster::provision(EC2_HCXL, 1, 1);
        let cfg = HadoopSimConfig {
            local_read: LatencyModel::FREE,
            remote_read: LatencyModel::FREE,
            max_attempts: 3,
            ..quiet(HadoopSimConfig::default())
        };
        let schedule = FaultSchedule::new(11)
            .degrade(0, 30.0, 0.0, 1e9)
            .kill_at(0, 100.0);
        let ctx = RunContext::new(&cluster)
            .with_schedule(Arc::new(schedule))
            .with_trace(true)
            .with_resilience(ResiliencePolicy::default().with_deadline(60.0));
        let report = crate::simulate(&ctx, &cpu_tasks(1, 10.0), &cfg);
        let trace = report.core.trace.as_ref().unwrap();
        let events: Vec<_> = trace
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Cancel | EventKind::Death))
            .map(|e| (e.kind, e.at_s))
            .collect();
        assert_eq!(
            events,
            [
                (EventKind::Cancel, 60.0),
                (EventKind::Death, 120.0),
                (EventKind::Cancel, 180.0)
            ]
        );
        assert_eq!(report.worker_deaths, 1);
        assert_eq!(
            report.failed.len(),
            1,
            "three failed attempts spend the budget"
        );
    }

    #[test]
    fn spent_budget_stops_hedging_under_a_deadline() {
        // Unbounded legacy hedging plus a deadline no attempt can meet:
        // once the task's failures spend its budget it gets no fresh
        // hedges, so the run ends with the task failed. On a helper
        // thread, so a regression fails here instead of hanging.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let cluster = Cluster::provision(EC2_HCXL, 1, 2);
            let cfg = HadoopSimConfig {
                max_attempts: 3,
                ..HadoopSimConfig::default()
            };
            let ctx = RunContext::new(&cluster)
                .with_resilience(ResiliencePolicy::legacy_speculation().with_deadline(2.0));
            let report = crate::simulate(&ctx, &cpu_tasks(1, 10.0), &cfg);
            let _ = tx.send((report.failed.len(), report.total_attempts));
        });
        let (failed, attempts) = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the simulation did not return within 10 s");
        assert_eq!(failed, 1);
        assert_eq!(attempts, 4, "two launches and two hedges");
    }

    #[test]
    fn sub_microsecond_or_nan_poll_interval_is_rejected() {
        // Such an interval rounds to a 0-µs lane delay, so an idle slot
        // under a resilience policy re-polled at one instant forever. On
        // a helper thread, so a regression fails here instead of hanging.
        for poll_interval_s in [1e-9, f64::NAN] {
            let (tx, rx) = std::sync::mpsc::channel();
            let sim = std::thread::spawn(move || {
                let cluster = Cluster::provision(EC2_HCXL, 1, 4);
                let cfg = HadoopSimConfig {
                    poll_interval_s,
                    ..HadoopSimConfig::default()
                };
                let ctx = RunContext::new(&cluster)
                    .with_resilience(ResiliencePolicy::default().with_deadline(60.0));
                crate::simulate(&ctx, &cpu_tasks(2, 10.0), &cfg);
                let _ = tx.send(());
            });
            match rx.recv_timeout(std::time::Duration::from_secs(10)) {
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {}
                Ok(()) => panic!("poll_interval_s = {poll_interval_s} was accepted"),
                Err(_) => panic!("poll_interval_s = {poll_interval_s}: no return within 10 s"),
            }
            let err = sim.join().expect_err("the simulation panicked");
            let msg = err
                .downcast_ref::<String>()
                .expect("formatted panic message");
            assert!(msg.contains("poll_interval_s"), "{msg}");
        }
        for (poll_interval_s, ok) in [(1e-6, true), (0.5, true), (f64::INFINITY, false)] {
            let cfg = HadoopSimConfig {
                poll_interval_s,
                ..HadoopSimConfig::default()
            };
            assert_eq!(cfg.validate().is_ok(), ok, "{poll_interval_s}");
        }
    }

    #[test]
    #[should_panic(expected = "attempt_failure_p")]
    fn invalid_sim_config_panics_with_message() {
        let cluster = Cluster::provision(BARE_CAP3, 2, 8);
        let cfg = HadoopSimConfig {
            attempt_failure_p: -0.5,
            ..HadoopSimConfig::default()
        };
        simulate(&cluster, &cpu_tasks(4, 1.0), &cfg);
    }

    #[test]
    fn efficiency_high_for_coarse_grained_work() {
        let cluster = Cluster::provision(BARE_CAP3, 4, 8);
        let tasks = cpu_tasks(256, 60.0);
        let report = simulate(&cluster, &tasks, &HadoopSimConfig::default());
        let t1: f64 = tasks
            .iter()
            .map(|t| task_service_seconds(&BARE_CAP3, 1, &t.profile, &AppModel::DEFAULT))
            .sum();
        let eff = report.summary.efficiency(t1);
        assert!(eff > 0.9, "efficiency {eff}");
    }
}
