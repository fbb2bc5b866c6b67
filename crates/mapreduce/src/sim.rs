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

use crate::input::InputSplit;
use crate::report::MapReduceReport;
use crate::scheduler::{CompleteOutcome, Scheduler};
use ppc_chaos::FaultSchedule;
use ppc_compute::cluster::Cluster;
use ppc_compute::model::{task_service_seconds, AppModel};
use ppc_core::metrics::RunSummary;
use ppc_core::rng::{Pcg32, CLIENT_STREAM};
use ppc_core::task::TaskSpec;
use ppc_core::{PpcError, Result};
use ppc_des::{Engine, SimTime};
use ppc_exec::{RunContext, RunReport};
use ppc_hdfs::block::DataNodeId;
use ppc_resilience::{Health, HealthTracker, HedgeConfig, ResiliencePolicy};
use ppc_storage::latency::LatencyModel;
use ppc_trace::{EventKind, Phase, Recorder, RunMeta, Span, TraceEvent, TraceSink};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

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
    pub seed: u64,
    /// Idle workers re-poll the master at this interval, seconds.
    pub poll_interval_s: f64,
    /// Enable speculative duplicates (Hadoop default: on).
    ///
    /// Legacy knob: maps to
    /// `ppc_resilience::HedgeConfig::legacy_speculation()` and is ignored
    /// whenever `resilience` is set (explicitly or via the run context).
    #[deprecated(note = "set `resilience` (a `ppc_resilience::ResiliencePolicy`) instead")]
    pub speculative: bool,
    /// Straggler / gray-failure defense. `None` falls back to the legacy
    /// `speculative` knob; `Some` replaces it entirely (hedging, worker
    /// quarantine, per-task deadlines all come from the policy).
    pub resilience: Option<ResiliencePolicy>,
    /// Attempt budget per task.
    pub max_attempts: u32,
    /// Ablation switch: pretend the scheduler has no locality information
    /// (every read goes over the cluster network).
    pub ignore_locality: bool,
    /// Record per-attempt `dispatch → read → map → commit` spans into the
    /// report's [`ppc_trace::Trace`].
    pub trace: bool,
}

impl Default for HadoopSimConfig {
    fn default() -> Self {
        #[allow(deprecated)]
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
            seed: 42,
            poll_interval_s: 0.5,
            speculative: true,
            resilience: None,
            max_attempts: 4,
            ignore_locality: false,
            trace: false,
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
        if self.poll_interval_s <= 0.0 {
            return Err(PpcError::InvalidArgument(
                "hadoop sim config: poll_interval_s must be positive".into(),
            ));
        }
        if let Some(policy) = &self.resilience {
            policy.validate()?;
        }
        Ok(())
    }
}

struct SimState {
    scheduler: Scheduler,
    /// One independent stream per worker slot.
    rngs: Vec<Pcg32>,
    completed_at: Option<SimTime>,
    attempts: usize,
    deaths: usize,
    data_local: usize,
    remote_bytes: u64,
    schedule: Option<Arc<FaultSchedule>>,
    task_seqs: Vec<u32>,
    last_kill: Vec<f64>,
    rec: Option<Recorder>,
    health: Option<HealthTracker>,
}

/// One simulation: the mutable state plus what every event reads.
struct Sim {
    state: RefCell<SimState>,
    tasks: Vec<TaskSpec>,
    /// `(node, workers on that node)` of each worker slot, by flat index.
    slots: Vec<(DataNodeId, usize)>,
    itype: ppc_compute::instance::InstanceType,
    cfg: HadoopSimConfig,
}

/// Simulate a map-only Hadoop job of `tasks` on `cluster`.
#[deprecated(note = "build a `ppc_exec::RunContext` and call `ppc_mapreduce::simulate`")]
pub fn simulate(cluster: &Cluster, tasks: &[TaskSpec], cfg: &HadoopSimConfig) -> MapReduceReport {
    crate::harness::simulate(&RunContext::new(cluster), tasks, cfg)
}

/// [`simulate`] under a deterministic [`FaultSchedule`]. Workers are
/// addressed by their flat spawn index (node-major); kills, death dice,
/// torn outputs, gray slowdowns and storage outage windows all map onto
/// Hadoop's recovery mechanism — the failed attempt is re-executed.
#[deprecated(note = "build a `ppc_exec::RunContext` and call `ppc_mapreduce::simulate`")]
pub fn simulate_chaos(
    cluster: &Cluster,
    tasks: &[TaskSpec],
    cfg: &HadoopSimConfig,
    schedule: Option<Arc<FaultSchedule>>,
) -> MapReduceReport {
    crate::harness::simulate(
        &RunContext::new(cluster).with_schedule(schedule),
        tasks,
        cfg,
    )
}

/// The simulator body, reached through [`crate::simulate`]: drives the
/// shared [`Scheduler`] over virtual workers on the `ppc-des` engine.
pub(crate) fn simulate_impl(
    cluster: &Cluster,
    tasks: &[TaskSpec],
    cfg: &HadoopSimConfig,
    schedule: Option<Arc<FaultSchedule>>,
) -> MapReduceReport {
    assert!(!tasks.is_empty(), "no tasks to simulate");
    if let Err(e) = cfg.validate() {
        panic!("{e}");
    }
    if let Some(schedule) = &schedule {
        if let Err(e) = schedule.validate() {
            panic!("{e}");
        }
    }
    let n_nodes = cluster.n_nodes();
    let total_workers = cluster.total_workers();
    // Locality synthesis happens on the master's stream; each worker slot
    // draws its jitter/failure dice from its own stream below.
    let mut rng = Pcg32::for_stream(cfg.seed, CLIENT_STREAM);

    // Synthesize HDFS locality: each input replicated on `replication`
    // distinct pseudo-random nodes.
    let splits: Vec<InputSplit> = tasks
        .iter()
        .enumerate()
        .map(|(index, t)| {
            let mut hosts: Vec<DataNodeId> = Vec::new();
            let want = cfg.replication.min(n_nodes);
            while hosts.len() < want {
                let h = DataNodeId(rng.next_below(n_nodes as u32) as usize);
                if !hosts.contains(&h) {
                    hosts.push(h);
                }
            }
            InputSplit {
                index,
                path: t.input_key.clone(),
                name: t.input_key.clone(),
                len: t.profile.input_bytes,
                hosts,
            }
        })
        .collect();

    // An explicit policy replaces the legacy `speculative` knob; with no
    // policy the legacy knob maps to the same shared machinery.
    #[allow(deprecated)]
    let legacy_speculative = cfg.speculative;
    let hedge = match &cfg.resilience {
        Some(p) => p.hedge,
        None => legacy_speculative.then(HedgeConfig::legacy_speculation),
    };
    let state = RefCell::new(SimState {
        scheduler: Scheduler::with_policy(splits, hedge, cfg.max_attempts),
        rngs: (0..total_workers)
            .map(|w| Pcg32::for_stream(cfg.seed, w as u64))
            .collect(),
        completed_at: None,
        attempts: 0,
        deaths: 0,
        data_local: 0,
        remote_bytes: 0,
        schedule,
        task_seqs: vec![0; total_workers],
        last_kill: vec![0.0; total_workers],
        rec: cfg.trace.then(Recorder::new),
        health: cfg
            .resilience
            .and_then(|p| p.quarantine)
            .map(HealthTracker::new),
    });
    let sim = Rc::new(Sim {
        state,
        tasks: tasks.to_vec(),
        slots: cluster
            .nodes()
            .iter()
            .flat_map(|node| (0..node.workers).map(|_| (DataNodeId(node.id), node.workers)))
            .collect(),
        itype: cluster.itype(),
        cfg: *cfg,
    });

    // Idle slots re-poll the master on the engine's fixed-delay lane; the
    // quiet horizon (kept by `sync_quiet_horizon`) lets the engine skip
    // polls that would find no work.
    let mut engine = Engine::new();
    let poller = sim.clone();
    engine.set_lane(
        SimTime::from_secs_f64(cfg.poll_interval_s),
        move |e, worker| worker_tick(e, &poller, worker as usize),
    );
    for worker in 0..sim.slots.len() {
        let sim = sim.clone();
        engine.schedule_at(SimTime::ZERO, move |e| worker_tick(e, &sim, worker));
    }

    let _end = engine.run();
    let tasks = &sim.tasks;
    let st = sim.state.borrow();
    let makespan = st.completed_at.unwrap_or(SimTime::ZERO).as_secs_f64();
    let stats = st.scheduler.stats();

    let platform = format!("hadoop-sim-{}", cluster.itype().name);
    // The trace's meta carries the *same* f64 makespan and core count as
    // the summary, so efficiency recomputed from the job span matches the
    // report's exactly.
    let trace = st.rec.as_ref().and_then(|rec| {
        rec.set_meta(RunMeta {
            platform: platform.clone(),
            cores: cluster.total_workers(),
            tasks: st.scheduler.n_done(),
            makespan_seconds: makespan,
        });
        rec.span(Span::job(makespan));
        rec.snapshot()
    });

    MapReduceReport {
        core: RunReport {
            summary: RunSummary {
                platform,
                cores: cluster.total_workers(),
                tasks: st.scheduler.n_done(),
                makespan_seconds: makespan,
                redundant_executions: stats.duplicate_completions as usize,
                remote_bytes: st.remote_bytes,
            },
            failed: st
                .scheduler
                .failed_tasks()
                .iter()
                .map(|&i| tasks[i].id)
                .collect(),
            total_attempts: st.attempts,
            worker_deaths: st.deaths,
            cost: Some(cluster.cost(makespan)),
            trace,
        },
        scheduler: stats,
        data_local_tasks: st.data_local,
        map_output_records: 0,
        shuffle_records: 0,
    }
}

/// Lane polls strictly before the returned instant would find no work, so
/// the engine may re-arm them without calling [`worker_tick`]. A poll
/// changes nothing unless it gets an assignment or finds the job complete
/// (which ends its chain); a polling worker has passed the health gate and
/// its health only moves on its own completions. So the horizon is `now`
/// once the job is complete, and otherwise the scheduler's
/// [`Scheduler::earliest_assign_s`] (never, if `None`), less a margin that
/// keeps float rounding from skipping the first productive poll. Called
/// after every scheduler mutation.
fn sync_quiet_horizon(engine: &mut Engine, st: &SimState) {
    let now = engine.now();
    let horizon = if st.scheduler.is_complete() {
        now
    } else {
        match st.scheduler.earliest_assign_s(now.as_secs_f64()) {
            // `as` saturates (and floors): relative and absolute margins
            // put every earlier microsecond clear of `age >= delay`.
            Some(t) => SimTime::from_micros((((t * 1e6) * (1.0 - 1e-9)) as u64).saturating_sub(2)),
            None => SimTime(u64::MAX),
        }
    };
    engine.set_quiet_horizon(horizon);
}

fn worker_tick(engine: &mut Engine, sim: &Rc<Sim>, worker: usize) {
    let Sim {
        state,
        tasks,
        slots,
        itype,
        cfg,
    } = &**sim;
    let (node, workers_on_node) = slots[worker];
    let now_s = engine.now().as_secs_f64();
    // Health gate: a benched worker sleeps until its release time instead
    // of taking work; an expired bench releases (to probation) here.
    let benched_until = {
        let mut st = state.borrow_mut();
        if st.scheduler.is_complete() {
            return; // cluster drains
        }
        let SimState { health, rec, .. } = &mut *st;
        match health {
            Some(h) => {
                let w = worker as u32;
                let benched = matches!(h.health(w), Health::Quarantined { .. });
                if h.allow(w, now_s) {
                    if benched {
                        // allow() just released this worker.
                        if let Some(rec) = rec {
                            rec.event(TraceEvent {
                                at_s: now_s,
                                worker: w,
                                kind: EventKind::Release,
                            });
                        }
                    }
                    None
                } else {
                    match h.health(w) {
                        Health::Quarantined { until_s } => Some(until_s),
                        _ => Some(now_s + cfg.poll_interval_s),
                    }
                }
            }
            None => None,
        }
    };
    if let Some(until_s) = benched_until {
        let sim = sim.clone();
        let wake = (until_s - now_s).max(cfg.poll_interval_s);
        engine.schedule_in(SimTime::from_secs_f64(wake), move |e| {
            worker_tick(e, &sim, worker);
        });
        return;
    }
    let assignment = {
        let mut st = state.borrow_mut();
        // Locality-blind ablation: ask as a node that matches no replica.
        let asking = if cfg.ignore_locality {
            DataNodeId(usize::MAX)
        } else {
            node
        };
        st.scheduler.next_at(asking, now_s)
    };

    let assignment = match assignment {
        Some(a) => a,
        None => {
            // With no failure injection, no chaos, and no resilience
            // policy (whose hedge delays and deadline cancels can put
            // work back on the queue later), a retry can never repopulate
            // the queue, so an idle worker can retire instead of polling.
            if cfg.attempt_failure_p <= 0.0
                && state.borrow().schedule.is_none()
                && cfg.resilience.is_none()
            {
                return;
            }
            // Re-poll later (a retry may repopulate the queue).
            engine.lane_push(worker as u32);
            return;
        }
    };
    sync_quiet_horizon(engine, &state.borrow());
    if assignment.speculative && cfg.resilience.is_some() {
        if let Some(rec) = &state.borrow().rec {
            rec.event(TraceEvent {
                at_s: now_s,
                worker: worker as u32,
                kind: EventKind::Hedge,
            });
        }
    }

    let (duration_s, fails, killed, cancelled, t_read, t_write) = {
        let mut st = state.borrow_mut();
        st.attempts += 1;
        let task = &tasks[assignment.split];
        let read_model = if assignment.local {
            cfg.local_read
        } else {
            cfg.remote_read
        };
        let mut t_read = read_model.transfer_seconds(task.profile.input_bytes);
        if assignment.local {
            st.data_local += 1;
        } else {
            st.remote_bytes += task.profile.input_bytes;
        }
        let mut t_exec_base = task_service_seconds(itype, workers_on_node, &task.profile, &cfg.app);
        let jitter = if cfg.jitter_sigma > 0.0 {
            st.rngs[worker].log_normal(0.0, cfg.jitter_sigma)
        } else {
            1.0
        };
        let straggle = if cfg.straggler_p > 0.0 && st.rngs[worker].chance(cfg.straggler_p) {
            cfg.straggler_factor
        } else {
            1.0
        };
        let t_write = cfg.local_read.transfer_seconds(task.profile.output_bytes);
        let mut fails =
            cfg.attempt_failure_p > 0.0 && st.rngs[worker].chance(cfg.attempt_failure_p);
        let mut killed = false;
        if let Some(schedule) = st.schedule.clone() {
            let w = worker as u32;
            let seq = st.task_seqs[worker];
            st.task_seqs[worker] += 1;
            // Gray degradation stretches the attempt; an HDFS outage
            // window stalls the read until the window closes (the
            // client rides it out rather than burning attempts).
            t_exec_base *= schedule.slowdown(w, now_s);
            if let Some(until) = schedule.storage_outage_until(now_s) {
                t_read += until - now_s;
            }
            // A kill landing anywhere in the attempt's service window,
            // any death die, or a torn output fails the attempt; the
            // scheduler re-executes on the attempt budget.
            let window_end = now_s
                + cfg.dispatch_overhead_s
                + t_read
                + t_exec_base * jitter * straggle
                + t_write;
            killed = schedule.kills_in(w, st.last_kill[worker], window_end);
            st.last_kill[worker] = window_end;
            let died = killed
                || schedule.die_before_execute(w, seq)
                || schedule.die_mid_execute(w, seq)
                || schedule.die_before_delete(w, seq);
            if died {
                st.deaths += 1;
            }
            fails = fails || died || schedule.is_torn_upload(w, seq);
        }
        let mut duration_s =
            cfg.dispatch_overhead_s + t_read + t_exec_base * jitter * straggle + t_write;
        // Per-task deadline: an attempt that cannot finish inside the
        // timeout is cancelled at the deadline and the task requeued
        // (the cancel burns one unit of the task's attempt budget).
        let mut cancelled = false;
        if let Some(d) = cfg.resilience.and_then(|p| p.deadline) {
            if duration_s > d.timeout_s {
                duration_s = d.timeout_s;
                cancelled = true;
            }
        }
        (
            duration_s,
            fails || cancelled,
            killed,
            cancelled,
            t_read,
            t_write,
        )
    };

    let sim = sim.clone();
    engine.schedule_in(SimTime::from_secs_f64(duration_s), move |e| {
        let end = e.now().as_secs_f64();
        {
            let Sim {
                state, tasks, cfg, ..
            } = &*sim;
            let mut st = state.borrow_mut();
            let terminal = if fails {
                st.scheduler.fail(assignment.id);
                false
            } else {
                st.scheduler.complete_at(assignment.id, end) == CompleteOutcome::First
            };
            // Health scoring: successes feed the EWMA, failures the
            // streak; either can bench this worker as gray.
            {
                let SimState { health, rec, .. } = &mut *st;
                if let Some(h) = health {
                    let w = worker as u32;
                    let benched_before = matches!(h.health(w), Health::Quarantined { .. });
                    if fails {
                        h.record_failure(w, end);
                    } else {
                        h.record_success(w, end - now_s, end);
                    }
                    if !benched_before && matches!(h.health(w), Health::Quarantined { .. }) {
                        if let Some(rec) = rec {
                            rec.event(TraceEvent {
                                at_s: end,
                                worker: w,
                                kind: EventKind::Quarantine,
                            });
                        }
                    }
                }
            }
            if let Some(rec) = &st.rec {
                // Phase boundaries, clamped so engine-clock quantization
                // can never produce a negative-length span. Commit is
                // recorded only for the attempt that actually finished the
                // task, so each completed task has exactly one terminal
                // span; duplicate and failed attempts fold the tail into
                // the map phase.
                let task_id = tasks[assignment.split].id.0;
                let w = worker as u32;
                let a = assignment.id.attempt;
                let d1 = (now_s + cfg.dispatch_overhead_s).min(end);
                let d2 = (d1 + t_read).min(end);
                let d3 = if terminal {
                    (end - t_write).max(d2)
                } else {
                    end
                };
                let read_phase = if assignment.local {
                    Phase::ReadLocal
                } else {
                    Phase::ReadRemote
                };
                rec.span(Span::new(task_id, a, w, Phase::Dispatch, now_s, d1));
                rec.span(Span::new(task_id, a, w, read_phase, d1, d2));
                rec.span(Span::new(task_id, a, w, Phase::Map, d2, d3));
                if terminal {
                    rec.span(Span::new(task_id, a, w, Phase::Commit, d3, end));
                }
                rec.span(Span::new(task_id, a, w, Phase::Attempt, now_s, end));
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
            if st.scheduler.is_complete() && st.completed_at.is_none() {
                st.completed_at = Some(e.now());
            }
            sync_quiet_horizon(e, &st);
        }
        worker_tick(e, &sim, worker);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppc_compute::instance::BARE_CAP3;
    use ppc_core::task::ResourceProfile;

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

    // Route the legacy-named helpers through the RunContext entry point
    // (explicit items shadow the glob-imported deprecated shims).
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
    #[allow(deprecated)] // exercises the legacy `speculative` shim
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
        let no_spec = HadoopSimConfig {
            speculative: false,
            ..slow
        };
        let with_spec = HadoopSimConfig {
            speculative: true,
            ..slow
        };
        let t_no = simulate(&cluster, &tasks, &no_spec)
            .summary
            .makespan_seconds;
        let r_yes = simulate(&cluster, &tasks, &with_spec);
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
