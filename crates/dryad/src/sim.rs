//! The simulated DryadLINQ runtime.
//!
//! Static node-level partitioning means the nodes never interact after the
//! partition step, so the simulation decomposes exactly into independent
//! per-node list schedules: each node runs its own task list on its worker
//! slots, and the job's makespan is the slowest node's finish time. (This is
//! precisely why DryadLINQ load-balances worse than the global-queue
//! platforms — nothing can flow between nodes mid-job.)
//!
//! Chaos, spans and the report attach as in every engine: each slot rolls
//! the schedule on its own [`ChaosCursor`], a vertex attempt's phase spans
//! are written through an [`AttemptMarker`] once its end is known, and the
//! run closes through [`RunReport::close`].

use ppc_chaos::ChaosCursor;
use ppc_compute::cluster::Cluster;
use ppc_compute::model::{task_service_seconds, AppModel};
use ppc_core::metrics::RunSummary;
use ppc_core::rng::Pcg32;
use ppc_core::task::{TaskId, TaskSpec};
use ppc_core::{PpcError, Result};
use ppc_exec::{HealthTrace, RunContext, RunReport};
use ppc_resilience::{Admit, HealthTracker, HedgePolicy};
use ppc_storage::latency::LatencyModel;
use ppc_trace::{AttemptMarker, EventKind, Phase, Recorder, TraceEvent, TraceSink, NO_WORKER};
use std::collections::BinaryHeap;

use crate::runtime::DryadReport;

/// Configuration of the simulated Dryad platform.
#[derive(Debug, Clone, Copy)]
pub struct DryadSimConfig {
    pub app: AppModel,
    /// Per-vertex startup cost, seconds (process launch on Windows HPC).
    pub vertex_overhead_s: f64,
    /// Node-local file I/O path.
    pub local_io: LatencyModel,
    /// Log-normal execution jitter sigma.
    pub jitter_sigma: f64,
}

impl Default for DryadSimConfig {
    fn default() -> Self {
        DryadSimConfig {
            app: AppModel::DEFAULT,
            vertex_overhead_s: 0.3,
            local_io: LatencyModel::local_disk_2010(),
            jitter_sigma: 0.02,
        }
    }
}

impl DryadSimConfig {
    /// Reject nonsense configuration before the simulation starts.
    pub fn validate(&self) -> Result<()> {
        if !self.vertex_overhead_s.is_finite() || self.vertex_overhead_s < 0.0 {
            return Err(PpcError::InvalidArgument(format!(
                "dryad sim config: vertex_overhead_s = {} must be finite and >= 0",
                self.vertex_overhead_s
            )));
        }
        if !self.jitter_sigma.is_finite() || self.jitter_sigma < 0.0 {
            return Err(PpcError::InvalidArgument(format!(
                "dryad sim config: jitter_sigma = {} must be finite and >= 0",
                self.jitter_sigma
            )));
        }
        Ok(())
    }
}

/// Cap on chaos re-runs of one vertex before it counts as failed (the
/// i.i.d. death dice can in principle chain forever at p close to 1).
const MAX_CHAOS_ATTEMPTS: u32 = 16;

/// Take the node's next-free slot through the quarantine gate, starting
/// no earlier than `earliest` (µs): a benched slot re-enters the heap at
/// its release time, so the list schedule flows around gray slots.
fn pick_slot(
    slots: &mut BinaryHeap<std::cmp::Reverse<(u64, usize)>>,
    mut health: Option<&mut HealthTracker>,
    earliest: u64,
    rec: Option<&Recorder>,
) -> (u64, usize) {
    loop {
        let std::cmp::Reverse((free_at, slot)) = slots.pop().expect("at least one slot");
        let start = free_at.max(earliest);
        let admit = health.as_mut().map_or(Admit::Go, |h| {
            h.admit(slot as u32, start as f64 / 1e6, &HealthTrace(rec))
        });
        match admit {
            Admit::Go => return (start, slot),
            Admit::Benched { until_s } => slots.push(std::cmp::Reverse((
                (until_s * 1e6).round() as u64 + 1,
                slot,
            ))),
        }
    }
}

/// The simulator body, reached through [`crate::simulate`]: independent
/// per-node list schedules over virtual worker slots, with one vertex
/// lifecycle for every run.
///
/// Under a [`ppc_chaos::FaultSchedule`], slots are addressed by flat
/// node-major index. A kill or death die landing on a vertex re-runs it in
/// place: on the same slot, from the failed attempt's end, with the same
/// jitter draw — the sim's twin of the native in-slot retry (static
/// partitioning: work never migrates across nodes). Gray degradation
/// stretches every vertex the degraded slot runs; cloud-storage outages do
/// not apply to Dryad's node-local files.
///
/// The context's policy is the defense: with a hedge config, a vertex
/// whose service time exceeds the learned delay gets a *backup vertex* on
/// the node's next-free slot (never crossing nodes) and the first
/// completion wins; a deadline cancels an overlong attempt at its timeout
/// and re-runs the vertex through slot selection, no earlier than the
/// cancel; a quarantine config benches gray slots off the list schedule.
/// An unset policy runs the same lifecycle with every defense off.
pub(crate) fn simulate_impl(
    cluster: &Cluster,
    tasks: &[TaskSpec],
    cfg: &DryadSimConfig,
    ctx: &RunContext,
) -> DryadReport {
    assert!(!tasks.is_empty(), "no tasks to simulate");
    if let Err(e) = cfg.validate().and_then(|()| ctx.validate()) {
        panic!("{e}");
    }
    let schedule = ctx.schedule.as_deref();
    let n_nodes = cluster.n_nodes();
    let itype = cluster.itype();
    // One independent RNG stream per worker slot (flat node-major index).
    let seed = ctx.sim_seed();
    let mut rngs: Vec<Pcg32> = (0..cluster.total_workers())
        .map(|w| Pcg32::for_stream(seed, w as u64))
        .collect();
    // The executing slot draws a vertex's jitter from its own stream; a
    // re-run in place reuses the draw, a re-slotted attempt draws afresh.
    let draw = |rng: &mut Pcg32| {
        if cfg.jitter_sigma > 0.0 {
            rng.log_normal(0.0, cfg.jitter_sigma)
        } else {
            1.0
        }
    };
    let rec: Option<Recorder> = ctx.trace.then(Recorder::new);

    // Static round-robin partitioning, fixed before execution starts.
    let partitions = crate::partition::partition_round_robin(tasks.to_vec(), n_nodes);

    let mut per_node_seconds = Vec::with_capacity(n_nodes);
    let mut vertex_failures = 0usize;
    let mut vertex_retries = 0usize;
    let mut total_attempts = 0usize;
    let mut deaths = 0usize;
    let mut failed: Vec<TaskId> = Vec::new();
    // Defense state is cluster-wide (one latency quantile, one health
    // ledger) even though backup vertices never cross nodes.
    let policy = ctx.resilience.unwrap_or_default();
    let mut hedge = policy.hedge.map(HedgePolicy::new);
    let mut health = policy.quarantine.map(HealthTracker::new);
    let deadline = policy.deadline;
    let mut hedged_losers = 0usize;
    let mut node_base = 0usize;
    for (node_idx, node_tasks) in partitions.iter().enumerate() {
        let workers = cluster.nodes()[node_idx].workers;
        // List-schedule the node's tasks onto its worker slots: a min-heap
        // of (slot-free time, flat slot id) — exact for FIFO within a node.
        let mut slots: BinaryHeap<std::cmp::Reverse<(u64, usize)>> = (0..workers)
            .map(|s| std::cmp::Reverse((0u64, node_base + s)))
            .collect();
        let mut chaos = vec![ChaosCursor::default(); workers];
        let mut node_finish = 0u64; // microseconds
        for task in node_tasks {
            let t_exec = task_service_seconds(&itype, workers, &task.profile, &cfg.app);
            let t_in = cfg.local_io.transfer_seconds(task.profile.input_bytes);
            let t_out = cfg.local_io.transfer_seconds(task.profile.output_bytes);
            let t_io = t_in + t_out;
            // One vertex attempt's spans; only the attempt that wins writes
            // its output (the terminal `Write`).
            let record = |attempt: u32, w: u32, start_s: f64, end_s: f64, wins: bool| {
                if let Some(rec) = &rec {
                    let phases = [
                        Phase::VertexStart,
                        Phase::ReadLocal,
                        Phase::Execute,
                        Phase::Write,
                    ];
                    let parts = (cfg.vertex_overhead_s, t_in, t_out);
                    AttemptMarker::new(rec, task.id.0, attempt, w, start_s)
                        .modeled(phases, parts, end_s, wins);
                }
            };
            let mut attempt_idx = 0u32;
            let (mut start, mut slot) = pick_slot(&mut slots, health.as_mut(), 0, rec.as_ref());
            let mut jitter = draw(&mut rngs[slot]);
            loop {
                let w = slot as u32;
                let start_s = start as f64 / 1e6;
                let factor = schedule.map_or(1.0, |s| s.slowdown(w, start_s));
                let dur_s = cfg.vertex_overhead_s + t_exec * jitter * factor + t_io;
                // A deadline cuts the attempt first: kills and dice then
                // land only inside the span it actually runs.
                let cut = deadline.filter(|d| dur_s > d.timeout_s);
                let mut finish = start + (cut.map_or(dur_s, |d| d.timeout_s) * 1e6).round() as u64;
                total_attempts += 1;
                let end_s = Some(finish as f64 / 1e6);
                let roll = schedule
                    .map(|s| chaos[slot - node_base].roll(s, w, end_s))
                    .unwrap_or_default();
                deaths += usize::from(roll.died);
                // A death outranks the cut.
                let cut = cut.filter(|_| !roll.fails);
                if roll.fails || cut.is_some() {
                    // A failed attempt: a death re-runs the vertex in place,
                    // on this slot; a deadline cancels it at the timeout and
                    // re-runs it through slot selection, where the
                    // quarantine gate can divert it off a gray slot.
                    let end_s = finish as f64 / 1e6;
                    record(attempt_idx, w, start_s, end_s, false);
                    if let Some(rec) = &rec {
                        let kind = match cut {
                            Some(_) => Some(EventKind::Cancel),
                            None => roll.killed.then_some(EventKind::Death),
                        };
                        if let Some(kind) = kind {
                            rec.event(TraceEvent {
                                at_s: end_s,
                                worker: w,
                                kind,
                            });
                        }
                    }
                    if let Some(h) = &mut health {
                        h.record(w, None, end_s, &HealthTrace(rec.as_ref()));
                    }
                    node_finish = node_finish.max(finish);
                    attempt_idx += 1;
                    if attempt_idx >= MAX_CHAOS_ATTEMPTS {
                        vertex_failures += 1;
                        failed.push(task.id);
                        slots.push(std::cmp::Reverse((finish, slot)));
                        break;
                    }
                    vertex_retries += 1;
                    if cut.is_some() {
                        slots.push(std::cmp::Reverse((finish, slot)));
                        (start, slot) =
                            pick_slot(&mut slots, health.as_mut(), finish, rec.as_ref());
                        jitter = draw(&mut rngs[slot]);
                    } else {
                        start = finish;
                    }
                    continue;
                }
                // The attempt will complete; a straggler may earn a
                // backup vertex on the node's next-free slot first.
                let mut winner_w = w;
                let mut winner_latency = dur_s;
                let mut hedged = false;
                if let Some(policy) = hedge.as_mut() {
                    let delay = policy.hedge_delay();
                    if dur_s > delay && policy.should_hedge(delay, 1, tasks.len()) {
                        let std::cmp::Reverse((b_free, b_slot)) =
                            slots.pop().expect("at least one slot");
                        let b_start = b_free.max(start + (delay * 1e6).round() as u64);
                        if b_start < finish {
                            let bw = b_slot as u32;
                            let b_start_s = b_start as f64 / 1e6;
                            let b_jitter = draw(&mut rngs[b_slot]);
                            let b_factor = schedule.map_or(1.0, |s| s.slowdown(bw, b_start_s));
                            let b_dur_s =
                                cfg.vertex_overhead_s + t_exec * b_jitter * b_factor + t_io;
                            let b_finish = b_start + (b_dur_s * 1e6).round() as u64;
                            policy.record_hedge();
                            total_attempts += 1;
                            hedged = true;
                            hedged_losers += 1;
                            if let Some(rec) = &rec {
                                rec.event(TraceEvent {
                                    at_s: b_start_s,
                                    worker: NO_WORKER,
                                    kind: EventKind::Hedge,
                                });
                            }
                            // First result wins; the loser is cancelled
                            // at the winner's completion, freeing both
                            // slots there.
                            let win = finish.min(b_finish);
                            let win_s = win as f64 / 1e6;
                            record(attempt_idx, w, start_s, win_s, b_finish >= finish);
                            record(attempt_idx + 1, bw, b_start_s, win_s, b_finish < finish);
                            if b_finish < finish {
                                winner_w = bw;
                                winner_latency = b_dur_s;
                            }
                            node_finish = node_finish.max(win);
                            slots.push(std::cmp::Reverse((win, slot)));
                            slots.push(std::cmp::Reverse((win, b_slot)));
                            finish = win;
                        } else {
                            // The backup could not launch before the
                            // primary finishes: pointless, skip it.
                            slots.push(std::cmp::Reverse((b_free, b_slot)));
                        }
                    }
                }
                if !hedged {
                    record(attempt_idx, w, start_s, finish as f64 / 1e6, true);
                    node_finish = node_finish.max(finish);
                    slots.push(std::cmp::Reverse((finish, slot)));
                }
                let end_s = finish as f64 / 1e6;
                if let Some(policy) = hedge.as_mut() {
                    policy.observe(winner_latency);
                }
                if let Some(h) = &mut health {
                    h.record(
                        winner_w,
                        Some(winner_latency),
                        end_s,
                        &HealthTrace(rec.as_ref()),
                    );
                }
                break;
            }
        }
        per_node_seconds.push(node_finish as f64 / 1e6);
        node_base += workers;
    }

    let makespan = per_node_seconds.iter().cloned().fold(0.0, f64::max);
    let summary = RunSummary {
        platform: format!("dryad-sim-{}", itype.name),
        cores: cluster.total_workers(),
        tasks: tasks.len() - vertex_failures,
        makespan_seconds: makespan,
        redundant_executions: vertex_retries + hedged_losers,
        remote_bytes: 0,
    };
    let cost = Some(cluster.cost(makespan));
    DryadReport {
        core: RunReport::close(summary, failed, total_attempts, deaths, cost, rec.as_ref()),
        per_node_seconds,
        vertex_failures,
        vertex_retries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppc_chaos::FaultSchedule;
    use ppc_compute::instance::BARE_HPC16;
    use ppc_core::task::ResourceProfile;
    use ppc_resilience::ResiliencePolicy;
    use std::sync::Arc;

    fn cpu_tasks(n: u64, secs: f64) -> Vec<TaskSpec> {
        (0..n)
            .map(|i| TaskSpec::new(i, "t", format!("f{i}"), ResourceProfile::cpu_bound(secs)))
            .collect()
    }

    fn quiet() -> DryadSimConfig {
        DryadSimConfig {
            vertex_overhead_s: 0.0,
            local_io: LatencyModel::FREE,
            jitter_sigma: 0.0,
            ..Default::default()
        }
    }

    // Shorthands for the RunContext entry point on one cluster.
    fn simulate(cluster: &Cluster, tasks: &[TaskSpec], cfg: &DryadSimConfig) -> DryadReport {
        crate::simulate(&RunContext::new(cluster), tasks, cfg)
    }

    fn simulate_chaos(
        cluster: &Cluster,
        tasks: &[TaskSpec],
        cfg: &DryadSimConfig,
        schedule: Option<Arc<FaultSchedule>>,
    ) -> DryadReport {
        crate::simulate(
            &RunContext::new(cluster).with_schedule(schedule),
            tasks,
            cfg,
        )
    }

    /// A traced run under a 30x gray slot 0, defended by `policy`.
    fn simulate_gray(
        cluster: &Cluster,
        tasks: &[TaskSpec],
        policy: Option<ResiliencePolicy>,
    ) -> DryadReport {
        let schedule = Arc::new(FaultSchedule::new(11).degrade(0, 30.0, 0.0, 1e9));
        let mut ctx = RunContext::new(cluster)
            .with_schedule(schedule)
            .with_trace(true);
        if let Some(p) = policy {
            ctx = ctx.with_resilience(p);
        }
        crate::simulate(&ctx, tasks, &quiet())
    }

    #[test]
    fn ideal_homogeneous_makespan() {
        // 64 homogeneous 10s tasks (ref clock 2.5GHz; HPC16 runs 2.3GHz so
        // each takes 10*2.5/2.3s), 2 nodes x 16 workers: 2 waves.
        let cluster = Cluster::provision(BARE_HPC16, 2, 16);
        let report = simulate(&cluster, &cpu_tasks(64, 10.0), &quiet());
        let expect = 2.0 * 10.0 * 2.5 / 2.3;
        assert!(
            (report.summary.makespan_seconds - expect).abs() < 1e-3,
            "{}",
            report.summary.makespan_seconds
        );
        assert!((report.imbalance() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn inhomogeneous_data_causes_imbalance() {
        // Sorted task sizes + round-robin over 2 nodes is fine, but one hot
        // node: tasks 0..32 long, 32..64 short -> contiguous halves hit
        // different nodes only under contiguous partitioning; with
        // round-robin, craft sizes by parity instead.
        let tasks: Vec<TaskSpec> = (0..64)
            .map(|i| {
                let secs = if i % 2 == 0 { 30.0 } else { 5.0 };
                TaskSpec::new(i, "t", format!("f{i}"), ResourceProfile::cpu_bound(secs))
            })
            .collect();
        let cluster = Cluster::provision(BARE_HPC16, 2, 16);
        let report = simulate(&cluster, &tasks, &quiet());
        assert!(report.imbalance() > 1.3, "imbalance {}", report.imbalance());
    }

    #[test]
    fn vertex_overhead_extends_makespan() {
        let cluster = Cluster::provision(BARE_HPC16, 2, 16);
        let lean = simulate(&cluster, &cpu_tasks(64, 10.0), &quiet());
        let heavy = simulate(
            &cluster,
            &cpu_tasks(64, 10.0),
            &DryadSimConfig {
                vertex_overhead_s: 1.0,
                jitter_sigma: 0.0,
                local_io: LatencyModel::FREE,
                ..Default::default()
            },
        );
        assert!(heavy.summary.makespan_seconds > lean.summary.makespan_seconds);
    }

    #[test]
    fn deterministic() {
        let cluster = Cluster::provision(BARE_HPC16, 4, 16);
        let tasks = cpu_tasks(100, 3.0);
        let cfg = DryadSimConfig::default();
        assert_eq!(
            simulate(&cluster, &tasks, &cfg).summary.makespan_seconds,
            simulate(&cluster, &tasks, &cfg).summary.makespan_seconds
        );
    }

    #[test]
    fn chaos_costs_time_and_stays_deterministic() {
        let cluster = Cluster::provision(BARE_HPC16, 2, 16);
        let tasks = cpu_tasks(64, 10.0);
        let cfg = quiet();
        let schedule = Arc::new(
            FaultSchedule::new(13)
                .kill_at(0, 5.0)
                .degrade(17, 2.0, 0.0, 40.0)
                .with_death_probabilities(0.05, 0.03, 0.02),
        );
        let clean = simulate(&cluster, &tasks, &cfg);
        let a = simulate_chaos(&cluster, &tasks, &cfg, Some(schedule.clone()));
        let b = simulate_chaos(&cluster, &tasks, &cfg, Some(schedule));
        assert_eq!(a.vertex_failures, 0);
        assert_eq!(a.summary.tasks, 64);
        assert!(a.vertex_retries > 0, "chaos must cost re-runs");
        assert!(
            a.summary.makespan_seconds > clean.summary.makespan_seconds,
            "chaos must cost time: {} vs {}",
            a.summary.makespan_seconds,
            clean.summary.makespan_seconds
        );
        assert_eq!(a.summary.makespan_seconds, b.summary.makespan_seconds);
        assert_eq!(a.vertex_retries, b.vertex_retries);
    }

    #[test]
    #[should_panic(expected = "vertex_overhead_s")]
    fn invalid_sim_config_panics_with_message() {
        let cluster = Cluster::provision(BARE_HPC16, 1, 1);
        let cfg = DryadSimConfig {
            vertex_overhead_s: -1.0,
            ..Default::default()
        };
        simulate(&cluster, &cpu_tasks(2, 1.0), &cfg);
    }

    #[test]
    fn sim_hedging_rescues_gray_straggler() {
        use ppc_resilience::HedgeConfig;
        // Slot 0 is gray (30x): its in-hand vertex would run ~326s; a
        // backup vertex on a healthy slot wins in ~26s instead.
        let cluster = Cluster::provision(BARE_HPC16, 1, 8);
        let tasks = cpu_tasks(64, 10.0);
        let plain = simulate_gray(&cluster, &tasks, None);
        let policy = ResiliencePolicy::hedged(HedgeConfig::quantile(15.0));
        let hedged = simulate_gray(&cluster, &tasks, Some(policy));
        assert_eq!(hedged.summary.tasks, 64);
        let trace = hedged.core.trace.as_ref().unwrap();
        assert!(trace.events_of_kind(EventKind::Hedge) > 0);
        assert!(
            hedged.summary.redundant_executions > plain.summary.redundant_executions,
            "losing duplicates count as redundant work"
        );
        assert!(
            hedged.summary.makespan_seconds < plain.summary.makespan_seconds,
            "hedged {} vs unhedged {}",
            hedged.summary.makespan_seconds,
            plain.summary.makespan_seconds
        );
    }

    #[test]
    fn sim_quarantine_benches_gray_slot() {
        use ppc_resilience::QuarantineConfig;
        // Slot 0 is gray (30x): after two ~327s vertices its EWMA is far
        // past 3x the fleet median, so it is benched and the list schedule
        // flows around it.
        let cluster = Cluster::provision(BARE_HPC16, 1, 8);
        let tasks = cpu_tasks(512, 10.0);
        let plain = simulate_gray(&cluster, &tasks, None);
        let policy = ResiliencePolicy::default().with_quarantine(QuarantineConfig {
            min_samples: 2,
            quarantine_s: 1e5,
            ..Default::default()
        });
        let defended = simulate_gray(&cluster, &tasks, Some(policy));
        assert_eq!(defended.summary.tasks, 512);
        let trace = defended.core.trace.as_ref().unwrap();
        assert!(trace.events_of_kind(EventKind::Quarantine) > 0);
        assert!(
            defended.summary.makespan_seconds < plain.summary.makespan_seconds,
            "defended {} vs undefended {}",
            defended.summary.makespan_seconds,
            plain.summary.makespan_seconds
        );
    }

    #[test]
    fn sim_deadline_cancels_and_requeues() {
        // A 60s deadline cuts the gray slot's ~327s vertex and re-runs it
        // through slot selection.
        let cluster = Cluster::provision(BARE_HPC16, 1, 8);
        let tasks = cpu_tasks(64, 10.0);
        let policy = ResiliencePolicy::default().with_deadline(60.0);
        let report = simulate_gray(&cluster, &tasks, Some(policy));
        assert_eq!(report.summary.tasks, 64, "no vertex may be lost");
        let trace = report.core.trace.as_ref().unwrap();
        assert!(trace.events_of_kind(EventKind::Cancel) > 0);
    }

    #[test]
    fn deadline_replacement_starts_after_the_cancel() {
        // One 10s vertex on a 2-slot node whose slot 0 runs 30x slow: the
        // 60s deadline cancels attempt 0, and its replacement on the
        // healthy slot cannot start before that cancel.
        let cluster = Cluster::provision(BARE_HPC16, 1, 2);
        let schedule = Arc::new(FaultSchedule::new(11).degrade(0, 30.0, 0.0, 1e9));
        let ctx = RunContext::new(&cluster)
            .with_schedule(schedule)
            .with_trace(true)
            .with_resilience(ResiliencePolicy::default().with_deadline(60.0));
        let report = crate::simulate(&ctx, &cpu_tasks(1, 10.0), &quiet());
        let trace = report.core.trace.as_ref().unwrap();
        let cancel_s = trace
            .events()
            .iter()
            .find(|e| e.kind == EventKind::Cancel)
            .expect("the overdue attempt is cancelled")
            .at_s;
        assert!((cancel_s - 60.0).abs() < 1e-9, "cancel at {cancel_s}");
        let replacement = trace
            .spans()
            .iter()
            .find(|s| s.attempt == 1 && s.phase == Phase::Attempt)
            .expect("a replacement attempt");
        assert!(
            replacement.start_s >= cancel_s,
            "replacement starts at {} before the cancel at {cancel_s}",
            replacement.start_s
        );
        let expect = 60.0 + 10.0 * 2.5 / 2.3;
        assert!(
            (report.summary.makespan_seconds - expect).abs() < 1e-3,
            "makespan {}",
            report.summary.makespan_seconds
        );
    }

    #[test]
    fn deadline_cut_comes_before_a_later_kill() {
        // Slot 0 runs 30x slow and is killed at 100 s. The 60 s deadline
        // cuts its ~326 s attempt first, so the kill lands after the
        // attempt ended: a cancel at 60 s and a replacement on slot 1.
        let cluster = Cluster::provision(BARE_HPC16, 1, 2);
        let schedule = FaultSchedule::new(11)
            .degrade(0, 30.0, 0.0, 1e9)
            .kill_at(0, 100.0);
        let ctx = RunContext::new(&cluster)
            .with_schedule(Arc::new(schedule))
            .with_trace(true)
            .with_resilience(ResiliencePolicy::default().with_deadline(60.0));
        let report = crate::simulate(&ctx, &cpu_tasks(1, 10.0), &quiet());
        let trace = report.core.trace.as_ref().unwrap();
        let events: Vec<_> = trace.events().iter().map(|e| (e.kind, e.at_s)).collect();
        assert_eq!(events, [(EventKind::Cancel, 60.0)]);
        assert_eq!(report.worker_deaths, 0);
        let expect = 60.0 + 10.0 * 2.5 / 2.3;
        assert!(
            (report.summary.makespan_seconds - expect).abs() < 1e-3,
            "makespan {}",
            report.summary.makespan_seconds
        );
    }

    #[test]
    fn windows_speedup_applies() {
        // Cap3's 12.5% Windows advantage shows up on the Windows HPC nodes.
        let cluster = Cluster::provision(BARE_HPC16, 2, 16);
        let tasks = cpu_tasks(64, 10.0);
        let linux_app = simulate(&cluster, &tasks, &quiet());
        let win_app = simulate(
            &cluster,
            &tasks,
            &DryadSimConfig {
                app: AppModel::cap3(),
                ..quiet()
            },
        );
        assert!(win_app.summary.makespan_seconds < linux_app.summary.makespan_seconds);
    }
}
