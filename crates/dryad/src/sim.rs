//! The simulated DryadLINQ runtime: native Dryad's book, driven in virtual
//! time on a typed [`ppc_des::Engine`]. Events fire in time order, so the
//! run-wide hedge quantile and health ledger learn each completion in its
//! turn. Chaos, spans and the report attach as in every engine: a
//! [`ChaosCursor`] per slot, an [`AttemptMarker`] per attempt, and
//! [`RunReport::close`].

use crate::runtime::{Book, DryadReport};
use ppc_chaos::{ChaosCursor, Roll};
use ppc_compute::cluster::Cluster;
use ppc_compute::model::{task_service_seconds, AppModel};
use ppc_core::metrics::RunSummary;
use ppc_core::rng::Pcg32;
use ppc_core::task::TaskSpec;
use ppc_core::{PpcError, Result};
use ppc_des::{Engine, EventId, Fired, SimTime};
use ppc_exec::{HealthTrace, RunContext, RunReport};
use ppc_resilience::{Admit, AttemptId, FailOutcome, HealthTracker, ResiliencePolicy};
use ppc_storage::latency::LatencyModel;
use ppc_trace::{AttemptMarker, EventKind, Phase, Recorder, TraceEvent, TraceSink};

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
        let dials = [
            ("vertex_overhead_s", self.vertex_overhead_s),
            ("jitter_sigma", self.jitter_sigma),
        ];
        match dials.into_iter().find(|&(_, v)| !v.is_finite() || v < 0.0) {
            Some((name, v)) => Err(PpcError::InvalidArgument(format!(
                "dryad sim config: {name} = {v} must be finite and >= 0"
            ))),
            None => Ok(()),
        }
    }
}

/// Failed attempts that fail a vertex for good (the i.i.d. death dice can
/// in principle chain forever at p close to 1).
const MAX_FAILURES: u32 = 16;

/// A slot polls its node's book, a slot's attempt ends, or a node's hedge
/// timer wakes its idle slots.
#[derive(Debug, Clone, Copy)]
enum Event {
    Poll(u32),
    End(u32),
    Hedge(u32),
}

/// An attempt in a slot's hands, with the chaos roll and cut that decide its end.
struct Running {
    id: AttemptId,
    start_s: f64,
    end: EventId,
    roll: Roll,
    cut: bool,
}

/// A worker slot; with no attempt, it is idle or waits for a poll.
struct Slot {
    node: usize,
    rng: Pcg32,
    chaos: ChaosCursor,
    running: Option<Running>,
}

/// A node: its unresolved vertices, the time its last one resolved, its
/// idle slots and its hedge timer.
#[derive(Default)]
struct Node {
    remaining: usize,
    finish_s: f64,
    idle: Vec<usize>,
    timer: Option<(EventId, SimTime)>,
}

struct Sim<'a> {
    cfg: &'a DryadSimConfig,
    ctx: &'a RunContext,
    cluster: &'a Cluster,
    tasks: &'a [TaskSpec],
    policy: ResiliencePolicy,
    health: Option<HealthTracker>,
    rec: Option<Recorder>,
    book: Book,
    slots: Vec<Slot>,
    nodes: Vec<Node>,
    attempts: usize,
    deaths: usize,
}

/// Simulate a statically partitioned job of `tasks` in virtual time on
/// the context's single cluster: the twin of [`crate::run`] for paper-scale
/// what-if studies, taking work from the same book. Nothing flows between
/// nodes after the static deal (why DryadLINQ load-balances worse than the
/// global-queue platforms). Every attempt rolls its slot's dice (slots by
/// flat node-major index) over the span it runs; gray degradation
/// stretches the degraded slot's attempts; storage outages do not touch
/// node-local files. The context's policy is the defense: a backup of the
/// node's oldest straggler once its list is empty, deadline cuts, and
/// quarantine benches at each poll.
///
/// Without a context seed the run uses seed 42. Panics on no tasks,
/// malformed sim dials or context, or a hybrid/elastic fleet plan.
pub fn simulate(ctx: &RunContext, tasks: &[TaskSpec], cfg: &DryadSimConfig) -> DryadReport {
    let cluster = ctx.single_cluster().unwrap_or_else(|e| panic!("{e}"));
    assert!(!tasks.is_empty(), "no tasks to simulate");
    if let Err(e) = cfg.validate().and_then(|()| ctx.validate()) {
        panic!("{e}");
    }
    let policy = ctx.resilience.unwrap_or_default();
    let (book, homes) = Book::deal(cluster, tasks.len(), policy.hedge, MAX_FAILURES);
    let slots = (homes.iter().enumerate())
        .map(|(w, &(node, _))| Slot {
            node,
            rng: Pcg32::for_stream(ctx.sim_seed(), w as u64),
            chaos: ChaosCursor::default(),
            running: None,
        })
        .collect();
    let mut nodes: Vec<Node> = cluster.nodes().iter().map(|_| Node::default()).collect();
    (0..tasks.len()).for_each(|t| nodes[book.ledger.partition(t)].remaining += 1);
    let mut sim = Sim {
        cfg,
        ctx,
        cluster,
        tasks,
        policy,
        health: policy.quarantine.map(HealthTracker::new),
        rec: ctx.trace.then(Recorder::new),
        book,
        slots,
        nodes,
        attempts: 0,
        deaths: 0,
    };
    let mut engine = Engine::typed();
    for w in 0..homes.len() {
        engine.post_at(SimTime::ZERO, Event::Poll(w as u32));
    }
    engine.run_with(|e, fired| match fired {
        Fired::Event(event) => sim.fire(e, event),
        Fired::Tick(_) => unreachable!("the Dryad sim uses no lane"),
    });
    let per_node_seconds: Vec<f64> = sim.nodes.iter().map(|n| n.finish_s).collect();
    let makespan = per_node_seconds.iter().cloned().fold(0.0, f64::max);
    let ledger = &sim.book.ledger;
    let failed: Vec<_> = ledger.failed_tasks().iter().map(|&t| tasks[t].id).collect();
    let vertex_retries = ledger.retries() as usize;
    let summary = RunSummary {
        platform: format!("dryad-sim-{}", cluster.itype().name),
        cores: cluster.total_workers(),
        tasks: ledger.n_done(),
        makespan_seconds: makespan,
        redundant_executions: vertex_retries + ledger.duplicate_completions() as usize,
        remote_bytes: 0,
    };
    let (cost, vertex_failures) = (Some(cluster.cost(makespan)), failed.len());
    let (attempts, deaths, rec) = (sim.attempts, sim.deaths, sim.rec.as_ref());
    DryadReport {
        core: RunReport::close(summary, failed, attempts, deaths, cost, rec),
        per_node_seconds,
        vertex_failures,
        vertex_retries,
    }
}

impl Sim<'_> {
    fn fire(&mut self, e: &mut Engine<Event>, event: Event) {
        match event {
            Event::Poll(w) => self.poll(e, w as usize),
            Event::End(w) => self.end(e, w as usize),
            Event::Hedge(node) => {
                let node = &mut self.nodes[node as usize];
                node.timer = None;
                for k in std::mem::take(&mut node.idle) {
                    self.poll(e, k);
                }
            }
        }
        if self.policy.hedge.is_some() {
            // A commit moves the run-wide hedge delay: re-aim every timer.
            (0..self.nodes.len()).for_each(|node| self.sync_hedge_timer(e, node));
        }
    }

    /// Slot `w` polls: it leaves once its node has resolved every vertex,
    /// waits out a bench, else takes its node's next vertex or a backup,
    /// or idles until the node's hedge timer.
    fn poll(&mut self, e: &mut Engine<Event>, w: usize) {
        let (now_s, node) = (e.now().as_secs_f64(), self.slots[w].node);
        if self.nodes[node].remaining == 0 {
            return;
        }
        let trace = HealthTrace(self.rec.as_ref());
        let admit = (self.health.as_mut()).map(|h| h.admit(w as u32, now_s, &trace));
        if let Some(Admit::Benched { until_s }) = admit {
            e.post_at(SimTime::after_now(e.now(), until_s), Event::Poll(w as u32));
            return;
        }
        let Some(pick) = self.book.take(node, now_s) else {
            self.nodes[node].idle.push(w);
            return;
        };
        let id = (pick.launched).unwrap_or_else(|| self.book.ledger.launch(pick.task, now_s));
        self.start(e, w, id);
        if let Some(worker) = pick.hedge {
            self.event(worker, EventKind::Hedge, now_s);
        }
    }

    /// Launch attempt `id` on slot `w` now: jitter from the slot's stream,
    /// the slot's gray slowdown, the deadline's cut, then the slot's chaos
    /// over the span the attempt runs; a death outranks the cut.
    fn start(&mut self, e: &mut Engine<Event>, w: usize, id: AttemptId) {
        let (cfg, now_s, slot) = (self.cfg, e.now().as_secs_f64(), &mut self.slots[w]);
        let (profile, schedule) = (&self.tasks[id.task].profile, self.ctx.schedule.as_deref());
        let workers = self.cluster.nodes()[slot.node].workers;
        let t_exec = task_service_seconds(&self.cluster.itype(), workers, profile, &cfg.app);
        let t_in = cfg.local_io.transfer_seconds(profile.input_bytes);
        let t_io = t_in + cfg.local_io.transfer_seconds(profile.output_bytes);
        let jitter = match cfg.jitter_sigma > 0.0 {
            true => slot.rng.log_normal(0.0, cfg.jitter_sigma),
            false => 1.0,
        };
        let factor = schedule.map_or(1.0, |s| s.slowdown(w as u32, now_s));
        let dur_s = cfg.vertex_overhead_s + t_exec * jitter * factor + t_io;
        let cut = self.policy.deadline.filter(|d| dur_s > d.timeout_s);
        let end_at = e.now() + SimTime::from_secs_f64(cut.map_or(dur_s, |d| d.timeout_s));
        let window = Some(end_at.as_secs_f64());
        let roll = (schedule.map(|s| slot.chaos.roll(s, w as u32, window))).unwrap_or_default();
        self.deaths += usize::from(roll.died);
        self.attempts += 1;
        slot.running = Some(Running {
            id,
            start_s: now_s,
            end: e.post_at(end_at, Event::End(w as u32)),
            roll,
            cut: cut.is_some() && !roll.fails,
        });
    }

    /// Slot `w`'s attempt ends now. A commit kills the vertex's other live
    /// attempts. A failure (a death, a torn output, a deadline cut) re-runs
    /// the vertex if it has budget left and no other attempt live: in place,
    /// or for a cut on an idle slot of its node if it has one. The slot then
    /// polls, unless it re-runs.
    fn end(&mut self, e: &mut Engine<Event>, w: usize) {
        let now_s = e.now().as_secs_f64();
        let r = (self.slots[w].running.take()).expect("an end without an attempt");
        let (node, task, ok) = (self.slots[w].node, r.id.task, !r.roll.fails && !r.cut);
        self.record(w, &r, now_s, ok);
        match (r.cut, r.roll.killed) {
            (true, _) => self.event(w as u32, EventKind::Cancel, now_s),
            (_, true) => self.event(w as u32, EventKind::Death, now_s),
            _ => {}
        }
        let trace = HealthTrace(self.rec.as_ref());
        if let Some(h) = &mut self.health {
            h.record(w as u32, ok.then_some(now_s - r.start_s), now_s, &trace);
        }
        if ok {
            self.book.ledger.complete_at(r.id, now_s);
            self.settle(node, now_s);
            if self.book.ledger.live_attempts(task) > 0 {
                self.kill_rivals(e, task);
            }
        } else {
            match self.book.ledger.fail(r.id) {
                FailOutcome::Retried if self.book.ledger.live_attempts(task) == 0 => {
                    let idle = r.cut.then(|| self.nodes[node].idle.pop()).flatten();
                    let id = self.book.ledger.launch(task, now_s);
                    self.start(e, idle.unwrap_or(w), id);
                    if idle.is_none() {
                        return;
                    }
                }
                FailOutcome::TaskFailed => self.settle(node, now_s),
                _ => {}
            }
        }
        self.poll(e, w);
    }

    /// Kill `task`'s live attempts, losers of its commit now, and let their
    /// slots poll. An attempt is armed only as it is killed, for the ledger.
    fn kill_rivals(&mut self, e: &mut Engine<Event>, task: usize) {
        let now_s = e.now().as_secs_f64();
        for k in 0..self.slots.len() {
            if let Some(loser) = self.slots[k].running.take_if(|l| l.id.task == task) {
                e.cancel(loser.end);
                self.book.ledger.arm(loser.id, k as u32).cancel();
                self.book.ledger.release_cancelled(loser.id);
                self.record(k, &loser, now_s, false);
                self.event(k as u32, EventKind::Cancel, now_s);
                self.poll(e, k);
            }
        }
    }

    /// Count one of `node`'s vertices resolved now.
    fn settle(&mut self, node: usize, now_s: f64) {
        self.nodes[node].remaining -= 1;
        self.nodes[node].finish_s = now_s;
    }

    /// Keep `node`'s hedge timer aimed at its earliest hedge time while it
    /// has an idle slot to launch it, as the Classic sim's is.
    fn sync_hedge_timer(&mut self, e: &mut Engine<Event>, node: usize) {
        let n = &mut self.nodes[node];
        let want = (!n.idle.is_empty())
            .then(|| self.book.ledger.earliest_hedge_s(node))
            .flatten()
            .map(|at_s| SimTime::after_now(e.now(), at_s));
        if n.timer.map(|(_, at)| at) != want {
            if let Some((timer, _)) = n.timer.take() {
                e.cancel(timer);
            }
            n.timer = want.map(|at| (e.post_at(at, Event::Hedge(node as u32)), at));
        }
    }

    /// Write attempt `r`'s spans on slot `w`, ended at `end_s`; only the
    /// winner writes its output (the terminal `Write`).
    fn record(&self, w: usize, r: &Running, end_s: f64, wins: bool) {
        let Some(rec) = &self.rec else {
            return;
        };
        use Phase::{Execute, ReadLocal, VertexStart, Write};
        let (task, io) = (&self.tasks[r.id.task], &self.cfg.local_io);
        let (t_in, t_out) = (
            io.transfer_seconds(task.profile.input_bytes),
            io.transfer_seconds(task.profile.output_bytes),
        );
        let phases = [VertexStart, ReadLocal, Execute, Write];
        AttemptMarker::new(rec, task.id.0, r.id.attempt, w as u32, r.start_s).modeled(
            phases,
            (self.cfg.vertex_overhead_s, t_in, t_out),
            end_s,
            wins,
        );
    }

    fn event(&self, worker: u32, kind: EventKind, at_s: f64) {
        if let Some(rec) = &self.rec {
            rec.event(TraceEvent { at_s, worker, kind });
        }
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
    fn backups_wait_for_the_node_list_to_empty() {
        use ppc_resilience::HedgeConfig;
        // Native Dryad's `take` rule: a slot backs up a straggler only once
        // its node's list is empty. No dice fail anything, so every attempt
        // past the first is a backup, and none starts before the node's
        // last first attempt.
        let cluster = Cluster::provision(BARE_HPC16, 1, 8);
        let policy = ResiliencePolicy::hedged(HedgeConfig::quantile(20.0));
        let report = simulate_gray(&cluster, &cpu_tasks(64, 10.0), Some(policy));
        let trace = report.core.trace.as_ref().unwrap();
        let starts = |backup: bool| {
            (trace.spans().iter())
                .filter(move |s| s.phase == Phase::Attempt && (s.attempt >= 1) == backup)
                .map(|s| s.start_s)
        };
        let last_first = starts(false).fold(0.0, f64::max);
        let first_backup = starts(true).fold(f64::INFINITY, f64::min);
        assert!(
            first_backup.is_finite(),
            "the gray slot's vertex gets a backup"
        );
        assert!(
            first_backup >= last_first,
            "a backup starts at {first_backup}, before the last first attempt at {last_first}"
        );
    }

    #[test]
    fn sim_quarantine_benches_gray_slot() {
        use ppc_resilience::QuarantineConfig;
        // Slot 0 is gray (30x): after two ~327s vertices its EWMA is far
        // past 3x the fleet median, so it is benched and its node's list
        // flows to the other slots.
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
