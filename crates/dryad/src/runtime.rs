//! The native Dryad runtime for the paper's pattern, a homomorphic
//! `select` over statically partitioned inputs: Dryad's policy over the
//! shared [`SlotPool`], plus its report.
//!
//! Inputs are split across nodes **before** the job starts (the Windows
//! shared directories of §2.3). Each node is one pool partition whose
//! slots pull only the node's own list, so balancing is dynamic *within*
//! a node but never across nodes — the limitation the paper's
//! load-balancing discussion measures (§4.2). A failed vertex re-runs in
//! place, and a cut one on a slot of its node idle at the cut.

use ppc_core::exec::Executor;
use ppc_core::json::Json;
use ppc_core::task::{TaskId, TaskSpec};
use ppc_core::{PpcError, Result};
use ppc_exec::slots::{Attempt, Pick, Slot, SlotPolicy, SlotPool};
use ppc_exec::{RunContext, RunReport};
use ppc_resilience::AttemptLedger;
use ppc_trace::{Phase, NO_WORKER};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Configuration for the native Dryad runtime.
#[derive(Debug, Clone)]
pub struct DryadConfig {
    /// Fail the whole job on the first unrecoverable vertex failure.
    pub fail_fast: bool,
    /// Re-run a failed vertex up to this many extra times before giving up
    /// — Table 3's "re-execution of failed ... tasks" for Dryad. Every
    /// failed attempt counts: a primary, a backup or a deadline cut.
    pub max_retries: u32,
}

impl Default for DryadConfig {
    fn default() -> Self {
        DryadConfig {
            fail_fast: false,
            max_retries: 2,
        }
    }
}

/// Report of one Dryad job run: the cross-paradigm [`RunReport`] core
/// (summary, failed tasks, attempt/death counters, cost, trace —
/// reachable directly through `Deref`) plus the Dryad-specific extras.
#[derive(Debug, Clone)]
pub struct DryadReport {
    /// The shared report core; `report.summary`, `report.failed`,
    /// `report.total_attempts`, `report.worker_deaths`, `report.cost`,
    /// and `report.trace` all live here.
    pub core: RunReport,
    /// Wall seconds each node took to clear its static partition.
    pub per_node_seconds: Vec<f64>,
    /// Vertices that failed *permanently* (exhausted their retries);
    /// `core.failed` lists their task ids.
    pub vertex_failures: usize,
    /// Failed vertex attempts that earned their vertex another attempt.
    pub vertex_retries: usize,
}

impl std::ops::Deref for DryadReport {
    type Target = RunReport;
    fn deref(&self) -> &RunReport {
        &self.core
    }
}

impl std::ops::DerefMut for DryadReport {
    fn deref_mut(&mut self) -> &mut RunReport {
        &mut self.core
    }
}

impl DryadReport {
    /// Max node time over mean node time — 1.0 is perfect balance. The
    /// paper's inhomogeneous-data studies show this growing for DryadLINQ
    /// while Hadoop's global queue keeps it near 1.
    pub fn imbalance(&self) -> f64 {
        let n = self.per_node_seconds.len();
        if n == 0 {
            return 1.0;
        }
        let max = self.per_node_seconds.iter().cloned().fold(0.0, f64::max);
        let mean = self.per_node_seconds.iter().sum::<f64>() / n as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }

    /// JSON rendering: the core's canonical object
    /// ([`RunReport::to_json`]) extended with the Dryad extras.
    pub fn to_json(&self) -> Json {
        let Json::Obj(mut fields) = self.core.to_json() else {
            unreachable!("RunReport::to_json returns an object");
        };
        fields.push(("imbalance".into(), Json::from(self.imbalance())));
        fields.push((
            "vertex_retries".into(),
            Json::from(self.vertex_retries as u64),
        ));
        Json::Obj(fields)
    }
}

/// (output key, output bytes) pairs, in completion order.
pub use ppc_exec::JobOutputs;

/// Run `executor` over every input on the context's single cluster,
/// statically partitioned round-robin across its nodes. Returns the
/// report and the outputs (output key → bytes), in completion order.
///
/// Each node is one partition of the [`SlotPool`] and of a run-wide
/// ledger, which keeps each vertex's budget of `max_retries + 1` failed
/// attempts. A failed attempt (a death die, a torn output) re-runs in
/// place when no other attempt of the vertex is live; a cut one re-runs on
/// a slot of its node idle at the cut, else in place. Re-execution never
/// crosses nodes (DryadLINQ's static partitioning): a slot killed as it
/// pulls a vertex hands it to a surviving slot of its node, and a node
/// whose every slot dies fails what is left on its list. A vertex's dice
/// are addressed by its place in a round-robin deal of its node's list over
/// the node's slots (the `k`-th vertex is slot `k % slots`'s `k / slots`-th
/// task), on its first attempt only, not by the slot that takes it, so
/// which vertices fail does not depend on thread timing. Storage outages
/// do *not* apply: Dryad reads node-local files.
///
/// The context's policy is the defense: once its node's list is empty, an
/// idle slot backs up the node's oldest hedge-eligible straggler, and the
/// first Ok attempt kills the others (redundant executions); a quarantine
/// config benches gray slots off the list. The makespan is the time the
/// last vertex settled: a killed loser may still be draining past it.
///
/// A malformed context schedule or policy is an `InvalidArgument` error,
/// returned before any thread starts. Native Dryad takes no context seed:
/// its fault dice come from the schedule's own seed, and its in-slot
/// re-runs never back off.
pub fn run(
    ctx: &RunContext,
    inputs: Vec<(TaskSpec, Vec<u8>)>,
    executor: Arc<dyn Executor>,
    config: &DryadConfig,
) -> Result<(DryadReport, JobOutputs)> {
    let cluster = ctx.single_cluster()?;
    if inputs.is_empty() {
        return Err(PpcError::InvalidArgument("no inputs".into()));
    }
    ctx.validate()?;
    // Ledger task ids number the vertices node-major; each node's list
    // holds a pick per vertex, with its dice address from the deal.
    let (mut vertices, mut partitions, mut lists, mut homes) = (vec![], vec![], vec![], vec![]);
    let parts = crate::partition::partition_round_robin(inputs, cluster.n_nodes());
    for (node, part) in parts.into_iter().enumerate() {
        let (base, slots) = (homes.len(), cluster.nodes()[node].workers);
        homes.extend([(node, node)].repeat(slots));
        let mut list = VecDeque::new();
        for (k, vertex) in part.into_iter().enumerate() {
            list.push_back(Pick {
                task: vertices.len(),
                launched: None,
                dice: Some(((base + k % slots) as u32, (k / slots) as u32)),
                hedge: None,
            });
            vertices.push(vertex);
            partitions.push(node);
        }
        lists.push(list);
    }
    // One ledger, so a single hedge quantile learns from every node.
    let hedge = ctx.resilience.unwrap_or_default().hedge;
    let ledger = AttemptLedger::new(partitions, hedge, config.max_retries + 1);
    let outputs = Mutex::new(Vec::new());
    let dryad = Dryad {
        executor,
        vertices,
        outputs,
    };
    let book = Book { ledger, lists };
    let (dryad, mut run) = SlotPool::new(ctx, dryad, book, &homes).run();
    if config.fail_fast && !run.failed.is_empty() {
        return Err(run.failed.swap_remove(0).1);
    }
    let outputs = std::mem::take(&mut *dryad.outputs.lock().unwrap());
    let makespan = run.finished_s;
    let failed = run.failed.iter().map(|&(t, _)| dryad.task_id(t)).collect();
    // Node-local files only: no remote bytes.
    let core = run.report(
        "dryadlinq",
        makespan,
        0,
        failed,
        Some(cluster.cost(makespan)),
    );
    let report = DryadReport {
        core,
        per_node_seconds: run.partition_s.clone(),
        vertex_failures: run.failed.len(),
        vertex_retries: run.book.ledger.retries() as usize,
    };
    Ok((report, outputs))
}

/// Dryad's slot policy.
struct Dryad {
    executor: Arc<dyn Executor>,
    /// Every vertex's spec and node-local input, by ledger task id.
    vertices: Vec<(TaskSpec, Vec<u8>)>,
    outputs: Mutex<JobOutputs>,
}

/// What Dryad's slots take work from, under the pool's lock.
struct Book {
    ledger: AttemptLedger,
    /// Each node's vertices not yet pulled.
    lists: Vec<VecDeque<Pick>>,
}

impl SlotPolicy for Dryad {
    type Book = Book;
    type Out = Vec<u8>;
    const LAUNCH_PHASE: Phase = Phase::VertexStart;

    fn ledger(book: &mut Book) -> &mut AttemptLedger {
        &mut book.ledger
    }

    fn task_id(&self, task: usize) -> TaskId {
        self.vertices[task].0.id
    }

    /// The node's next vertex, else a backup of its oldest hedge-eligible
    /// straggler. Backups and re-runs roll no chaos dice: the dice model
    /// per-pull hazards.
    fn take(&self, book: &mut Book, slot: &mut Slot, now_s: f64) -> Option<Pick> {
        let p = slot.partition;
        book.lists[p].pop_front().or_else(|| {
            let id = book.ledger.launch_hedge(p, now_s)?;
            Some(Pick {
                task: id.task,
                launched: Some(id),
                dice: None,
                hedge: Some(NO_WORKER),
            })
        })
    }

    fn put_back(&self, book: &mut Book, slot: &Slot, pick: Pick) {
        book.lists[slot.partition].push_front(pick);
    }

    fn requeue(&self, _book: &mut Book, _task: usize) -> bool {
        false
    }

    fn attempt(&self, a: &mut Attempt<'_, '_, Self>) -> Result<Vec<u8>> {
        let started = Instant::now();
        // Any death die or a torn output costs exactly one failed attempt.
        a.dice()?;
        // Inputs are already in node-local memory: the read phase is an
        // instant that keeps the native phase set aligned with the sim's.
        a.mark(Phase::ReadLocal);
        let (spec, input) = &self.vertices[a.id.task];
        // Gray degradation stretches the execute phase itself, so a
        // straggler is slow in the trace and loses the commit race for real.
        let r = self.executor.run_cancellable(spec, input, &a.cancel);
        let r = a.stretch(started).and(r);
        a.mark(Phase::Execute);
        if r.is_ok() {
            // Under hedging the write that reaches the ledger first is the
            // terminal one.
            a.mark(Phase::Write);
        }
        r
    }

    fn commit(&self, a: &mut Attempt<'_, '_, Self>, bytes: Vec<u8>) {
        let key = self.vertices[a.id.task].0.output_key.clone();
        self.outputs.lock().unwrap().push((key, bytes));
    }
}

// What the unit tests name from this module's scope.
#[cfg(test)]
use {
    ppc_chaos::FaultSchedule,
    ppc_core::Cancel,
    ppc_resilience::ResiliencePolicy,
    ppc_trace::{EventKind, TraceSink},
    std::sync::atomic::Ordering,
};

#[cfg(test)]
mod tests {
    use super::*;
    use ppc_compute::cluster::Cluster;
    use ppc_compute::instance::BARE_HPC16;
    use ppc_core::exec::FnExecutor;
    use ppc_core::task::ResourceProfile;
    use std::time::Duration;

    // Shorthands for the RunContext entry point on one cluster.
    fn run_homomorphic_job(
        cluster: &Cluster,
        inputs: Vec<(TaskSpec, Vec<u8>)>,
        executor: Arc<dyn Executor>,
        config: &DryadConfig,
    ) -> Result<(DryadReport, JobOutputs)> {
        crate::run(&RunContext::new(cluster), inputs, executor, config)
    }

    fn run_homomorphic_job_chaos(
        cluster: &Cluster,
        inputs: Vec<(TaskSpec, Vec<u8>)>,
        executor: Arc<dyn Executor>,
        config: &DryadConfig,
        schedule: Option<Arc<FaultSchedule>>,
    ) -> Result<(DryadReport, JobOutputs)> {
        crate::run(
            &RunContext::new(cluster).with_schedule(schedule),
            inputs,
            executor,
            config,
        )
    }

    fn inputs(n: u64) -> Vec<(TaskSpec, Vec<u8>)> {
        (0..n)
            .map(|i| {
                (
                    TaskSpec::new(i, "t", format!("f{i}"), ResourceProfile::cpu_bound(0.0)),
                    format!("d{i}").into_bytes(),
                )
            })
            .collect()
    }

    #[test]
    fn processes_all_inputs() {
        let cluster = Cluster::provision(BARE_HPC16, 2, 4);
        let exec = FnExecutor::new("rev", |_s, i: &[u8]| {
            let mut v = i.to_vec();
            v.reverse();
            Ok(v)
        });
        let (report, outputs) =
            run_homomorphic_job(&cluster, inputs(20), exec, &DryadConfig::default()).unwrap();
        assert_eq!(report.summary.tasks, 20);
        assert_eq!(outputs.len(), 20);
        assert_eq!(report.vertex_failures, 0);
        assert_eq!(report.per_node_seconds.len(), 2);
    }

    #[test]
    fn empty_inputs_rejected() {
        let cluster = Cluster::provision(BARE_HPC16, 1, 1);
        let exec = FnExecutor::new("id", |_s, i: &[u8]| Ok(i.to_vec()));
        assert!(run_homomorphic_job(&cluster, vec![], exec, &DryadConfig::default()).is_err());
    }

    #[test]
    fn fail_fast_surfaces_error() {
        let cluster = Cluster::provision(BARE_HPC16, 1, 2);
        let exec = FnExecutor::new("boom", |spec: &TaskSpec, i: &[u8]| {
            if spec.id.0 == 3 {
                Err(PpcError::TaskFailed("bad vertex".into()))
            } else {
                Ok(i.to_vec())
            }
        });
        let err = run_homomorphic_job(
            &cluster,
            inputs(6),
            exec.clone(),
            &DryadConfig {
                fail_fast: true,
                max_retries: 0,
            },
        )
        .unwrap_err();
        assert_eq!(err.code(), "TaskFailed");
        // Without fail-fast the job completes the rest; the deterministic
        // poison vertex fails permanently even after its retries.
        let (report, outputs) =
            run_homomorphic_job(&cluster, inputs(6), exec, &DryadConfig::default()).unwrap();
        assert_eq!(report.vertex_failures, 1);
        assert_eq!(outputs.len(), 5);
    }

    #[test]
    fn transient_vertex_failures_are_retried() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // Every task fails on its first attempt and succeeds on the retry.
        let attempts: Arc<std::sync::Mutex<std::collections::HashMap<u64, AtomicUsize>>> =
            Default::default();
        let attempts2 = attempts.clone();
        let exec = FnExecutor::new("flaky", move |spec: &TaskSpec, i: &[u8]| {
            let map = attempts2.lock().unwrap();
            let n = map
                .get(&spec.id.0)
                .map(|a| a.fetch_add(1, Ordering::Relaxed))
                .unwrap_or_else(|| {
                    drop(map);
                    attempts2
                        .lock()
                        .unwrap()
                        .entry(spec.id.0)
                        .or_insert_with(|| AtomicUsize::new(1));
                    0
                });
            if n == 0 {
                Err(PpcError::Transient("first attempt flakes".into()))
            } else {
                Ok(i.to_vec())
            }
        });
        let cluster = Cluster::provision(BARE_HPC16, 2, 2);
        let (report, outputs) =
            run_homomorphic_job(&cluster, inputs(12), exec, &DryadConfig::default()).unwrap();
        assert_eq!(report.vertex_failures, 0, "retries recovered every vertex");
        assert_eq!(outputs.len(), 12);
        assert_eq!(report.vertex_retries, 12, "one retry per task");
    }

    #[test]
    fn scheduled_kill_recovered_by_surviving_slot() {
        // Kill slot 0 (node 0) almost immediately; its in-hand vertex must
        // be re-run by the node's surviving slot, losing nothing.
        let cluster = Cluster::provision(BARE_HPC16, 2, 2);
        let exec = FnExecutor::new("slow", |_s, i: &[u8]| {
            std::thread::sleep(Duration::from_millis(2));
            Ok(i.to_vec())
        });
        let schedule = Arc::new(FaultSchedule::new(5).kill_at(0, 0.003));
        let (report, outputs) = run_homomorphic_job_chaos(
            &cluster,
            inputs(16),
            exec,
            &DryadConfig::default(),
            Some(schedule),
        )
        .unwrap();
        assert_eq!(report.vertex_failures, 0);
        assert_eq!(outputs.len(), 16, "no vertex may be lost to the kill");
    }

    #[test]
    fn chaos_dice_drive_vertex_retries() {
        let cluster = Cluster::provision(BARE_HPC16, 2, 2);
        let exec = FnExecutor::new("id", |_s, i: &[u8]| Ok(i.to_vec()));
        let schedule = Arc::new(FaultSchedule::new(7).with_death_probabilities(0.3, 0.2, 0.1));
        let (report, outputs) = run_homomorphic_job_chaos(
            &cluster,
            inputs(40),
            exec,
            &DryadConfig::default(),
            Some(schedule),
        )
        .unwrap();
        assert_eq!(report.vertex_failures, 0);
        assert_eq!(outputs.len(), 40);
        assert!(
            report.vertex_retries > 0,
            "dice must have cost some attempts"
        );
    }

    #[test]
    fn chaos_dice_follow_the_deal_not_the_racing_slot() {
        // 3 slots per node race for each node's list; the dice must hit the
        // same vertices whichever slot wins, so every run dies exactly at
        // the deal addresses the schedule marks.
        let cluster = Cluster::provision(BARE_HPC16, 2, 3);
        let schedule = Arc::new(FaultSchedule::new(11).with_death_probabilities(0.1, 0.05, 0.05));
        let expected: usize = crate::partition::partition_round_robin(inputs(40), 2)
            .iter()
            .enumerate()
            .map(|(node, part)| {
                (0..part.len())
                    .filter(|k| {
                        let (w, seq) = ((node * 3 + k % 3) as u32, (k / 3) as u32);
                        schedule.die_before_execute(w, seq)
                            || schedule.die_mid_execute(w, seq)
                            || schedule.die_before_delete(w, seq)
                    })
                    .count()
            })
            .sum();
        assert!(expected > 0, "the schedule must kill something");
        for _ in 0..8 {
            let exec = FnExecutor::new("id", |_s, i: &[u8]| Ok(i.to_vec()));
            let (report, outputs) = run_homomorphic_job_chaos(
                &cluster,
                inputs(40),
                exec,
                &DryadConfig::default(),
                Some(schedule.clone()),
            )
            .unwrap();
            assert_eq!(outputs.len(), 40);
            assert_eq!(report.worker_deaths, expected);
            assert_eq!(report.total_attempts, 40 + expected);
        }
    }

    #[test]
    fn invalid_schedule_rejected_up_front() {
        let cluster = Cluster::provision(BARE_HPC16, 1, 1);
        let exec = FnExecutor::new("id", |_s, i: &[u8]| Ok(i.to_vec()));
        let schedule = Arc::new(FaultSchedule::new(1).brownout(0.5, 0.1));
        let err = run_homomorphic_job_chaos(
            &cluster,
            inputs(2),
            exec,
            &DryadConfig::default(),
            Some(schedule),
        )
        .unwrap_err();
        assert_eq!(err.code(), "InvalidArgument");
    }

    fn sleepy(ms: u64) -> Arc<dyn Executor> {
        FnExecutor::new("sleepy", move |_s: &TaskSpec, i: &[u8]| {
            std::thread::sleep(Duration::from_millis(ms));
            Ok(i.to_vec())
        })
    }

    #[test]
    fn backup_vertex_rescues_gray_straggler() {
        use ppc_resilience::HedgeConfig;
        use ppc_trace::Recorder;
        // Slot 0 is gray (40x): without hedging its in-hand vertex pins the
        // node for ~200ms; with hedging an idle slot launches a backup and
        // the first Ok wins.
        let cluster = Cluster::provision(BARE_HPC16, 1, 4);
        let schedule = Arc::new(FaultSchedule::new(3).degrade(0, 40.0, 0.0, 1e9));
        let run_with = |resilience: Option<ResiliencePolicy>| {
            let mut ctx = RunContext::new(&cluster)
                .with_schedule(schedule.clone())
                .with_sink(Arc::new(Recorder::new()) as Arc<dyn TraceSink>);
            if let Some(p) = resilience {
                ctx = ctx.with_resilience(p);
            }
            crate::run(&ctx, inputs(16), sleepy(5), &DryadConfig::default()).unwrap()
        };
        let (plain, plain_out) = run_with(None);
        let hedged_policy = ResiliencePolicy::hedged(HedgeConfig::quantile(0.02));
        let (hedged, hedged_out) = run_with(Some(hedged_policy));
        assert_eq!(plain_out.len(), 16);
        assert_eq!(hedged_out.len(), 16, "first-Ok-wins must keep every output");
        assert_eq!(hedged.summary.tasks, 16);
        let trace = hedged.core.trace.as_ref().unwrap();
        assert!(
            trace.events_of_kind(EventKind::Hedge) > 0,
            "an idle slot must have launched a backup vertex"
        );
        assert!(
            hedged.summary.redundant_executions > 0,
            "the losing duplicate counts as redundant work"
        );
        assert!(
            hedged.summary.makespan_seconds < plain.summary.makespan_seconds,
            "hedged {} vs unhedged {}",
            hedged.summary.makespan_seconds,
            plain.summary.makespan_seconds
        );
    }

    #[test]
    fn deadline_cancels_overdue_vertex() {
        // Slot 0 is gray (40x, ~200ms per vertex); a 50ms deadline cuts
        // the overdue attempt and an idle slot re-runs it.
        let cluster = Cluster::provision(BARE_HPC16, 1, 4);
        let schedule = Arc::new(FaultSchedule::new(3).degrade(0, 40.0, 0.0, 1e9));
        let ctx = RunContext::new(&cluster)
            .with_schedule(schedule)
            .with_sink(Arc::new(ppc_trace::Recorder::new()) as Arc<dyn TraceSink>)
            .with_resilience(ResiliencePolicy::default().with_deadline(0.05));
        let (report, outputs) =
            crate::run(&ctx, inputs(16), sleepy(5), &DryadConfig::default()).unwrap();
        assert_eq!(outputs.len(), 16, "cancellation must never lose a vertex");
        let trace = report.core.trace.as_ref().unwrap();
        assert!(
            trace.events_of_kind(EventKind::Cancel) > 0,
            "the overdue vertex must have been cancelled"
        );
    }

    /// Threads of this process whose OS name is `name`; threads inherit
    /// their creator's name, so this counts a named probe thread and
    /// everything it spawned.
    fn threads_named(name: &str) -> usize {
        std::fs::read_dir("/proc/self/task").map_or(0, |tasks| {
            tasks
                .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
                .filter(|comm| comm.trim_end() == name)
                .count()
        })
    }

    /// Echoes its input after a [`Cancel::sleep`]: 2 s for the first call
    /// on vertex 0 (a gray straggler), 5 ms otherwise.
    struct Straggler(std::sync::atomic::AtomicBool);

    impl Executor for Straggler {
        fn run(&self, spec: &TaskSpec, input: &[u8]) -> Result<Vec<u8>> {
            self.run_cancellable(spec, input, &Cancel::never())
        }

        fn run_cancellable(
            &self,
            spec: &TaskSpec,
            input: &[u8],
            cancel: &Cancel,
        ) -> Result<Vec<u8>> {
            let slow = spec.id.0 == 0 && self.0.swap(false, Ordering::SeqCst);
            cancel.sleep(Duration::from_millis(if slow { 2000 } else { 5 }))?;
            Ok(input.to_vec())
        }
    }

    #[test]
    fn winning_backup_kills_the_straggling_primary() {
        use ppc_resilience::HedgeConfig;
        const PROBE: &str = "dryad-kill";
        let cluster = Cluster::provision(BARE_HPC16, 1, 2);
        let ctx = RunContext::new(&cluster)
            .with_sink(Arc::new(ppc_trace::Recorder::new()) as Arc<dyn TraceSink>)
            .with_resilience(ResiliencePolicy::hedged(HedgeConfig::quantile(0.02)));
        let exec = Arc::new(Straggler(std::sync::atomic::AtomicBool::new(true)));
        let start = Instant::now();
        let (report, mut outputs) = std::thread::Builder::new()
            .name(PROBE.into())
            .spawn(move || crate::run(&ctx, inputs(8), exec, &DryadConfig::default()))
            .unwrap()
            .join()
            .unwrap()
            .unwrap();
        let wall = start.elapsed();
        assert!(
            wall < Duration::from_secs(1),
            "straggler not killed: {wall:?}"
        );
        outputs.sort();
        let mut expected: Vec<_> = inputs(8)
            .into_iter()
            .map(|(spec, input)| (spec.output_key, input))
            .collect();
        expected.sort();
        assert_eq!(outputs, expected, "exactly one output per vertex");
        assert_eq!(report.vertex_failures, 0, "a killed loser is no failure");
        assert!(report.summary.redundant_executions >= 1);
        let trace = report.core.trace.as_ref().unwrap();
        assert!(trace.events_of_kind(EventKind::Hedge) >= 1);
        assert!(trace.events_of_kind(EventKind::Cancel) >= 1);
        // Scoped threads are joined; give the kernel a moment to reap them.
        let reaped = Instant::now();
        while threads_named(PROBE) > 0 && reaped.elapsed() < Duration::from_secs(2) {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(threads_named(PROBE), 0, "worker threads leaked");
    }

    /// Echoes its input after a [`Cancel::sleep`] of 60 ms, noting how long
    /// each call's sleep ran before it returned.
    struct Overrunner(Mutex<Vec<Duration>>);

    impl Executor for Overrunner {
        fn run(&self, spec: &TaskSpec, input: &[u8]) -> Result<Vec<u8>> {
            self.run_cancellable(spec, input, &Cancel::never())
        }

        fn run_cancellable(
            &self,
            _spec: &TaskSpec,
            input: &[u8],
            cancel: &Cancel,
        ) -> Result<Vec<u8>> {
            let started = Instant::now();
            let slept = cancel.sleep(Duration::from_millis(60));
            self.0.lock().unwrap().push(started.elapsed());
            slept.map(|()| input.to_vec())
        }
    }

    #[test]
    fn deadline_cuts_a_vertex_on_a_node_with_no_idle_slot() {
        // One node, one slot: no slot is ever idle while the vertex runs,
        // so the calling thread must cut it. Every 60-ms attempt is cut at
        // the 30-ms deadline, and the vertex fails after its three attempts
        // (run to the end, they would take 180 ms).
        let cluster = Cluster::provision(BARE_HPC16, 1, 1);
        let exec = Arc::new(Overrunner(Mutex::new(Vec::new())));
        let ctx = RunContext::new(&cluster)
            .with_resilience(ResiliencePolicy::default().with_deadline(0.03));
        let config = DryadConfig {
            fail_fast: false,
            max_retries: 2,
        };
        let start = Instant::now();
        let (report, outputs) = crate::run(&ctx, inputs(1), exec.clone(), &config).unwrap();
        let wall = start.elapsed();
        assert!(outputs.is_empty());
        assert_eq!(report.failed, vec![TaskId(0)]);
        assert_eq!(report.total_attempts, 3);
        let ran = exec.0.lock().unwrap();
        assert_eq!(ran.len(), 3, "one call per attempt");
        for d in ran.iter() {
            let ms = d.as_secs_f64() * 1e3;
            assert!(
                (25.0..55.0).contains(&ms),
                "attempt ran {ms:.1} ms, not cut near 30"
            );
        }
        assert!(
            wall < Duration::from_millis(150),
            "vertex failed after {wall:?}"
        );
    }

    #[test]
    fn static_partitioning_shows_imbalance_on_skew() {
        // Node 0 gets all the slow tasks under round-robin when slow tasks
        // are at even indices and n_nodes divides their stride.
        let cluster = Cluster::provision(BARE_HPC16, 2, 2);
        let exec = FnExecutor::new("skew", |spec: &TaskSpec, i: &[u8]| {
            if spec.id.0.is_multiple_of(2) {
                std::thread::sleep(Duration::from_millis(30));
            }
            Ok(i.to_vec())
        });
        let (report, _) =
            run_homomorphic_job(&cluster, inputs(8), exec, &DryadConfig::default()).unwrap();
        // All 4 slow tasks landed on node 0 (ids 0,2,4,6): strong imbalance.
        assert!(report.imbalance() > 1.5, "imbalance {}", report.imbalance());
    }
}
