//! The native Dryad-style job runner for the paper's pattern: a homomorphic
//! `select` over statically partitioned inputs.
//!
//! Inputs are split across nodes **before** the job starts (the Windows
//! shared directories of §2.3); each node then processes only its own list
//! using its worker threads. Dynamic balancing happens *within* a node
//! (vertices share the node's cores) but never across nodes — the defining
//! limitation measured in the paper's load-balancing discussion (§4.2).

use ppc_chaos::{FaultSchedule, RunClock};
use ppc_core::exec::Executor;
use ppc_core::json::Json;
use ppc_core::metrics::RunSummary;
use ppc_core::task::{TaskId, TaskSpec};
use ppc_core::{Cancel, PpcError, Result};
use ppc_exec::{HealthTrace, RunContext, RunReport};
use ppc_resilience::{
    Admit, AttemptId, AttemptLedger, CompleteOutcome, FailOutcome, HealthTracker, ResiliencePolicy,
};
use ppc_trace::{AttemptMarker, EventKind, Phase, RunMeta, Span, TraceEvent, TraceSink, NO_WORKER};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

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
/// Every slot runs one vertex lifecycle over a run-wide [`AttemptLedger`]
/// with one partition per node: it launches and arms attempts, keeps each
/// vertex's budget of `max_retries + 1` failed attempts, decides
/// first-result-wins commit and holds every live attempt's kill token. A
/// failed attempt (a death die or a torn output) is re-run in place when
/// no other attempt of the vertex is live.
/// The fault schedule addresses workers by flat slot index (node-major); a
/// scheduled kill takes a slot down and its in-hand vertex goes back on the
/// node's list for a surviving slot — re-execution never crosses nodes
/// (DryadLINQ's static partitioning), so a node whose every slot dies fails
/// what is left on its list. A vertex's dice are addressed by its place in
/// a round-robin deal of its node's partition over the node's slots (the
/// `k`-th vertex is slot `k % slots`'s `k / slots`-th task), not by the
/// slot that takes it, so which vertices fail does not depend on thread
/// timing. Storage outages do *not* apply: Dryad reads node-local files.
///
/// The context's policy is the defense. While the node threads run, the
/// calling thread cuts each attempt past the deadline through the ledger,
/// which kills and fails it, so a node with no idle slot still cuts its
/// breaches. The cut vertex re-runs on a slot of its node that was idle at
/// the cut, if there is one, else in place on the victim's slot. Once its
/// node's list is empty, an idle slot backs up the node's oldest
/// hedge-eligible straggler; the first Ok attempt kills the others
/// (redundant executions). A quarantine config benches gray slots off the
/// list. The makespan is the time the last vertex settled: a killed loser
/// may still be draining past it.
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
    let n_nodes = cluster.n_nodes();
    // Static node-level partitioning, fixed before execution. Ledger task
    // ids number the vertices node-major; each node's local list carries
    // its vertices' ids and chaos-dice addresses from the round-robin deal.
    let mut vertices = Vec::new();
    let mut partitions = Vec::new();
    let mut nodes = Vec::with_capacity(n_nodes);
    let mut node_base = 0usize;
    for (node, part) in crate::partition::partition_round_robin(inputs, n_nodes)
        .into_iter()
        .enumerate()
    {
        let slots = cluster.nodes()[node].workers.max(1);
        let local: VecDeque<_> = part
            .into_iter()
            .enumerate()
            .map(|(k, vertex)| {
                vertices.push(vertex);
                partitions.push(node);
                let dice = ((node_base + k % slots) as u32, (k / slots) as u32);
                (vertices.len() - 1, dice)
            })
            .collect();
        nodes.push(NodeState {
            index: node,
            base: node_base,
            remaining: AtomicUsize::new(local.len()),
            local: Mutex::new(local),
            slots: Mutex::new((0..slots).map(|_| Slot::Busy).collect()),
        });
        node_base += cluster.nodes()[node].workers;
    }

    // An unset policy runs the same lifecycle with every defense off.
    let policy: ResiliencePolicy = ctx.resilience.unwrap_or_default();
    let sink = ctx.sink.as_deref().filter(|s| s.enabled());
    let ledger = AttemptLedger::new(partitions, policy.hedge, config.max_retries + 1);
    let shared = SlotCtx {
        executor: &executor,
        sink,
        chaos: ctx.schedule.as_deref(),
        clock: RunClock::start(),
        ledger: Mutex::new(ledger),
        health: policy
            .quarantine
            .map(|cfg| Mutex::new(HealthTracker::new(cfg))),
        vertices,
        outputs: Mutex::new(Vec::new()),
        failed: Mutex::new(Vec::new()),
        attempts_total: AtomicUsize::new(0),
        deaths: AtomicUsize::new(0),
        finished_s: Mutex::new(0.0),
    };
    let per_node: Mutex<Vec<f64>> = Mutex::new(vec![0.0; n_nodes]);

    std::thread::scope(|scope| {
        for state in &nodes {
            let workers = cluster.nodes()[state.index].workers;
            let ctx = &shared;
            let per_node = &per_node;
            scope.spawn(move || {
                let node_start = Instant::now();
                std::thread::scope(|inner| {
                    for slot in 0..workers {
                        inner.spawn(move || slot_loop(ctx, state, (state.base + slot) as u32));
                    }
                });
                // Every slot of this node is dead: the vertices left on
                // its list have nowhere to run.
                for (task, _) in std::mem::take(&mut *state.local.lock().unwrap()) {
                    let spec = &ctx.vertices[task].0;
                    let err = PpcError::TaskFailed(format!(
                        "vertex {}: every slot on node {} died",
                        spec.id.0, state.index
                    ));
                    ctx.fail_vertex(state, spec, err);
                }
                per_node.lock().unwrap()[state.index] = node_start.elapsed().as_secs_f64();
            });
        }
        // Dryad's vertex timeout: until every vertex settles, cut each
        // attempt past the deadline, busy slots or not.
        if let Some(d) = policy.deadline {
            while nodes
                .iter()
                .any(|n| n.remaining.load(Ordering::Acquire) > 0)
            {
                let cuts = nodes.iter().filter(|n| shared.cut_overdue(n, d.timeout_s));
                if cuts.count() == 0 {
                    std::thread::sleep(IDLE_POLL);
                }
            }
        }
    });
    let makespan = *shared.finished_s.lock().unwrap();

    let mut failed = shared.failed.into_inner().unwrap();
    if config.fail_fast && !failed.is_empty() {
        return Err(failed.swap_remove(0).1);
    }
    let outputs = shared.outputs.into_inner().unwrap();
    let ledger = shared.ledger.into_inner().unwrap();
    // The meta carries the *same* f64 makespan the summary reports, so
    // Eq. 1 recomputed from the trace matches the engine exactly.
    let trace = sink.and_then(|s| {
        s.set_meta(RunMeta {
            platform: "dryadlinq".into(),
            cores: cluster.total_workers(),
            tasks: outputs.len(),
            makespan_seconds: makespan,
        });
        s.span(Span::job(makespan));
        s.snapshot()
    });
    let report = DryadReport {
        core: RunReport {
            summary: RunSummary {
                platform: "dryadlinq".into(),
                cores: cluster.total_workers(),
                tasks: outputs.len(),
                makespan_seconds: makespan,
                redundant_executions: ledger.duplicate_completions() as usize,
                remote_bytes: 0, // node-local files only
            },
            failed: failed.iter().map(|&(id, _)| id).collect(),
            total_attempts: shared.attempts_total.load(Ordering::Relaxed),
            worker_deaths: shared.deaths.load(Ordering::Relaxed),
            cost: Some(cluster.cost(makespan)),
            trace,
        },
        per_node_seconds: per_node.into_inner().unwrap(),
        vertex_failures: failed.len(),
        vertex_retries: ledger.retries() as usize,
    };
    Ok((report, outputs))
}

/// Poll sleep of an idle slot, and of the deadline cutter.
const IDLE_POLL: Duration = Duration::from_micros(200);

/// Everything a vertex slot touches, shared across every node's slots:
/// the run's inputs, its defense state and its tallies. Lock order:
/// `ledger` before a node's `slots`; never take `health` while holding
/// `ledger`.
struct SlotCtx<'a> {
    executor: &'a Arc<dyn Executor>,
    sink: Option<&'a dyn TraceSink>,
    chaos: Option<&'a FaultSchedule>,
    clock: RunClock,
    /// One ledger for the run, so latency observations feed a single
    /// hedge quantile even though backup vertices never cross nodes.
    ledger: Mutex<AttemptLedger>,
    health: Option<Mutex<HealthTracker>>,
    /// Every vertex's spec and node-local input, by ledger task id.
    vertices: Vec<(TaskSpec, Vec<u8>)>,
    outputs: Mutex<Vec<(String, Vec<u8>)>>,
    /// Permanently failed vertices with their errors, in failure order.
    failed: Mutex<Vec<(TaskId, PpcError)>>,
    attempts_total: AtomicUsize,
    deaths: AtomicUsize,
    /// Clock time the last vertex settled: the makespan, since a killed
    /// loser stops only at its executor's next cancellation check.
    finished_s: Mutex<f64>,
}

/// Per-node state: the local work list and the count of vertices not yet
/// committed or permanently failed.
struct NodeState {
    /// The node's index, which is also its ledger partition.
    index: usize,
    /// Flat worker index of the node's first slot.
    base: usize,
    /// Ledger task ids of the vertices not yet started, each with the
    /// `(worker, task_seq)` its first attempt rolls the chaos dice at.
    local: Mutex<VecDeque<(usize, (u32, u32))>>,
    remaining: AtomicUsize,
    /// Each slot's state, by slot index on the node.
    slots: Mutex<Vec<Slot>>,
}

/// A slot as a re-run sees it.
#[derive(Default)]
enum Slot {
    #[default]
    Busy,
    /// Out of work, polling its node: a deadline cut may hand it a re-run.
    Idle,
    /// A vertex's re-run, launched and armed on this slot: in place after a
    /// failure, or handed over by a deadline cut.
    Rerun(AttemptId, Cancel),
}

/// One traced vertex attempt: chaos dice at the `dice` address, if any
/// (a vertex's first attempt only), local read, execute, and the terminal
/// write mark on success. Returns `Err(Cancelled)` once `cancel` is set,
/// during execution or the gray slowdown.
fn vertex_attempt(
    ctx: &SlotCtx,
    id: AttemptId,
    worker: u32,
    dice: Option<(u32, u32)>,
    cancel: &Cancel,
) -> Result<Vec<u8>> {
    let (spec, input) = &ctx.vertices[id.task];
    ctx.attempts_total.fetch_add(1, Ordering::Relaxed);
    let attempt_start = Instant::now();
    // Each attempt is its own span subtree; dropping the marker on a
    // failure path still closes it.
    let mut tt = ctx.sink.map(|s| {
        let mut tt = AttemptMarker::new(s, spec.id.0, id.attempt, worker, ctx.clock.now_s());
        tt.mark(Phase::VertexStart, ctx.clock.now_s());
        tt
    });
    if let (Some(schedule), Some((w, seq))) = (ctx.chaos, dice) {
        // Any death die or a torn output costs exactly one failed attempt;
        // the job manager re-runs the vertex.
        let died = schedule.die_before_execute(w, seq)
            || schedule.die_mid_execute(w, seq)
            || schedule.die_before_delete(w, seq);
        if died || schedule.is_torn_upload(w, seq) {
            if died {
                ctx.deaths.fetch_add(1, Ordering::Relaxed);
                ctx.event(worker, EventKind::Death, ctx.clock.now_s());
            }
            return Err(PpcError::Transient("chaos: vertex attempt killed".into()));
        }
    }
    // Inputs are already in node-local memory: the read phase is an
    // instant that keeps the native phase set aligned with the sim's.
    if let Some(tt) = tt.as_mut() {
        tt.mark(Phase::ReadLocal, ctx.clock.now_s());
    }
    let mut r = ctx.executor.run_cancellable(spec, input, cancel);
    // Gray degradation stretches the execute phase itself, so a straggling
    // attempt is slow in the trace and loses the commit race for real; the
    // stretch ends early, with `Err(Cancelled)`, if the attempt is killed.
    let factor = ctx.chaos.map(|s| s.slowdown(worker, ctx.clock.now_s()));
    if let Some(factor) = factor.filter(|&f| f > 1.0) {
        r = cancel
            .sleep(attempt_start.elapsed().mul_f64(factor - 1.0))
            .and(r);
    }
    if let Some(tt) = tt.as_mut() {
        tt.mark(Phase::Execute, ctx.clock.now_s());
        if r.is_ok() {
            // Under hedging a backup vertex may race this attempt; the
            // write that reaches the ledger first is the terminal one.
            tt.mark(Phase::Write, ctx.clock.now_s());
        }
    }
    r
}

/// A vertex slot's one lifecycle: run its re-run, if it holds one, else
/// pull vertices off the node's local list and run each through the ledger
/// (Table 3's Dryad fault tolerance). Once the list is empty, an idle slot
/// backs up hedge-eligible stragglers on its own node, or waits for the
/// node to settle — a slot killed later pushes its vertex back onto the
/// list. Quarantined slots are benched off the list until released.
fn slot_loop(ctx: &SlotCtx, node: &NodeState, worker: u32) {
    ctx.event(worker, EventKind::WorkerStart, ctx.clock.now_s());
    let mut last_kill_s: f64 = 0.0;
    loop {
        let held = std::mem::take(&mut node.slots.lock().unwrap()[worker as usize - node.base]);
        if let Slot::Rerun(id, cancel) = held {
            ctx.run_attempt(node, worker, id, cancel, None);
            continue;
        }
        if let Some(health) = &ctx.health {
            // Quarantine gate: a benched slot naps instead of pulling work.
            // Its share of the list is picked up by the node's other slots
            // (within-node balancing is dynamic; across nodes it is not).
            let now_s = ctx.clock.now_s();
            let admit = health
                .lock()
                .unwrap()
                .admit(worker, now_s, &HealthTrace(ctx.sink));
            if admit != Admit::Go {
                if node.remaining.load(Ordering::Acquire) == 0 {
                    break;
                }
                std::thread::sleep(Duration::from_micros(500));
                continue;
            }
        }
        let item = node.local.lock().unwrap().pop_front();
        let (id, cancel, dice) = match item {
            Some((task, dice)) => {
                if let Some(schedule) = ctx.chaos {
                    let now_s = ctx.clock.now_s();
                    if schedule.kills_in(worker, last_kill_s, now_s) {
                        // Slot dies: hand the vertex back to a surviving
                        // slot on this node.
                        ctx.deaths.fetch_add(1, Ordering::Relaxed);
                        ctx.event(worker, EventKind::Death, now_s);
                        node.local.lock().unwrap().push_front((task, dice));
                        break;
                    }
                    last_kill_s = now_s;
                }
                // The clock is read under the ledger lock: launch times
                // stay in order.
                let mut ledger = ctx.ledger.lock().unwrap();
                let id = ledger.launch(task, ctx.clock.now_s());
                (id, ledger.arm(id, worker), Some(dice))
            }
            // The node's partition is fully settled.
            None if node.remaining.load(Ordering::Acquire) == 0 => break,
            None => match ctx.idle_work(node, worker) {
                // Backups roll no chaos dice: the dice model per-pull
                // hazards and this slot already survived its pull.
                Some((id, cancel)) => (id, cancel, None),
                None => {
                    std::thread::sleep(IDLE_POLL);
                    continue;
                }
            },
        };
        ctx.run_attempt(node, worker, id, cancel, dice);
    }
}

impl SlotCtx<'_> {
    /// Record a trace event, when tracing.
    fn event(&self, worker: u32, kind: EventKind, at_s: f64) {
        if let Some(s) = self.sink {
            s.event(TraceEvent { at_s, worker, kind });
        }
    }

    /// Score a finished attempt (`None` = failed) on `worker`'s health.
    fn score(&self, worker: u32, latency_s: Option<f64>) {
        if let Some(h) = &self.health {
            let now_s = self.clock.now_s();
            h.lock()
                .unwrap()
                .record(worker, latency_s, now_s, &HealthTrace(self.sink));
        }
    }

    /// Run attempt `id` and settle it: the first Ok commits (the ledger
    /// kills the vertex's other attempts), a killed loser leaves as
    /// redundant work, and a failure may earn a re-run in place. An attempt
    /// cut at its deadline is already settled.
    fn run_attempt(
        &self,
        node: &NodeState,
        worker: u32,
        id: AttemptId,
        cancel: Cancel,
        dice: Option<(u32, u32)>,
    ) {
        let started = Instant::now();
        let out = vertex_attempt(self, id, worker, dice, &cancel);
        let latency_s = started.elapsed().as_secs_f64();
        let mut ledger = self.ledger.lock().unwrap();
        let now_s = self.clock.now_s();
        if !ledger.is_live(id) {
            return;
        }
        match out {
            Ok(bytes) => {
                let first = ledger.complete_at(id, now_s) == CompleteOutcome::First;
                drop(ledger);
                if first {
                    let key = self.vertices[id.task].0.output_key.clone();
                    self.outputs.lock().unwrap().push((key, bytes));
                    self.vertex_settled(node);
                }
                // A duplicate that lost the race is discarded: exactly-once
                // output, the ledger counts the redundant work.
                self.score(worker, Some(latency_s));
            }
            Err(_) if cancel.is_cancelled() => {
                // Killed by the vertex's committing attempt: redundant
                // work, no failure.
                ledger.release_cancelled(id);
                drop(ledger);
                self.event(worker, EventKind::Cancel, now_s);
            }
            Err(e) => {
                let outcome = ledger.fail(id);
                self.failed_attempt(ledger, node, id, outcome, worker, false, e);
            }
        }
    }

    /// An idle slot's turn on its node: launch a backup of the oldest
    /// hedge-eligible straggler, else mark the slot idle, ready for a cut
    /// vertex's re-run. `None`: nothing to run yet.
    fn idle_work(&self, node: &NodeState, worker: u32) -> Option<(AttemptId, Cancel)> {
        let mut ledger = self.ledger.lock().unwrap();
        let now_s = self.clock.now_s();
        let Some(id) = ledger.launch_hedge(node.index, now_s) else {
            node.slots.lock().unwrap()[worker as usize - node.base] = Slot::Idle;
            return None;
        };
        self.event(NO_WORKER, EventKind::Hedge, now_s);
        Some((id, ledger.arm(id, worker)))
    }

    /// Cut `node`'s oldest attempt past `timeout_s`, if any; whether it cut.
    fn cut_overdue(&self, node: &NodeState, timeout_s: f64) -> bool {
        let mut ledger = self.ledger.lock().unwrap();
        let now_s = self.clock.now_s();
        let Some((id, victim, outcome)) = ledger.cut_overdue(node.index, now_s, timeout_s) else {
            return false;
        };
        self.event(NO_WORKER, EventKind::Cancel, now_s);
        let spec = &self.vertices[id.task].0;
        let err = PpcError::Cancelled(format!("vertex {}: past its deadline", spec.id.0));
        self.failed_attempt(ledger, node, id, outcome, victim, true, err);
        true
    }

    /// Act on the ledger's `outcome` for attempt `id`, failed on `worker`:
    /// re-run the vertex when no other attempt of it is live, or fail it
    /// for good with `err`. The re-run goes to `worker`'s slot, or, for a
    /// deadline cut (`to_idle`), to a slot of the node idle now if any.
    #[allow(clippy::too_many_arguments)]
    fn failed_attempt(
        &self,
        mut ledger: MutexGuard<AttemptLedger>,
        node: &NodeState,
        id: AttemptId,
        outcome: FailOutcome,
        worker: u32,
        to_idle: bool,
        err: PpcError,
    ) {
        if outcome == FailOutcome::Retried && ledger.live_attempts(id.task) == 0 {
            let mut slots = node.slots.lock().unwrap();
            let k = slots
                .iter()
                .position(|s| to_idle && matches!(s, Slot::Idle))
                .unwrap_or(worker as usize - node.base);
            let rerun = ledger.launch(id.task, self.clock.now_s());
            slots[k] = Slot::Rerun(rerun, ledger.arm(rerun, (node.base + k) as u32));
        }
        drop(ledger);
        self.score(worker, None);
        if outcome == FailOutcome::TaskFailed {
            self.fail_vertex(node, &self.vertices[id.task].0, err);
        }
    }

    /// Record `spec`'s vertex as permanently failed with `err` and settle
    /// it on its node.
    fn fail_vertex(&self, node: &NodeState, spec: &TaskSpec, err: PpcError) {
        self.failed.lock().unwrap().push((spec.id, err));
        self.vertex_settled(node);
    }

    /// Count one vertex of `node` settled, now.
    fn vertex_settled(&self, node: &NodeState) {
        node.remaining.fetch_sub(1, Ordering::AcqRel);
        let now_s = self.clock.now_s();
        let mut f = self.finished_s.lock().unwrap();
        *f = f.max(now_s);
    }
}

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
