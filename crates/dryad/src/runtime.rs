//! The native Dryad-style job runner for the paper's pattern: a homomorphic
//! `select` over statically partitioned inputs.
//!
//! Inputs are split across nodes **before** the job starts (the Windows
//! shared directories of §2.3); each node then processes only its own list
//! using its worker threads. Dynamic balancing happens *within* a node
//! (vertices share the node's cores) but never across nodes — the defining
//! limitation measured in the paper's load-balancing discussion (§4.2).

use ppc_chaos::{FaultSchedule, RunClock};
use ppc_compute::cluster::Cluster;
use ppc_core::exec::Executor;
use ppc_core::json::Json;
use ppc_core::metrics::RunSummary;
use ppc_core::retry::RetryPolicy;
use ppc_core::rng::Pcg32;
use ppc_core::task::{TaskId, TaskSpec};
use ppc_core::{Cancel, PpcError, Result};
use ppc_exec::{RunContext, RunReport};
use ppc_resilience::{Health, HealthTracker, HedgePolicy, ResiliencePolicy};
use ppc_trace::{AttemptMarker, EventKind, Phase, RunMeta, Span, TraceEvent, TraceSink, NO_WORKER};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Configuration for the native Dryad runtime.
#[derive(Debug, Clone)]
pub struct DryadConfig {
    /// Fail the whole job on the first unrecoverable vertex failure.
    pub fail_fast: bool,
    /// Re-run a failed vertex up to this many extra times before giving up
    /// — Table 3's "re-execution of failed ... tasks" for Dryad.
    pub max_retries: u32,
    /// Seed for the per-slot retry-backoff RNG streams.
    pub seed: u64,
    /// Deterministic fault schedule. Slots are addressed by flat
    /// node-major index; a scheduled kill takes a vertex slot down (its
    /// in-hand vertex goes back on the node's local list), death dice and
    /// torn outputs fail single vertex attempts. A vertex's dice are
    /// addressed by its place in a round-robin deal of its node's
    /// partition over the node's slots (the `k`-th vertex is slot
    /// `k % slots`'s `k / slots`-th task), not by the slot that happens to
    /// take it, so which vertices fail does not depend on thread timing.
    pub schedule: Option<Arc<FaultSchedule>>,
    /// Span sink for the run; `None` (or a disabled sink) records nothing
    /// and the report carries the finished [`ppc_trace::Trace`].
    pub trace: Option<Arc<dyn TraceSink>>,
    /// Straggler and gray-failure defense. With a hedge or deadline config,
    /// idle vertex slots launch *backup vertices* for running stragglers on
    /// their own node (re-execution still never crosses nodes); the first
    /// Ok attempt wins and losers count as redundant executions. With a
    /// quarantine config, gray slots are benched off the local work list.
    /// `None` (the default) keeps the legacy runtime bit-identical.
    pub resilience: Option<ResiliencePolicy>,
}

impl Default for DryadConfig {
    fn default() -> Self {
        DryadConfig {
            fail_fast: false,
            max_retries: 2,
            seed: 0xd12ad,
            schedule: None,
            trace: None,
            resilience: None,
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
    /// Vertex re-executions that recovered a transient failure.
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

/// Run `executor` over every input, statically partitioned round-robin
/// across the cluster's nodes. Returns the report and the outputs
/// (output key → bytes), in completion order.
#[deprecated(note = "build a `ppc_exec::RunContext` and call `ppc_dryad::run`")]
pub fn run_homomorphic_job(
    cluster: &Cluster,
    inputs: Vec<(TaskSpec, Vec<u8>)>,
    executor: Arc<dyn Executor>,
    config: &DryadConfig,
) -> Result<(DryadReport, JobOutputs)> {
    crate::harness::run(&RunContext::new(cluster), inputs, executor, config)
}

/// [`run_homomorphic_job`] under a deterministic [`FaultSchedule`].
#[deprecated(note = "build a `ppc_exec::RunContext` and call `ppc_dryad::run`")]
pub fn run_homomorphic_job_chaos(
    cluster: &Cluster,
    inputs: Vec<(TaskSpec, Vec<u8>)>,
    executor: Arc<dyn Executor>,
    config: &DryadConfig,
    schedule: Option<Arc<FaultSchedule>>,
) -> Result<(DryadReport, JobOutputs)> {
    crate::harness::run(
        &RunContext::new(cluster).with_schedule(schedule),
        inputs,
        executor,
        config,
    )
}

/// The native runtime body, reached through [`crate::run`].
///
/// Workers are addressed by flat slot index (node-major). A scheduled kill
/// takes a vertex slot down: its in-hand vertex goes back on the node's
/// local list for a surviving slot — re-execution never crosses nodes,
/// which is exactly DryadLINQ's static-partitioning constraint. Death dice
/// and torn outputs fail a single vertex attempt, recovered by the shared
/// retry layer. Cloud-storage outage windows do *not* apply: Dryad reads
/// node-local files (the paper's Windows shared directories).
pub(crate) fn run_impl(
    cluster: &Cluster,
    inputs: Vec<(TaskSpec, Vec<u8>)>,
    executor: Arc<dyn Executor>,
    config: &DryadConfig,
) -> Result<(DryadReport, JobOutputs)> {
    if inputs.is_empty() {
        return Err(PpcError::InvalidArgument("no inputs".into()));
    }
    let schedule = config.schedule.clone();
    if let Some(schedule) = &schedule {
        schedule.validate()?;
    }
    if let Some(policy) = &config.resilience {
        policy.validate()?;
    }
    let n_tasks = inputs.len();
    let n_nodes = cluster.n_nodes();
    // Static node-level partitioning, fixed before execution.
    let partitions = crate::partition::partition_round_robin(inputs, n_nodes);
    // Flat worker index of each node's first slot.
    let node_bases: Vec<usize> = cluster
        .nodes()
        .iter()
        .scan(0usize, |acc, n| {
            let base = *acc;
            *acc += n.workers;
            Some(base)
        })
        .collect();

    let outputs: Mutex<Vec<(String, Vec<u8>)>> = Mutex::new(Vec::new());
    let failures = AtomicUsize::new(0);
    let failed_ids: Mutex<Vec<TaskId>> = Mutex::new(Vec::new());
    let retries = AtomicUsize::new(0);
    let attempts_total = AtomicUsize::new(0);
    let deaths = AtomicUsize::new(0);
    let first_error: Mutex<Option<PpcError>> = Mutex::new(None);
    let per_node: Mutex<Vec<f64>> = Mutex::new(vec![0.0; n_nodes]);
    let total_bytes = AtomicUsize::new(0);
    let redundant = AtomicUsize::new(0);
    let chaos = schedule.as_deref();
    let sink = config.trace.as_deref().filter(|s| s.enabled());
    let clock = RunClock::start();

    // Cluster-wide defense state: one hedge policy and one health tracker
    // shared by every node, so latency observations feed a single quantile
    // even though backup vertices themselves never cross nodes.
    let hedge_state = config
        .resilience
        .and_then(|p| p.hedge)
        .map(|cfg| Mutex::new(HedgePolicy::new(cfg)));
    let health_state = config
        .resilience
        .and_then(|p| p.quarantine)
        .map(|cfg| Mutex::new(HealthTracker::new(cfg)));

    let ctx = SlotCtx {
        executor: &executor,
        sink,
        chaos,
        clock: &clock,
        config,
        outputs: &outputs,
        failures: &failures,
        failed_ids: &failed_ids,
        retries: &retries,
        attempts_total: &attempts_total,
        deaths: &deaths,
        first_error: &first_error,
        total_bytes: &total_bytes,
    };
    let finished_s = Mutex::new(0f64);
    let defense = config.resilience.map(|policy| Defense {
        policy,
        hedge: hedge_state.as_ref(),
        health: health_state.as_ref(),
        redundant: &redundant,
        finished_s: &finished_s,
        n_tasks,
    });

    let start = Instant::now();
    std::thread::scope(|scope| {
        for (node, node_inputs) in partitions.into_iter().enumerate() {
            let workers = cluster.nodes()[node].workers;
            let node_base = node_bases[node];
            let ctx = &ctx;
            let defense = defense.as_ref();
            let per_node = &per_node;
            scope.spawn(move || {
                let node_start = Instant::now();
                let node_defense = defense.map(|_| NodeDefense {
                    registry: Mutex::new(HashMap::new()),
                    done: Mutex::new(HashSet::new()),
                    remaining: AtomicUsize::new(node_inputs.len()),
                });
                // Within the node, vertices share a local work list; each
                // carries its chaos-dice address from the round-robin deal.
                let slots = workers.max(1);
                let local: Mutex<VecDeque<LocalVertex>> = Mutex::new(
                    node_inputs
                        .into_iter()
                        .enumerate()
                        .map(|(k, (spec, input))| {
                            let dice = ((node_base + k % slots) as u32, (k / slots) as u32);
                            (spec, input, dice)
                        })
                        .collect(),
                );
                std::thread::scope(|inner| {
                    for slot in 0..workers {
                        let local = &local;
                        let node_defense = node_defense.as_ref();
                        let worker = (node_base + slot) as u32;
                        inner.spawn(move || match (defense, node_defense) {
                            (Some(d), Some(nd)) => defended_slot_loop(ctx, d, nd, local, worker),
                            _ => legacy_slot_loop(ctx, local, worker),
                        });
                    }
                });
                per_node.lock().unwrap()[node] = node_start.elapsed().as_secs_f64();
            });
        }
    });
    // Under a defense policy the job is done when its last vertex settles;
    // losing duplicate threads may still be draining past that point and
    // must not count against the makespan.
    let makespan = match defense {
        Some(_) => {
            let settled = *finished_s.lock().unwrap();
            if settled > 0.0 {
                settled
            } else {
                start.elapsed().as_secs_f64()
            }
        }
        None => start.elapsed().as_secs_f64(),
    };

    let vertex_failures = failures.load(Ordering::Relaxed);
    if config.fail_fast && vertex_failures > 0 {
        return Err(first_error.into_inner().unwrap().expect("failure recorded"));
    }
    let outputs = outputs.into_inner().unwrap();
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
    let vertex_retries = retries.load(Ordering::Relaxed);
    let report = DryadReport {
        core: RunReport {
            summary: RunSummary {
                platform: "dryadlinq".into(),
                cores: cluster.total_workers(),
                tasks: outputs.len(),
                makespan_seconds: makespan,
                redundant_executions: redundant.load(Ordering::Relaxed),
                remote_bytes: 0, // node-local files only
            },
            failed: failed_ids.into_inner().unwrap(),
            total_attempts: attempts_total.load(Ordering::Relaxed),
            worker_deaths: deaths.load(Ordering::Relaxed),
            cost: Some(cluster.cost(makespan)),
            trace,
        },
        per_node_seconds: per_node.into_inner().unwrap(),
        vertex_failures,
        vertex_retries,
    };
    Ok((report, outputs))
}

/// A vertex on its node's local work list: spec, input, and the
/// `(worker, task_seq)` its first attempt rolls the chaos dice at.
type LocalVertex = (TaskSpec, Vec<u8>, (u32, u32));

/// Everything a vertex slot touches, shared across every node's slots.
struct SlotCtx<'a> {
    executor: &'a Arc<dyn Executor>,
    sink: Option<&'a dyn TraceSink>,
    chaos: Option<&'a FaultSchedule>,
    clock: &'a RunClock,
    config: &'a DryadConfig,
    outputs: &'a Mutex<Vec<(String, Vec<u8>)>>,
    failures: &'a AtomicUsize,
    failed_ids: &'a Mutex<Vec<TaskId>>,
    retries: &'a AtomicUsize,
    attempts_total: &'a AtomicUsize,
    deaths: &'a AtomicUsize,
    first_error: &'a Mutex<Option<PpcError>>,
    total_bytes: &'a AtomicUsize,
}

/// Cluster-wide defense state shared by every node when a
/// [`ResiliencePolicy`] is configured.
struct Defense<'a> {
    policy: ResiliencePolicy,
    hedge: Option<&'a Mutex<HedgePolicy>>,
    health: Option<&'a Mutex<HealthTracker>>,
    redundant: &'a AtomicUsize,
    /// Clock time the last vertex settled (committed or permanently
    /// failed). A killed loser only stops at its executor's next
    /// cancellation check (never, for an executor that does not override
    /// `run_cancellable`), so the defended report's makespan is this settle
    /// time, not the join time.
    finished_s: &'a Mutex<f64>,
    n_tasks: usize,
}

/// A vertex some slot on this node is currently running, visible to the
/// node's other slots as a backup candidate.
struct RunningVertex {
    spec: TaskSpec,
    input: Vec<u8>,
    started_s: f64,
    /// Attempts (original + backups) still in flight.
    live: u32,
    hedged: bool,
    cancelled: bool,
    /// Cancel tokens of the vertex's attempts, the primary's first: the
    /// first Ok attempt kills the rest, a deadline breach kills the
    /// primary.
    tokens: Vec<Cancel>,
    /// Next attempt index to hand a backup; starts past the retry layer's
    /// range so backup spans never collide with primary retries.
    next_attempt: u32,
}

/// Per-node defense state: the running-vertex registry idle slots scan for
/// backup candidates, the first-result-wins commit set, and the count of
/// vertices not yet committed or permanently failed.
struct NodeDefense {
    registry: Mutex<HashMap<u64, RunningVertex>>,
    done: Mutex<HashSet<u64>>,
    remaining: AtomicUsize,
}

/// What an idle slot found while scanning the node's registry.
enum Backup {
    /// Run this backup attempt under its cancel token.
    Run(TaskSpec, Vec<u8>, u32, Cancel),
    /// Nothing eligible yet, but vertices are still outstanding.
    Wait,
    /// The node's partition is fully settled.
    Done,
}

/// Score a successful attempt with the health tracker, emitting a
/// Quarantine event if this observation benches the worker.
fn note_success(
    health: Option<&Mutex<HealthTracker>>,
    sink: Option<&dyn TraceSink>,
    worker: u32,
    latency_s: f64,
    now_s: f64,
) {
    let Some(health) = health else { return };
    let mut tracker = health.lock().unwrap();
    let before = matches!(tracker.health(worker), Health::Quarantined { .. });
    tracker.record_success(worker, latency_s, now_s);
    let benched = !before && matches!(tracker.health(worker), Health::Quarantined { .. });
    drop(tracker);
    if benched {
        if let Some(s) = sink {
            s.event(TraceEvent {
                at_s: now_s,
                worker,
                kind: EventKind::Quarantine,
            });
        }
    }
}

/// Score a failed attempt with the health tracker, emitting a Quarantine
/// event if this failure benches the worker.
fn note_failure(
    health: Option<&Mutex<HealthTracker>>,
    sink: Option<&dyn TraceSink>,
    worker: u32,
    now_s: f64,
) {
    let Some(health) = health else { return };
    let mut tracker = health.lock().unwrap();
    let before = matches!(tracker.health(worker), Health::Quarantined { .. });
    tracker.record_failure(worker, now_s);
    let benched = !before && matches!(tracker.health(worker), Health::Quarantined { .. });
    drop(tracker);
    if benched {
        if let Some(s) = sink {
            s.event(TraceEvent {
                at_s: now_s,
                worker,
                kind: EventKind::Quarantine,
            });
        }
    }
}

/// One traced vertex attempt: chaos dice at the `dice` address, if any
/// (primary first attempts only), local read, execute, and the terminal
/// write mark on success. Returns
/// `Err(Cancelled)` once `cancel` is set, during execution or the gray
/// slowdown.
#[allow(clippy::too_many_arguments)]
fn vertex_attempt(
    ctx: &SlotCtx,
    spec: &TaskSpec,
    input: &[u8],
    worker: u32,
    attempt: u32,
    dice: Option<(u32, u32)>,
    cancel: &Cancel,
) -> Result<Vec<u8>> {
    ctx.attempts_total.fetch_add(1, Ordering::Relaxed);
    let attempt_start = Instant::now();
    // Each attempt is its own span subtree; dropping the marker on a
    // failure path still closes it.
    let mut tt = ctx.sink.map(|s| {
        let mut tt = AttemptMarker::new(s, spec.id.0, attempt, worker, ctx.clock.now_s());
        tt.mark(Phase::VertexStart, ctx.clock.now_s());
        tt
    });
    if let Some(schedule) = ctx.chaos {
        // Any death die or a torn output costs exactly one failed attempt;
        // the job manager re-runs the vertex.
        if let Some((w, seq)) = dice {
            let died = schedule.die_before_execute(w, seq)
                || schedule.die_mid_execute(w, seq)
                || schedule.die_before_delete(w, seq);
            if died || schedule.is_torn_upload(w, seq) {
                if died {
                    ctx.deaths.fetch_add(1, Ordering::Relaxed);
                    if let Some(s) = ctx.sink {
                        s.event(TraceEvent {
                            at_s: ctx.clock.now_s(),
                            worker,
                            kind: EventKind::Death,
                        });
                    }
                }
                return Err(PpcError::Transient("chaos: vertex attempt killed".into()));
            }
        }
    }
    // Inputs are already in node-local memory: the read phase is an
    // instant, but it keeps the native phase set aligned with the
    // simulator's.
    if let Some(tt) = tt.as_mut() {
        tt.mark(Phase::ReadLocal, ctx.clock.now_s());
    }
    let r = ctx.executor.run_cancellable(spec, input, cancel);
    // Gray degradation stretches the execute phase itself, so a straggling
    // attempt is slow in the trace and loses the commit race for real.
    let r = apply_gray_slowdown(ctx, worker, attempt_start, cancel).and(r);
    if let Some(tt) = tt.as_mut() {
        tt.mark(Phase::Execute, ctx.clock.now_s());
        if r.is_ok() {
            // Under hedging a backup vertex may race this attempt; the
            // write that reaches the commit set first is the terminal one.
            tt.mark(Phase::Write, ctx.clock.now_s());
        }
    }
    r
}

/// Stretch the slot's wall time under a gray degradation window; the
/// stretch ends early, with `Err(Cancelled)`, if the attempt is killed.
fn apply_gray_slowdown(
    ctx: &SlotCtx,
    worker: u32,
    vertex_start: Instant,
    cancel: &Cancel,
) -> Result<()> {
    if let Some(schedule) = ctx.chaos {
        let factor = schedule.slowdown(worker, ctx.clock.now_s());
        if factor > 1.0 {
            return cancel.sleep(vertex_start.elapsed().mul_f64(factor - 1.0));
        }
    }
    Ok(())
}

/// Whether an attempt's error means the runtime killed it.
fn killed(e: &PpcError) -> bool {
    matches!(e, PpcError::Cancelled(_))
}

/// The legacy slot loop: pull vertices off the node's local list until it
/// drains. Exactly the pre-resilience behavior — the `None` policy path.
fn legacy_slot_loop(ctx: &SlotCtx, local: &Mutex<VecDeque<LocalVertex>>, worker: u32) {
    if let Some(s) = ctx.sink {
        s.event(TraceEvent {
            at_s: ctx.clock.now_s(),
            worker,
            kind: EventKind::WorkerStart,
        });
    }
    // Re-execute a failed vertex (Table 3's Dryad fault tolerance) through
    // the shared retry layer before declaring it failed.
    let policy = RetryPolicy::immediate(ctx.config.max_retries + 1);
    let mut rng = Pcg32::for_stream(ctx.config.seed, worker as u64);
    let mut last_kill_s: f64 = 0.0;
    loop {
        let item = local.lock().unwrap().pop_front();
        let (spec, input, dice) = match item {
            Some(x) => x,
            None => break,
        };
        if let Some(schedule) = ctx.chaos {
            let now_s = ctx.clock.now_s();
            if schedule.kills_in(worker, last_kill_s, now_s) {
                // Slot dies: hand the vertex back to a surviving slot on
                // this node.
                ctx.deaths.fetch_add(1, Ordering::Relaxed);
                if let Some(s) = ctx.sink {
                    s.event(TraceEvent {
                        at_s: now_s,
                        worker,
                        kind: EventKind::Death,
                    });
                }
                local.lock().unwrap().push_front((spec, input, dice));
                break;
            }
            last_kill_s = now_s;
        }
        let mut used_attempts = 0u32;
        let out = policy.run_blocking(&mut rng, |attempt| {
            used_attempts = attempt;
            vertex_attempt(
                ctx,
                &spec,
                &input,
                worker,
                attempt,
                (attempt == 0).then_some(dice),
                &Cancel::never(),
            )
        });
        match out {
            Ok(out) => {
                if used_attempts > 0 {
                    ctx.retries
                        .fetch_add(used_attempts as usize, Ordering::Relaxed);
                }
                ctx.total_bytes.fetch_add(out.len(), Ordering::Relaxed);
                ctx.outputs
                    .lock()
                    .unwrap()
                    .push((spec.output_key.clone(), out));
            }
            Err(e) => {
                ctx.failures.fetch_add(1, Ordering::Relaxed);
                ctx.failed_ids.lock().unwrap().push(spec.id);
                let mut fe = ctx.first_error.lock().unwrap();
                if fe.is_none() {
                    *fe = Some(e);
                }
            }
        }
    }
}

/// The defended slot loop: like [`legacy_slot_loop`], but every running
/// vertex is registered as a backup candidate, idle slots launch backup
/// vertices for deadline breaches and hedge-eligible stragglers on their
/// own node, the first Ok attempt wins (losers count as redundant work),
/// and quarantined slots are benched off the local list until released.
fn defended_slot_loop(
    ctx: &SlotCtx,
    defense: &Defense,
    node: &NodeDefense,
    local: &Mutex<VecDeque<LocalVertex>>,
    worker: u32,
) {
    if let Some(s) = ctx.sink {
        s.event(TraceEvent {
            at_s: ctx.clock.now_s(),
            worker,
            kind: EventKind::WorkerStart,
        });
    }
    let retry = RetryPolicy::immediate(ctx.config.max_retries + 1);
    let mut rng = Pcg32::for_stream(ctx.config.seed, worker as u64);
    let mut last_kill_s: f64 = 0.0;
    loop {
        if let Some(health) = defense.health {
            // Quarantine gate: a benched slot naps instead of pulling work.
            // Its share of the list is picked up by the node's other slots
            // (within-node balancing is dynamic; across nodes it is not).
            let now_s = ctx.clock.now_s();
            let mut tracker = health.lock().unwrap();
            let was_benched = matches!(tracker.health(worker), Health::Quarantined { .. });
            if !tracker.allow(worker, now_s) {
                drop(tracker);
                if node.remaining.load(Ordering::Acquire) == 0 {
                    break;
                }
                std::thread::sleep(Duration::from_micros(500));
                continue;
            }
            drop(tracker);
            if was_benched {
                if let Some(s) = ctx.sink {
                    s.event(TraceEvent {
                        at_s: now_s,
                        worker,
                        kind: EventKind::Release,
                    });
                }
            }
        }
        let item = local.lock().unwrap().pop_front();
        match item {
            Some((spec, input, dice)) => {
                if let Some(schedule) = ctx.chaos {
                    let now_s = ctx.clock.now_s();
                    if schedule.kills_in(worker, last_kill_s, now_s) {
                        ctx.deaths.fetch_add(1, Ordering::Relaxed);
                        if let Some(s) = ctx.sink {
                            s.event(TraceEvent {
                                at_s: now_s,
                                worker,
                                kind: EventKind::Death,
                            });
                        }
                        local.lock().unwrap().push_front((spec, input, dice));
                        break;
                    }
                    last_kill_s = now_s;
                }
                // Register before running so other slots can back this
                // vertex up while it is in flight.
                let cancel = Cancel::new();
                node.registry.lock().unwrap().insert(
                    spec.id.0,
                    RunningVertex {
                        spec: spec.clone(),
                        input: input.clone(),
                        started_s: ctx.clock.now_s(),
                        live: 1,
                        hedged: false,
                        cancelled: false,
                        tokens: vec![cancel.clone()],
                        next_attempt: ctx.config.max_retries + 1,
                    },
                );
                let vertex_start = Instant::now();
                let mut used_attempts = 0u32;
                let out = retry.run_blocking(&mut rng, |attempt| {
                    used_attempts = attempt;
                    let r = vertex_attempt(
                        ctx,
                        &spec,
                        &input,
                        worker,
                        attempt,
                        (attempt == 0).then_some(dice),
                        &cancel,
                    );
                    if r.as_ref().is_err_and(|e| !killed(e)) {
                        note_failure(defense.health, ctx.sink, worker, ctx.clock.now_s());
                    }
                    r
                });
                let latency_s = vertex_start.elapsed().as_secs_f64();
                finish_attempt(
                    ctx,
                    defense,
                    node,
                    &spec,
                    worker,
                    out,
                    used_attempts,
                    latency_s,
                );
            }
            None => match next_backup(ctx, defense, node) {
                Backup::Run(spec, input, attempt, cancel) => {
                    let vertex_start = Instant::now();
                    // Backups roll no chaos dice: the dice model per-pull
                    // hazards and this slot already survived its pull.
                    let out = vertex_attempt(ctx, &spec, &input, worker, attempt, None, &cancel);
                    if out.as_ref().is_err_and(|e| !killed(e)) {
                        note_failure(defense.health, ctx.sink, worker, ctx.clock.now_s());
                    }
                    let latency_s = vertex_start.elapsed().as_secs_f64();
                    finish_attempt(ctx, defense, node, &spec, worker, out, 0, latency_s);
                }
                Backup::Wait => std::thread::sleep(Duration::from_micros(200)),
                Backup::Done => break,
            },
        }
    }
}

/// Scan the node's registry for a backup candidate: deadline breaches
/// first (cancel-and-re-execute), then hedge-eligible stragglers.
fn next_backup(ctx: &SlotCtx, defense: &Defense, node: &NodeDefense) -> Backup {
    if node.remaining.load(Ordering::Acquire) == 0 {
        return Backup::Done;
    }
    let now_s = ctx.clock.now_s();
    let mut reg = node.registry.lock().unwrap();
    let done = node.done.lock().unwrap();
    if let Some(d) = defense.policy.deadline {
        if let Some(e) = reg.values_mut().find(|e| {
            !done.contains(&e.spec.id.0) && !e.cancelled && now_s - e.started_s > d.timeout_s
        }) {
            // Kill the overdue primary through its token (it stops at its
            // executor's next check) and launch a replacement; should the
            // primary finish first anyway, it still wins.
            e.cancelled = true;
            e.tokens[0].cancel();
            e.live += 1;
            let attempt = e.next_attempt;
            e.next_attempt += 1;
            let cancel = Cancel::new();
            e.tokens.push(cancel.clone());
            if let Some(s) = ctx.sink {
                s.event(TraceEvent {
                    at_s: now_s,
                    worker: NO_WORKER,
                    kind: EventKind::Cancel,
                });
            }
            return Backup::Run(e.spec.clone(), e.input.clone(), attempt, cancel);
        }
    }
    if let Some(hedge) = defense.hedge {
        let mut policy = hedge.lock().unwrap();
        if let Some(e) = reg.values_mut().find(|e| {
            !done.contains(&e.spec.id.0)
                && !e.hedged
                && policy.should_hedge(now_s - e.started_s, e.live, defense.n_tasks)
        }) {
            policy.record_hedge();
            e.hedged = true;
            e.live += 1;
            let attempt = e.next_attempt;
            e.next_attempt += 1;
            let cancel = Cancel::new();
            e.tokens.push(cancel.clone());
            if let Some(s) = ctx.sink {
                s.event(TraceEvent {
                    at_s: now_s,
                    worker: NO_WORKER,
                    kind: EventKind::Hedge,
                });
            }
            return Backup::Run(e.spec.clone(), e.input.clone(), attempt, cancel);
        }
    }
    Backup::Wait
}

/// Settle one finished attempt (primary or backup): first Ok wins, commits
/// the output and then kills the vertex's other attempts; losing duplicates
/// (killed or not) count as redundant work; an attempt killed by a deadline
/// counts as a failed attempt; and a permanent failure is recorded only
/// once every live attempt has failed.
#[allow(clippy::too_many_arguments)]
fn finish_attempt(
    ctx: &SlotCtx,
    defense: &Defense,
    node: &NodeDefense,
    spec: &TaskSpec,
    worker: u32,
    out: Result<Vec<u8>>,
    used_attempts: u32,
    latency_s: f64,
) {
    let now_s = ctx.clock.now_s();
    match out {
        Ok(bytes) => {
            let winner = node.done.lock().unwrap().insert(spec.id.0);
            if winner {
                if used_attempts > 0 {
                    ctx.retries
                        .fetch_add(used_attempts as usize, Ordering::Relaxed);
                }
                ctx.total_bytes.fetch_add(bytes.len(), Ordering::Relaxed);
                ctx.outputs
                    .lock()
                    .unwrap()
                    .push((spec.output_key.clone(), bytes));
                if let Some(hedge) = defense.hedge {
                    hedge.lock().unwrap().observe(latency_s);
                }
                node.remaining.fetch_sub(1, Ordering::AcqRel);
                let mut f = defense.finished_s.lock().unwrap();
                *f = f.max(now_s);
            } else {
                // A duplicate lost the race: its bytes are discarded —
                // exactly-once output, the work was redundant.
                defense.redundant.fetch_add(1, Ordering::Relaxed);
            }
            note_success(defense.health, ctx.sink, worker, latency_s, now_s);
            let mut reg = node.registry.lock().unwrap();
            if let Some(e) = reg.get_mut(&spec.id.0) {
                if winner {
                    // Committed: kill the other attempts (this one's own
                    // token is never checked again).
                    for token in e.tokens.drain(..) {
                        token.cancel();
                    }
                }
                e.live = e.live.saturating_sub(1);
                if e.live == 0 {
                    reg.remove(&spec.id.0);
                }
            }
        }
        Err(e) => {
            let was_killed = killed(&e);
            let mut reg = node.registry.lock().unwrap();
            let last_live = match reg.get_mut(&spec.id.0) {
                Some(entry) => {
                    entry.live = entry.live.saturating_sub(1);
                    entry.live == 0
                }
                None => true,
            };
            let done = node.done.lock().unwrap().contains(&spec.id.0);
            if last_live {
                reg.remove(&spec.id.0);
            }
            drop(reg);
            if was_killed && done {
                // A loser killed by the winning attempt: redundant work,
                // no failure.
                defense.redundant.fetch_add(1, Ordering::Relaxed);
                if let Some(s) = ctx.sink {
                    s.event(TraceEvent {
                        at_s: now_s,
                        worker,
                        kind: EventKind::Cancel,
                    });
                }
            } else if was_killed {
                // Killed by its deadline (the Cancel event was recorded
                // there): a failed attempt.
                note_failure(defense.health, ctx.sink, worker, now_s);
            }
            if last_live && !done {
                ctx.failures.fetch_add(1, Ordering::Relaxed);
                ctx.failed_ids.lock().unwrap().push(spec.id);
                let mut fe = ctx.first_error.lock().unwrap();
                if fe.is_none() {
                    *fe = Some(e);
                }
                node.remaining.fetch_sub(1, Ordering::AcqRel);
                let mut f = defense.finished_s.lock().unwrap();
                *f = f.max(now_s);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppc_compute::instance::BARE_HPC16;
    use ppc_core::exec::FnExecutor;
    use ppc_core::task::ResourceProfile;
    use std::time::Duration;

    // Route the legacy-named helpers through the RunContext entry point
    // (explicit items shadow the glob-imported deprecated shims).
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
                ..Default::default()
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
            let rec = Arc::new(Recorder::new());
            let config = DryadConfig {
                resilience,
                trace: Some(rec.clone()),
                ..Default::default()
            };
            let ctx = RunContext::new(&cluster).with_schedule(schedule.clone());
            crate::run(&ctx, inputs(16), sleepy(5), &config).unwrap()
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
        // Slot 0 is gray (40x, ~200ms per vertex); a 50ms deadline lets an
        // idle slot cancel the overdue attempt and re-run it.
        let cluster = Cluster::provision(BARE_HPC16, 1, 4);
        let schedule = Arc::new(FaultSchedule::new(3).degrade(0, 40.0, 0.0, 1e9));
        let rec = Arc::new(ppc_trace::Recorder::new());
        let config = DryadConfig {
            resilience: Some(ResiliencePolicy::default().with_deadline(0.05)),
            trace: Some(rec),
            ..Default::default()
        };
        let ctx = RunContext::new(&cluster).with_schedule(schedule);
        let (report, outputs) = crate::run(&ctx, inputs(16), sleepy(5), &config).unwrap();
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
        let rec = Arc::new(ppc_trace::Recorder::new());
        let config = DryadConfig {
            resilience: Some(ResiliencePolicy::hedged(HedgeConfig::quantile(0.02))),
            trace: Some(rec),
            ..Default::default()
        };
        let exec = Arc::new(Straggler(std::sync::atomic::AtomicBool::new(true)));
        let start = Instant::now();
        let (report, mut outputs) = std::thread::Builder::new()
            .name(PROBE.into())
            .spawn(move || crate::run(&RunContext::new(&cluster), inputs(8), exec, &config))
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
