//! Cross-paradigm resilience conformance suite.
//!
//! Every paradigm — Classic Cloud, MapReduce, Dryad — runs under the same
//! *gray-degradation* schedule (no crashes: a worker silently computes many
//! times slower than its peers) with and without the shared
//! [`ppc::resilience::ResiliencePolicy`] defense layer, on both the native
//! engines and their discrete-event twins. The contract:
//!
//! 1. **Exactly-once outputs** — hedged duplicates never duplicate or
//!    corrupt a committed output; the defended output set is identical to
//!    the fault-free run's, byte for byte.
//! 2. **Bounded re-execution** — the hedge budget caps duplicate work.
//! 3. **Hedging pays** — tail (p99) task latency under gray faults is
//!    strictly lower with hedging than without, on every paradigm, in both
//!    engines.
//!
//! The schedule seed comes from `PPC_CHAOS_SEED` (the CI matrix sweeps
//! several), so the invariants must hold for any seed.

use ppc::chaos::FaultSchedule;
use ppc::classic::spec::JobSpec;
use ppc::classic::{run as classic_run, ClassicConfig};
use ppc::classic::{simulate as classic_simulate, SimConfig};
use ppc::compute::cluster::Cluster;
use ppc::compute::instance::{BARE_CAP3, EC2_HCXL};
use ppc::core::exec::{Executor, FnExecutor};
use ppc::core::task::{ResourceProfile, TaskSpec};
use ppc::dryad::{run as dryad_run, DryadConfig};
use ppc::dryad::{simulate as dryad_simulate, DryadSimConfig};
use ppc::exec::RunContext;
use ppc::hdfs::fs::MiniHdfs;
use ppc::mapreduce::job::{ExecutableMapper, MapReduceJob};
use ppc::mapreduce::{run as hadoop_run, HadoopConfig};
use ppc::mapreduce::{simulate as hadoop_simulate, HadoopSimConfig};
use ppc::queue::service::QueueService;
use ppc::resilience::{HedgeConfig, QuarantineConfig, ResiliencePolicy};
use ppc::storage::latency::LatencyModel;
use ppc::storage::service::StorageService;
use ppc::trace::{EventKind, Recorder, Trace, TraceSink, JOB_TASK};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Duration;

const N_TASKS: u64 = 32;

/// Schedule seed: `PPC_CHAOS_SEED` if set, else a fixed default.
fn chaos_seed() -> u64 {
    std::env::var("PPC_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4242)
}

/// Gray-only schedule: worker 0 computes `factor`x slower, forever. No
/// crashes, no torn uploads — the silent failure mode hedging targets.
fn gray(factor: f64) -> Arc<FaultSchedule> {
    Arc::new(FaultSchedule::new(chaos_seed()).degrade(0, factor, 0.0, 1e9))
}

/// Every worker gray: the whole fleet computes `factor`x slower.
fn all_gray(workers: u32, factor: f64) -> Arc<FaultSchedule> {
    let mut s = FaultSchedule::new(chaos_seed());
    for w in 0..workers {
        s = s.degrade(w, factor, 0.0, 1e9);
    }
    Arc::new(s)
}

fn payload(i: u64) -> Vec<u8> {
    format!("payload-{i}").into_bytes()
}

/// The logical result every engine must produce: key -> reversed payload.
fn expected_outputs() -> BTreeMap<String, Vec<u8>> {
    (0..N_TASKS)
        .map(|i| {
            let mut v = payload(i);
            v.reverse();
            (format!("f{i}.out"), v)
        })
        .collect()
}

fn reverse_executor() -> Arc<dyn Executor> {
    FnExecutor::new("rev", |_s, input: &[u8]| {
        std::thread::sleep(Duration::from_millis(3));
        let mut v = input.to_vec();
        v.reverse();
        Ok(v)
    })
}

fn specs() -> Vec<TaskSpec> {
    (0..N_TASKS)
        .map(|i| TaskSpec::new(i, "rev", format!("f{i}"), ResourceProfile::cpu_bound(0.0)))
        .collect()
}

/// Winner-based per-task latency from a trace: the first *terminal* span's
/// end (the attempt that committed) minus the task's first attempt start.
/// Losing duplicates draining after the winner do not count.
fn task_latencies(trace: &Trace) -> Vec<f64> {
    let mut started: BTreeMap<u64, f64> = BTreeMap::new();
    let mut committed: BTreeMap<u64, f64> = BTreeMap::new();
    for s in trace.spans() {
        if s.task == JOB_TASK {
            continue;
        }
        let e = started.entry(s.task).or_insert(f64::INFINITY);
        *e = e.min(s.start_s);
        if s.phase.is_terminal() {
            let d = committed.entry(s.task).or_insert(f64::INFINITY);
            *d = d.min(s.end_s);
        }
    }
    committed
        .iter()
        .map(|(task, done)| done - started[task])
        .collect()
}

fn p99(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "no task latencies in trace");
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let idx = ((0.99 * xs.len() as f64).ceil() as usize).clamp(1, xs.len()) - 1;
    xs[idx]
}

fn hedged_policy(min_delay_s: f64) -> ResiliencePolicy {
    ResiliencePolicy::hedged(HedgeConfig::quantile(min_delay_s))
}

/// Hedge + quarantine + deadline together — the full defense layer.
fn full_policy(min_delay_s: f64, timeout_s: f64) -> ResiliencePolicy {
    ResiliencePolicy::hedged(HedgeConfig::quantile(min_delay_s))
        .with_quarantine(QuarantineConfig {
            min_samples: 2,
            ..Default::default()
        })
        .with_deadline(timeout_s)
}

// ---------------------------------------------------------------- sims --

fn sim_tasks(n: u64) -> Vec<TaskSpec> {
    (0..n)
        .map(|i| TaskSpec::new(i, "t", format!("f{i}"), ResourceProfile::cpu_bound(10.0)))
        .collect()
}

#[test]
fn classic_sim_hedged_p99_beats_unhedged() {
    let cluster = Cluster::provision(EC2_HCXL, 1, 8);
    let tasks = sim_tasks(64);
    let cfg = SimConfig {
        storage_latency: LatencyModel::FREE,
        queue_latency: LatencyModel::FREE,
        jitter_sigma: 0.0,
        ..SimConfig::ec2()
    };
    let run = |policy: Option<ResiliencePolicy>| {
        let mut ctx = RunContext::new(&cluster)
            .with_schedule(gray(30.0))
            .with_trace(true);
        if let Some(p) = policy {
            ctx = ctx.with_resilience(p);
        }
        classic_simulate(&ctx, &tasks, &cfg)
    };
    let unhedged = run(None);
    let hedged = run(Some(hedged_policy(30.0)));
    assert_eq!(unhedged.summary.tasks, 64);
    assert_eq!(hedged.summary.tasks, 64, "first result wins exactly once");
    let hp = p99(task_latencies(hedged.core.trace.as_ref().unwrap()));
    let up = p99(task_latencies(unhedged.core.trace.as_ref().unwrap()));
    assert!(hp < up, "classic sim p99: hedged {hp} vs unhedged {up}");
    // Bounded duplicate work: the budget caps hedges at half the job.
    assert!(hedged.redundant_executions() <= 33);
}

#[test]
fn mapreduce_sim_hedged_p99_beats_unhedged() {
    let cluster = Cluster::provision(BARE_CAP3, 1, 8);
    let tasks = sim_tasks(64);
    let cfg = HadoopSimConfig {
        straggler_p: 0.0,
        jitter_sigma: 0.0,
        ..Default::default()
    };
    let run = |policy: ResiliencePolicy| {
        let ctx = RunContext::new(&cluster)
            .with_schedule(gray(30.0))
            .with_trace(true)
            .with_resilience(policy);
        hadoop_simulate(&ctx, &tasks, &cfg)
    };
    // An explicit empty policy disables legacy speculation, isolating the
    // hedge as the only difference between the two runs.
    let unhedged = run(ResiliencePolicy::default());
    let hedged = run(hedged_policy(30.0));
    assert!(unhedged.is_complete());
    assert!(hedged.is_complete(), "failed: {:?}", hedged.failed);
    assert_eq!(hedged.summary.tasks, 64);
    let hp = p99(task_latencies(hedged.core.trace.as_ref().unwrap()));
    let up = p99(task_latencies(unhedged.core.trace.as_ref().unwrap()));
    assert!(hp < up, "mapreduce sim p99: hedged {hp} vs unhedged {up}");
    assert!(hedged.summary.redundant_executions <= 33);
}

#[test]
fn dryad_sim_hedged_p99_beats_unhedged() {
    let cluster = Cluster::provision(BARE_CAP3, 1, 8);
    let tasks = sim_tasks(64);
    let cfg = DryadSimConfig {
        jitter_sigma: 0.0,
        ..Default::default()
    };
    let run = |policy: Option<ResiliencePolicy>| {
        let mut ctx = RunContext::new(&cluster)
            .with_schedule(gray(30.0))
            .with_trace(true);
        if let Some(p) = policy {
            ctx = ctx.with_resilience(p);
        }
        dryad_simulate(&ctx, &tasks, &cfg)
    };
    let unhedged = run(None);
    let hedged = run(Some(hedged_policy(30.0)));
    assert_eq!(hedged.summary.tasks, 64, "first Ok wins exactly once");
    let hp = p99(task_latencies(hedged.core.trace.as_ref().unwrap()));
    let up = p99(task_latencies(unhedged.core.trace.as_ref().unwrap()));
    assert!(hp < up, "dryad sim p99: hedged {hp} vs unhedged {up}");
    assert!(hedged.summary.redundant_executions <= unhedged.summary.redundant_executions + 33);
}

/// The three simulators replay the same defended gray run bit-identically:
/// hedging is part of the deterministic model, not a source of noise.
#[test]
fn defended_sims_replay_deterministically() {
    let policy = full_policy(30.0, 200.0);
    let cluster = Cluster::provision(EC2_HCXL, 1, 8);
    let tasks = sim_tasks(64);
    let defended = |cluster: &Cluster| {
        RunContext::new(cluster)
            .with_schedule(gray(30.0))
            .with_resilience(policy)
            .with_trace(true)
    };
    let ctx = defended(&cluster);
    let run = || classic_simulate(&ctx, &tasks, &SimConfig::ec2());
    let (a, b) = (run(), run());
    assert_eq!(a.summary.makespan_seconds, b.summary.makespan_seconds);
    assert_eq!(a.total_attempts, b.total_attempts);

    let ctx = defended(&Cluster::provision(BARE_CAP3, 1, 8));
    let run = || hadoop_simulate(&ctx, &tasks, &HadoopSimConfig::default());
    let (a, b) = (run(), run());
    assert_eq!(a.summary.makespan_seconds, b.summary.makespan_seconds);
    assert_eq!(a.total_attempts, b.total_attempts);

    let run = || dryad_simulate(&ctx, &tasks, &DryadSimConfig::default());
    let (a, b) = (run(), run());
    assert_eq!(a.summary.makespan_seconds, b.summary.makespan_seconds);
    assert_eq!(a.total_attempts, b.total_attempts);
}

// ------------------------------------------------------------- natives --

struct NativeRun {
    outputs: BTreeMap<String, Vec<u8>>,
    trace: Trace,
    total_attempts: usize,
}

/// A native run's trace, asserted well formed: every attempt span unique
/// and every phase span inside its attempt, on its worker.
fn well_formed(engine: &str, trace: Option<Trace>) -> Trace {
    let trace = trace.expect("traced run");
    let problems = trace.check_well_formed();
    assert!(
        problems.is_empty(),
        "{engine}: malformed trace: {problems:?}"
    );
    trace
}

/// `base` under `schedule` and `policy`, recording spans.
fn native_ctx(
    base: RunContext,
    schedule: Option<Arc<FaultSchedule>>,
    policy: Option<ResiliencePolicy>,
) -> RunContext {
    let ctx = base
        .with_schedule(schedule)
        .with_sink(Arc::new(Recorder::new()) as Arc<dyn TraceSink>);
    match policy {
        Some(p) => ctx.with_resilience(p),
        None => ctx,
    }
}

fn classic_native(
    schedule: Option<Arc<FaultSchedule>>,
    policy: Option<ResiliencePolicy>,
) -> NativeRun {
    let storage = StorageService::in_memory();
    let queues = QueueService::new();
    let cluster = Cluster::provision(EC2_HCXL, 1, 4);
    let job = JobSpec::new("resil", specs())
        .with_visibility_timeout(Duration::from_millis(400))
        .with_max_deliveries(8);
    storage.create_bucket(&job.input_bucket).unwrap();
    for i in 0..N_TASKS {
        storage
            .put(&job.input_bucket, &format!("f{i}"), payload(i))
            .unwrap();
    }
    let report = classic_run(
        &native_ctx(RunContext::new(&cluster), schedule, policy),
        &storage,
        &queues,
        &job,
        reverse_executor(),
        &ClassicConfig::default(),
    )
    .unwrap();
    assert!(report.is_complete(), "failed: {:?}", report.failed);
    let outputs = expected_outputs()
        .keys()
        .map(|key| {
            let got = storage.get_with_retry(&job.output_bucket, key, 64).unwrap();
            (key.clone(), got.to_vec())
        })
        .collect();
    NativeRun {
        outputs,
        trace: well_formed("classic", report.core.trace.clone()),
        total_attempts: report.total_attempts,
    }
}

fn mapreduce_native(
    schedule: Option<Arc<FaultSchedule>>,
    policy: Option<ResiliencePolicy>,
) -> NativeRun {
    let fs = MiniHdfs::new(2, 1 << 20, 2, 77); // 2 nodes x 2 slots = workers 0..=3
    let mut paths = Vec::new();
    for i in 0..N_TASKS {
        let p = format!("/in/f{i}");
        fs.create(&p, &payload(i), None).unwrap();
        paths.push(p);
    }
    let mut job = MapReduceJob::map_only("resil", paths, "/out");
    job.max_attempts = 8;
    let mapper = ExecutableMapper::new("rev", reverse_executor());
    let ctx = native_ctx(RunContext::local(), schedule, policy);
    let report = hadoop_run(&ctx, &fs, &job, &mapper, &HadoopConfig::default()).unwrap();
    assert!(report.is_complete(), "failed: {:?}", report.failed);
    let outputs = expected_outputs()
        .keys()
        .map(|key| (key.clone(), fs.read(&format!("/out/{key}")).unwrap()))
        .collect();
    NativeRun {
        outputs,
        trace: well_formed("mapreduce", report.core.trace.clone()),
        total_attempts: report.total_attempts,
    }
}

fn dryad_native(
    schedule: Option<Arc<FaultSchedule>>,
    policy: Option<ResiliencePolicy>,
) -> NativeRun {
    let cluster = Cluster::provision(BARE_CAP3, 1, 4);
    let inputs: Vec<(TaskSpec, Vec<u8>)> = specs()
        .into_iter()
        .map(|s| (payload(s.id.0), s))
        .map(|(p, s)| (s, p))
        .collect();
    let (report, outputs) = dryad_run(
        &native_ctx(RunContext::new(&cluster), schedule, policy),
        inputs,
        reverse_executor(),
        &DryadConfig::default(),
    )
    .unwrap();
    assert_eq!(
        report.vertex_failures, 0,
        "failed: {:?}",
        report.core.failed
    );
    NativeRun {
        outputs: outputs.into_iter().collect(),
        trace: well_formed("dryad", report.core.trace.clone()),
        total_attempts: report.core.total_attempts,
    }
}

type ParadigmRunner = Box<dyn Fn(Option<ResiliencePolicy>) -> NativeRun>;

/// One gray straggler per fleet: hedged p99 must beat unhedged p99 on every
/// native engine, with byte-identical exactly-once outputs.
#[test]
fn native_hedged_p99_beats_unhedged_on_every_paradigm() {
    let runs: [(&str, ParadigmRunner); 3] = [
        ("classic", Box::new(|p| classic_native(Some(gray(30.0)), p))),
        (
            "mapreduce",
            // The empty policy disables legacy speculation so the hedge is
            // the only difference between the two runs.
            Box::new(|p| mapreduce_native(Some(gray(30.0)), Some(p.unwrap_or_default()))),
        ),
        ("dryad", Box::new(|p| dryad_native(Some(gray(30.0)), p))),
    ];
    for (name, run) in &runs {
        let unhedged = run(None);
        let hedged = run(Some(hedged_policy(0.02)));
        assert_eq!(
            hedged.outputs,
            expected_outputs(),
            "{name}: defended outputs must be exactly-once and uncorrupted"
        );
        assert_eq!(
            hedged.outputs, unhedged.outputs,
            "{name}: hedging must not change the output set"
        );
        assert!(
            hedged.trace.events_of_kind(EventKind::Hedge) > 0,
            "{name}: the straggler must have been hedged"
        );
        assert!(
            hedged.total_attempts <= 3 * N_TASKS as usize,
            "{name}: re-execution unbounded: {}",
            hedged.total_attempts
        );
        let hp = p99(task_latencies(&hedged.trace));
        let up = p99(task_latencies(&unhedged.trace));
        assert!(hp < up, "{name} native p99: hedged {hp} vs unhedged {up}");
    }
}

/// The acceptance scenario: every worker gray, full defense on — each
/// paradigm, native and simulated, completes with outputs identical to the
/// fault-free run.
#[test]
fn all_gray_fleet_completes_with_fault_free_outputs() {
    let policy = full_policy(0.05, 5.0);
    let schedule = all_gray(8, 5.0);

    let fault_free = classic_native(None, None);
    let defended = classic_native(Some(schedule.clone()), Some(policy));
    assert_eq!(defended.outputs, fault_free.outputs, "classic native");

    let fault_free = mapreduce_native(None, None);
    let defended = mapreduce_native(Some(schedule.clone()), Some(policy));
    assert_eq!(defended.outputs, fault_free.outputs, "mapreduce native");

    let fault_free = dryad_native(None, None);
    let defended = dryad_native(Some(schedule.clone()), Some(policy));
    assert_eq!(defended.outputs, fault_free.outputs, "dryad native");

    // The discrete-event twins, all-gray with the full defense: complete
    // with every task accounted for.
    let sim_policy = full_policy(30.0, 400.0);
    let tasks = sim_tasks(64);
    let cluster = Cluster::provision(EC2_HCXL, 1, 8);
    let report = classic_simulate(
        &RunContext::new(&cluster)
            .with_schedule(schedule.clone())
            .with_resilience(sim_policy),
        &tasks,
        &SimConfig::ec2(),
    );
    assert!(report.is_complete(), "classic sim: {:?}", report.failed);
    assert_eq!(report.summary.tasks, 64);

    let cluster = Cluster::provision(BARE_CAP3, 1, 8);
    let report = hadoop_simulate(
        &RunContext::new(&cluster)
            .with_schedule(schedule.clone())
            .with_resilience(sim_policy),
        &tasks,
        &HadoopSimConfig::default(),
    );
    assert!(report.is_complete(), "mapreduce sim: {:?}", report.failed);
    assert_eq!(report.summary.tasks, 64);

    let report = dryad_simulate(
        &RunContext::new(&cluster)
            .with_schedule(schedule)
            .with_resilience(sim_policy),
        &tasks,
        &DryadSimConfig::default(),
    );
    assert_eq!(report.vertex_failures, 0);
    assert_eq!(report.summary.tasks, 64);
}

// ---------------------------------------------------------------------
// Elastic Classic termination: wakes and hedge re-checks aimed within half
// a microsecond tick of `now` must still advance the clock.
// ---------------------------------------------------------------------

/// Hedged elastic BLAST: a hedge re-check lands within half a tick of now
/// and, without the one-tick bump, re-fires at the same instant forever.
#[test]
fn elastic_hedge_recheck_near_a_tick_terminates() {
    use ppc::apps::workload::{blast_sim_base_set, replicate};
    use ppc::autoscale::AutoscaleConfig;
    let tasks = replicate(&blast_sim_base_set(1), 8)[..16].to_vec();
    let ctx = RunContext::elastic(
        EC2_HCXL,
        AutoscaleConfig::target_tracking(2, 32, 4.0),
        Vec::new(),
    )
    .with_resilience(ResiliencePolicy::hedged(HedgeConfig::quantile(30.0)));
    let classic = ppc::engine_by_name("classic").expect("classic engine");
    let report = classic.simulate(&ctx, &tasks);
    assert!(report.is_complete(), "failed: {:?}", report.failed);
    assert_eq!(report.summary.tasks, 16);
    assert!(
        (report.summary.makespan_seconds - 1725.8).abs() < 0.1,
        "makespan {}",
        report.summary.makespan_seconds
    );
}

/// Quarantined elastic Cap3 / GTM under a seeded chaos schedule: a benched
/// instance's wake rounds to a microsecond before its release time, so
/// without the bump it wakes, is still benched, and re-wakes at the same
/// instant forever. Seeds and inputs reproduce the cases found by sweeping
/// the benchmark's `sim_chaos` elastic calls (seeds 0–2999).
#[test]
fn elastic_quarantine_wake_near_a_tick_terminates() {
    use ppc::apps::workload::{cap3_sim_tasks, gtm_sim_tasks, replicate};
    use ppc::autoscale::AutoscaleConfig;
    use ppc::core::rng::Pcg32;

    const HORIZON_S: f64 = 1800.0;
    const MAX_INSTANCES: u32 = 32;
    let ctx = |seed: u64, n_tasks: usize| {
        let mut rng = Pcg32::new(seed ^ 0xA771);
        let mut at = 0.0;
        let arrivals = (0..n_tasks)
            .map(|_| {
                at += rng.next_f64() * 2.0;
                at
            })
            .collect();
        let workers = MAX_INSTANCES * EC2_HCXL.cores as u32;
        let mut rng = Pcg32::new(seed ^ 0xC4A0_5EED);
        let mut w = || rng.next_below(workers);
        let (w0, w1, w2, w3) = (w(), w(), w(), w());
        let mut rng = Pcg32::new(seed ^ 0x7133);
        let mut t = || rng.next_f64() * HORIZON_S / 2.0;
        let (t0, t1, t2) = (t(), t(), t());
        let schedule = FaultSchedule::new(seed)
            .kill_at(w0, t0)
            .kill_at(w1, t1)
            .kill_mid_execute(w2, 1)
            .degrade(w3, 3.0, 0.0, HORIZON_S)
            .brownout(t2, t2 + 120.0)
            .with_death_probabilities(0.01, 0.01, 0.01);
        RunContext::elastic(
            EC2_HCXL,
            AutoscaleConfig::target_tracking(2, MAX_INSTANCES, 4.0),
            arrivals,
        )
        .with_seed(seed)
        .with_schedule(Arc::new(schedule))
        .with_resilience(
            ResiliencePolicy::default()
                .with_quarantine(QuarantineConfig::default())
                .with_deadline(7200.0),
        )
    };
    let classic = ppc::engine_by_name("classic").expect("classic engine");
    let gtm = replicate(&gtm_sim_tasks(264, 100_000), 2);
    let cap3 = replicate(&cap3_sim_tasks(200, 458), 2);
    let runs = [
        (21, &gtm),
        (254, &gtm),
        (254, &cap3),
        (530, &gtm),
        (2523, &gtm),
    ];
    for (seed, tasks) in runs {
        let report = classic.simulate(&ctx(seed, tasks.len()), tasks);
        assert_eq!(
            report.summary.tasks + report.failed.len(),
            tasks.len(),
            "seed {seed}"
        );
    }
}

// ---------------------------------------------------------------------
// Quarantine transitions: the health tracker reports every bench and
// release itself, so each engine's trace must show them as a well-formed
// state machine.
// ---------------------------------------------------------------------

/// Check one trace's `Quarantine` / `Release` events against the tracker's
/// state machine and return their counts. Per worker, in recorded order,
/// the events alternate starting with `Quarantine`; each `Release` falls
/// at or after its `Quarantine` plus `quarantine_s`, and the next
/// `Quarantine` no earlier than that `Release`.
fn quarantine_transitions(name: &str, trace: &Trace, quarantine_s: f64) -> (usize, usize) {
    let mut last: HashMap<u32, (EventKind, f64)> = HashMap::new();
    let (mut benched, mut released) = (0, 0);
    for e in trace.events() {
        match (e.kind, last.get(&e.worker).copied()) {
            (EventKind::Quarantine, None | Some((EventKind::Release, _))) => {
                if let Some((_, at_s)) = last.get(&e.worker) {
                    assert!(
                        e.at_s >= *at_s,
                        "{name}: worker {} re-benched at {} before its release at {at_s}",
                        e.worker,
                        e.at_s
                    );
                }
                benched += 1;
            }
            (EventKind::Release, Some((EventKind::Quarantine, at_s))) => {
                assert!(
                    e.at_s >= at_s + quarantine_s,
                    "{name}: worker {} released at {}, benched at {at_s} for {quarantine_s} s",
                    e.worker,
                    e.at_s
                );
                released += 1;
            }
            (EventKind::Quarantine | EventKind::Release, prev) => panic!(
                "{name}: worker {} {:?} at {} follows {prev:?}",
                e.worker, e.kind, e.at_s
            ),
            _ => continue,
        }
        last.insert(e.worker, (e.kind, e.at_s));
    }
    (benched, released)
}

/// Every engine, simulated and native, under a gray fleet with quarantine
/// and tracing on: the traced transitions form the tracker's state
/// machine. The sims run long enough to bench, release and re-bench.
#[test]
fn quarantine_transitions_alternate_on_every_engine() {
    // Worker 0 is so slow its attempts blow the deadline (a failure
    // streak); worker 1 completes, but 6x slower than its peers (an EWMA
    // bench).
    let schedule = Arc::new(
        FaultSchedule::new(chaos_seed())
            .degrade(0, 30.0, 0.0, 1e9)
            .degrade(1, 6.0, 0.0, 1e9),
    );
    let quarantine = QuarantineConfig {
        min_samples: 2,
        ..Default::default()
    };
    let policy = ResiliencePolicy::default()
        .with_quarantine(quarantine)
        .with_deadline(100.0);
    let ctx = |cluster: &Cluster| {
        RunContext::new(cluster)
            .with_schedule(schedule.clone())
            .with_resilience(policy)
            .with_trace(true)
    };
    let tasks = sim_tasks(512);
    let hcxl = Cluster::provision(EC2_HCXL, 1, 8);
    let bare = Cluster::provision(BARE_CAP3, 1, 8);
    let classic = classic_simulate(
        &ctx(&hcxl),
        &tasks,
        &SimConfig {
            storage_latency: LatencyModel::FREE,
            queue_latency: LatencyModel::FREE,
            jitter_sigma: 0.0,
            ..SimConfig::ec2()
        },
    );
    let mapreduce = hadoop_simulate(
        &ctx(&bare),
        &tasks,
        &HadoopSimConfig {
            straggler_p: 0.0,
            jitter_sigma: 0.0,
            ..Default::default()
        },
    );
    let dryad = dryad_simulate(
        &ctx(&bare),
        &tasks,
        &DryadSimConfig {
            jitter_sigma: 0.0,
            ..Default::default()
        },
    );
    for (name, trace) in [
        ("classic sim", &classic.core.trace),
        ("mapreduce sim", &mapreduce.core.trace),
        ("dryad sim", &dryad.core.trace),
    ] {
        let trace = trace.as_ref().expect("traced run");
        let (benched, released) = quarantine_transitions(name, trace, quarantine.quarantine_s);
        assert!(benched >= 2, "{name}: {benched} benches");
        assert!(released >= 1, "{name}: {released} releases");
    }

    // The native engines: worker 0 is 30x slow, and one slow completion
    // is evidence enough to bench it. Wall-clock runs are too short to
    // promise a release, so only the shape is pinned.
    let quarantine = QuarantineConfig {
        min_samples: 1,
        quarantine_s: 0.005,
        ..Default::default()
    };
    let policy = Some(ResiliencePolicy::default().with_quarantine(quarantine));
    for (name, run) in [
        ("classic native", classic_native(Some(gray(30.0)), policy)),
        (
            "mapreduce native",
            mapreduce_native(Some(gray(30.0)), policy),
        ),
        ("dryad native", dryad_native(Some(gray(30.0)), policy)),
    ] {
        assert_eq!(run.outputs, expected_outputs(), "{name}");
        let (benched, _) = quarantine_transitions(name, &run.trace, quarantine.quarantine_s);
        assert!(benched >= 1, "{name}: the gray worker was never benched");
    }
}
