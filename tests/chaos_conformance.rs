//! Cross-framework chaos conformance suite.
//!
//! Every execution paradigm — Classic Cloud, MapReduce, Dryad — is run
//! under the *same* hostile [`FaultSchedule`] (timed worker kills, a
//! mid-execution kill, a torn upload, a gray-degraded worker, a storage
//! brownout window, and i.i.d. death dice) and must keep the paper's
//! correctness contract:
//!
//! 1. **Exact output set** — every task's output present, with the exact
//!    expected bytes (an interrupted upload lands nothing, and the
//!    re-execution commits the whole output).
//! 2. **Bounded re-execution** — recovery costs extra attempts, never
//!    unbounded ones.
//! 3. **Determinism (sims)** — the same schedule replays to bit-identical
//!    results on the discrete-event engines.
//! 4. **Billing consistency** — chaos never corrupts the ledgers: queue
//!    requests are metered, fleet bills cover every launched instance.
//!
//! The schedule seed comes from `PPC_CHAOS_SEED` (CI sweeps several), so
//! the invariants must hold for *any* seed, not a lucky one.

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
use ppc::storage::service::StorageService;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

const N_TASKS: u64 = 40;

/// Schedule seed: `PPC_CHAOS_SEED` if set (the CI matrix sweeps a few),
/// else a fixed default.
fn chaos_seed() -> u64 {
    std::env::var("PPC_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4242)
}

fn hostile() -> Arc<FaultSchedule> {
    Arc::new(FaultSchedule::hostile(chaos_seed()))
}

fn payload(i: u64) -> Vec<u8> {
    format!("payload-{i}").into_bytes()
}

/// The logical result every engine must produce: key → reversed payload.
fn expected_outputs() -> BTreeMap<String, Vec<u8>> {
    (0..N_TASKS)
        .map(|i| {
            let mut v = payload(i);
            v.reverse();
            (format!("f{i}.out"), v)
        })
        .collect()
}

/// Reverse executor with a small sleep so the schedule's timed events
/// land while work is still in flight.
fn reverse_executor() -> Arc<dyn Executor> {
    FnExecutor::new("rev", |_s, input: &[u8]| {
        std::thread::sleep(Duration::from_millis(2));
        let mut v = input.to_vec();
        v.reverse();
        Ok(v)
    })
}

#[test]
fn classic_native_conforms_under_hostile_schedule() {
    let storage = StorageService::in_memory();
    let queues = QueueService::new();
    let cluster = Cluster::provision(EC2_HCXL, 2, 2); // workers 0..=3
    let tasks: Vec<TaskSpec> = (0..N_TASKS)
        .map(|i| TaskSpec::new(i, "rev", format!("f{i}"), ResourceProfile::cpu_bound(0.0)))
        .collect();
    let job = JobSpec::new("conform", tasks)
        .with_visibility_timeout(Duration::from_millis(30))
        .with_max_deliveries(20);
    storage.create_bucket(&job.input_bucket).unwrap();
    for i in 0..N_TASKS {
        storage
            .put(&job.input_bucket, &format!("f{i}"), payload(i))
            .unwrap();
    }
    let report = classic_run(
        &RunContext::new(&cluster).with_schedule(hostile()),
        &storage,
        &queues,
        &job,
        reverse_executor(),
        &ClassicConfig::default(),
    )
    .unwrap();

    // Exact output set: an interrupted upload landed nothing, and the
    // completed re-execution committed every output in full.
    assert!(report.is_complete(), "failed: {:?}", report.failed);
    assert_eq!(report.summary.tasks, N_TASKS as usize);
    for (key, expect) in expected_outputs() {
        let got = storage
            .get_with_retry(&job.output_bucket, &key, 64)
            .unwrap();
        assert_eq!(*got, expect, "output {key}");
    }
    // Bounded re-execution: chaos costs attempts, not runaway loops.
    assert!(
        report.total_attempts <= 2 * N_TASKS as usize,
        "re-execution unbounded: {} executions for {N_TASKS} tasks",
        report.total_attempts
    );
    // Billing consistency: the queue ledger metered the run.
    assert!(report.queue_requests > 0);
}

#[test]
fn mapreduce_native_conforms_under_hostile_schedule() {
    let fs = MiniHdfs::new(3, 1 << 20, 2, 77); // 3 nodes x 2 slots = workers 0..=5
    let mut paths = Vec::new();
    for i in 0..N_TASKS {
        let p = format!("/in/f{i}");
        fs.create(&p, &payload(i), None).unwrap();
        paths.push(p);
    }
    let mut job = MapReduceJob::map_only("conform", paths, "/out");
    job.max_attempts = 8; // headroom for dice-chained attempt failures
    let mapper = ExecutableMapper::new("rev", reverse_executor());
    let ctx = RunContext::local().with_schedule(hostile());
    let report = hadoop_run(&ctx, &fs, &job, &mapper, &HadoopConfig::default()).unwrap();

    assert!(report.is_complete(), "failed: {:?}", report.failed);
    assert_eq!(report.summary.tasks, N_TASKS as usize);
    for (key, expect) in expected_outputs() {
        let got = fs.read(&format!("/out/{key}")).unwrap();
        assert_eq!(got, expect, "output {key}");
    }
    assert!(
        report.total_attempts <= N_TASKS as usize * job.max_attempts as usize,
        "attempt budget exceeded: {}",
        report.total_attempts
    );
}

#[test]
fn dryad_native_conforms_under_hostile_schedule() {
    // 2 nodes x 2 slots = workers 0..=3; the hostile schedule kills slot 0
    // and slot 3, leaving one survivor per node — static partitioning
    // means recovery must happen within each node.
    let cluster = Cluster::provision(BARE_CAP3, 2, 2);
    let inputs: Vec<(TaskSpec, Vec<u8>)> = (0..N_TASKS)
        .map(|i| {
            (
                TaskSpec::new(i, "rev", format!("f{i}"), ResourceProfile::cpu_bound(0.0)),
                payload(i),
            )
        })
        .collect();
    let (report, outputs) = dryad_run(
        &RunContext::new(&cluster).with_schedule(hostile()),
        inputs,
        reverse_executor(),
        &DryadConfig::default(),
    )
    .unwrap();

    assert_eq!(report.vertex_failures, 0);
    assert_eq!(outputs.len(), N_TASKS as usize);
    let got: BTreeMap<String, Vec<u8>> = outputs.into_iter().collect();
    assert_eq!(got, expected_outputs(), "exact output set");
    assert!(
        report.vertex_retries <= N_TASKS as usize,
        "vertex re-runs unbounded: {}",
        report.vertex_retries
    );
}

/// All three discrete-event simulators replay the same hostile schedule to
/// bit-identical reports — chaos is part of the deterministic model, not a
/// source of noise.
#[test]
fn simulators_replay_hostile_schedule_deterministically() {
    let schedule = hostile();
    let mk_tasks = |n: u64| -> Vec<TaskSpec> {
        (0..n)
            .map(|i| {
                let mut p = ResourceProfile::cpu_bound(10.0);
                p.input_bytes = 200 << 10;
                p.output_bytes = 100 << 10;
                TaskSpec::new(i, "cap3", format!("f{i}"), p)
            })
            .collect()
    };
    let tasks = mk_tasks(64);

    // Classic Cloud sim.
    let cluster = Cluster::provision(EC2_HCXL, 4, 8);
    let cfg = SimConfig::ec2().with_failures(0.0, 60.0);
    let a = classic_simulate(
        &RunContext::new(&cluster).with_schedule(schedule.clone()),
        &tasks,
        &cfg,
    );
    let b = classic_simulate(
        &RunContext::new(&cluster).with_schedule(schedule.clone()),
        &tasks,
        &cfg,
    );
    assert!(a.is_complete());
    assert_eq!(a.summary.makespan_seconds, b.summary.makespan_seconds);
    assert_eq!(a.total_attempts, b.total_attempts);

    // MapReduce sim.
    let cluster = Cluster::provision(BARE_CAP3, 4, 8);
    let cfg = HadoopSimConfig::default();
    let a = hadoop_simulate(
        &RunContext::new(&cluster).with_schedule(schedule.clone()),
        &tasks,
        &cfg,
    );
    let b = hadoop_simulate(
        &RunContext::new(&cluster).with_schedule(schedule.clone()),
        &tasks,
        &cfg,
    );
    assert!(a.is_complete(), "failed: {:?}", a.failed);
    assert_eq!(a.summary.makespan_seconds, b.summary.makespan_seconds);
    assert_eq!(a.total_attempts, b.total_attempts);

    // Dryad sim.
    let cluster = Cluster::provision(BARE_CAP3, 4, 8);
    let cfg = DryadSimConfig::default();
    let a = dryad_simulate(
        &RunContext::new(&cluster).with_schedule(schedule.clone()),
        &tasks,
        &cfg,
    );
    let b = dryad_simulate(
        &RunContext::new(&cluster).with_schedule(schedule),
        &tasks,
        &cfg,
    );
    assert_eq!(a.summary.makespan_seconds, b.summary.makespan_seconds);
    assert_eq!(a.vertex_retries, b.vertex_retries);
}
