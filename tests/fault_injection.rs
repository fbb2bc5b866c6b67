//! Failure-injection integration tests: every platform keeps its
//! correctness contract while its infrastructure misbehaves.

use ppc::chaos::FaultSchedule;
use ppc::classic::spec::JobSpec;
use ppc::classic::{run as classic_run, ClassicConfig};
use ppc::compute::cluster::Cluster;
use ppc::compute::instance::EC2_HCXL;
use ppc::core::exec::FnExecutor;
use ppc::core::task::TaskId;
use ppc::core::task::{ResourceProfile, TaskSpec};
use ppc::exec::RunContext;
use ppc::hdfs::block::DataNodeId;
use ppc::hdfs::fs::MiniHdfs;
use ppc::mapreduce::job::{ExecutableMapper, MapReduceJob};
use ppc::mapreduce::{run as hadoop_run, HadoopConfig};
use ppc::queue::chaos::ChaosConfig;
use ppc::queue::service::QueueService;
use ppc::storage::consistency::ConsistencyModel;
use ppc::storage::latency::LatencyModel;
use ppc::storage::service::StorageService;
use std::sync::Arc;
use std::time::Duration;

fn reverse_executor() -> Arc<dyn ppc::core::exec::Executor> {
    FnExecutor::new("rev", |_s, input: &[u8]| {
        let mut v = input.to_vec();
        v.reverse();
        Ok(v)
    })
}

fn check_outputs(storage: &StorageService, bucket: &str, n: u64) {
    for i in 0..n {
        // Retry like any real client: the store may still be within its
        // eventual-consistency window for freshly written outputs.
        let out = storage
            .get_with_retry(bucket, &format!("f{i}.out"), 64)
            .unwrap();
        let mut expect = format!("payload-{i}").into_bytes();
        expect.reverse();
        assert_eq!(*out, expect, "task {i}");
    }
}

fn check_outputs_except(storage: &StorageService, bucket: &str, n: u64, skip: u64) {
    for i in (0..n).filter(|&i| i != skip) {
        let out = storage
            .get_with_retry(bucket, &format!("f{i}.out"), 64)
            .unwrap();
        let mut expect = format!("payload-{i}").into_bytes();
        expect.reverse();
        assert_eq!(*out, expect, "task {i}");
    }
}

/// Classic Cloud under simultaneous worker deaths, queue chaos, AND an
/// eventually consistent store.
#[test]
fn classic_survives_combined_failures() {
    let storage = StorageService::cloud(
        LatencyModel::FREE,
        ConsistencyModel::eventual(0.02, 0.5, 7),
        0.0,
    );
    let queues = QueueService::new();
    let cluster = Cluster::provision(EC2_HCXL, 2, 4);
    let n = 40;
    let tasks: Vec<TaskSpec> = (0..n)
        .map(|i| TaskSpec::new(i, "rev", format!("f{i}"), ResourceProfile::cpu_bound(0.0)))
        .collect();
    // The property under test is survival, not retry exhaustion. These
    // dice kill a delivery with P = 1 - 0.92 * 0.95 * 0.92 ≈ 0.20, and the
    // flaky queue and the 30-ms lease waste a few more, so about one
    // delivery in four is lost. With the default 5 deliveries a task
    // exhausts its budget with P ≈ 0.25^5 ≈ 1e-3, about 2% of 40-task
    // runs, and dead-lettering it is then correct (see
    // `poison_task_bounded_by_dead_letter`). With 12 deliveries that is
    // P ≈ 0.25^12 ≈ 6e-8 per task.
    let job = JobSpec::new("combined", tasks)
        .with_visibility_timeout(Duration::from_millis(30))
        .with_max_deliveries(12);
    storage.create_bucket(&job.input_bucket).unwrap();
    for i in 0..n {
        storage
            .put(
                &job.input_bucket,
                &format!("f{i}"),
                format!("payload-{i}").into_bytes(),
            )
            .unwrap();
    }
    let dice = FaultSchedule::new(3).with_death_probabilities(0.08, 0.05, 0.08);
    let ctx = RunContext::new(&cluster)
        .with_seed(3)
        .with_schedule(Arc::new(dice));
    let config = ClassicConfig {
        restart_delay_ms: 1,
        queue_chaos: ChaosConfig::flaky(),
        ..ClassicConfig::default()
    };
    let report = classic_run(&ctx, &storage, &queues, &job, reverse_executor(), &config).unwrap();
    assert!(report.is_complete(), "failed tasks: {:?}", report.failed);
    assert_eq!(report.summary.tasks, n as usize);
    check_outputs(&storage, &job.output_bucket, n);
}

/// MapReduce keeps working when a datanode dies mid-job: replicated blocks
/// stay readable and re-replication restores the target afterwards.
#[test]
fn hadoop_survives_datanode_loss() {
    let fs = MiniHdfs::new(5, 1 << 16, 3, 909);
    let n = 30;
    let mut paths = Vec::new();
    for i in 0..n {
        let p = format!("/in/f{i}");
        fs.create(&p, format!("payload-{i}").as_bytes(), None)
            .unwrap();
        paths.push(p);
    }
    // Kill a datanode before the job; its replicas are gone.
    fs.kill_datanode(DataNodeId(2)).unwrap();
    let job = MapReduceJob::map_only("loss", paths, "/out");
    let mapper = ExecutableMapper::new("rev", reverse_executor());
    let report = hadoop_run(
        &RunContext::local(),
        &fs,
        &job,
        &mapper,
        None,
        &HadoopConfig::default(),
    )
    .unwrap();
    assert!(report.is_complete(), "failed: {:?}", report.failed);
    assert_eq!(fs.list("/out/").len(), n);
    // The namenode can restore full replication from survivors.
    fs.re_replicate();
    assert!(fs.under_replicated().is_empty());
}

/// MapReduce retries flaky attempts and still commits exactly one output
/// per task.
#[test]
fn hadoop_retries_do_not_duplicate_outputs() {
    let fs = MiniHdfs::new(3, 1 << 16, 2, 910);
    let n = 24;
    let mut paths = Vec::new();
    for i in 0..n {
        let p = format!("/in/f{i}");
        fs.create(&p, format!("data-{i}").as_bytes(), None).unwrap();
        paths.push(p);
    }
    let mut job = MapReduceJob::map_only("flaky", paths, "/out");
    // The property under test is commit discipline, not retry exhaustion:
    // at p=0.35 the default 4-attempt budget permanently fails a task in
    // ~1.5% of interleavings, so give retries enough headroom that every
    // task completes and the only question is how many outputs it has.
    job.max_attempts = 12;
    let mapper = ExecutableMapper::new("rev", reverse_executor());
    let config = HadoopConfig {
        attempt_failure_p: 0.35,
        ..HadoopConfig::default()
    };
    let ctx = RunContext::local().with_seed(5);
    let report = hadoop_run(&ctx, &fs, &job, &mapper, None, &config).unwrap();
    assert!(report.is_complete());
    assert!(report.scheduler.retries > 0);
    let outs = fs.list("/out/");
    assert_eq!(outs.len(), n, "exactly one output per task: {outs:?}");
}

/// The dead-letter policy bounds poison-task damage on the Classic Cloud:
/// the job terminates, healthy tasks complete, the poison one is reported.
#[test]
fn poison_task_bounded_by_dead_letter() {
    let storage = StorageService::in_memory();
    let queues = QueueService::new();
    let cluster = Cluster::provision(EC2_HCXL, 1, 2);
    let n = 10u64;
    let tasks: Vec<TaskSpec> = (0..n)
        .map(|i| TaskSpec::new(i, "p", format!("f{i}"), ResourceProfile::cpu_bound(0.0)))
        .collect();
    let job = JobSpec::new("poison", tasks)
        .with_visibility_timeout(Duration::from_millis(15))
        .with_max_deliveries(3);
    storage.create_bucket(&job.input_bucket).unwrap();
    for i in 0..n {
        storage
            .put(
                &job.input_bucket,
                &format!("f{i}"),
                format!("payload-{i}").into_bytes(),
            )
            .unwrap();
    }
    let exec = FnExecutor::new("poison", |spec: &TaskSpec, input: &[u8]| {
        if spec.id.0 == 7 {
            Err(ppc::core::PpcError::TaskFailed("unprocessable".into()))
        } else {
            let mut v = input.to_vec();
            v.reverse();
            Ok(v)
        }
    });
    let report = classic_run(
        &RunContext::new(&cluster),
        &storage,
        &queues,
        &job,
        exec,
        &ClassicConfig::default(),
    )
    .unwrap();
    assert_eq!(report.failed.len(), 1);
    assert_eq!(report.failed[0].0, 7);
    assert_eq!(report.summary.tasks, 9);
}

/// A poison task on an *autoscaled* fleet parks in the DLQ without pinning
/// the fleet at max, the fleet ledger balances (every launched instance is
/// eventually retired), and redriving the parked task completes the work.
#[test]
fn autoscaled_poison_parks_in_dlq_and_redrives() {
    use ppc::compute::instance::EC2_HCXL;

    let storage = StorageService::in_memory();
    let queues = QueueService::new();
    let n = 24u64;
    let tasks: Vec<TaskSpec> = (0..n)
        .map(|i| TaskSpec::new(i, "rev", format!("f{i}"), ResourceProfile::cpu_bound(0.0)))
        .collect();
    let job = JobSpec::new("redrive", tasks)
        .with_visibility_timeout(Duration::from_millis(40))
        .with_max_deliveries(3);
    storage.create_bucket(&job.input_bucket).unwrap();
    for i in 0..n {
        storage
            .put(
                &job.input_bucket,
                &format!("f{i}"),
                format!("payload-{i}").into_bytes(),
            )
            .unwrap();
    }
    // Task 7 is unprocessable on this (buggy) executor build.
    let poison = FnExecutor::new("rev", |spec: &TaskSpec, input: &[u8]| {
        std::thread::sleep(Duration::from_millis(5));
        if spec.id.0 == 7 {
            Err(ppc::core::PpcError::TaskFailed("unprocessable".into()))
        } else {
            let mut v = input.to_vec();
            v.reverse();
            Ok(v)
        }
    });
    let autoscale = ppc::autoscale::AutoscaleConfig {
        policy: ppc::autoscale::Policy::TargetBacklog { per_worker: 8.0 },
        min_workers: 1,
        max_workers: 4,
        interval_s: 0.01,
        scale_up_cooldown_s: 0.03,
        scale_down_cooldown_s: 0.02,
        warmup_s: 0.0,
        billing_aware: false,
        billing_window_s: 0.02,
        billing_hour_s: 0.1,
    };
    let report = classic_run(
        &RunContext::elastic(EC2_HCXL, autoscale.clone(), Vec::new()),
        &storage,
        &queues,
        &job,
        poison,
        &ClassicConfig::default(),
    )
    .unwrap();
    assert_eq!(report.failed, vec![TaskId(7)]);
    assert_eq!(report.summary.tasks, (n - 1) as usize);
    check_outputs_except(&storage, &job.output_bucket, n, 7);

    // The fleet ledger balances: once the healthy backlog drained, the
    // poison task's redelivery loop must not pin the fleet at max — the
    // controller scales back toward min_workers, so the run ends well
    // below its peak and the mean stays under the cap.
    let fleet = report.fleet.expect("autoscaled run reports its fleet");
    let (_, final_size) = *fleet.timeline.steps().last().expect("timeline recorded");
    assert!(
        final_size < autoscale.max_workers,
        "fleet pinned at max ({final_size}) at job end"
    );
    assert!(
        fleet.mean_fleet() < autoscale.max_workers as f64,
        "poison task must not pin the fleet at max: mean {}",
        fleet.mean_fleet()
    );
    // Billing consistency: every instance ever launched bills at least one
    // started hour, so the summed bill covers at least the peak fleet.
    assert!(fleet.billed_hours >= u64::from(fleet.peak_fleet()));

    // Redrive: the DLQ holds exactly the poison task, body intact.
    let dlq = queues.queue(&job.dead_letter_queue()).unwrap();
    let parked = dlq.receive().unwrap().expect("poison task parked in DLQ");
    let spec = TaskSpec::from_message(&parked.body).unwrap();
    assert_eq!(spec.id, TaskId(7));
    dlq.delete(parked.receipt).unwrap();
    assert!(dlq.receive().unwrap().is_none(), "exactly one parked task");

    // The operator fixes the executor and redrives just that task, reusing
    // the original buckets.
    let mut redrive_job = JobSpec::new("redrive-fixup", vec![spec]);
    redrive_job.input_bucket = job.input_bucket.clone();
    redrive_job.output_bucket = job.output_bucket.clone();
    let cluster = Cluster::provision(EC2_HCXL, 1, 2);
    let report = classic_run(
        &RunContext::new(&cluster),
        &storage,
        &queues,
        &redrive_job,
        reverse_executor(),
        &ClassicConfig::default(),
    )
    .unwrap();
    assert!(report.is_complete());
    check_outputs(&storage, &job.output_bucket, n);
}

/// A node whose only vertex slot is killed mid-job cannot hand its list to
/// another node (static partitioning), so every vertex left on it fails
/// permanently and shows up in the report — undefended and defended alike,
/// and `fail_fast` turns it into an error.
#[test]
fn dryad_dead_node_fails_its_leftover_vertices() {
    use ppc::compute::instance::BARE_HPC16;
    use ppc::dryad::{run as dryad_run, DryadConfig};
    use ppc::resilience::ResiliencePolicy;

    let cluster = Cluster::provision(BARE_HPC16, 1, 1);
    let inputs: Vec<(TaskSpec, Vec<u8>)> = (0..4)
        .map(|i| {
            (
                TaskSpec::new(i, "t", format!("f{i}"), ResourceProfile::cpu_bound(0.0)),
                format!("d{i}").into_bytes(),
            )
        })
        .collect();
    let slow = FnExecutor::new("slow", |_s, input: &[u8]| {
        std::thread::sleep(Duration::from_millis(10));
        Ok(input.to_vec())
    });
    let schedule = Arc::new(FaultSchedule::new(5).kill_at(0, 0.001));
    for resilience in [None, Some(ResiliencePolicy::default())] {
        let mut ctx = RunContext::new(&cluster).with_schedule(schedule.clone());
        if let Some(policy) = resilience {
            ctx = ctx.with_resilience(policy);
        }
        let (report, outputs) =
            dryad_run(&ctx, inputs.clone(), slow.clone(), &DryadConfig::default()).unwrap();
        // The kill lands during the first vertex (or before it, on a slow
        // thread start); whatever did not commit must be reported failed.
        assert!(
            outputs.len() <= 1,
            "{resilience:?}: {} outputs",
            outputs.len()
        );
        assert_eq!(report.vertex_failures, 4 - outputs.len(), "{resilience:?}");
        let mut settled: Vec<String> = report
            .failed
            .iter()
            .map(|id| format!("f{}.out", id.0))
            .collect();
        settled.extend(outputs.iter().map(|(key, _)| key.clone()));
        settled.sort();
        assert_eq!(
            settled,
            ["f0.out", "f1.out", "f2.out", "f3.out"],
            "{resilience:?}"
        );
        let fail_fast = DryadConfig {
            fail_fast: true,
            ..DryadConfig::default()
        };
        assert!(
            dryad_run(&ctx, inputs.clone(), slow.clone(), &fail_fast).is_err(),
            "{resilience:?}: fail_fast must surface the lost vertices"
        );
    }
}
