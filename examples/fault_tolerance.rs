//! Fault tolerance by visibility timeout, demonstrated.
//!
//! Runs a Classic Cloud job while killing workers mid-task (both before
//! executing and between upload and delete) and injecting queue chaos —
//! duplicate deliveries, empty receives, transient API failures. The job
//! must still complete with byte-correct outputs, because tasks are
//! idempotent and undeleted messages reappear (paper §2.1.3).
//!
//! ```bash
//! cargo run --release --example fault_tolerance
//! ```

use ppc::chaos::FaultSchedule;
use ppc::classic::spec::JobSpec;
use ppc::classic::{run as classic_run, ClassicConfig};
use ppc::compute::cluster::Cluster;
use ppc::compute::instance::EC2_HCXL;
use ppc::core::exec::FnExecutor;
use ppc::core::task::{ResourceProfile, TaskSpec};
use ppc::exec::RunContext;
use ppc::queue::chaos::ChaosConfig;
use ppc::queue::service::QueueService;
use ppc::storage::service::StorageService;
use std::sync::Arc;
use std::time::Duration;

fn main() -> ppc::core::Result<()> {
    let storage = StorageService::in_memory();
    let queues = QueueService::new();
    let cluster = Cluster::provision(EC2_HCXL, 2, 4);

    // 60 tasks: reverse each payload (idempotent, easily checkable).
    let n = 60;
    let tasks: Vec<TaskSpec> = (0..n)
        .map(|i| TaskSpec::new(i, "rev", format!("f{i}"), ResourceProfile::cpu_bound(0.0)))
        .collect();
    // A delivery dies with P = 1 - 0.90 * 0.95 * 0.90 ≈ 0.23 under the
    // dice below, and duplicates and lapsed leases waste a few more. With
    // the default 5 deliveries a task would exhaust its budget (and be
    // dead-lettered, correctly) in about 2% of runs; with 12 that takes
    // P ≈ 0.28^12 ≈ 2e-7 per task.
    let job = JobSpec::new("hostile", tasks)
        .with_visibility_timeout(Duration::from_millis(40))
        .with_max_deliveries(12);
    storage.create_bucket(&job.input_bucket)?;
    for i in 0..n {
        storage.put(
            &job.input_bucket,
            &format!("f{i}"),
            format!("payload-{i}").into_bytes(),
        )?;
    }

    let ctx = RunContext::new(&cluster)
        .with_seed(11)
        .with_schedule(Arc::new(
            FaultSchedule::new(11).with_death_probabilities(0.10, 0.05, 0.10),
        ));
    let config = ClassicConfig {
        restart_delay_ms: 1,
        queue_chaos: ChaosConfig {
            empty_receive_probability: 0.10,
            duplicate_delivery_probability: 0.05,
            transient_error_probability: 0.02,
        },
        ..ClassicConfig::default()
    };

    let executor = FnExecutor::new("rev", |_s, input: &[u8]| {
        let mut v = input.to_vec();
        v.reverse();
        Ok(v)
    });
    let report = classic_run(&ctx, &storage, &queues, &job, executor, &config)?;

    println!("hostile environment: 10% death before execute, 10% before delete,");
    println!("                     10% empty receives, 5% duplicate delivery, 2% API errors");
    println!("tasks completed    : {}/{n}", report.summary.tasks);
    println!(
        "total executions   : {} ({} redundant)",
        report.total_attempts,
        report.redundant_executions()
    );
    println!("worker deaths      : {}", report.worker_deaths);
    println!(
        "makespan           : {:.2} s",
        report.summary.makespan_seconds
    );

    // Every output is present and correct despite all of the above.
    for i in 0..n {
        let out = storage.get(&job.output_bucket, &format!("f{i}.out"))?;
        let mut expect = format!("payload-{i}").into_bytes();
        expect.reverse();
        assert_eq!(*out, expect, "task {i} output corrupted");
    }
    println!("\nall {n} outputs verified byte-correct — idempotence absorbed every failure");
    assert!(report.is_complete());
    assert!(
        report.worker_deaths > 0,
        "the environment was genuinely hostile"
    );
    Ok(())
}
