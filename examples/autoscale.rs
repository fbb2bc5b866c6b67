//! Elastic fleets: autoscale a Classic Cloud worker fleet through a bursty
//! Cap3 assembly workload.
//!
//! Two runs of the same story:
//!
//! 1. **Native** — real worker threads assembling real FASTA fragments,
//!    with `ppc-autoscale` watching the scheduling queue and launching /
//!    draining workers as two arrival waves pass through. Time constants
//!    are compressed (billing "hours" are fractions of a second) so the
//!    whole elastic lifecycle fits in a terminal session.
//! 2. **Simulated** — the paper-scale twin on the DES engine: the same
//!    controller at full-size time constants, printing the per-worker
//!    ASCII Gantt chart next to the fleet-size timeline so you can watch
//!    capacity track demand.
//!
//! ```bash
//! cargo run --release --example autoscale
//! ```

use ppc::apps::cap3::Cap3Executor;
use ppc::apps::workload::{cap3_native_inputs, cap3_sim_tasks_inhomogeneous};
use ppc::autoscale::{AutoscaleConfig, Policy};
use ppc::classic::spec::JobSpec;
use ppc::classic::{run as classic_run, ClassicConfig};
use ppc::classic::{simulate as classic_simulate, SimConfig};
use ppc::compute::instance::EC2_HCXL;
use ppc::compute::model::AppModel;
use ppc::exec::RunContext;
use ppc::queue::service::QueueService;
use ppc::storage::service::StorageService;
use std::sync::Arc;

fn main() -> ppc::core::Result<()> {
    native()?;
    simulated();
    Ok(())
}

/// Real threads, real assembly, compressed clock.
fn native() -> ppc::core::Result<()> {
    println!("=== native: elastic Cap3 on worker threads (compressed clock) ===\n");
    let storage = StorageService::in_memory();
    let queues = QueueService::new();

    // 24 fragment files in two waves: half at t=0, half 400 ms later.
    let inputs = cap3_native_inputs(24, 120, 2400, 7);
    let arrivals: Vec<f64> = (0..inputs.len())
        .map(|i| if i < 12 { 0.0 } else { 0.4 })
        .collect();
    let job = JobSpec::new(
        "autoscale-cap3",
        inputs.iter().map(|(t, _)| t.clone()).collect(),
    );
    storage.create_bucket(&job.input_bucket)?;
    for (spec, payload) in &inputs {
        storage.put(&job.input_bucket, &spec.input_key, payload.clone())?;
    }

    // Millisecond-scale controller: tick every 10 ms, bill in 200 ms
    // "hours", retire only within 50 ms of a billing boundary.
    let autoscale = AutoscaleConfig {
        policy: Policy::TargetBacklog { per_worker: 4.0 },
        min_workers: 1,
        max_workers: 4,
        interval_s: 0.01,
        scale_up_cooldown_s: 0.03,
        scale_down_cooldown_s: 0.02,
        warmup_s: 0.0,
        billing_aware: true,
        billing_window_s: 0.05,
        billing_hour_s: 0.2,
    };
    let report = classic_run(
        &RunContext::elastic(EC2_HCXL, autoscale, arrivals.clone()),
        &storage,
        &queues,
        &job,
        Arc::new(Cap3Executor::new()),
        &ClassicConfig::default(),
    )?;
    assert!(report.is_complete());
    let fleet = report.fleet.as_ref().expect("elastic run reports a fleet");

    println!("platform     : {}", report.summary.platform);
    println!("tasks        : {} assembled", report.summary.tasks);
    println!(
        "makespan     : {:.3} s (wall)",
        report.summary.makespan_seconds
    );
    println!(
        "fleet        : peak {} / mean {:.2} workers, {} billed hours ({:.2} wasted)",
        fleet.peak_fleet(),
        fleet.mean_fleet(),
        fleet.billed_hours,
        fleet.wasted_hours,
    );
    println!("\nfleet size over time (each row = one billed instance):");
    print!("{}", fleet.timeline.render_ascii(64, fleet.horizon_s));
    Ok(())
}

/// The paper-scale twin on the DES engine, with the per-worker Gantt.
fn simulated() {
    println!("\n=== simulated: paper-scale twin on the DES engine ===\n");
    let tasks = cap3_sim_tasks_inhomogeneous(96, 400, 0.6, 11);
    let arrivals: Vec<f64> = (0..tasks.len())
        .map(|i| if i < 48 { 0.0 } else { 3000.0 })
        .collect();
    let autoscale = AutoscaleConfig {
        policy: Policy::TargetBacklog { per_worker: 4.0 },
        min_workers: 1,
        max_workers: 8,
        interval_s: 15.0,
        scale_up_cooldown_s: 60.0,
        scale_down_cooldown_s: 120.0,
        warmup_s: 45.0,
        billing_aware: true,
        billing_window_s: 180.0,
        billing_hour_s: 900.0,
    };
    let cfg = SimConfig::ec2().with_app(AppModel::cap3());
    let report = classic_simulate(
        &RunContext::elastic(EC2_HCXL, autoscale, arrivals.clone()).with_trace(true),
        &tasks,
        &cfg,
    );
    assert!(report.is_complete());
    let fleet = report.fleet.as_ref().expect("elastic run reports a fleet");

    println!("platform     : {}", report.summary.platform);
    println!(
        "makespan     : {:.0} s (virtual)",
        report.summary.makespan_seconds
    );
    println!(
        "fleet        : peak {} / mean {:.2} instances, {} billed hours ({:.2} wasted), {}",
        fleet.peak_fleet(),
        fleet.mean_fleet(),
        fleet.billed_hours,
        fleet.wasted_hours,
        fleet.cost.compute_cost,
    );

    println!("\nper-worker Gantt (busy = #):");
    let gantt = report.timeline.expect("trace: true records a timeline");
    print!("{}", gantt.render_ascii(64));
    println!("\nfleet size over time (billed instances):");
    print!("{}", fleet.timeline.render_ascii(64, fleet.horizon_s));
}
