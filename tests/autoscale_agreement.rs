//! Cross-engine autoscaling agreement: the native threaded runtime and the
//! discrete-event simulator drive the *same* pure `ppc-autoscale`
//! controller, so on a deterministic workload both engines must walk the
//! same fleet-size trajectory — the elastic counterpart of the
//! `sim_fidelity` makespan check.
//!
//! Timing is ratio-matched, not unit-matched: the native run compresses
//! seconds to milliseconds (30 ms tasks, 10 ms controller ticks), the
//! simulation uses the same shape in virtual seconds (30 s tasks, 10 s
//! ticks). The decision sequence depends only on the ratios.

use ppc::autoscale::{AutoscaleConfig, Policy};
use ppc::classic::spec::JobSpec;
use ppc::classic::{run as classic_run, ClassicConfig};
use ppc::classic::{simulate as classic_simulate, SimConfig};
use ppc::compute::instance::EC2_HCXL;
use ppc::core::exec::FnExecutor;
use ppc::core::task::{ResourceProfile, TaskSpec};
use ppc::exec::RunContext;
use ppc::queue::service::QueueService;
use ppc::storage::latency::LatencyModel;
use ppc::storage::service::StorageService;
use std::time::Duration;

const N_TASKS: u64 = 48;

/// One burst of equal tasks: the backlog ramps the fleet to its maximum in
/// one decision, then retires instances one at a time as it drains.
fn tasks(cpu_s: f64) -> Vec<TaskSpec> {
    (0..N_TASKS)
        .map(|i| {
            // HCXL runs at the reference clock: cpu_seconds_ref maps 1:1.
            TaskSpec::new(
                i,
                "sleep",
                format!("f{i}"),
                ResourceProfile::cpu_bound(cpu_s),
            )
        })
        .collect()
}

/// The shared controller shape; `scale` stretches every time constant
/// (1.0 = the simulator's virtual seconds, 1e-3 = native milliseconds).
fn autoscale_cfg(scale: f64) -> AutoscaleConfig {
    AutoscaleConfig {
        policy: Policy::TargetBacklog { per_worker: 12.0 },
        min_workers: 1,
        max_workers: 4,
        interval_s: 10.0 * scale,
        scale_up_cooldown_s: 30.0 * scale,
        scale_down_cooldown_s: 20.0 * scale,
        warmup_s: 0.0,
        billing_aware: false,
        billing_window_s: 60.0 * scale,
        billing_hour_s: 3600.0 * scale,
    }
}

#[test]
fn engines_agree_on_scale_decision_sequence() {
    // Simulated engine: 30 s tasks, 10 s ticks, free I/O, no jitter.
    let sim_cfg = SimConfig {
        storage_latency: LatencyModel::FREE,
        queue_latency: LatencyModel::FREE,
        jitter_sigma: 0.0,
        ..SimConfig::ec2()
    };
    let sim = classic_simulate(
        &RunContext::elastic(EC2_HCXL, autoscale_cfg(1.0), Vec::new()),
        &tasks(30.0),
        &sim_cfg,
    );
    assert_eq!(sim.summary.tasks, N_TASKS as usize);
    let sim_fleet = sim.fleet.expect("sim fleet report");

    // Native engine: same shape at millisecond scale, real threads.
    let storage = StorageService::in_memory();
    let queues = QueueService::new();
    let specs = tasks(30.0);
    let job = JobSpec::new("agree", specs);
    storage.create_bucket(&job.input_bucket).unwrap();
    for i in 0..N_TASKS {
        storage
            .put(&job.input_bucket, &format!("f{i}"), vec![b'x'; 64])
            .unwrap();
    }
    let executor = FnExecutor::new("sleep", |_s: &TaskSpec, input: &[u8]| {
        std::thread::sleep(Duration::from_millis(30));
        Ok(input.to_vec())
    });
    let native = classic_run(
        &RunContext::elastic(EC2_HCXL, autoscale_cfg(1e-3), Vec::new()),
        &storage,
        &queues,
        &job,
        executor,
        &ClassicConfig::default(),
    )
    .unwrap();
    assert!(native.is_complete());
    let native_fleet = native.fleet.expect("native fleet report");

    // The fleet-size trajectory — the observable record of every scale
    // decision — must match exactly across engines.
    let sim_seq = sim_fleet.timeline.size_sequence();
    let native_seq = native_fleet.timeline.size_sequence();
    assert_eq!(
        sim_seq, native_seq,
        "engines disagree: sim {sim_seq:?} vs native {native_seq:?}"
    );
    assert_eq!(sim_seq, vec![1, 4, 3, 2, 1]);
    assert_eq!(sim_fleet.peak_fleet(), native_fleet.peak_fleet());
}

#[test]
fn simulated_scale_events_are_deterministic() {
    let cfg = SimConfig::ec2();
    let run = || {
        classic_simulate(
            &RunContext::elastic(EC2_HCXL, autoscale_cfg(1.0), Vec::new()),
            &tasks(25.0),
            &cfg,
        )
        .fleet
        .unwrap()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.timeline.steps(), b.timeline.steps());
    assert_eq!(a.billed_hours, b.billed_hours);
    assert_eq!(a.cost, b.cost);
}

#[test]
fn fleet_invariants_hold_across_random_elastic_runs() {
    // Randomized workloads: the fleet trajectory must respect [min, max]
    // at every step, start at the minimum, and every launched instance
    // must be billed at least one started hour.
    let mut rng = ppc::core::rng::Pcg32::new(0xE1A5);
    for trial in 0..12 {
        let n = 16 + rng.next_below(64);
        let specs: Vec<TaskSpec> = (0..n)
            .map(|i| {
                let secs = rng.uniform(5.0, 60.0);
                TaskSpec::new(
                    u64::from(i),
                    "mix",
                    format!("f{i}"),
                    ResourceProfile::cpu_bound(secs),
                )
            })
            .collect();
        let arrivals: Vec<f64> = (0..n).map(|_| rng.uniform(0.0, 300.0)).collect();
        let cfg = SimConfig {
            jitter_sigma: 0.1,
            ..SimConfig::ec2()
        };
        let report = classic_simulate(
            &RunContext::elastic(EC2_HCXL, autoscale_cfg(1.0), arrivals.clone()).with_seed(trial),
            &specs,
            &cfg,
        );
        assert_eq!(report.summary.tasks, n as usize, "trial {trial}");
        let fleet = report.fleet.unwrap();
        let seq = fleet.timeline.size_sequence();
        assert_eq!(seq[0], 1, "trial {trial}: starts at min fleet");
        for &s in &seq {
            assert!(
                (1..=4).contains(&s),
                "trial {trial}: fleet size {s} escaped [1, 4] in {seq:?}"
            );
        }
        assert!(
            fleet.billed_hours as usize >= 1,
            "trial {trial}: at least the seed instance is billed"
        );
        assert!(fleet.cost.compute_cost >= fleet.cost.amortized_cost);
    }
}
