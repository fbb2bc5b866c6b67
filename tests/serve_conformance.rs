//! Conformance and property suite for the `ppc-serve` job-service front
//! door, swept by the CI chaos-seed matrix (`PPC_CHAOS_SEED`).
//!
//! The contract under test, over randomized service configurations:
//!
//! 1. **Admission control** — no tenant is ever observed past its quota
//!    (`peak_queued <= max_queued`, `peak_running <= max_running`), and
//!    backpressure never *drops* an admitted job: every submission ends
//!    in exactly one terminal state, and everything the front door let
//!    in reaches `Done`/`Failed` with a fully-stamped lifecycle.
//! 2. **Determinism** — the same submission trace replays to identical
//!    `JobStatus` histories, billing rollups, and report JSON on repeat
//!    runs.
//! 3. **Billing exactness** — per-tenant rollups sum to the fleet bill
//!    micro-dollar for micro-dollar, fixed and elastic fleets alike.
//! 4. **Bounded overload** — under ~2× offered load the bounded buffers
//!    shed, and p99 latency stays under the structural queue-depth bound.

use ppc::autoscale::AutoscaleConfig;
use ppc::compute::instance::EC2_HCXL;
use ppc::core::money::Usd;
use ppc::core::rng::Pcg32;
use ppc::exec::RunContext;
use ppc::serve::{
    simulate_serve, JobStatus, Priority, ServeFleet, ServeRun, ServeSimConfig, TenantLoad,
    TenantQuota, TenantSpec,
};

/// Sweep seed: `PPC_CHAOS_SEED` if set (the CI matrix sweeps a few),
/// else a fixed default.
fn chaos_seed() -> u64 {
    std::env::var("PPC_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4242)
}

/// One randomized service configuration: 1–4 tenants with independent
/// weights, quotas, client populations, job shapes, and hints, over a
/// fixed or elastic fleet. Small enough that a sweep of them stays
/// well under a second, adversarial enough to hit both admission paths.
fn random_cfg(rng: &mut Pcg32) -> ServeSimConfig {
    let n_tenants = 1 + rng.next_below(4) as usize;
    let tenants = (0..n_tenants)
        .map(|i| {
            let quota = TenantQuota {
                max_queued: 2 + rng.next_below(24) as usize,
                max_running: 1 + rng.next_below(12) as usize,
            };
            let spec =
                TenantSpec::new(format!("tenant-{i}"), 1 + rng.next_below(8)).with_quota(quota);
            let mut load = TenantLoad::new(spec, 1 + rng.next_below(40), 2 + rng.next_below(12));
            load.think_s = rng.uniform(0.5, 20.0);
            load.job_tasks = 1 + rng.next_below(16);
            load.task_s = rng.uniform(0.5, 8.0);
            load.jitter_sigma = rng.uniform(0.0, 0.5);
            load.retry_backoff_s = rng.uniform(2.0, 20.0);
            if rng.chance(0.25) {
                load.priority = Priority::Interactive;
            }
            if rng.chance(0.3) {
                load.deadline_hint_s = Some(rng.uniform(30.0, 300.0));
            }
            load
        })
        .collect();
    let fleet = if rng.chance(0.5) {
        ServeFleet::Fixed {
            instances: 1 + rng.next_below(12),
        }
    } else {
        let mut auto = AutoscaleConfig::target_tracking(
            1 + rng.next_below(3),
            4 + rng.next_below(12),
            rng.uniform(1.0, 4.0),
        );
        auto.interval_s = 5.0;
        auto.warmup_s = rng.uniform(0.0, 20.0);
        auto.scale_up_cooldown_s = 10.0;
        auto.scale_down_cooldown_s = 20.0;
        auto.billing_hour_s = 900.0;
        ServeFleet::Elastic(auto)
    };
    let mut cfg = ServeSimConfig::new(EC2_HCXL, fleet, tenants);
    cfg.seed = rng.next_u64();
    cfg.billing_hour_s = 900.0;
    cfg
}

fn check_lifecycles(cfg: &ServeSimConfig, run: &ServeRun, label: &str) {
    assert_eq!(run.records.len() as u64, cfg.submissions(), "{label}");
    assert_eq!(run.report.submitted, cfg.submissions(), "{label}");
    assert_eq!(
        run.report.submitted,
        run.report.rejected + run.report.completed + run.report.failed,
        "{label}: submissions leaked out of the terminal-state partition"
    );
    for rec in &run.records {
        assert!(
            rec.status.is_terminal(),
            "{label}: job {} left non-terminal ({:?})",
            rec.id.0,
            rec.status
        );
        if rec.status == JobStatus::Rejected {
            // Shed at the front door: never admitted, never ran.
            assert!(
                rec.admitted_s.is_none() && rec.started_s.is_none(),
                "{label}"
            );
        } else {
            // Admitted: backpressure must never have dropped it — the
            // full lifecycle is stamped and monotone.
            let (a, s, f) = (
                rec.admitted_s
                    .unwrap_or_else(|| panic!("{label}: admitted_s missing")),
                rec.started_s
                    .unwrap_or_else(|| panic!("{label}: started_s missing")),
                rec.finished_s
                    .unwrap_or_else(|| panic!("{label}: finished_s missing")),
            );
            assert!(
                rec.submitted_s <= a && a <= s && s <= f,
                "{label}: job {} lifecycle not monotone",
                rec.id.0
            );
        }
    }
}

/// Admission properties over a sweep of randomized configurations: no
/// tenant past its quota, no admitted job dropped, every submission
/// accounted for exactly once.
#[test]
fn admission_quotas_hold_on_randomized_configs() {
    let mut rng = Pcg32::new(chaos_seed() ^ 0x5E21);
    for case in 0..10 {
        let cfg = random_cfg(&mut rng);
        let run = simulate_serve(&RunContext::local(), &cfg);
        let label = format!("case {case}");
        check_lifecycles(&cfg, &run, &label);
        for (load, t) in cfg.tenants.iter().zip(&run.report.tenants) {
            let quota = &load.spec.quota;
            assert!(
                t.peak_queued <= quota.max_queued,
                "{label} {}: peak_queued {} > quota {}",
                t.tenant,
                t.peak_queued,
                quota.max_queued
            );
            assert!(
                t.peak_running <= quota.max_running,
                "{label} {}: peak_running {} > quota {}",
                t.tenant,
                t.peak_running,
                quota.max_running
            );
            assert_eq!(
                t.submitted,
                t.rejected + t.completed + t.failed,
                "{label} {}: per-tenant partition leaked",
                t.tenant
            );
        }
    }
}

/// The seed-swept determinism contract: one submission trace replays to
/// identical `JobStatus` histories (every timestamp of every record),
/// identical billing rollups, and byte-identical report JSON across
/// repeat runs.
#[test]
fn replay_histories_and_billing_are_bit_identical() {
    let mut rng = Pcg32::new(chaos_seed() ^ 0xB17);
    for _ in 0..3 {
        let cfg = random_cfg(&mut rng);
        let ctx = RunContext::local().with_seed(chaos_seed());
        let base = simulate_serve(&ctx, &cfg);
        let replay = simulate_serve(&ctx, &cfg);
        assert_eq!(base.records, replay.records);
        assert_eq!(base.report, replay.report);
        assert_eq!(
            base.report.to_json().to_string(),
            replay.report.to_json().to_string()
        );
        // Histories — not just terminal states — reconstruct identically.
        for (a, b) in base.records.iter().zip(&replay.records) {
            assert_eq!(a.history(), b.history());
        }
    }
}

/// Billing exactness as a property: whatever the configuration, the
/// per-tenant bills sum to the fleet bill micro-dollar for micro-dollar.
#[test]
fn tenant_bills_sum_exactly_to_fleet_bill() {
    let mut rng = Pcg32::new(chaos_seed() ^ 0xB111);
    for case in 0..8 {
        let cfg = random_cfg(&mut rng);
        let run = simulate_serve(&RunContext::local(), &cfg);
        let compute: Usd = run.report.tenants.iter().map(|t| t.cost.compute_cost).sum();
        let amortized: Usd = run
            .report
            .tenants
            .iter()
            .map(|t| t.cost.amortized_cost)
            .sum();
        assert_eq!(compute, run.report.fleet.cost.compute_cost, "case {case}");
        assert_eq!(
            amortized, run.report.fleet.cost.amortized_cost,
            "case {case}"
        );
    }
}

/// Overload discipline: with ~2× fleet capacity offered, the bounded
/// buffers shed submissions and p99 job latency stays under the
/// structural bound set by queue depth and weighted drain rate — the
/// defining property of admission control over an open queue.
#[test]
fn overload_p99_is_bounded_by_queue_depth() {
    const INSTANCES: u32 = 8;
    const MAX_QUEUED: usize = 16;
    // 8 tasks × 4 s over 8 cores + 1 s dispatch overhead.
    const SERVICE_S: f64 = 5.0;
    let quota = TenantQuota {
        max_queued: MAX_QUEUED,
        max_running: INSTANCES as usize,
    };
    let weights = [2u32, 1];
    let tenants = weights
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            let spec = TenantSpec::new(format!("tenant-{i}"), w).with_quota(quota);
            let mut load = TenantLoad::new(spec, 48, 20);
            load.think_s = SERVICE_S; // offered ≈ 2× fleet capacity
            load
        })
        .collect();
    let mut cfg = ServeSimConfig::new(
        EC2_HCXL,
        ServeFleet::Fixed {
            instances: INSTANCES,
        },
        tenants,
    );
    cfg.seed = chaos_seed();
    let run = simulate_serve(&RunContext::local(), &cfg);
    check_lifecycles(&cfg, &run, "overload");
    assert!(
        run.report.rejected > 0,
        "2x overload must shed through the bounded buffers"
    );
    // Worst tenant drains a full buffer at its weighted share of fleet
    // throughput; allow a generous service-time tail on top.
    let capacity = INSTANCES as f64 / SERVICE_S;
    let total_w: u32 = weights.iter().sum();
    let bound = MAX_QUEUED as f64 * total_w as f64 / capacity + 10.0 * SERVICE_S;
    assert!(
        run.report.latency_p99_s <= bound,
        "overload p99 {:.1}s exceeds queue-depth bound {bound:.1}s",
        run.report.latency_p99_s
    );
    assert!(run.report.fairness_jain > 0.5, "fair share collapsed");
}
