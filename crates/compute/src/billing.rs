//! Billing: hourly cloud charges and owned-cluster TCO.
//!
//! The paper's §3 defines two cloud cost views, both reproduced here:
//!
//! * **Compute Cost (hour units)** — the computation owns every started
//!   hour of every instance: `ceil(runtime) × n × rate`.
//! * **Amortized Cost** — the instance does useful work for the rest of the
//!   hour, so the computation pays only its fraction: `runtime × n × rate`.
//!
//! Table 4 also compares against an *owned* cluster: purchase price
//! depreciated over 3 years plus yearly maintenance, divided across the
//! hours the cluster is actually utilized. [`OwnedClusterCost`] implements
//! that model.

use crate::instance::InstanceType;
use ppc_core::money::Usd;

/// Cost of running `n` instances of a type for a given time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostBreakdown {
    /// Whole-hour billing (what the provider actually charges).
    pub compute_cost: Usd,
    /// Fraction-of-hour billing (the paper's "Amortized Cost").
    pub amortized_cost: Usd,
}

/// Cost of `n` instances held for `seconds`.
pub fn instance_cost(itype: &InstanceType, n: usize, seconds: f64) -> CostBreakdown {
    assert!(seconds >= 0.0, "negative runtime");
    let hours_exact = seconds / 3600.0;
    let hours_billed = hours_exact
        .ceil()
        .max(if seconds > 0.0 { 1.0 } else { 0.0 });
    let fleet_hourly = itype.cost_per_hour * n as i64;
    CostBreakdown {
        compute_cost: fleet_hourly.scale(hours_billed),
        amortized_cost: fleet_hourly.scale(hours_exact),
    }
}

/// Per-instance billing clocks for an *elastic* fleet, where instances
/// launch and retire at different moments and each one's billed hours tick
/// from its own launch time — the cost model autoscaling must answer to.
///
/// The `billing_hour_s` knob is 3600 in production; tests and compressed-
/// time examples shrink it so whole "hours" elapse in milliseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetLedger {
    itype: InstanceType,
    billing_hour_s: f64,
    /// `(launched_at_s, retired_at_s)`; `None` = still running.
    intervals: Vec<(f64, Option<f64>)>,
}

impl FleetLedger {
    pub fn new(itype: InstanceType, billing_hour_s: f64) -> FleetLedger {
        assert!(billing_hour_s > 0.0, "billing hour must be positive");
        FleetLedger {
            itype,
            billing_hour_s,
            intervals: Vec::new(),
        }
    }

    /// Record an instance launch; returns its ledger index.
    pub fn launch(&mut self, at_s: f64) -> usize {
        self.intervals.push((at_s, None));
        self.intervals.len() - 1
    }

    /// Record an instance retirement.
    pub fn retire(&mut self, idx: usize, at_s: f64) {
        let (start, end) = &mut self.intervals[idx];
        assert!(end.is_none(), "instance {idx} already retired");
        assert!(at_s >= *start, "retire before launch");
        *end = Some(at_s);
    }

    /// Number of instances ever launched.
    pub fn launched(&self) -> usize {
        self.intervals.len()
    }

    /// Exact instance-seconds used up to `end_s` (instances still running
    /// are charged through `end_s`).
    pub fn used_seconds(&self, end_s: f64) -> f64 {
        self.intervals
            .iter()
            .map(|(start, end)| (end.unwrap_or(end_s).min(end_s) - start).max(0.0))
            .sum()
    }

    /// Billed instance-hours up to `end_s`: each instance pays every
    /// *started* billing hour of its own clock.
    pub fn billed_hours(&self, end_s: f64) -> u64 {
        self.intervals
            .iter()
            .map(|(start, end)| {
                let used = (end.unwrap_or(end_s).min(end_s) - start).max(0.0);
                (used / self.billing_hour_s).ceil() as u64
            })
            .sum()
    }

    /// Billed-but-unused instance-hours: the money autoscaling wastes when
    /// it retires instances far from their hour boundary.
    pub fn wasted_hours(&self, end_s: f64) -> f64 {
        self.billed_hours(end_s) as f64 - self.used_seconds(end_s) / self.billing_hour_s
    }

    /// Fleet cost up to `end_s`. `compute_cost` bills whole per-instance
    /// hours; `amortized_cost` bills exact usage (the paper's two views,
    /// generalized to staggered lifetimes).
    pub fn cost(&self, end_s: f64) -> CostBreakdown {
        CostBreakdown {
            compute_cost: self
                .itype
                .cost_per_hour
                .scale(self.billed_hours(end_s) as f64),
            amortized_cost: self
                .itype
                .cost_per_hour
                .scale(self.used_seconds(end_s) / self.billing_hour_s),
        }
    }
}

/// Table 4's owned-cluster model: purchase cost depreciated linearly plus
/// yearly maintenance (power, cooling, administration), charged against the
/// fraction of cluster time the owner manages to keep busy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OwnedClusterCost {
    pub purchase: Usd,
    pub depreciation_years: u32,
    pub yearly_maintenance: Usd,
}

impl OwnedClusterCost {
    /// The paper's internal cluster: ~$500,000 purchase over 3 years plus
    /// ~$150,000/year maintenance (§4.3).
    pub fn paper_internal_cluster() -> OwnedClusterCost {
        OwnedClusterCost {
            purchase: Usd::dollars(500_000),
            depreciation_years: 3,
            yearly_maintenance: Usd::dollars(150_000),
        }
    }

    /// Yearly cost of owning the cluster.
    pub fn yearly_cost(&self) -> Usd {
        self.purchase.scale(1.0 / self.depreciation_years as f64) + self.yearly_maintenance
    }

    /// Cost per wall-clock hour of cluster existence.
    pub fn hourly_rate(&self) -> Usd {
        self.yearly_cost().scale(1.0 / (365.0 * 24.0))
    }

    /// Cost attributable to a job occupying the whole cluster for
    /// `job_hours`, when the cluster achieves `utilization` (0–1] overall:
    /// idle time is overhead spread over the useful hours.
    pub fn job_cost(&self, job_hours: f64, utilization: f64) -> Usd {
        assert!(
            utilization > 0.0 && utilization <= 1.0,
            "utilization in (0,1]"
        );
        self.hourly_rate().scale(job_hours / utilization)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{AZURE_SMALL, EC2_HCXL};

    #[test]
    fn compute_cost_bills_whole_hours() {
        // 16 HCXL for 35 minutes: billed a full hour each -> $10.88.
        let c = instance_cost(&EC2_HCXL, 16, 35.0 * 60.0);
        assert_eq!(c.compute_cost, Usd::cents(1088));
        // Amortized: 35/60 of that.
        assert_eq!(c.amortized_cost, Usd::cents(1088).scale(35.0 / 60.0));
    }

    #[test]
    fn paper_table4_compute_costs() {
        // Table 4: EC2 0.68$ × 16 HCXL = 10.88$, Azure 0.12$ × 128 Small = 15.36$
        // (both jobs fit within one billed hour).
        let ec2 = instance_cost(&EC2_HCXL, 16, 3000.0);
        assert_eq!(ec2.compute_cost, Usd::cents(1088));
        let azure = instance_cost(&AZURE_SMALL, 128, 3000.0);
        assert_eq!(azure.compute_cost, Usd::cents(1536));
    }

    #[test]
    fn second_hour_starts_a_new_block() {
        let one = instance_cost(&EC2_HCXL, 1, 3600.0);
        assert_eq!(one.compute_cost, Usd::cents(68));
        let over = instance_cost(&EC2_HCXL, 1, 3601.0);
        assert_eq!(over.compute_cost, Usd::cents(136));
    }

    #[test]
    fn zero_runtime_costs_nothing() {
        let c = instance_cost(&EC2_HCXL, 16, 0.0);
        assert_eq!(c.compute_cost, Usd::ZERO);
        assert_eq!(c.amortized_cost, Usd::ZERO);
    }

    #[test]
    fn fleet_ledger_staggered_lifetimes() {
        // Two instances: one runs 0..90 min (2 billed hours), one runs
        // 30..60 min (1 billed hour).
        let mut ledger = FleetLedger::new(EC2_HCXL, 3600.0);
        let a = ledger.launch(0.0);
        let b = ledger.launch(1800.0);
        ledger.retire(b, 3600.0);
        ledger.retire(a, 5400.0);
        assert_eq!(ledger.launched(), 2);
        assert_eq!(ledger.billed_hours(7200.0), 3);
        assert_eq!(ledger.used_seconds(7200.0), 5400.0 + 1800.0);
        let c = ledger.cost(7200.0);
        assert_eq!(c.compute_cost, Usd::cents(68) * 3);
        assert_eq!(c.amortized_cost, Usd::cents(68).scale(2.0));
        assert!((ledger.wasted_hours(7200.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fleet_ledger_open_instances_charged_to_horizon() {
        let mut ledger = FleetLedger::new(EC2_HCXL, 3600.0);
        ledger.launch(0.0);
        assert_eq!(ledger.billed_hours(10.0), 1);
        assert_eq!(ledger.billed_hours(3601.0), 2);
    }

    #[test]
    fn fleet_ledger_compressed_hours() {
        // A 60 s "hour" for test-compressed time.
        let mut ledger = FleetLedger::new(EC2_HCXL, 60.0);
        let a = ledger.launch(0.0);
        ledger.retire(a, 61.0);
        assert_eq!(ledger.billed_hours(100.0), 2);
    }

    #[test]
    #[should_panic(expected = "already retired")]
    fn fleet_ledger_double_retire_panics() {
        let mut ledger = FleetLedger::new(EC2_HCXL, 3600.0);
        let a = ledger.launch(0.0);
        ledger.retire(a, 10.0);
        ledger.retire(a, 20.0);
    }

    #[test]
    fn owned_cluster_hourly_rate() {
        let c = OwnedClusterCost::paper_internal_cluster();
        // (500k/3 + 150k) / 8760 ≈ $36.15/h.
        let rate = c.hourly_rate().as_f64();
        assert!((rate - 36.15).abs() < 0.05, "rate={rate}");
    }

    #[test]
    fn utilization_raises_cost() {
        // Paper: $8.25 @80%, $9.43 @70%, $11.01 @60% for the same job.
        // The ratios follow 1/utilization exactly.
        let c = OwnedClusterCost::paper_internal_cluster();
        let h = 0.1826; // job hours tuned so 80% lands near the paper value
        let at80 = c.job_cost(h, 0.8).as_f64();
        let at70 = c.job_cost(h, 0.7).as_f64();
        let at60 = c.job_cost(h, 0.6).as_f64();
        assert!((at80 - 8.25).abs() < 0.05, "at80={at80}");
        // Ratios follow 1/utilization up to micro-dollar rounding.
        assert!((at70 / at80 - 0.8 / 0.7).abs() < 1e-5);
        assert!((at60 / at80 - 0.8 / 0.6).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "utilization in (0,1]")]
    fn zero_utilization_rejected() {
        OwnedClusterCost::paper_internal_cluster().job_cost(1.0, 0.0);
    }
}
