//! Run reports and cost accounting for Classic Cloud jobs.

use ppc_compute::billing::CostBreakdown;
use ppc_compute::instance::InstanceType;
use ppc_core::json::Json;
use ppc_core::money::Usd;
use ppc_core::pricing::PriceBook;
use ppc_core::trace::FleetTimeline;
use ppc_exec::RunReport;
use ppc_storage::metering::MeteringSnapshot;

/// Everything a Classic Cloud run reports back, shared by the native and
/// simulated runtimes: the cross-paradigm [`RunReport`] core (summary,
/// failed tasks, attempt/death counters, cost, trace — reachable directly
/// through `Deref`) plus the Classic-specific extras.
#[derive(Debug, Clone)]
pub struct ClassicReport {
    /// The shared report core; `report.summary`, `report.failed`,
    /// `report.total_attempts`, `report.worker_deaths`, `report.cost`,
    /// and `report.trace` all live here.
    pub core: RunReport,
    /// Billable queue API requests across scheduling + monitoring queues.
    pub queue_requests: u64,
    /// Successful task completions credited to each instance group of a
    /// native run (one entry per cluster of a hybrid run; a single entry
    /// otherwise). Empty for simulated runs: the sim runs hybrid fleets
    /// too, but does not credit each one.
    pub executions_per_fleet: Vec<usize>,
    /// Storage service usage.
    pub storage: MeteringSnapshot,
    /// Per-worker execution timeline, derived from the core's trace
    /// (runs with tracing enabled).
    pub timeline: Option<ppc_core::trace::Timeline>,
    /// Fleet-size timeline and per-instance billing for *elastic* runs;
    /// `None` for fixed-fleet runs.
    pub fleet: Option<FleetReport>,
}

impl std::ops::Deref for ClassicReport {
    type Target = RunReport;
    fn deref(&self) -> &RunReport {
        &self.core
    }
}

impl std::ops::DerefMut for ClassicReport {
    fn deref_mut(&mut self) -> &mut RunReport {
        &mut self.core
    }
}

/// What an autoscaled run adds to the report: the fleet-size step function
/// and the staggered per-instance bill.
#[derive(Debug, Clone)]
pub struct FleetReport {
    pub itype: InstanceType,
    /// Fleet size over time (billed instances).
    pub timeline: FleetTimeline,
    /// End of the billing horizon (job completion), seconds.
    pub horizon_s: f64,
    /// Per-instance started billing hours summed across the fleet.
    pub billed_hours: u64,
    /// Billed-but-unused instance-hours (money left on the table).
    pub wasted_hours: f64,
    /// Fleet cost over `[0, horizon_s]` under whole-hour and amortized
    /// billing.
    pub cost: CostBreakdown,
}

impl FleetReport {
    /// Largest fleet ever held.
    pub fn peak_fleet(&self) -> u32 {
        self.timeline.peak()
    }

    /// Time-weighted mean fleet size over the horizon.
    pub fn mean_fleet(&self) -> f64 {
        self.timeline.mean_size(self.horizon_s)
    }
}

impl ClassicReport {
    /// Re-executed task count: wasted (but harmless) work.
    pub fn redundant_executions(&self) -> usize {
        self.core.redundant_attempts()
    }

    /// JSON rendering: the core's canonical object
    /// ([`RunReport::to_json`]) extended with the Classic extras.
    pub fn to_json(&self) -> Json {
        let Json::Obj(mut fields) = self.core.to_json() else {
            unreachable!("RunReport::to_json returns an object");
        };
        fields.push(("queue_requests".into(), Json::from(self.queue_requests)));
        fields.push(("storage_requests".into(), Json::from(self.storage.requests)));
        let peak = self.fleet.as_ref().map(|f| f.peak_fleet() as u64);
        fields.push(("peak_fleet".into(), peak.map_or(Json::Null, Json::from)));
        Json::Obj(fields)
    }

    /// Full cost of the run: the run's own fleet bill (the report's
    /// `cost`: every cluster for the makespan, or an autoscaled fleet per
    /// instance) + queue requests + storage, in the paper's Table 4 shape.
    /// A report without a cost bills no instances.
    pub fn bill(&self, book: &PriceBook, storage_months: f64) -> Bill {
        let instances = self.cost.unwrap_or(CostBreakdown {
            compute_cost: Usd::ZERO,
            amortized_cost: Usd::ZERO,
        });
        let queue = book.queue_requests(self.queue_requests);
        let storage = self.storage.storage_cost(book, storage_months);
        Bill {
            instances,
            queue,
            storage,
        }
    }
}

/// Itemized job cost (Table 4's rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bill {
    pub instances: CostBreakdown,
    pub queue: Usd,
    pub storage: Usd,
}

impl Bill {
    /// Total with whole-hour instance billing (the provider's invoice).
    pub fn total(&self) -> Usd {
        self.instances.compute_cost + self.queue + self.storage
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppc_compute::cluster::Cluster;
    use ppc_compute::instance::EC2_HCXL;
    use ppc_core::metrics::RunSummary;
    use ppc_core::pricing::AWS_2010;

    fn report() -> ClassicReport {
        ClassicReport {
            core: RunReport {
                summary: RunSummary {
                    platform: "classic-ec2".into(),
                    cores: 128,
                    tasks: 4096,
                    makespan_seconds: 3000.0,
                    redundant_executions: 4,
                    remote_bytes: 2 << 30,
                },
                failed: vec![],
                total_attempts: 4100,
                worker_deaths: 2,
                // 16 HCXL within the hour.
                cost: Some(Cluster::provision_per_core(EC2_HCXL, 16).cost(3000.0)),
                trace: None,
            },
            queue_requests: 10_000,
            executions_per_fleet: vec![4100],
            timeline: None,
            fleet: None,
            storage: MeteringSnapshot {
                requests: 0,
                bytes_in: 1 << 30,
                bytes_out: 0,
                stored_bytes: 1 << 30,
                peak_stored_bytes: 1 << 30,
            },
        }
    }

    #[test]
    fn redundant_counts() {
        let r = report();
        assert_eq!(r.redundant_executions(), 4);
        assert!(r.is_complete());
    }

    #[test]
    fn core_reachable_through_deref() {
        let r = report();
        assert_eq!(r.summary.cores, 128);
        assert_eq!(r.total_attempts, 4100);
        assert_eq!(r.worker_deaths, 2);
    }

    #[test]
    fn json_extends_the_core_object() {
        let r = report();
        let j = Json::parse(&r.to_json().to_string()).unwrap();
        assert_eq!(
            j.field("summary")
                .unwrap()
                .field("platform")
                .unwrap()
                .as_str()
                .unwrap(),
            "classic-ec2"
        );
        assert_eq!(j.field("queue_requests").unwrap().as_u64().unwrap(), 10_000);
        assert!(matches!(j.field("peak_fleet").unwrap(), Json::Null));
    }

    #[test]
    fn table4_shaped_bill() {
        // 16 HCXL within the hour: $10.88 compute + $0.01 queue + $0.24
        // storage/transfer = $11.13 — the paper's AWS column.
        let r = report();
        let bill = r.bill(&AWS_2010, 1.0);
        assert_eq!(bill.instances.compute_cost, Usd::cents(1088));
        assert_eq!(bill.queue, Usd::cents(1));
        assert_eq!(bill.storage, Usd::cents(24));
        assert_eq!(bill.total(), Usd::cents(1113));
        assert!(bill.instances.amortized_cost < bill.instances.compute_cost);
    }
}
