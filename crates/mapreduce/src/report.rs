//! Run reports for MapReduce jobs.

use crate::scheduler::SchedulerStats;
use ppc_core::json::Json;
use ppc_exec::RunReport;

/// Everything a MapReduce run reports back: the cross-paradigm
/// [`RunReport`] core (summary, failed tasks, attempt/death counters,
/// cost, trace — reachable directly through `Deref`) plus the
/// Hadoop-specific extras.
#[derive(Debug, Clone)]
pub struct MapReduceReport {
    /// The shared report core; `report.summary`, `report.failed`,
    /// `report.total_attempts`, `report.worker_deaths`, `report.cost`,
    /// and `report.trace` all live here.
    pub core: RunReport,
    /// Scheduler counters: locality, retries, speculation.
    pub scheduler: SchedulerStats,
    /// Map attempts whose HDFS reads were all node-local.
    pub data_local_tasks: usize,
    /// Key/value records the committed map attempts emitted. Natively it
    /// equals `shuffle_records` (jobs are map-only); the simulator reports 0.
    pub map_output_records: usize,
    /// Natively the same count as `map_output_records`, since a map-only
    /// job shuffles nothing to a reducer; the simulator reports 0. Both
    /// fields stay because the golden digests hash the report's `Debug`.
    pub shuffle_records: usize,
}

impl std::ops::Deref for MapReduceReport {
    type Target = RunReport;
    fn deref(&self) -> &RunReport {
        &self.core
    }
}

impl std::ops::DerefMut for MapReduceReport {
    fn deref_mut(&mut self) -> &mut RunReport {
        &mut self.core
    }
}

impl MapReduceReport {
    /// Fraction of executed map attempts that read only local data — the
    /// number Hadoop operators watch to validate locality scheduling.
    pub fn locality_fraction(&self) -> f64 {
        if self.core.total_attempts == 0 {
            0.0
        } else {
            self.data_local_tasks as f64 / self.core.total_attempts as f64
        }
    }

    /// JSON rendering: the core's canonical object
    /// ([`RunReport::to_json`]) extended with the Hadoop extras.
    pub fn to_json(&self) -> Json {
        let Json::Obj(mut fields) = self.core.to_json() else {
            unreachable!("RunReport::to_json returns an object");
        };
        fields.push((
            "data_local_tasks".into(),
            Json::from(self.data_local_tasks as u64),
        ));
        fields.push((
            "locality_fraction".into(),
            Json::from(self.locality_fraction()),
        ));
        fields.push((
            "speculative_assignments".into(),
            Json::from(self.scheduler.speculative_assignments),
        ));
        Json::Obj(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppc_core::metrics::RunSummary;

    fn report() -> MapReduceReport {
        MapReduceReport {
            core: RunReport {
                summary: RunSummary {
                    platform: "hadoop".into(),
                    cores: 8,
                    tasks: 10,
                    makespan_seconds: 1.0,
                    redundant_executions: 0,
                    remote_bytes: 0,
                },
                failed: vec![],
                total_attempts: 10,
                worker_deaths: 0,
                cost: None,
                trace: None,
            },
            scheduler: SchedulerStats::default(),
            data_local_tasks: 9,
            map_output_records: 10,
            shuffle_records: 10,
        }
    }

    #[test]
    fn locality_fraction() {
        let r = report();
        assert!((r.locality_fraction() - 0.9).abs() < 1e-12);
        assert!(r.is_complete());
    }

    #[test]
    fn zero_attempts_no_panic() {
        let mut r = report();
        r.core.total_attempts = 0;
        r.data_local_tasks = 0;
        assert_eq!(r.locality_fraction(), 0.0);
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
            "hadoop"
        );
        assert_eq!(j.field("data_local_tasks").unwrap().as_u64().unwrap(), 9);
    }
}
