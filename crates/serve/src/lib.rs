//! # ppc-serve — the multi-tenant job-service front door
//!
//! The paper runs each biomedical workload as a one-shot batch, but its
//! thesis is that pleasingly parallel bio apps belong on *shared* elastic
//! cloud infrastructure — many users submitting Cap3/BLAST/GTM jobs to a
//! long-lived service (the RBioCloud/CloudQTL evolution). This crate is
//! that front door, layered on `ppc-exec`:
//!
//! * [`JobSpec`]/[`JobId`]/[`JobStatus`] — the submission API and the
//!   queryable lifecycle state machine
//!   (`Queued → Admitted → Running → Done/Failed`, `Rejected` on shed).
//! * [`AdmissionPolicy`] — bounded per-tenant buffers with a service-wide
//!   cap; over-limit submissions are 429-rejected, never silently dropped
//!   after admission.
//! * [`DrrScheduler`] — weighted deficit round-robin across tenants, in
//!   units of reference cpu-seconds, so job-size games don't beat weights.
//! * [`JobService`] — the native service over real [`ppc_exec::Engine`]s.
//! * [`simulate_serve`] — the deterministic closed-loop load generator
//!   that drives millions of submissions through the DES against a fixed
//!   or `ppc-autoscale`-elastic fleet, reporting latency percentiles,
//!   rejection rate, Jain fairness, and per-tenant bills that sum
//!   *exactly* (micro-dollar) to the fleet's [`FleetLedger`] cost.
//!
//! [`FleetLedger`]: ppc_compute::billing::FleetLedger

pub mod admission;
pub mod job;
pub mod report;
pub mod scheduler;
pub mod service;
pub mod sim;
pub mod tenant;

pub use admission::{AdmissionPolicy, RejectReason};
pub use job::{JobId, JobPayload, JobRecord, JobSpec, JobStatus, Priority, NO_CLIENT};
pub use report::{
    apportion, apportion_cost, jain_index, FleetSummary, ServeReport, TenantReport, REPORT_SCHEMA,
};
pub use scheduler::{DrrScheduler, QueuedJob};
pub use service::{JobService, ServiceConfig};
pub use sim::{simulate_serve, ServeFleet, ServeRun, ServeSimConfig, TenantLoad};
pub use tenant::{TenantQuota, TenantRollup, TenantSpec};

#[cfg(test)]
mod tests {
    use super::*;
    use ppc_core::metrics::RunSummary;
    use ppc_core::task::TaskSpec;
    use ppc_core::Result;
    use ppc_exec::{Engine, JobOutputs, RunContext, RunReport, Workload};

    /// A stub engine: each task "runs" for its reference cpu-seconds on
    /// one core, serially — enough to exercise the service machinery
    /// without pulling a real paradigm crate into the dependency graph.
    struct StubEngine;

    impl Engine for StubEngine {
        fn name(&self) -> &str {
            "stub"
        }

        fn run(&self, _ctx: &RunContext, _workload: &Workload) -> Result<(RunReport, JobOutputs)> {
            unimplemented!("the service tests only submit modeled jobs")
        }

        fn simulate(&self, _ctx: &RunContext, tasks: &[TaskSpec]) -> RunReport {
            let makespan: f64 = tasks.iter().map(|t| t.profile.cpu_seconds_ref).sum();
            RunReport {
                summary: RunSummary {
                    platform: "stub".into(),
                    cores: 1,
                    tasks: tasks.len(),
                    makespan_seconds: makespan,
                    redundant_executions: 0,
                    remote_bytes: 0,
                },
                failed: Vec::new(),
                total_attempts: tasks.len(),
                worker_deaths: 0,
                cost: Some(ppc_compute::billing::instance_cost(
                    &ppc_compute::instance::EC2_HCXL,
                    1,
                    makespan,
                )),
                trace: None,
            }
        }
    }

    fn service(max_queued: usize) -> JobService {
        let quota = TenantQuota {
            max_queued,
            max_running: 4,
        };
        let cfg = ServiceConfig::new(vec![
            TenantSpec::new("blast", 2).with_quota(quota),
            TenantSpec::new("cap3", 1).with_quota(quota),
        ]);
        JobService::new(cfg, vec![Box::new(StubEngine)]).unwrap()
    }

    #[test]
    fn submit_query_drain_roundtrip() {
        let mut svc = service(16);
        let (a, st) = svc
            .submit(JobSpec::modeled("blast", "stub", 4, 10.0))
            .unwrap();
        assert_eq!(st, JobStatus::Queued);
        let (b, _) = svc
            .submit(JobSpec::modeled("cap3", "stub", 2, 5.0))
            .unwrap();
        assert_eq!(svc.status(a), Some(JobStatus::Queued));

        let report = svc.drain(&RunContext::local()).unwrap();
        assert_eq!(svc.status(a), Some(JobStatus::Done));
        assert_eq!(svc.status(b), Some(JobStatus::Done));
        assert_eq!(report.completed, 2);
        assert_eq!(report.rejected, 0);
        // Status stays queryable after the fact, with a full history.
        let hist = svc.record(a).unwrap().history();
        assert_eq!(hist.len(), 4);
        assert_eq!(hist.last().unwrap().0, JobStatus::Done);
        // Per-tenant bills sum exactly to the fleet bill.
        let sum: ppc_core::money::Usd = report.tenants.iter().map(|t| t.cost.compute_cost).sum();
        assert_eq!(sum, report.fleet.cost.compute_cost);
    }

    #[test]
    fn full_buffer_rejects_with_429_semantics() {
        let mut svc = service(2);
        for _ in 0..2 {
            let (_, st) = svc
                .submit(JobSpec::modeled("blast", "stub", 1, 1.0))
                .unwrap();
            assert_eq!(st, JobStatus::Queued);
        }
        let (id, st) = svc
            .submit(JobSpec::modeled("blast", "stub", 1, 1.0))
            .unwrap();
        assert_eq!(st, JobStatus::Rejected);
        assert_eq!(svc.status(id), Some(JobStatus::Rejected));
        // The other tenant's buffer is unaffected.
        let (_, st) = svc
            .submit(JobSpec::modeled("cap3", "stub", 1, 1.0))
            .unwrap();
        assert_eq!(st, JobStatus::Queued);
        // Rejected jobs stay rejected through a drain; queued ones run.
        let report = svc.drain(&RunContext::local()).unwrap();
        assert_eq!(report.rejected, 1);
        assert_eq!(report.completed, 3);
        assert_eq!(svc.status(id), Some(JobStatus::Rejected));
    }

    #[test]
    fn unknown_names_are_errors_not_rejections() {
        let mut svc = service(4);
        assert!(svc
            .submit(JobSpec::modeled("nobody", "stub", 1, 1.0))
            .is_err());
        assert!(svc
            .submit(JobSpec::modeled("blast", "hadoop2", 1, 1.0))
            .is_err());
    }

    #[test]
    fn drain_respects_fair_share_order() {
        let mut svc = service(64);
        for _ in 0..6 {
            svc.submit(JobSpec::modeled("blast", "stub", 1, 30.0))
                .unwrap();
            svc.submit(JobSpec::modeled("cap3", "stub", 1, 30.0))
                .unwrap();
        }
        let report = svc.drain(&RunContext::local()).unwrap();
        assert_eq!(report.completed, 12);
        // Weight-2 blast got served earlier on average; its mean wait on
        // the virtual clock must be at most cap3's.
        let blast = &report.tenants[0];
        let cap3 = &report.tenants[1];
        assert!(blast.mean_wait_s <= cap3.mean_wait_s + 1e-9);
    }

    #[test]
    fn interactive_priority_jumps_own_queue() {
        let mut svc = service(64);
        let (batch, _) = svc
            .submit(JobSpec::modeled("blast", "stub", 1, 10.0))
            .unwrap();
        let mut interactive = JobSpec::modeled("blast", "stub", 1, 10.0);
        interactive.priority = Priority::Interactive;
        let (inter, _) = svc.submit(interactive).unwrap();
        svc.drain(&RunContext::local()).unwrap();
        let b = svc.record(batch).unwrap();
        let i = svc.record(inter).unwrap();
        assert!(i.started_s.unwrap() < b.started_s.unwrap());
    }
}
