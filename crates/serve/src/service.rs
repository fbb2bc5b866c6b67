//! The native job service: a long-lived front door over real [`Engine`]s.
//!
//! `submit` applies admission control and parks the job in its tenant's
//! bounded queue; `drain` runs everything to completion in fair-share
//! order, one job at a time, charging each job's engine-reported cost to
//! its tenant. The service clock is *virtual*: it advances by each job's
//! makespan, so latency rollups are deterministic and mean the same thing
//! as the load generator's (a single-server queueing view of the shared
//! fleet).

use crate::admission::AdmissionPolicy;
use crate::job::{JobId, JobPayload, JobRecord, JobSpec, JobStatus, Priority, NO_CLIENT};
use crate::report::{FleetSummary, ServeReport};
use crate::scheduler::{DrrScheduler, QueuedJob};
use crate::tenant::{TenantRollup, TenantSpec};
use ppc_compute::billing::CostBreakdown;
use ppc_core::money::Usd;
use ppc_core::{PpcError, Result};
use ppc_exec::{Engine, RunContext};
use ppc_trace::{EventKind, TraceEvent, NO_WORKER};

/// Service-level tuning.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    pub tenants: Vec<TenantSpec>,
    pub admission: AdmissionPolicy,
    /// Fair-share quantum in cpu-seconds.
    pub quantum_s: f64,
}

impl ServiceConfig {
    pub fn new(tenants: Vec<TenantSpec>) -> ServiceConfig {
        ServiceConfig {
            tenants,
            admission: AdmissionPolicy::default(),
            quantum_s: 60.0,
        }
    }
}

struct Pending {
    engine: usize,
    payload: JobPayload,
    deadline_hint_s: Option<f64>,
}

/// The multi-tenant job service. Holds the engine set it dispatches to;
/// queryable by [`JobId`] after the fact.
pub struct JobService {
    cfg: ServiceConfig,
    engines: Vec<Box<dyn Engine>>,
    sched: DrrScheduler,
    records: Vec<JobRecord>,
    pending: Vec<Option<Pending>>,
    rollups: Vec<TenantRollup>,
    queued: Vec<usize>,
    running: Vec<usize>,
    clock_s: f64,
    events: Vec<TraceEvent>,
}

impl JobService {
    pub fn new(cfg: ServiceConfig, engines: Vec<Box<dyn Engine>>) -> Result<JobService> {
        if cfg.tenants.is_empty() {
            return Err(PpcError::InvalidArgument(
                "job service needs at least one tenant".into(),
            ));
        }
        if engines.is_empty() {
            return Err(PpcError::InvalidArgument(
                "job service needs at least one engine".into(),
            ));
        }
        let mut names: Vec<&str> = cfg.tenants.iter().map(|t| t.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        if names.len() != cfg.tenants.len() {
            return Err(PpcError::InvalidArgument("duplicate tenant name".into()));
        }
        if cfg.tenants.iter().any(|t| t.weight == 0) {
            return Err(PpcError::InvalidArgument(
                "tenant weights must be positive".into(),
            ));
        }
        let weights: Vec<u32> = cfg.tenants.iter().map(|t| t.weight).collect();
        let n = cfg.tenants.len();
        Ok(JobService {
            sched: DrrScheduler::new(cfg.quantum_s, &weights),
            cfg,
            engines,
            records: Vec::new(),
            pending: Vec::new(),
            rollups: vec![TenantRollup::default(); n],
            queued: vec![0; n],
            running: vec![0; n],
            clock_s: 0.0,
            events: Vec::new(),
        })
    }

    fn tenant_index(&self, name: &str) -> Result<usize> {
        self.cfg
            .tenants
            .iter()
            .position(|t| t.name == name)
            .ok_or_else(|| PpcError::InvalidArgument(format!("unknown tenant '{name}'")))
    }

    fn engine_index(&self, name: &str) -> Result<usize> {
        self.engines
            .iter()
            .position(|e| e.name() == name)
            .ok_or_else(|| PpcError::InvalidArgument(format!("unknown engine '{name}'")))
    }

    /// Submit a job. Unknown tenants/engines are errors (a malformed
    /// request); a full buffer is a *rejection* (a well-formed request the
    /// service sheds), returned as `Ok((id, Rejected))` so callers can
    /// tell the two apart.
    pub fn submit(&mut self, spec: JobSpec) -> Result<(JobId, JobStatus)> {
        let tenant = self.tenant_index(&spec.tenant)?;
        let engine = self.engine_index(&spec.engine)?;
        let id = JobId(self.records.len() as u64);
        let demand_s = spec.payload.demand_s();
        let now = self.clock_s;
        self.rollups[tenant].submitted += 1;

        let total_queued: usize = self.queued.iter().sum();
        let quota = &self.cfg.tenants[tenant].quota;
        match self
            .cfg
            .admission
            .decide(self.queued[tenant], quota, total_queued)
        {
            Err(_) => {
                self.records.push(JobRecord::rejected(
                    id,
                    tenant as u32,
                    NO_CLIENT,
                    demand_s,
                    now,
                ));
                self.pending.push(None);
                self.rollups[tenant].rejected += 1;
                self.events.push(TraceEvent {
                    at_s: now,
                    worker: NO_WORKER,
                    kind: EventKind::JobReject,
                });
                Ok((id, JobStatus::Rejected))
            }
            Ok(()) => {
                self.records.push(JobRecord::queued(
                    id,
                    tenant as u32,
                    NO_CLIENT,
                    demand_s,
                    now,
                ));
                self.pending.push(Some(Pending {
                    engine,
                    payload: spec.payload,
                    deadline_hint_s: spec.deadline_hint_s,
                }));
                self.sched.enqueue(
                    tenant,
                    QueuedJob {
                        job: id.0,
                        demand_s,
                        submitted_s: now,
                    },
                    spec.priority == Priority::Interactive,
                );
                self.queued[tenant] += 1;
                if self.queued[tenant] > self.rollups[tenant].peak_queued {
                    self.rollups[tenant].peak_queued = self.queued[tenant];
                }
                self.events.push(TraceEvent {
                    at_s: now,
                    worker: NO_WORKER,
                    kind: EventKind::JobSubmit,
                });
                Ok((id, JobStatus::Queued))
            }
        }
    }

    /// Current status of a job, queryable forever.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        self.records.get(id.0 as usize).map(|r| r.status)
    }

    /// The full lifecycle record of a job.
    pub fn record(&self, id: JobId) -> Option<&JobRecord> {
        self.records.get(id.0 as usize)
    }

    /// Run every queued job to completion in fair-share order and return
    /// the service report. Per-tenant bills are the exact sums of each
    /// job's engine-reported cost, so they add up to the fleet total by
    /// construction.
    pub fn drain(&mut self, ctx: &RunContext) -> Result<ServeReport> {
        let n = self.cfg.tenants.len();
        let mut tenant_costs = vec![
            CostBreakdown {
                compute_cost: Usd::ZERO,
                amortized_cost: Usd::ZERO,
            };
            n
        ];
        loop {
            let next = {
                let running = &self.running;
                let tenants = &self.cfg.tenants;
                self.sched
                    .dequeue(|t| running[t] < tenants[t].quota.max_running)
            };
            let Some((tenant, qj)) = next else { break };
            let id = qj.job as usize;
            self.queued[tenant] -= 1;
            self.running[tenant] += 1;
            if self.running[tenant] > self.rollups[tenant].peak_running {
                self.rollups[tenant].peak_running = self.running[tenant];
            }
            let now = self.clock_s;
            self.records[id].advance(JobStatus::Admitted, now);
            self.events.push(TraceEvent {
                at_s: now,
                worker: NO_WORKER,
                kind: EventKind::JobAdmit,
            });
            self.records[id].advance(JobStatus::Running, now);
            self.events.push(TraceEvent {
                at_s: now,
                worker: 0,
                kind: EventKind::JobDispatch,
            });

            let pending = self.pending[id]
                .take()
                .expect("queued job lost its payload");
            let engine = &self.engines[pending.engine];
            let (makespan, cost, complete) = run_payload(engine.as_ref(), ctx, pending.payload)?;
            self.clock_s += makespan;
            let done = self.clock_s;

            self.running[tenant] -= 1;
            let status = if complete {
                JobStatus::Done
            } else {
                JobStatus::Failed
            };
            self.records[id].advance(status, done);
            self.events.push(TraceEvent {
                at_s: done,
                worker: 0,
                kind: EventKind::JobComplete,
            });
            let rec = self.records[id];
            let roll = &mut self.rollups[tenant];
            if complete {
                roll.completed += 1;
            } else {
                roll.failed += 1;
            }
            roll.busy_seconds += makespan;
            if let Some(lat) = rec.latency_s() {
                roll.latency.observe(lat);
                if pending.deadline_hint_s.is_some_and(|d| lat > d) {
                    roll.deadline_missed += 1;
                }
            }
            if let Some(wait) = rec.wait_s() {
                roll.wait.observe(wait);
            }
            if let Some(c) = cost {
                tenant_costs[tenant].compute_cost += c.compute_cost;
                tenant_costs[tenant].amortized_cost += c.amortized_cost;
            }
        }

        let fleet_cost = CostBreakdown {
            compute_cost: tenant_costs.iter().map(|c| c.compute_cost).sum(),
            amortized_cost: tenant_costs.iter().map(|c| c.amortized_cost).sum(),
        };
        let busy: f64 = self.rollups.iter().map(|r| r.busy_seconds).sum();
        let fleet = FleetSummary {
            instances_launched: 0,
            billed_hours: 0,
            used_seconds: busy,
            utilization: if busy > 0.0 { 1.0 } else { 0.0 },
            cost: fleet_cost,
        };
        Ok(ServeReport::build(
            "serve",
            &self.cfg.tenants,
            &self.rollups,
            tenant_costs,
            fleet,
            self.clock_s,
        ))
    }
}

/// Run one payload on `engine`, returning (makespan, cost, completed).
fn run_payload(
    engine: &dyn Engine,
    ctx: &RunContext,
    payload: JobPayload,
) -> Result<(f64, Option<CostBreakdown>, bool)> {
    match payload {
        JobPayload::Modeled { tasks, task_s } => {
            let specs: Vec<_> = (0..tasks as u64)
                .map(|i| {
                    ppc_core::task::TaskSpec::new(
                        i,
                        "modeled",
                        format!("job/task-{i}"),
                        ppc_core::task::ResourceProfile::cpu_bound(task_s),
                    )
                })
                .collect();
            let report = engine.simulate(ctx, &specs);
            Ok((
                report.summary.makespan_seconds,
                report.cost,
                report.is_complete(),
            ))
        }
        JobPayload::Workload(wl) => {
            let (report, _outputs) = engine.run(ctx, &wl)?;
            Ok((
                report.summary.makespan_seconds,
                report.cost,
                report.is_complete(),
            ))
        }
        JobPayload::Workflow(wf) => {
            let report = engine.simulate_workflow(ctx, &wf)?;
            let complete = report.is_complete();
            Ok((report.makespan_seconds, report.cost, complete))
        }
    }
}
