//! The two Classic Cloud entry points: [`run`] (native) and [`simulate`]
//! (discrete-event), both driven by a [`ppc_exec::RunContext`].
//!
//! The context's fleet plan selects the execution shape — one cluster,
//! several hybrid fleets, or an elastic autoscaled fleet — and its seed /
//! fault schedule / trace settings override the corresponding config
//! fields, so every cross-cutting concern arrives through one value
//! instead of a dedicated entry-point variant.

use crate::report::ClassicReport;
use crate::runtime::ClassicConfig;
use crate::sim::SimConfig;
use crate::spec::JobSpec;
use ppc_core::exec::Executor;
use ppc_core::task::TaskSpec;
use ppc_core::Result;
use ppc_exec::{FleetPlan, RunContext};
use ppc_queue::service::QueueService;
use ppc_storage::service::StorageService;
use std::sync::Arc;

/// Execute `job` natively on the context's fleet plan: real worker
/// threads polling a real queue, moving real bytes through `storage`.
/// One body runs both plans:
///
/// * `FleetPlan::Fixed` — one or more fleets share the scheduling queue
///   (several fleets = the paper's hybrid cloud + local-cluster layout);
///   every task is sent before any worker starts.
/// * `FleetPlan::Elastic` — single-worker instances launched and retired
///   by a `ppc-autoscale` controller while the job runs; a client thread
///   sends each task at its arrival offset, which must be finite and
///   non-negative (an `InvalidArgument` error otherwise).
///
/// The context's seed, fault schedule, and trace sink override the
/// config's `fault.seed`, `schedule`, and `trace` fields when set.
pub fn run(
    ctx: &RunContext,
    storage: &Arc<StorageService>,
    queues: &Arc<QueueService>,
    job: &JobSpec,
    executor: Arc<dyn Executor>,
    config: &ClassicConfig,
) -> Result<ClassicReport> {
    let mut cfg = config.clone();
    cfg.fault.seed = ctx.seed_or(cfg.fault.seed);
    cfg.schedule = ctx.schedule_or(&cfg.schedule);
    cfg.trace = ctx.sink_or(&cfg.trace);
    cfg.resilience = ctx.resilience_or(&cfg.resilience);
    crate::runtime::run_impl(storage, queues, &ctx.fleet, job, executor, &cfg)
}

/// Simulate `tasks` in virtual time on the context's fleet plan — the
/// `ppc-des` twin of [`run`] for paper-scale what-if studies.
///
/// The context's seed and trace flag override the sim config's; its fault
/// schedule (sims carry none in their config) drives the event-based
/// chaos model. Panics on malformed sim dials, like every simulator here.
pub fn simulate(ctx: &RunContext, tasks: &[TaskSpec], cfg: &SimConfig) -> ClassicReport {
    let mut cfg = *cfg;
    cfg.seed = ctx.seed_or(cfg.seed);
    cfg.trace = ctx.trace_or(cfg.trace);
    cfg.resilience = ctx.resilience_or(&cfg.resilience);
    let schedule = ctx.schedule.clone();
    match &ctx.fleet {
        FleetPlan::Fixed(fleets) => crate::sim::sim_fleets_impl(fleets, tasks, &cfg, schedule),
        FleetPlan::Elastic {
            itype,
            autoscale,
            arrivals,
        } => crate::sim::sim_autoscaled_impl(*itype, tasks, arrivals, &cfg, autoscale, schedule),
    }
}
