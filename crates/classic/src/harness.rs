//! The two Classic Cloud entry points: [`run`] (native) and [`simulate`]
//! (discrete-event), both driven by a [`ppc_exec::RunContext`].
//!
//! The context's fleet plan selects the execution shape — one cluster,
//! several hybrid fleets, or an elastic autoscaled fleet — and it alone
//! carries the run's seed, fault schedule, tracing and resilience policy,
//! so every cross-cutting concern arrives through one value instead of a
//! dedicated entry-point variant or a config field.

use crate::report::ClassicReport;
use crate::sim::SimConfig;
use ppc_core::task::TaskSpec;
use ppc_exec::{FleetPlan, RunContext};

pub use crate::runtime::run;

/// Simulate `tasks` in virtual time on the context's fleet plan — the
/// `ppc-des` twin of [`run`] for paper-scale what-if studies.
///
/// The context's fault schedule drives the event-based chaos model;
/// without a context seed the run uses seed 42. Panics on malformed sim
/// dials or context, like every simulator here — including a hedge or
/// deadline policy alongside a NIC bandwidth, which the NIC-contention
/// path does not model.
pub fn simulate(ctx: &RunContext, tasks: &[TaskSpec], cfg: &SimConfig) -> ClassicReport {
    match &ctx.fleet {
        FleetPlan::Fixed(fleets) => crate::sim::sim_fleets_impl(fleets, tasks, cfg, ctx),
        FleetPlan::Elastic {
            itype,
            autoscale,
            arrivals,
        } => crate::sim::sim_autoscaled_impl(*itype, tasks, arrivals, cfg, autoscale, ctx),
    }
}
