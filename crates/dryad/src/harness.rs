//! The two Dryad entry points: [`run`] (native) and [`simulate`]
//! (discrete-event), both driven by a [`ppc_exec::RunContext`].
//!
//! Dryad runs on exactly one cluster (static node-level partitioning has
//! no elastic or hybrid shape), so both entry points take the context's
//! single cluster. The context alone carries the run's seed, fault
//! schedule, tracing and resilience policy; the configs hold platform
//! dials only.

use crate::runtime::DryadReport;
use crate::sim::DryadSimConfig;
use ppc_core::task::TaskSpec;
use ppc_exec::RunContext;

pub use crate::runtime::run;

/// Simulate a statically partitioned job of `tasks` in virtual time on
/// the context's single cluster — the twin of [`run`] for paper-scale
/// what-if studies.
///
/// The context's fault schedule drives the event-based chaos model;
/// without a context seed the run uses seed 42. Panics on malformed sim
/// dials or context, or a hybrid/elastic fleet plan, like every simulator
/// here.
///
/// Dryad's static-partition simulator is a quantized list scheduler; it
/// runs no `ppc-des` event queue.
pub fn simulate(ctx: &RunContext, tasks: &[TaskSpec], cfg: &DryadSimConfig) -> DryadReport {
    let cluster = match ctx.single_cluster() {
        Ok(c) => c,
        Err(e) => panic!("{e}"),
    };
    crate::sim::simulate_impl(cluster, tasks, cfg, ctx)
}
