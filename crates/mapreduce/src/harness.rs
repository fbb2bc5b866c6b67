//! The two MapReduce entry points: [`run`] (native) and [`simulate`]
//! (discrete-event), both driven by a [`ppc_exec::RunContext`].
//!
//! The context alone carries the run's seed, fault schedule, tracing and
//! resilience policy; the configs hold platform dials only. Without a
//! context policy both runtimes use Hadoop's default speculation. The
//! simulator takes its cluster from the context's fleet plan; the native
//! runtime's topology comes from `fs` instead (compute is co-located with
//! the HDFS datanodes), so a [`RunContext::local`] context is enough
//! there.

use crate::report::MapReduceReport;
use crate::sim::HadoopSimConfig;
use ppc_core::task::TaskSpec;
use ppc_exec::RunContext;

pub use crate::runtime::run;

/// Simulate a map-only Hadoop job of `tasks` in virtual time on the
/// context's single cluster — the `ppc-des` twin of [`run`] for
/// paper-scale what-if studies.
///
/// The context's fault schedule drives the event-based chaos model;
/// without a context seed the run uses seed 42. Panics on malformed sim
/// dials or context, or a hybrid/elastic fleet plan, like every simulator
/// here.
pub fn simulate(ctx: &RunContext, tasks: &[TaskSpec], cfg: &HadoopSimConfig) -> MapReduceReport {
    let cluster = match ctx.single_cluster() {
        Ok(c) => c,
        Err(e) => panic!("{e}"),
    };
    crate::sim::simulate_impl(cluster, tasks, cfg, ctx)
}
