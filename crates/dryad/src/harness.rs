//! The two Dryad entry points: [`run`] (native) and [`simulate`]
//! (discrete-event), both driven by a [`ppc_exec::RunContext`].
//!
//! Dryad runs on exactly one cluster (static node-level partitioning has
//! no elastic or hybrid shape), so both entry points take the context's
//! single cluster; its seed / fault schedule / trace settings override the
//! corresponding config fields.

use crate::runtime::{DryadConfig, DryadReport, JobOutputs};
use crate::sim::DryadSimConfig;
use ppc_core::exec::Executor;
use ppc_core::task::TaskSpec;
use ppc_core::Result;
use ppc_exec::RunContext;
use std::sync::Arc;

/// Run `executor` over every input on the context's single cluster,
/// statically partitioned round-robin across its nodes. Returns the
/// report and the outputs (output key → bytes), in completion order.
///
/// The context's seed, fault schedule, and trace sink override the
/// config's `seed`, `schedule`, and `trace` fields when set.
pub fn run(
    ctx: &RunContext,
    inputs: Vec<(TaskSpec, Vec<u8>)>,
    executor: Arc<dyn Executor>,
    config: &DryadConfig,
) -> Result<(DryadReport, JobOutputs)> {
    let cluster = ctx.single_cluster()?;
    let mut cfg = config.clone();
    cfg.seed = ctx.seed_or(cfg.seed);
    cfg.schedule = ctx.schedule_or(&cfg.schedule);
    cfg.trace = ctx.sink_or(&cfg.trace);
    cfg.resilience = ctx.resilience_or(&cfg.resilience);
    crate::runtime::run_impl(cluster, inputs, executor, &cfg)
}

/// Simulate a statically partitioned job of `tasks` in virtual time on
/// the context's single cluster — the twin of [`run`] for paper-scale
/// what-if studies.
///
/// The context's seed and trace flag override the sim config's; its fault
/// schedule drives the event-based chaos model. Panics on malformed sim
/// dials or a hybrid/elastic fleet plan, like every simulator here.
///
/// Dryad's static-partition simulator is a quantized list scheduler; it
/// runs no `ppc-des` event queue.
pub fn simulate(ctx: &RunContext, tasks: &[TaskSpec], cfg: &DryadSimConfig) -> DryadReport {
    let cluster = match ctx.single_cluster() {
        Ok(c) => c,
        Err(e) => panic!("{e}"),
    };
    let mut cfg = *cfg;
    cfg.seed = ctx.seed_or(cfg.seed);
    cfg.trace = ctx.trace_or(cfg.trace);
    cfg.resilience = ctx.resilience_or(&cfg.resilience);
    crate::sim::simulate_impl(cluster, tasks, &cfg, ctx.schedule.clone())
}
