//! The two MapReduce entry points: [`run`] (native) and [`simulate`]
//! (discrete-event), both driven by a [`ppc_exec::RunContext`].
//!
//! The context's seed / fault schedule / trace settings override the
//! corresponding config fields. The simulator takes its cluster from the
//! context's fleet plan; the native runtime's topology comes from `fs`
//! instead (compute is co-located with the HDFS datanodes), so a
//! [`RunContext::local`] context is enough there.

use crate::job::{MapReduceJob, Mapper, Reducer};
use crate::report::MapReduceReport;
use crate::runtime::HadoopConfig;
use crate::sim::HadoopSimConfig;
use ppc_core::task::TaskSpec;
use ppc_core::Result;
use ppc_exec::RunContext;
use ppc_hdfs::fs::MiniHdfs;
use std::sync::Arc;

/// Run a job (map-only or map+reduce) natively on the cluster underlying
/// `fs`: real threads, real HDFS reads, Hadoop's output-committer
/// discipline. The context's seed, fault schedule, and trace sink
/// override the config's `seed`, `schedule`, and `trace` fields when set;
/// its fleet plan is unused (the `MiniHdfs` defines the node count,
/// `config.slots_per_node` the slots).
pub fn run(
    ctx: &RunContext,
    fs: &Arc<MiniHdfs>,
    job: &MapReduceJob,
    mapper: &dyn Mapper,
    reducer: Option<&dyn Reducer>,
    config: &HadoopConfig,
) -> Result<MapReduceReport> {
    let mut cfg = config.clone();
    cfg.seed = ctx.seed_or(cfg.seed);
    cfg.schedule = ctx.schedule_or(&cfg.schedule);
    cfg.trace = ctx.sink_or(&cfg.trace);
    cfg.resilience = ctx.resilience_or(&cfg.resilience);
    crate::runtime::run_job_impl(fs, job, mapper, reducer, &cfg)
}

/// Simulate a map-only Hadoop job of `tasks` in virtual time on the
/// context's single cluster — the `ppc-des` twin of [`run`] for
/// paper-scale what-if studies.
///
/// The context's seed and trace flag override the sim config's; its fault
/// schedule drives the event-based chaos model. Panics on malformed sim
/// dials or a hybrid/elastic fleet plan, like every simulator here.
pub fn simulate(ctx: &RunContext, tasks: &[TaskSpec], cfg: &HadoopSimConfig) -> MapReduceReport {
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
