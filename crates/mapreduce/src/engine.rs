//! [`ppc_exec::Engine`] implementation: Hadoop-style MapReduce as one of
//! the three interchangeable paradigms.

use crate::job::{ExecutableMapper, MapReduceJob};
use crate::runtime::HadoopConfig;
use crate::sim::HadoopSimConfig;
use ppc_core::task::TaskSpec;
use ppc_core::Result;
use ppc_exec::{Engine, JobOutputs, RunContext, RunReport, Workload};
use ppc_hdfs::fs::MiniHdfs;

/// The MapReduce paradigm behind the uniform [`Engine`] interface. Native
/// runs provision a fresh `MiniHdfs` sized to the context's cluster
/// (compute co-located with storage, Hadoop style); pass the configs to
/// tune either runtime.
#[derive(Debug, Clone)]
pub struct HadoopEngine {
    pub sim: HadoopSimConfig,
    pub native: HadoopConfig,
    /// HDFS block size for native runs.
    pub block_size: u64,
    /// HDFS replication factor for native runs (clamped to the node
    /// count).
    pub replication: usize,
}

impl Default for HadoopEngine {
    fn default() -> Self {
        HadoopEngine {
            sim: HadoopSimConfig::default(),
            native: HadoopConfig::default(),
            block_size: 1 << 20,
            replication: 3,
        }
    }
}

impl Engine for HadoopEngine {
    fn name(&self) -> &str {
        "mapreduce"
    }

    fn run(&self, ctx: &RunContext, workload: &Workload) -> Result<(RunReport, JobOutputs)> {
        let cluster = ctx.single_cluster()?;
        let n_nodes = cluster.n_nodes().max(1);
        let fs = MiniHdfs::new(
            n_nodes,
            self.block_size,
            self.replication.min(n_nodes),
            ctx.seed.unwrap_or(crate::runtime::DEFAULT_SEED),
        );
        let mut paths = Vec::with_capacity(workload.inputs.len());
        for (spec, input) in &workload.inputs {
            let path = format!("/in/{}", spec.input_key);
            fs.create(&path, input, None)?;
            paths.push(path);
        }
        let mut job = MapReduceJob::map_only(workload.name.clone(), paths, "/out");
        job.max_attempts = workload.max_attempts;
        let mapper = ExecutableMapper::new(workload.name.clone(), workload.executor.clone());
        let report = crate::harness::run(ctx, &fs, &job, &mapper, &self.native)?;
        let mut outputs = JobOutputs::new();
        for path in fs.list("/out/") {
            let bytes = fs.read(&path)?;
            outputs.push((path.trim_start_matches("/out/").to_string(), bytes));
        }
        Ok((report.core, outputs))
    }

    fn simulate(&self, ctx: &RunContext, tasks: &[TaskSpec]) -> RunReport {
        crate::harness::simulate(ctx, tasks, &self.sim).core
    }
}
