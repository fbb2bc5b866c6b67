//! [`ppc_exec::Engine`] implementation: DryadLINQ-style static
//! partitioning as one of the three interchangeable paradigms.

use crate::runtime::DryadConfig;
use crate::sim::DryadSimConfig;
use ppc_core::task::TaskSpec;
use ppc_core::Result;
use ppc_exec::{Engine, JobOutputs, RunContext, RunReport, Workload};

/// The Dryad paradigm behind the uniform [`Engine`] interface. Inputs go
/// straight to node-local memory (the paper's pre-partitioned Windows
/// shared directories); pass the configs to tune either runtime.
#[derive(Debug, Clone, Default)]
pub struct DryadEngine {
    pub sim: DryadSimConfig,
    pub native: DryadConfig,
}

impl Engine for DryadEngine {
    fn name(&self) -> &str {
        "dryad"
    }

    fn run(&self, ctx: &RunContext, workload: &Workload) -> Result<(RunReport, JobOutputs)> {
        let mut native = self.native.clone();
        native.max_retries = workload.max_attempts.saturating_sub(1);
        let (report, outputs) = crate::harness::run(
            ctx,
            workload.inputs.clone(),
            workload.executor.clone(),
            &native,
        )?;
        Ok((report.core, outputs))
    }

    fn simulate(&self, ctx: &RunContext, tasks: &[TaskSpec]) -> RunReport {
        crate::harness::simulate(ctx, tasks, &self.sim).core
    }
}
