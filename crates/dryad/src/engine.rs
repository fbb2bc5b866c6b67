//! [`ppc_exec::Engine`] implementation: DryadLINQ-style static
//! partitioning as one of the three interchangeable paradigms.

use crate::graph::Graph;
use crate::runtime::DryadConfig;
use crate::sim::DryadSimConfig;
use ppc_core::task::TaskSpec;
use ppc_core::Result;
use ppc_exec::{
    drive_workflow, Engine, JobOutputs, RunContext, RunReport, Workflow, WorkflowReport, Workload,
};

/// Lower a [`Workflow`] onto Dryad's vertex graph: one vertex per
/// `(stage, partition)` named `stage[partition]`, channels along the
/// workflow's edges (partition-wise when the partition counts line up,
/// full bipartite otherwise), graph stages taken from the workflow's
/// dependency levels. This is the graph-manager view Dryad's runtime
/// executes — the workflow layer and the vertex runtime agree on staging
/// by construction, and cycles are rejected twice (workflow validation
/// and graph toposort).
pub fn vertex_graph(wf: &Workflow) -> Result<Graph> {
    wf.validate()?;
    let levels = wf.levels()?;
    let mut level_of = vec![0usize; wf.stages.len()];
    for (l, members) in levels.iter().enumerate() {
        for &s in members {
            level_of[s] = l;
        }
    }
    let mut g = Graph::new();
    let mut vid: Vec<Vec<usize>> = Vec::with_capacity(wf.stages.len());
    for (s, stage) in wf.stages.iter().enumerate() {
        vid.push(
            (0..stage.specs.len())
                .map(|_| g.add_vertex(level_of[s]))
                .collect(),
        );
    }
    for e in &wf.edges {
        let (from, to) = (&vid[e.from], &vid[e.to]);
        if from.len() == to.len() {
            for (f, t) in from.iter().zip(to) {
                g.add_edge(*f, *t)?;
            }
        } else {
            for f in from {
                for t in to {
                    g.add_edge(*f, *t)?;
                }
            }
        }
    }
    g.topological_order()?;
    Ok(g)
}

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

    /// Native override: the workflow is lowered onto the vertex graph
    /// first (Dryad's own DAG representation), then each graph stage runs
    /// on the vertex runtime ([`crate::run`], the path `DryadEngine::run`
    /// takes under the stage's context), with per-stage retry budgets
    /// mapped onto vertex re-runs.
    fn run_workflow(
        &self,
        ctx: &RunContext,
        wf: &Workflow,
    ) -> Result<(WorkflowReport, JobOutputs)> {
        let graph = vertex_graph(wf)?;
        debug_assert_eq!(
            graph.n_vertices(),
            wf.stages.iter().map(|s| s.specs.len()).sum::<usize>(),
            "one vertex per stage partition"
        );
        drive_workflow(ctx, wf, &mut |sctx, _s, workload| {
            let mut cfg = self.native.clone();
            cfg.max_retries = workload.max_attempts.saturating_sub(1);
            let (report, outputs) = crate::run(
                sctx,
                workload.inputs.clone(),
                workload.executor.clone(),
                &cfg,
            )?;
            Ok((report.core, outputs))
        })
    }
}
