//! Workflow drivers: run a [`Workflow`] of stages on any [`Engine`],
//! natively or in the DES, through the engine's existing per-stage
//! `run`/`simulate` entry points.
//!
//! The orchestration is deliberately engine-agnostic: resolve each stage's
//! input payloads (seed inputs for sources, the in-edge adapter over the
//! upstream stage's outputs otherwise), pay the materialization barrier on
//! `Materialize` edges, run the stage under a per-stage [`RunContext`]
//! (a fresh trace recorder), and stitch the per-stage traces into one
//! workflow trace with `stage_start`/`materialize`/`stage_done` boundary
//! spans. Every engine's [`Engine::run_workflow`] is [`run_workflow_with`],
//! so the DAG semantics stay identical everywhere.

use crate::{Engine, JobOutputs, RunContext, RunReport, Workload};
use ppc_chaos::RunClock;
use ppc_compute::billing::CostBreakdown;
use ppc_core::json::Json;
use ppc_core::task::TaskSpec;
use ppc_core::Result;
use ppc_trace::{Phase, Recorder, RunMeta, Span, Trace, TraceEvent, JOB_TASK, NO_WORKER};
use ppc_workflow::{DataPolicy, Stage, Workflow};
use std::sync::Arc;

/// A [`Workload`] is the degenerate workflow: one map-only stage, no edges.
/// Existing call sites lift into the workflow layer for free.
impl From<Workload> for Workflow {
    fn from(w: Workload) -> Workflow {
        let mut wf = Workflow::new(w.name.clone());
        let (specs, inputs): (Vec<TaskSpec>, Vec<Vec<u8>>) = w.inputs.into_iter().unzip();
        let mut stage = Stage::new(w.name, specs)
            .with_executor(w.executor)
            .with_inputs(inputs)
            .with_max_attempts(w.max_attempts);
        stage.visibility_timeout = w.visibility_timeout;
        wf.add_stage(stage);
        wf
    }
}

/// Per-stage slice of a workflow run.
#[derive(Debug, Clone)]
pub struct StageReport {
    pub name: String,
    /// When the stage started, on the workflow clock (wall seconds for
    /// native runs, virtual seconds for simulated ones).
    pub start_s: f64,
    /// When the stage finished, on the workflow clock.
    pub end_s: f64,
    /// Materialization barrier paid *before* this stage could start.
    pub materialize_s: f64,
    /// The engine's ordinary per-stage report.
    pub report: RunReport,
}

/// Outcome of a whole workflow run on one engine.
#[derive(Debug, Clone)]
pub struct WorkflowReport {
    pub name: String,
    pub platform: String,
    pub stages: Vec<StageReport>,
    /// End-to-end makespan including inter-stage barriers.
    pub makespan_seconds: f64,
    /// Total inter-stage materialization time across all edges.
    pub materialize_s: f64,
    /// Merged workflow trace (present when the context asked for tracing):
    /// per-stage spans shifted onto the workflow clock plus stage-boundary
    /// markers, decomposable by `OverheadReport` like any engine trace.
    pub trace: Option<Trace>,
    /// Summed per-stage cost, where every stage priced its fleet.
    pub cost: Option<CostBreakdown>,
}

impl WorkflowReport {
    /// Whether every stage completed every task.
    pub fn is_complete(&self) -> bool {
        self.stages.iter().all(|s| s.report.is_complete())
    }

    /// Attempts across all stages.
    pub fn total_attempts(&self) -> usize {
        self.stages.iter().map(|s| s.report.total_attempts).sum()
    }

    /// Worker deaths across all stages.
    pub fn worker_deaths(&self) -> usize {
        self.stages.iter().map(|s| s.report.worker_deaths).sum()
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::from(crate::REPORT_SCHEMA)),
            ("name".into(), Json::Str(self.name.clone())),
            ("platform".into(), Json::Str(self.platform.clone())),
            (
                "makespan_seconds".into(),
                Json::Float(self.makespan_seconds),
            ),
            (
                "materialize_seconds".into(),
                Json::Float(self.materialize_s),
            ),
            ("total_attempts".into(), Json::from(self.total_attempts())),
            ("worker_deaths".into(), Json::from(self.worker_deaths())),
            (
                "cost".into(),
                match &self.cost {
                    Some(c) => Json::Obj(vec![
                        ("compute".into(), Json::Float(c.compute_cost.as_f64())),
                        ("amortized".into(), Json::Float(c.amortized_cost.as_f64())),
                    ]),
                    None => Json::Null,
                },
            ),
            (
                "stages".into(),
                Json::Arr(
                    self.stages
                        .iter()
                        .map(|s| {
                            Json::Obj(vec![
                                ("name".into(), Json::Str(s.name.clone())),
                                ("start_s".into(), Json::Float(s.start_s)),
                                ("end_s".into(), Json::Float(s.end_s)),
                                ("materialize_s".into(), Json::Float(s.materialize_s)),
                                ("report".into(), s.report.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Default native driver: topological stage order, adapter-resolved
/// payloads, materialization barriers, per-stage contexts, merged trace;
/// every stage goes through [`Engine::run`].
///
/// Outputs of sink stages (no outgoing edges) are concatenated in stage
/// index order; keys keep each engine's own namespace, so cross-paradigm
/// comparisons should canonicalize on the trailing basename like
/// [`ppc_workflow::model::key_basename`] does.
pub fn run_workflow_with<E: Engine + ?Sized>(
    engine: &E,
    ctx: &RunContext,
    wf: &Workflow,
) -> Result<(WorkflowReport, JobOutputs)> {
    wf.validate_native()?;
    let order = wf.topo_order()?;
    let clock = RunClock::start();
    let want_trace = ctx.trace || ctx.sink.is_some();

    let mut outputs: Vec<Option<JobOutputs>> = vec![None; wf.stages.len()];
    let mut stage_reports: Vec<Option<StageReport>> = vec![None; wf.stages.len()];
    let mut mat_windows: Vec<(usize, f64, f64)> = Vec::new();

    for &s in &order {
        let stage = &wf.stages[s];
        // Resolve payloads: adapter over upstream outputs, or seed inputs.
        let mat_start = clock.now_s();
        let payloads = match wf.data_in_edge(s) {
            Some(edge) => {
                let upstream = outputs[edge.from]
                    .as_ref()
                    .expect("topological order ran the upstream stage first");
                edge.adapter
                    .as_ref()
                    .expect("data edge has an adapter")
                    .adapt(upstream, &stage.specs)?
            }
            None => stage.inputs.clone(),
        };
        // Materialize-policy in-edges pay a real barrier window: the bytes
        // round-trip through the driver before the stage may start.
        let mat_end = clock.now_s();
        let mut materialize_s = 0.0;
        for edge in wf.in_edges(s) {
            if edge.policy == DataPolicy::Materialize {
                mat_windows.push((s, mat_start, mat_end));
                materialize_s += mat_end - mat_start;
            }
        }

        let workload = Workload {
            name: format!("{}/{}", wf.name, stage.name),
            inputs: stage.specs.iter().cloned().zip(payloads).collect(),
            executor: stage
                .executor
                .clone()
                .expect("validate_native checked executors"),
            max_attempts: stage.max_attempts,
            visibility_timeout: stage.visibility_timeout,
        };
        let sctx = stage_context(ctx, want_trace);
        let start_s = clock.now_s();
        let (report, outs) = engine.run(&sctx, &workload)?;
        let end_s = clock.now_s();
        if !report.is_complete() {
            return Err(ppc_core::PpcError::InvalidState(format!(
                "workflow '{}' stage '{}': {} of {} tasks completed (failed: {:?}); \
                 downstream stages cannot run",
                wf.name,
                stage.name,
                report.summary.tasks,
                stage.specs.len(),
                report.failed,
            )));
        }
        outputs[s] = Some(outs);
        stage_reports[s] = Some(StageReport {
            name: stage.name.clone(),
            start_s,
            end_s,
            materialize_s,
            report,
        });
    }

    let stages: Vec<StageReport> = stage_reports.into_iter().map(|r| r.unwrap()).collect();
    let makespan = clock.now_s();
    let report = assemble(wf, stages, &mat_windows, makespan, want_trace);
    let mut final_outputs = Vec::new();
    for s in wf.sinks() {
        final_outputs.extend(outputs[s].take().unwrap());
    }
    Ok((report, final_outputs))
}

/// Default simulated driver: each stage goes through [`Engine::simulate`];
/// stage start times come from the DAG schedule (a stage starts when its
/// slowest in-edge finishes, plus the modeled materialization transfer on
/// `Materialize` edges).
pub fn simulate_workflow_with<E: Engine + ?Sized>(
    engine: &E,
    ctx: &RunContext,
    wf: &Workflow,
) -> Result<WorkflowReport> {
    wf.validate()?;
    let order = wf.topo_order()?;
    let want_trace = ctx.trace;

    let mut finish = vec![0.0f64; wf.stages.len()];
    let mut stage_reports: Vec<Option<StageReport>> = vec![None; wf.stages.len()];
    let mut mat_windows: Vec<(usize, f64, f64)> = Vec::new();

    for &s in &order {
        let stage = &wf.stages[s];
        let mut start_s = 0.0f64;
        let mut materialize_s = 0.0f64;
        for edge in wf.in_edges(s) {
            let cost = match edge.policy {
                DataPolicy::Materialize => wf
                    .materialize
                    .transfer_s(wf.stages[edge.from].output_bytes()),
                DataPolicy::Pipeline => 0.0,
            };
            if cost > 0.0 {
                mat_windows.push((s, finish[edge.from], finish[edge.from] + cost));
                materialize_s += cost;
            }
            start_s = start_s.max(finish[edge.from] + cost);
        }

        let sctx = stage_context(ctx, want_trace);
        let report = engine.simulate(&sctx, &stage.specs);
        let end_s = start_s + report.summary.makespan_seconds;
        finish[s] = end_s;
        stage_reports[s] = Some(StageReport {
            name: stage.name.clone(),
            start_s,
            end_s,
            materialize_s,
            report,
        });
    }

    let stages: Vec<StageReport> = stage_reports.into_iter().map(|r| r.unwrap()).collect();
    let makespan = stages.iter().map(|r| r.end_s).fold(0.0, f64::max);
    Ok(assemble(wf, stages, &mat_windows, makespan, want_trace))
}

/// Per-stage context: the workflow context's fleet, seed, chaos and
/// resilience, with a fresh recorder per stage when tracing (so stage
/// traces merge cleanly on the workflow clock instead of interleaving in
/// one sink).
fn stage_context(ctx: &RunContext, want_trace: bool) -> RunContext {
    let mut sctx = ctx.clone();
    if want_trace {
        sctx.sink = Some(Arc::new(Recorder::new()));
        sctx.trace = true;
    }
    sctx
}

fn assemble(
    wf: &Workflow,
    stages: Vec<StageReport>,
    mat_windows: &[(usize, f64, f64)],
    makespan: f64,
    want_trace: bool,
) -> WorkflowReport {
    let platform = stages
        .first()
        .map(|s| s.report.summary.platform.clone())
        .unwrap_or_default();
    let materialize_s = stages.iter().map(|s| s.materialize_s).sum();
    let cost = sum_costs(&stages);
    let trace = if want_trace {
        merge_traces(&platform, &stages, mat_windows, makespan)
    } else {
        None
    };
    WorkflowReport {
        name: wf.name.clone(),
        platform,
        stages,
        makespan_seconds: makespan,
        materialize_s,
        trace,
        cost,
    }
}

fn sum_costs(stages: &[StageReport]) -> Option<CostBreakdown> {
    let mut total: Option<CostBreakdown> = None;
    for s in stages {
        let c = s.report.cost?;
        total = Some(match total {
            None => c,
            Some(t) => CostBreakdown {
                compute_cost: t.compute_cost + c.compute_cost,
                amortized_cost: t.amortized_cost + c.amortized_cost,
            },
        });
    }
    total
}

/// Shift each stage's trace onto the workflow clock, remap task ids into
/// per-stage namespaces, and add the stage-boundary marker spans.
fn merge_traces(
    platform: &str,
    stages: &[StageReport],
    mat_windows: &[(usize, f64, f64)],
    makespan: f64,
) -> Option<Trace> {
    if stages.iter().all(|s| s.report.trace.is_none()) {
        return None;
    }
    let remap = |stage: usize, task: u64| -> u64 {
        if task == JOB_TASK {
            JOB_TASK
        } else {
            ((stage as u64) << 32) | task
        }
    };
    let mut spans = vec![Span::job(makespan)];
    let mut events: Vec<TraceEvent> = Vec::new();
    let mut cores = 0usize;
    let mut tasks = 0usize;
    for (s, sr) in stages.iter().enumerate() {
        cores = cores.max(sr.report.summary.cores);
        tasks += sr.report.summary.tasks;
        spans.push(Span::new(
            JOB_TASK,
            s as u32,
            NO_WORKER,
            Phase::StageStart,
            sr.start_s,
            sr.start_s,
        ));
        if let Some(t) = &sr.report.trace {
            // The stage ran on its own clock starting at 0; shift onto the
            // workflow clock and drop the per-stage job root (the workflow
            // has exactly one). Simulated speculative duplicates can outlive
            // the stage makespan (for a standalone job they keep burning
            // cores past the winner), but a stage barrier is a job teardown
            // that kills in-flight losers — clamp their spans to the stage
            // window, or their tails would overlap the next stage on the
            // same workers and overflow Eq. 1's cores × horizon budget.
            let stage_dur = sr.end_s - sr.start_s;
            for sp in t.spans() {
                if sp.phase == Phase::Job {
                    continue;
                }
                spans.push(Span::new(
                    remap(s, sp.task),
                    sp.attempt,
                    sp.worker,
                    sp.phase,
                    sp.start_s.min(stage_dur) + sr.start_s,
                    sp.end_s.min(stage_dur) + sr.start_s,
                ));
            }
            for ev in t.events() {
                events.push(TraceEvent {
                    at_s: ev.at_s + sr.start_s,
                    worker: ev.worker,
                    kind: ev.kind,
                });
            }
        }
        spans.push(Span::new(
            JOB_TASK,
            s as u32,
            NO_WORKER,
            Phase::StageDone,
            sr.end_s,
            sr.end_s,
        ));
    }
    for &(to, start, end) in mat_windows {
        spans.push(Span::new(
            JOB_TASK,
            to as u32,
            NO_WORKER,
            Phase::Materialize,
            start,
            end,
        ));
    }
    let meta = RunMeta {
        platform: platform.to_string(),
        cores,
        tasks,
        makespan_seconds: makespan,
    };
    Some(Trace::new(meta, spans, events))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Same contract as `RunReport`: the exact key set is versioned, so
    /// any shape change must bump `REPORT_SCHEMA`.
    #[test]
    fn workflow_report_json_key_set_is_versioned() {
        let report = WorkflowReport {
            name: "wf".into(),
            platform: "classic-sim".into(),
            stages: Vec::new(),
            makespan_seconds: 1.0,
            materialize_s: 0.5,
            trace: None,
            cost: None,
        };
        let Json::Obj(fields) = report.to_json() else {
            panic!("workflow report JSON must be an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "schema",
                "name",
                "platform",
                "makespan_seconds",
                "materialize_seconds",
                "total_attempts",
                "worker_deaths",
                "cost",
                "stages",
            ]
        );
        assert_eq!(fields[0].1, Json::from(crate::REPORT_SCHEMA));
    }
}
