//! # ppc-exec — the unified execution harness
//!
//! The paper's contribution is a *comparison* of three paradigms on
//! identical workloads, yet every cross-cutting layer (autoscaling, chaos,
//! tracing) used to be threaded into each engine as a new variant
//! function — Classic Cloud alone grew nine entry points. This crate is
//! the shared runtime abstraction that stops the multiplication:
//!
//! * [`RunContext`] carries everything previously passed ad-hoc — the run
//!   seed, the fleet layout (fixed clusters or an elastic plan), an
//!   optional [`FaultSchedule`], an optional [`TraceSink`]/`trace` flag,
//!   an optional [`ResiliencePolicy`] — so each paradigm exposes exactly
//!   two entry points: `run(ctx, …)` (native) and `simulate(ctx, …)`
//!   (discrete-event).
//! * [`Engine`] is the object-safe paradigm trait (`name`/`run`/
//!   `simulate`) implemented by Classic, Hadoop, and Dryad, letting
//!   cross-framework studies iterate paradigms generically.
//! * [`RunReport`] is the report core every paradigm embeds (makespan
//!   summary, failed tasks, attempt/death counters, cost, optional
//!   trace), with the one JSON serializer in place of per-crate copies;
//!   every engine builds it, and stamps its trace, with
//!   [`RunReport::close`].
//! * [`HealthTrace`] is how every engine hands a run's trace sink to its
//!   `ppc-resilience` health tracker, which then records its own
//!   `Quarantine`/`Release` transitions.
//! * [`slots::SlotPool`] is the one native slot lifecycle that native
//!   MapReduce and native Dryad run as two small [`slots::SlotPolicy`]s.
//!
//! Run-wide settings live only here: the paradigm configs carry policy
//! and platform dials, never a seed, fault schedule, trace switch or
//! resilience policy. A run without a context seed uses its engine's
//! fixed default, so unseeded runs stay reproducible.

use ppc_autoscale::AutoscaleConfig;
use ppc_chaos::FaultSchedule;
use ppc_compute::billing::CostBreakdown;
use ppc_compute::cluster::Cluster;
use ppc_compute::instance::InstanceType;
use ppc_core::exec::Executor;
use ppc_core::json::Json;
use ppc_core::metrics::RunSummary;
use ppc_core::task::{TaskId, TaskSpec};
use ppc_core::{PpcError, Result};
use ppc_resilience::{HealthSink, ResiliencePolicy, Transition};
use ppc_trace::{EventKind, RunMeta, Span, Trace, TraceEvent, TraceSink};
use std::sync::Arc;

pub mod slots;
pub mod workflow;

pub use ppc_workflow::{
    DataPolicy, FnAdapter, MaterializeModel, Stage, StageAdapter, StageEdge, Workflow,
};
pub use workflow::{run_workflow_with, simulate_workflow_with, StageReport, WorkflowReport};

/// Version stamp emitted as the `"schema"` key of every report JSON
/// object in the workspace ([`RunReport`], [`WorkflowReport`], and
/// ppc-serve's `ServeReport`). Bump when a key is added, removed, or
/// renamed so downstream consumers can pin what they parse.
pub const REPORT_SCHEMA: i64 = 2;

/// The worker fleet a run executes on.
#[derive(Clone)]
pub enum FleetPlan {
    /// One or more fixed clusters (several = the hybrid-cloud layout).
    Fixed(Vec<Cluster>),
    /// An elastic Classic Cloud fleet: instance type, autoscaling policy,
    /// and per-task arrival times (empty = all tasks available at t=0).
    Elastic {
        itype: InstanceType,
        autoscale: AutoscaleConfig,
        arrivals: Vec<f64>,
    },
}

impl std::fmt::Debug for FleetPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetPlan::Fixed(fleets) => f.debug_tuple("Fixed").field(&fleets.len()).finish(),
            FleetPlan::Elastic { itype, .. } => f
                .debug_struct("Elastic")
                .field("itype", &itype.name)
                .finish(),
        }
    }
}

/// Everything a run needs beyond its workload and paradigm config: seed,
/// fleet layout, fault schedule, trace sink. Build one with the
/// constructors and `with_*` builders; pass it to a paradigm's `run` /
/// `simulate` (or through the [`Engine`] trait).
#[derive(Clone)]
pub struct RunContext {
    pub fleet: FleetPlan,
    /// Run seed: every RNG stream of the run (per-worker streams, client
    /// stream) derives from it. `None` uses the engine's fixed default.
    pub seed: Option<u64>,
    /// Deterministic fault schedule (it carries its own dice seed).
    pub schedule: Option<Arc<FaultSchedule>>,
    /// Span sink for native runs.
    pub sink: Option<Arc<dyn TraceSink>>,
    /// Record spans in simulated runs.
    pub trace: bool,
    /// Straggler / gray-failure defense (hedged attempts, health-scored
    /// quarantine, per-task deadlines). `None` is each paradigm's own
    /// default: Hadoop's speculation for MapReduce, no defense otherwise.
    pub resilience: Option<ResiliencePolicy>,
}

impl RunContext {
    /// A run on one fixed cluster.
    pub fn new(cluster: &Cluster) -> RunContext {
        RunContext::on_fleets(vec![cluster.clone()])
    }

    /// A run across several fixed fleets (the hybrid-cloud layout).
    pub fn on_fleets(fleets: Vec<Cluster>) -> RunContext {
        RunContext {
            fleet: FleetPlan::Fixed(fleets),
            seed: None,
            schedule: None,
            sink: None,
            trace: false,
            resilience: None,
        }
    }

    /// A context with an empty fixed-fleet plan, for runtimes whose
    /// worker topology comes from elsewhere (e.g. the native MapReduce
    /// runtime, where compute is co-located with the HDFS datanodes):
    /// only the seed / schedule / trace settings apply.
    pub fn local() -> RunContext {
        RunContext::on_fleets(Vec::new())
    }

    /// An elastic run: the fleet grows and shrinks under `autoscale`.
    pub fn elastic(
        itype: InstanceType,
        autoscale: AutoscaleConfig,
        arrivals: Vec<f64>,
    ) -> RunContext {
        RunContext {
            fleet: FleetPlan::Elastic {
                itype,
                autoscale,
                arrivals,
            },
            seed: None,
            schedule: None,
            sink: None,
            trace: false,
            resilience: None,
        }
    }

    pub fn with_seed(mut self, seed: u64) -> RunContext {
        self.seed = Some(seed);
        self
    }

    /// Attach a fault schedule. Takes either a bare `Arc<FaultSchedule>`
    /// or an `Option` the caller may already hold; passing
    /// `None` clears any schedule set earlier.
    pub fn with_schedule(mut self, schedule: impl Into<Option<Arc<FaultSchedule>>>) -> RunContext {
        self.schedule = schedule.into();
        self
    }

    /// Attach a trace sink. Takes either a bare `Arc<dyn TraceSink>` or an
    /// `Option` the caller may already hold; passing `None` clears any
    /// sink set earlier.
    pub fn with_sink(mut self, sink: impl Into<Option<Arc<dyn TraceSink>>>) -> RunContext {
        self.sink = sink.into();
        self
    }

    pub fn with_trace(mut self, on: bool) -> RunContext {
        self.trace = on;
        self
    }

    pub fn with_resilience(mut self, policy: ResiliencePolicy) -> RunContext {
        self.resilience = Some(policy);
        self
    }

    /// A simulation's run seed: the context's, else 42, the one default
    /// every simulator shares.
    pub fn sim_seed(&self) -> u64 {
        self.seed.unwrap_or(42)
    }

    /// Reject a malformed fault schedule or resilience policy. Every
    /// entry point calls this first: a native run returns the error before
    /// it starts a thread, a simulation panics with its message.
    pub fn validate(&self) -> Result<()> {
        if let Some(schedule) = &self.schedule {
            schedule.validate()?;
        }
        if let Some(policy) = &self.resilience {
            policy.validate()?;
        }
        Ok(())
    }

    /// The fixed fleets of this plan, or an error for elastic plans (for
    /// paradigms without an elastic mode).
    pub fn fixed_fleets(&self) -> Result<&[Cluster]> {
        match &self.fleet {
            FleetPlan::Fixed(fleets) if !fleets.is_empty() => Ok(fleets),
            FleetPlan::Fixed(_) => Err(PpcError::InvalidArgument(
                "run context has an empty fleet list".into(),
            )),
            FleetPlan::Elastic { .. } => Err(PpcError::InvalidArgument(
                "this paradigm does not support elastic fleets".into(),
            )),
        }
    }

    /// The single cluster of this plan; errors on hybrid or elastic plans
    /// (for paradigms that run on exactly one cluster).
    pub fn single_cluster(&self) -> Result<&Cluster> {
        let fleets = self.fixed_fleets()?;
        if fleets.len() == 1 {
            Ok(&fleets[0])
        } else {
            Err(PpcError::InvalidArgument(format!(
                "this paradigm runs on a single cluster, got {} fleets",
                fleets.len()
            )))
        }
    }
}

/// The report core shared by all three paradigms. `ClassicReport`,
/// `MapReduceReport`, and `DryadReport` embed one (exposed through
/// `Deref`), adding only their paradigm-specific extras.
#[derive(Debug, Clone)]
pub struct RunReport {
    pub summary: RunSummary,
    /// Tasks that exhausted their attempt budget.
    pub failed: Vec<TaskId>,
    /// Attempts actually executed (≥ tasks when retries or duplicates ran).
    pub total_attempts: usize,
    /// Worker/slot deaths observed (injected or scheduled).
    pub worker_deaths: usize,
    /// Compute cost of the run where the fleet's pricing is known.
    pub cost: Option<CostBreakdown>,
    /// Full span trace for traced runs.
    pub trace: Option<Trace>,
}

impl RunReport {
    /// The one run closer every engine ends with. When tracing, it stamps
    /// `sink` with the summary's [`RunMeta`] and the job span
    /// `[0, makespan]` and keeps the sink's snapshot as the report's
    /// trace, so the trace's meta equals the summary bit for bit and Eq. 1
    /// recomputed from the trace matches the report exactly.
    pub fn close<S: TraceSink + ?Sized>(
        summary: RunSummary,
        failed: Vec<TaskId>,
        total_attempts: usize,
        worker_deaths: usize,
        cost: Option<CostBreakdown>,
        sink: Option<&S>,
    ) -> RunReport {
        let trace = sink.and_then(|s| {
            s.set_meta(RunMeta {
                platform: summary.platform.clone(),
                cores: summary.cores,
                tasks: summary.tasks,
                makespan_seconds: summary.makespan_seconds,
            });
            s.span(Span::job(summary.makespan_seconds));
            s.snapshot()
        });
        RunReport {
            summary,
            failed,
            total_attempts,
            worker_deaths,
            cost,
            trace,
        }
    }

    /// Whether every task eventually completed.
    pub fn is_complete(&self) -> bool {
        self.failed.is_empty()
    }

    /// Re-executed attempt count: wasted (but harmless) work.
    pub fn redundant_attempts(&self) -> usize {
        self.total_attempts.saturating_sub(self.summary.tasks)
    }

    /// The one report→JSON serializer. Embeds
    /// [`RunSummary::to_json`](ppc_core::metrics::RunSummary::to_json);
    /// paradigm reports append their extras to this object.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::from(REPORT_SCHEMA)),
            ("summary".into(), self.summary.to_json()),
            (
                "failed".into(),
                Json::Arr(self.failed.iter().map(|t| Json::from(t.0)).collect()),
            ),
            ("total_attempts".into(), Json::from(self.total_attempts)),
            ("worker_deaths".into(), Json::from(self.worker_deaths)),
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
                "trace_spans".into(),
                match &self.trace {
                    Some(t) => Json::from(t.spans().len()),
                    None => Json::Null,
                },
            ),
        ])
    }
}

/// A [`HealthSink`] that records each quarantine transition a
/// `HealthTracker` reports as a `Quarantine` / `Release` trace event on the
/// run's sink, at the tracker's instant (nothing on an untraced run). Native
/// engines wrap their `Option<&dyn TraceSink>`, simulators their recorder.
pub struct HealthTrace<'a, S: ?Sized>(pub Option<&'a S>);

impl<S: TraceSink + ?Sized> HealthSink for HealthTrace<'_, S> {
    fn transition(&self, worker: u32, at_s: f64, transition: Transition) {
        if let Some(sink) = self.0 {
            let kind = match transition {
                Transition::Quarantine => EventKind::Quarantine,
                Transition::Release => EventKind::Release,
            };
            sink.event(TraceEvent { at_s, worker, kind });
        }
    }
}

/// (output key, output bytes) pairs, in completion order.
pub type JobOutputs = Vec<(String, Vec<u8>)>;

/// A paradigm-neutral pleasingly-parallel workload: independent inputs
/// plus the executor that maps each to its output.
#[derive(Clone)]
pub struct Workload {
    pub name: String,
    pub inputs: Vec<(TaskSpec, Vec<u8>)>,
    pub executor: Arc<dyn Executor>,
    /// Attempt budget per task (each paradigm maps this onto its own
    /// fault-tolerance mechanism).
    pub max_attempts: u32,
    /// Message-redelivery timeout for queue-based engines (the Classic
    /// Cloud visibility timeout). `None` keeps the engine's own default;
    /// engines without a redelivery queue ignore it.
    pub visibility_timeout: Option<std::time::Duration>,
}

impl Workload {
    pub fn new(
        name: impl Into<String>,
        inputs: Vec<(TaskSpec, Vec<u8>)>,
        executor: Arc<dyn Executor>,
    ) -> Workload {
        Workload {
            name: name.into(),
            inputs,
            executor,
            max_attempts: 4,
            visibility_timeout: None,
        }
    }

    /// The task specs alone (what the simulators consume).
    pub fn specs(&self) -> Vec<TaskSpec> {
        self.inputs.iter().map(|(t, _)| t.clone()).collect()
    }
}

/// One cloud paradigm, viewed uniformly: run a workload natively or
/// simulate a task set, both under one [`RunContext`]. Object-safe so
/// studies can hold `Vec<Box<dyn Engine>>` and iterate paradigms instead
/// of copy-pasting three call sites per scenario. Multi-stage
/// [`Workflow`]s run through the same trait via `run_workflow` /
/// `simulate_workflow` — a [`Workload`] is just the single-stage case
/// (`Workflow::from(workload)`).
pub trait Engine {
    /// Short platform name ("classic", "hadoop", "dryadlinq").
    fn name(&self) -> &str;

    /// Execute `workload` natively (real threads, real services) and
    /// return the shared report core plus the outputs.
    fn run(&self, ctx: &RunContext, workload: &Workload) -> Result<(RunReport, JobOutputs)>;

    /// Simulate `tasks` in virtual time and return the report core.
    fn simulate(&self, ctx: &RunContext, tasks: &[TaskSpec]) -> RunReport;

    /// Execute a multi-stage [`Workflow`] natively: topological stage
    /// order, adapter-resolved inter-stage payloads, materialization
    /// barriers, merged trace. The default drives every stage through
    /// [`Engine::run`].
    fn run_workflow(
        &self,
        ctx: &RunContext,
        wf: &Workflow,
    ) -> Result<(WorkflowReport, JobOutputs)> {
        run_workflow_with(self, ctx, wf)
    }

    /// Simulate a multi-stage [`Workflow`]: each stage through
    /// [`Engine::simulate`], stage start times from the DAG schedule plus
    /// the modeled materialization transfer on `Materialize` edges.
    fn simulate_workflow(&self, ctx: &RunContext, wf: &Workflow) -> Result<WorkflowReport> {
        simulate_workflow_with(self, ctx, wf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppc_compute::instance::EC2_HCXL;

    fn summary() -> RunSummary {
        RunSummary {
            platform: "classic-ec2".into(),
            cores: 16,
            tasks: 10,
            makespan_seconds: 12.5,
            redundant_executions: 1,
            remote_bytes: 1024,
        }
    }

    #[test]
    fn validate_checks_schedule_and_policy() {
        let cluster = Cluster::provision(EC2_HCXL, 2, 8);
        let ctx = RunContext::new(&cluster);
        assert!(ctx.validate().is_ok());
        let ok = ctx
            .clone()
            .with_schedule(Arc::new(FaultSchedule::hostile(7)))
            .with_resilience(ResiliencePolicy::legacy_speculation());
        assert!(ok.validate().is_ok());

        let bad_schedule = ctx
            .clone()
            .with_schedule(Arc::new(FaultSchedule::new(1).brownout(5.0, 1.0)));
        assert_eq!(
            bad_schedule.validate().unwrap_err().code(),
            "InvalidArgument"
        );
        let bad_policy = ctx.with_resilience(ResiliencePolicy::default().with_deadline(-1.0));
        assert_eq!(bad_policy.validate().unwrap_err().code(), "InvalidArgument");
    }

    #[test]
    fn fleet_accessors_enforce_shape() {
        let cluster = Cluster::provision(EC2_HCXL, 2, 8);
        let one = RunContext::new(&cluster);
        assert_eq!(one.fixed_fleets().unwrap().len(), 1);
        assert!(one.single_cluster().is_ok());

        let hybrid = RunContext::on_fleets(vec![cluster.clone(), cluster.clone()]);
        assert_eq!(hybrid.fixed_fleets().unwrap().len(), 2);
        assert!(hybrid.single_cluster().is_err());

        let elastic = RunContext::elastic(
            EC2_HCXL,
            AutoscaleConfig::target_tracking(1, 4, 4.0),
            vec![],
        );
        assert!(elastic.fixed_fleets().is_err());
        assert!(elastic.single_cluster().is_err());

        assert!(RunContext::on_fleets(vec![]).fixed_fleets().is_err());
    }

    #[test]
    fn report_json_embeds_summary() {
        let report = RunReport {
            summary: summary(),
            failed: vec![TaskId(3)],
            total_attempts: 11,
            worker_deaths: 2,
            cost: Some(CostBreakdown {
                compute_cost: ppc_core::money::Usd::cents(136),
                amortized_cost: ppc_core::money::Usd::cents(68),
            }),
            trace: None,
        };
        assert!(!report.is_complete());
        assert_eq!(report.redundant_attempts(), 1);
        let j = Json::parse(&report.to_json().to_string()).unwrap();
        let s = j.field("summary").unwrap();
        assert_eq!(
            s.field("platform").unwrap().as_str().unwrap(),
            "classic-ec2"
        );
        assert_eq!(s.field("tasks").unwrap().as_usize().unwrap(), 10);
        assert_eq!(
            j.field("failed").unwrap().as_arr().unwrap()[0]
                .as_u64()
                .unwrap(),
            3
        );
        assert_eq!(j.field("total_attempts").unwrap().as_usize().unwrap(), 11);
        assert!(
            (j.field("cost")
                .unwrap()
                .field("compute")
                .unwrap()
                .as_f64()
                .unwrap()
                - 1.36)
                .abs()
                < 1e-9
        );
        assert!(matches!(j.field("trace_spans").unwrap(), Json::Null));
    }

    /// Consumers parse report JSON by key; this pins the exact versioned
    /// key set so adding/removing/renaming one forces a schema bump here.
    #[test]
    fn report_json_key_set_is_versioned() {
        let report = RunReport {
            summary: summary(),
            failed: Vec::new(),
            total_attempts: 10,
            worker_deaths: 0,
            cost: None,
            trace: None,
        };
        let Json::Obj(fields) = report.to_json() else {
            panic!("report JSON must be an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "schema",
                "summary",
                "failed",
                "total_attempts",
                "worker_deaths",
                "cost",
                "trace_spans",
            ]
        );
        assert_eq!(fields[0].1, Json::from(REPORT_SCHEMA));
    }
}
