//! Workflow conformance: the Cap3 → BLAST → GTM pipeline is one DAG that
//! every paradigm must execute identically.
//!
//! Three contracts, mirroring `tests/cross_framework.rs` one level up:
//!
//! 1. **Byte identity** — the pipeline's final outputs are byte-identical
//!    across classic, mapreduce, and dryad, natively and under a hostile
//!    chaos schedule with hedging (the engines may retry and duplicate
//!    differently, but the *data* may not move).
//! 2. **DES determinism** — simulating the same workflow twice with the
//!    same seed yields the same `WorkflowReport` JSON, on every engine.
//! 3. **DAG order** — stage windows respect the edges: a downstream stage
//!    never starts before its upstream finished plus the materialization
//!    barrier, and the simulated materialization shows up as a nonzero
//!    `inter-stage materialization` bucket in the overhead decomposition.
//!
//! The chaos-schedule seed comes from `PPC_CHAOS_SEED` (the CI matrix
//! sweeps several), so conformance is pinned across fault patterns too.

use ppc::apps::pipeline::{bio_pipeline_native, bio_pipeline_sim};
use ppc::chaos::FaultSchedule;
use ppc::compute::cluster::Cluster;
use ppc::compute::instance::BARE_HPC16;
use ppc::exec::RunContext;
use ppc::resilience::{HedgeConfig, ResiliencePolicy};
use ppc::trace::{OverheadReport, INTER_STAGE_MATERIALIZATION};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Schedule seed: `PPC_CHAOS_SEED` if set (the CI matrix sweeps a few),
/// else a fixed default.
fn chaos_seed() -> u64 {
    std::env::var("PPC_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4242)
}

/// Key outputs by trailing file name so the paradigms' different
/// namespaces (bucket keys vs HDFS paths vs vertex channels) line up.
fn by_basename(outputs: ppc::exec::JobOutputs) -> BTreeMap<String, Vec<u8>> {
    outputs
        .into_iter()
        .map(|(k, v)| {
            let base = k.rsplit('/').next().unwrap().trim_end_matches(".out");
            (base.to_string(), v)
        })
        .collect()
}

/// Run the native pipeline on every engine under `ctx`; assert completeness
/// and cross-engine byte identity; return the canonical output set.
fn run_everywhere(ctx: &RunContext, label: &str) -> BTreeMap<String, Vec<u8>> {
    let wf = bio_pipeline_native(6, 24, 4242);
    let mut per_engine: Vec<(String, BTreeMap<String, Vec<u8>>)> = Vec::new();
    for engine in ppc::engines() {
        let (report, outputs) = engine
            .run_workflow(ctx, &wf)
            .unwrap_or_else(|e| panic!("[{label}] {} failed: {e}", engine.name()));
        assert!(
            report.is_complete(),
            "[{label}] {} dropped tasks",
            engine.name()
        );
        assert_eq!(report.stages.len(), 3, "[{label}] {}", engine.name());
        // Final outputs come from the sink stage only: one per input file.
        let keyed = by_basename(outputs);
        assert_eq!(keyed.len(), 6, "[{label}] {} output set", engine.name());
        // The sink outputs are GTM latent coordinates: decodable point
        // blocks, two columns each.
        for (k, bytes) in &keyed {
            let pts = ppc::apps::gtm::decode_points(bytes)
                .unwrap_or_else(|e| panic!("[{label}] {k} not a point block: {e}"));
            assert!(pts.rows() > 0, "[{label}] {k} empty");
            assert_eq!(pts.cols(), 2, "[{label}] {k} not latent coords");
        }
        per_engine.push((engine.name().to_string(), keyed));
    }
    let (first_name, first) = per_engine.remove(0);
    for (name, keyed) in &per_engine {
        assert_eq!(
            &first, keyed,
            "[{label}] outputs differ between {first_name} and {name}"
        );
    }
    first
}

/// Contract 1a: byte-identical final outputs on a clean fleet.
#[test]
fn pipeline_outputs_identical_across_engines() {
    let cluster = Cluster::provision(BARE_HPC16, 2, 2);
    let ctx = RunContext::new(&cluster).with_seed(7);
    run_everywhere(&ctx, "clean");
}

/// Contract 1b: the same bytes under a hostile chaos schedule with
/// hedging enabled — retries and duplicates must not change the data.
#[test]
fn pipeline_outputs_survive_chaos_and_hedging() {
    let cluster = Cluster::provision(BARE_HPC16, 2, 2);
    let clean = run_everywhere(&RunContext::new(&cluster).with_seed(7), "clean");
    let hostile = RunContext::new(&cluster)
        .with_seed(chaos_seed())
        .with_schedule(Arc::new(FaultSchedule::hostile(chaos_seed())))
        .with_resilience(ResiliencePolicy::hedged(HedgeConfig::quantile(30.0)));
    let chaotic = run_everywhere(&hostile, "chaos");
    assert_eq!(clean, chaotic, "chaos changed the pipeline's data");
}

/// Contract 2: simulating the same workflow twice with one seed produces
/// an identical report, per engine — the DES workflow path is a pure
/// function of (workflow, context).
#[test]
fn simulated_pipeline_is_deterministic() {
    let wf = bio_pipeline_sim(32);
    let cluster = Cluster::provision(ppc::compute::instance::EC2_HCXL, 4, 8);
    let ctx = RunContext::new(&cluster)
        .with_seed(chaos_seed())
        .with_schedule(Arc::new(FaultSchedule::hostile(chaos_seed())));
    for engine in ppc::engines() {
        let a = engine.simulate_workflow(&ctx, &wf).unwrap();
        let b = engine.simulate_workflow(&ctx, &wf).unwrap();
        assert_eq!(
            a.to_json().to_string(),
            b.to_json().to_string(),
            "{} simulate_workflow is nondeterministic",
            engine.name()
        );
    }
}

/// Contract 3a: stage windows respect the DAG — a stage starts only after
/// every upstream stage finished plus the materialization barrier, and
/// the workflow makespan covers the last stage.
#[test]
fn simulated_stages_respect_dag_order() {
    let wf = bio_pipeline_sim(32);
    let cluster = Cluster::provision(ppc::compute::instance::EC2_HCXL, 4, 8);
    let ctx = RunContext::new(&cluster).with_seed(chaos_seed());
    for engine in ppc::engines() {
        let report = engine.simulate_workflow(&ctx, &wf).unwrap();
        assert!(report.is_complete(), "{}", engine.name());
        for e in &wf.edges {
            let up = &report.stages[e.from];
            let down = &report.stages[e.to];
            assert!(
                down.start_s >= up.end_s,
                "{}: stage {} started at {} before upstream {} ended at {}",
                engine.name(),
                down.name,
                down.start_s,
                up.name,
                up.end_s
            );
            // Materialize edges pay a modeled, nonzero barrier.
            let cost = wf.materialize.transfer_s(wf.stages[e.from].output_bytes());
            assert!(cost > 0.0);
            assert!(
                down.materialize_s >= cost - 1e-9,
                "{}: {} barrier {} < modeled {}",
                engine.name(),
                down.name,
                down.materialize_s,
                cost
            );
        }
        assert!(report.materialize_s > 0.0, "{}", engine.name());
        let last_end = report
            .stages
            .iter()
            .map(|s| s.end_s)
            .fold(0.0_f64, f64::max);
        assert!(
            report.makespan_seconds >= last_end - 1e-9,
            "{}: makespan {} < last stage end {}",
            engine.name(),
            report.makespan_seconds,
            last_end
        );
    }
}

/// Contract 3b: the merged workflow trace decomposes with a nonzero
/// `inter-stage materialization` bucket that reconciles with the report's
/// own materialization total (the Eq. 1 bookkeeping extends to DAGs).
#[test]
fn simulated_materialization_fills_the_overhead_bucket() {
    let wf = bio_pipeline_sim(32);
    let cluster = Cluster::provision(ppc::compute::instance::EC2_HCXL, 4, 8);
    let ctx = RunContext::new(&cluster)
        .with_seed(chaos_seed())
        .with_trace(true);
    for engine in ppc::engines() {
        let report = engine.simulate_workflow(&ctx, &wf).unwrap();
        let trace = report
            .trace
            .as_ref()
            .unwrap_or_else(|| panic!("{} produced no workflow trace", engine.name()));
        let overhead = OverheadReport::from_trace(trace);
        let bucket = overhead
            .categories
            .iter()
            .find(|c| c.name == INTER_STAGE_MATERIALIZATION)
            .unwrap_or_else(|| panic!("{} taxonomy lacks the bucket", engine.name()));
        assert!(
            bucket.seconds > 0.0,
            "{}: empty materialization bucket",
            engine.name()
        );
        assert!(
            (bucket.seconds - report.materialize_s).abs() < 1e-6,
            "{}: bucket {} != report {}",
            engine.name(),
            bucket.seconds,
            report.materialize_s
        );
    }
}

/// At high utilization the Hadoop sim's speculative duplicates outlive the
/// per-stage makespan; the merged workflow trace must clamp those tails at
/// the stage barrier (a job teardown kills in-flight losers), or they
/// overlap the next stage on the same workers and Eq. 1's decomposition
/// overflows the `cores × horizon` budget. Regression for the bench-scale
/// failure only visible past ~8 waves per stage.
#[test]
fn merged_trace_bills_no_core_time_past_the_stage_barriers() {
    let wf = bio_pipeline_sim(256);
    let cluster = Cluster::provision(ppc::compute::instance::EC2_HCXL, 4, 8);
    let ctx = RunContext::new(&cluster).with_seed(42).with_trace(true);
    for engine in ppc::engines() {
        let report = engine.simulate_workflow(&ctx, &wf).unwrap();
        let trace = report.trace.as_ref().unwrap();
        let overhead = OverheadReport::from_trace(trace);
        // No span escapes the workflow window…
        assert!(
            overhead.horizon_s <= report.makespan_seconds + 1e-9,
            "{}: horizon {} > makespan {}",
            engine.name(),
            overhead.horizon_s,
            report.makespan_seconds
        );
        // …so the Eq. 1 identity closes over the core-time budget.
        let budget = overhead.cores as f64 * overhead.horizon_s;
        let accounted = overhead.compute_s
            + overhead.categories.iter().map(|c| c.seconds).sum::<f64>()
            + overhead.idle_s;
        assert!(
            (budget - accounted).abs() / budget < 1e-6,
            "{}: Eq. 1 does not close: budget {budget} vs accounted {accounted}",
            engine.name()
        );
    }
}

/// The `From<Workload>` lift: running a plain workload through
/// `run_workflow` is the same computation as `run` — identical outputs,
/// one stage, no barriers.
#[test]
fn workload_lifts_to_a_single_stage_workflow() {
    use ppc::apps::cap3::Cap3Executor;
    use ppc::apps::workload::cap3_native_inputs;
    use ppc::exec::{Workflow, Workload};

    let inputs = cap3_native_inputs(5, 25, 800, 99);
    let cluster = Cluster::provision(BARE_HPC16, 2, 2);
    let ctx = RunContext::new(&cluster).with_seed(5);
    for engine in ppc::engines() {
        let workload = Workload::new("lift", inputs.clone(), Arc::new(Cap3Executor::new()));
        let (_, direct) = engine
            .run(&ctx, &workload)
            .unwrap_or_else(|e| panic!("{} run failed: {e}", engine.name()));
        let wf = Workflow::from(workload);
        assert_eq!(wf.stages.len(), 1);
        assert!(wf.edges.is_empty());
        let (report, lifted) = engine
            .run_workflow(&ctx, &wf)
            .unwrap_or_else(|e| panic!("{} run_workflow failed: {e}", engine.name()));
        assert!(report.is_complete(), "{}", engine.name());
        assert_eq!(report.materialize_s, 0.0, "{}", engine.name());
        assert_eq!(
            by_basename(direct),
            by_basename(lifted),
            "{}: lifted workload diverged from direct run",
            engine.name()
        );
    }
}
