//! Trace conformance suite: every engine's span trace is structurally
//! sound and numerically agrees with the engine's own report.
//!
//! All six entry points (Classic, Hadoop, Dryad — native and simulated)
//! run under the same hostile [`FaultSchedule`] with tracing on, and every
//! produced [`ppc::trace::Trace`] must satisfy:
//!
//! 1. **Well-formedness** — finite non-negative durations, one Attempt
//!    parent per `(task, attempt)`, every phase span inside its parent.
//! 2. **One terminal span per completed task** — exactly one ack / commit
//!    / write per finished task. (Classic *native* allows more than one:
//!    a visibility-timeout race can double-deliver a task, and both
//!    deliveries legitimately complete — the store stays idempotent.)
//! 3. **Chaos re-executions are distinct attempts** — a re-run task shows
//!    several Attempt spans under the same task id, never a mutated first
//!    attempt.
//! 4. **Eq. 1 agreement** — parallel efficiency recomputed from the trace
//!    matches the engine's reported value to 1e-9.
//!
//! The schedule seed comes from `PPC_CHAOS_SEED` (CI sweeps several), so
//! the invariants must hold for any seed.

use ppc::chaos::FaultSchedule;
use ppc::classic::spec::JobSpec;
use ppc::classic::{run as classic_run, ClassicConfig};
use ppc::classic::{simulate as classic_simulate, SimConfig};
use ppc::compute::cluster::Cluster;
use ppc::compute::instance::{BARE_CAP3, EC2_HCXL};
use ppc::core::exec::{Executor, FnExecutor};
use ppc::core::task::{ResourceProfile, TaskSpec};
use ppc::dryad::{run as dryad_run, DryadConfig};
use ppc::dryad::{simulate as dryad_simulate, DryadSimConfig};
use ppc::exec::RunContext;
use ppc::hdfs::fs::MiniHdfs;
use ppc::mapreduce::job::{ExecutableMapper, MapReduceJob};
use ppc::mapreduce::{run as hadoop_run, HadoopConfig};
use ppc::mapreduce::{simulate as hadoop_simulate, HadoopSimConfig};
use ppc::queue::service::QueueService;
use ppc::storage::service::StorageService;
use ppc::trace::{EventKind, Recorder, Trace, TraceSink};
use std::sync::Arc;
use std::time::Duration;

const N_TASKS: u64 = 40;

/// Schedule seed: `PPC_CHAOS_SEED` if set (the CI matrix sweeps a few),
/// else a fixed default.
fn chaos_seed() -> u64 {
    std::env::var("PPC_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4242)
}

fn hostile() -> Arc<FaultSchedule> {
    Arc::new(FaultSchedule::hostile(chaos_seed()))
}

/// `ctx` recording a native run's spans.
fn recorded(ctx: RunContext) -> RunContext {
    ctx.with_sink(Arc::new(Recorder::new()) as Arc<dyn TraceSink>)
}

fn reverse_executor() -> Arc<dyn Executor> {
    FnExecutor::new("rev", |_s, input: &[u8]| {
        std::thread::sleep(Duration::from_millis(2));
        let mut v = input.to_vec();
        v.reverse();
        Ok(v)
    })
}

fn sim_tasks(n: u64) -> Vec<TaskSpec> {
    (0..n)
        .map(|i| {
            let mut p = ResourceProfile::cpu_bound(10.0);
            p.input_bytes = 200 << 10;
            p.output_bytes = 100 << 10;
            TaskSpec::new(i, "cap3", format!("f{i}"), p)
        })
        .collect()
}

/// The shared contract: structural soundness, terminal-span counts, attempt
/// distinctness, and Eq. 1 agreement with the engine's summary.
///
/// `max_terminal` is 1 everywhere except Classic native, where a benign
/// visibility-timeout race can complete a task twice (both attempts ack).
fn assert_conformant(
    trace: &Trace,
    summary: &ppc::core::metrics::RunSummary,
    reported_reruns: usize,
    max_terminal: usize,
) {
    // 1. Well-formedness.
    let problems = trace.check_well_formed();
    assert!(problems.is_empty(), "{}: {problems:?}", summary.platform);

    // The job root exists and carries the engine's exact makespan.
    let job = trace.job_span().expect("job span recorded");
    assert_eq!(
        job.duration_s(),
        summary.makespan_seconds,
        "{}: job span must carry the reported makespan",
        summary.platform
    );
    assert_eq!(trace.meta().cores, summary.cores, "{}", summary.platform);

    // 2. Terminal spans: every completed task has at least one, and no
    //    more than the paradigm's bound.
    let completed = trace.completed_tasks();
    assert_eq!(
        completed.len(),
        summary.tasks,
        "{}: completed tasks in trace vs summary",
        summary.platform
    );
    for &task in &completed {
        let n = trace.terminal_spans_of(task);
        assert!(
            (1..=max_terminal).contains(&n),
            "{}: task {task} has {n} terminal spans (bound {max_terminal})",
            summary.platform
        );
    }

    // 3. Chaos re-executions show up as distinct attempts of the same
    //    task, never as overwritten ordinals: when the engine reports
    //    re-runs, some task must carry more than one Attempt span.
    let extra_attempts: usize = trace
        .task_ids()
        .iter()
        .map(|&t| trace.attempts_of(t).len().saturating_sub(1))
        .sum();
    if reported_reruns > 0 {
        assert!(
            extra_attempts > 0,
            "{}: engine reported {reported_reruns} re-runs but every task \
             has a single attempt",
            summary.platform
        );
    }

    // 4. Eq. 1 recomputed from the trace matches the engine to 1e-9 for an
    //    arbitrary sequential baseline.
    let t1 = 1234.5;
    let from_trace = trace.parallel_efficiency(t1);
    let from_engine = summary.efficiency(t1);
    assert!(
        (from_trace - from_engine).abs() < 1e-9,
        "{}: Eq. 1 mismatch: trace {from_trace} vs engine {from_engine}",
        summary.platform
    );
}

#[test]
fn classic_native_trace_conforms() {
    let storage = StorageService::in_memory();
    let queues = QueueService::new();
    let cluster = Cluster::provision(EC2_HCXL, 2, 2);
    let tasks: Vec<TaskSpec> = (0..N_TASKS)
        .map(|i| TaskSpec::new(i, "rev", format!("f{i}"), ResourceProfile::cpu_bound(0.0)))
        .collect();
    let job = JobSpec::new("trace-conform", tasks)
        .with_visibility_timeout(Duration::from_millis(30))
        .with_max_deliveries(20);
    storage.create_bucket(&job.input_bucket).unwrap();
    for i in 0..N_TASKS {
        storage
            .put(
                &job.input_bucket,
                &format!("f{i}"),
                format!("p{i}").into_bytes(),
            )
            .unwrap();
    }
    let report = classic_run(
        &recorded(RunContext::new(&cluster).with_schedule(hostile())),
        &storage,
        &queues,
        &job,
        reverse_executor(),
        &ClassicConfig::default(),
    )
    .unwrap();
    assert!(report.is_complete(), "failed: {:?}", report.failed);

    let trace = report.trace.as_ref().expect("trace recorded");
    // Classic native: double-ack under the visibility-timeout race is
    // benign, so completed tasks may hold more than one terminal span.
    let reruns = report.total_attempts.saturating_sub(N_TASKS as usize);
    assert_conformant(trace, &report.summary, reruns, usize::MAX);
    // Fleet lifecycle made it into the trace: every worker announced.
    assert_eq!(
        trace.events_of_kind(EventKind::WorkerStart),
        report.summary.cores,
        "one WorkerStart per worker"
    );
}

#[test]
fn classic_sim_trace_conforms() {
    let cluster = Cluster::provision(EC2_HCXL, 4, 8);
    let tasks = sim_tasks(64);
    let cfg = SimConfig::ec2().with_failures(0.0, 60.0);
    let report = classic_simulate(
        &RunContext::new(&cluster)
            .with_schedule(hostile())
            .with_trace(true),
        &tasks,
        &cfg,
    );
    assert!(report.is_complete());
    let trace = report.trace.as_ref().expect("trace recorded");
    let reruns = report.total_attempts.saturating_sub(64);
    assert_conformant(trace, &report.summary, reruns, 1);
}

#[test]
fn hadoop_native_trace_conforms() {
    let fs = MiniHdfs::new(3, 1 << 20, 2, 77);
    let mut paths = Vec::new();
    for i in 0..N_TASKS {
        let p = format!("/in/f{i}");
        fs.create(&p, format!("p{i}").as_bytes(), None).unwrap();
        paths.push(p);
    }
    let mut job = MapReduceJob::map_only("trace-conform", paths, "/out");
    job.max_attempts = 8;
    let mapper = ExecutableMapper::new("rev", reverse_executor());
    let ctx = recorded(RunContext::local().with_schedule(hostile()));
    let report = hadoop_run(&ctx, &fs, &job, &mapper, &HadoopConfig::default()).unwrap();
    assert!(report.is_complete(), "failed: {:?}", report.failed);

    let trace = report.trace.as_ref().expect("trace recorded");
    let reruns = report.total_attempts.saturating_sub(N_TASKS as usize);
    // The output committer admits exactly one attempt per task.
    assert_conformant(trace, &report.summary, reruns, 1);
}

#[test]
fn hadoop_sim_trace_conforms() {
    let cluster = Cluster::provision(BARE_CAP3, 4, 8);
    let tasks = sim_tasks(64);
    let report = hadoop_simulate(
        &RunContext::new(&cluster)
            .with_schedule(hostile())
            .with_trace(true),
        &tasks,
        &HadoopSimConfig::default(),
    );
    assert!(report.is_complete(), "failed: {:?}", report.failed);
    let trace = report.trace.as_ref().expect("trace recorded");
    let reruns = report.total_attempts.saturating_sub(64);
    assert_conformant(trace, &report.summary, reruns, 1);
}

#[test]
fn dryad_native_trace_conforms() {
    let cluster = Cluster::provision(BARE_CAP3, 2, 2);
    let inputs: Vec<(TaskSpec, Vec<u8>)> = (0..N_TASKS)
        .map(|i| {
            (
                TaskSpec::new(i, "rev", format!("f{i}"), ResourceProfile::cpu_bound(0.0)),
                format!("p{i}").into_bytes(),
            )
        })
        .collect();
    let (report, outputs) = dryad_run(
        &recorded(RunContext::new(&cluster).with_schedule(hostile())),
        inputs,
        reverse_executor(),
        &DryadConfig::default(),
    )
    .unwrap();
    assert_eq!(outputs.len(), N_TASKS as usize);

    let trace = report.trace.as_ref().expect("trace recorded");
    assert_conformant(trace, &report.summary, report.vertex_retries, 1);
}

#[test]
fn dryad_sim_trace_conforms() {
    let cluster = Cluster::provision(BARE_CAP3, 4, 8);
    let tasks = sim_tasks(64);
    let report = dryad_simulate(
        &RunContext::new(&cluster)
            .with_schedule(hostile())
            .with_trace(true),
        &tasks,
        &DryadSimConfig::default(),
    );
    assert_eq!(report.vertex_failures, 0);
    let trace = report.trace.as_ref().expect("trace recorded");
    assert_conformant(trace, &report.summary, report.vertex_retries, 1);
}
