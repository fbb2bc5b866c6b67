//! Sim-vs-native trace parity: for each paradigm, the discrete-event
//! simulator and the native engine describe a run in the *same language*.
//!
//! On a tiny Cap3-shaped workload, both traces of a paradigm must expose
//! the same lifecycle phase set for every winning attempt (with the
//! Hadoop local/remote read distinction normalized — which replica a
//! split lands on is placement luck, not vocabulary) and decompose into
//! the same overhead categories via [`OverheadReport`]. The *values*
//! legitimately differ: the sim runs modeled 2010 hardware, the native
//! engines run on this machine.

use ppc::classic::spec::JobSpec;
use ppc::classic::{run as classic_run, ClassicConfig};
use ppc::classic::{simulate as classic_simulate, SimConfig};
use ppc::compute::cluster::Cluster;
use ppc::compute::instance::{BARE_CAP3, EC2_HCXL};
use ppc::compute::model::AppModel;
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
use ppc::trace::{OverheadReport, Phase, Recorder, Trace, TraceSink};
use std::collections::BTreeSet;
use std::sync::Arc;

const N_TASKS: u64 = 12;

/// A Cap3-shaped assembly stub: enough bytes and a fixed transform that
/// both native engines can actually execute.
fn cap3_executor() -> Arc<dyn Executor> {
    FnExecutor::new("cap3", |_s, input: &[u8]| {
        let mut v = input.to_vec();
        v.reverse();
        Ok(v)
    })
}

/// The sim side of the same workload: small Cap3 reads, modeled compute.
/// `ctx` recording a native run's spans.
fn recorded(ctx: RunContext) -> RunContext {
    ctx.with_sink(Arc::new(Recorder::new()) as Arc<dyn TraceSink>)
}

fn cap3_sim_tasks() -> Vec<TaskSpec> {
    (0..N_TASKS)
        .map(|i| {
            let mut p = ResourceProfile::cpu_bound(5.0);
            p.input_bytes = 64 << 10;
            p.output_bytes = 32 << 10;
            TaskSpec::new(i, "cap3", format!("reads/f{i}.fa"), p)
        })
        .collect()
}

/// Union of lifecycle phases over every completed task's winning attempt,
/// with the read-placement distinction folded away.
fn normalized_phases(trace: &Trace) -> BTreeSet<Phase> {
    trace
        .completed_tasks()
        .iter()
        .flat_map(|&t| trace.terminal_attempt_phases(t))
        .map(|p| {
            if p == Phase::ReadRemote {
                Phase::ReadLocal
            } else {
                p
            }
        })
        .collect()
}

fn assert_parity(native: &Trace, sim: &Trace) {
    let np = normalized_phases(native);
    let sp = normalized_phases(sim);
    assert_eq!(
        np,
        sp,
        "phase vocabulary differs: native {:?} vs sim {:?}",
        native.meta().platform,
        sim.meta().platform
    );
    let no = OverheadReport::from_trace(native);
    let so = OverheadReport::from_trace(sim);
    assert_eq!(no.paradigm, so.paradigm);
    assert_eq!(
        no.category_names(),
        so.category_names(),
        "overhead taxonomy differs between native and sim"
    );
    // Both decompositions carry real work in the compute bucket.
    assert!(so.compute_s > 0.0, "sim compute bucket empty");
}

#[test]
fn classic_native_and_sim_speak_the_same_trace_language() {
    // Native run.
    let storage = StorageService::in_memory();
    let queues = QueueService::new();
    let cluster = Cluster::provision(EC2_HCXL, 2, 2);
    let tasks: Vec<TaskSpec> = (0..N_TASKS)
        .map(|i| {
            TaskSpec::new(
                i,
                "cap3",
                format!("f{i}.fa"),
                ResourceProfile::cpu_bound(0.0),
            )
        })
        .collect();
    let job = JobSpec::new("cap3-parity", tasks);
    storage.create_bucket(&job.input_bucket).unwrap();
    for i in 0..N_TASKS {
        storage
            .put(&job.input_bucket, &format!("f{i}.fa"), vec![b'A'; 512])
            .unwrap();
    }
    let native = classic_run(
        &recorded(RunContext::new(&cluster)),
        &storage,
        &queues,
        &job,
        cap3_executor(),
        &ClassicConfig::default(),
    )
    .unwrap();
    assert!(native.is_complete());

    // Simulated run of the same shape.
    let cluster = Cluster::provision(EC2_HCXL, 2, 2);
    let cfg = SimConfig::ec2().with_app(AppModel::cap3());
    let ctx = RunContext::new(&cluster).with_trace(true);
    let sim = classic_simulate(&ctx, &cap3_sim_tasks(), &cfg);
    assert!(sim.is_complete());

    assert_parity(native.trace.as_ref().unwrap(), sim.trace.as_ref().unwrap());
}

#[test]
fn hadoop_native_and_sim_speak_the_same_trace_language() {
    let fs = MiniHdfs::new(2, 1 << 20, 2, 7);
    let mut paths = Vec::new();
    for i in 0..N_TASKS {
        let p = format!("/reads/f{i}.fa");
        fs.create(&p, &vec![b'A'; 512], None).unwrap();
        paths.push(p);
    }
    let job = MapReduceJob::map_only("cap3-parity", paths, "/out");
    let mapper = ExecutableMapper::new("cap3", cap3_executor());
    let ctx = recorded(RunContext::local());
    let native = hadoop_run(&ctx, &fs, &job, &mapper, None, &HadoopConfig::default()).unwrap();
    assert!(native.is_complete());

    let cluster = Cluster::provision(BARE_CAP3, 2, 2);
    let cfg = HadoopSimConfig {
        app: AppModel::cap3(),
        ..HadoopSimConfig::default()
    };
    let ctx = RunContext::new(&cluster).with_trace(true);
    let sim = hadoop_simulate(&ctx, &cap3_sim_tasks(), &cfg);
    assert!(sim.is_complete());

    assert_parity(native.trace.as_ref().unwrap(), sim.trace.as_ref().unwrap());
}

#[test]
fn dryad_native_and_sim_speak_the_same_trace_language() {
    let cluster = Cluster::provision(BARE_CAP3, 2, 2);
    let inputs: Vec<(TaskSpec, Vec<u8>)> = (0..N_TASKS)
        .map(|i| {
            (
                TaskSpec::new(
                    i,
                    "cap3",
                    format!("f{i}.fa"),
                    ResourceProfile::cpu_bound(0.0),
                ),
                vec![b'A'; 512],
            )
        })
        .collect();
    let ctx = recorded(RunContext::new(&cluster));
    let (native, outputs) =
        dryad_run(&ctx, inputs, cap3_executor(), &DryadConfig::default()).unwrap();
    assert_eq!(outputs.len(), N_TASKS as usize);

    let cluster = Cluster::provision(BARE_CAP3, 2, 2);
    let cfg = DryadSimConfig {
        app: AppModel::cap3(),
        ..DryadSimConfig::default()
    };
    let ctx = RunContext::new(&cluster).with_trace(true);
    let sim = dryad_simulate(&ctx, &cap3_sim_tasks(), &cfg);

    assert_parity(native.trace.as_ref().unwrap(), sim.trace.as_ref().unwrap());
}
