//! Cross-framework integration: the same application inputs produce
//! byte-identical outputs on all three paradigms — the paper's implicit
//! contract that the frameworks are interchangeable wrappers around one
//! executable.

use ppc::apps::cap3::Cap3Executor;
use ppc::apps::workload::cap3_native_inputs;
use ppc::classic::spec::JobSpec;
use ppc::classic::{run as classic_run, ClassicConfig};
use ppc::compute::cluster::Cluster;
use ppc::compute::instance::{BARE_HPC16, EC2_HCXL};
use ppc::core::exec::Executor;
use ppc::dryad::{run as dryad_run, DryadConfig};
use ppc::exec::RunContext;
use ppc::hdfs::fs::MiniHdfs;
use ppc::mapreduce::job::{ExecutableMapper, MapReduceJob};
use ppc::mapreduce::{run as hadoop_run, HadoopConfig};
use ppc::queue::service::QueueService;
use ppc::storage::service::StorageService;
use std::collections::HashMap;
use std::sync::Arc;

/// Run Cap3 on all three frameworks; collect output maps keyed by task.
#[test]
fn cap3_outputs_identical_across_frameworks() {
    let inputs = cap3_native_inputs(10, 30, 900, 4242);
    let executor: Arc<Cap3Executor> = Arc::new(Cap3Executor::new());

    // --- Classic Cloud ---
    let storage = StorageService::in_memory();
    let queues = QueueService::new();
    let cluster = Cluster::provision(EC2_HCXL, 1, 4);
    let job = JobSpec::new("x", inputs.iter().map(|(t, _)| t.clone()).collect());
    storage.create_bucket(&job.input_bucket).unwrap();
    for (spec, payload) in &inputs {
        storage
            .put(&job.input_bucket, &spec.input_key, payload.clone())
            .unwrap();
    }
    let classic_report = classic_run(
        &RunContext::new(&cluster),
        &storage,
        &queues,
        &job,
        executor.clone(),
        &ClassicConfig::default(),
    )
    .unwrap();
    assert!(classic_report.is_complete());
    let classic_outputs: HashMap<String, Vec<u8>> = inputs
        .iter()
        .map(|(spec, _)| {
            (
                spec.input_key.clone(),
                storage
                    .get(&job.output_bucket, &spec.output_key)
                    .unwrap()
                    .to_vec(),
            )
        })
        .collect();

    // --- Hadoop ---
    let fs = MiniHdfs::with_defaults(3);
    let mut paths = Vec::new();
    for (spec, payload) in &inputs {
        let path = format!("/in/{}", spec.input_key.replace('/', "_"));
        fs.create(&path, payload, None).unwrap();
        paths.push(path);
    }
    let mr = MapReduceJob::map_only("x", paths, "/out");
    let mapper = ExecutableMapper::new("cap3", executor.clone());
    let hadoop_report = hadoop_run(
        &RunContext::local(),
        &fs,
        &mr,
        &mapper,
        &HadoopConfig::default(),
    )
    .unwrap();
    assert!(hadoop_report.is_complete());

    // --- DryadLINQ ---
    let dryad_cluster = Cluster::provision(BARE_HPC16, 2, 2);
    let (dryad_report, dryad_outputs) = dryad_run(
        &RunContext::new(&dryad_cluster),
        inputs.clone(),
        executor.clone(),
        &DryadConfig::default(),
    )
    .unwrap();
    assert_eq!(dryad_report.summary.tasks, inputs.len());
    let dryad_map: HashMap<String, Vec<u8>> = dryad_outputs.into_iter().collect();

    // --- Compare ---
    for (spec, _) in &inputs {
        let classic = &classic_outputs[&spec.input_key];
        let hadoop_path = format!("/out/{}.out", spec.input_key.replace('/', "_"));
        let hadoop = fs.read(&hadoop_path).unwrap();
        let dryad = &dryad_map[&spec.output_key];
        assert_eq!(
            classic, &hadoop,
            "classic vs hadoop differ on {}",
            spec.input_key
        );
        assert_eq!(
            classic, dryad,
            "classic vs dryad differ on {}",
            spec.input_key
        );
        // And the output is meaningful: valid FASTA with a contig.
        let recs = ppc::bio::fasta::parse(classic).unwrap();
        assert!(!recs.is_empty());
    }
}

/// The executable contract: re-running a task gives identical bytes, so
/// duplicate execution on ANY framework is safe.
#[test]
fn idempotence_holds_for_all_executables() {
    use ppc::apps::blast::BlastExecutor;
    use ppc::apps::gtm::GtmExecutor;
    use ppc::apps::workload::{blast_native_inputs, gtm_native_inputs};
    use ppc::bio::blast::BlastDb;
    use ppc::bio::simulate::ProteinDbParams;
    use ppc::gtm::train::{train, TrainConfig};

    // Cap3.
    let cap3_inputs = cap3_native_inputs(2, 25, 700, 77);
    let cap3 = Cap3Executor::new();
    for (spec, payload) in &cap3_inputs {
        assert_eq!(
            cap3.run(spec, payload).unwrap(),
            cap3.run(spec, payload).unwrap()
        );
    }
    // BLAST (small DB: this is a semantics test, not a throughput test).
    let small_db = ProteinDbParams {
        n_families: 6,
        members_per_family: 2,
        len_min: 100,
        len_max: 200,
        divergence: 0.12,
    };
    let (db_recs, blast_inputs) = blast_native_inputs(2, 4, &small_db, 78);
    let blast = BlastExecutor::new(Arc::new(BlastDb::build(db_recs, 3)));
    for (spec, payload) in &blast_inputs {
        assert_eq!(
            blast.run(spec, payload).unwrap(),
            blast.run(spec, payload).unwrap()
        );
    }
    // GTM.
    let (sample, gtm_inputs) = gtm_native_inputs(2, 60, 24, 79);
    let model = train(
        &sample,
        &TrainConfig {
            grid_side: 5,
            rbf_side: 3,
            iterations: 6,
            lambda: 1e-3,
        },
    )
    .unwrap();
    let gtm = GtmExecutor::new(Arc::new(model));
    for (spec, payload) in &gtm_inputs {
        assert_eq!(
            gtm.run(spec, payload).unwrap(),
            gtm.run(spec, payload).unwrap()
        );
    }
}

/// The same contract once more, but through the paradigm-generic
/// [`ppc::exec::Engine`] interface: one `Workload`, one `RunContext`,
/// three engines iterated in a loop — byte-identical outputs per task.
#[test]
fn engine_trait_runs_the_same_workload_on_all_paradigms() {
    use ppc::exec::Workload;
    use std::collections::BTreeMap;

    let inputs = cap3_native_inputs(6, 30, 900, 77);
    let workload = Workload::new(
        "cap3-engines",
        inputs.clone(),
        Arc::new(Cap3Executor::new()),
    );
    let cluster = Cluster::provision(BARE_HPC16, 2, 2);
    let ctx = RunContext::new(&cluster).with_seed(5);

    let mut per_engine: Vec<(String, BTreeMap<String, Vec<u8>>)> = Vec::new();
    for engine in ppc::engines() {
        let (report, outputs) = engine.run(&ctx, &workload).unwrap();
        assert!(
            report.is_complete(),
            "{} dropped tasks: {:?}",
            engine.name(),
            report.failed
        );
        assert_eq!(report.summary.tasks, inputs.len(), "{}", engine.name());
        // Key outputs by the trailing task file name so the paradigms'
        // different namespaces (bucket keys vs HDFS paths) line up.
        let keyed: BTreeMap<String, Vec<u8>> = outputs
            .into_iter()
            .map(|(k, v)| {
                let base = k.rsplit('/').next().unwrap().trim_end_matches(".out");
                (base.to_string(), v)
            })
            .collect();
        assert_eq!(keyed.len(), inputs.len(), "{} output set", engine.name());
        per_engine.push((engine.name().to_string(), keyed));
    }
    let (first_name, first) = &per_engine[0];
    for (name, keyed) in &per_engine[1..] {
        assert_eq!(
            first, keyed,
            "outputs differ between {first_name} and {name}"
        );
    }
}

/// Chaos for the seed tests: i.i.d. death dice only, seeded by the
/// schedule itself, so which attempts die does not depend on the run seed.
fn seeded_dice() -> Arc<ppc::chaos::FaultSchedule> {
    Arc::new(ppc::chaos::FaultSchedule::new(13).with_death_probabilities(0.05, 0.02, 0.02))
}

/// The seed lives on the context alone. A context without one runs each
/// simulator at its fixed default seed (42), bit for bit, and different
/// context seeds give different reports.
#[test]
fn unseeded_context_reproduces_default_seed_in_every_simulator() {
    use ppc::compute::instance::BARE_CAP3;
    use ppc::core::task::{ResourceProfile, TaskSpec};
    let tasks: Vec<TaskSpec> = (0..48)
        .map(|i| {
            let mut p = ResourceProfile::cpu_bound(20.0 + (i % 7) as f64);
            p.input_bytes = 100 << 10;
            p.output_bytes = 50 << 10;
            TaskSpec::new(i, "cap3", format!("f{i}"), p)
        })
        .collect();
    let classic = Cluster::provision(EC2_HCXL, 2, 8);
    let bare = Cluster::provision(BARE_CAP3, 2, 8);
    for engine in ppc::engines() {
        let cluster = if engine.name() == "classic" {
            &classic
        } else {
            &bare
        };
        let digest = |seed: Option<u64>| {
            let mut ctx = RunContext::new(cluster).with_schedule(seeded_dice());
            if let Some(seed) = seed {
                ctx = ctx.with_seed(seed);
            }
            engine.simulate(&ctx, &tasks).to_json().to_string()
        };
        let name = engine.name();
        assert_eq!(digest(None), digest(Some(42)), "{name}: default seed");
        assert_ne!(digest(Some(1)), digest(Some(2)), "{name}: seed ignored");
    }
}

/// Native Dryad takes no context seed: its fault dice come from the
/// schedule's own seed and its in-slot re-runs never back off, so no seed,
/// seed 1 and any other seed give the same chaos outcomes (the runtime's
/// hash-based fault dice make which tasks died and recovered
/// deterministic).
#[test]
fn context_seed_leaves_native_dryad_outcomes_unchanged() {
    use ppc::compute::instance::BARE_CAP3;
    use ppc::core::exec::FnExecutor;
    use ppc::core::task::{ResourceProfile, TaskSpec};
    let cluster = Cluster::provision(BARE_CAP3, 2, 2);
    let inputs: Vec<(TaskSpec, Vec<u8>)> = (0..16)
        .map(|i| {
            (
                TaskSpec::new(i, "rev", format!("f{i}"), ResourceProfile::cpu_bound(0.0)),
                format!("p{i}").into_bytes(),
            )
        })
        .collect();
    let reverse: Arc<dyn Executor> = FnExecutor::new("rev", |_s: &TaskSpec, input: &[u8]| {
        let mut v = input.to_vec();
        v.reverse();
        Ok(v)
    });
    let run = |seed: Option<u64>| {
        let mut ctx = RunContext::new(&cluster).with_schedule(seeded_dice());
        if let Some(seed) = seed {
            ctx = ctx.with_seed(seed);
        }
        let cfg = DryadConfig::default();
        let (report, _) = dryad_run(&ctx, inputs.clone(), reverse.clone(), &cfg).unwrap();
        (
            report.summary.tasks,
            report.worker_deaths,
            report.core.total_attempts,
        )
    };
    let unseeded = run(None);
    assert!(
        unseeded.1 > 0,
        "the schedule must kill some vertex attempts"
    );
    assert_eq!(unseeded, run(Some(1)));
    assert_eq!(unseeded, run(Some(0xd12ad)));
}

/// Every entry point checks the context up front: a malformed fault
/// schedule or resilience policy makes the three native runtimes return
/// `InvalidArgument` before any worker runs a task, and the three
/// simulators panic with the same message.
#[test]
fn every_entry_point_rejects_a_bad_context() {
    use ppc::chaos::FaultSchedule;
    use ppc::core::exec::FnExecutor;
    use ppc::core::task::{ResourceProfile, TaskSpec};
    use ppc::resilience::ResiliencePolicy;
    use std::sync::atomic::{AtomicUsize, Ordering};

    let cluster = Cluster::provision(BARE_HPC16, 1, 2);
    let bad_contexts = [
        (
            RunContext::new(&cluster)
                .with_schedule(Arc::new(FaultSchedule::new(1).brownout(5.0, 1.0))),
            "fault schedule",
        ),
        (
            RunContext::new(&cluster)
                .with_resilience(ResiliencePolicy::default().with_deadline(-1.0)),
            "deadline config",
        ),
    ];
    let inputs: Vec<(TaskSpec, Vec<u8>)> = (0..4)
        .map(|i| {
            let spec = TaskSpec::new(i, "id", format!("f{i}"), ResourceProfile::cpu_bound(1.0));
            (spec, vec![i as u8])
        })
        .collect();
    let specs: Vec<TaskSpec> = inputs.iter().map(|(t, _)| t.clone()).collect();
    let calls = Arc::new(AtomicUsize::new(0));
    let counted = calls.clone();
    let executor: Arc<dyn Executor> = FnExecutor::new("id", move |_s: &TaskSpec, i: &[u8]| {
        counted.fetch_add(1, Ordering::Relaxed);
        Ok(i.to_vec())
    });

    for (ctx, message) in &bad_contexts {
        // Native: an error, and no task ever reached a worker.
        let storage = StorageService::in_memory();
        let queues = QueueService::new();
        let job = JobSpec::new("bad", specs.clone());
        let classic = classic_run(
            ctx,
            &storage,
            &queues,
            &job,
            executor.clone(),
            &ClassicConfig::default(),
        );
        let fs = MiniHdfs::with_defaults(1);
        fs.create("/in/f0", b"x", None).unwrap();
        let mr = MapReduceJob::map_only("bad", vec!["/in/f0".into()], "/out");
        let mapper = ExecutableMapper::new("id", executor.clone());
        let hadoop = hadoop_run(ctx, &fs, &mr, &mapper, &HadoopConfig::default());
        let dryad = dryad_run(
            ctx,
            inputs.clone(),
            executor.clone(),
            &DryadConfig::default(),
        );
        for (name, err) in [
            ("classic", classic.map(|_| ()).unwrap_err()),
            ("mapreduce", hadoop.map(|_| ()).unwrap_err()),
            ("dryad", dryad.map(|_| ()).unwrap_err()),
        ] {
            assert_eq!(err.code(), "InvalidArgument", "{name}: {err}");
            assert!(err.to_string().contains(message), "{name}: {err}");
        }
        assert_eq!(calls.load(Ordering::Relaxed), 0, "a worker ran a task");

        // Simulated: a panic carrying the same message.
        for engine in ppc::engines() {
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                engine.simulate(ctx, &specs)
            }))
            .expect_err("a bad context must panic");
            let got = panic.downcast_ref::<String>().expect("formatted message");
            assert!(got.contains(message), "{}: {got}", engine.name());
        }
    }
}

/// Concurrency guard: on a 1-node × 2-slot fleet, every native engine runs
/// a 2-task stage's tasks side by side. Each task waits at a two-party
/// rendezvous and fails if its partner has not arrived within 10 s, so an
/// engine that ran the tasks one after another, or ran the fleet one slot
/// short, fails an attempt. No wall-clock window is asserted.
#[test]
fn native_engines_run_both_slots_at_once() {
    use ppc::core::exec::FnExecutor;
    use ppc::core::task::{ResourceProfile, TaskSpec};
    use ppc::core::PpcError;
    use ppc::exec::Workload;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Condvar, Mutex};
    use std::time::Duration;

    let cluster = Cluster::provision(BARE_HPC16, 1, 2);
    let ctx = RunContext::new(&cluster).with_seed(5);
    let inputs: Vec<(TaskSpec, Vec<u8>)> = (0..2)
        .map(|i| {
            let spec = TaskSpec::new(i, "meet", format!("f{i}"), ResourceProfile::cpu_bound(1.0));
            (spec, vec![i as u8])
        })
        .collect();
    for engine in ppc::engines() {
        let meet = Arc::new((Mutex::new(0_usize), Condvar::new()));
        let timeouts = Arc::new(AtomicUsize::new(0));
        let missed = timeouts.clone();
        let executor = FnExecutor::new("meet", move |_s: &TaskSpec, i: &[u8]| {
            let (count, all_in) = &*meet;
            let mut n = count.lock().unwrap();
            *n += 1;
            all_in.notify_all();
            let wait = Duration::from_secs(10);
            let waited = all_in.wait_timeout_while(n, wait, |n| *n < 2).unwrap().1;
            if waited.timed_out() {
                missed.fetch_add(1, Ordering::Relaxed);
                return Err(PpcError::Transient("rendezvous partner never came".into()));
            }
            Ok(i.to_vec())
        });
        let workload = Workload::new("rendezvous", inputs.clone(), executor);
        let (report, outputs) = engine
            .run(&ctx, &workload)
            .unwrap_or_else(|e| panic!("{} failed: {e}", engine.name()));
        assert!(
            report.is_complete(),
            "{} dropped tasks: {:?}",
            engine.name(),
            report.failed
        );
        assert_eq!(outputs.len(), 2, "{} output set", engine.name());
        assert_eq!(
            timeouts.load(Ordering::Relaxed),
            0,
            "{} ran the two tasks one after another",
            engine.name()
        );
    }
}
