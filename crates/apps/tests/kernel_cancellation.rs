//! Cooperative cancellation of the three paper kernels: each returns
//! `Cancelled` when its token is already set, stops promptly when another
//! thread sets the token mid-run, and produces exactly `Executor::run`'s
//! bytes when the token is never set.

use ppc_apps::blast::BlastxExecutor;
use ppc_apps::cap3::Cap3Executor;
use ppc_apps::gtm::{encode_points, GtmExecutor};
use ppc_apps::pipeline::{bio_pipeline_native, pipeline_protein_db, ANNOTATION_DIM};
use ppc_bio::blast::BlastDb;
use ppc_bio::codon::arbitrary_coding_dna;
use ppc_bio::fasta::{self, FastaRecord};
use ppc_bio::simulate::{random_genome, shotgun_reads, ShotgunParams};
use ppc_core::task::ResourceProfile;
use ppc_core::{Cancel, Executor, Result, TaskSpec};
use ppc_gtm::data::{fingerprints, FingerprintParams};
use ppc_gtm::train::{train, TrainConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a kernel may keep running after its token is set.
const PROMPT: Duration = Duration::from_millis(500);

fn spec(app: &str) -> TaskSpec {
    TaskSpec::new(0, app, "in", ResourceProfile::cpu_bound(0.0))
}

/// Run `exec` on another thread, set its token 20 ms in, and return the
/// result with the time from the cancel to the kernel's return.
fn cancel_mid_run(
    exec: &dyn Executor,
    spec: &TaskSpec,
    input: &[u8],
) -> (Result<Vec<u8>>, Duration) {
    let cancel = Cancel::new();
    std::thread::scope(|s| {
        let running = s.spawn(|| exec.run_cancellable(spec, input, &cancel));
        std::thread::sleep(Duration::from_millis(20));
        let at = Instant::now();
        cancel.cancel();
        let r = running.join().unwrap();
        (r, at.elapsed())
    })
}

fn assert_cancels(exec: &dyn Executor, app: &str, big_input: &[u8]) {
    let spec = spec(app);
    let set = Cancel::new();
    set.cancel();
    let err = exec.run_cancellable(&spec, big_input, &set).unwrap_err();
    assert_eq!(err.code(), "Cancelled", "{app}: pre-set token");

    let (r, after_cancel) = cancel_mid_run(exec, &spec, big_input);
    assert_eq!(
        r.map(|_| ()).unwrap_err().code(),
        "Cancelled",
        "{app}: token set mid-run"
    );
    assert!(
        after_cancel < PROMPT,
        "{app}: ran {after_cancel:?} past the cancel"
    );
}

#[test]
fn cap3_stops_when_cancelled() {
    // ~1 s of assembly uncancelled on a 2-core x86 box.
    let genome = random_genome(20_000, 5);
    let reads = shotgun_reads(
        &genome,
        &ShotgunParams {
            n_reads: 2500,
            read_len_mean: 200.0,
            read_len_sd: 15.0,
            ..Default::default()
        },
        6,
    );
    assert_cancels(&Cap3Executor::new(), "cap3", &fasta::format(&reads));
}

#[test]
fn blastx_stops_when_cancelled() {
    let recs = pipeline_protein_db(7);
    // One long nucleotide query, every database protein back-translated:
    // ~0.1 s of search uncancelled on a 2-core x86 box (~1.7 s in a debug
    // build), still well past the 20-ms cancel.
    let protein: Vec<u8> = recs.iter().flat_map(|r| r.seq.clone()).collect();
    let query = vec![FastaRecord::new("long", arbitrary_coding_dna(&protein))];
    let exec = BlastxExecutor::new(Arc::new(BlastDb::build(recs, 3)));
    assert_cancels(&exec, "blastx", &fasta::format(&query));
}

#[test]
fn gtm_stops_when_cancelled() {
    let (sample, _) = fingerprints(
        &FingerprintParams {
            n_points: 120,
            dim: ANNOTATION_DIM,
            n_clusters: 4,
            flip_noise: 0.05,
        },
        8,
    );
    let model = train(
        &sample,
        &TrainConfig {
            grid_side: 30,
            rbf_side: 4,
            iterations: 2,
            lambda: 1e-3,
        },
    )
    .unwrap();
    // ~0.4 s of interpolation uncancelled on a 2-core x86 box.
    let (points, _) = fingerprints(
        &FingerprintParams {
            n_points: 40_000,
            dim: ANNOTATION_DIM,
            n_clusters: 4,
            flip_noise: 0.05,
        },
        9,
    );
    let exec = GtmExecutor::new(Arc::new(model));
    assert_cancels(&exec, "gtm", &encode_points(&points));
}

#[test]
fn never_set_token_leaves_pipeline_outputs_unchanged() {
    for seed in [3, 4242] {
        let wf = bio_pipeline_native(2, 32, seed);
        let mut inputs = wf.stages[0].inputs.clone();
        for (i, stage) in wf.stages.iter().enumerate() {
            let exec = stage.executor.as_ref().unwrap();
            let live = Cancel::new();
            let mut outputs = Vec::new();
            for (spec, input) in stage.specs.iter().zip(&inputs) {
                let plain = exec.run(spec, input).unwrap();
                let with_never = exec.run_cancellable(spec, input, &Cancel::never()).unwrap();
                let with_live = exec.run_cancellable(spec, input, &live).unwrap();
                assert_eq!(plain, with_never, "stage {} seed {seed}", stage.name);
                assert_eq!(plain, with_live, "stage {} seed {seed}", stage.name);
                outputs.push((spec.output_key.clone(), plain));
            }
            if let Some(next) = wf.stages.get(i + 1) {
                let edge = wf.data_in_edge(i + 1).unwrap();
                inputs = edge
                    .adapter
                    .as_ref()
                    .unwrap()
                    .adapt(&outputs, &next.specs)
                    .unwrap();
            }
        }
    }
}
