//! The first real multi-stage bio pipeline: Cap3 assemble → BLAST annotate
//! → GTM interpolate, as one [`Workflow`] runnable on every paradigm.
//!
//! The paper evaluates its three applications standalone; chained, they are
//! the canonical sequencing pipeline — assemble shotgun reads into contigs,
//! annotate the contigs against a protein database (blastx translation
//! mode), and map each contig's annotation profile into GTM latent space
//! for visualization. Each stage is pleasingly parallel; the *edges* are
//! where the paradigms differ, which is exactly what the workflow layer's
//! materialize-vs-pipeline policy measures.
//!
//! Determinism contract: every stage executor is a pure function of its
//! payload, and the inter-stage adapters canonicalize on output-key
//! basenames, so all three engines — native and simulated — produce
//! byte-identical final outputs for the same inputs (pinned by
//! `tests/workflow_conformance.rs`).

use crate::blast::BlastxExecutor;
use crate::calibrate::{blast_profile, cap3_profile, gtm_profile};
use crate::cap3::Cap3Executor;
use crate::gtm::{encode_points, GtmExecutor};
use crate::workload::{blast_sim_tasks, cap3_sim_tasks, gtm_sim_tasks};
use ppc_bio::blast::BlastDb;
use ppc_bio::codon::arbitrary_coding_dna;
use ppc_bio::fasta::{self, FastaRecord};
use ppc_bio::simulate::{protein_database, shotgun_reads, ProteinDbParams, ShotgunParams};
use ppc_core::task::TaskSpec;
use ppc_core::PpcError;
use ppc_exec::{DataPolicy, FnAdapter, Stage, Workflow};
use ppc_gtm::data::{fingerprints, FingerprintParams};
use ppc_gtm::linalg::Matrix;
use ppc_gtm::train::{train, TrainConfig};
use std::sync::Arc;

/// Feature dimension of the annotation profile fed to GTM (must match the
/// trained model's data dimension).
pub const ANNOTATION_DIM: usize = 16;

/// FNV-1a, the classic 64-bit variant — a stable, dependency-free way to
/// turn a BLAST hit line into reproducible feature bits.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Deterministically featurize one contig's BLAST hit table into a block
/// of [`ANNOTATION_DIM`]-dimensional pseudo-fingerprint points, one per
/// hit line (a single zero point when the contig had no hits, so the GTM
/// stage always has work). The bit pattern comes from hashing the line —
/// any change in subject, frame, or score moves the point.
pub fn featurize_hits(table: &[u8], dim: usize) -> Matrix {
    let text = String::from_utf8_lossy(table);
    let mut rows: Vec<Vec<f64>> = text
        .lines()
        .map(|line| {
            let mut h = fnv1a(line.as_bytes());
            (0..dim)
                .map(|_| {
                    // splitmix64 step per feature: decorrelates the bits.
                    h = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
                    let mut z = h;
                    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                    z ^= z >> 31;
                    (z & 1) as f64
                })
                .collect()
        })
        .collect();
    if rows.is_empty() {
        rows.push(vec![0.0; dim]);
    }
    Matrix::from_rows(rows)
}

/// The protein database [`bio_pipeline_native`] builds for `seed`.
pub fn pipeline_protein_db(seed: u64) -> Vec<FastaRecord> {
    protein_database(
        &ProteinDbParams {
            n_families: 8,
            members_per_family: 2,
            len_min: 120,
            len_max: 250,
            divergence: 0.12,
        },
        seed,
    )
}

/// The native Cap3 → blastx → GTM pipeline over real payloads.
///
/// Each input file is a shotgun read set over a coding DNA sequence that
/// back-translates one of the shared protein database's entries, so
/// assembly yields contigs that genuinely annotate against the database —
/// the stages are causally linked, not three unrelated batches.
pub fn bio_pipeline_native(n_files: usize, reads_per_file: usize, seed: u64) -> Workflow {
    // Shared protein database: the annotation target AND the source of the
    // simulated genomes (like resequencing a known proteome).
    let db_recs = pipeline_protein_db(seed);
    let db = Arc::new(BlastDb::build(db_recs.clone(), 3));

    // Stage 1: assemble. One read set per file, each over the coding DNA
    // of one database protein.
    let mut assemble_specs = Vec::with_capacity(n_files);
    let mut assemble_inputs = Vec::with_capacity(n_files);
    for i in 0..n_files {
        let protein = &db_recs[i % db_recs.len()];
        let genome = arbitrary_coding_dna(&protein.seq);
        let reads = shotgun_reads(
            &genome,
            &ShotgunParams {
                n_reads: reads_per_file,
                read_len_mean: 160.0,
                read_len_sd: 15.0,
                ..Default::default()
            },
            seed ^ ((i as u64 + 1) << 8),
        );
        assemble_specs.push(TaskSpec::new(
            i as u64,
            "cap3",
            format!("cap3/in/f{i:05}.fa"),
            cap3_profile(reads_per_file, 160),
        ));
        assemble_inputs.push(fasta::format(&reads));
    }

    // Stage 2: annotate. Contig FASTA flows in unchanged (identity
    // adapter); blastx translates and searches the shared database.
    let annotate_specs: Vec<TaskSpec> = (0..n_files)
        .map(|i| {
            TaskSpec::new(
                i as u64,
                "blastx",
                format!("blast/in/q{i:05}.fa"),
                blast_profile(4, 0),
            )
        })
        .collect();

    // Stage 3: interpolate. Hit tables are featurized into point blocks
    // for a GTM model trained on the same fingerprint family.
    let (sample, _) = fingerprints(
        &FingerprintParams {
            n_points: 120,
            dim: ANNOTATION_DIM,
            n_clusters: 4,
            flip_noise: 0.05,
        },
        seed ^ 0xA5A5,
    );
    let model = Arc::new(
        train(
            &sample,
            &TrainConfig {
                grid_side: 5,
                rbf_side: 3,
                iterations: 8,
                lambda: 1e-3,
            },
        )
        .expect("GTM training on a well-formed sample"),
    );
    let interpolate_specs: Vec<TaskSpec> = (0..n_files)
        .map(|i| {
            TaskSpec::new(
                i as u64,
                "gtm",
                format!("gtm/in/p{i:05}.bin"),
                gtm_profile(64),
            )
        })
        .collect();

    // Native stage tasks finish in milliseconds, so redelivery of a killed
    // worker's message must be prompt — the queue-based engine's generous
    // default visibility timeout would stall chaos runs for minutes.
    let visibility = std::time::Duration::from_secs(2);
    let mut wf = Workflow::new("cap3-blast-gtm");
    let assemble = wf.add_stage(
        Stage::new("assemble", assemble_specs)
            .with_executor(Arc::new(Cap3Executor::new()))
            .with_inputs(assemble_inputs)
            .with_max_attempts(8)
            .with_visibility_timeout(visibility),
    );
    let annotate = wf.add_stage(
        Stage::new("annotate", annotate_specs)
            .with_executor(Arc::new(BlastxExecutor::new(db)))
            .with_max_attempts(8)
            .with_visibility_timeout(visibility),
    );
    let interpolate = wf.add_stage(
        Stage::new("interpolate", interpolate_specs)
            .with_executor(Arc::new(GtmExecutor::new(model)))
            .with_max_attempts(8)
            .with_visibility_timeout(visibility),
    );
    wf.connect(
        assemble,
        annotate,
        DataPolicy::Materialize,
        FnAdapter::identity(),
    );
    wf.connect(
        annotate,
        interpolate,
        DataPolicy::Materialize,
        FnAdapter::new("featurize-hits", |_k, bytes| {
            if !bytes.is_ascii() {
                return Err(PpcError::Codec("hit table is not ASCII".into()));
            }
            Ok(encode_points(&featurize_hits(bytes, ANNOTATION_DIM)))
        }),
    );
    wf
}

/// The simulated pipeline at paper scale: the same three stages with
/// calibrated resource profiles and no payloads, for DES studies. The
/// materialize edges price each stage boundary from the upstream profiles'
/// promised output bytes — this is where the inter-stage materialization
/// overhead bucket comes from.
pub fn bio_pipeline_sim(n_files: usize) -> Workflow {
    let mut wf = Workflow::new("cap3-blast-gtm-sim");
    let assemble = wf.add_stage(Stage::new("assemble", cap3_sim_tasks(n_files, 300)));
    let annotate = wf.add_stage(Stage::new("annotate", blast_sim_tasks(n_files, 100)));
    let interpolate = wf.add_stage(Stage::new("interpolate", gtm_sim_tasks(n_files, 10_000)));
    wf.connect_ordering(assemble, annotate, DataPolicy::Materialize);
    wf.connect_ordering(annotate, interpolate, DataPolicy::Materialize);
    wf
}

/// Like [`bio_pipeline_sim`] but with pipelined (in-memory) edges — the
/// what-if the paper's "Data Sharing Options" comparison asks: how much of
/// the makespan is storage round-trips between stages?
pub fn bio_pipeline_sim_pipelined(n_files: usize) -> Workflow {
    let mut wf = bio_pipeline_sim(n_files);
    for e in &mut wf.edges {
        e.policy = DataPolicy::Pipeline;
    }
    wf.name = "cap3-blast-gtm-sim-pipelined".into();
    wf
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::NR_DB_BYTES;

    #[test]
    fn featurize_is_deterministic_and_total() {
        let table = b"c1\tFAM3_m0\t+1\t52.0\t1.00e-12\nc1\tFAM3_m1\t+1\t44.5\t2.00e-10\n";
        let a = featurize_hits(table, ANNOTATION_DIM);
        let b = featurize_hits(table, ANNOTATION_DIM);
        assert_eq!(a, b);
        assert_eq!(a.rows(), 2);
        assert_eq!(a.cols(), ANNOTATION_DIM);
        // Different lines land on different points.
        assert_ne!(
            (0..ANNOTATION_DIM).map(|c| a[(0, c)]).collect::<Vec<_>>(),
            (0..ANNOTATION_DIM).map(|c| a[(1, c)]).collect::<Vec<_>>()
        );
        // Empty table → one zero point, never an empty block.
        let empty = featurize_hits(b"", ANNOTATION_DIM);
        assert_eq!(empty.rows(), 1);
        assert!((0..ANNOTATION_DIM).all(|c| empty[(0, c)] == 0.0));
    }

    #[test]
    fn native_pipeline_validates_and_names_stages() {
        let wf = bio_pipeline_native(3, 24, 7);
        wf.validate_native().unwrap();
        assert_eq!(wf.stages.len(), 3);
        assert_eq!(wf.topo_order().unwrap(), vec![0, 1, 2]);
        assert_eq!(
            wf.stages
                .iter()
                .map(|s| s.name.as_str())
                .collect::<Vec<_>>(),
            vec!["assemble", "annotate", "interpolate"]
        );
        assert_eq!(wf.sinks(), vec![2]);
    }

    #[test]
    fn sim_pipeline_prices_materialization() {
        let wf = bio_pipeline_sim(16);
        wf.validate().unwrap();
        // Every stage promises output bytes, so each materialize edge has
        // a nonzero transfer cost.
        for e in &wf.edges {
            assert_eq!(e.policy, DataPolicy::Materialize);
            let bytes = wf.stages[e.from].output_bytes();
            assert!(bytes > 0, "stage {} promises no output", e.from);
            assert!(wf.materialize.transfer_s(bytes) > 0.0);
        }
        let piped = bio_pipeline_sim_pipelined(16);
        assert!(piped.edges.iter().all(|e| e.policy == DataPolicy::Pipeline));
        // NR-sized shared DB stays on the profile (annotate stage).
        assert!(wf.stages[1]
            .specs
            .iter()
            .all(|t| t.profile.shared_mem_bytes == NR_DB_BYTES));
    }
}
