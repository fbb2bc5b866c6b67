//! Microbenchmarks for the hot kernels and substrates, on a tiny
//! self-contained timing harness (no external bench framework).
//!
//! These are *performance* benches for the library itself (the tables and
//! figures of the paper are regenerated by the `all` binary, whose
//! exhibits are deterministic simulations rather than timing measurements).
//!
//! Run with `cargo bench -p ppc-bench`. Each benchmark is warmed up, then
//! sampled `SAMPLES` times; the report prints min / median / mean.

use std::hint::black_box;
use std::time::Instant;

use ppc_apps::cap3::Cap3Executor;
use ppc_apps::pipeline::{bio_pipeline_native, pipeline_protein_db};
use ppc_apps::workload;
use ppc_bio::assembly::{assemble, AssemblyParams};
use ppc_bio::blast::{BlastDb, BlastParams};
use ppc_bio::fasta;
use ppc_bio::simulate::{
    protein_database, queries_from_db, random_genome, shotgun_reads, ProteinDbParams, ShotgunParams,
};
use ppc_classic::{simulate as classic_sim, SimConfig};
use ppc_compute::cluster::Cluster;
use ppc_compute::instance::EC2_HCXL;
use ppc_core::{Cancel, Executor};
use ppc_exec::RunContext;
use ppc_gtm::data::{fingerprints, FingerprintParams};
use ppc_gtm::interpolate::interpolate;
use ppc_gtm::train::{train, TrainConfig};
use ppc_queue::queue::{Queue, QueueConfig};

const SAMPLES: usize = 10;

/// Time `f` (warm-up + SAMPLES runs) and print a one-line report.
fn bench(name: &str, mut f: impl FnMut()) {
    f(); // warm-up
    let mut samples_us: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let min = samples_us[0];
    let median = samples_us[SAMPLES / 2];
    let mean = samples_us.iter().sum::<f64>() / SAMPLES as f64;
    println!("{name:<36} min {min:>12.1} us   median {median:>12.1} us   mean {mean:>12.1} us");
}

fn bench_assembly() {
    let genome = random_genome(2000, 1);
    let reads = shotgun_reads(
        &genome,
        &ShotgunParams {
            n_reads: 60,
            read_len_mean: 250.0,
            read_len_sd: 20.0,
            error_rate: 0.005,
            ..Default::default()
        },
        2,
    );
    bench("cap3_assemble_60_reads", || {
        black_box(assemble(black_box(&reads), &AssemblyParams::default()));
    });
}

/// Cap3 over one input file of the job-service lane: 60 reads over a
/// 2400-base genome, parsed, assembled and written back as FASTA.
fn bench_cap3_serve_file() {
    let inputs = workload::cap3_native_inputs(12, 60, 2400, 1);
    let (spec, input) = &inputs[0];
    let exec = Cap3Executor::new();
    bench("cap3_serve_file", || {
        black_box(exec.run(spec, black_box(input)).unwrap());
    });
}

fn bench_blast() {
    let db_recs = protein_database(
        &ProteinDbParams {
            n_families: 30,
            members_per_family: 3,
            len_min: 200,
            len_max: 400,
            divergence: 0.15,
        },
        3,
    );
    let queries = queries_from_db(&db_recs, 4, 0.08, 4);
    let db = BlastDb::build(db_recs, 3);
    let params = BlastParams::default();
    bench("blast_search_4_queries", || {
        for q in &queries {
            black_box(db.search(black_box(&q.seq), &params));
        }
    });
}

/// blastx over one annotate-stage input of the native bio pipeline: the
/// contigs Cap3 assembles from the pipeline's first read set, searched in
/// six frames against the pipeline's own database.
fn bench_blastx() {
    let wf = bio_pipeline_native(2, 32, 1);
    let assemble = &wf.stages[0];
    let cap3 = assemble.executor.as_ref().unwrap();
    let contigs = vec![(
        assemble.specs[0].output_key.clone(),
        cap3.run(&assemble.specs[0], &assemble.inputs[0]).unwrap(),
    )];
    let adapter = wf.data_in_edge(1).unwrap().adapter.as_ref().unwrap();
    let input = adapter.adapt(&contigs, &wf.stages[1].specs[..1]).unwrap();
    let queries = fasta::parse(&input[0]).unwrap();
    let db = BlastDb::build(pipeline_protein_db(1), 3);
    let params = BlastParams::default();
    bench("blastx_pipeline_file", || {
        for q in &queries {
            let hits =
                db.search_translated_cancellable(black_box(&q.seq), &params, &Cancel::never());
            black_box(hits.expect("never cancelled"));
        }
    });
}

fn bench_gtm_interpolate() {
    let (data, _) = fingerprints(
        &FingerprintParams {
            n_points: 300,
            dim: 50,
            n_clusters: 4,
            flip_noise: 0.05,
        },
        5,
    );
    let model = train(
        &data,
        &TrainConfig {
            grid_side: 8,
            rbf_side: 4,
            iterations: 6,
            lambda: 1e-3,
        },
    )
    .unwrap();
    bench("gtm_interpolate_300_points", || {
        black_box(interpolate(black_box(&model), black_box(&data)));
    });
}

fn bench_queue_ops() {
    bench("queue_send_receive_delete", || {
        let q = Queue::new("bench", QueueConfig::default());
        for i in 0..100 {
            q.send(format!("task-{i}")).unwrap();
        }
        while let Some(m) = q.receive().unwrap() {
            q.delete(m.receipt).unwrap();
        }
    });
}

fn bench_classic_sim() {
    let tasks = workload::cap3_sim_tasks(512, 200);
    let cluster = Cluster::provision_per_core(EC2_HCXL, 16);
    let cfg = SimConfig::ec2();
    bench("classic_sim_512_tasks_128_cores", || {
        black_box(classic_sim(
            black_box(&RunContext::new(&cluster)),
            black_box(&tasks),
            &cfg,
        ));
    });
}

fn bench_alignment() {
    use ppc_bio::align::local;
    use ppc_bio::simulate::random_protein;
    use ppc_core::rng::Pcg32;
    let mut rng = Pcg32::new(6);
    let a = random_protein(200, &mut rng);
    let mut b = a.clone();
    b.drain(80..90);
    b[30] = b'W';
    bench("smith_waterman_200aa", || {
        black_box(local(black_box(&a), black_box(&b)));
    });
}

fn bench_hdfs() {
    use ppc_hdfs::fs::MiniHdfs;
    bench("hdfs_create_read_64kb", || {
        let fs = MiniHdfs::new(8, 8 << 10, 3, 9);
        for i in 0..16 {
            fs.create(&format!("/f{i}"), &vec![i as u8; 64 << 10], None)
                .unwrap();
        }
        for i in 0..16 {
            black_box(fs.read(&format!("/f{i}")).unwrap());
        }
    });
}

fn bench_hadoop_sim() {
    use ppc_compute::instance::BARE_CAP3;
    use ppc_mapreduce::{simulate, HadoopSimConfig};
    let tasks = workload::cap3_sim_tasks(512, 200);
    let cluster = Cluster::provision(BARE_CAP3, 16, 8);
    let cfg = HadoopSimConfig::default();
    bench("hadoop_sim_512_tasks_128_cores", || {
        black_box(simulate(
            black_box(&RunContext::new(&cluster)),
            black_box(&tasks),
            &cfg,
        ));
    });
}

fn main() {
    bench_assembly();
    bench_cap3_serve_file();
    bench_blast();
    bench_blastx();
    bench_gtm_interpolate();
    bench_queue_ops();
    bench_classic_sim();
    bench_alignment();
    bench_hdfs();
    bench_hadoop_sim();
}
