//! BLAST on two paradigms: Classic Cloud task farm vs Hadoop MapReduce.
//!
//! Runs the same protein similarity searches through both frameworks and
//! verifies the outputs are byte-identical — the paper's premise that the
//! paradigms are interchangeable wrappers around the same executable.
//!
//! ```bash
//! cargo run --release --example blast_search
//! ```

use ppc::apps::blast::BlastExecutor;
use ppc::apps::workload::blast_native_inputs;
use ppc::bio::blast::BlastDb;
use ppc::bio::simulate::ProteinDbParams;
use ppc::classic::spec::JobSpec;
use ppc::classic::{run as classic_run, ClassicConfig};
use ppc::compute::cluster::Cluster;
use ppc::compute::instance::EC2_HCXL;
use ppc::exec::RunContext;
use ppc::hdfs::fs::MiniHdfs;
use ppc::mapreduce::job::{ExecutableMapper, MapReduceJob};
use ppc::mapreduce::{run as hadoop_run, HadoopConfig};
use ppc::queue::service::QueueService;
use ppc::storage::service::StorageService;
use std::sync::Arc;

fn main() -> ppc::core::Result<()> {
    // A shared NR-like database and 12 query files of 8 queries each.
    let (db_recs, inputs) = blast_native_inputs(
        12,
        8,
        &ProteinDbParams {
            n_families: 20,
            members_per_family: 3,
            len_min: 150,
            len_max: 350,
            divergence: 0.12,
        },
        99,
    );
    println!(
        "database: {} sequences, {} residues",
        db_recs.len(),
        db_recs.iter().map(|r| r.len()).sum::<usize>()
    );
    let db = Arc::new(BlastDb::build(db_recs, 3));
    let executor = Arc::new(BlastExecutor::new(db));

    // ---- Classic Cloud -----------------------------------------------------
    let storage = StorageService::in_memory();
    let queues = QueueService::new();
    let cluster = Cluster::provision(EC2_HCXL, 1, 4);
    let job = JobSpec::new("blast", inputs.iter().map(|(t, _)| t.clone()).collect());
    storage.create_bucket(&job.input_bucket)?;
    for (spec, payload) in &inputs {
        storage.put(&job.input_bucket, &spec.input_key, payload.clone())?;
    }
    let classic = classic_run(
        &RunContext::new(&cluster),
        &storage,
        &queues,
        &job,
        executor.clone(),
        &ClassicConfig::default(),
    )?;
    println!(
        "\nClassic Cloud: {} tasks in {:.2} s ({} queue requests)",
        classic.summary.tasks, classic.summary.makespan_seconds, classic.queue_requests
    );

    // ---- Hadoop MapReduce ----------------------------------------------------
    let fs = MiniHdfs::with_defaults(4);
    let mut paths = Vec::new();
    for (spec, payload) in &inputs {
        let path = format!("/in/{}", spec.input_key.replace('/', "_"));
        fs.create(&path, payload, None)?;
        paths.push(path);
    }
    let mr_job = MapReduceJob::map_only("blast", paths, "/out");
    let mapper = ExecutableMapper::new("blast", executor);
    let hadoop = hadoop_run(
        &RunContext::local(),
        &fs,
        &mr_job,
        &mapper,
        &HadoopConfig::default(),
    )?;
    println!(
        "Hadoop       : {} tasks in {:.2} s (locality {:.0}%)",
        hadoop.summary.tasks,
        hadoop.summary.makespan_seconds,
        100.0 * hadoop.locality_fraction()
    );

    // ---- The outputs must agree --------------------------------------------
    let mut agreements = 0;
    for (spec, _) in &inputs {
        let classic_out = storage.get(&job.output_bucket, &spec.output_key)?;
        let hadoop_path = format!("/out/{}.out", spec.input_key.replace('/', "_"));
        let hadoop_out = fs.read(&hadoop_path)?;
        assert_eq!(
            *classic_out, hadoop_out,
            "{} differs between paradigms",
            spec.input_key
        );
        agreements += 1;
    }
    println!(
        "\n{agreements}/{} output files byte-identical across paradigms",
        inputs.len()
    );

    // Show a few hits from the first report.
    let sample = storage.get(&job.output_bucket, &inputs[0].0.output_key)?;
    let text = String::from_utf8_lossy(&sample);
    println!("\nsample hits (query  subject  bit-score  e-value):");
    for line in text.lines().take(5) {
        println!("  {line}");
    }
    Ok(())
}
