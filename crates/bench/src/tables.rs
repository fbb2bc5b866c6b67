//! Tables 1–4.

use ppc_apps::workload;
use ppc_classic::{simulate as classic_sim, SimConfig};
use ppc_compute::billing::OwnedClusterCost;
use ppc_compute::cluster::Cluster;
use ppc_compute::instance::{AZURE_SMALL, AZURE_TYPES, BARE_XEON24, EC2_HCXL, EC2_TYPES};
use ppc_compute::model::AppModel;
use ppc_core::pricing::{AWS_2010, AZURE_2010, GIB};
use ppc_core::report::Table;
use ppc_exec::RunContext;
use ppc_mapreduce::{simulate as hadoop_sim, HadoopSimConfig};

/// Table 1: selected EC2 instance types.
pub fn table1() -> Table {
    let mut t = Table::new(
        "Table 1: Selected EC2 instance types",
        &[
            "Instance Type",
            "Memory",
            "EC2 compute units",
            "Actual CPU cores",
            "Cost per hour",
        ],
    );
    for it in EC2_TYPES {
        t.row(vec![
            it.name.to_string(),
            format!("{:.1} GB", it.memory_bytes as f64 / 1e9),
            format!("{}", it.ecu),
            format!("{} x (~{}Ghz)", it.cores, it.clock_ghz),
            it.cost_per_hour.to_string(),
        ]);
    }
    t
}

/// Table 2: Azure instance types.
pub fn table2() -> Table {
    let mut t = Table::new(
        "Table 2: Microsoft Windows Azure instance types",
        &[
            "Instance Type",
            "CPU Cores",
            "Memory",
            "Local Disk Space",
            "Cost per hour",
        ],
    );
    for it in AZURE_TYPES {
        t.row(vec![
            it.name.to_string(),
            format!("{}", it.cores),
            format!("{:.1} GB", it.memory_bytes as f64 / 1e9),
            format!("{} GB", it.local_disk_bytes / 1_000_000_000),
            it.cost_per_hour.to_string(),
        ]);
    }
    t
}

/// Table 3: summary of cloud technology features (qualitative).
pub fn table3() -> Table {
    let mut t = Table::new(
        "Table 3: Summary of cloud technology features",
        &["", "AWS/Azure (Classic Cloud)", "Hadoop", "DryadLINQ"],
    );
    t.row(vec![
        "Programming patterns".into(),
        "Independent job execution via task queue".into(),
        "MapReduce".into(),
        "DAG execution, extensible to MapReduce".into(),
    ]);
    t.row(vec![
        "Fault tolerance".into(),
        "Task re-execution on configurable visibility timeout".into(),
        "Re-execution of failed and slow tasks".into(),
        "Re-execution of failed and slow tasks".into(),
    ]);
    t.row(vec![
        "Data storage".into(),
        "S3/Azure Storage over HTTP".into(),
        "HDFS parallel file system".into(),
        "Node-local files (Windows shares)".into(),
    ]);
    t.row(vec![
        "Scheduling & load balancing".into(),
        "Dynamic global queue: natural balancing".into(),
        "Data-locality-aware dynamic global queue".into(),
        "Static node-level partitions: suboptimal balancing".into(),
    ]);
    t
}

/// Table 4: cost to assemble 4096 Cap3 files on EC2, Azure, and an owned
/// cluster at 60/70/80% utilization.
pub fn table4() -> Table {
    let tasks = workload::cap3_sim_tasks(4096, 200);
    let app = AppModel::cap3();

    // EC2: 16 HCXL instances.
    let ec2_cluster = Cluster::provision_per_core(EC2_HCXL, 16);
    let ec2 = classic_sim(
        &RunContext::new(&ec2_cluster),
        &tasks,
        &SimConfig::ec2().with_app(app),
    );
    let ec2_bill = ec2.bill(&AWS_2010, 1.0);

    // Azure: 128 Small instances.
    let az_cluster = Cluster::provision_per_core(AZURE_SMALL, 128);
    let az = classic_sim(
        &RunContext::new(&az_cluster),
        &tasks,
        &SimConfig::azure().with_app(app),
    );
    let az_bill = az.bill(&AZURE_2010, 1.0);

    // Owned cluster: Hadoop on 32 × 24-core nodes.
    let owned_cluster = Cluster::provision(BARE_XEON24, 32, 24);
    let hadoop = hadoop_sim(
        &RunContext::new(&owned_cluster),
        &tasks,
        &HadoopSimConfig {
            app,
            ..HadoopSimConfig::default()
        },
    );
    let job_hours = hadoop.summary.makespan_seconds / 3600.0;
    let tco = OwnedClusterCost::paper_internal_cluster();

    let mut t = Table::new(
        "Table 4: Cost comparison (4096 Cap3 files)",
        &[
            "Line item",
            "Amazon Web Services",
            "Azure",
            "Owned cluster (Hadoop)",
        ],
    );
    t.row(vec![
        "Compute cost".into(),
        format!(
            "{} ({} x 16 HCXL)",
            ec2_bill.instances.compute_cost, EC2_HCXL.cost_per_hour
        ),
        format!(
            "{} ({} x 128 Small)",
            az_bill.instances.compute_cost, AZURE_SMALL.cost_per_hour
        ),
        format!("{} @80% util", tco.job_cost(job_hours, 0.8)),
    ]);
    t.row(vec![
        "Queue messages".into(),
        AWS_2010.queue_requests(ec2.queue_requests).to_string(),
        AZURE_2010.queue_requests(az.queue_requests).to_string(),
        "-".into(),
    ]);
    t.row(vec![
        "Storage (1GB, 1 month)".into(),
        AWS_2010.storage(GIB, 1.0).to_string(),
        AZURE_2010.storage(GIB, 1.0).to_string(),
        "-".into(),
    ]);
    t.row(vec![
        "Data transfer in/out (1GB)".into(),
        AWS_2010.transfer_in(GIB).to_string(),
        (AZURE_2010.transfer_in(GIB) + AZURE_2010.transfer_out(GIB)).to_string(),
        "-".into(),
    ]);
    let ec2_total = ec2_bill.instances.compute_cost
        + AWS_2010.queue_requests(ec2.queue_requests)
        + AWS_2010.storage(GIB, 1.0)
        + AWS_2010.transfer_in(GIB);
    let az_total = az_bill.instances.compute_cost
        + AZURE_2010.queue_requests(az.queue_requests)
        + AZURE_2010.storage(GIB, 1.0)
        + AZURE_2010.transfer_in(GIB)
        + AZURE_2010.transfer_out(GIB);
    t.row(vec![
        "Total".into(),
        ec2_total.to_string(),
        az_total.to_string(),
        format!(
            "{} / {} / {} (80/70/60% util)",
            tco.job_cost(job_hours, 0.8),
            tco.job_cost(job_hours, 0.7),
            tco.job_cost(job_hours, 0.6)
        ),
    ]);
    t
}

/// Generalized cost comparison: what Table 4 would look like for BLAST and
/// GTM (the paper only charts Cap3). Returns (app label, EC2 total, Azure
/// total, owned@80%) — instance counts follow each app's §5.2/§6.2 fleets.
pub fn cost_comparison(app_name: &str) -> (String, ppc_core::Usd, ppc_core::Usd, ppc_core::Usd) {
    use ppc_apps::workload::{blast_sim_tasks, cap3_sim_tasks, gtm_sim_tasks};
    let (tasks, app, azure_type, azure_n) = match app_name {
        "blast" => (
            blast_sim_tasks(768, 100),
            AppModel::DEFAULT,
            ppc_compute::instance::AZURE_LARGE,
            16,
        ),
        "gtm" => (
            gtm_sim_tasks(264, 100_000),
            AppModel::DEFAULT,
            AZURE_SMALL,
            128,
        ),
        _ => (
            cap3_sim_tasks(4096, 200),
            AppModel::cap3(),
            AZURE_SMALL,
            128,
        ),
    };
    let ec2_cluster = Cluster::provision_per_core(EC2_HCXL, 16);
    let ec2 = classic_sim(
        &RunContext::new(&ec2_cluster),
        &tasks,
        &SimConfig::ec2().with_app(app),
    );
    let ec2_total = ec2.bill(&AWS_2010, 1.0).total();

    let az_cluster = Cluster::provision_per_core(azure_type, azure_n);
    let az = classic_sim(
        &RunContext::new(&az_cluster),
        &tasks,
        &SimConfig::azure().with_app(app),
    );
    let az_total = az.bill(&AZURE_2010, 1.0).total();

    let owned_cluster = Cluster::provision(BARE_XEON24, 32, 24);
    let hadoop = hadoop_sim(
        &RunContext::new(&owned_cluster),
        &tasks,
        &HadoopSimConfig {
            app,
            ..HadoopSimConfig::default()
        },
    );
    let owned = OwnedClusterCost::paper_internal_cluster()
        .job_cost(hadoop.summary.makespan_seconds / 3600.0, 0.8);
    (app_name.to_string(), ec2_total, az_total, owned)
}

/// Render the generalized cost comparison as a table.
pub fn cost_comparison_table() -> Table {
    let mut t = Table::new(
        "Extended cost comparison (whole-workload totals, paper fleets)",
        &[
            "Application",
            "EC2 (16 HCXL)",
            "Azure (paper fleet)",
            "Owned cluster @80%",
        ],
    );
    for app in ["cap3", "blast", "gtm"] {
        let (name, ec2, az, owned) = cost_comparison(app);
        t.row(vec![
            name,
            ec2.to_string(),
            az.to_string(),
            owned.to_string(),
        ]);
    }
    t
}

/// The modeled numbers behind Table 4, for tests and EXPERIMENTS.md.
pub struct Table4Numbers {
    pub ec2_compute: ppc_core::Usd,
    pub azure_compute: ppc_core::Usd,
    pub owned_at_80: ppc_core::Usd,
    pub owned_at_60: ppc_core::Usd,
}

pub fn table4_numbers() -> Table4Numbers {
    let tasks = workload::cap3_sim_tasks(4096, 200);
    let app = AppModel::cap3();
    let ec2_cluster = Cluster::provision_per_core(EC2_HCXL, 16);
    let ec2 = classic_sim(
        &RunContext::new(&ec2_cluster),
        &tasks,
        &SimConfig::ec2().with_app(app),
    );
    let az_cluster = Cluster::provision_per_core(AZURE_SMALL, 128);
    let az = classic_sim(
        &RunContext::new(&az_cluster),
        &tasks,
        &SimConfig::azure().with_app(app),
    );
    let owned_cluster = Cluster::provision(BARE_XEON24, 32, 24);
    let hadoop = hadoop_sim(
        &RunContext::new(&owned_cluster),
        &tasks,
        &HadoopSimConfig {
            app,
            ..HadoopSimConfig::default()
        },
    );
    let tco = OwnedClusterCost::paper_internal_cluster();
    let job_hours = hadoop.summary.makespan_seconds / 3600.0;
    Table4Numbers {
        ec2_compute: ec2_cluster.cost(ec2.summary.makespan_seconds).compute_cost,
        azure_compute: az_cluster.cost(az.summary.makespan_seconds).compute_cost,
        owned_at_80: tco.job_cost(job_hours, 0.8),
        owned_at_60: tco.job_cost(job_hours, 0.6),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppc_core::Usd;

    #[test]
    fn tables_1_2_3_shape() {
        assert_eq!(table1().n_rows(), 4);
        assert_eq!(table2().n_rows(), 4);
        assert_eq!(table3().n_rows(), 4);
        let t1 = table1().to_string();
        assert!(t1.contains("HCXL"));
        assert!(t1.contains("0.68$"));
        let t2 = table2().to_string();
        assert!(t2.contains("azure-small"));
        assert!(t2.contains("0.12$"));
    }

    #[test]
    fn table4_reproduces_paper_shape() {
        let n = table4_numbers();
        // Paper: EC2 $10.88, Azure $15.36 — ours must match exactly when the
        // job fits in one billed hour.
        assert_eq!(
            n.ec2_compute,
            Usd::cents(1088),
            "EC2 compute {}",
            n.ec2_compute
        );
        assert_eq!(
            n.azure_compute,
            Usd::cents(1536),
            "Azure compute {}",
            n.azure_compute
        );
        // Owned cluster at high utilization beats both clouds; low
        // utilization erodes the advantage (the paper's $8.25..$11.01 span).
        assert!(n.owned_at_80 < n.ec2_compute, "owned@80 {}", n.owned_at_80);
        assert!(n.owned_at_60 > n.owned_at_80);
    }

    #[test]
    fn extended_cost_comparison_shapes() {
        let t = cost_comparison_table();
        assert_eq!(t.n_rows(), 3);
        // For every app: owned-at-80% beats both clouds (the Table 4
        // relation generalizes), and totals are positive dollars.
        for app in ["cap3", "blast", "gtm"] {
            let (_, ec2, az, owned) = cost_comparison(app);
            assert!(ec2 > Usd::ZERO && az > Usd::ZERO && owned > Usd::ZERO);
            assert!(owned < ec2, "{app}: owned {owned} vs ec2 {ec2}");
            assert!(owned < az, "{app}: owned {owned} vs azure {az}");
        }
    }

    #[test]
    fn cap3_anchor_holds() {
        // The calibrated Cap3 anchor must make the Figure 4 workload take
        // on the order of 1000 s on 16 HCXL cores.
        let tasks = workload::cap3_sim_tasks(200, 200);
        let cluster = Cluster::provision_per_core(EC2_HCXL, 2);
        let cfg = SimConfig::ec2().with_app(AppModel::cap3());
        let m = classic_sim(&RunContext::new(&cluster), &tasks, &cfg)
            .summary
            .makespan_seconds;
        assert!((800.0..1400.0).contains(&m), "16-core Cap3 makespan {m}");
    }

    #[test]
    fn table4_renders() {
        let t = table4();
        let s = t.to_string();
        assert!(s.contains("Compute cost"));
        assert!(s.contains("10.88$"), "{s}");
        assert!(s.contains("15.36$"), "{s}");
    }
}
