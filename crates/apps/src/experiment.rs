//! Shared experiment drivers for the benchmark harness.
//!
//! Three reusable studies cover all of the paper's figures:
//!
//! * [`ec2_instance_study`] — the 16-core instance-type sweeps behind
//!   Figures 3/4 (Cap3), 7/8 (BLAST), 12/13 (GTM).
//! * [`azure_instance_study`] — Figure 9's Azure workers×threads grid.
//! * [`scalability_study`] — the four-platform efficiency/per-file studies
//!   behind Figures 5/6, 10/11, 14/15.

use ppc_classic::{sequential_baseline_seconds, simulate as classic_sim, ClassicEngine, SimConfig};
use ppc_compute::billing::CostBreakdown;
use ppc_compute::cluster::Cluster;
use ppc_compute::instance::{
    InstanceType, AZURE_SMALL, BARE_CAP3, BARE_CAP3_WIN, BARE_HPC16, BARE_IDATAPLEX, BARE_XEON24,
    EC2_HCXL, EC2_HM4XL, EC2_LARGE, EC2_XLARGE,
};
use ppc_compute::model::AppModel;
use ppc_core::metrics::{avg_time_per_task_per_core, parallel_efficiency};
use ppc_core::task::TaskSpec;
use ppc_dryad::{DryadEngine, DryadSimConfig};
use ppc_exec::{Engine, RunContext};
use ppc_mapreduce::{simulate as hadoop_sim, HadoopEngine, HadoopSimConfig};

/// One row of an instance-type study (one bar group in Figures 3/4 etc.).
#[derive(Debug, Clone)]
pub struct InstanceStudyRow {
    /// The paper's axis label, e.g. "HCXL - 2 x 8".
    pub label: String,
    pub makespan_seconds: f64,
    pub cost: CostBreakdown,
}

/// The paper's 16-core EC2 configurations (§3's axis labels).
pub fn sixteen_core_ec2_configs() -> Vec<Cluster> {
    vec![
        Cluster::provision_per_core(EC2_LARGE, 8),
        Cluster::provision_per_core(EC2_XLARGE, 4),
        Cluster::provision_per_core(EC2_HCXL, 2),
        Cluster::provision_per_core(EC2_HM4XL, 2),
    ]
}

/// Run a workload on each 16-core EC2 config through the Classic Cloud
/// simulator; returns one row per config.
pub fn ec2_instance_study(tasks: &[TaskSpec], app: AppModel, seed: u64) -> Vec<InstanceStudyRow> {
    sixteen_core_ec2_configs()
        .into_iter()
        .map(|cluster| {
            let cfg = SimConfig::ec2().with_app(app);
            let report = classic_sim(&RunContext::new(&cluster).with_seed(seed), tasks, &cfg);
            InstanceStudyRow {
                label: cluster.label().to_string(),
                makespan_seconds: report.summary.makespan_seconds,
                cost: cluster.cost(report.summary.makespan_seconds),
            }
        })
        .collect()
}

/// Azure instance-type study (Figure 9): fixed total core count spread over
/// 8 Small / 4 Medium / 2 Large / 1 XL instances, with a workers×threads
/// split per instance. A `w×t` split runs `w` worker processes per
/// instance; each gets the whole task but only `t` of the instance's cores.
/// Threads inside a worker parallelize one task with efficiency
/// `thread_efficiency` (<1: BLAST threads beat processes only on memory).
pub fn azure_instance_study(
    tasks: &[TaskSpec],
    app: AppModel,
    workers_threads: &[(usize, usize)],
    seed: u64,
) -> Vec<(String, Vec<InstanceStudyRow>)> {
    use ppc_compute::instance::{AZURE_LARGE, AZURE_MEDIUM, AZURE_XLARGE};
    let types: [(InstanceType, usize); 4] = [
        (AZURE_SMALL, 8),
        (AZURE_MEDIUM, 4),
        (AZURE_LARGE, 2),
        (AZURE_XLARGE, 1),
    ];
    types
        .iter()
        .map(|&(itype, n_instances)| {
            let rows = workers_threads
                .iter()
                .filter(|&&(w, t)| w * t <= itype.cores && w >= 1 && t >= 1)
                .map(|&(w, t)| {
                    // Threaded task: acts like a task with 1/`t_eff` of the
                    // serial time on one "fat" worker slot.
                    let thread_eff = 0.85f64.powf((t as f64).log2().max(0.0));
                    let scaled: Vec<TaskSpec> = tasks
                        .iter()
                        .map(|task| {
                            let mut task = task.clone();
                            task.profile.cpu_seconds_ref /= t as f64 * thread_eff.max(0.5);
                            task
                        })
                        .collect();
                    let cluster = Cluster::provision(itype, n_instances, w);
                    let cfg = SimConfig::azure().with_app(app);
                    let ctx = RunContext::new(&cluster).with_seed(seed);
                    let report = classic_sim(&ctx, &scaled, &cfg);
                    InstanceStudyRow {
                        label: format!("{}x{}", w, t),
                        makespan_seconds: report.summary.makespan_seconds,
                        cost: cluster.cost(report.summary.makespan_seconds),
                    }
                })
                .collect();
            (itype.name.to_string(), rows)
        })
        .collect()
}

/// The four platforms of the scalability studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Platform {
    /// Classic Cloud on EC2 HCXL instances.
    ClassicEc2,
    /// Classic Cloud on Azure Small instances.
    ClassicAzure,
    /// Hadoop on a bare-metal Linux cluster.
    Hadoop,
    /// DryadLINQ on a bare-metal Windows HPC cluster.
    Dryad,
}

impl Platform {
    pub const ALL: [Platform; 4] = [
        Platform::ClassicEc2,
        Platform::ClassicAzure,
        Platform::Hadoop,
        Platform::Dryad,
    ];

    pub fn label(&self) -> &'static str {
        match self {
            Platform::ClassicEc2 => "EC2",
            Platform::ClassicAzure => "Azure",
            Platform::Hadoop => "Hadoop",
            Platform::Dryad => "DryadLINQ",
        }
    }

    /// Node type per application, following §4.2/§5.2/§6.2's testbeds.
    pub fn node_type(&self, application: &str) -> InstanceType {
        match self {
            Platform::ClassicEc2 => EC2_HCXL,
            Platform::ClassicAzure => AZURE_SMALL,
            Platform::Hadoop => match application {
                "blast" => BARE_IDATAPLEX,
                "gtm" => BARE_XEON24,
                _ => BARE_CAP3,
            },
            Platform::Dryad => match application {
                "cap3" => BARE_CAP3_WIN,
                _ => BARE_HPC16,
            },
        }
    }

    /// Workers per node for a given application (Hadoop's GTM cluster was
    /// "configured to use only 8 cores per node", §6.2).
    pub fn workers_per_node(&self, application: &str) -> usize {
        let itype = self.node_type(application);
        match (self, application) {
            (Platform::Hadoop, "gtm") => 8,
            _ => itype.cores,
        }
    }

    /// Build a fleet with (at least) `cores` worker cores.
    pub fn fleet(&self, application: &str, cores: usize) -> Cluster {
        let itype = self.node_type(application);
        let workers = self.workers_per_node(application);
        let n_nodes = cores.div_ceil(workers).max(1);
        Cluster::provision(itype, n_nodes, workers)
    }
}

/// One point of a scalability study.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    pub platform: &'static str,
    pub cores: usize,
    pub n_tasks: usize,
    pub makespan_seconds: f64,
    /// Equation 1, with `T1` measured in the same environment.
    pub efficiency: f64,
    /// Equation 2.
    pub per_task_per_core_seconds: f64,
}

/// Run one platform at one fleet size over a task set.
pub fn run_platform(
    platform: Platform,
    application: &str,
    tasks: &[TaskSpec],
    app: AppModel,
    seed: u64,
) -> ScalePoint {
    let cores = default_cores(platform, tasks.len());
    run_platform_sized(platform, application, tasks, app, cores, seed)
}

fn default_cores(platform: Platform, _n_tasks: usize) -> usize {
    match platform {
        Platform::ClassicEc2 => 128,   // 16 HCXL (§4.2, §5.2)
        Platform::ClassicAzure => 128, // 128 Small (§4.2)
        Platform::Hadoop => 128,
        Platform::Dryad => 128,
    }
}

/// Run one platform with an explicit core count.
pub fn run_platform_sized(
    platform: Platform,
    application: &str,
    tasks: &[TaskSpec],
    app: AppModel,
    cores: usize,
    seed: u64,
) -> ScalePoint {
    let cluster = platform.fleet(application, cores);
    let itype = cluster.itype();
    // The platform choice picks an engine; from here on the call is
    // paradigm-generic, with the seed arriving through the context.
    let engine: Box<dyn Engine> = match platform {
        Platform::ClassicEc2 | Platform::ClassicAzure => Box::new(ClassicEngine {
            sim: SimConfig::ec2().with_app(app),
            ..ClassicEngine::default()
        }),
        Platform::Hadoop => Box::new(HadoopEngine {
            sim: HadoopSimConfig {
                app,
                ..HadoopSimConfig::default()
            },
            ..HadoopEngine::default()
        }),
        Platform::Dryad => Box::new(DryadEngine {
            sim: DryadSimConfig {
                app,
                ..DryadSimConfig::default()
            },
            ..DryadEngine::default()
        }),
    };
    let ctx = RunContext::new(&cluster).with_seed(seed);
    let summary = engine.simulate(&ctx, tasks).summary;
    // T1 in the same environment (one worker, whole node otherwise idle).
    let t1 = sequential_baseline_seconds(&itype, tasks, &app);
    ScalePoint {
        platform: platform.label(),
        cores: cluster.total_workers(),
        n_tasks: tasks.len(),
        makespan_seconds: summary.makespan_seconds,
        efficiency: parallel_efficiency(t1, summary.makespan_seconds, cluster.total_workers()),
        per_task_per_core_seconds: avg_time_per_task_per_core(
            summary.makespan_seconds,
            cluster.total_workers(),
            tasks.len(),
        ),
    }
}

/// Elastic-MapReduce-style run: Hadoop rented on EC2 instances (Table 3
/// lists "Amazon Elastic MapReduce" as a Hadoop environment). Same
/// scheduler and overheads as the bare-metal Hadoop sim, but on cloud
/// instance types with hourly billing — letting the harness compare
/// "bring your own cluster" vs "rent Hadoop by the hour" vs Classic Cloud.
pub fn run_emr(
    itype: InstanceType,
    n_instances: usize,
    tasks: &[TaskSpec],
    app: AppModel,
    seed: u64,
) -> (ScalePoint, ppc_compute::billing::CostBreakdown) {
    let cluster = Cluster::provision_per_core(itype, n_instances);
    let cfg = HadoopSimConfig {
        app,
        ..HadoopSimConfig::default()
    };
    let summary = hadoop_sim(&RunContext::new(&cluster).with_seed(seed), tasks, &cfg)
        .core
        .summary;
    let t1 = sequential_baseline_seconds(&itype, tasks, &app);
    let point = ScalePoint {
        platform: "EMR",
        cores: cluster.total_workers(),
        n_tasks: tasks.len(),
        makespan_seconds: summary.makespan_seconds,
        efficiency: parallel_efficiency(t1, summary.makespan_seconds, cluster.total_workers()),
        per_task_per_core_seconds: avg_time_per_task_per_core(
            summary.makespan_seconds,
            cluster.total_workers(),
            tasks.len(),
        ),
    };
    let cost = cluster.cost(summary.makespan_seconds);
    (point, cost)
}

/// The full scalability study: every platform, workload replicated 1..=`max_rep`
/// times over a fixed paper-sized fleet.
pub fn scalability_study(
    application: &str,
    base_tasks: &[TaskSpec],
    app: AppModel,
    max_rep: usize,
    seed: u64,
) -> Vec<ScalePoint> {
    let mut out = Vec::new();
    for rep in 1..=max_rep {
        let tasks = crate::workload::replicate(base_tasks, rep);
        for platform in Platform::ALL {
            out.push(run_platform(platform, application, &tasks, app, seed));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{blast_sim_base_set, cap3_sim_tasks, gtm_sim_tasks};

    #[test]
    fn ec2_configs_are_all_16_cores() {
        for c in sixteen_core_ec2_configs() {
            assert_eq!(c.total_cores(), 16, "{}", c.label());
        }
    }

    #[test]
    fn cap3_instance_study_shapes() {
        // Figure 4: HM4XL fastest, HCXL in the middle, L/XL slowest.
        let tasks = cap3_sim_tasks(200, 200);
        let rows = ec2_instance_study(&tasks, AppModel::cap3(), 1);
        let by = |label: &str| rows.iter().find(|r| r.label.starts_with(label)).unwrap();
        assert!(by("HM4XL").makespan_seconds < by("HCXL").makespan_seconds);
        assert!(by("HCXL").makespan_seconds < by("L -").makespan_seconds);
        // Figure 3: HCXL is the cheapest effective option per compute cost.
        let cheapest = rows.iter().min_by_key(|r| r.cost.compute_cost).unwrap();
        assert!(
            cheapest.label.starts_with("HCXL"),
            "cheapest {}",
            cheapest.label
        );
        // HM4XL is the most expensive despite being fastest.
        let priciest = rows.iter().max_by_key(|r| r.cost.compute_cost).unwrap();
        assert!(
            priciest.label.starts_with("HM4XL"),
            "priciest {}",
            priciest.label
        );
    }

    #[test]
    fn gtm_study_is_memory_shaped() {
        // Figure 13: HM4XL best time; Large beats XL per §6.1's bandwidth
        // logic? (The paper: "Large instances achieved the best parallel
        // efficiency, HM4XL the best performance, HCXL the most economical".)
        let tasks = gtm_sim_tasks(264, 100_000);
        let rows = ec2_instance_study(&tasks, AppModel::DEFAULT, 2);
        let by = |label: &str| rows.iter().find(|r| r.label.starts_with(label)).unwrap();
        assert!(by("HM4XL").makespan_seconds < by("HCXL").makespan_seconds);
        let cheapest = rows.iter().min_by_key(|r| r.cost.compute_cost).unwrap();
        assert!(
            cheapest.label.starts_with("HCXL"),
            "cheapest {}",
            cheapest.label
        );
    }

    #[test]
    fn scalability_efficiencies_sane() {
        let base = blast_sim_base_set(3);
        let points = scalability_study("blast", &base, AppModel::DEFAULT, 2, 4);
        assert_eq!(points.len(), 8);
        for p in &points {
            assert!(
                p.efficiency > 0.3 && p.efficiency <= 1.05,
                "{}: {}",
                p.platform,
                p.efficiency
            );
            assert!(p.makespan_seconds > 0.0);
        }
        // More files on the same fleet -> better efficiency (startup
        // amortizes) or at least comparable.
        let ec2_1 = points
            .iter()
            .find(|p| p.platform == "EC2" && p.n_tasks == 128)
            .unwrap();
        let ec2_2 = points
            .iter()
            .find(|p| p.platform == "EC2" && p.n_tasks == 256)
            .unwrap();
        assert!(ec2_2.efficiency > ec2_1.efficiency - 0.05);
    }

    #[test]
    fn azure_study_grid() {
        let tasks = crate::workload::blast_sim_tasks(8, 100);
        let grid = azure_instance_study(
            &tasks,
            AppModel::DEFAULT,
            &[
                (1, 1),
                (2, 1),
                (4, 1),
                (8, 1),
                (1, 2),
                (1, 4),
                (1, 8),
                (2, 4),
            ],
            5,
        );
        assert_eq!(grid.len(), 4);
        let (name, rows) = &grid[0];
        assert_eq!(name, "azure-small");
        // Small instances only admit 1x1.
        assert_eq!(rows.len(), 1);
        let (name, rows) = &grid[3];
        assert_eq!(name, "azure-xlarge");
        assert!(rows.len() >= 5, "XL admits many splits: {}", rows.len());
        // Figure 9's shape: Azure Large/XL beat Small for BLAST (DB fits).
        let small_best = grid[0]
            .1
            .iter()
            .map(|r| r.makespan_seconds)
            .fold(f64::INFINITY, f64::min);
        let xl_best = grid[3]
            .1
            .iter()
            .map(|r| r.makespan_seconds)
            .fold(f64::INFINITY, f64::min);
        assert!(xl_best < small_best, "xl {xl_best} vs small {small_best}");
    }

    #[test]
    fn emr_costs_like_classic_but_skips_storage_path() {
        // EMR (Hadoop-on-EC2) reads local disks, so for I/O-light tasks its
        // makespan tracks the Classic Cloud's within the dispatch overhead,
        // and the instance bill is computed the same way.
        let tasks = cap3_sim_tasks(256, 200);
        let (point, cost) = run_emr(
            ppc_compute::instance::EC2_HCXL,
            16,
            &tasks,
            AppModel::cap3(),
            9,
        );
        assert_eq!(point.cores, 128);
        assert!(point.efficiency > 0.8, "{}", point.efficiency);
        assert!(cost.compute_cost >= cost.amortized_cost);
        let classic = run_platform_sized(
            Platform::ClassicEc2,
            "cap3",
            &tasks,
            AppModel::cap3(),
            128,
            9,
        );
        let ratio = point.makespan_seconds / classic.makespan_seconds;
        assert!((0.8..1.3).contains(&ratio), "EMR vs classic ratio {ratio}");
    }

    #[test]
    fn platform_fleets() {
        assert_eq!(Platform::ClassicAzure.fleet("cap3", 128).n_nodes(), 128);
        assert_eq!(Platform::ClassicEc2.fleet("cap3", 128).n_nodes(), 16);
        assert_eq!(
            Platform::Hadoop.fleet("gtm", 128).itype().name,
            "bare-xeon24"
        );
        assert_eq!(Platform::Hadoop.workers_per_node("gtm"), 8);
        assert_eq!(
            Platform::Dryad.fleet("cap3", 128).itype().name,
            "bare-8x2.5-win"
        );
    }
}
