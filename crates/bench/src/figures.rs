//! Figures 3–15.

use ppc_apps::experiment::{
    azure_instance_study, ec2_instance_study, run_platform, InstanceStudyRow, Platform,
};
use ppc_apps::workload;
use ppc_classic::{sequential_baseline_seconds, simulate as classic_sim, SimConfig};
use ppc_compute::cluster::Cluster;
use ppc_compute::instance::{InstanceType, AZURE_SMALL, EC2_HCXL, EC2_HM4XL, EC2_LARGE};
use ppc_compute::model::AppModel;
use ppc_core::metrics::{avg_time_per_task_per_core, parallel_efficiency};
use ppc_core::report::{Figure, Series};
use ppc_core::task::TaskSpec;
use ppc_dryad::{DryadEngine, DryadSimConfig};
use ppc_exec::{Engine, RunContext};
use ppc_mapreduce::{HadoopEngine, HadoopSimConfig};

fn cost_figure(title: &str, rows: &[InstanceStudyRow]) -> Figure {
    let mut fig = Figure::new(title, "Instance type - n x workers", "cost ($)").with_precision(2);
    let mut compute = Series::new("Compute Cost (hour units)");
    let mut amortized = Series::new("Amortized Cost");
    for r in rows {
        compute.push(r.label.clone(), r.cost.compute_cost.as_f64());
        amortized.push(r.label.clone(), r.cost.amortized_cost.as_f64());
    }
    fig.add(compute);
    fig.add(amortized);
    fig
}

fn time_figure(title: &str, rows: &[InstanceStudyRow]) -> Figure {
    let mut fig =
        Figure::new(title, "Instance type - n x workers", "Compute Time (s)").with_precision(0);
    let mut s = Series::new("Compute Time");
    for r in rows {
        s.push(r.label.clone(), r.makespan_seconds);
    }
    fig.add(s);
    fig
}

// ---------------------------------------------------------------- Cap3

/// Figure 3/4 share the study: 200 files × 200 reads on 16 cores.
pub fn cap3_instance_rows() -> Vec<InstanceStudyRow> {
    let tasks = workload::cap3_sim_tasks(200, 200);
    ec2_instance_study(&tasks, AppModel::cap3(), 3)
}

/// Figure 3: Cap3 cost with different EC2 instance types.
pub fn fig03() -> Figure {
    cost_figure(
        "Figure 3: Cap3 cost with different EC2 instance types",
        &cap3_instance_rows(),
    )
}

/// Figure 4: Cap3 compute time with different instance types.
pub fn fig04() -> Figure {
    time_figure(
        "Figure 4: Cap3 compute time with different EC2 instance types",
        &cap3_instance_rows(),
    )
}

/// Figures 5/6 sweep: 128-core fleets per platform, 458-read files
/// replicated 1..=4 (weak scaling by data, the paper's method).
pub fn cap3_scalability() -> Vec<(usize, Vec<ppc_apps::experiment::ScalePoint>)> {
    let base = workload::cap3_sim_tasks(256, 458);
    (1..=4)
        .map(|rep| {
            let tasks = workload::replicate(&base, rep);
            let points = Platform::ALL
                .iter()
                .map(|&p| run_platform(p, "cap3", &tasks, AppModel::cap3(), 5))
                .collect();
            (tasks.len(), points)
        })
        .collect()
}

/// Figure 5: Cap3 parallel efficiency.
pub fn fig05() -> Figure {
    let mut fig = Figure::new(
        "Figure 5: Cap3 parallel efficiency (128 cores)",
        "files",
        "parallel efficiency",
    )
    .with_precision(3);
    let sweep = cap3_scalability();
    for platform in Platform::ALL {
        let mut s = Series::new(platform.label());
        for (n_files, points) in &sweep {
            let p = points
                .iter()
                .find(|p| p.platform == platform.label())
                .expect("platform present");
            s.push(n_files.to_string(), p.efficiency);
        }
        fig.add(s);
    }
    fig
}

/// Figure 6: Cap3 execution time for a single file per core.
pub fn fig06() -> Figure {
    let mut fig = Figure::new(
        "Figure 6: Cap3 avg time per file per core",
        "files",
        "seconds",
    )
    .with_precision(1);
    let sweep = cap3_scalability();
    for platform in Platform::ALL {
        let mut s = Series::new(platform.label());
        for (n_files, points) in &sweep {
            let p = points
                .iter()
                .find(|p| p.platform == platform.label())
                .expect("platform present");
            s.push(n_files.to_string(), p.per_task_per_core_seconds);
        }
        fig.add(s);
    }
    fig
}

// ---------------------------------------------------------------- BLAST

/// Figures 7/8 study: 64 query files × 100 sequences on 16 cores.
pub fn blast_instance_rows() -> Vec<InstanceStudyRow> {
    let tasks = workload::blast_sim_tasks(64, 100);
    ec2_instance_study(&tasks, AppModel::DEFAULT, 7)
}

/// Figure 7: cost to process 64 query files using BLAST in EC2.
pub fn fig07() -> Figure {
    cost_figure(
        "Figure 7: BLAST cost with different EC2 instance types",
        &blast_instance_rows(),
    )
}

/// Figure 8: time to process 64 query files using BLAST in EC2.
pub fn fig08() -> Figure {
    time_figure(
        "Figure 8: BLAST compute time with different EC2 instance types",
        &blast_instance_rows(),
    )
}

/// Figure 9: time to process 8 query files using BLAST on Azure instance
/// types, split as workers × threads per instance.
pub fn fig09() -> Figure {
    let tasks = workload::blast_sim_tasks(8, 100);
    // The paper's grid: every 2^i x 2^j split that fits each instance.
    let splits = [
        (1, 1),
        (2, 1),
        (1, 2),
        (4, 1),
        (2, 2),
        (1, 4),
        (8, 1),
        (4, 2),
        (2, 4),
        (1, 8),
    ];
    let grid = azure_instance_study(&tasks, AppModel::DEFAULT, &splits, 9);
    let mut fig = Figure::new(
        "Figure 9: BLAST on Azure instance types (workers x threads per instance)",
        "workers x threads",
        "Compute Time (s)",
    )
    .with_precision(0);
    for (itype, rows) in grid {
        let mut s = Series::new(itype);
        for r in rows {
            s.push(r.label.clone(), r.makespan_seconds);
        }
        fig.add(s);
    }
    fig
}

/// Figures 10/11 sweep: the 128-file inhomogeneous base set replicated
/// 1..=6 on 128-core fleets.
pub fn blast_scalability() -> Vec<(usize, Vec<ppc_apps::experiment::ScalePoint>)> {
    let base = workload::blast_sim_base_set(11);
    (1..=6)
        .map(|rep| {
            let tasks = workload::replicate(&base, rep);
            let points = Platform::ALL
                .iter()
                .map(|&p| run_platform(p, "blast", &tasks, AppModel::DEFAULT, 13))
                .collect();
            (tasks.len(), points)
        })
        .collect()
}

/// Figure 10: BLAST parallel efficiency.
pub fn fig10() -> Figure {
    let mut fig = Figure::new(
        "Figure 10: BLAST parallel efficiency (128 cores)",
        "files",
        "parallel efficiency",
    )
    .with_precision(3);
    let sweep = blast_scalability();
    for platform in Platform::ALL {
        let mut s = Series::new(platform.label());
        for (n_files, points) in &sweep {
            let p = points
                .iter()
                .find(|p| p.platform == platform.label())
                .expect("platform present");
            s.push(n_files.to_string(), p.efficiency);
        }
        fig.add(s);
    }
    fig
}

/// Figure 11: BLAST average time to process a single query file.
pub fn fig11() -> Figure {
    let mut fig = Figure::new(
        "Figure 11: BLAST avg time per query file per core",
        "files",
        "seconds",
    )
    .with_precision(1);
    let sweep = blast_scalability();
    for platform in Platform::ALL {
        let mut s = Series::new(platform.label());
        for (n_files, points) in &sweep {
            let p = points
                .iter()
                .find(|p| p.platform == platform.label())
                .expect("platform present");
            s.push(n_files.to_string(), p.per_task_per_core_seconds);
        }
        fig.add(s);
    }
    fig
}

// ---------------------------------------------------------------- GTM

/// Figures 12/13 study: 264 files × 100k points on 16 cores.
pub fn gtm_instance_rows() -> Vec<InstanceStudyRow> {
    let tasks = workload::gtm_sim_tasks(264, 100_000);
    ec2_instance_study(&tasks, AppModel::DEFAULT, 17)
}

/// Figure 12: GTM interpolation cost with different instance types.
pub fn fig12() -> Figure {
    cost_figure(
        "Figure 12: GTM cost with different EC2 instance types",
        &gtm_instance_rows(),
    )
}

/// Figure 13: GTM interpolation compute time with different instance types.
pub fn fig13() -> Figure {
    time_figure(
        "Figure 13: GTM compute time with different EC2 instance types",
        &gtm_instance_rows(),
    )
}

/// One GTM scalability point on an explicit fleet through the Classic sim.
fn gtm_classic_point(
    itype: InstanceType,
    n: usize,
    workers: usize,
    tasks: &[TaskSpec],
) -> (f64, f64) {
    let cluster = Cluster::provision(itype, n, workers);
    let cfg = SimConfig::ec2().with_app(AppModel::DEFAULT);
    let report = classic_sim(&RunContext::new(&cluster).with_seed(19), tasks, &cfg);
    let t1 = sequential_baseline_seconds(&itype, tasks, &AppModel::DEFAULT);
    let cores = cluster.total_workers();
    (
        parallel_efficiency(t1, report.summary.makespan_seconds, cores),
        avg_time_per_task_per_core(report.summary.makespan_seconds, cores, tasks.len()),
    )
}

/// One GTM point on Hadoop / Dryad bare metal.
fn gtm_platform_point(platform: Platform, tasks: &[TaskSpec]) -> (f64, f64) {
    let cluster = platform.fleet("gtm", 128);
    let itype = cluster.itype();
    let app = AppModel::DEFAULT;
    // Platform picks the engine; the simulate call is paradigm-generic.
    let engine: Box<dyn Engine> = match platform {
        Platform::Hadoop => Box::new(HadoopEngine {
            sim: HadoopSimConfig {
                app,
                ..Default::default()
            },
            ..Default::default()
        }),
        Platform::Dryad => Box::new(DryadEngine {
            sim: DryadSimConfig {
                app,
                ..Default::default()
            },
            ..Default::default()
        }),
        _ => unreachable!("classic platforms use gtm_classic_point"),
    };
    let ctx = RunContext::new(&cluster).with_seed(19);
    let summary = engine.simulate(&ctx, tasks).summary;
    let t1 = sequential_baseline_seconds(&itype, tasks, &app);
    let cores = cluster.total_workers();
    (
        parallel_efficiency(t1, summary.makespan_seconds, cores),
        avg_time_per_task_per_core(summary.makespan_seconds, cores, tasks.len()),
    )
}

/// Per-replication scalability points: (n_files, efficiency, per-file-core seconds).
pub type ScalabilitySeries = Vec<(usize, f64, f64)>;

/// GTM scalability series: per-series (label, per-replication points).
pub fn gtm_scalability() -> Vec<(String, ScalabilitySeries)> {
    let base = workload::gtm_sim_tasks(66, 100_000);
    let reps: Vec<Vec<TaskSpec>> = (1..=4).map(|r| workload::replicate(&base, r)).collect();
    // The paper plots EC2 Large / HCXL / HM4XL separately for GTM (§6.2).
    let mut out: Vec<(String, ScalabilitySeries)> = Vec::new();
    let classic: [(&str, InstanceType, usize, usize); 4] = [
        ("EC2 Large", EC2_LARGE, 64, 2),
        ("EC2 HCXL", EC2_HCXL, 16, 8),
        ("EC2 HM4XL", EC2_HM4XL, 16, 8),
        ("Azure Small", AZURE_SMALL, 128, 1),
    ];
    for (label, itype, n, w) in classic {
        let pts = reps
            .iter()
            .map(|tasks| {
                let (eff, per) = gtm_classic_point(itype, n, w, tasks);
                (tasks.len(), eff, per)
            })
            .collect();
        out.push((label.to_string(), pts));
    }
    for platform in [Platform::Hadoop, Platform::Dryad] {
        let pts = reps
            .iter()
            .map(|tasks| {
                let (eff, per) = gtm_platform_point(platform, tasks);
                (tasks.len(), eff, per)
            })
            .collect();
        out.push((platform.label().to_string(), pts));
    }
    out
}

/// Figure 14: GTM interpolation parallel efficiency.
pub fn fig14() -> Figure {
    let mut fig = Figure::new(
        "Figure 14: GTM interpolation parallel efficiency",
        "files",
        "parallel efficiency",
    )
    .with_precision(3);
    for (label, pts) in gtm_scalability() {
        let mut s = Series::new(label);
        for (files, eff, _) in pts {
            s.push(files.to_string(), eff);
        }
        fig.add(s);
    }
    fig
}

/// Figure 15: GTM interpolation performance per core.
pub fn fig15() -> Figure {
    let mut fig = Figure::new(
        "Figure 15: GTM avg time per file per core",
        "files",
        "seconds",
    )
    .with_precision(1);
    for (label, pts) in gtm_scalability() {
        let mut s = Series::new(label);
        for (files, _, per) in pts {
            s.push(files.to_string(), per);
        }
        fig.add(s);
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series_value(fig: &Figure, series: &str, x: &str) -> f64 {
        fig.series
            .iter()
            .find(|s| s.label == series)
            .unwrap_or_else(|| panic!("series {series}"))
            .value_at(x)
            .unwrap_or_else(|| panic!("x {x}"))
    }

    #[test]
    fn fig04_ordering_matches_paper() {
        let rows = cap3_instance_rows();
        let by = |p: &str| {
            rows.iter()
                .find(|r| r.label.starts_with(p))
                .unwrap()
                .makespan_seconds
        };
        assert!(by("HM4XL") < by("HCXL"));
        assert!(by("HCXL") < by("XL"));
        // Figure 4's scale: on the order of 1000-2000 s.
        assert!((600.0..2500.0).contains(&by("HCXL")), "{}", by("HCXL"));
    }

    #[test]
    fn fig03_hcxl_most_cost_effective() {
        let rows = cap3_instance_rows();
        let cheapest = rows.iter().min_by_key(|r| r.cost.compute_cost).unwrap();
        assert!(cheapest.label.starts_with("HCXL"));
        // Amortized always <= compute cost.
        for r in &rows {
            assert!(r.cost.amortized_cost <= r.cost.compute_cost);
        }
    }

    #[test]
    fn fig05_efficiencies_within_20_percent_band() {
        let fig = fig05();
        // The paper: "all four implementations exhibit comparable parallel
        // efficiency (within 20%) with low parallelization overheads".
        let effs: Vec<f64> = Platform::ALL
            .iter()
            .map(|p| series_value(&fig, p.label(), "1024"))
            .collect();
        for &e in &effs {
            assert!(e > 0.6 && e <= 1.05, "efficiency {e}");
        }
        let min = effs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = effs.iter().cloned().fold(0.0, f64::max);
        assert!(max - min <= 0.25, "platform spread {min}..{max}");
    }

    #[test]
    fn fig06_windows_cap3_faster_per_file() {
        let fig = fig06();
        // Cap3 runs ~12.5% faster on Windows: Azure/Dryad per-file times
        // undercut EC2/Hadoop.
        let ec2 = series_value(&fig, "EC2", "1024");
        let azure = series_value(&fig, "Azure", "1024");
        let hadoop = series_value(&fig, "Hadoop", "1024");
        let dryad = series_value(&fig, "DryadLINQ", "1024");
        assert!(azure < ec2, "azure {azure} vs ec2 {ec2}");
        assert!(dryad < hadoop, "dryad {dryad} vs hadoop {hadoop}");
    }

    #[test]
    fn fig08_memory_pressure_shapes_blast() {
        let rows = blast_instance_rows();
        let by = |p: &str| {
            rows.iter()
                .find(|r| r.label.starts_with(p))
                .unwrap()
                .makespan_seconds
        };
        // HM4XL fastest (clock + memory); HCXL roughly comparable to XL
        // (clock advantage offsets memory-pressure penalty, §5.1).
        assert!(by("HM4XL") < by("HCXL"));
        let ratio = by("HCXL") / by("XL");
        assert!((0.7..1.4).contains(&ratio), "HCXL/XL ratio {ratio}");
        // HCXL still most cost-effective (§5.1).
        let cheapest = rows.iter().min_by_key(|r| r.cost.compute_cost).unwrap();
        assert!(cheapest.label.starts_with("HCXL"), "{}", cheapest.label);
    }

    #[test]
    fn fig09_large_memory_wins_blast_on_azure() {
        let fig = fig09();
        let best = |series: &str| {
            fig.series
                .iter()
                .find(|s| s.label == series)
                .unwrap()
                .points
                .iter()
                .map(|&(_, v)| v)
                .fold(f64::INFINITY, f64::min)
        };
        // "Azure Large and Extra-Large instances deliver the best
        // performance for BLAST" — the DB fits in memory there.
        assert!(best("azure-large") < best("azure-small"));
        assert!(best("azure-xlarge") < best("azure-medium"));
    }

    #[test]
    fn fig10_shapes() {
        let fig = fig10();
        // EC2 BLAST efficiency lowest of the four (§5.2: HCXL memory limits),
        // Windows platforms (Azure/Dryad) at or above the others.
        let at = |p: &str| series_value(&fig, p, "768");
        assert!(
            at("EC2") < at("Azure"),
            "ec2 {} vs azure {}",
            at("EC2"),
            at("Azure")
        );
        assert!(at("EC2") < at("DryadLINQ"));
        for p in Platform::ALL {
            let e = at(p.label());
            assert!(e > 0.45 && e <= 1.05, "{}: {e}", p.label());
        }
    }

    #[test]
    fn fig13_gtm_memory_bottleneck() {
        let rows = gtm_instance_rows();
        let by = |p: &str| {
            rows.iter()
                .find(|r| r.label.starts_with(p))
                .unwrap()
                .makespan_seconds
        };
        // HM4XL best performance; HCXL most economical (§6.1).
        assert!(by("HM4XL") < by("HCXL"));
        assert!(by("HM4XL") < by("L -"));
        let cheapest = gtm_instance_rows()
            .iter()
            .min_by_key(|r| r.cost.compute_cost)
            .unwrap()
            .label
            .clone();
        assert!(cheapest.starts_with("HCXL"), "{cheapest}");
    }

    #[test]
    fn fig14_efficiency_ordering() {
        let fig = fig14();
        let at = |s: &str| series_value(&fig, s, "264");
        // §6.2: Azure Small best overall efficiency; EC2 Large best among
        // EC2 types; DryadLINQ (16-core nodes) lowest.
        assert!(at("Azure Small") > at("EC2 HCXL"));
        assert!(at("EC2 Large") > at("EC2 HCXL"));
        assert!(at("DryadLINQ") < at("Hadoop"));
        assert!(at("DryadLINQ") < at("EC2 Large"));
    }

    #[test]
    fn blast_cost_at_scale_matches_paper_ratio() {
        // Paper: ~$10 EC2 vs ~$12.50 Azure amortized for 768 query files —
        // Azure costs ~25% more. Our modeled dollars are lower in absolute
        // terms, but the provider ratio must hold.
        // §5.2's footnote: EC2 ran 16 HCXL, Azure 16 Large instances.
        let tasks = workload::replicate(&workload::blast_sim_base_set(11), 6);
        let amortized = |itype, cfg: &SimConfig| {
            let cluster = Cluster::provision_per_core(itype, 16);
            let ctx = RunContext::new(&cluster).with_seed(21);
            let makespan = classic_sim(&ctx, &tasks, cfg).summary.makespan_seconds;
            cluster.cost(makespan).amortized_cost
        };
        let ec2 = amortized(EC2_HCXL, &SimConfig::ec2());
        let azure = amortized(ppc_compute::instance::AZURE_LARGE, &SimConfig::azure());
        assert!(azure > ec2, "azure {azure} vs ec2 {ec2}");
        let ratio = azure.as_f64() / ec2.as_f64();
        assert!(
            (1.02..1.7).contains(&ratio),
            "azure/ec2 amortized ratio {ratio}"
        );
        // Same order of magnitude as the paper's dollars.
        assert!((3.0..20.0).contains(&ec2.as_f64()), "ec2 {ec2}");
        assert!((4.0..25.0).contains(&azure.as_f64()), "azure {azure}");
    }

    #[test]
    fn instance_orderings_robust_across_seeds() {
        // The headline orderings must not be artifacts of one RNG seed.
        for seed in [1u64, 7, 99, 1234, 777] {
            let cap3 =
                ec2_instance_study(&workload::cap3_sim_tasks(200, 200), AppModel::cap3(), seed);
            let by = |rows: &[InstanceStudyRow], p: &str| {
                rows.iter()
                    .find(|r| r.label.starts_with(p))
                    .unwrap()
                    .makespan_seconds
            };
            assert!(by(&cap3, "HM4XL") < by(&cap3, "HCXL"), "seed {seed}");
            assert!(by(&cap3, "HCXL") < by(&cap3, "L -"), "seed {seed}");
            let cheapest = cap3.iter().min_by_key(|r| r.cost.compute_cost).unwrap();
            assert!(
                cheapest.label.starts_with("HCXL"),
                "seed {seed}: {}",
                cheapest.label
            );

            let gtm = ec2_instance_study(
                &workload::gtm_sim_tasks(264, 100_000),
                AppModel::DEFAULT,
                seed,
            );
            assert!(by(&gtm, "HM4XL") < by(&gtm, "HCXL"), "seed {seed}");
            let gtm_slowest = gtm
                .iter()
                .max_by(|a, b| a.makespan_seconds.total_cmp(&b.makespan_seconds))
                .unwrap();
            assert!(
                gtm_slowest.label.starts_with("HCXL"),
                "seed {seed}: {}",
                gtm_slowest.label
            );
        }
    }

    #[test]
    fn figures_render_non_empty() {
        for fig in [fig03(), fig04(), fig09(), fig12(), fig15()] {
            let table = fig.to_table();
            assert!(!table.is_empty(), "{}", fig.title);
            assert!(!fig.to_csv().is_empty());
        }
    }
}
