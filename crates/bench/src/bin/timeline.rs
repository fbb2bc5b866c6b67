//! Render a per-worker execution timeline (Gantt view) of a simulated
//! Classic Cloud run — the observability view operators use to spot load
//! imbalance. Compare a homogeneous run against an inhomogeneous one.
use ppc_apps::workload;
use ppc_classic::{simulate, SimConfig};
use ppc_compute::cluster::Cluster;
use ppc_compute::instance::EC2_HCXL;
use ppc_compute::model::AppModel;
use ppc_exec::RunContext;

fn show(title: &str, tasks: &[ppc_core::TaskSpec]) {
    let cluster = Cluster::provision(EC2_HCXL, 1, 8);
    let cfg = SimConfig::ec2().with_app(AppModel::cap3());
    let report = simulate(&RunContext::new(&cluster).with_trace(true), tasks, &cfg);
    let timeline = report.timeline.as_ref().expect("traced");
    println!("## {title}");
    println!(
        "makespan {:.0} s, utilization {:.0}%",
        report.summary.makespan_seconds,
        100.0 * timeline.utilization(8)
    );
    print!("{}", timeline.render_ascii(64));
    println!();
}

fn main() {
    show(
        "Homogeneous Cap3 files (8 workers)",
        &workload::cap3_sim_tasks(40, 200),
    );
    show(
        "Inhomogeneous Cap3 files (8 workers)",
        &workload::cap3_sim_tasks_inhomogeneous(40, 200, 0.8, 7),
    );
}
