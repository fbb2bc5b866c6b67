//! Traced reference runs: one span trace per paradigm simulator on the
//! same Cap3 workload, plus their overhead decompositions.
//!
//! This is the module behind `--bin trace_artifact`, which CI runs to
//! publish a `chrome://tracing` / Perfetto JSON of a full run.

use ppc_apps::workload;
use ppc_classic::{simulate as classic_sim, SimConfig};
use ppc_compute::cluster::Cluster;
use ppc_compute::instance::{BARE_CAP3, EC2_HCXL};
use ppc_compute::model::AppModel;
use ppc_dryad::{simulate as dryad_sim, DryadSimConfig};
use ppc_exec::RunContext;
use ppc_mapreduce::{simulate as hadoop_sim, HadoopSimConfig};
use ppc_trace::Trace;

/// One traced Cap3 run per paradigm simulator, in Table 3 order.
pub fn traced_cap3_runs() -> Vec<Trace> {
    let tasks = workload::cap3_sim_tasks(128, 200);

    let classic_cluster = Cluster::provision(EC2_HCXL, 4, 8);
    let classic_cfg = SimConfig::ec2().with_app(AppModel::cap3());
    let classic_ctx = RunContext::new(&classic_cluster).with_trace(true);
    let classic = classic_sim(&classic_ctx, &tasks, &classic_cfg);

    let bare_ctx = RunContext::new(&Cluster::provision(BARE_CAP3, 4, 8)).with_trace(true);
    let hadoop_cfg = HadoopSimConfig {
        app: AppModel::cap3(),
        ..HadoopSimConfig::default()
    };
    let hadoop = hadoop_sim(&bare_ctx, &tasks, &hadoop_cfg);

    let dryad_cfg = DryadSimConfig {
        app: AppModel::cap3(),
        ..DryadSimConfig::default()
    };
    let dryad = dryad_sim(&bare_ctx, &tasks, &dryad_cfg);

    vec![
        classic.core.trace.expect("classic sim trace"),
        hadoop.core.trace.expect("hadoop sim trace"),
        dryad.core.trace.expect("dryad sim trace"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppc_trace::OverheadReport;

    #[test]
    fn traced_runs_are_sound_and_decompose() {
        for trace in traced_cap3_runs() {
            let problems = trace.check_well_formed();
            assert!(problems.is_empty(), "{problems:?}");
            let report = OverheadReport::from_trace(&trace);
            assert!(report.compute_s > 0.0, "{}", report.platform);
            // The decomposition never invents core-time. The bound is the
            // horizon (last span end), not the makespan: speculative
            // duplicates keep running (and burning cores) after the job
            // completes, and the report accounts for exactly that.
            assert!(report.horizon_s >= report.makespan_s);
            let total = report.compute_s + report.overhead_s() + report.idle_s;
            assert!(
                (total - report.cores as f64 * report.horizon_s).abs()
                    <= report.cores as f64 * report.horizon_s * 1e-9 + 1e-6,
                "{}: buckets must tile cores x horizon exactly",
                report.platform
            );
            let json = ppc_trace::chrome_trace_json(&trace);
            assert!(json.contains("traceEvents"));
        }
    }
}
