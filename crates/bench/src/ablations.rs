//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! These go beyond the paper's figures: each isolates one mechanism the
//! paper's architecture discussion credits, and measures what happens
//! without it.

use ppc_apps::workload;
use ppc_autoscale::{AutoscaleConfig, Policy as ScalePolicy, StepRule};
use ppc_chaos::FaultSchedule;
use ppc_classic::{simulate as classic_sim, SimConfig};
use ppc_compute::cluster::Cluster;
use ppc_compute::instance::{BARE_CAP3, EC2_HCXL};
use ppc_compute::model::AppModel;
use ppc_core::json::Json;
use ppc_core::report::{Figure, Series};
use ppc_dryad::{simulate as dryad_sim, DryadSimConfig};
use ppc_exec::RunContext;
use ppc_mapreduce::{simulate as hadoop_sim, HadoopSimConfig};
use ppc_resilience::ResiliencePolicy;
use ppc_storage::latency::LatencyModel;
use std::sync::Arc;

/// Visibility timeout vs wasted work (§2.1.3's fault-tolerance knob): with
/// worker failures on, a short timeout re-executes tasks aggressively, while
/// a long one idles before recovering. Reports makespan and redundant
/// executions across timeouts.
pub fn ablate_visibility_timeout() -> Figure {
    let tasks = workload::cap3_sim_tasks(256, 200);
    let cluster = Cluster::provision_per_core(EC2_HCXL, 4);
    let mut fig = Figure::new(
        "Ablation: visibility timeout under 5% worker failure",
        "visibility timeout (s)",
        "value",
    )
    .with_precision(1);
    let mut makespan = Series::new("makespan (s)");
    let mut redundant = Series::new("redundant executions");
    for timeout in [30.0, 60.0, 120.0, 300.0, 600.0, 1800.0] {
        let cfg = SimConfig::ec2()
            .with_app(AppModel::cap3())
            .with_failures(0.05, timeout);
        let report = classic_sim(&RunContext::new(&cluster), &tasks, &cfg);
        makespan.push(format!("{timeout}"), report.summary.makespan_seconds);
        redundant.push(format!("{timeout}"), report.redundant_executions() as f64);
    }
    fig.add(makespan);
    fig.add(redundant);
    fig
}

/// Chaos ablation: the same i.i.d. worker-death dice (one shared
/// [`FaultSchedule`] per rate) swept across all three paradigm simulators.
/// Each paradigm pays for recovery with its own mechanism — queue
/// redelivery after the visibility timeout (Classic), immediate attempt
/// re-execution (Hadoop), vertex re-runs within the static partition
/// (Dryad) — so the makespan curves separate exactly where Table 3's
/// fault-tolerance rows differ.
pub fn ablate_fault_rate() -> Figure {
    let tasks = workload::cap3_sim_tasks(256, 200);
    let mut fig = Figure::new(
        "Ablation: worker-death rate across paradigms (shared chaos dice)",
        "P(worker death per task attempt)",
        "makespan (s)",
    )
    .with_precision(0);
    let classic_cluster = Cluster::provision(EC2_HCXL, 4, 8);
    let bare_cluster = Cluster::provision(BARE_CAP3, 4, 8);
    let classic_cfg = SimConfig::ec2()
        .with_app(AppModel::cap3())
        .with_failures(0.0, 300.0);
    let hadoop_cfg = HadoopSimConfig {
        app: AppModel::cap3(),
        ..HadoopSimConfig::default()
    };
    let dryad_cfg = DryadSimConfig {
        app: AppModel::cap3(),
        ..DryadSimConfig::default()
    };
    let mut classic = Series::new("Classic Cloud (queue redelivery)");
    let mut hadoop = Series::new("Hadoop (attempt re-execution)");
    let mut dryad = Series::new("DryadLINQ (vertex re-run)");
    for rate in [0.0, 0.02, 0.05, 0.1, 0.2] {
        let schedule = Arc::new(FaultSchedule::new(7).with_death_probabilities(rate, 0.0, 0.0));
        let label = format!("{rate}");
        let c = classic_sim(
            &RunContext::new(&classic_cluster).with_schedule(schedule.clone()),
            &tasks,
            &classic_cfg,
        );
        classic.push(label.clone(), c.summary.makespan_seconds);
        let h = hadoop_sim(
            &RunContext::new(&bare_cluster).with_schedule(schedule.clone()),
            &tasks,
            &hadoop_cfg,
        );
        hadoop.push(label.clone(), h.summary.makespan_seconds);
        let d = dryad_sim(
            &RunContext::new(&bare_cluster).with_schedule(schedule),
            &tasks,
            &dryad_cfg,
        );
        dryad.push(label, d.summary.makespan_seconds);
    }
    fig.add(classic);
    fig.add(hadoop);
    fig.add(dryad);
    fig
}

/// Inhomogeneous tasks with a *bounded* spread: log-normal service times
/// clamped to [mean/6, 3·mean] so that no single task dominates the
/// makespan — the regime where scheduling policy (not task size) decides
/// the outcome, matching the paper's inhomogeneous-data study.
fn bounded_skew_tasks(
    n: usize,
    mean_s: f64,
    sigma: f64,
    seed: u64,
) -> Vec<ppc_core::task::TaskSpec> {
    let mut rng = ppc_core::rng::Pcg32::new(seed);
    (0..n)
        .map(|i| {
            let mu = mean_s.ln() - sigma * sigma / 2.0;
            let secs = rng.log_normal(mu, sigma).clamp(mean_s / 6.0, mean_s * 3.0);
            let mut p = ppc_core::task::ResourceProfile::cpu_bound(secs);
            p.input_bytes = 256 << 10;
            ppc_core::task::TaskSpec::new(i as u64, "cap3", format!("skew/f{i:05}"), p)
        })
        .collect()
}

/// Dynamic global queue (Hadoop/Classic) vs static partitioning (Dryad) on
/// increasingly inhomogeneous data — the §4.2 load-balancing discussion.
pub fn ablate_load_balance() -> Figure {
    let mut fig = Figure::new(
        "Ablation: dynamic vs static scheduling on inhomogeneous data",
        "task-time log-normal sigma",
        "makespan (s)",
    )
    .with_precision(0);
    let cluster = Cluster::provision(BARE_CAP3, 32, 8);
    let mut hadoop = Series::new("Hadoop (dynamic global queue)");
    let mut dryad = Series::new("DryadLINQ (static partitions)");
    for sigma in [0.0, 0.3, 0.6, 0.9, 1.2] {
        let tasks = bounded_skew_tasks(1024, 300.0, sigma, 23);
        let h = hadoop_sim(
            &RunContext::new(&cluster),
            &tasks,
            &HadoopSimConfig {
                app: AppModel::cap3(),
                ..Default::default()
            },
        );
        let d = dryad_sim(
            &RunContext::new(&cluster),
            &tasks,
            &DryadSimConfig {
                app: AppModel::cap3(),
                ..Default::default()
            },
        );
        hadoop.push(format!("{sigma}"), h.summary.makespan_seconds);
        dryad.push(format!("{sigma}"), d.summary.makespan_seconds);
    }
    fig.add(hadoop);
    fig.add(dryad);
    fig
}

/// Data-locality scheduling on/off vs input size (§6.2: "Hadoop and
/// DryadLINQ applications have an advantage of data locality-based
/// scheduling over EC2" when inputs grow).
pub fn ablate_locality() -> Figure {
    let mut fig = Figure::new(
        "Ablation: Hadoop data-locality scheduling vs input file size",
        "input MB per task",
        "makespan (s)",
    )
    .with_precision(0);
    let cluster = Cluster::provision(BARE_CAP3, 16, 8);
    let mut with_locality = Series::new("locality-aware scheduling");
    let mut without = Series::new("locality-blind scheduling");
    for mb in [1u64, 8, 32, 128, 512] {
        let mut tasks = workload::cap3_sim_tasks(512, 100);
        for t in tasks.iter_mut() {
            t.profile.input_bytes = mb << 20;
        }
        let on = HadoopSimConfig {
            app: AppModel::cap3(),
            ..Default::default()
        };
        let off = HadoopSimConfig {
            app: AppModel::cap3(),
            ignore_locality: true,
            ..Default::default()
        };
        let a = hadoop_sim(&RunContext::new(&cluster), &tasks, &on);
        let b = hadoop_sim(&RunContext::new(&cluster), &tasks, &off);
        with_locality.push(format!("{mb}"), a.summary.makespan_seconds);
        without.push(format!("{mb}"), b.summary.makespan_seconds);
    }
    fig.add(with_locality);
    fig.add(without);
    fig
}

/// Task granularity vs overhead share (the paper's "sufficiently coarser
/// grain task decompositions" conclusion, §8): same total work split into
/// ever finer tasks on the Classic Cloud.
pub fn ablate_granularity() -> Figure {
    let mut fig = Figure::new(
        "Ablation: task granularity on the Classic Cloud",
        "queries per task file",
        "parallel efficiency",
    )
    .with_precision(3);
    let cluster = Cluster::provision_per_core(EC2_HCXL, 16);
    let mut eff = Series::new("efficiency");
    let total_queries = 12_800;
    for per_file in [3usize, 12, 25, 100, 400] {
        let n_files = total_queries / per_file;
        let tasks = workload::blast_sim_tasks(n_files, per_file);
        let ctx = RunContext::new(&cluster).with_seed(29);
        let report = classic_sim(&ctx, &tasks, &SimConfig::ec2());
        let t1 =
            ppc_classic::sim::sequential_baseline_seconds(&EC2_HCXL, &tasks, &AppModel::DEFAULT);
        eff.push(
            per_file.to_string(),
            ppc_core::metrics::parallel_efficiency(
                t1,
                report.summary.makespan_seconds,
                cluster.total_workers(),
            ),
        );
    }
    fig.add(eff);
    fig
}

/// Shared-NIC contention vs input size: the Classic Cloud moves every
/// input through the instance's uplink; past some transfer volume the NIC,
/// not the cores, sets the makespan — the flip side of the paper's §6.2
/// "Hadoop and DryadLINQ bring computation to the data" observation.
pub fn ablate_nic_contention() -> Figure {
    let mut fig = Figure::new(
        "Ablation: shared NIC (125 MB/s per instance) vs input size",
        "input MB per task",
        "makespan (s)",
    )
    .with_precision(0);
    let cluster = Cluster::provision_per_core(EC2_HCXL, 2);
    let mut free = Series::new("unconstrained transfers");
    let mut nic = Series::new("shared 125 MB/s NIC per instance");
    for mb in [1u64, 16, 64, 256, 1024] {
        // Light compute (50-read files) so transfers can dominate at the
        // top of the sweep.
        let mut tasks = workload::cap3_sim_tasks(128, 50);
        for t in tasks.iter_mut() {
            t.profile.input_bytes = mb << 20;
        }
        let base = SimConfig {
            jitter_sigma: 0.0,
            ..SimConfig::ec2().with_app(AppModel::cap3())
        };
        let with_nic = SimConfig {
            nic_bandwidth_bytes_per_s: Some(125e6),
            ..base
        };
        free.push(
            format!("{mb}"),
            classic_sim(&RunContext::new(&cluster), &tasks, &base)
                .summary
                .makespan_seconds,
        );
        nic.push(
            format!("{mb}"),
            classic_sim(&RunContext::new(&cluster), &tasks, &with_nic)
                .summary
                .makespan_seconds,
        );
    }
    fig.add(free);
    fig.add(nic);
    fig
}

/// Speculative execution on/off under a straggler-prone cluster — the
/// mechanism the paper credits Hadoop and Dryad with ("duplicate execution
/// of slower executing tasks"), isolated.
pub fn ablate_speculation() -> Figure {
    let mut fig = Figure::new(
        "Ablation: speculative execution vs straggler probability",
        "P(attempt is 10x slower)",
        "makespan (s)",
    )
    .with_precision(0);
    let cluster = Cluster::provision(BARE_CAP3, 16, 8);
    let tasks = workload::cap3_sim_tasks(512, 200);
    let mut with_spec = Series::new("speculative execution on");
    let mut without = Series::new("speculative execution off");
    for p in [0.0, 0.01, 0.03, 0.05, 0.10] {
        let base = HadoopSimConfig {
            app: AppModel::cap3(),
            straggler_p: p,
            straggler_factor: 10.0,
            ..Default::default()
        };
        let on = hadoop_sim(&RunContext::new(&cluster), &tasks, &base);
        let off = hadoop_sim(
            &RunContext::new(&cluster).with_resilience(ResiliencePolicy::default()),
            &tasks,
            &base,
        );
        with_spec.push(format!("{p}"), on.summary.makespan_seconds);
        without.push(format!("{p}"), off.summary.makespan_seconds);
    }
    fig.add(with_spec);
    fig.add(without);
    fig
}

/// Storage latency sensitivity: how slow can the cloud store get before the
/// Classic Cloud loses its efficiency parity (the paper's headline result
/// is that 2010 S3 latencies were *not* disqualifying).
pub fn ablate_storage_latency() -> Figure {
    let mut fig = Figure::new(
        "Ablation: Classic Cloud efficiency vs storage latency",
        "per-request latency (ms)",
        "parallel efficiency",
    )
    .with_precision(3);
    let cluster = Cluster::provision_per_core(EC2_HCXL, 16);
    let tasks = workload::cap3_sim_tasks(1024, 458);
    let mut eff = Series::new("efficiency");
    for ms in [0u64, 30, 100, 300, 1000, 3000, 10000] {
        let mut cfg = SimConfig::ec2().with_app(AppModel::cap3());
        cfg.storage_latency = LatencyModel {
            request_latency_s: ms as f64 / 1e3,
            bandwidth_bytes_per_s: 25e6,
        };
        let report = classic_sim(&RunContext::new(&cluster), &tasks, &cfg);
        let t1 =
            ppc_classic::sim::sequential_baseline_seconds(&EC2_HCXL, &tasks, &AppModel::cap3());
        eff.push(
            ms.to_string(),
            ppc_core::metrics::parallel_efficiency(
                t1,
                report.summary.makespan_seconds,
                cluster.total_workers(),
            ),
        );
    }
    fig.add(eff);
    fig
}

/// Why TwisterAzure (the paper's §8 future work) exists: an iterative
/// computation run as N successive Hadoop jobs re-pays job launch, task
/// dispatch, and input re-reads every round; a Twister-style runtime caches
/// the static input and only re-broadcasts the (small) model. This models
/// both styles for k-means-shaped rounds on the paper's bare-metal cluster.
pub fn ablate_iterative_caching() -> Figure {
    let mut fig = Figure::new(
        "Ablation: iterative MapReduce — per-round job relaunch vs Twister-style caching",
        "iterations",
        "total time (s)",
    )
    .with_precision(0);
    let cluster = Cluster::provision(BARE_CAP3, 16, 8);
    // 512 splits of 64 MB each, ~10 s of compute per split per round.
    let mut tasks = workload::cap3_sim_tasks(512, 48);
    for t in tasks.iter_mut() {
        t.profile.input_bytes = 64 << 20;
    }
    let per_job = HadoopSimConfig {
        app: AppModel::DEFAULT,
        jitter_sigma: 0.0,
        ..Default::default()
    };
    // One Hadoop round (reads inputs, pays dispatch).
    let round_with_io = hadoop_sim(&RunContext::new(&cluster), &tasks, &per_job)
        .summary
        .makespan_seconds;
    // A cached round: no input read, no per-task JVM launch (Twister keeps
    // long-lived workers), just compute + a small broadcast barrier.
    let mut cached_tasks = tasks.clone();
    for t in cached_tasks.iter_mut() {
        t.profile.input_bytes = 0;
    }
    let cached_cfg = HadoopSimConfig {
        dispatch_overhead_s: 0.0,
        ..per_job
    };
    let round_cached = hadoop_sim(&RunContext::new(&cluster), &cached_tasks, &cached_cfg)
        .summary
        .makespan_seconds;

    const HADOOP_JOB_LAUNCH_S: f64 = 15.0; // per-job JobTracker round trip
    const TWISTER_BROADCAST_S: f64 = 0.5; // model re-broadcast per round

    let mut hadoop = Series::new("Hadoop (new job per iteration)");
    let mut twister = Series::new("Twister-style (cached static data)");
    for iters in [1u32, 2, 5, 10, 20, 50] {
        let h = iters as f64 * (HADOOP_JOB_LAUNCH_S + round_with_io);
        let t = round_with_io + (iters as f64 - 1.0) * (TWISTER_BROADCAST_S + round_cached);
        hadoop.push(iters.to_string(), h);
        twister.push(iters.to_string(), t);
    }
    fig.add(hadoop);
    fig.add(twister);
    fig
}

/// The bursty Cap3 workload every autoscaling strategy is judged on: two
/// arrival waves separated by an idle valley, the regime where a fixed
/// fleet sized for the peak pays for capacity the valley never uses.
fn bursty_cap3() -> (Vec<ppc_core::task::TaskSpec>, Vec<f64>) {
    let tasks = workload::cap3_sim_tasks_inhomogeneous(96, 400, 0.6, 11);
    let arrivals = (0..tasks.len())
        .map(|i| if i < 48 { 0.0 } else { 3000.0 })
        .collect();
    (tasks, arrivals)
}

/// Shared controller shape for [`ablate_autoscale`]: quarter-hour billing
/// quanta so the compressed experiment spans several billing boundaries.
fn elastic_cfg(policy: ScalePolicy, min: u32, billing_aware: bool) -> AutoscaleConfig {
    AutoscaleConfig {
        policy,
        min_workers: min,
        max_workers: 8,
        interval_s: 15.0,
        scale_up_cooldown_s: 60.0,
        scale_down_cooldown_s: 120.0,
        warmup_s: 45.0,
        billing_aware,
        billing_window_s: 180.0,
        billing_hour_s: 900.0,
    }
}

/// The four fleet strategies [`ablate_autoscale`] and
/// [`autoscale_timeline_demo`] compare, in display order. "fixed max"
/// pins `min == max`, which degenerates the controller into a static
/// peak-sized fleet billed for the whole run.
fn autoscale_strategies() -> Vec<(&'static str, AutoscaleConfig)> {
    let target = ScalePolicy::TargetBacklog { per_worker: 4.0 };
    let steps = ScalePolicy::StepOnAge {
        rules: vec![
            StepRule {
                min_age_s: 60.0,
                add: 2,
            },
            StepRule {
                min_age_s: 300.0,
                add: 4,
            },
        ],
    };
    vec![
        ("fixed max", elastic_cfg(target.clone(), 8, false)),
        ("target-tracking", elastic_cfg(target.clone(), 1, false)),
        ("step-on-age", elastic_cfg(steps, 1, false)),
        ("billing-aware", elastic_cfg(target, 1, true)),
    ]
}

/// Elastic worker fleets (beyond the paper): the paper provisions a fixed
/// fleet per experiment; `ppc-autoscale` grows and shrinks it from queue
/// telemetry. On a bursty workload a peak-sized fixed fleet buys idle
/// billed hours through the valley, while the elastic policies ride the
/// demand curve — and the billing-aware variant retires instances only
/// near their billing boundary, converting paid-for remainders into work
/// instead of waste.
pub fn ablate_autoscale() -> Figure {
    let (tasks, arrivals) = bursty_cap3();
    let cfg = SimConfig::ec2().with_app(AppModel::cap3());
    let mut fig = Figure::new(
        "Ablation: elastic fleet strategies on a bursty Cap3 workload",
        "strategy",
        "value",
    )
    .with_precision(2);
    let mut makespan = Series::new("makespan (s)");
    let mut cost = Series::new("compute cost (cents)");
    let mut wasted = Series::new("wasted billed hours");
    let mut mean_fleet = Series::new("mean fleet size");
    for (label, autoscale) in autoscale_strategies() {
        let report = classic_sim(
            &RunContext::elastic(EC2_HCXL, autoscale.clone(), arrivals.clone()),
            &tasks,
            &cfg,
        );
        let fleet = report.fleet.as_ref().expect("elastic run reports a fleet");
        makespan.push(label, report.summary.makespan_seconds);
        cost.push(label, fleet.cost.compute_cost.as_f64() * 100.0);
        wasted.push(label, fleet.wasted_hours);
        mean_fleet.push(label, fleet.mean_fleet());
    }
    fig.add(makespan);
    fig.add(cost);
    fig.add(wasted);
    fig.add(mean_fleet);
    fig
}

/// Fleet-size timelines for every strategy in [`ablate_autoscale`], as
/// ASCII step charts over a shared horizon — the visual companion to the
/// figure's aggregate numbers.
pub fn autoscale_timeline_demo() -> String {
    let (tasks, arrivals) = bursty_cap3();
    let cfg = SimConfig::ec2().with_app(AppModel::cap3());
    let runs: Vec<(&str, ppc_classic::report::FleetReport)> = autoscale_strategies()
        .into_iter()
        .map(|(label, autoscale)| {
            let report = classic_sim(
                &RunContext::elastic(EC2_HCXL, autoscale.clone(), arrivals.clone()),
                &tasks,
                &cfg,
            );
            (label, report.fleet.expect("fleet report"))
        })
        .collect();
    let horizon = runs.iter().map(|(_, f)| f.horizon_s).fold(0.0f64, f64::max);
    let mut out = String::from("Fleet-size timelines (billed instances over virtual time)\n");
    for (label, fleet) in &runs {
        out.push_str(&format!(
            "\n{label:>16} | peak {} mean {:.2} | {} billed hours, {:.2} wasted\n",
            fleet.peak_fleet(),
            fleet.mean_fleet(),
            fleet.billed_hours,
            fleet.wasted_hours,
        ));
        out.push_str(&fleet.timeline.render_ascii(72, horizon));
    }
    out
}

/// Sustained-performance variation (paper §3): the authors measured the
/// clouds repeatedly over a week and found CVs of 1.56% (AWS) and 2.25%
/// (Azure). Here: the same job under many seeds of the calibrated jitter
/// model; the reported CV justifies treating single runs as representative.
pub fn sustained_variation() -> Figure {
    let mut fig = Figure::new(
        "Sustained performance: makespan CV over 20 repeated runs",
        "platform",
        "CV (%)",
    )
    .with_precision(2);
    let tasks = workload::cap3_sim_tasks(256, 458);
    let mut series = Series::new("coefficient of variation");
    for (label, jitter) in [("aws", 0.0156f64), ("azure", 0.0225f64)] {
        let cluster = Cluster::provision_per_core(EC2_HCXL, 16);
        let makespans: Vec<f64> = (0..20)
            .map(|seed| {
                let mut cfg = SimConfig::ec2().with_app(AppModel::cap3());
                cfg.jitter_sigma = jitter;
                let ctx = RunContext::new(&cluster).with_seed(1000 + seed);
                classic_sim(&ctx, &tasks, &cfg).summary.makespan_seconds
            })
            .collect();
        let stats = ppc_core::metrics::Stats::from_sample(&makespans).expect("non-empty");
        series.push(label, stats.cv_percent());
    }
    fig.add(series);
    fig
}

/// Hedged vs unhedged task-latency quantiles under a gray straggler: one
/// slot in sixteen silently computes 30x slower (no crash, no error — the
/// failure mode §3's fault tolerance rows never priced). Returns the
/// headline figure (p99 per paradigm) plus the full machine-readable
/// `BENCH_resilience.json` payload: p50/p95/p99 winner latency, makespan,
/// and wasted-work fraction, hedged vs unhedged, for all three paradigms.
pub fn resilience_bench() -> (Figure, Json) {
    use ppc_core::task::{ResourceProfile, TaskSpec};
    use ppc_resilience::HedgeConfig;
    use ppc_trace::{Trace, JOB_TASK};
    use std::collections::BTreeMap;

    // Winner-based per-task latency: first terminal (committing) span end
    // minus first attempt start; losing duplicates do not count.
    fn winner_latencies(trace: &Trace) -> Vec<f64> {
        let mut started: BTreeMap<u64, f64> = BTreeMap::new();
        let mut committed: BTreeMap<u64, f64> = BTreeMap::new();
        for s in trace.spans() {
            if s.task == JOB_TASK {
                continue;
            }
            let e = started.entry(s.task).or_insert(f64::INFINITY);
            *e = e.min(s.start_s);
            if s.phase.is_terminal() {
                let d = committed.entry(s.task).or_insert(f64::INFINITY);
                *d = d.min(s.end_s);
            }
        }
        committed
            .iter()
            .map(|(t, done)| done - started[t])
            .collect()
    }
    fn percentile(xs: &mut [f64], q: f64) -> f64 {
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        xs[((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len()) - 1]
    }

    struct Mode {
        latencies: Vec<f64>,
        makespan: f64,
        attempts: usize,
        redundant: usize,
    }
    impl Mode {
        fn to_json(&self) -> Json {
            let mut xs = self.latencies.clone();
            Json::Obj(vec![
                ("p50_s".into(), Json::Float(percentile(&mut xs, 0.50))),
                ("p95_s".into(), Json::Float(percentile(&mut xs, 0.95))),
                ("p99_s".into(), Json::Float(percentile(&mut xs, 0.99))),
                ("makespan_s".into(), Json::Float(self.makespan)),
                ("total_attempts".into(), Json::Int(self.attempts as i128)),
                (
                    "redundant_executions".into(),
                    Json::Int(self.redundant as i128),
                ),
                (
                    "wasted_work_fraction".into(),
                    Json::Float(self.redundant as f64 / self.attempts.max(1) as f64),
                ),
            ])
        }
    }

    // 64 tasks on 16 slots: the gray slot owns a few percent of the job,
    // so its stragglers are exactly the latency tail the quantiles watch.
    let gray = Arc::new(FaultSchedule::new(7).degrade(0, 30.0, 0.0, 1e9));
    let tasks: Vec<TaskSpec> = (0..64)
        .map(|i| TaskSpec::new(i, "t", format!("f{i}"), ResourceProfile::cpu_bound(10.0)))
        .collect();
    let hedged = ResiliencePolicy::hedged(HedgeConfig::quantile(30.0));
    let ctx_of = |cluster: &Cluster, policy: Option<ResiliencePolicy>| {
        let mut ctx = RunContext::new(cluster).with_schedule(gray.clone());
        if let Some(p) = policy {
            ctx = ctx.with_resilience(p);
        }
        ctx.with_trace(true)
    };

    let classic = |policy: Option<ResiliencePolicy>| {
        let cluster = Cluster::provision(EC2_HCXL, 1, 16);
        let cfg = SimConfig {
            storage_latency: LatencyModel::FREE,
            queue_latency: LatencyModel::FREE,
            jitter_sigma: 0.0,
            ..SimConfig::ec2()
        };
        let r = classic_sim(&ctx_of(&cluster, policy), &tasks, &cfg);
        Mode {
            latencies: winner_latencies(r.core.trace.as_ref().unwrap()),
            makespan: r.summary.makespan_seconds,
            attempts: r.total_attempts,
            redundant: r.redundant_executions(),
        }
    };
    let hadoop = |policy: Option<ResiliencePolicy>| {
        let cluster = Cluster::provision(BARE_CAP3, 1, 16);
        let cfg = HadoopSimConfig {
            straggler_p: 0.0,
            jitter_sigma: 0.0,
            ..Default::default()
        };
        // The empty policy disables legacy speculation, so "unhedged"
        // really is undefended rather than Hadoop's built-in guess.
        let ctx = ctx_of(&cluster, Some(policy.unwrap_or_default()));
        let r = hadoop_sim(&ctx, &tasks, &cfg);
        Mode {
            latencies: winner_latencies(r.core.trace.as_ref().unwrap()),
            makespan: r.summary.makespan_seconds,
            attempts: r.total_attempts,
            redundant: r.summary.redundant_executions,
        }
    };
    let dryad = |policy: Option<ResiliencePolicy>| {
        let cluster = Cluster::provision(BARE_CAP3, 1, 16);
        let cfg = DryadSimConfig {
            jitter_sigma: 0.0,
            ..Default::default()
        };
        let r = dryad_sim(&ctx_of(&cluster, policy), &tasks, &cfg);
        Mode {
            latencies: winner_latencies(r.core.trace.as_ref().unwrap()),
            makespan: r.summary.makespan_seconds,
            attempts: r.core.total_attempts,
            redundant: r.summary.redundant_executions,
        }
    };

    let runs: [(&str, Mode, Mode); 3] = [
        ("classic", classic(None), classic(Some(hedged))),
        ("mapreduce", hadoop(None), hadoop(Some(hedged))),
        ("dryad", dryad(None), dryad(Some(hedged))),
    ];

    let mut fig = Figure::new(
        "Ablation: hedged attempts vs a 30x gray straggler (1 of 16 slots)",
        "paradigm",
        "p99 task latency (s)",
    )
    .with_precision(1);
    let mut un = Series::new("unhedged p99 (s)");
    let mut he = Series::new("hedged p99 (s)");
    let mut paradigms = Vec::new();
    for (name, unhedged, hedged) in &runs {
        un.push(*name, percentile(&mut unhedged.latencies.clone(), 0.99));
        he.push(*name, percentile(&mut hedged.latencies.clone(), 0.99));
        paradigms.push(Json::Obj(vec![
            ("paradigm".into(), Json::Str((*name).into())),
            ("unhedged".into(), unhedged.to_json()),
            ("hedged".into(), hedged.to_json()),
        ]));
    }
    fig.add(un);
    fig.add(he);
    let json = Json::Obj(vec![
        ("bench".into(), Json::Str("resilience".into())),
        (
            "scenario".into(),
            Json::Str("gray straggler: worker 0 of 16 at 30x slowdown".into()),
        ),
        ("tasks".into(), Json::Int(64)),
        (
            "policy".into(),
            Json::Str("hedge: 0.75-quantile x 1.5, budget 50%, 2 live attempts".into()),
        ),
        ("paradigms".into(), Json::Arr(paradigms)),
    ]);
    (fig, json)
}

/// The figure half of [`resilience_bench`], for the `all` bin.
pub fn ablate_hedging() -> Figure {
    resilience_bench().0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resilience_bench_shape_and_headline() {
        let (fig, json) = resilience_bench();
        assert_eq!(fig.series.len(), 2);
        let paradigms = json.field("paradigms").unwrap().as_arr().unwrap();
        assert_eq!(paradigms.len(), 3);
        for p in paradigms {
            let name = p.field("paradigm").unwrap().as_str().unwrap();
            let q = |mode: &str, key: &str| {
                p.field(mode).unwrap().field(key).unwrap().as_f64().unwrap()
            };
            // The headline claim the JSON artifact exists to publish:
            // hedging beats the gray straggler's tail on every paradigm,
            // and the budget keeps duplicate work bounded.
            assert!(
                q("hedged", "p99_s") < q("unhedged", "p99_s"),
                "{name}: hedged p99 {} vs unhedged {}",
                q("hedged", "p99_s"),
                q("unhedged", "p99_s"),
            );
            assert!(
                q("hedged", "wasted_work_fraction") <= 0.5,
                "{name}: wasted {}",
                q("hedged", "wasted_work_fraction"),
            );
            for key in ["p50_s", "p95_s", "p99_s"] {
                assert!(q("hedged", key) > 0.0 && q("unhedged", key) > 0.0);
            }
        }
        // The report round-trips through the workspace JSON parser.
        assert_eq!(Json::parse(&json.to_string()).unwrap(), json);
    }

    #[test]
    fn iterative_caching_pays_off_with_iterations() {
        let fig = ablate_iterative_caching();
        let hadoop = &fig.series[0];
        let twister = &fig.series[1];
        let ratio = |x: &str| hadoop.value_at(x).unwrap() / twister.value_at(x).unwrap();
        // One iteration: roughly a wash (Twister still pays the first read).
        assert!(
            (0.8..1.6).contains(&ratio("1")),
            "1 iter ratio {}",
            ratio("1")
        );
        // Fifty iterations: caching wins big.
        assert!(ratio("50") > 1.3, "50 iter ratio {}", ratio("50"));
        assert!(ratio("50") > ratio("5"), "advantage grows with iterations");
    }

    #[test]
    fn autoscale_billing_aware_beats_fixed_max() {
        // The ablation's headline claim: on the bursty workload the
        // billing-aware elastic fleet matches the fixed peak-sized fleet's
        // makespan (within 15%) while costing meaningfully less and
        // wasting fewer billed hours.
        let fig = ablate_autoscale();
        let at = |s: usize, label: &str| fig.series[s].value_at(label).unwrap();
        let (m_fixed, m_aware) = (at(0, "fixed max"), at(0, "billing-aware"));
        let (c_fixed, c_aware) = (at(1, "fixed max"), at(1, "billing-aware"));
        assert!(
            m_aware <= m_fixed * 1.15,
            "makespan not comparable: {m_aware} vs {m_fixed}"
        );
        assert!(c_aware < c_fixed * 0.85, "cost: {c_aware} vs {c_fixed}");
        assert!(at(2, "billing-aware") < at(2, "fixed max"), "wasted hours");
        // And the timelines render for every strategy.
        let demo = autoscale_timeline_demo();
        assert!(demo.contains("billing-aware") && demo.contains("fixed max"));
    }

    #[test]
    fn fault_rate_costs_time_on_every_paradigm() {
        let fig = ablate_fault_rate();
        assert_eq!(fig.series.len(), 3);
        for series in &fig.series {
            assert_eq!(series.points.len(), 5, "{}", series.label);
            let clean = series.value_at("0").unwrap();
            let hostile = series.value_at("0.2").unwrap();
            assert!(
                hostile > clean,
                "{}: death rate 0.2 should cost time ({hostile} vs {clean})",
                series.label
            );
        }
    }

    #[test]
    fn sustained_variation_is_small() {
        // The paper's premise: run-to-run variation is ~1.5–2.3%, so single
        // measurements are trustworthy. Our jittered sim must agree in
        // magnitude (makespans average out per-task jitter, so the job-level
        // CV comes out below the per-task sigma).
        let fig = sustained_variation();
        for (platform, cv) in &fig.series[0].points {
            assert!(*cv < 3.0, "{platform} CV {cv}%");
            assert!(*cv > 0.0, "{platform} CV should be nonzero");
        }
    }

    #[test]
    fn visibility_timeout_tradeoff() {
        let fig = ablate_visibility_timeout();
        let makespan = &fig.series[0];
        let redundant = &fig.series[1];
        // Long timeouts recover slower: makespan grows with timeout.
        let short = makespan.value_at("30").unwrap();
        let long = makespan.value_at("1800").unwrap();
        assert!(long > short, "long {long} vs short {short}");
        // Redundant work exists whenever failures do.
        assert!(redundant.points.iter().all(|&(_, v)| v > 0.0));
    }

    #[test]
    fn dynamic_beats_static_on_skew() {
        let fig = ablate_load_balance();
        let hadoop = &fig.series[0];
        let dryad = &fig.series[1];
        // Homogeneous: comparable (within ~15%).
        let h0 = hadoop.value_at("0").unwrap();
        let d0 = dryad.value_at("0").unwrap();
        assert!((d0 / h0 - 1.0).abs() < 0.2, "homogeneous d={d0} h={h0}");
        // Heavy skew: static partitioning falls behind. (The effect is
        // modest — within-node dynamic sharing softens it — matching the
        // paper's qualitative "better natural load balancing in Hadoop".)
        let h = hadoop.value_at("1.2").unwrap();
        let d = dryad.value_at("1.2").unwrap();
        assert!(d > 1.05 * h, "skewed d={d} h={h}");
        // And the gap widens with skew.
        let gap = |s: &str| dryad.value_at(s).unwrap() / hadoop.value_at(s).unwrap();
        assert!(
            gap("1.2") > gap("0") + 0.03,
            "gap grows: {} vs {}",
            gap("1.2"),
            gap("0")
        );
    }

    #[test]
    fn locality_matters_more_with_big_inputs() {
        let fig = ablate_locality();
        let on = &fig.series[0];
        let off = &fig.series[1];
        let ratio_small = off.value_at("1").unwrap() / on.value_at("1").unwrap();
        let ratio_big = off.value_at("512").unwrap() / on.value_at("512").unwrap();
        assert!(
            ratio_big > ratio_small,
            "big {ratio_big} vs small {ratio_small}"
        );
        assert!(
            ratio_big > 1.1,
            "big inputs punish remote reads: {ratio_big}"
        );
    }

    #[test]
    fn coarser_grain_is_more_efficient() {
        let fig = ablate_granularity();
        let eff = &fig.series[0];
        let fine = eff.value_at("3").unwrap();
        let coarse = eff.value_at("100").unwrap();
        assert!(coarse > fine, "coarse {coarse} vs fine {fine}");
        // The absolute ceiling is below 1.0 because BLAST's shared DB
        // overflows HCXL memory with 8 workers (the paper's §5.2 point).
        assert!(coarse > 0.8, "coarse-grained efficiency {coarse}");
    }

    #[test]
    fn nic_contention_grows_with_input_size() {
        let fig = ablate_nic_contention();
        let free = &fig.series[0];
        let nic = &fig.series[1];
        let ratio = |x: &str| nic.value_at(x).unwrap() / free.value_at(x).unwrap();
        assert!(ratio("1") < 1.05, "tiny inputs unaffected: {}", ratio("1"));
        assert!(
            ratio("1024") > 1.2,
            "1 GB inputs NIC-bound: {}",
            ratio("1024")
        );
        assert!(ratio("1024") > ratio("16"), "grows with input size");
    }

    #[test]
    fn speculation_pays_off_under_stragglers() {
        let fig = ablate_speculation();
        let on = &fig.series[0];
        let off = &fig.series[1];
        // No stragglers: speculation costs (almost) nothing.
        let ratio0 = off.value_at("0").unwrap() / on.value_at("0").unwrap();
        assert!((0.9..1.1).contains(&ratio0), "clean ratio {ratio0}");
        // Rare stragglers (the regime speculation is designed for): big win.
        let ratio1 = off.value_at("0.01").unwrap() / on.value_at("0.01").unwrap();
        assert!(ratio1 > 1.5, "rare-straggler ratio {ratio1}");
        // Speculation never hurts (with one duplicate per task it stops
        // helping once *both* attempts are likely to straggle).
        for (x, off_v) in &off.points {
            let on_v = on.value_at(x).unwrap();
            assert!(on_v <= off_v * 1.05, "at {x}: on {on_v} vs off {off_v}");
        }
    }

    #[test]
    fn storage_latency_eventually_bites() {
        let fig = ablate_storage_latency();
        let eff = &fig.series[0];
        let at_2010 = eff.value_at("30").unwrap();
        let at_awful = eff.value_at("10000").unwrap();
        // The paper's claim: 2010 latencies keep efficiency high...
        assert!(at_2010 > 0.9, "2010-latency efficiency {at_2010}");
        // ...but the result is not latency-insensitive in general.
        assert!(
            at_awful < at_2010 - 0.02,
            "awful {at_awful} vs 2010 {at_2010}"
        );
    }
}
