//! Simulator-vs-native fidelity: for a workload whose task durations we
//! control exactly, the discrete-event simulation must predict the native
//! threaded runtime's makespan.

use ppc::classic::spec::JobSpec;
use ppc::classic::{run as classic_run, ClassicConfig};
use ppc::classic::{simulate as classic_simulate, SimConfig};
use ppc::compute::cluster::Cluster;
use ppc::compute::instance::EC2_HCXL;
use ppc::core::exec::FnExecutor;
use ppc::core::task::{ResourceProfile, TaskSpec};
use ppc::exec::RunContext;
use ppc::queue::service::QueueService;
use ppc::storage::latency::LatencyModel;
use ppc::storage::service::StorageService;
use std::time::Duration;

/// Tasks that sleep a fixed 20 ms, with matching simulated profiles.
fn tasks(n: u64, sleep_s: f64) -> Vec<TaskSpec> {
    (0..n)
        .map(|i| {
            // HCXL runs at the reference clock, so cpu_seconds_ref maps 1:1.
            TaskSpec::new(
                i,
                "sleep",
                format!("f{i}"),
                ResourceProfile::cpu_bound(sleep_s),
            )
        })
        .collect()
}

#[test]
fn simulated_makespan_predicts_native() {
    let sleep_s = 0.02;
    let n_tasks = 32u64;
    let cluster = Cluster::provision(EC2_HCXL, 1, 4);

    // --- native ---
    let storage = StorageService::in_memory();
    let queues = QueueService::new();
    let job = JobSpec::new("fidelity", tasks(n_tasks, sleep_s));
    storage.create_bucket(&job.input_bucket).unwrap();
    for i in 0..n_tasks {
        storage
            .put(&job.input_bucket, &format!("f{i}"), vec![0u8; 16])
            .unwrap();
    }
    let exec = FnExecutor::new("sleep", move |_s, input: &[u8]| {
        std::thread::sleep(Duration::from_secs_f64(sleep_s));
        Ok(input.to_vec())
    });
    let native = classic_run(
        &RunContext::new(&cluster),
        &storage,
        &queues,
        &job,
        exec,
        &ClassicConfig::default(),
    )
    .unwrap();

    // --- simulated ---
    let cfg = SimConfig {
        storage_latency: LatencyModel::FREE,
        queue_latency: LatencyModel::FREE,
        jitter_sigma: 0.0,
        ..SimConfig::ec2()
    };
    let simulated = classic_simulate(&RunContext::new(&cluster), &tasks(n_tasks, sleep_s), &cfg);

    // Ideal: 32 tasks / 4 workers x 20 ms = 160 ms.
    let ideal = n_tasks as f64 / 4.0 * sleep_s;
    assert!(
        (simulated.summary.makespan_seconds - ideal).abs() < 1e-6,
        "sim {}",
        simulated.summary.makespan_seconds
    );
    // The native run pays real scheduling noise; it must still land within
    // 60% of the prediction (generous for CI machines under load).
    let ratio = native.summary.makespan_seconds / simulated.summary.makespan_seconds;
    assert!(
        (0.9..1.6).contains(&ratio),
        "native {} vs simulated {} (ratio {ratio})",
        native.summary.makespan_seconds,
        simulated.summary.makespan_seconds
    );
    assert_eq!(native.summary.tasks, simulated.summary.tasks);
}

/// The Hadoop simulator must predict the native MapReduce runtime's
/// makespan for a controlled-duration workload, just like the Classic one.
#[test]
fn hadoop_sim_predicts_native_makespan() {
    use ppc::compute::instance::BARE_CAP3;
    use ppc::core::exec::FnExecutor;
    use ppc::hdfs::fs::MiniHdfs;
    use ppc::mapreduce::job::{ExecutableMapper, MapReduceJob};
    use ppc::mapreduce::{run as hadoop_run, HadoopConfig};
    use ppc::mapreduce::{simulate as hadoop_sim, HadoopSimConfig};
    use ppc::resilience::ResiliencePolicy;
    use ppc::storage::latency::LatencyModel;

    let sleep_s = 0.02;
    let n_tasks = 24;

    // --- native: 2 nodes x 3 slots ---
    let fs = MiniHdfs::new(2, 1 << 20, 2, 777);
    let mut paths = Vec::new();
    for i in 0..n_tasks {
        let p = format!("/in/f{i}");
        fs.create(&p, &[0u8; 64], None).unwrap();
        paths.push(p);
    }
    let job = MapReduceJob::map_only("fidelity", paths, "/out");
    let exec = FnExecutor::new("sleep", move |_s, i: &[u8]| {
        std::thread::sleep(Duration::from_secs_f64(sleep_s));
        Ok(i.to_vec())
    });
    let mapper = ExecutableMapper::new("sleep", exec);
    // Speculation off in both engines: an empty resilience policy.
    let config = HadoopConfig {
        slots_per_node: 3,
        ..HadoopConfig::default()
    };
    let ctx = RunContext::local().with_resilience(ResiliencePolicy::default());
    let native = hadoop_run(&ctx, &fs, &job, &mapper, &config).unwrap();

    // --- simulated twin (no dispatch overhead, free IO, BARE_CAP3 runs at
    // the 2.5 GHz reference clock so cpu_seconds_ref maps 1:1) ---
    let cluster = Cluster::provision(BARE_CAP3, 2, 3);
    let sim_tasks = tasks(n_tasks as u64, sleep_s);
    let cfg = HadoopSimConfig {
        dispatch_overhead_s: 0.0,
        local_read: LatencyModel::FREE,
        remote_read: LatencyModel::FREE,
        jitter_sigma: 0.0,
        ..HadoopSimConfig::default()
    };
    let ctx = RunContext::new(&cluster).with_resilience(ResiliencePolicy::default());
    let simulated = hadoop_sim(&ctx, &sim_tasks, &cfg);

    // Ideal: 24 tasks / 6 slots x 20 ms = 80 ms.
    let ideal = n_tasks as f64 / 6.0 * sleep_s;
    assert!(
        (simulated.summary.makespan_seconds - ideal).abs() < 1e-6,
        "sim {}",
        simulated.summary.makespan_seconds
    );
    let ratio = native.summary.makespan_seconds / simulated.summary.makespan_seconds;
    assert!(
        (0.9..1.6).contains(&ratio),
        "native {} vs simulated {} (ratio {ratio})",
        native.summary.makespan_seconds,
        simulated.summary.makespan_seconds
    );
    assert_eq!(native.summary.tasks, simulated.summary.tasks);
}

#[test]
fn sim_and_native_agree_on_queue_accounting() {
    // Sends are exact in both: one per task. Receives differ (polling), but
    // both must report at least 3 requests per task (send+receive+delete).
    let n_tasks = 16u64;
    let cluster = Cluster::provision(EC2_HCXL, 1, 2);

    let storage = StorageService::in_memory();
    let queues = QueueService::new();
    let job = JobSpec::new("accounting", tasks(n_tasks, 0.001));
    storage.create_bucket(&job.input_bucket).unwrap();
    for i in 0..n_tasks {
        storage
            .put(&job.input_bucket, &format!("f{i}"), vec![0u8; 4])
            .unwrap();
    }
    let exec = FnExecutor::new("quick", |_s, i: &[u8]| Ok(i.to_vec()));
    let native = classic_run(
        &RunContext::new(&cluster),
        &storage,
        &queues,
        &job,
        exec,
        &ClassicConfig::default(),
    )
    .unwrap();
    let simulated = classic_simulate(
        &RunContext::new(&cluster),
        &tasks(n_tasks, 0.001),
        &SimConfig::ec2(),
    );

    for (label, r) in [
        ("native", native.queue_requests),
        ("sim", simulated.queue_requests),
    ] {
        assert!(
            r >= 3 * n_tasks,
            "{label}: {r} requests for {n_tasks} tasks"
        );
    }
    assert_eq!(native.summary.tasks, simulated.summary.tasks);
    assert_eq!(native.redundant_executions(), 0);
    assert_eq!(simulated.redundant_executions(), 0);
}

/// The chaos seeds the CI matrix sweeps (`PPC_CHAOS_SEED`); each row of
/// [`CHAOS_GOLDEN`] belongs to the seed at the same index.
const CHAOS_SEEDS: [u64; 3] = [4242, 1, 987_654_321];

/// The sims [`chaos_report_digests`] runs, in digest order.
const CHAOS_CASES: [&str; 6] = [
    "classic",
    "classic_elastic",
    "mapreduce",
    "dryad",
    "serve_underload",
    "serve_overload",
];

/// FNV-1a digests of every chaos-pinned sim under one seed: the full
/// report JSON followed by the `Debug` rendering of the whole run (trace,
/// per-job records and events included). The batch sims run the hostile
/// schedule with hedging and tracing on, so timer cancellation, re-execution
/// and span emission all feed the digest; serve runs two tenants on a fixed
/// fleet, at about half and about twice its capacity.
fn chaos_report_digests(seed: u64) -> [u64; 6] {
    use ppc::autoscale::{AutoscaleConfig, Policy};
    use ppc::chaos::FaultSchedule;
    use ppc::compute::instance::BARE_CAP3;
    use ppc::resilience::{HedgeConfig, ResiliencePolicy};
    use ppc::serve::{
        simulate_serve, ServeFleet, ServeSimConfig, TenantLoad, TenantQuota, TenantSpec,
    };
    use std::sync::Arc;

    let tasks = |n: u64| -> Vec<TaskSpec> {
        (0..n)
            .map(|i| {
                let mut p = ResourceProfile::cpu_bound(10.0 + (i % 7) as f64);
                p.input_bytes = 200 << 10;
                p.output_bytes = 100 << 10;
                TaskSpec::new(i, "cap3", format!("f{i}"), p)
            })
            .collect()
    };
    let hostile = |ctx: RunContext| {
        ctx.with_schedule(Arc::new(FaultSchedule::hostile(seed)))
            .with_resilience(ResiliencePolicy::hedged(HedgeConfig::quantile(20.0)))
            .with_trace(true)
    };
    let digest = |json: String, debug: String| fnv64(&format!("{json}\n{debug}"));

    let hcxl = Cluster::provision(EC2_HCXL, 4, 8);
    let bare = Cluster::provision(BARE_CAP3, 4, 8);
    let classic_cfg = SimConfig::ec2().with_failures(0.0, 60.0);
    let classic = classic_simulate(&hostile(RunContext::new(&hcxl)), &tasks(64), &classic_cfg);
    let autoscale = AutoscaleConfig {
        policy: Policy::TargetBacklog { per_worker: 12.0 },
        min_workers: 1,
        max_workers: 4,
        interval_s: 10.0,
        scale_up_cooldown_s: 30.0,
        scale_down_cooldown_s: 20.0,
        warmup_s: 0.0,
        billing_aware: false,
        billing_window_s: 60.0,
        billing_hour_s: 3600.0,
    };
    let elastic_ctx = RunContext::elastic(EC2_HCXL, autoscale, Vec::new());
    let elastic = classic_simulate(&hostile(elastic_ctx), &tasks(48), &SimConfig::ec2());
    let mapreduce = ppc::mapreduce::simulate(
        &hostile(RunContext::new(&bare)),
        &tasks(64),
        &ppc::mapreduce::HadoopSimConfig::default(),
    );
    let dryad = ppc::dryad::simulate(
        &hostile(RunContext::new(&bare)),
        &tasks(64),
        &ppc::dryad::DryadSimConfig::default(),
    );
    for (name, failed) in [
        ("classic", &classic.failed),
        ("classic_elastic", &elastic.failed),
        ("mapreduce", &mapreduce.failed),
    ] {
        assert!(failed.is_empty(), "seed {seed}: {name} failed {failed:?}");
    }
    let serve = |overload: bool| {
        let quota = TenantQuota {
            max_queued: 50,
            max_running: 8,
        };
        let (clients, jobs, think_s) = if overload {
            (80, 12, 2.0)
        } else {
            (20, 25, 40.0)
        };
        let tenants = [("blast", 2), ("cap3", 1)]
            .into_iter()
            .map(|(name, weight)| {
                let spec = TenantSpec::new(name, weight).with_quota(quota);
                let mut load = TenantLoad::new(spec, clients, jobs);
                load.think_s = think_s;
                load.deadline_hint_s = (name == "blast").then_some(300.0);
                load
            })
            .collect();
        let mut cfg = ServeSimConfig::new(EC2_HCXL, ServeFleet::Fixed { instances: 8 }, tenants);
        cfg.record_events = true;
        let run = simulate_serve(&RunContext::local().with_seed(seed), &cfg);
        let debug = format!("{:?}\n{:?}\n{:?}", run.report, run.records, run.events);
        digest(run.report.to_json().to_string(), debug)
    };
    [
        digest(classic.to_json().to_string(), format!("{classic:?}")),
        digest(elastic.to_json().to_string(), format!("{elastic:?}")),
        digest(mapreduce.to_json().to_string(), format!("{mapreduce:?}")),
        digest(dryad.to_json().to_string(), format!("{dryad:?}")),
        serve(false),
        serve(true),
    ]
}

/// Bit-identity pin for the sims under chaos: every case of
/// [`chaos_report_digests`] on every CI chaos seed must reproduce the
/// committed digests. They were generated on the timing wheel, then the
/// default backend, and the calendar queue and the binary heap gave the
/// same ones; the heap is now the only event queue, so a match means the
/// removed backends would still agree with it.
#[test]
fn sims_match_chaos_golden_digests() {
    for (seed, want) in CHAOS_SEEDS.into_iter().zip(CHAOS_GOLDEN) {
        let got = chaos_report_digests(seed);
        let moved: Vec<&str> = (0..got.len())
            .filter(|&i| got[i] != want[i])
            .map(|i| CHAOS_CASES[i])
            .collect();
        let rendered: Vec<String> = got.iter().map(|d| format!("0x{d:016x}")).collect();
        assert!(
            moved.is_empty(),
            "seed {seed}: {moved:?} moved; digests now [{}]",
            rendered.join(", ")
        );
    }
}

/// Generated by [`sims_match_chaos_golden_digests`] on the
/// timing wheel, one row per [`CHAOS_SEEDS`] entry. The `dryad` column was
/// regenerated when the Dryad sim moved onto the typed event core and
/// native Dryad's book (a backup waits for its node's list to empty, every
/// event fires in time order, a winning commit kills its rivals). The
/// `classic_elastic` column was regenerated when every Classic plan began
/// sending its t = 0 batch in the client's seeded shuffle (an autoscaled
/// fleet's went out in task order before).
const CHAOS_GOLDEN: [[u64; 6]; 3] = [
    [
        0x81f421d437c53590,
        0x209ee0740a4df722,
        0x25377d007db1fdfb,
        0xc686d3dc0be76b9c,
        0x5d1eb10573f0a3d6,
        0x50c9fde0e6b44e7b,
    ],
    [
        0xd55990a010f018bc,
        0x6389df74de37efd7,
        0x0e994efff9f7bd8d,
        0x6ca9567432ba7e64,
        0x038baa496c255040,
        0x8075838ddc382e52,
    ],
    [
        0xda86c26886cf5a92,
        0x1b6bc7797c024976,
        0x4401c7f5e5023024,
        0x6a13e99046230a88,
        0xfa99de34c99fdedf,
        0x781e850be05db46b,
    ],
];

/// The Classic sim paths [`classic_path_digests`] runs, in digest order.
const CLASSIC_PATH_CASES: [&str; 7] = [
    "nic_contention",
    "fixed_deadline_quarantine",
    "elastic_deadline_quarantine",
    "fixed_short_visibility",
    "elastic_short_visibility",
    "hybrid_two_fleets",
    "nic_short_visibility",
];

/// FNV-1a digests (report JSON + `Debug`, trace on) of the Classic sim
/// paths the chaos pin above does not reach, under one chaos seed:
/// shared-NIC transfers (four workers per node, MB-scale data); per-task
/// deadlines with quarantine on a fixed and on an elastic fleet, with a
/// gray worker whose tasks overrun the deadline; worker deaths whose
/// visibility timeout is shorter than a task, where the lost message can
/// reappear while its dead attempt is still running; and a two-fleet
/// hybrid run.
fn classic_path_digests(seed: u64) -> [u64; 7] {
    use ppc::autoscale::{AutoscaleConfig, Policy};
    use ppc::chaos::FaultSchedule;
    use ppc::compute::instance::BARE_CAP3;
    use ppc::resilience::{HedgeConfig, QuarantineConfig, ResiliencePolicy};
    use std::sync::Arc;

    let tasks = |n: u64, io_bytes: u64| -> Vec<TaskSpec> {
        (0..n)
            .map(|i| {
                let mut p = ResourceProfile::cpu_bound(10.0 + (i % 7) as f64);
                p.input_bytes = io_bytes;
                p.output_bytes = io_bytes / 2;
                TaskSpec::new(i, "cap3", format!("f{i}"), p)
            })
            .collect()
    };
    let hostile = || Arc::new(FaultSchedule::hostile(seed));
    // Worker 5 runs 4x slow for its first 200 s: its tasks overrun a 30-s
    // deadline, are cancelled and requeued, and it gets quarantined.
    let gray = || Arc::new(FaultSchedule::hostile(seed).degrade(5, 4.0, 0.0, 200.0));
    let defended = ResiliencePolicy::default()
        .with_deadline(30.0)
        .with_quarantine(QuarantineConfig::default());
    let autoscale = AutoscaleConfig {
        policy: Policy::TargetBacklog { per_worker: 6.0 },
        min_workers: 2,
        max_workers: 8,
        interval_s: 10.0,
        scale_up_cooldown_s: 30.0,
        scale_down_cooldown_s: 20.0,
        warmup_s: 5.0,
        billing_aware: false,
        billing_window_s: 60.0,
        billing_hour_s: 3600.0,
    };
    let elastic = || RunContext::elastic(EC2_HCXL, autoscale.clone(), Vec::new());
    let fixed = || RunContext::new(&Cluster::provision(EC2_HCXL, 2, 4));
    let digest = |r: ppc::classic::ClassicReport| {
        assert!(r.failed.is_empty(), "seed {seed}: failed {:?}", r.failed);
        fnv64(&format!("{}\n{r:?}", r.to_json()))
    };
    let nic = SimConfig {
        nic_bandwidth_bytes_per_s: Some(20e6),
        ..SimConfig::ec2().with_failures(0.05, 60.0)
    };
    let short_vt = SimConfig::ec2().with_failures(0.2, 5.0);
    [
        digest(classic_simulate(
            &fixed()
                .with_schedule(hostile())
                .with_resilience(
                    ResiliencePolicy::default().with_quarantine(QuarantineConfig::default()),
                )
                .with_trace(true),
            &tasks(48, 40 << 20),
            &nic,
        )),
        digest(classic_simulate(
            &fixed()
                .with_schedule(gray())
                .with_resilience(defended)
                .with_trace(true),
            &tasks(48, 200 << 10),
            &SimConfig::ec2(),
        )),
        digest(classic_simulate(
            &elastic()
                .with_schedule(gray())
                .with_resilience(defended)
                .with_trace(true),
            &tasks(48, 200 << 10),
            &SimConfig::ec2(),
        )),
        digest(classic_simulate(
            &fixed().with_schedule(hostile()).with_trace(true),
            &tasks(48, 200 << 10),
            &short_vt,
        )),
        digest(classic_simulate(
            &elastic().with_schedule(hostile()).with_trace(true),
            &tasks(48, 200 << 10),
            &short_vt,
        )),
        digest(classic_simulate(
            &RunContext::on_fleets(vec![
                Cluster::provision(EC2_HCXL, 2, 4),
                Cluster::provision(BARE_CAP3, 1, 8),
            ])
            .with_schedule(hostile())
            .with_resilience(ResiliencePolicy::hedged(HedgeConfig::quantile(20.0)))
            .with_trace(true),
            &tasks(64, 200 << 10),
            &SimConfig::ec2().with_failures(0.05, 60.0),
        )),
        digest(classic_simulate(
            &fixed().with_schedule(hostile()).with_trace(true),
            &tasks(48, 40 << 20),
            &SimConfig {
                nic_bandwidth_bytes_per_s: Some(20e6),
                ..short_vt
            },
        )),
    ]
}

/// Bit-identity pin for the Classic sim's fleet-specific paths:
/// [`classic_path_digests`] on every CI chaos seed must reproduce the
/// committed digests.
#[test]
fn classic_sim_paths_match_golden_digests() {
    for (seed, want) in CHAOS_SEEDS.into_iter().zip(CLASSIC_PATH_GOLDEN) {
        let got = classic_path_digests(seed);
        let moved: Vec<&str> = (0..got.len())
            .filter(|&i| got[i] != want[i])
            .map(|i| CLASSIC_PATH_CASES[i])
            .collect();
        let rendered: Vec<String> = got.iter().map(|d| format!("0x{d:016x}")).collect();
        assert!(
            moved.is_empty(),
            "seed {seed}: {moved:?} moved; digests now [{}]",
            rendered.join(", ")
        );
    }
}

/// Generated by [`classic_sim_paths_match_golden_digests`] before the
/// fixed- and elastic-fleet Classic sims were merged into one worker
/// lifecycle, one row per [`CHAOS_SEEDS`] entry. The two `elastic_*`
/// columns were regenerated when every Classic plan began sending its
/// t = 0 batch in the client's seeded shuffle.
const CLASSIC_PATH_GOLDEN: [[u64; 7]; 3] = [
    [
        0xd2b340c71f954868,
        0xb0e6ea5ca1d7b2d3,
        0xe5378f0aaff9f427,
        0xbd2d18a507a6309f,
        0x18b343b2cc686886,
        0x229b6eec28174a79,
        0x0f4df2d2222a288c,
    ],
    [
        0x8b4c3974b67a49fe,
        0x15c7888bfc47d25c,
        0x1f545fbbf50c8b67,
        0x77f2f4822e4b6955,
        0xa5ea4d3b9f5374ab,
        0x2579461802f86a20,
        0xd32f373a9c541ba4,
    ],
    [
        0x163f2dc14787bb8c,
        0xf044ca99ea2986b4,
        0x1a3e4e8ced581c1c,
        0xddd595f45792d985,
        0xb90d0066a89423d9,
        0x3024883e1b8f2e14,
        0x947d6be850579df7,
    ],
];

/// FNV-1a digest of an autoscaled serve run under one seed: the report
/// JSON followed by the `Debug` rendering of the report, every job record
/// and every lifecycle/fleet event. Three tenants share an elastic fleet:
/// an `Interactive` tenant with a deadline hint, a batch tenant whose
/// small queue quota sheds submissions into client back-off, and a short
/// batch burst whose end lets the controller drain. The run is checked to
/// launch, warm and drain slots, including a slot drained while busy, so
/// every handler of the serve sim feeds the digest.
fn elastic_serve_digest(seed: u64) -> u64 {
    use ppc::autoscale::AutoscaleConfig;
    use ppc::serve::{
        simulate_serve, Priority, ServeFleet, ServeSimConfig, TenantLoad, TenantQuota, TenantSpec,
    };
    use ppc::trace::EventKind;

    let tenant = |name: &str, weight, max_queued, clients, jobs| {
        let quota = TenantQuota {
            max_queued,
            max_running: 6,
        };
        TenantLoad::new(
            TenantSpec::new(name, weight).with_quota(quota),
            clients,
            jobs,
        )
    };
    let mut interactive = tenant("blast", 3, 40, 12, 40);
    interactive.priority = Priority::Interactive;
    interactive.think_s = 20.0;
    interactive.job_tasks = 4;
    interactive.deadline_hint_s = Some(20.0);
    let mut shed = tenant("cap3", 1, 4, 20, 10);
    shed.think_s = 1.5;
    shed.retry_backoff_s = 8.0;
    shed.deadline_hint_s = Some(8.0);
    let mut burst = tenant("gtm", 2, 30, 30, 4);
    burst.think_s = 2.0;
    burst.task_s = 6.0;
    let mut auto = AutoscaleConfig::target_tracking(2, 10, 2.0);
    auto.interval_s = 5.0;
    auto.warmup_s = 12.0;
    auto.scale_up_cooldown_s = 10.0;
    auto.scale_down_cooldown_s = 15.0;
    auto.billing_hour_s = 600.0;
    let mut cfg = ServeSimConfig::new(
        EC2_HCXL,
        ServeFleet::Elastic(auto),
        vec![interactive, shed, burst],
    );
    cfg.billing_hour_s = 600.0;
    cfg.record_events = true;
    let run = simulate_serve(&RunContext::local().with_seed(seed), &cfg);

    let count = |kind| run.events.iter().filter(|e| e.kind == kind).count();
    assert!(count(EventKind::Launch) > 0, "seed {seed}: never launched");
    assert!(count(EventKind::Drain) > 0, "seed {seed}: never drained");
    let busy_drain = run.events.iter().enumerate().any(|(i, e)| {
        e.kind == EventKind::Drain
            && run.events[i + 1..]
                .iter()
                .any(|l| l.worker == e.worker && l.kind == EventKind::JobComplete)
    });
    assert!(busy_drain, "seed {seed}: no slot drained while busy");
    let t = &run.report.tenants;
    assert!(t[1].rejected > 0, "seed {seed}: nothing shed");
    assert!(
        t[0].deadline_missed + t[1].deadline_missed > 0,
        "seed {seed}: no deadline hint missed"
    );
    assert!(
        t[0].completed > 0,
        "seed {seed}: interactive tenant starved"
    );
    let debug = format!("{:?}\n{:?}\n{:?}", run.report, run.records, run.events);
    fnv64(&format!("{}\n{debug}", run.report.to_json()))
}

/// Bit-identity pin for the serve sim's elastic path: launch, warm-up,
/// drain (idle and busy), shedding with client back-off, the interactive
/// lane and deadline hints, on every CI chaos seed.
#[test]
fn elastic_serve_sim_matches_golden_digests() {
    for (seed, want) in CHAOS_SEEDS.into_iter().zip(SERVE_ELASTIC_GOLDEN) {
        let got = elastic_serve_digest(seed);
        assert_eq!(got, want, "seed {seed}: got {got:#018x}");
    }
}

/// Generated by [`elastic_serve_sim_matches_golden_digests`] on the
/// closure-driven serve sim, one entry per [`CHAOS_SEEDS`] entry.
const SERVE_ELASTIC_GOLDEN: [u64; 3] = [0x3de8bfe595a81078, 0x3a2a799cf0914f5d, 0x8590dfa9b780e476];

/// FNV-1a digest (report JSON + `Debug`, trace on) of a defended Dryad sim
/// under one chaos seed: the hostile schedule plus a gray slot, with
/// hedging, quarantine and a per-vertex deadline all on, so benches,
/// releases, backup vertices and deadline cuts all feed the digest.
fn dryad_defended_digest(seed: u64) -> u64 {
    use ppc::chaos::FaultSchedule;
    use ppc::compute::instance::BARE_CAP3;
    use ppc::resilience::{HedgeConfig, QuarantineConfig, ResiliencePolicy};
    use ppc::trace::EventKind;
    use std::sync::Arc;

    let tasks: Vec<TaskSpec> = (0..160)
        .map(|i| {
            let mut p = ResourceProfile::cpu_bound(10.0 + (i % 7) as f64);
            p.input_bytes = 200 << 10;
            p.output_bytes = 100 << 10;
            TaskSpec::new(i, "cap3", format!("f{i}"), p)
        })
        .collect();
    // Slot 5 runs 30x slow throughout: its vertices overrun the deadline,
    // so it is benched, released when its bench expires, and benched again.
    let schedule = FaultSchedule::hostile(seed).degrade(5, 30.0, 0.0, 1e9);
    let policy = ResiliencePolicy::hedged(HedgeConfig::quantile(20.0))
        .with_deadline(60.0)
        .with_quarantine(QuarantineConfig::default());
    let report = ppc::dryad::simulate(
        &RunContext::new(&Cluster::provision(BARE_CAP3, 1, 8))
            .with_schedule(Arc::new(schedule))
            .with_resilience(policy)
            .with_trace(true),
        &tasks,
        &ppc::dryad::DryadSimConfig::default(),
    );
    assert!(
        report.failed.is_empty(),
        "seed {seed}: failed {:?}",
        report.failed
    );
    let trace = report.core.trace.as_ref().expect("traced run");
    assert!(
        trace.events_of_kind(EventKind::Release) > 0,
        "seed {seed}: no quarantine release to pin"
    );
    fnv64(&format!("{}\n{report:?}", report.to_json()))
}

/// Bit-identity pin for the defended Dryad sim: [`dryad_defended_digest`]
/// on every CI chaos seed must reproduce the committed digests.
#[test]
fn dryad_defended_sim_matches_golden_digests() {
    let got: Vec<u64> = CHAOS_SEEDS.map(dryad_defended_digest).to_vec();
    let rendered: Vec<String> = got.iter().map(|d| format!("0x{d:016x}")).collect();
    assert_eq!(
        got,
        DRYAD_DEFENDED_GOLDEN,
        "digests now [{}]",
        rendered.join(", ")
    );
}

/// Generated by [`dryad_defended_sim_matches_golden_digests`] when the
/// Dryad sim moved onto the typed event core and native Dryad's book, one
/// entry per [`CHAOS_SEEDS`] entry.
const DRYAD_DEFENDED_GOLDEN: [u64; 3] =
    [0xd5ae247ede3c0fb8, 0xccfe1a0fe01f69ae, 0x732fc471e00640a6];

/// FNV-1a digests (report JSON + `Debug`, trace on) of the undefended
/// Dryad sim under one chaos seed: fault-free, then under the hostile
/// schedule plus a gray slot and a timed kill, with no resilience policy.
fn dryad_undefended_digests(seed: u64) -> [u64; 2] {
    use ppc::chaos::FaultSchedule;
    use ppc::compute::instance::BARE_CAP3;
    use std::sync::Arc;

    let tasks: Vec<TaskSpec> = (0..160)
        .map(|i| {
            let mut p = ResourceProfile::cpu_bound(10.0 + (i % 7) as f64);
            p.input_bytes = 200 << 10;
            p.output_bytes = 100 << 10;
            TaskSpec::new(i, "cap3", format!("f{i}"), p)
        })
        .collect();
    let cluster = Cluster::provision(BARE_CAP3, 2, 8);
    let digest = |schedule: Option<FaultSchedule>| {
        let ctx = RunContext::new(&cluster)
            .with_schedule(schedule.map(Arc::new))
            .with_trace(true)
            .with_seed(seed);
        let report = ppc::dryad::simulate(&ctx, &tasks, &ppc::dryad::DryadSimConfig::default());
        fnv64(&format!("{}\n{report:?}", report.to_json()))
    };
    let chaos = FaultSchedule::hostile(seed)
        .degrade(5, 30.0, 0.0, 1e9)
        .kill_at(3, 40.0);
    [digest(None), digest(Some(chaos))]
}

/// Bit-identity pin for the undefended Dryad sim: [`dryad_undefended_digests`]
/// on every CI chaos seed must reproduce the committed digests, so a death
/// keeps re-running its vertex in place on the same slot.
#[test]
fn dryad_undefended_sim_matches_golden_digests() {
    let got: Vec<[u64; 2]> = CHAOS_SEEDS.map(dryad_undefended_digests).to_vec();
    let rendered: Vec<String> = got
        .iter()
        .map(|[a, b]| format!("[0x{a:016x}, 0x{b:016x}]"))
        .collect();
    assert_eq!(
        got,
        DRYAD_UNDEFENDED_GOLDEN,
        "digests now [{}]",
        rendered.join(", ")
    );
}

/// Generated by [`dryad_undefended_sim_matches_golden_digests`] when the
/// Dryad sim moved onto the typed event core and native Dryad's book, one
/// `[fault-free, chaos]` pair per [`CHAOS_SEEDS`] entry. The fault-free
/// reports did not move; the traced digests did, as spans and events are
/// now recorded in time order rather than node by node.
const DRYAD_UNDEFENDED_GOLDEN: [[u64; 2]; 3] = [
    [0x60f0553e0c373fa4, 0xbd647458e1bf1c00],
    [0x48759f88c84c45a6, 0xb50973d6e06fc791],
    [0xb9981a471d0beb64, 0x77184d5fc13d0072],
];

/// FNV-1a over a string, 64-bit.
fn fnv64(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One tie-heavy MapReduce sim configuration of the bit-identity pin.
/// Every duration sits on a 0.5-s grid (no jitter, free reads, grid task
/// times, dispatch overheads, kills, windows and deadlines), so idle-slot
/// polls, completions, kills and quarantine releases keep landing on the
/// same microsecond and the `(time, sequence)` tie order decides the run.
fn tie_heavy_mapreduce_run(i: u64) -> ppc::mapreduce::MapReduceReport {
    use ppc::chaos::FaultSchedule;
    use ppc::core::rng::Pcg32;
    use ppc::mapreduce::HadoopSimConfig;
    use ppc::resilience::{HedgeConfig, QuarantineConfig, ResiliencePolicy};
    use std::sync::Arc;

    let mut rng = Pcg32::new(0x7135_0000 + i);
    let grid =
        |rng: &mut Pcg32, lo: u32, hi: u32| f64::from(lo + rng.next_below(hi - lo + 1)) * 0.5;
    let nodes = 1 + rng.next_below(3) as usize;
    let per_node = [1, 2, 4, 8][rng.next_below(4) as usize];
    let workers = (nodes * per_node) as u32;
    let cluster = Cluster::provision(EC2_HCXL, nodes, per_node);
    let n_tasks = 4 + rng.next_below(28) as u64;
    let tasks: Vec<TaskSpec> = (0..n_tasks)
        .map(|t| {
            let secs = grid(&mut rng, 1, 12);
            TaskSpec::new(t, "grid", format!("f{t}"), ResourceProfile::cpu_bound(secs))
        })
        .collect();
    let cfg = HadoopSimConfig {
        dispatch_overhead_s: grid(&mut rng, 0, 2),
        local_read: LatencyModel::FREE,
        remote_read: LatencyModel::FREE,
        replication: 1 + rng.next_below(3) as usize,
        straggler_p: [0.0, 0.0, 0.2][rng.next_below(3) as usize],
        straggler_factor: f64::from(2 + rng.next_below(2)),
        attempt_failure_p: [0.0, 0.0, 0.1, 0.25][rng.next_below(4) as usize],
        jitter_sigma: 0.0,
        poll_interval_s: [0.25, 0.5, 1.0, 3.0][rng.next_below(4) as usize],
        max_attempts: 2 + rng.next_below(4),
        ..HadoopSimConfig::default()
    };
    let mut policy = match rng.next_below(6) {
        0 => None,
        // Speculation off.
        1 => Some(ResiliencePolicy::default()),
        2 => Some(ResiliencePolicy::legacy_speculation()),
        3 => Some(ResiliencePolicy::hedged(HedgeConfig::quantile(grid(
            &mut rng, 0, 8,
        )))),
        4 => Some(ResiliencePolicy::hedged(HedgeConfig {
            quantile: 0.5,
            factor: 1.0,
            min_observations: 1 + rng.next_below(3) as usize,
            min_delay_s: grid(&mut rng, 0, 6),
            budget_fraction: [0.25, 0.5, 1.0, f64::INFINITY][rng.next_below(4) as usize],
            max_live_attempts: 2 + rng.next_below(2),
        })),
        _ => Some(ResiliencePolicy::default()),
    };
    if rng.next_below(3) == 0 {
        policy = Some(
            policy
                .unwrap_or_default()
                .with_quarantine(QuarantineConfig {
                    slow_factor: 1.5,
                    failure_threshold: 1 + rng.next_below(3),
                    min_samples: 1 + rng.next_below(2),
                    quarantine_s: grid(&mut rng, 1, 20),
                    probation_tasks: rng.next_below(3),
                    ..QuarantineConfig::default()
                }),
        );
    }
    if rng.next_below(4) == 0 {
        policy = Some(
            policy
                .unwrap_or_default()
                .with_deadline(grid(&mut rng, 2, 16)),
        );
    }
    let schedule = match rng.next_below(3) {
        0 => None,
        _ => {
            let mut s = FaultSchedule::new(i);
            for _ in 0..1 + rng.next_below(4) {
                s = s.kill_at(rng.next_below(workers), grid(&mut rng, 0, 40));
            }
            if rng.next_below(2) == 0 {
                let from = grid(&mut rng, 0, 10);
                s = s.degrade(
                    rng.next_below(workers),
                    2.0,
                    from,
                    from + grid(&mut rng, 1, 30),
                );
            }
            if rng.next_below(3) == 0 {
                let from = grid(&mut rng, 0, 10);
                s = s.brownout(from, from + grid(&mut rng, 1, 8));
            }
            if rng.next_below(2) == 0 {
                s = s.with_death_probabilities(0.03, 0.03, 0.03);
            }
            Some(Arc::new(s))
        }
    };
    let mut ctx = RunContext::new(&cluster)
        .with_seed(i)
        .with_trace(true)
        .with_schedule(schedule);
    if let Some(p) = policy {
        ctx = ctx.with_resilience(p);
    }
    ppc::mapreduce::simulate(&ctx, &tasks, &cfg)
}

/// Bit-identity pin for the MapReduce simulator: the FNV-1a digest of the
/// full `Debug` rendering (trace included) of 200 tie-heavy runs. The
/// other pins compare run with run or backend with backend; this one
/// compares with committed digests, so a change to the order in which
/// equal-time events fire (idle polls against completions, kills and
/// releases) fails here even when every backend agrees with itself.
#[test]
fn mapreduce_sim_reports_match_golden_digests() {
    let got: Vec<u64> = (0..200u64)
        .map(|i| fnv64(&format!("{:?}", tie_heavy_mapreduce_run(i))))
        .collect();
    let rendered: Vec<String> = got.iter().map(|d| format!("0x{d:016x}")).collect();
    assert_eq!(
        got,
        MAPREDUCE_GOLDEN,
        "digests now: [{}]",
        rendered.join(", ")
    );
}

/// Generated by this test at the commit before the idle-poll lane;
/// regenerated when the sim's deadline cut came to precede its timed-kill
/// check, a task whose failures spend its attempt budget stopped getting
/// hedges, and deadlines joined unbounded-hedge configurations.
const MAPREDUCE_GOLDEN: [u64; 200] = [
    0x7967099731d9baa9,
    0xd214853a5f63228f,
    0x9b5a553732d1de2d,
    0x84feac870a433b8c,
    0xdff4ac20e5041184,
    0xf9c5f543fee62a71,
    0x3e8c6d72684b2602,
    0x51720b36c0ccdf79,
    0x3fe97c7c08e9ca4e,
    0x4047b0c41f139a1b,
    0x236cd7408cfb4524,
    0xf49891bd1b567645,
    0xc6fda58a560b8a53,
    0xe422a2c000844a7a,
    0x0b07ae7f4346b4c8,
    0xba8f4ed31f5f987d,
    0x5ed66699d1239723,
    0x1f32dfb0b4820038,
    0x59ed47924f2c7acf,
    0xbefd30b00e3e1995,
    0xbe983a7bf836867f,
    0x4b94ed76bc0d7763,
    0x17b11906b9ac61ed,
    0x0615777fe31de978,
    0x3d3d4507fb2d1e2a,
    0x5f70600ca676a807,
    0xc346ad15ee4e49aa,
    0x7ad60a74c1c4a705,
    0x2322140403cd299a,
    0x78da5f74862ee232,
    0x53c2466b493704b7,
    0x4297a9e88d687e9b,
    0x6c4f34f61385ae17,
    0x67a9c60f3404ca18,
    0x9da14bb4db1f6b8d,
    0x6155f6f37a895b05,
    0xef558e39a3450aa9,
    0x40ff716b1ff9e2b7,
    0xbb927919121c6e86,
    0xa41005ab584a3cb5,
    0x45bcef3f05abb3f4,
    0xf347714efa41fcd2,
    0xadc503df3c6d3f83,
    0x1732d82355c7cbbe,
    0x36a365332de611be,
    0xcdaf1e5a9cac0ab1,
    0xb8d5de6f37b6c526,
    0x4532ff5351755694,
    0x820904ce8b09a12a,
    0x2a3f4a6a10820aa4,
    0x870ec369fe852552,
    0xc5a3377721db1259,
    0xa71f33f613f27cea,
    0x6647ef8aee22ac17,
    0x2c7d3458881cb48c,
    0xa147488ad2f8f423,
    0xe1710682cc3d7a6d,
    0x26672f2a2e987906,
    0xa3c74e51c6f8ef56,
    0xddd94baa67f8e74a,
    0x0dde0f9e1dba6253,
    0x23937fcc9b85ded4,
    0x5365edde4c7e25a3,
    0x5048bd37ad11023b,
    0x92f2aad2762c7b38,
    0x724d0a88bb14cbac,
    0x957fe0fa05aafd04,
    0xc64f994441820562,
    0xbbe85e0767da30fe,
    0x7f0419cf809667b3,
    0xd7c12fbbe34e2a4e,
    0xb9e4092084e660a6,
    0x200b62ee9fe11bd4,
    0x3dcc91301350d9d4,
    0x784ff90d515ab66d,
    0x751eb046a763b78d,
    0xa728f9e31a5a1d54,
    0x3d1cd1ec8084a75e,
    0x8d1ffd2fc4da4ff5,
    0x71857fd836080939,
    0x92a2db354f95f3ef,
    0x2371ca7125748ccc,
    0x8321cc5984b44baf,
    0x639d83e6630c399f,
    0x0b54ccd05a64c405,
    0x7eda173380922fae,
    0x146029c10d8c753c,
    0xb59bc96cfd80a31d,
    0x1da5e2051315cbc4,
    0x52a7303f47475e85,
    0x302ac52762f5d835,
    0x9c35d5b3d2061d71,
    0x433c80cd6d965541,
    0xcd858e7b8d6d2014,
    0xf83039ab0c174799,
    0xc9173258731379c6,
    0x844a25e74daba86e,
    0xbce03eb57dbc1459,
    0xf92ff6e5acc4b8f5,
    0x6cbd11a77778c32d,
    0xb18bcaebe6a504fd,
    0x07642ea9513a7af3,
    0xceddc34f4d32943e,
    0x0eefffb0d8767602,
    0x4b28e8cdc8829d32,
    0xcc9cb389456d428f,
    0x7864fa2436108b4c,
    0x1ef18c4354a72043,
    0x7d3625f89fafdb31,
    0xf23c9a85b76c1d8b,
    0x329c24d2486860f8,
    0x2f29a8b8186a81a7,
    0x5924d555086e0946,
    0x98b4e07c6a0888d4,
    0x564513e46fb5d9c2,
    0xefdf94d6bc9324e2,
    0x3bd2be7b1015dd44,
    0x8e3299a7828c81d1,
    0x6a67785d57bb5cf3,
    0xb96ccfa9f098bec4,
    0xa3ab1293b5f5941f,
    0x22f8182210b3df25,
    0x6a4d85bcff14e09f,
    0xc6e9d601d3847677,
    0x33f58558ea25b8d9,
    0x678eb55c04b79edb,
    0x19b68353d27805a2,
    0x36dcbba4a6542f21,
    0xb6386a169aa08a3b,
    0xd309215f695a6b3c,
    0xb54c032a24bf467b,
    0x0572d978538cff70,
    0xc846f3e986352d14,
    0x9a7fd150f0a42d16,
    0x768bc8258aac51e5,
    0x73154a93a87b3214,
    0x109146fecd210978,
    0x4641fce8691de47e,
    0x98d9524566aac689,
    0x26284c750288ad69,
    0x2a77a55af2b17c6d,
    0xdba38bc9d794045f,
    0x687067e12377c65c,
    0xe0f2e523937b21a4,
    0x1b069fe2d88163bb,
    0x384f679246bd90b3,
    0x8c445c70838f04e8,
    0xf21a17c24b4d0246,
    0x368c545ca02dc6c1,
    0x8389f6f95e62cda6,
    0x999965ba2cf0f20f,
    0x432ffd38f36fdae8,
    0x5240a92d20c6b42c,
    0x3ac20ffe5dc4dea9,
    0xaaa2385f8d2bf33c,
    0x3a53534c47fbeb7c,
    0x3585c3ad8258fdad,
    0x3530302f76807492,
    0x499d1c9ff1fadaba,
    0x591555da1365498c,
    0xe96bf042125b971a,
    0x6b2f40ecb62a0384,
    0xf65a789c6ffa2ff3,
    0x73c26ff9378f781c,
    0x54159395994d1226,
    0xe8c68bd8b51c24cf,
    0x7dc1b8883d321eca,
    0x4ada2f53c5d33fce,
    0x079204071c6d56a3,
    0xa7e82a31d81a7b42,
    0x6f003c57ce6be62f,
    0xb9cbdb48ad7a803a,
    0x8afcda3e90c3135e,
    0x13de7e96c14b872b,
    0x1ac9c5a65103ef16,
    0x7f03b058e89fa67b,
    0x33a7cbaf76ff7fcf,
    0x10b1ff1a4064e94c,
    0xb8b5e00a59291eea,
    0x72390bf8ed7dc429,
    0x7ff8189d2cce7dfe,
    0xec1e44ed9ef04bd9,
    0x474d598a03f362b5,
    0x43df457f1ef7d6cf,
    0x922b27f46918d4ee,
    0x194404f76a6b5108,
    0x9bb5f470abcd688e,
    0x9851121e06bc094f,
    0x5f68f28d99ed1299,
    0x866740366581bec4,
    0x8d6b69fb4051c303,
    0x3d1c86e2f272fc1e,
    0x04f20a3c5aa7456d,
    0x14081bb97e987914,
    0x97f74171159cc661,
    0xe880be6c86fff8f6,
    0x6bdfe56563ce667a,
    0xa79badce52c3477d,
    0x41e004beb0a91247,
    0x4ac4fc696674654c,
];
