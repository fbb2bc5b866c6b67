//! The traced run: per-layer metrics, each measured by timing calls into a
//! crate's public functions from outside the program.
//!
//! It first repeats the workload's round-robin (so `raw.*` and `traced.*`
//! lane rates come from the same lanes the end-to-end run measures), then
//! drives each layer directly. Every workload reports every metric: the
//! sim-layer metrics use the workload's own sim plans (`sim_paper`'s for
//! `native_bio`, which runs no sims), and the native-layer metrics use a
//! native plan built from the same seed.

use crate::alloc::count_allocs;
use crate::lanes::round_robin;
use crate::oracle;
use crate::probe::DesProbe;
use crate::workloads::{self, NativePlan, Plans, ServePlan, SimKind, SimPlan, ENGINES};
use crate::{median, prepare, report_lanes, result_json, Args, Metric};
use ppc::apps::experiment::Platform;
use ppc::apps::workload::cap3_sim_tasks;
use ppc::des::queue::EventEntry;
use ppc::des::{Engine as DesEngine, EventId, QueueKind, SimTime};
use ppc::exec::RunContext;
use ppc::hdfs::block::DataNodeId;
use ppc::hdfs::MiniHdfs;
use ppc::mapreduce::scheduler::Scheduler;
use ppc::mapreduce::InputSplit;
use ppc::queue::{Queue, QueueConfig};
use ppc::resilience::HedgeConfig;
use ppc::serve::{AdmissionPolicy, DrrScheduler, QueuedJob, TenantQuota};
use ppc::storage::StorageService;
use std::cell::Cell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// Repetitions of each timed layer call; the median is reported.
const REPS: usize = 3;

fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Median host seconds of `REPS` calls of `f`.
fn median_secs<T>(mut f: impl FnMut() -> T) -> f64 {
    let secs: Vec<f64> = (0..REPS).map(|_| time(|| black_box(f())).1).collect();
    median(&secs)
}

pub fn run(args: &Args) -> Result<String, String> {
    let mut prep = prepare(args, 1)?;
    let mut probe = DesProbe::new();
    let digests: Vec<Option<u64>> = prep.warm.iter().map(|s| s.digest).collect();
    let rr = round_robin(&mut prep.setup.lanes, &mut probe, args.seconds, &digests);
    report_lanes(&prep.setup.lanes, &rr);
    let lanes = &prep.setup.lanes;

    let mut m = Vec::new();
    m.push(Metric::new(
        "machine.ref_des_per_s",
        median(&rr.des_probe),
        "ops/s",
    ));
    m.push(Metric::new(
        "machine.ref_alu_per_s",
        median(&rr.alu_probe),
        "ops/s",
    ));
    for (i, lane) in lanes.iter().enumerate() {
        let unit = lane.metric().1;
        m.push(Metric::new(
            format!("raw.{}_per_s", lane.name),
            rr.lanes[i].raw_rate(),
            unit,
        ));
        m.push(Metric::new(
            format!("traced.{}_per_s", lane.name),
            rr.lanes[i].corrected_rate(),
            unit,
        ));
    }
    for (i, lane) in lanes.iter().enumerate().take(ENGINES.len()) {
        let st = &rr.lanes[i];
        m.push(Metric::new(
            format!("{}.attempts_per_task", lane.name),
            st.attempts as f64 / st.work as f64,
            "ratio",
        ));
    }

    des_layer(&mut m);
    let (sim_engines, serve) = match &prep.setup.plans {
        Plans::Sim { engines, serve } => (engines.clone(), serve.clone()),
        Plans::Native(_) => match workloads::setup("sim_paper", args.seed, false)?.plans {
            Plans::Sim { engines, serve } => (engines, serve),
            Plans::Native(_) => unreachable!("sim_paper builds sim plans"),
        },
    };
    sim_layer(&mut m, &sim_engines, args.seed)?;
    serve_layer(&mut m, &serve);
    let native = match &prep.setup.plans {
        Plans::Native(plan) => plan.clone(),
        Plans::Sim { .. } => match workloads::setup("native_bio", args.seed, false)?.plans {
            Plans::Native(plan) => plan,
            Plans::Sim { .. } => unreachable!("native_bio builds a native plan"),
        },
    };
    native_layer(&mut m, &native, args.seed)?;

    let attempted = prep.warm_calls + rr.lanes.iter().map(|s| s.calls).sum::<u64>();
    let failed = prep.warm_failed + rr.lanes.iter().map(|s| s.failed).sum::<u64>();
    for metric in &m {
        println!("layer {} {} {}", metric.name, metric.value, metric.unit);
    }
    Ok(result_json(failed == 0, attempted, failed, &m))
}

// ------------------------------------------------------------------ ppc-des

/// The event-queue and engine layers on the default backend.
fn des_layer(m: &mut Vec<Metric>) {
    let kind = QueueKind::from_env();

    // Hold model on the raw queue: a steady population, pop + push.
    const POP: u32 = 1 << 16;
    const HOLD_OPS: u32 = 400_000;
    let hold: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut q = kind.boxed();
            let mut rng = ppc::core::rng::Pcg32::new(0xDE5);
            for seq in 0..POP as u64 {
                let at = SimTime::from_micros(rng.next_below(4096) as u64);
                q.push(EventEntry {
                    at,
                    seq,
                    idx: seq as u32,
                });
            }
            let start = Instant::now();
            for seq in POP as u64..(POP + HOLD_OPS) as u64 {
                let e = q.pop().expect("hold model never drains");
                let at = SimTime::from_micros(e.at.as_micros() + rng.next_below(4096) as u64);
                q.push(EventEntry {
                    at,
                    seq,
                    idx: seq as u32,
                });
            }
            start.elapsed().as_secs_f64()
        })
        .collect();
    m.push(Metric::new(
        "des.hold_events_per_s",
        HOLD_OPS as f64 / median(&hold),
        "events/s",
    ));

    // Full engine: self-rechaining timers through the slab and closures.
    const CHAINS: u64 = 256;
    const FIRES: u64 = 2_000;
    fn rechain(e: &mut DesEngine, left: u64, stride: u64) {
        if left > 0 {
            e.schedule_in(SimTime::from_micros(stride), move |e| {
                rechain(e, left - 1, stride)
            });
        }
    }
    let engine_s = median_secs(|| {
        let mut e = DesEngine::with_queue(kind);
        for c in 0..CHAINS {
            let stride = 1 + (c * 37) % 97;
            e.schedule_in(SimTime::from_micros(stride), move |e| {
                rechain(e, FIRES - 1, stride)
            });
        }
        e.run();
        assert_eq!(e.events_fired(), CHAINS * FIRES);
    });
    m.push(Metric::new(
        "des.engine_events_per_s",
        (CHAINS * FIRES) as f64 / engine_s,
        "events/s",
    ));

    // Cancellation mix: every completion arms a far hedge timer; the next
    // completion cancels it, and every fourth reschedules it instead.
    const TASKS: u64 = 100_000;
    let cancel_s = median_secs(|| {
        let mut e = DesEngine::with_queue(kind);
        let hedge: Rc<Cell<Option<EventId>>> = Rc::new(Cell::new(None));
        fn complete(e: &mut DesEngine, left: u64, hedge: Rc<Cell<Option<EventId>>>) {
            if let Some(id) = hedge.take() {
                if left.is_multiple_of(4) {
                    let at = e.now() + SimTime::from_secs(600);
                    let _ = e.reschedule_at(id, at).map(|id2| e.cancel(id2));
                } else {
                    e.cancel(id);
                }
            }
            if left == 0 {
                return;
            }
            hedge.set(Some(e.schedule_in(SimTime::from_secs(300), |_| {})));
            let h = hedge.clone();
            e.schedule_in(SimTime::from_micros(50 + left % 50), move |e| {
                complete(e, left - 1, h)
            });
        }
        let h = hedge.clone();
        e.schedule_in(SimTime::ZERO, move |e| complete(e, TASKS, h));
        e.run();
    });
    m.push(Metric::new(
        "des.cancel_events_per_s",
        TASKS as f64 / cancel_s,
        "events/s",
    ));
}

// ------------------------------------------------------------ paradigm sims

fn sim_layer(m: &mut Vec<Metric>, plans: &[Rc<SimPlan>], seed: u64) -> Result<(), String> {
    let (mut wf_total, mut stage_total) = (0.0, 0.0);
    for (plan, name) in plans.iter().zip(ENGINES) {
        let tasks = plan.tasks();
        let secs = median_secs(|| workloads::run_sim_plan(name, plan, false));
        m.push(Metric::new(
            format!("{name}.sim_us_per_task"),
            secs * 1e6 / tasks as f64,
            "us/task",
        ));
        let (_, allocs) = count_allocs(|| workloads::run_sim_plan(name, plan, false));
        m.push(Metric::new(
            format!("{name}.allocs_per_task"),
            allocs as f64 / tasks as f64,
            "allocs/task",
        ));
        // Workflow driver: simulate_workflow vs its stages simulated alone.
        for call in plan.variants.iter().flatten() {
            if let SimKind::Workflow(wf) = &call.kind {
                wf_total += median_secs(|| plan.engine.simulate_workflow(&call.ctx, wf));
                stage_total += median_secs(|| {
                    for s in &wf.stages {
                        black_box(plan.engine.simulate(&call.ctx, &s.specs));
                    }
                });
            }
        }
    }
    m.push(Metric::new(
        "workflow.driver_overhead_ratio",
        wf_total / stage_total,
        "ratio",
    ));

    // MapReduce: per-task sim cost at the largest vs smallest set, and the
    // idle-slot hedge scan.
    let hadoop = ppc::engine_by_name("mapreduce").expect("mapreduce engine");
    let ctx = RunContext::new(&Platform::Hadoop.fleet("cap3", 128)).with_seed(seed);
    let per_task = |n: usize| {
        let tasks = cap3_sim_tasks(n, 458);
        let (r, secs) = time(|| hadoop.simulate(&ctx, &tasks));
        assert!(r.is_complete(), "mapreduce growth probe dropped tasks");
        secs / n as f64
    };
    let small = median(&[per_task(512), per_task(512), per_task(512)]);
    let large = per_task(8192);
    m.push(Metric::new("mapreduce.sim_growth", large / small, "ratio"));
    m.push(Metric::new(
        "mapreduce.next_at_idle_us",
        next_at_idle_us(),
        "us",
    ));

    // Classic: elastic fleet vs the fixed fleet on the same chaos set.
    let classic = ppc::engine_by_name("classic").expect("classic engine");
    let tasks = cap3_sim_tasks(800, 458);
    let policy = workloads::elastic_policy(workloads::chaos_policy());
    let elastic = workloads::elastic_ctx(seed, tasks.len()).with_resilience(policy);
    let fleet = Platform::ClassicEc2.fleet("cap3", 64);
    let fixed = RunContext::new(&fleet)
        .with_seed(seed)
        .with_schedule(workloads::chaos_schedule(
            seed,
            fleet.total_workers() as u32,
        ))
        .with_resilience(policy);
    let e = median_secs(|| classic.simulate(&elastic, &tasks));
    let f = median_secs(|| classic.simulate(&fixed, &tasks));
    m.push(Metric::new("classic.elastic_over_fixed", e / f, "ratio"));

    // ppc-trace: spans on vs off for the same sim.
    let traced = RunContext::new(&fleet).with_seed(seed).with_trace(true);
    let plain = RunContext::new(&fleet).with_seed(seed);
    let on = median_secs(|| classic.simulate(&traced, &tasks));
    let off = median_secs(|| classic.simulate(&plain, &tasks));
    m.push(Metric::new("trace.sim_overhead_ratio", on / off, "ratio"));
    Ok(())
}

/// `Scheduler::next_at` with nothing pending and every task running under
/// a hedge policy whose delay no task has reached: the full scan for a
/// hedge candidate that finds none. Microseconds per call.
fn next_at_idle_us() -> f64 {
    const TASKS: usize = 4096;
    const CALLS: u32 = 2_000;
    let splits: Vec<InputSplit> = (0..TASKS)
        .map(|i| InputSplit {
            index: i,
            path: format!("/in/f{i}"),
            name: format!("f{i}"),
            len: 1 << 20,
            hosts: vec![DataNodeId(i % 8)],
        })
        .collect();
    let mut s = Scheduler::with_policy(splits, Some(HedgeConfig::quantile(30.0)), 4);
    for i in 0..TASKS {
        s.next_at(DataNodeId(i % 8), 0.0).expect("a pending task");
    }
    let secs = median_secs(|| {
        for _ in 0..CALLS {
            assert!(black_box(s.next_at(DataNodeId(0), 1.0)).is_none());
        }
    });
    secs * 1e6 / CALLS as f64
}

// --------------------------------------------------------------- ppc-serve

fn serve_layer(m: &mut Vec<Metric>, plan: &ServePlan) {
    let subs: u64 = plan.cfgs.iter().map(|c| c.submissions()).sum();
    let secs = median_secs(|| workloads::run_serve_plan(plan, false));
    m.push(Metric::new(
        "serve.sim_us_per_submission",
        secs * 1e6 / subs as f64,
        "us",
    ));

    const JOBS: u64 = 200_000;
    let weights = [4, 2, 2, 1];
    let drr = median_secs(|| {
        let mut s = DrrScheduler::new(60.0, &weights);
        for j in 0..JOBS {
            let job = QueuedJob {
                job: j,
                demand_s: 10.0 + (j % 7) as f64 * 5.0,
                submitted_s: j as f64,
            };
            s.enqueue((j % 4) as usize, job, j % 16 == 0);
        }
        let mut n = 0;
        while s.dequeue(|_| true).is_some() {
            n += 1;
        }
        assert_eq!(n, JOBS);
    });
    m.push(Metric::new(
        "serve.drr_ops_per_s",
        2.0 * JOBS as f64 / drr,
        "ops/s",
    ));

    const DECISIONS: u64 = 2_000_000;
    let policy = AdmissionPolicy::default();
    let quota = TenantQuota {
        max_queued: 64,
        max_running: 8,
    };
    let adm = median_secs(|| {
        let mut admitted = 0u64;
        for i in 0..DECISIONS {
            let q = black_box((i % 97) as usize);
            if policy
                .decide(q, &quota, black_box((i % 12_000) as usize))
                .is_ok()
            {
                admitted += 1;
            }
        }
        admitted
    });
    m.push(Metric::new(
        "serve.admission_decide_per_s",
        DECISIONS as f64 / adm,
        "ops/s",
    ));
}

// ------------------------------------------------------- native + kernels

fn native_layer(m: &mut Vec<Metric>, plan: &NativePlan, seed: u64) -> Result<(), String> {
    // Drain overhead: service drain time minus the engine time of the
    // same jobs run directly, alternating the two; medians of each.
    let mut svc = workloads::job_service()?;
    let (mut drain_s, mut engine_s) = (Vec::new(), Vec::new());
    for _ in 0..2 * REPS - 1 {
        let (n, secs) = time(|| workloads::drain_jobs(&mut svc, plan));
        n?;
        drain_s.push(secs);
        let (r, secs) = time(|| {
            plan.jobs.iter().try_for_each(|(engine, wl)| {
                let e = ppc::engine_by_name(engine).expect("job engine");
                e.run(&plan.ctx, wl).map(|_| ())
            })
        });
        r.map_err(|e| e.to_string())?;
        engine_s.push(secs);
    }
    m.push(Metric::new(
        "serve.drain_overhead_us_per_job",
        (median(&drain_s) - median(&engine_s)) * 1e6 / plan.jobs.len() as f64,
        "us",
    ));

    // Service ops under 2 threads.
    const OPS: u32 = 20_000;
    let q = Queue::new("bench", QueueConfig::default());
    let qs = median_secs(|| {
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for i in 0..OPS / 2 {
                        q.send(format!("task-{i}")).expect("send");
                        let msg = q.receive().expect("receive").expect("a visible message");
                        q.delete(msg.receipt).expect("delete");
                    }
                });
            }
        })
    });
    m.push(Metric::new(
        "queue.send_receive_delete_per_s",
        OPS as f64 / qs,
        "ops/s",
    ));

    let store = StorageService::in_memory();
    store.ensure_bucket("bench");
    let payload = vec![7u8; 1024];
    let ss = median_secs(|| {
        std::thread::scope(|s| {
            for t in 0..2 {
                let (store, payload) = (&store, &payload);
                s.spawn(move || {
                    for i in 0..OPS / 2 {
                        let key = format!("t{t}/k{}", i % 512);
                        store.put("bench", &key, payload.clone()).expect("put");
                        black_box(store.get("bench", &key).expect("get"));
                    }
                });
            }
        })
    });
    m.push(Metric::new(
        "storage.put_get_per_s",
        OPS as f64 / ss,
        "ops/s",
    ));

    const FILES: u32 = 4_000;
    let data = vec![3u8; 4096];
    let hs = median_secs(|| {
        let fs = MiniHdfs::new(2, 1 << 20, 2, seed);
        std::thread::scope(|s| {
            for t in 0..2 {
                let (fs, data) = (&fs, &data);
                s.spawn(move || {
                    for i in 0..FILES / 2 {
                        let path = format!("/bench/t{t}/f{i}");
                        fs.create(&path, data, None).expect("create");
                        black_box(fs.read(&path).expect("read"));
                    }
                });
            }
        })
    });
    m.push(Metric::new(
        "hdfs.create_read_per_s",
        FILES as f64 / hs,
        "ops/s",
    ));

    // Kernels: direct single-threaded executor calls per stage.
    let mut stage_s = vec![vec![0.0; REPS]; 3];
    for rep in 0..REPS {
        for p in &plan.pipelines {
            let (_, secs) = oracle::direct_pipeline(&p.wf)?;
            for (acc, s) in stage_s.iter_mut().zip(secs) {
                acc[rep] += s;
            }
        }
    }
    let stage_med: Vec<f64> = stage_s.iter().map(|v| median(v)).collect();
    let files = plan.tasks() as f64 / 3.0;
    for (name, secs) in [
        "bio.cap3_files_per_s",
        "bio.blastx_files_per_s",
        "gtm.interpolate_files_per_s",
    ]
    .iter()
    .zip(&stage_med)
    {
        m.push(Metric::new(*name, files / secs, "files/s"));
    }

    // Eq. 1: T1 = direct kernel time, P = worker slots, Tp = engine time.
    let t1: f64 = stage_med.iter().sum();
    for name in ENGINES {
        let e = ppc::engine_by_name(name).expect("engine");
        let mut tp = Vec::new();
        for _ in 0..REPS {
            tp.push(workloads::run_native_pipelines(e.as_ref(), plan)?.1);
        }
        m.push(Metric::new(
            format!("native.{name}.efficiency"),
            t1 / (workloads::NATIVE_SLOTS as f64 * median(&tp)),
            "ratio",
        ));
    }
    Ok(())
}
