//! The three workloads and the lanes each one builds.
//!
//! Inputs are generated here from the seed; the program only ever sees the
//! generated task sets, schedules and payloads. Every lane call checks its
//! own outputs (see [`crate::oracle`]) and reports the work it completed.

use crate::lanes::{Clock, Lane, Outcome};
use crate::oracle::{self, Digest};
use ppc::apps::cap3::Cap3Executor;
use ppc::apps::experiment::Platform;
use ppc::apps::pipeline::{bio_pipeline_native, bio_pipeline_sim};
use ppc::apps::workload::{
    blast_sim_base_set, cap3_native_inputs, cap3_sim_tasks, gtm_sim_tasks, replicate,
};
use ppc::autoscale::AutoscaleConfig;
use ppc::chaos::FaultSchedule;
use ppc::compute::cluster::Cluster;
use ppc::compute::instance::{BARE_HPC16, EC2_HCXL};
use ppc::core::rng::Pcg32;
use ppc::core::task::TaskSpec;
use ppc::exec::{Engine, RunContext, Workflow, Workload};
use ppc::resilience::{HedgeConfig, QuarantineConfig, ResiliencePolicy};
use ppc::serve::{
    simulate_serve, JobPayload, JobService, JobSpec, JobStatus, ServeFleet, ServeSimConfig,
    ServiceConfig, TenantLoad, TenantQuota, TenantSpec,
};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

pub const WORKLOADS: [&str; 3] = ["sim_paper", "sim_chaos", "native_bio"];

/// Engine names in lane order.
pub const ENGINES: [&str; 3] = ["classic", "mapreduce", "dryad"];

/// Worker slots of the native fleet: one per core of a 2-core host.
pub const NATIVE_SLOTS: usize = 2;

/// What one simulate call of a sim lane runs.
pub enum SimKind {
    Tasks(Vec<TaskSpec>),
    Workflow(Workflow),
}

pub struct SimCall {
    pub label: &'static str,
    pub ctx: RunContext,
    pub kind: SimKind,
}

impl SimCall {
    pub fn tasks(&self) -> usize {
        match &self.kind {
            SimKind::Tasks(t) => t.len(),
            SimKind::Workflow(wf) => wf.stages.iter().map(|s| s.specs.len()).sum(),
        }
    }
}

/// One engine's sim lane. A lane call runs every variant's calls, `repeat`
/// times over. Variants are the same call list built from derived seeds,
/// so a run's figure averages over several fault schedules and task
/// draws instead of hanging on one.
pub struct SimPlan {
    pub engine: Box<dyn Engine>,
    pub variants: Vec<Vec<SimCall>>,
    pub repeat: u32,
}

impl SimPlan {
    /// Simulated tasks per lane call.
    pub fn tasks(&self) -> u64 {
        let per_pass: usize = self.variants.iter().flatten().map(|c| c.tasks()).sum();
        self.repeat as u64 * per_pass as u64
    }
}

/// The serve lane of a sim workload: one closed-loop run per config (the
/// configs differ only in their derived seeds).
pub struct ServePlan {
    pub ctx: RunContext,
    pub cfgs: Vec<ServeSimConfig>,
    /// Overload must shed; underload must shed nothing.
    pub overload: bool,
}

/// The run-independent seed reference variants derive from.
const REFERENCE_SEED: u64 = 0x00C0_FFEE;

/// The seed of variant `j` of `n`, of which the first `fixed` are
/// reference variants (the same in every run) and the rest derive from the
/// run seed. Where one input draw swings a lane's cost by tens of percent
/// (hedged MapReduce under chaos; the protein database behind blastx), a
/// mostly-reference mix keeps the seed, not the program, from setting the
/// spread, while every run still covers inputs no earlier run saw.
pub fn variant_seed(seed: u64, j: u64, fixed: u64) -> u64 {
    if j < fixed {
        ppc::core::rng::stream_seed(REFERENCE_SEED, j)
    } else {
        ppc::core::rng::stream_seed(seed, j)
    }
}

/// One native bio pipeline and its final outputs computed directly in
/// set-up (single-threaded executor calls, task order).
pub struct Pipeline {
    pub wf: Workflow,
    pub expected: Vec<Vec<u8>>,
}

/// The native workload's inputs.
pub struct NativePlan {
    /// Pipelines from reference and run-derived seeds: each has its own
    /// protein database, which sets most of the blastx stage's cost, so a
    /// lane call averages over several databases instead of riding on one.
    pub pipelines: Vec<Pipeline>,
    pub ctx: RunContext,
    /// Cap3 jobs each serve-lane call submits, with their engine names.
    pub jobs: Vec<(&'static str, Workload)>,
}

impl NativePlan {
    /// Pipeline stage tasks per lane call.
    pub fn tasks(&self) -> u64 {
        let tasks = self.pipelines.iter().flat_map(|p| &p.wf.stages);
        tasks.map(|s| s.specs.len() as u64).sum()
    }
}

pub enum Plans {
    Sim {
        engines: Vec<Rc<SimPlan>>,
        serve: Rc<ServePlan>,
    },
    Native(Rc<NativePlan>),
}

/// A built workload: its plans (for the traced run) and its lanes.
pub struct Setup {
    pub plans: Plans,
    pub lanes: Vec<Lane>,
}

/// Build `name`'s inputs, services and lanes. `verbose` prints each sim
/// call's report digest on its first call.
pub fn setup(name: &str, seed: u64, verbose: bool) -> Result<Setup, String> {
    let plans = match name {
        "sim_paper" => sim_paper(seed),
        "sim_chaos" => sim_chaos(seed),
        "native_bio" => Plans::Native(Rc::new(native_bio(seed)?)),
        other => return Err(format!("unknown workload '{other}'")),
    };
    let lanes = match &plans {
        Plans::Sim { engines, serve } => {
            let mut lanes: Vec<Lane> = engines
                .iter()
                .zip(ENGINES)
                .map(|(plan, name)| sim_lane(name, plan.clone(), verbose))
                .collect();
            lanes.push(serve_sim_lane(serve.clone(), verbose));
            lanes
        }
        Plans::Native(plan) => {
            let mut lanes: Vec<Lane> = ENGINES
                .iter()
                .map(|&name| native_lane(name, plan.clone()))
                .collect();
            lanes.push(native_serve_lane(plan.clone())?);
            lanes
        }
    };
    Ok(Setup { plans, lanes })
}

// ------------------------------------------------------------------ sims

fn engine(name: &str) -> Box<dyn Engine> {
    ppc::engine_by_name(name).expect("every lane names a real engine")
}

fn platform(engine: &str) -> Platform {
    match engine {
        "classic" => Platform::ClassicEc2,
        "mapreduce" => Platform::Hadoop,
        _ => Platform::Dryad,
    }
}

/// Sizes of one sim-lane call, per engine: base-set file counts, the
/// paper-style replication factor ("replicated ... one to six times"),
/// bio-pipeline files, seed variants, and passes over the variants.
/// Chosen so each lane call costs roughly the same host time (about 0.1 s
/// on a 2-core x86-64 host), since per-task sim cost differs ~50x across
/// paradigms.
struct Scale {
    cap3_files: usize,
    blast_files: usize,
    gtm_files: usize,
    replicas: usize,
    pipeline_files: usize,
    variants: u64,
    /// Reference variants among `variants` (see [`variant_seed`]).
    fixed: u64,
    repeat: u32,
}

fn paper_scale(engine: &str) -> Scale {
    let (replicas, pipeline_files, repeat) = match engine {
        "classic" => (6, 512, 8),
        "mapreduce" => (1, 64, 2),
        _ => (6, 512, 15),
    };
    Scale {
        cap3_files: 200,
        blast_files: 128,
        gtm_files: 264,
        replicas,
        pipeline_files,
        variants: 4,
        fixed: 0,
        repeat,
    }
}

/// A sim plan: `s.variants` call lists from derived seeds.
fn sim_plan(
    name: &str,
    seed: u64,
    s: &Scale,
    ctx: impl Fn(u64, &'static str, usize) -> RunContext,
) -> Rc<SimPlan> {
    let variants = (0..s.variants)
        .map(|j| {
            let seed = variant_seed(seed, j, s.fixed);
            paper_calls(seed, s, |label, tasks| ctx(seed, label, tasks))
        })
        .collect();
    Rc::new(SimPlan {
        engine: engine(name),
        variants,
        repeat: s.repeat,
    })
}

/// The paper's three task sets, replicated, plus the simulated pipeline;
/// `ctx(label, tasks)` gives each call its run context.
fn paper_calls(
    seed: u64,
    s: &Scale,
    ctx: impl Fn(&'static str, usize) -> RunContext,
) -> Vec<SimCall> {
    let blast: Vec<TaskSpec> = blast_sim_base_set(seed)
        .into_iter()
        .take(s.blast_files)
        .collect();
    let sets = [
        (
            "cap3",
            replicate(&cap3_sim_tasks(s.cap3_files, 458), s.replicas),
        ),
        ("blast", replicate(&blast, s.replicas)),
        (
            "gtm",
            replicate(&gtm_sim_tasks(s.gtm_files, 100_000), s.replicas),
        ),
    ];
    let mut calls: Vec<SimCall> = sets
        .into_iter()
        .map(|(label, tasks)| SimCall {
            label,
            ctx: ctx(label, tasks.len()),
            kind: SimKind::Tasks(tasks),
        })
        .collect();
    calls.push(SimCall {
        label: "pipeline",
        ctx: ctx("pipeline", 3 * s.pipeline_files),
        kind: SimKind::Workflow(bio_pipeline_sim(s.pipeline_files)),
    });
    calls
}

/// The fleet app a call runs on (the pipeline runs on the Cap3 fleet).
fn app(label: &str) -> &str {
    if label == "pipeline" {
        "cap3"
    } else {
        label
    }
}

/// Fault-free reproduction: the paper's Cap3 / BLAST / GTM sets and their
/// replicated scale-ups on each paradigm's paper fleet, the simulated bio
/// pipeline, and the serve front door at ~0.5x capacity.
fn sim_paper(seed: u64) -> Plans {
    let engines = ENGINES
        .iter()
        .map(|&name| {
            let p = platform(name);
            sim_plan(name, seed, &paper_scale(name), |seed, label, _| {
                RunContext::new(&p.fleet(app(label), 128)).with_seed(seed)
            })
        })
        .collect();
    Plans::Sim {
        engines,
        serve: Rc::new(serve_plan(seed, false)),
    }
}

/// Serve fleet size (instances) and per-job service time of the serve sims.
const SERVE_INSTANCES: u32 = 32;
const SERVE_SERVICE_S: f64 = 1.0 + 32.0 / 8.0;
const SERVE_WEIGHTS: [u32; 4] = [4, 2, 2, 1];

/// The closed-loop serve operating points: ~0.5x capacity on a fixed
/// fleet, or ~2x capacity on an elastic one (which then sheds).
pub fn serve_plan(seed: u64, overload: bool) -> ServePlan {
    let (clients, jobs, think_s, variants) = if overload {
        (SERVE_INSTANCES, 40, SERVE_SERVICE_S, 16)
    } else {
        (SERVE_INSTANCES / 2, 440, 3.0 * SERVE_SERVICE_S, 4)
    };
    let loads: Vec<TenantLoad> = SERVE_WEIGHTS
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            let quota = TenantQuota {
                max_queued: 16,
                max_running: SERVE_INSTANCES as usize,
            };
            let spec = TenantSpec::new(format!("tenant-{i}"), w).with_quota(quota);
            let mut load = TenantLoad::new(spec, clients, jobs);
            load.think_s = think_s;
            load
        })
        .collect();
    let fleet = if overload {
        ServeFleet::Elastic(AutoscaleConfig::target_tracking(
            SERVE_INSTANCES / 4,
            SERVE_INSTANCES,
            2.0,
        ))
    } else {
        ServeFleet::Fixed {
            instances: SERVE_INSTANCES,
        }
    };
    let cfgs = (0..variants)
        .map(|j| {
            let mut cfg = ServeSimConfig::new(EC2_HCXL, fleet.clone(), loads.clone());
            cfg.seed = variant_seed(seed, j, 0);
            cfg
        })
        .collect();
    ServePlan {
        ctx: RunContext::local(),
        cfgs,
        overload,
    }
}

/// Seconds of simulated time chaos events are spread over.
const CHAOS_HORIZON_S: f64 = 1800.0;

/// A seeded fault schedule for paper-scale sims: timed kills, a kill
/// during an upload, a gray (slowed) worker, a storage brownout, and
/// i.i.d. death dice at every pipeline point.
pub fn chaos_schedule(seed: u64, workers: u32) -> Arc<FaultSchedule> {
    let mut rng = Pcg32::new(seed ^ 0xC4A0_5EED);
    let mut w = || rng.next_below(workers);
    let (w0, w1, w2, w3) = (w(), w(), w(), w());
    let mut rng = Pcg32::new(seed ^ 0x7133);
    let mut t = || rng.next_f64() * CHAOS_HORIZON_S / 2.0;
    let (t0, t1, t2) = (t(), t(), t());
    Arc::new(
        FaultSchedule::new(seed)
            .kill_at(w0, t0)
            .kill_at(w1, t1)
            .kill_mid_execute(w2, 1)
            .degrade(w3, 3.0, 0.0, CHAOS_HORIZON_S)
            .brownout(t2, t2 + 120.0)
            .with_death_probabilities(0.01, 0.01, 0.01),
    )
}

/// Hedging past 1.5x the observed p75, quarantine of slow or failing
/// workers, and a per-task deadline.
pub fn chaos_policy() -> ResiliencePolicy {
    ResiliencePolicy::hedged(HedgeConfig::quantile(30.0))
        .with_quarantine(QuarantineConfig::default())
        .with_deadline(7200.0)
}

/// `policy` without hedging or quarantine: what elastic Classic fleets run
/// under, since elastic Classic sims under a fault schedule do not
/// terminate on some seeds with either one on (NOTES.md).
pub fn elastic_policy(policy: ResiliencePolicy) -> ResiliencePolicy {
    ResiliencePolicy {
        hedge: None,
        quarantine: None,
        ..policy
    }
}

/// Per-engine sizes under chaos. Hedged MapReduce grows superlinearly
/// in tasks (0.04 s at 128 tasks, 4.9 s at 512), so its sets stay small
/// and it averages over more variants instead.
fn chaos_scale(engine: &str) -> Scale {
    let (files, replicas, pipeline_files, variants, fixed) = match engine {
        "classic" => (usize::MAX, 2, 128, 16, 0),
        "mapreduce" => (12, 1, 4, 16, 12),
        _ => (usize::MAX, 2, 128, 12, 0),
    };
    Scale {
        cap3_files: files.min(200),
        blast_files: files.min(128),
        gtm_files: files.min(264),
        replicas,
        pipeline_files,
        variants,
        fixed,
        repeat: 1,
    }
}

/// The same layers under faults: chaos schedule, hedge + quarantine +
/// deadline policy, an elastic autoscaled Classic fleet, and the serve
/// front door at ~2x capacity on an elastic fleet.
fn sim_chaos(seed: u64) -> Plans {
    let policy = chaos_policy();
    let engines = ENGINES
        .iter()
        .map(|&name| {
            let p = platform(name);
            sim_plan(name, seed, &chaos_scale(name), |seed, label, tasks| {
                // Classic's Cap3 and GTM sets run on an autoscaled fleet
                // with staggered arrivals, without hedging or quarantine:
                // elastic Classic with either does not terminate on some
                // seeds (NOTES.md).
                if name == "classic" && (label == "cap3" || label == "gtm") {
                    return elastic_ctx(seed, tasks).with_resilience(elastic_policy(policy));
                }
                let fleet = p.fleet(app(label), 64);
                RunContext::new(&fleet)
                    .with_seed(seed)
                    .with_schedule(chaos_schedule(seed, fleet.total_workers() as u32))
                    .with_resilience(policy)
            })
        })
        .collect();
    Plans::Sim {
        engines,
        serve: Rc::new(serve_plan(seed, true)),
    }
}

/// Instance cap of the elastic Classic fleet.
const ELASTIC_MAX: u32 = 32;

/// An elastic Classic fleet of HCXL instances under target tracking, with
/// seeded staggered arrivals so the controller scales up and down.
pub fn elastic_ctx(seed: u64, tasks: usize) -> RunContext {
    let mut rng = Pcg32::new(seed ^ 0xA771);
    let mut at = 0.0;
    let arrivals = (0..tasks)
        .map(|_| {
            at += rng.next_f64() * 2.0;
            at
        })
        .collect();
    RunContext::elastic(
        EC2_HCXL,
        AutoscaleConfig::target_tracking(2, ELASTIC_MAX, 4.0),
        arrivals,
    )
    .with_seed(seed)
    .with_schedule(chaos_schedule(seed, ELASTIC_MAX * EC2_HCXL.cores as u32))
}

fn sim_lane(name: &'static str, plan: Rc<SimPlan>, verbose: bool) -> Lane {
    let first = Cell::new(verbose);
    Lane {
        name,
        clock: Clock::ThreadCpu,
        call: Box::new(move || run_sim_plan(name, &plan, first.replace(false))),
    }
}

/// One sim-lane call: every simulate call of the plan, each checked
/// complete and folded into the lane digest.
pub fn run_sim_plan(lane: &str, plan: &SimPlan, print: bool) -> Result<Outcome, String> {
    let mut digest = Digest::new();
    let mut attempts = 0;
    for pass in 0..plan.repeat {
        for (j, variant) in plan.variants.iter().enumerate() {
            for call in variant {
                let d = oracle::sim_call(plan.engine.as_ref(), call)?;
                if print && pass == 0 {
                    println!("sim {lane} v{j} {} {}", call.label, d.line);
                }
                digest.u64(d.digest);
                attempts += d.attempts;
            }
        }
    }
    Ok(Outcome {
        work: plan.tasks(),
        attempts,
        digest: digest.finish(),
    })
}

fn serve_sim_lane(plan: Rc<ServePlan>, verbose: bool) -> Lane {
    let first = Cell::new(verbose);
    Lane {
        name: "serve",
        clock: Clock::ThreadCpu,
        call: Box::new(move || run_serve_plan(&plan, first.replace(false))),
    }
}

/// One serve-lane call: every config's closed-loop run, each checked.
pub fn run_serve_plan(plan: &ServePlan, print: bool) -> Result<Outcome, String> {
    let mut digest = Digest::new();
    let mut work = 0;
    for (j, cfg) in plan.cfgs.iter().enumerate() {
        let run = simulate_serve(&plan.ctx, cfg);
        let d = oracle::serve_run(&run, cfg.submissions(), plan.overload)?;
        if print {
            let point = if plan.overload {
                "overload"
            } else {
                "underload"
            };
            println!("sim serve v{j} {point} {}", d.line);
        }
        digest.u64(d.digest);
        work += run.report.submitted;
    }
    Ok(Outcome {
        work,
        attempts: work,
        digest: digest.finish(),
    })
}

// ---------------------------------------------------------------- native

/// Native workload sizes: pipelines per lane call (one protein database
/// each) and how many of them are reference pipelines, files and reads
/// per file, and the Cap3 jobs each serve-lane call submits.
const NATIVE_PIPELINES: u64 = 8;
const NATIVE_FIXED: u64 = 6;
const NATIVE_FILES: usize = 2;
const NATIVE_READS: usize = 32;
const SERVE_JOBS: usize = 6;
const SERVE_JOB_FILES: usize = 2;
const SERVE_JOB_READS: usize = 60;

/// The native fleet: one node with [`NATIVE_SLOTS`] worker slots.
pub fn native_ctx(seed: u64) -> RunContext {
    RunContext::new(&Cluster::provision(BARE_HPC16, 1, NATIVE_SLOTS)).with_seed(seed)
}

fn native_bio(seed: u64) -> Result<NativePlan, String> {
    let pipelines = (0..NATIVE_PIPELINES)
        .map(|j| {
            let seed = variant_seed(seed, j, NATIVE_FIXED);
            let wf = bio_pipeline_native(NATIVE_FILES, NATIVE_READS, seed);
            let (expected, _) = oracle::direct_pipeline(&wf)?;
            Ok(Pipeline { wf, expected })
        })
        .collect::<Result<_, String>>()?;
    let inputs = cap3_native_inputs(SERVE_JOBS * SERVE_JOB_FILES, SERVE_JOB_READS, 2400, seed);
    let jobs = inputs
        .chunks(SERVE_JOB_FILES)
        .enumerate()
        .map(|(i, chunk)| {
            let executor = Arc::new(Cap3Executor::new());
            let wl = Workload::new(format!("cap3-job-{i}"), chunk.to_vec(), executor);
            (ENGINES[i % ENGINES.len()], wl)
        })
        .collect();
    Ok(NativePlan {
        pipelines,
        ctx: native_ctx(seed),
        jobs,
    })
}

fn native_lane(name: &'static str, plan: Rc<NativePlan>) -> Lane {
    let engine = engine(name);
    Lane {
        name,
        clock: Clock::Wall,
        call: Box::new(move || run_native_pipelines(engine.as_ref(), &plan).map(|(out, _)| out)),
    }
}

/// Every pipeline of `plan` run natively on `engine`, each checked against
/// its direct outputs and for leaked threads; also returns the host
/// seconds spent inside `run_workflow`.
pub fn run_native_pipelines(
    engine: &dyn Engine,
    plan: &NativePlan,
) -> Result<(Outcome, f64), String> {
    let (mut digest, mut attempts, mut secs) = (Digest::new(), 0, 0.0);
    for p in &plan.pipelines {
        let threads = oracle::thread_count();
        let start = Instant::now();
        let (report, outputs) = engine
            .run_workflow(&plan.ctx, &p.wf)
            .map_err(|e| format!("run_workflow: {e}"))?;
        secs += start.elapsed().as_secs_f64();
        oracle::threads_back_to(threads)?;
        if !report.is_complete() {
            return Err(format!("{} left pipeline tasks incomplete", engine.name()));
        }
        digest.u64(oracle::native_outputs(outputs, &p.expected)?);
        attempts += report.total_attempts() as u64;
    }
    let out = Outcome {
        work: plan.tasks(),
        attempts,
        digest: digest.finish(),
    };
    Ok((out, secs))
}

/// A fresh native job service over all three engines, two tenants.
pub fn job_service() -> Result<JobService, String> {
    let cfg = ServiceConfig::new(vec![
        TenantSpec::new("lab-a", 2),
        TenantSpec::new("lab-b", 1),
    ]);
    JobService::new(cfg, ppc::engines()).map_err(|e| e.to_string())
}

fn native_serve_lane(plan: Rc<NativePlan>) -> Result<Lane, String> {
    let svc = RefCell::new(job_service()?);
    Ok(Lane {
        name: "serve",
        clock: Clock::Wall,
        call: Box::new(move || {
            let mut svc = svc.borrow_mut();
            drain_jobs(&mut svc, &plan).map(|n| Outcome {
                work: n,
                attempts: n,
                digest: n,
            })
        }),
    })
}

/// Submit every Cap3 job of `plan` and drain the service; checks every
/// job was admitted and finished, bills sum exactly, and no thread leaked.
pub fn drain_jobs(svc: &mut JobService, plan: &NativePlan) -> Result<u64, String> {
    let threads = oracle::thread_count();
    let tenants = ["lab-a", "lab-b"];
    let mut ids = Vec::with_capacity(plan.jobs.len());
    for (i, (engine, wl)) in plan.jobs.iter().enumerate() {
        let spec = JobSpec::new(tenants[i % 2], *engine, JobPayload::Workload(wl.clone()));
        let (id, status) = svc.submit(spec).map_err(|e| e.to_string())?;
        if status != JobStatus::Queued {
            return Err(format!("job {i} was not admitted: {status:?}"));
        }
        ids.push(id);
    }
    let report = svc.drain(&plan.ctx).map_err(|e| format!("drain: {e}"))?;
    oracle::threads_back_to(threads)?;
    oracle::bills_sum(&report)?;
    if report.rejected != 0 || report.failed != 0 {
        return Err(format!(
            "drain rejected {} and failed {} jobs",
            report.rejected, report.failed
        ));
    }
    if let Some(id) = ids
        .iter()
        .find(|&&id| svc.status(id) != Some(JobStatus::Done))
    {
        return Err(format!("job {id:?} ended {:?}", svc.status(*id)));
    }
    Ok(ids.len() as u64)
}
