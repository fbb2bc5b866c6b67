//! The deterministic closed-loop load generator: thousands of simulated
//! clients submitting jobs to the service front door, driven through the
//! DES core so a million submissions replay bit-identically from a seed.
//!
//! Each client loops `submit → wait for completion (or back off after a
//! rejection) → think → submit` until its submission budget is spent, so
//! the offered load is *closed-loop*: overload shows up as queueing delay
//! and shed submissions, not as an unbounded event backlog. Jobs occupy
//! one instance each for `overhead + demand / cores` seconds; the fleet is
//! either fixed or elastic under the `ppc-autoscale` controller, and the
//! bill comes from the same [`FleetLedger`] the batch engines use.

use crate::admission::AdmissionPolicy;
use crate::job::{JobId, JobRecord, JobStatus, Priority};
use crate::report::{apportion_cost, FleetSummary, ServeReport};
use crate::scheduler::{DrrScheduler, QueuedJob};
use crate::tenant::{TenantRollup, TenantSpec};
use ppc_autoscale::{AutoscaleConfig, Controller, Decision, Telemetry};
use ppc_compute::billing::FleetLedger;
use ppc_compute::instance::InstanceType;
use ppc_core::rng::Pcg32;
use ppc_des::{Engine as DesEngine, SimTime};
use ppc_exec::RunContext;
use ppc_trace::{EventKind, TraceEvent, NO_WORKER};
use std::cell::RefCell;
use std::rc::Rc;

/// One tenant's offered load.
#[derive(Debug, Clone)]
pub struct TenantLoad {
    pub spec: TenantSpec,
    /// Closed-loop clients submitting on this tenant's behalf.
    pub clients: u32,
    /// Submissions each client makes before retiring (rejected attempts
    /// count — the budget bounds the run deterministically).
    pub jobs_per_client: u32,
    /// Mean think time between a client's jobs, seconds (exponential).
    pub think_s: f64,
    /// Tasks per job and reference seconds per task.
    pub job_tasks: u32,
    pub task_s: f64,
    /// Log-normal sigma jittering each job's total demand.
    pub jitter_sigma: f64,
    /// Client back-off after a rejection, seconds (uniformly jittered).
    pub retry_backoff_s: f64,
    pub priority: Priority,
    /// Latency hint; completions past it count as `deadline_missed`.
    pub deadline_hint_s: Option<f64>,
}

impl TenantLoad {
    pub fn new(spec: TenantSpec, clients: u32, jobs_per_client: u32) -> TenantLoad {
        TenantLoad {
            spec,
            clients,
            jobs_per_client,
            think_s: 10.0,
            job_tasks: 8,
            task_s: 4.0,
            jitter_sigma: 0.3,
            retry_backoff_s: 15.0,
            priority: Priority::Batch,
            deadline_hint_s: None,
        }
    }

    /// Total submissions this tenant's clients will make.
    pub fn submissions(&self) -> u64 {
        self.clients as u64 * self.jobs_per_client as u64
    }
}

/// The shared fleet the service multiplexes tenants over.
#[derive(Debug, Clone)]
pub enum ServeFleet {
    /// A fixed pool of instances, billed from t=0 to the horizon.
    Fixed { instances: u32 },
    /// An elastic pool under the autoscale controller.
    Elastic(AutoscaleConfig),
}

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct ServeSimConfig {
    pub seed: u64,
    pub itype: InstanceType,
    pub fleet: ServeFleet,
    /// Fair-share quantum (cpu-seconds of credit per scheduler visit).
    pub quantum_s: f64,
    pub admission: AdmissionPolicy,
    /// Fixed per-job dispatch/teardown overhead, seconds.
    pub dispatch_overhead_s: f64,
    /// Billed-hour length (tests compress it).
    pub billing_hour_s: f64,
    /// Record per-job lifecycle [`TraceEvent`]s (off for 1M-job runs).
    pub record_events: bool,
    pub tenants: Vec<TenantLoad>,
}

impl ServeSimConfig {
    pub fn new(itype: InstanceType, fleet: ServeFleet, tenants: Vec<TenantLoad>) -> ServeSimConfig {
        ServeSimConfig {
            seed: 4242,
            itype,
            fleet,
            quantum_s: 60.0,
            admission: AdmissionPolicy::default(),
            dispatch_overhead_s: 1.0,
            billing_hour_s: 3600.0,
            record_events: false,
            tenants,
        }
    }

    /// Total submissions across all tenants.
    pub fn submissions(&self) -> u64 {
        self.tenants.iter().map(|t| t.submissions()).sum()
    }
}

/// Everything a load-generator run produces.
pub struct ServeRun {
    pub report: ServeReport,
    /// One record per submission, indexed by [`JobId`].
    pub records: Vec<JobRecord>,
    /// Job lifecycle + fleet events (empty unless `record_events`).
    pub events: Vec<TraceEvent>,
}

struct SimSlot {
    /// Usable for dispatch (warmed up, not retired).
    live: bool,
    draining: bool,
    busy: Option<JobId>,
}

struct Client {
    tenant: u32,
    remaining: u32,
    rng: Pcg32,
}

struct World {
    loads: Vec<TenantLoad>,
    admission: AdmissionPolicy,
    itype_cores: usize,
    dispatch_overhead_s: f64,
    sched: DrrScheduler,
    records: Vec<JobRecord>,
    rollups: Vec<TenantRollup>,
    queued: Vec<usize>,
    running: Vec<usize>,
    total_queued: usize,
    total_running: usize,
    /// Idle usable slots, LIFO (deterministic, keeps hot instances busy).
    free: Vec<u32>,
    slots: Vec<SimSlot>,
    controller: Option<Controller>,
    clients: Vec<Client>,
    active_clients: usize,
    last_finish_s: f64,
    record_events: bool,
    events: Vec<TraceEvent>,
}

impl World {
    fn event(&mut self, at_s: f64, worker: u32, kind: EventKind) {
        if self.record_events {
            self.events.push(TraceEvent { at_s, worker, kind });
        }
    }

    fn finished(&self) -> bool {
        self.active_clients == 0 && self.total_queued == 0 && self.total_running == 0
    }

    fn service_time(&self, demand_s: f64, tasks: u32) -> f64 {
        // Pleasingly parallel: the job's tasks spread over the instance's
        // cores; a job smaller than the core count still pays per-wave.
        let lanes = (self.itype_cores as u32).min(tasks.max(1)) as f64;
        self.dispatch_overhead_s + demand_s / lanes
    }
}

type Shared = Rc<RefCell<World>>;

/// Run the closed-loop load generator. Deterministic in
/// `ctx.seed_or(cfg.seed)`.
pub fn simulate_serve(ctx: &RunContext, cfg: &ServeSimConfig) -> ServeRun {
    assert!(
        !cfg.tenants.is_empty(),
        "serve sim needs at least one tenant"
    );
    let seed = ctx.seed_or(cfg.seed);
    let mut des = DesEngine::new();

    let weights: Vec<u32> = cfg.tenants.iter().map(|t| t.spec.weight).collect();
    let n_tenants = cfg.tenants.len();

    // Fleet: fixed slots are live at t=0; elastic starts at the
    // controller's min fleet (launched warm at t=0, like the batch sims).
    let (controller, initial_slots) = match &cfg.fleet {
        ServeFleet::Fixed { instances } => {
            assert!(*instances >= 1, "fixed fleet needs at least one instance");
            (None, *instances)
        }
        ServeFleet::Elastic(auto) => {
            let c = Controller::new(auto.clone());
            let n = c.capacity();
            (Some(c), n)
        }
    };

    let mut clients = Vec::new();
    for (t, load) in cfg.tenants.iter().enumerate() {
        for c in 0..load.clients {
            clients.push(Client {
                tenant: t as u32,
                remaining: load.jobs_per_client,
                // Per-client stream: deterministic and independent of
                // event interleaving.
                rng: Pcg32::for_stream(seed, ((t as u64) << 32) | c as u64),
            });
        }
    }
    let n_clients = clients.len();

    let world: Shared = Rc::new(RefCell::new(World {
        loads: cfg.tenants.clone(),
        admission: cfg.admission,
        itype_cores: cfg.itype.cores,
        dispatch_overhead_s: cfg.dispatch_overhead_s,
        sched: DrrScheduler::new(cfg.quantum_s, &weights),
        records: Vec::with_capacity(cfg.submissions() as usize),
        rollups: vec![TenantRollup::default(); n_tenants],
        queued: vec![0; n_tenants],
        running: vec![0; n_tenants],
        total_queued: 0,
        total_running: 0,
        free: (0..initial_slots).rev().collect(),
        slots: (0..initial_slots)
            .map(|_| SimSlot {
                live: true,
                draining: false,
                busy: None,
            })
            .collect(),
        controller,
        clients,
        active_clients: n_clients,
        last_finish_s: 0.0,
        record_events: cfg.record_events,
        events: Vec::new(),
    }));

    // Stagger first submissions over one mean think time per tenant so a
    // million clients do not all arrive in the same microsecond.
    for ci in 0..n_clients {
        let first = {
            let mut w = world.borrow_mut();
            let tenant = w.clients[ci].tenant as usize;
            let think = w.loads[tenant].think_s;
            w.clients[ci].rng.uniform(0.0, think.max(1e-6))
        };
        let w = world.clone();
        des.schedule_at(SimTime::from_secs_f64(first), move |des| {
            submit(&w, des, ci);
        });
    }

    // Autoscale evaluation ticks.
    if let ServeFleet::Elastic(auto) = &cfg.fleet {
        let w = world.clone();
        let interval = auto.interval_s;
        des.schedule_at(SimTime::from_secs_f64(interval), move |des| {
            tick(&w, des, interval);
        });
    }

    des.run();

    let world = Rc::try_unwrap(world)
        .unwrap_or_else(|_| panic!("events still hold the world"))
        .into_inner();
    finalize(cfg, world)
}

fn submit(world: &Shared, des: &mut DesEngine, ci: usize) {
    let now = des.now().as_secs_f64();
    let mut w = world.borrow_mut();
    let tenant = w.clients[ci].tenant as usize;
    let load = w.loads[tenant].clone();
    w.clients[ci].remaining -= 1;

    let demand_s = {
        let rng = &mut w.clients[ci].rng;
        let jitter = if load.jitter_sigma > 0.0 {
            rng.log_normal(0.0, load.jitter_sigma)
        } else {
            1.0
        };
        load.job_tasks as f64 * load.task_s * jitter
    };
    let id = JobId(w.records.len() as u64);
    w.rollups[tenant].submitted += 1;

    let verdict = w
        .admission
        .decide(w.queued[tenant], &load.spec.quota, w.total_queued);
    match verdict {
        Err(_) => {
            let rec = JobRecord::rejected(id, tenant as u32, ci as u32, demand_s, now);
            w.records.push(rec);
            w.rollups[tenant].rejected += 1;
            w.event(now, NO_WORKER, EventKind::JobReject);
            // Shed: the client backs off and retries (a fresh submission)
            // if it still has budget.
            if w.clients[ci].remaining > 0 {
                let backoff = {
                    let rng = &mut w.clients[ci].rng;
                    load.retry_backoff_s * rng.uniform(0.5, 1.5)
                };
                drop(w);
                let wshared = world.clone();
                des.schedule_in(SimTime::from_secs_f64(backoff), move |des| {
                    submit(&wshared, des, ci);
                });
            } else {
                w.active_clients -= 1;
            }
        }
        Ok(()) => {
            let rec = JobRecord::queued(id, tenant as u32, ci as u32, demand_s, now);
            w.records.push(rec);
            w.sched.enqueue(
                tenant,
                QueuedJob {
                    job: id.0,
                    demand_s,
                    submitted_s: now,
                },
                load.priority == Priority::Interactive,
            );
            w.queued[tenant] += 1;
            w.total_queued += 1;
            if w.queued[tenant] > w.rollups[tenant].peak_queued {
                w.rollups[tenant].peak_queued = w.queued[tenant];
            }
            w.event(now, NO_WORKER, EventKind::JobSubmit);
            drop(w);
            try_dispatch(world, des);
        }
    }
}

fn try_dispatch(world: &Shared, des: &mut DesEngine) {
    let now = des.now().as_secs_f64();
    loop {
        let mut w = world.borrow_mut();
        if w.free.is_empty() {
            return;
        }
        let next = {
            let World {
                sched,
                running,
                loads,
                ..
            } = &mut *w;
            sched.dequeue(|t| running[t] < loads[t].spec.quota.max_running)
        };
        let Some((tenant, qj)) = next else {
            return;
        };
        let slot = w.free.pop().unwrap();
        let id = JobId(qj.job);
        let load_tasks = w.loads[tenant].job_tasks;
        let service = w.service_time(qj.demand_s, load_tasks);

        let rec = &mut w.records[qj.job as usize];
        rec.advance(JobStatus::Admitted, now);
        rec.advance(JobStatus::Running, now);
        w.queued[tenant] -= 1;
        w.total_queued -= 1;
        w.running[tenant] += 1;
        w.total_running += 1;
        if w.running[tenant] > w.rollups[tenant].peak_running {
            w.rollups[tenant].peak_running = w.running[tenant];
        }
        w.rollups[tenant].busy_seconds += service;
        w.slots[slot as usize].busy = Some(id);
        w.event(now, slot, EventKind::JobDispatch);
        drop(w);

        let wshared = world.clone();
        des.schedule_in(SimTime::from_secs_f64(service), move |des| {
            complete(&wshared, des, slot);
        });
    }
}

fn complete(world: &Shared, des: &mut DesEngine, slot: u32) {
    let now = des.now().as_secs_f64();
    let mut w = world.borrow_mut();
    let id = w.slots[slot as usize]
        .busy
        .take()
        .expect("completion on an idle slot");
    let (tenant, ci, latency, wait) = {
        let rec = &mut w.records[id.0 as usize];
        rec.advance(JobStatus::Done, now);
        (
            rec.tenant as usize,
            rec.client as usize,
            rec.latency_s().unwrap(),
            rec.wait_s().unwrap(),
        )
    };
    w.running[tenant] -= 1;
    w.total_running -= 1;
    w.last_finish_s = now;
    let deadline = w.loads[tenant].deadline_hint_s;
    {
        let roll = &mut w.rollups[tenant];
        roll.completed += 1;
        roll.latency.observe(latency);
        roll.wait.observe(wait);
        if deadline.is_some_and(|d| latency > d) {
            roll.deadline_missed += 1;
        }
    }
    w.event(now, slot, EventKind::JobComplete);

    // Slot teardown: a draining slot retires the moment its job finishes;
    // otherwise it returns to the idle pool.
    if w.slots[slot as usize].draining {
        w.slots[slot as usize].live = false;
        w.controller
            .as_mut()
            .expect("draining slot without a controller")
            .confirm_retired(slot, now);
    } else {
        w.free.push(slot);
    }

    // Closed loop: the submitting client thinks, then submits again.
    if w.clients[ci].remaining > 0 {
        let think = {
            let mean = w.loads[tenant].think_s;
            w.clients[ci].rng.exponential(mean.max(1e-9))
        };
        drop(w);
        let wshared = world.clone();
        des.schedule_in(SimTime::from_secs_f64(think), move |des| {
            submit(&wshared, des, ci);
        });
    } else {
        w.active_clients -= 1;
        drop(w);
    }
    try_dispatch(world, des);
}

fn tick(world: &Shared, des: &mut DesEngine, interval_s: f64) {
    let now = des.now().as_secs_f64();
    let mut w = world.borrow_mut();
    if w.finished() {
        return; // stop rescheduling; the run drains out
    }
    let telemetry = Telemetry {
        queued: w.total_queued,
        in_flight: w.total_running,
        oldest_age_s: w.sched.oldest_submitted().map(|s| (now - s).max(0.0)),
    };
    let warmup_s = w
        .controller
        .as_ref()
        .expect("tick without a controller")
        .config()
        .warmup_s;
    let decision = w.controller.as_mut().unwrap().decide(now, &telemetry);
    match decision {
        Decision::Hold => {}
        Decision::Launch { ids } => {
            for id in ids {
                assert_eq!(id as usize, w.slots.len(), "slot ids must be dense");
                w.slots.push(SimSlot {
                    live: false,
                    draining: false,
                    busy: None,
                });
                w.event(now, id, EventKind::Launch);
                let wshared = world.clone();
                des.schedule_in(SimTime::from_secs_f64(warmup_s), move |des| {
                    warm(&wshared, des, id);
                });
            }
        }
        Decision::Drain { ids } => {
            for id in ids {
                w.event(now, id, EventKind::Drain);
                let slot = &mut w.slots[id as usize];
                slot.draining = true;
                if slot.busy.is_none() {
                    // Idle victim: retire right away.
                    slot.live = false;
                    if let Some(pos) = w.free.iter().position(|&s| s == id) {
                        w.free.swap_remove(pos);
                    }
                    w.controller.as_mut().unwrap().confirm_retired(id, now);
                }
            }
        }
    }
    drop(w);
    let wshared = world.clone();
    des.schedule_in(SimTime::from_secs_f64(interval_s), move |des| {
        tick(&wshared, des, interval_s);
    });
}

fn warm(world: &Shared, des: &mut DesEngine, slot: u32) {
    let mut w = world.borrow_mut();
    // The controller only drains *active* slots and a warm event always
    // precedes a same-instant tick, but guard anyway: a slot drained
    // before its warm event must never re-enter the idle pool.
    if w.slots[slot as usize].draining {
        return;
    }
    w.slots[slot as usize].live = true;
    w.free.push(slot);
    drop(w);
    try_dispatch(world, des);
}

fn finalize(cfg: &ServeSimConfig, w: World) -> ServeRun {
    let horizon = w.last_finish_s;
    let mut ledger = FleetLedger::new(cfg.itype, cfg.billing_hour_s);
    match &w.controller {
        None => {
            for _ in 0..w.slots.len() {
                ledger.launch(0.0);
            }
        }
        Some(c) => {
            for slot in c.slots() {
                let idx = ledger.launch(slot.launched_at);
                if let Some(r) = slot.retired_at {
                    ledger.retire(idx, r.min(horizon.max(slot.launched_at)));
                }
            }
        }
    }
    let fleet_cost = ledger.cost(horizon);
    let used = ledger.used_seconds(horizon);
    let busy: f64 = w.rollups.iter().map(|r| r.busy_seconds).sum();
    let fleet = FleetSummary {
        instances_launched: ledger.launched(),
        billed_hours: ledger.billed_hours(horizon),
        used_seconds: used,
        utilization: if used > 0.0 { busy / used } else { 0.0 },
        cost: fleet_cost,
    };
    let shares: Vec<f64> = w.rollups.iter().map(|r| r.busy_seconds).collect();
    let tenant_costs = apportion_cost(&fleet_cost, &shares);
    let specs: Vec<TenantSpec> = cfg.tenants.iter().map(|t| t.spec.clone()).collect();
    let report = ServeReport::build(
        "serve-sim",
        &specs,
        &w.rollups,
        tenant_costs,
        fleet,
        horizon,
    );
    ServeRun {
        report,
        records: w.records,
        events: w.events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::TenantQuota;
    use ppc_compute::instance::EC2_HCXL;

    fn two_tenant_cfg(overload: bool) -> ServeSimConfig {
        let quota = TenantQuota {
            max_queued: 50,
            max_running: 8,
        };
        // Overload needs more clients than the bounded buffer holds
        // (closed-loop queue depth is capped by the client count).
        let (clients, jobs) = if overload { (80, 12) } else { (20, 25) };
        let mk = |name: &str, weight| {
            TenantLoad::new(
                TenantSpec::new(name, weight).with_quota(quota),
                clients,
                jobs,
            )
        };
        let mut a = mk("blast", 2);
        let mut b = mk("cap3", 1);
        a.think_s = if overload { 2.0 } else { 40.0 };
        b.think_s = a.think_s;
        a.deadline_hint_s = Some(300.0);
        let mut cfg = ServeSimConfig::new(EC2_HCXL, ServeFleet::Fixed { instances: 8 }, vec![a, b]);
        cfg.record_events = true;
        cfg
    }

    fn ctx() -> RunContext {
        RunContext::local()
    }

    #[test]
    fn all_submissions_accounted() {
        let cfg = two_tenant_cfg(false);
        let run = simulate_serve(&ctx(), &cfg);
        assert_eq!(run.records.len() as u64, cfg.submissions());
        assert_eq!(run.report.submitted, cfg.submissions());
        assert_eq!(
            run.report.submitted,
            run.report.rejected + run.report.completed + run.report.failed
        );
        // Every non-rejected job reached a terminal state.
        assert!(run.records.iter().all(|r| r.status.is_terminal()));
    }

    #[test]
    fn context_seed_changes_the_run() {
        let cfg = two_tenant_cfg(false);
        let a = simulate_serve(&ctx(), &cfg);
        let b = simulate_serve(&ctx().with_seed(7), &cfg);
        assert_ne!(JobRecord::digest(&a.records), JobRecord::digest(&b.records));
    }

    #[test]
    fn quotas_hold_under_overload() {
        let cfg = two_tenant_cfg(true);
        let run = simulate_serve(&ctx(), &cfg);
        for t in &run.report.tenants {
            assert!(
                t.peak_queued <= 50,
                "{}: peak_queued {}",
                t.tenant,
                t.peak_queued
            );
            assert!(
                t.peak_running <= 8,
                "{}: peak_running {}",
                t.tenant,
                t.peak_running
            );
        }
        // Overload must shed something through the bounded buffers.
        assert!(run.report.rejected > 0);
    }

    #[test]
    fn elastic_fleet_scales_and_bills_exactly() {
        let mut cfg = two_tenant_cfg(true);
        let mut auto = AutoscaleConfig::target_tracking(2, 12, 2.0);
        auto.interval_s = 5.0;
        auto.warmup_s = 10.0;
        auto.scale_up_cooldown_s = 10.0;
        auto.scale_down_cooldown_s = 20.0;
        auto.billing_hour_s = cfg.billing_hour_s;
        cfg.fleet = ServeFleet::Elastic(auto);
        let run = simulate_serve(&ctx(), &cfg);
        assert!(run.report.fleet.instances_launched > 2, "never scaled up");
        // Per-tenant bills sum exactly to the fleet bill (ServeReport::build
        // asserts it; double-check through the public type).
        let sum: ppc_core::money::Usd =
            run.report.tenants.iter().map(|t| t.cost.compute_cost).sum();
        assert_eq!(sum, run.report.fleet.cost.compute_cost);
        assert_eq!(run.report.submitted, cfg.submissions());
    }

    #[test]
    fn weighted_tenant_gets_more_service_under_contention() {
        // Same offered load, weight 2 vs 1, scarce fixed fleet: the
        // heavier tenant must complete more work.
        let cfg = two_tenant_cfg(true);
        let run = simulate_serve(&ctx(), &cfg);
        let blast = &run.report.tenants[0];
        let cap3 = &run.report.tenants[1];
        assert!(
            blast.busy_seconds > cap3.busy_seconds,
            "weight-2 tenant served {} s vs {} s",
            blast.busy_seconds,
            cap3.busy_seconds
        );
        assert!(run.report.fairness_jain > 0.5);
    }

    #[test]
    fn lifecycle_events_recorded() {
        let cfg = two_tenant_cfg(false);
        let run = simulate_serve(&ctx(), &cfg);
        let kinds: Vec<EventKind> = run.events.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::JobSubmit));
        assert!(kinds.contains(&EventKind::JobDispatch));
        assert!(kinds.contains(&EventKind::JobComplete));
        let dispatches = kinds
            .iter()
            .filter(|k| **k == EventKind::JobDispatch)
            .count();
        assert_eq!(dispatches as u64, run.report.completed + run.report.failed);
    }
}
