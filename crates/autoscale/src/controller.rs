//! The autoscaling controller: a pure, deterministic state machine.
//!
//! Every `interval_s` seconds the driving runtime (native threads or the
//! discrete-event simulator) takes one queue-metrics snapshot and calls
//! [`Controller::decide`]. The controller answers with a [`Decision`]:
//! launch N instances, start draining specific instances, or do nothing.
//! The runtime owns the mechanics (spawning threads / scheduling events)
//! and reports back via [`Controller::confirm_retired`] once a draining
//! worker has finished its in-hand task and exited.
//!
//! Because the controller is pure in `(time, telemetry)`, the native and
//! simulated engines driven with the same snapshots produce bit-identical
//! decision sequences — the property the cross-engine tests pin down.
//!
//! ## Scale-in is *draining*, never preemption
//!
//! A victim worker keeps its current lease: it is told to stop receiving
//! new messages and retire after completing (and deleting) the message it
//! holds. A leased message is therefore never orphaned by scale-in; the
//! visibility-timeout machinery stays the fault-tolerance path for real
//! failures only.
//!
//! ## Billing-aware scale-in
//!
//! With hourly billing, an instance's cost is `ceil(uptime / hour)` — so
//! the cheapest moment to retire is just *before* the next whole-hour
//! boundary. With `billing_aware` on, a worker is only eligible as a
//! drain victim inside the final `billing_window_s` of its current billed
//! hour; otherwise the controller holds it (it is paid for anyway, and
//! may still absorb a burst).

use crate::policy::{Policy, Telemetry};

/// Tuning for the [`Controller`].
#[derive(Debug, Clone, PartialEq)]
pub struct AutoscaleConfig {
    pub policy: Policy,
    /// Fleet never shrinks below this (>= 1 keeps the job live).
    pub min_workers: u32,
    /// Fleet never grows above this (the account's instance quota).
    pub max_workers: u32,
    /// Seconds between controller evaluations.
    pub interval_s: f64,
    /// Minimum seconds between consecutive scale-*up* actions.
    pub scale_up_cooldown_s: f64,
    /// Minimum seconds between consecutive scale-*down* actions.
    pub scale_down_cooldown_s: f64,
    /// Seconds a fresh instance needs before it starts taking work
    /// (boot + application download + staging, §4 of the paper). Warming
    /// instances count toward capacity so the controller does not
    /// over-launch while instances boot.
    pub warmup_s: f64,
    /// Retire instances only near their hourly billing boundary.
    pub billing_aware: bool,
    /// Width of the end-of-hour eligibility window, seconds.
    pub billing_window_s: f64,
    /// Billed-hour length in seconds: 3600 on EC2/Azure of the paper's
    /// era; tests compress it so "hours" pass in milliseconds.
    pub billing_hour_s: f64,
}

impl AutoscaleConfig {
    /// Target-tracking defaults: 4 outstanding tasks per worker, hourly
    /// billing awareness on.
    pub fn target_tracking(min_workers: u32, max_workers: u32, per_worker: f64) -> AutoscaleConfig {
        AutoscaleConfig {
            policy: Policy::TargetBacklog { per_worker },
            min_workers,
            max_workers,
            interval_s: 15.0,
            scale_up_cooldown_s: 60.0,
            scale_down_cooldown_s: 120.0,
            warmup_s: 90.0,
            billing_aware: true,
            billing_window_s: 300.0,
            billing_hour_s: 3600.0,
        }
    }
}

/// Lifecycle of one autoscaled instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotState {
    /// Launched, still booting; not yet taking work.
    Warming,
    /// Serving the task queue.
    Active,
    /// Told to retire; finishing its in-hand task, taking nothing new.
    Draining,
    /// Gone; `retired_at` is final and billing stops accruing.
    Retired,
}

/// One instance the controller has launched.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slot {
    pub id: u32,
    pub launched_at: f64,
    /// Set once the runtime confirms the worker exited.
    pub retired_at: Option<f64>,
    pub state: SlotState,
}

impl Slot {
    /// Seconds into the current billed hour at `now`.
    fn hour_phase(&self, now: f64, hour_s: f64) -> f64 {
        (now - self.launched_at).max(0.0) % hour_s
    }
}

/// What the runtime must do after one evaluation tick.
#[derive(Debug, Clone, PartialEq)]
pub enum Decision {
    /// Steady state: no action.
    Hold,
    /// Provision instances with these fresh slot ids.
    Launch { ids: Vec<u32> },
    /// Tell these workers to finish their current task and exit.
    Drain { ids: Vec<u32> },
}

/// One entry in the fleet's audit log — the raw material for the
/// fleet-size timeline in reports.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetEvent {
    pub at_s: f64,
    pub kind: FleetEventKind,
    pub slot: u32,
    /// Billed fleet size (launched, not yet retired) after this event.
    pub fleet_after: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetEventKind {
    Launch,
    Drain,
    Retire,
    /// The instance died (detected by the runtime, e.g. via a chaos
    /// schedule or a missed heartbeat) rather than retiring cleanly.
    Died,
}

/// The autoscaling state machine. See the module docs.
#[derive(Debug, Clone)]
pub struct Controller {
    cfg: AutoscaleConfig,
    slots: Vec<Slot>,
    next_id: u32,
    last_scale_up: Option<f64>,
    last_scale_down: Option<f64>,
    events: Vec<FleetEvent>,
}

impl Controller {
    /// A controller whose initial fleet of `cfg.min_workers` instances was
    /// launched (already warm) at time zero.
    pub fn new(cfg: AutoscaleConfig) -> Controller {
        assert!(cfg.min_workers >= 1, "min_workers must be at least 1");
        assert!(
            cfg.max_workers >= cfg.min_workers,
            "max_workers < min_workers"
        );
        assert!(cfg.billing_hour_s > 0.0, "billing_hour_s must be positive");
        let mut c = Controller {
            cfg,
            slots: Vec::new(),
            next_id: 0,
            last_scale_up: None,
            last_scale_down: None,
            events: Vec::new(),
        };
        for _ in 0..c.cfg.min_workers {
            let id = c.alloc_slot(0.0, SlotState::Active);
            c.push_event(0.0, FleetEventKind::Launch, id);
        }
        c
    }

    pub fn config(&self) -> &AutoscaleConfig {
        &self.cfg
    }

    /// All slots ever launched (including retired ones), for billing.
    pub fn slots(&self) -> &[Slot] {
        &self.slots
    }

    /// The fleet audit log.
    pub fn events(&self) -> &[FleetEvent] {
        &self.events
    }

    /// Instances currently billed: launched and not yet retired.
    pub fn billed_fleet(&self) -> u32 {
        self.slots
            .iter()
            .filter(|s| s.state != SlotState::Retired)
            .count() as u32
    }

    /// Instances that count toward serving capacity (warming + active;
    /// draining workers are on their way out).
    pub fn capacity(&self) -> u32 {
        self.slots
            .iter()
            .filter(|s| matches!(s.state, SlotState::Warming | SlotState::Active))
            .count() as u32
    }

    /// One evaluation tick. `now` is seconds since job start and must be
    /// non-decreasing across calls.
    pub fn decide(&mut self, now: f64, telemetry: &Telemetry) -> Decision {
        // Promote instances that have finished warming.
        for s in &mut self.slots {
            if s.state == SlotState::Warming && now - s.launched_at >= self.cfg.warmup_s {
                s.state = SlotState::Active;
            }
        }

        let capacity = self.capacity();
        let desired = self
            .cfg
            .policy
            .desired(telemetry, capacity)
            .clamp(self.cfg.min_workers, self.cfg.max_workers);

        if desired > capacity {
            if !self.cooldown_over(self.last_scale_up, now, self.cfg.scale_up_cooldown_s) {
                return Decision::Hold;
            }
            let state = if self.cfg.warmup_s > 0.0 {
                SlotState::Warming
            } else {
                SlotState::Active
            };
            let ids: Vec<u32> = (0..desired - capacity)
                .map(|_| {
                    let id = self.alloc_slot(now, state);
                    self.push_event(now, FleetEventKind::Launch, id);
                    id
                })
                .collect();
            self.last_scale_up = Some(now);
            return Decision::Launch { ids };
        }

        if desired < capacity {
            if !self.cooldown_over(self.last_scale_down, now, self.cfg.scale_down_cooldown_s) {
                return Decision::Hold;
            }
            let ids = self.pick_victims(now, capacity - desired);
            if ids.is_empty() {
                // Billing-aware hold: nobody is near their hour boundary.
                return Decision::Hold;
            }
            for &id in &ids {
                self.slots[id as usize].state = SlotState::Draining;
                self.push_event(now, FleetEventKind::Drain, id);
            }
            self.last_scale_down = Some(now);
            return Decision::Drain { ids };
        }

        Decision::Hold
    }

    /// The runtime confirms a draining worker has finished its in-hand
    /// task and exited; billing for the slot stops here.
    pub fn confirm_retired(&mut self, id: u32, now: f64) {
        let slot = &mut self.slots[id as usize];
        assert!(
            slot.state == SlotState::Draining,
            "retiring slot {id} that was not draining (state {:?})",
            slot.state
        );
        slot.state = SlotState::Retired;
        slot.retired_at = Some(now);
        self.push_event(now, FleetEventKind::Retire, id);
    }

    /// The runtime reports that an instance *died* (chaos kill, hardware
    /// loss) rather than draining cleanly. The slot retires immediately —
    /// billing stops at the detection time — and any in-flight lease is
    /// left to the visibility-timeout machinery. Returns `false` if the
    /// slot was already retired (a duplicate detection is harmless).
    ///
    /// Unlike scale-down, a death frees the scale-*up* cooldown: replacing
    /// lost capacity is failure recovery, not load-driven oscillation, so
    /// the next [`Controller::decide`] may launch a replacement at once.
    pub fn mark_dead(&mut self, id: u32, now: f64) -> bool {
        let slot = &mut self.slots[id as usize];
        if slot.state == SlotState::Retired {
            return false;
        }
        slot.state = SlotState::Retired;
        slot.retired_at = Some(now);
        self.push_event(now, FleetEventKind::Died, id);
        self.last_scale_up = None;
        true
    }

    /// Scale-in victims, newest launch first (the slot that has used the
    /// least of its current billed hour usually has the most to waste by
    /// staying — but eligibility is what the billing window decides).
    fn pick_victims(&self, now: f64, want: u32) -> Vec<u32> {
        let mut active: Vec<&Slot> = self
            .slots
            .iter()
            .filter(|s| s.state == SlotState::Active)
            .filter(|s| {
                if !self.cfg.billing_aware {
                    return true;
                }
                let phase = s.hour_phase(now, self.cfg.billing_hour_s);
                self.cfg.billing_hour_s - phase <= self.cfg.billing_window_s
            })
            .collect();
        active.sort_by(|a, b| {
            b.launched_at
                .partial_cmp(&a.launched_at)
                .unwrap()
                .then(b.id.cmp(&a.id))
        });
        active.iter().take(want as usize).map(|s| s.id).collect()
    }

    fn cooldown_over(&self, last: Option<f64>, now: f64, cooldown_s: f64) -> bool {
        match last {
            None => true,
            Some(t) => now - t >= cooldown_s,
        }
    }

    fn alloc_slot(&mut self, now: f64, state: SlotState) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        debug_assert_eq!(id as usize, self.slots.len());
        self.slots.push(Slot {
            id,
            launched_at: now,
            retired_at: None,
            state,
        });
        id
    }

    fn push_event(&mut self, at_s: f64, kind: FleetEventKind, slot: u32) {
        let fleet_after = self.billed_fleet();
        self.events.push(FleetEvent {
            at_s,
            kind,
            slot,
            fleet_after,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::StepRule;

    fn cfg() -> AutoscaleConfig {
        AutoscaleConfig {
            policy: Policy::TargetBacklog { per_worker: 4.0 },
            min_workers: 2,
            max_workers: 8,
            interval_s: 10.0,
            scale_up_cooldown_s: 30.0,
            scale_down_cooldown_s: 60.0,
            warmup_s: 0.0,
            billing_aware: false,
            billing_window_s: 300.0,
            billing_hour_s: 3600.0,
        }
    }

    fn telem(queued: usize, in_flight: usize, age: Option<f64>) -> Telemetry {
        Telemetry {
            queued,
            in_flight,
            oldest_age_s: age,
        }
    }

    #[test]
    fn starts_at_min_fleet() {
        let c = Controller::new(cfg());
        assert_eq!(c.capacity(), 2);
        assert_eq!(c.billed_fleet(), 2);
        assert_eq!(c.events().len(), 2);
    }

    #[test]
    fn scales_up_to_meet_backlog_and_respects_max() {
        let mut c = Controller::new(cfg());
        // 100 outstanding / 4 per worker = 25, clamped to max 8.
        let d = c.decide(0.0, &telem(100, 0, Some(5.0)));
        match d {
            Decision::Launch { ids } => assert_eq!(ids.len(), 6),
            other => panic!("expected launch, got {other:?}"),
        }
        assert_eq!(c.capacity(), 8);
    }

    #[test]
    fn scale_up_cooldown_holds() {
        let mut c = Controller::new(cfg());
        assert_ne!(c.decide(0.0, &telem(12, 0, Some(1.0))), Decision::Hold);
        // Backlog still high 10 s later, but cooldown is 30 s.
        assert_eq!(c.decide(10.0, &telem(40, 0, Some(1.0))), Decision::Hold);
        assert_ne!(c.decide(30.0, &telem(40, 0, Some(1.0))), Decision::Hold);
    }

    #[test]
    fn scales_down_to_min_when_idle() {
        let mut c = Controller::new(cfg());
        c.decide(0.0, &telem(32, 0, Some(1.0))); // grow to 8
        let d = c.decide(100.0, &telem(0, 0, None));
        match d {
            Decision::Drain { ids } => assert_eq!(ids.len(), 6),
            other => panic!("expected drain, got {other:?}"),
        }
        // Draining workers no longer count toward capacity...
        assert_eq!(c.capacity(), 2);
        // ...but are billed until the runtime confirms retirement.
        assert_eq!(c.billed_fleet(), 8);
    }

    #[test]
    fn fleet_stays_within_bounds_under_random_load() {
        use ppc_core::rng::Pcg32;
        let mut rng = Pcg32::new(0xF1EE7);
        for seed in 0..30 {
            let mut c = Controller::new(cfg());
            let mut now = 0.0;
            for _ in 0..200 {
                now += 10.0;
                let queued = rng.next_below(200) as usize;
                let in_flight = rng.next_below(8) as usize;
                let age = if queued > 0 {
                    Some(rng.uniform(0.0, 600.0))
                } else {
                    None
                };
                if let Decision::Drain { ids } = c.decide(now, &telem(queued, in_flight, age)) {
                    // Runtime drains instantly in this model.
                    for id in ids {
                        c.confirm_retired(id, now);
                    }
                }
                let cap = c.capacity();
                assert!(
                    (2..=8).contains(&cap),
                    "seed {seed}: capacity {cap} out of [2, 8]"
                );
            }
        }
    }

    #[test]
    fn cooldowns_are_monotone() {
        // Consecutive scale actions in the same direction are separated by
        // at least the direction's cooldown.
        use ppc_core::rng::Pcg32;
        let mut rng = Pcg32::new(0xC00);
        let mut c = Controller::new(cfg());
        let mut ups = Vec::new();
        let mut downs = Vec::new();
        let mut now = 0.0;
        for _ in 0..500 {
            now += 5.0;
            let queued = rng.next_below(60) as usize;
            match c.decide(now, &telem(queued, 0, Some(1.0))) {
                Decision::Launch { .. } => ups.push(now),
                Decision::Drain { ids } => {
                    downs.push(now);
                    for id in ids {
                        c.confirm_retired(id, now);
                    }
                }
                Decision::Hold => {}
            }
        }
        for pair in ups.windows(2) {
            assert!(pair[1] - pair[0] >= 30.0, "up cooldown violated: {pair:?}");
        }
        for pair in downs.windows(2) {
            assert!(
                pair[1] - pair[0] >= 60.0,
                "down cooldown violated: {pair:?}"
            );
        }
        assert!(!ups.is_empty() && !downs.is_empty(), "exercise both paths");
    }

    #[test]
    fn billing_aware_waits_for_hour_boundary() {
        let mut c = Controller::new(AutoscaleConfig {
            billing_aware: true,
            billing_window_s: 300.0,
            ..cfg()
        });
        c.decide(0.0, &telem(32, 0, Some(1.0))); // grow to 8 at t=0
                                                 // Mid-hour: idle, but nobody is near their boundary -> hold.
        assert_eq!(c.decide(1800.0, &telem(0, 0, None)), Decision::Hold);
        assert_eq!(c.billed_fleet(), 8);
        // Inside the last 5 minutes of the billed hour: drain.
        match c.decide(3400.0, &telem(0, 0, None)) {
            Decision::Drain { ids } => assert_eq!(ids.len(), 6),
            other => panic!("expected drain, got {other:?}"),
        }
    }

    #[test]
    fn warming_instances_count_toward_capacity() {
        let mut c = Controller::new(AutoscaleConfig {
            warmup_s: 120.0,
            ..cfg()
        });
        c.decide(0.0, &telem(32, 0, Some(1.0))); // +6 warming
        assert_eq!(c.capacity(), 8);
        // Same backlog during warm-up: no double-launch.
        assert_eq!(c.decide(40.0, &telem(32, 0, Some(40.0))), Decision::Hold);
        // After warm-up the new slots are active.
        c.decide(120.0, &telem(32, 0, Some(1.0)));
        assert!(c
            .slots()
            .iter()
            .all(|s| s.state == SlotState::Active || s.state == SlotState::Retired));
    }

    #[test]
    fn step_policy_drives_controller() {
        let mut c = Controller::new(AutoscaleConfig {
            policy: Policy::StepOnAge {
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
            },
            ..cfg()
        });
        assert_eq!(c.decide(0.0, &telem(10, 0, Some(5.0))), Decision::Hold);
        match c.decide(100.0, &telem(10, 0, Some(90.0))) {
            Decision::Launch { ids } => assert_eq!(ids.len(), 2),
            other => panic!("expected launch, got {other:?}"),
        }
    }

    #[test]
    fn retire_requires_drain_first() {
        let mut c = Controller::new(cfg());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.confirm_retired(0, 10.0);
        }));
        assert!(result.is_err(), "retiring an active slot must panic");
    }

    #[test]
    fn events_record_fleet_trajectory() {
        let mut c = Controller::new(cfg());
        c.decide(0.0, &telem(16, 0, Some(1.0))); // 2 -> 4
        if let Decision::Drain { ids } = c.decide(100.0, &telem(0, 0, None)) {
            for id in ids {
                c.confirm_retired(id, 110.0);
            }
        }
        let sizes: Vec<u32> = c.events().iter().map(|e| e.fleet_after).collect();
        assert_eq!(sizes, vec![1, 2, 3, 4, 4, 4, 3, 2]);
        let last = c.events().last().unwrap();
        assert_eq!(last.kind, FleetEventKind::Retire);
        assert_eq!(c.billed_fleet(), 2);
    }

    #[test]
    fn dead_instance_is_retired_and_replaced_without_cooldown() {
        let mut c = Controller::new(cfg());
        // Scale to 4 under load; the scale-up cooldown (30 s) is now armed.
        c.decide(0.0, &telem(16, 0, Some(1.0)));
        assert_eq!(c.capacity(), 4);
        // Instance 1 dies 5 s later: capacity and billed fleet drop at once.
        assert!(c.mark_dead(1, 5.0));
        assert_eq!(c.capacity(), 3);
        assert_eq!(c.billed_fleet(), 3);
        assert_eq!(c.slots()[1].state, SlotState::Retired);
        assert_eq!(c.slots()[1].retired_at, Some(5.0));
        let last = c.events().last().unwrap();
        assert_eq!(last.kind, FleetEventKind::Died);
        assert_eq!(last.slot, 1);
        // Same backlog on the very next tick — still inside the scale-up
        // cooldown window, but a death waives it: replacement launches.
        match c.decide(10.0, &telem(16, 0, Some(10.0))) {
            Decision::Launch { ids } => assert_eq!(ids.len(), 1),
            other => panic!("expected replacement launch, got {other:?}"),
        }
        assert_eq!(c.capacity(), 4);
        // A duplicate detection is a harmless no-op.
        assert!(!c.mark_dead(1, 12.0));
    }

    #[test]
    fn dead_draining_instance_needs_no_retirement_confirmation() {
        let mut c = Controller::new(cfg());
        c.decide(0.0, &telem(16, 0, Some(1.0))); // grow to 4
        if let Decision::Drain { ids } = c.decide(100.0, &telem(0, 0, None)) {
            // The draining victim dies before it can exit cleanly.
            let victim = ids[0];
            assert!(c.mark_dead(victim, 101.0));
            assert_eq!(c.slots()[victim as usize].state, SlotState::Retired);
        } else {
            panic!("expected a drain decision");
        }
    }

    #[test]
    fn deterministic_decision_sequence() {
        let drive = || {
            let mut c = Controller::new(cfg());
            let mut log = Vec::new();
            for i in 0..50u64 {
                let t = i as f64 * 10.0;
                let queued = ((i * 37) % 50) as usize;
                let d = c.decide(t, &telem(queued, 2, Some(1.0 + i as f64)));
                if let Decision::Drain { ids } = &d {
                    for &id in ids {
                        c.confirm_retired(id, t);
                    }
                }
                log.push(format!("{d:?}"));
            }
            log
        };
        assert_eq!(drive(), drive());
    }
}
