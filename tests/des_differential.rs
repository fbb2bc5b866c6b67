//! Differential harness for the event core.
//!
//! The engine's binary heap is checked against a test-local reference
//! model — a `Vec` kept sorted by `(at, seq)` — at two layers, and the
//! fixed-delay lane against the closures it replaces:
//!
//! 1. **Raw queue traces** — randomized push/pop interleavings drained
//!    through the bare [`EventQueue`] trait pop what the sorted model pops.
//! 2. **Engine traces** — randomized schedule/cancel/reschedule programs
//!    replayed through [`Engine`] fire the same events at the same
//!    virtual times in the same order, with the same counters, as the
//!    model's replay; ticks routed through the engine's fixed-delay
//!    lane are indistinguishable from the self-re-arming closures they
//!    replace; and a typed engine fires the same programs in the same
//!    `(at, seq)` order as the closure engine.
//! 3. **Whole-platform sims** — each paradigm simulator's full report
//!    JSON, under the hostile chaos schedule and hedging policy CI sweeps
//!    elsewhere, matches a digest generated while the timing wheel and
//!    the calendar queue still existed, for every CI chaos seed.

use ppc::chaos::FaultSchedule;
use ppc::compute::cluster::Cluster;
use ppc::compute::instance::{BARE_CAP3, EC2_HCXL};
use ppc::core::rng::Pcg32;
use ppc::core::task::{ResourceProfile, TaskSpec};
use ppc::des::queue::EventEntry;
use ppc::des::{Engine, EventId, Fired, QueueKind, SimTime};
use ppc::exec::RunContext;
use ppc::resilience::{HedgeConfig, ResiliencePolicy};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// The reference model: pending keys in a `Vec` kept sorted by
/// `(at, seq)`, each carrying a payload.
struct SortedModel<T> {
    keys: Vec<((u64, u64), T)>,
}

impl<T> SortedModel<T> {
    fn new() -> Self {
        SortedModel { keys: Vec::new() }
    }

    fn insert(&mut self, at: u64, seq: u64, payload: T) {
        let i = self.keys.partition_point(|(k, _)| *k < (at, seq));
        self.keys.insert(i, ((at, seq), payload));
    }

    fn pop(&mut self) -> Option<((u64, u64), T)> {
        (!self.keys.is_empty()).then(|| self.keys.remove(0))
    }

    fn remove(&mut self, seq: u64) -> Option<((u64, u64), T)> {
        let i = self.keys.iter().position(|((_, s), _)| *s == seq)?;
        Some(self.keys.remove(i))
    }
}

// ---------------------------------------------------------------------
// Layer 1: raw EventQueue traces.
// ---------------------------------------------------------------------

/// Random interleavings of pushes (at or after the last popped time) and
/// pops drain the queue exactly as they drain the sorted model.
#[test]
fn raw_queues_agree_on_random_traces() {
    for seed in 0..48u64 {
        let mut rng = Pcg32::new(0xD1FF ^ (seed << 8));
        // One trace: Some(entry) = push, None = pop; and the model's pops.
        let mut trace: Vec<Option<EventEntry>> = Vec::new();
        let mut want: Vec<EventEntry> = Vec::new();
        let mut model: SortedModel<EventEntry> = SortedModel::new();
        let mut now = 0u64;
        let mut seq = 0u64;
        for _ in 0..400 {
            if !model.keys.is_empty() && rng.next_below(3) == 0 {
                let (_, e) = model.pop().expect("checked non-empty");
                now = e.at.as_micros();
                want.push(e);
                trace.push(None);
            } else {
                // Mix dense near-term timers with rare far horizons.
                let delta = match rng.next_below(10) {
                    0 => rng.next_below(1_000_000_000) as u64 * 4096,
                    1..=3 => 0,
                    _ => rng.next_below(5_000) as u64,
                };
                let e = EventEntry {
                    at: SimTime::from_micros(now + delta),
                    seq,
                    idx: seq as u32,
                };
                seq += 1;
                model.insert(now + delta, e.seq, e);
                trace.push(Some(e));
            }
        }
        while let Some((_, e)) = model.pop() {
            want.push(e);
        }

        let mut q = QueueKind::BinaryHeap.boxed();
        let mut popped = Vec::new();
        for op in &trace {
            match op {
                Some(e) => q.push(*e),
                None => popped.push(q.pop().expect("model says non-empty")),
            }
        }
        while let Some(e) = q.pop() {
            popped.push(e);
        }
        assert!(q.is_empty());
        assert_eq!(popped, want, "queue vs sorted model, seed {seed}");
    }
}

// ---------------------------------------------------------------------
// Layer 2: Engine traces with cancellation and rescheduling.
// ---------------------------------------------------------------------

/// One step of a pre-generated engine program. Handle slots index into
/// the replayer's handle table so the *same* program is replayable on the
/// engine and on the reference model.
#[derive(Clone, Copy)]
enum Op {
    Schedule { at_us: u64, token: u32 },
    Cancel { pick: usize },
    Reschedule { pick: usize, at_us: u64 },
    Step,
}

/// What a replay observed: the fire log plus the engine's final counters.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    fired: Vec<(u64, u32)>, // (micros, token)
    final_now_us: u64,
    events_fired: u64,
    events_cancelled: u64,
    pending: usize,
}

fn replay_program(ops: &[Op]) -> Observed {
    let mut engine = Engine::new();
    let log: Rc<RefCell<Vec<(u64, u32)>>> = Rc::new(RefCell::new(Vec::new()));
    let mut handles: Vec<EventId> = Vec::new();
    for op in ops {
        match *op {
            Op::Schedule { at_us, token } => {
                let l = log.clone();
                handles.push(engine.schedule_at(SimTime::from_micros(at_us), move |e| {
                    l.borrow_mut().push((e.now().as_micros(), token));
                }));
            }
            Op::Cancel { pick } => {
                if !handles.is_empty() {
                    engine.cancel(handles[pick % handles.len()]);
                }
            }
            Op::Reschedule { pick, at_us } => {
                if !handles.is_empty() {
                    let i = pick % handles.len();
                    if let Some(id) = engine.reschedule_at(handles[i], SimTime::from_micros(at_us))
                    {
                        handles[i] = id;
                    }
                }
            }
            Op::Step => {
                engine.step();
            }
        }
    }
    engine.run();
    let fired = log.borrow().clone();
    Observed {
        fired,
        final_now_us: engine.now().as_micros(),
        events_fired: engine.events_fired(),
        events_cancelled: engine.events_cancelled(),
        pending: engine.pending(),
    }
}

/// Fire the model's earliest event, if any.
fn fire_model(
    model: &mut SortedModel<(u32, usize)>,
    handles: &mut [Option<u64>],
    now: &mut u64,
    obs: &mut Observed,
) {
    let Some(((at, _), (token, slot))) = model.pop() else {
        return;
    };
    handles[slot] = None;
    *now = at;
    obs.fired.push((at, token));
    obs.events_fired += 1;
}

/// The same program on the reference model: the engine's documented
/// semantics (times clamp to now; a reschedule takes a fresh sequence
/// number; handles go stale once their event fires, is cancelled or is
/// rescheduled) over a [`SortedModel`] of `(token, handle slot)` payloads.
fn replay_model(ops: &[Op]) -> Observed {
    let mut model: SortedModel<(u32, usize)> = SortedModel::new();
    // Per handle slot: the sequence number of its live event, if any.
    let mut handles: Vec<Option<u64>> = Vec::new();
    let (mut now, mut seq) = (0u64, 0u64);
    let mut obs = Observed {
        fired: Vec::new(),
        final_now_us: 0,
        events_fired: 0,
        events_cancelled: 0,
        pending: 0,
    };
    for op in ops {
        match *op {
            Op::Schedule { at_us, token } => {
                model.insert(at_us.max(now), seq, (token, handles.len()));
                handles.push(Some(seq));
                seq += 1;
            }
            Op::Cancel { pick } => {
                if !handles.is_empty() {
                    let slot = pick % handles.len();
                    if let Some(live) = handles[slot].take() {
                        model.remove(live).expect("live handle has a key");
                        obs.events_cancelled += 1;
                    }
                }
            }
            Op::Reschedule { pick, at_us } => {
                if !handles.is_empty() {
                    let slot = pick % handles.len();
                    if let Some(live) = handles[slot] {
                        let (_, payload) = model.remove(live).expect("live handle has a key");
                        model.insert(at_us.max(now), seq, payload);
                        handles[slot] = Some(seq);
                        seq += 1;
                    }
                }
            }
            Op::Step => fire_model(&mut model, &mut handles, &mut now, &mut obs),
        }
    }
    while !model.keys.is_empty() {
        fire_model(&mut model, &mut handles, &mut now, &mut obs);
    }
    obs.final_now_us = now;
    obs
}

/// Randomized schedule/cancel/reschedule programs observe the same fire
/// log, virtual clock, and counters on the engine as on the model.
#[test]
fn engines_agree_on_random_programs() {
    for seed in 0..48u64 {
        let mut rng = Pcg32::new(0xE9612E ^ (seed << 4));
        let n_ops = 60 + rng.next_below(240) as usize;
        let mut token = 0u32;
        let ops: Vec<Op> = (0..n_ops)
            .map(|_| match rng.next_below(8) {
                0..=3 => {
                    token += 1;
                    Op::Schedule {
                        // Cluster times so cancels race real schedules and
                        // equal timestamps are common.
                        at_us: rng.next_below(20_000) as u64,
                        token,
                    }
                }
                4 => Op::Cancel {
                    pick: rng.next_below(1 << 16) as usize,
                },
                5 => Op::Reschedule {
                    pick: rng.next_below(1 << 16) as usize,
                    at_us: rng.next_below(40_000) as u64,
                },
                _ => Op::Step,
            })
            .collect();
        let want = replay_model(&ops);
        assert!(!want.fired.is_empty());
        assert_eq!(replay_program(&ops), want, "engine vs model, seed {seed}");
    }
}

// ---------------------------------------------------------------------
// Layer 2b: the fixed-delay lane against the closures it replaces.
// ---------------------------------------------------------------------

/// One step of a lane program. `Push` goes through the lane in one replay
/// and through `schedule_in(delay, closure)` in the other.
#[derive(Clone, Copy)]
enum LaneOp {
    Schedule { at_us: u64, token: u32 },
    Push { token: u32 },
    Horizon { at_us: u64 },
    Cancel { pick: usize },
    Step,
    RunUntil { at_us: u64 },
    Peek,
}

/// State both replays share with their tick handlers.
struct LaneWorld {
    delay: SimTime,
    log: RefCell<Vec<(u64, u32)>>,
    horizon: std::cell::Cell<SimTime>,
}

/// A tick's handler, identical in both replays: log it, and, as a pure
/// function of token and time, schedule a closure event, move the quiet
/// horizon, and re-push. Returns (re-push, new horizon).
fn lane_tick_body(e: &mut Engine, w: &Rc<LaneWorld>, token: u32) -> (bool, Option<SimTime>) {
    let now = e.now().as_micros();
    w.log.borrow_mut().push((now, token));
    // SplitMix64's finalizer over (time, token): every low bit depends on
    // both, so each token's re-push chain ends after a few ticks.
    let mut h = now ^ u64::from(token) << 32;
    h = (h ^ h >> 30).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ h >> 27).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 31;
    if h.is_multiple_of(5) {
        let w2 = w.clone();
        let at = e.now() + SimTime(h % 3 * (w.delay.as_micros() / 2));
        e.schedule_at(at, move |e| {
            w2.log
                .borrow_mut()
                .push((e.now().as_micros(), token | 1 << 31))
        });
    }
    let horizon = h
        .is_multiple_of(7)
        .then(|| e.now() + SimTime(h % 40 * w.delay.as_micros()));
    (!h.is_multiple_of(4), horizon)
}

/// The reference tick: a boxed closure that re-arms itself while quiet.
fn closure_tick(e: &mut Engine, w: Rc<LaneWorld>, token: u32) {
    if e.now() < w.horizon.get() {
        e.schedule_in(w.delay, move |e| closure_tick(e, w, token));
        return;
    }
    let (again, horizon) = lane_tick_body(e, &w, token);
    if let Some(h) = horizon {
        w.horizon.set(h);
    }
    if again {
        e.schedule_in(w.delay, move |e| closure_tick(e, w, token));
    }
}

/// Everything a lane replay observed.
#[derive(Debug, PartialEq, Eq)]
struct LaneObserved {
    log: Vec<(u64, u32)>,
    /// `(peek_time, pending, events_fired, now)` at every `Peek` and after
    /// every `RunUntil`.
    probes: Vec<(Option<u64>, usize, u64, u64)>,
    final_now_us: u64,
    events_fired: u64,
    events_cancelled: u64,
}

fn replay_lane_program(delay_us: u64, ops: &[LaneOp], lane: bool) -> LaneObserved {
    let w = Rc::new(LaneWorld {
        delay: SimTime(delay_us),
        log: RefCell::new(Vec::new()),
        horizon: std::cell::Cell::new(SimTime::ZERO),
    });
    let mut engine = Engine::new();
    if lane {
        let w = w.clone();
        engine.set_lane(SimTime(delay_us), move |e, token| {
            let (again, horizon) = lane_tick_body(e, &w, token);
            if let Some(h) = horizon {
                w.horizon.set(h);
                e.set_quiet_horizon(h);
            }
            if again {
                e.lane_push(token);
            }
        });
    }
    let mut handles: Vec<EventId> = Vec::new();
    let mut probes = Vec::new();
    for op in ops {
        match *op {
            LaneOp::Schedule { at_us, token } => {
                let w = w.clone();
                handles.push(engine.schedule_at(SimTime(at_us), move |e| {
                    w.log.borrow_mut().push((e.now().as_micros(), token))
                }));
            }
            LaneOp::Push { token } if lane => engine.lane_push(token),
            LaneOp::Push { token } => {
                let w = w.clone();
                engine.schedule_in(SimTime(delay_us), move |e| closure_tick(e, w, token));
            }
            LaneOp::Horizon { at_us } => {
                w.horizon.set(SimTime(at_us));
                if lane {
                    engine.set_quiet_horizon(SimTime(at_us));
                }
            }
            LaneOp::Cancel { pick } => {
                if !handles.is_empty() {
                    engine.cancel(handles[pick % handles.len()]);
                }
            }
            LaneOp::Step => {
                engine.step();
            }
            LaneOp::RunUntil { at_us } => {
                engine.run_until(SimTime(at_us));
            }
            LaneOp::Peek => {}
        }
        if matches!(op, LaneOp::Peek | LaneOp::RunUntil { .. }) {
            probes.push((
                engine.peek_time().map(SimTime::as_micros),
                engine.pending(),
                engine.events_fired(),
                engine.now().as_micros(),
            ));
        }
    }
    let end = engine.run();
    assert_eq!(engine.pending(), 0);
    let log = w.log.borrow().clone();
    LaneObserved {
        log,
        probes,
        final_now_us: end.as_micros(),
        events_fired: engine.events_fired(),
        events_cancelled: engine.events_cancelled(),
    }
}

/// Random programs mixing closure events, lane pushes, quiet horizons,
/// cancels, single steps and `run_until` checkpoints observe the same
/// fire log, clock, counters, `peek_time` and `pending` whether the ticks
/// ride the lane (with whole-round quiet advances) or are boxed closures
/// re-arming themselves.
#[test]
fn lane_matches_closure_ticks_on_random_programs() {
    for seed in 0..64u64 {
        let mut rng = Pcg32::new(0x1A7E ^ (seed << 6));
        let delay_us = 1 + rng.next_below(2_000) as u64;
        // A grid of half-delays, so ticks, closures and horizons tie often.
        let grid = |rng: &mut Pcg32, n: u32| rng.next_below(n) as u64 * delay_us.div_ceil(2);
        let mut now_hint = 0u64;
        let mut token = 0u32;
        let ops: Vec<LaneOp> = (0..60 + rng.next_below(200))
            .map(|_| match rng.next_below(10) {
                0 | 1 => {
                    token += 1;
                    LaneOp::Schedule {
                        at_us: now_hint + grid(&mut rng, 60),
                        token,
                    }
                }
                2 | 3 => {
                    token += 1;
                    LaneOp::Push { token }
                }
                4 => LaneOp::Horizon {
                    at_us: now_hint + grid(&mut rng, 120),
                },
                5 => LaneOp::Cancel {
                    pick: rng.next_below(1 << 16) as usize,
                },
                6 | 7 => LaneOp::Step,
                8 => {
                    now_hint += grid(&mut rng, 30);
                    LaneOp::RunUntil { at_us: now_hint }
                }
                _ => LaneOp::Peek,
            })
            .collect();
        let want = replay_lane_program(delay_us, &ops, false);
        assert!(!want.log.is_empty());
        assert_eq!(
            replay_lane_program(delay_us, &ops, true),
            want,
            "lane vs closures, seed {seed}"
        );
    }
}

// ---------------------------------------------------------------------
// Layer 2c: typed events against boxed closures.
// ---------------------------------------------------------------------

/// One step of a program run on both engine instantiations.
#[derive(Clone, Copy)]
enum TypedOp {
    Schedule { at_us: u64, token: u32 },
    Cancel { pick: usize },
    Reschedule { pick: usize, at_us: u64 },
    Push { token: u32 },
    Horizon { at_us: u64 },
    Step,
    RunUntil { at_us: u64 },
}

/// Lane ticks are logged with this bit set.
const TICK: u32 = 1 << 31;

/// What a fired event or lane tick does, as a pure function of time and
/// token: maybe post a follow-up event `(delay, token)`, and whether a
/// tick re-pushes its token.
fn reaction(now_us: u64, token: u32) -> (Option<(u64, u32)>, bool) {
    let mut h = now_us ^ u64::from(token) << 32;
    h = (h ^ h >> 30).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ h >> 27).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 31;
    let follow = h
        .is_multiple_of(3)
        .then(|| (h % 4_000, (token & !TICK).wrapping_add(1 << 20)));
    (follow, !h.is_multiple_of(4))
}

/// A closure event: log, then maybe post its follow-up.
fn closure_event(e: &mut Engine, log: Rc<RefCell<Vec<(u64, u32)>>>, token: u32) {
    let now = e.now().as_micros();
    log.borrow_mut().push((now, token));
    if let (Some((delay, next)), _) = reaction(now, token) {
        e.schedule_in(SimTime(delay), move |e| closure_event(e, log, next));
    }
}

/// The typed engine's handler: the same reactions as the closure events
/// and the closure engine's lane handler.
fn typed_handler(e: &mut Engine<u32>, fired: Fired<u32>, log: &mut Vec<(u64, u32)>) {
    let now = e.now().as_micros();
    match fired {
        Fired::Event(token) => {
            log.push((now, token));
            if let (Some((delay, next)), _) = reaction(now, token) {
                e.post_in(SimTime(delay), next);
            }
        }
        Fired::Tick(token) => {
            log.push((now, token | TICK));
            let (follow, again) = reaction(now, token | TICK);
            if let Some((delay, next)) = follow {
                e.post_in(SimTime(delay), next);
            }
            if again {
                e.lane_push(token);
            }
        }
    }
}

/// `(peek_time, pending, events_fired, now)` of an engine.
fn probe<E>(e: &mut Engine<E>) -> (Option<u64>, usize, u64, u64) {
    (
        e.peek_time().map(SimTime::as_micros),
        e.pending(),
        e.events_fired(),
        e.now().as_micros(),
    )
}

/// Run `ops` on the closure engine (`typed == false`) or on
/// `Engine<u32>`: the fire log, a probe after every `Step` and
/// `RunUntil`, and the final probe and cancel count.
fn replay_typed_program(delay_us: u64, ops: &[TypedOp], typed: bool) -> LaneObserved {
    let log: Rc<RefCell<Vec<(u64, u32)>>> = Rc::default();
    let mut closures = Engine::new();
    let mut events: Engine<u32> = Engine::typed();
    if typed {
        events.set_lane_delay(SimTime(delay_us));
    } else {
        let log = log.clone();
        closures.set_lane(SimTime(delay_us), move |e, token| {
            let now = e.now().as_micros();
            log.borrow_mut().push((now, token | TICK));
            let (follow, again) = reaction(now, token | TICK);
            if let Some((delay, next)) = follow {
                let log = log.clone();
                e.schedule_in(SimTime(delay), move |e| closure_event(e, log, next));
            }
            if again {
                e.lane_push(token);
            }
        });
    }
    let mut handles: Vec<EventId> = Vec::new();
    let mut probes = Vec::new();
    for op in ops {
        match *op {
            TypedOp::Schedule { at_us, token } => handles.push(if typed {
                events.post_at(SimTime(at_us), token)
            } else {
                let log = log.clone();
                closures.schedule_at(SimTime(at_us), move |e| closure_event(e, log, token))
            }),
            TypedOp::Cancel { pick } => {
                if !handles.is_empty() {
                    let id = handles[pick % handles.len()];
                    if typed {
                        events.cancel(id);
                    } else {
                        closures.cancel(id);
                    }
                }
            }
            TypedOp::Reschedule { pick, at_us } => {
                if !handles.is_empty() {
                    let i = pick % handles.len();
                    let moved = if typed {
                        events.reschedule_at(handles[i], SimTime(at_us))
                    } else {
                        closures.reschedule_at(handles[i], SimTime(at_us))
                    };
                    if let Some(id) = moved {
                        handles[i] = id;
                    }
                }
            }
            TypedOp::Push { token } if typed => events.lane_push(token),
            TypedOp::Push { token } => closures.lane_push(token),
            TypedOp::Horizon { at_us } if typed => events.set_quiet_horizon(SimTime(at_us)),
            TypedOp::Horizon { at_us } => closures.set_quiet_horizon(SimTime(at_us)),
            TypedOp::Step if typed => {
                let mut log = log.borrow_mut();
                events.step_with(|e, fired| typed_handler(e, fired, &mut log));
            }
            TypedOp::Step => {
                closures.step();
            }
            TypedOp::RunUntil { at_us } if typed => {
                let mut log = log.borrow_mut();
                events.run_until_with(SimTime(at_us), |e, fired| typed_handler(e, fired, &mut log));
            }
            TypedOp::RunUntil { at_us } => {
                closures.run_until(SimTime(at_us));
            }
        }
        if matches!(op, TypedOp::Step | TypedOp::RunUntil { .. }) {
            probes.push(if typed {
                probe(&mut events)
            } else {
                probe(&mut closures)
            });
        }
    }
    let (end, cancelled) = if typed {
        let mut log = log.borrow_mut();
        let end = events.run_with(|e, fired| typed_handler(e, fired, &mut log));
        (end, events.events_cancelled())
    } else {
        (closures.run(), closures.events_cancelled())
    };
    let (_, pending, events_fired, _) = if typed {
        probe(&mut events)
    } else {
        probe(&mut closures)
    };
    assert_eq!(pending, 0);
    let log = log.borrow().clone();
    LaneObserved {
        log,
        probes,
        final_now_us: end.as_micros(),
        events_fired,
        events_cancelled: cancelled,
    }
}

/// Random programs of schedules, cancels, reschedules, lane pushes, quiet
/// horizons, single steps and `run_until` checkpoints, whose events and
/// ticks post follow-ups and re-push, fire in the same `(at, seq)` order
/// on `Engine<u32>` as on the closure engine: the same fire log, clock,
/// counters, `peek_time` and `pending`.
#[test]
fn typed_engine_matches_closure_engine_on_random_programs() {
    for seed in 0..64u64 {
        let mut rng = Pcg32::new(0x7E9ED ^ (seed << 6));
        let delay_us = 1 + rng.next_below(2_000) as u64;
        // A grid of half-delays, so ticks, events and horizons tie often.
        let grid = |rng: &mut Pcg32, n: u32| rng.next_below(n) as u64 * delay_us.div_ceil(2);
        let mut now_hint = 0u64;
        let mut token = 0u32;
        let ops: Vec<TypedOp> = (0..60 + rng.next_below(200))
            .map(|_| match rng.next_below(11) {
                0 | 1 => {
                    token += 1;
                    TypedOp::Schedule {
                        at_us: now_hint + grid(&mut rng, 60),
                        token,
                    }
                }
                2 => TypedOp::Cancel {
                    pick: rng.next_below(1 << 16) as usize,
                },
                3 => TypedOp::Reschedule {
                    pick: rng.next_below(1 << 16) as usize,
                    at_us: now_hint + grid(&mut rng, 60),
                },
                4 | 5 => {
                    token += 1;
                    TypedOp::Push { token }
                }
                6 => TypedOp::Horizon {
                    at_us: now_hint + grid(&mut rng, 120),
                },
                7 | 8 => TypedOp::Step,
                _ => {
                    now_hint += grid(&mut rng, 30);
                    TypedOp::RunUntil { at_us: now_hint }
                }
            })
            .collect();
        let want = replay_typed_program(delay_us, &ops, false);
        assert!(want.log.iter().any(|&(_, t)| t & TICK != 0));
        assert_eq!(
            replay_typed_program(delay_us, &ops, true),
            want,
            "typed vs closures, seed {seed}"
        );
    }
}

// ---------------------------------------------------------------------
// Layer 3: whole-platform simulations, bit-identical reports.
// ---------------------------------------------------------------------

/// The CI chaos seeds; every case below is pinned for all of them.
const CHAOS_SEEDS: [u64; 3] = [4242, 1, 987_654_321];

/// FNV-1a over a string, 64-bit.
fn fnv64(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn sim_tasks(n: u64) -> Vec<TaskSpec> {
    (0..n)
        .map(|i| {
            let mut p = ResourceProfile::cpu_bound(10.0 + (i % 7) as f64);
            p.input_bytes = 200 << 10;
            p.output_bytes = 100 << 10;
            TaskSpec::new(i, "cap3", format!("f{i}"), p)
        })
        .collect()
}

/// A hostile chaos schedule plus hedging, so the sims exercise timer
/// cancellation (the Classic sim cancels and re-arms its one hedge timer
/// whenever the ledger's earliest hedge time moves) on top of the usual
/// churn.
fn hostile_ctx(cluster: &Cluster, seed: u64) -> RunContext {
    RunContext::new(cluster)
        .with_schedule(Arc::new(FaultSchedule::hostile(seed)))
        .with_resilience(ResiliencePolicy::hedged(HedgeConfig::quantile(20.0)))
}

/// Checks `report_json(seed)`'s digest against `golden` on every chaos
/// seed. The digests were generated when the timing wheel (the default)
/// and the calendar queue still existed, and were identical on all three
/// backends, so a match means the heap reproduces their reports.
fn assert_golden_digest(name: &str, golden: [u64; 3], report_json: impl Fn(u64) -> String) {
    for (seed, want) in CHAOS_SEEDS.into_iter().zip(golden) {
        let got = fnv64(&report_json(seed));
        assert_eq!(
            got, want,
            "{name} sim report moved on seed {seed}: digest now 0x{got:016x}"
        );
    }
}

/// The Classic Cloud simulator's full report under chaos + hedging is the
/// one every removed backend produced.
#[test]
fn classic_sim_matches_golden_digest() {
    let tasks = sim_tasks(64);
    let cluster = Cluster::provision(EC2_HCXL, 4, 8);
    let cfg = ppc::classic::SimConfig::ec2().with_failures(0.0, 60.0);
    assert_golden_digest(
        "classic",
        [0x599810e06fc905a3, 0xddf28330a0472277, 0x0de56b2f38cd70f7],
        |seed| {
            ppc::classic::simulate(&hostile_ctx(&cluster, seed), &tasks, &cfg)
                .to_json()
                .to_string()
        },
    );
}

/// The elastic (autoscaled) Classic path is pinned the same way. Its
/// digests were regenerated when every Classic plan began sending its
/// t = 0 batch in the client's seeded shuffle.
#[test]
fn classic_elastic_sim_matches_golden_digest() {
    use ppc::autoscale::{AutoscaleConfig, Policy};
    let tasks = sim_tasks(48);
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
    let cfg = ppc::classic::SimConfig::ec2();
    assert_golden_digest(
        "classic elastic",
        [0x2be4deac5c729288, 0xf32c825f84d2a6d1, 0x630416796e5f63a8],
        |seed| {
            let ctx = RunContext::elastic(EC2_HCXL, autoscale.clone(), Vec::new())
                .with_schedule(Arc::new(FaultSchedule::hostile(seed)));
            ppc::classic::simulate(&ctx, &tasks, &cfg)
                .to_json()
                .to_string()
        },
    );
}

/// The MapReduce simulator's full report under chaos + hedged speculation
/// is the one every removed backend produced.
#[test]
fn mapreduce_sim_matches_golden_digest() {
    let tasks = sim_tasks(64);
    let cluster = Cluster::provision(BARE_CAP3, 4, 8);
    let cfg = ppc::mapreduce::HadoopSimConfig::default();
    assert_golden_digest(
        "mapreduce",
        [0x4bfc116f754b2b70, 0xeae971959e0274b3, 0x846f1592a021003b],
        |seed| {
            ppc::mapreduce::simulate(&hostile_ctx(&cluster, seed), &tasks, &cfg)
                .to_json()
                .to_string()
        },
    );
}

/// The Dryad simulator's full report under chaos + hedging. The digests
/// were regenerated when the Dryad sim moved onto the typed event core and
/// native Dryad's book: a backup waits for its node's list to empty, every
/// event fires in time order, and a winning commit kills its rivals.
#[test]
fn dryad_sim_matches_golden_digest() {
    let tasks = sim_tasks(64);
    let cluster = Cluster::provision(BARE_CAP3, 4, 8);
    let cfg = ppc::dryad::DryadSimConfig::default();
    assert_golden_digest(
        "dryad",
        [0x71e6e18756d11b0b, 0xa8fc61c93ff05b79, 0x377ce0b815d5da14],
        |seed| {
            ppc::dryad::simulate(&hostile_ctx(&cluster, seed), &tasks, &cfg)
                .to_json()
                .to_string()
        },
    );
}
