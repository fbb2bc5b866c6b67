//! The event core.
//!
//! An [`Engine`] owns a slab of pending events and a binary heap of
//! `(time, sequence, slot)` keys. Running it pops the earliest key and
//! fires its event; firing may schedule further events. Two events at the
//! same instant fire in the order they were scheduled (the `sequence`
//! tie-break) — an explicit contract which, together with the
//! deterministic PRNGs in `ppc-core::rng`, makes whole platform
//! simulations reproducible bit for bit.
//!
//! **Typed events.** `Engine<E>` stores a sim-owned event payload `E`
//! inline in its slab: [`Engine::post_at`] schedules one, and
//! [`Engine::run_with`] hands each fired payload to a handler the sim
//! passes in, which may borrow the sim's state directly. The default
//! instantiation, plain `Engine`, stores boxed closures ([`ClosureEvent`])
//! and fires them itself: [`Engine::schedule_at`] and [`Engine::run`]. The
//! MapReduce sim runs on `Engine<u32>` (its event is a worker slot); the
//! Classic and serve sims run on closures.
//!
//! Scheduling returns a stable [`EventId`]: a generation-checked handle
//! that supports O(1) [`Engine::cancel`] (the slab slot is freed
//! immediately and the stale queue key is skipped when it surfaces — no
//! scans, no heap rebuilds) and [`Engine::reschedule_at`]. This is what
//! lets `ppc-resilience` deadline/hedge timer churn cost one slab write
//! instead of a queue restructure.
//!
//! Beside the queue sits one **fixed-delay lane** ([`Engine::set_lane`],
//! [`Engine::set_lane_delay`]): a FIFO of `(at, seq, token)` ticks, each
//! scheduled the same constant delay after the moment it was pushed, so
//! FIFO order *is* `(at, seq)` order and the lane needs no priority queue.
//! Ticks draw `seq` from the engine's one counter and the engine fires
//! whichever of the lane head and the queue head is smaller, so a tick is
//! keyed, ordered and counted exactly like the `schedule_in(delay, ..)`
//! closure it replaces. The lane's owner may declare a **quiet horizon**
//! ([`Engine::set_quiet_horizon`]): ticks strictly before it are no-ops
//! the engine re-arms itself (one `seq`, one push, no handler call), and
//! running advances whole rounds of such ticks at once. This is what
//! makes the MapReduce sim's idle-slot polls cost O(1) per scheduling
//! decision.

use crate::queue::{EventEntry, QueueKind};
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// A boxed `FnOnce` event: the payload of the default instantiation,
/// [`Engine`], which fires it by calling it.
pub struct ClosureEvent(Box<dyn FnOnce(&mut Engine)>);

type LaneFn = Box<dyn FnMut(&mut Engine, u32)>;

/// What fired, as [`Engine::run_with`] and [`Engine::step_with`] hand it
/// to their handler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fired<E> {
    /// A scheduled event's payload.
    Event(E),
    /// A lane tick's token.
    Tick(u32),
}

/// One pending lane tick: fires `token` at `at`, ordered by `seq`.
#[derive(Clone, Copy)]
struct LaneTick {
    at: SimTime,
    seq: u64,
    token: u32,
}

/// The fixed-delay lane: ticks in `(at, seq)` order, the delay they were
/// all scheduled with, and the quiet horizon.
struct Lane {
    delay: SimTime,
    ticks: VecDeque<LaneTick>,
    quiet_until: SimTime,
}

/// A stable handle to a scheduled (not yet fired) event.
///
/// Generation-checked: once the event fires, is cancelled, or is
/// rescheduled, the handle goes stale and every operation on it returns
/// `false`/`None` — handles never dangle into a recycled slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId {
    idx: u32,
    gen: u32,
}

/// One slab slot. `seq` identifies the current occupant (sequence numbers
/// are globally unique), so queue keys carrying an older `seq` are
/// recognized as stale tombstones; `gen` does the same for [`EventId`]s.
struct Slot<E> {
    gen: u32,
    seq: u64,
    event: Option<E>,
}

/// Single-threaded discrete-event engine over a binary-heap event queue,
/// generic over its event payload `E` (boxed closures by default).
pub struct Engine<E = ClosureEvent> {
    now: SimTime,
    seq: u64,
    fired: u64,
    cancelled: u64,
    /// Live (scheduled, not yet fired or cancelled) events.
    live: usize,
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    queue: BinaryHeap<Reverse<EventEntry>>,
    lane: Lane,
    /// The closure engine's lane handler, taken out while it runs. A typed
    /// engine hands lane ticks to its run handler instead.
    lane_handler: Option<LaneFn>,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

/// The closure engine: events are `FnOnce(&mut Engine)` closures.
impl Engine {
    /// An empty engine. Panics if `PPC_DES_QUEUE` asks for a removed
    /// backend ([`QueueKind::from_env`]).
    pub fn new() -> Engine {
        Engine::typed()
    }

    /// An empty engine on `kind`, which can only be the binary heap.
    pub fn with_queue(_kind: QueueKind) -> Engine {
        Engine::empty()
    }

    /// Schedule `f` to fire at absolute time `at` (clamped to `now`).
    /// The returned handle can be ignored, [`cancel`](Engine::cancel)led,
    /// or [`reschedule_at`](Engine::reschedule_at)d.
    pub fn schedule_at(&mut self, at: SimTime, f: impl FnOnce(&mut Engine) + 'static) -> EventId {
        self.post_at(at, ClosureEvent(Box::new(f)))
    }

    /// Schedule `f` to fire `delay` after now.
    pub fn schedule_in(
        &mut self,
        delay: SimTime,
        f: impl FnOnce(&mut Engine) + 'static,
    ) -> EventId {
        self.schedule_at(self.now + delay, f)
    }

    /// Install the fixed-delay lane: every [`lane_push`](Engine::lane_push)
    /// fires `handler(engine, token)` `delay` after the push, keyed and
    /// ordered exactly like `schedule_in(delay, ..)`. Panics if `delay` is
    /// zero or lane ticks are still pending.
    pub fn set_lane(&mut self, delay: SimTime, handler: impl FnMut(&mut Engine, u32) + 'static) {
        self.set_lane_delay(delay);
        self.lane_handler = Some(Box::new(handler));
    }

    /// Fire a single event if one is pending; returns whether one fired.
    /// A quiet lane tick counts as one event.
    pub fn step(&mut self) -> bool {
        self.step_with(Engine::fire_closure)
    }

    /// Run until the calendar drains; returns the final simulated time.
    pub fn run(&mut self) -> SimTime {
        self.run_with(Engine::fire_closure)
    }

    /// Run until the calendar drains or the clock passes `deadline`,
    /// whichever comes first. Events scheduled after the deadline remain
    /// pending.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        self.run_until_with(deadline, Engine::fire_closure)
    }

    fn fire_closure(&mut self, fired: Fired<ClosureEvent>) {
        match fired {
            Fired::Event(ClosureEvent(f)) => f(self),
            Fired::Tick(token) => {
                let mut handler = self
                    .lane_handler
                    .take()
                    .expect("lane tick fired with no lane handler installed");
                handler(self, token);
                self.lane_handler.get_or_insert(handler);
            }
        }
    }
}

impl<E> Engine<E> {
    /// An empty typed engine; its events are `E` values, fired through
    /// [`Engine::run_with`]. Panics like [`Engine::new`].
    pub fn typed() -> Engine<E> {
        // Only checks the variable: the heap is the one queue.
        QueueKind::from_env();
        Engine::empty()
    }

    fn empty() -> Engine<E> {
        Engine {
            now: SimTime::ZERO,
            seq: 0,
            fired: 0,
            cancelled: 0,
            live: 0,
            slots: Vec::new(),
            free: Vec::new(),
            queue: BinaryHeap::new(),
            lane: Lane {
                delay: SimTime::ZERO,
                ticks: VecDeque::new(),
                quiet_until: SimTime::ZERO,
            },
            lane_handler: None,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events fired so far (useful for runaway detection in tests).
    pub fn events_fired(&self) -> u64 {
        self.fired
    }

    /// Number of events cancelled so far.
    pub fn events_cancelled(&self) -> u64 {
        self.cancelled
    }

    /// Number of live events still pending, lane ticks included
    /// (cancelled events leave this count immediately, even though their
    /// queue tombstone lingers).
    pub fn pending(&self) -> usize {
        self.live + self.lane.ticks.len()
    }

    fn alloc(&mut self, seq: u64, event: E) -> EventId {
        match self.free.pop() {
            Some(idx) => {
                let slot = &mut self.slots[idx as usize];
                slot.seq = seq;
                slot.event = Some(event);
                EventId { idx, gen: slot.gen }
            }
            None => {
                let idx = u32::try_from(self.slots.len()).expect("event slab overflow");
                self.slots.push(Slot {
                    gen: 0,
                    seq,
                    event: Some(event),
                });
                EventId { idx, gen: 0 }
            }
        }
    }

    /// Free a slot, invalidating outstanding [`EventId`]s for it.
    fn release(&mut self, idx: u32) -> E {
        let slot = &mut self.slots[idx as usize];
        let event = slot.event.take().expect("releasing an empty slot");
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(idx);
        self.live -= 1;
        event
    }

    /// Schedule `event` to fire at absolute time `at` (clamped to `now`).
    /// The returned handle can be ignored, [`cancel`](Engine::cancel)led,
    /// or [`reschedule_at`](Engine::reschedule_at)d.
    pub fn post_at(&mut self, at: SimTime, event: E) -> EventId {
        // Scheduling in the past is a model bug; clamp to `now` so it
        // fires next and the clock stays monotonic.
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        let id = self.alloc(seq, event);
        self.queue.push(Reverse(EventEntry {
            at,
            seq,
            idx: id.idx,
        }));
        self.live += 1;
        id
    }

    /// Schedule `event` to fire `delay` after now.
    pub fn post_in(&mut self, delay: SimTime, event: E) -> EventId {
        self.post_at(self.now + delay, event)
    }

    /// Set the fixed-delay lane's delay: every
    /// [`lane_push`](Engine::lane_push) fires its token `delay` after the
    /// push, keyed and ordered exactly like an event posted `delay` ahead.
    /// Panics if `delay` is zero (quiet ticks could then never leave the
    /// instant they re-arm at) or lane ticks are still pending.
    pub fn set_lane_delay(&mut self, delay: SimTime) {
        assert!(delay > SimTime::ZERO, "set_lane with a zero delay");
        assert!(
            self.lane.ticks.is_empty(),
            "set_lane with lane ticks pending"
        );
        self.lane.delay = delay;
    }

    /// Schedule a lane tick for `token` the lane's delay after now.
    pub fn lane_push(&mut self, token: u32) {
        let seq = self.seq;
        self.seq += 1;
        self.lane.ticks.push_back(LaneTick {
            at: self.now + self.lane.delay,
            seq,
            token,
        });
    }

    /// Declare lane ticks strictly before `horizon` no-ops: the engine
    /// fires them without calling the handler, re-arming each one lane
    /// delay later, exactly as a handler that only re-pushed its token
    /// would. The owner must move the horizon whenever its state changes
    /// what a tick would do; ticks at or after it reach the handler.
    pub fn set_quiet_horizon(&mut self, horizon: SimTime) {
        self.lane.quiet_until = horizon;
    }

    /// Whether `id` still refers to a pending event.
    pub fn is_scheduled(&self, id: EventId) -> bool {
        self.slots
            .get(id.idx as usize)
            .is_some_and(|s| s.gen == id.gen && s.event.is_some())
    }

    /// Cancel a pending event in O(1): its payload is dropped and the slab
    /// slot freed immediately; the queue key becomes an inert tombstone
    /// skipped when it surfaces (no scans). Returns whether anything was
    /// cancelled — `false` for events already fired, cancelled, or
    /// rescheduled.
    pub fn cancel(&mut self, id: EventId) -> bool {
        if !self.is_scheduled(id) {
            return false;
        }
        drop(self.release(id.idx));
        self.cancelled += 1;
        true
    }

    /// Move a pending event to absolute time `at` (clamped to `now`),
    /// keeping its payload. The old handle goes stale; the event fires at
    /// the new time with a fresh sequence number (it ties *after* events
    /// already scheduled there). `None` if `id` was no longer pending.
    pub fn reschedule_at(&mut self, id: EventId, at: SimTime) -> Option<EventId> {
        if !self.is_scheduled(id) {
            return None;
        }
        let event = self.release(id.idx);
        Some(self.post_at(at, event))
    }

    /// Whether a popped queue key still refers to its live event.
    #[inline]
    fn key_is_live(&self, e: EventEntry) -> bool {
        let slot = &self.slots[e.idx as usize];
        slot.seq == e.seq && slot.event.is_some()
    }

    /// Fire a single event, handing it to `handler`, if one is pending;
    /// returns whether one fired. A quiet lane tick counts as one event
    /// and reaches no handler.
    pub fn step_with(&mut self, mut handler: impl FnMut(&mut Self, Fired<E>)) -> bool {
        self.fire_next(None, &mut handler)
    }

    /// Run until the calendar drains, handing every fired event and every
    /// non-quiet lane tick to `handler`; returns the final simulated time.
    pub fn run_with(&mut self, mut handler: impl FnMut(&mut Self, Fired<E>)) -> SimTime {
        while self.fire_next(Some(SimTime(u64::MAX)), &mut handler) {}
        self.now
    }

    /// [`Engine::run_with`] until the calendar drains or the clock passes
    /// `deadline`, whichever comes first. Events scheduled after the
    /// deadline remain pending.
    pub fn run_until_with(
        &mut self,
        deadline: SimTime,
        mut handler: impl FnMut(&mut Self, Fired<E>),
    ) -> SimTime {
        while let Some(at) = self.peek_time() {
            if at > deadline {
                break;
            }
            let batch_before = SimTime(deadline.as_micros().saturating_add(1));
            self.fire_next(Some(batch_before), &mut handler);
        }
        let next = self.peek_time();
        self.now = self.now.max(deadline.min(next.unwrap_or(deadline)));
        self.now
    }

    /// Fire the next event. With `batch_before`, a quiet lane head may
    /// instead advance whole rounds of quiet ticks that all fall strictly
    /// before that time.
    fn fire_next(
        &mut self,
        batch_before: Option<SimTime>,
        handler: &mut impl FnMut(&mut Self, Fired<E>),
    ) -> bool {
        if let Some(&tick) = self.lane.ticks.front() {
            let queued = self.live_queue_head();
            if queued.is_none_or(|q| (tick.at, tick.seq) < (q.at, q.seq)) {
                if self.fire_lane(tick, queued, batch_before) {
                    handler(self, Fired::Tick(tick.token));
                }
                return true;
            }
        }
        loop {
            let Some(Reverse(e)) = self.queue.pop() else {
                return false;
            };
            if !self.key_is_live(e) {
                continue; // tombstone of a cancelled/rescheduled event
            }
            let event = self.release(e.idx);
            debug_assert!(e.at >= self.now, "calendar went backwards");
            self.now = e.at;
            self.fired += 1;
            handler(self, Fired::Event(event));
            return true;
        }
    }

    /// Fire the lane head `tick`, which precedes the queue's live head
    /// `queued`; returns whether the tick is due to the handler (it is
    /// not quiet).
    fn fire_lane(
        &mut self,
        tick: LaneTick,
        queued: Option<EventEntry>,
        batch_before: Option<SimTime>,
    ) -> bool {
        let quiet = tick.at < self.lane.quiet_until;
        if let Some(limit) = batch_before.filter(|_| quiet) {
            let bound = limit
                .min(self.lane.quiet_until)
                .min(queued.map_or(SimTime(u64::MAX), |q| q.at));
            if self.skip_quiet_rounds(bound) {
                return false;
            }
        }
        self.lane.ticks.pop_front();
        self.now = tick.at;
        self.fired += 1;
        if quiet {
            // What a handler that only re-polled would do.
            self.lane_push(tick.token);
        }
        !quiet
    }

    /// Fire `k ≥ 1` whole rounds of quiet lane ticks at once, the largest
    /// `k` whose every tick falls strictly before `bound`; returns whether
    /// any round fit. With `n` ticks and sequence counter `c`, round-by-
    /// round re-arming leaves tick `i` at `(at_i + k·delay, c + (k−1)·n + i)`
    /// with the counter at `c + k·n`, which is what this writes directly.
    fn skip_quiet_rounds(&mut self, bound: SimTime) -> bool {
        let delay = self.lane.delay.as_micros();
        let last = match self.lane.ticks.back() {
            Some(t) => t.at.as_micros(),
            None => return false,
        };
        if delay == 0 || last >= bound.as_micros() {
            return false;
        }
        let k = (bound.as_micros() - last - 1) / delay + 1;
        let n = self.lane.ticks.len() as u64;
        let base = self.seq + (k - 1) * n;
        for (i, t) in self.lane.ticks.iter_mut().enumerate() {
            t.at = SimTime(t.at.as_micros() + (k - 1) * delay) + self.lane.delay;
            t.seq = base + i as u64;
        }
        self.seq = base + n;
        self.fired += k * n;
        self.now = SimTime(last + (k - 1) * delay);
        true
    }

    /// Time of the next pending (live) event, lane ticks included, if any.
    /// Takes `&mut self` to discard cancelled tombstones.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        let queued = self.live_queue_head().map(|e| e.at);
        match self.lane.ticks.front() {
            Some(t) => Some(queued.map_or(t.at, |q| q.min(t.at))),
            None => queued,
        }
    }

    /// The queue's smallest live key, discarding tombstones above it.
    fn live_queue_head(&mut self) -> Option<EventEntry> {
        loop {
            let Reverse(e) = *self.queue.peek()?;
            if self.key_is_live(e) {
                return Some(e);
            }
            self.queue.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn fires_in_time_order() {
        let mut e = Engine::new();
        let log: Rc<RefCell<Vec<u32>>> = Rc::default();
        for (t, v) in [(30u64, 3u32), (10, 1), (20, 2)] {
            let log = log.clone();
            e.schedule_at(SimTime::from_secs(t), move |_| log.borrow_mut().push(v));
        }
        let end = e.run();
        assert_eq!(*log.borrow(), vec![1, 2, 3]);
        assert_eq!(end, SimTime::from_secs(30));
        assert_eq!(e.events_fired(), 3);
    }

    #[test]
    fn ties_fire_in_schedule_order() {
        let mut e = Engine::new();
        let log: Rc<RefCell<Vec<u32>>> = Rc::default();
        for v in 0..100 {
            let log = log.clone();
            e.schedule_at(SimTime::from_secs(5), move |_| log.borrow_mut().push(v));
        }
        e.run();
        assert_eq!(*log.borrow(), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_events() {
        // A self-rescheduling "process" ticking 5 times.
        fn tick(e: &mut Engine, count: Rc<RefCell<u32>>) {
            *count.borrow_mut() += 1;
            if *count.borrow() < 5 {
                let c = count.clone();
                e.schedule_in(SimTime::from_secs(2), move |e| tick(e, c));
            }
        }
        let mut e = Engine::new();
        let count = Rc::new(RefCell::new(0));
        let c = count.clone();
        e.schedule_at(SimTime::ZERO, move |e| tick(e, c));
        let end = e.run();
        assert_eq!(*count.borrow(), 5);
        assert_eq!(end, SimTime::from_secs(8));
    }

    #[test]
    fn scheduling_in_past_clamps_to_now() {
        let mut e = Engine::new();
        let seen = Rc::new(RefCell::new(SimTime::ZERO));
        let s = seen.clone();
        e.schedule_at(SimTime::from_secs(10), move |e| {
            // Attempt to schedule 5 seconds "ago".
            let s2 = s.clone();
            e.schedule_at(SimTime::from_secs(5), move |e| *s2.borrow_mut() = e.now());
        });
        e.run();
        assert_eq!(*seen.borrow(), SimTime::from_secs(10));
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut e = Engine::new();
        let log: Rc<RefCell<Vec<u64>>> = Rc::default();
        for t in [1u64, 2, 3, 4, 5] {
            let log = log.clone();
            e.schedule_at(SimTime::from_secs(t), move |e| {
                log.borrow_mut().push(e.now().as_micros())
            });
        }
        e.run_until(SimTime::from_secs(3));
        assert_eq!(log.borrow().len(), 3);
        assert_eq!(e.pending(), 2);
        // Remaining events still run afterwards.
        e.run();
        assert_eq!(log.borrow().len(), 5);
    }

    #[test]
    fn step_on_empty_returns_false() {
        let mut e = Engine::new();
        assert!(!e.step());
        assert_eq!(e.now(), SimTime::ZERO);
    }

    #[test]
    fn cancel_prevents_firing_and_is_idempotent() {
        let mut e = Engine::new();
        let log: Rc<RefCell<Vec<u32>>> = Rc::default();
        let l1 = log.clone();
        let keep = e.schedule_at(SimTime::from_secs(1), move |_| l1.borrow_mut().push(1));
        let l2 = log.clone();
        let kill = e.schedule_at(SimTime::from_secs(2), move |_| l2.borrow_mut().push(2));
        assert_eq!(e.pending(), 2);
        assert!(e.is_scheduled(kill));
        assert!(e.cancel(kill));
        assert!(!e.cancel(kill), "second cancel is a no-op");
        assert!(!e.is_scheduled(kill));
        assert_eq!(e.pending(), 1);
        let end = e.run();
        assert_eq!(*log.borrow(), vec![1]);
        assert_eq!(end, SimTime::from_secs(1), "cancelled tail never fires");
        assert_eq!(e.events_fired(), 1);
        assert_eq!(e.events_cancelled(), 1);
        assert!(!e.cancel(keep), "fired events cannot be cancelled");
    }

    #[test]
    fn cancelled_slot_reuse_does_not_confuse_stale_handles() {
        let mut e = Engine::new();
        let hit = Rc::new(RefCell::new(0u32));
        let h = hit.clone();
        let a = e.schedule_at(SimTime::from_secs(1), move |_| *h.borrow_mut() += 1);
        assert!(e.cancel(a));
        // The freed slot is recycled by the next schedule; the stale
        // handle must not be able to cancel the new occupant.
        let h = hit.clone();
        let _b = e.schedule_at(SimTime::from_secs(1), move |_| *h.borrow_mut() += 10);
        assert!(!e.cancel(a));
        e.run();
        assert_eq!(*hit.borrow(), 10);
    }

    #[test]
    fn reschedule_moves_and_invalidates_old_handle() {
        let mut e = Engine::new();
        let log: Rc<RefCell<Vec<(u64, u32)>>> = Rc::default();
        let l = log.clone();
        let id = e.schedule_at(SimTime::from_secs(5), move |e| {
            l.borrow_mut().push((e.now().as_micros(), 0))
        });
        let l = log.clone();
        e.schedule_at(SimTime::from_secs(2), move |e| {
            l.borrow_mut().push((e.now().as_micros(), 1))
        });
        let id2 = e.reschedule_at(id, SimTime::from_secs(1)).unwrap();
        assert!(!e.is_scheduled(id), "old handle is stale");
        assert!(e.is_scheduled(id2));
        assert!(e.reschedule_at(id, SimTime::ZERO).is_none());
        e.run();
        // Moved event fires first, at its new time.
        assert_eq!(*log.borrow(), vec![(1_000_000, 0), (2_000_000, 1)]);
        assert_eq!(e.pending(), 0);
    }

    #[test]
    fn cancel_from_inside_an_event() {
        let mut e = Engine::new();
        let fired = Rc::new(RefCell::new(false));
        let f = fired.clone();
        let victim = e.schedule_at(SimTime::from_secs(10), move |_| *f.borrow_mut() = true);
        e.schedule_at(SimTime::from_secs(1), move |e| {
            assert!(e.cancel(victim));
        });
        let end = e.run();
        assert!(!*fired.borrow());
        assert_eq!(end, SimTime::from_secs(1));
    }

    /// A poller model in the shape of the MapReduce sim: `n` pollers tick
    /// every `delay`, doing nothing before a quiet horizon that randomly
    /// timed work events move; each productive tick logs and may retire
    /// its poller. Run once on the lane and once with the poll as a boxed
    /// closure that re-arms itself while quiet.
    fn poller_run(seed: u64, lane: bool) -> (Vec<(u64, u32)>, u64, u64) {
        use ppc_core::rng::Pcg32;
        struct World {
            delay: SimTime,
            horizon: std::cell::Cell<SimTime>,
            log: RefCell<Vec<(u64, u32)>>,
        }
        /// A productive tick: log, then re-poll unless (time, token) says retire.
        fn body(e: &Engine, w: &World, token: u32) -> bool {
            let now = e.now().as_micros();
            w.log.borrow_mut().push((now, token));
            !(now / w.delay.as_micros().max(1) + u64::from(token)).is_multiple_of(5)
        }
        fn closure_poll(e: &mut Engine, w: Rc<World>, token: u32) {
            if e.now() >= w.horizon.get() && !body(e, &w, token) {
                return;
            }
            e.schedule_in(w.delay, move |e| closure_poll(e, w, token));
        }
        let mut rng = Pcg32::new(0x9011 ^ seed);
        let delay = SimTime(1 + u64::from(rng.next_below(1_000)));
        let w = Rc::new(World {
            delay,
            horizon: std::cell::Cell::new(SimTime::ZERO),
            log: RefCell::default(),
        });
        let mut e = Engine::new();
        if lane {
            let w = w.clone();
            e.set_lane(delay, move |e, token| {
                if body(e, &w, token) {
                    e.lane_push(token);
                }
            });
        }
        for token in 0..1 + rng.next_below(12) {
            if lane {
                e.lane_push(token);
            } else {
                let w = w.clone();
                e.schedule_in(delay, move |e| closure_poll(e, w, token));
            }
        }
        for _ in 0..rng.next_below(30) {
            let at = SimTime(u64::from(rng.next_below(200)) * delay.as_micros() / 2);
            let quiet_for = SimTime(u64::from(rng.next_below(50)) * delay.as_micros());
            let w = w.clone();
            e.schedule_at(at, move |e| {
                let h = e.now() + quiet_for;
                w.horizon.set(h);
                if lane {
                    e.set_quiet_horizon(h);
                }
                w.log.borrow_mut().push((e.now().as_micros(), u32::MAX));
            });
        }
        let end = e.run().as_micros();
        assert_eq!(e.pending(), 0);
        let log = w.log.borrow().clone();
        (log, end, e.events_fired())
    }

    #[test]
    fn lane_ticks_match_self_rearming_closures() {
        for seed in 0..64 {
            let want = poller_run(seed, false);
            assert_eq!(poller_run(seed, true), want, "seed {seed}");
        }
    }

    #[test]
    fn lane_ticks_tie_with_queue_events_by_sequence() {
        let mut e = Engine::new();
        let log: Rc<RefCell<Vec<u32>>> = Rc::default();
        let l = log.clone();
        e.set_lane(SimTime(10), move |_, token| l.borrow_mut().push(token));
        let l = log.clone();
        e.schedule_at(SimTime(10), move |_| l.borrow_mut().push(100));
        e.lane_push(1);
        let l = log.clone();
        e.schedule_at(SimTime(10), move |_| l.borrow_mut().push(101));
        e.lane_push(2);
        assert_eq!(e.pending(), 4);
        assert_eq!(e.peek_time(), Some(SimTime(10)));
        e.run();
        assert_eq!(*log.borrow(), vec![100, 1, 101, 2]);
        assert_eq!(e.events_fired(), 4);
    }

    #[test]
    fn quiet_rounds_advance_in_bulk_and_stop_at_the_horizon() {
        let mut e = Engine::new();
        let log: Rc<RefCell<Vec<(u64, u32)>>> = Rc::default();
        let l = log.clone();
        e.set_lane(SimTime(3), move |e, token| {
            l.borrow_mut().push((e.now().as_micros(), token))
        });
        e.lane_push(7);
        e.schedule_at(SimTime(1), |e| e.lane_push(8));
        e.set_quiet_horizon(SimTime(3_000_000));
        // Half a million quiet rounds, then both ticks reach the handler.
        assert_eq!(e.run(), SimTime(3_000_001));
        assert_eq!(*log.borrow(), vec![(3_000_000, 7), (3_000_001, 8)]);
        assert_eq!(e.events_fired(), 1 + 2 * 1_000_000);
    }

    #[test]
    #[should_panic(expected = "zero delay")]
    fn a_zero_lane_delay_is_refused() {
        Engine::new().set_lane(SimTime::ZERO, |_, _| {});
    }

    #[test]
    fn typed_events_reach_the_run_handler_in_order() {
        let mut e: Engine<char> = Engine::typed();
        e.set_lane_delay(SimTime(4));
        e.post_at(SimTime(9), 'c');
        let gone = e.post_at(SimTime(1), 'x');
        e.post_at(SimTime(5), 'b');
        let late = e.post_at(SimTime(2), 'a');
        assert!(e.cancel(gone));
        let late = e.reschedule_at(late, SimTime(5)).unwrap();
        assert!(e.is_scheduled(late));
        e.lane_push(7);
        let mut log = Vec::new();
        let end = e.run_with(|e, fired| {
            log.push((e.now().as_micros(), fired));
            if fired == Fired::Event('c') {
                e.post_in(SimTime(1), 'd');
            }
        });
        assert_eq!(
            log,
            [
                (4, Fired::Tick(7)),
                (5, Fired::Event('b')),
                (5, Fired::Event('a')),
                (9, Fired::Event('c')),
                (10, Fired::Event('d')),
            ]
        );
        assert_eq!(end, SimTime(10));
        assert_eq!((e.events_fired(), e.events_cancelled()), (5, 1));
    }

    #[test]
    fn peek_time_skips_cancelled_heads() {
        let mut e = Engine::new();
        let head = e.schedule_at(SimTime::from_secs(1), |_| {});
        e.schedule_at(SimTime::from_secs(2), |_| {});
        assert_eq!(e.peek_time(), Some(SimTime::from_secs(1)));
        assert!(e.cancel(head));
        assert_eq!(e.peek_time(), Some(SimTime::from_secs(2)));
    }
}
