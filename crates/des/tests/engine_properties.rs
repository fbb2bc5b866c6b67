//! Randomized property tests for the discrete-event engine: the determinism
//! and ordering guarantees every platform simulation depends on. Cases are
//! generated with the workspace's own deterministic PRNG so failures
//! reproduce exactly from the printed seed.

use ppc_core::rng::Pcg32;
use ppc_des::{Engine, EventId, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// Events fire in non-decreasing time order regardless of the schedule
/// order, and same-time events fire in insertion order.
#[test]
fn fires_in_time_then_insertion_order() {
    for seed in 0..128u64 {
        let mut rng = Pcg32::new(0x0DE8 + seed);
        let n = 1 + rng.next_below(199) as usize;
        let times: Vec<u64> = (0..n).map(|_| rng.next_below(1000) as u64).collect();
        let mut engine = Engine::new();
        let log: Rc<RefCell<Vec<(u64, usize)>>> = Rc::default();
        for (seq, &t) in times.iter().enumerate() {
            let log = log.clone();
            engine.schedule_at(SimTime::from_millis(t), move |e| {
                log.borrow_mut().push((e.now().as_micros(), seq));
            });
        }
        let end = engine.run();
        let fired = log.borrow();
        assert_eq!(fired.len(), times.len());
        for pair in fired.windows(2) {
            assert!(pair[0].0 <= pair[1].0, "time order violated, seed {seed}");
            if pair[0].0 == pair[1].0 {
                assert!(
                    pair[0].1 < pair[1].1,
                    "insertion order violated at equal times, seed {seed}"
                );
            }
        }
        let max = times.iter().copied().max().unwrap();
        assert_eq!(end, SimTime::from_millis(max));
    }
}

/// Cascading events (each schedules a follow-up) keep the clock
/// monotone and fire everything exactly once.
#[test]
fn cascades_are_monotone() {
    fn chain(e: &mut Engine, delays: Rc<Vec<u64>>, idx: usize, log: Rc<RefCell<Vec<u64>>>) {
        log.borrow_mut().push(e.now().as_micros());
        if idx + 1 < delays.len() {
            let d = delays[idx + 1];
            let log2 = log.clone();
            let delays2 = delays.clone();
            e.schedule_in(SimTime::from_millis(d), move |e| {
                chain(e, delays2, idx + 1, log2)
            });
        }
    }
    for seed in 0..128u64 {
        let mut rng = Pcg32::new(0xCA5C + seed);
        let n = 1 + rng.next_below(49) as usize;
        let delays: Vec<u64> = (0..n).map(|_| rng.next_below(100) as u64).collect();
        let mut engine = Engine::new();
        let log: Rc<RefCell<Vec<u64>>> = Rc::default();
        let delays = Rc::new(delays);
        let d0 = delays[0];
        let log2 = log.clone();
        let delays2 = delays.clone();
        engine.schedule_at(SimTime::from_millis(d0), move |e| {
            chain(e, delays2, 0, log2)
        });
        engine.run();
        let fired = log.borrow();
        assert_eq!(fired.len(), delays.len());
        for pair in fired.windows(2) {
            assert!(pair[0] <= pair[1], "seed {seed}");
        }
        let total: u64 = delays.iter().sum();
        assert_eq!(*fired.last().unwrap(), total * 1000, "seed {seed}");
    }
}

/// run_until never fires past the deadline; the remainder still runs.
#[test]
fn run_until_partitions_cleanly() {
    for seed in 0..128u64 {
        let mut rng = Pcg32::new(0x0C07 + seed);
        let n = 1 + rng.next_below(99) as usize;
        let times: Vec<u64> = (0..n).map(|_| rng.next_below(1000) as u64).collect();
        let cut = rng.next_below(1000) as u64;
        let mut engine = Engine::new();
        let log: Rc<RefCell<Vec<u64>>> = Rc::default();
        for &t in &times {
            let log = log.clone();
            engine.schedule_at(SimTime::from_millis(t), move |e| {
                log.borrow_mut().push(e.now().as_micros())
            });
        }
        engine.run_until(SimTime::from_millis(cut));
        let early = log.borrow().len();
        let expected_early = times.iter().filter(|&&t| t <= cut).count();
        assert_eq!(early, expected_early, "seed {seed}");
        engine.run();
        assert_eq!(log.borrow().len(), times.len(), "seed {seed}");
    }
}

/// Cancellation semantics: under arbitrary interleavings
/// of schedule / cancel / reschedule, (a) cancelled events never fire,
/// (b) nothing fires twice, (c) `pending()` always equals the live count,
/// and (d) everything still live at the end fires exactly once.
#[test]
fn cancellation_interleavings_never_misfire() {
    for seed in 0..64u64 {
        let mut rng = Pcg32::new(0xCA8C ^ seed);
        let mut engine = Engine::new();
        let fired: Rc<RefCell<Vec<usize>>> = Rc::default();
        // Tokens of events scheduled so far; `state` tracks what we
        // believe each token is: live handle, or retired (fired-soon,
        // cancelled, or superseded by reschedule).
        let mut handles: Vec<(usize, EventId)> = Vec::new();
        let mut live_expected = 0usize;
        let mut expected_to_fire: Vec<usize> = Vec::new();
        let mut next_token = 0usize;
        let ops = 50 + rng.next_below(150) as usize;
        for _ in 0..ops {
            match rng.next_below(5) {
                // Schedule a fresh event.
                0 | 1 => {
                    let at = SimTime::from_micros(rng.next_below(5_000) as u64);
                    let token = next_token;
                    next_token += 1;
                    let log = fired.clone();
                    let id = engine.schedule_at(at, move |_| log.borrow_mut().push(token));
                    handles.push((token, id));
                    expected_to_fire.push(token);
                    live_expected += 1;
                }
                // Cancel a random earlier handle (possibly stale).
                2 if !handles.is_empty() => {
                    let pick = rng.next_below(handles.len() as u32) as usize;
                    let (token, id) = handles[pick];
                    let was_live = engine.is_scheduled(id);
                    let did = engine.cancel(id);
                    assert_eq!(did, was_live, "[seed {seed}] cancel/is_scheduled disagree");
                    if did {
                        live_expected -= 1;
                        expected_to_fire.retain(|&t| t != token);
                    }
                    assert!(!engine.cancel(id), "[seed {seed}] double-cancel");
                }
                // Reschedule a random earlier handle (possibly stale).
                3 if !handles.is_empty() => {
                    let pick = rng.next_below(handles.len() as u32) as usize;
                    let (token, id) = handles[pick];
                    let at = SimTime::from_micros(rng.next_below(5_000) as u64);
                    let was_live = engine.is_scheduled(id);
                    match engine.reschedule_at(id, at) {
                        Some(new_id) => {
                            assert!(was_live);
                            assert!(!engine.is_scheduled(id));
                            handles[pick] = (token, new_id);
                        }
                        None => assert!(!was_live, "[seed {seed}] lost a live handle"),
                    }
                }
                // Fire the earliest live event mid-interleaving.
                4 if engine.step() => live_expected -= 1,
                _ => {}
            }
            assert_eq!(
                engine.pending(),
                live_expected,
                "[seed {seed}] pending() drifted from live count"
            );
        }
        engine.run();
        assert_eq!(engine.pending(), 0);
        let mut got = fired.borrow().clone();
        got.sort_unstable();
        let mut want = expected_to_fire.clone();
        want.sort_unstable();
        assert_eq!(
            got, want,
            "[seed {seed}] fired set != live set (cancelled fired, or live lost)"
        );
        assert_eq!(engine.events_fired() as usize, want.len());
    }
}

/// FIFO server conservation: all submitted jobs complete, in submission
/// order, and the server, never idle while jobs wait, finishes exactly at
/// the sum of service times.
#[test]
fn fifo_server_conserves_work() {
    use ppc_des::{FifoServer, Fired};
    let mut rng = Pcg32::new(99);
    for _ in 0..20 {
        let n_jobs = 5 + rng.next_below(40) as usize;
        let services: Vec<u64> = (0..n_jobs).map(|_| 1 + rng.next_below(50) as u64).collect();
        // Events: `(i, false)` submits job i, `(i, true)` completes it.
        let mut engine: Engine<(usize, bool)> = Engine::typed();
        let mut server = FifoServer::new();
        let mut done = Vec::new();
        for i in 0..n_jobs {
            engine.post_at(SimTime::ZERO, (i, false));
        }
        let end = engine.run_with(|e, fired| {
            let Fired::Event((i, finished)) = fired else {
                unreachable!()
            };
            if finished {
                server.finish(e);
                done.push(i);
            } else {
                server.submit(e, SimTime::from_secs(services[i]), (i, true));
            }
        });
        assert_eq!(done, (0..n_jobs).collect::<Vec<_>>());
        // Work conservation: busy from time zero to the end.
        let total_service: u64 = services.iter().sum();
        assert_eq!(end, SimTime::from_secs(total_service));
    }
}
