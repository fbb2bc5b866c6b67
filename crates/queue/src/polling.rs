//! Long polling.
//!
//! SQS clients avoid hammering the endpoint with empty receives by using
//! *long polling* (`WaitTimeSeconds`), implemented here as an extension on
//! [`Queue`].

use crate::message::Message;
use crate::queue::Queue;
use ppc_core::Result;
use std::sync::atomic::Ordering;
use std::thread;
use std::time::{Duration, Instant};

/// Re-poll pause after a chaos empty receive or a transient error: those
/// misses come with no notification to wait for.
const REPOLL: Duration = Duration::from_micros(200);

impl Queue {
    /// Receive with long polling: blocks up to `wait` for a message to
    /// become available (arrival or visibility-timeout reappearance),
    /// returning `Ok(None)` after the wait elapses empty or once the queue
    /// is [closed](Self::close).
    ///
    /// An empty queue parks the caller on a condition variable until the
    /// first of: the wait deadline, the earliest in-flight lease expiry
    /// (a timed-out or delayed message becomes visible then), or a
    /// notification. Sends, leases that become the earliest expiry and
    /// [`Self::close`] notify, but only when someone is parked. A chaos empty receive or a
    /// transient error re-polls after 200 µs instead, since no
    /// notification announces the next chance. However often it wakes,
    /// the whole wait bills as one receive, plus one empty receive if it
    /// returns `Ok(None)` — SQS `WaitTimeSeconds` metering.
    pub fn receive_wait(&self, wait: Duration) -> Result<Option<Message>> {
        self.stats().receives.fetch_add(1, Ordering::Relaxed);
        let deadline = Instant::now() + wait;
        let mut state = self.lock_state();
        let out = loop {
            if state.closed {
                break Ok(None);
            }
            let now = Instant::now();
            let outcome = self.receive_locked(&mut state, now);
            let chaos_miss = match &outcome {
                Ok(Some(_)) => break outcome,
                Ok(None) => state.has_visible(),
                Err(e) if e.is_retryable() => true,
                Err(_) => break outcome,
            };
            if now >= deadline {
                break outcome;
            }
            if chaos_miss {
                drop(state);
                thread::sleep(REPOLL.min(deadline - now));
                state = self.lock_state();
            } else {
                let until = state.wake_by(deadline);
                state = self.park(state, until);
            }
            self.stats()
                .long_poll_wakeups
                .fetch_add(1, Ordering::Relaxed);
        };
        drop(state);
        if matches!(out, Ok(None)) {
            self.stats().empty_receives.fetch_add(1, Ordering::Relaxed);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosConfig;
    use crate::queue::QueueConfig;
    use std::sync::Arc;

    #[test]
    fn long_poll_returns_early_when_message_arrives() {
        let q = std::sync::Arc::new(Queue::new("lp", QueueConfig::default()));
        let q2 = q.clone();
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            q2.send("late").unwrap();
        });
        let start = Instant::now();
        let m = q.receive_wait(Duration::from_millis(500)).unwrap();
        sender.join().unwrap();
        assert_eq!(m.unwrap().body, "late");
        assert!(
            start.elapsed() < Duration::from_millis(400),
            "returned early"
        );
    }

    #[test]
    fn long_poll_times_out_empty() {
        let q = Queue::new("lp", QueueConfig::default());
        let start = Instant::now();
        assert!(q.receive_wait(Duration::from_millis(30)).unwrap().is_none());
        assert!(start.elapsed() >= Duration::from_millis(30));
    }

    fn quick_queue(visibility_ms: u64) -> Arc<Queue> {
        Arc::new(Queue::new(
            "lp",
            QueueConfig {
                visibility_timeout: Duration::from_millis(visibility_ms),
                ..QueueConfig::default()
            },
        ))
    }

    fn count(c: &std::sync::atomic::AtomicU64) -> u64 {
        c.load(Ordering::Relaxed)
    }

    /// Blocks until a long poll on `q` is parked after at least `wakeups`
    /// re-checks (read in that order: the counter only grows, so a poll
    /// seen parked afterwards has parked again since).
    fn await_parked(q: &Queue, wakeups: u64) {
        let give_up = Instant::now() + Duration::from_secs(5);
        while count(&q.stats().long_poll_wakeups) < wakeups || q.parked() == 0 {
            assert!(Instant::now() < give_up, "the long poll never parked");
            thread::sleep(Duration::from_micros(100));
        }
    }

    /// Runs `act` on another thread once a long poll of `wait` on `q` has
    /// parked; returns what the poll got and how long it took.
    fn poll_while(
        q: &Arc<Queue>,
        wait: Duration,
        act: impl FnOnce(&Queue) + Send + 'static,
    ) -> (Option<Message>, Duration) {
        let q2 = q.clone();
        let actor = thread::spawn(move || {
            await_parked(&q2, 0);
            act(&q2);
        });
        let start = Instant::now();
        let got = q.receive_wait(wait).unwrap();
        let took = start.elapsed();
        actor.join().unwrap();
        (got, took)
    }

    #[test]
    fn close_wakes_a_parked_poll_and_bills_one_empty_receive() {
        let q = quick_queue(30_000);
        let (got, took) = poll_while(&q, Duration::from_secs(10), |q| q.close());
        assert!(got.is_none());
        assert!(
            took < Duration::from_secs(1),
            "close woke the poll: {took:?}"
        );
        assert_eq!(count(&q.stats().receives), 1);
        assert_eq!(count(&q.stats().empty_receives), 1);
        // Every later long poll returns at once, even with a message queued.
        q.send("late").unwrap();
        let start = Instant::now();
        assert!(q.receive_wait(Duration::from_secs(10)).unwrap().is_none());
        assert!(start.elapsed() < Duration::from_secs(1));
        assert_eq!(count(&q.stats().receives), 2);
        assert_eq!(count(&q.stats().empty_receives), 2);
        // Plain receives still serve: a worker mid-task can finish up.
        assert_eq!(q.receive().unwrap().unwrap().body, "late");
    }

    #[test]
    fn lease_expiring_mid_poll_reaches_the_waiter() {
        let q = quick_queue(30);
        q.send("t").unwrap();
        let first = q.receive().unwrap().unwrap();
        let start = Instant::now();
        let again = q.receive_wait(Duration::from_secs(5)).unwrap();
        let took = start.elapsed();
        let again = again.expect("lease lapsed mid-poll");
        assert_eq!(again.id, first.id);
        assert_eq!(again.receive_count, 2);
        assert!(
            took >= Duration::from_millis(20),
            "not before the lease lapsed"
        );
        assert!(
            took < Duration::from_secs(2),
            "woke at the expiry: {took:?}"
        );
    }

    #[test]
    fn delayed_send_reaches_a_parked_poll_once_the_delay_lapses() {
        let q = quick_queue(30_000);
        let (got, took) = poll_while(&q, Duration::from_secs(5), |q| {
            q.send_delayed("later", Duration::from_millis(60)).unwrap();
        });
        assert_eq!(got.expect("delivered after the delay").body, "later");
        assert!(
            took >= Duration::from_millis(60),
            "not before the delay: {took:?}"
        );
        assert!(took < Duration::from_secs(2), "woke at the delay: {took:?}");
    }

    #[test]
    fn chaos_empty_receives_neither_lose_the_wakeup_nor_spin() {
        let q = Arc::new(Queue::new(
            "lp",
            QueueConfig {
                chaos: ChaosConfig {
                    empty_receive_probability: 0.5,
                    ..ChaosConfig::NONE
                },
                ..QueueConfig::default()
            },
        ));
        for _ in 0..8 {
            let before = count(&q.stats().long_poll_wakeups);
            let (got, took) = poll_while(&q, Duration::from_secs(5), |q| {
                thread::sleep(Duration::from_millis(20));
                q.send("x").unwrap();
            });
            let m = got.expect("the message is returned");
            q.delete(m.receipt).unwrap();
            assert!(took < Duration::from_secs(2), "no lost wakeup: {took:?}");
            // One wake on the send, then ~2 re-polls at p = 0.5; a 200-µs
            // sleep-poll through the 20 ms idle stretch would count ~100.
            let wakeups = count(&q.stats().long_poll_wakeups) - before;
            assert!(wakeups < 60, "{wakeups} re-checks: busy spin");
        }
        assert_eq!(count(&q.stats().receives), 8);
        assert_eq!(count(&q.stats().empty_receives), 0);
    }

    #[test]
    fn a_poll_that_wakes_several_times_bills_one_receive() {
        let q = quick_queue(30_000);
        // Each delayed send becomes the earliest expiry and wakes the
        // parked poll to re-arm its timer; the last one lapses first.
        let (got, _) = poll_while(&q, Duration::from_secs(5), |q| {
            for (i, ms) in [600, 400, 200].into_iter().enumerate() {
                await_parked(q, i as u64);
                q.send_delayed(format!("m{i}"), Duration::from_millis(ms))
                    .unwrap();
            }
        });
        assert_eq!(got.expect("the earliest expiry").body, "m2");
        assert!(count(&q.stats().long_poll_wakeups) >= 3);
        assert_eq!(count(&q.stats().receives), 1);
        assert_eq!(count(&q.stats().empty_receives), 0);
        assert_eq!(q.stats().requests(), 4, "three sends and one receive");
    }
}
