//! A single queue with SQS visibility-timeout semantics.

use crate::chaos::ChaosConfig;
use crate::message::{Message, MessageId, ReceiptHandle};
use ppc_core::rng::Pcg32;
use ppc_core::sync::Mutex;
use ppc_core::{PpcError, Result};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, MutexGuard};
use std::time::{Duration, Instant};

/// Configuration for one queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueConfig {
    /// How long a received message stays hidden before reappearing.
    pub visibility_timeout: Duration,
    /// Failure injection dials.
    pub chaos: ChaosConfig,
    /// Seed for the (deterministic) delivery-order and chaos randomness.
    pub seed: u64,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig {
            visibility_timeout: Duration::from_secs(30),
            chaos: ChaosConfig::NONE,
            seed: 0x9ec1,
        }
    }
}

struct StoredMessage {
    id: MessageId,
    body: String,
    receive_count: u32,
    sent_at: Instant,
}

struct InFlight {
    msg: StoredMessage,
    deadline: Instant,
}

pub(crate) struct State {
    visible: Vec<StoredMessage>,
    in_flight: HashMap<ReceiptHandle, InFlight>,
    rng: Pcg32,
    /// Lower bound on the earliest in-flight deadline (`None`: nothing in
    /// flight). Expiry scans run only once it has passed; every lease added
    /// or shortened lowers it, and long-poll waiters sleep no later than it.
    next_expiry: Option<Instant>,
    /// Long-poll receivers parked on [`Queue::arrival`]; state changes
    /// notify only when this is non-zero.
    waiters: usize,
    /// Set by [`Queue::close`]: long polls return empty at once.
    pub(crate) closed: bool,
}

impl State {
    /// The instant a long poll waiting until `deadline` must next wake by
    /// itself: the deadline, or an earlier lease expiry.
    pub(crate) fn wake_by(&self, deadline: Instant) -> Instant {
        self.next_expiry.map_or(deadline, |t| t.min(deadline))
    }

    pub(crate) fn has_visible(&self) -> bool {
        !self.visible.is_empty()
    }
}

/// Counters for one queue (all API calls are also metered for billing).
#[derive(Debug, Default)]
pub struct QueueStats {
    pub sends: AtomicU64,
    pub receives: AtomicU64,
    pub empty_receives: AtomicU64,
    pub deletes: AtomicU64,
    pub failed_deletes: AtomicU64,
    pub visibility_expirations: AtomicU64,
    pub duplicate_deliveries: AtomicU64,
    /// Times a long poll re-checked the queue after parking or a chaos
    /// re-poll pause. Not billed: the whole poll is one receive.
    pub long_poll_wakeups: AtomicU64,
}

impl QueueStats {
    /// Total billable API requests (send + receive + delete attempts).
    pub fn requests(&self) -> u64 {
        self.sends.load(Ordering::Relaxed)
            + self.receives.load(Ordering::Relaxed)
            + self.deletes.load(Ordering::Relaxed)
            + self.failed_deletes.load(Ordering::Relaxed)
    }
}

/// One atomic reading of a queue's monitoring metrics, taken under a single
/// lock acquisition so the three numbers are mutually consistent — unlike
/// calling [`Queue::approximate_len`], [`Queue::approximate_in_flight`] and
/// [`Queue::approximate_age_of_oldest`] back to back, where messages can
/// move between pools mid-read. Autoscaling policies key off this snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueMetricsSnapshot {
    /// Visible (receivable) messages.
    pub visible: usize,
    /// Received, undeleted messages currently under lease.
    pub in_flight: usize,
    /// Age of the oldest visible message; `None` when nothing is visible.
    pub oldest_age: Option<Duration>,
}

impl QueueMetricsSnapshot {
    /// Total outstanding messages: visible plus leased.
    pub fn outstanding(&self) -> usize {
        self.visible + self.in_flight
    }
}

/// A single named queue. Thread-safe; share via `Arc`.
///
/// ```
/// use ppc_queue::queue::{Queue, QueueConfig};
/// let q = Queue::new("tasks", QueueConfig::default());
/// q.send("assemble file-1").unwrap();
/// let msg = q.receive().unwrap().expect("visible");
/// assert_eq!(msg.body, "assemble file-1");
/// // The message is hidden until deleted (or the visibility timeout lapses).
/// assert!(q.receive().unwrap().is_none());
/// q.delete(msg.receipt).unwrap();
/// assert!(q.is_drained());
/// ```
pub struct Queue {
    name: String,
    config: QueueConfig,
    next_message_id: AtomicU64,
    next_receipt: AtomicU64,
    state: Mutex<State>,
    /// Wakes parked long polls: on a send, on a lease that becomes the
    /// earliest to expire, and on close.
    arrival: Condvar,
    stats: QueueStats,
}

impl std::fmt::Debug for Queue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Queue")
            .field("name", &self.name)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl Queue {
    pub fn new(name: impl Into<String>, config: QueueConfig) -> Queue {
        if let Err(e) = config.chaos.validate() {
            panic!("{e}");
        }
        Queue {
            name: name.into(),
            config,
            next_message_id: AtomicU64::new(1),
            next_receipt: AtomicU64::new(1),
            state: Mutex::new(State {
                visible: Vec::new(),
                in_flight: HashMap::new(),
                rng: Pcg32::new(config.seed),
                next_expiry: None,
                waiters: 0,
                closed: false,
            }),
            arrival: Condvar::new(),
            stats: QueueStats::default(),
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn config(&self) -> QueueConfig {
        self.config
    }

    pub fn stats(&self) -> &QueueStats {
        &self.stats
    }

    pub(crate) fn lock_state(&self) -> MutexGuard<'_, State> {
        self.state.lock()
    }

    /// Park a long-poll receiver until `until` or a notification, whichever
    /// comes first. The caller re-checks the queue either way.
    pub(crate) fn park<'a>(
        &self,
        mut state: MutexGuard<'a, State>,
        until: Instant,
    ) -> MutexGuard<'a, State> {
        let timeout = until.saturating_duration_since(Instant::now());
        state.waiters += 1;
        let mut state = match self.arrival.wait_timeout(state, timeout) {
            Ok((guard, _)) => guard,
            Err(poisoned) => poisoned.into_inner().0,
        };
        state.waiters -= 1;
        state
    }

    /// Long polls parked right now; tests wait on it to act only once a
    /// poll is asleep.
    #[cfg(test)]
    pub(crate) fn parked(&self) -> usize {
        self.state.lock().waiters
    }

    /// Wake every parked long poll, if any: they re-check the queue and
    /// re-arm their timers against the (possibly earlier) next expiry.
    fn wake_waiters(&self, state: &State) {
        if state.waiters > 0 {
            self.arrival.notify_all();
        }
    }

    /// Stop serving long polls: parked receivers wake and every later
    /// [`Self::receive_wait`] returns `Ok(None)` at once (still metered as
    /// one receive plus one empty receive). Sends, plain receives and
    /// deletes keep working, so a worker that is mid-task can still report
    /// and acknowledge. Idempotent.
    pub fn close(&self) {
        let mut state = self.state.lock();
        state.closed = true;
        self.wake_waiters(&state);
    }

    /// Bring timed-out in-flight messages back to the visible pool. A no-op
    /// until the earliest lease can have lapsed; the scan then recomputes
    /// that bound.
    fn expire_in_flight(&self, state: &mut State, now: Instant) {
        if state.next_expiry.is_none_or(|t| t > now) {
            return;
        }
        let mut next = None;
        let mut expired = Vec::new();
        for (r, f) in &state.in_flight {
            if f.deadline <= now {
                expired.push(*r);
            } else if next.is_none_or(|t| f.deadline < t) {
                next = Some(f.deadline);
            }
        }
        state.next_expiry = next;
        for r in expired {
            let f = state.in_flight.remove(&r).expect("receipt present");
            self.stats
                .visibility_expirations
                .fetch_add(1, Ordering::Relaxed);
            state.visible.push(f.msg);
        }
    }

    fn roll_transient(&self, state: &mut State, op: &str) -> Result<()> {
        let p = self.config.chaos.transient_error_probability;
        if p > 0.0 && state.rng.chance(p) {
            return Err(PpcError::Transient(format!(
                "queue '{}': injected {op} failure",
                self.name
            )));
        }
        Ok(())
    }

    /// Enqueue a message; returns its id.
    pub fn send(&self, body: impl Into<String>) -> Result<MessageId> {
        self.send_delayed(body, Duration::ZERO)
    }

    /// Enqueue a message that only becomes receivable after `delay` — SQS's
    /// `DelaySeconds`, used to schedule retries without busy waiting.
    pub fn send_delayed(&self, body: impl Into<String>, delay: Duration) -> Result<MessageId> {
        self.stats.sends.fetch_add(1, Ordering::Relaxed);
        let mut state = self.state.lock();
        self.roll_transient(&mut state, "send")?;
        let id = MessageId(self.next_message_id.fetch_add(1, Ordering::Relaxed));
        let msg = StoredMessage {
            id,
            body: body.into(),
            receive_count: 0,
            sent_at: Instant::now(),
        };
        if delay.is_zero() {
            state.visible.push(msg);
            self.wake_waiters(&state);
        } else {
            // Model delay as a pre-hidden message: it sits in flight under a
            // reserved receipt until the delay lapses.
            let receipt = ReceiptHandle(self.next_receipt.fetch_add(1, Ordering::Relaxed));
            let deadline = Instant::now() + delay;
            state.in_flight.insert(receipt, InFlight { msg, deadline });
            self.note_lease(&mut state, deadline);
        }
        Ok(id)
    }

    /// Receive at most one message, hiding it for the visibility timeout.
    /// `Ok(None)` means "nothing available this request" — which, per the
    /// eventual-availability contract, can happen even when messages exist.
    pub fn receive(&self) -> Result<Option<Message>> {
        self.stats.receives.fetch_add(1, Ordering::Relaxed);
        let now = Instant::now();
        let mut state = self.state.lock();
        let got = self.receive_locked(&mut state, now)?;
        if got.is_none() {
            self.stats.empty_receives.fetch_add(1, Ordering::Relaxed);
        }
        Ok(got)
    }

    /// One unmetered receive attempt under the caller's lock. A long poll
    /// ([`Self::receive_wait`]) repeats this internally but bills as a
    /// single request, like SQS `WaitTimeSeconds`. `Ok(None)` while
    /// [`State::has_visible`] holds is a chaos empty receive.
    pub(crate) fn receive_locked(
        &self,
        state: &mut State,
        now: Instant,
    ) -> Result<Option<Message>> {
        self.roll_transient(state, "receive")?;
        self.expire_in_flight(state, now);

        if state.visible.is_empty() {
            return Ok(None);
        }
        let chaos = self.config.chaos;
        if chaos.empty_receive_probability > 0.0
            && state.rng.chance(chaos.empty_receive_probability)
        {
            return Ok(None);
        }

        // No ordering guarantee: draw a random visible message.
        let pool_len = state.visible.len() as u32;
        let idx = state.rng.next_below(pool_len) as usize;

        let duplicate = chaos.duplicate_delivery_probability > 0.0
            && state.rng.chance(chaos.duplicate_delivery_probability);

        let receipt = ReceiptHandle(self.next_receipt.fetch_add(1, Ordering::Relaxed));
        let deadline = now + self.config.visibility_timeout;

        if duplicate {
            // Hand out a copy but leave the original visible: a second
            // consumer can receive it immediately. The duplicate's receipt is
            // real and deletable; whichever delete lands first wins.
            self.stats
                .duplicate_deliveries
                .fetch_add(1, Ordering::Relaxed);
            let m = &mut state.visible[idx];
            m.receive_count += 1;
            let delivered = Message {
                id: m.id,
                body: m.body.clone(),
                receipt,
                receive_count: m.receive_count,
            };
            let copy = StoredMessage {
                id: m.id,
                body: m.body.clone(),
                receive_count: m.receive_count,
                sent_at: m.sent_at,
            };
            state.in_flight.insert(
                receipt,
                InFlight {
                    msg: copy,
                    deadline,
                },
            );
            self.note_lease(state, deadline);
            return Ok(Some(delivered));
        }

        let mut msg = state.visible.swap_remove(idx);
        msg.receive_count += 1;
        let delivered = Message {
            id: msg.id,
            body: msg.body.clone(),
            receipt,
            receive_count: msg.receive_count,
        };
        state.in_flight.insert(receipt, InFlight { msg, deadline });
        self.note_lease(state, deadline);
        Ok(Some(delivered))
    }

    /// Account for a lease added or shortened to `deadline`: parked long
    /// polls re-arm their timers if it is now the earliest expiry.
    fn note_lease(&self, state: &mut State, deadline: Instant) {
        if state.next_expiry.is_none_or(|t| deadline < t) {
            state.next_expiry = Some(deadline);
            self.wake_waiters(state);
        }
    }

    /// Delete a message using the receipt from its most recent receive.
    ///
    /// If the visibility timeout already lapsed and the message went back to
    /// the pool (or was re-received by someone else), the receipt is stale
    /// and deletion fails with `InvalidState`: the work will be redone, and
    /// idempotence is the application's job — the contract the paper calls
    /// out explicitly.
    ///
    /// Duplicate-delivery special case: if *some* delivery of the same
    /// message id was already deleted, deleting another receipt of it
    /// succeeds silently (the message is simply gone).
    pub fn delete(&self, receipt: ReceiptHandle) -> Result<()> {
        let now = Instant::now();
        let mut state = self.state.lock();
        if self.roll_transient(&mut state, "delete").is_err() {
            self.stats.failed_deletes.fetch_add(1, Ordering::Relaxed);
            return Err(PpcError::Transient(format!(
                "queue '{}': injected delete failure",
                self.name
            )));
        }
        self.expire_in_flight(&mut state, now);
        match state.in_flight.remove(&receipt) {
            Some(f) => {
                // Purge any other live copies of this id (duplicate deliveries
                // and still-visible originals): delete is by message, and the
                // receipt proves ownership of it.
                state.visible.retain(|m| m.id != f.msg.id);
                state.in_flight.retain(|_, other| other.msg.id != f.msg.id);
                self.stats.deletes.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            None => {
                self.stats.failed_deletes.fetch_add(1, Ordering::Relaxed);
                Err(PpcError::InvalidState(format!(
                    "queue '{}': receipt {receipt} is stale (visibility timeout lapsed?)",
                    self.name
                )))
            }
        }
    }

    /// Extend (or shrink) the visibility of an in-flight message — SQS's
    /// `ChangeMessageVisibility`, used by long-running workers to keep a
    /// lease alive.
    pub fn change_visibility(&self, receipt: ReceiptHandle, timeout: Duration) -> Result<()> {
        let now = Instant::now();
        let mut state = self.state.lock();
        self.expire_in_flight(&mut state, now);
        match state.in_flight.get_mut(&receipt) {
            Some(f) => {
                let deadline = now + timeout;
                f.deadline = deadline;
                self.note_lease(&mut state, deadline);
                Ok(())
            }
            None => Err(PpcError::InvalidState(format!(
                "queue '{}': receipt {receipt} is stale",
                self.name
            ))),
        }
    }

    /// Approximate number of visible messages (monitoring only — racy by
    /// nature, like SQS's `ApproximateNumberOfMessages`).
    pub fn approximate_len(&self) -> usize {
        let mut state = self.state.lock();
        self.expire_in_flight(&mut state, Instant::now());
        state.visible.len()
    }

    /// Approximate number of in-flight (received, undeleted) messages.
    pub fn approximate_in_flight(&self) -> usize {
        let mut state = self.state.lock();
        self.expire_in_flight(&mut state, Instant::now());
        state.in_flight.len()
    }

    /// Age of the oldest *visible* message — CloudWatch's
    /// `ApproximateAgeOfOldestMessage`, the backlog signal autoscalers key
    /// off. `None` when nothing is visible.
    pub fn approximate_age_of_oldest(&self) -> Option<Duration> {
        let mut state = self.state.lock();
        self.expire_in_flight(&mut state, Instant::now());
        state.visible.iter().map(|m| m.sent_at.elapsed()).max()
    }

    /// All monitoring metrics in one consistent read (one lock hold): the
    /// feed for `ppc-autoscale` controllers.
    pub fn metrics_snapshot(&self) -> QueueMetricsSnapshot {
        let now = Instant::now();
        let mut state = self.state.lock();
        self.expire_in_flight(&mut state, now);
        QueueMetricsSnapshot {
            visible: state.visible.len(),
            in_flight: state.in_flight.len(),
            oldest_age: state
                .visible
                .iter()
                .map(|m| now.saturating_duration_since(m.sent_at))
                .max(),
        }
    }

    /// True when no message is visible nor in flight.
    pub fn is_drained(&self) -> bool {
        let mut state = self.state.lock();
        self.expire_in_flight(&mut state, Instant::now());
        state.visible.is_empty() && state.in_flight.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_queue(visibility_ms: u64) -> Queue {
        Queue::new(
            "q",
            QueueConfig {
                visibility_timeout: Duration::from_millis(visibility_ms),
                ..QueueConfig::default()
            },
        )
    }

    #[test]
    fn send_receive_delete_lifecycle() {
        let q = quick_queue(10_000);
        let id = q.send("task 1").unwrap();
        let m = q.receive().unwrap().expect("message available");
        assert_eq!(m.id, id);
        assert_eq!(m.body, "task 1");
        assert_eq!(m.receive_count, 1);
        assert!(!m.is_redelivery());
        // Hidden while in flight.
        assert!(q.receive().unwrap().is_none());
        q.delete(m.receipt).unwrap();
        assert!(q.is_drained());
    }

    #[test]
    fn oldest_message_age_tracks_backlog() {
        let q = quick_queue(10_000);
        assert!(
            q.approximate_age_of_oldest().is_none(),
            "empty queue has no age"
        );
        q.send("old").unwrap();
        std::thread::sleep(Duration::from_millis(30));
        q.send("new").unwrap();
        let age = q.approximate_age_of_oldest().expect("backlog");
        assert!(
            age >= Duration::from_millis(30),
            "age {age:?} reflects the oldest"
        );
        // Draining the oldest drops the age.
        let mut drained_old = false;
        while let Some(m) = q.receive().unwrap() {
            if m.body == "old" {
                q.delete(m.receipt).unwrap();
                drained_old = true;
                break;
            }
            // put "new" back via timeout not needed; just delete it too
            q.delete(m.receipt).unwrap();
        }
        assert!(drained_old || q.approximate_age_of_oldest().is_none());
    }

    #[test]
    fn delayed_send_hides_until_delay_lapses() {
        let q = quick_queue(10_000);
        q.send_delayed("later", Duration::from_millis(40)).unwrap();
        assert!(q.receive().unwrap().is_none(), "hidden during the delay");
        std::thread::sleep(Duration::from_millis(60));
        let m = q.receive().unwrap().expect("visible after the delay");
        assert_eq!(m.body, "later");
        assert_eq!(m.receive_count, 1, "the delay itself is not a delivery");
        q.delete(m.receipt).unwrap();
    }

    #[test]
    fn visibility_timeout_redelivers() {
        let q = quick_queue(30);
        q.send("t").unwrap();
        let first = q.receive().unwrap().unwrap();
        assert!(q.receive().unwrap().is_none(), "hidden during timeout");
        std::thread::sleep(Duration::from_millis(60));
        let second = q.receive().unwrap().expect("reappears after timeout");
        assert_eq!(second.id, first.id);
        assert_eq!(second.receive_count, 2);
        assert!(second.is_redelivery());
        // The original receipt is now stale.
        assert_eq!(q.delete(first.receipt).unwrap_err().code(), "InvalidState");
        // The fresh receipt works.
        q.delete(second.receipt).unwrap();
        assert!(q.is_drained());
    }

    #[test]
    fn staggered_leases_each_expire() {
        // The first expiry scan must keep a bound for the lease still out.
        let q = quick_queue(10_000);
        q.send("short").unwrap();
        q.send("long").unwrap();
        let a = q.receive().unwrap().unwrap();
        let b = q.receive().unwrap().unwrap();
        let (short, long) = if a.body == "short" { (a, b) } else { (b, a) };
        q.change_visibility(short.receipt, Duration::from_millis(20))
            .unwrap();
        q.change_visibility(long.receipt, Duration::from_millis(400))
            .unwrap();
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(q.receive().unwrap().unwrap().id, short.id);
        assert!(q.receive().unwrap().is_none(), "long lease still out");
        std::thread::sleep(Duration::from_millis(400));
        assert_eq!(q.receive().unwrap().unwrap().id, long.id);
    }

    #[test]
    fn shortened_lease_expires_early() {
        let q = quick_queue(10_000);
        q.send("t").unwrap();
        let m = q.receive().unwrap().unwrap();
        q.change_visibility(m.receipt, Duration::from_millis(20))
            .unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let again = q.receive().unwrap().expect("shortened lease lapsed");
        assert_eq!(again.receive_count, 2);
    }

    #[test]
    fn change_visibility_extends_lease() {
        let q = quick_queue(40);
        q.send("t").unwrap();
        let m = q.receive().unwrap().unwrap();
        q.change_visibility(m.receipt, Duration::from_millis(300))
            .unwrap();
        std::thread::sleep(Duration::from_millis(80));
        assert!(
            q.receive().unwrap().is_none(),
            "lease extended past original timeout"
        );
        q.delete(m.receipt).unwrap();
    }

    #[test]
    fn no_ordering_guarantee() {
        // With many messages, delivery order differs from send order for
        // at least one position (probability of identity ~ 1/100!).
        let q = quick_queue(60_000);
        for i in 0..100 {
            q.send(format!("{i}")).unwrap();
        }
        let mut got = Vec::new();
        while let Some(m) = q.receive().unwrap() {
            got.push(m.body.parse::<u32>().unwrap());
            q.delete(m.receipt).unwrap();
        }
        assert_eq!(got.len(), 100);
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            (0..100).collect::<Vec<_>>(),
            "all messages delivered"
        );
        assert_ne!(got, sorted, "but not in FIFO order");
    }

    #[test]
    fn empty_receive_chaos() {
        let cfg = QueueConfig {
            visibility_timeout: Duration::from_secs(30),
            chaos: ChaosConfig {
                empty_receive_probability: 1.0,
                ..ChaosConfig::NONE
            },
            seed: 3,
        };
        let q = Queue::new("q", cfg);
        q.send("x").unwrap();
        for _ in 0..5 {
            assert!(q.receive().unwrap().is_none(), "always empty under p=1");
        }
        assert_eq!(
            q.approximate_len(),
            1,
            "message still there, eventually available"
        );
    }

    #[test]
    fn duplicate_delivery_then_single_delete_purges() {
        let cfg = QueueConfig {
            visibility_timeout: Duration::from_secs(30),
            chaos: ChaosConfig {
                duplicate_delivery_probability: 1.0,
                ..ChaosConfig::NONE
            },
            seed: 5,
        };
        let q = Queue::new("q", cfg);
        q.send("x").unwrap();
        let a = q.receive().unwrap().unwrap();
        let b = q.receive().unwrap().unwrap();
        assert_eq!(a.id, b.id, "same message delivered twice");
        assert!(b.receive_count > a.receive_count);
        q.delete(b.receipt).unwrap();
        assert!(q.is_drained(), "deleting one receipt purges all copies");
        // Deleting the other receipt now fails (message gone) but that is a
        // stale-receipt error the worker loop tolerates.
        assert!(q.delete(a.receipt).is_err());
        assert_eq!(q.stats().duplicate_deliveries.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn transient_errors_injected() {
        let cfg = QueueConfig {
            visibility_timeout: Duration::from_secs(30),
            chaos: ChaosConfig {
                transient_error_probability: 1.0,
                ..ChaosConfig::NONE
            },
            seed: 7,
        };
        let q = Queue::new("q", cfg);
        assert!(q.send("x").unwrap_err().is_retryable());
    }

    #[test]
    fn metrics_snapshot_is_consistent() {
        let q = quick_queue(10_000);
        for i in 0..5 {
            q.send(format!("{i}")).unwrap();
        }
        let a = q.receive().unwrap().unwrap();
        let _b = q.receive().unwrap().unwrap();
        let snap = q.metrics_snapshot();
        assert_eq!(snap.visible, 3);
        assert_eq!(snap.in_flight, 2);
        assert_eq!(snap.outstanding(), 5);
        assert!(snap.oldest_age.is_some());
        q.delete(a.receipt).unwrap();
        assert_eq!(q.metrics_snapshot().outstanding(), 4);
        // Empty queue: no age.
        let empty = Queue::new("e", QueueConfig::default());
        let snap = empty.metrics_snapshot();
        assert_eq!(snap.outstanding(), 0);
        assert!(snap.oldest_age.is_none());
    }

    #[test]
    fn stats_count_requests() {
        let q = quick_queue(10_000);
        q.send("a").unwrap();
        q.send("b").unwrap();
        let m = q.receive().unwrap().unwrap();
        q.receive().unwrap().unwrap();
        q.receive().unwrap(); // empty
        q.delete(m.receipt).unwrap();
        let s = q.stats();
        assert_eq!(s.sends.load(Ordering::Relaxed), 2);
        assert_eq!(s.receives.load(Ordering::Relaxed), 3);
        assert_eq!(s.empty_receives.load(Ordering::Relaxed), 1);
        assert_eq!(s.deletes.load(Ordering::Relaxed), 1);
        assert_eq!(s.requests(), 6);
    }

    #[test]
    fn concurrent_consumers_each_message_processed() {
        use std::collections::HashSet;
        use std::sync::Mutex as StdMutex;
        let q = std::sync::Arc::new(quick_queue(10_000));
        let n = 200;
        for i in 0..n {
            q.send(format!("{i}")).unwrap();
        }
        let seen: std::sync::Arc<StdMutex<HashSet<String>>> = Default::default();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let q = q.clone();
                let seen = seen.clone();
                s.spawn(move || loop {
                    match q.receive().unwrap() {
                        Some(m) => {
                            seen.lock().unwrap().insert(m.body.clone());
                            q.delete(m.receipt).unwrap();
                        }
                        None => {
                            if q.is_drained() {
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                });
            }
        });
        assert_eq!(seen.lock().unwrap().len(), n);
        assert!(q.is_drained());
    }
}
