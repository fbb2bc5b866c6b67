//! The event queue behind the [`Engine`](crate::Engine).
//!
//! The engine stores event payloads (boxed closures) in a slab and pushes
//! only light `(time, sequence, slot)` [`EventEntry`] keys into a binary
//! heap, `BinaryHeap<Reverse<EventEntry>>`, which pops them in ascending
//! `(time, sequence)` order: time order with insertion-order FIFO
//! tie-breaks. That order is what keeps whole platform simulations
//! bit-for-bit reproducible; `tests/sim_fidelity.rs` at the workspace root
//! pins sim reports to committed digests.
//!
//! [`EventQueue`] and [`QueueKind`] give code outside the engine (the
//! benchmarks, the differential tests) the same heap behind a trait object.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The key a queue orders: event time, global insertion sequence (the
/// FIFO tie-break), and the slab slot holding the event's payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventEntry {
    pub at: SimTime,
    pub seq: u64,
    pub idx: u32,
}

/// A priority queue of [`EventEntry`] keys popped in ascending
/// `(at, seq)` order.
///
/// The queue never interprets `idx` and never drops entries on its own:
/// cancellation is the engine's job (it marks the slab slot dead and skips
/// the stale key when it surfaces), which is what makes `cancel` O(1).
pub trait EventQueue {
    /// Insert a key.
    fn push(&mut self, e: EventEntry);

    /// Remove and return the smallest `(at, seq)` key.
    fn pop(&mut self) -> Option<EventEntry>;

    /// The smallest `(at, seq)` key without removing it.
    fn peek(&self) -> Option<EventEntry>;

    /// Keys currently stored (including keys whose slab slot the engine
    /// has since cancelled — those are skipped at pop time).
    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl EventQueue for BinaryHeap<Reverse<EventEntry>> {
    fn push(&mut self, e: EventEntry) {
        BinaryHeap::push(self, Reverse(e));
    }

    fn pop(&mut self) -> Option<EventEntry> {
        BinaryHeap::pop(self).map(|Reverse(e)| e)
    }

    fn peek(&self) -> Option<EventEntry> {
        BinaryHeap::peek(self).map(|&Reverse(e)| e)
    }

    fn len(&self) -> usize {
        BinaryHeap::len(self)
    }
}

/// The event queue an [`Engine`](crate::Engine) runs on. The binary heap is
/// the only one; the enum remains so that code naming a backend
/// ([`Engine::with_queue`](crate::Engine::with_queue), benchmarks that
/// print it) keeps working.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QueueKind {
    #[default]
    BinaryHeap,
}

impl QueueKind {
    pub fn name(self) -> &'static str {
        "heap"
    }

    /// The binary heap, after checking `PPC_DES_QUEUE`: unset or `heap` is
    /// accepted; any other value panics, because the timing-wheel and
    /// calendar-queue backends it used to select were removed and a script
    /// that still asks for them would otherwise measure the heap unawares.
    pub fn from_env() -> QueueKind {
        use std::sync::OnceLock;
        static CHECKED: OnceLock<QueueKind> = OnceLock::new();
        *CHECKED.get_or_init(|| QueueKind::parse(std::env::var("PPC_DES_QUEUE").ok().as_deref()))
    }

    fn parse(var: Option<&str>) -> QueueKind {
        match var {
            None | Some("heap") => QueueKind::BinaryHeap,
            Some(other) => panic!(
                "PPC_DES_QUEUE={other:?}: the timing-wheel and calendar-queue backends were \
                 removed; the binary heap is the only event queue (set heap or unset it)"
            ),
        }
    }

    /// A fresh queue behind the trait, for code that drives a bare queue.
    pub fn boxed(self) -> Box<dyn EventQueue> {
        Box::new(BinaryHeap::<Reverse<EventEntry>>::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(at: u64, seq: u64) -> EventEntry {
        EventEntry {
            at: SimTime::from_micros(at),
            seq,
            idx: seq as u32,
        }
    }

    /// The queue drains an arbitrary push set in (at, seq) order.
    #[test]
    fn drains_in_time_then_sequence_order() {
        let pushes = [
            entry(50, 0),
            entry(10, 1),
            entry(50, 2),
            entry(0, 3),
            entry(1_000_000_000, 4), // ~17 sim-minutes out
            entry(10, 5),
            entry(u64::MAX, 6), // saturated far horizon
            entry(0, 7),
        ];
        let mut want: Vec<EventEntry> = pushes.to_vec();
        want.sort();
        let mut q = QueueKind::BinaryHeap.boxed();
        for e in pushes {
            q.push(e);
        }
        assert_eq!(q.len(), pushes.len());
        let mut got = Vec::new();
        while let Some(e) = q.pop() {
            got.push(e);
        }
        assert_eq!(got, want);
        assert!(q.is_empty());
    }

    /// Interleaved push/pop: pushes at or after the last popped time keep
    /// ordering.
    #[test]
    fn orders_pushes_made_between_pops() {
        let mut q = QueueKind::BinaryHeap.boxed();
        q.push(entry(5, 0));
        q.push(entry(7, 1));
        assert_eq!(q.peek().unwrap().seq, 0);
        assert_eq!(q.pop().unwrap().seq, 0);
        // Now at t=5: schedule two more, one at "now", one far out.
        q.push(entry(5, 2));
        q.push(entry(100_000, 3));
        assert_eq!(q.pop().unwrap().seq, 2, "same-time push");
        assert_eq!(q.pop().unwrap().seq, 1);
        assert_eq!(q.pop().unwrap().seq, 3);
        assert!(q.pop().is_none());
    }

    #[test]
    fn env_accepts_only_the_heap() {
        assert_eq!(QueueKind::parse(None), QueueKind::BinaryHeap);
        assert_eq!(QueueKind::parse(Some("heap")), QueueKind::BinaryHeap);
        assert_eq!(QueueKind::BinaryHeap.name(), "heap");
        for removed in ["wheel", "calendar", "", "HEAP"] {
            let err =
                std::panic::catch_unwind(|| QueueKind::parse(Some(removed))).expect_err(removed);
            let msg = err
                .downcast_ref::<String>()
                .expect("formatted panic message");
            assert!(msg.contains("backends were removed"), "{removed:?}: {msg}");
        }
    }
}
