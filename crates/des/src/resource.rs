//! Queueing resources for platform models.
//!
//! [`FifoServer`] models one server with an unbounded FIFO queue: the
//! Classic sim's per-node NIC uplink, when NIC contention is modeled.

use crate::engine::Engine;
use crate::time::SimTime;
use std::collections::VecDeque;

/// A one-server FIFO queueing station on a typed [`Engine`]. A job is its
/// service time plus the event that marks its completion; the owner hands
/// that event back through [`FifoServer::finish`] when it fires.
pub struct FifoServer<E> {
    busy: bool,
    waiting: VecDeque<(SimTime, E)>,
}

impl<E> Default for FifoServer<E> {
    fn default() -> Self {
        FifoServer {
            busy: false,
            waiting: VecDeque::new(),
        }
    }
}

impl<E> FifoServer<E> {
    pub fn new() -> FifoServer<E> {
        FifoServer::default()
    }

    /// Submit a job needing `service` time whose completion is the event
    /// `done`. Starts immediately (posting `done` `service` from now) if
    /// the server is free, otherwise queues FIFO.
    pub fn submit(&mut self, engine: &mut Engine<E>, service: SimTime, done: E) {
        if self.busy {
            self.waiting.push_back((service, done));
        } else {
            self.busy = true;
            engine.post_in(service, done);
        }
    }

    /// The job in service completed: hand the server to the next waiter,
    /// posting its completion. Call this when a `done` event fires,
    /// *before* acting on it, so the completion's continuation sees a
    /// consistent station and the next job's completion ties ahead of
    /// whatever the continuation posts.
    pub fn finish(&mut self, engine: &mut Engine<E>) {
        match self.waiting.pop_front() {
            Some((service, done)) => {
                engine.post_in(service, done);
            }
            None => self.busy = false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Fired;

    /// One event of the test model: job `idx` arrives, or completes.
    #[derive(Clone, Copy)]
    enum Ev {
        Arrive(usize),
        Done(usize),
    }

    fn run_jobs(jobs: &[(u64, u64)]) -> (Vec<(u64, u64)>, SimTime) {
        // jobs: (arrival_s, service_s); returns (job index, completion time_s).
        let mut e: Engine<Ev> = Engine::typed();
        let mut server = FifoServer::new();
        let mut done = Vec::new();
        for (idx, &(arr, _)) in jobs.iter().enumerate() {
            e.post_at(SimTime::from_secs(arr), Ev::Arrive(idx));
        }
        let end = e.run_with(|e, fired| match fired {
            Fired::Event(Ev::Arrive(idx)) => {
                server.submit(e, SimTime::from_secs(jobs[idx].1), Ev::Done(idx))
            }
            Fired::Event(Ev::Done(idx)) => {
                server.finish(e);
                done.push((idx as u64, e.now().as_micros() / 1_000_000));
            }
            Fired::Tick(_) => unreachable!(),
        });
        (done, end)
    }

    #[test]
    fn single_server_serializes() {
        // Two jobs arriving together on one server finish at 5 and 10.
        let (done, end) = run_jobs(&[(0, 5), (0, 5)]);
        assert_eq!(done, vec![(0, 5), (1, 10)]);
        assert_eq!(end, SimTime::from_secs(10));
    }

    #[test]
    fn fifo_order_respected() {
        // Three jobs, one server: later-submitted short job still waits.
        let (done, _) = run_jobs(&[(0, 10), (1, 1), (2, 1)]);
        assert_eq!(done, vec![(0, 10), (1, 11), (2, 12)]);
    }
}
