//! Queueing resources for platform models.
//!
//! [`FifoServer`] models one server with an unbounded FIFO queue: the
//! Classic sim's per-node NIC uplink, when NIC contention is modeled.

use crate::engine::Engine;
use crate::time::SimTime;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

type DoneFn = Box<dyn FnOnce(&mut Engine)>;

struct Job {
    service: SimTime,
    on_done: DoneFn,
}

#[derive(Default)]
struct Inner {
    busy: bool,
    waiting: VecDeque<Job>,
}

/// A one-server FIFO queueing station. Cheap to clone (shared handle).
#[derive(Clone, Default)]
pub struct FifoServer {
    inner: Rc<RefCell<Inner>>,
}

impl FifoServer {
    pub fn new() -> FifoServer {
        FifoServer::default()
    }

    /// Submit a job needing `service` time; `on_done` fires at completion.
    /// Starts immediately if the server is free, otherwise queues FIFO.
    pub fn submit(
        &self,
        engine: &mut Engine,
        service: SimTime,
        on_done: impl FnOnce(&mut Engine) + 'static,
    ) {
        let on_done: DoneFn = Box::new(on_done);
        let mut inner = self.inner.borrow_mut();
        if inner.busy {
            inner.waiting.push_back(Job { service, on_done });
        } else {
            inner.busy = true;
            drop(inner);
            self.begin(engine, service, on_done);
        }
    }

    fn begin(&self, engine: &mut Engine, service: SimTime, on_done: DoneFn) {
        let this = self.clone();
        engine.schedule_in(service, move |e| this.finish(e, on_done));
    }

    fn finish(&self, engine: &mut Engine, on_done: DoneFn) {
        // Hand the server to the next waiter *before* invoking the
        // completion callback, so the callback sees a consistent station.
        let next = {
            let mut inner = self.inner.borrow_mut();
            let next = inner.waiting.pop_front();
            inner.busy = next.is_some();
            next
        };
        if let Some(job) = next {
            self.begin(engine, job.service, job.on_done);
        }
        on_done(engine);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn run_jobs(jobs: &[(u64, u64)]) -> (Vec<(u64, u64)>, SimTime) {
        // jobs: (arrival_s, service_s); returns (job index, completion time_s).
        let mut e = Engine::new();
        let server = FifoServer::new();
        let done: Rc<RefCell<Vec<(u64, u64)>>> = Rc::default();
        for (idx, &(arr, svc)) in jobs.iter().enumerate() {
            let server = server.clone();
            let done = done.clone();
            e.schedule_at(SimTime::from_secs(arr), move |e| {
                let done = done.clone();
                server.submit(e, SimTime::from_secs(svc), move |e| {
                    done.borrow_mut()
                        .push((idx as u64, e.now().as_micros() / 1_000_000));
                });
            });
        }
        let end = e.run();
        let result = done.borrow().clone();
        (result, end)
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
