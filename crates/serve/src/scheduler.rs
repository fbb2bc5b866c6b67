//! Weighted deficit-round-robin (DRR) fair-share scheduling.
//!
//! Each tenant owns a *lane* (FIFO queue, apart from interactive
//! front-insertions). Backlogged lanes sit on a round-robin ring; a lane
//! visited with insufficient credit is topped up by `weight × quantum`
//! cpu-seconds and rotated, so over any backlogged interval tenant
//! throughput converges to the weight proportions regardless of job
//! sizes — a tenant submitting 10× bigger jobs simply gets served 10×
//! less often. Classic DRR per Shreedhar & Varghese, adapted to dispatch
//! one job per call so the caller can interleave capacity checks.

use std::collections::VecDeque;

/// One queued job as the scheduler sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueuedJob {
    /// Raw [`crate::JobId`] value.
    pub job: u64,
    /// Deficit currency: reference cpu-seconds.
    pub demand_s: f64,
    pub submitted_s: f64,
}

#[derive(Debug, Clone)]
struct Lane {
    weight: u32,
    deficit_s: f64,
    queue: VecDeque<QueuedJob>,
    in_ring: bool,
    /// Whether the lane's next visit starts a fresh turn (grants one
    /// `weight × quantum` top-up). False while the lane is mid-burst at
    /// the ring front spending leftover credit — topping up on every
    /// dequeue call would let one lane burst through its whole queue.
    fresh: bool,
}

/// The scheduler: lanes indexed by tenant, plus the active ring.
#[derive(Debug, Clone)]
pub struct DrrScheduler {
    quantum_s: f64,
    lanes: Vec<Lane>,
    ring: VecDeque<u32>,
}

impl DrrScheduler {
    /// `quantum_s` is the credit granted per ring visit to a weight-1
    /// lane; any positive value is fair, smaller values interleave
    /// tenants more finely.
    pub fn new(quantum_s: f64, weights: &[u32]) -> DrrScheduler {
        assert!(quantum_s > 0.0, "quantum must be positive");
        assert!(
            weights.iter().all(|&w| w > 0),
            "fair-share weights must be positive"
        );
        DrrScheduler {
            quantum_s,
            lanes: weights
                .iter()
                .map(|&w| Lane {
                    weight: w,
                    deficit_s: 0.0,
                    queue: VecDeque::new(),
                    in_ring: false,
                    fresh: true,
                })
                .collect(),
            ring: VecDeque::new(),
        }
    }

    /// Append a job to `lane` (or push it to the lane's front for
    /// interactive priority).
    pub fn enqueue(&mut self, lane: usize, job: QueuedJob, front: bool) {
        let l = &mut self.lanes[lane];
        if front {
            l.queue.push_front(job);
        } else {
            l.queue.push_back(job);
        }
        if !l.in_ring {
            l.in_ring = true;
            self.ring.push_back(lane as u32);
        }
    }

    /// Earliest submission time among lane heads — the queue-age signal
    /// fed to the autoscaler (approximate under front-insertions).
    pub fn oldest_submitted(&self) -> Option<f64> {
        self.lanes
            .iter()
            .filter_map(|l| l.queue.front().map(|j| j.submitted_s))
            .min_by(|a, b| a.partial_cmp(b).unwrap())
    }

    /// Dispatch the next job among lanes for which `eligible(lane)` holds
    /// (the caller's running-quota check). Returns `None` when nothing is
    /// queued or no eligible lane exists. A lane that drains its queue
    /// forfeits leftover credit — the standard DRR rule that stops idle
    /// tenants banking unbounded deficit.
    pub fn dequeue(
        &mut self,
        mut eligible: impl FnMut(usize) -> bool,
    ) -> Option<(usize, QueuedJob)> {
        loop {
            let len = self.ring.len();
            if len == 0 {
                return None;
            }
            let mut any_eligible = false;
            for _ in 0..len {
                let idx = self.ring.pop_front().unwrap() as usize;
                let quantum_s = self.quantum_s;
                let lane = &mut self.lanes[idx];
                if lane.queue.is_empty() {
                    lane.in_ring = false;
                    lane.deficit_s = 0.0;
                    lane.fresh = true;
                    continue;
                }
                if !eligible(idx) {
                    self.ring.push_back(idx as u32);
                    continue;
                }
                any_eligible = true;
                if lane.fresh {
                    lane.deficit_s += lane.weight as f64 * quantum_s;
                    lane.fresh = false;
                }
                if lane.queue.front().unwrap().demand_s <= lane.deficit_s {
                    let job = lane.queue.pop_front().unwrap();
                    lane.deficit_s -= job.demand_s;
                    if lane.queue.is_empty() {
                        // Standard DRR: a drained lane forfeits credit.
                        lane.in_ring = false;
                        lane.deficit_s = 0.0;
                        lane.fresh = true;
                    } else {
                        // Leftover credit: the burst continues next call.
                        self.ring.push_front(idx as u32);
                    }
                    return Some((idx, job));
                }
                // Turn over: rotate away; the next visit is a fresh turn.
                lane.fresh = true;
                self.ring.push_back(idx as u32);
            }
            // A full rotation with no eligible lane proves nothing can be
            // served; with eligible-but-unaffordable lanes, credit grew,
            // so another rotation makes progress.
            if !any_eligible {
                return None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: u64, demand: f64, at: f64) -> QueuedJob {
        QueuedJob {
            job: id,
            demand_s: demand,
            submitted_s: at,
        }
    }

    fn drain_order(s: &mut DrrScheduler) -> Vec<(usize, u64)> {
        let mut out = Vec::new();
        while let Some((lane, j)) = s.dequeue(|_| true) {
            out.push((lane, j.job));
        }
        out
    }

    #[test]
    fn equal_weights_alternate() {
        let mut s = DrrScheduler::new(10.0, &[1, 1]);
        for i in 0..4 {
            s.enqueue(0, job(i, 10.0, i as f64), false);
            s.enqueue(1, job(100 + i, 10.0, i as f64), false);
        }
        let lanes: Vec<usize> = drain_order(&mut s).iter().map(|(l, _)| *l).collect();
        assert_eq!(lanes, vec![0, 1, 0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn weights_set_throughput_ratio() {
        // Weight 3 vs 1, equal unit jobs: served counts track 3:1.
        let mut s = DrrScheduler::new(1.0, &[3, 1]);
        for i in 0..300 {
            s.enqueue(0, job(i, 1.0, 0.0), false);
        }
        for i in 0..300 {
            s.enqueue(1, job(1000 + i, 1.0, 0.0), false);
        }
        let first = drain_order(&mut s);
        let lane0_early = first[..200].iter().filter(|(l, _)| *l == 0).count();
        assert!(
            (140..=160).contains(&lane0_early),
            "weight-3 lane got {lane0_early}/200 of the early grants"
        );
    }

    #[test]
    fn big_jobs_do_not_hog() {
        // Lane 0 submits 10× bigger jobs at equal weight: over the
        // backlogged window it must be served ~10× less often, so served
        // *demand* stays near 1:1.
        let mut s = DrrScheduler::new(5.0, &[1, 1]);
        for i in 0..20 {
            s.enqueue(0, job(i, 50.0, 0.0), false);
        }
        for i in 0..200 {
            s.enqueue(1, job(1000 + i, 5.0, 0.0), false);
        }
        let mut served = [0.0f64, 0.0];
        for _ in 0..110 {
            let (lane, j) = s.dequeue(|_| true).unwrap();
            served[lane] += j.demand_s;
        }
        let ratio = served[0] / served[1];
        assert!(
            (0.7..=1.4).contains(&ratio),
            "served demand ratio {ratio} strayed from fair share"
        );
    }

    #[test]
    fn ineligible_lanes_are_skipped_without_starving_others() {
        let mut s = DrrScheduler::new(10.0, &[1, 1]);
        s.enqueue(0, job(0, 1.0, 0.0), false);
        s.enqueue(1, job(1, 1.0, 0.0), false);
        let got = s.dequeue(|lane| lane != 0).unwrap();
        assert_eq!(got.0, 1);
        // Lane 0 still queued; nobody eligible ⇒ None, no livelock.
        assert!(s.dequeue(|_| false).is_none());
        assert_eq!(s.dequeue(|_| true).unwrap().0, 0);
    }

    #[test]
    fn front_insertion_jumps_own_lane_only() {
        let mut s = DrrScheduler::new(1.0, &[1, 1]);
        s.enqueue(0, job(0, 1.0, 0.0), false);
        s.enqueue(0, job(1, 1.0, 1.0), true); // interactive
        s.enqueue(1, job(2, 1.0, 0.0), false);
        let order: Vec<u64> = drain_order(&mut s).iter().map(|(_, j)| *j).collect();
        // Job 1 beat job 0 within lane 0, but lane 1 kept its turn.
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn drained_lane_forfeits_credit() {
        // Lane 0 drains (forfeiting leftover credit), then both lanes
        // refill with 60-demand jobs under a 100 quantum. Had lane 0 kept
        // its 99 s of banked credit it could serve two jobs before lane 1
        // got one; with forfeiture the lanes alternate.
        let mut s = DrrScheduler::new(100.0, &[1, 1]);
        s.enqueue(0, job(0, 1.0, 0.0), false);
        assert_eq!(s.dequeue(|_| true).unwrap().1.job, 0);
        for i in 0..2 {
            s.enqueue(0, job(10 + i, 60.0, 0.0), false);
            s.enqueue(1, job(20 + i, 60.0, 0.0), false);
        }
        let lanes: Vec<usize> = drain_order(&mut s).iter().map(|(l, _)| *l).collect();
        assert_eq!(lanes, vec![0, 1, 0, 1]);
    }

    #[test]
    fn oldest_submitted_tracks_lane_heads() {
        let mut s = DrrScheduler::new(10.0, &[1, 1]);
        assert_eq!(s.oldest_submitted(), None);
        s.enqueue(0, job(0, 1.0, 5.0), false);
        s.enqueue(1, job(1, 1.0, 2.0), false);
        assert_eq!(s.oldest_submitted(), Some(2.0));
    }

    #[test]
    fn huge_demand_eventually_served() {
        // A job 1000× the quantum must still be dispatched (credit
        // accumulates across rotations rather than livelocking).
        let mut s = DrrScheduler::new(1.0, &[1, 1]);
        s.enqueue(0, job(0, 1000.0, 0.0), false);
        s.enqueue(1, job(1, 1.0, 0.0), false);
        let mut got = Vec::new();
        while let Some((_, j)) = s.dequeue(|_| true) {
            got.push(j.job);
        }
        assert_eq!(got.len(), 2);
        assert!(got.contains(&0));
    }
}
