//! The event-based fault schedule and its deterministic query API.

use ppc_core::rng::{Pcg32, SplitMix64};
use ppc_core::{PpcError, Result};
use std::time::Instant;

/// One scheduled infrastructure fault.
///
/// Workers are identified by a flat index; each engine maps its own
/// notion of a worker (fleet slot, node×slot, Dryad node) onto these
/// indices deterministically. Times are seconds since the start of the
/// run — wall clock for the native engines, virtual for the simulators.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// Kill worker `worker`'s process at time `at_s`. The engine's own
    /// fault-tolerance story (visibility timeout, attempt retry, vertex
    /// re-run, autoscaler replacement) must recover the in-flight work.
    KillAt { worker: u32, at_s: f64 },
    /// Kill worker `worker` in the middle of executing its `task_seq`-th
    /// task (0-based, counted per worker): the task's input was read and
    /// user code ran, but the worker dies during the output upload. The
    /// upload lands nothing: object-store PUTs commit atomically.
    KillMidExecute { worker: u32, task_seq: u32 },
    /// Gray failure: worker `worker` stays alive but runs slower by
    /// `factor` (≥ 1.0) over `[from_s, to_s)`.
    Degrade {
        worker: u32,
        factor: f64,
        from_s: f64,
        to_s: f64,
    },
    /// The storage service misbehaves over `[from_s, to_s)`.
    StorageOutage {
        fault: StorageFault,
        from_s: f64,
        to_s: f64,
    },
    /// Worker `worker`'s `task_seq`-th output upload is torn: the PUT
    /// fails partway, so (being atomic) it lands nothing, and the worker
    /// treats the upload as failed (the message is redelivered).
    TornUpload { worker: u32, task_seq: u32 },
}

/// How the storage service fails during a [`FaultEvent::StorageOutage`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageFault {
    /// Brownout: requests fail with a retryable transient error (clients
    /// with backoff ride it out).
    Brownout,
    /// Partition: the service is unreachable; requests fail transiently
    /// for the whole window, however often they are retried.
    Partition,
}

/// A deterministic, seedable schedule of infrastructure faults.
///
/// Two layers compose:
///
/// * **events** — the list above, queried by worker/time/sequence;
/// * **i.i.d. death probabilities** — the Classic Cloud pipeline-point
///   dice (`die_before_execute`, `die_mid_execute`, `die_before_delete`),
///   rolled as a pure hash of `(seed, roll kind, worker, task_seq)` so
///   the outcome does not depend on thread interleaving.
///
/// Every query is `&self` and pure; the schedule can be shared across
/// worker threads behind an `Arc` with no locking.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    seed: u64,
    events: Vec<FaultEvent>,
    /// i.i.d. probability a worker dies after receiving a message but
    /// before executing it.
    pub die_before_execute: f64,
    /// i.i.d. probability a worker dies mid-execution, tearing its
    /// output upload.
    pub die_mid_execute: f64,
    /// i.i.d. probability a worker dies after uploading its output but
    /// before deleting the queue message (duplicate-delivery exercise).
    pub die_before_delete: f64,
}

const ROLL_BEFORE_EXECUTE: u64 = 0x9e37_79b9_0000_0001;
const ROLL_MID_EXECUTE: u64 = 0x9e37_79b9_0000_0002;
const ROLL_BEFORE_DELETE: u64 = 0x9e37_79b9_0000_0003;

impl FaultSchedule {
    /// An empty schedule: nothing ever fails.
    pub fn none() -> FaultSchedule {
        FaultSchedule {
            seed: 0,
            events: Vec::new(),
            die_before_execute: 0.0,
            die_mid_execute: 0.0,
            die_before_delete: 0.0,
        }
    }

    /// An empty schedule with a seed, ready for builder calls.
    pub fn new(seed: u64) -> FaultSchedule {
        FaultSchedule {
            seed,
            ..FaultSchedule::none()
        }
    }

    /// The canonical hostile schedule the conformance suite runs on every
    /// engine: two timed kills, a mid-execution kill with a torn upload,
    /// one gray-degraded worker, one storage brownout window, plus mild
    /// i.i.d. death dice at every pipeline point.
    pub fn hostile(seed: u64) -> FaultSchedule {
        FaultSchedule::new(seed)
            .kill_at(0, 0.004)
            .kill_at(3, 0.012)
            .kill_mid_execute(1, 1)
            .torn_upload(2, 2)
            .degrade(2, 2.5, 0.0, 0.050)
            .brownout(0.002, 0.020)
            .with_death_probabilities(0.04, 0.04, 0.04)
    }

    // ---- builder -----------------------------------------------------

    pub fn kill_at(mut self, worker: u32, at_s: f64) -> FaultSchedule {
        self.events.push(FaultEvent::KillAt { worker, at_s });
        self
    }

    pub fn kill_mid_execute(mut self, worker: u32, task_seq: u32) -> FaultSchedule {
        self.events
            .push(FaultEvent::KillMidExecute { worker, task_seq });
        self
    }

    pub fn degrade(mut self, worker: u32, factor: f64, from_s: f64, to_s: f64) -> FaultSchedule {
        self.events.push(FaultEvent::Degrade {
            worker,
            factor,
            from_s,
            to_s,
        });
        self
    }

    pub fn brownout(mut self, from_s: f64, to_s: f64) -> FaultSchedule {
        self.events.push(FaultEvent::StorageOutage {
            fault: StorageFault::Brownout,
            from_s,
            to_s,
        });
        self
    }

    pub fn partition(mut self, from_s: f64, to_s: f64) -> FaultSchedule {
        self.events.push(FaultEvent::StorageOutage {
            fault: StorageFault::Partition,
            from_s,
            to_s,
        });
        self
    }

    pub fn torn_upload(mut self, worker: u32, task_seq: u32) -> FaultSchedule {
        self.events
            .push(FaultEvent::TornUpload { worker, task_seq });
        self
    }

    pub fn with_death_probabilities(
        mut self,
        before_execute: f64,
        mid_execute: f64,
        before_delete: f64,
    ) -> FaultSchedule {
        self.die_before_execute = before_execute;
        self.die_mid_execute = mid_execute;
        self.die_before_delete = before_delete;
        self
    }

    // ---- introspection ----------------------------------------------

    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Reject malformed schedules: probabilities outside `[0, 1]`,
    /// slowdown factors below 1, inverted or non-finite windows.
    pub fn validate(&self) -> Result<()> {
        for (name, p) in [
            ("die_before_execute", self.die_before_execute),
            ("die_mid_execute", self.die_mid_execute),
            ("die_before_delete", self.die_before_delete),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(PpcError::InvalidArgument(format!(
                    "fault schedule: {name} = {p} is not a probability in [0, 1]"
                )));
            }
        }
        for ev in &self.events {
            match *ev {
                FaultEvent::KillAt { at_s, .. } => {
                    if !at_s.is_finite() || at_s < 0.0 {
                        return Err(PpcError::InvalidArgument(format!(
                            "fault schedule: kill time {at_s} must be finite and >= 0"
                        )));
                    }
                }
                FaultEvent::Degrade {
                    factor,
                    from_s,
                    to_s,
                    ..
                } => {
                    if !factor.is_finite() || factor < 1.0 {
                        return Err(PpcError::InvalidArgument(format!(
                            "fault schedule: slowdown factor {factor} must be >= 1"
                        )));
                    }
                    if !(from_s.is_finite() && to_s.is_finite()) || from_s > to_s || from_s < 0.0 {
                        return Err(PpcError::InvalidArgument(format!(
                            "fault schedule: degrade window [{from_s}, {to_s}) is invalid"
                        )));
                    }
                }
                FaultEvent::StorageOutage { from_s, to_s, .. } => {
                    if !(from_s.is_finite() && to_s.is_finite()) || from_s > to_s || from_s < 0.0 {
                        return Err(PpcError::InvalidArgument(format!(
                            "fault schedule: storage outage window [{from_s}, {to_s}) is invalid"
                        )));
                    }
                }
                FaultEvent::KillMidExecute { .. } | FaultEvent::TornUpload { .. } => {}
            }
        }
        Ok(())
    }

    // ---- queries -----------------------------------------------------

    /// Any timed kill for `worker` in the half-open interval
    /// `(from_s, to_s]`? Engines track the last time they checked, so
    /// each kill event fires exactly once.
    pub fn kills_in(&self, worker: u32, from_s: f64, to_s: f64) -> bool {
        self.events.iter().any(|ev| {
            matches!(ev, FaultEvent::KillAt { worker: w, at_s }
                if *w == worker && *at_s > from_s && *at_s <= to_s)
        })
    }

    /// Should `worker` die after receiving its `task_seq`-th task but
    /// before executing it?
    pub fn die_before_execute(&self, worker: u32, task_seq: u32) -> bool {
        self.roll(
            ROLL_BEFORE_EXECUTE,
            worker,
            task_seq,
            self.die_before_execute,
        )
    }

    /// Should `worker` die mid-execution of its `task_seq`-th task
    /// (tearing the output upload)? Scheduled events and the i.i.d.
    /// probability both apply.
    pub fn die_mid_execute(&self, worker: u32, task_seq: u32) -> bool {
        let scheduled = self.events.iter().any(|ev| {
            matches!(ev, FaultEvent::KillMidExecute { worker: w, task_seq: s }
                if *w == worker && *s == task_seq)
        });
        scheduled || self.roll(ROLL_MID_EXECUTE, worker, task_seq, self.die_mid_execute)
    }

    /// Should `worker` die after uploading its `task_seq`-th output but
    /// before deleting the queue message?
    pub fn die_before_delete(&self, worker: u32, task_seq: u32) -> bool {
        self.roll(ROLL_BEFORE_DELETE, worker, task_seq, self.die_before_delete)
    }

    /// Is `worker`'s `task_seq`-th upload scheduled to be torn (without
    /// the worker itself dying)?
    pub fn is_torn_upload(&self, worker: u32, task_seq: u32) -> bool {
        self.events.iter().any(|ev| {
            matches!(ev, FaultEvent::TornUpload { worker: w, task_seq: s }
                if *w == worker && *s == task_seq)
        })
    }

    /// The gray-failure slowdown factor for `worker` at `now_s` — 1.0
    /// when healthy; overlapping degradations multiply.
    pub fn slowdown(&self, worker: u32, now_s: f64) -> f64 {
        self.events
            .iter()
            .filter_map(|ev| match *ev {
                FaultEvent::Degrade {
                    worker: w,
                    factor,
                    from_s,
                    to_s,
                } if w == worker && now_s >= from_s && now_s < to_s => Some(factor),
                _ => None,
            })
            .product::<f64>()
            .max(1.0)
    }

    /// The storage fault in effect at `now_s`, if any. A partition wins
    /// over a simultaneous brownout.
    pub fn storage_fault(&self, now_s: f64) -> Option<StorageFault> {
        let mut found = None;
        for ev in &self.events {
            if let FaultEvent::StorageOutage {
                fault,
                from_s,
                to_s,
            } = *ev
            {
                if now_s >= from_s && now_s < to_s {
                    if fault == StorageFault::Partition {
                        return Some(StorageFault::Partition);
                    }
                    found = Some(fault);
                }
            }
        }
        found
    }

    /// When does the storage outage in effect at `now_s` end? `None` when
    /// storage is healthy. Simulators use this to stall a modeled fetch
    /// (its retries ride out the window) until the outage closes.
    pub fn storage_outage_until(&self, now_s: f64) -> Option<f64> {
        self.events
            .iter()
            .filter_map(|ev| match *ev {
                FaultEvent::StorageOutage { from_s, to_s, .. }
                    if now_s >= from_s && now_s < to_s =>
                {
                    Some(to_s)
                }
                _ => None,
            })
            .fold(None, |acc, t| Some(acc.map_or(t, |m: f64| m.max(t))))
    }

    /// Deterministic i.i.d. roll: a pure hash of
    /// `(seed, kind, worker, task_seq)` — independent of call order and
    /// thread interleaving. `kind` is spread by a large odd multiplier
    /// before mixing: added directly, the consecutive kind constants would
    /// alias with consecutive `task_seq` values (`kind + 1` at `seq` equals
    /// `kind` at `seq + 1`), making one bad roll cascade across the
    /// adjacent kinds' rolls on the next few attempts instead of staying
    /// independent.
    fn roll(&self, kind: u64, worker: u32, task_seq: u32, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        let key = self
            .seed
            .wrapping_mul(0x2545_f491_4f6c_dd1d)
            .wrapping_add(kind.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add(((worker as u64) << 32) | task_seq as u64);
        Pcg32::new(SplitMix64::new(key).next_u64()).chance(p)
    }
}

/// Wall-clock seconds since a fixed start — the native engines' view of
/// schedule time. (Simulators pass their virtual clock instead.)
#[derive(Debug, Clone, Copy)]
pub struct RunClock {
    start: Instant,
}

impl RunClock {
    pub fn start() -> RunClock {
        RunClock {
            start: Instant::now(),
        }
    }

    pub fn now_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

impl Default for RunClock {
    fn default() -> Self {
        RunClock::start()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn death_dice_are_independent_across_kinds_and_seqs() {
        // Regression: the roll key once mixed `kind` additively, so the
        // consecutive kind constants aliased with consecutive task_seq
        // values — `die_before_execute(w, s + 1)` always agreed with
        // `die_mid_execute(w, s)`, and one bad roll cascaded into a
        // multi-attempt death run that exhausted retry budgets.
        let s = FaultSchedule::new(4242).with_death_probabilities(0.5, 0.5, 0.5);
        let n = 256;
        let mut agree_be_mid = 0;
        let mut agree_mid_del = 0;
        for seq in 0..n {
            if s.die_before_execute(7, seq + 1) == s.die_mid_execute(7, seq) {
                agree_be_mid += 1;
            }
            if s.die_mid_execute(7, seq + 1) == s.die_before_delete(7, seq) {
                agree_mid_del += 1;
            }
        }
        // Independent fair coins agree ~half the time; the aliasing bug
        // made them agree always.
        for agreements in [agree_be_mid, agree_mid_del] {
            assert!(
                (64..192).contains(&agreements),
                "rolls correlated: {agreements}/{n} agreements"
            );
        }
    }

    #[test]
    fn quiet_schedule_injects_nothing() {
        let s = FaultSchedule::none();
        assert!(s.validate().is_ok());
        assert!(!s.kills_in(0, 0.0, 1e9));
        assert!(!s.die_before_execute(0, 0));
        assert!(!s.die_mid_execute(0, 0));
        assert!(!s.die_before_delete(0, 0));
        assert_eq!(s.slowdown(0, 1.0), 1.0);
        assert_eq!(s.storage_fault(1.0), None);
    }

    #[test]
    fn kill_events_fire_once_per_interval() {
        let s = FaultSchedule::new(1).kill_at(2, 5.0);
        assert!(!s.kills_in(2, 0.0, 4.9));
        assert!(s.kills_in(2, 4.9, 5.0), "interval is (from, to]");
        assert!(!s.kills_in(2, 5.0, 10.0), "already fired");
        assert!(!s.kills_in(1, 0.0, 10.0), "other worker unaffected");
    }

    #[test]
    fn mid_execute_and_torn_upload_match_exact_sequence() {
        let s = FaultSchedule::new(1)
            .kill_mid_execute(0, 3)
            .torn_upload(1, 2);
        assert!(s.die_mid_execute(0, 3));
        assert!(!s.die_mid_execute(0, 2));
        assert!(!s.die_mid_execute(1, 3));
        assert!(s.is_torn_upload(1, 2));
        assert!(!s.is_torn_upload(1, 1));
    }

    #[test]
    fn slowdown_applies_within_window_and_compounds() {
        let s = FaultSchedule::new(1)
            .degrade(4, 2.0, 1.0, 3.0)
            .degrade(4, 1.5, 2.0, 4.0);
        assert_eq!(s.slowdown(4, 0.5), 1.0);
        assert_eq!(s.slowdown(4, 1.5), 2.0);
        assert_eq!(s.slowdown(4, 2.5), 3.0, "overlap multiplies");
        assert_eq!(s.slowdown(4, 3.5), 1.5);
        assert_eq!(s.slowdown(4, 4.0), 1.0, "window is half-open");
        assert_eq!(s.slowdown(0, 2.5), 1.0, "other workers healthy");
    }

    #[test]
    fn storage_partition_wins_over_brownout() {
        let s = FaultSchedule::new(1)
            .brownout(0.0, 10.0)
            .partition(5.0, 6.0);
        assert_eq!(s.storage_fault(1.0), Some(StorageFault::Brownout));
        assert_eq!(s.storage_fault(5.5), Some(StorageFault::Partition));
        assert_eq!(s.storage_fault(20.0), None);
    }

    #[test]
    fn iid_rolls_are_deterministic_and_seed_sensitive() {
        let a = FaultSchedule::new(7).with_death_probabilities(0.5, 0.5, 0.5);
        let b = FaultSchedule::new(7).with_death_probabilities(0.5, 0.5, 0.5);
        let c = FaultSchedule::new(8).with_death_probabilities(0.5, 0.5, 0.5);
        let roll = |s: &FaultSchedule| (0..64).map(|i| s.die_mid_execute(3, i)).collect::<Vec<_>>();
        assert_eq!(roll(&a), roll(&b), "same seed, same outcome");
        assert_ne!(roll(&a), roll(&c), "different seed, different dice");
        // The three pipeline points roll independently.
        let hits = |f: &dyn Fn(u32) -> bool| (0..256).filter(|&i| f(i)).count();
        let before = hits(&|i| a.die_before_execute(0, i));
        let mid = hits(&|i| a.die_mid_execute(0, i));
        assert!(before > 64 && before < 192, "p=0.5 roughly half: {before}");
        assert!(mid > 64 && mid < 192, "p=0.5 roughly half: {mid}");
    }

    #[test]
    fn validate_rejects_out_of_range() {
        // Each bad death probability is rejected by name.
        for (dice, name) in [
            ((1.2, 0.0, 0.0), "die_before_execute"),
            ((0.0, -0.1, 0.0), "die_mid_execute"),
            ((0.0, 0.0, 2.0), "die_before_delete"),
        ] {
            let e = FaultSchedule::new(1)
                .with_death_probabilities(dice.0, dice.1, dice.2)
                .validate()
                .unwrap_err();
            assert_eq!(e.code(), "InvalidArgument");
            assert!(e.to_string().contains(name), "{e}");
        }
        assert!(FaultSchedule::new(1).kill_at(0, -1.0).validate().is_err());
        assert!(FaultSchedule::new(1)
            .degrade(0, 0.5, 0.0, 1.0)
            .validate()
            .is_err());
        assert!(FaultSchedule::new(1).brownout(5.0, 1.0).validate().is_err());
        assert!(FaultSchedule::hostile(3).validate().is_ok());
    }
}
