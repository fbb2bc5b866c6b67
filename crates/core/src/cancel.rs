//! Cooperative cancellation of one in-flight attempt.
//!
//! Hadoop's JobTracker kills the other attempts of a task as soon as one
//! attempt succeeds (paper §2.2: "duplicate execution of slower executing
//! tasks"). Native threads cannot be killed from outside, so the runtimes
//! hand every attempt a [`Cancel`] token instead: the runtime calls
//! [`Cancel::cancel`], and the attempt's kernel notices at its next
//! [`Cancel::check`] and returns [`PpcError::Cancelled`].
//!
//! [`Cancel::never`] is the token for callers that never cancel: it holds
//! no allocation, and every check on it is a branch on `None`.

use crate::sync::Mutex;
use crate::{PpcError, Result};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar};
use std::time::{Duration, Instant};

/// A cheap, cloneable cancellation token shared by one attempt and the
/// runtime that may kill it. Clones observe the same flag; the default
/// token is [`Cancel::never`].
#[derive(Debug, Clone, Default)]
pub struct Cancel(Option<Arc<Flag>>);

#[derive(Debug, Default)]
struct Flag {
    set: AtomicBool,
    /// Guards the condvar wait in [`Cancel::sleep`] against a lost wakeup.
    lock: Mutex<()>,
    wake: Condvar,
}

impl Cancel {
    /// A live token, initially not cancelled.
    pub fn new() -> Cancel {
        Cancel(Some(Arc::default()))
    }

    /// A token that can never be cancelled; allocates nothing.
    pub const fn never() -> Cancel {
        Cancel(None)
    }

    /// Cancel the attempt holding this token and wake it from
    /// [`Cancel::sleep`]. Idempotent; a no-op on [`Cancel::never`].
    pub fn cancel(&self) {
        if let Some(flag) = &self.0 {
            let _guard = flag.lock.lock();
            flag.set.store(true, Ordering::Release);
            flag.wake.notify_all();
        }
    }

    /// Whether [`Cancel::cancel`] has been called on this token.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.0
            .as_ref()
            .is_some_and(|f| f.set.load(Ordering::Acquire))
    }

    /// `Err(PpcError::Cancelled)` once cancelled — the call kernels make
    /// at their inner-loop boundaries.
    #[inline]
    pub fn check(&self) -> Result<()> {
        if self.is_cancelled() {
            return Err(PpcError::Cancelled("attempt cancelled".into()));
        }
        Ok(())
    }

    /// Sleep for `d`, waking early if the token is cancelled; returns
    /// [`Cancel::check`]'s verdict on waking.
    pub fn sleep(&self, d: Duration) -> Result<()> {
        let Some(flag) = &self.0 else {
            std::thread::sleep(d);
            return Ok(());
        };
        let deadline = Instant::now() + d;
        let mut guard = flag.lock.lock();
        while !flag.set.load(Ordering::Acquire) {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            guard = flag
                .wake
                .wait_timeout(guard, deadline - now)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
        drop(guard);
        self.check()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_is_never_cancelled() {
        let c = Cancel::never();
        c.cancel();
        assert!(!c.is_cancelled());
        assert!(c.check().is_ok());
        assert!(c.sleep(Duration::from_millis(1)).is_ok());
    }

    #[test]
    fn clones_share_the_flag() {
        let c = Cancel::new();
        let held = c.clone();
        assert!(held.check().is_ok());
        c.cancel();
        assert!(held.is_cancelled());
        let err = held.check().unwrap_err();
        assert_eq!(err.code(), "Cancelled");
        assert!(!err.is_retryable(), "a killed attempt must not be retried");
    }

    #[test]
    fn sleep_runs_full_length_when_not_cancelled() {
        let c = Cancel::new();
        let start = Instant::now();
        assert!(c.sleep(Duration::from_millis(20)).is_ok());
        assert!(start.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn cancel_wakes_a_sleeper_early() {
        let c = Cancel::new();
        let start = Instant::now();
        std::thread::scope(|s| {
            let sleeper = c.clone();
            let h = s.spawn(move || sleeper.sleep(Duration::from_secs(10)));
            std::thread::sleep(Duration::from_millis(20));
            c.cancel();
            assert_eq!(h.join().unwrap().unwrap_err().code(), "Cancelled");
        });
        assert!(start.elapsed() < Duration::from_secs(5));
        // Already cancelled: returns at once.
        assert!(c.sleep(Duration::from_secs(10)).is_err());
    }
}
