//! Shared recovery layer: retry policy and circuit breaker.
//!
//! Every ad-hoc retry loop in the workspace (storage `get_with_retry`,
//! the queue client's transient-error polling, Dryad's vertex re-run)
//! routes through [`RetryPolicy`] so backoff, jitter, and retry budgets
//! behave identically across services — the way a cloud SDK centralises
//! its retry middleware.
//!
//! Time is injected, never read: callers pass a sleep function (native
//! engines sleep for real, the simulator advances virtual time, tests
//! record durations) and, for the circuit breaker, a clock in seconds.
//! That keeps the whole layer usable from both the threaded runtimes and
//! the discrete-event simulator, and keeps every test deterministic.

use crate::error::Result;
use crate::rng::Pcg32;
use std::time::Duration;

/// Exponential backoff with jitter and a total-sleep retry budget.
///
/// `delay(attempt) = min(base * multiplier^attempt, max_delay)`, then up to
/// `jitter` (a fraction in `[0, 1]`) of that delay is randomised away so
/// synchronised clients don't retry in lockstep. The budget caps the *sum*
/// of sleeps across attempts: once spent, the loop stops retrying even if
/// attempts remain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total tries, including the first (`0` is treated as `1`).
    pub max_attempts: u32,
    /// Delay before the first retry.
    pub base_delay: Duration,
    /// Ceiling applied after exponential growth.
    pub max_delay: Duration,
    /// Growth factor per attempt (`2.0` doubles each retry).
    pub multiplier: f64,
    /// Fraction of each delay randomised away, in `[0, 1]`.
    pub jitter: f64,
    /// Cap on total sleep across all retries; `None` means unbounded.
    pub budget: Option<Duration>,
}

impl RetryPolicy {
    /// The pre-jitter delay before retry number `attempt` (0-based: the
    /// delay between the first failure and the second try is `delay(0)`).
    pub fn delay(&self, attempt: u32) -> Duration {
        if self.base_delay.is_zero() {
            return Duration::ZERO;
        }
        let grown = self.base_delay.as_secs_f64() * self.multiplier.powi(attempt as i32);
        Duration::from_secs_f64(grown.min(self.max_delay.as_secs_f64().max(0.0)))
    }

    /// `delay(attempt)` with up to `jitter` of it randomised away.
    pub fn jittered_delay(&self, attempt: u32, rng: &mut Pcg32) -> Duration {
        let d = self.delay(attempt);
        if self.jitter <= 0.0 || d.is_zero() {
            return d;
        }
        let keep = 1.0 - self.jitter.min(1.0) * rng.next_f64();
        Duration::from_secs_f64(d.as_secs_f64() * keep)
    }

    /// Run `op` under this policy, retrying retryable errors.
    ///
    /// `op` receives the 0-based attempt index. `sleep` receives each
    /// backoff delay — pass `std::thread::sleep` in a native runtime, a
    /// virtual-time hook in a simulator, or a recorder in tests. Stops on
    /// the first success, the first non-retryable error, attempt
    /// exhaustion, or budget exhaustion.
    pub fn run<T>(
        &self,
        rng: &mut Pcg32,
        mut sleep: impl FnMut(Duration),
        mut op: impl FnMut(u32) -> Result<T>,
    ) -> Result<T> {
        let attempts = self.max_attempts.max(1);
        let mut slept = Duration::ZERO;
        for attempt in 0..attempts {
            match op(attempt) {
                Ok(v) => return Ok(v),
                Err(e) if e.is_retryable() && attempt + 1 < attempts => {
                    let pause = self.jittered_delay(attempt, rng);
                    if let Some(budget) = self.budget {
                        if slept + pause > budget {
                            return Err(e);
                        }
                    }
                    if !pause.is_zero() {
                        sleep(pause);
                        slept += pause;
                    }
                }
                Err(e) => return Err(e),
            }
        }
        unreachable!("the last attempt returns its result")
    }

    /// [`RetryPolicy::run`] sleeping on the current thread.
    pub fn run_blocking<T>(&self, rng: &mut Pcg32, op: impl FnMut(u32) -> Result<T>) -> Result<T> {
        self.run(rng, std::thread::sleep, op)
    }
}

/// A minimal circuit breaker: after `failure_threshold` consecutive
/// failures it opens and fast-fails callers (no hammering a browned-out
/// service); after `reset_after_s` seconds it half-opens and lets one
/// probe through; a success closes it again, a failure re-opens it.
///
/// The clock is supplied by the caller in seconds (elapsed wall time for
/// the native engines, virtual time for the simulator), so the breaker is
/// deterministic under test.
pub struct CircuitBreaker {
    failure_threshold: u32,
    reset_after_s: f64,
    inner: crate::sync::Mutex<BreakerInner>,
}

struct BreakerInner {
    consecutive_failures: u32,
    opened_at_s: Option<f64>,
    probe_outstanding: bool,
}

impl CircuitBreaker {
    pub fn new(failure_threshold: u32, reset_after_s: f64) -> CircuitBreaker {
        CircuitBreaker {
            failure_threshold: failure_threshold.max(1),
            reset_after_s: reset_after_s.max(0.0),
            inner: crate::sync::Mutex::new(BreakerInner {
                consecutive_failures: 0,
                opened_at_s: None,
                probe_outstanding: false,
            }),
        }
    }

    /// Whether a request may proceed at `now_s`. In the half-open state
    /// only the first caller gets through (the probe); the rest are
    /// refused until the probe reports back.
    pub fn allow(&self, now_s: f64) -> bool {
        let mut inner = self.inner.lock();
        match inner.opened_at_s {
            None => true,
            Some(at) if now_s - at >= self.reset_after_s => {
                if inner.probe_outstanding {
                    false
                } else {
                    inner.probe_outstanding = true;
                    true
                }
            }
            Some(_) => false,
        }
    }

    /// Record a successful request: closes the breaker.
    pub fn record_success(&self) {
        let mut inner = self.inner.lock();
        inner.consecutive_failures = 0;
        inner.opened_at_s = None;
        inner.probe_outstanding = false;
    }

    /// Record a failed request at `now_s`: may trip the breaker open.
    pub fn record_failure(&self, now_s: f64) {
        let mut inner = self.inner.lock();
        inner.probe_outstanding = false;
        inner.consecutive_failures += 1;
        if inner.opened_at_s.is_some() || inner.consecutive_failures >= self.failure_threshold {
            inner.opened_at_s = Some(now_s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::PpcError;

    fn policy() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 5,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(40),
            multiplier: 2.0,
            jitter: 0.0,
            budget: None,
        }
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = policy();
        assert_eq!(p.delay(0), Duration::from_millis(10));
        assert_eq!(p.delay(1), Duration::from_millis(20));
        assert_eq!(p.delay(2), Duration::from_millis(40));
        assert_eq!(p.delay(3), Duration::from_millis(40), "capped at max_delay");
    }

    #[test]
    fn jitter_keeps_delay_within_bounds_and_is_deterministic() {
        let p = RetryPolicy {
            jitter: 0.5,
            ..policy()
        };
        let mut a = Pcg32::new(7);
        let mut b = Pcg32::new(7);
        for attempt in 0..4 {
            let da = p.jittered_delay(attempt, &mut a);
            let db = p.jittered_delay(attempt, &mut b);
            assert_eq!(da, db, "same seed, same jitter");
            let full = p.delay(attempt);
            assert!(da <= full);
            assert!(da.as_secs_f64() >= full.as_secs_f64() * 0.5 - 1e-9);
        }
    }

    #[test]
    fn retries_transient_until_success() {
        let mut rng = Pcg32::new(1);
        let mut sleeps = Vec::new();
        let mut calls = 0;
        let out = policy().run(
            &mut rng,
            |d| sleeps.push(d),
            |attempt| {
                calls += 1;
                if attempt < 2 {
                    Err(PpcError::Transient("flaky".into()))
                } else {
                    Ok(attempt)
                }
            },
        );
        assert_eq!(out.unwrap(), 2);
        assert_eq!(calls, 3);
        assert_eq!(sleeps.len(), 2, "one sleep per retry");
        assert_eq!(sleeps[0], Duration::from_millis(10));
        assert_eq!(sleeps[1], Duration::from_millis(20));
    }

    #[test]
    fn non_retryable_error_returns_immediately() {
        let mut rng = Pcg32::new(1);
        let mut calls = 0;
        let out: Result<()> = policy().run(
            &mut rng,
            |_| panic!("must not sleep"),
            |_| {
                calls += 1;
                Err(PpcError::NotFound("missing".into()))
            },
        );
        assert_eq!(out.unwrap_err().code(), "NotFound");
        assert_eq!(calls, 1);
    }

    #[test]
    fn attempts_exhausted_surfaces_last_error() {
        let mut rng = Pcg32::new(1);
        let mut calls = 0;
        let out: Result<()> = policy().run(
            &mut rng,
            |_| {},
            |_| {
                calls += 1;
                Err(PpcError::Transient("always".into()))
            },
        );
        assert_eq!(out.unwrap_err().code(), "Transient");
        assert_eq!(calls, 5);
    }

    #[test]
    fn budget_stops_retries_before_attempts_run_out() {
        let p = RetryPolicy {
            budget: Some(Duration::from_millis(25)),
            ..policy()
        };
        let mut rng = Pcg32::new(1);
        let mut slept = Duration::ZERO;
        let mut calls = 0;
        let out: Result<()> = p.run(
            &mut rng,
            |d| slept += d,
            |_| {
                calls += 1;
                Err(PpcError::Transient("always".into()))
            },
        );
        assert!(out.is_err());
        // 10ms + 20ms would blow the 25ms budget, so only the first retry
        // sleeps: 2 calls, 10ms total sleep.
        assert_eq!(calls, 2);
        assert_eq!(slept, Duration::from_millis(10));
    }

    #[test]
    fn immediate_policy_never_sleeps() {
        let mut rng = Pcg32::new(1);
        let mut calls = 0;
        let immediate = RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::ZERO,
            ..policy()
        };
        let out: Result<()> = immediate.run(
            &mut rng,
            |_| panic!("immediate policy must not sleep"),
            |_| {
                calls += 1;
                Err(PpcError::Transient("always".into()))
            },
        );
        assert!(out.is_err());
        assert_eq!(calls, 3);
    }

    #[test]
    fn breaker_opens_after_threshold_and_recovers() {
        let b = CircuitBreaker::new(3, 1.0);
        assert!(b.allow(0.0), "closed");
        b.record_failure(0.1);
        b.record_failure(0.2);
        assert!(b.allow(0.3), "still closed below threshold");
        b.record_failure(0.3);
        assert!(!b.allow(0.5), "open: fast-fail");
        // After the reset interval one probe gets through.
        assert!(b.allow(1.4), "half-open probe");
        assert!(!b.allow(1.4), "only one probe at a time");
        b.record_success();
        assert!(b.allow(1.5));
        assert!(b.allow(1.5), "closed again: no probe limit");
    }

    #[test]
    fn breaker_reopens_on_failed_probe() {
        let b = CircuitBreaker::new(1, 1.0);
        b.record_failure(0.0);
        assert!(!b.allow(0.5), "open");
        assert!(b.allow(1.2), "probe");
        b.record_failure(1.2);
        assert!(!b.allow(1.5), "re-opened at the failed probe");
        assert!(b.allow(2.2), "the next probe waits a fresh reset interval");
    }
}
