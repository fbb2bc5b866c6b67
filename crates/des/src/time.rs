//! Simulated time as integer microseconds.
//!
//! Floating-point clocks accumulate rounding differences that break event
//! ordering reproducibility; a `u64` microsecond counter gives ~584,000 years
//! of range, exact comparison, and cheap arithmetic.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, microseconds since the simulation epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);

    pub const fn from_micros(us: u64) -> SimTime {
        SimTime(us)
    }

    pub const fn from_millis(ms: u64) -> SimTime {
        SimTime(ms * 1_000)
    }

    pub const fn from_secs(s: u64) -> SimTime {
        SimTime(s * 1_000_000)
    }

    /// From fractional seconds, rounding to the nearest microsecond.
    /// Negative and non-finite durations clamp to zero: the models feed
    /// computed service times here, and a model that yields `-1e-18` due to
    /// float cancellation should schedule "now", not panic.
    pub fn from_secs_f64(s: f64) -> SimTime {
        if !s.is_finite() || s <= 0.0 {
            return SimTime::ZERO;
        }
        SimTime((s * 1e6).round() as u64)
    }

    pub const fn as_micros(self) -> u64 {
        self.0
    }

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }
}

impl Add for SimTime {
    type Output = SimTime;
    /// Saturating: `from_secs_f64` clamps huge horizons to `u64::MAX` µs,
    /// and "the far end of time plus a delay" must stay there rather than
    /// wrap (or panic in debug builds).
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    /// Saturating: simulated durations never go negative.
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimTime::from_secs(2), SimTime::from_millis(2_000));
        assert_eq!(SimTime::from_millis(3), SimTime::from_micros(3_000));
        assert_eq!(SimTime::from_secs_f64(1.5).as_micros(), 1_500_000);
        assert!((SimTime::from_micros(250_000).as_secs_f64() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn from_secs_f64_clamps_bad_input() {
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NAN), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::INFINITY), SimTime::ZERO);
    }

    /// Float cancellation in the models can yield residues like
    /// `-1e-18` or `+1e-18` for a delay that is mathematically zero.
    /// Both sides of the epsilon must land exactly on "now".
    #[test]
    fn epsilon_residues_schedule_now() {
        assert_eq!(SimTime::from_secs_f64(-1e-18), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(1e-18), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(-f64::EPSILON), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(4.9e-7), SimTime::ZERO, "rounds down");
        assert_eq!(SimTime::from_secs_f64(5.1e-7).as_micros(), 1);
        let now = SimTime::from_secs(7);
        assert_eq!(now + SimTime::from_secs_f64(-1e-18), now);
    }

    /// `as u64` saturates float casts, so absurd horizons clamp to
    /// `u64::MAX` µs — and arithmetic on them must saturate too instead of
    /// overflowing (debug builds would panic on wrapping `+`).
    #[test]
    fn huge_horizons_saturate_instead_of_overflowing() {
        let far = SimTime::from_secs_f64(1e300);
        assert_eq!(far.as_micros(), u64::MAX);
        assert_eq!(far + SimTime::from_secs(1), far, "Add saturates");
        let mut t = far;
        t += SimTime::from_micros(1);
        assert_eq!(t, far, "AddAssign saturates");
        assert_eq!(far - SimTime::ZERO, far);
    }

    #[test]
    fn saturating_sub() {
        assert_eq!(SimTime::from_secs(1) - SimTime::from_secs(2), SimTime::ZERO);
        assert_eq!(
            SimTime::from_secs(5) - SimTime::from_secs(2),
            SimTime::from_secs(3)
        );
    }

    #[test]
    fn display() {
        assert_eq!(SimTime::from_millis(1500).to_string(), "1.500000s");
    }
}
