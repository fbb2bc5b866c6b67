//! Exact USD arithmetic for billing.
//!
//! Cloud bills in the paper mix hourly instance charges (e.g. $0.68/h for a
//! High-CPU-Extra-Large instance), per-10k-request queue charges, and
//! per-GB-month storage charges. Floating point drifts when summing thousands
//! of such line items, so [`Usd`] stores **micro-dollars** in an `i64`:
//! exact addition, exact comparison, and enough range for ~9 trillion dollars.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// A USD amount stored as an integral number of micro-dollars (1e-6 $).
///
/// ```
/// use ppc_core::money::Usd;
/// let hourly = Usd::cents(68);                 // one HCXL hour
/// let fleet: Usd = std::iter::repeat(hourly).take(16).sum();
/// assert_eq!(fleet, Usd::cents(1088));
/// assert_eq!(fleet.to_string(), "10.88$");     // exactly, no float drift
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Usd(i64);

impl Usd {
    pub const ZERO: Usd = Usd(0);

    /// One micro-dollar, the smallest representable amount.
    pub const EPSILON: Usd = Usd(1);

    /// Build from whole dollars.
    pub const fn dollars(d: i64) -> Usd {
        Usd(d * 1_000_000)
    }

    /// Build from cents. `Usd::cents(68)` is $0.68.
    pub const fn cents(c: i64) -> Usd {
        Usd(c * 10_000)
    }

    /// Build from micro-dollars directly.
    pub const fn micros(u: i64) -> Usd {
        Usd(u)
    }

    /// Build from an `f64` dollar amount, rounding to the nearest
    /// micro-dollar. Intended for constants like `Usd::from_f64(0.34)`,
    /// not for accumulation.
    pub fn from_f64(d: f64) -> Usd {
        Usd((d * 1e6).round() as i64)
    }

    /// The amount in (possibly fractional) dollars.
    pub fn as_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The raw micro-dollar count.
    pub const fn as_micros(self) -> i64 {
        self.0
    }

    /// Multiply by a non-negative scalar (e.g. hours, GB), rounding to the
    /// nearest micro-dollar.
    pub fn scale(self, factor: f64) -> Usd {
        Usd((self.0 as f64 * factor).round() as i64)
    }

    /// Parse a dollar amount: `"10.88"`, `"10.88$"`, `"$10.88"`, `"-0.34"`.
    /// Accepts up to 6 decimal places (micro-dollar precision).
    pub fn parse(text: &str) -> crate::Result<Usd> {
        let t = text
            .trim()
            .trim_start_matches('$')
            .trim_end_matches('$')
            .trim();
        let (sign, t) = match t.strip_prefix('-') {
            Some(rest) => (-1i64, rest),
            None => (1i64, t),
        };
        let (whole, frac) = match t.split_once('.') {
            Some((w, f)) => (w, f),
            None => (t, ""),
        };
        if whole.is_empty() && frac.is_empty() {
            return Err(crate::PpcError::InvalidArgument(format!(
                "'{text}' is not a dollar amount"
            )));
        }
        if frac.len() > 6 {
            return Err(crate::PpcError::InvalidArgument(format!(
                "'{text}' has sub-micro-dollar precision"
            )));
        }
        let whole: i64 = if whole.is_empty() {
            0
        } else {
            whole.parse().map_err(|_| {
                crate::PpcError::InvalidArgument(format!("'{text}' is not a dollar amount"))
            })?
        };
        let frac_micros: i64 = if frac.is_empty() {
            0
        } else {
            let padded = format!("{frac:0<6}");
            padded.parse().map_err(|_| {
                crate::PpcError::InvalidArgument(format!("'{text}' is not a dollar amount"))
            })?
        };
        Ok(Usd(sign * (whole * 1_000_000 + frac_micros)))
    }
}

impl Add for Usd {
    type Output = Usd;
    fn add(self, rhs: Usd) -> Usd {
        Usd(self.0 + rhs.0)
    }
}

impl AddAssign for Usd {
    fn add_assign(&mut self, rhs: Usd) {
        self.0 += rhs.0;
    }
}

impl Sub for Usd {
    type Output = Usd;
    fn sub(self, rhs: Usd) -> Usd {
        Usd(self.0 - rhs.0)
    }
}

impl SubAssign for Usd {
    fn sub_assign(&mut self, rhs: Usd) {
        self.0 -= rhs.0;
    }
}

impl Neg for Usd {
    type Output = Usd;
    fn neg(self) -> Usd {
        Usd(-self.0)
    }
}

impl Mul<i64> for Usd {
    type Output = Usd;
    fn mul(self, rhs: i64) -> Usd {
        Usd(self.0 * rhs)
    }
}

impl Sum for Usd {
    fn sum<I: Iterator<Item = Usd>>(iter: I) -> Usd {
        iter.fold(Usd::ZERO, Add::add)
    }
}

impl fmt::Display for Usd {
    /// Formats like the paper's tables: `10.88$`, trimming to 2 decimal
    /// places but extending when sub-cent precision matters (`0.0001$`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sign = if self.0 < 0 { "-" } else { "" };
        let abs = self.0.unsigned_abs();
        let dollars = abs / 1_000_000;
        let micros = abs % 1_000_000;
        if micros.is_multiple_of(10_000) {
            write!(f, "{sign}{dollars}.{:02}$", micros / 10_000)
        } else {
            // Sub-cent amounts (queue requests cost ~$0.000001 each).
            let s = format!("{micros:06}");
            let trimmed = s.trim_end_matches('0');
            write!(f, "{sign}{dollars}.{trimmed}$")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Usd::dollars(2), Usd::cents(200));
        assert_eq!(Usd::cents(68), Usd::from_f64(0.68));
        assert_eq!(Usd::micros(1_000_000), Usd::dollars(1));
    }

    #[test]
    fn exact_accumulation() {
        // 16 HCXL instances at $0.68/h -> exactly $10.88 (paper Table 4).
        let total: Usd = std::iter::repeat_n(Usd::cents(68), 16).sum();
        assert_eq!(total, Usd::cents(1088));
        assert_eq!(total.to_string(), "10.88$");
    }

    #[test]
    fn display_formats() {
        assert_eq!(Usd::cents(1).to_string(), "0.01$");
        assert_eq!(Usd::dollars(15).to_string(), "15.00$");
        assert_eq!(Usd::micros(100).to_string(), "0.0001$");
        assert_eq!((-Usd::cents(34)).to_string(), "-0.34$");
        assert_eq!(Usd::ZERO.to_string(), "0.00$");
    }

    #[test]
    fn scale_rounds_to_micro() {
        // $0.68/hour for 1000 seconds = 0.68 * 1000/3600.
        let hourly = Usd::cents(68);
        let frac = hourly.scale(1000.0 / 3600.0);
        assert_eq!(frac, Usd::micros(188_889));
    }

    #[test]
    fn parse_round_trips_display() {
        for usd in [
            Usd::cents(68),
            Usd::dollars(15),
            Usd::micros(100),
            -Usd::cents(34),
            Usd::ZERO,
        ] {
            assert_eq!(Usd::parse(&usd.to_string()).unwrap(), usd, "{usd}");
        }
        assert_eq!(Usd::parse("$10.88").unwrap(), Usd::cents(1088));
        assert_eq!(Usd::parse(" 2 ").unwrap(), Usd::dollars(2));
        assert_eq!(Usd::parse(".5").unwrap(), Usd::cents(50));
        assert!(Usd::parse("abc").is_err());
        assert!(Usd::parse("").is_err());
        assert!(Usd::parse("1.2345678").is_err(), "too precise");
    }

    #[test]
    fn ordering_and_arith() {
        assert!(Usd::cents(68) < Usd::dollars(1));
        assert_eq!(Usd::dollars(1) - Usd::cents(32), Usd::cents(68));
        assert_eq!(Usd::cents(12) * 128, Usd::cents(1536));
    }
}
