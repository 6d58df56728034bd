//! Virtual time.
//!
//! Simulation time is kept as an integer number of nanoseconds since the start of
//! the simulation. Integer time keeps the event queue total-ordered and makes runs
//! bit-reproducible; nanosecond resolution is fine enough for sub-microsecond
//! link serialization delays and coarse enough that a `u64` covers ~584 years.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A span of virtual time (non-negative).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration {
    nanos: u64,
}

impl Duration {
    /// Zero-length span.
    pub const ZERO: Duration = Duration { nanos: 0 };

    /// Construct from nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        Duration { nanos }
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Duration { nanos: us * 1_000 }
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Duration {
            nanos: ms * 1_000_000,
        }
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Duration {
            nanos: s * 1_000_000_000,
        }
    }

    /// Construct from fractional seconds. Negative inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 {
            return Duration::ZERO;
        }
        Duration {
            nanos: (s * 1e9).round() as u64,
        }
    }

    /// Construct from fractional milliseconds. Negative inputs clamp to zero.
    pub fn from_millis_f64(ms: f64) -> Self {
        Duration::from_secs_f64(ms / 1e3)
    }

    /// The span in nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.nanos
    }

    /// The span in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.nanos as f64 / 1e9
    }

    /// The span in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.nanos as f64 / 1e6
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: Duration) -> Duration {
        Duration {
            nanos: self.nanos.saturating_sub(other.nanos),
        }
    }

    /// Multiply by a non-negative float (e.g. a CPU load factor), rounding to the
    /// nearest nanosecond.
    pub fn mul_f64(self, factor: f64) -> Duration {
        Duration::from_secs_f64(self.as_secs_f64() * factor)
    }

    /// True if this is the zero span.
    pub fn is_zero(self) -> bool {
        self.nanos == 0
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.nanos >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.nanos >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.nanos >= 1_000 {
            write!(f, "{:.3}us", self.nanos as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.nanos)
        }
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration {
            nanos: self.nanos + rhs.nanos,
        }
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.nanos += rhs.nanos;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration {
            nanos: self.nanos - rhs.nanos,
        }
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: u64) -> Duration {
        Duration {
            nanos: self.nanos * rhs,
        }
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    fn div(self, rhs: u64) -> Duration {
        Duration {
            nanos: self.nanos / rhs,
        }
    }
}

impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, |acc, d| acc + d)
    }
}

/// An instant of virtual time, measured from simulation start.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime {
    nanos: u64,
}

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime { nanos: 0 };
    /// The maximum representable instant (used as an "infinitely far" sentinel).
    pub const MAX: SimTime = SimTime { nanos: u64::MAX };

    /// Construct from nanoseconds since simulation start.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime { nanos }
    }

    /// Nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.nanos
    }

    /// Fractional seconds since simulation start.
    pub fn as_secs_f64(self) -> f64 {
        self.nanos as f64 / 1e9
    }

    /// Fractional milliseconds since simulation start.
    pub fn as_millis_f64(self) -> f64 {
        self.nanos as f64 / 1e6
    }

    /// Elapsed time since `earlier`; zero if `earlier` is in the future.
    pub fn saturating_since(self, earlier: SimTime) -> Duration {
        Duration::from_nanos(self.nanos.saturating_sub(earlier.nanos))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", Duration::from_nanos(self.nanos))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", Duration::from_nanos(self.nanos))
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        SimTime {
            nanos: self.nanos + rhs.as_nanos(),
        }
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        self.nanos += rhs.as_nanos();
    }
}

impl Sub<Duration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: Duration) -> SimTime {
        SimTime {
            nanos: self.nanos - rhs.as_nanos(),
        }
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    fn sub(self, rhs: SimTime) -> Duration {
        Duration::from_nanos(self.nanos - rhs.nanos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(Duration::from_micros(1), Duration::from_nanos(1_000));
        assert_eq!(Duration::from_millis(1), Duration::from_micros(1_000));
        assert_eq!(Duration::from_secs(1), Duration::from_millis(1_000));
        assert_eq!(Duration::from_secs_f64(0.5), Duration::from_millis(500));
        assert_eq!(Duration::from_millis_f64(1.5), Duration::from_micros(1_500));
    }

    #[test]
    fn duration_negative_float_clamps_to_zero() {
        assert_eq!(Duration::from_secs_f64(-3.0), Duration::ZERO);
    }

    #[test]
    fn duration_arithmetic() {
        let a = Duration::from_millis(3);
        let b = Duration::from_millis(2);
        assert_eq!(a + b, Duration::from_millis(5));
        assert_eq!(a - b, Duration::from_millis(1));
        assert_eq!(b.saturating_sub(a), Duration::ZERO);
        assert_eq!(a * 4, Duration::from_millis(12));
        assert_eq!(a / 3, Duration::from_millis(1));
        assert_eq!(a.mul_f64(2.5), Duration::from_micros(7_500));
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn duration_sum() {
        let total: Duration = (1..=4).map(Duration::from_millis).sum();
        assert_eq!(total, Duration::from_millis(10));
    }

    #[test]
    fn simtime_arithmetic() {
        let t0 = SimTime::ZERO;
        let t1 = t0 + Duration::from_secs(2);
        assert_eq!(t1 - t0, Duration::from_secs(2));
        assert_eq!(t1 - Duration::from_secs(1), t0 + Duration::from_secs(1));
        assert_eq!(t0.saturating_since(t1), Duration::ZERO);
        assert_eq!(t1.saturating_since(t0), Duration::from_secs(2));
        assert_eq!(t0.max(t1), t1);
        assert_eq!(t0.min(t1), t0);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", Duration::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", Duration::from_micros(12)), "12.000us");
        assert_eq!(format!("{}", Duration::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", Duration::from_secs(12)), "12.000s");
    }
}
