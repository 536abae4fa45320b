//! Simulated time as integer picoseconds.
//!
//! Picosecond resolution leaves ample headroom below the 1 µs quantum of the
//! IEEE 802.11 TSF timer while still covering ~213 days in a `u64`. Using an
//! integer representation means event ordering is exact and runs are
//! bit-reproducible across platforms.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Picoseconds in one nanosecond.
pub const PS_PER_NS: u64 = 1_000;
/// Picoseconds in one microsecond.
pub const PS_PER_US: u64 = 1_000_000;
/// Picoseconds in one millisecond.
pub const PS_PER_MS: u64 = 1_000_000_000;
/// Picoseconds in one second.
pub const PS_PER_SEC: u64 = 1_000_000_000_000;

/// An instant of simulated (real, i.e. "true") time, in picoseconds since
/// the start of the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in picoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; useful as an "infinitely far"
    /// sentinel for deadlines.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Construct from integer microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * PS_PER_US)
    }

    /// Construct from integer milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * PS_PER_MS)
    }

    /// Construct from integer seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * PS_PER_SEC)
    }

    /// Construct from fractional seconds. Rounds to the nearest picosecond.
    ///
    /// Intended for configuration values (e.g. "BP = 0.1 s"), not for hot
    /// paths.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0, "SimTime cannot be negative");
        SimTime((s * PS_PER_SEC as f64).round() as u64)
    }

    /// Raw picoseconds since the epoch.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Whole microseconds since the epoch (truncating), matching the
    /// granularity of the 802.11 TSF timer.
    #[inline]
    pub const fn as_us_floor(self) -> u64 {
        self.0 / PS_PER_US
    }

    /// Time as fractional microseconds.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// Time as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }

    /// Saturating subtraction producing a duration.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a duration.
    #[inline]
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from raw picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimDuration(ps)
    }

    /// Construct from integer nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimDuration(ns * PS_PER_NS)
    }

    /// Construct from integer microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimDuration(us * PS_PER_US)
    }

    /// Construct from integer milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimDuration(ms * PS_PER_MS)
    }

    /// Construct from integer seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * PS_PER_SEC)
    }

    /// Construct from fractional seconds, rounding to the nearest picosecond.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0, "SimDuration cannot be negative");
        SimDuration((s * PS_PER_SEC as f64).round() as u64)
    }

    /// Construct from fractional microseconds, rounding to the nearest
    /// picosecond.
    #[inline]
    pub fn from_us_f64(us: f64) -> Self {
        debug_assert!(us >= 0.0, "SimDuration cannot be negative");
        SimDuration((us * PS_PER_US as f64).round() as u64)
    }

    /// Raw picoseconds.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Duration as fractional microseconds.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// Duration as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }

    /// Integer division of durations (how many `rhs` fit in `self`).
    #[inline]
    pub const fn div_duration(self, rhs: SimDuration) -> u64 {
        self.0 / rhs.0
    }

    /// Saturating multiplication by an integer factor.
    #[inline]
    pub const fn saturating_mul(self, factor: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(factor))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < PS_PER_US {
            write!(f, "{}ps", self.0)
        } else if self.0 < PS_PER_SEC {
            write!(f, "{:.3}us", self.as_us_f64())
        } else {
            write!(f, "{:.6}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_roundtrip() {
        let t = SimTime::from_us(1_234_567);
        assert_eq!(t.as_us_floor(), 1_234_567);
        assert_eq!(t.as_ps(), 1_234_567 * PS_PER_US);
        assert!((t.as_secs_f64() - 1.234_567).abs() < 1e-12);
    }

    #[test]
    fn from_secs_f64_rounds() {
        let t = SimTime::from_secs_f64(0.1);
        assert_eq!(t.as_ps(), PS_PER_SEC / 10);
        let d = SimDuration::from_secs_f64(0.1);
        assert_eq!(d.as_ps(), PS_PER_SEC / 10);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_us(10);
        let d = SimDuration::from_us(3);
        assert_eq!(a + d, SimTime::from_us(13));
        assert_eq!((a + d) - a, SimDuration::from_us(3));
        assert_eq!(d * 4, SimDuration::from_us(12));
        assert_eq!((d * 4) / 2, SimDuration::from_us(6));
    }

    #[test]
    fn microsecond_floor_quantization() {
        let t = SimTime::from_ps(1_999_999);
        assert_eq!(t.as_us_floor(), 1);
        let t = SimTime::from_ps(2_000_000);
        assert_eq!(t.as_us_floor(), 2);
    }

    #[test]
    fn saturating_since_clamps() {
        let a = SimTime::from_us(5);
        let b = SimTime::from_us(9);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_since(a), SimDuration::from_us(4));
    }

    #[test]
    fn ordering_is_total_and_exact() {
        let a = SimTime::from_ps(1);
        let b = SimTime::from_ps(2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn display_renders_scaled_units() {
        assert_eq!(format!("{}", SimDuration::from_ps(12)), "12ps");
        assert_eq!(format!("{}", SimDuration::from_us(9)), "9.000us");
        assert_eq!(format!("{}", SimDuration::from_secs(2)), "2.000000s");
    }

    #[test]
    fn div_duration_counts_periods() {
        let bp = SimDuration::from_ms(100);
        let t = SimDuration::from_secs(1);
        assert_eq!(t.div_duration(bp), 10);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_us).sum();
        assert_eq!(total, SimDuration::from_us(10));
    }
}
