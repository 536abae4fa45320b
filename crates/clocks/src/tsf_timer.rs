//! The IEEE 802.11 TSF timer.
//!
//! A 64-bit counter with 1 µs resolution driven by the node's oscillator.
//! The TSF synchronization rule (802.11-1999 §11.1.2.4) only ever moves the
//! timer *forward*: on receiving a beacon whose (delay-adjusted) timestamp
//! is later than the local timer, the timer is set to that timestamp.
//!
//! The timer is modeled as a forward-only offset over the node's *local
//! unadjusted time* (the [`crate::Oscillator`] reading), which preserves the
//! hardware-counter property that reads never decrease. Keeping the timer in
//! the local time base (rather than holding an oscillator reference) lets
//! protocol code use it without access to real simulation time.

/// A node's TSF timer: `timer(t_i) = t_i + offset`, offset adjusted
/// forward-only by timestamp adoption.
#[derive(Debug, Clone, Copy, Default)]
pub struct TsfTimer {
    /// Accumulated adjustments, µs.
    offset_us: f64,
    /// Number of timestamp adoptions performed.
    adoptions: u64,
}

impl TsfTimer {
    /// A timer with zero offset (reads the oscillator's local time).
    pub fn new() -> Self {
        TsfTimer {
            offset_us: 0.0,
            adoptions: 0,
        }
    }

    /// Timer value as fractional microseconds at local unadjusted time
    /// `local_us`. The fractional value is what beacon timestamping uses
    /// internally; transmitted timestamps are quantized via
    /// [`TsfTimer::read_us`].
    #[inline]
    pub fn value_us(&self, local_us: f64) -> f64 {
        local_us + self.offset_us
    }

    /// Timer value as the 64-bit µs counter the standard defines
    /// (truncating; clamped at zero for the brief negative phase a large
    /// negative initial offset can produce).
    #[inline]
    pub fn read_us(&self, local_us: f64) -> u64 {
        self.value_us(local_us).max(0.0) as u64
    }

    /// TSF adoption rule: set the timer to `timestamp_us` **iff** the
    /// timestamp is later than the current value. Returns `true` if the
    /// timer moved.
    pub fn adopt_if_later(&mut self, timestamp_us: f64, local_us: f64) -> bool {
        let current = self.value_us(local_us);
        if timestamp_us > current {
            self.offset_us += timestamp_us - current;
            self.adoptions += 1;
            true
        } else {
            false
        }
    }

    /// Unconditionally step the timer to `timestamp_us` (coarse calibration
    /// when joining a network; backward steps permitted because the node is
    /// not yet synchronized).
    pub fn set_to(&mut self, timestamp_us: f64, local_us: f64) {
        let current = self.value_us(local_us);
        self.offset_us += timestamp_us - current;
        self.adoptions += 1;
    }

    /// Current offset over local time, µs.
    pub fn offset_us(&self) -> f64 {
        self.offset_us
    }

    /// How many adoptions have been performed.
    pub fn adoptions(&self) -> u64 {
        self.adoptions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oscillator::Oscillator;
    use simcore::SimTime;

    #[test]
    fn reads_local_time_when_unadjusted() {
        let t = TsfTimer::new();
        assert_eq!(t.read_us(142.9), 142);
    }

    #[test]
    fn adopts_later_timestamp() {
        let mut t = TsfTimer::new();
        assert!(t.adopt_if_later(5_000.0, 1_000.0));
        assert_eq!(t.read_us(1_000.0), 5_000);
        assert_eq!(t.adoptions(), 1);
    }

    #[test]
    fn rejects_earlier_timestamp() {
        let mut t = TsfTimer::new();
        assert!(!t.adopt_if_later(9_999.0, 10_000.0));
        assert_eq!(t.read_us(10_000.0), 10_000);
        assert_eq!(t.adoptions(), 0);
    }

    #[test]
    fn reads_are_monotone_across_adoptions() {
        let osc = Oscillator::new(1.0001, -50.0);
        let mut t = TsfTimer::new();
        let mut last = 0u64;
        for i in 0..1_000u64 {
            let local = osc.local_us(SimTime::from_us(i * 100));
            if i % 97 == 0 {
                t.adopt_if_later(t.value_us(local) + 3.0, local);
            }
            let v = t.read_us(local);
            assert!(v >= last, "timer went backwards: {v} < {last}");
            last = v;
        }
    }

    #[test]
    fn adoption_moves_exactly_to_timestamp() {
        let mut t = TsfTimer::new();
        t.adopt_if_later(1_000_000.0, 499_950.0);
        assert!((t.value_us(499_950.0) - 1_000_000.0).abs() < 1e-9);
    }

    #[test]
    fn set_to_permits_backward_step() {
        let mut t = TsfTimer::new();
        t.set_to(2_000.0, 10_000.0);
        assert_eq!(t.read_us(10_000.0), 2_000);
    }

    #[test]
    fn negative_reads_clamped() {
        let mut t = TsfTimer::new();
        t.set_to(-500.0, 0.0);
        assert_eq!(t.read_us(100.0), 0);
        assert_eq!(t.read_us(600.0), 100);
    }

    #[test]
    fn drift_composes_with_oscillator() {
        let osc = Oscillator::new(1.0001, 0.0);
        let mut t = TsfTimer::new();
        let l1 = osc.local_us(SimTime::from_secs(1));
        t.adopt_if_later(2_000_000.0, l1);
        let l2 = osc.local_us(SimTime::from_secs(2));
        // One second later the fast clock has gained 100 µs on real time.
        assert!((t.value_us(l2) - (2_000_000.0 + 1_000_100.0)).abs() < 1e-6);
    }
}
