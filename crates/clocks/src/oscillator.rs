//! Free-running hardware oscillators.
//!
//! Within the horizon of a simulation run the paper treats each node's
//! hardware clock as a linear function of real time (footnote 2), so an
//! oscillator is `(rate, phase)`: local time `t_i(T) = phase + rate · T`.

use simcore::SimTime;

/// A node's free-running oscillator.
///
/// `rate` is the relative frequency with respect to real time (1.0 =
/// perfect; the paper samples uniformly from `[1 − 0.01 %, 1 + 0.01 %]`).
/// `phase_us` is the local reading at real time 0.
#[derive(Debug, Clone, Copy)]
pub struct Oscillator {
    rate: f64,
    phase_us: f64,
    /// When set, the oscillator output is pinned to this local reading — a
    /// fault-injected stall (e.g. a halted crystal or a firmware hang that
    /// stops servicing the clock register). `None` in normal operation.
    frozen_us: Option<f64>,
}

impl Oscillator {
    /// Create an oscillator with the given relative rate and initial phase.
    ///
    /// # Panics
    /// Panics if `rate` is not strictly positive and finite — a clock that
    /// stands still or runs backwards breaks every invariant downstream.
    pub fn new(rate: f64, phase_us: f64) -> Self {
        assert!(
            rate.is_finite() && rate > 0.0,
            "oscillator rate must be positive and finite, got {rate}"
        );
        assert!(phase_us.is_finite(), "oscillator phase must be finite");
        Oscillator {
            rate,
            phase_us,
            frozen_us: None,
        }
    }

    /// A perfect reference oscillator (rate 1, phase 0).
    pub fn perfect() -> Self {
        Oscillator {
            rate: 1.0,
            phase_us: 0.0,
            frozen_us: None,
        }
    }

    /// Relative frequency with respect to real time.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Local reading at real time 0, in microseconds.
    pub fn phase_us(&self) -> f64 {
        self.phase_us
    }

    /// Local unadjusted time `t_i` (fractional microseconds) at real time
    /// `real`.
    #[inline]
    pub fn local_us(&self, real: SimTime) -> f64 {
        if let Some(frozen) = self.frozen_us {
            return frozen;
        }
        self.phase_us + self.rate * real.as_us_f64()
    }

    /// Fault injection: instantaneously shift the local reading by
    /// `delta_us` (a hardware clock step — e.g. a register glitch or a
    /// brown-out reset losing ticks when negative).
    ///
    /// # Panics
    /// Panics if `delta_us` is not finite.
    pub fn step_by(&mut self, delta_us: f64) {
        assert!(delta_us.is_finite(), "clock step must be finite");
        match self.frozen_us.as_mut() {
            Some(frozen) => *frozen += delta_us,
            None => self.phase_us += delta_us,
        }
    }

    /// Fault injection: freeze the local reading at its value at real time
    /// `at`. Subsequent [`Oscillator::local_us`] calls return that constant
    /// until [`Oscillator::unfreeze`]. Freezing an already-frozen
    /// oscillator is a no-op.
    pub fn freeze(&mut self, at: SimTime) {
        if self.frozen_us.is_none() {
            self.frozen_us = Some(self.local_us(at));
        }
    }

    /// Release a freeze at real time `at`: the oscillator resumes ticking
    /// at its native rate, continuing from the frozen reading (the lost
    /// interval stays lost, like a stalled counter that restarts). No-op if
    /// not frozen.
    pub fn unfreeze(&mut self, at: SimTime) {
        if let Some(frozen) = self.frozen_us.take() {
            self.phase_us = frozen - self.rate * at.as_us_f64();
        }
    }

    /// Whether the oscillator is currently frozen by a fault.
    pub fn is_frozen(&self) -> bool {
        self.frozen_us.is_some()
    }

    /// Invert the clock: the real time at which the local reading equals
    /// `local_us`. Useful for scheduling "when my local clock shows X".
    ///
    /// Returns `None` if that instant lies before the simulation epoch.
    pub fn real_at_local(&self, local_us: f64) -> Option<SimTime> {
        let real_us = (local_us - self.phase_us) / self.rate;
        if real_us < 0.0 {
            return None;
        }
        Some(SimTime::from_ps((real_us * 1e6).round() as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimDuration;

    #[test]
    fn perfect_clock_tracks_real_time() {
        let o = Oscillator::perfect();
        let t = SimTime::from_secs(5);
        assert!((o.local_us(t) - 5e6).abs() < 1e-9);
    }

    #[test]
    fn fast_clock_gains_time() {
        // +100 ppm (the paper's maximum drift).
        let o = Oscillator::new(1.0001, 0.0);
        let t = SimTime::from_secs(100);
        let gained = o.local_us(t) - 100e6;
        assert!((gained - 10_000.0).abs() < 1e-6, "gains 10 ms over 100 s");
    }

    #[test]
    fn slow_clock_loses_time() {
        let o = Oscillator::new(0.9999, 0.0);
        let t = SimTime::from_secs(100);
        let lost = 100e6 - o.local_us(t);
        assert!((lost - 10_000.0).abs() < 1e-6);
    }

    #[test]
    fn phase_offsets_apply() {
        let o = Oscillator::new(1.0, -112.0);
        assert!((o.local_us(SimTime::ZERO) + 112.0).abs() < 1e-12);
    }

    #[test]
    fn inverse_roundtrips() {
        let o = Oscillator::new(1.00003, 55.0);
        let t = SimTime::from_ms(12_345);
        let local = o.local_us(t);
        let back = o.real_at_local(local).unwrap();
        let err = back.saturating_since(t).max(t.saturating_since(back));
        assert!(err <= SimDuration::from_ps(2_000), "roundtrip error {err}");
    }

    #[test]
    fn inverse_before_epoch_is_none() {
        let o = Oscillator::new(1.0, 100.0);
        assert!(o.real_at_local(50.0).is_none());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        let _ = Oscillator::new(0.0, 0.0);
    }

    #[test]
    fn step_shifts_reading_instantaneously() {
        let mut o = Oscillator::new(1.0001, 10.0);
        let t = SimTime::from_secs(3);
        let before = o.local_us(t);
        o.step_by(800.0);
        assert!((o.local_us(t) - before - 800.0).abs() < 1e-9);
        o.step_by(-2000.0);
        assert!((o.local_us(t) - before + 1200.0).abs() < 1e-9);
    }

    #[test]
    fn freeze_pins_reading_and_unfreeze_resumes_from_it() {
        let mut o = Oscillator::new(1.0002, 0.0);
        let t1 = SimTime::from_secs(10);
        let frozen_val = o.local_us(t1);
        o.freeze(t1);
        assert!(o.is_frozen());
        // Reading stays pinned while frozen, whatever the real time.
        assert_eq!(o.local_us(SimTime::from_secs(25)), frozen_val);
        // Double freeze keeps the original pin.
        o.freeze(SimTime::from_secs(25));
        assert_eq!(o.local_us(SimTime::from_secs(30)), frozen_val);
        // Unfreezing at t2 resumes ticking from the frozen value: the
        // stalled interval is lost for good.
        let t2 = SimTime::from_secs(30);
        o.unfreeze(t2);
        assert!(!o.is_frozen());
        assert!((o.local_us(t2) - frozen_val).abs() < 1e-6);
        let later = SimTime::from_secs(31);
        assert!((o.local_us(later) - frozen_val - 1.0002 * 1e6).abs() < 1e-3);
    }

    #[test]
    fn step_while_frozen_moves_the_pin() {
        let mut o = Oscillator::new(1.0, 0.0);
        o.freeze(SimTime::from_secs(1));
        o.step_by(500.0);
        assert!((o.local_us(SimTime::from_secs(9)) - 1e6 - 500.0).abs() < 1e-9);
    }

    #[test]
    fn unfreeze_without_freeze_is_noop() {
        let mut o = Oscillator::new(1.0, 7.0);
        let before = o.local_us(SimTime::from_secs(2));
        o.unfreeze(SimTime::from_secs(2));
        assert_eq!(o.local_us(SimTime::from_secs(2)), before);
    }

    #[test]
    fn relative_drift_between_two_clocks() {
        let a = Oscillator::new(1.0001, 0.0);
        let b = Oscillator::new(0.9999, 0.0);
        let t = SimTime::from_secs(200);
        let spread = a.local_us(t) - b.local_us(t);
        // 200 ppm apart over 200 s → 40 ms (the scale of the paper's
        // Fig. 3 divergence under attack).
        assert!((spread - 40_000.0).abs() < 1e-6);
    }
}
