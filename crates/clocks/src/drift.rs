//! Sampling of oscillator populations.
//!
//! The paper's simulation setup (Sec. 5): relative clock frequency uniform
//! in `[1 − 0.01 %, 1 + 0.01 %]`; for Table 1, initial clock offsets in
//! `(−112 µs, 112 µs)`.

use crate::oscillator::Oscillator;
use rand::Rng;

/// Parameters for sampling a population of oscillators.
#[derive(Debug, Clone, Copy)]
pub struct DriftModel {
    /// Maximum relative frequency deviation ρ: rates are uniform in
    /// `[1 − ρ, 1 + ρ]`. The paper uses `1e-4` (0.01 %).
    pub max_rate_dev: f64,
    /// Maximum initial phase offset (µs): phases uniform in
    /// `(−max_offset_us, max_offset_us)`. The paper's Table 1 uses 112 µs.
    pub max_offset_us: f64,
}

impl DriftModel {
    /// The paper's simulation parameters: ρ = 0.01 %, offsets ±112 µs.
    pub fn paper() -> Self {
        DriftModel {
            max_rate_dev: 1e-4,
            max_offset_us: 112.0,
        }
    }

    /// Ideal clocks (no drift, no offset) for unit testing.
    pub fn ideal() -> Self {
        DriftModel {
            max_rate_dev: 0.0,
            max_offset_us: 0.0,
        }
    }

    /// Sample one oscillator.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Oscillator {
        let rate = if self.max_rate_dev > 0.0 {
            1.0 + rng.random_range(-self.max_rate_dev..=self.max_rate_dev)
        } else {
            1.0
        };
        let phase = if self.max_offset_us > 0.0 {
            rng.random_range(-self.max_offset_us..self.max_offset_us)
        } else {
            0.0
        };
        Oscillator::new(rate, phase)
    }

    /// Sample a population of `n` oscillators.
    pub fn sample_population<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<Oscillator> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    #[test]
    fn samples_stay_in_bounds() {
        let m = DriftModel::paper();
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        for _ in 0..10_000 {
            let o = m.sample(&mut rng);
            assert!(o.rate() >= 1.0 - 1e-4 && o.rate() <= 1.0 + 1e-4);
            assert!(o.phase_us() > -112.0 && o.phase_us() < 112.0);
        }
    }

    #[test]
    fn ideal_model_is_exact() {
        let m = DriftModel::ideal();
        let mut rng = ChaCha12Rng::seed_from_u64(2);
        let o = m.sample(&mut rng);
        assert_eq!(o.rate(), 1.0);
        assert_eq!(o.phase_us(), 0.0);
    }

    #[test]
    fn population_has_requested_size_and_spread() {
        let m = DriftModel::paper();
        let mut rng = ChaCha12Rng::seed_from_u64(3);
        let pop = m.sample_population(&mut rng, 500);
        assert_eq!(pop.len(), 500);
        let fastest = pop.iter().map(|o| o.rate()).fold(f64::MIN, f64::max);
        let slowest = pop.iter().map(|o| o.rate()).fold(f64::MAX, f64::min);
        // With 500 uniform samples the extremes should approach the bounds.
        assert!(fastest > 1.0 + 0.5e-4, "fastest {fastest}");
        assert!(slowest < 1.0 - 0.5e-4, "slowest {slowest}");
    }

    #[test]
    fn deterministic_given_seed() {
        let m = DriftModel::paper();
        let a = m.sample(&mut ChaCha12Rng::seed_from_u64(7));
        let b = m.sample(&mut ChaCha12Rng::seed_from_u64(7));
        assert_eq!(a.rate(), b.rate());
        assert_eq!(a.phase_us(), b.phase_us());
    }
}
