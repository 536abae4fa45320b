//! The TSF beacon generation window.
//!
//! At the beginning of each beacon period there is a beacon generation
//! window of `w + 1` slots, each `aSlotTime` long. Each competing station
//! calculates a random delay uniformly distributed in `[0, w] × aSlotTime`
//! and schedules its beacon for when the timer expires, cancelling if it
//! hears a beacon first (802.11-1999 §11.1.2.2; the paper uses `w = 30`).

use rand::Rng;
use simcore::SimDuration;

/// Beacon generation window parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContentionWindow {
    /// The window parameter `w`: slots are drawn from `0..=w`.
    pub w: u32,
    /// Slot duration in microseconds (aSlotTime; 9 µs for OFDM).
    pub slot_us: u64,
}

impl ContentionWindow {
    /// Create a window with the given `w` and slot time.
    pub fn new(w: u32, slot_us: u64) -> Self {
        assert!(slot_us > 0, "slot time must be positive");
        ContentionWindow { w, slot_us }
    }

    /// The paper's configuration: `w = 30`, 9 µs OFDM slots.
    pub fn paper() -> Self {
        ContentionWindow { w: 30, slot_us: 9 }
    }

    /// Number of slots in the window (`w + 1`).
    pub fn slot_count(&self) -> u32 {
        self.w + 1
    }

    /// Total window span.
    pub fn span(&self) -> SimDuration {
        SimDuration::from_us(self.slot_us * (self.w as u64 + 1))
    }

    /// Draw a contention slot uniformly from `0..=w`.
    pub fn draw_slot<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        rng.random_range(0..=self.w)
    }

    /// The random delay corresponding to a drawn slot.
    pub fn delay_of(&self, slot: u32) -> SimDuration {
        SimDuration::from_us(self.slot_us * slot as u64)
    }

    /// Probability that exactly one of `n` independent contenders occupies
    /// the earliest occupied slot (i.e. a successful, collision-free beacon
    /// this BP). Computed exactly; used by tests and the scalability
    /// analysis in the experiment harness.
    ///
    /// Derivation: condition on the earliest occupied slot being `s`; the
    /// probability all `n` draws land in `s..=w` with exactly one at `s`
    /// and none earlier is `n · (1/k) · ((k-s-1)/k)^{n-1}` summed over `s`,
    /// with `k = w + 1`.
    pub fn success_probability(&self, n: u32) -> f64 {
        if n == 0 {
            return 0.0;
        }
        let k = (self.w + 1) as f64;
        let n_f = n as f64;
        let mut p = 0.0;
        for s in 0..=self.w {
            let tail = (k - s as f64 - 1.0) / k; // P(a given other draw > s)
            p += n_f * (1.0 / k) * tail.powf(n_f - 1.0);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    #[test]
    fn paper_window_parameters() {
        let c = ContentionWindow::paper();
        assert_eq!(c.w, 30);
        assert_eq!(c.slot_count(), 31);
        assert_eq!(c.span(), SimDuration::from_us(279));
    }

    #[test]
    fn draws_cover_range_uniformly() {
        let c = ContentionWindow::paper();
        let mut rng = ChaCha12Rng::seed_from_u64(3);
        let mut counts = vec![0u32; c.slot_count() as usize];
        let n = 310_000;
        for _ in 0..n {
            counts[c.draw_slot(&mut rng) as usize] += 1;
        }
        let expect = n as f64 / 31.0;
        for (slot, &cnt) in counts.iter().enumerate() {
            assert!(
                (cnt as f64 - expect).abs() < expect * 0.05,
                "slot {slot}: {cnt} vs expected {expect}"
            );
        }
    }

    #[test]
    fn delay_scales_with_slot() {
        let c = ContentionWindow::new(10, 9);
        assert_eq!(c.delay_of(0), SimDuration::ZERO);
        assert_eq!(c.delay_of(7), SimDuration::from_us(63));
    }

    #[test]
    fn success_probability_degenerate_cases() {
        let c = ContentionWindow::paper();
        assert_eq!(c.success_probability(0), 0.0);
        assert!((c.success_probability(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn success_probability_decreases_with_contenders() {
        let c = ContentionWindow::paper();
        let mut last = 1.1;
        for n in [1u32, 2, 5, 10, 50, 100, 300, 500] {
            let p = c.success_probability(n);
            assert!(p < last, "p({n}) = {p} not decreasing");
            assert!(p > 0.0);
            last = p;
        }
        // With hundreds of contenders in 31 slots, collisions dominate —
        // the root cause of TSF's beacon-collision scalability failure.
        assert!(c.success_probability(300) < 0.25);
    }

    #[test]
    fn success_probability_matches_monte_carlo() {
        let c = ContentionWindow::new(7, 9);
        let mut rng = ChaCha12Rng::seed_from_u64(11);
        let n = 5u32;
        let trials = 100_000;
        let mut successes = 0u32;
        for _ in 0..trials {
            let slots: Vec<u32> = (0..n).map(|_| c.draw_slot(&mut rng)).collect();
            let min = *slots.iter().min().unwrap();
            if slots.iter().filter(|&&s| s == min).count() == 1 {
                successes += 1;
            }
        }
        let mc = successes as f64 / trials as f64;
        let exact = c.success_probability(n);
        assert!(
            (mc - exact).abs() < 0.01,
            "monte carlo {mc} vs exact {exact}"
        );
    }
}
