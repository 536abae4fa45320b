//! Median-distance threshold filtering of clock offsets.
//!
//! The coarse phase collects offsets `timestamp − local` from overheard
//! beacons. An attacker can inject arbitrarily biased offsets; a plain mean
//! would follow them. The filter keeps only offsets within a threshold of
//! the sample median (the median itself is resistant to < 50 % bad
//! samples), then averages the survivors. A *loose* threshold is used in
//! the coarse phase, a tight one (the guard time δ) in the fine phase.

/// Median-distance threshold filter.
#[derive(Debug, Clone, Copy)]
pub struct ThresholdFilter {
    /// Maximum |offset − median| to accept, µs.
    pub threshold_us: f64,
}

impl ThresholdFilter {
    /// Create a filter with the given acceptance threshold.
    ///
    /// # Panics
    /// Panics if the threshold is negative or non-finite.
    pub fn new(threshold_us: f64) -> Self {
        assert!(
            threshold_us.is_finite() && threshold_us >= 0.0,
            "threshold must be a non-negative finite value"
        );
        ThresholdFilter { threshold_us }
    }

    /// Median of `values` (interpolated for even lengths). `None` if empty.
    pub fn median(values: &[f64]) -> Option<f64> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("offsets must not be NaN"));
        let n = v.len();
        Some(if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        })
    }

    /// Partition `offsets` into accepted values. Returns the accepted
    /// subset (order preserved); rejected offsets are dropped.
    pub fn accept(&self, offsets: &[f64]) -> Vec<f64> {
        match Self::median(offsets) {
            None => Vec::new(),
            Some(med) => offsets
                .iter()
                .copied()
                .filter(|x| (x - med).abs() <= self.threshold_us)
                .collect(),
        }
    }

    /// The coarse-phase estimate: mean of accepted offsets. `None` when
    /// nothing survives (caller should keep scanning).
    pub fn filtered_mean(&self, offsets: &[f64]) -> Option<f64> {
        let kept = self.accept(offsets);
        if kept.is_empty() {
            None
        } else {
            Some(kept.iter().sum::<f64>() / kept.len() as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(ThresholdFilter::median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(ThresholdFilter::median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(ThresholdFilter::median(&[]), None);
    }

    #[test]
    fn accepts_clean_data() {
        let f = ThresholdFilter::new(10.0);
        let data = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(f.accept(&data), data.to_vec());
    }

    #[test]
    fn rejects_biased_offsets() {
        // 7 honest offsets near 5 µs, 3 attacker offsets near -40 000 µs.
        let f = ThresholdFilter::new(50.0);
        let data = [
            4.0, 5.0, 6.0, 5.5, 4.5, 5.2, 4.8, -40_000.0, -39_990.0, -40_010.0,
        ];
        let kept = f.accept(&data);
        assert_eq!(kept.len(), 7);
        assert!(kept.iter().all(|&x| x > 0.0));
        let mean = f.filtered_mean(&data).unwrap();
        assert!((mean - 5.0).abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn attacker_majority_shifts_median_but_filter_still_partitions() {
        // With ≥ 50% malicious samples the median defence breaks down —
        // document the boundary: 5 honest vs 5 malicious.
        let f = ThresholdFilter::new(50.0);
        let data = [
            0.0, 1.0, 2.0, 1.5, 0.5, 9_000.0, 9_001.0, 9_002.0, 8_999.0, 9_003.0,
        ];
        let kept = f.accept(&data);
        // Median sits between the clusters; both are > 50 µs away, so
        // nothing survives — a detectable "cannot synchronize" signal
        // rather than silent poisoning.
        assert!(kept.is_empty());
        assert_eq!(f.filtered_mean(&data), None);
    }

    #[test]
    fn empty_input() {
        let f = ThresholdFilter::new(5.0);
        assert!(f.accept(&[]).is_empty());
        assert_eq!(f.filtered_mean(&[]), None);
    }

    #[test]
    fn single_sample_is_its_own_median() {
        let f = ThresholdFilter::new(5.0);
        assert_eq!(f.filtered_mean(&[42.0]), Some(42.0));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_threshold_rejected() {
        let _ = ThresholdFilter::new(-1.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// With a minority of arbitrarily biased samples, the filtered mean
        /// stays within the honest cluster's spread.
        #[test]
        fn minority_attacker_cannot_move_estimate(
            honest in proptest::collection::vec(-10.0f64..10.0, 7..20),
            evil_bias in prop_oneof![-1.0e6f64..-1000.0, 1000.0f64..1.0e6],
            evil_count in 1usize..3,
        ) {
            let f = ThresholdFilter::new(25.0);
            let mut data = honest.clone();
            for i in 0..evil_count {
                data.push(evil_bias + i as f64);
            }
            if let Some(mean) = f.filtered_mean(&data) {
                prop_assert!((-10.0..=10.0).contains(&mean),
                    "estimate {mean} escaped honest range");
            }
        }

        /// Accepted values always lie within threshold of the median.
        #[test]
        fn accepted_within_threshold(
            data in proptest::collection::vec(-1000.0f64..1000.0, 0..32),
            th in 0.0f64..100.0,
        ) {
            let f = ThresholdFilter::new(th);
            let kept = f.accept(&data);
            if let Some(med) = ThresholdFilter::median(&data) {
                for x in kept {
                    prop_assert!((x - med).abs() <= th);
                }
            }
        }
    }
}
