//! Order statistics over per-op samples.

/// Median (mean of the middle pair for even lengths). `NaN` when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Fewest samples for which the tail is a percentile rather than the max.
pub const TAIL_MIN_SAMPLES: usize = 21;

/// The tail of a timing distribution: the highest percentile that still
/// has at least ten samples beyond it.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// Which percentile it is (100 when there are too few samples).
    pub percentile: f64,
    /// Samples the tail was taken from.
    pub samples: usize,
}

/// With `n` sorted samples, the value with exactly ten samples above it
/// sits at percentile `100·(n−10)/n`. Below [`TAIL_MIN_SAMPLES`] that
/// percentile would not lie above the median, so the tail is then the
/// maximum, labelled p100, and the output says so.
pub fn tail(xs: &[f64]) -> Tail {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n >= TAIL_MIN_SAMPLES {
        Tail {
            value: s[n - 11],
            percentile: 100.0 * (n - 10) as f64 / n as f64,
            samples: n,
        }
    } else {
        Tail {
            value: s.last().copied().unwrap_or(f64::NAN),
            percentile: 100.0,
            samples: n,
        }
    }
}

/// Quantile `q` in `[0, 1]` by nearest rank.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_has_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);
    }

    #[test]
    fn short_tail_is_the_max() {
        let t = tail(&[3.0, 1.0, 2.0]);
        assert_eq!((t.value, t.percentile, t.samples), (3.0, 100.0, 3));
    }

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quantile(&[5.0, 1.0, 3.0], 0.5), 3.0);
        assert_eq!(quantile(&[5.0, 1.0, 3.0], 0.99), 5.0);
    }
}
