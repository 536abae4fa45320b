//! Synchronization metrics.
//!
//! The y-axis of every figure in the paper is the **maximum clock
//! difference**: the largest pairwise difference between any two nodes'
//! synchronized clocks, sampled at a common real instant. Table 1 adds the
//! **synchronization latency**: the first time the maximum difference drops
//! under the industry threshold of 25 µs (and stays there).

use simcore::{SimTime, TimeSeries};

/// Maximum pairwise spread of a set of clock readings: `max − min`.
/// Returns 0 for fewer than two readings.
pub fn max_pairwise_spread(clocks_us: &[f64]) -> f64 {
    if clocks_us.len() < 2 {
        return 0.0;
    }
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &c in clocks_us {
        lo = lo.min(c);
        hi = hi.max(c);
    }
    hi - lo
}

/// Streaming recorder of the maximum-clock-difference series across a run.
#[derive(Debug, Clone)]
pub struct SpreadTracker {
    series: TimeSeries,
    peak: f64,
}

impl SpreadTracker {
    /// Create a tracker whose series carries the given name.
    pub fn new(name: impl Into<String>) -> Self {
        SpreadTracker {
            series: TimeSeries::new(name),
            peak: 0.0,
        }
    }

    /// Record the spread of `clocks_us` at instant `t`.
    pub fn sample(&mut self, t: SimTime, clocks_us: &[f64]) {
        let spread = max_pairwise_spread(clocks_us);
        self.peak = self.peak.max(spread);
        self.series.push(t, spread);
    }

    /// The recorded series.
    pub fn series(&self) -> &TimeSeries {
        &self.series
    }

    /// Consume into the series.
    pub fn into_series(self) -> TimeSeries {
        self.series
    }

    /// Largest spread observed so far, `None` before any sample.
    ///
    /// An empty tracker used to report `0.0` — indistinguishable from a run
    /// whose clocks agreed perfectly at every sample, which is the *best*
    /// possible outcome rather than "no data". Callers must now decide
    /// explicitly what an unsampled run means.
    pub fn peak(&self) -> Option<f64> {
        (!self.series.is_empty()).then_some(self.peak)
    }
}

/// The paper's synchronization criterion.
#[derive(Debug, Clone, Copy)]
pub struct SyncCriterion {
    /// Maximum clock difference regarded as synchronized (µs). The paper
    /// adopts the industrial expectation of 25 µs.
    pub threshold_us: f64,
    /// Number of consecutive samples that must satisfy the threshold; > 1
    /// rejects single-sample flukes.
    pub hold_samples: usize,
}

impl Default for SyncCriterion {
    fn default() -> Self {
        SyncCriterion {
            threshold_us: 25.0,
            hold_samples: 3,
        }
    }
}

impl SyncCriterion {
    /// Synchronization latency: first instant the series stays under the
    /// threshold for `hold_samples` consecutive samples. `None` = never
    /// synchronized.
    pub fn latency(&self, series: &TimeSeries) -> Option<SimTime> {
        series.first_sustained_below(self.threshold_us, self.hold_samples)
    }

    /// Steady-state synchronization error: the maximum spread observed
    /// after synchronization is achieved (Table 1's "synchronization
    /// error" column). `None` if the network never synchronizes.
    pub fn steady_state_error(&self, series: &TimeSeries) -> Option<f64> {
        let start = self.latency(series)?;
        let end = *series.times().last()?;
        series.max_in(start, end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_basics() {
        assert_eq!(max_pairwise_spread(&[]), 0.0);
        assert_eq!(max_pairwise_spread(&[5.0]), 0.0);
        assert_eq!(max_pairwise_spread(&[1.0, 4.0, 2.0]), 3.0);
        assert_eq!(max_pairwise_spread(&[-10.0, 10.0]), 20.0);
    }

    #[test]
    fn tracker_records_and_peaks() {
        let mut t = SpreadTracker::new("test");
        t.sample(SimTime::from_secs(1), &[0.0, 30.0]);
        t.sample(SimTime::from_secs(2), &[0.0, 10.0]);
        assert_eq!(t.peak(), Some(30.0));
        assert_eq!(t.series().len(), 2);
        assert_eq!(t.series().values(), &[30.0, 10.0]);
    }

    #[test]
    fn empty_tracker_peak_is_none_not_zero() {
        // Regression: "never sampled" used to read as a perfect 0.0 peak.
        let t = SpreadTracker::new("empty");
        assert_eq!(t.peak(), None);
        // A sampled run that genuinely agrees reports Some(0.0) — distinct.
        let mut t = SpreadTracker::new("agree");
        t.sample(SimTime::from_secs(1), &[5.0, 5.0]);
        assert_eq!(t.peak(), Some(0.0));
    }

    #[test]
    fn latency_detection() {
        let mut t = SpreadTracker::new("sync");
        // 50, 40, 20 (blip), 60, then settled under 25.
        let samples = [50.0, 40.0, 20.0, 60.0, 24.0, 20.0, 18.0, 17.0];
        for (i, &v) in samples.iter().enumerate() {
            t.sample(SimTime::from_secs(i as u64), &[0.0, v]);
        }
        let crit = SyncCriterion::default();
        assert_eq!(crit.latency(t.series()), Some(SimTime::from_secs(4)));
    }

    #[test]
    fn never_synchronized() {
        let mut t = SpreadTracker::new("bad");
        for i in 0..10u64 {
            t.sample(SimTime::from_secs(i), &[0.0, 100.0 + i as f64]);
        }
        let crit = SyncCriterion::default();
        assert_eq!(crit.latency(t.series()), None);
        assert_eq!(crit.steady_state_error(t.series()), None);
    }

    #[test]
    fn steady_state_error_is_post_sync_max() {
        let mut t = SpreadTracker::new("s");
        let samples = [100.0, 80.0, 20.0, 15.0, 12.0, 22.0, 9.0];
        for (i, &v) in samples.iter().enumerate() {
            t.sample(SimTime::from_secs(i as u64), &[0.0, v]);
        }
        let crit = SyncCriterion::default();
        assert_eq!(crit.latency(t.series()), Some(SimTime::from_secs(2)));
        assert_eq!(crit.steady_state_error(t.series()), Some(22.0));
    }
}
