//! Time-series recording for figures.
//!
//! Every figure in the paper is "metric vs. simulated time"; [`TimeSeries`]
//! stores `(SimTime, f64)` samples and offers downsampling and summary
//! operations used when rendering figures as text or CSV.

use crate::time::SimTime;

/// An append-only series of `(time, value)` samples.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    name: String,
    times: Vec<SimTime>,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Create an empty named series.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            times: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Series name (used as a column header).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Append a sample. Samples must be pushed in non-decreasing time order.
    ///
    /// # Panics
    /// Panics (debug builds) if `t` precedes the last recorded sample.
    pub fn push(&mut self, t: SimTime, v: f64) {
        debug_assert!(
            self.times.last().is_none_or(|&last| t >= last),
            "time series samples must be monotone"
        );
        self.times.push(t);
        self.values.push(v);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Sample times.
    pub fn times(&self) -> &[SimTime] {
        &self.times
    }

    /// Sample values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Iterate `(time, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.times.iter().copied().zip(self.values.iter().copied())
    }

    /// Maximum value over the window `[from, to]`, or `None` if the window
    /// holds no samples.
    pub fn max_in(&self, from: SimTime, to: SimTime) -> Option<f64> {
        self.iter()
            .filter(|&(t, _)| t >= from && t <= to)
            .map(|(_, v)| v)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// Mean value over the window `[from, to]`, or `None` if empty.
    pub fn mean_in(&self, from: SimTime, to: SimTime) -> Option<f64> {
        let mut sum = 0.0;
        let mut n = 0u64;
        for (t, v) in self.iter() {
            if t >= from && t <= to {
                sum += v;
                n += 1;
            }
        }
        (n > 0).then(|| sum / n as f64)
    }

    /// First time at which the value drops to `threshold` or below and
    /// *stays* there for at least `hold` consecutive samples. Used to detect
    /// "network synchronized" per the paper's ≤ 25 µs criterion.
    pub fn first_sustained_below(&self, threshold: f64, hold: usize) -> Option<SimTime> {
        if self.is_empty() || hold == 0 {
            return None;
        }
        let mut run = 0usize;
        let mut start = None;
        for (t, v) in self.iter() {
            if v <= threshold {
                if run == 0 {
                    start = Some(t);
                }
                run += 1;
                if run >= hold {
                    return start;
                }
            } else {
                run = 0;
                start = None;
            }
        }
        None
    }

    /// Downsample to at most `max_points` samples by keeping, within each of
    /// `max_points` equal time buckets, the sample with the largest value
    /// (peak-preserving: clock-error spikes must survive downsampling).
    pub fn downsample_peaks(&self, max_points: usize) -> TimeSeries {
        if self.len() <= max_points || max_points == 0 {
            return self.clone();
        }
        let mut out = TimeSeries::new(self.name.clone());
        let t0 = self.times[0].as_ps();
        let t1 = self.times[self.times.len() - 1].as_ps();
        let span = (t1 - t0).max(1);
        let mut bucket_best: Option<(SimTime, f64)> = None;
        let mut bucket_idx = 0usize;
        for (t, v) in self.iter() {
            let idx = (((t.as_ps() - t0) as u128 * max_points as u128 / (span as u128 + 1))
                as usize)
                .min(max_points - 1);
            if idx != bucket_idx {
                if let Some((bt, bv)) = bucket_best.take() {
                    out.push(bt, bv);
                }
                bucket_idx = idx;
            }
            match bucket_best {
                Some((_, bv)) if bv >= v => {}
                _ => bucket_best = Some((t, v)),
            }
        }
        if let Some((bt, bv)) = bucket_best {
            out.push(bt, bv);
        }
        out
    }

    /// Render as CSV (`time_s,<name>` header then one row per sample).
    pub fn to_csv(&self) -> String {
        let mut s = format!("time_s,{}\n", self.name);
        for (t, v) in self.iter() {
            s.push_str(&format!("{:.4},{:.6}\n", t.as_secs_f64(), v));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(points: &[(u64, f64)]) -> TimeSeries {
        let mut s = TimeSeries::new("test");
        for &(sec, v) in points {
            s.push(SimTime::from_secs(sec), v);
        }
        s
    }

    #[test]
    fn push_and_window_max() {
        let s = series(&[(0, 1.0), (1, 5.0), (2, 3.0), (3, 9.0)]);
        assert_eq!(s.len(), 4);
        assert_eq!(
            s.max_in(SimTime::from_secs(1), SimTime::from_secs(2)),
            Some(5.0)
        );
        assert_eq!(
            s.max_in(SimTime::from_secs(10), SimTime::from_secs(20)),
            None
        );
    }

    #[test]
    fn window_mean() {
        let s = series(&[(0, 2.0), (1, 4.0), (2, 6.0)]);
        assert_eq!(s.mean_in(SimTime::ZERO, SimTime::from_secs(2)), Some(4.0));
    }

    #[test]
    fn sustained_below_finds_first_stable_point() {
        // dips below at t=1 but bounces, settles from t=3.
        let s = series(&[
            (0, 50.0),
            (1, 10.0),
            (2, 40.0),
            (3, 9.0),
            (4, 8.0),
            (5, 7.0),
        ]);
        assert_eq!(
            s.first_sustained_below(25.0, 3),
            Some(SimTime::from_secs(3))
        );
        assert_eq!(s.first_sustained_below(25.0, 4), None);
        assert_eq!(s.first_sustained_below(5.0, 1), None);
    }

    #[test]
    fn sustained_below_hold_one_is_first_crossing() {
        let s = series(&[(0, 50.0), (1, 10.0), (2, 40.0)]);
        assert_eq!(
            s.first_sustained_below(25.0, 1),
            Some(SimTime::from_secs(1))
        );
    }

    #[test]
    fn downsample_preserves_peak() {
        let mut s = TimeSeries::new("spiky");
        for i in 0..1000u64 {
            let v = if i == 500 { 1000.0 } else { 1.0 };
            s.push(SimTime::from_ms(i), v);
        }
        let d = s.downsample_peaks(20);
        assert!(d.len() <= 21);
        assert!(
            d.values().contains(&1000.0),
            "peak must survive downsampling"
        );
    }

    #[test]
    fn downsample_small_series_is_identity() {
        let s = series(&[(0, 1.0), (1, 2.0)]);
        let d = s.downsample_peaks(10);
        assert_eq!(d.len(), 2);
        assert_eq!(d.values(), s.values());
    }

    #[test]
    fn csv_render() {
        let s = series(&[(0, 1.5)]);
        let csv = s.to_csv();
        assert!(csv.starts_with("time_s,test\n"));
        assert!(csv.contains("0.0000,1.500000"));
    }
}
