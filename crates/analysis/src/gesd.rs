//! Generalized Extreme Studentized Deviate (GESD) test for multiple
//! outliers (Rosner, Technometrics 1983).
//!
//! Song, Zhu & Cao (MASS 2005) — the paper's reference \[7\] — apply GESD to
//! detect malicious time offsets among collected beacon offsets; SSTSP
//! reuses it in the coarse synchronization phase.
//!
//! GESD tests "up to `r` outliers" in an approximately normal sample
//! without the masking problem of repeated Grubbs tests: it computes the
//! studentized extreme deviate `R_i`, removes the extreme point, and
//! repeats `r` times; the number of outliers is the largest `i` with
//! `R_i > λ_i`, where `λ_i` comes from Student-t percentiles.
//!
//! The t-distribution inverse CDF is implemented here from scratch
//! (inverse-normal by Acklam's rational approximation + Hill's expansion
//! for t), accurate to ~1e-4 in the quantile — far tighter than the
//! decision boundaries involved.

/// GESD test configuration.
#[derive(Debug, Clone, Copy)]
pub struct GesdConfig {
    /// Maximum number of outliers tested for (`r`).
    pub max_outliers: usize,
    /// Significance level α (typically 0.05).
    pub alpha: f64,
}

impl Default for GesdConfig {
    fn default() -> Self {
        GesdConfig {
            max_outliers: 10,
            alpha: 0.05,
        }
    }
}

/// Inverse standard normal CDF (Acklam's rational approximation,
/// |ε| < 1.15e-9).
// Coefficients quoted verbatim from Acklam's publication, trailing zeros
// included.
#[allow(clippy::excessive_precision)]
fn inv_norm(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "probability out of range");
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383577518672690e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -inv_norm(1.0 - p)
    }
}

/// Inverse CDF of Student's t with `df` degrees of freedom (Hill 1970
/// asymptotic expansion around the normal quantile; good to ~1e-4 for
/// df ≥ 3, exact cases handled separately for tiny df).
fn inv_t(p: f64, df: f64) -> f64 {
    assert!(df >= 1.0, "degrees of freedom must be >= 1");
    if (p - 0.5).abs() < 1e-15 {
        return 0.0;
    }
    // Exact closed forms for df = 1, 2.
    if df == 1.0 {
        return (std::f64::consts::PI * (p - 0.5)).tan();
    }
    if df == 2.0 {
        let a = 2.0 * p - 1.0;
        return a * (2.0 / (1.0 - a * a)).sqrt();
    }
    let x = inv_norm(p);
    let g1 = (x.powi(3) + x) / 4.0;
    let g2 = (5.0 * x.powi(5) + 16.0 * x.powi(3) + 3.0 * x) / 96.0;
    let g3 = (3.0 * x.powi(7) + 19.0 * x.powi(5) + 17.0 * x.powi(3) - 15.0 * x) / 384.0;
    let g4 = (79.0 * x.powi(9) + 776.0 * x.powi(7) + 1482.0 * x.powi(5)
        - 1920.0 * x.powi(3)
        - 945.0 * x)
        / 92_160.0;
    x + g1 / df + g2 / df.powi(2) + g3 / df.powi(3) + g4 / df.powi(4)
}

/// GESD critical value λ_i for the i-th test (1-based) on a sample of
/// size `n` at level α.
fn lambda(i: usize, n: usize, alpha: f64) -> f64 {
    let n_f = n as f64;
    let i_f = i as f64;
    let p = 1.0 - alpha / (2.0 * (n_f - i_f + 1.0));
    let df = n_f - i_f - 1.0;
    let t = inv_t(p, df);
    (n_f - i_f) * t / (((n_f - i_f - 1.0 + t * t) * (n_f - i_f + 1.0)).sqrt())
}

/// Run the GESD test. Returns the indices (into `data`) of detected
/// outliers, most extreme first. Empty when no outliers are detected or
/// the sample is too small (`n < max_outliers + 3`, where the test loses
/// meaning).
pub fn gesd_outliers(data: &[f64], config: GesdConfig) -> Vec<usize> {
    let n = data.len();
    let r = config.max_outliers.min(n.saturating_sub(3));
    if n < 4 || r == 0 {
        return Vec::new();
    }

    // Working copy with original indices.
    let mut working: Vec<(usize, f64)> = data.iter().copied().enumerate().collect();
    let mut removed: Vec<usize> = Vec::with_capacity(r);
    let mut last_significant = 0usize;

    for i in 1..=r {
        let m = working.len() as f64;
        let mean = working.iter().map(|(_, x)| x).sum::<f64>() / m;
        let var = working.iter().map(|(_, x)| (x - mean).powi(2)).sum::<f64>() / (m - 1.0);
        let sd = var.sqrt();
        if sd <= f64::EPSILON {
            break; // all remaining points identical: no further outliers
        }
        // Most extreme point.
        let (pos, &(orig_idx, value)) = working
            .iter()
            .enumerate()
            .max_by(|a, b| {
                let da = (a.1 .1 - mean).abs();
                let db = (b.1 .1 - mean).abs();
                da.partial_cmp(&db).expect("no NaN in offsets")
            })
            .expect("non-empty working set");
        let r_i = (value - mean).abs() / sd;
        if r_i > lambda(i, n, config.alpha) {
            last_significant = i;
        }
        removed.push(orig_idx);
        working.remove(pos);
    }

    removed.truncate(last_significant);
    removed
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rosner's 54-point dataset from the NIST/SEMATECH e-Handbook GESD
    /// example; the documented conclusion is exactly 3 outliers
    /// (6.01, 5.42, 5.34).
    const ROSNER: [f64; 54] = [
        -0.25, 0.68, 0.94, 1.15, 1.20, 1.26, 1.26, 1.34, 1.38, 1.43, 1.49, 1.49, 1.55, 1.56, 1.58,
        1.65, 1.69, 1.70, 1.76, 1.77, 1.81, 1.91, 1.94, 1.96, 1.99, 2.06, 2.09, 2.10, 2.14, 2.15,
        2.23, 2.24, 2.26, 2.35, 2.37, 2.40, 2.47, 2.54, 2.62, 2.64, 2.90, 2.92, 2.92, 2.93, 3.21,
        3.26, 3.30, 3.59, 3.68, 4.30, 4.64, 5.34, 5.42, 6.01,
    ];

    #[test]
    fn inv_norm_known_quantiles() {
        assert!((inv_norm(0.5)).abs() < 1e-9);
        assert!((inv_norm(0.975) - 1.959964).abs() < 1e-5);
        assert!((inv_norm(0.05) + 1.644854).abs() < 1e-5);
        assert!((inv_norm(0.999) - 3.090232).abs() < 1e-5);
    }

    #[test]
    fn inv_t_known_quantiles() {
        // Classic t-table values.
        assert!((inv_t(0.975, 1.0) - 12.7062).abs() < 1e-3);
        assert!((inv_t(0.975, 2.0) - 4.30265).abs() < 1e-3);
        assert!((inv_t(0.975, 10.0) - 2.22814).abs() < 5e-3);
        assert!((inv_t(0.95, 30.0) - 1.69726).abs() < 2e-3);
        assert!((inv_t(0.99, 50.0) - 2.40327).abs() < 2e-3);
        // Symmetry.
        assert!((inv_t(0.25, 8.0) + inv_t(0.75, 8.0)).abs() < 1e-12);
    }

    #[test]
    fn rosner_dataset_yields_three_outliers() {
        let out = gesd_outliers(&ROSNER, GesdConfig::default());
        assert_eq!(out.len(), 3, "NIST documents exactly 3 outliers");
        let mut values: Vec<f64> = out.iter().map(|&i| ROSNER[i]).collect();
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(values, vec![5.34, 5.42, 6.01]);
    }

    #[test]
    fn clean_normal_like_data_has_no_outliers() {
        // Deterministic near-normal sample via inverse CDF stratification.
        let data: Vec<f64> = (1..=40)
            .map(|i| inv_norm(i as f64 / 41.0) * 3.0 + 100.0)
            .collect();
        let out = gesd_outliers(&data, GesdConfig::default());
        assert!(out.is_empty(), "false positives: {out:?}");
    }

    #[test]
    fn single_gross_outlier_detected() {
        let mut data: Vec<f64> = (1..=30).map(|i| inv_norm(i as f64 / 31.0) * 2.0).collect();
        data.push(500.0);
        let out = gesd_outliers(&data, GesdConfig::default());
        assert_eq!(out, vec![30]);
    }

    #[test]
    fn detects_attacker_cluster_in_offsets() {
        // Coarse-phase scenario: 20 honest offsets around 5 µs (σ ≈ 2),
        // 4 malicious offsets at -30 000 µs.
        let mut data: Vec<f64> = (1..=20)
            .map(|i| 5.0 + inv_norm(i as f64 / 21.0) * 2.0)
            .collect();
        for k in 0..4 {
            data.push(-30_000.0 - k as f64);
        }
        let out = gesd_outliers(&data, GesdConfig::default());
        assert_eq!(out.len(), 4);
        assert!(
            out.iter().all(|&i| i >= 20),
            "flagged honest offsets: {out:?}"
        );
    }

    #[test]
    fn tiny_samples_return_nothing() {
        assert!(gesd_outliers(&[1.0, 2.0], GesdConfig::default()).is_empty());
        assert!(gesd_outliers(&[], GesdConfig::default()).is_empty());
        assert!(gesd_outliers(&[1.0, 2.0, 900.0], GesdConfig::default()).is_empty());
    }

    #[test]
    fn identical_values_no_outliers() {
        let data = vec![7.0; 20];
        assert!(gesd_outliers(&data, GesdConfig::default()).is_empty());
    }

    #[test]
    fn max_outliers_caps_detection() {
        // r = 1 with a single gross outlier: detected.
        let mut data: Vec<f64> = (1..=30).map(|i| inv_norm(i as f64 / 31.0) * 2.0).collect();
        data.push(1_000.0);
        let cfg = GesdConfig {
            max_outliers: 1,
            alpha: 0.05,
        };
        assert_eq!(gesd_outliers(&data, cfg), vec![30]);

        // More outliers than r: the report never exceeds r. (It may be
        // *empty* — with r below the true outlier count the remaining
        // outliers inflate the variance and mask the test; that is GESD's
        // documented limitation, and why r should be chosen generously.)
        data.push(1_010.0);
        data.push(1_020.0);
        let out = gesd_outliers(&data, cfg);
        assert!(out.len() <= 1, "cap violated: {out:?}");
    }
}
