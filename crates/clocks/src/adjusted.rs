//! SSTSP's adjusted clock `c_i(t_i) = kʲ · t_i + bʲ`.
//!
//! The adjusted clock takes the node's *local unadjusted time* `t_i` (the
//! free-running oscillator) as input and outputs synchronized time. On
//! receiving the `j`-th reference beacon, SSTSP re-derives `(kʲ, bʲ)` from
//! four constraints — equations (2)–(5) of the paper:
//!
//! 1. **Continuity** at the adjustment instant: the new line passes through
//!    the point the old line was at (`kʲ⁻¹ t_iʲ + bʲ⁻¹ = kʲ t_iʲ + bʲ`), so
//!    the clock never jumps.
//! 2. **Convergence**: the adjusted clock is expected to *equal* the
//!    reference clock at the expected arrival of beacon `j + m`
//!    (`c_i((t_iʲ⁺ᵐ)*) = (ts_refʲ⁺ᵐ)*`).
//! 3. **Linearity**: the expected local arrival time of beacon `j + m` is
//!    extrapolated from the last two authenticated samples.
//! 4. **Schedule**: the reference emits beacon `j + m` at `Tʲ⁺ᵐ = T₀ +
//!    (j+m)·BP` (observed at the receiver `t_p` later).
//!
//! `m > 1` is the *aggressiveness* parameter: larger `m` converges more
//! slowly but tolerates reference changes better (Lemma 2 shows the optimal
//! `m` is `l + 3`).
//!
//! [`AdjustedClock::retarget`] solves the system directly (the continuity
//! point plus the predicted target point determine the line); the test
//! module cross-checks it against the paper's closed-form expressions for
//! `kʲ` and `bʲ`.

/// One synchronization observation: the pair of simultaneous readings
/// `(t_iʲ, ts_refʲ)` — local unadjusted time at beacon reception, and the
/// reference's adjusted timestamp corrected for transmission/propagation
/// delay (`ts_ref = t_ref + t_p`, estimated at the receiver).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SyncSample {
    /// Local unadjusted time at beacon reception (µs).
    pub local_us: f64,
    /// Reference adjusted time at the same instant (µs).
    pub ref_us: f64,
}

/// Why a re-targeting attempt was refused (the clock is left unchanged).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RetargetError {
    /// The two history samples do not span time (`ts_refʲ⁻¹ ≤ ts_refʲ⁻²`
    /// or `t_iʲ⁻¹ ≤ t_iʲ⁻²`) — cannot estimate relative rate.
    DegenerateHistory,
    /// The predicted convergence instant does not lie in the local future;
    /// the correction would be ill-posed.
    TargetNotInFuture,
    /// The implied rate `kʲ` fell outside the plausible band; with
    /// real-world drifts (±100 ppm) a value far from 1 means corrupt
    /// inputs, not a clock correction.
    UnstableGain {
        /// The rejected rate.
        k: f64,
    },
}

/// Plausibility band for `kʲ`. Honest corrections stay within a few parts
/// per thousand of 1 (offset ≤ guard-time over a horizon of `m` beacon
/// periods); an order-of-magnitude excursion indicates corrupt input.
const K_MIN: f64 = 0.5;
const K_MAX: f64 = 2.0;

/// SSTSP's piecewise-linear adjusted clock.
#[derive(Debug, Clone, Copy)]
pub struct AdjustedClock {
    k: f64,
    b: f64,
    adjustments: u64,
}

impl Default for AdjustedClock {
    fn default() -> Self {
        Self::identity()
    }
}

impl AdjustedClock {
    /// The initial clock: `k = 1, b = 0` (the paper's `j ≤ 2` state), i.e.
    /// adjusted time equals local unadjusted time.
    pub fn identity() -> Self {
        AdjustedClock {
            k: 1.0,
            b: 0.0,
            adjustments: 0,
        }
    }

    /// Construct with explicit parameters (used by the coarse phase, which
    /// steps the offset once before fine-grained synchronization begins).
    pub fn with_params(k: f64, b: f64) -> Self {
        assert!(
            k > 0.0 && k.is_finite(),
            "adjusted clock rate must be positive"
        );
        AdjustedClock {
            k,
            b,
            adjustments: 0,
        }
    }

    /// Current coefficient `kʲ`.
    pub fn k(&self) -> f64 {
        self.k
    }

    /// Current offset `bʲ` (µs).
    pub fn b(&self) -> f64 {
        self.b
    }

    /// Number of successful re-targetings.
    pub fn adjustments(&self) -> u64 {
        self.adjustments
    }

    /// Adjusted time `c_i(t_i)` for local unadjusted time `local_us`.
    #[inline]
    pub fn value(&self, local_us: f64) -> f64 {
        self.k * local_us + self.b
    }

    /// Replace the rate with `rate`, keeping the clock continuous at
    /// `local_us`. Used when a node assumes the reference role: its current
    /// `kʲ` may encode a *catch-up transient*, not its rate; freezing a
    /// transient (the reference never re-targets) would make the whole
    /// network's time drift at the transient slope.
    ///
    /// # Panics
    /// Panics unless `rate` is positive and finite.
    pub fn set_rate_continuous(&mut self, local_us: f64, rate: f64) {
        assert!(rate > 0.0 && rate.is_finite(), "rate must be positive");
        let c_now = self.value(local_us);
        self.k = rate;
        self.b = c_now - rate * local_us;
    }

    /// Shift the offset so the clock reads `target_us` at `local_us`,
    /// keeping the rate. This is the *coarse-phase* step adjustment — it may
    /// jump (including backwards) and is only legal before a node joins the
    /// fine-grained phase.
    pub fn step_to(&mut self, local_us: f64, target_us: f64) {
        self.b += target_us - self.value(local_us);
    }

    /// Re-derive `(kʲ, bʲ)` per equations (2)–(5).
    ///
    /// * `now_local_us` — `t_iʲ`, local unadjusted time of the adjustment
    ///   (reception of beacon `j`);
    /// * `prev`, `prev2` — the two most recent *authenticated* samples
    ///   `(t_iʲ⁻¹, ts_refʲ⁻¹)` and `(t_iʲ⁻², ts_refʲ⁻²)`;
    /// * `target_adjusted_us` — `(ts_refʲ⁺ᵐ)* = Tʲ⁺ᵐ + t_p`, where the
    ///   adjusted clock must meet the reference.
    ///
    /// On error the clock is unchanged.
    pub fn retarget(
        &mut self,
        now_local_us: f64,
        prev: SyncSample,
        prev2: SyncSample,
        target_adjusted_us: f64,
    ) -> Result<(), RetargetError> {
        let d_local = prev.local_us - prev2.local_us;
        let d_ref = prev.ref_us - prev2.ref_us;
        if d_local <= 0.0 || d_ref <= 0.0 {
            return Err(RetargetError::DegenerateHistory);
        }
        // Equation (4): extrapolate the local arrival time of beacon j+m
        // from the local-vs-reference slope of the last two samples.
        let slope = d_local / d_ref;
        let pred_local = prev.local_us + slope * (target_adjusted_us - prev.ref_us);
        if pred_local <= now_local_us {
            return Err(RetargetError::TargetNotInFuture);
        }
        // Equation (2): continuity — the new line passes through
        // (now, c_old(now)). Equation (3)+(5): it passes through
        // (pred_local, target).
        let c_now = self.value(now_local_us);
        let k_new = (target_adjusted_us - c_now) / (pred_local - now_local_us);
        if !(K_MIN..=K_MAX).contains(&k_new) || !k_new.is_finite() {
            return Err(RetargetError::UnstableGain { k: k_new });
        }
        self.k = k_new;
        self.b = c_now - k_new * now_local_us;
        self.adjustments += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BP: f64 = 100_000.0; // µs
    const TP: f64 = 25.0; // transmission+propagation delay, µs

    /// The paper's closed-form expressions for kʲ and bʲ (Sec. 3.3),
    /// transcribed verbatim for cross-validation.
    #[allow(clippy::too_many_arguments)]
    fn paper_closed_form(
        k_prev: f64,
        b_prev: f64,
        t_j: f64,
        t_jm1: f64,
        t_jm2: f64,
        ts_jm1: f64,
        ts_jm2: f64,
        t_target: f64,
    ) -> (f64, f64) {
        let c_now = k_prev * t_j + b_prev;
        let num = (t_target - c_now) * (ts_jm1 - ts_jm2);
        let den = (t_jm1 - t_jm2) * (t_target - ts_jm1) + (t_jm1 - t_j) * (ts_jm1 - ts_jm2);
        let k = num / den;
        let b = -num * t_j / den + c_now;
        (k, b)
    }

    /// Drive an (oscillator, adjusted clock) pair against a perfect
    /// reference for `beacons` beacon periods; returns |c_i - ts_ref| at
    /// each beacon reception.
    fn converge(rate: f64, offset: f64, m: usize, beacons: usize) -> Vec<f64> {
        let mut clock = AdjustedClock::identity();
        // Node's local unadjusted clock: local = offset + rate * real.
        let local = |real: f64| offset + rate * real;
        let mut history: Vec<SyncSample> = Vec::new();
        let mut errors = Vec::new();
        for j in 1..=beacons {
            let real = j as f64 * BP + TP; // reception instant of beacon j
            let t_j = local(real);
            let ts_ref = real; // perfect reference: ts_ref = real time
            if history.len() >= 2 {
                let prev = history[history.len() - 1];
                let prev2 = history[history.len() - 2];
                let target = (j + m) as f64 * BP + TP;
                clock
                    .retarget(t_j, prev, prev2, target)
                    .expect("retarget must succeed on clean data");
            }
            errors.push((clock.value(t_j) - ts_ref).abs());
            history.push(SyncSample {
                local_us: t_j,
                ref_us: ts_ref,
            });
        }
        errors
    }

    #[test]
    fn identity_clock_passes_through() {
        let c = AdjustedClock::identity();
        assert_eq!(c.value(12_345.0), 12_345.0);
        assert_eq!(c.k(), 1.0);
        assert_eq!(c.b(), 0.0);
    }

    #[test]
    fn step_to_moves_reading() {
        let mut c = AdjustedClock::identity();
        c.step_to(1_000.0, 900.0);
        assert!((c.value(1_000.0) - 900.0).abs() < 1e-12);
        assert_eq!(c.k(), 1.0, "coarse step leaves the rate alone");
    }

    #[test]
    fn solver_matches_paper_closed_form() {
        // Arbitrary but realistic inputs.
        let (k_prev, b_prev) = (1.00004, -37.5);
        let t_j = 500_012.0;
        let (t_jm1, t_jm2) = (400_008.0, 300_003.0);
        let (ts_jm1, ts_jm2) = (400_025.0, 300_025.0);
        let target = 900_025.0;

        let mut c = AdjustedClock::with_params(k_prev, b_prev);
        c.retarget(
            t_j,
            SyncSample {
                local_us: t_jm1,
                ref_us: ts_jm1,
            },
            SyncSample {
                local_us: t_jm2,
                ref_us: ts_jm2,
            },
            target,
        )
        .unwrap();

        let (k_paper, b_paper) =
            paper_closed_form(k_prev, b_prev, t_j, t_jm1, t_jm2, ts_jm1, ts_jm2, target);
        assert!(
            (c.k() - k_paper).abs() < 1e-12,
            "k: solver {} vs paper {}",
            c.k(),
            k_paper
        );
        assert!(
            (c.b() - b_paper).abs() < 1e-6,
            "b: solver {} vs paper {}",
            c.b(),
            b_paper
        );
    }

    #[test]
    fn continuity_at_adjustment_instant() {
        let mut c = AdjustedClock::with_params(1.0002, 17.0);
        let t_j = 300_000.0;
        let before = c.value(t_j);
        c.retarget(
            t_j,
            SyncSample {
                local_us: 200_000.0,
                ref_us: 200_040.0,
            },
            SyncSample {
                local_us: 100_000.0,
                ref_us: 100_030.0,
            },
            600_040.0,
        )
        .unwrap();
        let after = c.value(t_j);
        assert!(
            (before - after).abs() < 1e-9,
            "clock jumped by {} µs at the adjustment instant",
            after - before
        );
    }

    #[test]
    fn lemma1_converges_for_all_m() {
        for m in 1..=5 {
            let errors = converge(1.0001, 80.0, m, 40);
            let last = *errors.last().unwrap();
            assert!(
                last < 0.5,
                "m={m}: residual error {last} µs after 40 beacons"
            );
        }
    }

    #[test]
    fn lemma1_geometric_decay_rate() {
        // Per Lemma 1 with d ≈ 0: D^{n+1}/D^n ≈ (m-1)/m for m > 1.
        let m = 4;
        let errors = converge(0.99995, 100.0, m, 20);
        // Skip the first few beacons (bootstrap) and the tail (floating
        // point floor), check the ratio where the decay is clean.
        for w in errors[3..10].windows(2) {
            let ratio = w[1] / w[0];
            let expect = (m as f64 - 1.0) / m as f64;
            assert!(
                (ratio - expect).abs() < 0.1,
                "decay ratio {ratio:.4}, expected ≈ {expect:.4}"
            );
        }
    }

    #[test]
    fn m1_converges_immediately() {
        // Lemma 1: for m = 1 the ratio is d/(BP - d) ≈ 0 — one-shot
        // convergence.
        let errors = converge(1.00008, -90.0, 1, 10);
        assert!(
            errors[4] < 1e-6,
            "m=1 should converge within a couple of beacons, error {}",
            errors[4]
        );
    }

    #[test]
    fn adjusted_clock_is_monotone_through_adjustments() {
        // No backward or discontinuous leaps: sample the clock densely
        // across several retargetings and require strict increase.
        let mut clock = AdjustedClock::identity();
        let rate = 1.0001;
        let offset = 100.0;
        let local = |real: f64| offset + rate * real;
        let mut history: Vec<SyncSample> = Vec::new();
        let mut last_c = f64::MIN;
        for j in 1..=12usize {
            let real_rx = j as f64 * BP + TP;
            // Dense sampling of the interval before this beacon.
            for step in 0..100 {
                let real = (j - 1) as f64 * BP + step as f64 * (BP / 100.0);
                if real <= 0.0 {
                    continue;
                }
                let c = clock.value(local(real));
                assert!(c > last_c, "adjusted clock not increasing at j={j}");
                last_c = c;
            }
            let t_j = local(real_rx);
            if history.len() >= 2 {
                clock
                    .retarget(
                        t_j,
                        history[history.len() - 1],
                        history[history.len() - 2],
                        (j + 3) as f64 * BP + TP,
                    )
                    .unwrap();
            }
            history.push(SyncSample {
                local_us: t_j,
                ref_us: real_rx,
            });
        }
    }

    #[test]
    fn degenerate_history_rejected() {
        let mut c = AdjustedClock::identity();
        let s = SyncSample {
            local_us: 100.0,
            ref_us: 100.0,
        };
        assert_eq!(
            c.retarget(200.0, s, s, 1_000.0),
            Err(RetargetError::DegenerateHistory)
        );
        assert_eq!(c.k(), 1.0, "failed retarget must not modify the clock");
    }

    #[test]
    fn past_target_rejected() {
        let mut c = AdjustedClock::identity();
        let prev = SyncSample {
            local_us: 200_000.0,
            ref_us: 200_000.0,
        };
        let prev2 = SyncSample {
            local_us: 100_000.0,
            ref_us: 100_000.0,
        };
        // Target earlier than "now" in reference time.
        assert_eq!(
            c.retarget(300_000.0, prev, prev2, 250_000.0),
            Err(RetargetError::TargetNotInFuture)
        );
    }

    #[test]
    fn wild_inputs_rejected_as_unstable() {
        let mut c = AdjustedClock::identity();
        let prev = SyncSample {
            local_us: 200_000.0,
            ref_us: 200_000.0,
        };
        let prev2 = SyncSample {
            local_us: 100_000.0,
            ref_us: 100_000.0,
        };
        // Adjusted clock wildly behind the target (forged timestamps would
        // produce this): implied k explodes.
        let mut hijacked = AdjustedClock::with_params(1.0, -10_000_000.0);
        let err = hijacked.retarget(300_000.0, prev, prev2, 400_000.0);
        assert!(matches!(err, Err(RetargetError::UnstableGain { .. })));
        // Clean clock still fine.
        assert!(c.retarget(300_000.0, prev, prev2, 400_000.0).is_ok());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    const BP: f64 = 100_000.0;

    proptest! {
        /// Lemma 1 as a property: for any drift within the paper's bounds,
        /// any initial offset within Table 1's range, and any m in 1..=5,
        /// the adjusted clock converges to the reference within 60 beacons.
        #[test]
        fn converges_for_paper_parameter_space(
            rate in 0.9999f64..1.0001,
            offset in -112.0f64..112.0,
            m in 1usize..=5,
        ) {
            let mut clock = AdjustedClock::identity();
            let local = |real: f64| offset + rate * real;
            let mut history: Vec<SyncSample> = Vec::new();
            let mut final_err = f64::MAX;
            for j in 1..=60usize {
                let real = j as f64 * BP;
                let t_j = local(real);
                if history.len() >= 2 {
                    let target = (j + m) as f64 * BP;
                    let _ = clock.retarget(
                        t_j,
                        history[history.len() - 1],
                        history[history.len() - 2],
                        target,
                    );
                }
                final_err = (clock.value(t_j) - real).abs();
                history.push(SyncSample { local_us: t_j, ref_us: real });
            }
            prop_assert!(final_err < 1.0, "residual {final_err} µs");
        }

        /// Continuity is unconditional: whenever retarget succeeds, the
        /// clock value at the adjustment instant is unchanged.
        #[test]
        fn continuity_always_holds(
            k_prev in 0.999f64..1.001,
            b_prev in -1000.0f64..1000.0,
            dt in 1_000.0f64..200_000.0,
            m in 1usize..=5,
        ) {
            let mut c = AdjustedClock::with_params(k_prev, b_prev);
            let t_jm2 = 100_000.0;
            let t_jm1 = t_jm2 + dt;
            let t_j = t_jm1 + dt;
            let prev2 = SyncSample { local_us: t_jm2, ref_us: t_jm2 };
            let prev = SyncSample { local_us: t_jm1, ref_us: t_jm1 };
            let target = t_j + m as f64 * BP;
            let before = c.value(t_j);
            if c.retarget(t_j, prev, prev2, target).is_ok() {
                prop_assert!((c.value(t_j) - before).abs() < 1e-6);
            }
        }
    }
}
