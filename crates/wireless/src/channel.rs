//! The single-collision-domain channel.
//!
//! [`Channel::resolve_window`] implements one beacon generation window:
//! given every station's chosen transmission slot, it determines the
//! winning slot (earliest), whether the winners collided, and — for a
//! successful transmission — which receivers the beacon actually reached
//! (independent Bernoulli packet errors). Jamming windows destroy all
//! transmissions.

use rand::Rng;

/// A station's transmission attempt within a beacon generation window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxAttempt {
    /// Opaque station identifier (index into the scenario's node table).
    pub station: u32,
    /// The slot (0-based within the window) the station's random delay
    /// timer expires in. The reference node and attackers use slot 0.
    pub slot: u32,
}

/// Per-receiver delivery verdict for a successful transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// The receiver decoded the beacon.
    Received,
    /// The beacon was lost to a packet error at this receiver.
    Lost,
}

/// The outcome of one beacon generation window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WindowOutcome {
    /// Nobody attempted to transmit.
    Silent,
    /// The channel was jammed; every transmission was destroyed.
    Jammed {
        /// Stations whose transmissions were destroyed.
        victims: Vec<u32>,
    },
    /// Two or more stations transmitted in the earliest occupied slot; all
    /// their beacons were destroyed. Stations in later slots heard the
    /// energy and cancelled.
    Collision {
        /// The slot in which the collision happened.
        slot: u32,
        /// The colliding stations.
        colliders: Vec<u32>,
    },
    /// Exactly one station transmitted in the earliest occupied slot.
    Success {
        /// The winning station.
        winner: u32,
        /// The slot it transmitted in.
        slot: u32,
    },
}

/// Single-collision-domain channel with Bernoulli packet errors.
#[derive(Debug, Clone)]
pub struct Channel {
    /// Packet error rate per (beacon, receiver) pair. The paper sets
    /// 0.01 % = 1e-4.
    per: f64,
    /// Additional, usually transient, loss probability injected by a fault
    /// layer (burst interference, deep fades). Composed with `per` as
    /// independent loss causes in a single RNG draw so that enabling it
    /// does not change the number of draws on the channel-error stream.
    burst_loss: f64,
    /// When true, every transmission in the current window is destroyed.
    jammed: bool,
}

impl Channel {
    /// Create a channel with the given packet error rate.
    ///
    /// # Panics
    /// Panics unless `0 ≤ per < 1`.
    pub fn new(per: f64) -> Self {
        assert!((0.0..1.0).contains(&per), "PER must be in [0, 1)");
        Channel {
            per,
            burst_loss: 0.0,
            jammed: false,
        }
    }

    /// The paper's channel: PER = 0.01 %.
    pub fn paper() -> Self {
        Channel::new(1e-4)
    }

    /// A perfect channel (no losses) for unit tests.
    pub fn lossless() -> Self {
        Channel::new(0.0)
    }

    /// Packet error rate in force.
    pub fn per(&self) -> f64 {
        self.per
    }

    /// Set the fault-injected burst loss probability (0 disables it).
    ///
    /// # Panics
    /// Panics unless `0 ≤ p ≤ 1`; `p = 1` models a total blackout.
    pub fn set_burst_loss(&mut self, p: f64) {
        assert!((0.0..=1.0).contains(&p), "burst loss must be in [0, 1]");
        self.burst_loss = p;
    }

    /// Burst loss probability currently in force.
    pub fn burst_loss(&self) -> f64 {
        self.burst_loss
    }

    /// Engage / release the jammer.
    pub fn set_jammed(&mut self, jammed: bool) {
        self.jammed = jammed;
    }

    /// Whether the channel is currently jammed.
    pub fn is_jammed(&self) -> bool {
        self.jammed
    }

    /// Resolve one beacon generation window.
    ///
    /// `attempts` lists every station whose delay timer would fire this
    /// window together with its slot. Order does not matter; determinism
    /// comes from the content (ties on the earliest slot are a collision,
    /// not a coin flip).
    pub fn resolve_window(&self, attempts: &[TxAttempt]) -> WindowOutcome {
        if attempts.is_empty() {
            return WindowOutcome::Silent;
        }
        if self.jammed {
            let mut victims: Vec<u32> = attempts.iter().map(|a| a.station).collect();
            victims.sort_unstable();
            return WindowOutcome::Jammed { victims };
        }
        let min_slot = attempts.iter().map(|a| a.slot).min().expect("non-empty");
        // Success is the steady-state outcome, so decide it without
        // collecting the earliest-slot occupants; the collision path keeps
        // its sorted collider list.
        let mut occupants = 0usize;
        let mut winner = u32::MAX;
        for a in attempts {
            if a.slot == min_slot {
                occupants += 1;
                winner = winner.min(a.station);
            }
        }
        if occupants == 1 {
            WindowOutcome::Success {
                winner,
                slot: min_slot,
            }
        } else {
            let mut colliders: Vec<u32> = attempts
                .iter()
                .filter(|a| a.slot == min_slot)
                .map(|a| a.station)
                .collect();
            colliders.sort_unstable();
            WindowOutcome::Collision {
                slot: min_slot,
                colliders,
            }
        }
    }

    /// Per-receiver delivery draw for a successful transmission. One call
    /// per receiver; the RNG must be the channel-error stream so results
    /// are independent of unrelated randomness.
    pub fn deliver<R: Rng + ?Sized>(&self, rng: &mut R) -> Delivery {
        // Independent loss causes: survive both the base PER and any burst.
        let loss = self.per + self.burst_loss - self.per * self.burst_loss;
        if loss > 0.0 && rng.random_range(0.0..1.0) < loss {
            Delivery::Lost
        } else {
            Delivery::Received
        }
    }

    /// Batched delivery draws: fills `out` with `count` verdicts, one per
    /// receiver in call order. Draw-for-draw equivalent to `count`
    /// sequential [`Channel::deliver`] calls on the same RNG — identical
    /// draw count (zero when the composed loss probability is zero) and
    /// identical per-receiver decisions — but the words are drawn in bulk
    /// through [`RngCore::fill_u64`](rand::RngCore::fill_u64), a fixed-size
    /// stack chunk at a time, so the engine's receiver loop can separate
    /// randomness from delivery work.
    pub fn deliver_batch<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        count: usize,
        out: &mut Vec<Delivery>,
    ) {
        const CHUNK: usize = 64;
        out.clear();
        let loss = self.per + self.burst_loss - self.per * self.burst_loss;
        if loss > 0.0 {
            let mut words = [0u64; CHUNK];
            let mut left = count;
            while left > 0 {
                let words = &mut words[..left.min(CHUNK)];
                rng.fill_u64(words);
                out.extend(words.iter().map(|&w| {
                    if unit_f64(w) < loss {
                        Delivery::Lost
                    } else {
                        Delivery::Received
                    }
                }));
                left -= words.len();
            }
        } else {
            out.resize(count, Delivery::Received);
        }
    }
}

/// `rng.random_range(0.0..1.0)` for the draw `word`: 53 random mantissa
/// bits scaled into `[0, 1)` (the half-open range's top-of-range guard
/// never fires at `hi = 1`). `deliver_batch_matches_sequential_deliver`
/// pins the two equal.
#[inline]
fn unit_f64(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha12Rng;

    fn at(station: u32, slot: u32) -> TxAttempt {
        TxAttempt { station, slot }
    }

    #[test]
    fn empty_window_is_silent() {
        assert_eq!(
            Channel::lossless().resolve_window(&[]),
            WindowOutcome::Silent
        );
    }

    #[test]
    fn earliest_slot_wins() {
        let ch = Channel::lossless();
        let out = ch.resolve_window(&[at(1, 5), at(2, 3), at(3, 9)]);
        assert_eq!(out, WindowOutcome::Success { winner: 2, slot: 3 });
    }

    #[test]
    fn equal_earliest_slots_collide() {
        let ch = Channel::lossless();
        let out = ch.resolve_window(&[at(1, 2), at(2, 2), at(3, 7)]);
        assert_eq!(
            out,
            WindowOutcome::Collision {
                slot: 2,
                colliders: vec![1, 2]
            }
        );
    }

    #[test]
    fn later_stations_do_not_collide_with_winner() {
        // Carrier sense: a station in a later slot cancels; only the
        // earliest slot's occupancy decides.
        let ch = Channel::lossless();
        let out = ch.resolve_window(&[at(9, 0), at(1, 0), at(2, 1), at(3, 1)]);
        assert_eq!(
            out,
            WindowOutcome::Collision {
                slot: 0,
                colliders: vec![1, 9]
            }
        );
    }

    #[test]
    fn order_of_attempts_is_irrelevant() {
        let ch = Channel::lossless();
        let a = ch.resolve_window(&[at(1, 4), at(2, 2)]);
        let b = ch.resolve_window(&[at(2, 2), at(1, 4)]);
        assert_eq!(a, b);
    }

    #[test]
    fn jamming_destroys_everything() {
        let mut ch = Channel::lossless();
        ch.set_jammed(true);
        let out = ch.resolve_window(&[at(3, 0), at(1, 5)]);
        assert_eq!(
            out,
            WindowOutcome::Jammed {
                victims: vec![1, 3]
            }
        );
        ch.set_jammed(false);
        assert!(matches!(
            ch.resolve_window(&[at(3, 0)]),
            WindowOutcome::Success { winner: 3, .. }
        ));
    }

    #[test]
    fn lossless_channel_always_delivers() {
        let ch = Channel::lossless();
        let mut rng = ChaCha12Rng::seed_from_u64(0);
        for _ in 0..1000 {
            assert_eq!(ch.deliver(&mut rng), Delivery::Received);
        }
    }

    #[test]
    fn per_statistics_match_configuration() {
        let ch = Channel::new(0.05);
        let mut rng = ChaCha12Rng::seed_from_u64(7);
        let n = 200_000;
        let lost = (0..n)
            .filter(|_| ch.deliver(&mut rng) == Delivery::Lost)
            .count();
        let rate = lost as f64 / n as f64;
        assert!(
            (rate - 0.05).abs() < 0.005,
            "observed loss rate {rate}, configured 0.05"
        );
    }

    #[test]
    fn paper_channel_rarely_loses() {
        let ch = Channel::paper();
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        let n = 100_000;
        let lost = (0..n)
            .filter(|_| ch.deliver(&mut rng) == Delivery::Lost)
            .count();
        // 1e-4 × 1e5 = 10 expected; allow wide slack.
        assert!(lost < 40, "lost {lost} of {n}");
    }

    #[test]
    #[should_panic(expected = "PER must be in")]
    fn invalid_per_rejected() {
        let _ = Channel::new(1.0);
    }

    #[test]
    fn zero_burst_loss_preserves_draw_count() {
        // A channel with burst loss explicitly set to 0 must consume the
        // channel-error stream exactly as one that never touched it —
        // otherwise enabling the fault layer would shift all downstream
        // randomness even in fault-free windows.
        let plain = Channel::new(0.05);
        let mut touched = Channel::new(0.05);
        touched.set_burst_loss(0.3);
        touched.set_burst_loss(0.0);
        let mut rng_a = ChaCha12Rng::seed_from_u64(42);
        let mut rng_b = ChaCha12Rng::seed_from_u64(42);
        for _ in 0..10_000 {
            assert_eq!(plain.deliver(&mut rng_a), touched.deliver(&mut rng_b));
        }
    }

    #[test]
    fn deliver_batch_matches_sequential_deliver() {
        // The batched path must be draw-for-draw identical to sequential
        // `deliver` calls: same verdicts, same RNG consumption.
        for (per, burst) in [(0.0, 0.0), (0.05, 0.0), (0.0, 0.3), (0.2, 0.4)] {
            let mut ch = Channel::new(per);
            ch.set_burst_loss(burst);
            let mut rng_seq = ChaCha12Rng::seed_from_u64(77);
            let mut rng_batch = ChaCha12Rng::seed_from_u64(77);
            // Batch sizes around the draw chunk and the keystream block,
            // from a start that is not word-aligned within its block.
            rng_seq.next_u32();
            rng_batch.next_u32();
            let mut batch = Vec::new();
            for count in [5_000, 0, 1, 7, 8, 9, 31, 32, 33, 63, 64, 65, 128, 129, 999] {
                let seq: Vec<Delivery> = (0..count).map(|_| ch.deliver(&mut rng_seq)).collect();
                ch.deliver_batch(&mut rng_batch, count, &mut batch);
                assert_eq!(seq, batch, "per={per} burst={burst} count={count}");
                // Both streams must be left at the same position.
                assert_eq!(rng_seq.stream_pos(), rng_batch.stream_pos());
            }
            assert_eq!(
                rng_seq.random_range(0.0..1.0f64),
                rng_batch.random_range(0.0..1.0f64)
            );
        }
    }

    #[test]
    fn burst_loss_composes_with_per() {
        let mut ch = Channel::new(0.1);
        ch.set_burst_loss(0.5);
        let mut rng = ChaCha12Rng::seed_from_u64(3);
        let n = 200_000;
        let lost = (0..n)
            .filter(|_| ch.deliver(&mut rng) == Delivery::Lost)
            .count();
        let rate = lost as f64 / n as f64;
        // Independent causes: 1 − (1 − 0.1)(1 − 0.5) = 0.55.
        assert!((rate - 0.55).abs() < 0.01, "observed loss rate {rate}");
    }

    #[test]
    fn total_burst_loss_blacks_out_channel() {
        let mut ch = Channel::lossless();
        ch.set_burst_loss(1.0);
        let mut rng = ChaCha12Rng::seed_from_u64(0);
        for _ in 0..100 {
            assert_eq!(ch.deliver(&mut rng), Delivery::Lost);
        }
        ch.set_burst_loss(0.0);
        assert_eq!(ch.deliver(&mut rng), Delivery::Received);
    }

    #[test]
    #[should_panic(expected = "burst loss must be in")]
    fn invalid_burst_loss_rejected() {
        Channel::lossless().set_burst_loss(1.5);
    }
}
