//! Deterministic random-stream derivation.
//!
//! Every logical actor in a simulation (a node's oscillator, a node's MAC
//! backoff, the channel's packet-error coin, ...) gets its *own* RNG stream
//! derived from `(master_seed, domain, index)` through a SplitMix64-style
//! mixer. Streams are therefore independent of the order in which other
//! actors draw randomness — the property that makes parameter sweeps
//! reproducible and comparable across protocol variants (common random
//! numbers: TSF and SSTSP runs with the same seed see the same oscillator
//! drifts and the same channel error coins).

use rand_chacha::rand_core::{RngCore, SeedableRng};
use rand_chacha::ChaCha12Rng;

/// Domain separation labels for derived streams.
///
/// Adding a new domain must not renumber existing ones, or archived results
/// stop being reproducible; append only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u64)]
pub enum StreamDomain {
    /// Oscillator frequency/phase sampling for a node.
    Oscillator = 1,
    /// MAC-layer contention backoff draws for a node.
    MacBackoff = 2,
    /// Channel packet-error coin flips.
    ChannelError = 3,
    /// Protocol-internal randomness (e.g. hash-chain seeds).
    Protocol = 4,
    /// Attacker behaviour randomness.
    Attacker = 5,
    /// Scenario-level randomness (churn selection, topology).
    Scenario = 6,
    /// Per-beacon timestamping jitter below the MAC.
    TimestampJitter = 7,
}

/// Factory for independent deterministic RNG streams.
#[derive(Debug, Clone, Copy)]
pub struct RngStreams {
    master: u64,
}

#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl RngStreams {
    /// Create a stream factory from a master seed.
    pub fn new(master: u64) -> Self {
        RngStreams { master }
    }

    /// The master seed this factory was built from.
    pub fn master_seed(&self) -> u64 {
        self.master
    }

    /// Derive the 256-bit seed for `(domain, index)`.
    fn derive_seed(&self, domain: StreamDomain, index: u64) -> [u8; 32] {
        let mut seed = [0u8; 32];
        let mut state = splitmix64(self.master ^ (domain as u64).rotate_left(32) ^ index);
        for chunk in seed.chunks_exact_mut(8) {
            state = splitmix64(state);
            chunk.copy_from_slice(&state.to_le_bytes());
        }
        seed
    }

    /// Build the RNG stream for `(domain, index)`.
    ///
    /// `index` is typically a node id; use 0 for singleton actors like the
    /// channel.
    pub fn stream(&self, domain: StreamDomain, index: u64) -> ChaCha12Rng {
        ChaCha12Rng::from_seed(self.derive_seed(domain, index))
    }
}

/// Words a [`CountingRng`] draws ahead per refill: four ChaCha blocks, one
/// pass of the 4-lane keystream kernel.
const DRAW_AHEAD: usize = 32;

/// A transparent [`RngCore`] wrapper that counts draws, serving
/// `next_u64` from a draw-ahead buffer.
///
/// The wrapper is exact: every call returns what the same call on the bare
/// generator would, so wrapping an engine RNG in telemetry instrumentation
/// cannot perturb a run. `next_u64` draws 32 words at a time through
/// [`RngCore::fill_u64`] (bulk keystream) and serves them one by one. A
/// `next_u32` or `fill_bytes` while drawn-ahead words are unserved first
/// rewinds the generator to the last served word, so it reads the stream
/// from exactly where the bare generator would.
///
/// The count covers what was *served*, never what was drawn ahead: one per
/// `next_u32` / `next_u64` / `fill_bytes` call and one per word of
/// `fill_u64`, a cheap proxy for "how much randomness this actor consumed",
/// useful for spotting draw-pattern drift between runs that should be
/// identical.
#[derive(Debug, Clone)]
pub struct CountingRng<R> {
    /// The generator, positioned after the last drawn-ahead word.
    inner: R,
    /// The generator as it was before the current `ahead` batch was drawn,
    /// kept to rewind to the served position (`served` words later).
    mark: R,
    ahead: [u64; DRAW_AHEAD],
    /// Words of `ahead` already served; `DRAW_AHEAD` = none pending.
    served: usize,
    draws: u64,
}

impl<R: RngCore + Clone> CountingRng<R> {
    /// Wrap `inner`, starting the draw count at zero.
    pub fn new(inner: R) -> Self {
        CountingRng {
            mark: inner.clone(),
            inner,
            ahead: [0; DRAW_AHEAD],
            served: DRAW_AHEAD,
            draws: 0,
        }
    }

    /// Number of draws served through this wrapper so far.
    pub fn draws(&self) -> u64 {
        self.draws
    }

    /// Unwrap, returning the inner generator at the served position.
    pub fn into_inner(mut self) -> R {
        self.rewind();
        self.inner
    }

    /// Drop the unserved drawn-ahead words, moving the generator back to
    /// the served position: replaying the served prefix from `mark`
    /// reproduces it exactly, since `fill_u64` is the `next_u64` loop.
    fn rewind(&mut self) {
        if self.served == DRAW_AHEAD {
            return;
        }
        self.inner = self.mark.clone();
        for _ in 0..self.served {
            self.inner.next_u64();
        }
        self.served = DRAW_AHEAD;
    }
}

impl<R: RngCore + Clone> RngCore for CountingRng<R> {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        self.rewind();
        self.draws += 1;
        self.inner.next_u32()
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        if self.served == DRAW_AHEAD {
            self.mark.clone_from(&self.inner);
            self.inner.fill_u64(&mut self.ahead);
            self.served = 0;
        }
        self.draws += 1;
        let word = self.ahead[self.served];
        self.served += 1;
        word
    }

    #[inline]
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.rewind();
        self.draws += 1;
        self.inner.fill_bytes(dest);
    }

    fn fill_u64(&mut self, dest: &mut [u64]) {
        self.draws += dest.len() as u64;
        let pending = (DRAW_AHEAD - self.served).min(dest.len());
        let (head, rest) = dest.split_at_mut(pending);
        head.copy_from_slice(&self.ahead[self.served..self.served + pending]);
        self.served += pending;
        // Pending words ran out before `rest` begins, so `inner` is at
        // the served position.
        self.inner.fill_u64(rest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_inputs_same_stream() {
        let f = RngStreams::new(42);
        let mut ra = f.stream(StreamDomain::Oscillator, 7);
        let mut rb = f.stream(StreamDomain::Oscillator, 7);
        let a: Vec<u64> = (0..8).map(|_| ra.random()).collect();
        let b: Vec<u64> = (0..8).map(|_| rb.random()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_index_different_stream() {
        let f = RngStreams::new(42);
        let a: u64 = f.stream(StreamDomain::Oscillator, 1).random();
        let b: u64 = f.stream(StreamDomain::Oscillator, 2).random();
        assert_ne!(a, b);
    }

    #[test]
    fn different_domain_different_stream() {
        let f = RngStreams::new(42);
        let a: u64 = f.stream(StreamDomain::Oscillator, 1).random();
        let b: u64 = f.stream(StreamDomain::MacBackoff, 1).random();
        assert_ne!(a, b);
    }

    #[test]
    fn different_master_different_stream() {
        let a: u64 = RngStreams::new(1)
            .stream(StreamDomain::Protocol, 0)
            .random();
        let b: u64 = RngStreams::new(2)
            .stream(StreamDomain::Protocol, 0)
            .random();
        assert_ne!(a, b);
    }

    #[test]
    fn splitmix_known_values() {
        // Reference values from the public-domain SplitMix64 implementation
        // (Vigna), seed 0 advanced once, and seed 1 advanced once.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(1), 0x910A_2DEC_8902_5CC1);
    }

    #[test]
    fn counting_rng_is_transparent_and_counts() {
        let f = RngStreams::new(7);
        let mut plain = f.stream(StreamDomain::ChannelError, 0);
        let mut counted = CountingRng::new(f.stream(StreamDomain::ChannelError, 0));
        assert_eq!(counted.draws(), 0);
        let a: Vec<u64> = (0..16).map(|_| plain.random()).collect();
        let b: Vec<u64> = (0..16).map(|_| counted.random()).collect();
        assert_eq!(a, b, "wrapping must not change the stream");
        assert_eq!(counted.draws(), 16);
        let mut buf = [0u8; 24];
        counted.fill_bytes(&mut buf);
        let _ = counted.next_u32();
        assert_eq!(counted.draws(), 18);
        // The unwrapped inner generator continues the same stream.
        let mut inner = counted.into_inner();
        plain.fill_bytes(&mut [0u8; 24]);
        let _ = plain.next_u32();
        assert_eq!(inner.next_u64(), plain.next_u64());
    }

    #[test]
    fn stream_draw_order_independence() {
        // Drawing from one stream must not affect another.
        let f = RngStreams::new(99);
        let mut s1 = f.stream(StreamDomain::MacBackoff, 0);
        let _burn: u64 = s1.random();
        let fresh: u64 = f.stream(StreamDomain::MacBackoff, 1).random();
        let independent: u64 = f.stream(StreamDomain::MacBackoff, 1).random();
        assert_eq!(fresh, independent);
    }
}
