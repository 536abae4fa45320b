//! One-way hash chains over 128-bit elements.
//!
//! Node *i* picks a random seed `s_i` and computes
//! `h(s_i), h²(s_i), …, hⁿ(s_i)`; the **anchor** `hⁿ(s_i)` is authenticated
//! and published. During interval `j` the element `h^{n-j}(s_i)` keys the
//! beacon MAC, and the beacon for interval `j` discloses `h^{n-j+1}(s_i)` so
//! receivers can authenticate the previous interval's beacon.
//!
//! The one-way function is SHA-256 truncated to 128 bits (matching the
//! paper's 128-bit hash values and the 92-byte secured beacon size).

use crate::sha256::sha256;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// Chain element length in bytes (128 bits).
pub const CHAIN_ELEMENT_LEN: usize = 16;

/// A single 128-bit hash-chain element.
pub type ChainElement = [u8; CHAIN_ELEMENT_LEN];

/// Apply the chain's one-way function once.
#[inline]
pub fn chain_step(x: &ChainElement) -> ChainElement {
    let digest = sha256(x);
    let mut out = [0u8; CHAIN_ELEMENT_LEN];
    out.copy_from_slice(&digest[..CHAIN_ELEMENT_LEN]);
    out
}

thread_local! {
    /// Single-entry memo for [`chain_step_n`]. In the engine's receiver loop
    /// every station verifies the *same* disclosed key against the *same*
    /// cached element, so consecutive calls repeat one `(input, k)` pair
    /// n−1 times per beacon. The function is pure, so serving the cached
    /// output is bit-identical to recomputing it; thread-local storage keeps
    /// parallel sweeps race-free.
    static STEP_MEMO: RefCell<Option<(ChainElement, usize, ChainElement)>> =
        const { RefCell::new(None) };
}

/// Apply the one-way function `k` times.
pub fn chain_step_n(x: &ChainElement, k: usize) -> ChainElement {
    if k == 0 {
        return *x;
    }
    let hit = STEP_MEMO.with_borrow(|memo| match memo {
        Some((mx, mk, out)) if *mk == k && mx == x => Some(*out),
        _ => None,
    });
    if let Some(out) = hit {
        return out;
    }
    let mut v = *x;
    for _ in 0..k {
        v = chain_step(&v);
    }
    STEP_MEMO.set(Some((*x, k, v)));
    v
}

/// A fully materialized hash chain (store-all strategy).
///
/// `element(j)` is `h^j(seed)`; `element(0)` is the seed itself and
/// `element(n)` the anchor. The store-all strategy trades `n · 16` bytes of
/// memory for O(1) element access; the `fractal` module provides the
/// O(log n) alternative the paper cites.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HashChain {
    elements: Vec<ChainElement>,
}

impl HashChain {
    /// Generate a chain of length `n` (so `n + 1` stored values including the
    /// seed at index 0 and the anchor at index `n`).
    ///
    /// # Panics
    /// Panics if `n == 0`; a chain must have at least one link.
    pub fn generate(seed: ChainElement, n: usize) -> Self {
        assert!(n > 0, "hash chain length must be positive");
        let mut elements = Vec::with_capacity(n + 1);
        elements.push(seed);
        for i in 0..n {
            let next = chain_step(&elements[i]);
            elements.push(next);
        }
        HashChain { elements }
    }

    /// Chain length `n` (number of one-way applications from seed to anchor).
    pub fn len(&self) -> usize {
        self.elements.len() - 1
    }

    /// True only for the degenerate case, which `generate` forbids.
    pub fn is_empty(&self) -> bool {
        self.elements.len() <= 1
    }

    /// `h^j(seed)`.
    ///
    /// # Panics
    /// Panics if `j > n`.
    pub fn element(&self, j: usize) -> ChainElement {
        self.elements[j]
    }

    /// The published anchor `hⁿ(seed)`.
    pub fn anchor(&self) -> ChainElement {
        self.elements[self.elements.len() - 1]
    }

    /// The µTESLA key for beacon interval `j` (1-based): `h^{n-j}(seed)`.
    ///
    /// # Panics
    /// Panics if `j == 0` or `j > n`.
    pub fn interval_key(&self, j: usize) -> ChainElement {
        assert!(j >= 1 && j <= self.len(), "interval out of chain range");
        self.element(self.len() - j)
    }

    /// The element disclosed in the beacon of interval `j`:
    /// `h^{n-j+1}(seed)`, i.e. the key of interval `j − 1`.
    ///
    /// # Panics
    /// Panics if `j == 0` or `j > n`.
    pub fn disclosed_key(&self, j: usize) -> ChainElement {
        assert!(j >= 1 && j <= self.len(), "interval out of chain range");
        self.element(self.len() - j + 1)
    }
}

/// Verify that `candidate` is `distance` one-way steps before `target`
/// (i.e. `h^distance(candidate) == target`).
///
/// This is the receiver-side check "does `h^{j-1}(disclosed)` equal the
/// published anchor", and — when an earlier authenticated element is cached —
/// the cheap one-step variant.
pub fn verify_distance(candidate: &ChainElement, target: &ChainElement, distance: usize) -> bool {
    chain_step_n(candidate, distance) == *target
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seed(b: u8) -> ChainElement {
        [b; CHAIN_ELEMENT_LEN]
    }

    #[test]
    fn generate_links_by_one_way_function() {
        let c = HashChain::generate(seed(7), 10);
        assert_eq!(c.len(), 10);
        for j in 0..10 {
            assert_eq!(chain_step(&c.element(j)), c.element(j + 1));
        }
        assert_eq!(c.anchor(), c.element(10));
    }

    #[test]
    fn element_matches_iterated_step() {
        let c = HashChain::generate(seed(3), 20);
        for j in 0..=20 {
            assert_eq!(c.element(j), chain_step_n(&seed(3), j));
        }
    }

    #[test]
    fn interval_key_schedule() {
        // n = 100: interval 1 keys with h^99, discloses h^100 (anchor).
        let c = HashChain::generate(seed(1), 100);
        assert_eq!(c.interval_key(1), c.element(99));
        assert_eq!(c.disclosed_key(1), c.anchor());
        // interval j discloses the key of interval j-1.
        for j in 2..=100 {
            assert_eq!(c.disclosed_key(j), c.interval_key(j - 1));
        }
        // Last interval's key is the seed.
        assert_eq!(c.interval_key(100), c.element(0));
    }

    #[test]
    fn verify_distance_accepts_genuine_rejects_forged() {
        let c = HashChain::generate(seed(9), 50);
        // disclosed key of interval j is h^{n-j+1}; anchor is h^n; distance j-1.
        for j in [1usize, 2, 17, 50] {
            assert!(verify_distance(&c.disclosed_key(j), &c.anchor(), j - 1));
        }
        let mut forged = c.disclosed_key(10);
        forged[0] ^= 0xff;
        assert!(!verify_distance(&forged, &c.anchor(), 9));
        // Wrong distance also fails.
        assert!(!verify_distance(&c.disclosed_key(10), &c.anchor(), 10));
    }

    #[test]
    fn one_step_verification_against_cached_key() {
        let c = HashChain::generate(seed(5), 30);
        // Receiver cached the authenticated key of interval j-1
        // (h^{n-j+2}); beacon j+1 disclosed h^{n-j} ... one step apart keys:
        // key(j) hashes to key(j-1).
        for j in 2..=30 {
            assert!(verify_distance(
                &c.interval_key(j),
                &c.interval_key(j - 1),
                1
            ));
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_length_chain_rejected() {
        let _ = HashChain::generate(seed(0), 0);
    }

    #[test]
    #[should_panic(expected = "out of chain range")]
    fn interval_zero_rejected() {
        let c = HashChain::generate(seed(0), 5);
        let _ = c.interval_key(0);
    }

    #[test]
    fn chain_step_n_memo_is_transparent() {
        // Interleave repeated, changed-input, changed-count, and zero-count
        // calls; every result must match a fresh fold of chain_step.
        let a = seed(4);
        let b = seed(5);
        for (x, k) in [
            (a, 3usize),
            (b, 3),
            (a, 3),
            (a, 4),
            (b, 0),
            (a, 3),
            (a, 1),
            (a, 1),
        ] {
            let mut v = x;
            for _ in 0..k {
                v = chain_step(&v);
            }
            assert_eq!(chain_step_n(&x, k), v, "k={k}");
        }
    }

    #[test]
    fn distinct_seeds_distinct_anchors() {
        let a = HashChain::generate(seed(1), 10);
        let b = HashChain::generate(seed(2), 10);
        assert_ne!(a.anchor(), b.anchor());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn chain_is_self_consistent(seed_bytes in proptest::array::uniform16(any::<u8>()),
                                    n in 1usize..64) {
            let c = HashChain::generate(seed_bytes, n);
            // Every element verifies against the anchor at its distance.
            for j in 0..=n {
                prop_assert!(verify_distance(&c.element(j), &c.anchor(), n - j));
            }
        }

        #[test]
        fn disclosed_key_authenticates_previous_interval(
            seed_bytes in proptest::array::uniform16(any::<u8>()),
            n in 2usize..64) {
            let c = HashChain::generate(seed_bytes, n);
            for j in 2..=n {
                // One hash application maps interval j's key to interval
                // (j-1)'s key — the cheap cached-key verification path.
                prop_assert_eq!(chain_step(&c.interval_key(j)), c.interval_key(j - 1));
            }
        }
    }
}
