//! Exactness pins for bulk word draws: `ChaCha12Rng::fill_u64` (the 4-lane
//! keystream kernel) against the `next_u64` loop it replaces, and the
//! draw-ahead `CountingRng` against the bare generator it wraps. The engine
//! routes every channel-error and jitter draw through both, so any drift
//! here would shift every run's randomness.

use proptest::prelude::*;
use rand_chacha::rand_core::{RngCore, SeedableRng};
use rand_chacha::ChaCha12Rng;
use simcore::CountingRng;

/// A named sequence of draws that positions a generator.
type Start = (&'static str, fn(&mut ChaCha12Rng));

/// Draws that leave the generator at different offsets inside a keystream
/// block, including ones `next_u64` cannot continue from (60 bytes used).
fn misaligned_starts() -> Vec<Start> {
    vec![
        ("fresh", |_| {}),
        ("one u32", |r| {
            r.next_u32();
        }),
        ("15 u32 (60 bytes)", |r| {
            for _ in 0..15 {
                r.next_u32();
            }
        }),
        ("7 u64 (56 bytes)", |r| {
            for _ in 0..7 {
                r.next_u64();
            }
        }),
        ("3 u32 + 2 u64", |r| {
            for _ in 0..3 {
                r.next_u32();
            }
            r.next_u64();
            r.next_u64();
        }),
        ("one block + 5 bytes", |r| {
            r.fill_bytes(&mut [0u8; 69]);
        }),
    ]
}

#[test]
fn fill_u64_matches_next_u64_from_every_start_and_length() {
    let mut got = vec![0u64; 1000];
    for (name, start) in misaligned_starts() {
        for len in 0..=1000 {
            let mut bulk = ChaCha12Rng::seed_from_u64(len as u64);
            let mut single = bulk.clone();
            start(&mut bulk);
            start(&mut single);
            bulk.fill_u64(&mut got[..len]);
            for (i, &word) in got[..len].iter().enumerate() {
                assert_eq!(word, single.next_u64(), "{name}, len {len}, word {i}");
            }
            assert_eq!(bulk.stream_pos(), single.stream_pos(), "{name}, len {len}");
            assert_eq!(bulk.next_u32(), single.next_u32(), "{name}, len {len}");
            assert_eq!(bulk.next_u64(), single.next_u64(), "{name}, len {len}");
        }
    }
}

#[test]
fn counting_rng_counts_served_words_not_drawn_ahead_ones() {
    let mut bare = ChaCha12Rng::seed_from_u64(9);
    let mut counted = CountingRng::new(bare.clone());
    assert_eq!(counted.next_u64(), bare.next_u64());
    assert_eq!(counted.draws(), 1);
    for _ in 0..40 {
        assert_eq!(counted.next_u64(), bare.next_u64());
    }
    assert_eq!(counted.draws(), 41);
    let mut words = [0u64; 100];
    counted.fill_u64(&mut words);
    assert_eq!(counted.draws(), 141);
    assert!(words.iter().all(|&w| w == bare.next_u64()));
    assert_eq!(counted.into_inner().stream_pos(), bare.stream_pos());
}

#[test]
fn counting_rng_rewinds_before_a_u32_or_byte_draw() {
    // One u64 draws a batch ahead; the u32 and the bytes must still come
    // from right after that one word, as on the bare generator.
    let mut bare = ChaCha12Rng::seed_from_u64(10);
    let mut counted = CountingRng::new(bare.clone());
    assert_eq!(counted.next_u64(), bare.next_u64());
    assert_eq!(counted.next_u32(), bare.next_u32());
    assert_eq!(counted.next_u64(), bare.next_u64());
    let (mut a, mut b) = ([0u8; 37], [0u8; 37]);
    counted.fill_bytes(&mut a);
    bare.fill_bytes(&mut b);
    assert_eq!(a, b);
    assert_eq!(counted.next_u64(), bare.next_u64());
    assert_eq!(counted.draws(), 5);
    assert_eq!(counted.into_inner().stream_pos(), bare.stream_pos());
}

#[derive(Debug, Clone)]
enum Draw {
    U32,
    U64,
    Bytes(usize),
    Words(usize),
}

fn draw_strategy() -> impl Strategy<Value = Draw> {
    prop_oneof![
        Just(Draw::U32),
        Just(Draw::U64),
        Just(Draw::U64),
        Just(Draw::U64),
        (0usize..80).prop_map(Draw::Bytes),
        (0usize..80).prop_map(Draw::Words),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any interleaving of draw kinds through the wrapper returns exactly
    /// the bare generator's values, counts exactly the served draws, and
    /// unwraps at the bare generator's stream position.
    #[test]
    fn counting_rng_is_exact_under_any_draw_mix(
        seed in any::<u64>(),
        draws in proptest::collection::vec(draw_strategy(), 0..120),
    ) {
        let mut bare = ChaCha12Rng::seed_from_u64(seed);
        let mut counted = CountingRng::new(bare.clone());
        let mut served = 0u64;
        for draw in &draws {
            match *draw {
                Draw::U32 => {
                    prop_assert_eq!(counted.next_u32(), bare.next_u32());
                    served += 1;
                }
                Draw::U64 => {
                    prop_assert_eq!(counted.next_u64(), bare.next_u64());
                    served += 1;
                }
                Draw::Bytes(n) => {
                    let (mut a, mut b) = (vec![0u8; n], vec![0u8; n]);
                    counted.fill_bytes(&mut a);
                    bare.fill_bytes(&mut b);
                    prop_assert_eq!(a, b);
                    served += 1;
                }
                Draw::Words(n) => {
                    let mut a = vec![0u64; n];
                    counted.fill_u64(&mut a);
                    let b: Vec<u64> = (0..n).map(|_| bare.next_u64()).collect();
                    prop_assert_eq!(a, b);
                    served += n as u64;
                }
            }
            prop_assert_eq!(counted.draws(), served);
        }
        prop_assert_eq!(counted.into_inner().stream_pos(), bare.stream_pos());
    }
}
