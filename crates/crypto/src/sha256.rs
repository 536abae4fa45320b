//! SHA-256 per FIPS 180-4, implemented from scratch.
//!
//! Streaming ([`Sha256`]) and one-shot ([`sha256`]) APIs. Validated against
//! the NIST example vectors ("abc", the empty string, the two-block message,
//! and one million `a`s) in the test module.
//!
//! The compression function dispatches at runtime to the SHA-NI
//! instructions on x86-64 CPUs that have them (a port of Intel's reference
//! `sha256_ni_transform`), falling back to the portable scalar rounds
//! everywhere else. Both paths produce identical digests; the dispatch only
//! changes throughput, which the hash-chain-heavy simulation hot loop is
//! dominated by.

/// Digest length in bytes.
pub const DIGEST_LEN: usize = 32;

/// SHA-256 round constants (first 32 bits of the fractional parts of the
/// cube roots of the first 64 primes).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

pub(crate) const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// One compression round block, scalar FIPS 180-4 rounds.
fn compress_scalar(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// SHA-NI accelerated compression (x86-64 only; caller checks support).
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::K;
    use core::arch::x86_64::*;

    /// Whether the `sha`, `ssse3` and `sse4.1` features are all present.
    /// Cached in a one-byte state so the hot path pays one relaxed load.
    #[inline]
    pub fn available() -> bool {
        use std::sync::atomic::{AtomicU8, Ordering};
        static STATE: AtomicU8 = AtomicU8::new(0);
        match STATE.load(Ordering::Relaxed) {
            2 => true,
            1 => false,
            _ => {
                let ok = std::arch::is_x86_feature_detected!("sha")
                    && std::arch::is_x86_feature_detected!("ssse3")
                    && std::arch::is_x86_feature_detected!("sse4.1");
                STATE.store(if ok { 2 } else { 1 }, Ordering::Relaxed);
                ok
            }
        }
    }

    /// Next four message-schedule words from the previous sixteen.
    #[inline]
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    unsafe fn sched(v0: __m128i, v1: __m128i, v2: __m128i, v3: __m128i) -> __m128i {
        let t = _mm_sha256msg1_epu32(v0, v1);
        let t = _mm_add_epi32(t, _mm_alignr_epi8(v3, v2, 4));
        _mm_sha256msg2_epu32(t, v3)
    }

    /// The round constants for four-round group `i`, lane 0 first.
    #[inline]
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    unsafe fn kv(i: usize) -> __m128i {
        _mm_loadu_si128(K.as_ptr().add(4 * i) as *const __m128i)
    }

    /// One compression, port of Intel's reference `sha256_ni_transform`.
    ///
    /// # Safety
    /// The CPU must support the `sha`, `ssse3` and `sse4.1` features
    /// (guarded by [`available`]).
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    pub unsafe fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
        // Byte shuffle turning little-endian 32-bit lanes big-endian.
        let mask = _mm_set_epi64x(
            0x0c0d_0e0f_0809_0a0b_u64 as i64,
            0x0405_0607_0001_0203_u64 as i64,
        );

        let tmp = _mm_loadu_si128(state.as_ptr() as *const __m128i); // DCBA
        let st1 = _mm_loadu_si128(state.as_ptr().add(4) as *const __m128i); // HGFE
        let tmp = _mm_shuffle_epi32(tmp, 0xB1); // CDAB
        let st1 = _mm_shuffle_epi32(st1, 0x1B); // EFGH
        let mut state0 = _mm_alignr_epi8(tmp, st1, 8); // ABEF
        let mut state1 = _mm_blend_epi16(st1, tmp, 0xF0); // CDGH

        let abef_save = state0;
        let cdgh_save = state1;

        let dp = block.as_ptr() as *const __m128i;
        let mut msg0 = _mm_shuffle_epi8(_mm_loadu_si128(dp), mask);
        let mut msg1 = _mm_shuffle_epi8(_mm_loadu_si128(dp.add(1)), mask);
        let mut msg2 = _mm_shuffle_epi8(_mm_loadu_si128(dp.add(2)), mask);
        let mut msg3 = _mm_shuffle_epi8(_mm_loadu_si128(dp.add(3)), mask);

        macro_rules! rounds4 {
            ($w:expr, $i:expr) => {{
                let m = _mm_add_epi32($w, kv($i));
                state1 = _mm_sha256rnds2_epu32(state1, state0, m);
                let m = _mm_shuffle_epi32(m, 0x0E);
                state0 = _mm_sha256rnds2_epu32(state0, state1, m);
            }};
        }

        rounds4!(msg0, 0);
        rounds4!(msg1, 1);
        rounds4!(msg2, 2);
        rounds4!(msg3, 3);
        msg0 = sched(msg0, msg1, msg2, msg3);
        rounds4!(msg0, 4);
        msg1 = sched(msg1, msg2, msg3, msg0);
        rounds4!(msg1, 5);
        msg2 = sched(msg2, msg3, msg0, msg1);
        rounds4!(msg2, 6);
        msg3 = sched(msg3, msg0, msg1, msg2);
        rounds4!(msg3, 7);
        msg0 = sched(msg0, msg1, msg2, msg3);
        rounds4!(msg0, 8);
        msg1 = sched(msg1, msg2, msg3, msg0);
        rounds4!(msg1, 9);
        msg2 = sched(msg2, msg3, msg0, msg1);
        rounds4!(msg2, 10);
        msg3 = sched(msg3, msg0, msg1, msg2);
        rounds4!(msg3, 11);
        msg0 = sched(msg0, msg1, msg2, msg3);
        rounds4!(msg0, 12);
        msg1 = sched(msg1, msg2, msg3, msg0);
        rounds4!(msg1, 13);
        msg2 = sched(msg2, msg3, msg0, msg1);
        rounds4!(msg2, 14);
        msg3 = sched(msg3, msg0, msg1, msg2);
        rounds4!(msg3, 15);

        let state0 = _mm_add_epi32(state0, abef_save);
        let state1 = _mm_add_epi32(state1, cdgh_save);

        let tmp = _mm_shuffle_epi32(state0, 0x1B); // FEBA
        let st1 = _mm_shuffle_epi32(state1, 0xB1); // DCHG
        let out0 = _mm_blend_epi16(tmp, st1, 0xF0); // DCBA
        let out1 = _mm_alignr_epi8(st1, tmp, 8); // HGFE

        _mm_storeu_si128(state.as_mut_ptr() as *mut __m128i, out0);
        _mm_storeu_si128(state.as_mut_ptr().add(4) as *mut __m128i, out1);
    }
}

/// One SHA-256 compression of `block` into `state`, hardware-accelerated
/// where the CPU allows.
#[inline]
pub(crate) fn compress_block(state: &mut [u32; 8], block: &[u8; 64]) {
    #[cfg(target_arch = "x86_64")]
    if shani::available() {
        // SAFETY: `available()` verified sha + ssse3 + sse4.1 support.
        unsafe { shani::compress(state, block) };
        return;
    }
    compress_scalar(state, block);
}

/// Serialize a compression state as the big-endian digest bytes.
#[inline]
pub(crate) fn state_bytes(state: &[u32; 8]) -> [u8; DIGEST_LEN] {
    let mut out = [0u8; DIGEST_LEN];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Streaming SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self
            .total_len
            .checked_add(data.len() as u64)
            .expect("SHA-256 message too long");
        let mut input = data;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(input.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&input[..take]);
            self.buf_len += take;
            input = &input[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            } else {
                // Input exhausted without filling the buffer.
                return;
            }
        }
        let mut chunks = input.chunks_exact(64);
        for block in &mut chunks {
            let mut b = [0u8; 64];
            b.copy_from_slice(block);
            self.compress(&b);
        }
        let rem = chunks.remainder();
        self.buf[..rem.len()].copy_from_slice(rem);
        self.buf_len = rem.len();
    }

    /// Finish and return the 32-byte digest.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        let bit_len = self
            .total_len
            .checked_mul(8)
            .expect("SHA-256 message too long");
        // Padding: 0x80, zeros, 64-bit big-endian bit length.
        let mut pad = [0u8; 72];
        pad[0] = 0x80;
        let pad_len = if self.buf_len < 56 {
            56 - self.buf_len
        } else {
            120 - self.buf_len
        };
        pad[pad_len..pad_len + 8].copy_from_slice(&bit_len.to_be_bytes());
        self.update_no_len(&pad[..pad_len + 8]);
        debug_assert_eq!(self.buf_len, 0);
        state_bytes(&self.state)
    }

    /// `update` without advancing `total_len` (padding only).
    fn update_no_len(&mut self, data: &[u8]) {
        let saved = self.total_len;
        self.update(data);
        self.total_len = saved;
    }

    #[inline]
    fn compress(&mut self, block: &[u8; 64]) {
        compress_block(&mut self.state, block);
    }
}

/// One-shot SHA-256.
///
/// Inputs short enough for a single padded block (≤ 55 bytes — chain
/// elements, beacon MAC messages) skip the streaming machinery entirely:
/// one stack block, one compression.
pub fn sha256(data: &[u8]) -> [u8; DIGEST_LEN] {
    if data.len() <= 55 {
        let mut block = [0u8; 64];
        block[..data.len()].copy_from_slice(data);
        block[data.len()] = 0x80;
        block[56..].copy_from_slice(&((data.len() as u64) * 8).to_be_bytes());
        let mut state = H0;
        compress_block(&mut state, &block);
        return state_bytes(&state);
    }
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn nist_abc() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_empty() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_two_block() {
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn nist_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_equals_oneshot_at_all_split_points() {
        let msg: Vec<u8> = (0..200u8).collect();
        let whole = sha256(&msg);
        for split in 0..=msg.len() {
            let mut h = Sha256::new();
            h.update(&msg[..split]);
            h.update(&msg[split..]);
            assert_eq!(h.finalize(), whole, "split at {split}");
        }
    }

    #[test]
    fn length_boundary_padding() {
        // Messages straddling the 55/56/64 byte padding boundaries.
        for len in [54usize, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128] {
            let msg = vec![0x5au8; len];
            let d1 = sha256(&msg);
            let mut h = Sha256::new();
            for b in &msg {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), d1, "len {len}");
        }
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(sha256(b"a"), sha256(b"b"));
        assert_ne!(sha256(b""), sha256(b"\x00"));
    }

    #[test]
    fn scalar_and_dispatched_compressions_agree() {
        // Differential check of the hardware path against the portable
        // rounds on pseudo-random blocks and states (trivially true on
        // machines without SHA-NI, where both paths are the scalar one).
        let mut block = [0u8; 64];
        let mut x: u32 = 0x1234_5678;
        for round in 0..64 {
            for b in block.iter_mut() {
                x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                *b = (x >> 24) as u8;
            }
            let mut dispatched = H0;
            let mut scalar = H0;
            compress_block(&mut dispatched, &block);
            compress_scalar(&mut scalar, &block);
            assert_eq!(dispatched, scalar, "round {round}");
            // Chain the states so later rounds start from non-H0 states.
            block[..32].copy_from_slice(&state_bytes(&dispatched));
        }
    }

    #[test]
    fn short_input_fast_path_matches_streaming() {
        for len in 0..=70usize {
            let msg: Vec<u8> = (0..len as u8).map(|b| b.wrapping_mul(37)).collect();
            let mut h = Sha256::new();
            h.update(&msg);
            assert_eq!(sha256(&msg), h.finalize(), "len {len}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Digest of `msg` fed to the streaming hasher in two pieces, cut at
    /// `split` (clamped to the message length).
    fn streamed_in_two(msg: &[u8], split: usize) -> [u8; DIGEST_LEN] {
        let split = split.min(msg.len());
        let mut h = Sha256::new();
        h.update(&msg[..split]);
        h.update(&msg[split..]);
        h.finalize()
    }

    #[test]
    fn recorded_streaming_case_matches_oneshot() {
        // A shrunk failure case once recorded for `streaming_matches_oneshot`:
        // 193 bytes (80 zeros, then 113 recorded bytes) crossing three block
        // boundaries, split 479 (clamped to 193, so one piece is empty).
        let tail = concat!(
            "05f8efd3904af263dd85a31fd2baedc8a171c2412d9e88612bf19907fcebf2b8",
            "d91d6793ebb66be564ed7228ed9944d5b7e7f66a8d0f6ba8faea47e2843eefb6",
            "f87073711e94a5f8988d14fc8ccbf81dfc17529afef4e56038f701f05afafb62",
            "2398071d9164b3c3356c1a36b696c20084",
        );
        let mut msg = vec![0u8; 80];
        msg.extend(
            (0..tail.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&tail[i..i + 2], 16).unwrap()),
        );
        assert_eq!(msg.len(), 193);
        assert_eq!(streamed_in_two(&msg, 479), sha256(&msg));
    }

    proptest! {
        #[test]
        fn streaming_matches_oneshot(msg in proptest::collection::vec(any::<u8>(), 0..512),
                                     split in 0usize..512) {
            prop_assert_eq!(streamed_in_two(&msg, split), sha256(&msg));
        }

        #[test]
        fn digest_is_deterministic(msg in proptest::collection::vec(any::<u8>(), 0..256)) {
            prop_assert_eq!(sha256(&msg), sha256(&msg));
        }
    }
}
