//! µTESLA broadcast authentication (Perrig et al., SPINS 2001) as used by
//! SSTSP.
//!
//! The scheme, instantiated for SSTSP's beacon schedule:
//!
//! * time is divided into beacon intervals; interval `j` covers
//!   `[T₀ + j·BP − BP/2, T₀ + j·BP + BP/2)`;
//! * the beacon sent in interval `j` is
//!   `<B, j, HMAC_{h^{n-j}(s)}(B, j), h^{n-j+1}(s)>` — MACed with the
//!   *undisclosed* key of interval `j` and carrying the *disclosed* key of
//!   interval `j − 1`;
//! * a receiver holding the published anchor `hⁿ(s)` (or any previously
//!   authenticated chain element) verifies the disclosed key with hash
//!   applications only, then authenticates the beacon it buffered during
//!   interval `j − 1`.
//!
//! The requirement µTESLA places on the system — *loose* time
//! synchronization so a receiver can tell which interval it is in — is what
//! SSTSP's coarse synchronization phase provides.

use crate::chain::{chain_step_n, ChainElement, HashChain};
use crate::fractal::FractalTraverser;
use crate::hmac::{hmac_sha256_128, mac_eq, Mac128};
use serde::{Deserialize, Serialize};
use sstsp_telemetry as telemetry;
use std::cell::RefCell;
use std::collections::VecDeque;

/// Test-only mutation hooks (compiled under the `mutation-hooks` feature,
/// off by default even then). These deliberately plant known protocol bugs
/// so the fault-injection layer's invariant checker and fuzzer can be
/// validated against a detectable defect — a mutation sanity check. Never
/// enable outside tests.
#[cfg(feature = "mutation-hooks")]
pub mod mutation {
    use std::sync::atomic::{AtomicBool, Ordering};

    static ACCEPT_UNVERIFIED_KEYS: AtomicBool = AtomicBool::new(false);

    /// Plant (or clear) the bug: with the flag on, the verifier skips
    /// disclosed-key validation entirely and releases buffered beacons even
    /// when their MAC does not verify under the (unvalidated) disclosed
    /// key, i.e. it accepts beacons keyed by already-disclosed or outright
    /// forged µTESLA keys — the exact failure µTESLA's one-way-chain check
    /// exists to prevent. The invalid key also poisons the verifier's
    /// authenticated-element cache, so the defect cascades the way a real
    /// implementation bug would.
    pub fn set_accept_unverified_keys(on: bool) {
        ACCEPT_UNVERIFIED_KEYS.store(on, Ordering::SeqCst);
    }

    /// Whether the planted bug is active.
    pub fn accept_unverified_keys() -> bool {
        ACCEPT_UNVERIFIED_KEYS.load(Ordering::SeqCst)
    }

    static WEAKEN_GUARD_CHECK: AtomicBool = AtomicBool::new(false);

    /// Plant (or clear) a second bug, consumed by the SSTSP receiver path:
    /// with the flag on, the guard-time plausibility check is disabled
    /// (δ treated as infinite), so any authenticated beacon disciplines the
    /// clock no matter how far its timestamp strays. A colluding insider
    /// campaign whose leader advertises an error beyond δ then walks honest
    /// clocks outside the guard envelope — the exact failure the
    /// guard-time check exists to prevent, and the defect the campaign
    /// fuzzer's mutation sanity check must catch.
    pub fn set_weaken_guard_check(on: bool) {
        WEAKEN_GUARD_CHECK.store(on, Ordering::SeqCst);
    }

    /// Whether the planted guard-time weakening is active.
    pub fn weaken_guard_check() -> bool {
        WEAKEN_GUARD_CHECK.load(Ordering::SeqCst)
    }
}

/// Maps (loosely synchronized) local time to beacon-interval indices.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct IntervalSchedule {
    /// Chain start time T₀ in microseconds of synchronized time.
    pub t0_us: f64,
    /// Beacon period in microseconds (typical value 100 000 = 0.1 s).
    pub bp_us: f64,
    /// Chain length: number of usable intervals.
    pub n: usize,
}

impl IntervalSchedule {
    /// Create a schedule.
    ///
    /// # Panics
    /// Panics if `bp_us` is non-positive or `n == 0`.
    pub fn new(t0_us: f64, bp_us: f64, n: usize) -> Self {
        assert!(bp_us > 0.0, "beacon period must be positive");
        assert!(n > 0, "schedule needs at least one interval");
        IntervalSchedule { t0_us, bp_us, n }
    }

    /// The interval index whose window contains `time_us`, if any.
    ///
    /// Interval `j` is centred on its expected emission time `T₀ + j·BP`,
    /// extending BP/2 on either side.
    pub fn interval_at(&self, time_us: f64) -> Option<usize> {
        let j = ((time_us - self.t0_us) / self.bp_us).round();
        if j >= 1.0 && j <= self.n as f64 {
            Some(j as usize)
        } else {
            None
        }
    }

    /// Expected emission time of the interval-`j` beacon: `T₀ + j·BP`.
    pub fn expected_emission_us(&self, j: usize) -> f64 {
        self.t0_us + j as f64 * self.bp_us
    }
}

/// The authentication fields appended to a secured beacon: interval index,
/// 128-bit MAC, 128-bit disclosed key. 4 + 16 + 16 = 36 bytes — exactly the
/// growth from the 56-byte TSF beacon to the paper's 92-byte SSTSP beacon.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BeaconAuth {
    /// Beacon interval index `j` (1-based).
    pub interval: u32,
    /// `HMAC_{h^{n-j}(s)}(B, j)` truncated to 128 bits.
    pub mac: Mac128,
    /// The disclosed key `h^{n-j+1}(s)` authenticating interval `j − 1`.
    pub disclosed: ChainElement,
}

/// Stack-buffer size for beacon-sized MAC inputs (payload + 4-byte index).
const MAC_STACK: usize = 60;

/// Payload length [`mac_beacon`] memoizes: a beacon's 32 auth bytes.
const MEMO_PAYLOAD: usize = 32;

/// Single-entry memo for [`mac_beacon`] over beacon payloads. Every
/// receiver of a broadcast beacon recomputes the *same* HMAC over the same
/// `(key, payload, interval)` triple — n−1 identical calls per released
/// beacon. The function is pure, so the cached MAC is bit-identical to a
/// recompute; thread-local storage keeps parallel sweeps race-free.
struct MacMemo {
    key: ChainElement,
    payload: [u8; MEMO_PAYLOAD],
    interval: u32,
    mac: Mac128,
}

thread_local! {
    static MAC_MEMO: RefCell<Option<MacMemo>> = const { RefCell::new(None) };
}

/// `HMAC_key(B, j)`: the MAC input is the payload followed by the
/// little-endian interval index, per the paper's `(B, j)`. Beacon-sized
/// payloads are assembled on the stack so the per-beacon hot path does not
/// allocate, and memoized so the per-receiver fan-out pays the HMAC once;
/// the memo is compared in place at fixed sizes.
fn mac_beacon(key: &[u8], payload: &[u8], interval: u32) -> Mac128 {
    if let (Ok(key), Ok(payload)) = (
        <&ChainElement>::try_from(key),
        <&[u8; MEMO_PAYLOAD]>::try_from(payload),
    ) {
        let hit = MAC_MEMO.with_borrow(|memo| {
            memo.as_ref()
                .filter(|m| m.interval == interval && m.key == *key && m.payload == *payload)
                .map(|m| m.mac)
        });
        if let Some(mac) = hit {
            return mac;
        }
        let mut msg = [0u8; MEMO_PAYLOAD + 4];
        msg[..MEMO_PAYLOAD].copy_from_slice(payload);
        msg[MEMO_PAYLOAD..].copy_from_slice(&interval.to_le_bytes());
        let mac = hmac_sha256_128(key, &msg);
        MAC_MEMO.set(Some(MacMemo {
            key: *key,
            payload: *payload,
            interval,
            mac,
        }));
        mac
    } else if payload.len() <= MAC_STACK - 4 {
        let mut msg = [0u8; MAC_STACK];
        msg[..payload.len()].copy_from_slice(payload);
        msg[payload.len()..payload.len() + 4].copy_from_slice(&interval.to_le_bytes());
        hmac_sha256_128(key, &msg[..payload.len() + 4])
    } else {
        let mut msg = Vec::with_capacity(payload.len() + 4);
        msg.extend_from_slice(payload);
        msg.extend_from_slice(&interval.to_le_bytes());
        hmac_sha256_128(key, &msg)
    }
}

/// Compute the µTESLA fields for `payload` in interval `j` using an
/// externally managed chain (the SSTSP reference node owns its chain as
/// part of larger protocol state).
///
/// # Panics
/// Panics if `j` is outside `1..=chain.len()`.
pub fn sign_with_chain(chain: &HashChain, payload: &[u8], j: usize) -> BeaconAuth {
    let key = chain.interval_key(j);
    let mac = mac_beacon(&key, payload, j as u32);
    BeaconAuth {
        interval: j as u32,
        mac,
        disclosed: chain.disclosed_key(j),
    }
}

/// Recently emitted chain elements the signer keeps around, as a count.
/// Covers re-signing the current interval and modest backward interval
/// jumps (a receiver-turned-reference whose clock was stepped back during a
/// domain merge); anything older falls back to a recompute from the seed.
const SIGNER_RECENT_WINDOW: usize = 32;

/// Sender side: produces [`BeaconAuth`] fields from `O(log n)` stored chain
/// state.
///
/// Instead of materializing all `n` chain elements (16·n bytes — 160 KiB
/// for the paper's 10 100-interval chain), the signer drives a
/// [`FractalTraverser`]: µTESLA consumes keys in exactly the traverser's
/// emission order (`h^{n-1}, h^{n-2}, …`), so sequential signing costs
/// `O(log n)` amortized hashes per interval against `O(log n)` pebbles. A
/// small window of recently emitted elements serves repeat signatures for
/// the same (or slightly older) interval; signing an interval that left the
/// window recomputes from the seed without disturbing the traverser.
pub struct MuTeslaSigner {
    seed: ChainElement,
    anchor: ChainElement,
    schedule: IntervalSchedule,
    /// Built on the first signature. Every station publishes an anchor at
    /// initiation but only the node that actually becomes reference signs,
    /// so eager traversal setup would double the per-node initiation cost
    /// for nothing.
    traverser: Option<FractalTraverser>,
    /// Recently emitted elements, newest (lowest chain position) at the
    /// back: `(position, h^position(seed))`.
    recent: VecDeque<(usize, ChainElement)>,
    /// One-way-function invocations spent on out-of-window recomputes.
    fallback_hashes: u64,
}

impl MuTeslaSigner {
    /// Build a signer from a seed; the chain length comes from the schedule.
    /// Costs the `n` hashes of the anchor walk (which every station owes at
    /// initiation anyway); traversal state is materialized lazily on first
    /// signature.
    pub fn new(seed: ChainElement, schedule: IntervalSchedule) -> Self {
        MuTeslaSigner {
            seed,
            anchor: FractalTraverser::anchor_of(&seed, schedule.n),
            schedule,
            traverser: None,
            recent: VecDeque::with_capacity(SIGNER_RECENT_WINDOW),
            fallback_hashes: 0,
        }
    }

    /// The anchor to publish (`hⁿ(s)`).
    pub fn anchor(&self) -> ChainElement {
        self.anchor
    }

    /// The schedule in force.
    pub fn schedule(&self) -> &IntervalSchedule {
        &self.schedule
    }

    /// The chain seed. A compromised node's credentials are exactly this
    /// value — the internal-attacker model signs with the victim's seed.
    pub fn seed(&self) -> ChainElement {
        self.seed
    }

    /// `h^pos(seed)`, served from the anchor, the recent window, the
    /// traverser (advancing it), or — for positions the traverser already
    /// passed and the window evicted — a recompute from the seed.
    fn element_at(&mut self, pos: usize) -> ChainElement {
        if pos >= self.schedule.n {
            debug_assert_eq!(pos, self.schedule.n, "past the anchor");
            return self.anchor;
        }
        if let Some(&(_, v)) = self.recent.iter().rev().find(|(p, _)| *p == pos) {
            return v;
        }
        let (seed, n) = (self.seed, self.schedule.n);
        let traverser = self
            .traverser
            .get_or_insert_with(|| FractalTraverser::new(seed, n));
        // `remaining()` is the position the traverser will emit next, plus
        // one — so it emits `pos` iff `remaining() > pos`.
        if traverser.remaining() > pos {
            let mut value = self.anchor;
            while traverser.remaining() > pos {
                value = traverser.next_element().expect("remaining > 0");
                let emitted = traverser.remaining();
                if self.recent.len() == SIGNER_RECENT_WINDOW {
                    self.recent.pop_front();
                }
                self.recent.push_back((emitted, value));
            }
            return value;
        }
        // Consumed and evicted: rare backward jump beyond the window.
        self.fallback_hashes += pos as u64;
        chain_step_n(&self.seed, pos)
    }

    /// Sign `payload` for interval `j`. Byte-identical to
    /// [`sign_with_chain`] over a chain generated from the same seed.
    ///
    /// # Panics
    /// Panics if `j` is outside `1..=n`.
    pub fn sign(&mut self, payload: &[u8], j: usize) -> BeaconAuth {
        let n = self.schedule.n;
        assert!(j >= 1 && j <= n, "interval out of chain range");
        telemetry::count!("mutesla.sign");
        // Fetch the key (position n-j) first: reaching it emits the
        // disclosed element (position n-j+1) into the recent window.
        let key = self.element_at(n - j);
        let disclosed = self.element_at(n - j + 1);
        BeaconAuth {
            interval: j as u32,
            mac: mac_beacon(&key, payload, j as u32),
            disclosed,
        }
    }

    /// Chain elements currently held in memory: traverser pebbles, the
    /// recent window, seed and anchor. `O(log n)` — the point of the
    /// fractal-backed signer (see `signer_memory_is_logarithmic`).
    pub fn stored_elements(&self) -> usize {
        self.traverser.as_ref().map_or(0, |t| t.pebble_count()) + self.recent.len() + 2
    }

    /// Total one-way-function invocations spent signing so far (traversal
    /// plus out-of-window recomputes; excludes construction's anchor walk).
    pub fn hash_count(&self) -> u64 {
        self.traverser.as_ref().map_or(0, |t| t.hash_count()) + self.fallback_hashes
    }
}

/// Why a received beacon was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyError {
    /// The carried interval index does not match the receiver's current
    /// interval — stale, replayed, or sent by a desynchronized node.
    WrongInterval {
        /// Interval index claimed by the beacon.
        claimed: u32,
        /// Interval the receiver believes it is in (`None` = outside the
        /// schedule entirely).
        current: Option<u32>,
    },
    /// The disclosed key does not hash to the anchor / cached element.
    BadDisclosedKey,
    /// The buffered previous beacon failed MAC verification with the
    /// (valid) disclosed key.
    PreviousBeaconForged,
}

/// Inline capacity of [`PayloadBuf`]: a beacon's 32 auth bytes, the only
/// payload the engine buffers. Larger payloads spill to the heap
/// transparently.
const PAYLOAD_INLINE: usize = 32;

/// A beacon payload, held inline when beacon-sized. The verifier buffers
/// one payload per observed beacon — with an inline buffer that buffering
/// is heap-allocation-free on the engine's per-delivery hot path.
#[derive(Clone)]
pub struct PayloadBuf(PayloadRepr);

#[derive(Clone)]
enum PayloadRepr {
    Inline { len: u8, buf: [u8; PAYLOAD_INLINE] },
    Heap(Vec<u8>),
}

impl PayloadBuf {
    /// View the payload bytes.
    pub fn as_slice(&self) -> &[u8] {
        match &self.0 {
            PayloadRepr::Inline { len, buf } => &buf[..*len as usize],
            PayloadRepr::Heap(v) => v,
        }
    }
}

impl From<&[u8]> for PayloadBuf {
    fn from(bytes: &[u8]) -> Self {
        // A beacon-sized payload is copied as one fixed-size array.
        let buf = match <[u8; PAYLOAD_INLINE]>::try_from(bytes) {
            Ok(buf) => buf,
            Err(_) if bytes.len() < PAYLOAD_INLINE => {
                let mut buf = [0u8; PAYLOAD_INLINE];
                buf[..bytes.len()].copy_from_slice(bytes);
                buf
            }
            Err(_) => return PayloadBuf(PayloadRepr::Heap(bytes.to_vec())),
        };
        PayloadBuf(PayloadRepr::Inline {
            len: bytes.len() as u8,
            buf,
        })
    }
}

impl From<Vec<u8>> for PayloadBuf {
    fn from(bytes: Vec<u8>) -> Self {
        PayloadBuf::from(bytes.as_slice())
    }
}

impl std::ops::Deref for PayloadBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for PayloadBuf {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for PayloadBuf {}

impl PartialEq<Vec<u8>> for PayloadBuf {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<&[u8]> for PayloadBuf {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl std::fmt::Debug for PayloadBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("PayloadBuf").field(&self.as_slice()).finish()
    }
}

/// A beacon whose authenticity has been established.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuthenticatedBeacon {
    /// The interval the beacon was sent in.
    pub interval: u32,
    /// The beacon payload.
    pub payload: PayloadBuf,
}

/// Receiver side: verifies disclosed keys against the anchor and
/// authenticates buffered beacons one interval late.
pub struct MuTeslaVerifier {
    anchor: ChainElement,
    schedule: IntervalSchedule,
    /// Most recent authenticated chain element, as (interval-of-key, key):
    /// the key of interval `j` is `h^{n-j}`. Caching it reduces disclosed-key
    /// verification to a handful of hash applications.
    cached_key: Option<(u32, ChainElement)>,
    /// Beacon received in the previous interval, awaiting its key. The
    /// payload is stored inline ([`PayloadBuf`]) so buffering does not
    /// allocate on the per-delivery hot path.
    pending: Option<(u32, PayloadBuf, Mac128)>,
    /// One-way-function invocations spent validating disclosed keys (the
    /// observable that distinguishes the O(Δj) cached path from the O(j)
    /// anchor path — see `warm_path_costs_delta_j_hashes`).
    hashes: u64,
}

impl MuTeslaVerifier {
    /// Build a verifier from the published anchor.
    pub fn new(anchor: ChainElement, schedule: IntervalSchedule) -> Self {
        MuTeslaVerifier {
            anchor,
            schedule,
            cached_key: None,
            pending: None,
            hashes: 0,
        }
    }

    /// Process a received beacon at (loosely synchronized) local time
    /// `now_us`.
    ///
    /// On success, returns the beacon from interval `j − 1` if one was
    /// buffered and is now authenticated. The *current* beacon is buffered
    /// and will be released by the next call.
    ///
    /// On failure the verifier state is unchanged (the offending beacon is
    /// simply discarded, per the paper).
    pub fn observe(
        &mut self,
        payload: &[u8],
        auth: &BeaconAuth,
        now_us: f64,
    ) -> Result<Option<AuthenticatedBeacon>, VerifyError> {
        // Check 1: the interval index must correspond to the current time
        // interval (counters replay of old beacons).
        let current = self.schedule.interval_at(now_us);
        if current != Some(auth.interval as usize) {
            telemetry::count!("mutesla.verify.wrong_interval");
            return Err(VerifyError::WrongInterval {
                claimed: auth.interval,
                current: current.map(|c| c as u32),
            });
        }

        // Check 2: validate the disclosed key h^{n-j+1} — the key of
        // interval j-1. Against the cached element when possible (O(Δj)
        // hashes), else against the anchor (O(j) hashes).
        let key_interval = auth.interval - 1; // disclosed key belongs to interval j-1
        let valid = match self.cached_key {
            Some((cached_interval, cached)) if key_interval >= cached_interval => {
                let distance = (key_interval - cached_interval) as usize;
                self.hashes += distance as u64;
                if distance == 0 {
                    auth.disclosed == cached
                } else {
                    chain_step_n(&auth.disclosed, distance) == cached
                }
            }
            _ => {
                // key of interval (j-1) is h^{n-(j-1)} = h^{n-j+1};
                // hashing it (j-1) times yields h^n = anchor.
                self.hashes += u64::from(key_interval);
                chain_step_n(&auth.disclosed, key_interval as usize) == self.anchor
            }
        };
        #[cfg(feature = "mutation-hooks")]
        let valid = valid || mutation::accept_unverified_keys();
        if !valid {
            telemetry::count!("mutesla.verify.bad_key");
            return Err(VerifyError::BadDisclosedKey);
        }
        if key_interval >= 1 {
            self.cached_key = Some((key_interval, auth.disclosed));
        }

        // Check 3: authenticate the buffered beacon with the now-validated
        // disclosure. The buffered beacon is usually from interval j-1
        // (whose key is exactly `auth.disclosed`), but when its *own*
        // disclosure was lost or corrupted in flight it can be older: the
        // key of any earlier interval pj derives from the validated
        // disclosure by hashing down the one-way chain,
        // `key(pj) = h^(key_interval − pj)(disclosed)` — µTESLA's standard
        // recovery from missed disclosures.
        let released = match self.pending.take() {
            Some((pj, ppayload, pmac)) if pj <= key_interval => {
                let distance = (key_interval - pj) as usize;
                self.hashes += distance as u64;
                let key = if distance == 0 {
                    auth.disclosed
                } else {
                    chain_step_n(&auth.disclosed, distance)
                };
                let expect = mac_beacon(&key, &ppayload, pj);
                let mac_ok = mac_eq(&expect, &pmac);
                #[cfg(feature = "mutation-hooks")]
                let mac_ok = mac_ok || mutation::accept_unverified_keys();
                if mac_ok {
                    Some(AuthenticatedBeacon {
                        interval: pj,
                        payload: ppayload,
                    })
                } else {
                    // Buffer the fresh beacon before reporting: the forged
                    // previous beacon must not block future progress.
                    self.pending = Some((auth.interval, PayloadBuf::from(payload), auth.mac));
                    telemetry::count!("mutesla.verify.forged_prev");
                    return Err(VerifyError::PreviousBeaconForged);
                }
            }
            // Missed or absent previous beacon: nothing to release.
            _ => None,
        };

        self.pending = Some((auth.interval, PayloadBuf::from(payload), auth.mac));
        telemetry::count!("mutesla.verify.ok");
        Ok(released)
    }

    /// The receiver's current cached authenticated chain element, if any.
    pub fn cached_key(&self) -> Option<(u32, ChainElement)> {
        self.cached_key
    }

    /// Whether a beacon is buffered awaiting authentication.
    pub fn has_pending(&self) -> bool {
        self.pending.is_some()
    }

    /// Drop any buffered beacon. A verifier pulled out of a cache after
    /// arbitrary elapsed time must not release (or flag as forged) a stale
    /// buffer whose disclosure window has long passed; clearing makes its
    /// accept/reject decisions coincide with a freshly built verifier while
    /// keeping the cached authenticated element (the `O(Δj)` fast path).
    pub fn clear_pending(&mut self) {
        self.pending = None;
    }

    /// One-way-function invocations spent on disclosed-key validation.
    pub fn hash_count(&self) -> u64 {
        self.hashes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BP: f64 = 100_000.0; // 0.1 s in µs

    fn schedule(n: usize) -> IntervalSchedule {
        IntervalSchedule::new(0.0, BP, n)
    }

    fn seed(b: u8) -> ChainElement {
        [b; 16]
    }

    #[test]
    fn interval_windows() {
        let s = schedule(100);
        // Interval j is centred on j*BP.
        assert_eq!(s.interval_at(100_000.0), Some(1));
        assert_eq!(s.interval_at(100_000.0 - BP / 2.0 + 1.0), Some(1));
        assert_eq!(s.interval_at(100_000.0 + BP / 2.0 - 1.0), Some(1));
        assert_eq!(s.interval_at(150_001.0), Some(2));
        assert_eq!(s.interval_at(0.0), None); // before interval 1's window
        assert_eq!(s.interval_at(100.0 * BP), Some(100));
        assert_eq!(s.interval_at(101.0 * BP), None); // past the chain
    }

    #[test]
    fn expected_emission_times() {
        let s = IntervalSchedule::new(500.0, BP, 10);
        assert_eq!(s.expected_emission_us(3), 500.0 + 3.0 * BP);
    }

    #[test]
    fn sign_then_verify_chain_of_beacons() {
        let sched = schedule(50);
        let mut signer = MuTeslaSigner::new(seed(1), sched);
        let mut verifier = MuTeslaVerifier::new(signer.anchor(), sched);

        let mut released = Vec::new();
        for j in 1..=10usize {
            let payload = format!("beacon-{j}").into_bytes();
            let auth = signer.sign(&payload, j);
            let now = sched.expected_emission_us(j) + 7.0;
            let out = verifier
                .observe(&payload, &auth, now)
                .expect("valid beacon");
            if let Some(b) = out {
                released.push(b);
            }
        }
        // Beacons 1..=9 are authenticated (each released by its successor).
        assert_eq!(released.len(), 9);
        for (i, b) in released.iter().enumerate() {
            assert_eq!(b.interval as usize, i + 1);
            assert_eq!(b.payload, format!("beacon-{}", i + 1).into_bytes());
        }
        assert!(verifier.has_pending());
    }

    #[test]
    fn replayed_beacon_rejected_by_interval_check() {
        let sched = schedule(50);
        let mut signer = MuTeslaSigner::new(seed(2), sched);
        let mut verifier = MuTeslaVerifier::new(signer.anchor(), sched);

        let auth = signer.sign(b"old", 3);
        // Replay interval-3 beacon during interval 7.
        let err = verifier
            .observe(b"old", &auth, sched.expected_emission_us(7))
            .unwrap_err();
        assert_eq!(
            err,
            VerifyError::WrongInterval {
                claimed: 3,
                current: Some(7)
            }
        );
    }

    #[test]
    fn forged_disclosed_key_rejected() {
        let sched = schedule(50);
        let mut signer = MuTeslaSigner::new(seed(3), sched);
        let mut verifier = MuTeslaVerifier::new(signer.anchor(), sched);

        let mut auth = signer.sign(b"x", 4);
        auth.disclosed[0] ^= 0x01;
        let err = verifier
            .observe(b"x", &auth, sched.expected_emission_us(4))
            .unwrap_err();
        assert_eq!(err, VerifyError::BadDisclosedKey);
    }

    #[test]
    fn external_forger_cannot_authenticate_payload() {
        // Attacker without the chain fabricates a beacon for the current
        // interval reusing a previously disclosed key (too late: that key's
        // interval has passed) — it has no valid key for the current one.
        let sched = schedule(50);
        let mut signer = MuTeslaSigner::new(seed(4), sched);
        let mut verifier = MuTeslaVerifier::new(signer.anchor(), sched);

        // Legitimate beacons for intervals 1 and 2 observed.
        for j in 1..=2 {
            let p = vec![j as u8];
            let auth = signer.sign(&p, j);
            verifier
                .observe(&p, &auth, sched.expected_emission_us(j))
                .unwrap();
        }
        // Attacker saw the key of interval 1 (disclosed in beacon 2) and
        // forges an interval-3 beacon MACed with it; it must supply a
        // disclosed key for interval 2 — it has none, so it re-discloses
        // interval 1's key. Receiver sees a key that doesn't verify as
        // interval 2's key.
        let key1 = signer.sign(&[0], 2).disclosed; // h^{n-1}: interval-1 key
        let forged_payload = b"evil".to_vec();
        let mut msg = forged_payload.clone();
        msg.extend_from_slice(&3u32.to_le_bytes());
        let forged = BeaconAuth {
            interval: 3,
            mac: hmac_sha256_128(&key1, &msg),
            disclosed: key1,
        };
        let err = verifier
            .observe(&forged_payload, &forged, sched.expected_emission_us(3))
            .unwrap_err();
        assert_eq!(err, VerifyError::BadDisclosedKey);
    }

    #[test]
    fn tampered_previous_beacon_detected() {
        let sched = schedule(50);
        let mut signer = MuTeslaSigner::new(seed(5), sched);
        let mut verifier = MuTeslaVerifier::new(signer.anchor(), sched);

        // Interval 1: attacker tampers the payload in flight (MAC no longer
        // matches).
        let auth1 = signer.sign(b"genuine", 1);
        verifier
            .observe(b"tampered", &auth1, sched.expected_emission_us(1))
            .unwrap();
        // Interval 2 discloses interval 1's key; verification must flag the
        // buffered beacon as forged.
        let auth2 = signer.sign(b"second", 2);
        let err = verifier
            .observe(b"second", &auth2, sched.expected_emission_us(2))
            .unwrap_err();
        assert_eq!(err, VerifyError::PreviousBeaconForged);
        // Progress continues: interval 3 releases beacon 2.
        let auth3 = signer.sign(b"third", 3);
        let out = verifier
            .observe(b"third", &auth3, sched.expected_emission_us(3))
            .unwrap();
        assert_eq!(
            out,
            Some(AuthenticatedBeacon {
                interval: 2,
                payload: b"second".to_vec().into()
            })
        );
    }

    #[test]
    fn missed_beacons_do_not_break_verification() {
        let sched = schedule(50);
        let mut signer = MuTeslaSigner::new(seed(6), sched);
        let mut verifier = MuTeslaVerifier::new(signer.anchor(), sched);

        // Receive beacon 1, miss 2-4, receive 5: key check must still pass
        // (distance > 1 from cached element) and beacon 1 is released late —
        // its own disclosure came in beacon 2 (lost), but interval 1's key
        // derives from beacon 5's validated disclosure by walking the chain.
        let p1 = b"one".to_vec();
        let a1 = signer.sign(&p1, 1);
        verifier
            .observe(&p1, &a1, sched.expected_emission_us(1))
            .unwrap();

        let p5 = b"five".to_vec();
        let a5 = signer.sign(&p5, 5);
        let out = verifier
            .observe(&p5, &a5, sched.expected_emission_us(5))
            .unwrap();
        assert_eq!(
            out,
            Some(AuthenticatedBeacon {
                interval: 1,
                payload: p1.into()
            }),
            "lost disclosure recovered from a later one"
        );

        let p6 = b"six".to_vec();
        let a6 = signer.sign(&p6, 6);
        let out = verifier
            .observe(&p6, &a6, sched.expected_emission_us(6))
            .unwrap();
        assert_eq!(
            out,
            Some(AuthenticatedBeacon {
                interval: 5,
                payload: p5.into()
            })
        );
    }

    #[test]
    fn corrupted_disclosure_recovered_by_next_beacon() {
        // Beacon 2 arrives with its disclosed key corrupted in flight: it
        // is rejected and discarded. The genuine beacon 1 it would have
        // authenticated must not be lost — beacon 3's (valid) disclosure
        // derives interval 1's key by one extra chain step.
        let sched = schedule(50);
        let mut signer = MuTeslaSigner::new(seed(14), sched);
        let mut verifier = MuTeslaVerifier::new(signer.anchor(), sched);

        let p1 = b"one".to_vec();
        let a1 = signer.sign(&p1, 1);
        verifier
            .observe(&p1, &a1, sched.expected_emission_us(1))
            .unwrap();

        let mut a2 = signer.sign(b"two", 2);
        a2.disclosed = [0u8; 16]; // zeroed by a disclosure-loss fault
        let err = verifier
            .observe(b"two", &a2, sched.expected_emission_us(2))
            .unwrap_err();
        assert_eq!(err, VerifyError::BadDisclosedKey);
        assert!(verifier.has_pending(), "rejection leaves state unchanged");

        let p3 = b"three".to_vec();
        let a3 = signer.sign(&p3, 3);
        let out = verifier
            .observe(&p3, &a3, sched.expected_emission_us(3))
            .unwrap();
        assert_eq!(
            out,
            Some(AuthenticatedBeacon {
                interval: 1,
                payload: p1.into()
            }),
            "beacon 1 authenticated across the corrupted disclosure"
        );
    }

    #[test]
    fn late_release_still_detects_forgery() {
        // The chain-walk recovery path must not weaken check 3: a tampered
        // buffered beacon is still flagged when authenticated by a *later*
        // disclosure than its own.
        let sched = schedule(50);
        let mut signer = MuTeslaSigner::new(seed(15), sched);
        let mut verifier = MuTeslaVerifier::new(signer.anchor(), sched);

        let a1 = signer.sign(b"genuine", 1);
        verifier
            .observe(b"tampered", &a1, sched.expected_emission_us(1))
            .unwrap();
        // Beacons 2-3 missed; beacon 4's disclosure reaches back to
        // interval 1's key and exposes the tampering.
        let a4 = signer.sign(b"four", 4);
        let err = verifier
            .observe(b"four", &a4, sched.expected_emission_us(4))
            .unwrap_err();
        assert_eq!(err, VerifyError::PreviousBeaconForged);
    }

    #[test]
    fn cached_key_reduces_to_single_step() {
        let sched = schedule(50);
        let mut signer = MuTeslaSigner::new(seed(7), sched);
        let mut verifier = MuTeslaVerifier::new(signer.anchor(), sched);
        for j in 1..=3usize {
            let p = vec![j as u8];
            let auth = signer.sign(&p, j);
            verifier
                .observe(&p, &auth, sched.expected_emission_us(j))
                .unwrap();
        }
        let (ki, _) = verifier.cached_key().unwrap();
        assert_eq!(ki, 2, "cache holds the key of interval j-1 = 2");
    }

    #[test]
    fn verifier_state_unchanged_on_rejection() {
        let sched = schedule(50);
        let mut signer = MuTeslaSigner::new(seed(8), sched);
        let mut verifier = MuTeslaVerifier::new(signer.anchor(), sched);

        let p1 = b"one".to_vec();
        let a1 = signer.sign(&p1, 1);
        verifier
            .observe(&p1, &a1, sched.expected_emission_us(1))
            .unwrap();

        // Forged key at interval 2: rejection must not clobber pending.
        let mut bad = signer.sign(b"evil", 2);
        bad.disclosed = [0xde; 16];
        let _ = verifier
            .observe(b"evil", &bad, sched.expected_emission_us(2))
            .unwrap_err();
        assert!(verifier.has_pending());

        // Genuine interval-2 beacon still releases beacon 1.
        let p2 = b"two".to_vec();
        let a2 = signer.sign(&p2, 2);
        let out = verifier
            .observe(&p2, &a2, sched.expected_emission_us(2))
            .unwrap();
        assert_eq!(out.unwrap().payload, p1);
    }

    #[test]
    fn fractal_signer_matches_store_all() {
        // The fractal-backed signer must emit byte-identical BeaconAuth
        // fields to sign_with_chain over a chain from the same seed, for
        // every interval, in any visiting order the protocol produces
        // (sequential, repeated, and small backward jumps).
        let n = 200;
        let sched = schedule(n);
        let chain = HashChain::generate(seed(9), n);
        let mut signer = MuTeslaSigner::new(seed(9), sched);
        assert_eq!(signer.anchor(), chain.anchor());
        for j in 1..=n {
            let payload = [j as u8; 24];
            let expect = sign_with_chain(&chain, &payload, j);
            assert_eq!(signer.sign(&payload, j), expect, "j={j}");
            // Repeat signature for the same interval (reference re-beacons
            // within one interval).
            assert_eq!(signer.sign(&payload, j), expect, "repeat j={j}");
            // Occasional small backward jump (clock stepped back a little).
            if j > 3 && j % 50 == 0 {
                let back = j - 3;
                let p = [back as u8; 24];
                assert_eq!(
                    signer.sign(&p, back),
                    sign_with_chain(&chain, &p, back),
                    "back-jump to {back}"
                );
            }
        }
    }

    #[test]
    fn signer_out_of_window_fallback_recomputes_correctly() {
        let n = 300;
        let sched = schedule(n);
        let chain = HashChain::generate(seed(10), n);
        let mut signer = MuTeslaSigner::new(seed(10), sched);
        // Advance far past interval 5, evicting it from the recent window.
        let _ = signer.sign(b"x", 250);
        let before = signer.hash_count();
        let a = signer.sign(b"old", 5);
        assert_eq!(a, sign_with_chain(&chain, b"old", 5));
        assert!(
            signer.hash_count() > before,
            "deep backward jump pays a recompute"
        );
        // The traverser was not disturbed: forward signing still matches.
        let a = signer.sign(b"y", 251);
        assert_eq!(a, sign_with_chain(&chain, b"y", 251));
    }

    #[test]
    fn signer_memory_is_logarithmic() {
        // Chain length 2^14: a store-all signer would hold 16 385 elements;
        // the fractal-backed signer must stay within pebbles (≤ log₂n + 2)
        // plus the constant recent window at every point of a full
        // sequential signing pass.
        let n = 1 << 14;
        let sched = IntervalSchedule::new(0.0, BP, n);
        let mut signer = MuTeslaSigner::new(seed(11), sched);
        let budget = 14 + 2 + SIGNER_RECENT_WINDOW + 2;
        let mut max_stored = signer.stored_elements();
        for j in 1..=n {
            let _ = signer.sign(b"beacon", j);
            max_stored = max_stored.max(signer.stored_elements());
        }
        assert!(
            max_stored <= budget,
            "stored {max_stored} chain elements, budget {budget}"
        );
        // Spot-check correctness at the extremes of the pass.
        assert_eq!(
            signer.sign(b"beacon", n).disclosed,
            chain_step_n(&seed(11), 1),
            "last interval discloses h^1"
        );
    }

    #[test]
    fn warm_path_costs_delta_j_hashes() {
        // The verifier's exposed hash counter pins the two validation
        // regimes: O(j) against the anchor when cold, O(Δj) against the
        // cached element when warm.
        let n = 1000;
        let sched = schedule(n);
        let mut signer = MuTeslaSigner::new(seed(12), sched);
        let mut v = MuTeslaVerifier::new(signer.anchor(), sched);

        // Cold: first observation at interval 500 walks key_interval = 499
        // hashes to the anchor.
        let a = signer.sign(b"b500", 500);
        v.observe(b"b500", &a, sched.expected_emission_us(500))
            .unwrap();
        assert_eq!(v.hash_count(), 499, "anchor path is O(j)");

        // Warm: consecutive beacons cost exactly Δj = 1 hash each.
        for j in 501..=520usize {
            let before = v.hash_count();
            let a = signer.sign(b"b", j);
            v.observe(b"b", &a, sched.expected_emission_us(j)).unwrap();
            assert_eq!(v.hash_count() - before, 1, "warm path at j={j}");
        }

        // A gap of k missed beacons costs Δj = k + 1 hashes to validate the
        // disclosure plus Δj − 1 more to derive the buffered beacon's key
        // across the gap (the missed-disclosure recovery path) — still
        // O(Δj) overall.
        let before = v.hash_count();
        let a = signer.sign(b"b", 530);
        v.observe(b"b", &a, sched.expected_emission_us(530))
            .unwrap();
        assert_eq!(v.hash_count() - before, 19, "gap path is O(Δj)");
    }

    #[test]
    fn clear_pending_drops_buffer_keeps_cache() {
        let sched = schedule(50);
        let mut signer = MuTeslaSigner::new(seed(13), sched);
        let mut v = MuTeslaVerifier::new(signer.anchor(), sched);
        for j in 1..=2usize {
            let a = signer.sign(b"p", j);
            v.observe(b"p", &a, sched.expected_emission_us(j)).unwrap();
        }
        assert!(v.has_pending());
        let cached = v.cached_key();
        v.clear_pending();
        assert!(!v.has_pending());
        assert_eq!(v.cached_key(), cached, "cached element survives");
        // Nothing is released for the cleared buffer; progress continues.
        let a = signer.sign(b"p", 3);
        let out = v.observe(b"p", &a, sched.expected_emission_us(3)).unwrap();
        assert_eq!(out, None);
    }
}
