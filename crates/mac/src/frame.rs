//! Beacon frame wire formats.
//!
//! The paper's size accounting (Sec. 3.4):
//!
//! * plain TSF beacon: **56 bytes** — 24 bytes of preamble + 32 bytes of
//!   data (the MAC header/FCS plus the 8-byte TSF timestamp and beacon
//!   fields);
//! * SSTSP beacon: **92 bytes** — the same 56 bytes plus the interval index
//!   (4 bytes) and two 128-bit hash values (the beacon HMAC and the
//!   disclosed chain element).
//!
//! The simulator moves typed structs around; the wire forms exist so the
//! byte-level overheads are *measured*, not asserted, and so the µTESLA MAC
//! is computed over real bytes. Each wire form is a fixed-size array, so
//! its length is part of its type.

use sstsp_crypto::BeaconAuth;

/// Serialized size of a plain TSF beacon (preamble + data), bytes.
pub const WIRE_LEN_PLAIN: usize = 56;

/// Serialized size of an SSTSP-secured beacon, bytes.
pub const WIRE_LEN_SECURED: usize = 92;

/// PLCP preamble + PHY header length modeled as opaque bytes.
const PREAMBLE_LEN: usize = 24;

/// Length of the MAC-level data portion of a plain beacon.
const PLAIN_DATA_LEN: usize = WIRE_LEN_PLAIN - PREAMBLE_LEN; // 32

/// The unsecured synchronization beacon body `B`: what TSF transmits, and
/// what SSTSP authenticates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BeaconBody {
    /// Sender station id (stand-in for the 6-byte source MAC address).
    pub src: u32,
    /// Beacon sequence number within the sender.
    pub seq: u32,
    /// The TSF timestamp in microseconds, inserted below the MAC layer at
    /// transmission time (the paper's assumption removing medium-access
    /// waiting time from the delay budget).
    pub timestamp_us: u64,
    /// Timing-domain root: the station id whose clock this beacon's time
    /// descends from (stand-in for the BSSID field). Equal to `src` for
    /// single-hop operation; multi-hop relays propagate their reference's
    /// root so competing timing domains can merge deterministically.
    pub root: u32,
    /// Hop distance of the *sender* from the timing-domain root (0 for the
    /// reference itself). Lets multi-hop receivers prefer shorter timing
    /// paths and prevents follow-loops.
    pub hop: u32,
}

impl BeaconBody {
    /// Serialize to the 56-byte wire form: the preamble followed by
    /// [`auth_bytes`](Self::auth_bytes).
    pub fn encode(&self) -> [u8; WIRE_LEN_PLAIN] {
        let mut out = [0u8; WIRE_LEN_PLAIN];
        // Preamble: fixed training pattern (contents irrelevant, length is
        // what the airtime accounting uses).
        out[..PREAMBLE_LEN].fill(0xAA);
        out[PREAMBLE_LEN..].copy_from_slice(&self.auth_bytes());
        out
    }

    /// The bytes the µTESLA HMAC covers: the beacon data without the PHY
    /// preamble (a receiver authenticates the frame, not the radio
    /// training sequence). This runs once per receiver per beacon, so it
    /// returns a stack array and does not allocate.
    pub fn auth_bytes(&self) -> [u8; PLAIN_DATA_LEN] {
        let mut out = [0u8; PLAIN_DATA_LEN];
        out[..8].copy_from_slice(&self.timestamp_us.to_le_bytes());
        out[8..12].copy_from_slice(&self.src.to_le_bytes());
        out[12..16].copy_from_slice(&self.seq.to_le_bytes());
        out[16..20].copy_from_slice(&self.root.to_le_bytes());
        out[20..24].copy_from_slice(&self.hop.to_le_bytes());
        // Bytes 24..32 stay zero: the remaining MAC header bytes
        // (duration, capability, FCS...) modeled as padding.
        out
    }

    /// Decode from wire form.
    pub fn decode(wire: &[u8]) -> Result<Self, FrameError> {
        if wire.len() != WIRE_LEN_PLAIN {
            return Err(FrameError::Length {
                expected: WIRE_LEN_PLAIN,
                got: wire.len(),
            });
        }
        let data = &wire[PREAMBLE_LEN..];
        Ok(BeaconBody {
            timestamp_us: u64::from_le_bytes(field(data, 0)),
            src: u32::from_le_bytes(field(data, 8)),
            seq: u32::from_le_bytes(field(data, 12)),
            root: u32::from_le_bytes(field(data, 16)),
            hop: u32::from_le_bytes(field(data, 20)),
        })
    }
}

/// An SSTSP-secured beacon: `<B, j, HMAC_{key_j}(B, j), disclosed_key>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SecuredBeacon {
    /// The original unsecured beacon `B`.
    pub body: BeaconBody,
    /// µTESLA authentication fields.
    pub auth: BeaconAuth,
}

impl SecuredBeacon {
    /// Serialize to the 92-byte wire form: the plain beacon, then the
    /// interval index, the beacon MAC and the disclosed chain element.
    pub fn encode(&self) -> [u8; WIRE_LEN_SECURED] {
        let mut out = [0u8; WIRE_LEN_SECURED];
        out[..WIRE_LEN_PLAIN].copy_from_slice(&self.body.encode());
        let rest = &mut out[WIRE_LEN_PLAIN..];
        rest[..4].copy_from_slice(&self.auth.interval.to_le_bytes());
        rest[4..20].copy_from_slice(&self.auth.mac);
        rest[20..].copy_from_slice(&self.auth.disclosed);
        out
    }

    /// Decode from wire form.
    pub fn decode(wire: &[u8]) -> Result<Self, FrameError> {
        if wire.len() != WIRE_LEN_SECURED {
            return Err(FrameError::Length {
                expected: WIRE_LEN_SECURED,
                got: wire.len(),
            });
        }
        let body = BeaconBody::decode(&wire[..WIRE_LEN_PLAIN])?;
        let rest = &wire[WIRE_LEN_PLAIN..];
        Ok(SecuredBeacon {
            body,
            auth: BeaconAuth {
                interval: u32::from_le_bytes(field(rest, 0)),
                mac: field(rest, 4),
                disclosed: field(rest, 20),
            },
        })
    }
}

/// The `N` bytes at offset `at` of a length-checked frame.
fn field<const N: usize>(bytes: &[u8], at: usize) -> [u8; N] {
    bytes[at..at + N]
        .try_into()
        .expect("field lies inside the length-checked frame")
}

/// Frame decoding failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Wrong wire length.
    Length {
        /// Expected byte count.
        expected: usize,
        /// Actual byte count.
        got: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Length { expected, got } => {
                write!(f, "bad frame length: expected {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn body() -> BeaconBody {
        BeaconBody {
            src: 17,
            seq: 4242,
            timestamp_us: 123_456_789,
            root: 17,
            hop: 0,
        }
    }

    fn auth() -> BeaconAuth {
        BeaconAuth {
            interval: 99,
            mac: [0x11; 16],
            disclosed: [0x22; 16],
        }
    }

    #[test]
    fn plain_beacon_is_56_bytes() {
        assert_eq!(body().encode().len(), 56);
    }

    #[test]
    fn secured_beacon_is_92_bytes() {
        let sb = SecuredBeacon {
            body: body(),
            auth: auth(),
        };
        assert_eq!(sb.encode().len(), 92);
    }

    #[test]
    fn plain_roundtrip() {
        let b = body();
        assert_eq!(BeaconBody::decode(&b.encode()).unwrap(), b);
    }

    #[test]
    fn secured_roundtrip() {
        let sb = SecuredBeacon {
            body: body(),
            auth: auth(),
        };
        assert_eq!(SecuredBeacon::decode(&sb.encode()).unwrap(), sb);
    }

    #[test]
    fn wrong_length_rejected() {
        let short = [0u8; 10];
        assert!(matches!(
            BeaconBody::decode(&short),
            Err(FrameError::Length {
                expected: 56,
                got: 10
            })
        ));
        assert!(SecuredBeacon::decode(&short).is_err());
    }

    #[test]
    fn auth_bytes_exclude_preamble() {
        let b = body();
        let ab = b.auth_bytes();
        assert_eq!(ab.len(), 32);
        // Timestamp is the first field after the preamble.
        assert_eq!(&ab[..8], &123_456_789u64.to_le_bytes());
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn encoded_frames_match_pinned_images() {
        // Exact wire images of the fixed beacon: 24 preamble bytes, the
        // little-endian timestamp/src/seq/root/hop, 8 padding bytes, then
        // (secured only) interval 99, the MAC and the disclosed key.
        let plain = concat!(
            "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",
            "15cd5b0700000000110000009210000011000000000000000000000000000000",
        );
        let secured = concat!(
            "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",
            "15cd5b0700000000110000009210000011000000000000000000000000000000",
            "63000000",
            "11111111111111111111111111111111",
            "22222222222222222222222222222222",
        );
        assert_eq!(body().encode().to_vec(), unhex(plain));
        let sb = SecuredBeacon {
            body: body(),
            auth: auth(),
        };
        assert_eq!(sb.encode().to_vec(), unhex(secured));
    }

    #[test]
    fn auth_bytes_bind_all_fields() {
        let b1 = body();
        let mut b2 = b1;
        b2.timestamp_us += 1;
        assert_ne!(b1.auth_bytes(), b2.auth_bytes());
        let mut b3 = b1;
        b3.src += 1;
        assert_ne!(b1.auth_bytes(), b3.auth_bytes());
        let mut b4 = b1;
        b4.seq += 1;
        assert_ne!(b1.auth_bytes(), b4.auth_bytes());
        let mut b5 = b1;
        b5.root += 1;
        assert_ne!(b1.auth_bytes(), b5.auth_bytes());
        let mut b6 = b1;
        b6.hop += 1;
        assert_ne!(b1.auth_bytes(), b6.auth_bytes());
    }

    #[test]
    fn overhead_matches_paper_budget() {
        let plain = body().encode().len();
        let secured = SecuredBeacon {
            body: body(),
            auth: auth(),
        }
        .encode()
        .len();
        assert_eq!(secured - plain, 36, "4B index + 16B MAC + 16B key");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn plain_roundtrip_any_fields(src in any::<u32>(), seq in any::<u32>(),
                                      ts in any::<u64>(), root in any::<u32>(),
                                      hop in any::<u32>()) {
            let b = BeaconBody { src, seq, timestamp_us: ts, root, hop };
            prop_assert_eq!(BeaconBody::decode(&b.encode()).unwrap(), b);
        }

        #[test]
        fn secured_roundtrip_any_fields(
            src in any::<u32>(), seq in any::<u32>(), ts in any::<u64>(),
            root in any::<u32>(), hop in any::<u32>(), interval in any::<u32>(),
            mac in proptest::array::uniform16(any::<u8>()),
            disclosed in proptest::array::uniform16(any::<u8>()),
        ) {
            let sb = SecuredBeacon {
                body: BeaconBody { src, seq, timestamp_us: ts, root, hop },
                auth: BeaconAuth { interval, mac, disclosed },
            };
            prop_assert_eq!(SecuredBeacon::decode(&sb.encode()).unwrap(), sb);
        }
    }
}
