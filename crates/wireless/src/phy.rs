//! PHY-layer timing for the OFDM (ERP) physical layer the paper simulates
//! (54 Mbit/s, Sec. 5).

use simcore::SimDuration;

/// TSF beacon on-air size per the paper's accounting: 24 bytes of preamble
/// plus 32 bytes of data.
pub const FRAME_OVERHEAD_TSF: usize = 56;

/// SSTSP beacon on-air size: TSF's 56 bytes plus the 4-byte interval index
/// and two 128-bit hash values (MAC and disclosed key).
pub const FRAME_OVERHEAD_SSTSP: usize = 92;

/// Physical-layer timing parameters.
#[derive(Debug, Clone, Copy)]
pub struct PhyParams {
    /// aSlotTime in microseconds (9 µs for OFDM / ERP).
    pub slot_us: u64,
    /// Bit rate in Mbit/s (the paper simulates 54 Mbit/s).
    pub bitrate_mbps: f64,
    /// One-way propagation delay in nanoseconds (sub-µs at IBSS ranges;
    /// 300 m ≈ 1 µs).
    pub propagation_ns: u64,
    /// Beacon airtime in slots for the *plain TSF* beacon (the paper uses
    /// 4 slot times).
    pub tsf_beacon_slots: u64,
    /// Beacon airtime in slots for the *secured SSTSP* beacon (the paper
    /// uses 7 slot times).
    pub sstsp_beacon_slots: u64,
}

impl PhyParams {
    /// The paper's simulation PHY: OFDM at 54 Mbit/s, 9 µs slots, 4/7-slot
    /// beacons.
    pub fn paper_ofdm() -> Self {
        PhyParams {
            slot_us: 9,
            bitrate_mbps: 54.0,
            propagation_ns: 500,
            tsf_beacon_slots: 4,
            sstsp_beacon_slots: 7,
        }
    }

    /// Slot duration.
    pub fn slot(&self) -> SimDuration {
        SimDuration::from_us(self.slot_us)
    }

    /// Airtime of a `bytes`-byte frame at the configured bit rate,
    /// excluding slot quantization: `bytes · 8 / bitrate`.
    pub fn airtime(&self, bytes: usize) -> SimDuration {
        let us = (bytes as f64 * 8.0) / self.bitrate_mbps;
        SimDuration::from_us_f64(us)
    }

    /// Airtime of a frame rounded *up* to whole slots, which is the unit the
    /// beacon contention window works in.
    pub fn airtime_slots(&self, bytes: usize) -> u64 {
        let ps = self.airtime(bytes).as_ps();
        let slot_ps = self.slot().as_ps();
        ps.div_ceil(slot_ps)
    }

    /// Beacon airtime for the given beacon kind, in simulation time.
    pub fn beacon_airtime(&self, secured: bool) -> SimDuration {
        let slots = if secured {
            self.sstsp_beacon_slots
        } else {
            self.tsf_beacon_slots
        };
        self.slot() * slots
    }

    /// The nominal transmission + propagation delay `t_p` a receiver
    /// experiences between the sender's below-MAC timestamping instant and
    /// its own reception instant.
    pub fn t_p(&self, secured: bool) -> SimDuration {
        self.beacon_airtime(secured) + SimDuration::from_ns(self.propagation_ns)
    }

    /// Propagation delay alone.
    pub fn propagation(&self) -> SimDuration {
        SimDuration::from_ns(self.propagation_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_phy_has_documented_values() {
        let p = PhyParams::paper_ofdm();
        assert_eq!(p.slot_us, 9);
        assert_eq!(p.bitrate_mbps, 54.0);
        assert_eq!(p.tsf_beacon_slots, 4);
        assert_eq!(p.sstsp_beacon_slots, 7);
    }

    #[test]
    fn airtime_at_54mbps() {
        let p = PhyParams::paper_ofdm();
        // 56 bytes at 54 Mbit/s = 8.296 µs.
        let a = p.airtime(FRAME_OVERHEAD_TSF);
        assert!((a.as_us_f64() - 8.296).abs() < 0.01, "{}", a.as_us_f64());
    }

    #[test]
    fn airtime_rounds_up_to_slots() {
        let p = PhyParams::paper_ofdm();
        // 8.296 µs → 1 slot of 9 µs. 92 bytes = 13.6 µs → 2 slots.
        assert_eq!(p.airtime_slots(FRAME_OVERHEAD_TSF), 1);
        assert_eq!(p.airtime_slots(FRAME_OVERHEAD_SSTSP), 2);
    }

    #[test]
    fn beacon_airtimes_match_paper_slot_counts() {
        let p = PhyParams::paper_ofdm();
        assert_eq!(p.beacon_airtime(false), SimDuration::from_us(36));
        assert_eq!(p.beacon_airtime(true), SimDuration::from_us(63));
    }

    #[test]
    fn t_p_includes_propagation() {
        let p = PhyParams::paper_ofdm();
        assert_eq!(
            p.t_p(true).as_ps(),
            SimDuration::from_us(63).as_ps() + SimDuration::from_ns(500).as_ps()
        );
    }

    #[test]
    fn beacon_size_growth_is_36_bytes() {
        // The paper: 56 B → 92 B due to the 128-bit MAC, the 128-bit
        // disclosed key, and the interval index.
        assert_eq!(FRAME_OVERHEAD_SSTSP - FRAME_OVERHEAD_TSF, 36);
    }
}
