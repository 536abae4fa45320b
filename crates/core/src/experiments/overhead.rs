//! **Sec. 3.4 overhead accounting** — beacon size and hash-chain storage.
//!
//! The paper budgets: beacon growth 56 → 92 bytes; per-node chain storage
//! either `n` elements (store-all), or `log₂(n)` elements with `log₂(n)`
//! amortized computation using Jakobsson's scheme \[6\]. This module
//! *measures* those numbers from the actual implementations instead of
//! restating them.

use crate::report::render_table;
use mac80211::frame::{BeaconBody, SecuredBeacon};
use sstsp_crypto::{BeaconAuth, FractalTraverser, HashChain};

/// Measured chain-traversal strategy costs for one chain length.
#[derive(Debug, Clone)]
pub struct ChainCostRow {
    /// Chain length `n`.
    pub n: usize,
    /// Store-all memory, bytes (`(n + 1) × 16`).
    pub store_all_bytes: usize,
    /// Fractal pebble peak count.
    pub fractal_peak_pebbles: usize,
    /// Fractal memory, bytes (peak pebbles × 16 + seed).
    pub fractal_bytes: usize,
    /// Fractal amortized hashes per disclosed element.
    pub fractal_hashes_per_element: f64,
    /// Naive recompute-from-seed amortized hashes per element (`≈ n/2`).
    pub naive_hashes_per_element: f64,
}

/// Overhead report.
pub struct Overhead {
    /// Wire sizes measured from the codecs.
    pub plain_beacon_bytes: usize,
    /// Secured beacon size.
    pub secured_beacon_bytes: usize,
    /// Chain strategy costs at several lengths.
    pub chain_rows: Vec<ChainCostRow>,
}

/// Measure everything.
pub fn run() -> Overhead {
    let body = BeaconBody {
        src: 1,
        seq: 1,
        timestamp_us: 0,
        root: 1,
        hop: 0,
    };
    let secured = SecuredBeacon {
        body,
        auth: BeaconAuth {
            interval: 1,
            mac: [0; 16],
            disclosed: [0; 16],
        },
    };
    let plain_beacon_bytes = body.encode().len();
    let secured_beacon_bytes = secured.encode().len();

    let chain_rows = [256usize, 1_024, 4_096, 10_240]
        .iter()
        .map(|&n| {
            let seed = [7u8; 16];
            let chain = HashChain::generate(seed, n);
            let store_all_bytes = (chain.len() + 1) * 16;
            let mut t = FractalTraverser::new(seed, n);
            let setup = t.hash_count();
            let mut peak = t.pebble_count();
            while t.next_element().is_some() {
                peak = peak.max(t.pebble_count());
            }
            let traversal_hashes = t.hash_count() - setup;
            ChainCostRow {
                n,
                store_all_bytes,
                fractal_peak_pebbles: peak,
                fractal_bytes: (peak + 1) * 16,
                fractal_hashes_per_element: traversal_hashes as f64 / n as f64,
                naive_hashes_per_element: (n as f64 - 1.0) / 2.0,
            }
        })
        .collect();

    Overhead {
        plain_beacon_bytes,
        secured_beacon_bytes,
        chain_rows,
    }
}

impl Overhead {
    /// Render the report.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Overhead (Sec. 3.4)\n\nBeacon size: TSF {} B → SSTSP {} B (+{} B: 4 B interval \
             index + 16 B HMAC + 16 B disclosed key)\n\n",
            self.plain_beacon_bytes,
            self.secured_beacon_bytes,
            self.secured_beacon_bytes - self.plain_beacon_bytes
        );
        let rows: Vec<Vec<String>> = self
            .chain_rows
            .iter()
            .map(|r| {
                vec![
                    r.n.to_string(),
                    format!("{} B", r.store_all_bytes),
                    r.fractal_peak_pebbles.to_string(),
                    format!("{} B", r.fractal_bytes),
                    format!("{:.2}", r.fractal_hashes_per_element),
                    format!("{:.0}", r.naive_hashes_per_element),
                ]
            })
            .collect();
        out.push_str(&render_table(
            &[
                "n",
                "store-all mem",
                "fractal pebbles",
                "fractal mem",
                "fractal hashes/elem",
                "naive hashes/elem",
            ],
            &rows,
        ));
        out
    }

    /// The paper's claim: log₂(n) storage and log₂(n) computation.
    pub fn shape_holds(&self) -> bool {
        self.secured_beacon_bytes == 92
            && self.plain_beacon_bytes == 56
            && self.chain_rows.iter().all(|r| {
                let log2n = (r.n as f64).log2();
                (r.fractal_peak_pebbles as f64) <= log2n + 2.0
                    && r.fractal_hashes_per_element <= log2n + 1.0
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_matches_paper_budget() {
        let o = run();
        assert_eq!(o.plain_beacon_bytes, 56);
        assert_eq!(o.secured_beacon_bytes, 92);
        assert!(o.shape_holds(), "{}", o.render());
        // Fractal memory must crush store-all at n = 10 240: the paper's
        // 160 KiB chain collapses to a few hundred bytes.
        let big = o.chain_rows.last().unwrap();
        assert!(big.fractal_bytes < big.store_all_bytes / 100);
    }
}
