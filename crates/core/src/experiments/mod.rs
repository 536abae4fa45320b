//! One module per table/figure of the paper's evaluation (Sec. 5), plus the
//! ablations DESIGN.md calls out. Each experiment produces the rows/series
//! the paper reports; the `paper_figures` example regenerates them from
//! here.
//!
//! Every experiment takes a [`Fidelity`]: [`Fidelity::Paper`] uses the
//! paper's exact dimensions (1000 s, up to 500 stations — minutes of wall
//! time); [`Fidelity::Quick`] shrinks the network and horizon while keeping
//! every mechanism active (used by tests and by `paper_figures ... quick`).

pub mod ablation;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod multihop;
pub mod overhead;
pub mod table1;

use crate::scenario::{ChurnConfig, ProtocolKind, ScenarioConfig};

/// The Sec. 5 scenario with every time constant scaled by the fidelity:
/// 1000 s horizon, 5 % churn every 200 s (50 s absences), reference
/// departures at 300/500/800 s.
pub(crate) fn scaled_paper_scenario(
    protocol: ProtocolKind,
    paper_n: u32,
    fid: Fidelity,
    seed: u64,
) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::new(protocol, fid.n(paper_n), fid.secs(1000.0), seed);
    cfg.churn = Some(ChurnConfig {
        period_s: fid.secs(200.0),
        fraction: 0.05,
        absence_s: fid.secs(50.0),
    });
    cfg.ref_leaves_s = vec![fid.secs(300.0), fid.secs(500.0), fid.secs(800.0)];
    cfg.ref_absence_s = fid.secs(50.0);
    cfg
}

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// The paper's exact dimensions.
    Paper,
    /// Reduced dimensions (same mechanisms) for tests and quick runs.
    Quick,
}

impl Fidelity {
    /// Scale a station count.
    pub fn n(self, paper_n: u32) -> u32 {
        match self {
            Fidelity::Paper => paper_n,
            Fidelity::Quick => (paper_n / 10).max(5),
        }
    }

    /// Scale a duration in seconds.
    pub fn secs(self, paper_secs: f64) -> f64 {
        match self {
            Fidelity::Paper => paper_secs,
            Fidelity::Quick => (paper_secs / 20.0).max(10.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fidelity_scaling() {
        assert_eq!(Fidelity::Paper.n(500), 500);
        assert_eq!(Fidelity::Quick.n(500), 50);
        assert_eq!(Fidelity::Quick.n(10), 5);
        assert_eq!(Fidelity::Paper.secs(1000.0), 1000.0);
        assert_eq!(Fidelity::Quick.secs(1000.0), 50.0);
        assert_eq!(Fidelity::Quick.secs(100.0), 10.0);
    }
}
