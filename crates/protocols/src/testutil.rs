//! Shared test fixtures for protocol unit tests (compiled only for tests).

use crate::api::{AnchorRegistry, NodeCtx, NodeId, ProtocolConfig};
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha12Rng;

/// Persistent per-test environment: one RNG stream, one anchor registry and
/// one config shared across callbacks, as the engine would provide.
pub struct TestHarness {
    pub id: NodeId,
    pub rng: ChaCha12Rng,
    pub anchors: AnchorRegistry,
    pub config: ProtocolConfig,
}

impl TestHarness {
    pub fn new(id: NodeId) -> Self {
        TestHarness {
            id,
            rng: ChaCha12Rng::seed_from_u64(1000 + id as u64),
            anchors: AnchorRegistry::new(),
            config: ProtocolConfig::paper(),
        }
    }

    /// Build a context at the given local time.
    pub fn ctx(&mut self, local_us: f64) -> NodeCtx<'_> {
        NodeCtx {
            id: self.id,
            local_us,
            rng: &mut self.rng,
            anchors: &mut self.anchors,
            config: &self.config,
        }
    }
}
