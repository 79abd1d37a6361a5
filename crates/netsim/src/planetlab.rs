//! The synthetic PlanetLab workload.
//!
//! This module replaces the paper's measurement artifacts — the three-day
//! all-pairs ping trace over 269 PlanetLab nodes and the four-hour live
//! deployment over 270 nodes — with a parameterised synthetic equivalent
//! built from [`crate::topology`] and [`crate::linkmodel`].

use crate::linkmodel::LinkModelConfig;
use crate::topology::Topology;

/// Describes a synthetic PlanetLab-like network: how many nodes exist and how
/// their links behave.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanetLabConfig {
    node_count: usize,
    seed: u64,
    link_config: LinkModelConfig,
}

impl PlanetLabConfig {
    /// The scale of the paper's trace: 269 nodes.
    pub fn paper_scale() -> Self {
        PlanetLabConfig {
            node_count: 269,
            seed: 20050502,
            link_config: LinkModelConfig::default(),
        }
    }

    /// The scale of the paper's live deployment (§VI): 270 nodes.
    pub fn deployment_scale() -> Self {
        PlanetLabConfig {
            node_count: 270,
            seed: 20050624,
            link_config: LinkModelConfig::default(),
        }
    }

    /// A reduced workload with `node_count` nodes, for unit tests, examples
    /// and quick experiment runs. The latency model is unchanged; only the
    /// mesh is smaller.
    ///
    /// # Panics
    ///
    /// Panics when `node_count < 2`.
    pub fn small(node_count: usize) -> Self {
        assert!(node_count >= 2, "a workload needs at least two nodes");
        PlanetLabConfig {
            node_count,
            seed: 7,
            link_config: LinkModelConfig::default(),
        }
    }

    /// Number of nodes in the workload.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// The random seed the topology and link models derive from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The shared per-link observation model configuration.
    pub fn link_config(&self) -> &LinkModelConfig {
        &self.link_config
    }

    /// Replaces the seed (different seeds give statistically identical but
    /// numerically different workloads — used for repeated trials).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the link observation model.
    pub fn with_link_config(mut self, link_config: LinkModelConfig) -> Self {
        self.link_config = link_config;
        self
    }

    /// Builds the node placement for this workload.
    pub fn build_topology(&self) -> Topology {
        Topology::generate(self.node_count, self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scales_match_the_paper() {
        assert_eq!(PlanetLabConfig::paper_scale().node_count(), 269);
        assert_eq!(PlanetLabConfig::deployment_scale().node_count(), 270);
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn small_rejects_one_node() {
        let _ = PlanetLabConfig::small(1);
    }

    #[test]
    fn builders_apply() {
        let config = PlanetLabConfig::small(12)
            .with_seed(99)
            .with_link_config(LinkModelConfig::clean());
        assert_eq!(config.seed(), 99);
        assert_eq!(config.link_config(), &LinkModelConfig::clean());
        assert_eq!(config.build_topology().len(), 12);
    }

    #[test]
    fn same_seed_same_topology() {
        let a = PlanetLabConfig::small(20).with_seed(5).build_topology();
        let b = PlanetLabConfig::small(20).with_seed(5).build_topology();
        assert_eq!(a, b);
    }
}
