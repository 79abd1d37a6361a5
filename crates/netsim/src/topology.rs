//! Synthetic wide-area topology: node placement and base round-trip times.
//!
//! PlanetLab nodes are concentrated at universities and research labs in a
//! handful of geographic regions. The topology model places nodes in four
//! regions (US East, US West, Europe, Asia) in proportions similar to the
//! 2005 deployment and assigns each node a position inside its region. The
//! *base RTT* between two nodes — the latency a perfectly clean measurement
//! would observe — is the sum of an inter-region backbone latency and the
//! intra-region distance of both endpoints, plus a small per-pair offset so
//! that no two links are exactly alike.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::rand_ext;

/// Largest node count for which the per-pair RTT offsets are pre-drawn into
/// a dense upper-triangular table at generation time (byte-identical to the
/// historical behaviour, which every seeded experiment depends on). Larger
/// topologies derive each offset from a hash of the pair on first use.
const DENSE_PAIR_OFFSET_LIMIT: usize = 4096;

/// Geographic region of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// Eastern United States.
    UsEast,
    /// Western United States.
    UsWest,
    /// Europe.
    Europe,
    /// Asia / Pacific.
    Asia,
}

impl Region {
    /// All regions, in a fixed order.
    pub const ALL: [Region; 4] = [Region::UsEast, Region::UsWest, Region::Europe, Region::Asia];

    /// Fraction of nodes placed in this region (roughly matching the 2005
    /// PlanetLab distribution: half in the US, a third in Europe, the rest in
    /// Asia).
    pub fn weight(self) -> f64 {
        match self {
            Region::UsEast => 0.30,
            Region::UsWest => 0.22,
            Region::Europe => 0.33,
            Region::Asia => 0.15,
        }
    }

    /// Typical one-way backbone latency in milliseconds between two regions
    /// (round-trip base is twice this plus intra-region components).
    fn backbone_rtt_ms(a: Region, b: Region) -> f64 {
        use Region::*;
        match (a, b) {
            (x, y) if x == y => 0.0,
            (UsEast, UsWest) | (UsWest, UsEast) => 62.0,
            (UsEast, Europe) | (Europe, UsEast) => 82.0,
            (UsEast, Asia) | (Asia, UsEast) => 190.0,
            (UsWest, Europe) | (Europe, UsWest) => 140.0,
            (UsWest, Asia) | (Asia, UsWest) => 120.0,
            (Europe, Asia) | (Asia, Europe) => 250.0,
            _ => unreachable!("all region pairs covered"),
        }
    }
}

impl std::fmt::Display for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Region::UsEast => "US-East",
            Region::UsWest => "US-West",
            Region::Europe => "Europe",
            Region::Asia => "Asia",
        };
        write!(f, "{name}")
    }
}

/// One placed node.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacedNode {
    /// Region the node lives in.
    pub region: Region,
    /// Distance (one-way milliseconds) from the node to its region's core
    /// router — models campus/metro access distance.
    pub metro_ms: f64,
    /// Access-link latency (milliseconds added to every RTT touching this
    /// node) — models last-hop/DSL-like delay, usually small for PlanetLab.
    pub access_ms: f64,
}

/// A generated topology: node placements and the base RTT between any pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    nodes: Vec<PlacedNode>,
    /// Deterministic per-pair RTT offsets (upper-triangular, flattened).
    pair_offset_ms: Vec<f64>,
    seed: u64,
}

impl Topology {
    /// Generates a topology of `node_count` nodes from a seed.
    ///
    /// # Panics
    ///
    /// Panics when `node_count < 2` — a latency study needs at least one
    /// link.
    pub fn generate(node_count: usize, seed: u64) -> Self {
        assert!(node_count >= 2, "a topology needs at least two nodes");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut nodes = Vec::with_capacity(node_count);
        for _ in 0..node_count {
            let region = Self::pick_region(&mut rng);
            let metro_ms = rand_ext::exponential(&mut rng, 1.0 / 4.0).min(40.0);
            let access_ms = rand_ext::exponential(&mut rng, 1.0 / 1.5).min(15.0);
            nodes.push(PlacedNode {
                region,
                metro_ms,
                access_ms,
            });
        }
        let pair_offset_ms = if node_count <= DENSE_PAIR_OFFSET_LIMIT {
            let pair_count = node_count * (node_count - 1) / 2;
            (0..pair_count)
                .map(|_| rand_ext::normal(&mut rng, 0.0, 3.0).abs())
                .collect()
        } else {
            // The strict upper triangle would need n(n-1)/2 doubles — 17 GB
            // at 65,536 nodes. Past the threshold the offsets are derived on
            // demand from a per-pair hash instead (see `pair_offset`).
            Vec::new()
        };
        Topology {
            nodes,
            pair_offset_ms,
            seed,
        }
    }

    fn pick_region(rng: &mut StdRng) -> Region {
        let total: f64 = Region::ALL.iter().map(|r| r.weight()).sum();
        let mut draw = rng.gen_range(0.0..total);
        for region in Region::ALL {
            if draw < region.weight() {
                return region;
            }
            draw -= region.weight();
        }
        Region::Asia
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Always false (construction requires ≥ 2 nodes).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The seed this topology was generated from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The placement of node `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn node(&self, i: usize) -> &PlacedNode {
        &self.nodes[i]
    }

    /// Iterates over all node placements.
    pub fn iter(&self) -> impl Iterator<Item = &PlacedNode> {
        self.nodes.iter()
    }

    /// Indices of all nodes in a given region.
    pub fn nodes_in_region(&self, region: Region) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.region == region)
            .map(|(i, _)| i)
            .collect()
    }

    fn pair_index(&self, a: usize, b: usize) -> usize {
        let n = self.nodes.len();
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        // Index into the flattened strict upper triangle.
        lo * n - lo * (lo + 1) / 2 + (hi - lo - 1)
    }

    /// Base round-trip time between nodes `a` and `b` in milliseconds: the
    /// latency an ideal, uncongested measurement would see. Symmetric.
    ///
    /// # Panics
    ///
    /// Panics when either index is out of range or `a == b`.
    pub fn base_rtt_ms(&self, a: usize, b: usize) -> f64 {
        assert!(a != b, "a node has no link to itself");
        let na = &self.nodes[a];
        let nb = &self.nodes[b];
        let backbone = Region::backbone_rtt_ms(na.region, nb.region);
        let intra = if na.region == nb.region {
            // Same region: latency is dominated by the metro distance between
            // the two sites.
            2.0 * (na.metro_ms + nb.metro_ms) * 0.5 + 3.0
        } else {
            2.0 * (na.metro_ms + nb.metro_ms) * 0.5
        };
        let access = na.access_ms + nb.access_ms;
        backbone + intra + access + self.pair_offset(a, b)
    }

    /// The deterministic per-pair RTT offset: a table lookup for topologies
    /// small enough to pre-draw the triangle, a hash-seeded draw above
    /// [`DENSE_PAIR_OFFSET_LIMIT`]. Both forms are symmetric and a pure
    /// function of `(seed, a, b)`.
    fn pair_offset(&self, a: usize, b: usize) -> f64 {
        if !self.pair_offset_ms.is_empty() {
            return self.pair_offset_ms[self.pair_index(a, b)];
        }
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let pair = ((lo as u64) << 32) | hi as u64;
        let mut rng = StdRng::seed_from_u64(self.seed ^ pair.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rand_ext::normal(&mut rng, 0.0, 3.0).abs()
    }

    /// The full symmetric base-RTT matrix (diagonal zero). Useful for
    /// experiments that want a ground truth to compare embeddings against,
    /// and used by the simulator hot path so per-probe lookups are one
    /// row-major index instead of a re-derivation from node placements.
    pub fn base_rtt_matrix(&self) -> RttMatrix {
        let n = self.len();
        let mut data = vec![0.0; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let rtt = self.base_rtt_ms(i, j);
                data[i * n + j] = rtt;
                data[j * n + i] = rtt;
            }
        }
        RttMatrix { n, data }
    }
}

/// A dense, row-major `n × n` matrix of base round-trip times, indexed by
/// `(a, b)` node-index pairs. Flat storage keeps the simulator's per-probe
/// lookup a single multiply-add away from contiguous memory rather than a
/// pointer chase through `Vec<Vec<f64>>` rows.
#[derive(Debug, Clone, PartialEq)]
pub struct RttMatrix {
    n: usize,
    data: Vec<f64>,
}

impl RttMatrix {
    /// Number of nodes (the matrix is `len × len`).
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the matrix has no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The base RTT between `a` and `b` in milliseconds (zero on the
    /// diagonal).
    ///
    /// # Panics
    ///
    /// Panics when either index is out of range.
    pub fn get(&self, a: usize, b: usize) -> f64 {
        assert!(a < self.n && b < self.n, "index out of range");
        self.data[a * self.n + b]
    }

    /// The flat row-major backing storage, row `a` at `a * len()`.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }
}

impl std::ops::Index<(usize, usize)> for RttMatrix {
    type Output = f64;

    fn index(&self, (a, b): (usize, usize)) -> &f64 {
        assert!(a < self.n && b < self.n, "index out of range");
        &self.data[a * self.n + b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn rejects_tiny_topologies() {
        let _ = Topology::generate(1, 0);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Topology::generate(32, 7);
        let b = Topology::generate(32, 7);
        assert_eq!(a, b);
        let c = Topology::generate(32, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn base_rtt_is_symmetric_and_positive() {
        let t = Topology::generate(24, 3);
        for i in 0..t.len() {
            for j in 0..t.len() {
                if i == j {
                    continue;
                }
                let rtt = t.base_rtt_ms(i, j);
                assert!(rtt > 0.0);
                assert_eq!(rtt, t.base_rtt_ms(j, i));
            }
        }
    }

    #[test]
    fn same_region_links_are_faster_than_transcontinental() {
        let t = Topology::generate(200, 11);
        let us_east = t.nodes_in_region(Region::UsEast);
        let asia = t.nodes_in_region(Region::Asia);
        assert!(us_east.len() >= 2, "expected several US-East nodes");
        assert!(!asia.is_empty(), "expected some Asia nodes");
        let intra = t.base_rtt_ms(us_east[0], us_east[1]);
        let inter = t.base_rtt_ms(us_east[0], asia[0]);
        assert!(
            intra < inter,
            "intra-region {intra:.1} ms should be below trans-pacific {inter:.1} ms"
        );
        assert!(intra < 120.0);
        assert!(inter > 150.0);
    }

    #[test]
    fn all_regions_are_populated_in_large_topologies() {
        let t = Topology::generate(269, 1);
        for region in Region::ALL {
            assert!(
                !t.nodes_in_region(region).is_empty(),
                "region {region} is empty"
            );
        }
        assert_eq!(t.len(), 269);
    }

    #[test]
    fn rtt_matrix_matches_pairwise_calls() {
        let t = Topology::generate(10, 5);
        let m = t.base_rtt_matrix();
        assert_eq!(m.len(), 10);
        assert!(!m.is_empty());
        for i in 0..t.len() {
            assert_eq!(m[(i, i)], 0.0);
            for j in 0..t.len() {
                if i != j {
                    assert_eq!(m[(i, j)], t.base_rtt_ms(i, j));
                    assert_eq!(m[(i, j)], m[(j, i)]);
                    assert_eq!(m.get(i, j), m[(i, j)]);
                }
            }
        }
        // Row-major layout: row i starts at i * n.
        assert_eq!(m.as_slice()[3 * m.len() + 7], m[(3, 7)]);
    }

    #[test]
    #[should_panic(expected = "index out of range")]
    fn rtt_matrix_bounds_are_checked() {
        let m = Topology::generate(4, 5).base_rtt_matrix();
        let _ = m[(0, 4)];
    }

    #[test]
    fn pair_index_is_unique() {
        let t = Topology::generate(20, 2);
        let mut seen = std::collections::HashSet::new();
        for i in 0..20 {
            for j in (i + 1)..20 {
                assert!(
                    seen.insert(t.pair_index(i, j)),
                    "duplicate index for ({i},{j})"
                );
            }
        }
        assert_eq!(seen.len(), 20 * 19 / 2);
    }

    #[test]
    fn huge_topologies_use_hashed_pair_offsets() {
        // Above the dense-table limit no triangle is materialised, yet the
        // base RTT stays deterministic, symmetric and realistically offset.
        let n = DENSE_PAIR_OFFSET_LIMIT + 8;
        let a = Topology::generate(n, 77);
        let b = Topology::generate(n, 77);
        assert!(a.pair_offset_ms.is_empty(), "no dense table above limit");
        for &(i, j) in &[(0, 1), (5, n - 1), (n - 2, n - 1), (100, 4000)] {
            let rtt = a.base_rtt_ms(i, j);
            assert!(rtt > 0.0);
            assert_eq!(rtt, a.base_rtt_ms(j, i), "symmetric");
            assert_eq!(rtt, b.base_rtt_ms(i, j), "deterministic across builds");
        }
        // Different seeds give different offsets.
        let c = Topology::generate(n, 78);
        assert_ne!(a.base_rtt_ms(0, 1), c.base_rtt_ms(0, 1));
    }

    #[test]
    fn region_display_and_weights() {
        let total: f64 = Region::ALL.iter().map(|r| r.weight()).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for r in Region::ALL {
            assert!(!r.to_string().is_empty());
        }
    }

    #[test]
    fn typical_rtts_fall_in_realistic_bands() {
        let t = Topology::generate(269, 42);
        let europe = t.nodes_in_region(Region::Europe);
        let us_east = t.nodes_in_region(Region::UsEast);
        let rtt = t.base_rtt_ms(europe[0], us_east[0]);
        assert!(rtt > 70.0 && rtt < 220.0, "transatlantic {rtt:.1} ms");
    }
}
