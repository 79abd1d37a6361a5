//! Coordinate query service: the read path over live network coordinates.
//!
//! The rest of the workspace *computes* stable coordinates — this crate
//! lets an application *ask* them something. A [`CoordinateIndex`] ingests
//! coordinate updates (from the simulator's event stream, a runtime's
//! [`stable_nc::NodeView`] snapshots, or any other driver) and serves:
//!
//! * **k-nearest-node** — the `k` tracked nodes closest to a target
//!   coordinate, exactly ranked ([`CoordinateIndex::k_nearest`]);
//! * **closest replica to a point** — the single nearest node to an
//!   arbitrary coordinate, e.g. "which mirror should this client fetch
//!   from" ([`CoordinateIndex::nearest`]);
//! * **centroid / cluster** — the population centroid and the occupied
//!   cells of a coarsened grid with per-cluster centroids
//!   ([`CoordinateIndex::centroid`], [`CoordinateIndex::clusters`]).
//!
//! The design follows the space-filling-curve construction of the
//! Distributed Overlay Anycast Tables line of work: coordinates are
//! quantized and mapped onto a 1-D Z-order (Morton) key, so proximity
//! queries become range scans over a sorted, sharded key layout. Exactness
//! is restored by re-ranking candidates by true Vivaldi distance; a
//! brute-force oracle in the test suite proves the equivalence property on
//! random point sets, churn, and degenerate inputs.
//!
//! Determinism: the crate reads no clock and draws no randomness; query
//! results are a pure function of the sequence of updates. Iteration that
//! could affect results runs over the sorted shards, never over hash maps.
//!
//! # Quickstart
//!
//! ```
//! use nc_query::{CoordinateIndex, QueryConfig};
//! use nc_vivaldi::Coordinate;
//!
//! let mut index = CoordinateIndex::new(QueryConfig::default()).unwrap();
//! index.update("helsinki", &Coordinate::new([12.0, -3.0, 40.0]).unwrap()).unwrap();
//! index.update("oregon", &Coordinate::new([-80.0, 22.0, 5.0]).unwrap()).unwrap();
//! index.update("sydney", &Coordinate::new([130.0, 95.0, -20.0]).unwrap()).unwrap();
//!
//! // A client at this coordinate fetches from its nearest replica.
//! let client = Coordinate::new([10.0, 0.0, 35.0]).unwrap();
//! let replica = index.nearest(&client).unwrap().unwrap();
//! assert_eq!(replica.id, "helsinki");
//! assert!(replica.distance_ms < 10.0);
//! ```

// Lint policy (missing_docs, broken doc links, clippy set) is centralized
// in the workspace manifest: [workspace.lints] + `lints.workspace = true`.

pub mod curve;
pub mod handle;
pub mod index;

pub use handle::{QueryHandle, QueryPublisher};
pub use index::{ClusterSummary, CoordinateIndex, QueryMatch};

/// An invalid [`QueryConfig`] or query argument, reported by
/// [`QueryConfig::validate`] and the [`CoordinateIndex`] entry points —
/// the workspace's one validation idiom: `validate(&self) -> Result<(), E>`
/// with one error enum per crate, as `SimConfig`, `NodeConfig` and
/// `LinkModelConfig` have.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// The dimension count is outside `1..=8` (a Morton key holds at most
    /// eight 16-bit lanes).
    DimensionsOutOfRange(usize),
    /// The quantization half-extent is not positive and finite.
    BoundNotPositive(f64),
    /// The shard capacity is too small to amortise splits (minimum 8).
    ShardCapacityTooSmall(usize),
    /// A coordinate's dimensionality does not match the index.
    DimensionMismatch {
        /// The index's dimension count.
        expected: usize,
        /// The coordinate's dimension count.
        got: usize,
    },
    /// A coordinate has a NaN or infinite component or height.
    NonFiniteCoordinate,
    /// A coordinate has a negative height. Construction forbids them, but
    /// coordinate arithmetic (a negative scale) can still produce one; the
    /// k-NN search-box math relies on heights being non-negative.
    NegativeHeight,
    /// A cluster prefix length exceeds the key width.
    PrefixBitsOutOfRange {
        /// The requested prefix length.
        bits: u32,
        /// The key width (`16 × dimensions`).
        max: u32,
    },
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::DimensionsOutOfRange(d) => {
                write!(f, "dimensions must be in 1..=8, got {d}")
            }
            QueryError::BoundNotPositive(b) => {
                write!(f, "coordinate bound must be positive and finite, got {b}")
            }
            QueryError::ShardCapacityTooSmall(c) => {
                write!(f, "max shard entries must be at least 8, got {c}")
            }
            QueryError::DimensionMismatch { expected, got } => {
                write!(
                    f,
                    "coordinate has {got} dimensions, the index has {expected}"
                )
            }
            QueryError::NonFiniteCoordinate => {
                write!(f, "coordinate has a non-finite component or height")
            }
            QueryError::NegativeHeight => {
                write!(f, "coordinate has a negative height")
            }
            QueryError::PrefixBitsOutOfRange { bits, max } => {
                write!(f, "cluster prefix of {bits} bits exceeds the {max}-bit key")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// Tuning of a [`CoordinateIndex`].
#[derive(Debug, Clone, PartialEq)]
pub struct QueryConfig {
    /// Dimensionality of the indexed coordinates (must match the Vivaldi
    /// space; the paper's deployment uses 3).
    pub dimensions: usize,
    /// Half-extent of the quantization grid in milliseconds: components are
    /// clamped to `±coordinate_bound_ms` before quantization. Queries stay
    /// exact for out-of-range points (re-ranking uses true coordinates);
    /// only scan efficiency degrades at the clamped edges. The default of
    /// 30 000 ms comfortably contains any terrestrial RTT embedding.
    pub coordinate_bound_ms: f64,
    /// Shard split threshold: a shard splits in half when it outgrows this
    /// many entries, and merges with a neighbour when it falls below a
    /// quarter of it.
    pub max_shard_entries: usize,
}

impl Default for QueryConfig {
    fn default() -> Self {
        QueryConfig {
            dimensions: 3,
            coordinate_bound_ms: 30_000.0,
            max_shard_entries: 512,
        }
    }
}

impl QueryConfig {
    /// Checks every invariant.
    ///
    /// # Errors
    ///
    /// Returns the first [`QueryError`] found: a dimension count outside
    /// `1..=8`, a non-positive quantization bound, or a shard capacity
    /// below 8.
    pub fn validate(&self) -> Result<(), QueryError> {
        if !(1..=curve::MAX_DIMENSIONS).contains(&self.dimensions) {
            return Err(QueryError::DimensionsOutOfRange(self.dimensions));
        }
        if !(self.coordinate_bound_ms.is_finite() && self.coordinate_bound_ms > 0.0) {
            return Err(QueryError::BoundNotPositive(self.coordinate_bound_ms));
        }
        if self.max_shard_entries < 8 {
            return Err(QueryError::ShardCapacityTooSmall(self.max_shard_entries));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        assert!(QueryConfig::default().validate().is_ok());
    }

    #[test]
    fn validate_reports_typed_errors() {
        let bad_dims = QueryConfig {
            dimensions: 9,
            ..QueryConfig::default()
        };
        assert_eq!(
            bad_dims.validate(),
            Err(QueryError::DimensionsOutOfRange(9))
        );
        let bad_bound = QueryConfig {
            coordinate_bound_ms: 0.0,
            ..QueryConfig::default()
        };
        assert_eq!(bad_bound.validate(), Err(QueryError::BoundNotPositive(0.0)));
        let bad_shard = QueryConfig {
            max_shard_entries: 4,
            ..QueryConfig::default()
        };
        assert_eq!(
            bad_shard.validate(),
            Err(QueryError::ShardCapacityTooSmall(4))
        );
        // Errors render as prose for operator-facing logs.
        assert!(QueryError::NonFiniteCoordinate
            .to_string()
            .contains("finite"));
    }

    #[test]
    fn config_rules_boundary_table() {
        let with = |set: &dyn Fn(&mut QueryConfig)| {
            let mut config = QueryConfig::default();
            set(&mut config);
            config.validate().is_ok()
        };
        let dimensions: Vec<bool> = [0, 1, 2, 8, 9]
            .into_iter()
            .map(|d| with(&|c| c.dimensions = d))
            .collect();
        assert_eq!(dimensions, [false, true, true, true, false]);
        // Columns: 0, 1, 2, -1, NaN, +inf, -inf.
        let bounds: Vec<bool> = [
            0.0,
            1.0,
            2.0,
            -1.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ]
        .into_iter()
        .map(|b| with(&|c| c.coordinate_bound_ms = b))
        .collect();
        assert_eq!(bounds, [false, true, true, false, false, false, false]);
        let shards: Vec<bool> = [0, 1, 2, 7, 8]
            .into_iter()
            .map(|n| with(&|c| c.max_shard_entries = n))
            .collect();
        assert_eq!(shards, [false, false, false, false, true]);
    }
}
