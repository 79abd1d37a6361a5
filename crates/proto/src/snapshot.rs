//! Serializable node state for persist/restore.
//!
//! A [`NodeSnapshot`] captures everything a node's engine accumulates at run
//! time: the Vivaldi state (coordinate, error estimate, counters), the
//! application-level coordinate manager's state (published coordinate and
//! heuristic windows), each link's filter state and last-seen neighbour
//! info, and the probe-scheduling cursors. It deliberately does **not**
//! embed the node's configuration — the stack a node runs (filter family,
//! heuristic family, Vivaldi constants) is deployment configuration and is
//! supplied separately when the node is rebuilt, which keeps a snapshot
//! valid across configuration-compatible binary upgrades.

use nc_change::ApplicationState;
use nc_filters::FilterState;
use nc_vivaldi::{Coordinate, VivaldiState};
use serde::{Deserialize, Serialize};

use crate::wire::WireMessage;

/// One probe that has been sent but not yet answered or expired.
///
/// The engine records every outgoing probe here; the entry is released when
/// the matching response arrives ([`crate::ProbeResponse::seq`] echoes the
/// request's sequence number) or when the driver declares the probe timed
/// out. Snapshots carry the table so a restored node neither forgets about
/// in-flight probes nor double-counts their eventual loss.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PendingProbe<Id> {
    /// The peer the probe was addressed to.
    pub target: Id,
    /// Sequence number the probe carried.
    pub seq: u64,
    /// Driver clock reading when the probe was built (milliseconds).
    pub sent_at_ms: u64,
}

/// Everything a node remembers about one link/neighbour.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkSnapshot<Id> {
    /// The neighbour's identifier.
    pub id: Id,
    /// Runtime state of the per-link latency filter, or `None` when the
    /// neighbour is known only through gossip and has never been probed.
    pub filter: Option<FilterState>,
    /// The neighbour's coordinate when last observed.
    pub coordinate: Coordinate,
    /// The neighbour's error estimate when last observed.
    pub error_estimate: f64,
    /// The most recent filtered latency estimate for the link (ms): what
    /// `filter` yields at capture time. Informational — a restoring engine
    /// re-derives it from `filter`, which it continues the link from.
    pub filtered_rtt_ms: Option<f64>,
    /// Number of raw observations of this link (likewise derived from
    /// `filter`).
    pub observations: u64,
}

/// The full runtime state of a `StableNode`, detached from its
/// configuration.
///
/// Produced by the engine's `snapshot()` and consumed by `restore()`; see
/// the `stable-nc` crate. Serializes through [`WireMessage`] like the probe
/// messages, with the same protocol-version check on decode.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeSnapshot<Id> {
    /// Protocol version the snapshot was taken under.
    pub version: u16,
    /// Complete Vivaldi state: system coordinate, error estimate, counters
    /// and the tie-break RNG state (so a restored node continues the exact
    /// same trajectory).
    pub vivaldi: VivaldiState,
    /// Application-level coordinate manager state: published coordinate,
    /// counters and heuristic windows.
    pub application: ApplicationState,
    /// Per-link state, one entry per known neighbour.
    pub links: Vec<LinkSnapshot<Id>>,
    /// The (approximately) nearest neighbour and its filtered RTT.
    pub nearest_neighbor: Option<(Id, f64)>,
    /// Total raw observations fed to this node.
    pub observations: u64,
    /// The node's own declared identity, if any (kept out of the probe
    /// schedule and of gossip payloads sent back to it).
    pub identity: Option<Id>,
    /// The probe schedule: peers in round-robin order.
    pub membership: Vec<Id>,
    /// Index into `membership` of the next peer to probe.
    pub probe_cursor: usize,
    /// Sequence number the next outgoing probe will carry.
    pub probe_seq: u64,
    /// Round-robin cursor over `membership` for choosing gossip payloads.
    pub gossip_cursor: usize,
    /// Probes sent but not yet answered or expired, oldest first.
    pub pending: Vec<PendingProbe<Id>>,
    /// Consecutive unanswered probes per peer (the eviction counter), in
    /// membership order so snapshots are deterministic.
    pub loss_streaks: Vec<(Id, u32)>,
}

impl<Id: Serialize> WireMessage for NodeSnapshot<Id> {
    fn wire_version(&self) -> u16 {
        self.version
    }
}

impl<Id> NodeSnapshot<Id> {
    /// Number of known neighbours in the snapshot.
    pub fn neighbor_count(&self) -> usize {
        self.links.len()
    }

    /// The system-level coordinate at snapshot time.
    pub fn system_coordinate(&self) -> &Coordinate {
        self.vivaldi.coordinate()
    }

    /// The application-level coordinate at snapshot time.
    pub fn application_coordinate(&self) -> &Coordinate {
        &self.application.coordinate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{WireError, PROTOCOL_VERSION};
    use nc_change::HeuristicState;
    use nc_vivaldi::VivaldiConfig;

    fn sample_snapshot() -> NodeSnapshot<String> {
        NodeSnapshot {
            version: PROTOCOL_VERSION,
            vivaldi: VivaldiState::new(VivaldiConfig::paper_defaults()),
            application: ApplicationState {
                coordinate: Coordinate::new(vec![1.0, 2.0, 3.0]).unwrap(),
                update_count: 4,
                system_updates_seen: 100,
                total_displacement_ms: 17.5,
                heuristic: HeuristicState::Stateless,
            },
            links: vec![LinkSnapshot {
                id: "peer-a".into(),
                filter: Some(FilterState::MovingPercentile {
                    window: vec![80.0, 81.5],
                    seen: 2,
                }),
                coordinate: Coordinate::new(vec![10.0, 0.0, 0.0]).unwrap(),
                error_estimate: 0.5,
                filtered_rtt_ms: Some(80.0),
                observations: 2,
            }],
            nearest_neighbor: Some(("peer-a".into(), 80.0)),
            observations: 2,
            identity: Some("self".into()),
            membership: vec!["peer-a".into(), "peer-b".into()],
            probe_cursor: 1,
            probe_seq: 3,
            gossip_cursor: 0,
            pending: vec![PendingProbe {
                target: "peer-b".into(),
                seq: 2,
                sent_at_ms: 900,
            }],
            loss_streaks: vec![("peer-b".into(), 1)],
        }
    }

    #[test]
    fn snapshot_round_trips_through_the_wire_form() {
        let snapshot = sample_snapshot();
        let decoded = NodeSnapshot::<String>::decode(&snapshot.encode()).unwrap();
        assert_eq!(decoded, snapshot);
        assert_eq!(decoded.neighbor_count(), 1);
        assert_eq!(decoded.application_coordinate().components()[0], 1.0);
    }

    #[test]
    fn snapshot_version_mismatch_is_rejected() {
        let mut snapshot = sample_snapshot();
        snapshot.version = PROTOCOL_VERSION + 3;
        let err = NodeSnapshot::<String>::decode(&snapshot.encode()).unwrap_err();
        assert!(
            matches!(err, WireError::VersionMismatch { found, .. } if found == PROTOCOL_VERSION + 3)
        );
    }
}
