//! Node state for persist/restore.
//!
//! A [`NodeSnapshot`] captures everything a node's engine accumulates at run
//! time, and nothing a restoring engine would re-derive or discard: the
//! Vivaldi runtime state (coordinate, error estimate, counters, tie-break
//! generator), the application-level coordinate manager's state (published
//! coordinate and heuristic windows), each link's filter state and
//! last-seen neighbour info, and the probe schedule and ledger. It does
//! **not** embed the node's configuration: the stack a node runs (filter
//! family, heuristic family, Vivaldi constants) is deployment configuration
//! and is supplied again when the node is rebuilt. Each sub-state is the
//! export of its owner (`VivaldiState`, the application coordinate manager,
//! a link filter), which the restored owner imports.
//!
//! A snapshot's bytes are the binary codec's snapshot frame
//! ([`crate::BinaryMessage`]), every field in the fixed layout given in
//! [`crate::binary`], under a header carrying the protocol version it was
//! written under; a frame of another version is refused, not migrated. The
//! decoder and a restoring engine both check a snapshot through
//! [`NodeSnapshot::validate`].

use nc_change::ApplicationState;
use nc_filters::{FilterState, StateMismatch};
use nc_vivaldi::{Coordinate, VivaldiRuntime};

/// One probe that has been sent but not yet answered or expired.
///
/// The engine records every outgoing probe here; the entry is released when
/// the matching response arrives ([`crate::ProbeResponse::seq`] echoes the
/// request's sequence number) or when the driver declares the probe timed
/// out. Snapshots carry the table so a restored node neither forgets about
/// in-flight probes nor double-counts their eventual loss.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingProbe<Id> {
    /// The peer the probe was addressed to.
    pub target: Id,
    /// Sequence number the probe carried.
    pub seq: u64,
    /// Driver clock reading when the probe was built (milliseconds).
    pub sent_at_ms: u64,
}

/// Everything a node remembers about one link/neighbour.
#[derive(Debug, Clone, PartialEq)]
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
}

/// The full runtime state of a `StableNode`, detached from its
/// configuration.
///
/// Produced by the engine's `snapshot()` and consumed by `restore()`; see
/// the `stable-nc` crate. Persisted through [`crate::BinaryMessage`], like
/// the probe messages.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSnapshot<Id> {
    /// Vivaldi runtime state: system coordinate, error estimate, counters
    /// and the tie-break generator (so a restored node continues the exact
    /// same trajectory).
    pub vivaldi: VivaldiRuntime,
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
    /// Index into `membership` of the next peer to probe; at most its
    /// length, where the last peer's probe leaves it.
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

/// A rule of [`NodeSnapshot::validate`] that a snapshot breaks: a value no
/// engine exports, which restored would stay wrong for the node's lifetime.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// A link's error estimate is not finite: peers drop it as malformed.
    ErrorEstimate,
    /// A link's filter state breaks a rule of [`FilterState::validate`].
    Filter(StateMismatch),
    /// The nearest neighbour is no measured link at a finite RTT `≥ 0`.
    NearestNeighbor,
    /// The membership names a peer twice (it outlives its eviction) or
    /// names the node itself (probed every cycle, each probe lost).
    Membership,
    /// A displacement total (system or application) is negative or not finite.
    Displacement,
    /// A loss streak is zero (no engine keeps one), repeats a peer, or
    /// names an id that is neither a link nor a member.
    LossStreak,
    /// The pending probes are not in strictly increasing sequence order,
    /// one is numbered at or past `probe_seq`, or one addresses an id that
    /// is neither a link nor a member.
    Pending,
    /// The probe cursor stands past the end of the membership.
    ProbeCursor,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let rule = match self {
            SnapshotError::ErrorEstimate => "a link's error estimate is not finite",
            SnapshotError::Filter(e) => return write!(f, "snapshot link: {e}"),
            SnapshotError::NearestNeighbor => {
                "the nearest neighbour is no measured link at a valid RTT"
            }
            SnapshotError::Membership => "the membership repeats a peer or names the node",
            SnapshotError::Displacement => "a displacement total is negative or not finite",
            SnapshotError::LossStreak => "a loss streak is zero, repeated or of an unknown id",
            SnapshotError::Pending => {
                "the pending probes are out of order, numbered past probe_seq or to an unknown id"
            }
            SnapshotError::ProbeCursor => "the probe cursor stands past the membership",
        };
        write!(f, "snapshot breaks a rule: {rule}")
    }
}

impl std::error::Error for SnapshotError {}

impl<Id: Eq + std::hash::Hash> NodeSnapshot<Id> {
    /// Checks every rule of a snapshot that needs no configuration, one
    /// [`SnapshotError`] each; every snapshot an engine takes passes.
    ///
    /// # Errors
    ///
    /// The [`SnapshotError`] of the first rule broken.
    pub fn validate(&self) -> Result<(), SnapshotError> {
        for link in &self.links {
            if !link.error_estimate.is_finite() {
                return Err(SnapshotError::ErrorEstimate);
            }
            if let Some(filter) = &link.filter {
                filter.validate().map_err(SnapshotError::Filter)?;
            }
        }
        // Eviction recomputes the nearest neighbour when its link goes.
        if let Some((nearest, rtt)) = &self.nearest_neighbor {
            let measured = self
                .links
                .iter()
                .any(|link| link.id == *nearest && link.filter.is_some());
            if !(measured && rtt.is_finite() && *rtt >= 0.0) {
                return Err(SnapshotError::NearestNeighbor);
            }
        }
        // nc-lint: allow(det-map) — membership tests only: never iterated.
        let mut known = std::collections::HashSet::with_capacity(self.membership.len());
        if self
            .membership
            .iter()
            .any(|id| self.identity.as_ref() == Some(id) || !known.insert(id))
        {
            return Err(SnapshotError::Membership);
        }
        if self.probe_cursor > self.membership.len() {
            return Err(SnapshotError::ProbeCursor);
        }
        // The ids the node knows: its members and its links.
        known.extend(self.links.iter().map(|link| &link.id));
        // nc-lint: allow(det-map) — a membership test only: never iterated.
        let mut streaks = std::collections::HashSet::with_capacity(self.loss_streaks.len());
        if !self
            .loss_streaks
            .iter()
            .all(|(id, streak)| *streak > 0 && known.contains(id) && streaks.insert(id))
        {
            return Err(SnapshotError::LossStreak);
        }
        let ordered = self
            .pending
            .windows(2)
            .all(|pair| pair[0].seq < pair[1].seq);
        if !ordered
            || !self
                .pending
                .iter()
                .all(|probe| probe.seq < self.probe_seq && known.contains(&probe.target))
        {
            return Err(SnapshotError::Pending);
        }
        let totals = [
            self.vivaldi.total_displacement_ms,
            self.application.total_displacement_ms,
        ];
        if !totals
            .iter()
            .all(|total| total.is_finite() && *total >= 0.0)
        {
            return Err(SnapshotError::Displacement);
        }
        Ok(())
    }
}

impl<Id> NodeSnapshot<Id> {
    /// Number of known neighbours in the snapshot.
    pub fn neighbor_count(&self) -> usize {
        self.links.len()
    }

    /// The system-level coordinate at snapshot time.
    pub fn system_coordinate(&self) -> &Coordinate {
        &self.vivaldi.coordinate
    }

    /// The application-level coordinate at snapshot time.
    pub fn application_coordinate(&self) -> &Coordinate {
        &self.application.coordinate
    }
}
