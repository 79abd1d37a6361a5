//! Typed events emitted by a sans-I/O coordinate engine.
//!
//! Every probe response an engine digests produces zero or more events
//! describing what the coordinate stack did with the observation. Drivers
//! consume the stream instead of poking at node internals: a simulator folds
//! events into its metrics, a daemon forwards [`Event::ApplicationUpdated`]
//! to the embedding application, a debugger logs everything.

use nc_change::ApplicationUpdate;

/// One thing the engine did while digesting a probe response.
///
/// The variants mirror the stages of the paper's stack: the per-link filter
/// may suppress the raw sample, Vivaldi may reject the filtered sample as
/// implausible, an accepted sample moves the system-level coordinate, and
/// the update heuristic occasionally publishes an application-level update.
#[derive(Debug, Clone, PartialEq)]
pub enum Event<Id> {
    /// A peer was seen for the first time (as a responder or through
    /// gossip) and entered the neighbour table / probe schedule.
    NeighborDiscovered {
        /// The newly discovered peer.
        id: Id,
    },
    /// The per-link filter consumed the raw sample but suppressed its
    /// output (warm-up, threshold discard, or an invalid sample), so
    /// nothing reached Vivaldi.
    ObservationFiltered {
        /// The probed peer.
        id: Id,
        /// The raw round-trip time that was withheld.
        raw_rtt_ms: f64,
    },
    /// The filtered sample was rejected as implausible before it could move
    /// the coordinate: either Vivaldi refused the value itself (non-finite,
    /// non-positive, or beyond the configured latency bound), or — on nodes
    /// running the optional MAD outlier gate — the observation's residual
    /// against the coordinate-predicted distance fell far outside the
    /// recent residual distribution (a lying or delay-attacking peer). A
    /// gate rejection drops the reply whole, piggybacked gossip included.
    ObservationRejected {
        /// The probed peer.
        id: Id,
        /// The filtered round-trip time that was rejected.
        filtered_rtt_ms: f64,
    },
    /// An accepted observation updated the system-level coordinate. Emitted
    /// for every accepted observation; `displacement_ms` is `0.0` when
    /// confidence building judged the sample within the measurement-error
    /// margin and left the coordinate in place.
    SystemMoved {
        /// The probed peer.
        id: Id,
        /// The filtered round-trip time handed to Vivaldi.
        filtered_rtt_ms: f64,
        /// Magnitude of the coordinate movement (milliseconds).
        displacement_ms: f64,
        /// Relative error of the pre-update system coordinate against the
        /// filtered observation (§II-A accuracy metric).
        relative_error: f64,
        /// Relative error of the application-level coordinate against the
        /// filtered observation (the accuracy an embedding application
        /// experiences, §V-B).
        application_relative_error: f64,
    },
    /// The update heuristic published a new application-level coordinate —
    /// the rare, significant event an embedding application reacts to.
    ApplicationUpdated {
        /// The published change.
        update: ApplicationUpdate,
    },
    /// An outstanding probe expired without a reply (the driver declared it
    /// timed out, or the engine expired it on the driver's behalf). The
    /// probe slot is released and the round-robin schedule keeps advancing —
    /// a lost probe never stalls the engine.
    ProbeLost {
        /// The peer that was probed and never answered.
        id: Id,
        /// Sequence number the lost probe carried.
        seq: u64,
    },
    /// The peer answered none of its last `max_consecutive_losses` probes
    /// and was dropped from the neighbour table and the probe schedule
    /// (crashed, partitioned away, or gone for good). Only emitted when the
    /// configuration enables eviction.
    NeighborEvicted {
        /// The evicted peer.
        id: Id,
    },
    /// A probe response arrived that correlates with no outstanding probe —
    /// a reply delivered after its probe already timed out, a duplicated
    /// datagram, or an unsolicited/spoofed response. The engine dropped it
    /// without touching any filter, coordinate or loss-streak state: the
    /// observation it carries was either already accounted as a loss or
    /// never requested, and its RTT stamp cannot be trusted.
    ResponseIgnored {
        /// The peer the response claims to come from.
        id: Id,
        /// Sequence number the response echoed.
        seq: u64,
    },
}

impl<Id> Event<Id> {
    /// The peer this event concerns, when it concerns one.
    pub fn peer(&self) -> Option<&Id> {
        match self {
            Event::NeighborDiscovered { id }
            | Event::ObservationFiltered { id, .. }
            | Event::ObservationRejected { id, .. }
            | Event::SystemMoved { id, .. }
            | Event::ProbeLost { id, .. }
            | Event::NeighborEvicted { id }
            | Event::ResponseIgnored { id, .. } => Some(id),
            Event::ApplicationUpdated { .. } => None,
        }
    }

    /// True for [`Event::ApplicationUpdated`] — the only event an embedding
    /// application must react to.
    pub fn is_application_update(&self) -> bool {
        matches!(self, Event::ApplicationUpdated { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_vivaldi::Coordinate;

    #[test]
    fn peer_accessor_covers_all_variants() {
        let filtered: Event<u32> = Event::ObservationFiltered {
            id: 3,
            raw_rtt_ms: 5_000.0,
        };
        assert_eq!(filtered.peer(), Some(&3));
        assert!(!filtered.is_application_update());

        let update: Event<u32> = Event::ApplicationUpdated {
            update: ApplicationUpdate {
                previous: Coordinate::origin(2),
                current: Coordinate::new(vec![3.0, 4.0]).unwrap(),
                displacement_ms: 5.0,
            },
        };
        assert_eq!(update.peer(), None);
        assert!(update.is_application_update());
    }

    #[test]
    fn loss_events_name_their_peer() {
        let lost: Event<u32> = Event::ProbeLost { id: 9, seq: 41 };
        assert_eq!(lost.peer(), Some(&9));
        assert!(!lost.is_application_update());
        let evicted: Event<u32> = Event::NeighborEvicted { id: 9 };
        assert_eq!(evicted.peer(), Some(&9));
    }

    #[test]
    fn ignored_responses_name_their_peer() {
        let ignored: Event<u32> = Event::ResponseIgnored { id: 5, seq: 17 };
        assert_eq!(ignored.peer(), Some(&5));
        assert!(!ignored.is_application_update());
    }
}
