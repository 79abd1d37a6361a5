//! The per-host coordinate subsystem behind a sans-I/O engine: filter →
//! Vivaldi → application-level coordinate, driven entirely through
//! [`ProbeRequest`] / [`ProbeResponse`] wire messages and observed through a
//! typed [`Event`] stream.

use std::hash::Hash;

use nc_change::{ApplicationCoordinate, Heuristic, HeuristicStateMismatch, UpdateContext};

use nc_filters::StateMismatch;
use nc_proto::{
    Event, GossipEntry, LinkSnapshot, NodeSnapshot, ProbeRequest, ProbeResponse, SnapshotError,
};
use nc_vivaldi::{Coordinate, OutlierGate, RemoteObservation, VivaldiState};

use crate::config::{NodeConfig, NodeConfigError};
use crate::ledger::ProbeLedger;
use crate::peers::{LinkStore, PeerState, PeerTable, SnapshotStore};

/// One peer as seen through a [`NodeView`]: the last-known coordinate
/// state of the link plus its per-peer health metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct PeerView<Id> {
    /// The peer's identifier.
    pub id: Id,
    /// The peer's coordinate when it was last observed (first-hand or via
    /// gossip).
    pub coordinate: Coordinate,
    /// The peer's Vivaldi error estimate when it was last observed.
    pub error_estimate: f64,
    /// The most recent filtered latency estimate for the link (ms); `None`
    /// for peers known only through gossip or whose filter has not released
    /// an estimate yet.
    pub filtered_rtt_ms: Option<f64>,
    /// Number of raw first-hand observations of this link.
    pub observations: u64,
    /// Consecutive unanswered probes of this peer (zero when the last probe
    /// was answered).
    pub loss_streak: u32,
}

/// A read-only snapshot of one node's externally observable state, returned
/// by [`StableNode::view`].
///
/// This is the node's single introspection surface: the simulator's metrics
/// collection, the coordinate query index (`nc-query`) and the deployment
/// daemon's stats lines all extract through it, so they cannot drift apart.
/// All contained state is cloned at capture time — a view stays valid (and
/// unchanged) while the node keeps digesting observations.
///
/// Peers in [`neighbors`](NodeView::neighbors) appear in discovery order
/// (the order of [`membership`](NodeView::membership)), so two nodes with
/// identical histories produce byte-identical views.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeView<Id> {
    /// The system-level coordinate `c_s` (moves with every observation).
    pub system: Coordinate,
    /// The application-level coordinate `c_a` (moves only on significant
    /// change).
    pub application: Coordinate,
    /// The node's Vivaldi error estimate `w_i` (lower is better).
    pub error_estimate: f64,
    /// The node's confidence `1 − w_i` (the quantity of Figure 6).
    pub confidence: f64,
    /// Number of raw observations fed to this node.
    pub observations: u64,
    /// Number of application-level updates published by the heuristic.
    pub application_updates: u64,
    /// Total system-level coordinate movement so far (ms).
    pub system_displacement_ms: f64,
    /// Total application-level coordinate movement so far (ms).
    pub application_displacement_ms: f64,
    /// Known peers in discovery order: the round-robin probe schedule.
    pub membership: Vec<Id>,
    /// Identifier and last filtered RTT of the (approximately) nearest
    /// neighbour, learned passively from the observation stream.
    pub nearest_neighbor: Option<(Id, f64)>,
    /// Every peer with coordinate information, in discovery order, with
    /// filtered link RTTs and per-peer metrics.
    pub neighbors: Vec<PeerView<Id>>,
}

/// Error restoring a [`StableNode`] from a [`NodeSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum RestoreError {
    /// The supplied configuration is one [`NodeConfig::validate`] refuses.
    Config(NodeConfigError),
    /// The snapshot's coordinate space does not match the configuration.
    Dimensions {
        /// Dimensionality the configuration expects.
        expected: usize,
        /// Dimensionality found in the snapshot.
        found: usize,
    },
    /// The snapshot's heuristic state belongs to a different heuristic
    /// family than the configuration builds.
    Heuristic(HeuristicStateMismatch),
    /// A link's filter state belongs to a different filter family than the
    /// configuration builds.
    Filter(StateMismatch),
    /// The snapshot breaks a rule of [`NodeSnapshot::validate`], one that
    /// holds whatever the configuration.
    Snapshot(SnapshotError),
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::Dimensions { expected, found } => write!(
                f,
                "snapshot coordinate space has {found} dimensions, configuration expects {expected}"
            ),
            RestoreError::Config(e) => write!(f, "{e}"),
            RestoreError::Heuristic(e) => write!(f, "{e}"),
            RestoreError::Filter(e) => write!(f, "{e}"),
            RestoreError::Snapshot(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RestoreError {}

/// The paper's coordinate stack for one host, exposed as a sans-I/O engine.
///
/// `Id` identifies remote peers (an address, an index into a membership list,
/// a node name in a simulator — anything hashable).
///
/// The engine performs no I/O and reads no clocks. A driver (simulator, UDP
/// daemon, trace replayer) runs the protocol loop:
///
/// 1. [`next_probe`](StableNode::next_probe) — the engine schedules the next
///    peer to measure, round-robin over everything it has learned about.
/// 2. The driver delivers the [`ProbeRequest`] to the peer, whose engine
///    answers it with [`respond_into`](StableNode::respond_into).
/// 3. The driver measures the round trip, stamps it into the
///    [`ProbeResponse`], and feeds it to
///    [`handle_response_into`](StableNode::handle_response_into), which
///    reports the typed [`Event`]s describing what the stack did with the
///    observation.
/// 4. Rarely, the events include [`Event::ApplicationUpdated`] — the one
///    event the embedding application must react to.
///
/// [`snapshot`](StableNode::snapshot) and [`restore`](StableNode::restore)
/// capture and revive the complete runtime state, so a node can be
/// persisted, migrated between processes, and resume the exact same
/// trajectory. See the [crate-level documentation](crate) for a runnable
/// example of the full loop.
///
/// # Memory
///
/// State is kept in three places with three growth laws. The *peer table*
/// has one entry per id the node has heard of, through its own probes, a
/// seed list or gossip: the id and two 4-byte handles, 16 bytes with a
/// `usize` id, held once — the table's entries in discovery order *are* the
/// probe rotation — plus a 4-byte index slot. The *snapshot store* has one
/// record per id the node holds a coordinate for — the peer's last-known
/// coordinate, packed at the width of the configured space, its height and
/// its error estimate (`8·(dims + 2)` bytes, what gossip payloads are built
/// from) — written by the first gossip or reply that names the peer and
/// refreshed in place by every later reply. The *link store* has one record
/// per peer the node has actually measured, created when the first reply
/// from that peer is digested: the link's filter state at the width of the
/// configured filter family — 48 bytes for the paper's moving-percentile
/// window of four raw observations, 24 for a raw filter — with the family's
/// parameters held once per node, not per link. An eviction gives both
/// records back. A coordinate system earns its keep against a delay-matrix
/// service by a node's state growing with the neighbours it measures rather
/// than with the mesh; gossip makes the table grow with the mesh, so an
/// entry holds handles, and only the key-less index is kept at a power of
/// two above the population. Entries and records sit in pages that grow by
/// what is used: pages of 64, of which only the last grows, so the table and
/// each store hold at most one page they do not use. Where a record sits in
/// a store is never observable: [`view`](StableNode::view) and
/// [`snapshot`](StableNode::snapshot) report links in table order.
pub struct StableNode<Id: Eq + Hash + Clone> {
    config: NodeConfig,
    vivaldi: VivaldiState,
    application: ApplicationCoordinate,
    /// One entry per id this node has heard of, holding the handles of its
    /// snapshot and link records; the table's first entries, in discovery
    /// order, are the round-robin probe schedule.
    peers: PeerTable<Id>,
    /// Last-known coordinate and error estimate of every peer the node
    /// holds one for, packed at the width of the configured space.
    snapshots: SnapshotStore,
    /// First-hand state of the links this node has measured. The split
    /// keeps a node's memory proportional to the neighbours it *measures*:
    /// the table grows with everything gossip mentions, the windows do not.
    links: LinkStore,
    nearest_neighbor: Option<(Id, f64)>,
    observations: u64,
    /// This node's own identity, when declared. Keeps the node from
    /// scheduling probes of itself when peers gossip its address around.
    identity: Option<Id>,
    probe_cursor: usize,
    gossip_cursor: usize,
    /// Pending probes, sequence counter, loss streaks and the eviction rule:
    /// everything this node feeds back into a probe schedule.
    ledger: ProbeLedger<Id>,
    /// MAD-based outlier gate over observation residuals, built when the
    /// configuration enables it. The gate's window is runtime state that is
    /// deliberately *not* snapshotted: a restored node re-warms the gate
    /// (accepting everything for `min_samples` observations), which is the
    /// safe direction — its coordinate may have drifted while it was down,
    /// so the old residual distribution no longer applies.
    gate: Option<OutlierGate>,
}

impl<Id: Eq + Hash + Clone + std::fmt::Debug> std::fmt::Debug for StableNode<Id> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StableNode")
            .field("system_coordinate", self.vivaldi.coordinate())
            .field("application_coordinate", self.application.coordinate())
            .field("error_estimate", &self.vivaldi.error_estimate())
            .field(
                "neighbors",
                &self
                    .peers
                    .iter()
                    .filter(|(_, peer)| peer.snapshot.is_some())
                    .count(),
            )
            .field("observations", &self.observations)
            .finish()
    }
}

impl<Id: Eq + Hash + Clone> StableNode<Id> {
    /// Creates a node with the given configuration. The node starts at the
    /// origin with no confidence, exactly like a freshly booted Vivaldi
    /// participant.
    ///
    /// # Panics
    ///
    /// Panics with [`NodeConfig::validate`]'s message when it refuses
    /// `config`. [`StableNode::restore`] returns that error instead.
    pub fn new(config: NodeConfig) -> Self {
        if let Err(error) = config.validate() {
            panic!("invalid node config: {error}");
        }
        let links = LinkStore::new(&config.filter, config.warmup_samples);
        let gate = config.outlier_gate.clone().map(OutlierGate::new);
        let vivaldi = VivaldiState::new(config.vivaldi.clone());
        let application =
            ApplicationCoordinate::new(vivaldi.coordinate().clone(), config.heuristic.build());
        StableNode {
            ledger: ProbeLedger::new(config.max_consecutive_losses),
            snapshots: SnapshotStore::new(config.vivaldi.dimensions()),
            config,
            vivaldi,
            application,
            peers: PeerTable::new(),
            links,
            nearest_neighbor: None,
            observations: 0,
            identity: None,
            probe_cursor: 0,
            gossip_cursor: 0,
            gate,
        }
    }

    /// The node's configuration.
    pub fn config(&self) -> &NodeConfig {
        &self.config
    }

    /// The system-level coordinate `c_s` (moves with every observation).
    pub fn system_coordinate(&self) -> &Coordinate {
        self.vivaldi.coordinate()
    }

    /// The application-level coordinate `c_a` (moves only on significant
    /// change).
    pub fn application_coordinate(&self) -> &Coordinate {
        self.application.coordinate()
    }

    /// The node's Vivaldi error estimate `w_i` (lower is better).
    pub fn error_estimate(&self) -> f64 {
        self.vivaldi.error_estimate()
    }

    /// Predicted round-trip latency from this node to a remote coordinate,
    /// using the system-level coordinate.
    pub fn estimate_rtt_ms(&self, remote: &Coordinate) -> f64 {
        self.vivaldi.estimated_rtt_ms(remote)
    }

    /// Captures the node's complete externally observable state as one
    /// read-only [`NodeView`]: coordinates, error and confidence, lifetime
    /// counters, the membership schedule and the neighbour table with
    /// filtered link RTTs.
    ///
    /// Clones everything it reports, so it belongs on cold paths (metrics
    /// collection, stats lines, feeding a query index) — the per-response
    /// hot path never calls it.
    pub fn view(&self) -> NodeView<Id> {
        let neighbors = self
            .peers
            .rotation()
            .filter_map(|(id, peer)| {
                let (coordinate, error_estimate) = self.snapshots.get(peer.snapshot?);
                Some(PeerView {
                    id: id.clone(),
                    coordinate,
                    error_estimate,
                    filtered_rtt_ms: peer.link.and_then(|link| self.links.estimate(link)),
                    observations: self.observations_of(peer),
                    loss_streak: self.ledger.loss_streak(id),
                })
            })
            .collect();
        NodeView {
            system: self.vivaldi.coordinate().clone(),
            application: self.application.coordinate().clone(),
            error_estimate: self.vivaldi.error_estimate(),
            confidence: self.vivaldi.confidence(),
            observations: self.observations,
            application_updates: self.application.update_count(),
            system_displacement_ms: self.vivaldi.total_displacement_ms(),
            application_displacement_ms: self.application.total_displacement_ms(),
            membership: self.peers.rotation().map(|(id, _)| id.clone()).collect(),
            nearest_neighbor: self.nearest_neighbor.clone(),
            neighbors,
        }
    }

    /// Declares this node's own identity so gossip of its own address
    /// (learned indirectly through peers) never enters the probe schedule,
    /// and so outgoing probes carry a `source` that responders can exclude
    /// from their gossip payloads. Any self-entries learned before the
    /// identity was known are dropped.
    pub fn set_identity(&mut self, id: Id) {
        // Purging the self-entry is exactly an eviction of that peer.
        self.ledger.forget(&id);
        self.evict(&id);
        self.identity = Some(id);
    }

    /// Raw first-hand observations of the peer's link; `0` for a peer
    /// known only through gossip.
    fn observations_of(&self, peer: &PeerState) -> u64 {
        peer.link
            .map_or(0, |link| self.links.observations_seen(link))
    }

    /// Re-derives the nearest neighbour from the full table (minimum
    /// filtered RTT over every observed link).
    ///
    /// The scan walks the *table*, not the link store, although only the
    /// store's records carry an RTT: `min_by` keeps the first of several
    /// equal minima, so the order of this walk decides ties, and with them
    /// `NodeView`/`NodeSnapshot.nearest_neighbor` and the RELATIVE
    /// heuristic's context. Table order is the rotation, then the links
    /// outside it — a function of the sequence of ids inserted and removed,
    /// never of where the store put a record, which changes with slot
    /// reuse — so the earliest-discovered of equal links wins.
    fn recompute_nearest_neighbor(&mut self) {
        self.nearest_neighbor = self
            .peers
            .iter()
            .filter_map(|(nid, peer)| {
                let rtt = self.links.estimate(peer.link?)?;
                Some((nid.clone(), rtt))
            })
            .min_by(|a, b| a.1.total_cmp(&b.1));
    }

    // -----------------------------------------------------------------
    // Sans-I/O engine: scheduling, wire messages, events
    // -----------------------------------------------------------------

    /// Adds a peer to the probe schedule without any coordinate information
    /// (bootstrap membership, e.g. from a membership file). Returns `true`
    /// when the peer was not known before.
    pub fn seed_neighbor(&mut self, id: Id) -> bool {
        self.register_member(&id)
    }

    /// Schedules the next probe: round-robin over every known peer.
    /// `now_ms` is the driver's clock reading, echoed through the exchange
    /// so the driver can time it (the engine itself never reads a clock).
    ///
    /// Returns `None` while the node knows no peers (seed some with
    /// [`seed_neighbor`](StableNode::seed_neighbor) or feed it gossip).
    pub fn next_probe(&mut self, now_ms: u64) -> Option<ProbeRequest<Id>> {
        if self.peers.rotation_len() == 0 {
            return None;
        }
        // The cursor is an in-range index into the schedule, not a
        // free-running counter: an eviction shifts it back in step (see
        // `evict`), so membership churn mid-cycle neither skips nor repeats
        // the surviving peers.
        if self.probe_cursor >= self.peers.rotation_len() {
            self.probe_cursor = 0;
        }
        let target = self.peers.at(self.probe_cursor).0.clone();
        self.probe_cursor += 1;
        Some(self.probe_request_for(target, now_ms))
    }

    /// Builds a probe of a specific peer, registering it in the probe
    /// schedule if it is new. Drivers that control their own schedule (the
    /// simulator, trace replay) use this instead of
    /// [`next_probe`](StableNode::next_probe).
    ///
    /// A probe of the node's own identity is numbered, so sequence numbers
    /// stay monotonic, but not entered in the [`ledger`](StableNode::ledger):
    /// no reply can settle it, so it can be neither lost nor counted toward
    /// a streak, and it never evicts the node.
    pub fn probe_request_for(&mut self, target: Id, now_ms: u64) -> ProbeRequest<Id> {
        let seq = if self.identity.as_ref() == Some(&target) {
            self.ledger.skip()
        } else {
            self.register_member(&target);
            self.ledger.issue(target.clone(), now_ms)
        };
        let request = ProbeRequest::new(target, seq, now_ms);
        match &self.identity {
            Some(me) => request.from_source(me.clone()),
            None => request,
        }
    }

    /// The node's [`ProbeLedger`]: its pending probes, oldest first, and
    /// per-peer loss streaks. The driver is responsible for expiring pending
    /// entries, through [`expire_pending_into`](StableNode::expire_pending_into)
    /// — the UDP runtime on every tick of its timer wheel, the simulator at
    /// every probe tick of the node. A driver that must predict this node's
    /// scheduling decisions without running it keeps a ledger of its own and
    /// compares the two.
    pub fn ledger(&self) -> &ProbeLedger<Id> {
        &self.ledger
    }

    /// Declares lost every pending probe sent at or before
    /// `now_ms - timeout_ms`, oldest first: its reply never arrived within
    /// the driver's timeout. Each entry is released and [`Event::ProbeLost`]
    /// appended to `events`; the round-robin schedule is unaffected, so the
    /// next [`next_probe`](StableNode::next_probe) simply moves on — a lost
    /// probe never stalls the engine.
    ///
    /// When [`NodeConfig::max_consecutive_losses`] is configured and the
    /// target's streak reaches it, the peer is evicted from the neighbour
    /// table and the probe schedule and [`Event::NeighborEvicted`] follows.
    ///
    /// Appends nothing when no probe is that old (its response already
    /// arrived, or it was already expired) — drivers may call it on every
    /// tick, or fire one timer per probe with `timeout_ms = 0` at the
    /// probe's send time, and let the engine sort it out. `events` is
    /// appended to, never cleared: hot-loop drivers clear and reuse one
    /// buffer across calls, so the common no-probe-due case does not touch
    /// the heap.
    pub fn expire_pending_into(
        &mut self,
        now_ms: u64,
        timeout_ms: u64,
        events: &mut Vec<Event<Id>>,
    ) {
        while let Some((lost, evicted)) = self.ledger.expire(now_ms, timeout_ms) {
            events.push(Event::ProbeLost {
                id: lost.target.clone(),
                seq: lost.seq,
            });
            if evicted {
                // The ledger forgot the peer; drop it from every other table.
                self.evict(&lost.target);
                events.push(Event::NeighborEvicted { id: lost.target });
            }
        }
    }

    /// Removes a peer the ledger has forgotten from every other table:
    /// the peer table (and with it the rotation) and the two stores.
    fn evict(&mut self, id: &Id) {
        if let Some((position, peer)) = self.peers.remove(id) {
            if let Some(handle) = peer.snapshot {
                self.snapshots.release(handle);
            }
            if let Some(handle) = peer.link {
                self.links.release(handle);
            }
            // Keep the round-robin cursor pointing at the same *next* peer:
            // removing an entry the cursor has already passed would
            // otherwise make the rotation skip the peer now occupying the
            // vacated slot. (The cursor never points past the rotation, so
            // an entry outside it is never behind the cursor.)
            if position < self.probe_cursor {
                self.probe_cursor -= 1;
            }
        }
        if self
            .nearest_neighbor
            .as_ref()
            .is_some_and(|(nearest, _)| nearest == id)
        {
            self.recompute_nearest_neighbor();
        }
    }

    /// Answers a probe addressed to this node: echoes the request's
    /// correlation fields and attaches the node's current system-level
    /// coordinate, its error estimate and one gossiped peer (round-robin
    /// over the membership, as in the paper's deployment protocol).
    ///
    /// Every field of `response` is overwritten, the gossip payload cleared
    /// and refilled, so a driver keeps one response per slot — first built
    /// with [`ProbeResponse::new`] — and reuses it across exchanges: the
    /// steady-state respond path performs no heap allocation. The answer
    /// carries `rtt_ms = 0.0`; the *prober's* transport stamps the measured
    /// round trip in before handing the response to
    /// [`handle_response_into`](StableNode::handle_response_into).
    pub fn respond_into(&mut self, request: &ProbeRequest<Id>, response: &mut ProbeResponse<Id>) {
        // A probe that names its sender teaches the responder a live peer —
        // the paper's deployments bootstrap membership exactly this way.
        if let Some(source) = &request.source {
            self.register_member(source);
        }
        response.responder = request.target.clone();
        response.seq = request.seq;
        response.sent_at_ms = request.sent_at_ms;
        response.coordinate = self.vivaldi.coordinate().clone();
        response.error_estimate = self.vivaldi.error_estimate();
        response.gossip.clear();
        response.rtt_ms = 0.0;
        let len = self.peers.rotation_len();
        for _ in 0..len {
            let idx = self.gossip_cursor % len;
            self.gossip_cursor = self.gossip_cursor.wrapping_add(1);
            let (candidate, peer) = self.peers.at(idx);
            // Never gossip the prober's own address back to it.
            if request.source.as_ref() == Some(candidate) {
                continue;
            }
            if let Some(handle) = peer.snapshot {
                let (coordinate, error_estimate) = self.snapshots.get(handle);
                response.gossip.push(GossipEntry {
                    id: candidate.clone(),
                    coordinate,
                    error_estimate,
                });
                break;
            }
        }
    }

    /// Digests one probe response: registers the responder and any gossiped
    /// peers, runs the observation through the filter → outlier gate (when
    /// configured) → Vivaldi → application-update pipeline, and appends the
    /// typed events describing
    /// what happened to `events`. The response's `rtt_ms` must already carry
    /// the driver-measured round trip. `events` is appended to, never
    /// cleared: hot-loop drivers clear and reuse one buffer across calls, so
    /// the steady-state observation path performs no heap allocation.
    ///
    /// A response claiming to come from this node itself (its declared
    /// identity) is dropped without effect — a node must never become its
    /// own neighbour, however a misrouted or hostile message is addressed.
    /// Gossip entries whose coordinates live in a different-dimensional
    /// space are skipped rather than stored (they could not be compared
    /// against, or gossiped onward, without corrupting peers).
    pub fn handle_response_into(
        &mut self,
        response: &ProbeResponse<Id>,
        events: &mut Vec<Event<Id>>,
    ) {
        if self.identity.as_ref() == Some(&response.responder) {
            return;
        }
        // The reply settles the matching outstanding probe, which proves the
        // peer alive and clears its loss streak. A reply that matches *no*
        // outstanding probe — one that arrives after its probe already timed
        // out, a duplicated datagram, or an unsolicited/spoofed response —
        // must not be digested: its observation was either already accounted
        // as a loss or never requested, its RTT stamp is stale, and applying
        // it would double-count the exchange and wrongly clear the loss
        // streak. Such replies are reported as [`Event::ResponseIgnored`] and
        // dropped whole (gossip included: an uncorrelated sender is not a
        // trusted membership source).
        if !self.ledger.settle(&response.responder, response.seq) {
            events.push(Event::ResponseIgnored {
                id: response.responder.clone(),
                seq: response.seq,
            });
            return;
        }
        // One probe of the peer table does everything the responder's entry
        // is needed for: it registers the responder (the self-response case
        // returned above) and feeds the link's filter.
        let (peer, discovered) = self.peers.member(&response.responder);
        // A coordinate from a different-dimensional space is discarded
        // before it touches any state: stored, it would panic every later
        // distance computation against it.
        let filtered = if response.coordinate.dimensions() == self.config.vivaldi.dimensions() {
            self.observations += 1;
            Self::observe_link(&mut self.snapshots, &mut self.links, peer, response)
        } else {
            None
        };
        let id = &response.responder;
        if discovered {
            events.push(Event::NeighborDiscovered { id: id.clone() });
        }
        let Some(filtered_rtt_ms) = filtered else {
            // The filter withheld its estimate (warm-up, threshold cut) or
            // the coordinate was discarded: nothing reached the update
            // path, so nothing is gated. The gossip is kept — dropping it
            // on every warm-up sample would stall discovery before the
            // gate has anything to judge.
            self.ingest_gossip(response, events);
            events.push(Event::ObservationFiltered {
                id: id.clone(),
                raw_rtt_ms: response.rtt_ms,
            });
            return;
        };
        let mut remote_error = response.error_estimate;
        if let Some(gate) = &mut self.gate {
            // The gate's plausibility check: the filtered RTT against the
            // distance this node's *pre-update* coordinate predicts to the
            // peer's claimed one, as the relative-error metric is measured.
            let residual_ms =
                filtered_rtt_ms - self.vivaldi.coordinate().distance(&response.coordinate);
            if !gate.admits(residual_ms) {
                // The link was measured whatever the gate thinks of the
                // claimed coordinate, so it competes for nearest neighbour.
                // The rest of the reply is dropped whole, like an
                // uncorrelated one: its gossip is a Byzantine peer's choice
                // of membership poison and must not outlive its observation.
                self.track_nearest_neighbor(id, filtered_rtt_ms);
                events.push(Event::ObservationRejected {
                    id: id.clone(),
                    filtered_rtt_ms,
                });
                return;
            }
            gate.record(residual_ms);
            // A liar advertising near-zero error would take close to the
            // maximum sample weight w_s = e_i / (e_i + e_j); flooring the
            // claimed confidence bounds how hard any single peer can pull.
            remote_error = remote_error.max(gate.config().min_remote_error);
        }
        self.ingest_gossip(response, events);
        self.track_nearest_neighbor(id, filtered_rtt_ms);
        self.vivaldi_stage(response, remote_error, filtered_rtt_ms, events);
    }

    /// Registers the peers a response gossips along: new ones enter the
    /// probe rotation (with an [`Event::NeighborDiscovered`] each) and seed
    /// the neighbour table, but gossip never overwrites first-hand state.
    fn ingest_gossip(&mut self, response: &ProbeResponse<Id>, events: &mut Vec<Event<Id>>) {
        let dimensions = self.config.vivaldi.dimensions();
        for entry in &response.gossip {
            // Our own address coming back around through gossip is not a
            // neighbour, and a coordinate from a different-dimensional
            // deployment is not usable information.
            if self.identity.as_ref() == Some(&entry.id)
                || entry.coordinate.dimensions() != dimensions
            {
                continue;
            }
            let (peer, new) = self.peers.member(&entry.id);
            if new {
                events.push(Event::NeighborDiscovered {
                    id: entry.id.clone(),
                });
            }
            // Gossip seeds the neighbour table so the peer can itself be
            // gossiped onward, but never overwrites first-hand state.
            if peer.snapshot.is_none() {
                peer.snapshot = Some(
                    self.snapshots
                        .insert(&entry.coordinate, entry.error_estimate),
                );
            }
        }
    }

    // -----------------------------------------------------------------
    // Snapshot / restore
    // -----------------------------------------------------------------

    /// Captures the node's complete runtime state: Vivaldi state, per-link
    /// filter states, the application-level coordinate manager, the
    /// neighbour table and the probe-scheduling cursors. The configuration
    /// is *not* embedded — supply it again to
    /// [`restore`](StableNode::restore).
    ///
    /// Links and loss streaks are listed in table order: the rotation, then
    /// the links a restored snapshot held outside its membership, so that
    /// a restored node's snapshot restores to the same node.
    pub fn snapshot(&self) -> NodeSnapshot<Id> {
        let links = self
            .peers
            .iter()
            .filter_map(|(id, peer)| {
                let (coordinate, error_estimate) = self.snapshots.get(peer.snapshot?);
                Some(LinkSnapshot {
                    id: id.clone(),
                    filter: peer.link.map(|link| self.links.export_state(link)),
                    coordinate,
                    error_estimate,
                })
            })
            .collect();
        NodeSnapshot {
            vivaldi: self.vivaldi.export_state(),
            application: self.application.export_state(),
            links,
            nearest_neighbor: self.nearest_neighbor.clone(),
            observations: self.observations,
            identity: self.identity.clone(),
            membership: self.peers.rotation().map(|(id, _)| id.clone()).collect(),
            probe_cursor: self.probe_cursor,
            probe_seq: self.ledger.next_seq(),
            gossip_cursor: self.gossip_cursor,
            pending: self.ledger.pending().to_vec(),
            // Streaks in table order so identical nodes serialize
            // identically (the ledger's table is an unordered map).
            loss_streaks: self
                .ledger
                .loss_streaks_of(self.peers.iter().map(|(id, _)| id)),
        }
    }

    /// Rebuilds a node from a snapshot and its (externally supplied)
    /// configuration. The restored node continues the exact trajectory of
    /// the snapshotted one: identical coordinates, filter windows,
    /// heuristic windows and probe schedule.
    ///
    /// # Errors
    ///
    /// [`RestoreError::Config`] or [`RestoreError::Snapshot`] when
    /// [`NodeConfig::validate`] or [`NodeSnapshot::validate`] refuses its
    /// input; [`RestoreError::Dimensions`] when a snapshot coordinate has
    /// another dimensionality than the configuration; and
    /// [`RestoreError::Heuristic`] or [`RestoreError::Filter`] when the
    /// configuration builds another heuristic or filter family than the
    /// snapshot's states belong to. (A snapshot read from bytes had its
    /// frame, version and `validate` checked when it was decoded.)
    pub fn restore(config: NodeConfig, snapshot: &NodeSnapshot<Id>) -> Result<Self, RestoreError> {
        config.validate().map_err(RestoreError::Config)?;
        snapshot.validate().map_err(RestoreError::Snapshot)?;
        let expected = config.vivaldi.dimensions();
        // Every coordinate in the snapshot must live in the configured
        // space: the Vivaldi coordinate, the published application
        // coordinate, every link's last-seen coordinate, and the heuristic's
        // windowed coordinates. A single mismatched one would restore fine
        // and then panic the first time a distance against it is computed.
        let snapshot_coordinates = std::iter::once(&snapshot.vivaldi.coordinate)
            .chain(std::iter::once(&snapshot.application.coordinate))
            .chain(snapshot.links.iter().map(|link| &link.coordinate))
            .chain(heuristic_state_coordinates(&snapshot.application.heuristic));
        for coordinate in snapshot_coordinates {
            let found = coordinate.dimensions();
            if expected != found {
                return Err(RestoreError::Dimensions { expected, found });
            }
        }
        let mut node = Self::new(config);
        // Runtime state comes from the snapshot, tuning constants from the
        // supplied configuration, which the fresh node was built with.
        node.vivaldi.import_state(&snapshot.vivaldi);
        let mut application = snapshot.application.clone();
        if matches!(node.application.heuristic(), Heuristic::FollowSystem) {
            // Without a heuristic the published coordinate is the system
            // one. Snapshots written before `FollowSystem` published through
            // the manager hold the origin there instead.
            application.coordinate = node.vivaldi.coordinate().clone();
        }
        node.application
            .import_state(&application)
            .map_err(RestoreError::Heuristic)?;
        // The membership is the rotation, in its order; a link it does not
        // name gets an entry after it, which keeps the id out of the
        // rotation, because an id is discovered exactly when the table has
        // no entry for it.
        for id in &snapshot.membership {
            node.peers.member(id);
        }
        for link in &snapshot.links {
            let peer = node.peers.outside_rotation(&link.id);
            if let Some(filter_state) = &link.filter {
                // A snapshot off the wire may name a link twice; the later
                // entry wins, in the slot the earlier one took (in both
                // stores).
                node.links
                    .import(&mut peer.link, filter_state)
                    .map_err(RestoreError::Filter)?;
            }
            node.snapshots
                .put(&mut peer.snapshot, &link.coordinate, link.error_estimate);
        }
        node.nearest_neighbor = snapshot.nearest_neighbor.clone();
        node.observations = snapshot.observations;
        node.identity = snapshot.identity.clone();
        // `validate` holds the cursor at most at the end of the rotation,
        // where the last peer's probe leaves it: a peer learned next is
        // probed next, as by the snapshotted node.
        node.probe_cursor = snapshot.probe_cursor;
        node.gossip_cursor = snapshot.gossip_cursor;
        node.ledger = ProbeLedger::import(node.config.max_consecutive_losses, snapshot);
        Ok(node)
    }

    // -----------------------------------------------------------------
    // Observation pipeline (engine-internal)
    // -----------------------------------------------------------------

    /// First half of the observation pipeline, on the responder's table
    /// entry: feeds the link's latency filter — creating its record in the
    /// store on the first reply — and refreshes the neighbour snapshot.
    /// Returns the filtered RTT when the filter released an estimate and the
    /// link is past its warm-up. The caller has already ruled out
    /// self-observations and dimension mismatches.
    fn observe_link(
        snapshots: &mut SnapshotStore,
        links: &mut LinkStore,
        peer: &mut PeerState,
        response: &ProbeResponse<Id>,
    ) -> Option<f64> {
        let handle = *peer.link.get_or_insert_with(|| links.insert());
        // Track the neighbour snapshot regardless of whether the filter lets
        // the sample through: the coordinate and error estimate are still
        // fresh information.
        snapshots.put(
            &mut peer.snapshot,
            &response.coordinate,
            response.error_estimate,
        );
        links.observe(handle, response.rtt_ms)
    }

    /// Maintains the approximate nearest neighbour (used by RELATIVE) after
    /// link `id` released the estimate `filtered_rtt`.
    fn track_nearest_neighbor(&mut self, id: &Id, filtered_rtt: f64) {
        match &self.nearest_neighbor {
            None => self.nearest_neighbor = Some((id.clone(), filtered_rtt)),
            Some((current_id, current_rtt)) => {
                if filtered_rtt < *current_rtt {
                    self.nearest_neighbor = Some((id.clone(), filtered_rtt));
                } else if current_id == id {
                    // The incumbent's filtered RTT rose: it may no longer be
                    // the nearest, so re-evaluate against the whole table
                    // (the link's filter already holds the new sample).
                    self.recompute_nearest_neighbor();
                }
            }
        }
    }

    /// Last stage of the observation pipeline: the Vivaldi spring update and
    /// the application-level heuristic, fed a filtered RTT that cleared the
    /// filter and the gate. Reports [`Event::ObservationRejected`] when
    /// Vivaldi refuses the RTT, [`Event::SystemMoved`] otherwise, followed
    /// by [`Event::ApplicationUpdated`] when the heuristic publishes.
    fn vivaldi_stage(
        &mut self,
        response: &ProbeResponse<Id>,
        remote_error_estimate: f64,
        filtered_rtt_ms: f64,
        events: &mut Vec<Event<Id>>,
    ) {
        let id = &response.responder;
        // Application-level accuracy is measured against the observation
        // *before* any update, like the system-level error.
        let application_relative_error = nc_vivaldi::relative_error(
            self.application.coordinate().distance(&response.coordinate),
            filtered_rtt_ms,
        );
        let observation = RemoteObservation::new(
            response.coordinate.clone(),
            remote_error_estimate,
            filtered_rtt_ms,
        );
        let outcome = self.vivaldi.observe(&observation);
        if outcome.rejected {
            events.push(Event::ObservationRejected {
                id: id.clone(),
                filtered_rtt_ms,
            });
            return;
        }
        events.push(Event::SystemMoved {
            id: id.clone(),
            filtered_rtt_ms,
            displacement_ms: outcome.displacement_ms,
            relative_error: outcome.relative_error,
            application_relative_error,
        });
        // Only RELATIVE reads the context; everyone else is spared the
        // lookup into the (cold) peer table and the coordinate clone.
        let ctx = if matches!(self.application.heuristic(), Heuristic::Relative(_)) {
            UpdateContext {
                nearest_neighbor: self
                    .nearest_neighbor
                    .as_ref()
                    .and_then(|(nid, _)| self.peers.get(nid))
                    .and_then(|peer| peer.snapshot)
                    .map(|handle| self.snapshots.get(handle).0),
            }
        } else {
            UpdateContext::default()
        };
        if let Some(update) = self.application.on_system_update(
            self.vivaldi.coordinate(),
            outcome.displacement_ms,
            &ctx,
        ) {
            events.push(Event::ApplicationUpdated { update });
        }
    }

    /// Registers a peer in the probe schedule; returns `true` when new.
    /// The node's own identity is never registered — a node must not probe
    /// itself, however its address comes back around through gossip.
    fn register_member(&mut self, id: &Id) -> bool {
        if self.identity.as_ref() == Some(id) {
            return false;
        }
        self.peers.member(id).1
    }
}

/// Every coordinate embedded in a heuristic's exported runtime state (the
/// windowed heuristics carry whole windows of system coordinates).
fn heuristic_state_coordinates(
    state: &nc_change::HeuristicState,
) -> Box<dyn Iterator<Item = &Coordinate> + '_> {
    use nc_change::HeuristicState;
    match state {
        HeuristicState::Stateless => Box::new(std::iter::empty()),
        HeuristicState::System { previous_system } => Box::new(previous_system.iter()),
        HeuristicState::Windowed(detector) => {
            Box::new(detector.start.iter().chain(detector.current.iter()))
        }
        HeuristicState::Centroid { window } => Box::new(window.iter()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peers::Handle;
    use crate::{FilterConfig, HeuristicConfig};
    use nc_filters::FilterState;
    use nc_proto::BinaryMessage;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    type Node = StableNode<u32>;

    fn converge_pair(config: NodeConfig, rtt: f64, rounds: usize) -> (Node, Node) {
        let mut a = Node::new(config.clone());
        let mut b = Node::new(config);
        for round in 0..rounds {
            exchange(&mut a, &mut b, 1, rtt, round as u64);
            exchange(&mut b, &mut a, 0, rtt, round as u64);
        }
        (a, b)
    }

    /// Feeds one synthetic observation of peer `id` through the wire API: a
    /// real probe is issued (so correlation is satisfied), a response
    /// carrying `coordinate`/`error` is built as the peer would, the
    /// driver-measured `rtt_ms` is stamped in and the events returned.
    fn feed(
        node: &mut Node,
        id: u32,
        coordinate: Coordinate,
        error: f64,
        rtt_ms: f64,
    ) -> Vec<Event<u32>> {
        let request = node.probe_request_for(id, 0);
        let mut response = ProbeResponse::new(id, &request, coordinate, error);
        response.rtt_ms = rtt_ms;
        digest(node, &response)
    }

    /// The events [`StableNode::handle_response_into`] reports for
    /// `response`.
    fn digest(node: &mut Node, response: &ProbeResponse<u32>) -> Vec<Event<u32>> {
        let mut events = Vec::new();
        node.handle_response_into(response, &mut events);
        events
    }

    /// `node`'s answer to `request`, filled into a fresh response.
    fn answer(node: &mut Node, request: &ProbeRequest<u32>) -> ProbeResponse<u32> {
        let mut response = ProbeResponse::new(0, request, Coordinate::origin(1), 1.0);
        node.respond_into(request, &mut response);
        response
    }

    /// The events [`StableNode::expire_pending_into`] reports when the
    /// timer of `request` fires: everything sent at or before it is lost.
    /// As in the simulator, the timers fire in send order, so no other
    /// probe that old is still pending.
    fn time_out(node: &mut Node, request: &ProbeRequest<u32>) -> Vec<Event<u32>> {
        assert!(node
            .ledger()
            .pending()
            .iter()
            .all(|probe| probe.seq == request.seq || probe.sent_at_ms > request.sent_at_ms));
        let mut events = Vec::new();
        node.expire_pending_into(request.sent_at_ms, 0, &mut events);
        events
    }

    /// The events [`StableNode::expire_pending_into`] reports.
    fn expire(node: &mut Node, now_ms: u64, timeout_ms: u64) -> Vec<Event<u32>> {
        let mut events = Vec::new();
        node.expire_pending_into(now_ms, timeout_ms, &mut events);
        events
    }

    /// The `SystemMoved` displacement reported by `events`, or `None` when
    /// the observation never reached the update path.
    fn moved_displacement(events: &[Event<u32>]) -> Option<f64> {
        events.iter().find_map(|event| match event {
            Event::SystemMoved {
                displacement_ms, ..
            } => Some(*displacement_ms),
            _ => None,
        })
    }

    /// Runs one full wire exchange: `prober` probes `target` (addressed as
    /// `target_id`), the driver measures `rtt_ms`, and the prober digests
    /// the stamped response.
    fn exchange(
        prober: &mut Node,
        target: &mut Node,
        target_id: u32,
        rtt_ms: f64,
        now_ms: u64,
    ) -> Vec<Event<u32>> {
        let request = prober.probe_request_for(target_id, now_ms);
        let mut response = answer(target, &request);
        response.rtt_ms = rtt_ms;
        digest(prober, &response)
    }

    #[test]
    fn new_node_starts_at_origin() {
        let node = Node::new(NodeConfig::paper_defaults());
        assert_eq!(node.system_coordinate(), &Coordinate::origin(3));
        assert_eq!(node.application_coordinate(), &Coordinate::origin(3));
        let view = node.view();
        assert_eq!(view.observations, 0);
        assert_eq!(view.confidence, 0.0);
        assert!(view.membership.is_empty());
        assert!(view.neighbors.is_empty());
    }

    #[test]
    fn pair_converges_to_link_latency() {
        let (a, b) = converge_pair(NodeConfig::paper_defaults(), 100.0, 400);
        let estimate = a.estimate_rtt_ms(b.system_coordinate());
        assert!((estimate - 100.0).abs() < 15.0, "estimate {estimate}");
    }

    #[test]
    fn pair_converges_through_the_wire_api() {
        let mut a = Node::new(NodeConfig::paper_defaults());
        let mut b = Node::new(NodeConfig::paper_defaults());
        for round in 0..400 {
            exchange(&mut a, &mut b, 1, 100.0, round);
            exchange(&mut b, &mut a, 0, 100.0, round);
        }
        let estimate = a.estimate_rtt_ms(b.system_coordinate());
        assert!((estimate - 100.0).abs() < 15.0, "estimate {estimate}");
    }

    #[test]
    fn outliers_do_not_move_filtered_node_much() {
        // Two stacks fed the same stream with rare enormous outliers: the
        // MP-filtered node accumulates far less displacement than the raw one.
        let mut rng = StdRng::seed_from_u64(42);
        let stream: Vec<f64> = (0..600)
            .map(|_| {
                if rng.gen_bool(0.02) {
                    5_000.0 + rng.gen_range(0.0..20_000.0)
                } else {
                    80.0 + rng.gen_range(-5.0..5.0)
                }
            })
            .collect();

        let run = |config: NodeConfig| -> f64 {
            let mut node = Node::new(config);
            let remote = Coordinate::new(vec![30.0, 40.0, 0.0]).unwrap();
            for &rtt in stream.iter() {
                feed(&mut node, 7, remote.clone(), 0.3, rtt);
            }
            node.view().system_displacement_ms
        };

        let raw = run(NodeConfig::original_vivaldi());
        let filtered = run(NodeConfig::builder()
            .heuristic(HeuristicConfig::FollowSystem)
            .build());
        assert!(
            filtered < raw / 3.0,
            "filtered displacement {filtered:.0} should be well below raw {raw:.0}"
        );
    }

    #[test]
    fn application_updates_are_rarer_than_observations() {
        let mut rng = StdRng::seed_from_u64(7);
        let config = NodeConfig::paper_defaults();
        let mut node = Node::new(config);
        let remote = Coordinate::new(vec![50.0, 10.0, 5.0]).unwrap();
        let mut app_updates = 0;
        for _ in 0..1000 {
            let rtt = 70.0 + rng.gen_range(-8.0..8.0);
            let events = feed(&mut node, 3, remote.clone(), 0.3, rtt);
            app_updates += events
                .iter()
                .filter(|e| matches!(e, Event::ApplicationUpdated { .. }))
                .count();
        }
        assert!(
            app_updates < 100,
            "got {app_updates} application updates for 1000 observations"
        );
        let view = node.view();
        assert!(view.application_displacement_ms <= view.system_displacement_ms);
    }

    #[test]
    fn following_the_system_keeps_app_equal_to_system() {
        let config = NodeConfig::builder()
            .heuristic(HeuristicConfig::FollowSystem)
            .build();
        let mut node = Node::new(config);
        let remote = Coordinate::new(vec![20.0, 0.0, 0.0]).unwrap();
        for _ in 0..50 {
            feed(&mut node, 1, remote.clone(), 0.5, 40.0);
            assert_eq!(node.application_coordinate(), node.system_coordinate());
        }
        let view = node.view();
        assert_eq!(
            view.application_displacement_ms,
            view.system_displacement_ms
        );
    }

    #[test]
    fn warmup_suppresses_first_sample() {
        let config = NodeConfig::builder().warmup_samples(2).build();
        let mut node = Node::new(config);
        let remote = Coordinate::new(vec![10.0, 0.0, 0.0]).unwrap();
        let first = feed(&mut node, 1, remote.clone(), 0.5, 30_000.0);
        assert!(
            first
                .iter()
                .any(|e| matches!(e, Event::ObservationFiltered { id: 1, .. })),
            "the warm-up filter withholds the first sample: {first:?}"
        );
        assert_eq!(node.system_coordinate(), &Coordinate::origin(3));
        let second = feed(&mut node, 1, remote, 0.5, 80.0);
        assert!(
            !second
                .iter()
                .any(|e| matches!(e, Event::ObservationFiltered { .. })),
            "the second sample passes the filter: {second:?}"
        );
    }

    #[test]
    fn neighbors_and_nearest_are_tracked() {
        let mut node = Node::new(NodeConfig::paper_defaults());
        let far = Coordinate::new(vec![100.0, 0.0, 0.0]).unwrap();
        let near = Coordinate::new(vec![5.0, 0.0, 0.0]).unwrap();
        feed(&mut node, 1, far.clone(), 0.5, 150.0);
        feed(&mut node, 2, near, 0.5, 10.0);
        let view = node.view();
        assert_eq!(view.neighbors.len(), 2);
        // Neighbours come back in discovery order with their link state.
        assert_eq!(view.neighbors[0].id, 1);
        assert_eq!(view.neighbors[0].coordinate, far);
        assert_eq!(view.neighbors[0].observations, 1);
        let (nearest, rtt) = view.nearest_neighbor.unwrap();
        assert_eq!(nearest, 2);
        assert!(rtt <= 10.0);
    }

    #[test]
    fn nearest_neighbor_reevaluated_when_incumbent_degrades() {
        // Satellite fix: when the incumbent nearest link's filtered RTT
        // rises above another known neighbour's, the title must be handed
        // over, not kept by the stale incumbent.
        let config = NodeConfig::builder().filter(FilterConfig::Raw).build();
        let mut node = Node::new(config);
        let a = Coordinate::new(vec![5.0, 0.0, 0.0]).unwrap();
        let b = Coordinate::new(vec![12.0, 0.0, 0.0]).unwrap();
        feed(&mut node, 1, a.clone(), 0.5, 10.0);
        feed(&mut node, 2, b, 0.5, 20.0);
        assert_eq!(node.view().nearest_neighbor.unwrap().0, 1);
        // Link 1 degrades well past link 2.
        feed(&mut node, 1, a, 0.5, 50.0);
        let (nearest, rtt) = node.view().nearest_neighbor.unwrap();
        assert_eq!(nearest, 2, "nearest should migrate to the now-closer link");
        assert_eq!(rtt, 20.0);
    }

    #[test]
    fn invalid_observation_changes_nothing() {
        let mut node = Node::new(NodeConfig::paper_defaults());
        let remote = Coordinate::new(vec![10.0, 0.0, 0.0]).unwrap();
        let events = feed(&mut node, 1, remote, 0.5, f64::NAN);
        assert!(
            events
                .iter()
                .any(|e| matches!(e, Event::ObservationFiltered { id: 1, .. })),
            "{events:?}"
        );
        assert_eq!(node.system_coordinate(), &Coordinate::origin(3));
    }

    #[test]
    fn debug_output_mentions_coordinates() {
        let node = Node::new(NodeConfig::paper_defaults());
        let s = format!("{node:?}");
        assert!(s.contains("StableNode"));
        assert!(s.contains("system_coordinate"));
    }

    #[test]
    fn application_error_is_reported() {
        let mut node = Node::new(NodeConfig::paper_defaults());
        let remote = Coordinate::new(vec![25.0, 0.0, 0.0]).unwrap();
        let events = feed(&mut node, 1, remote, 0.5, 50.0);
        let app_err = events
            .iter()
            .find_map(|event| match event {
                Event::SystemMoved {
                    application_relative_error,
                    ..
                } => Some(*application_relative_error),
                _ => None,
            })
            .unwrap();
        // App coordinate is at the origin, remote at 25 ms, observation 50 ms:
        // relative error |25 - 50| / 50 = 0.5.
        assert!((app_err - 0.5).abs() < 1e-9);
    }

    #[test]
    fn next_probe_cycles_round_robin_over_seeded_members() {
        let mut node = Node::new(NodeConfig::paper_defaults());
        assert!(node.next_probe(0).is_none(), "no peers known yet");
        node.seed_neighbor(10);
        node.seed_neighbor(11);
        node.seed_neighbor(12);
        let targets: Vec<u32> = (0..6).map(|t| node.next_probe(t).unwrap().target).collect();
        assert_eq!(targets, vec![10, 11, 12, 10, 11, 12]);
        let seqs: Vec<u64> = (0..3).map(|t| node.next_probe(t).unwrap().seq).collect();
        assert_eq!(
            seqs,
            vec![6, 7, 8],
            "sequence numbers increase monotonically"
        );
    }

    #[test]
    fn handle_response_reports_discovery_filtering_movement_and_updates() {
        let config = NodeConfig::builder().warmup_samples(2).build();
        let mut node = StableNode::<u32>::new(config);
        let remote = Coordinate::new(vec![10.0, 0.0, 0.0]).unwrap();
        let request = node.probe_request_for(1, 0);
        let mut response = ProbeResponse::new(1, &request, remote.clone(), 0.5);
        response.rtt_ms = 80.0;

        // First sample: the warm-up filter withholds it. The responder was
        // registered by `probe_request_for`, so no discovery event.
        let events = digest(&mut node, &response);
        assert_eq!(events.len(), 1);
        assert!(matches!(
            events[0],
            Event::ObservationFiltered { id: 1, raw_rtt_ms } if raw_rtt_ms == 80.0
        ));

        // Second sample (a fresh probe, not a replay of the settled one)
        // passes the filter and moves the coordinate.
        let request = node.probe_request_for(1, 1);
        let mut response = ProbeResponse::new(1, &request, remote, 0.5);
        response.rtt_ms = 80.0;
        let events = digest(&mut node, &response);
        assert!(events.iter().any(|e| matches!(
            e,
            Event::SystemMoved { id: 1, displacement_ms, .. } if *displacement_ms > 0.0
        )));
    }

    #[test]
    fn gossip_discovers_new_neighbors() {
        let mut node = Node::new(NodeConfig::paper_defaults());
        let remote = Coordinate::new(vec![10.0, 0.0, 0.0]).unwrap();
        let request = node.probe_request_for(1, 0);
        let mut response =
            ProbeResponse::new(1, &request, remote.clone(), 0.5).with_gossip(GossipEntry {
                id: 99,
                coordinate: remote,
                error_estimate: 0.8,
            });
        response.rtt_ms = 50.0;
        let events = digest(&mut node, &response);
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::NeighborDiscovered { id: 99 })));
        assert!(node.view().membership.contains(&99));
        // The gossiped peer is now in the probe rotation.
        let targets: Vec<u32> = (0..2).map(|t| node.next_probe(t).unwrap().target).collect();
        assert!(targets.contains(&99));
    }

    #[test]
    fn rejected_observations_are_reported_as_events() {
        let config = NodeConfig::builder().filter(FilterConfig::Raw).build();
        let mut node = StableNode::<u32>::new(config);
        let remote = Coordinate::new(vec![10.0, 0.0, 0.0]).unwrap();
        let request = node.probe_request_for(1, 0);
        let mut response = ProbeResponse::new(1, &request, remote, 0.5);
        // Beyond the Vivaldi plausibility bound but accepted by the raw
        // filter: Vivaldi rejects it.
        response.rtt_ms = 500_000.0;
        let events = digest(&mut node, &response);
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::ObservationRejected { id: 1, .. })));
    }

    #[test]
    fn respond_echoes_correlation_fields_and_gossips() {
        let mut a = Node::new(NodeConfig::paper_defaults());
        let mut b = Node::new(NodeConfig::paper_defaults());
        // Teach b about peer 7 so it has something to gossip.
        let remote = Coordinate::new(vec![10.0, 0.0, 0.0]).unwrap();
        feed(&mut b, 7, remote, 0.5, 30.0);

        let request = a.probe_request_for(1, 12_345);
        let response = answer(&mut b, &request);
        assert_eq!(response.seq, request.seq);
        assert_eq!(response.sent_at_ms, 12_345);
        assert_eq!(response.responder, 1);
        assert_eq!(response.coordinate, *b.system_coordinate());
        assert_eq!(response.gossip.len(), 1);
        assert_eq!(response.gossip[0].id, 7);
    }

    #[test]
    fn snapshot_restore_resumes_identical_trajectory() {
        let mut rng = StdRng::seed_from_u64(99);
        let config = NodeConfig::paper_defaults();
        let mut original = Node::new(config.clone());
        let remote_a = Coordinate::new(vec![40.0, 10.0, 0.0]).unwrap();
        let remote_b = Coordinate::new(vec![5.0, 60.0, 0.0]).unwrap();

        // Drive the node through the wire API for a while.
        for i in 0..300u64 {
            let (peer, coordinate) = if i % 2 == 0 {
                (1, &remote_a)
            } else {
                (2, &remote_b)
            };
            let request = original.probe_request_for(peer, i);
            let mut response = ProbeResponse::new(peer, &request, coordinate.clone(), 0.4);
            response.rtt_ms = 55.0 + rng.gen_range(-6.0..6.0);
            digest(&mut original, &response);
        }

        // Snapshot, serialize to the wire form, restore.
        let encoded = original.snapshot().encode_binary();
        let snapshot = NodeSnapshot::<u32>::decode_binary(&encoded).unwrap();
        let mut restored = Node::restore(config, &snapshot).unwrap();
        assert_eq!(restored.system_coordinate(), original.system_coordinate());
        assert_eq!(
            restored.application_coordinate(),
            original.application_coordinate()
        );
        assert_eq!(restored.view().observations, original.view().observations);
        assert_eq!(restored.view(), original.view(), "views restore whole");

        // Both must produce identical event streams on the same subsequent
        // observation sequence — including filter windows and heuristic
        // windows, which is what a naive coordinate-only restore would miss.
        for i in 0..200u64 {
            let (peer, coordinate) = if i % 2 == 0 {
                (1, &remote_a)
            } else {
                (2, &remote_b)
            };
            let rtt = 55.0 + rng.gen_range(-6.0..6.0);
            let request_o = original.probe_request_for(peer, i);
            let request_r = restored.probe_request_for(peer, i);
            assert_eq!(request_o, request_r, "probe schedules stay in lockstep");
            let mut response_o = ProbeResponse::new(peer, &request_o, coordinate.clone(), 0.4);
            response_o.rtt_ms = rtt;
            let events_o = digest(&mut original, &response_o);
            let events_r = digest(&mut restored, &response_o);
            assert_eq!(events_o, events_r, "event streams diverged at step {i}");
        }
        assert_eq!(restored.system_coordinate(), original.system_coordinate());
    }

    #[test]
    fn identity_keeps_self_out_of_gossip_and_probe_schedule() {
        let mut a = Node::new(NodeConfig::paper_defaults());
        let mut b = Node::new(NodeConfig::paper_defaults());
        a.set_identity(0);
        b.set_identity(1);
        // Many exchanges in both directions: b learns a (as requester and
        // neighbour) and must never gossip a's address back, and a must
        // never schedule itself even if the address leaks around.
        for round in 0..20 {
            exchange(&mut a, &mut b, 1, 40.0, round);
            exchange(&mut b, &mut a, 0, 40.0, round);
        }
        assert!(
            !a.view().membership.contains(&0),
            "a scheduled itself: {:?}",
            a.view().membership
        );
        assert!(
            !b.view().membership.contains(&1),
            "b scheduled itself: {:?}",
            b.view().membership
        );
        for t in 0..4 {
            assert_ne!(a.next_probe(t).unwrap().target, 0, "a probed itself");
        }
        // Even a (buggy or hostile) peer gossiping a's own address at it is
        // ignored.
        let request = a.probe_request_for(1, 0);
        assert_eq!(
            request.source,
            Some(0),
            "probes carry the declared identity"
        );
        let mut response =
            ProbeResponse::new(1, &request, Coordinate::origin(3), 0.5).with_gossip(GossipEntry {
                id: 0,
                coordinate: Coordinate::origin(3),
                error_estimate: 0.5,
            });
        response.rtt_ms = 40.0;
        let events = digest(&mut a, &response);
        assert!(!events
            .iter()
            .any(|e| matches!(e, Event::NeighborDiscovered { id: 0 })));
        let view = a.view();
        assert!(!view.membership.contains(&0));
        assert!(!view.neighbors.iter().any(|peer| peer.id == 0));
    }

    #[test]
    fn restore_applies_the_supplied_vivaldi_constants() {
        // A snapshot embeds the VivaldiConfig it ran under; restore must
        // override it with the supplied configuration (deployment input),
        // not silently keep the old constants. Observable via confidence
        // building: under a huge error margin the restored node treats the
        // next observation as already explained and does not move.
        let mut node = Node::new(NodeConfig::paper_defaults());
        let remote = Coordinate::new(vec![30.0, 0.0, 0.0]).unwrap();
        for _ in 0..50 {
            feed(&mut node, 1, remote.clone(), 0.5, 60.0);
        }
        let snapshot = node.snapshot();

        let margin_config = NodeConfig::builder()
            .vivaldi(
                nc_vivaldi::VivaldiConfig::paper_defaults()
                    .with_confidence_building(Some(10_000.0)),
            )
            .build();
        let mut with_margin = Node::restore(margin_config, &snapshot).unwrap();
        let events = feed(&mut with_margin, 1, remote.clone(), 0.5, 60.0);
        assert_eq!(
            moved_displacement(&events),
            Some(0.0),
            "the new error margin must be in effect after restore: {events:?}"
        );

        let mut without_margin = Node::restore(NodeConfig::paper_defaults(), &snapshot).unwrap();
        let events = feed(&mut without_margin, 1, remote, 0.5, 60.0);
        assert!(
            moved_displacement(&events).unwrap() > 0.0,
            "original constants keep moving the coordinate: {events:?}"
        );
    }

    #[test]
    fn mismatched_dimensionality_is_discarded_not_a_panic() {
        // A peer from a differently-configured deployment (or a hostile one)
        // sending a 2-D coordinate into a 3-D node must be ignored, not
        // crash the engine inside a distance computation.
        let mut node = Node::new(NodeConfig::paper_defaults());
        let request = node.probe_request_for(1, 0);
        let flat = Coordinate::new(vec![10.0, 5.0]).unwrap();
        let mut response = ProbeResponse::new(1, &request, flat.clone(), 0.5);
        response.rtt_ms = 40.0;
        let events = digest(&mut node, &response);
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::ObservationFiltered { id: 1, .. })));
        assert!(node.view().neighbors.is_empty(), "nothing was stored");

        // A well-dimensioned responder gossiping a flat coordinate is kept,
        // but the flat gossip entry is dropped.
        let request = node.probe_request_for(2, 1);
        let good = Coordinate::new(vec![10.0, 5.0, 1.0]).unwrap();
        let mut response = ProbeResponse::new(2, &request, good, 0.5).with_gossip(GossipEntry {
            id: 3,
            coordinate: flat,
            error_estimate: 0.5,
        });
        response.rtt_ms = 40.0;
        digest(&mut node, &response);
        let view = node.view();
        assert!(view.neighbors.iter().any(|peer| peer.id == 2));
        assert!(!view.neighbors.iter().any(|peer| peer.id == 3));
    }

    #[test]
    fn self_addressed_response_is_dropped() {
        let mut node = Node::new(NodeConfig::paper_defaults());
        node.set_identity(0);
        node.seed_neighbor(1);
        // A hostile or misrouted response claiming to come from the node
        // itself must not make it its own neighbour (with a ~0 ms loopback
        // RTT it would otherwise become its own nearest neighbour and break
        // the RELATIVE heuristic's locale scaling).
        let request = node.probe_request_for(1, 0);
        let mut response = ProbeResponse::new(0, &request, Coordinate::origin(3), 0.5);
        response.rtt_ms = 0.5;
        let events = digest(&mut node, &response);
        assert!(events.is_empty());
        let view = node.view();
        assert!(view.neighbors.is_empty());
        assert_eq!(view.nearest_neighbor, None);
        assert_eq!(view.observations, 0);
    }

    #[test]
    fn probe_timeout_emits_probe_lost_and_never_stalls_the_schedule() {
        let mut node = Node::new(NodeConfig::paper_defaults());
        node.seed_neighbor(1);
        node.seed_neighbor(2);
        let request = node.next_probe(0).unwrap();
        assert_eq!(node.ledger().pending().len(), 1);
        let events = time_out(&mut node, &request);
        assert_eq!(
            events,
            vec![Event::ProbeLost {
                id: request.target,
                seq: request.seq
            }]
        );
        assert!(node.ledger().pending().is_empty());
        // The schedule moved on to the next peer; nothing is stuck waiting.
        assert_eq!(node.next_probe(1).unwrap().target, 2);
        // A second timeout for the same seq is a no-op (reply raced the timer).
        assert!(time_out(&mut node, &request).is_empty());
    }

    #[test]
    fn expire_pending_expires_only_old_probes() {
        let mut node = Node::new(NodeConfig::paper_defaults());
        node.probe_request_for(1, 1_000);
        node.probe_request_for(2, 5_000);
        let events = expire(&mut node, 9_000, 5_000);
        assert_eq!(
            events.len(),
            1,
            "only the 1 s probe is 5 s stale: {events:?}"
        );
        assert!(matches!(events[0], Event::ProbeLost { id: 1, .. }));
        assert_eq!(node.ledger().pending().len(), 1);
        assert_eq!(node.ledger().pending()[0].target, 2);
    }

    #[test]
    fn response_settles_pending_and_resets_loss_streak() {
        let mut node = Node::new(NodeConfig::paper_defaults());
        let remote = Coordinate::new(vec![10.0, 0.0, 0.0]).unwrap();
        // One probe lost, then one answered: the streak must reset.
        let lost = node.probe_request_for(1, 0);
        time_out(&mut node, &lost);
        assert_eq!(node.ledger().loss_streak(&1), 1);
        let request = node.probe_request_for(1, 1);
        let mut response = ProbeResponse::new(1, &request, remote, 0.5);
        response.rtt_ms = 40.0;
        digest(&mut node, &response);
        assert_eq!(node.ledger().loss_streak(&1), 0);
        assert!(node.ledger().pending().is_empty());
    }

    #[test]
    fn consecutive_losses_evict_the_peer_when_configured() {
        let config = NodeConfig::builder().max_consecutive_losses(3).build();
        let mut node = Node::new(config);
        let remote = Coordinate::new(vec![10.0, 0.0, 0.0]).unwrap();
        feed(&mut node, 7, remote, 0.5, 25.0);
        node.seed_neighbor(8);
        assert!(node.view().nearest_neighbor.is_some());
        for round in 0..3u64 {
            let request = node.probe_request_for(7, round);
            let events = time_out(&mut node, &request);
            if round < 2 {
                assert_eq!(events.len(), 1, "no eviction yet: {events:?}");
            } else {
                assert!(
                    events.contains(&Event::NeighborEvicted { id: 7 }),
                    "third straight loss evicts: {events:?}"
                );
            }
        }
        let view = node.view();
        assert!(!view.membership.contains(&7));
        assert!(!view.neighbors.iter().any(|peer| peer.id == 7));
        assert_eq!(view.nearest_neighbor, None);
        assert_eq!(node.ledger().loss_streak(&7), 0);
        // The rest of the schedule is untouched.
        assert_eq!(node.next_probe(0).unwrap().target, 8);
    }

    #[test]
    fn late_reply_after_timeout_is_ignored() {
        // Headline regression: the probe times out (the loss is recorded),
        // then its reply straggles in. The engine must report it as ignored
        // and leave every bit of filter/coordinate/streak state untouched —
        // digesting it would double-count the exchange with a stale RTT.
        let mut node = Node::new(NodeConfig::paper_defaults());
        let remote = Coordinate::new(vec![10.0, 0.0, 0.0]).unwrap();
        let request = node.probe_request_for(1, 0);
        time_out(&mut node, &request);
        assert_eq!(node.ledger().loss_streak(&1), 1);

        let mut late = ProbeResponse::new(1, &request, remote, 0.5);
        late.rtt_ms = 40.0;
        let events = digest(&mut node, &late);
        assert_eq!(
            events,
            vec![Event::ResponseIgnored {
                id: 1,
                seq: request.seq
            }]
        );
        assert_eq!(node.view().observations, 0, "no observation was digested");
        assert_eq!(node.system_coordinate(), &Coordinate::origin(3));
        assert!(
            node.view().neighbors.is_empty(),
            "the stale coordinate was not stored"
        );
        assert_eq!(
            node.ledger().loss_streak(&1),
            1,
            "an ignored reply must not clear the loss streak"
        );
    }

    #[test]
    fn duplicate_reply_is_ignored() {
        // Headline regression: the same reply delivered twice (a duplicated
        // datagram) is applied exactly once. The duplicate produces
        // `ResponseIgnored` and changes nothing.
        let config = NodeConfig::builder().filter(FilterConfig::Raw).build();
        let mut node = StableNode::<u32>::new(config);
        let remote = Coordinate::new(vec![10.0, 0.0, 0.0]).unwrap();
        let request = node.probe_request_for(1, 0);
        let mut response = ProbeResponse::new(1, &request, remote, 0.5);
        response.rtt_ms = 40.0;

        let first = digest(&mut node, &response);
        assert!(first
            .iter()
            .any(|e| matches!(e, Event::SystemMoved { id: 1, .. })));
        let coordinate = node.system_coordinate().clone();
        let observations = node.view().observations;

        let duplicate = digest(&mut node, &response);
        assert_eq!(
            duplicate,
            vec![Event::ResponseIgnored {
                id: 1,
                seq: request.seq
            }]
        );
        assert_eq!(node.system_coordinate(), &coordinate);
        assert_eq!(node.view().observations, observations);
    }

    #[test]
    fn unsolicited_reply_is_ignored_once_probing_started() {
        // A response from a peer that was never probed (spoofed, or routed
        // to the wrong node) is dropped — including its gossip payload: an
        // uncorrelated sender must not be able to poison the membership.
        let mut node = Node::new(NodeConfig::paper_defaults());
        node.probe_request_for(1, 0);
        let forged_request = ProbeRequest::new(99, 1_000, 0);
        let mut forged = ProbeResponse::new(99, &forged_request, Coordinate::origin(3), 0.5)
            .with_gossip(GossipEntry {
                id: 55,
                coordinate: Coordinate::origin(3),
                error_estimate: 0.5,
            });
        forged.rtt_ms = 1.0;
        let events = digest(&mut node, &forged);
        assert_eq!(events, vec![Event::ResponseIgnored { id: 99, seq: 1_000 }]);
        let membership = node.view().membership;
        assert!(!membership.contains(&99));
        assert!(!membership.contains(&55), "gossip was not ingested");
    }

    #[test]
    fn a_node_that_never_probed_ignores_every_reply() {
        // A listening deployment node (no seeds, never probed anyone yet)
        // must not digest forged responses during the window before its
        // first probe: a reply settles a pending probe or is ignored.
        let mut node = Node::new(NodeConfig::paper_defaults());
        let forged_request = ProbeRequest::new(9, 0, 0);
        let mut forged = ProbeResponse::new(9, &forged_request, Coordinate::origin(3), 0.5);
        forged.rtt_ms = 1.0;
        let events = digest(&mut node, &forged);
        assert_eq!(events, vec![Event::ResponseIgnored { id: 9, seq: 0 }]);
        let view = node.view();
        assert_eq!(view.observations, 0);
        assert!(view.neighbors.is_empty());
        assert!(view.membership.is_empty());
    }

    #[test]
    fn correlation_requires_matching_responder_not_just_seq() {
        // A reply echoing a live sequence number but claiming a different
        // responder must not settle the real probe.
        let mut node = Node::new(NodeConfig::paper_defaults());
        let request = node.probe_request_for(1, 0);
        let mut crossed = ProbeResponse::new(2, &request, Coordinate::origin(3), 0.5);
        crossed.rtt_ms = 40.0;
        let events = digest(&mut node, &crossed);
        assert_eq!(
            events,
            vec![Event::ResponseIgnored {
                id: 2,
                seq: request.seq
            }]
        );
        assert_eq!(
            node.ledger().pending().len(),
            1,
            "the real probe still waits"
        );
    }

    #[test]
    fn rotation_stays_churn_stable_across_mid_cycle_eviction() {
        // Satellite regression: evicting a peer mid-cycle must neither skip
        // nor repeat any surviving peer for the rest of the cycle.
        let config = NodeConfig::builder().max_consecutive_losses(1).build();
        let mut node = StableNode::<u32>::new(config);
        for peer in [10, 11, 12, 13, 14] {
            node.seed_neighbor(peer);
        }
        // Probe 10 and 11, then evict 10 (already behind the cursor) while
        // the probe of 11 is still in flight.
        let doomed = node.next_probe(0).unwrap();
        assert_eq!(doomed.target, 10);
        assert_eq!(node.next_probe(1).unwrap().target, 11);
        let events = time_out(&mut node, &doomed);
        assert!(events.contains(&Event::NeighborEvicted { id: 10 }));
        assert_eq!(node.ledger().pending().len(), 1, "11 still waits");

        // The rest of the cycle visits exactly the not-yet-probed survivors.
        let rest: Vec<u32> = (0..3)
            .map(|t| node.next_probe(3 + t).unwrap().target)
            .collect();
        assert_eq!(rest, vec![12, 13, 14], "no skip, no repeat after eviction");
        // And the next full cycle covers every survivor exactly once.
        let cycle: Vec<u32> = (0..4)
            .map(|t| node.next_probe(10 + t).unwrap().target)
            .collect();
        assert_eq!(cycle, vec![11, 12, 13, 14]);
    }

    #[test]
    fn rotation_survives_evicting_the_peer_under_the_cursor() {
        // Eviction of the peer the cursor points at just moves on to the
        // next survivor; eviction of the last member wraps cleanly.
        let config = NodeConfig::builder().max_consecutive_losses(1).build();
        let mut node = StableNode::<u32>::new(config);
        for peer in [20, 21, 22] {
            node.seed_neighbor(peer);
        }
        // The rotation's own probes are answered, so each timer below loses
        // only the probe it was armed for.
        let answered = |node: &mut Node, now_ms| {
            let request = node.next_probe(now_ms).unwrap();
            let mut reply =
                ProbeResponse::new(request.target, &request, Coordinate::origin(3), 0.5);
            reply.rtt_ms = 30.0;
            digest(node, &reply);
            request.target
        };
        assert_eq!(answered(&mut node, 0), 20);
        // Cursor now points at 21; evict it.
        let doomed = node.probe_request_for(21, 1);
        time_out(&mut node, &doomed);
        assert_eq!(answered(&mut node, 2), 22);
        assert_eq!(answered(&mut node, 3), 20);

        // Evict 22 (now *behind* a wrapped cursor position) and keep going.
        let doomed = node.probe_request_for(22, 4);
        time_out(&mut node, &doomed);
        assert_eq!(node.next_probe(5).unwrap().target, 20);
        assert_eq!(node.next_probe(6).unwrap().target, 20);
    }

    #[test]
    fn expire_pending_into_reuses_the_caller_buffer() {
        let mut node = Node::new(NodeConfig::paper_defaults());
        node.probe_request_for(1, 0);
        node.probe_request_for(2, 10_000);
        let mut events = Vec::new();
        node.expire_pending_into(20_000, 5_000, &mut events);
        assert_eq!(events.len(), 2, "both probes are stale: {events:?}");
        // The buffer is appended to, not cleared behind the caller's back.
        node.probe_request_for(3, 30_000);
        node.expire_pending_into(40_000, 5_000, &mut events);
        assert_eq!(events.len(), 3);
        assert!(matches!(events[2], Event::ProbeLost { id: 3, .. }));
    }

    #[test]
    fn snapshot_carries_pending_probes_and_streaks() {
        let mut node = Node::new(NodeConfig::paper_defaults());
        let lost = node.probe_request_for(1, 0);
        time_out(&mut node, &lost);
        let in_flight = node.probe_request_for(2, 10);
        let encoded = node.snapshot().encode_binary();
        let snapshot = NodeSnapshot::<u32>::decode_binary(&encoded).unwrap();
        let mut restored = Node::restore(NodeConfig::paper_defaults(), &snapshot).unwrap();
        assert_eq!(restored.ledger().pending(), node.ledger().pending());
        assert_eq!(restored.ledger().loss_streak(&1), 1);
        // The restored node settles the in-flight probe exactly like the
        // original would.
        let events_o = time_out(&mut node, &in_flight);
        let events_r = time_out(&mut restored, &in_flight);
        assert_eq!(events_o, events_r);
        assert!(restored.ledger().pending().is_empty());
    }

    #[test]
    fn restore_rejects_dimensionally_inconsistent_snapshots() {
        // The vivaldi coordinate alone passing the dimension check must not
        // let a snapshot with a flat link coordinate through — it would
        // restore fine and panic later when that link is compared against.
        let mut node = Node::new(NodeConfig::paper_defaults());
        let remote = Coordinate::new(vec![10.0, 0.0, 0.0]).unwrap();
        feed(&mut node, 1, remote, 0.5, 40.0);
        let mut snapshot = node.snapshot();
        snapshot.links[0].coordinate = Coordinate::new(vec![10.0, 0.0]).unwrap();
        assert!(matches!(
            Node::restore(NodeConfig::paper_defaults(), &snapshot),
            Err(RestoreError::Dimensions {
                expected: 3,
                found: 2
            })
        ));
    }

    #[test]
    fn restore_rejects_incompatible_snapshots() {
        let mut node = Node::new(NodeConfig::paper_defaults());
        let remote = Coordinate::new(vec![10.0, 0.0, 0.0]).unwrap();
        feed(&mut node, 1, remote, 0.5, 40.0);
        let snapshot = node.snapshot();

        // Wrong dimensionality.
        let config_2d = NodeConfig::builder()
            .vivaldi(nc_vivaldi::VivaldiConfig::paper_defaults().with_dimensions(2))
            .build();
        assert!(matches!(
            Node::restore(config_2d, &snapshot),
            Err(RestoreError::Dimensions {
                expected: 2,
                found: 3
            })
        ));

        // Wrong filter family.
        let config_ewma = NodeConfig::builder()
            .filter(FilterConfig::Ewma { alpha: 0.1 })
            .build();
        let err = Node::restore(config_ewma, &snapshot).unwrap_err();
        assert!(matches!(err, RestoreError::Filter(_)), "{err}");
    }

    // -----------------------------------------------------------------
    // Peer table / snapshot store / link store split
    // -----------------------------------------------------------------

    /// Layout pin: an entry of the peer table is the 8-byte id plus a
    /// `PeerState` of two 4-byte handles, whose `None` is the record
    /// number's zero, and its index slot is a 4-byte position. The table
    /// holds an entry for every id a node ever heard of, and a slot for it
    /// at a power of two above that: a field added to either is paid for
    /// some six hundred thousand times in a 1,024-node mesh.
    #[test]
    fn layout_pin_peer_table_entry_within_16_bytes_and_index_slot_4() {
        let entry = std::mem::size_of::<(usize, PeerState)>();
        assert!(entry <= 16, "peer-table entry grew to {entry} bytes");
        assert_eq!(PeerTable::<usize>::slot_bytes(), 4);
        assert_eq!(std::mem::size_of::<Option<Handle>>(), 4);
    }

    /// Bytes a node's peer table and its two stores have allocated, in that
    /// order: the table's entry pages, page directory and index, then each
    /// store's records (at the width the store reports), page directory and
    /// free list.
    fn engine_bytes(node: &Node) -> [usize; 3] {
        use std::mem::size_of;
        let [_, entries, pages, slots] = node.peers.footprint();
        let directory = pages * size_of::<Vec<u8>>();
        let table = entries * size_of::<(u32, PeerState)>()
            + directory
            + slots * PeerTable::<u32>::slot_bytes();
        let store = |[_, allocated, pages, free]: [usize; 4], record: usize| {
            allocated * record + pages * size_of::<Vec<u8>>() + free * size_of::<Handle>()
        };
        [
            table,
            store(node.snapshots.footprint(), size_of::<f64>()),
            store(node.links.footprint(), node.links.record_bytes()),
        ]
    }

    /// Memory anchor: a 64-node gossip mesh, each node seeded with one
    /// neighbour, runs 100 probe rounds through the engine API on a fixed
    /// RTT map; every 29th exchange is lost and evicts its target. Table and
    /// store capacities are a function of that history alone, so the bytes
    /// they hold are pinned exactly. A change to a table entry, an index
    /// slot, a record or a growth rule moves this number and re-pins it on
    /// purpose.
    #[test]
    fn memory_anchor_gossip_mesh_engine_bytes() {
        const NODES: u32 = 64;
        let config = NodeConfig::builder().max_consecutive_losses(1).build();
        let mut nodes: Vec<Node> = (0..NODES)
            .map(|id| {
                let mut node = Node::new(config.clone());
                node.set_identity(id);
                node.seed_neighbor((id + 1) % NODES);
                node
            })
            .collect();
        let rtt = |a: u32, b: u32| {
            let at = |id: u32| [f64::from(id % 8) * 12.0, f64::from(id / 8) * 9.0];
            let ([ax, ay], [bx, by]) = (at(a), at(b));
            5.0 + (ax - bx).hypot(ay - by)
        };
        let placeholder = ProbeRequest::new(0, 0, 0);
        let mut response = ProbeResponse::new(0, &placeholder, Coordinate::origin(3), 1.0);
        let mut events = Vec::new();
        let mut exchanges = 0u32;
        for round in 0..100u64 {
            for prober in 0..NODES as usize {
                let request = nodes[prober].next_probe(round * 1_000).unwrap();
                exchanges += 1;
                if exchanges.is_multiple_of(29) {
                    nodes[prober].expire_pending_into(request.sent_at_ms, 0, &mut events);
                    continue;
                }
                let target = request.target;
                nodes[target as usize].respond_into(&request, &mut response);
                response.rtt_ms = rtt(prober as u32, target);
                nodes[prober].handle_response_into(&response, &mut events);
            }
        }
        let evicted = events
            .iter()
            .filter(|event| matches!(event, Event::NeighborEvicted { .. }))
            .count();
        assert_eq!(evicted, 220);
        let known: usize = nodes.iter().map(|node| node.peers.len()).sum();
        let measured: usize = nodes.iter().map(|node| node.links.live()).sum();
        assert_eq!((known, measured), (1_965, 1_893));
        let bytes = nodes.iter().map(engine_bytes).fold([0; 3], |sum, node| {
            [sum[0] + node[0], sum[1] + node[1], sum[2] + node[2]]
        });
        assert_eq!(
            bytes,
            [51_072, 116_480, 131_568],
            "table, snapshot store, link store"
        );
    }

    /// Layout pin: a link record is the configured family's per-link state
    /// and nothing else — no family tag, and none of the family's
    /// parameters (`h` and `p`, `α`, the cut-off), which the store holds
    /// once. A moving-percentile window of up to four samples is 48 bytes,
    /// a raw or an EWMA link 24 (last sample or average, and count) and a
    /// threshold link 32 (its discard count besides); every width is pinned
    /// in `nc-filters` too.
    #[test]
    fn layout_pin_link_record_at_family_width() {
        let bytes = |filter: FilterConfig| LinkStore::new(&filter, 0).record_bytes();
        for history in 1..=4 {
            let record = bytes(FilterConfig::MovingPercentile {
                history,
                percentile: 25.0,
            });
            assert!(
                record <= 48,
                "h = {history}: link record grew to {record} bytes"
            );
            assert_eq!(bytes(FilterConfig::MovingMedian { history }), record);
        }
        assert_eq!(bytes(FilterConfig::Raw), 24);
        assert_eq!(bytes(FilterConfig::Ewma { alpha: 0.2 }), 24);
        assert_eq!(bytes(FilterConfig::Threshold { cutoff_ms: 1_000.0 }), 32);
    }

    #[test]
    fn equal_filtered_rtts_are_broken_by_rotation_order_across_an_eviction() {
        // Peers 1 and 2 sit at the same filtered RTT behind the incumbent 3.
        // When 3 degrades, the scan of the table decides between them, and
        // it must decide by rotation order — the one discovered first wins
        // — not by where the link store put a record.
        let at = |x: f64| Coordinate::new(vec![x, 0.0, 0.0]).unwrap();
        for (first, second) in [(1, 2), (2, 1)] {
            let config = NodeConfig::builder()
                .filter(FilterConfig::Raw)
                .max_consecutive_losses(1)
                .build();
            let mut node = Node::new(config);
            feed(&mut node, 3, at(5.0), 0.5, 10.0);
            feed(&mut node, 4, at(15.0), 0.5, 30.0);
            feed(&mut node, first, at(10.0), 0.5, 20.0);
            feed(&mut node, second, at(-10.0), 0.5, 20.0);
            feed(&mut node, 3, at(5.0), 0.5, 50.0);
            assert_eq!(node.view().nearest_neighbor, Some((first, 20.0)));

            // Evict peer 4, measured before the tied pair; peer 40, tied
            // with them, is measured into the link record 4 left, ahead of
            // theirs in the store but last in the rotation. Re-observing the
            // incumbent at an unchanged RTT rescans the table.
            let doomed = node.probe_request_for(4, 0);
            assert!(time_out(&mut node, &doomed).contains(&Event::NeighborEvicted { id: 4 }));
            feed(&mut node, 40, at(0.0), 0.5, 20.0);
            feed(&mut node, first, at(10.0), 0.5, 20.0);
            assert_eq!(node.view().nearest_neighbor, Some((first, 20.0)));
            assert_eq!(node.snapshot().nearest_neighbor, Some((first, 20.0)));
        }
    }

    /// A correlated reply from `responder` that gossips about `gossiped`.
    fn feed_with_gossip(node: &mut Node, responder: u32, gossiped: u32) -> Vec<Event<u32>> {
        let request = node.probe_request_for(responder, 0);
        let mut response = ProbeResponse::new(
            responder,
            &request,
            Coordinate::new(vec![10.0, 0.0, 0.0]).unwrap(),
            0.5,
        )
        .with_gossip(GossipEntry {
            id: gossiped,
            coordinate: Coordinate::new(vec![1.0, 2.0, 3.0]).unwrap(),
            error_estimate: 0.8,
        });
        response.rtt_ms = 40.0;
        digest(node, &response)
    }

    #[test]
    fn an_id_is_discovered_only_when_the_table_has_no_entry_for_it() {
        let config = NodeConfig::builder().max_consecutive_losses(1).build();
        let discovered =
            |events: &[Event<u32>], id: u32| events.contains(&Event::NeighborDiscovered { id });
        let remote = Coordinate::new(vec![10.0, 0.0, 0.0]).unwrap();

        // A restored snapshot whose links 1 (measured) and 50 (gossip-only)
        // are not in its rotation: a reply from 1 or gossip about 50 leaves
        // both out of it.
        let mut node = Node::new(config.clone());
        feed(&mut node, 1, remote.clone(), 0.5, 30.0);
        feed_with_gossip(&mut node, 2, 50);
        let mut snapshot = node.snapshot();
        snapshot.membership.retain(|&id| id == 2);
        let mut restored = Node::restore(config.clone(), &snapshot).unwrap();
        let events = feed_with_gossip(&mut restored, 2, 50);
        assert!(!discovered(&events, 50), "{events:?}");
        let events = feed(&mut restored, 1, remote.clone(), 0.5, 30.0);
        assert!(!discovered(&events, 1), "{events:?}");
        assert_eq!(restored.view().membership, vec![2]);

        // A seeded-only peer seeded again, gossiped about or heard from is
        // not added a second time.
        let mut node = Node::new(config);
        assert!(node.seed_neighbor(7));
        assert!(!node.seed_neighbor(7));
        let events = feed_with_gossip(&mut node, 2, 7);
        assert!(!discovered(&events, 7), "{events:?}");
        node.seed_neighbor(3);
        let events = feed(&mut node, 7, remote, 0.5, 30.0);
        assert!(!discovered(&events, 7), "{events:?}");
        assert_eq!(node.view().membership, vec![7, 2, 3]);

        // Evicted and gossiped again, it is discovered again, at the end of
        // the rotation.
        let doomed = node.probe_request_for(7, 0);
        assert!(time_out(&mut node, &doomed).contains(&Event::NeighborEvicted { id: 7 }));
        let events = feed_with_gossip(&mut node, 2, 7);
        assert!(discovered(&events, 7), "{events:?}");
        assert_eq!(node.view().membership, vec![2, 3, 7]);
    }

    #[test]
    fn a_restored_node_snapshots_the_links_outside_its_rotation() {
        // Links 1 (measured, the nearest neighbour, one probe lost) and 50
        // (gossip-only) sit outside a restored node's rotation. Its own
        // snapshot must carry them, their filter states and 1's loss
        // streak, or it names a nearest neighbour it holds no link for and
        // `restore` refuses it.
        let config = NodeConfig::builder().max_consecutive_losses(3).build();
        let remote = Coordinate::new(vec![10.0, 0.0, 0.0]).unwrap();
        let mut node = Node::new(config.clone());
        feed(&mut node, 1, remote.clone(), 0.5, 30.0);
        feed_with_gossip(&mut node, 2, 50);
        let lost = node.probe_request_for(1, 0);
        time_out(&mut node, &lost);
        let mut trimmed = node.snapshot();
        trimmed.membership.retain(|&id| id == 2);
        let mut first = Node::restore(config.clone(), &trimmed).unwrap();

        let snapshot = first.snapshot();
        let mut second = Node::restore(config, &snapshot).unwrap();
        assert_eq!(second.snapshot().encode_binary(), snapshot.encode_binary());
        let links: Vec<u32> = snapshot.links.iter().map(|link| link.id).collect();
        assert_eq!(links, vec![2, 1, 50], "the rotation, then the rest");
        assert_eq!(snapshot.membership, vec![2]);
        assert_eq!(snapshot.nearest_neighbor, Some((1, 30.0)));
        assert_eq!(snapshot.loss_streaks, vec![(1, 1)]);
        let one = &snapshot.links[1];
        let window = FilterState::MovingPercentile {
            window: vec![30.0],
            seen: 1,
        };
        assert_eq!(one.filter, Some(window));

        // A reply from 1 continues its link on both nodes alike: no
        // discovery, and the same filter output.
        let events = feed(&mut first, 1, remote.clone(), 0.5, 34.0);
        assert_eq!(feed(&mut second, 1, remote, 0.5, 34.0), events);
        assert!(
            !events.contains(&Event::NeighborDiscovered { id: 1 }),
            "{events:?}"
        );
    }

    #[test]
    fn only_measured_peers_hold_link_records() {
        let mut node = Node::new(NodeConfig::paper_defaults());
        for gossiped in 0..1_000 {
            feed_with_gossip(&mut node, 5_000 + gossiped % 50, 10_000 + gossiped);
        }
        let view = node.view();
        assert_eq!(view.membership.len(), 1_050);
        assert_eq!(view.neighbors.len(), 1_050);
        assert_eq!(node.links.live(), 50, "one record per measured peer");
        let measured = view.neighbors.iter().filter(|peer| peer.observations > 0);
        assert_eq!(measured.count(), 50);
        assert!(view
            .neighbors
            .iter()
            .filter(|peer| peer.id >= 10_000)
            .all(|peer| peer.filtered_rtt_ms.is_none() && peer.observations == 0));
    }

    #[test]
    fn snapshot_store_holds_one_record_per_known_coordinate() {
        let mut node = Node::new(NodeConfig::paper_defaults());
        for gossiped in 0..1_000 {
            feed_with_gossip(&mut node, 5_000 + gossiped % 50, 10_000 + gossiped);
        }
        // Seeded only: in the rotation, but nobody has said where it is.
        node.seed_neighbor(7);
        let view = node.view();
        assert_eq!(view.membership.len(), 1_051);
        assert_eq!(view.neighbors.len(), 1_050, "7 has no coordinate to show");
        assert_eq!(
            node.snapshots.live(),
            1_050,
            "one record per measured or gossiped id, none for the seed"
        );
        assert!(node.peers.get(&7).unwrap().snapshot.is_none());
        // A reply overwrites the responder's record where it sits and a
        // repeated gossip entry changes nothing.
        feed_with_gossip(&mut node, 5_000, 10_000);
        assert_eq!(node.snapshots.live(), 1_050);
        // The seed's first reply gives it a record of its own.
        feed(&mut node, 7, Coordinate::origin(3), 0.5, 30.0);
        assert_eq!(node.snapshots.live(), 1_051);
    }

    #[test]
    fn snapshot_store_keeps_one_record_for_a_link_a_snapshot_names_twice() {
        let config = NodeConfig::paper_defaults();
        let mut node = Node::new(config.clone());
        let remote = Coordinate::new(vec![10.0, 0.0, 0.0]).unwrap();
        feed(&mut node, 1, remote.clone(), 0.5, 30.0);
        feed_with_gossip(&mut node, 2, 50);
        let mut snapshot = node.snapshot();
        // Peer 1 (measured) and peer 50 (gossip-only) once more, moved.
        let moved = Coordinate::with_height(vec![-4.0, 5.0, 6.0], 1.5).unwrap();
        for original in [0, 2] {
            let mut again = snapshot.links[original].clone();
            again.coordinate = moved.clone();
            again.error_estimate = 0.125;
            snapshot.links.push(again);
        }
        let restored = Node::restore(config, &snapshot).unwrap();
        assert_eq!(restored.snapshots.live(), 3, "peers 1, 2 and 50");
        assert_eq!(restored.links.live(), 2, "peers 1 and 2");
        for peer in restored.view().neighbors {
            let expected = if peer.id == 2 { &remote } else { &moved };
            assert_eq!(&peer.coordinate, expected, "the later entry wins");
        }
    }

    #[test]
    fn restore_rejects_a_non_finite_link_error_estimate() {
        // Such a snapshot cannot come off the binary decoder, but a
        // hand-built one can: stored, the value would ride out on this
        // node's gossip and make every peer drop the whole response.
        let mut node = Node::new(NodeConfig::paper_defaults());
        feed_with_gossip(&mut node, 1, 50);
        for poison in [f64::NAN, f64::INFINITY] {
            let mut snapshot = node.snapshot();
            snapshot.links[1].error_estimate = poison;
            let err = Node::restore(NodeConfig::paper_defaults(), &snapshot).unwrap_err();
            assert_eq!(
                err,
                RestoreError::Snapshot(SnapshotError::ErrorEstimate),
                "{err}"
            );
        }
    }

    #[test]
    fn restore_rejects_a_nearest_neighbor_that_is_not_a_measured_link() {
        // Restored verbatim, a nearest neighbour without a link is never
        // re-measured and one at NaN is never beaten (`x < NaN` is false):
        // it would hold the title, and RELATIVE's context would be gone,
        // for the node's lifetime.
        let mut node = Node::new(NodeConfig::paper_defaults());
        feed_with_gossip(&mut node, 1, 50);
        let honest = node.snapshot();
        assert_eq!(honest.nearest_neighbor, Some((1, 40.0)));
        // No such peer; a gossip-only peer; the measured peer at a
        // non-finite or negative RTT.
        for ghost in [
            (999, 20.0),
            (50, 20.0),
            (1, f64::NAN),
            (1, f64::INFINITY),
            (1, -1.0),
        ] {
            let mut snapshot = honest.clone();
            snapshot.nearest_neighbor = Some(ghost);
            let err = Node::restore(NodeConfig::paper_defaults(), &snapshot).unwrap_err();
            assert_eq!(
                err,
                RestoreError::Snapshot(SnapshotError::NearestNeighbor),
                "{ghost:?}"
            );
        }
        assert!(Node::restore(NodeConfig::paper_defaults(), &honest).is_ok());
    }

    #[test]
    fn restore_rejects_a_membership_that_repeats_a_peer_or_names_the_node() {
        let config = NodeConfig::builder().max_consecutive_losses(1).build();
        let mut node = Node::new(config.clone());
        node.set_identity(0);
        feed(
            &mut node,
            1,
            Coordinate::new(vec![10.0, 0.0, 0.0]).unwrap(),
            0.5,
            30.0,
        );
        feed_with_gossip(&mut node, 2, 50);
        let honest = node.snapshot();
        assert_eq!(honest.membership, vec![1, 2, 50]);
        // Restored, a repeated 1 survived its eviction (which removed the
        // first copy) with no table entry, so gossip about it entered it a
        // second time: probed twice a cycle, for good. The node's own id
        // was probed every cycle, each probe a loss.
        for forged in [vec![1, 2, 50, 1], vec![1, 0, 2, 50]] {
            let mut snapshot = honest.clone();
            snapshot.membership = forged;
            let err = Node::restore(config.clone(), &snapshot).unwrap_err();
            assert_eq!(
                err,
                RestoreError::Snapshot(SnapshotError::Membership),
                "{:?}",
                snapshot.membership
            );
            assert!(err.to_string().contains("membership"), "{err}");
        }
        // The honest rotation holds 1 once, through an eviction and the
        // gossip that brings it back.
        let mut restored = Node::restore(config, &honest).unwrap();
        let doomed = restored.probe_request_for(1, 0);
        assert!(time_out(&mut restored, &doomed).contains(&Event::NeighborEvicted { id: 1 }));
        assert_eq!(restored.view().membership, vec![2, 50]);
        feed_with_gossip(&mut restored, 2, 1);
        assert_eq!(restored.view().membership, vec![2, 50, 1]);
    }

    #[test]
    fn restore_rejects_a_stray_loss_streak_or_pending_probe() {
        let config = NodeConfig::builder().max_consecutive_losses(3).build();
        let mut node = Node::new(config.clone());
        node.set_identity(0);
        node.seed_neighbor(1);
        let lost = node.probe_request_for(1, 0);
        time_out(&mut node, &lost);
        node.probe_request_for(1, 10);
        let honest = node.snapshot();
        assert_eq!((honest.loss_streaks.len(), honest.pending.len()), (1, 1));
        // A streak of a peer the node does not know, or a zero one, was
        // dropped by the restored node's next snapshot; a probe of a
        // stranger, lost, counted a streak for a peer outside the table.
        type Forge = fn(&mut NodeSnapshot<u32>);
        let forgeries: [(Forge, SnapshotError); 4] = [
            (|s| s.loss_streaks.push((99, 2)), SnapshotError::LossStreak),
            (|s| s.loss_streaks[0].1 = 0, SnapshotError::LossStreak),
            (|s| s.pending[0].target = 77, SnapshotError::Pending),
            (|s| s.probe_seq = s.pending[0].seq, SnapshotError::Pending),
        ];
        for (forge, expected) in forgeries {
            let mut snapshot = honest.clone();
            forge(&mut snapshot);
            let err = Node::restore(config.clone(), &snapshot).unwrap_err();
            assert_eq!(err, RestoreError::Snapshot(expected));
        }
        let restored = Node::restore(config, &honest).unwrap();
        assert_eq!(restored.ledger(), node.ledger());
    }

    #[test]
    fn a_probe_of_the_node_itself_is_numbered_but_never_pending() {
        // `probe_request_for` of the node's own identity numbers a probe
        // but enters it nowhere: no snapshot carries it, and no expiry
        // loses it or evicts the node, even one loss from eviction.
        let config = NodeConfig::builder().max_consecutive_losses(1).build();
        let mut node = Node::new(config.clone());
        node.set_identity(0);
        node.seed_neighbor(1);
        let own = node.probe_request_for(0, 5);
        let next = node.probe_request_for(1, 6);
        assert_eq!(next.seq, own.seq + 1, "sequence numbers stay monotonic");
        let snapshot = node.snapshot();
        assert_eq!(snapshot.membership, vec![1]);
        assert_eq!(snapshot.pending, node.ledger().pending());
        assert!(snapshot.pending.iter().all(|probe| probe.target != 0));
        assert_eq!(snapshot.validate(), Ok(()));
        let mut restored = Node::restore(config, &snapshot).unwrap();
        assert_eq!(restored.snapshot(), snapshot);
        for node in [&mut node, &mut restored] {
            let events = time_out(node, &own);
            assert!(
                !events.iter().any(|event| matches!(
                    event,
                    Event::ProbeLost { id: 0, .. } | Event::NeighborEvicted { id: 0 }
                )),
                "{events:?}"
            );
            assert_eq!(node.view().membership, vec![1]);
        }
    }

    /// A configuration of `filter` with a warm-up of `warmup` samples and
    /// eviction after one loss.
    fn filtered(filter: FilterConfig, warmup: u64) -> NodeConfig {
        NodeConfig::builder()
            .filter(filter)
            .heuristic(HeuristicConfig::FollowSystem)
            .warmup_samples(warmup)
            .max_consecutive_losses(1)
            .build()
    }

    fn every_family() -> [FilterConfig; 5] {
        [
            FilterConfig::Raw,
            FilterConfig::paper_mp(),
            FilterConfig::MovingMedian { history: 4 },
            FilterConfig::Ewma { alpha: 0.2 },
            FilterConfig::Threshold { cutoff_ms: 1_000.0 },
        ]
    }

    /// Whether `events` report that the filter stage withheld the sample.
    fn withheld(events: &[Event<u32>]) -> bool {
        events
            .iter()
            .any(|event| matches!(event, Event::ObservationFiltered { .. }))
    }

    /// `peer`'s filtered RTT and observation count as the view reports them.
    fn link_view(node: &Node, peer: u32) -> (Option<f64>, u64) {
        let view = node.view();
        let peer = view.neighbors.iter().find(|p| p.id == peer).unwrap();
        (peer.filtered_rtt_ms, peer.observations)
    }

    #[test]
    fn warmup_withholds_output_until_n_samples() {
        let remote = Coordinate::new(vec![10.0, 0.0, 0.0]).unwrap();
        for filter in every_family() {
            let mut node = Node::new(filtered(filter.clone(), 3));
            for (n, rtt) in [(1, 10.0), (2, 11.0)] {
                assert!(withheld(&feed(&mut node, 1, remote.clone(), 0.5, rtt)));
                assert_eq!(link_view(&node, 1), (None, n), "{filter:?}");
            }
            assert_eq!(node.system_coordinate(), &Coordinate::origin(3));
            let third = feed(&mut node, 1, remote.clone(), 0.5, 12.0);
            assert!(
                moved_displacement(&third).is_some(),
                "{filter:?}: {third:?}"
            );
            assert!(link_view(&node, 1).0.is_some(), "{filter:?}");
        }
    }

    #[test]
    fn warmup_of_zero_or_one_sample_is_off() {
        let remote = Coordinate::new(vec![10.0, 0.0, 0.0]).unwrap();
        for warmup in [0, 1] {
            let mut node = Node::new(filtered(FilterConfig::Raw, warmup));
            let first = feed(&mut node, 1, remote.clone(), 0.5, 10.0);
            assert!(moved_displacement(&first).is_some(), "{first:?}");
            assert_eq!(link_view(&node, 1), (Some(10.0), 1));
        }
    }

    #[test]
    fn invalid_samples_do_not_count_toward_warmup() {
        let remote = Coordinate::new(vec![10.0, 0.0, 0.0]).unwrap();
        let mut node = Node::new(filtered(FilterConfig::Raw, 2));
        for invalid in [f64::NAN, -5.0, 0.0] {
            assert!(withheld(&feed(&mut node, 1, remote.clone(), 0.5, invalid)));
        }
        assert_eq!(link_view(&node, 1), (None, 0));
        assert!(withheld(&feed(&mut node, 1, remote.clone(), 0.5, 10.0)));
        let events = feed(&mut node, 1, remote, 0.5, 11.0);
        assert!(events.iter().any(|event| matches!(
            event,
            Event::SystemMoved { filtered_rtt_ms, .. } if *filtered_rtt_ms == 11.0
        )));
    }

    #[test]
    fn filtered_rtt_stays_none_while_warming_up() {
        // Peer 2's filter holds the lowest estimate, but until the link is
        // warm neither the view, the snapshot nor the nearest-neighbour
        // scan (run when the incumbent degrades) may report it.
        let at = |x: f64| Coordinate::new(vec![x, 0.0, 0.0]).unwrap();
        let mut node = Node::new(filtered(FilterConfig::Raw, 2));
        feed(&mut node, 1, at(50.0), 0.5, 50.0);
        feed(&mut node, 1, at(50.0), 0.5, 50.0);
        feed(&mut node, 2, at(10.0), 0.5, 10.0);
        feed(&mut node, 1, at(50.0), 0.5, 80.0);
        assert_eq!(link_view(&node, 2), (None, 1));
        assert_eq!(node.view().nearest_neighbor, Some((1, 80.0)));
        let snapshot = node.snapshot();
        let link = snapshot.links.iter().find(|link| link.id == 2).unwrap();
        let withheld = FilterState::Raw {
            last: Some(10.0),
            seen: 1,
        };
        assert_eq!(
            link.filter,
            Some(withheld),
            "the withheld sample is still state"
        );
        // Restored, the link keeps warming from where it was.
        let mut restored = Node::restore(filtered(FilterConfig::Raw, 2), &snapshot).unwrap();
        feed(&mut restored, 2, at(10.0), 0.5, 10.0);
        assert_eq!(link_view(&restored, 2), (Some(10.0), 2));
        assert_eq!(restored.view().nearest_neighbor, Some((2, 10.0)));
    }

    #[test]
    fn eviction_restarts_warmup() {
        // An evicted link's record is released, not reset: a peer measured
        // again starts a fresh filter and warms up again.
        let remote = Coordinate::new(vec![10.0, 0.0, 0.0]).unwrap();
        let mut node = Node::new(filtered(FilterConfig::paper_mp(), 2));
        feed(&mut node, 1, remote.clone(), 0.5, 10.0);
        feed(&mut node, 1, remote.clone(), 0.5, 10.0);
        assert_eq!(link_view(&node, 1), (Some(10.0), 2));
        let doomed = node.probe_request_for(1, 0);
        assert!(time_out(&mut node, &doomed).contains(&Event::NeighborEvicted { id: 1 }));
        assert!(withheld(&feed(&mut node, 1, remote.clone(), 0.5, 10.0)));
        assert_eq!(link_view(&node, 1), (None, 1));
    }

    #[test]
    fn every_filter_family_round_trips_through_a_snapshot() {
        let mut rng = StdRng::seed_from_u64(5);
        let remote = |peer: u32| Coordinate::new(vec![10.0 * peer as f64, 5.0, 0.0]).unwrap();
        let mut rtt = move || {
            if rng.gen_bool(0.1) {
                4_000.0
            } else {
                40.0 + rng.gen_range(-5.0..5.0)
            }
        };
        for filter in every_family() {
            for warmup in [0, 3] {
                let config = filtered(filter.clone(), warmup);
                let mut original = Node::new(config.clone());
                // Peer 3 is measured once, so with a warm-up it is still
                // warming when the snapshot is taken.
                for step in 0..40u32 {
                    let peer = if step == 39 { 3 } else { 1 + step % 2 };
                    feed(&mut original, peer, remote(peer), 0.4, rtt());
                }
                let encoded = original.snapshot().encode_binary();
                let decoded = NodeSnapshot::<u32>::decode_binary(&encoded).unwrap();
                let mut restored = Node::restore(config, &decoded).unwrap();
                assert_eq!(restored.snapshot().encode_binary(), encoded, "{filter:?}");
                assert_eq!(restored.view(), original.view(), "{filter:?}");
                for step in 0..40u32 {
                    let (peer, sample) = (1 + step % 3, rtt());
                    let events = feed(&mut original, peer, remote(peer), 0.4, sample);
                    let replayed = feed(&mut restored, peer, remote(peer), 0.4, sample);
                    assert_eq!(replayed, events, "{filter:?} warm-up {warmup} step {step}");
                }
                assert_eq!(
                    restored.snapshot().encode_binary(),
                    original.snapshot().encode_binary()
                );
            }
        }
    }

    #[test]
    fn restoring_a_link_under_another_filter_family_is_rejected() {
        let family = |filter: &FilterConfig| {
            let mut store = LinkStore::new(filter, 0);
            let link = store.insert();
            store.export_state(link).family()
        };
        let remote = Coordinate::new(vec![10.0, 0.0, 0.0]).unwrap();
        for filter in every_family() {
            let mut node = Node::new(filtered(filter.clone(), 0));
            feed(&mut node, 1, remote.clone(), 0.5, 30.0);
            let snapshot = node.snapshot();
            for other in every_family() {
                let (found, expected) = (family(&filter), family(&other));
                let restored = Node::restore(filtered(other, 0), &snapshot);
                if found == expected {
                    assert!(restored.is_ok(), "{filter:?} restores as {expected}");
                    continue;
                }
                let err = restored.unwrap_err();
                assert_eq!(
                    err,
                    RestoreError::Filter(StateMismatch::Family { expected, found })
                );
                assert!(err.to_string().contains(found), "{err}");
            }
        }
    }

    #[test]
    fn discarded_samples_count_toward_warmup_invalid_ones_do_not() {
        // The threshold filter counts a sample it discards as seen, so a
        // warm-up spans every valid sample a link delivered, whether or not
        // the filter passed it on.
        let remote = Coordinate::new(vec![10.0, 0.0, 0.0]).unwrap();
        let mut node = Node::new(filtered(FilterConfig::Threshold { cutoff_ms: 100.0 }, 3));
        assert!(withheld(&feed(&mut node, 1, remote.clone(), 0.5, 500.0)));
        assert!(withheld(&feed(&mut node, 1, remote.clone(), 0.5, f64::NAN)));
        assert!(withheld(&feed(&mut node, 1, remote.clone(), 0.5, 50.0)));
        assert_eq!(link_view(&node, 1), (None, 2));
        let third = feed(&mut node, 1, remote, 0.5, 60.0);
        assert!(moved_displacement(&third).is_some(), "{third:?}");
        assert_eq!(link_view(&node, 1), (Some(60.0), 3));
    }

    #[test]
    fn gated_node_keeps_the_gossip_of_a_warming_link() {
        // A withheld sample never reaches the gate, so its reply is not
        // judged: the gossip it carries is learned all the same.
        let config = NodeConfig::builder()
            .filter(FilterConfig::Raw)
            .warmup_samples(2)
            .outlier_gate(nc_vivaldi::OutlierGateConfig::default())
            .build();
        let mut node = Node::new(config);
        let events = feed_with_gossip(&mut node, 1, 50);
        assert!(withheld(&events), "{events:?}");
        assert!(events.contains(&Event::NeighborDiscovered { id: 50 }));
        assert_eq!(node.system_coordinate(), &Coordinate::origin(3));
        let events = feed_with_gossip(&mut node, 1, 51);
        assert!(moved_displacement(&events).is_some(), "{events:?}");
        assert!(node.view().membership.contains(&51));
    }

    #[test]
    fn restore_rejects_filter_samples_observe_would_refuse() {
        // Restored, a window of [-50] reported a filtered RTT of -27 ms and
        // made its peer the nearest neighbour; [NaN] made the estimate NaN.
        let remote = Coordinate::new(vec![10.0, 0.0, 0.0]).unwrap();
        for filter in every_family() {
            let config = filtered(filter.clone(), 0);
            let mut node = Node::new(config.clone());
            feed(&mut node, 1, remote.clone(), 0.5, 30.0);
            let snapshot = node.snapshot();
            for poison in [-50.0, 0.0, f64::NAN, f64::INFINITY] {
                let mut hostile = snapshot.clone();
                let state = hostile.links[0].filter.as_mut().unwrap();
                match state {
                    FilterState::Raw { last: sample, .. }
                    | FilterState::Ewma { value: sample, .. }
                    | FilterState::Threshold {
                        last_passed: sample,
                        ..
                    } => *sample = Some(poison),
                    FilterState::MovingPercentile { window, .. } => window.push(poison),
                }
                let err = Node::restore(config.clone(), &hostile).unwrap_err();
                assert!(
                    matches!(
                        err,
                        RestoreError::Snapshot(SnapshotError::Filter(StateMismatch::Sample { .. }))
                    ),
                    "{filter:?} restored {poison}: {err}"
                );
            }
        }
    }

    #[test]
    fn restore_rejects_filter_counters_that_contradict_the_samples() {
        // Restored, a window of three samples counted as none seen was
        // listed with a filtered RTT and zero observations, and a link
        // holding samples counted as cold under any warm-up.
        let remote = Coordinate::new(vec![10.0, 0.0, 0.0]).unwrap();
        let forged = [
            (
                FilterConfig::paper_mp(),
                FilterState::MovingPercentile {
                    window: vec![5.0, 6.0, 7.0],
                    seen: 0,
                },
            ),
            (
                FilterConfig::Threshold { cutoff_ms: 1_000.0 },
                FilterState::Threshold {
                    last_passed: Some(30.0),
                    seen: 1,
                    discarded: 7,
                },
            ),
        ];
        for (filter, state) in forged {
            let config = filtered(filter, 0);
            let mut node = Node::new(config.clone());
            feed(&mut node, 1, remote.clone(), 0.5, 30.0);
            let mut hostile = node.snapshot();
            hostile.links[0].filter = Some(state.clone());
            let err = Node::restore(config, &hostile).unwrap_err();
            assert!(
                matches!(
                    err,
                    RestoreError::Snapshot(SnapshotError::Filter(StateMismatch::Counters { .. }))
                ),
                "{state:?} restored: {err}"
            );
        }
    }

    #[test]
    fn restore_rejects_an_application_displacement_that_is_not_a_finite_non_negative_number() {
        // Restored, a NaN total read NaN in `view()` for the node's
        // lifetime: every published displacement is added to it.
        let mut node = Node::new(NodeConfig::paper_defaults());
        feed_with_gossip(&mut node, 1, 50);
        let honest = node.snapshot();
        for poison in [f64::NAN, f64::INFINITY, -1.0] {
            let mut snapshot = honest.clone();
            snapshot.application.total_displacement_ms = poison;
            let err = Node::restore(NodeConfig::paper_defaults(), &snapshot).unwrap_err();
            assert_eq!(err, RestoreError::Snapshot(SnapshotError::Displacement));
        }
        assert!(Node::restore(NodeConfig::paper_defaults(), &honest).is_ok());
    }

    #[test]
    fn evict_relearn_remeasure_cycles_do_not_grow_the_link_store() {
        let config = NodeConfig::builder().max_consecutive_losses(1).build();
        let mut node = Node::new(config);
        let remote = Coordinate::new(vec![10.0, 0.0, 0.0]).unwrap();
        for stable in 0..8 {
            feed(&mut node, stable, remote.clone(), 0.5, 30.0);
        }
        let cycle = |node: &mut Node| {
            // Peer 100 is learned by gossip, measured, lost and evicted.
            feed_with_gossip(node, 0, 100);
            feed(node, 100, remote.clone(), 0.5, 25.0);
            assert_eq!((node.links.live(), node.snapshots.live()), (9, 9));
            let doomed = node.probe_request_for(100, 0);
            let events = time_out(node, &doomed);
            assert!(events.contains(&Event::NeighborEvicted { id: 100 }));
            assert_eq!((node.links.live(), node.snapshots.live()), (8, 8));
        };
        cycle(&mut node);
        let footprint = |node: &Node| {
            (
                node.links.footprint(),
                node.snapshots.footprint(),
                node.peers.footprint(),
            )
        };
        let after_first = footprint(&node);
        for _ in 0..10_000 {
            cycle(&mut node);
        }
        assert_eq!(footprint(&node), after_first);
    }

    #[test]
    fn snapshot_round_trip_is_byte_identical_across_every_kind_of_peer() {
        let config = NodeConfig::builder().max_consecutive_losses(1).build();
        let mut node = Node::new(config.clone());
        let remote = Coordinate::new(vec![10.0, 0.0, 0.0]).unwrap();
        // Measured: 1, 2 (twice each, so the windows differ from one
        // sample); gossip-only: 50, 51; 3 is measured, evicted, gossiped
        // back and measured again into a recycled slot; 4 is evicted and
        // stays gossip-only afterwards.
        for (peer, rtt) in [
            (1, 30.0),
            (2, 45.0),
            (3, 60.0),
            (4, 70.0),
            (1, 31.0),
            (2, 44.0),
        ] {
            feed(&mut node, peer, remote.clone(), 0.5, rtt);
        }
        feed_with_gossip(&mut node, 1, 50);
        feed_with_gossip(&mut node, 2, 51);
        for evicted in [3, 4] {
            let doomed = node.probe_request_for(evicted, 0);
            time_out(&mut node, &doomed);
        }
        feed_with_gossip(&mut node, 1, 4);
        feed_with_gossip(&mut node, 2, 3);
        feed(&mut node, 3, remote.clone(), 0.5, 61.0);
        // One probe outstanding, for good measure.
        node.probe_request_for(50, 7);

        let view = node.view();
        let by_id = |id: u32| view.neighbors.iter().find(|peer| peer.id == id).unwrap();
        assert_eq!(by_id(1).observations, 4);
        assert_eq!(by_id(3).observations, 1, "the evicted window is gone");
        assert_eq!(by_id(3).filtered_rtt_ms, Some(61.0));
        assert_eq!((by_id(4).filtered_rtt_ms, by_id(4).observations), (None, 0));
        assert_eq!(
            (by_id(50).filtered_rtt_ms, by_id(50).observations),
            (None, 0)
        );

        let encoded = node.snapshot().encode_binary();
        let decoded = NodeSnapshot::<u32>::decode_binary(&encoded).unwrap();
        let restored = Node::restore(config, &decoded).unwrap();
        assert_eq!(restored.snapshot().encode_binary(), encoded);
        assert_eq!(restored.view(), view);
        assert_eq!(restored.links.live(), node.links.live());
    }

    // -----------------------------------------------------------------
    // Outlier gate
    // -----------------------------------------------------------------

    fn gated_config() -> NodeConfig {
        NodeConfig::builder()
            .filter(FilterConfig::Raw)
            .outlier_gate(nc_vivaldi::OutlierGateConfig::default())
            .build()
    }

    /// Warms a gated prober against an honest target until the gate is past
    /// its warm-up, returning the prober, the target and the next probe
    /// timestamp.
    fn warmed_gated_prober(config: NodeConfig) -> (Node, Node, u64) {
        let mut prober = Node::new(config);
        let mut target = Node::new(NodeConfig::paper_defaults());
        let mut now = 0;
        for _ in 0..30 {
            exchange(&mut prober, &mut target, 1, 50.0, now);
            exchange(&mut target, &mut prober, 0, 50.0, now);
            now += 1_000;
        }
        (prober, target, now)
    }

    /// A correlated response from peer `1` claiming a coordinate far from
    /// anything a 50 ms link could explain, with a gossip entry riding on
    /// it.
    fn lying_response(prober: &mut Node, now: u64) -> ProbeResponse<u32> {
        let request = prober.probe_request_for(1, now);
        let fake = Coordinate::new(vec![5_000.0, 0.0, 0.0]).unwrap();
        let mut response = ProbeResponse::new(1, &request, fake, 0.001);
        response.rtt_ms = 50.0;
        response.gossip.push(GossipEntry {
            id: 777,
            coordinate: Coordinate::new(vec![1.0, 2.0, 3.0]).unwrap(),
            error_estimate: 0.3,
        });
        response
    }

    #[test]
    fn gate_rejects_implausible_observations_and_drops_their_gossip() {
        let (mut prober, _target, now) = warmed_gated_prober(gated_config());
        let response = lying_response(&mut prober, now);
        let events = digest(&mut prober, &response);
        assert!(
            events
                .iter()
                .any(|e| matches!(e, Event::ObservationRejected { id: 1, .. })),
            "{events:?}"
        );
        // The whole reply is dropped: the gossiped peer 777 must not enter
        // membership, the neighbour table, or the probe rotation.
        assert!(
            !events
                .iter()
                .any(|e| matches!(e, Event::NeighborDiscovered { id: 777 })),
            "{events:?}"
        );
        let view = prober.view();
        assert!(!view.membership.contains(&777));
        assert!(view.neighbors.iter().all(|peer| peer.id != 777));
        // And the spring never moved.
        assert!(
            !events
                .iter()
                .any(|e| matches!(e, Event::SystemMoved { .. })),
            "{events:?}"
        );
    }

    #[test]
    fn ungated_node_accepts_the_same_lying_response() {
        let config = NodeConfig::builder().filter(FilterConfig::Raw).build();
        let (mut prober, _target, now) = warmed_gated_prober(config);
        let response = lying_response(&mut prober, now);
        let events = digest(&mut prober, &response);
        assert!(
            events
                .iter()
                .any(|e| matches!(e, Event::SystemMoved { .. })),
            "{events:?}"
        );
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::NeighborDiscovered { id: 777 })));
        assert!(prober.view().membership.contains(&777));
    }

    #[test]
    fn gate_admits_an_honest_stream_untouched() {
        let (mut prober, mut target, mut now) = warmed_gated_prober(gated_config());
        let mut moved = 0;
        for _ in 0..40 {
            let events = exchange(&mut prober, &mut target, 1, 50.0, now);
            exchange(&mut target, &mut prober, 0, 50.0, now);
            assert!(
                !events
                    .iter()
                    .any(|e| matches!(e, Event::ObservationRejected { .. })),
                "honest observation rejected: {events:?}"
            );
            moved += events
                .iter()
                .filter(|e| matches!(e, Event::SystemMoved { .. }))
                .count();
            now += 1_000;
        }
        assert!(moved > 0);
    }

    #[test]
    fn gate_keeps_accepting_honest_observations_after_an_attack() {
        let (mut prober, mut target, mut now) = warmed_gated_prober(gated_config());
        for _ in 0..5 {
            let response = lying_response(&mut prober, now);
            let events = digest(&mut prober, &response);
            assert!(events
                .iter()
                .any(|e| matches!(e, Event::ObservationRejected { id: 1, .. })));
            now += 1_000;
        }
        let events = exchange(&mut prober, &mut target, 1, 50.0, now);
        assert!(
            events
                .iter()
                .any(|e| matches!(e, Event::SystemMoved { .. })),
            "honest follow-up rejected: {events:?}"
        );
    }

    #[test]
    fn gated_node_converges_like_an_ungated_one_on_honest_links() {
        // The gate judges every wire observation, so the two stacks are not
        // bit-identical — but on a clean constant-latency link the gate must
        // not keep an honest node from converging to the same place.
        let (gated, gated_peer) = converge_pair(gated_config(), 100.0, 400);
        let (plain, plain_peer) = converge_pair(
            NodeConfig::builder().filter(FilterConfig::Raw).build(),
            100.0,
            400,
        );
        let gated_estimate = gated.estimate_rtt_ms(gated_peer.system_coordinate());
        let plain_estimate = plain.estimate_rtt_ms(plain_peer.system_coordinate());
        assert!(
            (gated_estimate - 100.0).abs() < 15.0,
            "gated estimate {gated_estimate}"
        );
        assert!(
            (plain_estimate - 100.0).abs() < 15.0,
            "plain estimate {plain_estimate}"
        );
    }

    #[test]
    fn gate_rewarns_after_restore() {
        let (prober, _target, now) = warmed_gated_prober(gated_config());
        let snapshot = prober.snapshot();
        let mut revived = Node::restore(gated_config(), &snapshot).unwrap();
        // The gate window is runtime state and is not persisted: right
        // after restore the gate is in warm-up and even an implausible
        // observation passes (and the reply's gossip with it).
        let response = lying_response(&mut revived, now);
        let events = digest(&mut revived, &response);
        assert!(
            events
                .iter()
                .any(|e| matches!(e, Event::SystemMoved { .. })),
            "{events:?}"
        );
    }

    // -----------------------------------------------------------------
    // One digest, one heuristic
    // -----------------------------------------------------------------

    /// Layout pin: a node is at most 888 bytes. The heuristic sits behind a
    /// box: stored inline, its largest arm made a node 1,048 bytes, and
    /// `sim-compare`'s peak RSS (512 nodes) rose from 69.3 to 72.4 MiB —
    /// far more than the 80 KB the extra bytes account for.
    #[test]
    fn layout_pin_stable_node() {
        let node = std::mem::size_of::<StableNode<usize>>();
        assert!(node <= 888, "StableNode grew to {node} bytes");
    }

    /// One configuration of every heuristic arm, tuned so that each
    /// publishes within a few dozen observations.
    fn every_heuristic() -> [HeuristicConfig; 6] {
        [
            HeuristicConfig::FollowSystem,
            HeuristicConfig::System { threshold_ms: 1.0 },
            HeuristicConfig::Application { threshold_ms: 2.0 },
            HeuristicConfig::Relative {
                threshold: 0.05,
                window: 4,
            },
            HeuristicConfig::Energy {
                threshold: 0.5,
                window: 4,
            },
            HeuristicConfig::ApplicationCentroid {
                threshold_ms: 2.0,
                window: 4,
            },
        ]
    }

    /// Feeds `steps` replies from three peers whose links slow down halfway
    /// through, returning every event.
    fn drive(node: &mut Node, seed: u64, steps: usize) -> Vec<Event<u32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut events = Vec::new();
        for step in 0..steps {
            let peer = 1 + (step % 3) as u32;
            let remote = Coordinate::new(vec![20.0 * peer as f64, 5.0, 0.0]).unwrap();
            let base = if step < steps / 2 { 40.0 } else { 90.0 };
            let rtt = base * peer as f64 + rng.gen_range(-4.0..4.0);
            events.extend(feed(node, peer, remote, 0.4, rtt));
        }
        events
    }

    /// Every lane of `coordinate`, height included, as bits.
    fn coordinate_bits(coordinate: &Coordinate) -> Vec<u64> {
        coordinate
            .components()
            .iter()
            .chain([&coordinate.height()])
            .map(|lane| lane.to_bits())
            .collect()
    }

    #[test]
    fn every_heuristic_reports_its_own_updates() {
        for heuristic in every_heuristic() {
            let config = NodeConfig::builder().heuristic(heuristic.clone()).build();
            let mut node = Node::new(config);
            let displacements: Vec<f64> = drive(&mut node, 3, 200)
                .iter()
                .filter_map(|event| match event {
                    Event::ApplicationUpdated { update } => Some(update.displacement_ms),
                    _ => None,
                })
                .collect();
            assert!(!displacements.is_empty(), "{heuristic:?} never published");
            let view = node.view();
            assert_eq!(
                view.application_updates,
                displacements.len() as u64,
                "{heuristic:?}"
            );
            let total = displacements.iter().fold(0.0, |sum, step| sum + step);
            assert_eq!(
                view.application_displacement_ms.to_bits(),
                total.to_bits(),
                "{heuristic:?}"
            );
        }
    }

    #[test]
    fn following_the_system_restores_a_snapshot_that_published_the_origin() {
        let config = NodeConfig::builder()
            .heuristic(HeuristicConfig::FollowSystem)
            .build();
        let mut node = Node::new(config.clone());
        drive(&mut node, 4, 60);
        // What a node whose manager never ran writes: the origin published
        // and nothing counted.
        let mut snapshot = node.snapshot();
        snapshot.application = nc_change::ApplicationState {
            coordinate: Coordinate::origin(3),
            update_count: 0,
            system_updates_seen: 0,
            total_displacement_ms: 0.0,
            heuristic: nc_change::HeuristicState::Stateless,
        };
        let decoded = NodeSnapshot::<u32>::decode_binary(&snapshot.encode_binary()).unwrap();
        let mut restored = Node::restore(config, &decoded).unwrap();
        assert_ne!(restored.system_coordinate(), &Coordinate::origin(3));
        assert_eq!(
            coordinate_bits(restored.application_coordinate()),
            coordinate_bits(restored.system_coordinate())
        );
        drive(&mut restored, 5, 30);
        assert_eq!(
            coordinate_bits(restored.application_coordinate()),
            coordinate_bits(restored.system_coordinate())
        );
    }

    #[test]
    fn every_heuristic_round_trips_through_a_snapshot() {
        for heuristic in every_heuristic() {
            let config = NodeConfig::builder().heuristic(heuristic.clone()).build();
            let mut original = Node::new(config.clone());
            drive(&mut original, 5, 120);
            let encoded = original.snapshot().encode_binary();
            let decoded = NodeSnapshot::<u32>::decode_binary(&encoded).unwrap();
            let mut restored = Node::restore(config, &decoded).unwrap();
            assert_eq!(
                restored.snapshot().encode_binary(),
                encoded,
                "{heuristic:?}"
            );
            assert_eq!(restored.view(), original.view(), "{heuristic:?}");
            assert_eq!(
                drive(&mut restored, 6, 80),
                drive(&mut original, 6, 80),
                "{heuristic:?}"
            );
            assert_eq!(
                restored.snapshot().encode_binary(),
                original.snapshot().encode_binary()
            );
        }
    }

    proptest! {
        /// A gate that admits every finite residual and floors no error
        /// estimate is invisible: a gated node and an ungated one fed the
        /// same exchanges report the same events and write the same
        /// snapshot bytes. The exchanges carry gossip, tie on filtered RTT
        /// (so the nearest-neighbour scan's order shows), warm links up,
        /// send coordinates of the wrong dimension and forge replies.
        #[test]
        fn an_admit_everything_gate_is_invisible(
            words in proptest::collection::vec(0u64..u64::MAX, 1..160),
            warmup in 2u64..=3,
            mp in 0u8..2,
        ) {
            let filter = if mp == 0 { FilterConfig::Raw } else { FilterConfig::paper_mp() };
            let builder = || {
                NodeConfig::builder()
                    .filter(filter.clone())
                    .heuristic(HeuristicConfig::Relative { threshold: 0.05, window: 4 })
                    .warmup_samples(warmup)
            };
            let mut plain = Node::new(builder().build());
            let mut gated = Node::new(
                builder()
                    .outlier_gate(nc_vivaldi::OutlierGateConfig {
                        mad_threshold: f64::MAX,
                        min_remote_error: 0.0,
                        ..nc_vivaldi::OutlierGateConfig::default()
                    })
                    .build(),
            );
            let at = |id: u32| {
                Coordinate::new(vec![(id % 7) as f64 * 9.0, (id % 3) as f64 * 5.0, 0.0]).unwrap()
            };
            for (now, word) in (0u64..).zip(&words) {
                // Six peers, and two ids the others gossip about.
                let peer = [1, 2, 3, 4, 5, 6, 100, 101][(word >> 8) as usize % 8];
                let rtt = [10.0, 20.0, 20.0, 35.0, 60.0][(word >> 16) as usize % 5];
                let error = 0.1 + ((word >> 24) % 9) as f64 / 10.0;
                let coordinate = match word % 8 {
                    1 => Coordinate::new(vec![peer as f64, 1.0]).unwrap(),
                    _ => at(peer),
                };
                let gossip = (word >> 32) % 3 == 0;
                let gossiped = 100 + ((word >> 40) % 4) as u32;
                let respond = |node: &mut Node| {
                    let request = match word % 8 {
                        0 => ProbeRequest::new(peer, 1 << 40, now),
                        _ => node.probe_request_for(peer, now),
                    };
                    let mut response = ProbeResponse::new(peer, &request, coordinate.clone(), error);
                    response.rtt_ms = rtt;
                    if gossip {
                        response.gossip.push(GossipEntry {
                            id: gossiped,
                            coordinate: at(gossiped),
                            error_estimate: 0.5,
                        });
                    }
                    response
                };
                let (plain_response, gated_response) = (respond(&mut plain), respond(&mut gated));
                prop_assert_eq!(
                    digest(&mut plain, &plain_response),
                    digest(&mut gated, &gated_response),
                    "step {}",
                    now
                );
            }
            prop_assert_eq!(plain.snapshot().encode_binary(), gated.snapshot().encode_binary());
        }
    }
}
