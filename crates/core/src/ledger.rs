//! The probe ledger: the bookkeeping of one node's outstanding probes.
//!
//! Everything a coordinate stack feeds back into the *schedule* of probes —
//! which reply still correlates with a probe, which loss streak evicts a
//! peer, which sequence number the next probe carries — is decided here and
//! nowhere else. [`StableNode`](crate::StableNode) embeds one ledger; a
//! driver that has to know those decisions without running the engines (the
//! simulator's planner) keeps ledgers of its own, fed the same calls, and
//! compares them with the engines' through `PartialEq`.
//!
//! The contract is the simple one: a reply [settles](ProbeLedger::settle) a
//! pending probe or it is ignored.

use std::hash::Hash;

use nc_proto::{NodeSnapshot, PendingProbe};

use crate::fxhash::FxHashMap;

/// Pending probes, the sequence counter, live loss streaks and the eviction
/// threshold of one node.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeLedger<Id: Eq + Hash> {
    next_seq: u64,
    /// Probes sent but not yet answered or lost, oldest first.
    pending: Vec<PendingProbe<Id>>,
    /// Consecutive unanswered probes per peer. Only live streaks are kept —
    /// an answered probe removes the entry — so on loss-free links the table
    /// stays empty and settling a reply never hashes into it.
    streaks: FxHashMap<Id, u32>,
    max_consecutive_losses: Option<u32>,
}

impl<Id: Eq + Hash + Clone> ProbeLedger<Id> {
    /// An empty ledger that evicts a peer after `max_consecutive_losses`
    /// straight losses (`None`: never).
    pub fn new(max_consecutive_losses: Option<u32>) -> Self {
        ProbeLedger {
            next_seq: 0,
            pending: Vec::new(),
            streaks: FxHashMap::default(),
            max_consecutive_losses,
        }
    }

    /// Rebuilds the ledger a node was snapshotted with, from the snapshot's
    /// `probe_seq`, `pending` and `loss_streaks` fields. The threshold is
    /// configuration, not state, and is supplied afresh.
    pub fn import(max_consecutive_losses: Option<u32>, snapshot: &NodeSnapshot<Id>) -> Self {
        ProbeLedger {
            next_seq: snapshot.probe_seq,
            pending: snapshot.pending.clone(),
            // Only live streaks are kept; a zero carries no information.
            streaks: snapshot
                .loss_streaks
                .iter()
                .filter(|(_, streak)| *streak > 0)
                .cloned()
                .collect(),
            max_consecutive_losses,
        }
    }

    /// Sequence number the next probe will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Probes sent but not yet answered or lost, oldest first.
    pub fn pending(&self) -> &[PendingProbe<Id>] {
        &self.pending
    }

    /// Consecutive unanswered probes of `id`; zero when the last one was
    /// answered or the peer was never probed.
    pub fn loss_streak(&self, id: &Id) -> u32 {
        self.streaks.get(id).copied().unwrap_or(0)
    }

    /// The live streaks of the peers in `order`, in that order — the
    /// `loss_streaks` field of a snapshot. The table itself is unordered, so
    /// the caller names the order that makes the export deterministic.
    pub fn loss_streaks_of<'a>(&self, order: impl IntoIterator<Item = &'a Id>) -> Vec<(Id, u32)>
    where
        Id: 'a,
    {
        if self.streaks.is_empty() {
            return Vec::new();
        }
        order
            .into_iter()
            .filter_map(|id| self.streaks.get(id).map(|&streak| (id.clone(), streak)))
            .collect()
    }

    /// Records a probe of `target` sent at `sent_at_ms` and returns the
    /// sequence number it carries.
    pub fn issue(&mut self, target: Id, sent_at_ms: u64) -> u64 {
        let seq = self.next_seq;
        self.next_seq = seq.wrapping_add(1);
        self.pending.push(PendingProbe {
            target,
            seq,
            sent_at_ms,
        });
        seq
    }

    /// A reply from `responder` echoing `seq` arrived. Returns true when it
    /// settles a pending probe — the probe is released and the responder's
    /// loss streak cleared. False means the reply correlates with nothing
    /// (late, duplicated, forged, never issued) and must be ignored; the
    /// ledger is unchanged.
    pub fn settle(&mut self, responder: &Id, seq: u64) -> bool {
        let Some(position) = self
            .pending
            .iter()
            .position(|probe| probe.seq == seq && probe.target == *responder)
        else {
            return false;
        };
        self.pending.remove(position);
        if !self.streaks.is_empty() {
            self.streaks.remove(responder);
        }
        true
    }

    /// Declares the probe carrying `seq` lost and returns it, or `None` when
    /// no pending probe carries `seq` (its reply arrived first, or it was
    /// already given up on). The flag is true when this loss took the
    /// target's streak to the eviction threshold: the ledger has then
    /// [forgotten](ProbeLedger::forget) the peer, and the owner drops
    /// whatever else it holds about it.
    pub fn timeout(&mut self, seq: u64) -> Option<(PendingProbe<Id>, bool)> {
        let position = self.pending.iter().position(|probe| probe.seq == seq)?;
        let lost = self.pending.remove(position);
        let streak = self.streaks.entry(lost.target.clone()).or_insert(0);
        *streak = streak.saturating_add(1);
        let evicted = self
            .max_consecutive_losses
            .is_some_and(|max| *streak >= max);
        if evicted {
            self.forget(&lost.target);
        }
        Some((lost, evicted))
    }

    /// [Times out](ProbeLedger::timeout) the oldest pending probe sent at or
    /// before `now_ms - timeout_ms`, if there is one. Callers loop until
    /// `None`: one probe per call, because a loss that evicts releases
    /// *several* pending entries.
    pub fn expire(&mut self, now_ms: u64, timeout_ms: u64) -> Option<(PendingProbe<Id>, bool)> {
        let seq = self
            .pending
            .iter()
            .find(|probe| probe.sent_at_ms.saturating_add(timeout_ms) <= now_ms)?
            .seq;
        self.timeout(seq)
    }

    /// Drops everything about `id`: its pending probes and its loss streak.
    pub fn forget(&mut self, id: &Id) {
        self.pending.retain(|probe| probe.target != *id);
        self.streaks.remove(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_proto::Event;
    use proptest::prelude::*;

    type Ledger = ProbeLedger<u32>;

    #[test]
    fn a_reply_settles_its_probe_or_is_ignored() {
        let mut ledger = Ledger::new(None);
        assert!(!ledger.settle(&1, 0), "nothing was ever issued");
        let seq = ledger.issue(1, 10);
        assert!(!ledger.settle(&2, seq), "wrong responder");
        assert!(!ledger.settle(&1, seq + 1), "wrong sequence number");
        assert!(ledger.settle(&1, seq));
        assert!(!ledger.settle(&1, seq), "a duplicate settles nothing");
        assert!(ledger.pending().is_empty());
    }

    #[test]
    fn the_threshold_evicts_and_releases_every_probe_of_the_peer() {
        let mut ledger = Ledger::new(Some(2));
        let first = ledger.issue(7, 0);
        let second = ledger.issue(7, 5);
        let third = ledger.issue(7, 10);
        let other = ledger.issue(8, 10);
        let (lost, evicted) = ledger.timeout(first).unwrap();
        assert_eq!((lost.target, lost.seq, evicted), (7, first, false));
        assert_eq!(ledger.loss_streak(&7), 1);
        let (_, evicted) = ledger.timeout(second).unwrap();
        assert!(evicted);
        assert_eq!(ledger.loss_streak(&7), 0, "an evicted peer starts over");
        assert_eq!(ledger.timeout(third), None, "released by the eviction");
        assert_eq!(ledger.pending().len(), 1);
        assert_eq!(ledger.pending()[0].seq, other);
    }

    #[test]
    fn expire_gives_up_on_the_oldest_stale_probe_only() {
        let mut ledger = Ledger::new(None);
        ledger.issue(1, 1_000);
        ledger.issue(2, 5_000);
        let (lost, _) = ledger.expire(9_000, 5_000).unwrap();
        assert_eq!((lost.target, lost.seq), (1, 0));
        assert_eq!(ledger.expire(9_000, 5_000), None);
        assert_eq!(ledger.expire(u64::MAX, 0).unwrap().0.target, 2);
    }

    /// Ids the proptests draw targets and responders from.
    const PEERS: u32 = 4;

    proptest! {
        #[test]
        fn ledger_invariants_hold_under_any_interleaving(
            threshold_word in 0u32..5,
            words in proptest::collection::vec(0u64..u64::MAX, 1..200),
        ) {
            let threshold = (threshold_word > 0).then_some(threshold_word);
            let mut ledger = Ledger::new(threshold);
            let mut snapshot =
                crate::StableNode::<u32>::new(crate::NodeConfig::paper_defaults()).snapshot();
            let (mut issued, mut settled, mut lost) = (0usize, 0usize, 0usize);
            let mut last_seq = None;
            let mut now_ms = 0u64;
            // Sequence numbers ever handed out, with their targets: the pool
            // late, duplicate and wrong-responder replies are drawn from.
            let mut history: Vec<(u32, u64)> = Vec::new();
            for word in words {
                let peer = ((word >> 8) % PEERS as u64) as u32;
                let pick = (word >> 16) as usize;
                now_ms += (word >> 40) % 50;
                match word % 8 {
                    0..=2 => {
                        let seq = ledger.issue(peer, now_ms);
                        prop_assert!(last_seq.is_none_or(|last| seq > last));
                        last_seq = Some(seq);
                        history.push((peer, seq));
                        issued += 1;
                    }
                    3 | 4 if !history.is_empty() => {
                        // Correlated, late or duplicate — whichever the
                        // drawn probe happens to be by now — or, one time
                        // in four, from the wrong responder.
                        let (target, seq) = history[pick % history.len()];
                        let responder = if word >> 60 == 0 { (target + 1) % PEERS } else { target };
                        let was_pending = ledger
                            .pending()
                            .iter()
                            .any(|probe| probe.seq == seq && probe.target == responder);
                        let before = ledger.clone();
                        let did_settle = ledger.settle(&responder, seq);
                        prop_assert_eq!(did_settle, was_pending);
                        if did_settle {
                            settled += 1;
                            prop_assert_eq!(ledger.loss_streak(&responder), 0);
                        } else {
                            prop_assert_eq!(&ledger, &before, "an ignored reply changes nothing");
                        }
                    }
                    3 | 4 => {
                        prop_assert!(!ledger.settle(&peer, word), "never issued");
                    }
                    5 if !history.is_empty() => {
                        let (_, seq) = history[pick % history.len()];
                        if let Some(loss) = ledger.timeout(seq) {
                            lost += 1;
                            check_loss(&ledger, &loss, threshold);
                        }
                    }
                    6 => {
                        while let Some(loss) = ledger.expire(now_ms, 100) {
                            lost += 1;
                            check_loss(&ledger, &loss, threshold);
                        }
                        prop_assert!(ledger
                            .pending()
                            .iter()
                            .all(|probe| probe.sent_at_ms + 100 > now_ms));
                    }
                    7 => {
                        ledger.forget(&peer);
                        prop_assert!(ledger.pending().iter().all(|probe| probe.target != peer));
                        prop_assert_eq!(ledger.loss_streak(&peer), 0);
                    }
                    _ => {}
                }
                // Standing invariants. Evictions and `forget` release
                // probes without counting them, hence the inequality.
                prop_assert!(ledger.pending().len() + settled + lost <= issued);
                prop_assert!(ledger.pending().windows(2).all(|pair| pair[0].seq < pair[1].seq));
                let peers: Vec<u32> = (0..PEERS).collect();
                if let Some(max) = threshold {
                    prop_assert!(peers.iter().all(|peer| ledger.loss_streak(peer) < max));
                }
                snapshot.probe_seq = ledger.next_seq();
                snapshot.pending = ledger.pending().to_vec();
                snapshot.loss_streaks = ledger.loss_streaks_of(&peers);
                prop_assert_eq!(&Ledger::import(threshold, &snapshot), &ledger);
            }
        }
    }

    proptest! {
        /// The planner's assumption, stated where it can fail by name: the
        /// engine's ledger is a function of the `(call, id, seq)` stream
        /// alone. Whatever else the engine does with a reply — gate it,
        /// filter it, discard its coordinate — a bare ledger fed the same
        /// calls stays equal to the engine's.
        #[test]
        fn a_node_driven_through_the_wire_api_keeps_its_ledger_equal_to_a_bare_one(
            threshold_word in 0u32..4,
            gate_word in 0u32..2,
            words in proptest::collection::vec(0u64..u64::MAX, 1..150),
        ) {
            use crate::{NodeConfig, StableNode};
            use nc_proto::{GossipEntry, NodeSnapshot, ProbeRequest, ProbeResponse, WireMessage};
            use nc_vivaldi::{Coordinate, OutlierGateConfig};

            const ME: u32 = 0;
            let threshold = (threshold_word > 0).then_some(threshold_word);
            let mut builder = NodeConfig::builder();
            if let Some(max) = threshold {
                builder = builder.max_consecutive_losses(max);
            }
            if gate_word == 1 {
                builder = builder.outlier_gate(OutlierGateConfig::default());
            }
            let config = builder.build();
            let mut node: StableNode<u32> = StableNode::new(config.clone());
            node.set_identity(ME);
            let mut ledger = Ledger::new(threshold);
            let mut sent: Vec<ProbeRequest<u32>> = Vec::new();
            let mut events = Vec::new();
            let mut now_ms = 0u64;
            for word in words {
                let peer = 1 + ((word >> 8) % PEERS as u64) as u32;
                let pick = (word >> 16) as usize;
                now_ms += (word >> 40) % 50;
                match word % 10 {
                    0 | 1 => {
                        let request = node.probe_request_for(peer, now_ms);
                        prop_assert_eq!(ledger.issue(peer, now_ms), request.seq);
                        sent.push(request);
                    }
                    2 => {
                        if let Some(request) = node.next_probe(now_ms) {
                            prop_assert_eq!(ledger.issue(request.target, now_ms), request.seq);
                            sent.push(request);
                        }
                    }
                    3..=5 if !sent.is_empty() => {
                        // A reply to some probe ever sent — correlated, late
                        // or duplicate — from its target, from someone else,
                        // or claiming to be this node itself; its coordinate
                        // sometimes from a two-dimensional deployment, its
                        // RTT sometimes absurd (the gate's business).
                        let request = &sent[pick % sent.len()];
                        let responder = match word >> 61 {
                            0 => ME,
                            1 => 1 + request.target % PEERS,
                            _ => request.target,
                        };
                        let coordinate = if (word >> 56) % 8 == 0 {
                            Coordinate::new(vec![3.0, 4.0]).unwrap()
                        } else {
                            Coordinate::new(vec![30.0 * peer as f64, 40.0, 0.0]).unwrap()
                        };
                        let mut response = ProbeResponse::new(responder, request, coordinate, 0.4)
                            .with_gossip(GossipEntry {
                                id: peer,
                                coordinate: Coordinate::origin(3),
                                error_estimate: 0.5,
                            });
                        response.rtt_ms = if (word >> 52) % 16 == 0 { 90_000.0 } else { 50.0 };
                        events.clear();
                        node.handle_response_into(&response, &mut events);
                        if responder != ME {
                            let settled = ledger.settle(&responder, request.seq);
                            let ignored = events
                                .iter()
                                .any(|event| matches!(event, Event::ResponseIgnored { .. }));
                            prop_assert_eq!(ignored, !settled);
                        }
                    }
                    6 => {
                        // Forged: a sequence number nobody was given.
                        let request = ProbeRequest::new(peer, word, now_ms);
                        let response = ProbeResponse::new(peer, &request, Coordinate::origin(3), 0.5);
                        node.handle_response_into(&response, &mut events);
                        prop_assert!(!ledger.settle(&peer, word));
                    }
                    7 if !sent.is_empty() => {
                        let seq = sent[pick % sent.len()].seq;
                        events.clear();
                        node.handle_timeout_into(seq, &mut events);
                        prop_assert_eq!(events.is_empty(), ledger.timeout(seq).is_none());
                    }
                    8 => {
                        node.expire_pending_into(now_ms, 120, &mut events);
                        while ledger.expire(now_ms, 120).is_some() {}
                    }
                    9 => {
                        let encoded = node.snapshot().encode();
                        let snapshot = NodeSnapshot::<u32>::decode(&encoded).unwrap();
                        node = StableNode::restore(config.clone(), &snapshot).unwrap();
                    }
                    _ => {}
                }
                prop_assert_eq!(node.ledger(), &ledger);
            }
        }
    }

    /// What must hold right after `loss` was reported.
    fn check_loss(
        ledger: &Ledger,
        (lost, evicted): &(PendingProbe<u32>, bool),
        threshold: Option<u32>,
    ) {
        assert!(ledger.pending().iter().all(|probe| probe.seq != lost.seq));
        if *evicted {
            assert!(threshold.is_some());
            assert!(ledger
                .pending()
                .iter()
                .all(|probe| probe.target != lost.target));
            assert_eq!(ledger.loss_streak(&lost.target), 0);
        } else {
            assert!(ledger.loss_streak(&lost.target) > 0);
        }
    }
}
