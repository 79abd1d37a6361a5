//! Closure of the snapshot boundary: every snapshot a node takes decodes,
//! restores and re-snapshots to its own bytes, and no byte of a snapshot,
//! however corrupted, makes decode → restore → further exchanges panic.
//!
//! A cluster of five nodes is driven by random words: each word is one probe
//! of `next_probe`'s choosing, lost (it stays pending until every node's
//! clock tick expires it, and after two in a row the peer is evicted) or
//! answered with a synthetic RTT and the responder's gossip.
//! Every filter family and every heuristic family run in turn.

use nc_proto::BinaryMessage;
use proptest::prelude::*;
use stable_nc::{
    Coordinate, Event, FilterConfig, HeuristicConfig, NodeConfig, NodeSnapshot, ProbeRequest,
    ProbeResponse, StableNode,
};

const NODES: usize = 5;

/// How long a lost probe stays pending: long enough that most snapshots
/// carry probes in flight.
const TIMEOUT_MS: u64 = 8;

/// The configuration every node of a case runs.
fn config(family: usize, heuristic: usize, warmup_samples: u64) -> NodeConfig {
    let filter = [
        FilterConfig::Raw,
        FilterConfig::paper_mp(),
        FilterConfig::MovingMedian { history: 5 },
        FilterConfig::Ewma { alpha: 0.2 },
        FilterConfig::Threshold { cutoff_ms: 60.0 },
    ][family % 5]
        .clone();
    let heuristic = [
        HeuristicConfig::FollowSystem,
        HeuristicConfig::System { threshold_ms: 2.0 },
        HeuristicConfig::Application { threshold_ms: 2.0 },
        HeuristicConfig::Relative {
            threshold: 0.3,
            window: 4,
        },
        HeuristicConfig::Energy {
            threshold: 2.0,
            window: 4,
        },
        HeuristicConfig::ApplicationCentroid {
            threshold_ms: 2.0,
            window: 4,
        },
    ][heuristic % 6]
        .clone();
    NodeConfig::builder()
        .filter(filter)
        .heuristic(heuristic)
        .warmup_samples(warmup_samples)
        .max_consecutive_losses(2)
        .build()
}

/// Five nodes that know their own ids and one neighbour each.
fn cluster(config: &NodeConfig) -> Vec<StableNode<u32>> {
    (0..NODES as u32)
        .map(|id| {
            let mut node = StableNode::new(config.clone());
            node.set_identity(id);
            node.seed_neighbor((id + 1) % NODES as u32);
            node
        })
        .collect()
}

/// One probe, driven by `word`: which node probes, whether the probe is
/// lost, and the RTT measured when it is answered (a tenth of them a
/// heavy-tail spike). A probe of an id outside the cluster is lost; a lost
/// probe waits for [`drive`] to expire it.
fn exchange(
    nodes: &mut [StableNode<u32>],
    word: u64,
    now_ms: u64,
    response: &mut ProbeResponse<u32>,
    events: &mut Vec<Event<u32>>,
) {
    let prober = (word % NODES as u64) as usize;
    let Some(request) = nodes[prober].next_probe(now_ms) else {
        nodes[prober].seed_neighbor(((prober + 1) % NODES) as u32);
        return;
    };
    let target = request.target as usize;
    if (word >> 8).is_multiple_of(5) || target >= NODES || target == prober {
        return;
    }
    nodes[target].respond_into(&request, response);
    let base = 10.0 + 15.0 * prober.abs_diff(target) as f64;
    let jitter = ((word >> 16) % 1_000) as f64 / 100.0;
    response.rtt_ms = if (word >> 32).is_multiple_of(10) {
        base * 20.0
    } else {
        base + jitter
    };
    nodes[prober].handle_response_into(response, events);
}

/// Runs every word as one exchange, one millisecond apart, each after a
/// clock tick that expires every probe older than [`TIMEOUT_MS`].
fn drive(nodes: &mut [StableNode<u32>], words: &[u64], start_ms: u64) {
    let mut response =
        ProbeResponse::new(0, &ProbeRequest::new(0, 0, 0), Coordinate::origin(3), 1.0);
    let mut events = Vec::new();
    for (step, &word) in words.iter().enumerate() {
        let now_ms = start_ms + step as u64;
        events.clear();
        for node in nodes.iter_mut() {
            node.expire_pending_into(now_ms, TIMEOUT_MS, &mut events);
        }
        exchange(nodes, word, now_ms, &mut response, &mut events);
    }
}

proptest! {
    /// Any snapshot a node takes — a node restored from an earlier one
    /// among them — decodes, restores and re-snapshots to identical bytes.
    #[test]
    fn snapshot_closure_restores_every_snapshot_to_its_own_bytes(
        words in proptest::collection::vec(0u64..u64::MAX, 40..240),
        family in 0usize..5,
        heuristic in 0usize..6,
        warmup_samples in 0u64..3,
    ) {
        let config = config(family, heuristic, warmup_samples);
        let mut nodes = cluster(&config);
        for (round, chunk) in words.chunks(40).enumerate() {
            drive(&mut nodes, chunk, round as u64 * 1_000);
            for node in &mut nodes {
                let bytes = node.snapshot().encode_binary();
                let decoded = NodeSnapshot::<u32>::decode_binary(&bytes);
                prop_assert!(decoded.is_ok(), "{:?}", decoded);
                let restored = StableNode::restore(config.clone(), &decoded.unwrap());
                prop_assert!(restored.is_ok(), "{:?}", restored.err());
                let restored = restored.unwrap();
                prop_assert_eq!(restored.snapshot().encode_binary(), bytes);
                *node = restored;
            }
        }
    }

    /// Corrupted snapshot bytes are refused by the decoder (a `WireError`)
    /// or by `restore` (a `RestoreError`), or restore a node that runs on,
    /// exchanges with the cluster and snapshots again, without a panic.
    #[test]
    fn snapshot_closure_survives_corrupted_bytes(
        words in proptest::collection::vec(0u64..u64::MAX, 40..160),
        family in 0usize..5,
        heuristic in 0usize..6,
        corruptions in proptest::collection::vec(0u64..u64::MAX, 1..12),
    ) {
        let config = config(family, heuristic, 1);
        let mut nodes = cluster(&config);
        drive(&mut nodes, &words, 0);
        let victim = (words[0] % NODES as u64) as usize;
        let clean = nodes[victim].snapshot().encode_binary();
        for (index, &word) in corruptions.iter().enumerate() {
            // One byte, anywhere in the frame, XORed with a nonzero mask.
            let mut bytes = clean.clone();
            let at = (word % bytes.len() as u64) as usize;
            let flip = ((word >> 32) % 255 + 1) as u8;
            bytes[at] ^= flip;
            let Ok(snapshot) = NodeSnapshot::<u32>::decode_binary(&bytes) else {
                continue;
            };
            let Ok(restored) = StableNode::restore(config.clone(), &snapshot) else {
                continue;
            };
            nodes[victim] = restored;
            drive(&mut nodes, &words[..20.min(words.len())], 10_000 * (index as u64 + 1));
            let again = nodes[victim].snapshot().encode_binary();
            let decoded = NodeSnapshot::<u32>::decode_binary(&again);
            prop_assert!(decoded.is_ok(), "byte {} ^ {}: {:?}", at, flip, decoded);
        }
    }
}
