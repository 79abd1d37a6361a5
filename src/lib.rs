//! Stable and Accurate Network Coordinates — workspace façade.
//!
//! This crate re-exports the public API of the workspace so that examples,
//! integration tests and downstream users can depend on a single package:
//!
//! * [`stable_nc`] — the paper's contribution: the [`StableNode`] coordinate
//!   stack (moving-percentile filtering → Vivaldi → application-level update
//!   heuristics) exposed as a sans-I/O engine, plus its configuration types.
//! * [`nc_proto`] — the protocol boundary: the [`ProbeRequest`] /
//!   [`ProbeResponse`] wire messages, the typed [`Event`] stream,
//!   [`NodeSnapshot`] for persist/restore, and the one binary codec they
//!   all travel and persist in.
//! * [`nc_vivaldi`], [`nc_filters`], [`nc_change`], [`nc_stats`] — the
//!   individual building blocks, usable on their own.
//! * [`nc_netsim`] — the synthetic PlanetLab-style workload and simulator
//!   used by the evaluation (itself a driver of the sans-I/O engine).
//! * [`nc_query`] — the read path over live coordinates: a sharded Z-order
//!   [`CoordinateIndex`] serving exact k-nearest-node, closest-replica and
//!   centroid/cluster queries, fed from the sim's event stream or a
//!   runtime's [`QueryHandle`] snapshots.
//! * [`nc_transport`] — the deployment layer: a threaded UDP runtime
//!   driving the engine over real sockets (binary datagrams, snapshot
//!   persistence, the `nc-node` binary) plus a delay-injecting loopback
//!   harness for tests and demos.
//! * [`nc_experiments`] — the harness that regenerates every table and
//!   figure of the paper.
//!
//! See the repository `README.md` for a tour, and
//! [`nc_experiments::EXPERIMENTS`] for the reproduced figures and tables.
//!
//! # Quickstart
//!
//! A node is driven through wire messages and observed through events; no
//! sockets or clocks are baked in:
//!
//! ```
//! use stable_network_coordinates::{Coordinate, NodeConfig, ProbeResponse, StableNode};
//!
//! let mut a: StableNode<&str> = StableNode::new(NodeConfig::paper_defaults());
//! let mut b: StableNode<&str> = StableNode::new(NodeConfig::paper_defaults());
//!
//! // One full probe exchange: a → b and back, timed by the driver. The
//! // response and the event buffer belong to the driver, which reuses them
//! // for every later exchange.
//! let request = a.probe_request_for("peer-b", 0);
//! let mut response = ProbeResponse::new("peer-b", &request, Coordinate::origin(3), 1.0);
//! let mut events = Vec::new();
//! b.respond_into(&request, &mut response);
//! response.rtt_ms = 42.0; // measured by the transport
//! a.handle_response_into(&response, &mut events);
//! assert!(!events.is_empty());
//! println!("estimated RTT: {:.1} ms", a.estimate_rtt_ms(b.system_coordinate()));
//! ```

// Lint policy (missing_docs, broken doc links, clippy set) is centralized
// in the workspace manifest: [workspace.lints] + `lints.workspace = true`.

pub use nc_change;
pub use nc_experiments;
pub use nc_filters;
pub use nc_netsim;
pub use nc_proto;
pub use nc_query;
pub use nc_stats;
pub use nc_transport;
pub use nc_vivaldi;
pub use stable_nc;

pub use nc_query::{CoordinateIndex, QueryConfig, QueryHandle, QueryMatch};
pub use stable_nc::{
    ApplicationUpdate, Coordinate, Event, FilterConfig, GossipEntry, HeuristicConfig, NodeConfig,
    NodeConfigBuilder, NodeConfigError, NodeSnapshot, NodeView, OutlierGateConfig, PeerView,
    ProbeRequest, ProbeResponse, StableNode, VivaldiConfig, WireError, PROTOCOL_VERSION,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_reexports_compose() {
        let config = NodeConfig::builder()
            .filter(FilterConfig::paper_mp())
            .heuristic(HeuristicConfig::paper_energy())
            .build();
        let node: StableNode<u8> = StableNode::new(config);
        assert_eq!(node.system_coordinate().dimensions(), 3);
    }

    #[test]
    fn facade_exposes_the_query_layer() {
        let mut index: CoordinateIndex<u8> =
            CoordinateIndex::new(QueryConfig::default()).expect("default query config validates");
        index
            .update(
                7,
                &Coordinate::new([1.0, 2.0, 3.0]).expect("finite coordinate"),
            )
            .expect("update tracks the node");
        let origin = Coordinate::new([0.0, 0.0, 0.0]).expect("finite coordinate");
        let near: QueryMatch<u8> = index
            .nearest(&origin)
            .expect("query succeeds")
            .expect("one node is tracked");
        assert_eq!(near.id, 7);
    }

    #[test]
    fn facade_exposes_the_wire_layer() {
        use nc_proto::BinaryMessage;
        let request: ProbeRequest<u32> = ProbeRequest::new(1, 0, 0);
        let bytes = request.encode_binary();
        assert_eq!(u16::from_le_bytes([bytes[2], bytes[3]]), PROTOCOL_VERSION);
        let decoded = ProbeRequest::<u32>::decode_binary(&bytes).unwrap();
        assert_eq!(decoded, request);
    }
}
