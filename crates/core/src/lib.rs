//! Stable and accurate network coordinates.
//!
//! This crate is the paper's contribution assembled behind one API. A
//! [`StableNode`] is the per-host coordinate subsystem a distributed
//! application embeds:
//!
//! 1. **Per-link moving-percentile filters** (`nc-filters`) turn the raw,
//!    heavy-tailed stream of latency observations of each neighbour into a
//!    clean estimate of the link's underlying latency.
//! 2. **Vivaldi** (`nc-vivaldi`) consumes the filtered estimates and
//!    maintains the node's *system-level* coordinate, which moves a little
//!    with every observation.
//! 3. **An application-update heuristic** (`nc-change`, ENERGY by default)
//!    watches the stream of system-level coordinates and publishes a new
//!    *application-level* coordinate only when a statistically significant
//!    change has occurred, so the embedding application is not disturbed by
//!    coordinate jitter.
//!
//! The defaults reproduce the configuration the paper deploys on PlanetLab
//! (§VI): a 3-dimensional space, `c_c = c_e = 0.25`, an MP filter with a
//! four-observation history returning the 25th percentile, and the ENERGY
//! heuristic with window 32 and threshold 8.
//!
//! # The sans-I/O engine
//!
//! A node is driven entirely through the wire messages of [`nc_proto`]: it
//! schedules probes with [`StableNode::next_probe`], answers incoming
//! probes with [`StableNode::respond_into`], and digests measured responses
//! with [`StableNode::handle_response_into`], which reports what happened as
//! typed [`Event`]s. Each wire event has one call, and it writes into a
//! buffer the driver owns and reuses — a response message, an event vector
//! — so the steady-state exchange never allocates. The engine never touches a socket or a clock — the same code
//! runs under the discrete-event simulator, a UDP daemon, or a trace
//! replayer, which is what makes the stack testable and deployable at once.
//! Read-only introspection goes through [`StableNode::view`], which captures
//! the node's complete externally observable state (coordinates, error,
//! neighbour table with filtered RTTs, per-peer metrics) as one [`NodeView`]
//! snapshot.
//!
//! # Quickstart: the request/response loop
//!
//! ```
//! use stable_nc::{Coordinate, Event, NodeConfig, ProbeRequest, ProbeResponse, StableNode};
//!
//! let mut a: StableNode<&'static str> = StableNode::new(NodeConfig::paper_defaults());
//! let mut b: StableNode<&'static str> = StableNode::new(NodeConfig::paper_defaults());
//!
//! // The driver's buffers: one response message and one event vector,
//! // rewritten by every exchange.
//! let placeholder = ProbeRequest::new("b", 0, 0);
//! let mut response = ProbeResponse::new("b", &placeholder, Coordinate::origin(3), 1.0);
//! let mut events = Vec::new();
//!
//! // Two nodes measuring each other at ~80 ms with occasional huge outliers.
//! let mut app_updates = 0;
//! for round in 0..400u64 {
//!     let rtt = if round % 50 == 7 { 2_500.0 } else { 80.0 };
//!
//!     // a probes b: build the request, let b answer it, stamp the
//!     // measured round trip in, digest the events.
//!     let request = a.probe_request_for("b", round);
//!     b.respond_into(&request, &mut response);
//!     response.rtt_ms = rtt;
//!     events.clear();
//!     a.handle_response_into(&response, &mut events);
//!     app_updates += events
//!         .iter()
//!         .filter(|event| matches!(event, Event::ApplicationUpdated { .. }))
//!         .count();
//!
//!     // ... and b probes a.
//!     let request = b.probe_request_for("a", round);
//!     a.respond_into(&request, &mut response);
//!     response.rtt_ms = rtt;
//!     events.clear();
//!     b.handle_response_into(&response, &mut events);
//! }
//!
//! let estimate = a.estimate_rtt_ms(b.system_coordinate());
//! assert!((estimate - 80.0).abs() < 15.0, "estimated {estimate:.1} ms");
//! // The outliers moved the system coordinate a little but the application
//! // saw only a handful of updates.
//! assert!(app_updates < 40, "published {app_updates} application updates");
//! ```
//!
//! # Snapshot and restore
//!
//! [`StableNode::snapshot`] captures the complete runtime state — Vivaldi
//! state, per-link filter windows, heuristic windows, neighbour table and
//! probe schedule — as a serializable [`NodeSnapshot`];
//! [`StableNode::restore`] revives it under the same configuration and the
//! node continues the exact same trajectory:
//!
//! ```
//! use nc_proto::WireMessage;
//! use stable_nc::{NodeConfig, ProbeResponse, StableNode};
//!
//! let mut node: StableNode<u32> = StableNode::new(NodeConfig::paper_defaults());
//! let remote = stable_nc::Coordinate::new(vec![20.0, 30.0, 0.0]).unwrap();
//! let mut events = Vec::new();
//! for i in 0..64u64 {
//!     let request = node.probe_request_for(1, i);
//!     let mut response = ProbeResponse::new(1, &request, remote.clone(), 0.5);
//!     response.rtt_ms = 42.0 + (i % 3) as f64;
//!     node.handle_response_into(&response, &mut events);
//! }
//!
//! let persisted = node.snapshot().encode(); // JSON, version-tagged
//! let snapshot = stable_nc::NodeSnapshot::<u32>::decode(&persisted).unwrap();
//! let restored = StableNode::restore(NodeConfig::paper_defaults(), &snapshot).unwrap();
//! assert_eq!(restored.system_coordinate(), node.system_coordinate());
//! assert_eq!(restored.view(), node.view());
//! ```

// Lint policy (missing_docs, broken doc links, clippy set) is centralized
// in the workspace manifest: [workspace.lints] + `lints.workspace = true`.

pub mod config;
pub mod fxhash;
pub mod ledger;
pub mod node;
mod peers;

pub use config::{FilterConfig, HeuristicConfig, NodeConfig, NodeConfigBuilder, NodeConfigError};
pub use fxhash::FxHashMap;
pub use ledger::ProbeLedger;
pub use node::{NodeView, PeerView, RestoreError, StableNode};

// Re-export the building blocks so downstream users need only one dependency.
pub use nc_change::{ApplicationUpdate, HeuristicKind};
pub use nc_proto::{
    Event, GossipEntry, NodeSnapshot, ProbeRequest, ProbeResponse, WireError, WireMessage,
    PROTOCOL_VERSION,
};
pub use nc_vivaldi::{Coordinate, OutlierGateConfig, VivaldiConfig};
