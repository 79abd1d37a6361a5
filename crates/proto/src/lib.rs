//! Sans-I/O protocol layer for the stable-coordinates stack.
//!
//! The coordinate subsystem of *Stable and Accurate Network Coordinates* is
//! something a distributed application *embeds*: probes carry a coordinate
//! and an error estimate on the wire, and the application consumes a stream
//! of rare, significant updates. This crate defines that boundary without
//! performing any I/O itself, so the same engine can be driven by the
//! discrete-event simulator, a UDP daemon, or a trace replayer:
//!
//! * [`ProbeRequest`] / [`ProbeResponse`] — the wire messages of the probe
//!   protocol, carrying the responder's system-level coordinate, its Vivaldi
//!   error estimate, a gossip payload of known peers, and the driver-supplied
//!   timestamps used to measure the round trip.
//! * [`Event`] — the typed observations an engine emits while digesting
//!   responses: filter suppressions, Vivaldi rejections, system-level
//!   movement, application-level updates, neighbour discovery, probe losses
//!   and neighbour eviction.
//! * [`NodeSnapshot`] — the full runtime state of a node (Vivaldi state,
//!   per-link filter states, application-level coordinate manager state,
//!   neighbour table and probe-scheduling cursors) for persist/restore and
//!   process migration.
//!
//! All three have one encoding: the canonical, compact **binary** form
//! behind [`BinaryMessage`], with [`Packet`] demultiplexing a single
//! socket's incoming traffic. Its byte-by-byte layout is specified in
//! [`binary`]. Every frame opens with a header carrying
//! [`PROTOCOL_VERSION`]; decoding a frame written under a different version
//! fails with [`WireError::VersionMismatch`] instead of misinterpreting
//! fields.
//!
//! # Example: one request/response exchange on the wire
//!
//! ```
//! use nc_proto::{BinaryMessage, Packet, ProbeRequest, ProbeResponse};
//! use nc_vivaldi::Coordinate;
//!
//! let request: ProbeRequest<String> = ProbeRequest::new("peer-b".into(), 7, 1_000);
//! let bytes = request.encode_binary();
//! assert_eq!(ProbeRequest::<String>::decode_binary(&bytes).unwrap(), request);
//!
//! let mut response = ProbeResponse::new(
//!     "peer-b".to_string(),
//!     &request,
//!     Coordinate::new(vec![10.0, 20.0, 0.0]).unwrap(),
//!     0.35,
//! );
//! // The prober's transport measures the round trip and stamps it in before
//! // handing the response to the engine.
//! response.rtt_ms = 42.0;
//! // One socket carries both kinds; the frame header tells them apart.
//! let packet = Packet::<String>::decode(&response.encode_binary()).unwrap();
//! assert_eq!(packet, Packet::Response(response));
//! ```

// Lint policy (missing_docs, broken doc links, clippy set) is centralized
// in the workspace manifest: [workspace.lints] + `lints.workspace = true`.

pub mod binary;
pub mod event;
pub mod snapshot;
pub mod wire;

pub use binary::{BinaryMessage, Packet, WireId};
pub use event::Event;
pub use snapshot::{LinkSnapshot, NodeSnapshot, PendingProbe, SnapshotError};
pub use wire::{GossipEntry, ProbeRequest, ProbeResponse, WireError, PROTOCOL_VERSION};
