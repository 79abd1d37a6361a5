//! The versioned probe wire messages.
//!
//! The probe protocol follows the paper's measurement discipline: every node
//! probes the members of its neighbour set round-robin; each reply carries
//! the responder's current system-level coordinate, its Vivaldi error
//! estimate `w_j` and a gossip payload of other nodes the responder knows
//! about, so neighbour sets grow organically (§VI).
//!
//! Messages are sans-I/O: nothing here reads a clock or a socket. The
//! *driver* (simulator, UDP transport, trace replayer) supplies timestamps
//! when constructing a request and stamps the measured round-trip time into
//! the response before handing it to the engine.

use nc_vivaldi::Coordinate;
use serde::{Deserialize, Serialize};

/// Version tag carried by every wire message and snapshot produced by this
/// crate. Bump on any incompatible change to the message layouts.
///
/// Version 2 added the pending-probe table and per-peer loss streaks to
/// [`crate::NodeSnapshot`] (the bookkeeping behind probe timeouts).
pub const PROTOCOL_VERSION: u16 = 2;

/// Errors produced while decoding wire messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload was not a structurally valid message.
    Malformed(String),
    /// The message was produced by a different protocol version.
    VersionMismatch {
        /// The version this library speaks.
        expected: u16,
        /// The version found in the message.
        found: u16,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Malformed(detail) => write!(f, "malformed wire message: {detail}"),
            WireError::VersionMismatch { expected, found } => write!(
                f,
                "protocol version mismatch: expected {expected}, found {found}"
            ),
        }
    }
}

impl std::error::Error for WireError {}

/// Serialization boundary shared by every message this crate defines:
/// encode to compact JSON, decode with a protocol-version check.
///
/// Only `Serialize` is required at the trait level so that messages over
/// borrowed identifiers (e.g. `ProbeRequest<&str>`) can still be encoded;
/// [`decode`](WireMessage::decode) additionally requires `Deserialize`.
pub trait WireMessage: Serialize {
    /// The version tag embedded in this message.
    fn wire_version(&self) -> u16;

    /// Encodes the message to its compact JSON wire form.
    fn encode(&self) -> String
    where
        Self: Sized,
    {
        serde::json::to_string(self)
    }

    /// Decodes a message from its wire form, rejecting payloads that are
    /// structurally invalid or tagged with a different protocol version.
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] when the payload does not parse into this
    /// message type; [`WireError::VersionMismatch`] when it parses but was
    /// produced under a different [`PROTOCOL_VERSION`].
    fn decode(text: &str) -> Result<Self, WireError>
    where
        Self: Deserialize + Sized,
    {
        decode_versioned(text)
    }
}

/// The body of [`WireMessage::decode`], apart so an implementation that
/// overrides it to validate further still shares the parse and version check.
fn decode_versioned<M: WireMessage + Deserialize>(text: &str) -> Result<M, WireError> {
    let message: M =
        serde::json::from_str(text).map_err(|e| WireError::Malformed(e.to_string()))?;
    let found = message.wire_version();
    if found != PROTOCOL_VERSION {
        return Err(WireError::VersionMismatch {
            expected: PROTOCOL_VERSION,
            found,
        });
    }
    Ok(message)
}

/// A probe sent to one peer. `Id` names peers (an address, an index into a
/// membership list, a node name — anything the embedding application uses).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProbeRequest<Id> {
    /// Protocol version of the sender.
    pub version: u16,
    /// The peer this probe is addressed to.
    pub target: Id,
    /// The prober's own identity, when it has one. Responders use it to
    /// avoid gossiping the prober's own address back to it (and may learn
    /// the prober as a peer); `None` for anonymous probes.
    pub source: Option<Id>,
    /// Sender-local sequence number, echoed by the response so the transport
    /// can correlate and time the exchange.
    pub seq: u64,
    /// Driver-supplied send timestamp (milliseconds on the driver's own
    /// clock; never interpreted by the engine, only echoed).
    pub sent_at_ms: u64,
}

impl<Id> ProbeRequest<Id> {
    /// Builds a version-tagged anonymous probe of `target` with the given
    /// sequence number and driver clock reading.
    pub fn new(target: Id, seq: u64, sent_at_ms: u64) -> Self {
        ProbeRequest {
            version: PROTOCOL_VERSION,
            target,
            source: None,
            seq,
            sent_at_ms,
        }
    }

    /// Attaches the prober's identity.
    pub fn from_source(mut self, source: Id) -> Self {
        self.source = Some(source);
        self
    }
}

impl<Id: Serialize> WireMessage for ProbeRequest<Id> {
    fn wire_version(&self) -> u16 {
        self.version
    }
}

/// One gossiped peer: its identifier plus the last coordinate state the
/// responder held for it, so a prober can seed its neighbour table before
/// ever measuring the peer directly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GossipEntry<Id> {
    /// The gossiped peer's identifier.
    pub id: Id,
    /// The peer's system-level coordinate as last seen by the responder.
    pub coordinate: Coordinate,
    /// The peer's Vivaldi error estimate as last seen by the responder.
    pub error_estimate: f64,
}

/// The reply to a [`ProbeRequest`]: the responder's coordinate state plus a
/// gossip payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProbeResponse<Id> {
    /// Protocol version of the responder.
    pub version: u16,
    /// The peer that produced this response.
    pub responder: Id,
    /// Echo of the request's sequence number.
    pub seq: u64,
    /// Echo of the request's send timestamp, so a stateless transport can
    /// compute the round trip as `now - sent_at_ms` on receipt.
    pub sent_at_ms: u64,
    /// The responder's current system-level coordinate.
    pub coordinate: Coordinate,
    /// The responder's current Vivaldi error estimate `w_j`.
    pub error_estimate: f64,
    /// Peers the responder knows about (the paper's deployments gossip one
    /// address per reply; the payload length is the responder's choice).
    pub gossip: Vec<GossipEntry<Id>>,
    /// The measured round-trip time in milliseconds. **Not transmitted
    /// meaningfully on the wire**: the responder leaves it at `0.0` and the
    /// prober's transport overwrites it on receipt, before handing the
    /// response to the engine. Keeping it on the message lets the whole
    /// observation travel as one value through queues and logs.
    pub rtt_ms: f64,
}

impl<Id> ProbeResponse<Id> {
    /// Builds a version-tagged response to `request` from a responder's
    /// current coordinate state. The gossip payload starts empty and
    /// `rtt_ms` at `0.0` (to be stamped by the prober's transport).
    pub fn new(
        responder: Id,
        request: &ProbeRequest<Id>,
        coordinate: Coordinate,
        error_estimate: f64,
    ) -> Self {
        ProbeResponse {
            version: PROTOCOL_VERSION,
            responder,
            seq: request.seq,
            sent_at_ms: request.sent_at_ms,
            coordinate,
            error_estimate,
            gossip: Vec::new(),
            rtt_ms: 0.0,
        }
    }

    /// Appends one gossiped peer to the payload.
    pub fn with_gossip(mut self, entry: GossipEntry<Id>) -> Self {
        self.gossip.push(entry);
        self
    }
}

impl<Id> ProbeResponse<Id> {
    /// The check both decoders end with: the responder's error estimate,
    /// every gossiped one and `rtt_ms` are values the receiving node stores
    /// and gossips onward, so a non-finite one (JSON spells NaN `null`) is
    /// refused here rather than spread.
    pub(crate) fn require_finite(&self) -> Result<(), WireError> {
        let finite = |value: f64, what: &str| {
            if value.is_finite() {
                Ok(())
            } else {
                Err(WireError::Malformed(format!("non-finite {what}")))
            }
        };
        finite(self.error_estimate, "error estimate")?;
        for entry in &self.gossip {
            finite(entry.error_estimate, "gossip error estimate")?;
        }
        finite(self.rtt_ms, "rtt")
    }
}

impl<Id: Serialize> WireMessage for ProbeResponse<Id> {
    fn wire_version(&self) -> u16 {
        self.version
    }

    fn decode(text: &str) -> Result<Self, WireError>
    where
        Self: Deserialize + Sized,
    {
        let response: Self = decode_versioned(text)?;
        response.require_finite()?;
        Ok(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coordinate() -> Coordinate {
        Coordinate::new(vec![1.5, -2.0, 0.25]).unwrap()
    }

    #[test]
    fn request_round_trips() {
        let request: ProbeRequest<u64> = ProbeRequest::new(42, 9, 123_456);
        let decoded = ProbeRequest::<u64>::decode(&request.encode()).unwrap();
        assert_eq!(decoded, request);
    }

    #[test]
    fn response_round_trips_with_gossip() {
        let request: ProbeRequest<String> = ProbeRequest::new("b".into(), 3, 10);
        let mut response = ProbeResponse::new("b".to_string(), &request, coordinate(), 0.4)
            .with_gossip(GossipEntry {
                id: "c".to_string(),
                coordinate: coordinate(),
                error_estimate: 0.9,
            });
        response.rtt_ms = 77.25;
        let decoded = ProbeResponse::<String>::decode(&response.encode()).unwrap();
        assert_eq!(decoded, response);
        assert_eq!(decoded.gossip.len(), 1);
        assert_eq!(decoded.rtt_ms, 77.25);
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut request: ProbeRequest<u64> = ProbeRequest::new(1, 1, 1);
        request.version = PROTOCOL_VERSION + 1;
        let err = ProbeRequest::<u64>::decode(&request.encode()).unwrap_err();
        assert_eq!(
            err,
            WireError::VersionMismatch {
                expected: PROTOCOL_VERSION,
                found: PROTOCOL_VERSION + 1,
            }
        );
    }

    #[test]
    fn non_finite_coordinates_cannot_enter_off_the_wire() {
        // A hostile or corrupt peer must not be able to inject NaN/∞ into
        // the coordinate space: `1e999` parses to +∞ and must be rejected
        // by the Coordinate invariant check during decode, not accepted and
        // propagated through Vivaldi.
        let request: ProbeRequest<u32> = ProbeRequest::new(7, 0, 0);
        let mut response = ProbeResponse::new(7, &request, coordinate(), 0.4);
        response.rtt_ms = 50.0;
        let poisoned = response.encode().replace(
            "\"components\":[1.5,-2.0,0.25]",
            "\"components\":[1e999,-2.0,0.25]",
        );
        assert!(
            poisoned.contains("1e999"),
            "test must actually tamper the payload: {poisoned}"
        );
        assert!(matches!(
            ProbeResponse::<u32>::decode(&poisoned),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        assert!(matches!(
            ProbeRequest::<u64>::decode("not json"),
            Err(WireError::Malformed(_))
        ));
        assert!(matches!(
            ProbeRequest::<u64>::decode("{\"version\":1}"),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn errors_display() {
        assert!(!WireError::Malformed("x".into()).to_string().is_empty());
        let mismatch = WireError::VersionMismatch {
            expected: 1,
            found: 2,
        };
        assert!(mismatch.to_string().contains("expected 1"));
    }
}
