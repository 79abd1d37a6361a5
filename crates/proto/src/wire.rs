//! The probe wire messages.
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
//! the response before handing it to the engine. Their bytes, and the
//! protocol version those bytes are framed under, are defined in
//! [`crate::binary`].

use nc_vivaldi::Coordinate;

/// The protocol version written into the header of every binary frame
/// (see [`crate::binary`]) and checked when one is opened. Bump on any
/// incompatible change to the message layouts.
///
/// Version 2 added the pending-probe table and per-peer loss streaks to
/// [`crate::NodeSnapshot`] (the bookkeeping behind probe timeouts).
/// Version 3 writes every snapshot sub-state in a fixed layout and drops
/// the per-link copies of the filtered RTT and observation count and the
/// embedded Vivaldi configuration; requests and responses are unchanged
/// but for the version bytes.
pub const PROTOCOL_VERSION: u16 = 3;

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

/// A probe sent to one peer. `Id` names peers (an address, an index into a
/// membership list, a node name — anything the embedding application uses).
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeRequest<Id> {
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
    /// Builds an anonymous probe of `target` with the given sequence number
    /// and driver clock reading.
    pub fn new(target: Id, seq: u64, sent_at_ms: u64) -> Self {
        ProbeRequest {
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

/// One gossiped peer: its identifier plus the last coordinate state the
/// responder held for it, so a prober can seed its neighbour table before
/// ever measuring the peer directly.
#[derive(Debug, Clone, PartialEq)]
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
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeResponse<Id> {
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
    /// Builds the response to `request` from a responder's current
    /// coordinate state. The gossip payload starts empty and `rtt_ms` at
    /// `0.0` (to be stamped by the prober's transport).
    pub fn new(
        responder: Id,
        request: &ProbeRequest<Id>,
        coordinate: Coordinate,
        error_estimate: f64,
    ) -> Self {
        ProbeResponse {
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
    /// The check the response decoder ends with: the responder's error
    /// estimate, every gossiped one and `rtt_ms` are values the receiving
    /// node stores and gossips onward, so a non-finite one is refused here
    /// rather than spread.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BinaryMessage;

    #[test]
    fn malformed_payloads_are_rejected() {
        // Bytes that are not a frame at all, and a frame cut off after its
        // header.
        assert!(matches!(
            ProbeRequest::<u64>::decode_binary(b"not a frame"),
            Err(WireError::Malformed(_))
        ));
        let header = &ProbeRequest::new(1u64, 1, 1).encode_binary()[..5];
        assert!(matches!(
            ProbeRequest::<u64>::decode_binary(header),
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
