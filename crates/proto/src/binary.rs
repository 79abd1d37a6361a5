//! The wire codec: the only encoding of the probe protocol's messages and
//! of node snapshots.
//!
//! A deployable UDP transport needs a byte format that is stable enough to
//! pin with golden fixtures and small enough to fit comfortably in a single
//! datagram; a snapshot file needs one that a later build reads back
//! exactly. This module defines that format, and its frame header is the
//! only place the protocol version is written or checked.
//!
//! # Framing
//!
//! Every binary message starts with the same 5-byte header:
//!
//! | offset | size | content                                              |
//! |--------|------|------------------------------------------------------|
//! | 0      | 2    | magic `b"NC"` (`0x4E 0x43`)                          |
//! | 2      | 2    | [`PROTOCOL_VERSION`], little-endian `u16`            |
//! | 4      | 1    | message kind: `0x01` request, `0x02` response, `0x03` snapshot |
//!
//! Decoding rejects a wrong magic or kind as [`WireError::Malformed`] and a
//! different version as [`WireError::VersionMismatch`]. Trailing bytes
//! after a complete payload are rejected too, so a datagram carries exactly
//! one message.
//!
//! # Primitives
//!
//! * **varint** — unsigned LEB128: 7 value bits per byte, little-endian
//!   groups, high bit set on every byte but the last; at most 10 bytes for a
//!   `u64`. All counts, sequence numbers and timestamps use it (timestamps
//!   and sequence numbers are small early in a node's life, so most probes
//!   fit in ~20 bytes).
//! * **f64** — 8 bytes, IEEE-754 bit pattern, little-endian.
//! * **string** — varint byte length, then that many bytes of UTF-8.
//! * **option** — one byte, `0x00` = absent, `0x01` = present followed by
//!   the payload.
//! * **list** — varint element count, then the elements back to back.
//!
//! # Coordinates
//!
//! A coordinate is one byte of dimensionality `d` (1 ≤ `d` ≤ [`MAX_DIMS`]),
//! then `d` components as f64, then the height as f64. Decoding re-validates
//! the [`Coordinate`] invariants, so NaN/∞ cannot enter off the wire.
//!
//! # Peer identifiers
//!
//! Messages are generic over the peer identifier. The [`WireId`] trait
//! defines the binary layout per identifier type; implementations are
//! provided for `u32`/`u64`/`usize` (varint), `String` (string) and
//! `SocketAddr` — the identifier a real UDP deployment uses — as one byte
//! `0x04`/`0x06` for the address family, the 4- or 16-byte IP address
//! octets, and the port as a little-endian `u16` (IPv6 flow label and scope
//! id are not carried).
//!
//! # Message payloads (after the header)
//!
//! **`ProbeRequest`** (kind `0x01`): target id · option(source id) ·
//! varint seq · varint sent_at_ms.
//!
//! **`ProbeResponse`** (kind `0x02`): responder id · varint seq ·
//! varint sent_at_ms · coordinate · f64 error_estimate ·
//! list(gossip entry: id · coordinate · f64 error_estimate) · f64 rtt_ms.
//!
//! **`NodeSnapshot`** (kind `0x03`): a hand-laid skeleton carrying the
//! engine's own tables, with the three deep sub-states (Vivaldi state,
//! application-coordinate manager state, per-link filter states) embedded as
//! self-describing *value blobs* (below), so their evolution does not
//! require relaying this format: value(vivaldi) · value(application) ·
//! list(link: id · option(value(filter)) · coordinate · f64 error_estimate ·
//! option(f64 filtered_rtt_ms) · varint observations) ·
//! option(nearest: id · f64 rtt) · varint observations · option(identity id)
//! · list(member id) · varint probe_cursor · varint probe_seq ·
//! varint gossip_cursor · list(pending: id · varint seq · varint sent_at_ms)
//! · list(streak: id · varint count).
//!
//! Decoding rejects a non-finite `error_estimate` or `rtt_ms` of a response
//! or gossip entry, and a snapshot [`NodeSnapshot::validate`] refuses, as
//! [`WireError::Malformed`]: they are values a node stores and hands on.
//!
//! # Value blobs
//!
//! A value blob is the serde data model ([`serde::Value`]) in tagged binary
//! form, reusing each nested state's `Serialize`/`Deserialize`
//! implementation:
//!
//! | tag    | value | payload                                   |
//! |--------|-------|-------------------------------------------|
//! | `0x00` | null  | —                                         |
//! | `0x01` | false | —                                         |
//! | `0x02` | true  | —                                         |
//! | `0x03` | int   | zigzag varint (`(n << 1) ^ (n >> 63)`)    |
//! | `0x04` | uint  | varint                                    |
//! | `0x05` | float | f64                                       |
//! | `0x06` | str   | string                                    |
//! | `0x07` | seq   | varint count, then that many values       |
//! | `0x08` | map   | varint count, then (string key, value) pairs |
//!
//! Nesting depth is capped at 64 on decode so hostile input cannot overflow
//! the stack.

use std::hash::Hash;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr};

use nc_vivaldi::{Coordinate, MAX_DIMS};
use serde::{Deserialize, Serialize, Value};

use crate::snapshot::{LinkSnapshot, NodeSnapshot, PendingProbe};
use crate::wire::{GossipEntry, ProbeRequest, ProbeResponse, WireError, PROTOCOL_VERSION};

/// The two magic bytes opening every binary message.
pub const MAGIC: [u8; 2] = *b"NC";

/// Message-kind byte for [`ProbeRequest`].
pub const KIND_REQUEST: u8 = 0x01;
/// Message-kind byte for [`ProbeResponse`].
pub const KIND_RESPONSE: u8 = 0x02;
/// Message-kind byte for [`NodeSnapshot`].
pub const KIND_SNAPSHOT: u8 = 0x03;

/// Maximum nesting depth a value blob may reach on decode.
const MAX_VALUE_DEPTH: u32 = 64;

fn malformed(detail: impl Into<String>) -> WireError {
    WireError::Malformed(detail.into())
}

// ---------------------------------------------------------------------
// Primitive writers
// ---------------------------------------------------------------------

fn put_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn put_f64(out: &mut Vec<u8>, value: f64) {
    out.extend_from_slice(&value.to_bits().to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, value: &str) {
    put_varint(out, value.len() as u64);
    out.extend_from_slice(value.as_bytes());
}

fn put_coordinate(out: &mut Vec<u8>, coordinate: &Coordinate) {
    let components = coordinate.components();
    out.push(components.len() as u8);
    for &component in components {
        put_f64(out, component);
    }
    put_f64(out, coordinate.height());
}

fn put_option<T>(out: &mut Vec<u8>, value: Option<&T>, put: impl FnOnce(&mut Vec<u8>, &T)) {
    match value {
        None => out.push(0),
        Some(inner) => {
            out.push(1);
            put(out, inner);
        }
    }
}

// ---------------------------------------------------------------------
// Cursor-based reader
// ---------------------------------------------------------------------

/// A bounds-checked cursor over a binary payload. Every read fails with
/// [`WireError::Malformed`] instead of panicking, whatever the input.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    position: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice for reading from the start.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, position: 0 }
    }

    fn take(&mut self, count: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .position
            .checked_add(count)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| malformed("truncated message"))?;
        let slice = &self.bytes[self.position..end];
        self.position = end;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn read_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads an unsigned LEB128 varint.
    pub fn read_varint(&mut self) -> Result<u64, WireError> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.read_u8()?;
            if shift == 63 && byte > 1 {
                return Err(malformed("varint overflows u64"));
            }
            value |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
            if shift > 63 {
                return Err(malformed("varint longer than 10 bytes"));
            }
        }
    }

    /// Reads a little-endian IEEE-754 `f64`.
    pub fn read_f64(&mut self) -> Result<f64, WireError> {
        let bytes: [u8; 8] = self.take(8)?.try_into().expect("take returned 8 bytes");
        Ok(f64::from_bits(u64::from_le_bytes(bytes)))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn read_str(&mut self) -> Result<String, WireError> {
        let len = usize::try_from(self.read_varint()?)
            .map_err(|_| malformed("string length overflows usize"))?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| malformed("string is not UTF-8"))
    }

    /// Reads a list length, bounding it by the bytes actually remaining so a
    /// hostile length prefix cannot trigger a huge allocation.
    fn read_count(&mut self, min_element_bytes: usize) -> Result<usize, WireError> {
        let count =
            usize::try_from(self.read_varint()?).map_err(|_| malformed("count overflows usize"))?;
        let remaining = self.bytes.len() - self.position;
        if count > remaining / min_element_bytes.max(1) {
            return Err(malformed("count exceeds remaining payload"));
        }
        Ok(count)
    }

    /// Reads an option marker byte.
    pub fn read_option(&mut self) -> Result<bool, WireError> {
        match self.read_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(malformed(format!("invalid option marker {other}"))),
        }
    }

    /// Reads a coordinate, re-validating its invariants.
    pub fn read_coordinate(&mut self) -> Result<Coordinate, WireError> {
        let dims = usize::from(self.read_u8()?);
        if dims == 0 || dims > MAX_DIMS {
            return Err(malformed(format!("coordinate dimensionality {dims}")));
        }
        let mut components = [0.0f64; MAX_DIMS];
        for slot in components.iter_mut().take(dims) {
            *slot = self.read_f64()?;
        }
        let height = self.read_f64()?;
        Coordinate::with_height(&components[..dims], height)
            .map_err(|e| malformed(format!("invalid coordinate: {e}")))
    }

    /// True once every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.position == self.bytes.len()
    }
}

// ---------------------------------------------------------------------
// Peer identifiers
// ---------------------------------------------------------------------

/// Binary layout of a peer identifier (see the [module docs](self)).
pub trait WireId: Sized {
    /// Appends the identifier's binary form to `out`.
    fn encode_id(&self, out: &mut Vec<u8>);
    /// Reads one identifier.
    fn decode_id(reader: &mut Reader<'_>) -> Result<Self, WireError>;
}

macro_rules! impl_varint_wire_id {
    ($($t:ty),*) => {$(
        impl WireId for $t {
            fn encode_id(&self, out: &mut Vec<u8>) {
                put_varint(out, *self as u64);
            }
            fn decode_id(reader: &mut Reader<'_>) -> Result<Self, WireError> {
                let value = reader.read_varint()?;
                <$t>::try_from(value)
                    .map_err(|_| malformed(concat!("id overflows ", stringify!($t))))
            }
        }
    )*};
}

impl_varint_wire_id!(u32, u64, usize);

impl WireId for String {
    fn encode_id(&self, out: &mut Vec<u8>) {
        put_str(out, self);
    }
    fn decode_id(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        reader.read_str()
    }
}

impl WireId for SocketAddr {
    fn encode_id(&self, out: &mut Vec<u8>) {
        match self.ip() {
            IpAddr::V4(ip) => {
                out.push(0x04);
                out.extend_from_slice(&ip.octets());
            }
            IpAddr::V6(ip) => {
                out.push(0x06);
                out.extend_from_slice(&ip.octets());
            }
        }
        out.extend_from_slice(&self.port().to_le_bytes());
    }
    fn decode_id(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        let ip = match reader.read_u8()? {
            0x04 => {
                let octets: [u8; 4] = reader.take(4)?.try_into().expect("4 bytes");
                IpAddr::V4(Ipv4Addr::from(octets))
            }
            0x06 => {
                let octets: [u8; 16] = reader.take(16)?.try_into().expect("16 bytes");
                IpAddr::V6(Ipv6Addr::from(octets))
            }
            other => return Err(malformed(format!("invalid address family {other}"))),
        };
        let port: [u8; 2] = reader.take(2)?.try_into().expect("2 bytes");
        Ok(SocketAddr::new(ip, u16::from_le_bytes(port)))
    }
}

// ---------------------------------------------------------------------
// Value blobs
// ---------------------------------------------------------------------

fn put_value(out: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Null => out.push(0x00),
        Value::Bool(false) => out.push(0x01),
        Value::Bool(true) => out.push(0x02),
        Value::Int(n) => {
            out.push(0x03);
            put_varint(out, ((n << 1) ^ (n >> 63)) as u64);
        }
        Value::UInt(n) => {
            out.push(0x04);
            put_varint(out, *n);
        }
        Value::Float(f) => {
            out.push(0x05);
            put_f64(out, *f);
        }
        Value::Str(s) => {
            out.push(0x06);
            put_str(out, s);
        }
        Value::Seq(items) => {
            out.push(0x07);
            put_varint(out, items.len() as u64);
            for item in items {
                put_value(out, item);
            }
        }
        Value::Map(entries) => {
            out.push(0x08);
            put_varint(out, entries.len() as u64);
            for (key, entry) in entries {
                put_str(out, key);
                put_value(out, entry);
            }
        }
    }
}

fn read_value(reader: &mut Reader<'_>, depth: u32) -> Result<Value, WireError> {
    if depth > MAX_VALUE_DEPTH {
        return Err(malformed("value nesting too deep"));
    }
    match reader.read_u8()? {
        0x00 => Ok(Value::Null),
        0x01 => Ok(Value::Bool(false)),
        0x02 => Ok(Value::Bool(true)),
        0x03 => {
            let zigzag = reader.read_varint()?;
            Ok(Value::Int(((zigzag >> 1) as i64) ^ -((zigzag & 1) as i64)))
        }
        0x04 => Ok(Value::UInt(reader.read_varint()?)),
        0x05 => Ok(Value::Float(reader.read_f64()?)),
        0x06 => Ok(Value::Str(reader.read_str()?)),
        0x07 => {
            let count = reader.read_count(1)?;
            let mut items = Vec::with_capacity(count);
            for _ in 0..count {
                items.push(read_value(reader, depth + 1)?);
            }
            Ok(Value::Seq(items))
        }
        0x08 => {
            let count = reader.read_count(2)?;
            let mut entries = Vec::with_capacity(count);
            for _ in 0..count {
                let key = reader.read_str()?;
                entries.push((key, read_value(reader, depth + 1)?));
            }
            Ok(Value::Map(entries))
        }
        other => Err(malformed(format!("invalid value tag {other}"))),
    }
}

fn put_serialized<T: Serialize>(out: &mut Vec<u8>, value: &T) {
    put_value(out, &value.to_value());
}

fn read_deserialized<T: Deserialize>(reader: &mut Reader<'_>, what: &str) -> Result<T, WireError> {
    let value = read_value(reader, 0)?;
    T::from_value(&value).map_err(|e| malformed(format!("invalid {what}: {e}")))
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

fn put_header(out: &mut Vec<u8>, kind: u8) {
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    out.push(kind);
}

/// Strips and validates the 5-byte header, returning the message kind and a
/// reader positioned at the payload.
fn open_frame(bytes: &[u8]) -> Result<(u8, Reader<'_>), WireError> {
    let mut reader = Reader::new(bytes);
    let magic = reader.take(2)?;
    if magic != MAGIC {
        return Err(malformed("bad magic"));
    }
    let version_bytes: [u8; 2] = reader.take(2)?.try_into().expect("2 bytes");
    let found = u16::from_le_bytes(version_bytes);
    if found != PROTOCOL_VERSION {
        return Err(WireError::VersionMismatch {
            expected: PROTOCOL_VERSION,
            found,
        });
    }
    let kind = reader.read_u8()?;
    Ok((kind, reader))
}

fn finish<T>(reader: Reader<'_>, message: T) -> Result<T, WireError> {
    if reader.is_empty() {
        Ok(message)
    } else {
        Err(malformed("trailing bytes after message"))
    }
}

/// A message's canonical, compact byte encoding, framed under the
/// [`PROTOCOL_VERSION`] header.
pub trait BinaryMessage: Sized {
    /// Encodes the message to its framed binary form.
    fn encode_binary(&self) -> Vec<u8>;

    /// Decodes a framed binary message.
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] for anything structurally wrong (bad magic,
    /// wrong kind, truncation, trailing bytes, invalid coordinates, a
    /// snapshot [`NodeSnapshot::validate`] refuses);
    /// [`WireError::VersionMismatch`] when the header carries a different
    /// [`PROTOCOL_VERSION`].
    fn decode_binary(bytes: &[u8]) -> Result<Self, WireError>;
}

fn put_request<Id: WireId>(out: &mut Vec<u8>, request: &ProbeRequest<Id>) {
    request.target.encode_id(out);
    put_option(out, request.source.as_ref(), |out, id| id.encode_id(out));
    put_varint(out, request.seq);
    put_varint(out, request.sent_at_ms);
}

fn read_request<Id: WireId>(reader: &mut Reader<'_>) -> Result<ProbeRequest<Id>, WireError> {
    let target = Id::decode_id(reader)?;
    let source = if reader.read_option()? {
        Some(Id::decode_id(reader)?)
    } else {
        None
    };
    Ok(ProbeRequest {
        target,
        source,
        seq: reader.read_varint()?,
        sent_at_ms: reader.read_varint()?,
    })
}

impl<Id: WireId> BinaryMessage for ProbeRequest<Id> {
    fn encode_binary(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        put_header(&mut out, KIND_REQUEST);
        put_request(&mut out, self);
        out
    }

    fn decode_binary(bytes: &[u8]) -> Result<Self, WireError> {
        let (kind, mut reader) = open_frame(bytes)?;
        if kind != KIND_REQUEST {
            return Err(malformed(format!("expected request, found kind {kind}")));
        }
        let request = read_request(&mut reader)?;
        finish(reader, request)
    }
}

fn put_response<Id: WireId>(out: &mut Vec<u8>, response: &ProbeResponse<Id>) {
    response.responder.encode_id(out);
    put_varint(out, response.seq);
    put_varint(out, response.sent_at_ms);
    put_coordinate(out, &response.coordinate);
    put_f64(out, response.error_estimate);
    put_varint(out, response.gossip.len() as u64);
    for entry in &response.gossip {
        entry.id.encode_id(out);
        put_coordinate(out, &entry.coordinate);
        put_f64(out, entry.error_estimate);
    }
    put_f64(out, response.rtt_ms);
}

fn read_response<Id: WireId>(reader: &mut Reader<'_>) -> Result<ProbeResponse<Id>, WireError> {
    let responder = Id::decode_id(reader)?;
    let seq = reader.read_varint()?;
    let sent_at_ms = reader.read_varint()?;
    let coordinate = reader.read_coordinate()?;
    let error_estimate = reader.read_f64()?;
    let count = reader.read_count(1)?;
    let mut gossip = Vec::with_capacity(count);
    for _ in 0..count {
        let id = Id::decode_id(reader)?;
        let coordinate = reader.read_coordinate()?;
        let error_estimate = reader.read_f64()?;
        gossip.push(GossipEntry {
            id,
            coordinate,
            error_estimate,
        });
    }
    let response = ProbeResponse {
        responder,
        seq,
        sent_at_ms,
        coordinate,
        error_estimate,
        gossip,
        rtt_ms: reader.read_f64()?,
    };
    response.require_finite()?;
    Ok(response)
}

impl<Id: WireId> BinaryMessage for ProbeResponse<Id> {
    fn encode_binary(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(96);
        put_header(&mut out, KIND_RESPONSE);
        put_response(&mut out, self);
        out
    }

    fn decode_binary(bytes: &[u8]) -> Result<Self, WireError> {
        let (kind, mut reader) = open_frame(bytes)?;
        if kind != KIND_RESPONSE {
            return Err(malformed(format!("expected response, found kind {kind}")));
        }
        let response = read_response(&mut reader)?;
        finish(reader, response)
    }
}

impl<Id: WireId + Eq + Hash> BinaryMessage for NodeSnapshot<Id> {
    fn encode_binary(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(512);
        put_header(&mut out, KIND_SNAPSHOT);
        put_serialized(&mut out, &self.vivaldi);
        put_serialized(&mut out, &self.application);
        put_varint(&mut out, self.links.len() as u64);
        for link in &self.links {
            link.id.encode_id(&mut out);
            put_option(&mut out, link.filter.as_ref(), put_serialized);
            put_coordinate(&mut out, &link.coordinate);
            put_f64(&mut out, link.error_estimate);
            put_option(&mut out, link.filtered_rtt_ms.as_ref(), |out, &rtt| {
                put_f64(out, rtt)
            });
            put_varint(&mut out, link.observations);
        }
        put_option(
            &mut out,
            self.nearest_neighbor.as_ref(),
            |out, (id, rtt)| {
                id.encode_id(out);
                put_f64(out, *rtt);
            },
        );
        put_varint(&mut out, self.observations);
        put_option(&mut out, self.identity.as_ref(), |out, id| {
            id.encode_id(out)
        });
        put_varint(&mut out, self.membership.len() as u64);
        for member in &self.membership {
            member.encode_id(&mut out);
        }
        put_varint(&mut out, self.probe_cursor as u64);
        put_varint(&mut out, self.probe_seq);
        put_varint(&mut out, self.gossip_cursor as u64);
        put_varint(&mut out, self.pending.len() as u64);
        for probe in &self.pending {
            probe.target.encode_id(&mut out);
            put_varint(&mut out, probe.seq);
            put_varint(&mut out, probe.sent_at_ms);
        }
        put_varint(&mut out, self.loss_streaks.len() as u64);
        for (id, streak) in &self.loss_streaks {
            id.encode_id(&mut out);
            put_varint(&mut out, u64::from(*streak));
        }
        out
    }

    fn decode_binary(bytes: &[u8]) -> Result<Self, WireError> {
        let (kind, mut reader) = open_frame(bytes)?;
        if kind != KIND_SNAPSHOT {
            return Err(malformed(format!("expected snapshot, found kind {kind}")));
        }
        let vivaldi = read_deserialized(&mut reader, "vivaldi state")?;
        let application = read_deserialized(&mut reader, "application state")?;
        let link_count = reader.read_count(1)?;
        let mut links = Vec::with_capacity(link_count);
        for _ in 0..link_count {
            let id = Id::decode_id(&mut reader)?;
            let filter = if reader.read_option()? {
                Some(read_deserialized(&mut reader, "filter state")?)
            } else {
                None
            };
            let coordinate = reader.read_coordinate()?;
            let error_estimate = reader.read_f64()?;
            let filtered_rtt_ms = if reader.read_option()? {
                Some(reader.read_f64()?)
            } else {
                None
            };
            let observations = reader.read_varint()?;
            links.push(LinkSnapshot {
                id,
                filter,
                coordinate,
                error_estimate,
                filtered_rtt_ms,
                observations,
            });
        }
        let nearest_neighbor = if reader.read_option()? {
            let id = Id::decode_id(&mut reader)?;
            let rtt = reader.read_f64()?;
            Some((id, rtt))
        } else {
            None
        };
        let observations = reader.read_varint()?;
        let identity = if reader.read_option()? {
            Some(Id::decode_id(&mut reader)?)
        } else {
            None
        };
        let member_count = reader.read_count(1)?;
        let mut membership = Vec::with_capacity(member_count);
        for _ in 0..member_count {
            membership.push(Id::decode_id(&mut reader)?);
        }
        let probe_cursor = usize::try_from(reader.read_varint()?)
            .map_err(|_| malformed("probe cursor overflows usize"))?;
        let probe_seq = reader.read_varint()?;
        let gossip_cursor = usize::try_from(reader.read_varint()?)
            .map_err(|_| malformed("gossip cursor overflows usize"))?;
        let pending_count = reader.read_count(1)?;
        let mut pending = Vec::with_capacity(pending_count);
        for _ in 0..pending_count {
            let target = Id::decode_id(&mut reader)?;
            let seq = reader.read_varint()?;
            let sent_at_ms = reader.read_varint()?;
            pending.push(PendingProbe {
                target,
                seq,
                sent_at_ms,
            });
        }
        let streak_count = reader.read_count(1)?;
        let mut loss_streaks = Vec::with_capacity(streak_count);
        for _ in 0..streak_count {
            let id = Id::decode_id(&mut reader)?;
            let streak = u32::try_from(reader.read_varint()?)
                .map_err(|_| malformed("loss streak overflows u32"))?;
            loss_streaks.push((id, streak));
        }
        let snapshot = NodeSnapshot {
            vivaldi,
            application,
            links,
            nearest_neighbor,
            observations,
            identity,
            membership,
            probe_cursor,
            probe_seq,
            gossip_cursor,
            pending,
            loss_streaks,
        };
        let snapshot = finish(reader, snapshot)?;
        snapshot
            .validate()
            .map_err(|e| malformed(format!("invalid snapshot: {e}")))?;
        Ok(snapshot)
    }
}

/// One decoded datagram: what a single-socket transport demultiplexes into.
///
/// A UDP node receives requests and responses on the same socket; the
/// message-kind byte in the header tells them apart without trial decoding.
#[derive(Debug, Clone, PartialEq)]
pub enum Packet<Id> {
    /// An incoming probe of this node.
    Request(ProbeRequest<Id>),
    /// A reply to one of this node's own probes.
    Response(ProbeResponse<Id>),
}

impl<Id: WireId> Packet<Id> {
    /// Decodes one datagram into a request or a response.
    ///
    /// # Errors
    ///
    /// Same contract as [`BinaryMessage::decode_binary`]; a snapshot kind is
    /// rejected as [`WireError::Malformed`] (snapshots are files, not
    /// datagrams).
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let (kind, mut reader) = open_frame(bytes)?;
        match kind {
            KIND_REQUEST => {
                let request = read_request(&mut reader)?;
                finish(reader, Packet::Request(request))
            }
            KIND_RESPONSE => {
                let response = read_response(&mut reader)?;
                finish(reader, Packet::Response(response))
            }
            other => Err(malformed(format!("unexpected datagram kind {other}"))),
        }
    }

    /// Encodes the packet to its framed binary form.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Packet::Request(request) => request.encode_binary(),
            Packet::Response(response) => response.encode_binary(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_round_trip_at_the_boundaries() {
        for value in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX - 1, u64::MAX] {
            let mut out = Vec::new();
            put_varint(&mut out, value);
            let mut reader = Reader::new(&out);
            assert_eq!(reader.read_varint().unwrap(), value);
            assert!(reader.is_empty());
        }
    }

    #[test]
    fn overlong_varint_is_rejected() {
        // 11 continuation bytes can never be a valid u64.
        let bytes = [0x80u8; 11];
        assert!(Reader::new(&bytes).read_varint().is_err());
        // 10 bytes whose top byte sets bits beyond the 64th.
        let bytes = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02];
        assert!(Reader::new(&bytes).read_varint().is_err());
    }

    #[test]
    fn socket_addrs_round_trip() {
        let addrs: [SocketAddr; 3] = [
            "127.0.0.1:9000".parse().unwrap(),
            "255.255.255.255:65535".parse().unwrap(),
            "[2001:db8::1]:443".parse().unwrap(),
        ];
        for addr in addrs {
            let mut out = Vec::new();
            addr.encode_id(&mut out);
            let mut reader = Reader::new(&out);
            assert_eq!(SocketAddr::decode_id(&mut reader).unwrap(), addr);
            assert!(reader.is_empty());
        }
    }

    #[test]
    fn zigzag_ints_round_trip() {
        for n in [0i64, -1, 1, -2, i64::MIN, i64::MAX] {
            let mut out = Vec::new();
            put_value(&mut out, &Value::Int(n));
            let mut reader = Reader::new(&out);
            assert_eq!(read_value(&mut reader, 0).unwrap(), Value::Int(n));
        }
    }

    #[test]
    fn hostile_list_count_is_rejected_without_allocating() {
        // kind byte for a response, then a gossip count of u64::MAX: the
        // count check must reject it instead of attempting the allocation.
        let mut bytes = Vec::new();
        put_header(&mut bytes, KIND_RESPONSE);
        7u64.encode_id(&mut bytes); // responder
        put_varint(&mut bytes, 1); // seq
        put_varint(&mut bytes, 2); // sent_at
        put_coordinate(&mut bytes, &Coordinate::origin(3));
        put_f64(&mut bytes, 0.5);
        put_varint(&mut bytes, u64::MAX); // gossip count
        assert!(matches!(
            ProbeResponse::<u64>::decode_binary(&bytes),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn deep_value_nesting_is_rejected() {
        let mut bytes = Vec::new();
        put_header(&mut bytes, KIND_SNAPSHOT);
        for _ in 0..200 {
            bytes.push(0x07); // Seq
            bytes.push(1); // of one element
        }
        bytes.push(0x00);
        assert!(matches!(
            NodeSnapshot::<u64>::decode_binary(&bytes),
            Err(WireError::Malformed(_))
        ));
    }
}
