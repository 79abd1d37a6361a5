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
//! the [`Coordinate`] invariants, so NaN/∞ cannot enter off the wire, and
//! refuses a component or height beyond ±10¹⁰⁰ ms: finite, but so large
//! that a distance to it would overflow to ∞ and turn the coordinate it
//! pulls on into NaN.
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
//! **`NodeSnapshot`** (kind `0x03`): the fields below in this order, each
//! sub-state in its fixed layout (next section).
//!
//! | field              | layout                                               |
//! |--------------------|------------------------------------------------------|
//! | `vivaldi`          | Vivaldi state                                        |
//! | `application`      | application state                                    |
//! | `links`            | list(link: id · option(filter state) · coordinate · f64 error_estimate) |
//! | `nearest_neighbor` | option(id · f64 rtt)                                 |
//! | `observations`     | varint                                               |
//! | `identity`         | option(id)                                           |
//! | `membership`       | list(id)                                             |
//! | `probe_cursor`     | varint                                               |
//! | `probe_seq`        | varint                                               |
//! | `gossip_cursor`    | varint                                               |
//! | `pending`          | list(id target · varint seq · varint sent_at_ms)     |
//! | `loss_streaks`     | list(id · varint streak)                             |
//!
//! Decoding rejects a non-finite `error_estimate` or `rtt_ms` of a response
//! or gossip entry, and a snapshot [`NodeSnapshot::validate`] refuses, as
//! [`WireError::Malformed`]: they are values a node stores and hands on.
//!
//! # Snapshot sub-states
//!
//! A sub-state is its fields back to back in a fixed order, with no field
//! name or type marker; an enum opens with one tag byte naming its variant,
//! and an unknown tag is [`WireError::Malformed`]. Every list count is
//! checked against the bytes left before anything is allocated.
//!
//! | sub-state                              | layout                              |
//! |----------------------------------------|-------------------------------------|
//! | Vivaldi state ([`VivaldiRuntime`])     | coordinate · f64 error_estimate · varint observation_count · f64 total_displacement_ms · varint tie_break_state |
//! | application state ([`ApplicationState`]) | coordinate · varint update_count · varint system_updates_seen · f64 total_displacement_ms · heuristic state |
//! | detector state ([`DetectorState`])     | list(coordinate start) · list(coordinate current) · varint pushes_since_reset · varint total_pushes · varint change_points |
//!
//! Heuristic state ([`HeuristicState`]):
//!
//! | tag    | variant     | payload                                |
//! |--------|-------------|----------------------------------------|
//! | `0x00` | `Stateless` | —                                      |
//! | `0x01` | `System`    | option(coordinate previous_system)     |
//! | `0x02` | `Windowed`  | detector state                         |
//! | `0x03` | `Centroid`  | list(coordinate window)                |
//!
//! Filter state ([`FilterState`]):
//!
//! | tag    | variant            | payload                                         |
//! |--------|--------------------|-------------------------------------------------|
//! | `0x00` | `Raw`              | option(f64 last) · varint seen                  |
//! | `0x01` | `MovingPercentile` | list(f64 window) · varint seen                  |
//! | `0x02` | `Ewma`             | option(f64 value) · varint seen                 |
//! | `0x03` | `Threshold`        | option(f64 last_passed) · varint seen · varint discarded |

use std::hash::Hash;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr};

use nc_change::{ApplicationState, DetectorState, HeuristicState};
use nc_filters::FilterState;
use nc_vivaldi::{Coordinate, VivaldiRuntime, MAX_DIMS};

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

/// The fewest bytes a coordinate takes: one dimension and the height.
const MIN_COORDINATE_BYTES: usize = 1 + 8 + 8;

/// The largest magnitude a decoded coordinate component or height may
/// have (ms). Squares of differences of such values sum far below
/// `f64::MAX` in any dimensionality up to [`MAX_DIMS`], and adding a
/// latency to one does not move it.
const MAX_COORDINATE_MS: f64 = 1e100;

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

fn put_list<T>(out: &mut Vec<u8>, items: &[T], mut put: impl FnMut(&mut Vec<u8>, &T)) {
    put_varint(out, items.len() as u64);
    for item in items {
        put(out, item);
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

    /// Reads an option marker and, when present, the payload `read` reads.
    fn read_some<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, WireError>,
    ) -> Result<Option<T>, WireError> {
        if self.read_option()? {
            read(self).map(Some)
        } else {
            Ok(None)
        }
    }

    /// Reads a list of elements of at least `min_element_bytes` each.
    fn read_list<T>(
        &mut self,
        min_element_bytes: usize,
        mut read: impl FnMut(&mut Self) -> Result<T, WireError>,
    ) -> Result<Vec<T>, WireError> {
        let count = self.read_count(min_element_bytes)?;
        let mut items = Vec::with_capacity(count);
        for _ in 0..count {
            items.push(read(self)?);
        }
        Ok(items)
    }

    /// Reads a varint that must fit a `usize`.
    fn read_usize(&mut self, what: &str) -> Result<usize, WireError> {
        usize::try_from(self.read_varint()?)
            .map_err(|_| malformed(format!("{what} overflows usize")))
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
        if components[..dims]
            .iter()
            .chain([&height])
            .any(|value| value.abs() > MAX_COORDINATE_MS)
        {
            return Err(malformed("coordinate beyond the latency space"));
        }
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
// Snapshot sub-states
// ---------------------------------------------------------------------

fn read_coordinates(reader: &mut Reader<'_>) -> Result<Vec<Coordinate>, WireError> {
    reader.read_list(MIN_COORDINATE_BYTES, Reader::read_coordinate)
}

fn put_f64_option(out: &mut Vec<u8>, value: Option<f64>) {
    put_option(out, value.as_ref(), |out, &value| put_f64(out, value));
}

fn put_vivaldi(out: &mut Vec<u8>, state: &VivaldiRuntime) {
    put_coordinate(out, &state.coordinate);
    put_f64(out, state.error_estimate);
    put_varint(out, state.observation_count);
    put_f64(out, state.total_displacement_ms);
    put_varint(out, state.tie_break_state);
}

fn read_vivaldi(reader: &mut Reader<'_>) -> Result<VivaldiRuntime, WireError> {
    Ok(VivaldiRuntime {
        coordinate: reader.read_coordinate()?,
        error_estimate: reader.read_f64()?,
        observation_count: reader.read_varint()?,
        total_displacement_ms: reader.read_f64()?,
        tie_break_state: reader.read_varint()?,
    })
}

fn put_application(out: &mut Vec<u8>, state: &ApplicationState) {
    put_coordinate(out, &state.coordinate);
    put_varint(out, state.update_count);
    put_varint(out, state.system_updates_seen);
    put_f64(out, state.total_displacement_ms);
    put_heuristic(out, &state.heuristic);
}

fn read_application(reader: &mut Reader<'_>) -> Result<ApplicationState, WireError> {
    Ok(ApplicationState {
        coordinate: reader.read_coordinate()?,
        update_count: reader.read_varint()?,
        system_updates_seen: reader.read_varint()?,
        total_displacement_ms: reader.read_f64()?,
        heuristic: read_heuristic(reader)?,
    })
}

fn put_heuristic(out: &mut Vec<u8>, state: &HeuristicState) {
    match state {
        HeuristicState::Stateless => out.push(0x00),
        HeuristicState::System { previous_system } => {
            out.push(0x01);
            put_option(out, previous_system.as_ref(), put_coordinate);
        }
        HeuristicState::Windowed(detector) => {
            out.push(0x02);
            put_list(out, &detector.start, put_coordinate);
            put_list(out, &detector.current, put_coordinate);
            put_varint(out, detector.pushes_since_reset);
            put_varint(out, detector.total_pushes);
            put_varint(out, detector.change_points);
        }
        HeuristicState::Centroid { window } => {
            out.push(0x03);
            put_list(out, window, put_coordinate);
        }
    }
}

fn read_heuristic(reader: &mut Reader<'_>) -> Result<HeuristicState, WireError> {
    Ok(match reader.read_u8()? {
        0x00 => HeuristicState::Stateless,
        0x01 => HeuristicState::System {
            previous_system: reader.read_some(Reader::read_coordinate)?,
        },
        0x02 => HeuristicState::Windowed(DetectorState {
            start: read_coordinates(reader)?,
            current: read_coordinates(reader)?,
            pushes_since_reset: reader.read_varint()?,
            total_pushes: reader.read_varint()?,
            change_points: reader.read_varint()?,
        }),
        0x03 => HeuristicState::Centroid {
            window: read_coordinates(reader)?,
        },
        other => return Err(malformed(format!("invalid heuristic state tag {other}"))),
    })
}

fn put_filter(out: &mut Vec<u8>, state: &FilterState) {
    match state {
        FilterState::Raw { last, seen } => {
            out.push(0x00);
            put_f64_option(out, *last);
            put_varint(out, *seen);
        }
        FilterState::MovingPercentile { window, seen } => {
            out.push(0x01);
            put_list(out, window, |out, &sample| put_f64(out, sample));
            put_varint(out, *seen);
        }
        FilterState::Ewma { value, seen } => {
            out.push(0x02);
            put_f64_option(out, *value);
            put_varint(out, *seen);
        }
        FilterState::Threshold {
            last_passed,
            seen,
            discarded,
        } => {
            out.push(0x03);
            put_f64_option(out, *last_passed);
            put_varint(out, *seen);
            put_varint(out, *discarded);
        }
    }
}

fn read_filter(reader: &mut Reader<'_>) -> Result<FilterState, WireError> {
    Ok(match reader.read_u8()? {
        0x00 => FilterState::Raw {
            last: reader.read_some(Reader::read_f64)?,
            seen: reader.read_varint()?,
        },
        0x01 => FilterState::MovingPercentile {
            window: reader.read_list(8, Reader::read_f64)?,
            seen: reader.read_varint()?,
        },
        0x02 => FilterState::Ewma {
            value: reader.read_some(Reader::read_f64)?,
            seen: reader.read_varint()?,
        },
        0x03 => FilterState::Threshold {
            last_passed: reader.read_some(Reader::read_f64)?,
            seen: reader.read_varint()?,
            discarded: reader.read_varint()?,
        },
        other => return Err(malformed(format!("invalid filter state tag {other}"))),
    })
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
    Ok(ProbeRequest {
        target: Id::decode_id(reader)?,
        source: reader.read_some(Id::decode_id)?,
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
    put_list(out, &response.gossip, |out, entry| {
        entry.id.encode_id(out);
        put_coordinate(out, &entry.coordinate);
        put_f64(out, entry.error_estimate);
    });
    put_f64(out, response.rtt_ms);
}

fn read_response<Id: WireId>(reader: &mut Reader<'_>) -> Result<ProbeResponse<Id>, WireError> {
    let responder = Id::decode_id(reader)?;
    let seq = reader.read_varint()?;
    let sent_at_ms = reader.read_varint()?;
    let coordinate = reader.read_coordinate()?;
    let error_estimate = reader.read_f64()?;
    let gossip = reader.read_list(1, |reader| {
        Ok(GossipEntry {
            id: Id::decode_id(reader)?,
            coordinate: reader.read_coordinate()?,
            error_estimate: reader.read_f64()?,
        })
    })?;
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
        put_vivaldi(&mut out, &self.vivaldi);
        put_application(&mut out, &self.application);
        put_list(&mut out, &self.links, |out, link| {
            link.id.encode_id(out);
            put_option(out, link.filter.as_ref(), put_filter);
            put_coordinate(out, &link.coordinate);
            put_f64(out, link.error_estimate);
        });
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
        put_list(&mut out, &self.membership, |out, id| id.encode_id(out));
        put_varint(&mut out, self.probe_cursor as u64);
        put_varint(&mut out, self.probe_seq);
        put_varint(&mut out, self.gossip_cursor as u64);
        put_list(&mut out, &self.pending, |out, probe| {
            probe.target.encode_id(out);
            put_varint(out, probe.seq);
            put_varint(out, probe.sent_at_ms);
        });
        put_list(&mut out, &self.loss_streaks, |out, (id, streak)| {
            id.encode_id(out);
            put_varint(out, u64::from(*streak));
        });
        out
    }

    fn decode_binary(bytes: &[u8]) -> Result<Self, WireError> {
        let (kind, mut reader) = open_frame(bytes)?;
        if kind != KIND_SNAPSHOT {
            return Err(malformed(format!("expected snapshot, found kind {kind}")));
        }
        let snapshot = NodeSnapshot {
            vivaldi: read_vivaldi(&mut reader)?,
            application: read_application(&mut reader)?,
            links: reader.read_list(1, |reader| {
                Ok(LinkSnapshot {
                    id: Id::decode_id(reader)?,
                    filter: reader.read_some(read_filter)?,
                    coordinate: reader.read_coordinate()?,
                    error_estimate: reader.read_f64()?,
                })
            })?,
            nearest_neighbor: reader
                .read_some(|reader| Ok((Id::decode_id(reader)?, reader.read_f64()?)))?,
            observations: reader.read_varint()?,
            identity: reader.read_some(Id::decode_id)?,
            membership: reader.read_list(1, Id::decode_id)?,
            probe_cursor: reader.read_usize("probe cursor")?,
            probe_seq: reader.read_varint()?,
            gossip_cursor: reader.read_usize("gossip cursor")?,
            pending: reader.read_list(1, |reader| {
                Ok(PendingProbe {
                    target: Id::decode_id(reader)?,
                    seq: reader.read_varint()?,
                    sent_at_ms: reader.read_varint()?,
                })
            })?,
            loss_streaks: reader.read_list(1, |reader| {
                let id = Id::decode_id(reader)?;
                let streak = u32::try_from(reader.read_varint()?)
                    .map_err(|_| malformed("loss streak overflows u32"))?;
                Ok((id, streak))
            })?,
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
    fn decoding_a_coordinate_enforces_construction_invariants() {
        let coordinate = |dims: u8, component: f64, height: f64| {
            let mut out = vec![dims];
            for _ in 0..dims {
                put_f64(&mut out, component);
            }
            put_f64(&mut out, height);
            out
        };
        // A well-formed coordinate round-trips…
        let bytes = coordinate(2, 1.5, 3.0);
        let decoded = Reader::new(&bytes).read_coordinate().unwrap();
        assert_eq!(
            decoded,
            Coordinate::with_height(vec![1.5, 1.5], 3.0).unwrap()
        );
        // …as does one at the edge of the latency space…
        let bytes = coordinate(1, -MAX_COORDINATE_MS, MAX_COORDINATE_MS);
        assert!(Reader::new(&bytes).read_coordinate().is_ok());
        // …but one breaking an invariant of construction is Malformed:
        // a non-finite component, no dimension, a negative height, more
        // dimensions than a coordinate holds. So is one whose distances
        // would overflow.
        for bytes in [
            coordinate(2, f64::NAN, 0.0),
            coordinate(2, f64::INFINITY, 0.0),
            coordinate(2, 1e101, 0.0),
            coordinate(2, -1e300, 0.0),
            coordinate(2, 1.0, 1e300),
            coordinate(0, 1.0, 0.0),
            coordinate(1, 1.0, -4.0),
            coordinate(MAX_DIMS as u8 + 1, 1.0, 0.0),
        ] {
            assert!(matches!(
                Reader::new(&bytes).read_coordinate(),
                Err(WireError::Malformed(_))
            ));
        }
    }

    #[test]
    fn a_coordinate_is_written_with_its_active_components_only() {
        let mut out = Vec::new();
        put_coordinate(&mut out, &Coordinate::new(vec![1.0, 2.0]).unwrap());
        assert_eq!(
            out.len(),
            1 + 2 * 8 + 8,
            "dimension byte, components, height"
        );
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

    /// A snapshot frame up to its heuristic state, which `heuristic`
    /// opens with; then, when `filter` is given, one link whose filter
    /// state opens with those bytes.
    fn snapshot_opening(heuristic: &[u8], filter: Option<&[u8]>) -> Vec<u8> {
        let mut out = Vec::new();
        put_header(&mut out, KIND_SNAPSHOT);
        let vivaldi = nc_vivaldi::VivaldiState::new(Default::default());
        put_vivaldi(&mut out, &vivaldi.export_state());
        put_coordinate(&mut out, &Coordinate::origin(3));
        put_varint(&mut out, 0); // update count
        put_varint(&mut out, 0); // system updates seen
        put_f64(&mut out, 0.0); // displacement
        out.extend_from_slice(heuristic);
        if let Some(filter) = filter {
            put_varint(&mut out, 1); // one link
            7u64.encode_id(&mut out);
            out.push(1); // with a filter
            out.extend_from_slice(filter);
        }
        out
    }

    #[test]
    fn a_hostile_snapshot_count_is_rejected_without_allocating() {
        // A heuristic window, or a link's filter window, claiming u64::MAX
        // entries: the count check must reject it instead of attempting
        // the allocation.
        let mut huge = Vec::new();
        put_varint(&mut huge, u64::MAX);
        let windowed = snapshot_opening(&[&[0x02][..], &huge].concat(), None);
        let filtered = snapshot_opening(&[0x00], Some(&[&[0x01][..], &huge].concat()));
        for bytes in [windowed, filtered] {
            assert!(matches!(
                NodeSnapshot::<u64>::decode_binary(&bytes),
                Err(WireError::Malformed(detail)) if detail.contains("count exceeds")
            ));
        }
    }

    #[test]
    fn an_unknown_sub_state_tag_is_malformed() {
        let cases = [
            (snapshot_opening(&[0x04], None), "heuristic state tag 4"),
            (
                snapshot_opening(&[0x00], Some(&[0x04])),
                "filter state tag 4",
            ),
        ];
        for (bytes, detail) in cases {
            assert!(matches!(
                NodeSnapshot::<u64>::decode_binary(&bytes),
                Err(WireError::Malformed(found)) if found.contains(detail)
            ));
        }
    }
}
