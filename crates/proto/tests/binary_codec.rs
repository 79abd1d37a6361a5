//! Golden-bytes fixtures and property tests for the binary wire codec.
//!
//! The golden fixtures pin the exact byte layout documented in
//! `nc_proto::binary` — any accidental change to the format fails these
//! tests before it silently breaks cross-version deployments. The property
//! tests establish the codec's two safety contracts: every message
//! round-trips bit-exactly, and no input (truncated, corrupted, hostile)
//! can make the decoder panic.

use std::net::SocketAddr;

use nc_proto::binary::{KIND_REQUEST, KIND_RESPONSE, KIND_SNAPSHOT, MAGIC};
use nc_proto::{
    BinaryMessage, GossipEntry, NodeSnapshot, Packet, ProbeRequest, ProbeResponse, SnapshotError,
    WireError, PROTOCOL_VERSION,
};
use nc_vivaldi::Coordinate;
use proptest::prelude::*;

fn le_f64(value: f64) -> [u8; 8] {
    value.to_bits().to_le_bytes()
}

#[test]
fn request_golden_bytes() {
    let request: ProbeRequest<u32> = ProbeRequest::new(7, 300, 45).from_source(1);
    let expected: Vec<u8> = vec![
        0x4E, 0x43, // magic "NC"
        0x03, 0x00, // protocol version 3, u16 LE
        0x01, // kind: request
        0x07, // target id 7 (varint)
        0x01, 0x01, // source present, id 1
        0xAC, 0x02, // seq 300 (varint: 0x2C | 0x80, 0x02)
        0x2D, // sent_at_ms 45
    ];
    assert_eq!(request.encode_binary(), expected);
    assert_eq!(
        ProbeRequest::<u32>::decode_binary(&expected).unwrap(),
        request
    );
}

#[test]
fn response_golden_bytes() {
    let addr: SocketAddr = "127.0.0.1:9000".parse().unwrap();
    let request: ProbeRequest<SocketAddr> = ProbeRequest::new(addr, 5, 1000);
    let response = ProbeResponse::new(
        addr,
        &request,
        Coordinate::new(vec![1.5, -2.0, 0.25]).unwrap(),
        0.5,
    );
    let mut expected: Vec<u8> = vec![
        0x4E, 0x43, // magic
        0x03, 0x00, // version 3
        0x02, // kind: response
        0x04, 127, 0, 0, 1, 0x28, 0x23, // responder 127.0.0.1:9000 (port LE)
        0x05, // seq 5
        0xE8, 0x07, // sent_at_ms 1000
        0x03, // coordinate: 3 dimensions
    ];
    expected.extend_from_slice(&le_f64(1.5));
    expected.extend_from_slice(&le_f64(-2.0));
    expected.extend_from_slice(&le_f64(0.25));
    expected.extend_from_slice(&le_f64(0.0)); // height
    expected.extend_from_slice(&le_f64(0.5)); // error estimate
    expected.push(0x00); // empty gossip list
    expected.extend_from_slice(&le_f64(0.0)); // rtt (stamped by the prober)
    assert_eq!(response.encode_binary(), expected);
    assert_eq!(
        ProbeResponse::<SocketAddr>::decode_binary(&expected).unwrap(),
        response
    );
}

/// A small snapshot holding one of each shape the layout has: a
/// moving-percentile link, a gossip-only link with no filter, a windowed
/// heuristic state, a pending probe and a loss streak.
fn golden_snapshot() -> NodeSnapshot<u32> {
    use nc_change::{ApplicationState, DetectorState, HeuristicState};
    use nc_filters::FilterState;
    use nc_proto::{LinkSnapshot, PendingProbe};
    use nc_vivaldi::VivaldiRuntime;

    let at = |x: f64| Coordinate::new(vec![x]).unwrap();
    NodeSnapshot {
        vivaldi: VivaldiRuntime {
            coordinate: at(12.5),
            error_estimate: 0.25,
            observation_count: 3,
            total_displacement_ms: 20.0,
            tie_break_state: 5,
        },
        application: ApplicationState {
            coordinate: at(10.0),
            update_count: 1,
            system_updates_seen: 3,
            total_displacement_ms: 10.0,
            heuristic: HeuristicState::Windowed(DetectorState {
                start: vec![at(10.0)],
                current: vec![at(12.5)],
                pushes_since_reset: 2,
                total_pushes: 3,
                change_points: 1,
            }),
        },
        links: vec![
            LinkSnapshot {
                id: 1,
                filter: Some(FilterState::MovingPercentile {
                    window: vec![40.0, 42.0],
                    seen: 2,
                }),
                coordinate: at(50.0),
                error_estimate: 0.5,
            },
            LinkSnapshot {
                id: 2,
                filter: None,
                coordinate: at(-30.0),
                error_estimate: 0.75,
            },
        ],
        nearest_neighbor: Some((1, 40.0)),
        observations: 2,
        identity: Some(0),
        membership: vec![1, 2],
        probe_cursor: 2,
        probe_seq: 4,
        gossip_cursor: 1,
        pending: vec![PendingProbe {
            target: 2,
            seq: 3,
            sent_at_ms: 300,
        }],
        loss_streaks: vec![(2, 1)],
    }
}

#[test]
fn snapshot_golden_bytes() {
    let snapshot = golden_snapshot();
    // A 1-D coordinate: dimension byte, component, height 0.
    let coordinate = |out: &mut Vec<u8>, x: f64| {
        out.push(0x01);
        out.extend_from_slice(&le_f64(x));
        out.extend_from_slice(&le_f64(0.0));
    };
    let mut expected: Vec<u8> = vec![
        0x4E, 0x43, // magic
        0x03, 0x00, // version 3
        0x03, // kind: snapshot
    ];
    // Vivaldi state.
    coordinate(&mut expected, 12.5);
    expected.extend_from_slice(&le_f64(0.25)); // error estimate
    expected.push(0x03); // observation count
    expected.extend_from_slice(&le_f64(20.0)); // displacement total
    expected.push(0x05); // tie-break state
                         // Application state.
    coordinate(&mut expected, 10.0);
    expected.extend_from_slice(&[0x01, 0x03]); // updates, system updates seen
    expected.extend_from_slice(&le_f64(10.0)); // displacement total
    expected.push(0x02); // heuristic state: Windowed
    expected.push(0x01); // start window: one coordinate
    coordinate(&mut expected, 10.0);
    expected.push(0x01); // current window: one coordinate
    coordinate(&mut expected, 12.5);
    expected.extend_from_slice(&[0x02, 0x03, 0x01]); // since reset, pushes, change points
                                                     // Links.
    expected.push(0x02); // two links
    expected.extend_from_slice(&[0x01, 0x01, 0x01]); // id 1, filter present: MovingPercentile
    expected.push(0x02); // window of two samples
    expected.extend_from_slice(&le_f64(40.0));
    expected.extend_from_slice(&le_f64(42.0));
    expected.push(0x02); // seen
    coordinate(&mut expected, 50.0);
    expected.extend_from_slice(&le_f64(0.5)); // error estimate
    expected.extend_from_slice(&[0x02, 0x00]); // id 2, no filter: known by gossip
    coordinate(&mut expected, -30.0);
    expected.extend_from_slice(&le_f64(0.75));
    // Nearest neighbour: link 1 at 40 ms.
    expected.extend_from_slice(&[0x01, 0x01]);
    expected.extend_from_slice(&le_f64(40.0));
    expected.extend_from_slice(&[
        0x02, // observations
        0x01, 0x00, // identity 0
        0x02, 0x01, 0x02, // membership [1, 2]
        0x02, // probe cursor
        0x04, // probe seq
        0x01, // gossip cursor
        0x01, 0x02, 0x03, 0xAC, 0x02, // one pending probe: target 2, seq 3, sent at 300
        0x01, 0x02, 0x01, // one loss streak: peer 2, one loss
    ]);
    assert_eq!(snapshot.encode_binary(), expected);
    assert_eq!(
        NodeSnapshot::<u32>::decode_binary(&expected).unwrap(),
        snapshot
    );
}

#[test]
fn header_is_shared_and_versioned() {
    type Decode = fn(&[u8]) -> Result<(), WireError>;
    let request: ProbeRequest<String> = ProbeRequest::new("b".into(), 2, 3);
    let response = ProbeResponse::new("b".to_string(), &request, Coordinate::origin(3), 0.5);
    // Each kind's frame beside its own decoder.
    let kinds: [(u8, Vec<u8>, Decode); 3] = [
        (KIND_REQUEST, request.encode_binary(), |bytes| {
            ProbeRequest::<String>::decode_binary(bytes).map(drop)
        }),
        (KIND_RESPONSE, response.encode_binary(), |bytes| {
            ProbeResponse::<String>::decode_binary(bytes).map(drop)
        }),
        (KIND_SNAPSHOT, sample_snapshot().encode_binary(), |bytes| {
            NodeSnapshot::<String>::decode_binary(bytes).map(drop)
        }),
    ];
    for (kind, bytes, decode) in &kinds {
        assert_eq!(&bytes[..2], &MAGIC);
        assert_eq!(u16::from_le_bytes([bytes[2], bytes[3]]), PROTOCOL_VERSION);
        assert_eq!(bytes[4], *kind);
        assert_eq!(decode(bytes), Ok(()), "kind {kind}");

        // A bumped version is a VersionMismatch, not garbage decoding.
        let mut bumped = bytes.clone();
        bumped[2..4].copy_from_slice(&(PROTOCOL_VERSION + 1).to_le_bytes());
        assert_eq!(
            decode(&bumped),
            Err(WireError::VersionMismatch {
                expected: PROTOCOL_VERSION,
                found: PROTOCOL_VERSION + 1,
            }),
            "kind {kind}"
        );

        // Every other kind's decoder refuses the frame as Malformed.
        for (other, _, decode_other) in &kinds {
            if other != kind {
                assert!(
                    matches!(decode_other(bytes), Err(WireError::Malformed(_))),
                    "kind {kind} decoded as kind {other}"
                );
            }
        }
    }
}

#[test]
fn packet_demultiplexes_requests_and_responses() {
    let request: ProbeRequest<String> = ProbeRequest::new("b".into(), 9, 100);
    let response = ProbeResponse::new("b".to_string(), &request, Coordinate::origin(3), 0.4)
        .with_gossip(GossipEntry {
            id: "c".to_string(),
            coordinate: Coordinate::new(vec![3.0, 4.0, 0.0]).unwrap(),
            error_estimate: 0.9,
        });
    assert_eq!(
        Packet::decode(&request.encode_binary()).unwrap(),
        Packet::Request(request.clone())
    );
    assert_eq!(
        Packet::decode(&response.encode_binary()).unwrap(),
        Packet::Response(response.clone())
    );
    // Packet::encode is the same bytes as the message's own encoding.
    assert_eq!(
        Packet::Request(request.clone()).encode(),
        request.encode_binary()
    );
    assert_eq!(
        Packet::Response(response.clone()).encode(),
        response.encode_binary()
    );
    // Snapshots are files, not datagrams.
    let snapshot = sample_snapshot();
    assert!(matches!(
        Packet::<String>::decode(&snapshot.encode_binary()),
        Err(WireError::Malformed(_))
    ));
}

fn sample_snapshot() -> NodeSnapshot<String> {
    use nc_change::{ApplicationState, HeuristicState};
    use nc_filters::FilterState;
    use nc_proto::{LinkSnapshot, PendingProbe};
    use nc_vivaldi::{VivaldiConfig, VivaldiState};

    NodeSnapshot {
        vivaldi: VivaldiState::new(VivaldiConfig::paper_defaults()).export_state(),
        application: ApplicationState {
            coordinate: Coordinate::new(vec![1.0, 2.0, 3.0]).unwrap(),
            update_count: 4,
            system_updates_seen: 100,
            total_displacement_ms: 17.5,
            heuristic: HeuristicState::Stateless,
        },
        links: vec![LinkSnapshot {
            id: "peer-a".into(),
            filter: Some(FilterState::MovingPercentile {
                window: vec![80.0, 81.5],
                seen: 2,
            }),
            coordinate: Coordinate::new(vec![10.0, 0.0, 0.0]).unwrap(),
            error_estimate: 0.5,
        }],
        nearest_neighbor: Some(("peer-a".into(), 80.0)),
        observations: 2,
        identity: Some("self".into()),
        membership: vec!["peer-a".into(), "peer-b".into()],
        probe_cursor: 1,
        probe_seq: 3,
        gossip_cursor: 0,
        pending: vec![PendingProbe {
            target: "peer-b".into(),
            seq: 2,
            sent_at_ms: 900,
        }],
        loss_streaks: vec![("peer-b".into(), 1)],
    }
}

#[test]
fn snapshot_round_trips_through_the_binary_form() {
    let snapshot = sample_snapshot();
    let bytes = snapshot.encode_binary();
    assert_eq!(bytes[4], KIND_SNAPSHOT);
    let decoded = NodeSnapshot::<String>::decode_binary(&bytes).unwrap();
    assert_eq!(decoded, snapshot);
    assert_eq!(decoded.neighbor_count(), 1);
    assert_eq!(decoded.application_coordinate().components()[0], 1.0);
    // Encoding is canonical: re-encoding the decoded snapshot is
    // byte-identical.
    assert_eq!(decoded.encode_binary(), bytes);
}

#[test]
fn every_truncation_is_rejected_and_never_panics() {
    let addr: SocketAddr = "10.0.0.1:4242".parse().unwrap();
    let request: ProbeRequest<SocketAddr> = ProbeRequest::new(addr, 77, 12_345).from_source(addr);
    let response = ProbeResponse::new(
        addr,
        &request,
        Coordinate::new(vec![5.0, -1.0, 2.0]).unwrap(),
        0.3,
    )
    .with_gossip(GossipEntry {
        id: "[::1]:9".parse().unwrap(),
        coordinate: Coordinate::origin(3),
        error_estimate: 0.7,
    });
    let snapshot = sample_snapshot();

    let request_bytes = request.encode_binary();
    let response_bytes = response.encode_binary();
    let snapshot_bytes = snapshot.encode_binary();
    for len in 0..request_bytes.len() {
        assert!(ProbeRequest::<SocketAddr>::decode_binary(&request_bytes[..len]).is_err());
    }
    for len in 0..response_bytes.len() {
        assert!(ProbeResponse::<SocketAddr>::decode_binary(&response_bytes[..len]).is_err());
        assert!(Packet::<SocketAddr>::decode(&response_bytes[..len]).is_err());
    }
    for len in 0..snapshot_bytes.len() {
        assert!(NodeSnapshot::<String>::decode_binary(&snapshot_bytes[..len]).is_err());
    }
    // Trailing garbage is rejected too: one datagram, one message.
    let mut padded = request_bytes.clone();
    padded.push(0);
    assert!(ProbeRequest::<SocketAddr>::decode_binary(&padded).is_err());
}

#[test]
fn non_finite_floats_cannot_enter_off_the_wire() {
    let request: ProbeRequest<u64> = ProbeRequest::new(7, 0, 0);
    let response = ProbeResponse::new(
        7u64,
        &request,
        Coordinate::new(vec![1.5, -2.0, 0.25]).unwrap(),
        0.4,
    );
    let clean = response.encode_binary();
    // The first coordinate component starts right after the header, the
    // responder varint, two varints and the dimension byte.
    let component_offset = 5 + 1 + 1 + 1 + 1;
    let mut poisoned = clean.clone();
    poisoned[component_offset..component_offset + 8]
        .copy_from_slice(&f64::INFINITY.to_bits().to_le_bytes());
    assert!(matches!(
        ProbeResponse::<u64>::decode_binary(&poisoned),
        Err(WireError::Malformed(_))
    ));
    // NaN error estimates are rejected as well (they would otherwise reach
    // the neighbour table before the engine's own sanitation).
    let error_offset = clean.len() - 8 - 1 - 8;
    let mut poisoned = clean.clone();
    poisoned[error_offset..error_offset + 8].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
    assert!(matches!(
        ProbeResponse::<u64>::decode_binary(&poisoned),
        Err(WireError::Malformed(_))
    ));
}

#[test]
fn a_snapshot_link_with_a_non_finite_error_estimate_is_malformed() {
    // The encoder writes whatever it is handed; the decoder must refuse what
    // the response decoder refuses, because a restored node gossips the
    // link's error estimate onward verbatim.
    for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut snapshot = sample_snapshot();
        snapshot.links[0].error_estimate = poison;
        assert!(matches!(
            NodeSnapshot::<String>::decode_binary(&snapshot.encode_binary()),
            Err(WireError::Malformed(_))
        ));
    }
}

#[test]
fn a_snapshot_breaking_a_rule_of_validate_is_malformed() {
    use nc_filters::{FilterState, StateMismatch};
    type Poison = fn(&mut NodeSnapshot<String>);
    let counters = |family, seen| SnapshotError::Filter(StateMismatch::Counters { family, seen });
    // A non-finite link error estimate is the case of the test above.
    let cases: [(Poison, SnapshotError); 20] = [
        (
            |s| {
                s.links[0].filter = Some(FilterState::Raw {
                    last: Some(-3.0),
                    seen: 1,
                })
            },
            SnapshotError::Filter(StateMismatch::Sample {
                family: "raw",
                value: -3.0,
            }),
        ),
        // A window of three samples counted as none seen.
        (
            |s| {
                s.links[0].filter = Some(FilterState::MovingPercentile {
                    window: vec![5.0, 6.0, 7.0],
                    seen: 0,
                })
            },
            counters("moving-percentile", 0),
        ),
        // Seven discarded of one seen.
        (
            |s| {
                s.links[0].filter = Some(FilterState::Threshold {
                    last_passed: Some(80.0),
                    seen: 1,
                    discarded: 7,
                })
            },
            counters("threshold", 1),
        ),
        (
            |s| s.nearest_neighbor = Some(("peer-b".into(), 80.0)),
            SnapshotError::NearestNeighbor,
        ),
        (
            |s| s.nearest_neighbor = Some(("peer-a".into(), f64::NAN)),
            SnapshotError::NearestNeighbor,
        ),
        (
            |s| s.nearest_neighbor = Some(("peer-a".into(), -1.0)),
            SnapshotError::NearestNeighbor,
        ),
        (
            |s| s.membership.push("peer-a".into()),
            SnapshotError::Membership,
        ),
        (
            |s| s.membership.push("self".into()),
            SnapshotError::Membership,
        ),
        (
            |s| s.application.total_displacement_ms = f64::NAN,
            SnapshotError::Displacement,
        ),
        (
            |s| s.application.total_displacement_ms = -1.0,
            SnapshotError::Displacement,
        ),
        (
            |s| s.vivaldi.total_displacement_ms = f64::INFINITY,
            SnapshotError::Displacement,
        ),
        (
            |s| s.vivaldi.total_displacement_ms = -0.5,
            SnapshotError::Displacement,
        ),
        (|s| s.loss_streaks[0].1 = 0, SnapshotError::LossStreak),
        (
            |s| s.loss_streaks.push(("peer-b".into(), 2)),
            SnapshotError::LossStreak,
        ),
        (
            |s| s.loss_streaks.push(("stranger".into(), 2)),
            SnapshotError::LossStreak,
        ),
        // Numbered before the probe it follows.
        (
            |s| {
                s.pending.push(nc_proto::PendingProbe {
                    target: "peer-a".into(),
                    seq: 1,
                    sent_at_ms: 950,
                })
            },
            SnapshotError::Pending,
        ),
        // `probe_seq` is the number the *next* probe carries.
        (|s| s.pending[0].seq = 3, SnapshotError::Pending),
        (
            |s| s.pending[0].target = "stranger".into(),
            SnapshotError::Pending,
        ),
        // A probe of the node itself is never entered as pending.
        (
            |s| s.pending[0].target = "self".into(),
            SnapshotError::Pending,
        ),
        // Two members: the cursor stands at most past the second.
        (|s| s.probe_cursor = 3, SnapshotError::ProbeCursor),
    ];
    assert_eq!(sample_snapshot().validate(), Ok(()));
    let mut unmoved = sample_snapshot();
    unmoved.application.total_displacement_ms = 0.0;
    assert_eq!(unmoved.validate(), Ok(()));
    // A cursor at the end of the rotation, and a lost probe of a link
    // outside the membership, are snapshots an engine takes.
    let mut at_end = sample_snapshot();
    at_end.probe_cursor = at_end.membership.len();
    assert_eq!(at_end.validate(), Ok(()));
    let mut outside = sample_snapshot();
    outside.membership.retain(|id| id != "peer-a");
    outside.pending[0].target = "peer-a".into();
    outside.loss_streaks[0].0 = "peer-a".into();
    assert_eq!(outside.validate(), Ok(()));
    for (index, (poison, expected)) in cases.into_iter().enumerate() {
        let mut snapshot = sample_snapshot();
        poison(&mut snapshot);
        assert_eq!(snapshot.validate(), Err(expected), "case {index}");
        let err = NodeSnapshot::<String>::decode_binary(&snapshot.encode_binary()).unwrap_err();
        assert!(
            matches!(&err, WireError::Malformed(detail) if detail.starts_with("invalid snapshot")),
            "case {index}: {err}"
        );
    }
}

#[test]
fn a_response_with_a_nan_error_estimate_or_rtt_is_malformed() {
    // The encoder writes whatever it is handed; the decoder refuses every
    // non-finite value a node would store and gossip onward.
    let request: ProbeRequest<u64> = ProbeRequest::new(7, 0, 0);
    let clean =
        ProbeResponse::new(7u64, &request, Coordinate::origin(3), 0.4).with_gossip(GossipEntry {
            id: 9,
            coordinate: Coordinate::origin(3),
            error_estimate: 0.9,
        });
    assert_eq!(
        ProbeResponse::<u64>::decode_binary(&clean.encode_binary()),
        Ok(clean.clone())
    );
    let poisons: [fn(&mut ProbeResponse<u64>); 3] = [
        |response| response.error_estimate = f64::NAN,
        |response| response.gossip[0].error_estimate = f64::NAN,
        |response| response.rtt_ms = f64::NAN,
    ];
    for poison in poisons {
        let mut response = clean.clone();
        poison(&mut response);
        assert!(matches!(
            ProbeResponse::<u64>::decode_binary(&response.encode_binary()),
            Err(WireError::Malformed(_))
        ));
    }
}

proptest! {
    #[test]
    fn requests_round_trip(
        target in 0u64..u64::MAX,
        source in 0u64..u64::MAX,
        has_source in 0u8..2,
        seq in 0u64..u64::MAX,
        sent_at in 0u64..u64::MAX,
    ) {
        let mut request: ProbeRequest<u64> = ProbeRequest::new(target, seq, sent_at);
        if has_source == 1 {
            request = request.from_source(source);
        }
        let bytes = request.encode_binary();
        prop_assert_eq!(ProbeRequest::<u64>::decode_binary(&bytes).unwrap(), request);
    }

    #[test]
    fn responses_round_trip(
        components in proptest::collection::vec(-5_000.0f64..5_000.0, 1..8),
        height in 0.0f64..100.0,
        error in 0.0f64..10.0,
        rtt in 0.0f64..100_000.0,
        seq in 0u64..u64::MAX,
        sent_at in 0u64..1_000_000_000,
        gossip_components in proptest::collection::vec(-100.0f64..100.0, 3usize),
        gossip_count in 0usize..4,
    ) {
        let dims = components.len();
        let coordinate = Coordinate::with_height(&components, height).unwrap();
        let request: ProbeRequest<String> = ProbeRequest::new("peer".into(), seq, sent_at);
        let mut response = ProbeResponse::new("peer".to_string(), &request, coordinate, error);
        response.rtt_ms = rtt;
        for index in 0..gossip_count {
            // Gossip coordinates must share the responder's dimensionality
            // only in the engine, not on the wire — mix freely here.
            response = response.with_gossip(GossipEntry {
                id: format!("gossip-{index}"),
                coordinate: Coordinate::new(&gossip_components).unwrap(),
                error_estimate: error,
            });
        }
        let bytes = response.encode_binary();
        let decoded = ProbeResponse::<String>::decode_binary(&bytes).unwrap();
        prop_assert_eq!(decoded.coordinate.dimensions(), dims);
        prop_assert_eq!(decoded, response);
    }

    #[test]
    fn snapshots_round_trip(
        observations in 0u64..1_000_000,
        probe_cursor in 0usize..=2,
        seq_gap in 1u64..1_000_000,
        gossip_cursor in 0usize..64,
        streak in 1u32..1_000,
        window in proptest::collection::vec(1.0f64..500.0, 1..6),
        pending_seq in 0u64..1_000_000,
        sent_at in 0u64..1_000_000_000,
    ) {
        use nc_filters::FilterState;
        let mut snapshot = sample_snapshot();
        prop_assert_eq!(snapshot.membership.len(), 2);
        snapshot.observations = observations;
        snapshot.probe_cursor = probe_cursor;
        snapshot.probe_seq = pending_seq + seq_gap;
        snapshot.gossip_cursor = gossip_cursor;
        snapshot.loss_streaks = vec![("peer-b".to_string(), streak)];
        snapshot.links[0].filter = Some(FilterState::MovingPercentile {
            window,
            seen: observations,
        });
        snapshot.pending = vec![nc_proto::PendingProbe {
            target: "peer-b".to_string(),
            seq: pending_seq,
            sent_at_ms: sent_at,
        }];
        let bytes = snapshot.encode_binary();
        let decoded = NodeSnapshot::<String>::decode_binary(&bytes).unwrap();
        prop_assert_eq!(decoded, snapshot);
    }

    #[test]
    fn single_byte_corruption_never_panics(
        position_fraction in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let addr: SocketAddr = "192.168.1.7:5353".parse().unwrap();
        let request: ProbeRequest<SocketAddr> = ProbeRequest::new(addr, 9, 1_234);
        let response = ProbeResponse::new(
            addr,
            &request,
            Coordinate::new(vec![12.0, 34.0, 56.0]).unwrap(),
            0.25,
        );
        let mut bytes = response.encode_binary();
        let position = ((bytes.len() - 1) as f64 * position_fraction) as usize;
        bytes[position] ^= flip;
        // Either error or a decoded message — never a panic.
        let _ = Packet::<SocketAddr>::decode(&bytes);
        let _ = ProbeResponse::<SocketAddr>::decode_binary(&bytes);
    }
}
