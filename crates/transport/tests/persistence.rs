//! Snapshot files across versions and crashes.
//!
//! `fixtures/snapshot-v2.bin` is a daemon's snapshot written under protocol
//! version 2 (a paper-defaults node with a measured peer, a gossip-only
//! peer and a probe in flight). Version 3 changed the snapshot layout, and
//! an old file is refused, not migrated: the node that owns it must be
//! started without it (move the file aside) and re-converges from the
//! origin. A write killed before its rename leaves the previous snapshot
//! in place.

use std::net::{SocketAddr, UdpSocket};
use std::path::PathBuf;

use nc_proto::{BinaryMessage, NodeSnapshot, ProbeResponse, WireError};
use nc_transport::{load_snapshot, save_snapshot, NodeRuntime, RuntimeConfig};
use nc_vivaldi::Coordinate;
use stable_nc::{NodeConfig, StableNode};

const SNAPSHOT_V2: &[u8] = include_bytes!("fixtures/snapshot-v2.bin");

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nc-persistence-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// The snapshot of a node that has probed one peer `probes` times.
fn snapshot_after(probes: u64) -> NodeSnapshot<SocketAddr> {
    let peer: SocketAddr = "127.0.0.1:4000".parse().unwrap();
    let mut node: StableNode<SocketAddr> = StableNode::new(NodeConfig::paper_defaults());
    node.set_identity("127.0.0.1:3999".parse().unwrap());
    let remote = Coordinate::new(vec![10.0, 20.0, 0.0]).unwrap();
    let mut events = Vec::new();
    for step in 0..probes {
        let request = node.probe_request_for(peer, step);
        let mut response = ProbeResponse::new(peer, &request, remote.clone(), 0.5);
        response.rtt_ms = 45.0 + (step % 3) as f64;
        node.handle_response_into(&response, &mut events);
    }
    node.snapshot()
}

#[test]
fn a_v2_snapshot_is_refused_with_a_version_mismatch() {
    assert_eq!(&SNAPSHOT_V2[..5], &[0x4E, 0x43, 0x02, 0x00, 0x03]);
    assert_eq!(
        NodeSnapshot::<SocketAddr>::decode_binary(SNAPSHOT_V2),
        Err(WireError::VersionMismatch {
            expected: 3,
            found: 2
        })
    );
    let dir = temp_dir("v2");
    let path = dir.join("node.snapshot");
    std::fs::write(&path, SNAPSHOT_V2).unwrap();
    let err = load_snapshot(&path).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("version"), "{err}");

    // A daemon pointed at the file refuses to start, and leaves the file
    // as it was for its operator to move aside.
    let socket = UdpSocket::bind("127.0.0.1:0").expect("bind");
    let started = NodeRuntime::start(
        socket,
        RuntimeConfig {
            snapshot_path: Some(path.clone()),
            ..RuntimeConfig::default()
        },
    );
    let err = started.err().expect("a v2 snapshot must not start a node");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert_eq!(std::fs::read(&path).unwrap(), SNAPSHOT_V2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_write_killed_before_its_rename_leaves_the_previous_snapshot() {
    let dir = temp_dir("killed");
    let path = dir.join("node.snapshot");
    let tmp = dir.join("node.snapshot.tmp");
    let previous = snapshot_after(8);
    save_snapshot(&path, &previous).unwrap();
    assert!(!tmp.exists(), "the rename consumed the temporary file");

    // The next save died halfway through writing its bytes.
    let next = snapshot_after(16);
    let bytes = next.encode_binary();
    std::fs::write(&tmp, &bytes[..bytes.len() / 2]).unwrap();
    assert_eq!(load_snapshot(&path).unwrap(), previous);

    // The save after it replaces both.
    save_snapshot(&path, &next).unwrap();
    assert!(!tmp.exists());
    assert_eq!(load_snapshot(&path).unwrap(), next);
    std::fs::remove_dir_all(&dir).ok();
}
