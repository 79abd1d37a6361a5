//! Snapshot persistence: binary `NodeSnapshot` files with atomic replace.
//!
//! A node runtime persists its engine state on graceful shutdown and
//! restores it on the next start, so a restarted node rejoins the overlay
//! with its coordinate, filter windows and probe schedule intact instead of
//! re-converging from the origin. Files carry the framed binary form of
//! [`NodeSnapshot`] (see `nc_proto::binary`), so they are protocol-version
//! checked on load like every other message.

use std::fs::File;
use std::io::{self, Write};
use std::net::SocketAddr;
use std::path::Path;

use nc_proto::{BinaryMessage, NodeSnapshot};

/// Writes `snapshot` to `path` durably and atomically: the bytes land in a
/// sibling `.tmp` file, which is synced to disk before a rename replaces the
/// destination, and the directory is synced after the rename so that the
/// rename is on disk too. A crash or a power loss at any point leaves the
/// old snapshot or the new one, never a truncated one.
pub fn save_snapshot(path: &Path, snapshot: &NodeSnapshot<SocketAddr>) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let mut file = File::create(&tmp)?;
    file.write_all(&snapshot.encode_binary())?;
    file.sync_all()?;
    std::fs::rename(&tmp, path)?;
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
}

/// Loads a snapshot previously written by [`save_snapshot`].
///
/// A file written under another protocol version is refused, not migrated:
/// move it aside, and the node starts afresh and re-converges.
///
/// # Errors
///
/// I/O errors pass through; a malformed or version-mismatched file surfaces
/// as [`io::ErrorKind::InvalidData`], carrying the [`nc_proto::WireError`]
/// message.
pub fn load_snapshot(path: &Path) -> io::Result<NodeSnapshot<SocketAddr>> {
    let bytes = std::fs::read(path)?;
    NodeSnapshot::decode_binary(&bytes)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use stable_nc::{NodeConfig, StableNode};

    #[test]
    fn snapshots_survive_the_file_round_trip() {
        let dir = std::env::temp_dir().join(format!("nc-persist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("node.snapshot");

        let mut node: StableNode<SocketAddr> = StableNode::new(NodeConfig::paper_defaults());
        let peer: SocketAddr = "127.0.0.1:4000".parse().unwrap();
        node.set_identity("127.0.0.1:3999".parse().unwrap());
        let remote = nc_vivaldi::Coordinate::new(vec![10.0, 20.0, 0.0]).unwrap();
        let mut events = Vec::new();
        for step in 0..32u64 {
            let request = node.probe_request_for(peer, step);
            let mut response = nc_proto::ProbeResponse::new(peer, &request, remote.clone(), 0.5);
            response.rtt_ms = 45.0 + (step % 3) as f64;
            node.handle_response_into(&response, &mut events);
        }

        let snapshot = node.snapshot();
        save_snapshot(&path, &snapshot).unwrap();
        let loaded = load_snapshot(&path).unwrap();
        assert_eq!(loaded, snapshot);

        let restored = StableNode::restore(NodeConfig::paper_defaults(), &loaded).unwrap();
        assert_eq!(restored.system_coordinate(), node.system_coordinate());

        // A truncated file is InvalidData, not a panic.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let err = load_snapshot(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).ok();
    }
}
