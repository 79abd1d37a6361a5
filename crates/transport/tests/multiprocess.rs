//! Multi-process deployment test: three `nc-node` processes on loopback.
//!
//! This is the closest the test suite gets to a real deployment: separate
//! OS processes, discovering each other through seed addresses and gossip,
//! exchanging binary datagrams over real sockets, and persisting snapshots
//! on exit. The test drives the actual `nc-node` binary (Cargo builds it
//! and exposes the path via `CARGO_BIN_EXE_nc-node`).

use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

use nc_proto::{BinaryMessage, NodeSnapshot};

const NC_NODE: &str = env!("CARGO_BIN_EXE_nc-node");

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nc-multiprocess-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn spawn_node(duration_s: u64, snapshot: &PathBuf, seeds: &[SocketAddr]) -> Child {
    let mut command = Command::new(NC_NODE);
    command
        .arg("--bind")
        .arg("127.0.0.1:0")
        .arg("--probe-interval-ms")
        .arg("25")
        .arg("--probe-timeout-ms")
        .arg("500")
        .arg("--stats-interval-s")
        .arg("1")
        .arg("--duration-s")
        .arg(duration_s.to_string())
        .arg("--snapshot")
        .arg(snapshot);
    for seed in seeds {
        command.arg("--seed").arg(seed.to_string());
    }
    command
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .stdin(Stdio::null())
        .spawn()
        .expect("spawn nc-node")
}

/// Reads the `nc-node listening on ADDR` banner from a child's stdout.
/// Byte-by-byte: a buffered reader would swallow lines printed after the
/// banner, and `wait_with_output` must still see them.
fn read_listen_addr(child: &mut Child) -> SocketAddr {
    use std::io::Read;
    let stdout = child.stdout.as_mut().expect("piped stdout");
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    while stdout.read(&mut byte).expect("banner byte") == 1 && byte[0] != b'\n' {
        line.push(byte[0]);
    }
    let line = String::from_utf8(line).expect("banner is UTF-8");
    let addr = line
        .trim()
        .strip_prefix("nc-node listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {line:?}"));
    addr.parse().expect("listen address parses")
}

#[test]
fn three_processes_converge_and_persist_restorable_snapshots() {
    let dir = temp_dir("trio");
    let snapshots: Vec<PathBuf> = (0..3).map(|i| dir.join(format!("node-{i}.snap"))).collect();

    // The first node is the rendezvous: the others seed from its address
    // and learn about each other through gossip.
    let mut first = spawn_node(4, &snapshots[0], &[]);
    let first_addr = read_listen_addr(&mut first);
    let mut second = spawn_node(3, &snapshots[1], &[first_addr]);
    let second_addr = read_listen_addr(&mut second);
    let mut third = spawn_node(3, &snapshots[2], &[first_addr]);
    let third_addr = read_listen_addr(&mut third);
    assert_ne!(second_addr, third_addr);

    let children = [first, second, third];
    let mut outputs = Vec::new();
    for child in children {
        let output = child
            .wait_with_output()
            .expect("nc-node runs to completion");
        assert!(
            output.status.success(),
            "nc-node exited with {:?}",
            output.status
        );
        outputs.push(String::from_utf8_lossy(&output.stdout).to_string());
    }

    for (index, output) in outputs.iter().enumerate() {
        // Each process printed stats lines and its final summary.
        assert!(
            output.contains("nc-node final:"),
            "node {index} printed no final line:\n{output}"
        );
        assert!(
            output.contains("nc-node snapshot persisted"),
            "node {index} persisted no snapshot:\n{output}"
        );
        // The periodic stats lines (`--stats-interval-s 1`) come before it.
        let (periodic, _) = output.split_once("nc-node final:").expect("final line");
        assert!(
            periodic
                .lines()
                .any(|line| line.starts_with("[127.0.0.1:") && line.contains("recv=")),
            "node {index} printed no periodic stats line:\n{output}"
        );
        // The final line proves real cross-process traffic: probes were
        // answered and responses heard.
        let final_line = output
            .lines()
            .find(|line| line.contains("nc-node final:"))
            .expect("final line");
        let recv: u64 = final_line
            .split_whitespace()
            .find_map(|field| field.strip_prefix("recv="))
            .expect("recv field")
            .parse()
            .expect("recv count");
        assert!(recv > 0, "node {index} heard no responses: {final_line}");
    }

    // Gossip spread the third node's address: the second node's snapshot
    // knows more peers than its single seed.
    let mut snapshot_peer_counts = Vec::new();
    for path in &snapshots {
        let bytes = std::fs::read(path).expect("snapshot file");
        let snapshot = NodeSnapshot::<SocketAddr>::decode_binary(&bytes).expect("decodes");
        assert!(snapshot.observations > 0);
        snapshot_peer_counts.push(snapshot.membership.len());
    }
    assert!(
        snapshot_peer_counts[1] >= 2 || snapshot_peer_counts[2] >= 2,
        "gossip should spread beyond the seed: {snapshot_peer_counts:?}"
    );

    // A persisted snapshot restarts a process with its coordinate intact.
    let mut restarted = spawn_node(1, &snapshots[1], &[first_addr]);
    let _ = read_listen_addr(&mut restarted);
    let output = restarted.wait_with_output().expect("restart completes");
    assert!(output.status.success());
    let text = String::from_utf8_lossy(&output.stdout);
    assert!(
        text.contains("nc-node restored snapshot"),
        "restart must announce the restore:\n{text}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_flags_exit_with_usage() {
    let output = Command::new(NC_NODE)
        .arg("--nonsense")
        .stdin(Stdio::null())
        .output()
        .expect("run nc-node");
    assert_eq!(output.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&output.stderr).contains("usage:"));

    let output = Command::new(NC_NODE)
        .stdin(Stdio::null())
        .output()
        .expect("run nc-node");
    assert_eq!(output.status.code(), Some(2), "--bind is required");
}

#[test]
fn config_rules_nc_node_refuses_a_zero_loss_limit() {
    // Accepted, a limit of zero evicted every peer after its first loss.
    let output = Command::new(NC_NODE)
        .args(["--bind", "127.0.0.1:0", "--max-consecutive-losses", "0"])
        .args(["--duration-s", "1", "--stats-interval-s", "0"])
        .stdin(Stdio::null())
        .output()
        .expect("run nc-node");
    // A clean refusal (exit 1), not a panic inside the runtime (101).
    assert_eq!(output.status.code(), Some(1), "{:?}", output.status);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("max consecutive losses must be at least 1"),
        "{stderr}"
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(!stdout.contains("nc-node listening"), "{stdout}");
}
