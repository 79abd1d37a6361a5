//! A five-node UDP cluster on loopback, behind the delay-injecting harness.
//!
//! Run with `cargo run --example udp_cluster`. Five real node runtimes
//! (real sockets, real threads, binary datagrams) measure each other across
//! an emulated network — per-link delays, jitter, 3% loss, 3% duplication —
//! converge to the emulated round trips, and one node is killed and
//! restarted from its persisted snapshot to show that it rejoins with its
//! coordinate intact. For one-node-per-process deployments, see the
//! `nc-node` binary (`cargo run -p nc-transport --bin nc-node -- --help`).

#![allow(clippy::print_stdout, clippy::print_stderr)] // An example shows its results.

use std::net::UdpSocket;
use std::time::Duration;

use nc_transport::{DelayHarness, LinkSpec, NodeRuntime, RuntimeConfig};
use stable_nc::NodeConfig;

const NODES: usize = 5;

/// Node positions on a plane (milliseconds): the emulated RTT of a pair is
/// their euclidean distance.
const POSITIONS: [(f64, f64); NODES] = [
    (0.0, 0.0),
    (30.0, 0.0),
    (0.0, 40.0),
    (60.0, 45.0),
    (25.0, 70.0),
];

fn planar_rtt(a: usize, b: usize) -> f64 {
    let (ax, ay) = POSITIONS[a];
    let (bx, by) = POSITIONS[b];
    ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt()
}

fn main() -> std::io::Result<()> {
    // Bind the real sockets first: the harness needs their addresses.
    let sockets: Vec<UdpSocket> = (0..NODES)
        .map(|_| UdpSocket::bind("127.0.0.1:0"))
        .collect::<std::io::Result<_>>()?;
    let real_addrs: Vec<_> = sockets
        .iter()
        .map(|socket| socket.local_addr())
        .collect::<std::io::Result<_>>()?;

    let mut builder = DelayHarness::builder(NODES).seed(7);
    for a in 0..NODES {
        for b in (a + 1)..NODES {
            builder = builder.link(
                a,
                b,
                LinkSpec::from_rtt(planar_rtt(a, b))
                    .with_jitter(1.0)
                    .with_loss(0.03)
                    .with_duplication(0.03),
            );
        }
    }
    let harness = builder.start(&real_addrs)?;

    let snapshot_dir = std::env::temp_dir().join(format!("nc-udp-cluster-{}", std::process::id()));
    std::fs::create_dir_all(&snapshot_dir)?;
    let config_for = |index: usize| RuntimeConfig {
        node: NodeConfig::paper_defaults(),
        seeds: (0..NODES)
            .filter(|&peer| peer != index)
            .map(|peer| harness.public_addr(peer))
            .collect(),
        advertised_addr: Some(harness.public_addr(index)),
        probe_interval_ms: 5,
        probe_timeout_ms: 500,
        snapshot_path: Some(snapshot_dir.join(format!("node-{index}.snapshot"))),
    };

    println!("starting {NODES} nodes behind the delay harness ...");
    let mut runtimes: Vec<NodeRuntime> = Vec::new();
    for (index, socket) in sockets.into_iter().enumerate() {
        runtimes.push(NodeRuntime::start(socket, config_for(index))?);
    }

    println!("converging for 4 s of real probing (3% loss, 3% duplication) ...");
    std::thread::sleep(Duration::from_secs(4));

    let coordinates: Vec<_> = runtimes.iter().map(|r| r.coordinate().0).collect();
    println!("\n  pair   emulated   estimated    error");
    for a in 0..NODES {
        for b in (a + 1)..NODES {
            let actual = harness.emulated_rtt_ms(a, b);
            let estimated = coordinates[a].distance(&coordinates[b]);
            println!(
                "  {a} ↔ {b}   {actual:6.1} ms  {estimated:6.1} ms  {:5.1}%",
                100.0 * (estimated - actual).abs() / actual
            );
        }
    }
    let ignored: u64 = runtimes.iter().map(|r| r.stats().responses_ignored).sum();
    println!(
        "\nharness: {} datagrams forwarded, {} dropped, {} duplicated; \
         engines ignored {ignored} uncorrelated replies",
        harness.forwarded(),
        harness.dropped(),
        harness.duplicated()
    );

    // Kill node 0 and restart it from its snapshot on a fresh socket.
    println!("\nkilling node 0 and restarting it from its snapshot ...");
    let node0 = runtimes.remove(0);
    let snapshot = node0.shutdown()?;
    let parked = snapshot.system_coordinate().clone();
    let socket = UdpSocket::bind("127.0.0.1:0")?;
    harness.update_real_addr(0, socket.local_addr()?);
    let node0 = NodeRuntime::start(socket, config_for(0))?;
    let (restored, _) = node0.coordinate();
    println!(
        "  snapshot coordinate:  {:?}\n  restored coordinate:  {:?}  ({:.2} ms apart)",
        parked.components(),
        restored.components(),
        restored.distance(&parked)
    );
    std::thread::sleep(Duration::from_millis(500));
    let stats = node0.stats();
    println!(
        "  after 500 ms back in the overlay: sent={} recv={} — rejoined without resetting",
        stats.probes_sent, stats.responses_received
    );

    node0.shutdown()?;
    for runtime in runtimes {
        runtime.shutdown()?;
    }
    std::fs::remove_dir_all(&snapshot_dir).ok();
    Ok(())
}
