//! End-to-end integration over real UDP sockets behind the delay harness.
//!
//! This is the acceptance run for the transport layer: eight real node
//! runtimes exchange thousands of probes across an emulated two-cluster
//! topology with jitter, 5% loss and duplicated datagrams, converge to the
//! topology's round trips, and one node is killed and restarted from its
//! persisted snapshot without resetting its coordinate. The smaller tests
//! surface the two uncorrelated-reply regressions through the transport —
//! replies arriving after their probe timed out, and duplicate deliveries.

use std::net::{SocketAddr, UdpSocket};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use nc_transport::{save_snapshot, DelayHarness, LinkSpec, NodeRuntime, RuntimeConfig};
use nc_vivaldi::Coordinate;
use stable_nc::{NodeConfig, StableNode};

fn bind_real_sockets(count: usize) -> (Vec<UdpSocket>, Vec<SocketAddr>) {
    let sockets: Vec<UdpSocket> = (0..count)
        .map(|_| UdpSocket::bind("127.0.0.1:0").expect("bind real socket"))
        .collect();
    let addrs = sockets
        .iter()
        .map(|socket| socket.local_addr().expect("local addr"))
        .collect();
    (sockets, addrs)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nc-loopback-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Eight nodes placed on a plane, two clusters 70 ms apart; the emulated
/// RTT of a pair is the euclidean distance between their points.
const POSITIONS: [(f64, f64); 8] = [
    (0.0, 0.0),
    (9.0, 0.0),
    (0.0, 9.0),
    (9.0, 9.0),
    (70.0, 0.0),
    (79.0, 0.0),
    (70.0, 9.0),
    (79.0, 9.0),
];

fn planar_rtt(a: usize, b: usize) -> f64 {
    let (ax, ay) = POSITIONS[a];
    let (bx, by) = POSITIONS[b];
    ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt()
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    values[values.len() / 2]
}

#[test]
fn eight_node_cluster_converges_under_loss_and_duplication_and_survives_restart() {
    const NODES: usize = 8;
    let dir = temp_dir("cluster");
    let (sockets, real_addrs) = bind_real_sockets(NODES);

    // The emulated network: planar RTTs, 1 ms of jitter (enough to reorder
    // back-to-back datagrams), 5% loss and 5% duplication on every link.
    let mut builder = DelayHarness::builder(NODES).seed(42);
    for a in 0..NODES {
        for b in (a + 1)..NODES {
            builder = builder.link(
                a,
                b,
                LinkSpec::from_rtt(planar_rtt(a, b))
                    .with_jitter(1.0)
                    .with_loss(0.05)
                    .with_duplication(0.05),
            );
        }
    }
    let harness = builder.start(&real_addrs).expect("start harness");

    let config_for = |index: usize| RuntimeConfig {
        node: NodeConfig::paper_defaults(),
        seeds: (0..NODES)
            .filter(|&peer| peer != index)
            .map(|peer| harness.public_addr(peer))
            .collect(),
        advertised_addr: Some(harness.public_addr(index)),
        probe_interval_ms: 4,
        probe_timeout_ms: 500,
        snapshot_path: Some(dir.join(format!("node-{index}.snapshot"))),
    };

    let mut runtimes: Vec<NodeRuntime> = sockets
        .into_iter()
        .enumerate()
        .map(|(index, socket)| {
            NodeRuntime::start(socket, config_for(index)).expect("start runtime")
        })
        .collect();

    // Converge: ~1500 probes per node at 4 ms.
    std::thread::sleep(Duration::from_secs(6));

    let total_probes: u64 = runtimes.iter().map(|r| r.stats().probes_sent).sum();
    assert!(
        total_probes >= 1_000,
        "the cluster must exchange at least 1,000 probes, got {total_probes}"
    );
    assert!(
        harness.dropped() > 0,
        "5% loss must actually drop datagrams"
    );
    assert!(
        harness.duplicated() > 0,
        "5% duplication must actually duplicate datagrams"
    );
    let total_ignored: u64 = runtimes.iter().map(|r| r.stats().responses_ignored).sum();
    assert!(
        total_ignored > 0,
        "duplicated replies must surface as Event::ResponseIgnored"
    );

    let coordinates: Vec<Coordinate> = runtimes
        .iter()
        .map(|runtime| runtime.coordinate().0)
        .collect();
    let mut errors = Vec::new();
    for a in 0..NODES {
        for b in (a + 1)..NODES {
            let actual = harness.emulated_rtt_ms(a, b);
            let estimated = coordinates[a].distance(&coordinates[b]);
            errors.push((estimated - actual).abs() / actual);
        }
    }
    let median_error = median(errors.clone());
    assert!(
        median_error < 0.15,
        "median relative error {median_error:.3} over {} pairs (errors: {errors:.3?})",
        errors.len()
    );

    // Kill node 0 gracefully: its snapshot lands on disk.
    let node0 = runtimes.remove(0);
    let pre_restart_stats = node0.stats();
    assert!(pre_restart_stats.responses_received > 0);
    let snapshot = node0.shutdown().expect("shutdown node 0");
    let parked = snapshot.system_coordinate().clone();
    assert!(
        parked.magnitude() > 1.0,
        "node 0 had converged away from the origin: {parked:?}"
    );

    // Restart it on a fresh real socket behind the same public address.
    let new_socket = UdpSocket::bind("127.0.0.1:0").expect("rebind node 0");
    harness.update_real_addr(0, new_socket.local_addr().expect("local addr"));
    let node0 = NodeRuntime::start(new_socket, config_for(0)).expect("restart node 0");

    // The restored coordinate is the snapshot's, not the origin: probing has
    // only had a few milliseconds to nudge it.
    let (restored, _) = node0.coordinate();
    assert!(
        restored.distance(&parked) < 5.0,
        "restart must resume from the snapshot ({:.1} ms away)",
        restored.distance(&parked)
    );

    // And it rejoins: fresh probes flow both ways, and the node stays at its
    // converged position instead of re-converging from scratch.
    // First looked at after 1.5 s as before, then every 250 ms up to 6 s: on
    // a host that is busy elsewhere the harness delivers late and a single
    // sample can catch the node mid-step.
    let rejoined_at = Instant::now();
    std::thread::sleep(Duration::from_millis(1_500));
    let node0_median = loop {
        let (settled, _) = node0.coordinate();
        let mut node0_errors = Vec::new();
        for (peer, runtime) in runtimes.iter().enumerate() {
            let actual = harness.emulated_rtt_ms(0, peer + 1);
            let estimated = settled.distance(&runtime.coordinate().0);
            node0_errors.push((estimated - actual).abs() / actual);
        }
        let node0_median = median(node0_errors);
        if node0_median < 0.20 || rejoined_at.elapsed() >= Duration::from_secs(6) {
            break node0_median;
        }
        std::thread::sleep(Duration::from_millis(250));
    };
    let stats = node0.stats();
    assert!(stats.probes_sent > 0, "restarted node probes");
    assert!(stats.responses_received > 0, "restarted node hears replies");
    assert!(
        node0_median < 0.20,
        "restarted node stays converged (median error {node0_median:.3})"
    );

    node0.shutdown().expect("final shutdown node 0");
    for runtime in runtimes {
        runtime.shutdown().expect("shutdown");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn replies_after_the_probe_timeout_are_ignored_not_double_applied() {
    // The link's one-way delay exceeds the probe timeout, so every reply
    // arrives after its probe was declared lost. Before the correlation fix
    // the engine would digest each of those replies with a stale RTT; now
    // every one must surface as ignored and the coordinate must never move.
    let (sockets, real_addrs) = bind_real_sockets(2);
    let harness = DelayHarness::builder(2)
        .seed(7)
        .default_link(LinkSpec::from_rtt(160.0))
        .start(&real_addrs)
        .expect("start harness");

    let mut sockets = sockets.into_iter();
    let config = |index: usize, seeds: Vec<SocketAddr>| RuntimeConfig {
        node: NodeConfig::paper_defaults(),
        seeds,
        advertised_addr: Some(harness.public_addr(index)),
        probe_interval_ms: 10,
        probe_timeout_ms: 30,
        snapshot_path: None,
    };
    let a = NodeRuntime::start(
        sockets.next().unwrap(),
        config(0, vec![harness.public_addr(1)]),
    )
    .expect("start a");
    let b = NodeRuntime::start(sockets.next().unwrap(), config(1, Vec::new())).expect("start b");

    std::thread::sleep(Duration::from_millis(1_200));
    let stats = a.stats();
    assert!(stats.probes_sent > 10);
    assert!(stats.probes_lost > 0, "every probe times out: {stats:?}");
    assert!(
        stats.responses_received > 0,
        "replies do arrive, just late: {stats:?}"
    );
    assert!(
        stats.responses_ignored > 0,
        "late replies surface as ResponseIgnored: {stats:?}"
    );
    // No late reply was digested: the coordinate never moved off the origin.
    let (coordinate, _) = a.coordinate();
    assert_eq!(coordinate, Coordinate::origin(3));
    a.shutdown().expect("shutdown a");
    b.shutdown().expect("shutdown b");
}

#[test]
fn query_snapshots_serve_nearest_replica_without_the_engine_lock() {
    // Two nodes converge on an emulated 40 ms link while a QueryHandle —
    // the read path a deployment answers anycast lookups from — watches
    // from outside the engine lock. The published snapshot must contain
    // the node itself plus the probed peer, resolve the peer's coordinate,
    // and rank the peer as the nearest replica to its own position.
    let (sockets, real_addrs) = bind_real_sockets(2);
    let harness = DelayHarness::builder(2)
        .seed(23)
        .default_link(LinkSpec::from_rtt(40.0))
        .start(&real_addrs)
        .expect("start harness");

    let mut sockets = sockets.into_iter();
    let config = |index: usize, seeds: Vec<SocketAddr>| RuntimeConfig {
        node: NodeConfig::paper_defaults(),
        seeds,
        advertised_addr: Some(harness.public_addr(index)),
        probe_interval_ms: 5,
        probe_timeout_ms: 500,
        snapshot_path: None,
    };
    let a = NodeRuntime::start(
        sockets.next().unwrap(),
        config(0, vec![harness.public_addr(1)]),
    )
    .expect("start a");
    let b = NodeRuntime::start(sockets.next().unwrap(), config(1, Vec::new())).expect("start b");

    let handle = a.query_handle();
    // The startup publish happens before any exchange: an empty-but-alive
    // snapshot (node at the origin) is already queryable.
    assert!(!handle.snapshot().is_empty());

    std::thread::sleep(Duration::from_secs(3));
    let snapshot = handle.snapshot();
    assert!(
        snapshot.len() >= 2,
        "own coordinate plus the probed peer, got {}",
        snapshot.len()
    );
    let peer = harness.public_addr(1);
    let peer_coordinate = snapshot
        .coordinate_of(&peer)
        .expect("probed peer is indexed");
    let hit = snapshot
        .nearest(&peer_coordinate)
        .expect("valid query")
        .expect("non-empty index");
    assert_eq!(hit.id, peer, "the peer is its own nearest replica");
    // The snapshot is a stable value: runtime progress never mutates it
    // under a reader, and dropping the runtimes cannot invalidate it.
    a.shutdown().expect("shutdown a");
    b.shutdown().expect("shutdown b");
    assert!(snapshot.coordinate_of(&peer).is_some());
}

#[test]
fn duplicated_replies_are_applied_once_and_ignored_after() {
    // Every datagram is delivered twice. Each probe is applied exactly once;
    // the byte-identical second copy surfaces as ignored and the pair still
    // converges to the emulated RTT.
    let (sockets, real_addrs) = bind_real_sockets(2);
    let harness = DelayHarness::builder(2)
        .seed(11)
        .default_link(LinkSpec::from_rtt(40.0).with_duplication(1.0))
        .start(&real_addrs)
        .expect("start harness");

    let mut sockets = sockets.into_iter();
    let config = |index: usize, seeds: Vec<SocketAddr>| RuntimeConfig {
        node: NodeConfig::paper_defaults(),
        seeds,
        advertised_addr: Some(harness.public_addr(index)),
        probe_interval_ms: 5,
        probe_timeout_ms: 500,
        snapshot_path: None,
    };
    let a = NodeRuntime::start(
        sockets.next().unwrap(),
        config(0, vec![harness.public_addr(1)]),
    )
    .expect("start a");
    let b = NodeRuntime::start(sockets.next().unwrap(), config(1, Vec::new())).expect("start b");

    std::thread::sleep(Duration::from_secs(3));
    let stats = a.stats();
    assert!(harness.duplicated() > 0);
    assert!(
        stats.responses_ignored > 0,
        "duplicate replies surface as ResponseIgnored: {stats:?}"
    );
    assert!(
        stats.responses_received > stats.responses_ignored,
        "originals are still applied: {stats:?}"
    );
    // Duplicates did not distort the measurement: the pair converges to the
    // emulated 40 ms round trip.
    let estimated = a.coordinate().0.distance(&b.coordinate().0);
    assert!(
        (estimated - 40.0).abs() / 40.0 < 0.25,
        "estimated {estimated:.1} ms for an emulated 40 ms link"
    );
    a.shutdown().expect("shutdown a");
    b.shutdown().expect("shutdown b");
}

#[test]
fn a_restored_daemon_counts_the_snapshots_pending_probes_as_lost() {
    // A snapshot taken with probes in flight: their replies can never reach
    // the next life, so the restored daemon expires them at start-up and
    // must count them like any other loss — before its own first timeout
    // (a minute away) could fire.
    const PENDING: usize = 3;
    let (peers, peer_addrs) = bind_real_sockets(PENDING);
    let mut node: StableNode<SocketAddr> = StableNode::new(NodeConfig::paper_defaults());
    for (now_ms, peer) in peer_addrs.iter().enumerate() {
        node.seed_neighbor(*peer);
        let _ = node.probe_request_for(*peer, now_ms as u64);
    }
    let snapshot = node.snapshot();
    assert_eq!(snapshot.pending.len(), PENDING);
    let dir = temp_dir("pending");
    let path = dir.join("node.snap");
    save_snapshot(&path, &snapshot).expect("save snapshot");

    let runtime = NodeRuntime::bind(
        "127.0.0.1:0".parse().expect("address"),
        RuntimeConfig {
            node: NodeConfig::paper_defaults(),
            seeds: Vec::new(),
            advertised_addr: None,
            probe_interval_ms: 60_000,
            probe_timeout_ms: 60_000,
            snapshot_path: Some(path),
        },
    )
    .expect("start on the snapshot");
    let stats = runtime.stats();
    assert_eq!(stats.probes_lost, PENDING as u64, "{stats:?}");
    assert_eq!(stats.neighbors_evicted, 0, "{stats:?}");
    runtime.shutdown().expect("shutdown");
    drop(peers);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_daemon_loses_a_probe_within_one_interval_of_its_deadline() {
    // The probe tick is the daemon's loss clock, as it is the simulator's:
    // a probe sent at t is declared lost at the first tick at or after
    // t + timeout, one 5 ms interval at most. The 60 ms of slack leave room
    // for a loaded host's scheduler, not for a sweep on a timer of its own.
    const TIMEOUT_MS: u64 = 1_000;
    const SLACK_MS: u64 = 60;
    // A peer that never answers: a bound socket nobody reads.
    let silent = UdpSocket::bind("127.0.0.1:0").expect("bind silent peer");
    let runtime = NodeRuntime::bind(
        "127.0.0.1:0".parse().expect("address"),
        RuntimeConfig {
            seeds: vec![silent.local_addr().expect("silent addr")],
            probe_interval_ms: 5,
            probe_timeout_ms: TIMEOUT_MS,
            ..RuntimeConfig::default()
        },
    )
    .expect("start runtime");

    let started = Instant::now();
    // (milliseconds since start, probes sent by then), one per sample.
    let mut sent_by: Vec<(u64, u64)> = Vec::new();
    let mut lost = 0;
    while started.elapsed() < Duration::from_secs(2) {
        std::thread::sleep(Duration::from_millis(7));
        let stats = runtime.stats();
        let at_ms = started.elapsed().as_millis() as u64;
        let overdue = sent_by
            .iter()
            .rev()
            .find(|(then_ms, _)| at_ms - then_ms >= TIMEOUT_MS + SLACK_MS);
        if let Some((_, sent)) = overdue {
            assert!(
                stats.probes_lost >= *sent,
                "at {at_ms} ms: {} lost, but {sent} were sent more than {} ms ago",
                stats.probes_lost,
                TIMEOUT_MS + SLACK_MS
            );
        }
        sent_by.push((at_ms, stats.probes_sent));
        lost = stats.probes_lost;
    }
    runtime.shutdown().expect("shutdown");
    drop(silent);
    assert!(lost > 100, "only {lost} probes were declared lost in 2 s");
}

#[test]
fn config_rules_start_refuses_invalid_input_before_any_thread() {
    use nc_proto::BinaryMessage;
    use nc_transport::RuntimeConfigError;
    use stable_nc::{NodeConfigError, ProbeRequest, VivaldiConfig, VivaldiConfigError};

    let quick = RuntimeConfig {
        probe_interval_ms: 20,
        probe_timeout_ms: 100,
        ..RuntimeConfig::default()
    };
    let cases = [
        (
            RuntimeConfig {
                node: NodeConfig::builder().max_consecutive_losses(0).build(),
                ..quick.clone()
            },
            RuntimeConfigError::Node(NodeConfigError::ZeroLossLimit),
        ),
        (
            RuntimeConfig {
                node: NodeConfig::builder()
                    .vivaldi(VivaldiConfig::paper_defaults().with_dimensions(0))
                    .build(),
                ..quick.clone()
            },
            RuntimeConfigError::Node(NodeConfigError::Vivaldi(VivaldiConfigError::Dimensions(0))),
        ),
        (
            RuntimeConfig {
                probe_interval_ms: 0,
                ..quick.clone()
            },
            RuntimeConfigError::ZeroProbeInterval,
        ),
        (
            RuntimeConfig {
                probe_timeout_ms: 0,
                ..quick.clone()
            },
            RuntimeConfigError::ZeroProbeTimeout,
        ),
    ];
    for (config, expected) in cases {
        let socket = UdpSocket::bind("127.0.0.1:0").expect("bind real socket");
        let addr = socket.local_addr().expect("local addr");
        let ours = socket.try_clone().expect("clone socket");
        let error = match NodeRuntime::start(socket, config) {
            Ok(runtime) => {
                runtime.shutdown().expect("shutdown");
                panic!("started with {expected:?}");
            }
            Err(error) => error,
        };
        assert_eq!(error.kind(), std::io::ErrorKind::InvalidInput);
        assert_eq!(error.to_string(), expected.to_string());
        let typed = error
            .get_ref()
            .and_then(|inner| inner.downcast_ref::<RuntimeConfigError>());
        assert_eq!(typed, Some(&expected));
        // No socket thread took the datagram: it is still ours to read.
        let probe = ProbeRequest::new(addr, 1, 0);
        ours.send_to(&probe.encode_binary(), addr)
            .expect("send to self");
        ours.set_read_timeout(Some(Duration::from_millis(500)))
            .expect("read timeout");
        let mut buffer = [0u8; 256];
        assert!(ours.recv_from(&mut buffer).is_ok(), "{expected:?}");
    }
}
