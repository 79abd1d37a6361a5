//! Quickstart: embed a small mesh of nodes with the sans-I/O `StableNode`
//! engine, compare the estimated round-trip times against the ground truth,
//! and demonstrate snapshot/restore mid-run.
//!
//! Every observation travels the way it would in a deployment: the prober
//! builds a `ProbeRequest`, the probed node answers it with `respond_into`,
//! the "network" (here: the trace generator) supplies the measured RTT, and
//! the prober digests the stamped `ProbeResponse` into a stream of typed
//! `Event`s. Like a daemon, the driver owns one response and one event
//! buffer and reuses them for every exchange.
//!
//! Run with: `cargo run --release --example quickstart`

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "an example shows its results"
)]

use nc_netsim::planetlab::PlanetLabConfig;
use nc_netsim::trace::{TraceConfig, TraceGenerator};
use stable_network_coordinates::nc_proto::BinaryMessage;
use stable_network_coordinates::{
    Coordinate, Event, NodeConfig, ProbeRequest, ProbeResponse, StableNode,
};

fn main() {
    // A 16-node synthetic wide-area network (heavy-tailed observations and
    // all) and one StableNode per host, using the paper's default stack:
    // MP filter (h=4, p=25) -> Vivaldi (3-D) -> ENERGY application updates.
    let network = PlanetLabConfig::small(16).with_seed(7);
    let mut generator = TraceGenerator::new(TraceConfig::new(network, 1_800.0, 1.0));
    let node_count = generator.topology().len();
    let mut nodes: Vec<StableNode<usize>> = (0..node_count)
        .map(|_| StableNode::new(NodeConfig::paper_defaults()))
        .collect();

    // Feed the ping trace through the wire protocol: each record becomes one
    // request/response exchange, timed by the trace. Every ~33rd probe is
    // "lost in the network" — the prober never hears back, its pending-probe
    // entry expires on the next tick, and the engine reports a typed
    // ProbeLost event instead of stalling the round-robin schedule.
    let mut app_updates_node0 = 0u64;
    let mut probes_lost = 0u64;
    let mut snapshot_blob: Option<Vec<u8>> = None;
    let mut response =
        ProbeResponse::new(0, &ProbeRequest::new(0, 0, 0), Coordinate::origin(3), 1.0);
    let mut events = Vec::new();
    for (index, record) in generator.generate().into_iter().enumerate() {
        let now_ms = (record.time_s * 1_000.0) as u64;
        let request = nodes[record.src].probe_request_for(record.dst, now_ms);
        if index % 33 == 17 {
            // Dropped probe: expire everything older than a 10 s timeout,
            // exactly as a daemon's timer tick would.
            events.clear();
            nodes[record.src].expire_pending_into(
                now_ms.saturating_add(10_000),
                10_000,
                &mut events,
            );
            probes_lost += events
                .iter()
                .filter(|e| matches!(e, Event::ProbeLost { .. }))
                .count() as u64;
            continue;
        }
        nodes[record.dst].respond_into(&request, &mut response);
        response.rtt_ms = record.rtt_ms; // the driver measures the round trip
        events.clear();
        nodes[record.src].handle_response_into(&response, &mut events);
        if record.src == 0 {
            app_updates_node0 += events
                .iter()
                .filter(|e| matches!(e, Event::ApplicationUpdated { .. }))
                .count() as u64;
        }

        // Halfway through the run, persist node 0 exactly as a daemon would
        // before a restart.
        if snapshot_blob.is_none() && record.time_s >= 900.0 {
            snapshot_blob = Some(nodes[0].snapshot().encode_binary());
        }
    }

    println!("pair        true RTT    estimated    relative error");
    println!("----------------------------------------------------");
    let mut total_err = 0.0;
    let mut pairs = 0;
    for a in 0..node_count {
        for b in (a + 1)..node_count.min(a + 4) {
            let truth = generator.topology().base_rtt_ms(a, b);
            let estimate = nodes[a].estimate_rtt_ms(nodes[b].system_coordinate());
            let err = (estimate - truth).abs() / truth;
            total_err += err;
            pairs += 1;
            println!("{a:2} <-> {b:2}   {truth:8.1} ms  {estimate:8.1} ms   {err:8.2}");
        }
    }
    println!(
        "\nmean relative error over {pairs} sampled pairs: {:.3}",
        total_err / pairs as f64
    );
    println!(
        "node 0 published {} application-level updates for {} observations",
        app_updates_node0,
        nodes[0].view().observations
    );
    println!("{probes_lost} probes were dropped by the network and expired as ProbeLost");

    // Restore the mid-run snapshot into a fresh engine: the revived node
    // carries the exact coordinate, filter windows and probe schedule the
    // original had at persist time.
    let blob = snapshot_blob.expect("run is longer than the snapshot point");
    let snapshot = stable_network_coordinates::NodeSnapshot::<usize>::decode_binary(&blob)
        .expect("snapshot decodes under the same protocol version");
    let restored = StableNode::restore(NodeConfig::paper_defaults(), &snapshot)
        .expect("same configuration restores");
    println!(
        "\nsnapshot taken at t=900s: {} bytes, {} neighbours, revived at {}",
        blob.len(),
        snapshot.neighbor_count(),
        restored.system_coordinate()
    );
}
