//! Overlay operator placement driven by application-level coordinates — the
//! paper's motivating application.
//!
//! The authors built network coordinates for a stream-based overlay network
//! in which a coordinate change can "initiate a cascade of events,
//! culminating in one or more heavyweight process migrations". This example
//! models that consumer: an overlay that keeps each client attached to its
//! nearest service replica *according to the coordinates it is given*, and
//! migrates the attachment whenever the coordinates say another replica is
//! closer.
//!
//! Feeding the overlay raw (system-level) coordinates causes constant
//! re-evaluation and many spurious migrations; feeding it application-level
//! coordinates (ENERGY heuristic) produces almost the same final attachments
//! with a fraction of the churn.
//!
//! The coordinate layer below runs entirely through the sans-I/O engine: the
//! simulator exchanges `ProbeRequest`/`ProbeResponse` messages between nodes
//! and folds the engines' `Event` streams into the tracked trajectories this
//! example replays. In a deployment the overlay would subscribe to
//! `Event::ApplicationUpdated` instead of polling coordinates.
//!
//! Run with: `cargo run --release --example overlay_placement`

#![allow(clippy::print_stdout, clippy::print_stderr)] // An example shows its results.

use nc_netsim::planetlab::PlanetLabConfig;
use nc_netsim::scenario::Scenario;
use nc_netsim::sim::{SimConfig, Simulator};
use nc_vivaldi::Coordinate;
use stable_nc::NodeConfig;

/// Picks the closest replica (by coordinate distance) for every client.
fn attachments(client_coords: &[Coordinate], replica_coords: &[(usize, Coordinate)]) -> Vec<usize> {
    client_coords
        .iter()
        .map(|client| {
            replica_coords
                .iter()
                .min_by(|(_, a), (_, b)| {
                    client
                        .distance(a)
                        .partial_cmp(&client.distance(b))
                        .expect("distances are finite")
                })
                .map(|(id, _)| *id)
                .expect("at least one replica")
        })
        .collect()
}

fn main() {
    // Simulate the coordinate layer: 24 nodes, the first 4 of which host
    // service replicas. Two stacks run on identical observation streams so
    // the comparison is apples-to-apples.
    let workload = PlanetLabConfig::small(24).with_seed(11);
    let node_count = workload.node_count();
    let replicas: Vec<usize> = (0..4).collect();
    let tracked: Vec<usize> = (0..node_count).collect();
    let sim_config = SimConfig::new(3_000.0, 5.0)
        .with_measurement_start(600.0)
        .with_tracked_nodes(tracked, 30.0);
    let configs = vec![
        (
            "application-level (ENERGY)".to_string(),
            NodeConfig::paper_defaults(),
        ),
        (
            "system-level (raw coordinates)".to_string(),
            NodeConfig::builder()
                .heuristic(stable_nc::HeuristicConfig::FollowSystem)
                .build(),
        ),
    ];
    // Mid-run churn: one replica host crashes for five minutes and restarts
    // from the snapshot taken at the instant it died — the overlay must ride
    // through the outage without a migration storm when it follows
    // application-level coordinates.
    let scenario = Scenario::crash_restart(vec![3], 1_500.0, 1_800.0);

    println!(
        "simulating the coordinate layer for 24 overlay nodes (4 replicas);\n\
         replica 3 crashes at t=1500s and restarts from its snapshot at t=1800s ...\n"
    );
    let report = Simulator::new(workload, sim_config, configs)
        .with_scenario(scenario)
        .run();

    for (name, metrics) in report.iter() {
        // Replay the tracked coordinate snapshots: at every snapshot the
        // overlay re-evaluates each client's nearest replica and migrates it
        // if the answer changed.
        let mut times: Vec<f64> = metrics.tracked.iter().map(|t| t.time_s).collect();
        times.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        times.dedup();

        let mut migrations = 0usize;
        let mut previous: Option<Vec<usize>> = None;
        let mut final_assignment: Vec<usize> = Vec::new();
        for &t in &times {
            let snapshot: Vec<Option<&nc_netsim::metrics::TrackedCoordinate>> = (0..node_count)
                .map(|node| {
                    metrics
                        .tracked
                        .iter()
                        .find(|c| c.node == node && c.time_s == t)
                })
                .collect();
            if snapshot.iter().any(|s| s.is_none()) {
                continue;
            }
            let coords: Vec<Coordinate> = snapshot
                .iter()
                .map(|s| s.expect("checked above").application.clone())
                .collect();
            let replica_coords: Vec<(usize, Coordinate)> =
                replicas.iter().map(|&r| (r, coords[r].clone())).collect();
            let assignment = attachments(&coords, &replica_coords);
            if let Some(prev) = &previous {
                migrations += assignment
                    .iter()
                    .zip(prev.iter())
                    .filter(|(a, b)| a != b)
                    .count();
            }
            final_assignment = assignment.clone();
            previous = Some(assignment);
        }

        let attached_to_first = final_assignment.iter().filter(|&&r| r == 0).count();
        println!(
            "{name}:\n  client->replica migrations over the run: {migrations}\n  \
             final attachment spread: {attached_to_first}/{} clients on replica 0\n  \
             application-level coordinate updates per node-second: {:.4}\n",
            node_count,
            metrics.application_updates_per_node_second()
        );
    }
    println!(
        "application-level coordinates give the overlay the same placements with far fewer migrations."
    );
}
