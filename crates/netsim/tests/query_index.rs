//! Contracts of the simulator-fed coordinate query index.
//!
//! The index is pure read-path state: enabling it must not change the
//! simulation report by a byte, its contents must be identical across the
//! reference loop and the engine at several worker counts, and its
//! k-nearest answers must agree with a brute-force oracle over its own
//! contents.

use nc_netsim::planetlab::PlanetLabConfig;
use nc_netsim::sim::{SimConfig, Simulator};
use nc_vivaldi::Coordinate;
use stable_nc::NodeConfig;

const NODES: usize = 12;

fn sim_config() -> SimConfig {
    SimConfig::new(600.0, 5.0)
        .with_measurement_start(100.0)
        .with_initial_neighbors(4)
}

fn build(query: bool) -> Simulator {
    let schedule = if query {
        sim_config().with_query_index()
    } else {
        sim_config()
    };
    Simulator::new(
        PlanetLabConfig::small(NODES).with_seed(7),
        schedule,
        vec![
            ("mp".to_string(), NodeConfig::paper_defaults()),
            ("raw".to_string(), NodeConfig::original_vivaldi()),
        ],
    )
}

/// Flattens an index into comparable `(id, components, height)` rows in
/// key order.
fn contents(simulator: &Simulator, name: &str) -> Vec<(usize, Vec<f64>, f64)> {
    simulator
        .query_index(name)
        .expect("query index enabled")
        .iter()
        .map(|(id, coordinate)| (*id, coordinate.components().to_vec(), coordinate.height()))
        .collect()
}

#[test]
fn the_index_is_fed_from_application_updates() {
    let mut simulator = build(true).with_serial_execution(true);
    simulator.run();
    let index = simulator.query_index("mp").expect("index enabled");
    // A ten-minute mesh run publishes application coordinates for everyone.
    assert_eq!(index.len(), NODES);
    assert!(simulator.query_index("nope").is_none());
    let centroid = index.centroid().expect("non-empty population");
    assert_eq!(centroid.dimensions(), 3);

    // Without the flag the read path simply does not exist.
    let mut plain = build(false).with_serial_execution(true);
    plain.run();
    assert!(plain.query_index("mp").is_none());
}

#[test]
fn k_nearest_matches_a_brute_force_oracle_over_the_index() {
    let mut simulator = build(true).with_serial_execution(true);
    simulator.run();
    let index = simulator.query_index("mp").expect("index enabled");
    let snapshot: Vec<(usize, Coordinate)> = index
        .iter()
        .map(|(id, coordinate)| (*id, coordinate.clone()))
        .collect();
    let targets: Vec<Coordinate> = snapshot
        .iter()
        .map(|(_, coordinate)| coordinate.clone())
        .chain([Coordinate::origin(3)])
        .collect();
    for target in &targets {
        for k in [1, 3, NODES, NODES + 5] {
            let got: Vec<(usize, f64)> = index
                .k_nearest(target, k)
                .expect("valid query")
                .into_iter()
                .map(|hit| (hit.id, hit.distance_ms))
                .collect();
            let mut oracle: Vec<(usize, f64)> = snapshot
                .iter()
                .map(|(id, coordinate)| (*id, target.distance(coordinate)))
                .collect();
            oracle.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            oracle.truncate(k);
            let oracle: Vec<(usize, f64)> = oracle;
            assert_eq!(got, oracle, "k={k}");
        }
    }
}

#[test]
fn index_contents_are_identical_across_execution_modes() {
    let mut serial = build(true).with_serial_execution(true);
    let serial_report = format!("{:?}", serial.run());
    let mut parallel = build(true);
    let parallel_report = format!("{:?}", parallel.run());
    let mut sharded = build(true).with_threads(3);
    let sharded_report = format!("{:?}", sharded.run());

    assert_eq!(parallel_report, serial_report);
    assert_eq!(sharded_report, serial_report);
    for name in ["mp", "raw"] {
        let baseline = contents(&serial, name);
        assert_eq!(baseline.len(), NODES);
        assert_eq!(contents(&parallel, name), baseline, "config={name}");
        assert_eq!(contents(&sharded, name), baseline, "config={name}");
    }
}

#[test]
fn enabling_the_index_does_not_change_the_report() {
    let baseline = format!("{:?}", build(false).run());
    let with_index = format!("{:?}", build(true).run());
    assert_eq!(with_index, baseline);
}
