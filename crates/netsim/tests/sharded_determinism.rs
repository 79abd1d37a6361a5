//! Regression suite for the plan/execute engine: whatever the worker count
//! (`Simulator::with_threads`, or the one `run()` picks), it must produce a
//! `SimReport` that is **byte-identical** (serialized form) to the reference
//! loop's (`with_serial_execution`), across every scenario family — plain
//! runs, lossy links, churn (joins, leaves, crashes with snapshot restarts),
//! partitions, coordinate tracking, several configurations side by side with
//! equal and with differing eviction thresholds, and staged runs.

use nc_netsim::linkmodel::LinkModelConfig;
use nc_netsim::planetlab::PlanetLabConfig;
use nc_netsim::scenario::{Scenario, ScenarioAction};
use nc_netsim::sim::{SimConfig, Simulator};
use stable_nc::NodeConfig;

fn encode(simulator: &mut Simulator) -> String {
    format!("{:?}", simulator.run())
}

/// Byte-compares the reference loop against the engine on the worker count
/// `run()` picks by itself and on several explicit ones.
fn assert_sharded_matches_serial(build: &dyn Fn() -> Simulator, label: &str) {
    let serial = encode(&mut build().with_serial_execution(true));
    assert!(!serial.is_empty());
    assert_eq!(
        encode(&mut build()),
        serial,
        "{label}: the default run diverged from serial"
    );
    for threads in [1, 2, 3, 4] {
        let sharded = encode(&mut build().with_threads(threads));
        assert_eq!(
            sharded, serial,
            "{label}: sharded run with {threads} threads diverged from serial"
        );
    }
}

#[test]
fn plain_run_is_byte_identical_across_thread_counts() {
    let build = || {
        let workload = PlanetLabConfig::small(14).with_seed(11);
        let sim_config = SimConfig::new(700.0, 5.0)
            .with_measurement_start(100.0)
            .with_initial_neighbors(4)
            .with_protocol_seed(0xABCD);
        Simulator::new(
            workload,
            sim_config,
            vec![("mp".to_string(), NodeConfig::paper_defaults())],
        )
    };
    assert_sharded_matches_serial(&build, "plain");
}

#[test]
fn lossy_links_are_byte_identical_across_thread_counts() {
    let build = || {
        let workload = PlanetLabConfig::small(12).with_seed(7).with_link_config(
            LinkModelConfig::default()
                .with_loss_probability(0.05)
                .with_delay_asymmetry(0.2),
        );
        let sim_config = SimConfig::new(800.0, 5.0)
            .with_measurement_start(0.0)
            .with_initial_neighbors(4);
        Simulator::new(
            workload,
            sim_config,
            vec![("mp".to_string(), NodeConfig::paper_defaults())],
        )
    };
    assert_sharded_matches_serial(&build, "lossy");
}

#[test]
fn crash_restart_churn_is_byte_identical_across_thread_counts() {
    // Crashes hold pending probes in their snapshots; restarts expire them
    // (possibly evicting peers from the rotation). Both effects must land
    // identically no matter which shard owns the node.
    let build = || {
        let workload = PlanetLabConfig::small(12)
            .with_seed(5)
            .with_link_config(LinkModelConfig::default().with_loss_probability(0.02));
        let sim_config = SimConfig::new(900.0, 5.0)
            .with_measurement_start(0.0)
            .with_initial_neighbors(4)
            .with_tracked_nodes(vec![0, 5], 60.0);
        let scenario = Scenario::crash_restart(vec![1, 2, 7], 300.0, 450.0);
        Simulator::new(
            workload,
            sim_config,
            vec![(
                "mp".to_string(),
                NodeConfig::builder().max_consecutive_losses(3).build(),
            )],
        )
        .with_scenario(scenario)
    };
    assert_sharded_matches_serial(&build, "crash-restart");
}

#[test]
fn joins_leaves_and_partitions_are_byte_identical_across_thread_counts() {
    let build = || {
        let workload = PlanetLabConfig::small(14).with_seed(13);
        let sim_config = SimConfig::new(900.0, 5.0)
            .with_measurement_start(0.0)
            .with_initial_neighbors(4);
        let scenario = Scenario::new()
            .with_initially_down(vec![12, 13])
            .at(
                200.0,
                ScenarioAction::Join {
                    nodes: vec![12, 13],
                },
            )
            .at(350.0, ScenarioAction::Leave { nodes: vec![3] })
            .at(
                500.0,
                ScenarioAction::Partition {
                    group: vec![0, 1, 2, 4],
                    heal_at_s: 650.0,
                },
            );
        Simulator::new(
            workload,
            sim_config,
            vec![("mp".to_string(), NodeConfig::paper_defaults())],
        )
        .with_scenario(scenario)
    };
    assert_sharded_matches_serial(&build, "join-leave-partition");
}

#[test]
fn adversarial_run_with_drift_and_gate_is_byte_identical_across_thread_counts() {
    // Byzantine repliers (delayed replies can cross the probe timeout),
    // drifting base RTTs and the MAD outlier gate all have to land
    // identically no matter which shard owns the victim.
    let build = || {
        let workload = PlanetLabConfig::small(12).with_seed(21).with_link_config(
            LinkModelConfig::default()
                .with_loss_probability(0.02)
                .with_drift_walk(0.08, 300.0),
        );
        let sim_config = SimConfig::new(800.0, 5.0)
            .with_measurement_start(100.0)
            .with_initial_neighbors(4)
            .with_adversaries(
                0.25,
                nc_netsim::adversary::AdversaryModel::CoordinateLiar {
                    displacement_ms: 2_000.0,
                    inflate: 1.0,
                    error_estimate: 0.01,
                },
            );
        let scenario = Scenario::new()
            .at(
                250.0,
                ScenarioAction::SetAdversary {
                    nodes: vec![2],
                    model: Some(nc_netsim::adversary::AdversaryModel::DelayAttacker {
                        extra_delay_ms: 600.0,
                    }),
                },
            )
            .at(
                500.0,
                ScenarioAction::SetAdversary {
                    nodes: vec![2],
                    model: None,
                },
            );
        Simulator::new(
            workload,
            sim_config,
            vec![
                ("undefended".to_string(), NodeConfig::paper_defaults()),
                (
                    "defended".to_string(),
                    NodeConfig::builder()
                        .outlier_gate(stable_nc::OutlierGateConfig::default())
                        .build(),
                ),
            ],
        )
        .with_scenario(scenario)
    };
    assert_sharded_matches_serial(&build, "adversarial-drift-gate");
}

#[test]
fn multi_config_sharded_run_matches_serial() {
    // Sharding composes with side-by-side configurations: every worker runs
    // all configurations for its nodes, and the merged report must equal the
    // interleaved serial run.
    let build = || {
        let workload = PlanetLabConfig::small(10).with_seed(3);
        let sim_config = SimConfig::new(600.0, 5.0)
            .with_measurement_start(100.0)
            .with_initial_neighbors(3);
        Simulator::new(
            workload,
            sim_config,
            vec![
                ("mp".to_string(), NodeConfig::paper_defaults()),
                ("raw".to_string(), NodeConfig::original_vivaldi()),
            ],
        )
    };
    assert_sharded_matches_serial(&build, "multi-config");
}

#[test]
fn three_configurations_are_byte_identical_across_thread_counts() {
    let build = || {
        let workload = PlanetLabConfig::small(10).with_seed(3);
        let sim_config = SimConfig::new(500.0, 5.0)
            .with_measurement_start(100.0)
            .with_initial_neighbors(3);
        Simulator::new(
            workload,
            sim_config,
            vec![
                ("a-mp".to_string(), NodeConfig::paper_defaults()),
                ("b-raw".to_string(), NodeConfig::original_vivaldi()),
                (
                    "c-mp-noheur".to_string(),
                    NodeConfig::builder()
                        .heuristic(stable_nc::HeuristicConfig::FollowSystem)
                        .build(),
                ),
            ],
        )
    };
    assert_sharded_matches_serial(&build, "three-configurations");
}

#[test]
fn two_configurations_under_loss_and_churn_match_serial() {
    // Loss, delay asymmetry, crash + snapshot restart and a partition all at
    // once: every code path that consumes protocol randomness or link
    // randomness must stay aligned between the engine and the reference.
    let build = || {
        let workload = PlanetLabConfig::small(12).with_seed(7).with_link_config(
            LinkModelConfig::default()
                .with_loss_probability(0.03)
                .with_delay_asymmetry(0.2),
        );
        let sim_config = SimConfig::new(900.0, 5.0)
            .with_measurement_start(0.0)
            .with_initial_neighbors(4)
            .with_tracked_nodes(vec![0, 5], 60.0);
        let scenario = Scenario::crash_restart(vec![1, 2], 300.0, 450.0).at(
            500.0,
            ScenarioAction::Partition {
                group: vec![0, 1, 2, 3],
                heal_at_s: 650.0,
            },
        );
        Simulator::new(
            workload,
            sim_config,
            vec![
                ("paper".to_string(), NodeConfig::paper_defaults()),
                ("raw".to_string(), NodeConfig::original_vivaldi()),
            ],
        )
        .with_scenario(scenario)
    };
    assert_sharded_matches_serial(&build, "two-configurations-loss-churn");
}

#[test]
fn differing_eviction_thresholds_shard_across_four_workers() {
    // Each configuration's ledger carries its own threshold; the planner
    // keeps one set of ledgers per distinct threshold and drops a peer from
    // the shared rotation only once every set has evicted it, as the serial
    // loop does with the engines.
    let build = || {
        let workload = PlanetLabConfig::small(8).with_seed(9);
        let sim_config = SimConfig::new(600.0, 5.0)
            .with_measurement_start(0.0)
            .with_initial_neighbors(3)
            .with_gossip(false);
        let scenario = Scenario::new().at(150.0, ScenarioAction::Crash { nodes: vec![4] });
        Simulator::new(
            workload,
            sim_config,
            vec![
                (
                    "evict3".to_string(),
                    NodeConfig::builder().max_consecutive_losses(3).build(),
                ),
                (
                    "evict5".to_string(),
                    NodeConfig::builder().max_consecutive_losses(5).build(),
                ),
            ],
        )
        .with_scenario(scenario)
    };
    let serial = encode(&mut build().with_serial_execution(true));
    let sharded = encode(&mut build().with_threads(4));
    assert_eq!(sharded, serial);
}

#[test]
fn restart_expiry_evictions_reach_the_shared_rotation() {
    // Regression test for a latent neighbor-bookkeeping bug surfaced while
    // building the sharded planner: a node that crashes holding pending
    // probes whose expiry-at-restart pushes a loss streak over the eviction
    // threshold must drop that peer from the *shared* probe rotation, not
    // just from its engine's neighbor table. Before the fix the revived
    // node kept probing the evicted peer forever (the engine ignored the
    // replies as uncorrelated), so its loss accounting diverged from a
    // deployment — and the sharded planner, which mirrors engine evictions
    // exactly, diverged from the serial path.
    //
    // Setup: node 0 probes only node 1 (no gossip, one initial neighbor,
    // two-node mesh). Node 1 crashes silently at t=100, so probes from
    // t=100 on all time out (15 s timeout): losses land at t=115, 120, 125
    // — a streak of 3 against max_consecutive_losses(4). Node 0 crashes at
    // t=127 holding three probes in flight and restarts at t=200: expiring
    // them pushes the streak to the threshold, evicting node 1. If the
    // eviction reaches the rotation, node 0's neighbor set is empty after
    // the restart and its loss count freezes at 4; with the bug it keeps
    // probing the already-evicted peer and racks up further losses.
    let build = |thresholds: &[u32], serial: bool, threads: Option<usize>| {
        let workload = PlanetLabConfig::small(2).with_seed(1);
        let sim_config = SimConfig::new(600.0, 5.0)
            .with_measurement_start(0.0)
            .with_initial_neighbors(1)
            .with_gossip(false);
        let scenario = Scenario::new()
            .at(100.0, ScenarioAction::Crash { nodes: vec![1] })
            .at(127.0, ScenarioAction::Crash { nodes: vec![0] })
            .at(200.0, ScenarioAction::Restart { nodes: vec![0] });
        let mut simulator = Simulator::new(
            workload,
            sim_config,
            thresholds
                .iter()
                .map(|&max| {
                    let config = NodeConfig::builder().max_consecutive_losses(max).build();
                    (format!("evict{max}"), config)
                })
                .collect(),
        )
        .with_scenario(scenario)
        .with_serial_execution(serial);
        if let Some(threads) = threads {
            simulator = simulator.with_threads(threads);
        }
        simulator
    };

    let report = build(&[4], true, None).run();
    let metrics = report.config("evict4").unwrap();
    let lost = metrics.nodes[0].probes_lost;
    // Three timeout losses before the crash plus the expiry loss at the
    // restart (eviction releases the other two in-flight probes without
    // counting them). Without the fix the revived node re-registers the
    // evicted peer and loses another streak's worth before re-evicting.
    assert!(
        lost <= 5,
        "restart-expiry eviction must stop the probe cycle (lost {lost} probes)"
    );
    assert_eq!(metrics.nodes[0].neighbors_evicted, 1);

    // And the planner's ledgers evict alike — also beside a configuration
    // whose threshold the three expired probes just reach (6: both evict,
    // the rotation drops the peer) or just miss (7: no unanimity, the
    // rotation keeps it and the first configuration re-learns the peer).
    for thresholds in [&[4][..], &[4, 6], &[4, 7]] {
        let serial = encode(&mut build(thresholds, true, None));
        let sharded = encode(&mut build(thresholds, false, Some(2)));
        assert_eq!(sharded, serial, "thresholds {thresholds:?}");
    }
    let rotation_kept = build(&[4, 7], true, None).run();
    assert!(
        rotation_kept.config("evict4").unwrap().nodes[0].probes_lost > lost,
        "without unanimity node 0 keeps probing the dead peer"
    );
}

#[test]
fn two_consecutive_runs_agree_across_engines() {
    // A second `run()` replays the schedule over the engines the first one
    // left — sequence counters, pending probes and loss streaks included.
    // The planner has to start from those, not from zero: when it numbered
    // the second run's probes from 0 again while the engines carried on,
    // every reply of the second run was ignored as uncorrelated.
    let build = || {
        let workload = PlanetLabConfig::small(32)
            .with_seed(19)
            .with_link_config(LinkModelConfig::default().with_loss_probability(0.05));
        let sim_config = SimConfig::new(600.0, 5.0)
            .with_measurement_start(0.0)
            .with_initial_neighbors(4);
        // The crashed node stays down across the boundary: the second run
        // restarts it from the snapshot the first one took.
        let scenario = Scenario::new()
            .at(580.0, ScenarioAction::Crash { nodes: vec![3] })
            .at(100.0, ScenarioAction::Restart { nodes: vec![3] });
        Simulator::new(
            workload,
            sim_config,
            vec![(
                "mp".to_string(),
                NodeConfig::builder().max_consecutive_losses(3).build(),
            )],
        )
        .with_scenario(scenario)
    };
    let staged = |mut simulator: Simulator| {
        let first = simulator.run();
        let second = simulator.run();
        let totals = second.config("mp").unwrap();
        (
            format!("{first:?}"),
            format!("{second:?}"),
            totals.total_responses_received(),
            totals.total_responses_ignored(),
        )
    };
    let reference = staged(build().with_serial_execution(true));
    assert!(reference.2 > 0, "the second run digests replies");
    for threads in [1, 2, 3] {
        let engine = staged(build().with_threads(threads));
        assert_eq!(engine.2, reference.2, "{threads} workers: replies received");
        assert_eq!(engine.3, reference.3, "{threads} workers: replies ignored");
        assert!(engine.0 == reference.0, "{threads} workers: first run");
        assert!(engine.1 == reference.1, "{threads} workers: second run");
    }
}

#[test]
fn the_default_engine_at_256_nodes_matches_serial_and_three_workers() {
    // `run()` shards 256 nodes on its own (two workers on a two-core host,
    // the calling thread alone on a one-core host):
    // whatever it picked, the report and the event count must equal the
    // serial reference and an explicit three-worker run byte for byte.
    let build = || {
        let workload = PlanetLabConfig::small(256).with_seed(17);
        let sim_config = SimConfig::new(600.0, 5.0)
            .with_measurement_start(300.0)
            .with_protocol_seed(0x5EED);
        Simulator::new(
            workload,
            sim_config,
            vec![
                ("mp".to_string(), NodeConfig::paper_defaults()),
                ("raw".to_string(), NodeConfig::original_vivaldi()),
            ],
        )
    };
    let run = |mut simulator: Simulator| {
        let report = encode(&mut simulator);
        (report, simulator.events_popped())
    };
    let (serial, serial_events) = run(build().with_serial_execution(true));
    let (default, default_events) = run(build());
    let (three, three_events) = run(build().with_threads(3));
    assert!(serial_events > 0);
    assert_eq!(default_events, serial_events);
    assert_eq!(three_events, serial_events);
    assert!(default == serial, "default run() diverged from serial");
    assert!(three == serial, "with_threads(3) diverged from serial");
}
