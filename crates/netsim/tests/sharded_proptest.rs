//! Property test for the plan/execute engine (vendored proptest): across
//! *randomized* loss rates, churn schedules, partition windows and
//! adversaries, a run on 1, 2 or 4 workers must serialize to exactly the
//! same bytes as the reference loop's. The reference and the planner run
//! one event loop and differ only in where its engine decisions come from —
//! the engines, or the planner's ledgers — so this suite draws every kind of
//! event whose decisions differ in source: crashes racing in-flight probes,
//! restarts expiring pending streaks, fresh joins bootstrapping their
//! rotation, partitions slicing arbitrary groups, coordinate liars switched
//! on and off, gossip on and off, and beside some runs a second
//! configuration with another eviction threshold, so that the planner's
//! per-threshold ledgers and the unanimity rule are drawn too. The
//! hand-picked scenarios in `sharded_determinism.rs` pin the known corner
//! cases.

use proptest::prelude::*;

use nc_netsim::adversary::AdversaryModel;
use nc_netsim::linkmodel::LinkModelConfig;
use nc_netsim::planetlab::PlanetLabConfig;
use nc_netsim::scenario::{Scenario, ScenarioAction};
use nc_netsim::sim::{SimConfig, Simulator};
use stable_nc::NodeConfig;

const NODES: usize = 10;
const DURATION_S: f64 = 500.0;

/// Decodes one churn operation from a random word (the vendored proptest
/// shim offers primitive strategies only, so structured cases are derived
/// from integers): a crash + restart pair, a graceful leave, a timed
/// partition over an arbitrary node subset, a join with fresh engines — of
/// a node that starts down, or of one that crashed and never restarts — or
/// a spell as a coordinate liar.
fn apply_op(scenario: Scenario, word: u64) -> Scenario {
    let node = ((word >> 3) % NODES as u64) as usize;
    let at_s = 50.0 + ((word >> 8) % 300) as f64;
    let width_s = 30.0 + ((word >> 18) % 90) as f64;
    match word % 5 {
        0 => scenario
            .at(at_s, ScenarioAction::Crash { nodes: vec![node] })
            .at(
                at_s + width_s,
                ScenarioAction::Restart { nodes: vec![node] },
            ),
        1 => scenario.at(at_s, ScenarioAction::Leave { nodes: vec![node] }),
        2 => {
            let mask = ((word >> 28) & 0xFFFF) | 1;
            let width_s = 40.0 + ((word >> 44) % 110) as f64;
            let group: Vec<usize> = (0..NODES).filter(|&n| mask & (1 << n) != 0).collect();
            scenario.at(
                at_s,
                ScenarioAction::Partition {
                    group,
                    heal_at_s: at_s + width_s,
                },
            )
        }
        3 => {
            let join = ScenarioAction::Join { nodes: vec![node] };
            if (word >> 28) & 1 == 0 {
                scenario.with_initially_down(vec![node]).at(at_s, join)
            } else {
                scenario
                    .at(at_s, ScenarioAction::Crash { nodes: vec![node] })
                    .at(at_s + width_s, join)
            }
        }
        _ => {
            let liar = AdversaryModel::CoordinateLiar {
                displacement_ms: 500.0 + ((word >> 28) % 1_500) as f64,
                inflate: 1.0,
                error_estimate: 0.01,
            };
            scenario
                .at(
                    at_s,
                    ScenarioAction::SetAdversary {
                        nodes: vec![node],
                        model: Some(liar),
                    },
                )
                .at(
                    at_s + width_s,
                    ScenarioAction::SetAdversary {
                        nodes: vec![node],
                        model: None,
                    },
                )
        }
    }
}

/// The eviction thresholds a draw picks from: none at all, or 2 to 6
/// consecutive losses.
const THRESHOLDS: [Option<u32>; 6] = [None, Some(2), Some(3), Some(4), Some(5), Some(6)];

proptest! {
    #[test]
    fn sharded_report_matches_serial_over_randomized_schedules(
        seed in 0u64..10_000,
        loss in 0.0f64..0.15,
        gossip_word in 0u32..2,
        evict_word in 0u32..8,
        second_word in 0u32..10,
        op_words in proptest::collection::vec(0u64..u64::MAX, 0..5),
    ) {
        let gossip = gossip_word == 1;
        // 2 in 8 draws disable eviction entirely; the rest spread the
        // threshold over 2..=6 consecutive losses.
        let evict = (evict_word >= 2).then(|| 2 + (evict_word - 2) % 5);
        // Half the draws run a second configuration beside the first, with
        // any other threshold (none included).
        let second = (second_word >= 5).then(|| {
            let others: Vec<Option<u32>> =
                THRESHOLDS.into_iter().filter(|&other| other != evict).collect();
            others[second_word as usize % others.len()]
        });
        let build = || {
            let workload = PlanetLabConfig::small(NODES)
                .with_seed(seed)
                .with_link_config(
                    LinkModelConfig::default().with_loss_probability(loss),
                );
            let sim_config = SimConfig::new(DURATION_S, 5.0)
                .with_measurement_start(100.0)
                .with_initial_neighbors(3)
                .with_gossip(gossip)
                .with_tracked_nodes(vec![0, NODES / 2], 50.0);
            let mut config = NodeConfig::builder();
            if let Some(max) = evict {
                config = config.max_consecutive_losses(max);
            }
            let mut configs = vec![("mp".to_string(), config.build())];
            if let Some(max_consecutive_losses) = second {
                let mut raw = NodeConfig::original_vivaldi();
                raw.max_consecutive_losses = max_consecutive_losses;
                configs.push(("raw".to_string(), raw));
            }
            let scenario = op_words.iter().fold(Scenario::new(), |s, &w| apply_op(s, w));
            Simulator::new(workload, sim_config, configs).with_scenario(scenario)
        };
        let serial = format!("{:?}", build().with_serial_execution(true).run());
        for threads in [1usize, 2, 4] {
            let sharded = format!("{:?}", build().with_threads(threads).run());
            prop_assert_eq!(
                &sharded, &serial,
                "sharded ({} threads) diverged from serial (seed {})", threads, seed
            );
        }
    }
}
