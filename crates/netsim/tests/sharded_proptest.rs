//! Property test for the plan/execute engine (vendored proptest): across
//! *randomized* loss rates, churn schedules and partition windows, a run on
//! 1, 2 or 4 workers must serialize to exactly the same bytes as the
//! reference loop's. The
//! hand-picked scenarios in `sharded_determinism.rs` pin the known corner
//! cases; this suite searches the space between them (crashes racing
//! in-flight probes, restarts expiring pending streaks, partitions slicing
//! arbitrary groups, gossip on and off, several worker-thread counts).

use proptest::prelude::*;

use nc_netsim::linkmodel::LinkModelConfig;
use nc_netsim::planetlab::PlanetLabConfig;
use nc_netsim::scenario::{Scenario, ScenarioAction};
use nc_netsim::sim::{SimConfig, Simulator};
use stable_nc::NodeConfig;

const NODES: usize = 10;
const DURATION_S: f64 = 500.0;

/// Decodes one churn operation from a random word (the vendored proptest
/// shim offers primitive strategies only, so structured cases are derived
/// from integers): a crash + restart pair, a graceful leave, or a timed
/// partition over an arbitrary node subset.
fn apply_op(scenario: Scenario, word: u64) -> Scenario {
    let node = ((word >> 2) % NODES as u64) as usize;
    let at_s = 50.0 + ((word >> 8) % 300) as f64;
    match word % 3 {
        0 => {
            let downtime_s = 30.0 + ((word >> 18) % 90) as f64;
            scenario
                .at(at_s, ScenarioAction::Crash { nodes: vec![node] })
                .at(
                    at_s + downtime_s,
                    ScenarioAction::Restart { nodes: vec![node] },
                )
        }
        1 => scenario.at(at_s, ScenarioAction::Leave { nodes: vec![node] }),
        _ => {
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
    }
}

proptest! {
    #[test]
    fn sharded_report_matches_serial_over_randomized_schedules(
        seed in 0u64..10_000,
        loss in 0.0f64..0.15,
        gossip_word in 0u32..2,
        evict_word in 0u32..8,
        op_words in proptest::collection::vec(0u64..u64::MAX, 0..5),
    ) {
        let gossip = gossip_word == 1;
        // 2 in 8 draws disable eviction entirely; the rest spread the
        // threshold over 2..=6 consecutive losses.
        let evict = (evict_word >= 2).then(|| 2 + (evict_word - 2) % 5);
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
            let scenario = op_words.iter().fold(Scenario::new(), |s, &w| apply_op(s, w));
            Simulator::new(
                workload,
                sim_config,
                vec![("mp".to_string(), config.build())],
            )
            .with_scenario(scenario)
        };
        let serial = serde::json::to_string(&build().with_serial_execution(true).run());
        for threads in [1usize, 2, 4] {
            let sharded = serde::json::to_string(&build().with_threads(threads).run());
            prop_assert_eq!(
                &sharded, &serial,
                "sharded ({} threads) diverged from serial (seed {})", threads, seed
            );
        }
    }
}
