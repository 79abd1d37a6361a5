//! Stream-preservation contract of the adversarial robustness layer.
//!
//! The Byzantine machinery — per-node `AdversaryModel`s, the base-RTT drift
//! walk, and the MAD outlier gate — must be *invisible when off*: a
//! configuration with adversary fraction 0, drift sigma 0 and the gate
//! disabled has to serialize to exactly the same `SimReport` bytes as a
//! configuration that never mentions any of them, in serial and sharded
//! execution alike. These tests pin that contract, plus the sharded/serial
//! byte-identity of runs where the attacks *are* live.

use proptest::prelude::*;

use nc_netsim::adversary::AdversaryModel;
use nc_netsim::linkmodel::LinkModelConfig;
use nc_netsim::planetlab::PlanetLabConfig;
use nc_netsim::scenario::{Scenario, ScenarioAction};
use nc_netsim::sim::{SimConfig, Simulator};
use stable_nc::{NodeConfig, OutlierGateConfig};

const NODES: usize = 10;

fn encode(simulator: &mut Simulator) -> String {
    format!("{:?}", simulator.run())
}

fn base_sim_config() -> SimConfig {
    SimConfig::new(600.0, 5.0)
        .with_measurement_start(100.0)
        .with_initial_neighbors(4)
}

fn liar() -> AdversaryModel {
    AdversaryModel::CoordinateLiar {
        displacement_ms: 2_000.0,
        inflate: 1.0,
        error_estimate: 0.01,
    }
}

#[test]
fn zero_adversary_fraction_preserves_the_event_stream() {
    let workload = || PlanetLabConfig::small(NODES).with_seed(42);
    let configs = || vec![("mp".to_string(), NodeConfig::paper_defaults())];
    let baseline = encode(&mut Simulator::new(
        workload(),
        base_sim_config(),
        configs(),
    ));
    // An adversary block with fraction 0 selects nobody, so the adversary
    // RNG is never consumed and the report must not change by a byte.
    let with_block = encode(&mut Simulator::new(
        workload(),
        base_sim_config().with_adversaries(0.0, liar()),
        configs(),
    ));
    assert_eq!(with_block, baseline);
}

#[test]
fn zero_drift_sigma_preserves_the_event_stream() {
    let sim_config = base_sim_config;
    let configs = || vec![("mp".to_string(), NodeConfig::paper_defaults())];
    let baseline = encode(&mut Simulator::new(
        PlanetLabConfig::small(NODES).with_seed(42),
        sim_config(),
        configs(),
    ));
    // Drift with zero magnitude draws no walk levels and multiplies nothing
    // in: byte-identical to a link model that never mentions drift.
    let with_zero_drift = encode(&mut Simulator::new(
        PlanetLabConfig::small(NODES)
            .with_seed(42)
            .with_link_config(LinkModelConfig::default().with_drift_walk(0.0, 600.0)),
        sim_config(),
        configs(),
    ));
    assert_eq!(with_zero_drift, baseline);
}

#[test]
fn live_adversaries_change_the_report_and_the_gate_rejects_them() {
    let workload = || {
        PlanetLabConfig::small(NODES)
            .with_seed(42)
            .with_link_config(LinkModelConfig::default().with_drift_walk(0.05, 600.0))
    };
    let adversarial = || base_sim_config().with_adversaries(0.3, liar());
    let honest_report = Simulator::new(
        workload(),
        base_sim_config(),
        vec![("mp".to_string(), NodeConfig::paper_defaults())],
    )
    .run();
    let mut sim = Simulator::new(
        workload(),
        adversarial(),
        vec![
            ("undefended".to_string(), NodeConfig::paper_defaults()),
            (
                "defended".to_string(),
                NodeConfig::builder()
                    .outlier_gate(OutlierGateConfig::default())
                    .build(),
            ),
        ],
    );
    let adversaries = sim.adversaries();
    assert_eq!(adversaries.len(), 3, "0.3 of 10 nodes");
    let report = sim.run();

    let undefended = report.config("undefended").unwrap();
    let defended = report.config("defended").unwrap();
    // The gate visibly rejects observations; without it only Vivaldi's
    // plausibility check runs, which a 2 s lie does not trip.
    assert!(defended.total_observations_rejected() > undefended.total_observations_rejected());
    // And the attack really is an attack: the undefended arm is worse off
    // than the honest baseline run.
    let honest = honest_report.config("mp").unwrap();
    assert!(honest.total_observations_rejected() <= undefended.total_observations_rejected());
}

proptest! {
    #[test]
    fn sharded_adversarial_runs_match_serial(
        seed in 0u64..5_000,
        family in 0u32..3,
        fraction in 0.0f64..0.5,
        drift_word in 0u32..2,
        gate_word in 0u32..2,
        scripted in 0u32..2,
    ) {
        let model = match family {
            0 => liar(),
            1 => AdversaryModel::DelayAttacker { extra_delay_ms: 400.0 },
            _ => AdversaryModel::JitterBomb { max_extra_delay_ms: 900.0 },
        };
        let drift = drift_word == 1;
        let gated = gate_word == 1;
        let build = || {
            let mut link = LinkModelConfig::default().with_loss_probability(0.02);
            if drift {
                link = link.with_drift_walk(0.08, 300.0);
            }
            let workload = PlanetLabConfig::small(NODES)
                .with_seed(seed)
                .with_link_config(link);
            let sim_config = base_sim_config().with_adversaries(fraction, model.clone());
            let mut node = NodeConfig::builder();
            if gated {
                node = node.outlier_gate(OutlierGateConfig::default());
            }
            let mut sim = Simulator::new(
                workload,
                sim_config,
                vec![("mp".to_string(), node.build())],
            );
            if scripted == 1 {
                // Mid-run compromise and cleanup of one scripted node, on
                // top of the seeded fraction.
                sim = sim.with_scenario(
                    Scenario::new()
                        .at(200.0, ScenarioAction::SetAdversary {
                            nodes: vec![1],
                            model: Some(model.clone()),
                        })
                        .at(400.0, ScenarioAction::SetAdversary {
                            nodes: vec![1],
                            model: None,
                        }),
                );
            }
            sim
        };
        let serial = encode(&mut build().with_serial_execution(true));
        for threads in [2, 4] {
            let sharded = encode(&mut build().with_threads(threads));
            prop_assert_eq!(
                &sharded, &serial,
                "sharded adversarial run diverged (threads {})", threads
            );
        }
    }
}
