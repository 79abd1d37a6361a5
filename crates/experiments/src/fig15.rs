//! Figure 15 (extension): liar tolerance — median relative error versus the
//! fraction of Byzantine nodes, with and without the MAD outlier gate.
//!
//! The paper's filters are built for *honest* pathologies: queueing spikes,
//! heavy tails, slowly drifting base RTTs. This experiment asks what happens
//! when a fraction of the mesh instead lies outright — every probe reply
//! from an adversarial node claims a coordinate displaced by a couple of
//! seconds and near-perfect confidence — while the links underneath also
//! drift the way the paper's filters expect. Two stacks run side by side on
//! the identical schedule: the paper's defaults (`undefended`) and the same
//! stack with the MAD outlier gate armed (`defended`). For each adversary
//! fraction we record the median over *honest* nodes of the per-node median
//! system-level relative error, and report each arm's **tolerated
//! fraction**: the largest swept fraction whose error stays within double
//! that arm's own honest-mesh (fraction-0) baseline. The defended stack
//! should tolerate a strictly larger fraction of liars.

use nc_netsim::adversary::AdversaryModel;
use nc_netsim::linkmodel::LinkModelConfig;
use nc_netsim::metrics::ConfigMetrics;
use nc_netsim::planetlab::PlanetLabConfig;
use nc_netsim::sim::{SimConfig, Simulator};
use nc_stats::percentile;
use stable_nc::{NodeConfig, OutlierGateConfig};

use crate::report::{fmt, format_table};
use crate::workloads::{Scale, PLACEMENT_SEED};

/// Configuration of the liar-tolerance experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig15Config {
    /// Workload scale.
    pub scale: Scale,
    /// Adversary fractions to sweep (must include 0.0, the baseline).
    pub fractions: Vec<f64>,
    /// How far (ms) each liar displaces its claimed coordinate.
    pub displacement_ms: f64,
    /// Per-step sigma of the base-RTT drift walk underneath the mesh.
    pub drift_sigma: f64,
}

impl Fig15Config {
    /// Seconds-scale run for tests.
    pub fn quick() -> Self {
        Fig15Config {
            scale: Scale::Quick,
            fractions: vec![0.0, 0.1, 0.2, 0.3],
            displacement_ms: 2_000.0,
            drift_sigma: 0.05,
        }
    }

    /// Default run for the binary.
    pub fn standard() -> Self {
        Fig15Config {
            scale: Scale::Standard,
            fractions: vec![0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4],
            displacement_ms: 2_000.0,
            drift_sigma: 0.05,
        }
    }
}

/// One swept adversary fraction.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig15Point {
    /// Fraction of the mesh that lies.
    pub fraction: f64,
    /// Median over honest nodes of the per-node median relative error,
    /// paper-default stack.
    pub undefended_error: f64,
    /// The same with the MAD outlier gate armed.
    pub defended_error: f64,
    /// Observations rejected across the run, paper-default stack (Vivaldi
    /// plausibility only).
    pub undefended_rejections: u64,
    /// Observations rejected with the gate armed.
    pub defended_rejections: u64,
}

/// Result of the liar-tolerance experiment.
#[derive(Debug, Clone)]
pub struct Fig15Result {
    /// One point per swept fraction, in sweep order.
    pub points: Vec<Fig15Point>,
}

impl Fig15Result {
    /// The largest swept fraction whose error stays within `2×` the arm's
    /// own fraction-0 baseline — how many liars the stack absorbs before
    /// accuracy visibly breaks. `select` picks the arm's error out of a
    /// point.
    fn tolerated(&self, select: impl Fn(&Fig15Point) -> f64) -> f64 {
        let baseline = self
            .points
            .iter()
            .find(|p| p.fraction == 0.0)
            .map(&select)
            .expect("sweep includes the fraction-0 baseline");
        self.points
            .iter()
            .filter(|p| select(p) <= 2.0 * baseline)
            .map(|p| p.fraction)
            .fold(0.0, f64::max)
    }

    /// Tolerated fraction of the paper-default stack.
    pub fn undefended_tolerated_fraction(&self) -> f64 {
        self.tolerated(|p| p.undefended_error)
    }

    /// Tolerated fraction with the MAD outlier gate armed.
    pub fn defended_tolerated_fraction(&self) -> f64 {
        self.tolerated(|p| p.defended_error)
    }

    /// Renders the sweep table and the tolerated-fraction headline.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|p| {
                vec![
                    format!("{:.0}%", p.fraction * 100.0),
                    fmt(p.undefended_error),
                    fmt(p.defended_error),
                    p.undefended_rejections.to_string(),
                    p.defended_rejections.to_string(),
                ]
            })
            .collect();
        let mut out = String::from(
            "Figure 15: liar tolerance — honest-node median relative error vs adversary fraction\n\n",
        );
        out.push_str(&format_table(
            &[
                "liars",
                "undefended err",
                "defended err",
                "undef rejected",
                "def rejected",
            ],
            &rows,
        ));
        out.push_str(&format!(
            "\ntolerated liar fraction (error within 2x of the honest baseline):\n  \
             undefended: {:.0}%\n  defended:   {:.0}%\n",
            self.undefended_tolerated_fraction() * 100.0,
            self.defended_tolerated_fraction() * 100.0,
        ));
        out
    }
}

/// Median over honest nodes of the per-node median system relative error.
fn honest_median_error(metrics: &ConfigMetrics, adversaries: &[usize]) -> f64 {
    let errors: Vec<f64> = metrics
        .nodes
        .iter()
        .enumerate()
        .filter(|(index, _)| !adversaries.contains(index))
        .filter_map(|(_, node)| node.median_relative_error().ok())
        .collect();
    percentile(&errors, 50.0).unwrap_or(f64::NAN)
}

/// Runs the liar-tolerance experiment: one simulation per fraction, the
/// defended and undefended stacks side by side on the identical schedule.
pub fn run(config: Fig15Config) -> Fig15Result {
    let nodes = config.scale.node_count();
    let liar = AdversaryModel::CoordinateLiar {
        displacement_ms: config.displacement_ms,
        inflate: 1.0,
        error_estimate: 0.01,
    };
    let points = config
        .fractions
        .iter()
        .map(|&fraction| {
            let workload = PlanetLabConfig::small(nodes)
                .with_seed(PLACEMENT_SEED)
                .with_link_config(
                    LinkModelConfig::default().with_drift_walk(config.drift_sigma, 600.0),
                );
            let sim_config =
                SimConfig::new(config.scale.duration_s(), config.scale.probe_interval_s())
                    .with_measurement_start(config.scale.measurement_start_s())
                    .with_initial_neighbors(8.min(nodes - 1))
                    .with_adversaries(fraction, liar.clone());
            let mut sim = Simulator::new(
                workload,
                sim_config,
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
            let report = sim.run();
            let undefended = report.config("undefended").expect("undefended arm ran");
            let defended = report.config("defended").expect("defended arm ran");
            Fig15Point {
                fraction,
                undefended_error: honest_median_error(undefended, &adversaries),
                defended_error: honest_median_error(defended, &adversaries),
                undefended_rejections: undefended.total_observations_rejected(),
                defended_rejections: defended.total_observations_rejected(),
            }
        })
        .collect();
    Fig15Result { points }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defense_tolerates_strictly_more_liars() {
        let result = run(Fig15Config::quick());
        let undefended = result.undefended_tolerated_fraction();
        let defended = result.defended_tolerated_fraction();
        assert!(
            defended > undefended,
            "defense should raise the tolerated liar fraction \
             (undefended {undefended:.2}, defended {defended:.2}):\n{}",
            result.render()
        );
    }

    #[test]
    fn gate_is_quiet_on_an_honest_mesh_and_loud_under_attack() {
        let result = run(Fig15Config::quick());
        let baseline = &result.points[0];
        let attacked = result.points.last().unwrap();
        assert_eq!(baseline.fraction, 0.0);
        // Under attack the gate visibly rejects; the undefended stack has
        // only Vivaldi's plausibility check, which a smooth liar never trips.
        assert!(attacked.defended_rejections > baseline.defended_rejections);
        assert!(attacked.defended_rejections > attacked.undefended_rejections);
    }

    #[test]
    fn errors_are_finite_across_the_sweep() {
        let result = run(Fig15Config::quick());
        for p in &result.points {
            assert!(
                p.undefended_error.is_finite() && p.defended_error.is_finite(),
                "{p:?}"
            );
        }
        assert!(result.render().contains("tolerated"));
    }
}
