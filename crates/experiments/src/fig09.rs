//! Figure 9: effect of the window size on the window-based heuristics.
//!
//! With the thresholds fixed, the paper grows the per-window size from 2²
//! to 2¹² and observes that large windows modestly *improve* accuracy while
//! steadily improving stability and reducing the application-update
//! frequency; only extremely large windows (which barely ever update) hurt.
//! The deployment uses 32 as a conservative choice.
//!
//! Note on scale: a window of `k` makes its first comparison after `k`
//! observations, one per 5 s probe, so the sweep stops at the largest window
//! that fills within the run — 1024 in `standard`'s 90 minutes (1080
//! observations a node), 32 in `quick`. The paper's 2048 and 4096 need its
//! four-hour run. The ENERGY statistic is slid, O(k) distance evaluations an
//! observation, so the large windows cost no more to simulate than that.

use stable_nc::{HeuristicConfig, NodeConfig};

use crate::sweeps::{family_points, render_sweep, run_sweep, SweepPoint};
use crate::workloads::Scale;

/// Configuration of the Figure 9 experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig09Config {
    /// Workload scale.
    pub scale: Scale,
    /// Window sizes to sweep.
    pub windows: Vec<usize>,
    /// ENERGY threshold (fixed at the paper's 8).
    pub energy_threshold: f64,
    /// RELATIVE threshold (fixed at the paper's 0.3).
    pub relative_threshold: f64,
}

impl Fig09Config {
    /// Seconds-scale run for tests.
    pub fn quick() -> Self {
        Fig09Config {
            scale: Scale::Quick,
            windows: vec![4, 8, 32],
            energy_threshold: 8.0,
            relative_threshold: 0.3,
        }
    }

    /// Default run for the binary.
    pub fn standard() -> Self {
        Fig09Config {
            scale: Scale::Standard,
            windows: vec![4, 8, 16, 32, 64, 128, 256, 512, 1024],
            energy_threshold: 8.0,
            relative_threshold: 0.3,
        }
    }
}

/// Result of the Figure 9 experiment.
#[derive(Debug, Clone)]
pub struct Fig09Result {
    /// One point per `(heuristic, window size)` pair.
    pub points: Vec<SweepPoint>,
}

impl Fig09Result {
    /// Points of one heuristic family ordered by window size.
    pub fn family(&self, family: &str) -> Vec<&SweepPoint> {
        family_points(&self.points, family)
    }

    /// Renders the sweep table.
    pub fn render(&self) -> String {
        render_sweep(
            "Figure 9: window-size sweep for ENERGY and RELATIVE (thresholds fixed)",
            &self.points,
        )
    }
}

/// Runs the Figure 9 experiment.
pub fn run(config: Fig09Config) -> Fig09Result {
    let mut entries = Vec::new();
    for &window in &config.windows {
        entries.push((
            "ENERGY".to_string(),
            window as f64,
            NodeConfig::builder()
                .heuristic(HeuristicConfig::Energy {
                    threshold: config.energy_threshold,
                    window,
                })
                .build(),
        ));
        entries.push((
            "RELATIVE".to_string(),
            window as f64,
            NodeConfig::builder()
                .heuristic(HeuristicConfig::Relative {
                    threshold: config.relative_threshold,
                    window,
                })
                .build(),
        ));
    }
    Fig09Result {
        points: run_sweep(config.scale, entries),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn larger_windows_do_not_increase_update_frequency() {
        // `quick`'s own windows, and — on the 90-minute run they need in
        // order to fill — the two largest of `standard` beside the paper's 32.
        let large = Fig09Config {
            windows: vec![32, 512, 1024],
            ..Fig09Config::standard()
        };
        for config in [Fig09Config::quick(), large] {
            let result = run(config);
            for family in ["ENERGY", "RELATIVE"] {
                let points = result.family(family);
                let first = points.first().unwrap();
                let last = points.last().unwrap();
                assert!(
                    last.updates_per_node_second <= first.updates_per_node_second + 1e-9,
                    "{family}: update rate should fall with window size ({:.4} -> {:.4})",
                    first.updates_per_node_second,
                    last.updates_per_node_second
                );
                assert!(
                    last.updates_per_node_second > 0.0,
                    "{family}: window {} never filled",
                    last.parameter
                );
            }
        }
    }

    #[test]
    fn every_window_size_produces_finite_metrics() {
        let result = run(Fig09Config::quick());
        assert_eq!(result.points.len(), 6);
        for p in &result.points {
            assert!(p.median_relative_error.is_finite());
            assert!(p.instability.is_finite());
        }
    }

    #[test]
    fn render_mentions_window_sweep() {
        let result = run(Fig09Config::quick());
        assert!(result.render().contains("window-size sweep"));
    }
}
