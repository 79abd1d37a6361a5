//! Figure 7: coordinates drift over time — they do not merely oscillate or
//! rotate.
//!
//! The paper tracks four nodes, one per region, over three hours and shows
//! that their coordinates move in consistent directions, reflecting genuine
//! changes in the underlying network. The consequence is that the
//! application-level coordinate *must* be updated eventually; the question
//! the later sections answer is *when*.

use nc_vivaldi::Coordinate;
use stable_nc::NodeConfig;

use crate::workloads::{coordinate_simulator, Scale, PLACEMENT_SEED};

/// Configuration of the Figure 7 experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig07Config {
    /// Workload scale.
    pub scale: Scale,
    /// Interval between trajectory samples (seconds).
    pub track_interval_s: f64,
}

impl Fig07Config {
    /// Seconds-scale run for tests.
    pub fn quick() -> Self {
        Fig07Config {
            scale: Scale::Quick,
            track_interval_s: 30.0,
        }
    }

    /// Default run for the binary.
    pub fn standard() -> Self {
        Fig07Config {
            scale: Scale::Standard,
            track_interval_s: 120.0,
        }
    }
}

/// Trajectory summary of one tracked node.
#[derive(Debug, Clone)]
pub struct NodeTrajectory {
    /// Node index.
    pub node: usize,
    /// Region label for the report.
    pub region: String,
    /// First sampled coordinate (after the measurement window opens).
    pub start: Coordinate,
    /// Last sampled coordinate.
    pub end: Coordinate,
    /// Straight-line distance between start and end (ms).
    pub net_displacement_ms: f64,
    /// Sum of the distances between consecutive samples (ms).
    pub path_length_ms: f64,
}

impl NodeTrajectory {
    /// Directionality of the movement: 1.0 means a straight march, values
    /// near 0 mean oscillation around a fixed point.
    pub fn directionality(&self) -> f64 {
        if self.path_length_ms <= 0.0 {
            0.0
        } else {
            self.net_displacement_ms / self.path_length_ms
        }
    }
}

/// Result of the Figure 7 experiment.
#[derive(Debug, Clone)]
pub struct Fig07Result {
    /// One trajectory per tracked node.
    pub trajectories: Vec<NodeTrajectory>,
}

impl Fig07Result {
    /// Renders the per-node trajectory summary.
    pub fn render(&self) -> String {
        let mut out =
            String::from("Figure 7: coordinate drift of one node per region over the run\n\n");
        for t in &self.trajectories {
            out.push_str(&format!(
                "node {:3} ({:8}): start {}  end {}  net {:.1} ms  path {:.1} ms  directionality {:.2}\n",
                t.node,
                t.region,
                t.start,
                t.end,
                t.net_displacement_ms,
                t.path_length_ms,
                t.directionality()
            ));
        }
        out
    }
}

/// Runs the Figure 7 experiment: the standard workload with one tracked node
/// per region, using the paper's full stack.
pub fn run(config: Fig07Config) -> Fig07Result {
    // Build a throwaway simulator first to learn the topology and pick one
    // node per region, then rebuild with tracking enabled.
    let probe = coordinate_simulator(
        config.scale,
        vec![("probe".to_string(), NodeConfig::paper_defaults())],
    );
    let mut tracked: Vec<(usize, String)> = Vec::new();
    for region in nc_netsim::topology::Region::ALL {
        if let Some(&node) = probe.topology().nodes_in_region(region).first() {
            tracked.push((node, region.to_string()));
        }
    }
    drop(probe);

    let workload = nc_netsim::planetlab::PlanetLabConfig::small(config.scale.node_count())
        .with_seed(PLACEMENT_SEED);
    let sim_config =
        nc_netsim::sim::SimConfig::new(config.scale.duration_s(), config.scale.probe_interval_s())
            .with_measurement_start(config.scale.measurement_start_s())
            .with_initial_neighbors(8.min(config.scale.node_count() - 1))
            .with_tracked_nodes(
                tracked.iter().map(|(n, _)| *n).collect(),
                config.track_interval_s,
            );
    let report = nc_netsim::sim::Simulator::new(
        workload,
        sim_config,
        vec![("mp".to_string(), NodeConfig::paper_defaults())],
    )
    .run();

    let metrics = report.config("mp").expect("configuration ran");
    let measurement_start = report.measurement_start_s;
    let mut trajectories = Vec::new();
    for (node, region) in tracked {
        let samples: Vec<&nc_netsim::metrics::TrackedCoordinate> = metrics
            .tracked
            .iter()
            .filter(|t| t.node == node && t.time_s >= measurement_start)
            .collect();
        if samples.len() < 2 {
            continue;
        }
        let start = samples.first().expect("len >= 2").system.clone();
        let end = samples.last().expect("len >= 2").system.clone();
        let net = start.distance(&end);
        let path: f64 = samples
            .windows(2)
            .map(|w| w[0].system.distance(&w[1].system))
            .sum();
        trajectories.push(NodeTrajectory {
            node,
            region,
            start,
            end,
            net_displacement_ms: net,
            path_length_ms: path,
        });
    }
    Fig07Result { trajectories }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_one_node_per_populated_region() {
        let result = run(Fig07Config::quick());
        assert!(
            result.trajectories.len() >= 3,
            "expected trajectories for most regions, got {}",
            result.trajectories.len()
        );
    }

    #[test]
    fn coordinates_keep_moving() {
        let result = run(Fig07Config::quick());
        for t in &result.trajectories {
            assert!(
                t.path_length_ms > 0.0,
                "node {} never moved during the measurement window",
                t.node
            );
        }
        // At least one node shows genuine net displacement rather than pure
        // oscillation.
        assert!(
            result
                .trajectories
                .iter()
                .any(|t| t.net_displacement_ms > 1.0),
            "coordinates should drift, not just wiggle"
        );
    }

    #[test]
    fn render_lists_regions() {
        let result = run(Fig07Config::quick());
        let text = result.render();
        assert!(text.contains("Figure 7"));
        assert!(text.contains("directionality"));
    }
}
