//! Shared workload definitions for the coordinate-system experiments.
//!
//! Figures 5 and 8–14 and Table I all run the same kind of workload — a mesh
//! of PlanetLab-like nodes probing each other for a few hours — and differ
//! only in which coordinate-stack configurations they compare and which
//! metrics they report. [`Scale`] selects how big that workload is:
//!
//! * [`Scale::Quick`] — seconds; used by the test suite to check the
//!   qualitative shape of each result.
//! * [`Scale::Standard`] — a few minutes of wall-clock time; `run_all`'s
//!   default.
//! * [`Scale::Paper`] — the paper's own dimensions (269/270 nodes, four
//!   hours of simulated time at the deployment's five-second probing
//!   interval). Expect a long run.

use nc_netsim::planetlab::PlanetLabConfig;
use nc_netsim::sim::{SimConfig, Simulator};
use nc_netsim::trace::{TraceConfig, TraceGenerator};
use stable_nc::NodeConfig;

/// The seed of every experiment's PlanetLab-like node placement: each figure
/// runs on the same generated network, so their numbers are comparable.
pub(crate) const PLACEMENT_SEED: u64 = 20050502;

/// How large a workload the experiment should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// A few seconds of compute; qualitative shape only.
    Quick,
    /// The default: large enough for stable numbers, minutes of compute.
    Standard,
    /// The paper's full dimensions; expect a long run.
    Paper,
}

impl Scale {
    /// Number of nodes in the simulated mesh.
    pub fn node_count(self) -> usize {
        match self {
            Scale::Quick => 16,
            Scale::Standard => 48,
            Scale::Paper => 269,
        }
    }

    /// Simulated duration in seconds.
    pub fn duration_s(self) -> f64 {
        match self {
            Scale::Quick => 2_000.0,
            Scale::Standard => 5_400.0,
            Scale::Paper => 4.0 * 3600.0,
        }
    }

    /// Probe interval in seconds (the paper's deployment probes every 5 s).
    pub fn probe_interval_s(self) -> f64 {
        5.0
    }

    /// Start of the measurement window (the second half of the run, as in the
    /// paper; the quick scale measures only the final 40% so the stack has
    /// converged even in a seconds-long run).
    pub fn measurement_start_s(self) -> f64 {
        match self {
            Scale::Quick => self.duration_s() * 0.6,
            _ => self.duration_s() / 2.0,
        }
    }

    /// Number of observations per link used by the trace-analysis
    /// experiments (Figures 2–4).
    pub fn trace_samples_per_link(self) -> usize {
        match self {
            Scale::Quick => 2_000,
            Scale::Standard => 20_000,
            Scale::Paper => 259_200, // 3 days at 1 s
        }
    }

    /// Number of links sampled by the per-link analyses (Figure 4).
    pub fn trace_link_count(self) -> usize {
        match self {
            Scale::Quick => 8,
            Scale::Standard => 40,
            Scale::Paper => 200,
        }
    }
}

impl std::fmt::Display for Scale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Scale::Quick => "quick",
            Scale::Standard => "standard",
            Scale::Paper => "paper",
        };
        write!(f, "{name}")
    }
}

/// Builds the standard coordinate-system simulator for this scale with the
/// given named configurations.
pub fn coordinate_simulator(scale: Scale, configs: Vec<(String, NodeConfig)>) -> Simulator {
    let workload = PlanetLabConfig::small(scale.node_count()).with_seed(PLACEMENT_SEED);
    let sim_config = SimConfig::new(scale.duration_s(), scale.probe_interval_s())
        .with_measurement_start(scale.measurement_start_s())
        .with_initial_neighbors(8.min(scale.node_count() - 1));
    Simulator::new(workload, sim_config, configs)
}

/// Builds the raw-trace generator (Figures 2–4) for this scale. The trace
/// probes once per second as the paper's measurement trace did.
pub fn trace_generator(scale: Scale) -> TraceGenerator {
    let network = PlanetLabConfig::small(scale.node_count().max(16)).with_seed(PLACEMENT_SEED);
    let duration_s = scale.trace_samples_per_link() as f64;
    TraceGenerator::new(TraceConfig::new(network, duration_s, 1.0))
}

/// The four configurations compared by the PlanetLab deployment experiment
/// (Figures 13–14): {MP filter, no filter} × {ENERGY application updates,
/// raw application coordinate}.
pub fn deployment_configs() -> Vec<(String, NodeConfig)> {
    use stable_nc::{FilterConfig, HeuristicConfig};
    vec![
        (
            "energy+mp".to_string(),
            NodeConfig::builder()
                .filter(FilterConfig::paper_mp())
                .heuristic(HeuristicConfig::paper_energy())
                .build(),
        ),
        (
            "raw-mp".to_string(),
            NodeConfig::builder()
                .filter(FilterConfig::paper_mp())
                .heuristic(HeuristicConfig::FollowSystem)
                .build(),
        ),
        (
            "energy+nofilter".to_string(),
            NodeConfig::builder()
                .filter(FilterConfig::Raw)
                .heuristic(HeuristicConfig::paper_energy())
                .build(),
        ),
        (
            "raw-nofilter".to_string(),
            NodeConfig::builder()
                .filter(FilterConfig::Raw)
                .heuristic(HeuristicConfig::FollowSystem)
                .build(),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered_by_size() {
        assert!(Scale::Quick.node_count() < Scale::Standard.node_count());
        assert!(Scale::Standard.node_count() < Scale::Paper.node_count());
        assert!(Scale::Quick.duration_s() < Scale::Standard.duration_s());
        assert_eq!(Scale::Paper.node_count(), 269);
        assert_eq!(Scale::Paper.duration_s(), 4.0 * 3600.0);
    }

    #[test]
    fn display_names() {
        assert_eq!(Scale::Quick.to_string(), "quick");
        assert_eq!(Scale::Paper.to_string(), "paper");
    }

    #[test]
    fn deployment_configs_cover_the_two_by_two() {
        let configs = deployment_configs();
        assert_eq!(configs.len(), 4);
        let names: Vec<&str> = configs.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"energy+mp"));
        assert!(names.contains(&"raw-nofilter"));
    }

    #[test]
    fn quick_simulator_builds() {
        let sim = coordinate_simulator(
            Scale::Quick,
            vec![("mp".to_string(), NodeConfig::paper_defaults())],
        );
        assert_eq!(sim.topology().len(), Scale::Quick.node_count());
    }

    #[test]
    fn quick_trace_generator_builds() {
        let g = trace_generator(Scale::Quick);
        assert!(g.topology().len() >= 16);
    }
}
