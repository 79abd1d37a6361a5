//! Figure 6: confidence building on a low-latency cluster.
//!
//! Three nodes on a local cluster measure each other once per second for ten
//! minutes. Because the true latency (≈ 0.4–1.2 ms) is at the resolution of
//! the measurement software, the 5 % of samples above 1.2 ms look like huge
//! *relative* errors and keep knocking a node's confidence down. With the
//! confidence-building margin (treat prediction and observation within 3 ms
//! as equal), the node reaches and holds ~100 % confidence; without it,
//! confidence hovers around 75 %.

use nc_netsim::cluster::ClusterModel;
use nc_vivaldi::{RemoteObservation, VivaldiConfig, VivaldiState};

/// Configuration of the Figure 6 experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig06Config {
    /// Duration of the run in seconds (the paper shows ten minutes).
    pub duration_s: usize,
    /// Measurement-error margin in milliseconds used by the
    /// confidence-building variant.
    pub margin_ms: f64,
    /// Workload seed.
    pub seed: u64,
}

impl Fig06Config {
    /// Seconds-scale run for tests (two simulated minutes).
    pub fn quick() -> Self {
        Fig06Config {
            duration_s: 120,
            margin_ms: 3.0,
            seed: 42,
        }
    }

    /// The paper's ten-minute run.
    pub fn standard() -> Self {
        Fig06Config {
            duration_s: 600,
            margin_ms: 3.0,
            seed: 42,
        }
    }
}

/// Confidence of the observed node over time, for one variant.
#[derive(Debug, Clone)]
pub struct ConfidenceSeries {
    /// `(time_s, confidence)` samples, one per second.
    pub samples: Vec<(f64, f64)>,
}

impl ConfidenceSeries {
    /// Mean confidence over the second half of the run (after start-up).
    pub fn steady_state_mean(&self) -> f64 {
        let half = self.samples.len() / 2;
        let tail = &self.samples[half..];
        if tail.is_empty() {
            return 0.0;
        }
        tail.iter().map(|(_, c)| c).sum::<f64>() / tail.len() as f64
    }
}

/// Result of the Figure 6 experiment.
#[derive(Debug, Clone)]
pub struct Fig06Result {
    /// Confidence over time with the measurement-error margin enabled.
    pub with_building: ConfidenceSeries,
    /// Confidence over time without it.
    pub without_building: ConfidenceSeries,
}

impl Fig06Result {
    /// Renders both series and the steady-state summary.
    pub fn render(&self) -> String {
        let mut out = String::from("Figure 6: confidence on a 3-node cluster (1 s sampling)\n\n");
        out.push_str("time_s  with_building  without_building\n");
        let step = (self.with_building.samples.len() / 40).max(1);
        for (i, ((t, with), (_, without))) in self
            .with_building
            .samples
            .iter()
            .zip(self.without_building.samples.iter())
            .enumerate()
        {
            if i % step == 0 {
                out.push_str(&format!("{t:6.0}  {with:13.3}  {without:16.3}\n"));
            }
        }
        out.push_str(&format!(
            "\nsteady-state mean confidence: with building {:.3} (paper ~1.0), without {:.3} (paper ~0.75)\n",
            self.with_building.steady_state_mean(),
            self.without_building.steady_state_mean()
        ));
        out
    }
}

fn run_variant(config: &Fig06Config, margin: Option<f64>) -> ConfidenceSeries {
    let vivaldi_config = VivaldiConfig::paper_defaults().with_confidence_building(margin);
    let mut nodes: Vec<VivaldiState> = (0..3)
        .map(|i| VivaldiState::new(vivaldi_config.clone().with_seed(config.seed + i)))
        .collect();
    let mut model = ClusterModel::paper_cluster(config.seed);
    let mut samples = Vec::with_capacity(config.duration_s);
    for second in 0..config.duration_s {
        // Every node samples one neighbour per second, round-robin.
        for i in 0..3 {
            let j = (i + 1 + second % 2) % 3;
            let rtt = model.sample();
            let observation = RemoteObservation::new(
                nodes[j].coordinate().clone(),
                nodes[j].error_estimate(),
                rtt,
            );
            nodes[i].observe(&observation);
        }
        samples.push((second as f64, nodes[0].confidence()));
    }
    ConfidenceSeries { samples }
}

/// Runs the Figure 6 experiment: the same cluster workload with and without
/// confidence building.
pub fn run(config: Fig06Config) -> Fig06Result {
    Fig06Result {
        with_building: run_variant(&config, Some(config.margin_ms)),
        without_building: run_variant(&config, None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confidence_building_reaches_full_confidence() {
        let result = run(Fig06Config::quick());
        let with = result.with_building.steady_state_mean();
        assert!(with > 0.9, "with building: {with:.3}");
    }

    #[test]
    fn without_building_confidence_is_depressed() {
        let result = run(Fig06Config::quick());
        let with = result.with_building.steady_state_mean();
        let without = result.without_building.steady_state_mean();
        assert!(
            without < with,
            "without building ({without:.3}) should trail with building ({with:.3})"
        );
        assert!(
            without < 0.95,
            "jitter should keep confidence below ~95%: {without:.3}"
        );
    }

    #[test]
    fn series_cover_the_whole_run() {
        let config = Fig06Config::quick();
        let result = run(config);
        assert_eq!(result.with_building.samples.len(), config.duration_s);
        assert_eq!(result.without_building.samples.len(), config.duration_s);
        assert!(result.render().contains("steady-state"));
    }
}
