//! Figure 5: accuracy and stability of Vivaldi with and without the
//! moving-percentile filter.
//!
//! The paper runs Vivaldi on a four-hour trace section twice — once on raw
//! observations and once behind the MP filter — and reports, for the second
//! half of the run, CDFs over nodes of (a) median relative error, (b) 95th
//! percentile relative error, (c) 95th percentile per-node coordinate change
//! and (d) per-node instability, plus a histogram showing the filter trims
//! only the tail of the latency distribution.

use nc_filters::{LatencyFilter, MovingPercentileFilter};
use nc_netsim::metrics::ConfigMetrics;
use nc_stats::{Ecdf, Histogram};
use stable_nc::{FilterConfig, HeuristicConfig, NodeConfig};

use crate::report::render_cdf;
use crate::workloads::{coordinate_simulator, Scale};

/// Configuration of the Figure 5 experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig05Config {
    /// Workload scale.
    pub scale: Scale,
}

impl Fig05Config {
    /// Seconds-scale run for tests.
    pub fn quick() -> Self {
        Fig05Config {
            scale: Scale::Quick,
        }
    }

    /// Default run for the binary.
    pub fn standard() -> Self {
        Fig05Config {
            scale: Scale::Standard,
        }
    }
}

/// Result of the Figure 5 experiment.
#[derive(Debug, Clone)]
pub struct Fig05Result {
    /// Metrics of the MP-filtered configuration.
    pub mp: ConfigMetrics,
    /// Metrics of the unfiltered configuration.
    pub raw: ConfigMetrics,
    /// Histogram of raw observations of a sample of links (paper bins).
    pub raw_histogram: Histogram,
    /// Histogram of the same observations after MP filtering.
    pub filtered_histogram: Histogram,
}

impl Fig05Result {
    /// Renders every panel of the figure as text.
    pub fn render(&self) -> String {
        /// Extracts one panel's per-node series from a configuration's metrics.
        type PanelSeries = fn(&ConfigMetrics) -> Vec<f64>;
        let mut out = String::from("Figure 5: MP filter vs no filter\n\n");
        let panels: [(&str, PanelSeries); 4] = [
            ("median relative error per node", |m| {
                m.median_relative_errors()
            }),
            ("95th percentile relative error per node", |m| {
                m.p95_relative_errors()
            }),
            ("95th percentile coordinate change per node (ms)", |m| {
                m.p95_coordinate_changes()
            }),
            ("instability per node (ms/s)", |m| m.per_node_instability()),
        ];
        for (caption, extract) in panels {
            for (name, metrics) in [("MP Filter", &self.mp), ("No Filter", &self.raw)] {
                if let Ok(cdf) = Ecdf::new(extract(metrics)) {
                    out.push_str(&render_cdf(&format!("{caption} — {name}"), &cdf, 10));
                }
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "aggregate instability: MP {:.1} ms/s vs raw {:.1} ms/s\n",
            self.mp.aggregate_instability(),
            self.raw.aggregate_instability()
        ));
        out.push_str(&format!(
            "median of per-node median relative error: MP {:.3} vs raw {:.3}\n\n",
            self.mp.median_of_median_relative_error(),
            self.raw.median_of_median_relative_error()
        ));
        out.push_str("raw observation histogram:\n");
        out.push_str(&self.raw_histogram.to_table());
        out.push_str("\nMP-filtered histogram (tail trimmed, body intact):\n");
        out.push_str(&self.filtered_histogram.to_table());
        out
    }
}

/// Runs the Figure 5 experiment.
pub fn run(config: Fig05Config) -> Fig05Result {
    let configs = vec![
        (
            "mp".to_string(),
            NodeConfig::builder()
                .filter(FilterConfig::paper_mp())
                .heuristic(HeuristicConfig::FollowSystem)
                .build(),
        ),
        (
            "raw".to_string(),
            NodeConfig::builder()
                .filter(FilterConfig::Raw)
                .heuristic(HeuristicConfig::FollowSystem)
                .build(),
        ),
    ];
    let report = coordinate_simulator(config.scale, configs).run();
    let mp = report.config("mp").expect("mp config ran").clone();
    let raw = report.config("raw").expect("raw config ran").clone();

    // Histogram panel: replay the MP filter over a handful of link streams.
    let mut generator = crate::workloads::trace_generator(config.scale);
    let n = generator.topology().len();
    let mut raw_histogram = Histogram::paper_figure2_bins();
    let mut filtered_histogram = Histogram::paper_figure2_bins();
    let samples = (config.scale.trace_samples_per_link() / 8).max(500);
    for l in 0..8 {
        let a = l % n;
        let b = (l + 1 + l % 3) % n;
        if a == b {
            continue;
        }
        let mut filter = MovingPercentileFilter::paper_defaults();
        for record in generator.link_observations(a, b, samples) {
            raw_histogram.record(record.rtt_ms);
            if let Some(filtered) = filter.observe(record.rtt_ms) {
                filtered_histogram.record(filtered);
            }
        }
    }

    Fig05Result {
        mp,
        raw,
        raw_histogram,
        filtered_histogram,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mp_filter_improves_accuracy_and_stability() {
        let result = run(Fig05Config::quick());
        assert!(
            result.mp.median_of_median_relative_error()
                <= result.raw.median_of_median_relative_error(),
            "MP filter should not be less accurate ({:.3} vs {:.3})",
            result.mp.median_of_median_relative_error(),
            result.raw.median_of_median_relative_error()
        );
        assert!(
            result.mp.aggregate_instability() < result.raw.aggregate_instability(),
            "MP filter should be more stable ({:.1} vs {:.1})",
            result.mp.aggregate_instability(),
            result.raw.aggregate_instability()
        );
    }

    #[test]
    fn filter_trims_tail_but_keeps_body() {
        let result = run(Fig05Config::quick());
        let raw_tail = result.raw_histogram.fraction_at_or_above(1000.0);
        let filtered_tail = result.filtered_histogram.fraction_at_or_above(1000.0);
        assert!(
            filtered_tail < raw_tail,
            "filtered tail {filtered_tail:.4} should be smaller than raw {raw_tail:.4}"
        );
        // The body of the distribution survives: the most common bin is the
        // same in both histograms.
        let busiest = |h: &Histogram| {
            h.bins()
                .iter()
                .enumerate()
                .max_by_key(|(_, b)| b.count)
                .map(|(i, _)| i)
                .unwrap()
        };
        assert_eq!(
            busiest(&result.raw_histogram),
            busiest(&result.filtered_histogram)
        );
    }

    #[test]
    fn render_includes_all_panels() {
        let result = run(Fig05Config::quick());
        let text = result.render();
        assert!(text.contains("median relative error per node"));
        assert!(text.contains("instability per node"));
        assert!(text.contains("MP-filtered histogram"));
    }
}
