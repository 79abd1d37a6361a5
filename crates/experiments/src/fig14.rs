//! Figure 14: relative error and instability over time.
//!
//! The same four deployment configurations as Figure 13, but reported as a
//! time series: the median relative error and the mean instability per
//! ten-minute interval. After a convergence period of roughly half an hour,
//! the enhanced configurations settle into a smoother and more accurate
//! regime than the unfiltered ones.

use nc_netsim::metrics::ConfigMetrics;
use nc_stats::timeseries::{BinStatistic, TimeBinner};

use crate::report::format_table;
use crate::workloads::{deployment_configs, Scale, PLACEMENT_SEED};

/// Configuration of the Figure 14 experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig14Config {
    /// Workload scale.
    pub scale: Scale,
    /// Width of the reporting bins in seconds (the paper uses ten minutes).
    pub bin_width_s: f64,
}

impl Fig14Config {
    /// Seconds-scale run for tests.
    pub fn quick() -> Self {
        Fig14Config {
            scale: Scale::Quick,
            bin_width_s: 120.0,
        }
    }

    /// Default run for the binary.
    pub fn standard() -> Self {
        Fig14Config {
            scale: Scale::Standard,
            bin_width_s: 600.0,
        }
    }
}

/// Time series of one configuration.
#[derive(Debug, Clone)]
pub struct ConfigTimeSeries {
    /// Configuration name.
    pub name: String,
    /// `(bin_start_s, median relative error)` per bin.
    pub error_over_time: Vec<(f64, f64)>,
    /// `(bin_start_s, mean per-node instability in ms/s)` per bin.
    pub instability_over_time: Vec<(f64, f64)>,
}

/// Result of the Figure 14 experiment.
#[derive(Debug, Clone)]
pub struct Fig14Result {
    /// One time series per configuration.
    pub series: Vec<ConfigTimeSeries>,
}

impl Fig14Result {
    /// The series of a given configuration.
    pub fn config(&self, name: &str) -> Option<&ConfigTimeSeries> {
        self.series.iter().find(|s| s.name == name)
    }

    /// Renders both panels as tables with one column per configuration.
    pub fn render(&self) -> String {
        let mut out = String::from("Figure 14: error and instability over time\n\n");
        for (caption, select) in [
            (
                "median relative error per interval",
                (|s: &ConfigTimeSeries| s.error_over_time.as_slice())
                    as fn(&ConfigTimeSeries) -> &[(f64, f64)],
            ),
            (
                "mean instability per interval (ms/s)",
                |s: &ConfigTimeSeries| s.instability_over_time.as_slice(),
            ),
        ] {
            out.push_str(&format!("{caption}:\n"));
            let mut headers = vec!["time (h)".to_string()];
            headers.extend(self.series.iter().map(|s| s.name.clone()));
            let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
            // One row per bin start any series reports: a series that skips
            // a bin shows a gap in that row instead of shifting up.
            let mut starts: Vec<f64> = self
                .series
                .iter()
                .flat_map(|s| select(s).iter().map(|&(start, _)| start))
                .collect();
            starts.sort_by(f64::total_cmp);
            starts.dedup();
            let mut rows = Vec::new();
            for start in starts {
                let mut row = Vec::new();
                row.push(format!("{:.2}", start / 3600.0));
                for s in &self.series {
                    let value = select(s)
                        .iter()
                        .find(|&&(t, _)| t == start)
                        .map_or(f64::NAN, |&(_, v)| v);
                    row.push(if value.is_finite() {
                        format!("{value:.3}")
                    } else {
                        "-".to_string()
                    });
                }
                rows.push(row);
            }
            out.push_str(&format_table(&header_refs, &rows));
            out.push('\n');
        }
        out
    }
}

fn series_for(name: &str, metrics: &ConfigMetrics, bin_width_s: f64) -> ConfigTimeSeries {
    let node_count = metrics.nodes.len().max(1) as f64;
    let mut error_binner = TimeBinner::new(0.0, bin_width_s).expect("positive width");
    let mut displacement_binner = TimeBinner::new(0.0, bin_width_s).expect("positive width");
    let series = metrics
        .series()
        .expect("the Figure 14 run records its time series");
    for node in series.nodes() {
        for &(time, error) in &node.application_errors {
            error_binner.record(time, error);
        }
        for &(time, displacement) in &node.application_displacements {
            displacement_binner.record(time, displacement);
        }
    }
    let error_over_time = error_binner
        .bins(BinStatistic::Median)
        .into_iter()
        .filter_map(|b| b.value.map(|v| (b.start, v)))
        .collect();
    let instability_over_time = displacement_binner
        .bins(BinStatistic::Sum)
        .into_iter()
        .map(|b| {
            let total = b.value.unwrap_or(0.0);
            (b.start, total / (bin_width_s * node_count))
        })
        .collect();
    ConfigTimeSeries {
        name: name.to_string(),
        error_over_time,
        instability_over_time,
    }
}

/// Runs the Figure 14 experiment. The whole run is measured (no warm-up
/// exclusion) because the convergence period itself is the point of the
/// figure.
pub fn run(config: Fig14Config) -> Fig14Result {
    let workload = nc_netsim::planetlab::PlanetLabConfig::small(config.scale.node_count())
        .with_seed(PLACEMENT_SEED);
    let sim_config =
        nc_netsim::sim::SimConfig::new(config.scale.duration_s(), config.scale.probe_interval_s())
            .with_measurement_start(0.0)
            .with_initial_neighbors(8.min(config.scale.node_count() - 1))
            .with_time_series();
    let report = nc_netsim::sim::Simulator::new(workload, sim_config, deployment_configs()).run();

    let series = report
        .iter()
        .map(|(name, metrics)| series_for(name, metrics, config.bin_width_s))
        .collect();
    Fig14Result { series }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_configuration_has_a_series() {
        let result = run(Fig14Config::quick());
        assert_eq!(result.series.len(), 4);
        for s in &result.series {
            assert!(
                !s.error_over_time.is_empty(),
                "{} has no error bins",
                s.name
            );
        }
    }

    #[test]
    fn error_improves_after_convergence() {
        let result = run(Fig14Config::quick());
        let enhanced = result.config("energy+mp").unwrap();
        let first = enhanced.error_over_time.first().unwrap().1;
        let last = enhanced.error_over_time.last().unwrap().1;
        assert!(
            last <= first * 1.5 + 0.05,
            "error should not blow up over time (first {first:.3}, last {last:.3})"
        );
    }

    #[test]
    fn enhanced_stack_ends_more_stable_than_original() {
        let result = run(Fig14Config::quick());
        let enhanced = result.config("energy+mp").unwrap();
        let original = result.config("raw-nofilter").unwrap();
        let tail_mean = |series: &[(f64, f64)]| {
            let half = series.len() / 2;
            let tail = &series[half..];
            tail.iter().map(|(_, v)| v).sum::<f64>() / tail.len().max(1) as f64
        };
        assert!(
            tail_mean(&enhanced.instability_over_time) < tail_mean(&original.instability_over_time),
            "enhanced stack should be steadier in the second half"
        );
    }

    #[test]
    fn render_keys_rows_by_bin_start() {
        // `b` has no error sample in its second bin (an empty median bin is
        // dropped), and both instability panels start at zero movement.
        let result = Fig14Result {
            series: vec![
                ConfigTimeSeries {
                    name: "a".to_string(),
                    error_over_time: vec![(0.0, 0.1), (360.0, 0.2), (720.0, 0.3)],
                    instability_over_time: vec![(0.0, 0.0), (360.0, 1.0), (720.0, 2.0)],
                },
                ConfigTimeSeries {
                    name: "b".to_string(),
                    error_over_time: vec![(0.0, 0.4), (720.0, 0.6)],
                    instability_over_time: vec![(0.0, 0.0), (360.0, 3.0), (720.0, 4.0)],
                },
            ],
        };
        let text = result.render();
        let row = |prefix: &str| -> Vec<String> {
            text.lines()
                .filter(|line| line.trim_start().starts_with(prefix))
                .map(|line| line.split_whitespace().collect::<Vec<_>>().join(" "))
                .collect()
        };
        assert_eq!(row("0.00"), vec!["0.00 0.100 0.400", "0.00 0.000 0.000"]);
        assert_eq!(row("0.10"), vec!["0.10 0.200 -", "0.10 1.000 3.000"]);
        assert_eq!(row("0.20"), vec!["0.20 0.300 0.600", "0.20 2.000 4.000"]);
    }

    #[test]
    fn render_produces_two_panels() {
        let result = run(Fig14Config::quick());
        let text = result.render();
        assert!(text.contains("median relative error per interval"));
        assert!(text.contains("mean instability per interval"));
    }
}
