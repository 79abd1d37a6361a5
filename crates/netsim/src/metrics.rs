//! Collection of the paper's evaluation metrics.
//!
//! Accuracy is the per-node distribution of relative errors; stability is the
//! rate of coordinate change (milliseconds of movement in the coordinate
//! space per second of wall-clock time), reported per node and in aggregate;
//! application-level health additionally tracks how often the published
//! coordinate changes. All metrics are accumulated only after the
//! `measurement_start` so start-up transients can be excluded, exactly as the
//! paper reports "the second half of the run".

use std::collections::BTreeMap;

use nc_stats::{percentile, Ecdf, StatsError, StreamingSummary};
use nc_vivaldi::Coordinate;

/// Per-node metric accumulators.
///
/// The fold keeps what its readers need: the relative errors and coordinate
/// changes whose percentiles the accessors report, as plain values in event
/// order, and running sums for the displacement totals. Timestamps are kept
/// only when the run asked for them
/// ([`SimConfig::with_time_series`](crate::sim::SimConfig::with_time_series)),
/// in a separate [`NodeSeries`].
///
/// # Memory
///
/// A measured observation costs at most 24 B: 8 for its system-level
/// relative error, 8 for its application-level one, and 8 for its
/// displacement when the coordinate moved. A published application update
/// stores nothing: it adds to a running sum and a count. With the time
/// series on, every one of those samples is also kept as a 16 B
/// `(time_s, value)` pair. The struct itself is 160 B
/// (`layout_pin_node_metrics`).
#[derive(Debug, Clone)]
pub struct NodeMetrics {
    /// Relative error of every accepted observation, measured against the
    /// system-level coordinate before its update.
    system_errors: Vec<f64>,
    /// Relative error of every accepted observation, measured against the
    /// application-level coordinate.
    application_errors: Vec<f64>,
    /// Every nonzero system-level coordinate movement, in milliseconds.
    system_displacements: Vec<f64>,
    /// Sum of `system_displacements`, folded in event order from −0.0.
    system_displacement_ms: f64,
    /// Sum of every published application-level displacement, folded in
    /// event order from −0.0.
    application_displacement_ms: f64,
    /// Number of published application-level updates.
    application_updates: u64,
    /// The same samples with their timestamps, when the run records them.
    series: Option<Box<NodeSeries>>,
    /// Number of raw observations seen during the measurement window.
    pub observations: u64,
    /// Number of probes this node sent that expired without a reply
    /// (link loss, partitions, or a dead target). Counted over the whole
    /// run — a fully dead link produces no accepted observations to gate a
    /// measurement window on.
    pub probes_lost: u64,
    /// Number of probe replies this node dropped because they correlated
    /// with no outstanding probe — replies that arrived after their probe
    /// already timed out (an RTT beyond the probe timeout), duplicated
    /// datagrams, or replies from evicted peers. Counted over the whole run,
    /// like losses.
    pub responses_ignored: u64,
    /// Number of probes this node issued, counted over the whole run at the
    /// instant of sending — lost or answered alike.
    pub probes_sent: u64,
    /// Number of probe replies this node digested (correlated and handed to
    /// the observation pipeline), counted over the whole run. The
    /// measurement-window-gated counterpart is `observations`.
    pub responses_received: u64,
    /// Number of peers this node evicted after a loss streak reached
    /// `max_consecutive_losses`, counted over the whole run.
    pub neighbors_evicted: u64,
    /// Number of filtered observations the node's engine rejected before
    /// they reached the coordinate update — Vivaldi plausibility rejections
    /// plus, when the MAD outlier gate is enabled, observations whose
    /// filtered RTT contradicts the coordinate-predicted distance. Counted
    /// over the whole run, like losses.
    pub observations_rejected: u64,
}

impl Default for NodeMetrics {
    fn default() -> Self {
        NodeMetrics {
            system_errors: Vec::new(),
            application_errors: Vec::new(),
            system_displacements: Vec::new(),
            // −0.0 is the identity of `Iterator::<f64>::sum`: a node that
            // never moves reports the −0.0 the sum of no samples is.
            system_displacement_ms: -0.0,
            application_displacement_ms: -0.0,
            application_updates: 0,
            series: None,
            observations: 0,
            probes_lost: 0,
            responses_ignored: 0,
            probes_sent: 0,
            responses_received: 0,
            neighbors_evicted: 0,
            observations_rejected: 0,
        }
    }
}

impl NodeMetrics {
    /// Empty accumulators that also keep every sample's timestamp.
    pub(crate) fn with_time_series() -> Self {
        NodeMetrics {
            series: Some(Box::default()),
            ..NodeMetrics::default()
        }
    }

    /// Records one system-level coordinate update at `time_s`: both
    /// relative errors, and the displacement when the coordinate moved.
    pub(crate) fn record_system_move(
        &mut self,
        time_s: f64,
        relative_error: f64,
        application_relative_error: f64,
        displacement_ms: f64,
    ) {
        self.system_errors.push(relative_error);
        self.application_errors.push(application_relative_error);
        let moved = displacement_ms > 0.0;
        if moved {
            self.system_displacements.push(displacement_ms);
            self.system_displacement_ms += displacement_ms;
        }
        if let Some(series) = &mut self.series {
            series.system_errors.push((time_s, relative_error));
            series
                .application_errors
                .push((time_s, application_relative_error));
            if moved {
                series.system_displacements.push((time_s, displacement_ms));
            }
        }
    }

    /// Records one published application-level update at `time_s`.
    pub(crate) fn record_application_update(&mut self, time_s: f64, displacement_ms: f64) {
        self.application_displacement_ms += displacement_ms;
        self.application_updates += 1;
        if let Some(series) = &mut self.series {
            series
                .application_displacements
                .push((time_s, displacement_ms));
        }
    }

    /// The node's system-level relative errors, in event order.
    pub fn system_errors(&self) -> &[f64] {
        &self.system_errors
    }

    /// The node's nonzero system-level coordinate movements (ms), in event
    /// order.
    pub fn system_displacements(&self) -> &[f64] {
        &self.system_displacements
    }

    /// The timestamped samples, or `None` unless the run was configured
    /// with [`SimConfig::with_time_series`](crate::sim::SimConfig::with_time_series).
    pub fn series(&self) -> Option<&NodeSeries> {
        self.series.as_deref()
    }

    /// Median of the node's system-level relative errors.
    pub fn median_relative_error(&self) -> Result<f64, StatsError> {
        percentile(&self.system_errors, 50.0)
    }

    /// 95th percentile of the node's system-level relative errors.
    pub fn p95_relative_error(&self) -> Result<f64, StatsError> {
        percentile(&self.system_errors, 95.0)
    }

    /// Median of the node's application-level relative errors.
    pub fn application_median_relative_error(&self) -> Result<f64, StatsError> {
        percentile(&self.application_errors, 50.0)
    }

    /// 95th percentile of the node's application-level relative errors.
    pub fn application_p95_relative_error(&self) -> Result<f64, StatsError> {
        percentile(&self.application_errors, 95.0)
    }

    /// 95th percentile of the node's per-observation coordinate change
    /// (Figure 5, third panel).
    pub fn p95_coordinate_change(&self) -> Result<f64, StatsError> {
        percentile(&self.system_displacements, 95.0)
    }

    /// Total system-level coordinate movement during the measurement window.
    pub fn total_system_displacement_ms(&self) -> f64 {
        self.system_displacement_ms
    }

    /// Total application-level coordinate movement during the window.
    pub fn total_application_displacement_ms(&self) -> f64 {
        self.application_displacement_ms
    }

    /// System-level instability: coordinate movement per second (ms/s).
    pub fn instability(&self, duration_s: f64) -> f64 {
        if duration_s <= 0.0 {
            0.0
        } else {
            self.total_system_displacement_ms() / duration_s
        }
    }

    /// Application-level instability (ms/s).
    pub fn application_instability(&self, duration_s: f64) -> f64 {
        if duration_s <= 0.0 {
            0.0
        } else {
            self.total_application_displacement_ms() / duration_s
        }
    }

    /// Number of application-level updates during the window.
    pub fn application_update_count(&self) -> usize {
        self.application_updates as usize
    }
}

/// Timestamped samples of one node: the [`NodeMetrics`] samples, each with
/// the simulated time (seconds) of the event that produced it. Recorded only
/// under [`SimConfig::with_time_series`](crate::sim::SimConfig::with_time_series),
/// for readers that bin or window by time (Figure 14, the churn tests).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeSeries {
    /// `(time_s, relative_error)` against the system-level coordinate.
    pub system_errors: Vec<(f64, f64)>,
    /// `(time_s, relative_error)` against the application-level coordinate.
    pub application_errors: Vec<(f64, f64)>,
    /// `(time_s, displacement_ms)` of every system-level coordinate movement.
    pub system_displacements: Vec<(f64, f64)>,
    /// `(time_s, displacement_ms)` of every published application-level
    /// update.
    pub application_displacements: Vec<(f64, f64)>,
}

impl NodeSeries {
    /// The system-level relative errors sampled in `[from_s, to_s)`.
    pub fn system_errors_between(&self, from_s: f64, to_s: f64) -> impl Iterator<Item = f64> + '_ {
        self.system_errors
            .iter()
            .filter(move |(t, _)| *t >= from_s && *t < to_s)
            .map(|(_, e)| *e)
    }
}

/// The time series of every node of one configuration, in node order
/// (see [`ConfigMetrics::series`]).
#[derive(Debug, Clone)]
pub struct ConfigSeries<'a> {
    nodes: Vec<&'a NodeSeries>,
}

impl<'a> ConfigSeries<'a> {
    /// Per-node series, indexed by node id.
    pub fn nodes(&self) -> &[&'a NodeSeries] {
        &self.nodes
    }

    /// Median of every system-level relative error sampled in `[from_s,
    /// to_s)`, pooled across nodes. This is the number the churn acceptance
    /// criterion compares pre-crash against end-of-run.
    pub fn pooled_median_relative_error_between(
        &self,
        from_s: f64,
        to_s: f64,
    ) -> Result<f64, StatsError> {
        let errors: Vec<f64> = self
            .nodes
            .iter()
            .flat_map(|n| n.system_errors_between(from_s, to_s))
            .collect();
        percentile(&errors, 50.0)
    }
}

/// A tracked coordinate sample (for the Figure 7 trajectory plot).
#[derive(Debug, Clone, PartialEq)]
pub struct TrackedCoordinate {
    /// Sample time in seconds.
    pub time_s: f64,
    /// Index of the tracked node.
    pub node: usize,
    /// The node's system-level coordinate at that time.
    pub system: Coordinate,
    /// The node's application-level coordinate at that time.
    pub application: Coordinate,
}

/// Metrics of one configuration (one coordinate stack run over the whole
/// workload).
#[derive(Debug, Clone)]
pub struct ConfigMetrics {
    /// Per-node accumulators, indexed by node id.
    pub nodes: Vec<NodeMetrics>,
    /// Length of the measurement window in seconds.
    pub measurement_duration_s: f64,
    /// Tracked coordinate trajectories (empty unless tracking was requested).
    pub tracked: Vec<TrackedCoordinate>,
    /// Number of scripted scenario actions applied over the run (joins,
    /// leaves, crashes, restarts, partitions), counted once per action.
    pub scenario_ops: u64,
}

impl ConfigMetrics {
    /// Creates empty accumulators for `node_count` nodes.
    pub fn new(node_count: usize, measurement_duration_s: f64) -> Self {
        ConfigMetrics {
            nodes: vec![NodeMetrics::default(); node_count],
            measurement_duration_s,
            tracked: Vec::new(),
            scenario_ops: 0,
        }
    }

    /// Empty accumulators for `node_count` nodes that also keep every
    /// sample's timestamp.
    pub(crate) fn with_time_series(node_count: usize, measurement_duration_s: f64) -> Self {
        ConfigMetrics {
            nodes: (0..node_count)
                .map(|_| NodeMetrics::with_time_series())
                .collect(),
            measurement_duration_s,
            tracked: Vec::new(),
            scenario_ops: 0,
        }
    }

    /// Every node's time series, or `None` unless the run was configured
    /// with [`SimConfig::with_time_series`](crate::sim::SimConfig::with_time_series).
    pub fn series(&self) -> Option<ConfigSeries<'_>> {
        let nodes = self
            .nodes
            .iter()
            .map(NodeMetrics::series)
            .collect::<Option<Vec<_>>>()?;
        Some(ConfigSeries { nodes })
    }

    /// Per-node median relative error (system level), skipping nodes without
    /// samples.
    pub fn median_relative_errors(&self) -> Vec<f64> {
        self.nodes
            .iter()
            .filter_map(|n| n.median_relative_error().ok())
            .collect()
    }

    /// Per-node 95th-percentile relative error (system level).
    pub fn p95_relative_errors(&self) -> Vec<f64> {
        self.nodes
            .iter()
            .filter_map(|n| n.p95_relative_error().ok())
            .collect()
    }

    /// Per-node median relative error measured against the application-level
    /// coordinate.
    pub fn application_median_relative_errors(&self) -> Vec<f64> {
        self.nodes
            .iter()
            .filter_map(|n| n.application_median_relative_error().ok())
            .collect()
    }

    /// Per-node 95th-percentile application-level relative error.
    pub fn application_p95_relative_errors(&self) -> Vec<f64> {
        self.nodes
            .iter()
            .filter_map(|n| n.application_p95_relative_error().ok())
            .collect()
    }

    /// Per-node 95th-percentile coordinate change.
    pub fn p95_coordinate_changes(&self) -> Vec<f64> {
        self.nodes
            .iter()
            .filter_map(|n| n.p95_coordinate_change().ok())
            .collect()
    }

    /// Per-node system-level instability (ms/s).
    pub fn per_node_instability(&self) -> Vec<f64> {
        self.nodes
            .iter()
            .map(|n| n.instability(self.measurement_duration_s))
            .collect()
    }

    /// Per-node application-level instability (ms/s).
    pub fn per_node_application_instability(&self) -> Vec<f64> {
        self.nodes
            .iter()
            .map(|n| n.application_instability(self.measurement_duration_s))
            .collect()
    }

    /// Aggregate system-level instability: total coordinate movement of all
    /// nodes per second — the paper's headline stability number (Table I,
    /// Figure 13).
    pub fn aggregate_instability(&self) -> f64 {
        self.per_node_instability().iter().sum()
    }

    /// Aggregate application-level instability.
    pub fn aggregate_application_instability(&self) -> f64 {
        self.per_node_application_instability().iter().sum()
    }

    /// Median over nodes of the per-node median relative error — the single
    /// accuracy number quoted in Table I and the threshold sweeps.
    pub fn median_of_median_relative_error(&self) -> f64 {
        percentile(&self.median_relative_errors(), 50.0).unwrap_or(f64::NAN)
    }

    /// Median over nodes of the per-node 95th-percentile relative error
    /// (the Figure 13 headline).
    pub fn median_of_p95_relative_error(&self) -> f64 {
        percentile(&self.p95_relative_errors(), 50.0).unwrap_or(f64::NAN)
    }

    /// Median over nodes of the application-level median relative error.
    pub fn median_of_application_median_relative_error(&self) -> f64 {
        percentile(&self.application_median_relative_errors(), 50.0).unwrap_or(f64::NAN)
    }

    /// Median over nodes of the application-level 95th-percentile relative
    /// error.
    pub fn median_of_application_p95_relative_error(&self) -> f64 {
        percentile(&self.application_p95_relative_errors(), 50.0).unwrap_or(f64::NAN)
    }

    /// Fraction of nodes that publish an application-level update in an
    /// average second (Figure 9, bottom panel).
    pub fn application_updates_per_node_second(&self) -> f64 {
        if self.measurement_duration_s <= 0.0 || self.nodes.is_empty() {
            return 0.0;
        }
        let total_updates: usize = self
            .nodes
            .iter()
            .map(|n| n.application_update_count())
            .sum();
        total_updates as f64 / (self.measurement_duration_s * self.nodes.len() as f64)
    }

    /// Empirical CDF of per-node median relative error (Figure 5 top /
    /// Figure 11 top).
    pub fn median_relative_error_cdf(&self) -> Result<Ecdf, StatsError> {
        Ecdf::new(self.median_relative_errors())
    }

    /// Empirical CDF of per-node instability (Figure 5 bottom / Figure 13
    /// bottom).
    pub fn instability_cdf(&self) -> Result<Ecdf, StatsError> {
        Ecdf::new(self.per_node_instability())
    }

    /// Total probes lost across all nodes over the whole run (timeouts from
    /// link loss, partitions and crashed targets).
    pub fn total_probes_lost(&self) -> u64 {
        self.nodes.iter().map(|n| n.probes_lost).sum()
    }

    /// Total uncorrelated probe replies dropped across all nodes over the
    /// whole run (late arrivals after a timeout, duplicates, replies from
    /// evicted peers).
    pub fn total_responses_ignored(&self) -> u64 {
        self.nodes.iter().map(|n| n.responses_ignored).sum()
    }

    /// Total probes issued across all nodes over the whole run.
    pub fn total_probes_sent(&self) -> u64 {
        self.nodes.iter().map(|n| n.probes_sent).sum()
    }

    /// Total probe replies digested across all nodes over the whole run.
    pub fn total_responses_received(&self) -> u64 {
        self.nodes.iter().map(|n| n.responses_received).sum()
    }

    /// Total loss-streak evictions across all nodes over the whole run.
    pub fn total_neighbors_evicted(&self) -> u64 {
        self.nodes.iter().map(|n| n.neighbors_evicted).sum()
    }

    /// Total engine-side observation rejections across all nodes over the
    /// whole run (Vivaldi plausibility plus the MAD outlier gate).
    pub fn total_observations_rejected(&self) -> u64 {
        self.nodes.iter().map(|n| n.observations_rejected).sum()
    }

    /// Summary of every system-level relative error sample pooled across
    /// nodes (handy for quick sanity checks).
    pub fn pooled_error_summary(&self) -> StreamingSummary {
        self.nodes
            .iter()
            .flat_map(|n| n.system_errors.iter().copied())
            .collect()
    }
}

/// The result of one simulation run: metrics per named configuration.
///
/// Its `Debug` text lists the configurations in name order and every `f64`
/// in shortest round-trip form (`-0.0`, `NaN`): equal text, equal bits.
#[derive(Debug, Clone)]
pub struct SimReport {
    configs: BTreeMap<String, ConfigMetrics>,
    /// Total simulated duration in seconds.
    pub duration_s: f64,
    /// Time at which measurement started (warm-up exclusion).
    pub measurement_start_s: f64,
}

impl SimReport {
    /// Builds a report from named per-configuration metrics.
    pub fn new(
        configs: impl IntoIterator<Item = (String, ConfigMetrics)>,
        duration_s: f64,
        measurement_start_s: f64,
    ) -> Self {
        SimReport {
            configs: configs.into_iter().collect(),
            duration_s,
            measurement_start_s,
        }
    }

    /// Metrics of the named configuration, if it was part of the run.
    pub fn config(&self, name: &str) -> Option<&ConfigMetrics> {
        self.configs.get(name)
    }

    /// Names of all configurations in the run, in name order.
    pub fn config_names(&self) -> Vec<&str> {
        self.configs.keys().map(String::as_str).collect()
    }

    /// Iterates over `(name, metrics)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &ConfigMetrics)> {
        self.configs.iter().map(|(k, v)| (k.as_str(), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stable_nc::FxHashMap;

    /// Sample `i` is stamped at time `i` seconds; displacement `i` (when
    /// given) rides on error sample `i`.
    fn node_from(mut node: NodeMetrics, errors: &[f64], displacements: &[f64]) -> NodeMetrics {
        assert!(displacements.len() <= errors.len());
        for (i, &e) in errors.iter().enumerate() {
            let moved = displacements.get(i).copied().unwrap_or(0.0);
            node.record_system_move(i as f64, e, e / 2.0, moved);
        }
        node.record_application_update(0.0, 1.0);
        node.observations = errors.len() as u64;
        node
    }

    fn node_with(errors: &[f64], displacements: &[f64]) -> NodeMetrics {
        node_from(NodeMetrics::default(), errors, displacements)
    }

    #[test]
    fn node_metrics_percentiles() {
        let n = node_with(&[0.1, 0.2, 0.3, 0.4, 10.0], &[1.0, 2.0, 3.0]);
        assert_eq!(n.median_relative_error().unwrap(), 0.3);
        assert!(n.p95_relative_error().unwrap() > 1.0);
        assert_eq!(n.total_system_displacement_ms(), 6.0);
        assert_eq!(n.instability(3.0), 2.0);
        assert_eq!(n.application_update_count(), 1);
        assert_eq!(n.application_instability(1.0), 1.0);
    }

    #[test]
    fn empty_node_metrics_are_errors_not_panics() {
        let n = NodeMetrics::default();
        assert!(n.median_relative_error().is_err());
        assert_eq!(n.instability(10.0), 0.0);
        assert_eq!(n.application_update_count(), 0);
    }

    #[test]
    fn a_node_that_never_moves_reports_negative_zero_instability() {
        // The running sums start at the identity of `Iterator::<f64>::sum`,
        // so a node without a single displacement reports exactly what
        // summing its (empty) sample list always reported: −0.0.
        let negative_zero = (-0.0f64).to_bits();
        let still = node_with(&[0.1, 0.2], &[]);
        for n in [NodeMetrics::default(), still] {
            assert_eq!(n.total_system_displacement_ms().to_bits(), negative_zero);
            assert_eq!(n.instability(10.0).to_bits(), negative_zero);
            let summed = n.system_displacements().iter().sum::<f64>() / 10.0;
            assert_eq!(n.instability(10.0).to_bits(), summed.to_bits());
        }
        let silent = NodeMetrics::default();
        assert_eq!(
            silent.application_instability(10.0).to_bits(),
            negative_zero
        );
    }

    #[test]
    fn config_metrics_aggregate() {
        let mut cm = ConfigMetrics::new(2, 10.0);
        cm.nodes[0] = node_with(&[0.1, 0.2], &[5.0, 5.0]);
        cm.nodes[1] = node_with(&[0.3, 0.4], &[10.0, 10.0]);
        assert_eq!(cm.median_relative_errors().len(), 2);
        // Node 0 moves 10 ms over 10 s = 1 ms/s; node 1 moves 2 ms/s.
        assert!((cm.aggregate_instability() - 3.0).abs() < 1e-12);
        assert!((cm.median_of_median_relative_error() - 0.25).abs() < 1e-9);
        // Two updates (one per node) over 10 s and 2 nodes → 0.1 updates per node-second.
        assert!((cm.application_updates_per_node_second() - 0.1).abs() < 1e-12);
        assert!(cm.median_relative_error_cdf().is_ok());
        assert!(cm.instability_cdf().is_ok());
    }

    #[test]
    fn report_lookup_and_ordering() {
        let mut map = FxHashMap::default();
        map.insert("raw".to_string(), ConfigMetrics::new(1, 5.0));
        map.insert("mp".to_string(), ConfigMetrics::new(1, 5.0));
        let report = SimReport::new(map, 10.0, 5.0);
        assert!(report.config("raw").is_some());
        assert!(report.config("missing").is_none());
        assert_eq!(report.config_names(), vec!["mp", "raw"]);
        let order: Vec<&str> = report.iter().map(|(k, _)| k).collect();
        assert_eq!(order, vec!["mp", "raw"]);
    }

    #[test]
    fn report_text_is_bit_exact_and_in_name_order() {
        // Two configurations inserted in either order, one node each with
        // the measurement window and one error sample drawn from `values`.
        let report = |names: [&str; 2], values: [f64; 2]| {
            let mut map = FxHashMap::default();
            for name in names {
                let mut metrics = ConfigMetrics::new(1, values[0]);
                metrics.nodes[0] = node_with(&[values[1]], &[]);
                map.insert(name.to_string(), metrics);
            }
            format!("{:?}", SimReport::new(map, 10.0, 5.0))
        };
        let text = report(["mp", "raw"], [5.0, 0.25]);
        assert_eq!(report(["raw", "mp"], [5.0, 0.25]), text);
        assert!(text.find("\"mp\"") < text.find("\"raw\""), "{text}");
        // The sign of a zero shows, where `PartialEq` would call the two
        // equal; a NaN matches a NaN, where `PartialEq` would not.
        assert_ne!(
            report(["mp", "raw"], [-0.0, 0.25]),
            report(["mp", "raw"], [0.0, 0.25])
        );
        assert_eq!(
            report(["mp", "raw"], [5.0, f64::NAN]),
            report(["mp", "raw"], [5.0, f64::NAN])
        );
        assert_ne!(
            report(["mp", "raw"], [5.0, 0.1 + 0.2]),
            report(["mp", "raw"], [5.0, 0.3])
        );
    }

    #[test]
    fn pooled_summary_counts_all_samples() {
        let mut cm = ConfigMetrics::new(2, 10.0);
        cm.nodes[0] = node_with(&[0.1, 0.2], &[1.0]);
        cm.nodes[1] = node_with(&[0.3], &[1.0]);
        assert_eq!(cm.pooled_error_summary().count(), 3);
    }

    #[test]
    fn probe_losses_aggregate_across_nodes() {
        let mut cm = ConfigMetrics::new(3, 10.0);
        cm.nodes[0].probes_lost = 2;
        cm.nodes[2].probes_lost = 5;
        assert_eq!(cm.total_probes_lost(), 7);
    }

    #[test]
    fn windowed_medians_filter_by_time() {
        let mut cm = ConfigMetrics::with_time_series(2, 10.0);
        for (node, errors) in cm.nodes.iter_mut().zip([[0.1, 0.2], [0.3, 0.4]]) {
            *node = node_from(std::mem::take(node), &errors, &[1.0]);
        }
        let series = cm.series().expect("recorded");
        assert_eq!(series.nodes().len(), 2);
        let pooled = series
            .pooled_median_relative_error_between(0.0, 10.0)
            .unwrap();
        assert!((pooled - 0.25).abs() < 1e-9);
        // Node i's sample j sits at j seconds: [1, 10) holds 0.2 and 0.4.
        let late = series
            .pooled_median_relative_error_between(1.0, 10.0)
            .unwrap();
        assert!((late - 0.3).abs() < 1e-9);
        assert!(series
            .pooled_median_relative_error_between(50.0, 60.0)
            .is_err());
        let window: Vec<f64> = series.nodes()[0].system_errors_between(0.0, 1.0).collect();
        assert_eq!(window, vec![0.1]);

        // Without the option nothing was stamped, and the type says so.
        let mut plain = ConfigMetrics::new(2, 10.0);
        plain.nodes[0] = node_with(&[0.1, 0.2], &[1.0]);
        assert!(plain.series().is_none());
        assert!(plain.nodes[0].series().is_none());
    }

    #[test]
    fn the_series_repeats_the_values_with_their_times() {
        let n = node_from(
            NodeMetrics::with_time_series(),
            &[0.1, 0.2, 0.3],
            &[4.0, 0.0, 2.0],
        );
        let series = n.series().expect("recorded");
        let values = |pairs: &[(f64, f64)]| pairs.iter().map(|(_, v)| *v).collect::<Vec<f64>>();
        assert_eq!(values(&series.system_errors), n.system_errors());
        assert_eq!(values(&series.application_errors), n.application_errors);
        assert_eq!(
            values(&series.system_displacements),
            n.system_displacements()
        );
        assert_eq!(series.system_displacements, vec![(0.0, 4.0), (2.0, 2.0)]);
        assert_eq!(series.application_displacements, vec![(0.0, 1.0)]);
    }

    #[test]
    fn layout_pin_node_metrics() {
        use crate::planetlab::PlanetLabConfig;
        use crate::sim::{SimConfig, Simulator};
        use stable_nc::NodeConfig;
        use std::mem::{size_of, size_of_val};

        // Three value vectors, two running sums, an update count, the boxed
        // series handle and seven counters.
        assert_eq!(size_of::<NodeMetrics>(), 160);

        let report = Simulator::new(
            PlanetLabConfig::small(12).with_seed(3),
            SimConfig::new(400.0, 5.0)
                .with_measurement_start(200.0)
                .with_initial_neighbors(4),
            vec![("mp".into(), NodeConfig::paper_defaults())],
        )
        .run();
        let metrics = report.config("mp").unwrap();
        assert!(metrics.series().is_none());
        let mut samples = 0;
        for n in &metrics.nodes {
            assert!(n.series().is_none(), "no timestamp is kept by default");
            let values = [
                &n.system_errors,
                &n.application_errors,
                &n.system_displacements,
            ];
            let count: usize = values.iter().map(|v| v.len()).sum();
            let stored: usize = values.iter().map(|v| size_of_val(v.as_slice())).sum();
            assert_eq!(stored, 8 * count);
            samples += count;
        }
        assert!(samples > 1_000, "the run measured {samples} samples");
    }
}
