//! Materialised ping traces.
//!
//! The paper's §III analysis (Figures 2–4) works on the raw trace itself —
//! histograms of all samples, the time series of one link, and the
//! predictive power of the MP filter replayed over each link's observation
//! sequence — before any coordinates are involved. [`TraceGenerator`]
//! produces such traces from the synthetic substrate: every record says who
//! pinged whom, when, and what RTT the probe observed.

use std::sync::Arc;

use crate::linkmodel::{LinkModel, LinkModelConfig};
use crate::planetlab::PlanetLabConfig;
use crate::sim::ConfigError;
use crate::topology::Topology;
use stable_nc::FxHashMap;

/// One ping observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// Time of the observation, seconds from the start of the trace.
    pub time_s: f64,
    /// Index of the probing node.
    pub src: usize,
    /// Index of the probed node.
    pub dst: usize,
    /// Observed round-trip time in milliseconds.
    pub rtt_ms: f64,
}

/// Measurement schedule for a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// The network being measured.
    pub network: PlanetLabConfig,
    /// Length of the trace in seconds.
    pub duration_s: f64,
    /// Interval between successive probes sent by one node (seconds). The
    /// paper's trace used 1 s; its live deployment 5 s.
    pub probe_interval_s: f64,
}

impl TraceConfig {
    /// Creates a schedule over `network` lasting `duration_s` with one probe
    /// per node every `probe_interval_s` seconds. Nothing is checked here:
    /// [`TraceConfig::validate`] does, and [`TraceGenerator::new`] refuses
    /// what it refuses.
    pub fn new(network: PlanetLabConfig, duration_s: f64, probe_interval_s: f64) -> Self {
        TraceConfig {
            network,
            duration_s,
            probe_interval_s,
        }
    }

    /// Checks the schedule and the network's link model.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::NonPositiveDuration`] or
    /// [`ConfigError::NonPositiveProbeInterval`] when the duration or the
    /// interval is not positive and finite, and the error
    /// [`LinkModelConfig::validate`] reports for the link model.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(self.duration_s.is_finite() && self.duration_s > 0.0) {
            return Err(ConfigError::NonPositiveDuration(self.duration_s));
        }
        if !(self.probe_interval_s.is_finite() && self.probe_interval_s > 0.0) {
            return Err(ConfigError::NonPositiveProbeInterval(self.probe_interval_s));
        }
        self.network.link_config().validate()
    }

    /// Total number of probe records the trace will contain.
    pub fn expected_records(&self) -> usize {
        let steps = (self.duration_s / self.probe_interval_s).floor() as usize;
        steps * self.network.node_count()
    }
}

/// Generates ping traces and per-link observation sequences from the
/// synthetic substrate.
///
/// Probing follows the paper's measurement discipline: each node probes its
/// neighbours in round-robin order, one probe per interval. For trace
/// generation the neighbour set is the full mesh (as in the PlanetLab
/// all-pairs trace).
#[derive(Debug)]
pub struct TraceGenerator {
    config: TraceConfig,
    topology: Topology,
    /// The network's link model configuration, shared by every link.
    link_config: Arc<LinkModelConfig>,
    links: FxHashMap<(usize, usize), LinkModel>,
}

impl TraceGenerator {
    /// Builds the generator (topology and lazily populated link models).
    ///
    /// # Panics
    ///
    /// Panics with [`TraceConfig::validate`]'s message when it refuses
    /// `config`.
    pub fn new(config: TraceConfig) -> Self {
        if let Err(error) = config.validate() {
            panic!("invalid trace schedule: {error}");
        }
        let topology = config.network.build_topology();
        let link_config = Arc::new(config.network.link_config().clone());
        TraceGenerator {
            config,
            topology,
            link_config,
            links: FxHashMap::default(),
        }
    }

    /// The trace configuration.
    pub fn config(&self) -> &TraceConfig {
        &self.config
    }

    /// The generated topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The model of the (unordered) link `a`–`b`, built on first use.
    fn link(&mut self, a: usize, b: usize) -> &mut LinkModel {
        let key = if a < b { (a, b) } else { (b, a) };
        let seed = self
            .config
            .network
            .seed()
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((key.0 as u64) << 32 | key.1 as u64);
        let duration = self.config.duration_s;
        let base = self.topology.base_rtt_ms(key.0, key.1);
        let shared = &self.link_config;
        self.links.entry(key).or_insert_with(|| {
            LinkModel::with_shared_config(base, Arc::clone(shared), duration, seed)
        })
    }

    /// Samples one observation of the (unordered) link `a`–`b` at `time_s`.
    ///
    /// # Panics
    ///
    /// Panics when `a == b` or either index is out of range.
    pub fn sample_link(&mut self, a: usize, b: usize, time_s: f64) -> f64 {
        assert!(a != b, "a node does not ping itself");
        self.link(a, b).sample(time_s)
    }

    /// The underlying (noise-free) latency of link `a`–`b` at `time_s`.
    pub fn underlying_rtt_ms(&mut self, a: usize, b: usize, time_s: f64) -> f64 {
        self.link(a, b).underlying_rtt_ms(time_s)
    }

    /// Generates the full trace: at every probe interval each node probes the
    /// next target in its round-robin order over all other nodes. Records are
    /// ordered by time.
    pub fn generate(&mut self) -> Vec<TraceRecord> {
        let n = self.config.network.node_count();
        let steps = (self.config.duration_s / self.config.probe_interval_s).floor() as usize;
        let mut records = Vec::with_capacity(steps * n);
        for step in 0..steps {
            let time_s = step as f64 * self.config.probe_interval_s;
            for src in 0..n {
                // Round-robin target, skipping self.
                let mut dst = (src + 1 + step % (n - 1)) % n;
                if dst == src {
                    dst = (dst + 1) % n;
                }
                let rtt_ms = self.sample_link(src, dst, time_s);
                records.push(TraceRecord {
                    time_s,
                    src,
                    dst,
                    rtt_ms,
                });
            }
        }
        records
    }

    /// Generates `count` consecutive observations of one link at the probe
    /// interval, starting at time zero — the per-link series used by the
    /// Figure 3 and Figure 4 analyses.
    pub fn link_observations(&mut self, a: usize, b: usize, count: usize) -> Vec<TraceRecord> {
        (0..count)
            .map(|i| {
                let time_s = i as f64 * self.config.probe_interval_s;
                TraceRecord {
                    time_s,
                    src: a,
                    dst: b,
                    rtt_ms: self.sample_link(a, b, time_s),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> TraceConfig {
        TraceConfig::new(PlanetLabConfig::small(8).with_seed(21), 120.0, 1.0)
    }

    #[test]
    fn expected_records_matches_generate() {
        let config = small_config();
        let expected = config.expected_records();
        let mut generator = TraceGenerator::new(config);
        let records = generator.generate();
        assert_eq!(records.len(), expected);
    }

    #[test]
    fn records_are_time_ordered_and_valid() {
        let mut generator = TraceGenerator::new(small_config());
        let records = generator.generate();
        let n = generator.topology().len();
        let mut last_time = 0.0;
        for r in &records {
            assert!(r.time_s >= last_time);
            last_time = r.time_s;
            assert!(r.src < n);
            assert!(r.dst < n);
            assert_ne!(r.src, r.dst);
            assert!(r.rtt_ms > 0.0);
        }
    }

    #[test]
    fn round_robin_covers_many_destinations() {
        let mut generator = TraceGenerator::new(small_config());
        let records = generator.generate();
        let mut destinations: std::collections::HashSet<usize> = std::collections::HashSet::new();
        for r in records.iter().filter(|r| r.src == 0) {
            destinations.insert(r.dst);
        }
        assert!(
            destinations.len() >= 6,
            "node 0 should probe most peers, got {destinations:?}"
        );
    }

    #[test]
    fn link_observations_are_reproducible() {
        let mut g1 = TraceGenerator::new(small_config());
        let mut g2 = TraceGenerator::new(small_config());
        let a = g1.link_observations(0, 3, 50);
        let b = g2.link_observations(0, 3, 50);
        assert_eq!(a, b);
    }

    #[test]
    fn link_observations_cluster_near_underlying() {
        let mut g = TraceGenerator::new(small_config());
        let underlying = g.underlying_rtt_ms(1, 2, 0.0);
        let obs = g.link_observations(1, 2, 400);
        let near = obs
            .iter()
            .filter(|r| (r.rtt_ms - underlying).abs() < underlying * 0.5)
            .count();
        assert!(
            near as f64 / obs.len() as f64 > 0.9,
            "most samples sit near the underlying latency"
        );
    }

    #[test]
    #[should_panic(expected = "does not ping itself")]
    fn self_link_panics() {
        let mut g = TraceGenerator::new(small_config());
        let _ = g.sample_link(2, 2, 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid trace schedule")]
    fn zero_duration_panics() {
        let _ = TraceGenerator::new(TraceConfig::new(PlanetLabConfig::small(4), 0.0, 1.0));
    }

    #[test]
    fn config_rules_boundary_table() {
        // Columns: 0, 1, 2, -1, NaN, +inf, -inf.
        let probes = [
            0.0,
            1.0,
            2.0,
            -1.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let positive = [false, true, true, false, false, false, false];
        let network = || PlanetLabConfig::small(4);
        let durations: Vec<bool> = probes
            .iter()
            .map(|&d| TraceConfig::new(network(), d, 1.0).validate().is_ok())
            .collect();
        assert_eq!(durations, positive);
        let intervals: Vec<bool> = probes
            .iter()
            .map(|&i| TraceConfig::new(network(), 10.0, i).validate().is_ok())
            .collect();
        assert_eq!(intervals, positive);
        let lossy =
            network().with_link_config(LinkModelConfig::default().with_loss_probability(2.0));
        assert_eq!(
            TraceConfig::new(lossy, 10.0, 1.0).validate(),
            Err(ConfigError::LossProbabilityOutOfRange(2.0))
        );
    }

    #[test]
    fn config_rules_panic_with_the_validate_message() {
        // The generator checks its link model, as `Simulator::new` does.
        let links = LinkModelConfig::default().with_delay_asymmetry(1.0);
        let config = TraceConfig::new(PlanetLabConfig::small(4).with_link_config(links), 10.0, 1.0);
        let message = config.validate().unwrap_err().to_string();
        let panic = std::panic::catch_unwind(|| TraceGenerator::new(config)).unwrap_err();
        let text = panic.downcast_ref::<String>().expect("formatted panic");
        assert!(text.ends_with(&message), "{text}");
    }
}
