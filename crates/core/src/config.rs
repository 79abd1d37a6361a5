//! Configuration of a [`crate::StableNode`].

use nc_change::{
    ApplicationHeuristic, CentroidHeuristic, EnergyHeuristic, Heuristic, RelativeHeuristic,
    SystemHeuristic,
};
use nc_vivaldi::{GateConfigError, OutlierGateConfig, VivaldiConfig};
use serde::{Deserialize, Serialize};

/// Typed error from validating a [`NodeConfig`] (or one of its parts).
///
/// This is the shared validation idiom of the workspace's config surfaces:
/// `NodeConfig::validate`, `SimConfig::validate` (`nc-netsim`),
/// `LinkModelConfig::validate` and `QueryConfig::validate` (`nc-query`) all
/// return a typed error instead of panicking, so drivers can surface bad
/// deployment input without unwinding.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeConfigError {
    /// A moving-percentile or moving-median history of zero samples.
    EmptyFilterHistory,
    /// A percentile outside the `[0, 100]` range (or not finite).
    PercentileOutOfRange(f64),
    /// An EWMA smoothing factor outside `(0, 1]` (or not finite).
    AlphaOutOfRange(f64),
    /// A non-positive or non-finite threshold cut-off (ms).
    NonPositiveCutoff(f64),
    /// A non-positive or non-finite heuristic threshold.
    NonPositiveThreshold(f64),
    /// A windowed heuristic with fewer than two samples per window.
    WindowTooSmall(usize),
    /// An eviction limit of zero consecutive losses (a peer would be
    /// evicted before its first probe could even be answered).
    ZeroLossLimit,
    /// An outlier gate that [`OutlierGateConfig::validate`] refuses, with
    /// the field it names.
    OutlierGate(GateConfigError),
}

impl std::fmt::Display for NodeConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeConfigError::EmptyFilterHistory => {
                write!(f, "filter history must hold at least one sample")
            }
            NodeConfigError::PercentileOutOfRange(p) => {
                write!(f, "percentile must be in [0, 100], got {p}")
            }
            NodeConfigError::AlphaOutOfRange(a) => {
                write!(f, "EWMA alpha must be in (0, 1], got {a}")
            }
            NodeConfigError::NonPositiveCutoff(c) => {
                write!(f, "threshold cutoff must be positive and finite, got {c}")
            }
            NodeConfigError::NonPositiveThreshold(t) => {
                write!(
                    f,
                    "heuristic threshold must be positive and finite, got {t}"
                )
            }
            NodeConfigError::WindowTooSmall(w) => {
                write!(f, "heuristic windows need at least 2 samples, got {w}")
            }
            NodeConfigError::ZeroLossLimit => {
                write!(f, "max consecutive losses must be at least 1")
            }
            NodeConfigError::OutlierGate(error) => write!(f, "{error}"),
        }
    }
}

impl std::error::Error for NodeConfigError {}

/// Which per-link filter a node applies to raw latency observations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FilterConfig {
    /// No filtering: raw observations go straight into Vivaldi (the paper's
    /// "No Filter" baseline).
    Raw,
    /// Moving-percentile filter with history `h` and percentile `p`
    /// (`h = 4`, `p = 25` in the paper).
    MovingPercentile {
        /// Number of recent observations kept per link.
        history: usize,
        /// Percentile (0–100) of the window returned as the estimate.
        percentile: f64,
    },
    /// Moving-median filter with history `h`.
    MovingMedian {
        /// Number of recent observations kept per link.
        history: usize,
    },
    /// Exponentially-weighted moving average with smoothing factor `alpha`.
    Ewma {
        /// Weight of the newest observation, in `(0, 1]`.
        alpha: f64,
    },
    /// Fixed threshold: observations above `cutoff_ms` are discarded.
    Threshold {
        /// Discard cut-off in milliseconds.
        cutoff_ms: f64,
    },
}

impl FilterConfig {
    /// The paper's recommended filter: MP with `h = 4`, `p = 25`.
    pub fn paper_mp() -> Self {
        FilterConfig::MovingPercentile {
            history: 4,
            percentile: 25.0,
        }
    }

    /// Checks the filter parameters and returns the config unchanged when
    /// they are buildable.
    ///
    /// # Errors
    ///
    /// Returns the first [`NodeConfigError`] found: a zero history, a
    /// percentile outside `[0, 100]`, an alpha outside `(0, 1]`, or a
    /// non-positive threshold cut-off.
    pub fn validate(self) -> Result<Self, NodeConfigError> {
        match &self {
            FilterConfig::Raw => {}
            FilterConfig::MovingPercentile {
                history,
                percentile,
            } => {
                if *history == 0 {
                    return Err(NodeConfigError::EmptyFilterHistory);
                }
                if !percentile.is_finite() || !(0.0..=100.0).contains(percentile) {
                    return Err(NodeConfigError::PercentileOutOfRange(*percentile));
                }
            }
            FilterConfig::MovingMedian { history } => {
                if *history == 0 {
                    return Err(NodeConfigError::EmptyFilterHistory);
                }
            }
            FilterConfig::Ewma { alpha } => {
                if !alpha.is_finite() || *alpha <= 0.0 || *alpha > 1.0 {
                    return Err(NodeConfigError::AlphaOutOfRange(*alpha));
                }
            }
            FilterConfig::Threshold { cutoff_ms } => {
                if !cutoff_ms.is_finite() || *cutoff_ms <= 0.0 {
                    return Err(NodeConfigError::NonPositiveCutoff(*cutoff_ms));
                }
            }
        }
        Ok(self)
    }
}

/// Which application-update heuristic a node runs on top of its system-level
/// coordinate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum HeuristicConfig {
    /// Publish every system-level update unchanged — the application sees the
    /// raw (filtered) coordinate stream. This is the "Raw MP Filter"
    /// configuration of Figures 11 and 13.
    FollowSystem,
    /// SYSTEM heuristic with step threshold `τ` (ms).
    System {
        /// Step threshold in milliseconds.
        threshold_ms: f64,
    },
    /// APPLICATION heuristic with drift threshold `τ` (ms).
    Application {
        /// Drift threshold in milliseconds.
        threshold_ms: f64,
    },
    /// RELATIVE heuristic with relative threshold `ε_r` and window size.
    Relative {
        /// Relative movement threshold.
        threshold: f64,
        /// Per-window size.
        window: usize,
    },
    /// ENERGY heuristic with energy threshold `τ` and window size.
    Energy {
        /// Energy-distance threshold.
        threshold: f64,
        /// Per-window size.
        window: usize,
    },
    /// APPLICATION/CENTROID ablation with drift threshold `τ` (ms) and
    /// window size.
    ApplicationCentroid {
        /// Drift threshold in milliseconds.
        threshold_ms: f64,
        /// Sliding window size for the centroid target.
        window: usize,
    },
}

impl HeuristicConfig {
    /// The deployment configuration of §VI: ENERGY with window 32, τ = 8.
    pub fn paper_energy() -> Self {
        HeuristicConfig::Energy {
            threshold: 8.0,
            window: 32,
        }
    }

    /// The RELATIVE configuration of §V-D: ε_r = 0.3, window 32.
    pub fn paper_relative() -> Self {
        HeuristicConfig::Relative {
            threshold: 0.3,
            window: 32,
        }
    }

    /// Checks the heuristic parameters and returns the config unchanged
    /// when they are buildable.
    ///
    /// # Errors
    ///
    /// Returns the first [`NodeConfigError`] found: a non-positive
    /// threshold, or a window smaller than two samples.
    pub fn validate(self) -> Result<Self, NodeConfigError> {
        let check_threshold = |t: f64| {
            if !t.is_finite() || t <= 0.0 {
                Err(NodeConfigError::NonPositiveThreshold(t))
            } else {
                Ok(())
            }
        };
        match &self {
            HeuristicConfig::FollowSystem => {}
            HeuristicConfig::System { threshold_ms }
            | HeuristicConfig::Application { threshold_ms } => check_threshold(*threshold_ms)?,
            HeuristicConfig::Relative { threshold, window }
            | HeuristicConfig::Energy { threshold, window } => {
                check_threshold(*threshold)?;
                if *window < 2 {
                    return Err(NodeConfigError::WindowTooSmall(*window));
                }
            }
            HeuristicConfig::ApplicationCentroid {
                threshold_ms,
                window,
            } => {
                check_threshold(*threshold_ms)?;
                if *window < 2 {
                    return Err(NodeConfigError::WindowTooSmall(*window));
                }
            }
        }
        Ok(self)
    }

    /// Builds the heuristic.
    ///
    /// # Panics
    ///
    /// Panics on invalid parameters — exactly the ones
    /// [`HeuristicConfig::validate`] reports as typed errors; configurations
    /// from the provided constructors are always valid.
    pub(crate) fn build(&self) -> Heuristic {
        match *self {
            HeuristicConfig::FollowSystem => Heuristic::FollowSystem,
            HeuristicConfig::System { threshold_ms } => {
                Heuristic::System(SystemHeuristic::new(threshold_ms))
            }
            HeuristicConfig::Application { threshold_ms } => {
                Heuristic::Application(ApplicationHeuristic::new(threshold_ms))
            }
            HeuristicConfig::Relative { threshold, window } => {
                Heuristic::Relative(RelativeHeuristic::new(threshold, window))
            }
            HeuristicConfig::Energy { threshold, window } => {
                Heuristic::Energy(EnergyHeuristic::new(threshold, window))
            }
            HeuristicConfig::ApplicationCentroid {
                threshold_ms,
                window,
            } => Heuristic::Centroid(CentroidHeuristic::new(threshold_ms, window)),
        }
    }
}

/// Full configuration of a [`crate::StableNode`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeConfig {
    /// Vivaldi algorithm parameters.
    pub vivaldi: VivaldiConfig,
    /// Per-link filter applied to raw observations.
    pub filter: FilterConfig,
    /// Application-level update heuristic.
    pub heuristic: HeuristicConfig,
    /// Number of samples a link must deliver before the filter output is used
    /// (§VI warm-up fix). `0` or `1` disables the warm-up.
    pub warmup_samples: u64,
    /// When set, a peer whose last `n` probes all went unanswered is evicted
    /// from the neighbour table and the probe schedule (the engine emits
    /// `Event::NeighborEvicted`). `None` keeps unresponsive peers forever —
    /// the paper's deployments never pruned membership, so that remains the
    /// default.
    pub max_consecutive_losses: Option<u32>,
    /// When set, a MAD-based outlier gate sits between the per-link filter
    /// and the Vivaldi update: observations whose filtered RTT is wildly
    /// inconsistent with the coordinate-predicted distance are rejected
    /// (surfaced as `Event::ObservationRejected`), their piggybacked gossip
    /// is dropped with them, and remote error estimates are floored so a
    /// liar cannot claim perfect confidence. `None` — the default, and the
    /// paper's behaviour — runs every filtered observation straight into
    /// Vivaldi.
    pub outlier_gate: Option<OutlierGateConfig>,
}

impl NodeConfig {
    /// The full paper configuration: 3-D Vivaldi with `c_c = c_e = 0.25`, MP
    /// filter `h = 4` / `p = 25`, ENERGY heuristic (window 32, τ = 8), no
    /// warm-up (the paper measures the warm-up fix separately).
    pub fn paper_defaults() -> Self {
        NodeConfig {
            vivaldi: VivaldiConfig::paper_defaults(),
            filter: FilterConfig::paper_mp(),
            heuristic: HeuristicConfig::paper_energy(),
            warmup_samples: 0,
            max_consecutive_losses: None,
            outlier_gate: None,
        }
    }

    /// The original, unmodified Vivaldi: raw observations, application
    /// coordinate follows the system coordinate. This is the baseline every
    /// figure compares against.
    pub fn original_vivaldi() -> Self {
        NodeConfig {
            vivaldi: VivaldiConfig::paper_defaults(),
            filter: FilterConfig::Raw,
            heuristic: HeuristicConfig::FollowSystem,
            warmup_samples: 0,
            max_consecutive_losses: None,
            outlier_gate: None,
        }
    }

    /// Starts a builder from the paper defaults.
    pub fn builder() -> NodeConfigBuilder {
        NodeConfigBuilder {
            config: Self::paper_defaults(),
        }
    }

    /// Checks every invariant of the configuration and returns it unchanged
    /// when a [`crate::StableNode`] can be built from it.
    ///
    /// # Errors
    ///
    /// Returns the first [`NodeConfigError`] found in the filter, the
    /// heuristic, the eviction limit or the outlier gate.
    ///
    /// # Examples
    ///
    /// ```
    /// use stable_nc::{GateConfigError, NodeConfig, NodeConfigError, OutlierGateConfig};
    ///
    /// let gate = OutlierGateConfig { window: 1, ..OutlierGateConfig::default() };
    /// let config = NodeConfig::builder().outlier_gate(gate).build();
    /// assert_eq!(
    ///     config.validate(),
    ///     Err(NodeConfigError::OutlierGate(GateConfigError::WindowTooSmall(1)))
    /// );
    /// ```
    pub fn validate(self) -> Result<Self, NodeConfigError> {
        self.filter.clone().validate()?;
        self.heuristic.clone().validate()?;
        if self.max_consecutive_losses == Some(0) {
            return Err(NodeConfigError::ZeroLossLimit);
        }
        if let Some(gate) = &self.outlier_gate {
            gate.validate().map_err(NodeConfigError::OutlierGate)?;
        }
        Ok(self)
    }
}

impl Default for NodeConfig {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

/// Builder for [`NodeConfig`].
///
/// # Examples
///
/// ```
/// use stable_nc::{FilterConfig, HeuristicConfig, NodeConfig};
///
/// let config = NodeConfig::builder()
///     .filter(FilterConfig::MovingPercentile { history: 8, percentile: 50.0 })
///     .heuristic(HeuristicConfig::paper_relative())
///     .warmup_samples(2)
///     .build();
/// assert_eq!(config.warmup_samples, 2);
/// ```
#[derive(Debug, Clone)]
pub struct NodeConfigBuilder {
    config: NodeConfig,
}

impl NodeConfigBuilder {
    /// Sets the Vivaldi parameters.
    pub fn vivaldi(mut self, vivaldi: VivaldiConfig) -> Self {
        self.config.vivaldi = vivaldi;
        self
    }

    /// Sets the per-link filter.
    pub fn filter(mut self, filter: FilterConfig) -> Self {
        self.config.filter = filter;
        self
    }

    /// Sets the application-update heuristic.
    pub fn heuristic(mut self, heuristic: HeuristicConfig) -> Self {
        self.config.heuristic = heuristic;
        self
    }

    /// Sets the per-link warm-up sample count.
    pub fn warmup_samples(mut self, samples: u64) -> Self {
        self.config.warmup_samples = samples;
        self
    }

    /// Enables eviction of peers whose last `losses` probes all expired
    /// unanswered. A limit of zero is stored as given and reported by
    /// [`NodeConfig::validate`] / [`NodeConfigBuilder::try_build`] as
    /// [`NodeConfigError::ZeroLossLimit`] (setters never panic and never
    /// silently correct their input).
    pub fn max_consecutive_losses(mut self, losses: u32) -> Self {
        self.config.max_consecutive_losses = Some(losses);
        self
    }

    /// Enables the MAD-based outlier gate between the per-link filter and
    /// the Vivaldi update (see [`OutlierGateConfig`]).
    pub fn outlier_gate(mut self, gate: OutlierGateConfig) -> Self {
        self.config.outlier_gate = Some(gate);
        self
    }

    /// Finishes the builder, checking every invariant.
    ///
    /// # Errors
    ///
    /// Returns the first [`NodeConfigError`] that
    /// [`NodeConfig::validate`] finds.
    pub fn try_build(self) -> Result<NodeConfig, NodeConfigError> {
        self.config.validate()
    }

    /// Finishes the builder without validation.
    ///
    /// Deprecation note: prefer [`try_build`](NodeConfigBuilder::try_build),
    /// which applies [`NodeConfig::validate`] and reports bad parameters as
    /// a typed [`NodeConfigError`] instead of deferring the failure to a
    /// panic inside [`crate::StableNode::new`]. `build` is kept for the
    /// common case of hard-coded, known-good configurations.
    pub fn build(self) -> NodeConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_compose_the_deployment_stack() {
        let c = NodeConfig::paper_defaults();
        assert_eq!(c.filter, FilterConfig::paper_mp());
        assert_eq!(c.heuristic, HeuristicConfig::paper_energy());
        assert_eq!(c.vivaldi.dimensions(), 3);
        assert_eq!(c.warmup_samples, 0);
    }

    #[test]
    fn original_vivaldi_is_unfiltered_and_follows_system() {
        let c = NodeConfig::original_vivaldi();
        assert_eq!(c.filter, FilterConfig::Raw);
        assert_eq!(c.heuristic, HeuristicConfig::FollowSystem);
    }

    #[test]
    fn builder_overrides_fields() {
        let c = NodeConfig::builder()
            .filter(FilterConfig::Ewma { alpha: 0.1 })
            .heuristic(HeuristicConfig::Application { threshold_ms: 16.0 })
            .warmup_samples(2)
            .vivaldi(VivaldiConfig::paper_defaults().with_dimensions(2))
            .build();
        assert_eq!(c.filter, FilterConfig::Ewma { alpha: 0.1 });
        assert_eq!(
            c.heuristic,
            HeuristicConfig::Application { threshold_ms: 16.0 }
        );
        assert_eq!(c.warmup_samples, 2);
        assert_eq!(c.vivaldi.dimensions(), 2);
    }

    #[test]
    fn outlier_gate_is_off_everywhere_by_default() {
        assert!(NodeConfig::paper_defaults().outlier_gate.is_none());
        assert!(NodeConfig::original_vivaldi().outlier_gate.is_none());
        assert!(NodeConfig::default().outlier_gate.is_none());
        let gated = NodeConfig::builder()
            .outlier_gate(OutlierGateConfig::default())
            .build();
        assert_eq!(gated.outlier_gate, Some(OutlierGateConfig::default()));
    }

    #[test]
    fn validate_accepts_every_shipped_configuration() {
        for config in [
            NodeConfig::paper_defaults(),
            NodeConfig::original_vivaldi(),
            NodeConfig::builder()
                .filter(FilterConfig::Ewma { alpha: 0.1 })
                .heuristic(HeuristicConfig::paper_relative())
                .max_consecutive_losses(3)
                .build(),
        ] {
            assert!(config.clone().validate().is_ok(), "{config:?}");
        }
    }

    #[test]
    fn try_build_reports_typed_errors_instead_of_panicking() {
        let err = NodeConfig::builder()
            .filter(FilterConfig::MovingPercentile {
                history: 0,
                percentile: 25.0,
            })
            .try_build()
            .unwrap_err();
        assert_eq!(err, NodeConfigError::EmptyFilterHistory);

        let err = NodeConfig::builder()
            .filter(FilterConfig::Ewma { alpha: 1.5 })
            .try_build()
            .unwrap_err();
        assert_eq!(err, NodeConfigError::AlphaOutOfRange(1.5));

        let err = NodeConfig::builder()
            .heuristic(HeuristicConfig::Energy {
                threshold: -1.0,
                window: 32,
            })
            .try_build()
            .unwrap_err();
        assert_eq!(err, NodeConfigError::NonPositiveThreshold(-1.0));

        let err = NodeConfig::builder()
            .heuristic(HeuristicConfig::Relative {
                threshold: 0.3,
                window: 1,
            })
            .try_build()
            .unwrap_err();
        assert_eq!(err, NodeConfigError::WindowTooSmall(1));

        let err = NodeConfig::builder()
            .max_consecutive_losses(0)
            .try_build()
            .unwrap_err();
        assert_eq!(err, NodeConfigError::ZeroLossLimit);
        // Errors render as prose for operator-facing logs.
        assert!(err.to_string().contains("at least 1"));
    }

    #[test]
    fn try_build_reports_an_outlier_gate_its_own_check_refuses() {
        // Accepted, this configuration panicked inside `StableNode::new`.
        let gate = OutlierGateConfig {
            window: 1,
            ..OutlierGateConfig::default()
        };
        let err = NodeConfig::builder()
            .outlier_gate(gate)
            .try_build()
            .unwrap_err();
        assert_eq!(
            err,
            NodeConfigError::OutlierGate(GateConfigError::WindowTooSmall(1))
        );
        assert!(err.to_string().contains("window"), "{err}");
        assert!(NodeConfig::builder()
            .outlier_gate(OutlierGateConfig::default())
            .try_build()
            .is_ok());
    }

    #[test]
    fn filter_config_builds_working_filters() {
        use crate::peers::LinkStore;
        for (config, family) in [
            (FilterConfig::Raw, "raw"),
            (FilterConfig::paper_mp(), "moving-percentile"),
            (
                FilterConfig::MovingMedian { history: 4 },
                "moving-percentile",
            ),
            (FilterConfig::Ewma { alpha: 0.2 }, "ewma"),
            (FilterConfig::Threshold { cutoff_ms: 500.0 }, "threshold"),
        ] {
            let mut links = LinkStore::new(&config, 0);
            let link = links.insert();
            assert_eq!(links.observe(link, 42.0), Some(42.0), "{config:?}");
            assert_eq!(links.observations_seen(link), 1, "{config:?}");
            assert_eq!(links.export_state(link).family(), family);
        }
        // The median is the p = 50 member of the moving-percentile family.
        let mut links = LinkStore::new(&FilterConfig::MovingMedian { history: 4 }, 0);
        let median = links.insert();
        for raw in [10.0, 40.0, 20.0] {
            links.observe(median, raw);
        }
        assert_eq!(links.estimate(median), Some(20.0));
    }

    #[test]
    fn warmup_wrapping_delays_output() {
        use crate::{Event, ProbeResponse, StableNode};
        use nc_vivaldi::Coordinate;
        let config = NodeConfig::builder().warmup_samples(3).build();
        let mut node = StableNode::<u32>::new(config);
        let mut events = Vec::new();
        for (round, withheld) in [(0, true), (1, true), (2, false)] {
            let request = node.probe_request_for(1, round);
            let mut response = ProbeResponse::new(1, &request, Coordinate::origin(3), 0.5);
            response.rtt_ms = 100.0;
            events.clear();
            node.handle_response_into(&response, &mut events);
            let filtered = events
                .iter()
                .any(|event| matches!(event, Event::ObservationFiltered { .. }));
            assert_eq!(filtered, withheld, "sample {round}: {events:?}");
        }
    }

    #[test]
    fn heuristic_config_builds_every_kind() {
        use nc_change::ApplicationCoordinate;
        use nc_vivaldi::Coordinate;
        let arm = |built: &Heuristic| match built {
            Heuristic::FollowSystem => "FollowSystem",
            Heuristic::System(_) => "System",
            Heuristic::Application(_) => "Application",
            Heuristic::Relative(_) => "Relative",
            Heuristic::Energy(_) => "Energy",
            Heuristic::Centroid(_) => "Centroid",
        };
        for (config, expected, family) in [
            (HeuristicConfig::FollowSystem, "FollowSystem", "stateless"),
            (
                HeuristicConfig::System { threshold_ms: 16.0 },
                "System",
                "system",
            ),
            (
                HeuristicConfig::Application { threshold_ms: 16.0 },
                "Application",
                "stateless",
            ),
            (HeuristicConfig::paper_relative(), "Relative", "windowed"),
            (HeuristicConfig::paper_energy(), "Energy", "windowed"),
            (
                HeuristicConfig::ApplicationCentroid {
                    threshold_ms: 16.0,
                    window: 32,
                },
                "Centroid",
                "centroid",
            ),
        ] {
            let app = ApplicationCoordinate::new(Coordinate::origin(3), config.build());
            assert_eq!(arm(app.heuristic()), expected, "{config:?}");
            assert_eq!(app.export_state().heuristic.family(), family, "{config:?}");
        }
    }
}
