//! Configuration of a [`crate::StableNode`].
//!
//! Every config type in the workspace checks itself the same way: one
//! `validate(&self) -> Result<(), E>`, with one error enum per crate that
//! carries the offending value, and each rule written in the crate whose
//! type needs it — [`VivaldiConfig`] and [`OutlierGateConfig`] in
//! `nc-vivaldi`, [`FilterConfig`] in `nc-filters`, [`HeuristicConfig`] in
//! `nc-change`. [`NodeConfig::validate`] wraps their errors and adds the one
//! rule of its own, the eviction limit. Constructors that cannot fail panic
//! with `validate`'s message; the ones that can return its error.

use nc_change::{HeuristicConfig, HeuristicConfigError};
use nc_filters::{FilterConfig, FilterConfigError};
use nc_vivaldi::{OutlierGateConfig, VivaldiConfig, VivaldiConfigError};

/// Typed error from [`NodeConfig::validate`]: the lower crate's error for
/// the part it refuses, or the node's own eviction rule.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeConfigError {
    /// The Vivaldi constants or the outlier gate, as
    /// [`VivaldiConfig::validate`] or [`OutlierGateConfig::validate`]
    /// refuses them.
    Vivaldi(VivaldiConfigError),
    /// The per-link filter, as [`FilterConfig::validate`] refuses it.
    Filter(FilterConfigError),
    /// The application heuristic, as [`HeuristicConfig::validate`] refuses
    /// it.
    Heuristic(HeuristicConfigError),
    /// An eviction limit of zero consecutive losses (a peer would be
    /// evicted before its first probe could even be answered).
    ZeroLossLimit,
}

impl std::fmt::Display for NodeConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeConfigError::Vivaldi(error) => write!(f, "{error}"),
            NodeConfigError::Filter(error) => write!(f, "{error}"),
            NodeConfigError::Heuristic(error) => write!(f, "{error}"),
            NodeConfigError::ZeroLossLimit => {
                write!(f, "max consecutive losses must be at least 1")
            }
        }
    }
}

impl std::error::Error for NodeConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NodeConfigError::Vivaldi(error) => Some(error),
            NodeConfigError::Filter(error) => Some(error),
            NodeConfigError::Heuristic(error) => Some(error),
            NodeConfigError::ZeroLossLimit => None,
        }
    }
}

/// Full configuration of a [`crate::StableNode`].
#[derive(Debug, Clone, PartialEq)]
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

    /// Checks every part of the configuration: the Vivaldi constants, the
    /// filter, the heuristic, the eviction limit and the outlier gate.
    ///
    /// # Errors
    ///
    /// Returns the first [`NodeConfigError`] found, in that order.
    ///
    /// # Examples
    ///
    /// ```
    /// use stable_nc::{NodeConfig, NodeConfigError, OutlierGateConfig, VivaldiConfigError};
    ///
    /// let gate = OutlierGateConfig { window: 1, ..OutlierGateConfig::default() };
    /// let config = NodeConfig::builder().outlier_gate(gate).build();
    /// assert_eq!(
    ///     config.validate(),
    ///     Err(NodeConfigError::Vivaldi(VivaldiConfigError::WindowTooSmall(1)))
    /// );
    /// ```
    pub fn validate(&self) -> Result<(), NodeConfigError> {
        self.vivaldi.validate().map_err(NodeConfigError::Vivaldi)?;
        self.filter.validate().map_err(NodeConfigError::Filter)?;
        self.heuristic
            .validate()
            .map_err(NodeConfigError::Heuristic)?;
        if self.max_consecutive_losses == Some(0) {
            return Err(NodeConfigError::ZeroLossLimit);
        }
        if let Some(gate) = &self.outlier_gate {
            gate.validate().map_err(NodeConfigError::Vivaldi)?;
        }
        Ok(())
    }
}

impl Default for NodeConfig {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

/// Builder for [`NodeConfig`]. Its setters store what they are given;
/// [`NodeConfig::validate`] checks the result.
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
    /// [`NodeConfig::validate`] as [`NodeConfigError::ZeroLossLimit`]
    /// (setters never panic and never silently correct their input).
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

    /// Finishes the builder. Nothing is checked here: call
    /// [`NodeConfig::validate`] on the result, or let the entry point that
    /// takes it ([`crate::StableNode::new`], [`crate::StableNode::restore`])
    /// check it.
    pub fn build(self) -> NodeConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_change::Heuristic;

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
            assert!(config.validate().is_ok(), "{config:?}");
        }
    }

    #[test]
    fn validate_reports_typed_errors_instead_of_panicking() {
        let err = NodeConfig::builder()
            .filter(FilterConfig::MovingPercentile {
                history: 0,
                percentile: 25.0,
            })
            .build()
            .validate()
            .unwrap_err();
        assert_eq!(
            err,
            NodeConfigError::Filter(FilterConfigError::EmptyHistory(0))
        );

        let err = NodeConfig::builder()
            .filter(FilterConfig::Ewma { alpha: 1.5 })
            .build()
            .validate()
            .unwrap_err();
        assert_eq!(
            err,
            NodeConfigError::Filter(FilterConfigError::AlphaOutOfRange(1.5))
        );

        let err = NodeConfig::builder()
            .heuristic(HeuristicConfig::Energy {
                threshold: -1.0,
                window: 32,
            })
            .build()
            .validate()
            .unwrap_err();
        assert_eq!(
            err,
            NodeConfigError::Heuristic(HeuristicConfigError::ThresholdNotPositive(-1.0))
        );

        let err = NodeConfig::builder()
            .heuristic(HeuristicConfig::Relative {
                threshold: 0.3,
                window: 1,
            })
            .build()
            .validate()
            .unwrap_err();
        assert_eq!(
            err,
            NodeConfigError::Heuristic(HeuristicConfigError::WindowTooSmall { window: 1, min: 2 })
        );

        let err = NodeConfig::builder()
            .max_consecutive_losses(0)
            .build()
            .validate()
            .unwrap_err();
        assert_eq!(err, NodeConfigError::ZeroLossLimit);
        // Errors render as prose for operator-facing logs.
        assert!(err.to_string().contains("at least 1"));
    }

    #[test]
    fn validate_reports_an_outlier_gate_its_own_check_refuses() {
        // Accepted, this configuration panicked inside `StableNode::new`.
        let gate = OutlierGateConfig {
            window: 1,
            ..OutlierGateConfig::default()
        };
        let err = NodeConfig::builder()
            .outlier_gate(gate)
            .build()
            .validate()
            .unwrap_err();
        assert_eq!(
            err,
            NodeConfigError::Vivaldi(VivaldiConfigError::WindowTooSmall(1))
        );
        assert!(err.to_string().contains("window"), "{err}");
        assert!(NodeConfig::builder()
            .outlier_gate(OutlierGateConfig::default())
            .build()
            .validate()
            .is_ok());
    }

    #[test]
    fn config_rules_boundary_table() {
        let losses: Vec<bool> = [None, Some(0), Some(1), Some(2)]
            .into_iter()
            .map(|limit| {
                NodeConfig {
                    max_consecutive_losses: limit,
                    ..NodeConfig::paper_defaults()
                }
                .validate()
                .is_ok()
            })
            .collect();
        assert_eq!(losses, [true, false, true, true]);
        // The warm-up count has no rule: 0 and 1 both disable it.
        for warmup_samples in [0, 1, 2, u64::MAX] {
            let config = NodeConfig::builder().warmup_samples(warmup_samples).build();
            assert_eq!(config.validate(), Ok(()), "{warmup_samples}");
        }
        // Every part is checked, and wrapped by the crate that owns it.
        let vivaldi = VivaldiConfig::paper_defaults().with_dimensions(0);
        assert_eq!(
            NodeConfig::builder().vivaldi(vivaldi).build().validate(),
            Err(NodeConfigError::Vivaldi(VivaldiConfigError::Dimensions(0)))
        );
        let centroid = |window| {
            NodeConfig::builder()
                .heuristic(HeuristicConfig::ApplicationCentroid {
                    threshold_ms: 16.0,
                    window,
                })
                .build()
                .validate()
        };
        assert_eq!(centroid(1), Ok(()));
        assert_eq!(
            centroid(0),
            Err(NodeConfigError::Heuristic(
                HeuristicConfigError::WindowTooSmall { window: 0, min: 1 }
            ))
        );
    }

    #[test]
    fn config_rules_refuse_an_invalid_vivaldi_config_at_restore() {
        // The Vivaldi setters store what they are given, so a builder can
        // hold constants no node runs: `restore` refuses them before it
        // reads the snapshot, as `new` does.
        use crate::StableNode;
        let vivaldi = VivaldiConfig::paper_defaults()
            .with_dimensions(0)
            .with_cc(7.5);
        assert_eq!((vivaldi.dimensions(), vivaldi.cc()), (0, 7.5));
        let config = NodeConfig::builder().vivaldi(vivaldi).build();
        assert_eq!(
            config.validate(),
            Err(NodeConfigError::Vivaldi(VivaldiConfigError::Dimensions(0)))
        );
        let snapshot = StableNode::<u32>::new(NodeConfig::paper_defaults()).snapshot();
        assert!(matches!(
            StableNode::restore(config, &snapshot),
            Err(crate::RestoreError::Config(NodeConfigError::Vivaldi(
                VivaldiConfigError::Dimensions(0)
            )))
        ));
    }

    #[test]
    fn config_rules_panic_with_the_validate_message() {
        use crate::StableNode;
        for config in [
            NodeConfig::builder()
                .vivaldi(VivaldiConfig::paper_defaults().with_cc(7.5))
                .build(),
            NodeConfig::builder()
                .filter(FilterConfig::Threshold { cutoff_ms: 0.0 })
                .build(),
            NodeConfig::builder()
                .heuristic(HeuristicConfig::System { threshold_ms: -1.0 })
                .build(),
            NodeConfig::builder().max_consecutive_losses(0).build(),
            NodeConfig::builder()
                .outlier_gate(OutlierGateConfig {
                    min_remote_error: 2.0,
                    ..OutlierGateConfig::default()
                })
                .build(),
        ] {
            let message = config.validate().unwrap_err().to_string();
            let panic =
                std::panic::catch_unwind(|| StableNode::<u32>::new(config.clone())).unwrap_err();
            let text = panic.downcast_ref::<String>().expect("formatted panic");
            assert!(text.ends_with(&message), "{text}");
        }
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
