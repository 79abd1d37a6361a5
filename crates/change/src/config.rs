//! Which heuristic a node runs, and the one place its parameters are
//! checked.

use crate::heuristics::{
    ApplicationHeuristic, CentroidHeuristic, EnergyHeuristic, Heuristic, RelativeHeuristic,
    SystemHeuristic,
};

/// Which application-update heuristic a node runs on top of its system-level
/// coordinate.
///
/// [`HeuristicConfig::validate`] holds every heuristic-parameter rule. The
/// heuristic constructors panic with its message, and
/// [`TwoWindowDetector::new`](crate::TwoWindowDetector::new) returns its
/// error.
///
/// # Examples
///
/// ```
/// use nc_change::{HeuristicConfig, HeuristicConfigError};
///
/// assert_eq!(HeuristicConfig::paper_energy().validate(), Ok(()));
/// let config = HeuristicConfig::Relative { threshold: 0.3, window: 1 };
/// assert_eq!(
///     config.validate(),
///     Err(HeuristicConfigError::WindowTooSmall { window: 1, min: 2 })
/// );
/// ```
#[derive(Debug, Clone, PartialEq)]
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

/// Smallest per-window size of the two-window detector: a meaningful
/// two-sample comparison needs at least two points per window.
const MIN_DETECTOR_WINDOW: usize = 2;

/// Smallest centroid window. One coordinate is a well-defined centroid (the
/// APPLICATION heuristic's target); the ablation has no second window to
/// compare against, so nothing asks for more.
const MIN_CENTROID_WINDOW: usize = 1;

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

    /// Checks the heuristic parameters.
    ///
    /// # Errors
    ///
    /// Returns the first [`HeuristicConfigError`] found, with its value: a
    /// threshold that is not a positive finite number, a RELATIVE or ENERGY
    /// window below two samples, or an empty centroid window.
    pub fn validate(&self) -> Result<(), HeuristicConfigError> {
        match *self {
            HeuristicConfig::FollowSystem => Ok(()),
            HeuristicConfig::System { threshold_ms }
            | HeuristicConfig::Application { threshold_ms } => check_threshold(threshold_ms),
            HeuristicConfig::Relative { threshold, window }
            | HeuristicConfig::Energy { threshold, window } => {
                check_threshold(threshold)?;
                check_detector_window(window)
            }
            HeuristicConfig::ApplicationCentroid {
                threshold_ms,
                window,
            } => {
                check_threshold(threshold_ms)?;
                check_window(window, MIN_CENTROID_WINDOW)
            }
        }
    }

    /// Builds the heuristic.
    ///
    /// # Panics
    ///
    /// Panics with [`HeuristicConfig::validate`]'s message when it refuses
    /// the configuration.
    pub fn build(&self) -> Heuristic {
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

    /// Panics with [`HeuristicConfig::validate`]'s message when it refuses
    /// the configuration; what every heuristic constructor calls first.
    pub(crate) fn expect_valid(&self) {
        if let Err(error) = self.validate() {
            panic!("invalid heuristic config: {error}");
        }
    }
}

fn check_threshold(threshold: f64) -> Result<(), HeuristicConfigError> {
    if !threshold.is_finite() || threshold <= 0.0 {
        return Err(HeuristicConfigError::ThresholdNotPositive(threshold));
    }
    Ok(())
}

fn check_window(window: usize, min: usize) -> Result<(), HeuristicConfigError> {
    if window < min {
        return Err(HeuristicConfigError::WindowTooSmall { window, min });
    }
    Ok(())
}

/// The two-window detector's window rule, shared by RELATIVE, ENERGY and
/// [`TwoWindowDetector::new`](crate::TwoWindowDetector::new).
pub(crate) fn check_detector_window(window: usize) -> Result<(), HeuristicConfigError> {
    check_window(window, MIN_DETECTOR_WINDOW)
}

/// A heuristic parameter out of its range, reported by
/// [`HeuristicConfig::validate`] with the offending value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HeuristicConfigError {
    /// A threshold that is not a positive finite number.
    ThresholdNotPositive(f64),
    /// A window smaller than its heuristic needs.
    WindowTooSmall {
        /// The configured window size.
        window: usize,
        /// The smallest size the heuristic accepts.
        min: usize,
    },
}

impl std::fmt::Display for HeuristicConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HeuristicConfigError::ThresholdNotPositive(threshold) => write!(
                f,
                "heuristic threshold must be positive and finite, got {threshold}"
            ),
            HeuristicConfigError::WindowTooSmall { window, min } => write!(
                f,
                "heuristic window must hold at least {min} samples, got {window}"
            ),
        }
    }
}

impl std::error::Error for HeuristicConfigError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TwoWindowDetector;

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
        let accepted = |config: fn(f64) -> HeuristicConfig| -> Vec<bool> {
            probes
                .iter()
                .map(|&t| config(t).validate().is_ok())
                .collect()
        };
        let positive = [false, true, true, false, false, false, false];
        assert_eq!(
            accepted(|threshold_ms| HeuristicConfig::System { threshold_ms }),
            positive
        );
        assert_eq!(
            accepted(|threshold_ms| HeuristicConfig::Application { threshold_ms }),
            positive
        );
        assert_eq!(
            accepted(|threshold| HeuristicConfig::Relative {
                threshold,
                window: 32
            }),
            positive
        );
        assert_eq!(
            accepted(|threshold| HeuristicConfig::Energy {
                threshold,
                window: 32
            }),
            positive
        );
        assert_eq!(
            accepted(|threshold_ms| HeuristicConfig::ApplicationCentroid {
                threshold_ms,
                window: 32
            }),
            positive
        );
        // Windows 0, 1, 2: the two-window detector needs two samples per
        // window, the centroid one.
        for window in [0, 1, 2] {
            let detector = window >= 2;
            let relative = HeuristicConfig::Relative {
                threshold: 0.3,
                window,
            };
            let energy = HeuristicConfig::Energy {
                threshold: 8.0,
                window,
            };
            assert_eq!(relative.validate().is_ok(), detector, "{window}");
            assert_eq!(energy.validate().is_ok(), detector, "{window}");
            assert_eq!(
                TwoWindowDetector::new(window).err(),
                relative.validate().err()
            );
        }
        assert_eq!(HeuristicConfig::FollowSystem.validate(), Ok(()));
    }

    /// The centroid window rule is `window >= 1`: one coordinate is a
    /// well-defined centroid, and the config and the constructor agree.
    #[test]
    fn config_rules_centroid_window_is_at_least_one() {
        let centroid = |window| HeuristicConfig::ApplicationCentroid {
            threshold_ms: 16.0,
            window,
        };
        assert_eq!(
            centroid(0).validate(),
            Err(HeuristicConfigError::WindowTooSmall { window: 0, min: 1 })
        );
        assert_eq!(centroid(1).validate(), Ok(()));
        assert!(matches!(centroid(1).build(), Heuristic::Centroid(_)));
        let built = std::panic::catch_unwind(|| CentroidHeuristic::new(16.0, 0));
        assert!(built.is_err(), "the constructor refuses an empty window");
    }

    #[test]
    fn config_rules_panic_with_the_validate_message() {
        let cases: [(HeuristicConfig, fn() -> Heuristic); 5] = [
            (HeuristicConfig::System { threshold_ms: 0.0 }, || {
                Heuristic::System(SystemHeuristic::new(0.0))
            }),
            (
                HeuristicConfig::Application {
                    threshold_ms: f64::NAN,
                },
                || Heuristic::Application(ApplicationHeuristic::new(f64::NAN)),
            ),
            (
                HeuristicConfig::Relative {
                    threshold: 0.3,
                    window: 1,
                },
                || Heuristic::Relative(RelativeHeuristic::new(0.3, 1)),
            ),
            (
                HeuristicConfig::Energy {
                    threshold: -1.0,
                    window: 32,
                },
                || Heuristic::Energy(EnergyHeuristic::new(-1.0, 32)),
            ),
            (
                HeuristicConfig::ApplicationCentroid {
                    threshold_ms: 16.0,
                    window: 0,
                },
                || Heuristic::Centroid(CentroidHeuristic::new(16.0, 0)),
            ),
        ];
        for (config, construct) in cases {
            let message = config.validate().unwrap_err().to_string();
            for panic in [
                std::panic::catch_unwind(construct).unwrap_err(),
                std::panic::catch_unwind(|| config.build()).unwrap_err(),
            ] {
                let text = panic.downcast_ref::<String>().expect("formatted panic");
                assert!(text.ends_with(&message), "{text}");
            }
        }
    }
}
