//! Which filter a link runs, and the one place its parameters are checked.

/// Which per-link filter a node applies to raw latency observations.
///
/// [`FilterConfig::validate`] holds every filter-parameter rule; the
/// filter constructors refuse exactly what it refuses, with its error.
///
/// # Examples
///
/// ```
/// use nc_filters::{EwmaFilter, FilterConfig, FilterConfigError};
///
/// assert_eq!(FilterConfig::paper_mp().validate(), Ok(()));
/// let config = FilterConfig::Ewma { alpha: 1.5 };
/// assert_eq!(config.validate(), Err(FilterConfigError::AlphaOutOfRange(1.5)));
/// assert_eq!(EwmaFilter::new(1.5).unwrap_err(), FilterConfigError::AlphaOutOfRange(1.5));
/// ```
#[derive(Debug, Clone, PartialEq)]
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

    /// Checks the filter parameters.
    ///
    /// # Errors
    ///
    /// Returns the first [`FilterConfigError`] found, with its value: a zero
    /// history, a percentile outside `[0, 100]`, an alpha outside `(0, 1]`,
    /// or a threshold cut-off that is not a positive finite number.
    pub fn validate(&self) -> Result<(), FilterConfigError> {
        match *self {
            FilterConfig::Raw => Ok(()),
            FilterConfig::MovingPercentile {
                history,
                percentile,
            } => {
                check_history(history)?;
                if !percentile.is_finite() || !(0.0..=100.0).contains(&percentile) {
                    return Err(FilterConfigError::PercentileOutOfRange(percentile));
                }
                Ok(())
            }
            FilterConfig::MovingMedian { history } => check_history(history),
            FilterConfig::Ewma { alpha } => {
                if !alpha.is_finite() || alpha <= 0.0 || alpha > 1.0 {
                    return Err(FilterConfigError::AlphaOutOfRange(alpha));
                }
                Ok(())
            }
            FilterConfig::Threshold { cutoff_ms } => {
                if !cutoff_ms.is_finite() || cutoff_ms <= 0.0 {
                    return Err(FilterConfigError::CutoffNotPositive(cutoff_ms));
                }
                Ok(())
            }
        }
    }
}

fn check_history(history: usize) -> Result<(), FilterConfigError> {
    if history == 0 {
        return Err(FilterConfigError::EmptyHistory(history));
    }
    Ok(())
}

/// A filter parameter out of its range, reported by
/// [`FilterConfig::validate`] and the filter constructors with the
/// offending value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FilterConfigError {
    /// A moving-percentile or moving-median history of zero samples.
    EmptyHistory(usize),
    /// A percentile outside `[0, 100]` (or not finite).
    PercentileOutOfRange(f64),
    /// An EWMA smoothing factor outside `(0, 1]` (or not finite).
    AlphaOutOfRange(f64),
    /// A threshold cut-off (ms) that is not a positive finite number.
    CutoffNotPositive(f64),
}

impl std::fmt::Display for FilterConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FilterConfigError::EmptyHistory(history) => write!(
                f,
                "filter history must hold at least one sample, got {history}"
            ),
            FilterConfigError::PercentileOutOfRange(p) => {
                write!(f, "percentile must be in [0, 100], got {p}")
            }
            FilterConfigError::AlphaOutOfRange(a) => {
                write!(f, "EWMA alpha must be in (0, 1], got {a}")
            }
            FilterConfigError::CutoffNotPositive(c) => {
                write!(f, "threshold cutoff must be positive and finite, got {c}")
            }
        }
    }
}

impl std::error::Error for FilterConfigError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EwmaFilter, MovingPercentileFilter, ThresholdFilter};

    /// Whether `validate` accepts each probe value, and whether the filter
    /// constructor agrees with it, error for error.
    fn accepted<F>(
        probes: &[f64],
        config: fn(f64) -> FilterConfig,
        build: fn(f64) -> Result<F, FilterConfigError>,
    ) -> Vec<bool> {
        probes
            .iter()
            .map(|&value| {
                let verdict = config(value).validate();
                // Debug text, so that NaN payloads compare equal.
                let built = format!("{:?}", build(value).err());
                assert_eq!(built, format!("{:?}", verdict.err()), "{value}");
                verdict.is_ok()
            })
            .collect()
    }

    #[test]
    fn config_rules_boundary_table() {
        // Columns: 0, 1, 2, -1, NaN, +inf, -inf, 100, 101.
        let probes = [
            0.0,
            1.0,
            2.0,
            -1.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            100.0,
            101.0,
        ];
        let percentile = accepted(
            &probes,
            |p| FilterConfig::MovingPercentile {
                history: 4,
                percentile: p,
            },
            |p| MovingPercentileFilter::new(4, p),
        );
        assert_eq!(
            percentile,
            [true, true, true, false, false, false, false, true, false]
        );
        let alpha = accepted(
            &probes,
            |alpha| FilterConfig::Ewma { alpha },
            EwmaFilter::new,
        );
        assert_eq!(
            alpha,
            [false, true, false, false, false, false, false, false, false]
        );
        let cutoff = accepted(
            &probes,
            |cutoff_ms| FilterConfig::Threshold { cutoff_ms },
            ThresholdFilter::new,
        );
        assert_eq!(
            cutoff,
            [false, true, true, false, false, false, false, true, true]
        );
        for (history, ok) in [(0, false), (1, true), (2, true)] {
            let mp = FilterConfig::MovingPercentile {
                history,
                percentile: 25.0,
            };
            let median = FilterConfig::MovingMedian { history };
            assert_eq!(mp.validate().is_ok(), ok, "{history}");
            assert_eq!(median.validate().is_ok(), ok, "{history}");
            assert_eq!(
                MovingPercentileFilter::new(history, 25.0).err(),
                mp.validate().err()
            );
        }
        assert_eq!(FilterConfig::Raw.validate(), Ok(()));
        assert_eq!(
            FilterConfig::MovingMedian { history: 0 }.validate(),
            Err(FilterConfigError::EmptyHistory(0))
        );
    }
}
