//! Error types and the relative-error accuracy metric.

/// Errors raised when constructing or combining coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoordinateError {
    /// The coordinate would have zero dimensions.
    Dimension,
    /// The coordinate would exceed [`crate::coordinate::MAX_DIMS`]
    /// dimensions (the inline-storage capacity).
    TooManyDimensions {
        /// The number of dimensions that was requested.
        requested: usize,
    },
    /// A component or height was NaN or infinite.
    NotFinite,
    /// The height was negative.
    NegativeHeight,
}

impl std::fmt::Display for CoordinateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoordinateError::Dimension => write!(f, "coordinate must have at least one dimension"),
            CoordinateError::TooManyDimensions { requested } => write!(
                f,
                "coordinate limited to {} dimensions, requested {requested}",
                crate::coordinate::MAX_DIMS
            ),
            CoordinateError::NotFinite => write!(f, "coordinate components must be finite"),
            CoordinateError::NegativeHeight => write!(f, "coordinate height must be non-negative"),
        }
    }
}

impl std::error::Error for CoordinateError {}

/// Relative error of a latency prediction: `| predicted − observed | /
/// observed`.
///
/// This is the accuracy metric the paper uses throughout ("we use relative
/// error as the metric of accuracy because it facilitates comparison of a
/// wide range of latencies", §II-A). Observations that are zero or negative
/// (possible with a coarse timer) are clamped to a small positive floor so
/// the ratio stays finite.
///
/// # Examples
///
/// ```
/// let e = nc_vivaldi::relative_error(90.0, 100.0);
/// assert!((e - 0.1).abs() < 1e-12);
/// ```
pub fn relative_error(predicted_ms: f64, observed_ms: f64) -> f64 {
    let observed = observed_ms.max(MIN_LATENCY_MS);
    (predicted_ms - observed).abs() / observed
}

/// Latencies below this floor (milliseconds) are clamped before being used
/// as the denominator of a relative error or inside the update rule. The
/// paper's own measurement software could not resolve latencies much below a
/// tenth of a millisecond.
pub const MIN_LATENCY_MS: f64 = 0.1;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn display_is_nonempty() {
        for e in [
            CoordinateError::Dimension,
            CoordinateError::TooManyDimensions { requested: 99 },
            CoordinateError::NotFinite,
            CoordinateError::NegativeHeight,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn exact_prediction_has_zero_error() {
        assert_eq!(relative_error(80.0, 80.0), 0.0);
    }

    #[test]
    fn overestimate_and_underestimate_are_symmetric() {
        assert_eq!(relative_error(110.0, 100.0), relative_error(90.0, 100.0));
    }

    #[test]
    fn zero_observation_is_clamped() {
        let e = relative_error(1.0, 0.0);
        assert!(e.is_finite());
        assert!(e > 0.0);
    }

    proptest! {
        #[test]
        fn relative_error_is_nonnegative_and_finite(
            predicted in 0.0f64..1e5,
            observed in 0.0f64..1e5,
        ) {
            let e = relative_error(predicted, observed);
            prop_assert!(e >= 0.0);
            prop_assert!(e.is_finite());
        }
    }
}
