//! Tuning parameters for the Vivaldi update rule.

use crate::coordinate::MAX_DIMS;

/// Configuration of a [`crate::VivaldiState`].
///
/// The paper runs Vivaldi in three dimensions with `c_c = c_e = 0.25` (the
/// values of the original authors' p2psim simulator) and, when *confidence
/// building* is enabled, treats a prediction and an observation within 3 ms
/// of each other as equal. Use [`VivaldiConfig::paper_defaults`] for exactly
/// that configuration, or the builder-style setters to deviate from it.
/// The setters store what they are given; [`VivaldiConfig::validate`] is
/// the one place the ranges are checked, and [`crate::VivaldiState::new`]
/// refuses a configuration it rejects.
///
/// # Examples
///
/// ```
/// use nc_vivaldi::VivaldiConfig;
///
/// let config = VivaldiConfig::paper_defaults()
///     .with_dimensions(2)
///     .with_confidence_building(Some(3.0));
/// assert_eq!(config.dimensions(), 2);
/// assert_eq!(config.error_margin_ms(), Some(3.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VivaldiConfig {
    dimensions: usize,
    cc: f64,
    ce: f64,
    error_margin_ms: Option<f64>,
    initial_error_estimate: f64,
    max_observed_latency_ms: f64,
    seed: u64,
}

impl VivaldiConfig {
    /// The configuration used throughout the paper's evaluation: three
    /// dimensions, `c_c = c_e = 0.25`, no height, confidence building
    /// disabled (it is switched on only for the Figure 6 cluster
    /// experiment), initial error estimate of 1.0 (no confidence at all).
    pub fn paper_defaults() -> Self {
        VivaldiConfig {
            dimensions: 3,
            cc: 0.25,
            ce: 0.25,
            error_margin_ms: None,
            initial_error_estimate: 1.0,
            max_observed_latency_ms: 120_000.0,
            seed: 0x5eed_c0de,
        }
    }

    /// Number of Euclidean dimensions of the coordinate space.
    pub fn dimensions(&self) -> usize {
        self.dimensions
    }

    /// The coordinate tuning constant `c_c` (maximum fraction of the spring
    /// displacement applied per observation).
    pub fn cc(&self) -> f64 {
        self.cc
    }

    /// The confidence tuning constant `c_e` (maximum weight a single
    /// observation has on the error estimate).
    pub fn ce(&self) -> f64 {
        self.ce
    }

    /// The measurement-error margin in milliseconds when confidence building
    /// (§IV-B) is enabled, or `None` when disabled.
    pub fn error_margin_ms(&self) -> Option<f64> {
        self.error_margin_ms
    }

    /// Error estimate assigned to a brand-new node (1.0 = completely
    /// unconfident).
    pub fn initial_error_estimate(&self) -> f64 {
        self.initial_error_estimate
    }

    /// Observations above this bound (milliseconds) are rejected outright by
    /// the state machine as implausible (two minutes by default — far above
    /// any real round-trip time, so only guards against corrupt input).
    pub fn max_observed_latency_ms(&self) -> f64 {
        self.max_observed_latency_ms
    }

    /// Seed for the deterministic direction chooser used when two nodes
    /// occupy the same point (e.g. both at the origin during bootstrap).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Checks every parameter against its range.
    ///
    /// # Errors
    ///
    /// Returns the [`VivaldiConfigError`] of the first parameter found out
    /// of range, with its value: dimensions outside `1..=MAX_DIMS`, `c_c`,
    /// `c_e` or the initial error estimate outside `(0, 1]`, or an error
    /// margin or latency bound that is not a positive finite number.
    ///
    /// # Examples
    ///
    /// ```
    /// use nc_vivaldi::{VivaldiConfig, VivaldiConfigError};
    ///
    /// assert_eq!(VivaldiConfig::paper_defaults().validate(), Ok(()));
    /// let config = VivaldiConfig::paper_defaults().with_cc(1.5);
    /// assert_eq!(config.validate(), Err(VivaldiConfigError::CcOutOfRange(1.5)));
    /// ```
    pub fn validate(&self) -> Result<(), VivaldiConfigError> {
        let unit = |value: f64| value > 0.0 && value <= 1.0;
        let positive = |value: f64| value.is_finite() && value > 0.0;
        if !(1..=MAX_DIMS).contains(&self.dimensions) {
            return Err(VivaldiConfigError::Dimensions(self.dimensions));
        }
        if !unit(self.cc) {
            return Err(VivaldiConfigError::CcOutOfRange(self.cc));
        }
        if !unit(self.ce) {
            return Err(VivaldiConfigError::CeOutOfRange(self.ce));
        }
        if let Some(margin) = self.error_margin_ms.filter(|&margin| !positive(margin)) {
            return Err(VivaldiConfigError::ErrorMarginNotPositive(margin));
        }
        if !unit(self.initial_error_estimate) {
            return Err(VivaldiConfigError::InitialErrorOutOfRange(
                self.initial_error_estimate,
            ));
        }
        if !positive(self.max_observed_latency_ms) {
            return Err(VivaldiConfigError::LatencyBoundNotPositive(
                self.max_observed_latency_ms,
            ));
        }
        Ok(())
    }

    /// Sets the number of dimensions. [`VivaldiConfig::validate`] refuses a
    /// count of zero or one above [`crate::coordinate::MAX_DIMS`], the
    /// inline coordinate capacity.
    pub fn with_dimensions(mut self, dimensions: usize) -> Self {
        self.dimensions = dimensions;
        self
    }

    /// Sets the coordinate constant `c_c`. The paper notes values in
    /// `0.05..=0.25` behave similarly; [`VivaldiConfig::validate`] refuses
    /// values outside `(0, 1]`.
    pub fn with_cc(mut self, cc: f64) -> Self {
        self.cc = cc;
        self
    }

    /// Sets the confidence constant `c_e`; [`VivaldiConfig::validate`]
    /// refuses values outside `(0, 1]`.
    pub fn with_ce(mut self, ce: f64) -> Self {
        self.ce = ce;
        self
    }

    /// Enables confidence building with the given measurement-error margin in
    /// milliseconds (the paper uses 3 ms), or disables it with `None`.
    /// [`VivaldiConfig::validate`] refuses a margin that is not a positive
    /// finite number.
    pub fn with_confidence_building(mut self, margin_ms: Option<f64>) -> Self {
        self.error_margin_ms = margin_ms;
        self
    }

    /// Sets the initial error estimate; [`VivaldiConfig::validate`] refuses
    /// values outside `(0, 1]`.
    pub fn with_initial_error_estimate(mut self, estimate: f64) -> Self {
        self.initial_error_estimate = estimate;
        self
    }

    /// Sets the upper bound on plausible observations in milliseconds;
    /// [`VivaldiConfig::validate`] refuses a bound that is not a positive
    /// finite number.
    pub fn with_max_observed_latency_ms(mut self, bound: f64) -> Self {
        self.max_observed_latency_ms = bound;
        self
    }

    /// Sets the seed of the deterministic tie-break direction chooser.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// A parameter of a [`VivaldiConfig`] or an
/// [`OutlierGateConfig`](crate::OutlierGateConfig) out of its range,
/// reported by their `validate` with the offending value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VivaldiConfigError {
    /// The coordinate space has no dimension, or more than [`MAX_DIMS`].
    Dimensions(usize),
    /// `c_c` lies outside `(0, 1]`.
    CcOutOfRange(f64),
    /// `c_e` lies outside `(0, 1]`.
    CeOutOfRange(f64),
    /// The confidence-building margin is not a positive finite number.
    ErrorMarginNotPositive(f64),
    /// The initial error estimate lies outside `(0, 1]`.
    InitialErrorOutOfRange(f64),
    /// The plausibility bound on observations is not a positive finite
    /// number.
    LatencyBoundNotPositive(f64),
    /// The outlier gate's `window` holds fewer than two residuals.
    WindowTooSmall(usize),
    /// The outlier gate's `mad_threshold` is not finite and positive.
    MadThresholdNotPositive(f64),
    /// The outlier gate's `mad_floor_ms` is not finite and non-negative.
    MadFloorOutOfRange(f64),
    /// The outlier gate's `min_remote_error` lies outside `[0, 1]` (or is
    /// not finite).
    MinRemoteErrorOutOfRange(f64),
}

impl std::fmt::Display for VivaldiConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VivaldiConfigError::Dimensions(dimensions) => write!(
                f,
                "coordinate space must have at least one dimension and at most {MAX_DIMS}, got {dimensions}"
            ),
            VivaldiConfigError::CcOutOfRange(cc) => write!(f, "c_c must be in (0, 1], got {cc}"),
            VivaldiConfigError::CeOutOfRange(ce) => write!(f, "c_e must be in (0, 1], got {ce}"),
            VivaldiConfigError::ErrorMarginNotPositive(margin) => write!(
                f,
                "error margin must be positive and finite, got {margin}"
            ),
            VivaldiConfigError::InitialErrorOutOfRange(estimate) => write!(
                f,
                "initial error estimate must be in (0, 1], got {estimate}"
            ),
            VivaldiConfigError::LatencyBoundNotPositive(bound) => write!(
                f,
                "latency bound must be positive and finite, got {bound}"
            ),
            VivaldiConfigError::WindowTooSmall(window) => {
                write!(f, "outlier gate window must be at least 2, got {window}")
            }
            VivaldiConfigError::MadThresholdNotPositive(threshold) => write!(
                f,
                "outlier gate MAD threshold must be finite and positive, got {threshold}"
            ),
            VivaldiConfigError::MadFloorOutOfRange(floor) => write!(
                f,
                "outlier gate MAD floor must be finite and non-negative, got {floor}"
            ),
            VivaldiConfigError::MinRemoteErrorOutOfRange(error) => write!(
                f,
                "outlier gate remote-error floor must lie in [0, 1], got {error}"
            ),
        }
    }
}

impl std::error::Error for VivaldiConfigError {}

impl Default for VivaldiConfig {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VivaldiState;

    #[test]
    fn paper_defaults_match_section_ii() {
        let c = VivaldiConfig::paper_defaults();
        assert_eq!(c.dimensions(), 3);
        assert_eq!(c.cc(), 0.25);
        assert_eq!(c.ce(), 0.25);
        assert_eq!(c.error_margin_ms(), None);
        assert_eq!(c.initial_error_estimate(), 1.0);
    }

    #[test]
    fn default_is_paper_defaults() {
        assert_eq!(VivaldiConfig::default(), VivaldiConfig::paper_defaults());
    }

    #[test]
    fn builder_setters_apply() {
        let c = VivaldiConfig::paper_defaults()
            .with_dimensions(5)
            .with_cc(0.05)
            .with_ce(0.1)
            .with_confidence_building(Some(3.0))
            .with_initial_error_estimate(0.5)
            .with_max_observed_latency_ms(10_000.0)
            .with_seed(7);
        assert_eq!(c.dimensions(), 5);
        assert_eq!(c.cc(), 0.05);
        assert_eq!(c.ce(), 0.1);
        assert_eq!(c.error_margin_ms(), Some(3.0));
        assert_eq!(c.initial_error_estimate(), 0.5);
        assert_eq!(c.max_observed_latency_ms(), 10_000.0);
        assert_eq!(c.seed(), 7);
    }

    #[test]
    #[should_panic(expected = "at least one dimension")]
    fn zero_dimensions_panics() {
        let _ = VivaldiState::new(VivaldiConfig::paper_defaults().with_dimensions(0));
    }

    #[test]
    #[should_panic(expected = "c_c must be in")]
    fn bad_cc_panics() {
        let _ = VivaldiState::new(VivaldiConfig::paper_defaults().with_cc(1.5));
    }

    #[test]
    #[should_panic(expected = "error margin must be positive")]
    fn bad_margin_panics() {
        let _ =
            VivaldiState::new(VivaldiConfig::paper_defaults().with_confidence_building(Some(-1.0)));
    }

    /// The probe values every range is tried at.
    const PROBES: [f64; 8] = [
        0.0,
        1.0,
        2.0,
        0.5,
        -1.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];

    /// Whether `validate` accepts each of [`PROBES`] set by `set`.
    fn accepted(set: fn(VivaldiConfig, f64) -> VivaldiConfig) -> Vec<bool> {
        PROBES
            .iter()
            .map(|&value| {
                set(VivaldiConfig::paper_defaults(), value)
                    .validate()
                    .is_ok()
            })
            .collect()
    }

    #[test]
    fn config_rules_boundary_table() {
        // Columns: 0, 1, 2, 0.5, -1, NaN, +inf, -inf.
        let unit = [false, true, false, true, false, false, false, false];
        let positive = [false, true, true, true, false, false, false, false];
        assert_eq!(accepted(VivaldiConfig::with_cc), unit);
        assert_eq!(accepted(VivaldiConfig::with_ce), unit);
        assert_eq!(accepted(VivaldiConfig::with_initial_error_estimate), unit);
        assert_eq!(
            accepted(|c, v| c.with_confidence_building(Some(v))),
            positive
        );
        assert_eq!(
            accepted(VivaldiConfig::with_max_observed_latency_ms),
            positive
        );
        let dimensions: Vec<bool> = [0, 1, 2, MAX_DIMS, MAX_DIMS + 1]
            .into_iter()
            .map(|d| {
                VivaldiConfig::paper_defaults()
                    .with_dimensions(d)
                    .validate()
                    .is_ok()
            })
            .collect();
        assert_eq!(dimensions, [false, true, true, true, false]);
        assert!(VivaldiConfig::paper_defaults()
            .with_confidence_building(None)
            .validate()
            .is_ok());
        // Each refusal names its parameter and carries the value.
        let config = VivaldiConfig::paper_defaults().with_ce(-1.0);
        assert_eq!(
            config.validate(),
            Err(VivaldiConfigError::CeOutOfRange(-1.0))
        );
        let config = VivaldiConfig::paper_defaults().with_dimensions(0);
        assert_eq!(config.validate(), Err(VivaldiConfigError::Dimensions(0)));
    }

    #[test]
    fn config_rules_panic_with_the_validate_message() {
        let config = VivaldiConfig::paper_defaults().with_initial_error_estimate(2.0);
        let message = config.validate().unwrap_err().to_string();
        let panic = std::panic::catch_unwind(|| VivaldiState::new(config)).unwrap_err();
        let text = panic.downcast_ref::<String>().expect("formatted panic");
        assert!(text.ends_with(&message), "{text}");
    }
}
