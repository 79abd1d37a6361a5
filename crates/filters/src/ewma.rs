//! Exponentially-weighted moving average filter (evaluated baseline).
//!
//! The EWMA is the conventional way to smooth jittery measurements:
//! `v_{t+1} = α·s + (1−α)·v_t`. The paper's Table I shows that for
//! heavy-tailed latency streams it performs *worse than no filter at all* —
//! the huge outliers are not a trend to be tracked but noise to be discarded,
//! and even a small `α` lets them drag the estimate far from the true
//! latency for a long time. It is implemented here as the baseline the
//! experiments compare against.

use crate::{
    is_valid_sample, Filter, FilterConfig, FilterConfigError, FilterState, LinkFilter,
    StateMismatch,
};

/// Exponentially-weighted moving average of raw observations.
///
/// # Examples
///
/// ```
/// use nc_filters::{EwmaFilter, LatencyFilter};
///
/// let mut f = EwmaFilter::new(0.1).unwrap();
/// f.observe(100.0);
/// let after_outlier = f.observe(10_000.0).unwrap();
/// assert!(after_outlier > 1_000.0, "the EWMA lets the outlier through: {after_outlier}");
/// ```
pub type EwmaFilter = Filter<EwmaLink>;

/// The per-link state of an [`EwmaFilter`]: the running average and the
/// count of valid samples. The family's parameter, the smoothing factor
/// `α ∈ (0, 1]`, is held outside.
#[derive(Debug, Clone)]
pub struct EwmaLink {
    value: Option<f64>,
    seen: u64,
}

impl EwmaFilter {
    /// Creates an EWMA filter with smoothing factor `alpha ∈ (0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns the [`FilterConfigError`] that [`FilterConfig::validate`]
    /// reports when `alpha` is outside `(0, 1]`.
    pub fn new(alpha: f64) -> Result<Self, FilterConfigError> {
        Filter::checked(FilterConfig::Ewma { alpha }, alpha)
    }
}

/// The parameter is `α`.
impl LinkFilter for EwmaLink {
    type Params = f64;

    fn fresh(_: &f64) -> Self {
        EwmaLink {
            value: None,
            seen: 0,
        }
    }

    fn observe(&mut self, &alpha: &f64, raw_rtt_ms: f64) -> Option<f64> {
        if !is_valid_sample(raw_rtt_ms) {
            return None;
        }
        self.seen += 1;
        let next = match self.value {
            None => raw_rtt_ms,
            Some(v) => alpha * raw_rtt_ms + (1.0 - alpha) * v,
        };
        self.value = Some(next);
        Some(next)
    }

    fn estimate(&self, _: &f64) -> Option<f64> {
        self.value
    }

    fn observations_seen(&self) -> u64 {
        self.seen
    }

    fn export_state(&self) -> FilterState {
        FilterState::Ewma {
            value: self.value,
            seen: self.seen,
        }
    }

    fn import_state(&mut self, _: &f64, state: &FilterState) -> Result<(), StateMismatch> {
        let FilterState::Ewma { value, seen } = *state else {
            return Err(state.foreign("ewma"));
        };
        self.value = value;
        self.seen = seen;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LatencyFilter;
    use proptest::prelude::*;

    #[test]
    fn rejects_invalid_alpha() {
        assert!(EwmaFilter::new(0.0).is_err());
        assert!(EwmaFilter::new(-0.5).is_err());
        assert!(EwmaFilter::new(1.5).is_err());
        assert!(EwmaFilter::new(f64::NAN).is_err());
        assert!(EwmaFilter::new(1.0).is_ok());
    }

    #[test]
    fn first_observation_initializes_value() {
        let mut f = EwmaFilter::new(0.2).unwrap();
        assert_eq!(f.observe(50.0), Some(50.0));
    }

    #[test]
    fn matches_recurrence() {
        let alpha = 0.25;
        let mut f = EwmaFilter::new(alpha).unwrap();
        let inputs = [10.0, 20.0, 30.0, 40.0];
        let mut expected = inputs[0];
        assert_eq!(f.observe(inputs[0]), Some(expected));
        for &s in &inputs[1..] {
            expected = alpha * s + (1.0 - alpha) * expected;
            let got = f.observe(s).unwrap();
            assert!((got - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn outliers_contaminate_the_estimate() {
        // The failure mode Table I documents: after one 10-second outlier the
        // EWMA overestimates an 80 ms link for many samples.
        let mut f = EwmaFilter::new(0.1).unwrap();
        for _ in 0..20 {
            f.observe(80.0);
        }
        f.observe(10_000.0);
        let next = f.observe(80.0).unwrap();
        assert!(next > 800.0, "estimate should be contaminated, got {next}");
    }

    #[test]
    fn alpha_one_tracks_input_exactly() {
        let mut f = EwmaFilter::new(1.0).unwrap();
        for v in [10.0, 500.0, 3.0] {
            assert_eq!(f.observe(v), Some(v));
        }
    }

    #[test]
    fn ignores_invalid_input() {
        let mut f = EwmaFilter::new(0.5).unwrap();
        assert_eq!(f.observe(f64::INFINITY), None);
        assert_eq!(f.observe(-2.0), None);
        assert_eq!(f.current_estimate(), None);
        assert_eq!(f.observations_seen(), 0);
        assert_eq!(f.observe(10.0), Some(10.0));
    }

    proptest! {
        #[test]
        fn estimate_stays_within_input_range(
            values in proptest::collection::vec(0.1f64..1e5, 1..200),
            alpha in 0.01f64..=1.0,
        ) {
            let mut f = EwmaFilter::new(alpha).unwrap();
            let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            for &v in &values {
                let e = f.observe(v).unwrap();
                prop_assert!(e >= min - 1e-9 && e <= max + 1e-9);
            }
        }
    }
}
