//! Fixed-threshold filter (evaluated baseline).
//!
//! The simplest conceivable defence against heavy tails: discard every
//! observation above a fixed cut-off and pass the rest through unchanged.
//! The paper tried this first (§IV-B "Thresholds") and found it wanting —
//! each link has its *own* tail, so a global cut-off that removes the worst
//! outliers of trans-continental links does nothing for a 20 ms link whose
//! outliers are 500 ms.

use crate::moving_percentile::InvalidFilterParameter;
use crate::{is_valid_sample, FilterState, LatencyFilter, StateMismatch};

/// Pass-through filter that drops observations above a fixed cut-off.
///
/// # Examples
///
/// ```
/// use nc_filters::{LatencyFilter, ThresholdFilter};
///
/// let mut f = ThresholdFilter::new(1000.0).unwrap();
/// assert_eq!(f.observe(80.0), Some(80.0));
/// assert_eq!(f.observe(5000.0), None); // discarded
/// ```
#[derive(Debug, Clone)]
pub struct ThresholdFilter {
    cutoff_ms: f64,
    last_passed: Option<f64>,
    seen: u64,
    discarded: u64,
}

impl ThresholdFilter {
    /// Creates a filter that discards observations above `cutoff_ms`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidFilterParameter`] when the cut-off is not a positive
    /// finite number.
    pub fn new(cutoff_ms: f64) -> Result<Self, InvalidFilterParameter> {
        if !cutoff_ms.is_finite() || cutoff_ms <= 0.0 {
            return Err(InvalidFilterParameter("cutoff must be positive"));
        }
        Ok(ThresholdFilter {
            cutoff_ms,
            last_passed: None,
            seen: 0,
            discarded: 0,
        })
    }

    /// The configured cut-off in milliseconds.
    pub fn cutoff_ms(&self) -> f64 {
        self.cutoff_ms
    }

    /// Number of observations discarded so far.
    pub fn discarded(&self) -> u64 {
        self.discarded
    }
}

impl LatencyFilter for ThresholdFilter {
    fn observe(&mut self, raw_rtt_ms: f64) -> Option<f64> {
        if !is_valid_sample(raw_rtt_ms) {
            return None;
        }
        self.seen += 1;
        if raw_rtt_ms > self.cutoff_ms {
            self.discarded += 1;
            return None;
        }
        self.last_passed = Some(raw_rtt_ms);
        Some(raw_rtt_ms)
    }

    fn current_estimate(&self) -> Option<f64> {
        self.last_passed
    }

    fn observations_seen(&self) -> u64 {
        self.seen
    }

    fn export_state(&self) -> FilterState {
        FilterState::Threshold {
            last_passed: self.last_passed,
            seen: self.seen,
            discarded: self.discarded,
        }
    }

    fn import_state(&mut self, state: &FilterState) -> Result<(), StateMismatch> {
        match state {
            FilterState::Threshold {
                last_passed,
                seen,
                discarded,
            } => {
                state.check_samples()?;
                self.last_passed = *last_passed;
                self.seen = *seen;
                self.discarded = *discarded;
                Ok(())
            }
            other => Err(StateMismatch::Family {
                expected: "threshold",
                found: other.family(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rejects_invalid_cutoff() {
        assert!(ThresholdFilter::new(0.0).is_err());
        assert!(ThresholdFilter::new(-10.0).is_err());
        assert!(ThresholdFilter::new(f64::NAN).is_err());
    }

    #[test]
    fn passes_below_and_drops_above() {
        let mut f = ThresholdFilter::new(100.0).unwrap();
        assert_eq!(f.observe(99.0), Some(99.0));
        assert_eq!(f.observe(100.0), Some(100.0));
        assert_eq!(f.observe(100.1), None);
        assert_eq!(f.discarded(), 1);
        assert_eq!(f.observations_seen(), 3);
        assert_eq!(f.current_estimate(), Some(100.0));
    }

    #[test]
    fn per_link_tails_slip_under_a_global_cutoff() {
        // The paper's complaint: a cut-off tuned for the global distribution
        // (say 1 s) passes 500 ms outliers on a 20 ms link untouched.
        let mut f = ThresholdFilter::new(1000.0).unwrap();
        assert_eq!(f.observe(20.0), Some(20.0));
        assert_eq!(f.observe(500.0), Some(500.0));
    }

    proptest! {
        #[test]
        fn output_never_exceeds_cutoff(
            values in proptest::collection::vec(0.1f64..1e5, 0..200),
            cutoff in 1.0f64..1e4,
        ) {
            let mut f = ThresholdFilter::new(cutoff).unwrap();
            for &v in &values {
                if let Some(out) = f.observe(v) {
                    prop_assert!(out <= cutoff);
                    prop_assert_eq!(out, v);
                }
            }
        }
    }
}
