//! Identity pass-through — the "No Filter" configuration.

use crate::{is_valid_sample, FilterState, LatencyFilter, StateMismatch};

/// Passes every valid observation straight through. This is the
/// configuration the paper calls "No Filter" / "Raw": the original Vivaldi
/// behaviour of feeding raw samples directly into the update rule.
///
/// # Examples
///
/// ```
/// use nc_filters::{LatencyFilter, RawFilter};
///
/// let mut f = RawFilter::new();
/// assert_eq!(f.observe(123.4), Some(123.4));
/// ```
#[derive(Debug, Clone, Default)]
pub struct RawFilter {
    last: Option<f64>,
    seen: u64,
}

impl RawFilter {
    /// Creates the pass-through filter.
    pub fn new() -> Self {
        RawFilter::default()
    }
}

impl LatencyFilter for RawFilter {
    fn observe(&mut self, raw_rtt_ms: f64) -> Option<f64> {
        if !is_valid_sample(raw_rtt_ms) {
            return None;
        }
        self.seen += 1;
        self.last = Some(raw_rtt_ms);
        Some(raw_rtt_ms)
    }

    fn current_estimate(&self) -> Option<f64> {
        self.last
    }

    fn observations_seen(&self) -> u64 {
        self.seen
    }

    fn export_state(&self) -> FilterState {
        FilterState::Raw {
            last: self.last,
            seen: self.seen,
        }
    }

    fn import_state(&mut self, state: &FilterState) -> Result<(), StateMismatch> {
        match state {
            FilterState::Raw { last, seen } => {
                state.check_samples()?;
                self.last = *last;
                self.seen = *seen;
                Ok(())
            }
            other => Err(StateMismatch::Family {
                expected: "raw",
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
    fn passes_values_through() {
        let mut f = RawFilter::new();
        for v in [1.0, 10_000.0, 0.5] {
            assert_eq!(f.observe(v), Some(v));
        }
        assert_eq!(f.observations_seen(), 3);
        assert_eq!(f.current_estimate(), Some(0.5));
    }

    #[test]
    fn rejects_invalid_values() {
        let mut f = RawFilter::new();
        assert_eq!(f.observe(f64::NAN), None);
        assert_eq!(f.observe(0.0), None);
        assert_eq!(f.observe(-1.0), None);
        assert_eq!(f.observations_seen(), 0);
    }

    proptest! {
        #[test]
        fn identity_on_valid_input(v in 0.0001f64..1e6) {
            let mut f = RawFilter::new();
            prop_assert_eq!(f.observe(v), Some(v));
        }
    }
}
