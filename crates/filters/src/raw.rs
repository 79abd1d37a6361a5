//! Identity pass-through — the "No Filter" configuration.

use crate::{is_valid_sample, Filter, FilterState, LinkFilter, StateMismatch};

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
pub type RawFilter = Filter<RawLink>;

/// The per-link state of a [`RawFilter`]: the last valid sample and the
/// count of valid samples. The family has no parameters.
#[derive(Debug, Clone, Default)]
pub struct RawLink {
    last: Option<f64>,
    seen: u64,
}

impl RawFilter {
    /// Creates the pass-through filter.
    pub fn new() -> Self {
        RawFilter::default()
    }
}

impl LinkFilter for RawLink {
    type Params = ();

    fn fresh(_: &()) -> Self {
        RawLink::default()
    }

    fn observe(&mut self, _: &(), raw_rtt_ms: f64) -> Option<f64> {
        if !is_valid_sample(raw_rtt_ms) {
            return None;
        }
        self.seen += 1;
        self.last = Some(raw_rtt_ms);
        Some(raw_rtt_ms)
    }

    fn estimate(&self, _: &()) -> Option<f64> {
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

    fn import_state(&mut self, _: &(), state: &FilterState) -> Result<(), StateMismatch> {
        let FilterState::Raw { last, seen } = *state else {
            return Err(state.foreign("raw"));
        };
        self.last = last;
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
