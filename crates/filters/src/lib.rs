//! Latency observation filters.
//!
//! In a live deployment a link does not have *one* latency: a node sees a
//! stream of observations for each neighbour that can span three orders of
//! magnitude (paper §III, Figures 2–3). Feeding those raw samples straight
//! into Vivaldi periodically distorts the whole coordinate space. This crate
//! implements the filters the paper evaluates between the measurement layer
//! and the coordinate update:
//!
//! * [`MovingPercentileFilter`] — the paper's recommended non-linear low-pass
//!   filter: keep the last `h` observations per link and output their `p`-th
//!   percentile (`h = 4`, `p = 25` performed best, §IV).
//! * [`EwmaFilter`] — exponentially-weighted moving average baseline
//!   (Table I shows it is *worse* than no filter at all for this workload).
//! * [`ThresholdFilter`] — discard observations above a fixed cut-off, the
//!   stateless baseline the paper tried first (§IV-B "Thresholds").
//! * [`RawFilter`] — identity pass-through (the "No Filter" configuration).
//!
//! All filters implement [`LatencyFilter`]: they consume one raw observation
//! at a time and produce the filtered latency estimate that should be handed
//! to the coordinate algorithm (or `None` when no estimate should be emitted
//! yet). The paper's §VI warm-up fix — withhold a link's estimate until it
//! has delivered a minimum number of samples — is a check on
//! [`LatencyFilter::observations_seen`] made by the engine that keeps the
//! filters, not a filter of its own.
//!
//! # Example
//!
//! ```
//! use nc_filters::{LatencyFilter, MovingPercentileFilter};
//!
//! let mut filter = MovingPercentileFilter::paper_defaults();
//! // A stream with a huge outlier: the filter output stays near the base RTT.
//! let outputs: Vec<f64> = [80.0, 82.0, 4000.0, 81.0, 79.0]
//!     .into_iter()
//!     .filter_map(|raw| filter.observe(raw))
//!     .collect();
//! assert!(outputs.iter().all(|&v| v < 100.0));
//! ```

// Lint policy (missing_docs, broken doc links, clippy set) is centralized
// in the workspace manifest: [workspace.lints] + `lints.workspace = true`.

pub mod ewma;
pub mod moving_percentile;
pub mod raw;
pub mod threshold;

pub use ewma::EwmaFilter;
pub use moving_percentile::MovingPercentileFilter;
pub use raw::RawFilter;
pub use threshold::ThresholdFilter;

/// Whether `rtt_ms` is a sample a filter accepts: finite and positive.
/// Anything else is refused by [`LatencyFilter::observe`] and, inside
/// imported state, by [`LatencyFilter::import_state`].
pub(crate) fn is_valid_sample(rtt_ms: f64) -> bool {
    rtt_ms.is_finite() && rtt_ms > 0.0
}

/// The serializable runtime state of a per-link filter.
///
/// Filters are small state machines; this enum captures exactly the fields
/// that evolve at run time (window contents, counters), not the
/// configuration (history size, percentile, cut-off), which is supplied
/// separately when a filter is rebuilt. Used by snapshot/restore: a filter
/// exports its state with [`LatencyFilter::export_state`] and a freshly
/// configured filter re-adopts it with [`LatencyFilter::import_state`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum FilterState {
    /// State of a [`RawFilter`].
    Raw {
        /// The last valid observation, if any.
        last: Option<f64>,
        /// Number of valid observations consumed.
        seen: u64,
    },
    /// State of a [`MovingPercentileFilter`].
    MovingPercentile {
        /// The sliding observation window, oldest first.
        window: Vec<f64>,
        /// Number of valid observations consumed.
        seen: u64,
    },
    /// State of an [`EwmaFilter`].
    Ewma {
        /// The current smoothed estimate, if initialised.
        value: Option<f64>,
        /// Number of valid observations consumed.
        seen: u64,
    },
    /// State of a [`ThresholdFilter`].
    Threshold {
        /// The last observation that passed the cut-off.
        last_passed: Option<f64>,
        /// Number of valid observations consumed.
        seen: u64,
        /// Number of observations discarded by the cut-off.
        discarded: u64,
    },
}

impl FilterState {
    /// The filter family this state belongs to, for error messages.
    pub fn family(&self) -> &'static str {
        match self {
            FilterState::Raw { .. } => "raw",
            FilterState::MovingPercentile { .. } => "moving-percentile",
            FilterState::Ewma { .. } => "ewma",
            FilterState::Threshold { .. } => "threshold",
        }
    }

    /// Checks that every sample the state holds is one
    /// [`LatencyFilter::observe`] would have accepted. A state off the wire
    /// can carry anything; restored, a negative or NaN sample would come
    /// back out as the link's estimate.
    pub(crate) fn check_samples(&self) -> Result<(), StateMismatch> {
        let samples: &[f64] = match self {
            FilterState::Raw { last, .. } => last.as_slice(),
            FilterState::MovingPercentile { window, .. } => window,
            FilterState::Ewma { value, .. } => value.as_slice(),
            FilterState::Threshold { last_passed, .. } => last_passed.as_slice(),
        };
        match samples.iter().find(|&&sample| !is_valid_sample(sample)) {
            Some(&value) => Err(StateMismatch::Sample {
                family: self.family(),
                value,
            }),
            None => Ok(()),
        }
    }
}

/// Error returned when a filter refuses to adopt exported state.
///
/// # Examples
///
/// ```
/// use nc_filters::{FilterState, LatencyFilter, MovingPercentileFilter, RawFilter, StateMismatch};
///
/// let mut filter = MovingPercentileFilter::paper_defaults();
/// let foreign = RawFilter::new().export_state();
/// assert!(matches!(
///     filter.import_state(&foreign),
///     Err(StateMismatch::Family { found: "raw", .. })
/// ));
/// // Restored, this window would report a filtered RTT of -50 ms.
/// let hostile = FilterState::MovingPercentile { window: vec![-50.0], seen: 1 };
/// assert!(matches!(
///     filter.import_state(&hostile),
///     Err(StateMismatch::Sample { value, .. }) if value == -50.0
/// ));
/// assert_eq!(filter.observations_seen(), 0, "the filter is left unchanged");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum StateMismatch {
    /// The state was exported by a filter of a different family.
    Family {
        /// The family of the filter doing the importing.
        expected: &'static str,
        /// The family the state was exported from.
        found: &'static str,
    },
    /// The state holds a sample `observe` refuses: NaN, infinite, zero or
    /// negative.
    Sample {
        /// The family of the state.
        family: &'static str,
        /// The first such sample.
        value: f64,
    },
}

impl std::fmt::Display for StateMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateMismatch::Family { expected, found } => {
                write!(f, "cannot restore a {expected} filter from {found} state")
            }
            StateMismatch::Sample { family, value } => {
                write!(f, "{family} filter state holds the invalid sample {value}")
            }
        }
    }
}

impl std::error::Error for StateMismatch {}

/// A per-link latency filter.
///
/// A filter receives the raw observation stream of **one** link and emits the
/// latency estimate the coordinate algorithm should use. Implementations are
/// deliberately small state machines; a node keeps one filter instance per
/// neighbour.
pub trait LatencyFilter {
    /// Feeds one raw observation (milliseconds) and returns the filtered
    /// estimate to use, or `None` when the filter chooses to suppress output
    /// for this observation (e.g. during warm-up or when a threshold filter
    /// discards an outlier).
    ///
    /// Non-finite or non-positive observations are ignored and produce
    /// `None`.
    fn observe(&mut self, raw_rtt_ms: f64) -> Option<f64>;

    /// The filter's current estimate without feeding a new observation, if it
    /// has one.
    fn current_estimate(&self) -> Option<f64>;

    /// Number of raw observations consumed so far (including discarded ones,
    /// excluding invalid ones).
    fn observations_seen(&self) -> u64;

    /// Exports the filter's runtime state for persistence.
    fn export_state(&self) -> FilterState;

    /// Adopts runtime state previously produced by
    /// [`export_state`](LatencyFilter::export_state) on a filter of the same
    /// family.
    ///
    /// # Errors
    ///
    /// Returns [`StateMismatch`] when `state` was exported by a different
    /// filter family or holds a sample [`observe`](LatencyFilter::observe)
    /// would refuse; the filter is left unchanged in that case.
    fn import_state(&mut self, state: &FilterState) -> Result<(), StateMismatch>;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feeds a stream with an outlier to a filter from `fresh`, restores its
    /// state into a second one and checks that both continue identically.
    fn round_trips<F: LatencyFilter>(fresh: impl Fn() -> F) {
        let mut original = fresh();
        for raw in [80.0, 90.0, 4_000.0, 85.0, 82.0] {
            original.observe(raw);
        }
        let state = original.export_state();
        let mut restored = fresh();
        restored.import_state(&state).expect("same family restores");
        let family = state.family();
        assert_eq!(
            restored.current_estimate(),
            original.current_estimate(),
            "{family}"
        );
        assert_eq!(restored.observations_seen(), original.observations_seen());
        assert_eq!(restored.observe(88.0), original.observe(88.0), "{family}");
        assert_eq!(restored.export_state(), original.export_state(), "{family}");
    }

    #[test]
    fn filters_are_object_safe_and_send() {
        fn assert_send<T: Send>() {}
        assert_send::<RawFilter>();
        assert_send::<MovingPercentileFilter>();
        assert_send::<EwmaFilter>();
        assert_send::<ThresholdFilter>();
        let f: &dyn LatencyFilter = &RawFilter::new();
        assert_eq!(f.observations_seen(), 0);
    }

    #[test]
    fn state_round_trips_through_a_fresh_filter() {
        round_trips(RawFilter::new);
        round_trips(MovingPercentileFilter::paper_defaults);
        round_trips(|| MovingPercentileFilter::new(4, 50.0).unwrap());
        round_trips(|| EwmaFilter::new(0.1).unwrap());
        round_trips(|| ThresholdFilter::new(1_000.0).unwrap());
    }

    #[test]
    fn importing_foreign_state_is_rejected() {
        let mut ewma = EwmaFilter::new(0.1).unwrap();
        let raw_state = RawFilter::new().export_state();
        let err = ewma.import_state(&raw_state).unwrap_err();
        assert_eq!(
            err,
            StateMismatch::Family {
                expected: "ewma",
                found: "raw"
            }
        );
        assert!(!err.to_string().is_empty());
    }

    /// Imports `state` into `filter` and checks that it is refused for
    /// holding `value` and that the filter did not change.
    fn refuses<F: LatencyFilter>(mut filter: F, state: FilterState, value: f64) {
        filter.observe(40.0);
        let before = filter.export_state();
        let err = filter.import_state(&state).unwrap_err();
        match err {
            StateMismatch::Sample {
                family,
                value: found,
            } => {
                assert_eq!(family, state.family());
                assert_eq!(found.to_bits(), value.to_bits(), "{state:?}");
            }
            other => panic!("{state:?} refused as {other}"),
        }
        assert_eq!(filter.export_state(), before, "{state:?}");
    }

    #[test]
    fn importing_a_sample_observe_refuses_is_rejected() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, -50.0] {
            let some = Some(bad);
            refuses(
                RawFilter::new(),
                FilterState::Raw {
                    last: some,
                    seen: 1,
                },
                bad,
            );
            refuses(
                MovingPercentileFilter::paper_defaults(),
                FilterState::MovingPercentile {
                    window: vec![80.0, bad, 81.0],
                    seen: 3,
                },
                bad,
            );
            refuses(
                EwmaFilter::new(0.1).unwrap(),
                FilterState::Ewma {
                    value: some,
                    seen: 1,
                },
                bad,
            );
            refuses(
                ThresholdFilter::new(1_000.0).unwrap(),
                FilterState::Threshold {
                    last_passed: some,
                    seen: 1,
                    discarded: 0,
                },
                bad,
            );
        }
    }
}
