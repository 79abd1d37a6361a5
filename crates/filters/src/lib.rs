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
//! Each family is written once, against one contract: [`LinkFilter`], the
//! state of one link with the family's parameters held outside it and
//! passed to every call. [`MovingPercentileWindow`], [`EwmaLink`],
//! [`ThresholdLink`] and [`RawLink`] are those states. A holder of many
//! links filtered alike — a node's link store — keeps the parameters once
//! beside bare states; a holder of one link keeps a [`Filter`], the
//! parameters beside one state, and the four filters above are its four
//! instances.
//!
//! [`FilterConfig`] names one family with its parameters, and its
//! [`validate`](FilterConfig::validate) is the one place those parameters
//! are checked: each constructor refuses what it refuses, with the same
//! [`FilterConfigError`].
//!
//! Every [`Filter`] implements [`LatencyFilter`]: it consumes one raw
//! observation at a time and produces the filtered latency estimate that
//! should be handed to the coordinate algorithm (or `None` when no estimate
//! should be emitted yet). The paper's §VI warm-up fix — withhold a link's
//! estimate until it has delivered a minimum number of samples — is a check
//! on [`LatencyFilter::observations_seen`] made by the engine that keeps the
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

pub mod config;
pub mod ewma;
pub mod moving_percentile;
pub mod raw;
pub mod threshold;

pub use config::{FilterConfig, FilterConfigError};
pub use ewma::{EwmaFilter, EwmaLink};
pub use moving_percentile::{MovingPercentileFilter, MovingPercentileWindow};
pub use raw::{RawFilter, RawLink};
pub use threshold::{ThresholdFilter, ThresholdLink};

/// Whether `rtt_ms` is a sample a filter accepts: finite and positive.
/// Anything else is refused by [`LinkFilter::observe`] and, inside
/// exported state, by [`FilterState::validate`].
pub(crate) fn is_valid_sample(rtt_ms: f64) -> bool {
    rtt_ms.is_finite() && rtt_ms > 0.0
}

/// The runtime state of a per-link filter.
///
/// Filters are small state machines; this enum captures exactly the fields
/// that evolve at run time (window contents, counters), not the
/// configuration (history size, percentile, cut-off), which is supplied
/// separately when a filter is rebuilt. Used by snapshot/restore: a link
/// exports its state with [`LinkFilter::export_state`] and a fresh link of
/// the same family re-adopts it with [`LinkFilter::import_state`], once
/// [`validate`](FilterState::validate) accepts it.
#[derive(Debug, Clone, PartialEq)]
pub enum FilterState {
    /// State of a [`RawLink`].
    Raw {
        /// The last valid observation, if any.
        last: Option<f64>,
        /// Number of valid observations consumed.
        seen: u64,
    },
    /// State of a [`MovingPercentileWindow`].
    MovingPercentile {
        /// The sliding observation window, oldest first.
        window: Vec<f64>,
        /// Number of valid observations consumed.
        seen: u64,
    },
    /// State of an [`EwmaLink`].
    Ewma {
        /// The current smoothed estimate, if initialised.
        value: Option<f64>,
        /// Number of valid observations consumed.
        seen: u64,
    },
    /// State of a [`ThresholdLink`].
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

    /// The error of a link of the `expected` family importing this state.
    pub(crate) fn foreign(&self, expected: &'static str) -> StateMismatch {
        let found = self.family();
        StateMismatch::Family { expected, found }
    }

    /// Checks the rules every exported state satisfies: each sample held is
    /// one [`LinkFilter::observe`] accepts, and at least as many passed
    /// (`seen`, less a threshold's `discarded ≤ seen`) as are held.
    ///
    /// # Errors
    ///
    /// [`StateMismatch::Sample`] for the first invalid sample, else
    /// [`StateMismatch::Counters`].
    pub fn validate(&self) -> Result<(), StateMismatch> {
        let (samples, seen, discarded): (&[f64], u64, u64) = match self {
            FilterState::Raw { last, seen } => (last.as_slice(), *seen, 0),
            FilterState::MovingPercentile { window, seen } => (window, *seen, 0),
            FilterState::Ewma { value, seen } => (value.as_slice(), *seen, 0),
            FilterState::Threshold {
                last_passed,
                seen,
                discarded,
            } => (last_passed.as_slice(), *seen, *discarded),
        };
        let family = self.family();
        if let Some(&value) = samples.iter().find(|&&sample| !is_valid_sample(sample)) {
            return Err(StateMismatch::Sample { family, value });
        }
        match seen.checked_sub(discarded) {
            Some(passed) if passed >= samples.len() as u64 => Ok(()),
            _ => Err(StateMismatch::Counters { family, seen }),
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
    /// The state discarded more samples than it saw, or holds more than
    /// passed.
    Counters {
        /// The family of the state.
        family: &'static str,
        /// The state's count of valid samples seen.
        seen: u64,
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
            StateMismatch::Counters { family, seen } => {
                write!(f, "{family} filter state's counters conflict ({seen} seen)")
            }
        }
    }
}

impl std::error::Error for StateMismatch {}

/// A per-link latency filter.
///
/// A filter receives the raw observation stream of **one** link and emits the
/// latency estimate the coordinate algorithm should use. Its one
/// implementation is [`Filter`], a family's parameters beside one link's
/// [`LinkFilter`] state.
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
    /// filter family or [`FilterState::validate`] refuses it; the filter is
    /// left unchanged in that case.
    fn import_state(&mut self, state: &FilterState) -> Result<(), StateMismatch>;
}

/// One link's state of a filter family, with the family's parameters held
/// outside it — the one contract every family is written against.
///
/// `Self` is what evolves as the link's samples arrive (a window, a running
/// average, a last sample and counters); [`Params`](LinkFilter::Params) is
/// what every link filtered alike shares (the moving percentile's `h` and
/// `p`, the EWMA's `α`, the threshold's cut-off) and is passed to each call.
/// A holder of many links keeps the parameters once beside bare states; a
/// [`Filter`] keeps them beside one. The parameters must be ones
/// [`FilterConfig::validate`] accepts, and a state must always be passed the
/// parameters it was made [`fresh`](LinkFilter::fresh) with.
///
/// # Examples
///
/// ```
/// use nc_filters::{EwmaLink, LinkFilter};
///
/// let alpha = 0.5;
/// let mut links = [EwmaLink::fresh(&alpha), EwmaLink::fresh(&alpha)];
/// links[0].observe(&alpha, 10.0);
/// assert_eq!(links[0].observe(&alpha, 20.0), Some(15.0));
/// assert_eq!(links[1].estimate(&alpha), None);
/// ```
pub trait LinkFilter: Sized {
    /// What every link of the family shares.
    type Params;

    /// The state of a link with no observation yet.
    fn fresh(params: &Self::Params) -> Self;

    /// Feeds one raw observation, as [`LatencyFilter::observe`].
    fn observe(&mut self, params: &Self::Params, raw_rtt_ms: f64) -> Option<f64>;

    /// The current estimate, as [`LatencyFilter::current_estimate`].
    fn estimate(&self, params: &Self::Params) -> Option<f64>;

    /// Valid observations consumed, as [`LatencyFilter::observations_seen`].
    fn observations_seen(&self) -> u64;

    /// The link's runtime state, as [`LatencyFilter::export_state`].
    fn export_state(&self) -> FilterState;

    /// Adopts exported state that [`FilterState::validate`] accepted,
    /// checking only its family.
    ///
    /// # Errors
    ///
    /// [`StateMismatch::Family`] for another family's state, leaving the
    /// link unchanged.
    fn import_state(
        &mut self,
        params: &Self::Params,
        state: &FilterState,
    ) -> Result<(), StateMismatch>;
}

/// A standalone filter: a family's parameters beside one link's state.
///
/// [`MovingPercentileFilter`], [`EwmaFilter`], [`ThresholdFilter`] and
/// [`RawFilter`] are its instances, each built by a constructor that checks
/// its parameters through [`FilterConfig::validate`].
#[derive(Debug, Clone, Default)]
pub struct Filter<L: LinkFilter> {
    params: L::Params,
    link: L,
}

impl<L: LinkFilter> Filter<L> {
    /// A filter with no observation yet, once `config` — the same family
    /// and parameters as `params` — passes [`FilterConfig::validate`].
    fn checked(config: FilterConfig, params: L::Params) -> Result<Self, FilterConfigError> {
        config.validate()?;
        let link = L::fresh(&params);
        Ok(Filter { params, link })
    }
}

impl<L: LinkFilter> LatencyFilter for Filter<L> {
    fn observe(&mut self, raw_rtt_ms: f64) -> Option<f64> {
        self.link.observe(&self.params, raw_rtt_ms)
    }

    fn current_estimate(&self) -> Option<f64> {
        self.link.estimate(&self.params)
    }

    fn observations_seen(&self) -> u64 {
        self.link.observations_seen()
    }

    fn export_state(&self) -> FilterState {
        self.link.export_state()
    }

    fn import_state(&mut self, state: &FilterState) -> Result<(), StateMismatch> {
        state.validate()?;
        self.link.import_state(&self.params, state)
    }
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

    #[test]
    fn importing_counters_that_contradict_the_samples_is_rejected() {
        let mp = MovingPercentileFilter::paper_defaults;
        let threshold = || ThresholdFilter::new(1_000.0).unwrap();
        let contradictions: [(Box<dyn LatencyFilter>, FilterState); 6] = [
            // Three samples held, none counted: restored, a cold link.
            (
                Box::new(mp()),
                FilterState::MovingPercentile {
                    window: vec![5.0, 6.0, 7.0],
                    seen: 0,
                },
            ),
            (
                Box::new(mp()),
                FilterState::MovingPercentile {
                    window: vec![5.0, 6.0, 7.0],
                    seen: 2,
                },
            ),
            // Seven discarded of one seen.
            (
                Box::new(threshold()),
                FilterState::Threshold {
                    last_passed: Some(80.0),
                    seen: 1,
                    discarded: 7,
                },
            ),
            (
                Box::new(threshold()),
                FilterState::Threshold {
                    last_passed: None,
                    seen: 1,
                    discarded: 2,
                },
            ),
            // A sample passed, though every sample seen was discarded.
            (
                Box::new(threshold()),
                FilterState::Threshold {
                    last_passed: Some(80.0),
                    seen: 3,
                    discarded: 3,
                },
            ),
            (
                Box::new(EwmaFilter::new(0.1).unwrap()),
                FilterState::Ewma {
                    value: Some(80.0),
                    seen: 0,
                },
            ),
        ];
        for (mut filter, state) in contradictions {
            filter.observe(40.0);
            let before = filter.export_state();
            let err = filter.import_state(&state).unwrap_err();
            assert!(
                matches!(err, StateMismatch::Counters { family, .. } if family == state.family()),
                "{state:?} refused as {err}"
            );
            assert!(!err.to_string().is_empty());
            assert_eq!(filter.export_state(), before, "{state:?}");
        }
        let raw = FilterState::Raw {
            last: Some(80.0),
            seen: 0,
        };
        assert!(matches!(
            RawFilter::new().import_state(&raw),
            Err(StateMismatch::Counters {
                family: "raw",
                seen: 0
            })
        ));
        // The edges every exporter reaches are accepted.
        for state in [
            FilterState::Raw {
                last: None,
                seen: 0,
            },
            FilterState::MovingPercentile {
                window: vec![5.0, 6.0, 7.0],
                seen: 3,
            },
            FilterState::Threshold {
                last_passed: None,
                seen: 3,
                discarded: 3,
            },
            FilterState::Threshold {
                last_passed: Some(80.0),
                seen: 4,
                discarded: 3,
            },
        ] {
            assert_eq!(state.validate(), Ok(()), "{state:?}");
        }
    }

    /// Maps a random word onto an observation: ordinary latencies, values
    /// above any cut-off drawn below, and samples `observe` refuses.
    fn observation(word: u64) -> f64 {
        match word % 8 {
            0 => f64::NAN,
            1 => -((word >> 8) as f64),
            2 => 0.0,
            3 => 1e6 + (word >> 8) as f64,
            _ => 0.1 + ((word >> 8) % 5_000) as f64,
        }
    }

    proptest::proptest! {
        /// `validate` is not stricter than the filters: every state any
        /// family exports, after any observation sequence, passes it.
        #[test]
        fn every_exported_state_passes_validate(
            words in proptest::collection::vec(0u64..u64::MAX, 0..64),
            history in 1usize..8,
            percentile in 0.0f64..=100.0,
            alpha in 0.01f64..=1.0,
            cutoff_ms in 1.0f64..2_000.0,
        ) {
            let mut filters: [Box<dyn LatencyFilter>; 4] = [
                Box::new(RawFilter::new()),
                Box::new(MovingPercentileFilter::new(history, percentile).unwrap()),
                Box::new(EwmaFilter::new(alpha).unwrap()),
                Box::new(ThresholdFilter::new(cutoff_ms).unwrap()),
            ];
            for filter in &mut filters {
                proptest::prop_assert_eq!(filter.export_state().validate(), Ok(()));
                for &word in &words {
                    filter.observe(observation(word));
                    let state = filter.export_state();
                    proptest::prop_assert_eq!(state.validate(), Ok(()), "{:?}", state);
                }
            }
        }
    }
}
