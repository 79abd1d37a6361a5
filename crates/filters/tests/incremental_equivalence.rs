//! Equivalence suite for the filter families.
//!
//! The incrementally-sorted moving-percentile window: the binary-search
//! insert/remove maintenance must produce **bit-identical** estimates to the
//! original clone-and-sort implementation, reproduced here as a reference
//! filter with the exact arithmetic of the pre-incremental code.
//!
//! Every family's per-link state, driven through the one per-link contract
//! ([`LinkFilter`]), against a closed-form model of the family written here:
//! the standalone filters and a node's link store both run the families'
//! own code, so this is where that code's arithmetic is checked.

use std::collections::VecDeque;

use nc_filters::{
    EwmaLink, FilterState, LatencyFilter, LinkFilter, MovingPercentileFilter,
    MovingPercentileWindow, RawLink, ThresholdLink,
};
use proptest::prelude::*;

/// The original implementation: keep the raw window, clone and re-sort it on
/// every query.
struct CloneAndSortReference {
    history_size: usize,
    percentile: f64,
    window: VecDeque<f64>,
}

impl CloneAndSortReference {
    fn new(history_size: usize, percentile: f64) -> Self {
        CloneAndSortReference {
            history_size,
            percentile,
            window: VecDeque::new(),
        }
    }

    fn observe(&mut self, raw_rtt_ms: f64) -> Option<f64> {
        if !raw_rtt_ms.is_finite() || raw_rtt_ms <= 0.0 {
            return None;
        }
        if self.window.len() == self.history_size {
            self.window.pop_front();
        }
        self.window.push_back(raw_rtt_ms);
        self.estimate()
    }

    fn estimate(&self) -> Option<f64> {
        if self.window.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = self.window.iter().cloned().collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("only finite values"));
        nc_stats::percentile_of_sorted(&sorted, self.percentile).ok()
    }
}

fn bits(value: Option<f64>) -> Option<u64> {
    value.map(f64::to_bits)
}

proptest! {
    #[test]
    fn incremental_window_matches_clone_and_sort(
        values in proptest::collection::vec(0.01f64..1e6, 0..400),
        history in 1usize..40,
        percentile in 0.0f64..=100.0,
    ) {
        let mut incremental = MovingPercentileFilter::new(history, percentile).unwrap();
        let mut reference = CloneAndSortReference::new(history, percentile);
        for &value in &values {
            prop_assert_eq!(
                bits(incremental.observe(value)),
                bits(reference.observe(value)),
                "estimates diverged at value {}", value
            );
            prop_assert_eq!(
                bits(incremental.current_estimate()),
                bits(reference.estimate())
            );
        }
    }

    #[test]
    fn duplicate_heavy_streams_stay_identical(
        // Tiny value alphabet: hammers the equal-element removal path where
        // binary search may land on any of several equal samples.
        values in proptest::collection::vec(1usize..6, 0..300),
        history in 1usize..10,
    ) {
        let mut incremental = MovingPercentileFilter::new(history, 25.0).unwrap();
        let mut reference = CloneAndSortReference::new(history, 25.0);
        for &index in &values {
            let value = index as f64 * 10.0;
            prop_assert_eq!(
                bits(incremental.observe(value)),
                bits(reference.observe(value))
            );
        }
    }

    #[test]
    fn invalid_samples_are_ignored_identically(
        selectors in proptest::collection::vec(0usize..5, 0..200),
        raws in proptest::collection::vec(0.01f64..1e4, 200..201),
    ) {
        let mut incremental = MovingPercentileFilter::new(4, 25.0).unwrap();
        let mut reference = CloneAndSortReference::new(4, 25.0);
        for (index, &selector) in selectors.iter().enumerate() {
            let value = match selector {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => -3.0,
                3 => 0.0,
                _ => raws[index % raws.len()],
            };
            prop_assert_eq!(
                bits(incremental.observe(value)),
                bits(reference.observe(value))
            );
        }
    }

    #[test]
    fn state_import_rebuilds_the_sorted_companion(
        before in proptest::collection::vec(0.01f64..1e4, 1..50),
        after in proptest::collection::vec(0.01f64..1e4, 1..50),
        history in 1usize..12,
    ) {
        let mut original = MovingPercentileFilter::new(history, 25.0).unwrap();
        let mut reference = CloneAndSortReference::new(history, 25.0);
        for &value in &before {
            original.observe(value);
            reference.observe(value);
        }
        let mut restored = MovingPercentileFilter::new(history, 25.0).unwrap();
        restored.import_state(&original.export_state()).unwrap();
        for &value in &after {
            prop_assert_eq!(
                bits(restored.observe(value)),
                bits(reference.observe(value))
            );
        }
    }
}

/// A filter family in closed form, fed valid samples only.
trait Model {
    /// Takes one valid sample and returns the estimate released for it.
    fn take(&mut self, raw_rtt_ms: f64) -> Option<f64>;
    /// The current estimate.
    fn estimate(&self) -> Option<f64>;
    /// The state the family exports after `seen` valid samples.
    fn state(&self, seen: u64) -> FilterState;
}

/// Raw: the last valid sample.
struct RawModel {
    last: Option<f64>,
}

impl Model for RawModel {
    fn take(&mut self, raw_rtt_ms: f64) -> Option<f64> {
        self.last = Some(raw_rtt_ms);
        self.last
    }

    fn estimate(&self) -> Option<f64> {
        self.last
    }

    fn state(&self, seen: u64) -> FilterState {
        FilterState::Raw {
            last: self.last,
            seen,
        }
    }
}

/// EWMA: the first sample, then `α·s + (1 − α)·v`.
struct EwmaModel {
    alpha: f64,
    value: Option<f64>,
}

impl Model for EwmaModel {
    fn take(&mut self, s: f64) -> Option<f64> {
        let alpha = self.alpha;
        self.value = Some(self.value.map_or(s, |v| alpha * s + (1.0 - alpha) * v));
        self.value
    }

    fn estimate(&self) -> Option<f64> {
        self.value
    }

    fn state(&self, seen: u64) -> FilterState {
        FilterState::Ewma {
            value: self.value,
            seen,
        }
    }
}

/// Threshold: the last sample at or below the cut-off, the rest counted as
/// discarded.
struct ThresholdModel {
    cutoff_ms: f64,
    last_passed: Option<f64>,
    discarded: u64,
}

impl Model for ThresholdModel {
    fn take(&mut self, raw_rtt_ms: f64) -> Option<f64> {
        if raw_rtt_ms <= self.cutoff_ms {
            self.last_passed = Some(raw_rtt_ms);
            Some(raw_rtt_ms)
        } else {
            self.discarded += 1;
            None
        }
    }

    fn estimate(&self) -> Option<f64> {
        self.last_passed
    }

    fn state(&self, seen: u64) -> FilterState {
        FilterState::Threshold {
            last_passed: self.last_passed,
            seen,
            discarded: self.discarded,
        }
    }
}

/// Moving percentile: the clone-and-sort reference.
impl Model for CloneAndSortReference {
    fn take(&mut self, raw_rtt_ms: f64) -> Option<f64> {
        self.observe(raw_rtt_ms)
    }

    fn estimate(&self) -> Option<f64> {
        CloneAndSortReference::estimate(self)
    }

    fn state(&self, seen: u64) -> FilterState {
        FilterState::MovingPercentile {
            window: self.window.iter().copied().collect(),
            seen,
        }
    }
}

/// Maps a random word onto a sample: NaN, ±∞, both zeros and negatives,
/// which every family must ignore without counting them, or an ordinary
/// latency from 0.1 ms to 2 s.
fn sample(word: u64) -> f64 {
    let fraction = (word >> 8) as f64 / (1u64 << 56) as f64;
    match word % 10 {
        0 => f64::NAN,
        1 => [0.0, -0.0][(word >> 8) as usize % 2],
        2 => -0.1 - 500.0 * fraction,
        3 => [f64::INFINITY, f64::NEG_INFINITY][(word >> 8) as usize % 2],
        _ => 0.1 + 2_000.0 * fraction,
    }
}

/// Feeds `stream` to a fresh `L` link and to `model`, checking at every
/// step the released estimate, the current estimate, the observation count
/// and the exported state; an invalid sample must leave the link as it
/// was. At step `reimport_at` the link's state is exported, and a fresh
/// link imports it and carries on in its place.
fn follows<L: LinkFilter>(
    params: &L::Params,
    mut model: impl Model,
    stream: &[f64],
    reimport_at: usize,
) {
    let mut link = L::fresh(params);
    let mut seen = 0;
    for (step, &raw) in stream.iter().enumerate() {
        if step == reimport_at {
            let state = link.export_state();
            link = L::fresh(params);
            prop_assert_eq!(link.import_state(params, &state), Ok(()));
            prop_assert_eq!(link.export_state(), state);
        }
        let before = link.export_state();
        let released = link.observe(params, raw);
        if raw.is_finite() && raw > 0.0 {
            seen += 1;
            prop_assert_eq!(
                bits(released),
                bits(model.take(raw)),
                "step {} raw {:e}",
                step,
                raw
            );
        } else {
            prop_assert_eq!(released, None, "step {} raw {:e}", step, raw);
            prop_assert_eq!(&link.export_state(), &before);
        }
        prop_assert_eq!(bits(link.estimate(params)), bits(model.estimate()));
        prop_assert_eq!(link.observations_seen(), seen);
        prop_assert_eq!(link.export_state(), model.state(seen));
    }
}

proptest! {
    #[test]
    fn every_family_matches_its_closed_form(
        stream in proptest::collection::vec((0u64..u64::MAX).prop_map(sample), 0..150),
        alpha in 0.01f64..=1.0,
        cutoff_ms in 1.0f64..2_000.0,
        history in 1usize..8,
        percentile in 0.0f64..=100.0,
        reimport_at in 0usize..150,
    ) {
        follows::<RawLink>(&(), RawModel { last: None }, &stream, reimport_at);
        follows::<EwmaLink>(&alpha, EwmaModel { alpha, value: None }, &stream, reimport_at);
        let threshold = ThresholdModel { cutoff_ms, last_passed: None, discarded: 0 };
        follows::<ThresholdLink>(&cutoff_ms, threshold, &stream, reimport_at);
        follows::<MovingPercentileWindow>(
            &(history, percentile),
            CloneAndSortReference::new(history, percentile),
            &stream,
            reimport_at,
        );
    }
}
