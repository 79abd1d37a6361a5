//! The moving-percentile (MP) filter — the paper's core filtering
//! contribution (§IV).
//!
//! A Moving Percentile filter keeps a sliding window of the last `h` raw
//! observations of a link and outputs their `p`-th percentile as the latency
//! estimate. It is a non-linear low-pass filter: impulses in the heavy tail
//! are removed entirely (rather than averaged in, as an EWMA would), while a
//! genuine shift in the underlying latency propagates to the output within
//! `h` observations. The paper's parameter study (Figure 4) found `h = 4`
//! and `p = 25` — i.e. the minimum of the last four samples — to predict the
//! next observation best.

use std::collections::VecDeque;

use nc_stats::percentile::percentile_of_sorted;

use crate::{
    is_valid_sample, Filter, FilterConfig, FilterConfigError, FilterState, LinkFilter,
    StateMismatch,
};

/// Moving-percentile filter over a per-link observation window: the
/// parameters `(h, p)` beside one [`MovingPercentileWindow`].
///
/// # Examples
///
/// ```
/// use nc_filters::{LatencyFilter, MovingPercentileFilter};
///
/// let mut f = MovingPercentileFilter::new(4, 25.0).unwrap();
/// f.observe(100.0);
/// f.observe(102.0);
/// f.observe(5_000.0); // heavy-tail outlier
/// let estimate = f.observe(101.0).unwrap();
/// assert!(estimate <= 102.0, "the outlier is filtered out, got {estimate}");
/// ```
pub type MovingPercentileFilter = Filter<MovingPercentileWindow>;

/// Window sizes up to this bound — the paper's `h = 4` — store the window
/// inline in the window value itself.
const INLINE_HISTORY: usize = 4;

/// The per-link state of a moving-percentile filter: the last `h` valid
/// samples and the count of valid samples seen. The family's parameters,
/// the history size `h` and the percentile `p`, are held outside: its
/// [`LinkFilter::Params`] are `(h, p)`.
///
/// # Examples
///
/// ```
/// use nc_filters::{LatencyFilter, LinkFilter, MovingPercentileFilter, MovingPercentileWindow};
///
/// let params = (4, 25.0);
/// let mut window = MovingPercentileWindow::fresh(&params);
/// let mut filter = MovingPercentileFilter::new(params.0, params.1).unwrap();
/// for raw in [100.0, 102.0, 5_000.0, 101.0] {
///     assert_eq!(window.observe(&params, raw), filter.observe(raw));
/// }
/// assert_eq!(window.export_state(), filter.export_state());
/// ```
#[derive(Debug, Clone)]
pub struct MovingPercentileWindow {
    samples: WindowStorage,
    seen: u64,
}

/// Backing storage for the observation window.
///
/// Histories of up to four samples — the paper's `h = 4` among them — live
/// in the `Inline` arm: one plain array inside the window value, so a link
/// costs no heap allocation and no pointer chase per observation, and a
/// window takes 48 bytes. The ordered view a percentile needs is derived
/// on read: at most four values are copied to the stack and sorted under
/// `total_cmp` — the same multiset in the same order as the heap arm's
/// sorted companion, so every percentile is bit-identical to it.
///
/// Larger windows spill to one boxed `Heap` window, where re-sorting per
/// estimate would be real work: it keeps the sorted companion
/// incrementally ordered, one removal of the expiring sample and one
/// ordered insertion of the new one per observation.
#[derive(Debug, Clone)]
enum WindowStorage {
    Inline {
        /// The last `len` observations in arrival order, oldest first.
        window: [f64; INLINE_HISTORY],
        len: u8,
    },
    Heap(Box<SortedWindow>),
}

/// A window of more than [`INLINE_HISTORY`] samples.
#[derive(Debug, Clone)]
struct SortedWindow {
    /// The observations in arrival order, oldest first.
    window: VecDeque<f64>,
    /// The same values ordered by `total_cmp`.
    sorted: Vec<f64>,
}

impl WindowStorage {
    fn with_capacity(history_size: usize) -> Self {
        if history_size <= INLINE_HISTORY {
            WindowStorage::Inline {
                window: [0.0; INLINE_HISTORY],
                len: 0,
            }
        } else {
            WindowStorage::Heap(Box::new(SortedWindow {
                window: VecDeque::with_capacity(history_size),
                sorted: Vec::with_capacity(history_size),
            }))
        }
    }

    /// The `percentile`-th percentile of the window, `None` while it is
    /// empty.
    fn estimate(&self, percentile: f64) -> Option<f64> {
        match self {
            WindowStorage::Inline { window, len } => {
                let mut ordered = *window;
                let ordered = &mut ordered[..*len as usize];
                ordered.sort_unstable_by(f64::total_cmp);
                percentile_of_sorted(ordered, percentile).ok()
            }
            WindowStorage::Heap(heap) => percentile_of_sorted(&heap.sorted, percentile).ok(),
        }
    }

    /// Appends `value`, first expiring the oldest sample when the window
    /// already holds `history_size` entries. The heap arm keeps its sorted
    /// companion totally ordered under `total_cmp`, the order
    /// [`replace`](WindowStorage::replace) sorts by, so the expiring sample
    /// is always found.
    fn push(&mut self, value: f64, history_size: usize) {
        match self {
            WindowStorage::Inline { window, len } => {
                let mut n = *len as usize;
                if n == history_size {
                    window.copy_within(1..n, 0);
                    n -= 1;
                }
                window[n] = value;
                *len = (n + 1) as u8;
            }
            WindowStorage::Heap(heap) => {
                let SortedWindow { window, sorted } = &mut **heap;
                if window.len() == history_size {
                    let expiring = window
                        .pop_front()
                        .expect("full window holds at least one sample");
                    let index = sorted
                        .binary_search_by(|probe| probe.total_cmp(&expiring))
                        .expect("expiring value is present in the sorted window");
                    sorted.remove(index);
                }
                window.push_back(value);
                let index = sorted
                    .partition_point(|probe| probe.total_cmp(&value) == std::cmp::Ordering::Less);
                sorted.insert(index, value);
            }
        }
    }

    /// Replaces the window contents with `values` (oldest first) — the
    /// state-import path.
    fn replace(&mut self, values: &[f64]) {
        match self {
            WindowStorage::Inline { window, len } => {
                window[..values.len()].copy_from_slice(values);
                *len = values.len() as u8;
            }
            WindowStorage::Heap(heap) => {
                let SortedWindow { window, sorted } = &mut **heap;
                window.clear();
                window.extend(values.iter().copied());
                sorted.clear();
                sorted.extend(values.iter().copied());
                sorted.sort_by(|a, b| a.total_cmp(b));
            }
        }
    }

    /// The window in arrival order, for state export.
    fn export_window(&self) -> Vec<f64> {
        match self {
            WindowStorage::Inline { window, len } => window[..*len as usize].to_vec(),
            WindowStorage::Heap(heap) => heap.window.iter().copied().collect(),
        }
    }
}

impl MovingPercentileFilter {
    /// Creates a filter with history size `h` and percentile `p` (0–100).
    ///
    /// # Errors
    ///
    /// Returns the [`FilterConfigError`] that [`FilterConfig::validate`]
    /// reports for these parameters: `history_size == 0`, or `p` not a
    /// finite value in `0.0..=100.0`.
    pub fn new(history_size: usize, percentile: f64) -> Result<Self, FilterConfigError> {
        let config = FilterConfig::MovingPercentile {
            history: history_size,
            percentile,
        };
        Filter::checked(config, (history_size, percentile))
    }

    /// The parameters the paper recommends and uses in its PlanetLab
    /// deployment: a history of four observations and the 25th percentile.
    pub fn paper_defaults() -> Self {
        Self::new(4, 25.0).expect("paper defaults are valid")
    }
}

/// The parameters are `(h, p)`: the history size and the percentile.
impl LinkFilter for MovingPercentileWindow {
    type Params = (usize, f64);

    fn fresh(&(history_size, _): &(usize, f64)) -> Self {
        MovingPercentileWindow {
            samples: WindowStorage::with_capacity(history_size),
            seen: 0,
        }
    }

    fn observe(
        &mut self,
        &(history_size, percentile): &(usize, f64),
        raw_rtt_ms: f64,
    ) -> Option<f64> {
        if !is_valid_sample(raw_rtt_ms) {
            return None;
        }
        self.samples.push(raw_rtt_ms, history_size);
        self.seen += 1;
        self.samples.estimate(percentile)
    }

    fn estimate(&self, &(_, percentile): &(usize, f64)) -> Option<f64> {
        self.samples.estimate(percentile)
    }

    fn observations_seen(&self) -> u64 {
        self.seen
    }

    fn export_state(&self) -> FilterState {
        FilterState::MovingPercentile {
            window: self.samples.export_window(),
            seen: self.seen,
        }
    }

    /// Of a longer exported window only the newest `h` samples are kept.
    fn import_state(
        &mut self,
        &(history_size, _): &(usize, f64),
        state: &FilterState,
    ) -> Result<(), StateMismatch> {
        let FilterState::MovingPercentile { window, seen } = state else {
            return Err(state.foreign("moving-percentile"));
        };
        // Keep only the newest `history_size` entries so a state exported
        // under a larger history still restores sanely.
        let start = window.len().saturating_sub(history_size);
        self.samples.replace(&window[start..]);
        self.seen = *seen;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LatencyFilter;
    use proptest::prelude::*;

    /// Samples the filter's window holds.
    fn window_len(filter: &MovingPercentileFilter) -> usize {
        match filter.export_state() {
            FilterState::MovingPercentile { window, .. } => window.len(),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert!(MovingPercentileFilter::new(0, 25.0).is_err());
        assert!(MovingPercentileFilter::new(4, -1.0).is_err());
        assert!(MovingPercentileFilter::new(4, 101.0).is_err());
        assert!(MovingPercentileFilter::new(4, f64::NAN).is_err());
    }

    #[test]
    fn paper_defaults_are_h4_p25() {
        let f = MovingPercentileFilter::paper_defaults();
        assert_eq!(f.params, (4, 25.0));
    }

    #[test]
    fn emits_from_first_observation() {
        // The paper notes the filter "outputted a value for every input,
        // regardless of the history length".
        let mut f = MovingPercentileFilter::paper_defaults();
        assert_eq!(f.observe(123.0), Some(123.0));
    }

    #[test]
    fn ignores_invalid_observations() {
        let mut f = MovingPercentileFilter::paper_defaults();
        assert_eq!(f.observe(f64::NAN), None);
        assert_eq!(f.observe(-1.0), None);
        assert_eq!(f.observe(0.0), None);
        assert_eq!(f.observations_seen(), 0);
        assert_eq!(f.current_estimate(), None);
    }

    #[test]
    fn suppresses_heavy_tail_outliers() {
        let mut f = MovingPercentileFilter::paper_defaults();
        let mut estimates = Vec::new();
        for raw in [80.0, 82.0, 79.0, 81.0, 9_000.0, 80.0, 83.0, 78.0] {
            if let Some(e) = f.observe(raw) {
                estimates.push(e);
            }
        }
        assert!(
            estimates.iter().all(|&e| e < 100.0),
            "estimates {estimates:?}"
        );
    }

    #[test]
    fn window_slides_and_adapts_to_level_shift() {
        let mut f = MovingPercentileFilter::paper_defaults();
        for _ in 0..10 {
            f.observe(50.0);
        }
        // The underlying latency shifts to 150 ms (e.g. a route change).
        let mut last = 0.0;
        for _ in 0..4 {
            last = f.observe(150.0).unwrap();
        }
        assert!(
            (last - 150.0).abs() < 1e-9,
            "filter should adapt within h samples, got {last}"
        );
    }

    #[test]
    fn p25_of_full_window_is_low_quantile() {
        let mut f = MovingPercentileFilter::new(4, 25.0).unwrap();
        for raw in [10.0, 20.0, 30.0, 40.0] {
            f.observe(raw);
        }
        // 25th percentile of {10,20,30,40} with linear interpolation = 17.5.
        assert!((f.current_estimate().unwrap() - 17.5).abs() < 1e-9);
    }

    #[test]
    fn median_filter_matches_percentile_50() {
        // The moving median is the p = 50 filter: the middle of an odd
        // window, the mean of the two middle values of an even one.
        let mut median = MovingPercentileFilter::new(5, 50.0).unwrap();
        let expected = [10.0, 105.0, 15.0, 13.5, 15.0, 15.0];
        for (raw, expected) in [10.0, 200.0, 15.0, 12.0, 900.0, 11.0]
            .into_iter()
            .zip(expected)
        {
            assert_eq!(median.observe(raw), Some(expected), "after {raw}");
        }
    }

    #[test]
    fn imported_window_with_mixed_zeros_survives_expiry() {
        // A snapshot off the wire may carry values `observe` itself would
        // have rejected, such as -0.0. Imported, they would come back out
        // as estimates (and once panicked expiry when insertion used
        // partial_cmp but removal total_cmp), so the import is refused and
        // the filter carries on from its own window.
        for history in [3, INLINE_HISTORY + 1] {
            let mut f = MovingPercentileFilter::new(history, 50.0).unwrap();
            f.observe(4.0);
            let err = f
                .import_state(&FilterState::MovingPercentile {
                    window: vec![0.0, 0.0, -0.0],
                    seen: 3,
                })
                .unwrap_err();
            assert_eq!(
                err,
                StateMismatch::Sample {
                    family: "moving-percentile",
                    value: 0.0
                }
            );
            assert_eq!(window_len(&f), 1);
            assert_eq!(f.observe(5.0), Some(4.5));
            assert_eq!(f.observe(6.0), Some(5.0));
        }
    }

    #[test]
    fn history_of_one_is_identity() {
        let mut f = MovingPercentileFilter::new(1, 25.0).unwrap();
        for raw in [5.0, 900.0, 42.0] {
            assert_eq!(f.observe(raw), Some(raw));
        }
    }

    /// Layout pin: the per-link state of every family, and the standalone
    /// moving-percentile filter. A node's link store holds one bare state
    /// per measured link, a large simulation hundreds of thousands, so a
    /// field added to any of them is a conscious decision:
    /// - raw: `last` 16 (`Option<f64>`) + `seen` 8 = 24;
    /// - EWMA: `value` 16 + `seen` 8 = 24 (`α` is held outside);
    /// - threshold: `last_passed` 16 + `seen` 8 + `discarded` 8 = 32 (the
    ///   cut-off is held outside);
    /// - moving-percentile window ≤ 48: its storage's larger arm is the
    ///   inline one, `[f64; 4]` = 32 with `len` and the enum tag sharing one
    ///   more word, then `seen` 8;
    /// - `MovingPercentileFilter` ≤ 64: `(h, p)` 16 beside the window.
    #[test]
    fn layout_pin_filter_within_64_bytes() {
        use std::mem::size_of;
        assert_eq!(size_of::<crate::RawLink>(), 24);
        assert_eq!(size_of::<crate::EwmaLink>(), 24);
        assert_eq!(size_of::<crate::ThresholdLink>(), 32);
        let window = size_of::<MovingPercentileWindow>();
        assert!(
            window <= 48,
            "MovingPercentileWindow grew to {window} bytes"
        );
        assert!(
            size_of::<MovingPercentileFilter>() <= 64,
            "MovingPercentileFilter grew to {} bytes",
            size_of::<MovingPercentileFilter>()
        );
    }

    /// The clone-and-sort filter the storage arms are held against: keeps
    /// the last `history` accepted values and sorts a copy per estimate.
    struct ReferenceFilter {
        history: usize,
        percentile: f64,
        window: Vec<f64>,
        seen: u64,
    }

    impl ReferenceFilter {
        fn estimate(&self) -> Option<f64> {
            let mut sorted = self.window.clone();
            sorted.sort_by(f64::total_cmp);
            percentile_of_sorted(&sorted, self.percentile).ok()
        }

        fn observe(&mut self, raw: f64) -> Option<f64> {
            if !raw.is_finite() || raw <= 0.0 {
                return None;
            }
            self.window.push(raw);
            if self.window.len() > self.history {
                self.window.remove(0);
            }
            self.seen += 1;
            self.estimate()
        }
    }

    /// Maps a random word onto the values that stress the ordering: a small
    /// pool of exact duplicates, both zeros, sub-normals, 1e5-scale
    /// outliers, and ordinary latencies.
    fn awkward_value(word: u64) -> f64 {
        let fraction = (word >> 8) as f64 / (1u64 << 56) as f64;
        match word % 8 {
            0 | 1 => [80.0, 80.0, 81.5, 79.25][(word >> 8) as usize % 4],
            2 => 0.0,
            3 => -0.0,
            4 => f64::from_bits(1 + (word >> 8) % 4096),
            5 => 1e5 * (1.0 + fraction),
            _ => 0.1 + 500.0 * fraction,
        }
    }

    fn bits(value: Option<f64>) -> Option<u64> {
        value.map(f64::to_bits)
    }

    proptest! {
        #[test]
        fn every_storage_arm_is_bit_identical_to_clone_and_sort(
            seeded in proptest::collection::vec((0u64..u64::MAX).prop_map(awkward_value), 0..=9),
            stream in proptest::collection::vec((0u64..u64::MAX).prop_map(awkward_value), 1..120),
            p in 0.0f64..=100.0,
            reimport_at in 0usize..120,
        ) {
            // An imported window holds only what `observe` accepts (the
            // import refuses the zeros); the stream still offers them.
            let seeded: Vec<f64> = seeded.into_iter().filter(|&v| v > 0.0).collect();
            // Every inline history and the first heap-backed one.
            for history in 1..=INLINE_HISTORY + 1 {
                let mut filter = MovingPercentileFilter::new(history, p).unwrap();
                let start = seeded.len().saturating_sub(history);
                let mut reference = ReferenceFilter {
                    history,
                    percentile: p,
                    window: seeded[start..].to_vec(),
                    seen: seeded.len() as u64,
                };
                filter
                    .import_state(&FilterState::MovingPercentile {
                        window: seeded.clone(),
                        seen: seeded.len() as u64,
                    })
                    .unwrap();
                prop_assert_eq!(bits(filter.current_estimate()), bits(reference.estimate()));
                for (step, &raw) in stream.iter().enumerate() {
                    if step == reimport_at {
                        let state = filter.export_state();
                        filter = MovingPercentileFilter::new(history, p).unwrap();
                        filter.import_state(&state).unwrap();
                    }
                    prop_assert_eq!(
                        bits(filter.observe(raw)),
                        bits(reference.observe(raw)),
                        "history {} step {} raw {:e}", history, step, raw
                    );
                    prop_assert_eq!(bits(filter.current_estimate()), bits(reference.estimate()));
                    prop_assert_eq!(filter.observations_seen(), reference.seen);
                    prop_assert_eq!(
                        filter.export_state(),
                        FilterState::MovingPercentile {
                            window: reference.window.clone(),
                            seen: reference.seen,
                        }
                    );
                }
            }
        }

        #[test]
        fn output_is_bounded_by_window_extremes(
            values in proptest::collection::vec(0.1f64..1e5, 1..100),
            h in 1usize..16,
            p in 0.0f64..=100.0,
        ) {
            let mut f = MovingPercentileFilter::new(h, p).unwrap();
            let mut window: Vec<f64> = Vec::new();
            for &v in &values {
                window.push(v);
                if window.len() > h {
                    window.remove(0);
                }
                let est = f.observe(v).unwrap();
                let min = window.iter().cloned().fold(f64::INFINITY, f64::min);
                let max = window.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                prop_assert!(est >= min - 1e-9 && est <= max + 1e-9);
            }
        }

        #[test]
        fn window_never_exceeds_history_size(
            values in proptest::collection::vec(0.1f64..1e4, 0..200),
            h in 1usize..32,
        ) {
            let mut f = MovingPercentileFilter::new(h, 25.0).unwrap();
            for &v in &values {
                f.observe(v);
                prop_assert!(window_len(&f) <= h);
            }
        }
    }
}
