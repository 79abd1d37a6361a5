//! Two-window change detection over a stream of coordinates (§V-A).
//!
//! Following Kifer, Ben-David & Gehrke (VLDB 2004), a single stream
//! `S = {s_0, s_1, …}` is split into two sets that can be compared with a
//! two-sample test: a **start** window `W_s = {s_0 … s_{k-1}}` that stops
//! growing once it holds `k` elements, and a **current** window `W_c` that
//! always holds the most recent `k` elements. When a test declares the two
//! windows different, a *change point* has occurred; both windows are cleared
//! and the process restarts from the next element.
//!
//! The windows here hold coordinates (the stream of system-level coordinates
//! produced by Vivaldi); the comparison itself is performed by the
//! RELATIVE or ENERGY heuristics, which read the windows through
//! [`TwoWindowDetector::start_window`] and
//! [`TwoWindowDetector::current_window`].

use std::collections::VecDeque;

use nc_vivaldi::Coordinate;

use crate::config::{check_detector_window, HeuristicConfigError};

/// The runtime state of a [`TwoWindowDetector`]: the window
/// contents and counters, without the configured window size (which is
/// supplied when the detector is rebuilt).
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorState {
    /// The frozen start window, oldest first.
    pub start: Vec<Coordinate>,
    /// The sliding current window, oldest first.
    pub current: Vec<Coordinate>,
    /// Pushes since the last change point.
    pub pushes_since_reset: u64,
    /// Total pushes over the detector's lifetime.
    pub total_pushes: u64,
    /// Change points declared so far.
    pub change_points: u64,
}

/// The paired start/current windows over a coordinate stream.
///
/// # Examples
///
/// ```
/// use nc_change::TwoWindowDetector;
/// use nc_vivaldi::Coordinate;
///
/// let mut w = TwoWindowDetector::new(4).unwrap();
/// for i in 0..10 {
///     w.push(Coordinate::new(vec![i as f64]).unwrap());
/// }
/// assert!(w.is_ready());
/// assert_eq!(w.start_window().len(), 4);
/// // The current window holds the last four elements (6, 7, 8, 9).
/// assert_eq!(w.current_window()[0].components()[0], 6.0);
/// ```
#[derive(Debug, Clone)]
pub struct TwoWindowDetector {
    window_size: usize,
    start: Vec<Coordinate>,
    current: VecDeque<Coordinate>,
    pushes_since_reset: u64,
    total_pushes: u64,
    change_points: u64,
}

impl TwoWindowDetector {
    /// Creates a detector whose windows hold `window_size` coordinates each.
    /// The paper sweeps window sizes from 4 to 4096 and settles on 32 for
    /// its deployment.
    ///
    /// # Errors
    ///
    /// Returns [`HeuristicConfigError::WindowTooSmall`] when
    /// `window_size < 2` (a meaningful two-sample comparison needs at least
    /// two points per window): the rule
    /// [`HeuristicConfig::validate`](crate::HeuristicConfig::validate)
    /// applies to RELATIVE and ENERGY windows.
    pub fn new(window_size: usize) -> Result<Self, HeuristicConfigError> {
        check_detector_window(window_size)?;
        Ok(Self::sized(window_size))
    }

    /// An empty detector for a window size already checked.
    pub(crate) fn sized(window_size: usize) -> Self {
        TwoWindowDetector {
            window_size,
            start: Vec::with_capacity(window_size),
            current: VecDeque::with_capacity(window_size),
            pushes_since_reset: 0,
            total_pushes: 0,
            change_points: 0,
        }
    }

    /// The configured per-window size `k`.
    pub fn window_size(&self) -> usize {
        self.window_size
    }

    /// Appends one system-level coordinate to the stream and hands back the
    /// coordinate it pushed out of the current window, if that was full.
    pub fn push(&mut self, coordinate: Coordinate) -> Option<Coordinate> {
        self.total_pushes += 1;
        self.pushes_since_reset += 1;
        if self.start.len() < self.window_size {
            self.start.push(coordinate.clone());
        }
        let evicted = if self.current.len() == self.window_size {
            self.current.pop_front()
        } else {
            None
        };
        self.current.push_back(coordinate);
        evicted
    }

    /// True once both windows hold `window_size` elements and a comparison is
    /// meaningful.
    pub fn is_ready(&self) -> bool {
        self.start.len() == self.window_size && self.current.len() == self.window_size
    }

    /// The frozen start window `W_s` (oldest `k` coordinates since the last
    /// change point).
    pub fn start_window(&self) -> &[Coordinate] {
        &self.start
    }

    /// The sliding current window `W_c` (most recent `k` coordinates).
    /// Returned as an owned `Vec` because the underlying ring buffer may wrap.
    pub fn current_window(&self) -> Vec<Coordinate> {
        self.current.iter().cloned().collect()
    }

    /// The sliding current window oldest first, borrowed off the ring
    /// buffer.
    pub fn current_iter(&self) -> impl Iterator<Item = &Coordinate> {
        self.current.iter()
    }

    /// Both windows as slices, `(start, current)`, each oldest first. The
    /// ring buffer is rotated in place until it no longer wraps, which moves
    /// at most `k` coordinates and allocates nothing.
    pub fn contiguous_windows(&mut self) -> (&[Coordinate], &[Coordinate]) {
        (&self.start, self.current.make_contiguous())
    }

    /// Centroid of the start window, or `None` before any push.
    pub fn start_centroid(&self) -> Option<Coordinate> {
        Coordinate::centroid(&self.start)
    }

    /// Centroid of the current window, or `None` before any push. Computed
    /// straight off the ring buffer, without materialising it.
    pub fn current_centroid(&self) -> Option<Coordinate> {
        Coordinate::centroid_iter(self.current.iter())
    }

    /// Declares a change point: both windows are cleared and refilling starts
    /// with the next push. Called by the heuristics after they decide the two
    /// windows differ significantly.
    pub fn declare_change_point(&mut self) {
        self.start.clear();
        self.current.clear();
        self.pushes_since_reset = 0;
        self.change_points += 1;
    }

    /// Number of pushes since the last change point (or since creation).
    pub fn pushes_since_reset(&self) -> u64 {
        self.pushes_since_reset
    }

    /// Total pushes over the detector's lifetime.
    pub fn total_pushes(&self) -> u64 {
        self.total_pushes
    }

    /// Number of change points declared so far.
    pub fn change_points(&self) -> u64 {
        self.change_points
    }

    /// Exports the detector's runtime state for persistence.
    pub fn export_state(&self) -> DetectorState {
        DetectorState {
            start: self.start.clone(),
            current: self.current.iter().cloned().collect(),
            pushes_since_reset: self.pushes_since_reset,
            total_pushes: self.total_pushes,
            change_points: self.change_points,
        }
    }

    /// Adopts runtime state exported by [`TwoWindowDetector::export_state`].
    /// Windows longer than the configured size keep only their newest
    /// entries, so state exported under a larger window still restores.
    pub fn import_state(&mut self, state: &DetectorState) {
        // The start window freezes its *first* k coordinates, the current
        // window slides over the *last* k: truncate each from its own end.
        self.start = state.start.iter().take(self.window_size).cloned().collect();
        let from = state.current.len().saturating_sub(self.window_size);
        self.current = state.current[from..].to_vec().into();
        self.pushes_since_reset = state.pushes_since_reset;
        self.total_pushes = state.total_pushes;
        self.change_points = state.change_points;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn coord(x: f64) -> Coordinate {
        Coordinate::new(vec![x, 0.0]).unwrap()
    }

    #[test]
    fn rejects_tiny_windows() {
        assert!(TwoWindowDetector::new(0).is_err());
        assert!(TwoWindowDetector::new(1).is_err());
        assert!(TwoWindowDetector::new(2).is_ok());
    }

    #[test]
    fn not_ready_until_both_windows_full() {
        let mut w = TwoWindowDetector::new(3).unwrap();
        for i in 0..2 {
            w.push(coord(i as f64));
            assert!(!w.is_ready());
        }
        w.push(coord(2.0));
        assert!(w.is_ready());
    }

    #[test]
    fn start_window_freezes_current_slides() {
        let mut w = TwoWindowDetector::new(3).unwrap();
        for i in 0..8 {
            w.push(coord(i as f64));
        }
        let start: Vec<f64> = w.start_window().iter().map(|c| c.components()[0]).collect();
        assert_eq!(start, vec![0.0, 1.0, 2.0]);
        let current: Vec<f64> = w
            .current_window()
            .iter()
            .map(|c| c.components()[0])
            .collect();
        assert_eq!(current, vec![5.0, 6.0, 7.0]);
    }

    #[test]
    fn push_hands_back_what_the_current_window_evicts() {
        let mut w = TwoWindowDetector::new(3).unwrap();
        for i in 0..3 {
            assert_eq!(w.push(coord(i as f64)), None, "still filling");
        }
        assert_eq!(w.push(coord(3.0)), Some(coord(0.0)));
        assert_eq!(w.push(coord(4.0)), Some(coord(1.0)));
        // The ring buffer wraps by now; the slices are still oldest first.
        let owned = w.current_window();
        let (start, current) = w.contiguous_windows();
        assert_eq!(start, [coord(0.0), coord(1.0), coord(2.0)]);
        assert_eq!(current, owned);
        assert!(w.current_iter().eq(owned.iter()));
    }

    #[test]
    fn centroids_reflect_window_contents() {
        let mut w = TwoWindowDetector::new(2).unwrap();
        w.push(coord(0.0));
        w.push(coord(2.0));
        w.push(coord(10.0));
        w.push(coord(12.0));
        assert_eq!(w.start_centroid().unwrap().components()[0], 1.0);
        assert_eq!(w.current_centroid().unwrap().components()[0], 11.0);
    }

    #[test]
    fn change_point_clears_and_counts() {
        let mut w = TwoWindowDetector::new(2).unwrap();
        for i in 0..5 {
            w.push(coord(i as f64));
        }
        w.declare_change_point();
        assert!(!w.is_ready());
        assert_eq!(w.pushes_since_reset(), 0);
        assert_eq!(w.change_points(), 1);
        assert_eq!(w.total_pushes(), 5);
        assert!(w.start_window().is_empty());
        assert!(w.current_window().is_empty());
        // Refills after the reset.
        w.push(coord(100.0));
        w.push(coord(101.0));
        assert!(w.is_ready());
        assert_eq!(w.start_centroid().unwrap().components()[0], 100.5);
    }

    #[test]
    fn empty_detector_has_no_centroids() {
        let w = TwoWindowDetector::new(4).unwrap();
        assert!(w.start_centroid().is_none());
        assert!(w.current_centroid().is_none());
        assert!(!w.is_ready());
    }

    proptest! {
        #[test]
        fn windows_never_exceed_window_size(
            values in proptest::collection::vec(-1e3f64..1e3, 0..200),
            k in 2usize..16,
        ) {
            let mut w = TwoWindowDetector::new(k).unwrap();
            for &v in &values {
                w.push(coord(v));
                prop_assert!(w.start_window().len() <= k);
                prop_assert!(w.current_window().len() <= k);
            }
        }

        #[test]
        fn current_window_is_suffix_of_stream(
            values in proptest::collection::vec(-1e3f64..1e3, 1..100),
            k in 2usize..8,
        ) {
            let mut w = TwoWindowDetector::new(k).unwrap();
            for &v in &values {
                w.push(coord(v));
            }
            let n = values.len().min(k);
            let expected: Vec<f64> = values[values.len() - n..].to_vec();
            let got: Vec<f64> = w.current_window().iter().map(|c| c.components()[0]).collect();
            prop_assert_eq!(got, expected);
        }
    }
}
