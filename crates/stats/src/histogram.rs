//! Frequency histograms with linear, logarithmic or caller-supplied bin
//! edges.
//!
//! Figure 2 of the paper summarises 43 million raw latency samples with a
//! histogram whose bins are 100 ms wide below one second, 1000 ms wide up to
//! three seconds, and open-ended above that; Figure 3 uses 200 ms-wide bins
//! for a single link. [`Histogram::with_edges`] reproduces those exact
//! binnings and [`Histogram::paper_figure2_bins`] provides the Figure-2 edges
//! directly.

use crate::StatsError;

/// A single histogram bin: `[lo, hi)` with an observation count.
///
/// The final bin of a histogram built from open-ended edges uses
/// `hi = f64::INFINITY`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramBin {
    /// Inclusive lower edge of the bin.
    pub lo: f64,
    /// Exclusive upper edge of the bin (`f64::INFINITY` for an open last bin).
    pub hi: f64,
    /// Number of observations that fell in `[lo, hi)`.
    pub count: u64,
}

impl HistogramBin {
    /// Human-readable label such as `"100-199"` or `">=3000"`, matching the
    /// axis labels used in the paper's figures.
    pub fn label(&self) -> String {
        if self.hi.is_infinite() {
            format!(">={:.0}", self.lo)
        } else {
            format!("{:.0}-{:.0}", self.lo, self.hi - 1.0)
        }
    }
}

/// Frequency histogram over `f64` observations.
///
/// # Examples
///
/// ```
/// use nc_stats::Histogram;
///
/// let mut h = Histogram::linear(0.0, 100.0, 10).unwrap();
/// for v in [5.0, 15.0, 15.5, 99.0, 250.0] {
///     h.record(v);
/// }
/// assert_eq!(h.total(), 5);
/// assert_eq!(h.overflow(), 1); // 250.0 is above the last edge
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Bin edges; `edges[i]..edges[i+1]` is bin `i`. Always ≥ 2 entries.
    edges: Vec<f64>,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
    /// True when the histogram treats values above the last edge as belonging
    /// to a final open-ended bin rather than as overflow.
    open_ended: bool,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins covering `[lo, hi)`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] when `bins == 0`, when
    /// `lo >= hi`, or when either bound is non-finite.
    pub fn linear(lo: f64, hi: f64, bins: usize) -> Result<Self, StatsError> {
        if bins == 0 {
            return Err(StatsError::InvalidParameter("bins must be > 0"));
        }
        if !lo.is_finite() || !hi.is_finite() || lo >= hi {
            return Err(StatsError::InvalidParameter("invalid histogram range"));
        }
        let width = (hi - lo) / bins as f64;
        let edges = (0..=bins).map(|i| lo + width * i as f64).collect();
        Ok(Self::from_edge_vec(edges, false))
    }

    /// Creates a histogram with logarithmically spaced bins between `lo` and
    /// `hi` (both must be positive).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] when `bins == 0`, when
    /// `lo <= 0`, or when `lo >= hi`.
    pub fn logarithmic(lo: f64, hi: f64, bins: usize) -> Result<Self, StatsError> {
        if bins == 0 {
            return Err(StatsError::InvalidParameter("bins must be > 0"));
        }
        if !(lo.is_finite() && hi.is_finite()) || lo <= 0.0 || lo >= hi {
            return Err(StatsError::InvalidParameter("invalid logarithmic range"));
        }
        let log_lo = lo.ln();
        let log_hi = hi.ln();
        let step = (log_hi - log_lo) / bins as f64;
        let edges = (0..=bins)
            .map(|i| (log_lo + step * i as f64).exp())
            .collect();
        Ok(Self::from_edge_vec(edges, false))
    }

    /// Creates a histogram from explicit ascending bin edges.
    ///
    /// When `open_ended` is true, observations at or above the last edge are
    /// counted in an additional final bin `[last_edge, +inf)` instead of being
    /// treated as overflow.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] when fewer than two edges are
    /// given or the edges are not strictly increasing and finite.
    pub fn with_edges(edges: &[f64], open_ended: bool) -> Result<Self, StatsError> {
        if edges.len() < 2 {
            return Err(StatsError::InvalidParameter("need at least two edges"));
        }
        if edges.iter().any(|e| !e.is_finite()) || edges.windows(2).any(|w| w[0] >= w[1]) {
            return Err(StatsError::InvalidParameter(
                "edges must be strictly increasing",
            ));
        }
        Ok(Self::from_edge_vec(edges.to_vec(), open_ended))
    }

    /// The bin edges used by Figure 2 of the paper: 100 ms bins up to 1 s,
    /// 1000 ms bins up to 3 s, and an open-ended `>= 3000` bin.
    pub fn paper_figure2_bins() -> Self {
        let mut edges: Vec<f64> = (0..=10).map(|i| i as f64 * 100.0).collect();
        edges.push(2000.0);
        edges.push(3000.0);
        Self::from_edge_vec(edges, true)
    }

    /// The bin edges used by Figure 3 of the paper: 200 ms bins from 0 to
    /// 2200 ms.
    pub fn paper_figure3_bins() -> Self {
        let edges: Vec<f64> = (0..=11).map(|i| i as f64 * 200.0).collect();
        Self::from_edge_vec(edges, true)
    }

    fn from_edge_vec(edges: Vec<f64>, open_ended: bool) -> Self {
        let bins = edges.len() - 1 + usize::from(open_ended);
        Histogram {
            edges,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
            open_ended,
        }
    }

    /// Records one observation.
    ///
    /// Non-finite observations are counted as overflow (positive) or
    /// underflow (negative / NaN) so that [`Histogram::total`] still accounts
    /// for every call.
    pub fn record(&mut self, value: f64) {
        if value.is_nan() {
            self.underflow += 1;
            return;
        }
        let first = self.edges[0];
        let last = *self.edges.last().expect("at least two edges");
        if value < first {
            self.underflow += 1;
            return;
        }
        if value >= last {
            if self.open_ended {
                let idx = self.counts.len() - 1;
                self.counts[idx] += 1;
            } else {
                self.overflow += 1;
            }
            return;
        }
        // Binary search for the bin: index of the last edge <= value.
        let idx = match self
            .edges
            .binary_search_by(|e| e.partial_cmp(&value).expect("finite edges"))
        {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        self.counts[idx] += 1;
    }

    /// Records every observation in the iterator.
    pub fn record_all<I: IntoIterator<Item = f64>>(&mut self, values: I) {
        for v in values {
            self.record(v);
        }
    }

    /// The populated bins in ascending order of their lower edge.
    pub fn bins(&self) -> Vec<HistogramBin> {
        let mut out = Vec::with_capacity(self.counts.len());
        for (i, &count) in self.counts.iter().enumerate() {
            let lo = self.edges[i.min(self.edges.len() - 1)];
            let hi = if i + 1 < self.edges.len() {
                self.edges[i + 1]
            } else {
                f64::INFINITY
            };
            out.push(HistogramBin { lo, hi, count });
        }
        out
    }

    /// Total number of recorded observations, including under/overflow.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// Number of observations below the first edge (or NaN).
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Number of observations at or above the last edge when the histogram is
    /// not open-ended.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Fraction of observations at or above `threshold`.
    ///
    /// Used for the paper's "0.4% of measurements are greater than one
    /// second" observation. The threshold is resolved against bin lower
    /// edges; it should coincide with an edge for an exact answer.
    pub fn fraction_at_or_above(&self, threshold: f64) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let mut above = self.overflow;
        for bin in self.bins() {
            if bin.lo >= threshold {
                above += bin.count;
            }
        }
        above as f64 / total as f64
    }

    /// Renders the histogram as an aligned text table (label, count), one bin
    /// per line — the textual analogue of the paper's bar charts.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        for bin in self.bins() {
            out.push_str(&format!("{:>12}  {}\n", bin.label(), bin.count));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn linear_rejects_bad_parameters() {
        assert!(Histogram::linear(0.0, 10.0, 0).is_err());
        assert!(Histogram::linear(10.0, 0.0, 5).is_err());
        assert!(Histogram::linear(f64::NAN, 1.0, 5).is_err());
    }

    #[test]
    fn logarithmic_rejects_bad_parameters() {
        assert!(Histogram::logarithmic(0.0, 10.0, 5).is_err());
        assert!(Histogram::logarithmic(-1.0, 10.0, 5).is_err());
        assert!(Histogram::logarithmic(10.0, 1.0, 5).is_err());
        assert!(Histogram::logarithmic(1.0, 10.0, 0).is_err());
    }

    #[test]
    fn with_edges_requires_increasing() {
        assert!(Histogram::with_edges(&[0.0], false).is_err());
        assert!(Histogram::with_edges(&[0.0, 0.0], false).is_err());
        assert!(Histogram::with_edges(&[1.0, 0.0], false).is_err());
        assert!(Histogram::with_edges(&[0.0, 1.0, 2.0], false).is_ok());
    }

    #[test]
    fn records_into_correct_bins() {
        let mut h = Histogram::linear(0.0, 10.0, 10).unwrap();
        h.record(0.0);
        h.record(0.5);
        h.record(9.999);
        h.record(10.0); // overflow
        h.record(-1.0); // underflow
        let bins = h.bins();
        assert_eq!(bins[0].count, 2);
        assert_eq!(bins[9].count, 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn open_ended_collects_tail() {
        let mut h = Histogram::paper_figure2_bins();
        h.record(50.0);
        h.record(1500.0);
        h.record(2500.0);
        h.record(9999.0);
        h.record(45_000.0);
        let bins = h.bins();
        // 13 bins: 10 x 100ms, 1000-1999, 2000-2999, >=3000
        assert_eq!(bins.len(), 13);
        assert_eq!(bins[0].count, 1);
        assert_eq!(bins[10].count, 1);
        assert_eq!(bins[11].count, 1);
        assert_eq!(bins[12].count, 2);
        assert_eq!(h.overflow(), 0);
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn figure2_labels_match_paper_axis() {
        let h = Histogram::paper_figure2_bins();
        let bins = h.bins();
        assert_eq!(bins[0].label(), "0-99");
        assert_eq!(bins[9].label(), "900-999");
        assert_eq!(bins[10].label(), "1000-1999");
        assert_eq!(bins[12].label(), ">=3000");
    }

    #[test]
    fn fraction_above_threshold() {
        let mut h = Histogram::paper_figure2_bins();
        for _ in 0..996 {
            h.record(80.0);
        }
        for _ in 0..4 {
            h.record(2_000.0);
        }
        let frac = h.fraction_at_or_above(1000.0);
        assert!((frac - 0.004).abs() < 1e-9);
    }

    #[test]
    fn nan_counts_as_underflow() {
        let mut h = Histogram::linear(0.0, 1.0, 2).unwrap();
        h.record(f64::NAN);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.total(), 1);
    }

    #[test]
    fn to_table_lists_every_bin() {
        let mut h = Histogram::linear(0.0, 4.0, 4).unwrap();
        h.record_all([0.5, 1.5, 2.5, 3.5]);
        let table = h.to_table();
        assert_eq!(table.lines().count(), 4);
    }

    proptest! {
        #[test]
        fn total_equals_number_of_records(
            values in proptest::collection::vec(-10.0f64..5000.0, 0..500)
        ) {
            let mut h = Histogram::paper_figure2_bins();
            h.record_all(values.iter().cloned());
            prop_assert_eq!(h.total(), values.len() as u64);
        }

        #[test]
        fn logarithmic_edges_cover_range(
            lo in 0.1f64..10.0,
            span in 1.5f64..1000.0,
            bins in 1usize..50,
        ) {
            let hi = lo * span;
            let h = Histogram::logarithmic(lo, hi, bins).unwrap();
            let b = h.bins();
            prop_assert!((b[0].lo - lo).abs() < 1e-6 * lo);
            prop_assert!((b[b.len() - 1].hi - hi).abs() < 1e-6 * hi);
        }
    }
}
