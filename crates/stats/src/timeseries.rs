//! Fixed-width time binning of metric streams.
//!
//! Figure 14 of the paper plots the median relative error and the mean
//! instability per ten-minute interval over a four-hour run. [`TimeBinner`]
//! accumulates `(timestamp, value)` samples into fixed-width bins and reports
//! a chosen per-bin statistic.

use crate::percentile::percentile;
use crate::StatsError;

/// Which statistic to report per bin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinStatistic {
    /// Arithmetic mean of the samples in the bin.
    Mean,
    /// Median of the samples in the bin.
    Median,
    /// An arbitrary percentile of the samples in the bin (0–100).
    Percentile(u8),
    /// Sum of the samples in the bin (useful for "aggregate coordinate change
    /// per interval").
    Sum,
    /// Number of samples in the bin.
    Count,
}

/// One reported bin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeBin {
    /// Start of the bin (seconds).
    pub start: f64,
    /// End of the bin (seconds, exclusive).
    pub end: f64,
    /// Value of the requested statistic (`None` when the bin is empty and the
    /// statistic is undefined for empty input).
    pub value: Option<f64>,
    /// Number of samples in the bin.
    pub count: usize,
}

/// Accumulates `(time, value)` samples into fixed-width bins.
///
/// # Examples
///
/// ```
/// use nc_stats::timeseries::{BinStatistic, TimeBinner};
///
/// let mut binner = TimeBinner::new(0.0, 60.0).unwrap();
/// binner.record(10.0, 1.0);
/// binner.record(20.0, 3.0);
/// binner.record(70.0, 10.0);
/// let bins = binner.bins(BinStatistic::Mean);
/// assert_eq!(bins.len(), 2);
/// assert_eq!(bins[0].value, Some(2.0));
/// assert_eq!(bins[1].value, Some(10.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimeBinner {
    origin: f64,
    width: f64,
    samples: Vec<Vec<f64>>,
}

impl TimeBinner {
    /// Creates a binner whose first bin starts at `origin` and whose bins are
    /// `width` seconds wide.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] when `width` is not a
    /// positive finite number or `origin` is not finite.
    pub fn new(origin: f64, width: f64) -> Result<Self, StatsError> {
        if !width.is_finite() || width <= 0.0 || !origin.is_finite() {
            return Err(StatsError::InvalidParameter("bin width must be positive"));
        }
        Ok(TimeBinner {
            origin,
            width,
            samples: Vec::new(),
        })
    }

    /// Records `value` at time `time` (seconds). Samples before the origin
    /// are silently dropped; samples extend the bin list as needed.
    pub fn record(&mut self, time: f64, value: f64) {
        if !time.is_finite() || !value.is_finite() || time < self.origin {
            return;
        }
        let idx = ((time - self.origin) / self.width).floor() as usize;
        if idx >= self.samples.len() {
            self.samples.resize_with(idx + 1, Vec::new);
        }
        self.samples[idx].push(value);
    }

    /// Number of (possibly empty) bins spanned so far.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Reports every bin with the requested statistic.
    pub fn bins(&self, stat: BinStatistic) -> Vec<TimeBin> {
        self.samples
            .iter()
            .enumerate()
            .map(|(i, values)| {
                let start = self.origin + i as f64 * self.width;
                let end = start + self.width;
                let value = match stat {
                    BinStatistic::Mean => {
                        if values.is_empty() {
                            None
                        } else {
                            Some(values.iter().sum::<f64>() / values.len() as f64)
                        }
                    }
                    BinStatistic::Median => percentile(values, 50.0).ok(),
                    BinStatistic::Percentile(p) => percentile(values, f64::from(p)).ok(),
                    // Folded from +0.0: `Iterator::<f64>::sum` starts at
                    // −0.0, which an empty bin would report and a table
                    // print as `-0.000`.
                    BinStatistic::Sum => Some(values.iter().fold(0.0, |total, v| total + v)),
                    BinStatistic::Count => Some(values.len() as f64),
                };
                TimeBin {
                    start,
                    end,
                    value,
                    count: values.len(),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rejects_bad_width() {
        assert!(TimeBinner::new(0.0, 0.0).is_err());
        assert!(TimeBinner::new(0.0, -1.0).is_err());
        assert!(TimeBinner::new(0.0, f64::NAN).is_err());
        assert!(TimeBinner::new(f64::INFINITY, 1.0).is_err());
    }

    #[test]
    fn drops_samples_before_origin() {
        let mut b = TimeBinner::new(100.0, 10.0).unwrap();
        b.record(50.0, 1.0);
        assert!(b.is_empty());
        b.record(105.0, 2.0);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn median_and_percentile_statistics() {
        let mut b = TimeBinner::new(0.0, 10.0).unwrap();
        for (t, v) in [(1.0, 1.0), (2.0, 2.0), (3.0, 100.0)] {
            b.record(t, v);
        }
        let med = b.bins(BinStatistic::Median);
        assert_eq!(med[0].value, Some(2.0));
        let p95 = b.bins(BinStatistic::Percentile(0));
        assert_eq!(p95[0].value, Some(1.0));
    }

    #[test]
    fn empty_intermediate_bins_are_reported() {
        let mut b = TimeBinner::new(0.0, 10.0).unwrap();
        b.record(5.0, 1.0);
        b.record(35.0, 2.0);
        let bins = b.bins(BinStatistic::Mean);
        assert_eq!(bins.len(), 4);
        assert_eq!(bins[1].value, None);
        assert_eq!(bins[1].count, 0);
        assert_eq!(bins[3].value, Some(2.0));
    }

    #[test]
    fn sum_and_count_statistics() {
        let mut b = TimeBinner::new(0.0, 60.0).unwrap();
        b.record(0.0, 2.0);
        b.record(59.0, 3.0);
        let sums = b.bins(BinStatistic::Sum);
        assert_eq!(sums[0].value, Some(5.0));
        let counts = b.bins(BinStatistic::Count);
        assert_eq!(counts[0].value, Some(2.0));
    }

    #[test]
    fn an_empty_bin_sums_to_positive_zero() {
        let mut b = TimeBinner::new(0.0, 10.0).unwrap();
        b.record(25.0, 1.0);
        let sums = b.bins(BinStatistic::Sum);
        assert_eq!(sums[0].count, 0);
        assert_eq!(sums[0].value.map(f64::to_bits), Some(0.0f64.to_bits()));
        assert_eq!(sums[2].value, Some(1.0));
    }

    #[test]
    fn bin_edges_are_contiguous() {
        let mut b = TimeBinner::new(10.0, 5.0).unwrap();
        b.record(12.0, 1.0);
        b.record(27.0, 1.0);
        let bins = b.bins(BinStatistic::Count);
        for w in bins.windows(2) {
            assert!((w[0].end - w[1].start).abs() < 1e-12);
        }
        assert_eq!(bins[0].start, 10.0);
    }

    proptest! {
        #[test]
        fn every_sample_lands_in_exactly_one_bin(
            times in proptest::collection::vec(0.0f64..1000.0, 1..200),
        ) {
            let mut b = TimeBinner::new(0.0, 37.0).unwrap();
            for &t in &times {
                b.record(t, 1.0);
            }
            let total: usize = b.bins(BinStatistic::Count).iter().map(|bin| bin.count).sum();
            prop_assert_eq!(total, times.len());
        }

        #[test]
        fn sample_falls_within_its_bin_bounds(
            t in 0.0f64..1e4,
            width in 0.5f64..500.0,
        ) {
            let mut b = TimeBinner::new(0.0, width).unwrap();
            b.record(t, 1.0);
            let bins = b.bins(BinStatistic::Count);
            let bin = bins.iter().find(|bin| bin.count == 1).unwrap();
            prop_assert!(bin.start <= t && t < bin.end + 1e-9);
        }
    }
}
