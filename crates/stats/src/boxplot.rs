//! Tukey box-plot summaries.
//!
//! Figure 4 of the paper shows, for each moving-percentile history size, a
//! box-plot of the per-link prediction relative error across all links in the
//! trace. [`BoxplotSummary`] computes the five-number summary plus the
//! conventional 1.5 × IQR whiskers and the outliers beyond them, which is
//! enough to regenerate that figure textually (median, quartiles, whisker
//! extent, number and maximum of outliers).

use crate::percentile::percentile_of_sorted;
use crate::StatsError;

/// Five-number summary with Tukey whiskers and outliers.
#[derive(Debug, Clone, PartialEq)]
pub struct BoxplotSummary {
    /// Minimum observation.
    pub min: f64,
    /// First quartile (25th percentile).
    pub q1: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// Third quartile (75th percentile).
    pub q3: f64,
    /// Maximum observation.
    pub max: f64,
    /// Lower whisker: smallest observation `>= q1 - 1.5*iqr`.
    pub whisker_lo: f64,
    /// Upper whisker: largest observation `<= q3 + 1.5*iqr`.
    pub whisker_hi: f64,
    /// Observations outside the whiskers, in ascending order.
    pub outliers: Vec<f64>,
    /// Number of observations summarised.
    pub count: usize,
}

impl BoxplotSummary {
    /// Computes the summary from a sample.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] when `data` is empty and
    /// [`StatsError::InvalidParameter`] when it contains NaN.
    pub fn from_samples(data: &[f64]) -> Result<Self, StatsError> {
        if data.is_empty() {
            return Err(StatsError::EmptyInput);
        }
        if data.iter().any(|v| v.is_nan()) {
            return Err(StatsError::InvalidParameter("data contains NaN"));
        }
        let mut sorted = data.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN filtered above"));
        let q1 = percentile_of_sorted(&sorted, 25.0)?;
        let median = percentile_of_sorted(&sorted, 50.0)?;
        let q3 = percentile_of_sorted(&sorted, 75.0)?;
        let iqr = q3 - q1;
        let lo_fence = q1 - 1.5 * iqr;
        let hi_fence = q3 + 1.5 * iqr;
        let whisker_lo = sorted
            .iter()
            .cloned()
            .find(|&v| v >= lo_fence)
            .unwrap_or(sorted[0]);
        let whisker_hi = sorted
            .iter()
            .cloned()
            .rev()
            .find(|&v| v <= hi_fence)
            .unwrap_or(*sorted.last().expect("non-empty"));
        let outliers = sorted
            .iter()
            .cloned()
            .filter(|&v| v < lo_fence || v > hi_fence)
            .collect();
        Ok(BoxplotSummary {
            min: sorted[0],
            q1,
            median,
            q3,
            max: *sorted.last().expect("non-empty"),
            whisker_lo,
            whisker_hi,
            outliers,
            count: sorted.len(),
        })
    }

    /// Interquartile range (`q3 - q1`).
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }

    /// Number of outliers beyond the whiskers.
    pub fn outlier_count(&self) -> usize {
        self.outliers.len()
    }

    /// The largest outlier, if any (Figure 4 annotates the maximum outlier of
    /// the short-history box-plots, e.g. "Max. 61").
    pub fn max_outlier(&self) -> Option<f64> {
        self.outliers.last().copied()
    }

    /// One-line textual rendering used by the experiment harness.
    pub fn to_row(&self) -> String {
        format!(
            "min={:.3} q1={:.3} med={:.3} q3={:.3} max={:.3} whiskers=[{:.3},{:.3}] outliers={} max_outlier={}",
            self.min,
            self.q1,
            self.median,
            self.q3,
            self.max,
            self.whisker_lo,
            self.whisker_hi,
            self.outlier_count(),
            self.max_outlier().map(|v| format!("{v:.2}")).unwrap_or_else(|| "-".to_string()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_is_error() {
        assert_eq!(
            BoxplotSummary::from_samples(&[]),
            Err(StatsError::EmptyInput)
        );
    }

    #[test]
    fn nan_is_error() {
        assert!(BoxplotSummary::from_samples(&[1.0, f64::NAN]).is_err());
    }

    #[test]
    fn symmetric_data_has_symmetric_quartiles() {
        let data: Vec<f64> = (1..=9).map(|i| i as f64).collect();
        let s = BoxplotSummary::from_samples(&data).unwrap();
        assert_eq!(s.median, 5.0);
        assert_eq!(s.q1, 3.0);
        assert_eq!(s.q3, 7.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 9.0);
        assert!(s.outliers.is_empty());
        assert_eq!(s.whisker_lo, 1.0);
        assert_eq!(s.whisker_hi, 9.0);
    }

    #[test]
    fn detects_heavy_tail_outliers() {
        let mut data = vec![0.1; 40];
        data.extend_from_slice(&[15.0, 61.0]);
        let s = BoxplotSummary::from_samples(&data).unwrap();
        assert_eq!(s.outlier_count(), 2);
        assert_eq!(s.max_outlier(), Some(61.0));
        assert_eq!(s.max, 61.0);
        // Whiskers exclude the outliers.
        assert!(s.whisker_hi < 15.0);
    }

    #[test]
    fn single_element_summary() {
        let s = BoxplotSummary::from_samples(&[3.0]).unwrap();
        assert_eq!(s.min, 3.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(s.count, 1);
        assert!(s.outliers.is_empty());
    }

    #[test]
    fn to_row_contains_median() {
        let s = BoxplotSummary::from_samples(&[1.0, 2.0, 3.0]).unwrap();
        assert!(s.to_row().contains("med=2.000"));
    }

    proptest! {
        #[test]
        fn ordering_invariants(data in proptest::collection::vec(0.0f64..1e5, 1..300)) {
            let s = BoxplotSummary::from_samples(&data).unwrap();
            prop_assert!(s.min <= s.q1 + 1e-9);
            prop_assert!(s.q1 <= s.median + 1e-9);
            prop_assert!(s.median <= s.q3 + 1e-9);
            prop_assert!(s.q3 <= s.max + 1e-9);
            prop_assert!(s.whisker_lo >= s.min - 1e-9);
            prop_assert!(s.whisker_hi <= s.max + 1e-9);
            prop_assert_eq!(s.count, data.len());
        }

        #[test]
        fn outliers_are_outside_whiskers(data in proptest::collection::vec(0.0f64..1e3, 4..200)) {
            let s = BoxplotSummary::from_samples(&data).unwrap();
            for &o in &s.outliers {
                prop_assert!(o < s.whisker_lo || o > s.whisker_hi);
            }
        }
    }
}
