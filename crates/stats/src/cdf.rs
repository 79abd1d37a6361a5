//! Empirical cumulative distribution functions.
//!
//! Figures 5, 11 and 13 of the paper report results as CDFs over the per-node
//! distributions of relative error and instability. [`Ecdf`] stores a sample,
//! evaluates the empirical CDF at arbitrary points, inverts it (quantiles) and
//! renders the evenly spaced series used to regenerate those figures.

use crate::percentile::percentile_of_sorted;
use crate::StatsError;

/// Empirical CDF over a finite sample.
///
/// # Examples
///
/// ```
/// use nc_stats::Ecdf;
///
/// let cdf = Ecdf::new(vec![1.0, 2.0, 3.0, 4.0]).unwrap();
/// assert_eq!(cdf.eval(0.5), 0.0);
/// assert_eq!(cdf.eval(2.0), 0.5);
/// assert_eq!(cdf.eval(10.0), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds the ECDF from a sample. The sample is sorted internally.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] for an empty sample and
    /// [`StatsError::InvalidParameter`] when the sample contains NaN.
    pub fn new(mut sample: Vec<f64>) -> Result<Self, StatsError> {
        if sample.is_empty() {
            return Err(StatsError::EmptyInput);
        }
        if sample.iter().any(|v| v.is_nan()) {
            return Err(StatsError::InvalidParameter("sample contains NaN"));
        }
        sample.sort_by(|a, b| a.partial_cmp(b).expect("NaN filtered above"));
        Ok(Ecdf { sorted: sample })
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always false: construction rejects empty samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of observations `<= x`.
    pub fn eval(&self, x: f64) -> f64 {
        let n = self.sorted.len();
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / n as f64
    }

    /// The `q`-quantile (`0.0..=1.0`) of the sample, linearly interpolated.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] when `q` is outside
    /// `0.0..=1.0`.
    pub fn quantile(&self, q: f64) -> Result<f64, StatsError> {
        if !(0.0..=1.0).contains(&q) {
            return Err(StatsError::InvalidParameter("quantile must be in 0..=1"));
        }
        percentile_of_sorted(&self.sorted, q * 100.0)
    }

    /// Minimum of the sample.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Maximum of the sample.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("non-empty by construction")
    }

    /// Median of the sample.
    pub fn median(&self) -> f64 {
        self.quantile(0.5).expect("0.5 is in range")
    }

    /// Returns `(value, cumulative_fraction)` pairs for every observation —
    /// the staircase representation used to plot the figure CDFs.
    pub fn points(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len() as f64;
        self.sorted
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, (i + 1) as f64 / n))
            .collect()
    }

    /// Samples the CDF at `count` evenly spaced cumulative fractions
    /// (excluding 0), returning `(quantile_value, fraction)` pairs. Useful for
    /// compact textual figure output.
    pub fn sampled_points(&self, count: usize) -> Vec<(f64, f64)> {
        if count == 0 {
            return Vec::new();
        }
        (1..=count)
            .map(|i| {
                let q = i as f64 / count as f64;
                (self.quantile(q).expect("q in range"), q)
            })
            .collect()
    }

    /// Fraction of the sample strictly greater than `x` — used for statements
    /// such as "14% of the nodes experienced a 95th-percentile relative error
    /// greater than one" (Figure 13).
    pub fn fraction_above(&self, x: f64) -> f64 {
        1.0 - self.eval(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_sample_is_error() {
        assert_eq!(Ecdf::new(vec![]), Err(StatsError::EmptyInput));
    }

    #[test]
    fn nan_sample_is_error() {
        assert!(Ecdf::new(vec![1.0, f64::NAN]).is_err());
    }

    #[test]
    fn eval_step_values() {
        let cdf = Ecdf::new(vec![3.0, 1.0, 2.0]).unwrap();
        assert_eq!(cdf.eval(0.0), 0.0);
        assert!((cdf.eval(1.0) - 1.0 / 3.0).abs() < 1e-12);
        assert!((cdf.eval(2.5) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(cdf.eval(3.0), 1.0);
    }

    #[test]
    fn quantile_bounds() {
        let cdf = Ecdf::new(vec![5.0, 10.0, 15.0]).unwrap();
        assert_eq!(cdf.quantile(0.0).unwrap(), 5.0);
        assert_eq!(cdf.quantile(1.0).unwrap(), 15.0);
        assert_eq!(cdf.quantile(0.5).unwrap(), 10.0);
        assert!(cdf.quantile(1.5).is_err());
    }

    #[test]
    fn points_are_monotone_staircase() {
        let cdf = Ecdf::new(vec![4.0, 2.0, 9.0, 7.0]).unwrap();
        let pts = cdf.points();
        assert_eq!(pts.len(), 4);
        assert_eq!(pts.last().unwrap().1, 1.0);
        for w in pts.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 < w[1].1);
        }
    }

    #[test]
    fn fraction_above_matches_eval() {
        let cdf = Ecdf::new(vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!((cdf.fraction_above(2.0) - 0.5).abs() < 1e-12);
        assert_eq!(cdf.fraction_above(100.0), 0.0);
        assert_eq!(cdf.fraction_above(0.0), 1.0);
    }

    #[test]
    fn sampled_points_has_requested_len() {
        let cdf = Ecdf::new((1..=100).map(|i| i as f64).collect()).unwrap();
        assert_eq!(cdf.sampled_points(10).len(), 10);
        assert!(cdf.sampled_points(0).is_empty());
    }

    proptest! {
        #[test]
        fn eval_is_monotone(
            sample in proptest::collection::vec(0.0f64..1e4, 1..200),
            x1 in 0.0f64..1e4,
            x2 in 0.0f64..1e4,
        ) {
            let cdf = Ecdf::new(sample).unwrap();
            let (lo, hi) = if x1 <= x2 { (x1, x2) } else { (x2, x1) };
            prop_assert!(cdf.eval(lo) <= cdf.eval(hi));
        }

        #[test]
        fn eval_is_bounded(
            sample in proptest::collection::vec(0.0f64..1e4, 1..200),
            x in -1e4f64..2e4,
        ) {
            let cdf = Ecdf::new(sample).unwrap();
            let v = cdf.eval(x);
            prop_assert!((0.0..=1.0).contains(&v));
        }

        #[test]
        fn quantile_roundtrip(
            sample in proptest::collection::vec(0.0f64..1e4, 2..200),
            q in 0.0f64..=1.0,
        ) {
            let cdf = Ecdf::new(sample).unwrap();
            let v = cdf.quantile(q).unwrap();
            prop_assert!(v >= cdf.min() - 1e-9);
            prop_assert!(v <= cdf.max() + 1e-9);
        }
    }
}
