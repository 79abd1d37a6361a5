//! Wilcoxon rank-sum (Mann–Whitney U) two-sample test.
//!
//! The change-detection scheme the paper borrows from Kifer, Ben-David and
//! Gehrke compares the start window `W_s` and current window `W_c` with a
//! standard two-sample test; rank-sum is the example the paper names for
//! one-dimensional data. The coordinate heuristics themselves use the
//! multi-dimensional ENERGY and RELATIVE statistics, but the rank-sum test is
//! provided both for completeness and because it is useful for detecting
//! change in one-dimensional latency streams (e.g. deciding that a link's
//! underlying latency shifted after a route change).

use crate::StatsError;

/// Outcome of a rank-sum test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankSumOutcome {
    /// The Mann–Whitney U statistic for the first sample.
    pub u_statistic: f64,
    /// The standard normal z-score of the U statistic (large-sample
    /// approximation with tie correction).
    pub z_score: f64,
    /// Two-sided p-value from the normal approximation.
    pub p_value: f64,
}

impl RankSumOutcome {
    /// True when the two samples differ at the given significance level
    /// (e.g. `0.05`).
    pub fn is_significant(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

/// Standard normal cumulative distribution function via the complementary
/// error function (Abramowitz–Stegun 7.1.26 polynomial approximation,
/// accurate to ~1.5e-7 which is ample for change detection).
fn normal_cdf(z: f64) -> f64 {
    let x = z / std::f64::consts::SQRT_2;
    0.5 * (1.0 + erf(x))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let a1 = 0.254829592;
    let a2 = -0.284496736;
    let a3 = 1.421413741;
    let a4 = -1.453152027;
    let a5 = 1.061405429;
    let p = 0.3275911;
    let t = 1.0 / (1.0 + p * x);
    let y = 1.0 - (((((a5 * t + a4) * t) + a3) * t + a2) * t + a1) * t * (-x * x).exp();
    sign * y
}

/// Performs the Wilcoxon rank-sum test on two samples.
///
/// Uses the normal approximation with tie correction, which is accurate for
/// the window sizes the paper uses (≥ 8 observations per window).
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] when either sample is empty and
/// [`StatsError::InvalidParameter`] when a sample contains NaN.
///
/// # Examples
///
/// ```
/// let before: Vec<f64> = (0..30).map(|i| 80.0 + (i % 5) as f64).collect();
/// let after: Vec<f64> = (0..30).map(|i| 140.0 + (i % 5) as f64).collect();
/// let outcome = nc_stats::rank_sum_test(&before, &after).unwrap();
/// assert!(outcome.is_significant(0.01), "a 60 ms level shift is detected");
/// ```
pub fn rank_sum_test(a: &[f64], b: &[f64]) -> Result<RankSumOutcome, StatsError> {
    if a.is_empty() || b.is_empty() {
        return Err(StatsError::EmptyInput);
    }
    if a.iter().chain(b.iter()).any(|v| v.is_nan()) {
        return Err(StatsError::InvalidParameter("samples contain NaN"));
    }
    let n1 = a.len() as f64;
    let n2 = b.len() as f64;
    let n = n1 + n2;

    // Pool, remembering origin, and rank with mid-ranks for ties.
    let mut pooled: Vec<(f64, bool)> = a
        .iter()
        .map(|&v| (v, true))
        .chain(b.iter().map(|&v| (v, false)))
        .collect();
    pooled.sort_by(|x, y| x.0.partial_cmp(&y.0).expect("NaN filtered above"));

    let mut ranks = vec![0.0f64; pooled.len()];
    let mut tie_correction = 0.0;
    let mut i = 0;
    while i < pooled.len() {
        let mut j = i;
        while j + 1 < pooled.len() && pooled[j + 1].0 == pooled[i].0 {
            j += 1;
        }
        let tied = (j - i + 1) as f64;
        let rank = (i + j) as f64 / 2.0 + 1.0;
        for r in ranks.iter_mut().take(j + 1).skip(i) {
            *r = rank;
        }
        if tied > 1.0 {
            tie_correction += tied * tied * tied - tied;
        }
        i = j + 1;
    }

    let r1: f64 = pooled
        .iter()
        .zip(ranks.iter())
        .filter(|((_, is_a), _)| *is_a)
        .map(|(_, &r)| r)
        .sum();
    let u1 = r1 - n1 * (n1 + 1.0) / 2.0;

    let mean_u = n1 * n2 / 2.0;
    let var_u = n1 * n2 / 12.0 * ((n + 1.0) - tie_correction / (n * (n - 1.0)));
    let z = if var_u <= 0.0 {
        0.0
    } else {
        // Continuity correction toward the mean.
        let adjustment = if u1 > mean_u {
            -0.5
        } else if u1 < mean_u {
            0.5
        } else {
            0.0
        };
        (u1 - mean_u + adjustment) / var_u.sqrt()
    };
    let p = 2.0 * (1.0 - normal_cdf(z.abs()));
    Ok(RankSumOutcome {
        u_statistic: u1,
        z_score: z,
        p_value: p.clamp(0.0, 1.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_samples_are_errors() {
        assert!(rank_sum_test(&[], &[1.0]).is_err());
        assert!(rank_sum_test(&[1.0], &[]).is_err());
    }

    #[test]
    fn nan_is_error() {
        assert!(rank_sum_test(&[f64::NAN], &[1.0]).is_err());
    }

    #[test]
    fn identical_distributions_not_significant() {
        let a: Vec<f64> = (0..40).map(|i| (i % 10) as f64).collect();
        let b: Vec<f64> = (0..40).map(|i| ((i + 3) % 10) as f64).collect();
        let outcome = rank_sum_test(&a, &b).unwrap();
        assert!(!outcome.is_significant(0.01), "p={}", outcome.p_value);
    }

    #[test]
    fn shifted_distributions_are_significant() {
        let a: Vec<f64> = (0..50).map(|i| 10.0 + (i % 7) as f64).collect();
        let b: Vec<f64> = (0..50).map(|i| 30.0 + (i % 7) as f64).collect();
        let outcome = rank_sum_test(&a, &b).unwrap();
        assert!(outcome.is_significant(0.001));
        assert!(outcome.z_score.abs() > 3.0);
    }

    #[test]
    fn all_equal_values_yield_zero_z() {
        let a = vec![5.0; 20];
        let b = vec![5.0; 20];
        let outcome = rank_sum_test(&a, &b).unwrap();
        assert!(outcome.z_score.abs() < 1e-9);
        assert!(outcome.p_value > 0.9);
    }

    #[test]
    fn erf_matches_known_values() {
        assert!((erf(0.0)).abs() < 1e-6);
        assert!((erf(1.0) - 0.8427007929).abs() < 1e-5);
        assert!((erf(-1.0) + 0.8427007929).abs() < 1e-5);
        assert!((erf(2.0) - 0.9953222650).abs() < 1e-5);
    }

    #[test]
    fn normal_cdf_is_monotone_and_bounded() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-9);
        assert!(normal_cdf(-5.0) < 1e-4);
        assert!(normal_cdf(5.0) > 1.0 - 1e-4);
    }

    proptest! {
        #[test]
        fn p_value_is_in_unit_interval(
            a in proptest::collection::vec(0.0f64..100.0, 2..50),
            b in proptest::collection::vec(0.0f64..100.0, 2..50),
        ) {
            let outcome = rank_sum_test(&a, &b).unwrap();
            prop_assert!((0.0..=1.0).contains(&outcome.p_value));
        }

        #[test]
        fn symmetric_in_samples(
            a in proptest::collection::vec(0.0f64..100.0, 2..40),
            b in proptest::collection::vec(0.0f64..100.0, 2..40),
        ) {
            let ab = rank_sum_test(&a, &b).unwrap();
            let ba = rank_sum_test(&b, &a).unwrap();
            prop_assert!((ab.p_value - ba.p_value).abs() < 1e-6);
            prop_assert!((ab.z_score + ba.z_score).abs() < 1e-6);
        }
    }
}
