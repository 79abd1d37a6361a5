//! Probability distributions built on top of a [`rand::Rng`].
//!
//! The workload models need normal, lognormal, Pareto and exponential
//! variates. Rather than adding `rand_distr` to the dependency set, the few
//! samplers required are implemented here (Box–Muller for the normal family,
//! inverse-transform for Pareto and exponential).
//!
//! Every sampler is `#[inline]`. They are called from tight loops — the
//! topology generator draws half a million normals per 1,024-node set-up —
//! and without the hint, whether a loop gets its sampler inlined depends on
//! how the compiler happens to partition this crate into codegen units: an
//! edit to an unrelated module has moved set-up time by a third.

use rand::Rng;

/// Draws a standard normal variate using the Box–Muller transform.
#[inline]
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid u1 == 0 which would take ln(0).
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Draws a normal variate with the given mean and standard deviation.
///
/// # Panics
///
/// Panics when `std_dev` is negative or either parameter is non-finite.
#[inline]
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std_dev: f64) -> f64 {
    assert!(mean.is_finite() && std_dev.is_finite() && std_dev >= 0.0);
    mean + std_dev * standard_normal(rng)
}

/// Draws a lognormal variate: `exp(N(mu, sigma))`.
///
/// # Panics
///
/// Panics when `sigma` is negative or either parameter is non-finite.
#[inline]
pub fn lognormal<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    assert!(mu.is_finite() && sigma.is_finite() && sigma >= 0.0);
    (mu + sigma * standard_normal(rng)).exp()
}

/// Draws a Pareto variate with the given scale (minimum value) and shape
/// `alpha` via inverse-transform sampling. Smaller `alpha` produces heavier
/// tails; `alpha ≤ 1` has infinite mean, which is exactly the kind of tail
/// the raw latency streams exhibit.
///
/// # Panics
///
/// Panics when `scale` or `alpha` is not a positive finite number.
#[inline]
pub fn pareto<R: Rng + ?Sized>(rng: &mut R, scale: f64, alpha: f64) -> f64 {
    assert!(scale.is_finite() && scale > 0.0, "scale must be positive");
    assert!(alpha.is_finite() && alpha > 0.0, "alpha must be positive");
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    scale * u.powf(-1.0 / alpha)
}

/// Draws an exponential variate with rate `lambda` (mean `1 / lambda`).
///
/// # Panics
///
/// Panics when `lambda` is not a positive finite number.
#[inline]
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> f64 {
    assert!(
        lambda.is_finite() && lambda > 0.0,
        "lambda must be positive"
    );
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    -u.ln() / lambda
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(12345)
    }

    #[test]
    fn standard_normal_has_roughly_zero_mean_unit_variance() {
        let mut r = rng();
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "variance {var}");
    }

    #[test]
    fn normal_respects_mean_and_std() {
        let mut r = rng();
        let samples: Vec<f64> = (0..20_000).map(|_| normal(&mut r, 50.0, 5.0)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((mean - 50.0).abs() < 0.5);
    }

    #[test]
    fn lognormal_is_positive_and_skewed() {
        let mut r = rng();
        let samples: Vec<f64> = (0..10_000).map(|_| lognormal(&mut r, 0.0, 1.0)).collect();
        assert!(samples.iter().all(|&v| v > 0.0));
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[sorted.len() / 2];
        assert!(
            mean > median,
            "lognormal is right-skewed: mean {mean} median {median}"
        );
    }

    #[test]
    fn pareto_never_below_scale_and_has_heavy_tail() {
        let mut r = rng();
        let samples: Vec<f64> = (0..50_000).map(|_| pareto(&mut r, 100.0, 1.0)).collect();
        assert!(samples.iter().all(|&v| v >= 100.0));
        // With alpha = 1 roughly 1% of samples exceed 100x the scale.
        let extreme = samples.iter().filter(|&&v| v > 10_000.0).count();
        assert!(
            extreme > 100,
            "expected a heavy tail, got {extreme} extreme samples"
        );
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut r = rng();
        let samples: Vec<f64> = (0..20_000).map(|_| exponential(&mut r, 0.5)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
        assert!(samples.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn samplers_are_deterministic_for_a_seed() {
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            assert_eq!(pareto(&mut a, 1.0, 1.2), pareto(&mut b, 1.0, 1.2));
        }
    }

    #[test]
    #[should_panic(expected = "alpha must be positive")]
    fn pareto_rejects_bad_alpha() {
        let mut r = rng();
        let _ = pareto(&mut r, 1.0, 0.0);
    }
}
