//! Energy distance between two multi-dimensional samples (Székely & Rizzo).
//!
//! The ENERGY application-update heuristic (paper §V-B) declares a
//! significant coordinate change when the energy distance between the start
//! window `W_s` and the current window `W_c` of recent system-level
//! coordinates exceeds a threshold. The statistic over finite sets
//! `A = {a_1..a_n1}` and `B = {b_1..b_n2}` is
//!
//! ```text
//! e(A,B) = (n1*n2)/(n1+n2) * ( 2/(n1*n2) * Σ_i Σ_j ||a_i - b_j||
//!                              - 1/n1²   * Σ_i Σ_j ||a_i - a_j||
//!                              - 1/n2²   * Σ_i Σ_j ||b_i - b_j|| )
//! ```
//!
//! which is non-negative and zero when the two samples have identical
//! empirical distributions.

use crate::StatsError;

/// Euclidean distance between two equal-length points.
fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// Computes the energy distance between two samples of points expressed as
/// `f64` slices (each point one slice, all the same dimension).
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] when either sample is empty and
/// [`StatsError::InvalidParameter`] when points have inconsistent dimensions.
///
/// # Examples
///
/// ```
/// let a = vec![vec![0.0, 0.0], vec![1.0, 0.0]];
/// let b = vec![vec![10.0, 0.0], vec![11.0, 0.0]];
/// let e = nc_stats::energy_distance(&a, &b).unwrap();
/// assert!(e > 5.0, "distant clusters have large energy distance");
/// ```
pub fn energy_distance(a: &[Vec<f64>], b: &[Vec<f64>]) -> Result<f64, StatsError> {
    let a_refs: Vec<&[f64]> = a.iter().map(|p| p.as_slice()).collect();
    let b_refs: Vec<&[f64]> = b.iter().map(|p| p.as_slice()).collect();
    if let (Some(first_a), Some(first_b)) = (a_refs.first(), b_refs.first()) {
        let dim = first_a.len();
        if first_b.len() != dim
            || a_refs.iter().any(|p| p.len() != dim)
            || b_refs.iter().any(|p| p.len() != dim)
        {
            return Err(StatsError::InvalidParameter(
                "all points must share one dimension",
            ));
        }
    }
    energy_distance_by(&a_refs, &b_refs, |x, y| euclidean(x, y))
}

/// Computes the energy distance between two samples of arbitrary items given
/// a caller-supplied distance function.
///
/// This is the form used by the coordinate crates, where the items are
/// `Coordinate` values and the distance is the coordinate-space distance
/// (possibly including heights).
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] when either sample is empty.
pub fn energy_distance_by<T, F>(a: &[T], b: &[T], dist: F) -> Result<f64, StatsError>
where
    F: Fn(&T, &T) -> f64,
{
    if a.is_empty() || b.is_empty() {
        return Err(StatsError::EmptyInput);
    }
    let cross = cross_sum_by(a, b, &dist);
    let within_a = within_sum_by(a, &dist);
    let within_b = within_sum_by(b, &dist);
    Ok(energy_from_sums(
        a.len(),
        b.len(),
        cross,
        within_a,
        within_b,
    ))
}

/// The within-sample pairwise sum `Σ_{i≠j} d(x_i, x_j)` over one sample, in
/// the fixed `(i, j)` iteration order [`energy_distance_by`] uses.
///
/// Exposed, with [`cross_sum_by`], [`slide_delta_by`] and
/// [`energy_from_sums`], so a caller whose samples change one element at a
/// time (the ENERGY heuristic's windows, §V-B) can keep the three sums and
/// update them instead of recomputing the statistic.
pub fn within_sum_by<T, F>(sample: &[T], dist: F) -> f64
where
    F: Fn(&T, &T) -> f64,
{
    let n = sample.len();
    // Four independent accumulator lanes break the loop-carried addition
    // dependency (a single `sum +=` chain serialises on the FPU's add
    // latency and dominates the whole statistic for 32-element windows).
    // Lane assignment is a fixed function of the pair index, so the result
    // is deterministic — it differs from a single-chain sum only in
    // floating-point association (last-ulp).
    let mut lanes = [0.0f64; 4];
    let mut pair = 0usize;
    for i in 0..n {
        for j in 0..n {
            if i != j {
                lanes[pair & 3] += dist(&sample[i], &sample[j]);
                pair += 1;
            }
        }
    }
    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
}

/// The between-sample sum `Σ_i Σ_j d(a_i, b_j)`, in the fixed `(i, j)`
/// iteration order [`energy_distance_by`] uses.
pub fn cross_sum_by<T, F>(a: &[T], b: &[T], dist: F) -> f64
where
    F: Fn(&T, &T) -> f64,
{
    // Same four-lane accumulation as `within_sum_by`; see the note there.
    let mut lanes = [0.0f64; 4];
    let mut pair = 0usize;
    for ai in a {
        for bj in b {
            lanes[pair & 3] += dist(ai, bj);
            pair += 1;
        }
    }
    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
}

/// `Σ_x d(x, admitted) − Σ_x d(x, evicted)` over `others`: what replacing
/// `evicted` by `admitted` in one sample adds to its sum of distances
/// against `others`.
///
/// With `others` the opposite sample this is the change of
/// [`cross_sum_by`]; with `others` the sample's own surviving elements,
/// twice this is the change of [`within_sum_by`] (every pair is counted in
/// both orders). Either way one replacement costs `2·|others|` distance
/// evaluations where the full sums cost `|a|·|b|` and `|b|·(|b|−1)`.
pub fn slide_delta_by<'a, T: 'a, I, F>(others: I, admitted: &T, evicted: &T, dist: F) -> f64
where
    I: IntoIterator<Item = &'a T>,
    F: Fn(&T, &T) -> f64,
{
    let mut added = 0.0;
    let mut removed = 0.0;
    for x in others {
        added += dist(x, admitted);
        removed += dist(x, evicted);
    }
    added - removed
}

/// Closes the energy statistic over samples of `n1` and `n2` items from
/// their between-sample sum ([`cross_sum_by`]) and their two within-sample
/// sums ([`within_sum_by`]).
pub fn energy_from_sums(n1: usize, n2: usize, cross: f64, within_a: f64, within_b: f64) -> f64 {
    let n1f = n1 as f64;
    let n2f = n2 as f64;
    let term = 2.0 / (n1f * n2f) * cross - within_a / (n1f * n1f) - within_b / (n2f * n2f);
    n1f * n2f / (n1f + n2f) * term
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pt(xs: &[f64]) -> Vec<f64> {
        xs.to_vec()
    }

    #[test]
    fn empty_sample_is_error() {
        assert!(energy_distance(&[], &[pt(&[1.0])]).is_err());
        assert!(energy_distance(&[pt(&[1.0])], &[]).is_err());
    }

    #[test]
    fn mismatched_dimensions_is_error() {
        assert!(energy_distance(&[pt(&[1.0, 2.0])], &[pt(&[1.0])]).is_err());
    }

    #[test]
    fn identical_samples_have_zero_distance() {
        let a = vec![pt(&[1.0, 2.0, 3.0]), pt(&[4.0, 5.0, 6.0])];
        let e = energy_distance(&a, &a).unwrap();
        assert!(e.abs() < 1e-9, "got {e}");
    }

    #[test]
    fn identical_singletons_have_zero_distance() {
        let a = vec![pt(&[3.0, 4.0])];
        let e = energy_distance(&a, &a.clone()).unwrap();
        assert!(e.abs() < 1e-12);
    }

    #[test]
    fn separated_clusters_scale_with_separation() {
        let a: Vec<Vec<f64>> = (0..8).map(|i| pt(&[i as f64 * 0.1, 0.0])).collect();
        let near: Vec<Vec<f64>> = (0..8).map(|i| pt(&[1.0 + i as f64 * 0.1, 0.0])).collect();
        let far: Vec<Vec<f64>> = (0..8).map(|i| pt(&[50.0 + i as f64 * 0.1, 0.0])).collect();
        let e_near = energy_distance(&a, &near).unwrap();
        let e_far = energy_distance(&a, &far).unwrap();
        assert!(e_near > 0.0);
        assert!(e_far > e_near * 10.0);
    }

    #[test]
    fn translation_invariance_of_pairs() {
        // Shifting both samples by the same offset leaves the statistic
        // unchanged.
        let a = vec![pt(&[0.0, 0.0]), pt(&[1.0, 1.0]), pt(&[2.0, 0.5])];
        let b = vec![pt(&[5.0, 5.0]), pt(&[6.0, 6.0])];
        let shift = |p: &Vec<f64>| vec![p[0] + 100.0, p[1] - 40.0];
        let a2: Vec<Vec<f64>> = a.iter().map(shift).collect();
        let b2: Vec<Vec<f64>> = b.iter().map(shift).collect();
        let e1 = energy_distance(&a, &b).unwrap();
        let e2 = energy_distance(&a2, &b2).unwrap();
        assert!((e1 - e2).abs() < 1e-9);
    }

    #[test]
    fn energy_distance_by_matches_slice_version() {
        let a = vec![pt(&[1.0, 0.0]), pt(&[2.0, 1.0])];
        let b = vec![pt(&[4.0, 4.0]), pt(&[5.0, 5.0]), pt(&[6.0, 4.0])];
        let direct = energy_distance(&a, &b).unwrap();
        let a_refs: Vec<&[f64]> = a.iter().map(|p| p.as_slice()).collect();
        let b_refs: Vec<&[f64]> = b.iter().map(|p| p.as_slice()).collect();
        let by = energy_distance_by(&a_refs, &b_refs, |x, y| euclidean(x, y)).unwrap();
        assert!((direct - by).abs() < 1e-12);
    }

    #[test]
    fn slide_delta_counts_one_replacement() {
        // Replacing b[0] by `admitted`: the cross sum moves by the delta
        // against `a`, the within sum by twice the delta against the
        // survivors b[1..].
        let a = vec![pt(&[0.0, 0.0]), pt(&[1.0, 2.0]), pt(&[-3.0, 0.5])];
        let b = vec![pt(&[4.0, 4.0]), pt(&[5.0, 1.0]), pt(&[6.0, -2.0])];
        let admitted = pt(&[-1.0, 7.0]);
        let mut slid = b[1..].to_vec();
        slid.push(admitted.clone());
        let d = |x: &Vec<f64>, y: &Vec<f64>| euclidean(x, y);

        let cross = cross_sum_by(&a, &b, d) + slide_delta_by(&a, &admitted, &b[0], d);
        let within = within_sum_by(&b, d) + 2.0 * slide_delta_by(&b[1..], &admitted, &b[0], d);
        assert!((cross - cross_sum_by(&a, &slid, d)).abs() < 1e-12);
        assert!((within - within_sum_by(&slid, d)).abs() < 1e-12);

        let from_sums = energy_from_sums(3, 3, cross, within_sum_by(&a, d), within);
        let direct = energy_distance_by(&a, &slid, d).unwrap();
        assert!((from_sums - direct).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn energy_distance_is_nonnegative(
            a in proptest::collection::vec(proptest::collection::vec(-100.0f64..100.0, 3), 1..12),
            b in proptest::collection::vec(proptest::collection::vec(-100.0f64..100.0, 3), 1..12),
        ) {
            let e = energy_distance(&a, &b).unwrap();
            prop_assert!(e >= -1e-9, "energy distance must be non-negative, got {}", e);
        }

        #[test]
        fn energy_distance_is_symmetric(
            a in proptest::collection::vec(proptest::collection::vec(-100.0f64..100.0, 2), 1..10),
            b in proptest::collection::vec(proptest::collection::vec(-100.0f64..100.0, 2), 1..10),
        ) {
            let e_ab = energy_distance(&a, &b).unwrap();
            let e_ba = energy_distance(&b, &a).unwrap();
            prop_assert!((e_ab - e_ba).abs() < 1e-9);
        }
    }
}
