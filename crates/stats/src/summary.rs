//! Streaming summaries (count, mean, variance, min, max) using Welford's
//! online algorithm.
//!
//! The simulator's metric collectors fold millions of per-observation error
//! and displacement values; storing them all is wasteful when only aggregate
//! statistics are reported, so this type accumulates them in constant space.

/// Constant-space accumulator of count, mean, variance, min and max.
///
/// # Examples
///
/// ```
/// use nc_stats::StreamingSummary;
///
/// let mut s = StreamingSummary::new();
/// for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.record(v);
/// }
/// assert_eq!(s.count(), 8);
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.population_variance() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamingSummary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl StreamingSummary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        StreamingSummary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Adds one observation.
    ///
    /// Non-finite values are ignored (the synthetic trace generator never
    /// produces them, but a defensive simulator should not have a single NaN
    /// poison hours of accumulated metrics).
    pub fn record(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.count += 1;
        self.sum += value;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = value - self.mean;
        self.m2 += delta * delta2;
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
    }

    /// Merges another summary into this one (parallel collection).
    pub fn merge(&mut self, other: &StreamingSummary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let new_mean = self.mean + delta * other.count as f64 / total as f64;
        let new_m2 = self.m2
            + other.m2
            + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.mean = new_mean;
        self.m2 = new_m2;
        self.count = total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded (finite) observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded observations (0.0 when empty).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0.0 when fewer than one observation).
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample (Bessel-corrected) variance (0.0 when fewer than two
    /// observations).
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Minimum recorded value, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.min)
        }
    }

    /// Maximum recorded value, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.max)
        }
    }

    /// True when no observation has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

impl Default for StreamingSummary {
    fn default() -> Self {
        Self::new()
    }
}

impl Extend<f64> for StreamingSummary {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for v in iter {
            self.record(v);
        }
    }
}

impl FromIterator<f64> for StreamingSummary {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = StreamingSummary::new();
        s.extend(iter);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_summary_defaults() {
        let s = StreamingSummary::new();
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.population_variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn single_value() {
        let s: StreamingSummary = [7.5].into_iter().collect();
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), 7.5);
        assert_eq!(s.min(), Some(7.5));
        assert_eq!(s.max(), Some(7.5));
        assert_eq!(s.sample_variance(), 0.0);
    }

    #[test]
    fn ignores_non_finite() {
        let mut s = StreamingSummary::new();
        s.record(1.0);
        s.record(f64::NAN);
        s.record(f64::INFINITY);
        s.record(3.0);
        assert_eq!(s.count(), 2);
        assert_eq!(s.mean(), 2.0);
    }

    #[test]
    fn merge_matches_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64) * 0.37 + 2.0).collect();
        let all: StreamingSummary = data.iter().cloned().collect();
        let first: StreamingSummary = data[..40].iter().cloned().collect();
        let mut merged = first;
        let second: StreamingSummary = data[40..].iter().cloned().collect();
        merged.merge(&second);
        assert_eq!(merged.count(), all.count());
        assert!((merged.mean() - all.mean()).abs() < 1e-9);
        assert!((merged.population_variance() - all.population_variance()).abs() < 1e-9);
        assert_eq!(merged.min(), all.min());
        assert_eq!(merged.max(), all.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let data: StreamingSummary = [1.0, 2.0, 3.0].into_iter().collect();
        let mut a = data;
        a.merge(&StreamingSummary::new());
        assert_eq!(a, data);
        let mut b = StreamingSummary::new();
        b.merge(&data);
        assert_eq!(b.count(), 3);
        assert!((b.mean() - 2.0).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn mean_between_min_and_max(data in proptest::collection::vec(-1e6f64..1e6, 1..500)) {
            let s: StreamingSummary = data.iter().cloned().collect();
            prop_assert!(s.mean() >= s.min().unwrap() - 1e-9);
            prop_assert!(s.mean() <= s.max().unwrap() + 1e-9);
        }

        #[test]
        fn variance_nonnegative(data in proptest::collection::vec(-1e6f64..1e6, 0..500)) {
            let s: StreamingSummary = data.iter().cloned().collect();
            prop_assert!(s.population_variance() >= -1e-9);
            prop_assert!(s.sample_variance() >= -1e-9);
        }

        #[test]
        fn merge_is_order_independent(
            a in proptest::collection::vec(-1e3f64..1e3, 0..100),
            b in proptest::collection::vec(-1e3f64..1e3, 0..100),
        ) {
            let sa: StreamingSummary = a.iter().cloned().collect();
            let sb: StreamingSummary = b.iter().cloned().collect();
            let mut ab = sa; ab.merge(&sb);
            let mut ba = sb; ba.merge(&sa);
            prop_assert_eq!(ab.count(), ba.count());
            prop_assert!((ab.mean() - ba.mean()).abs() < 1e-6);
            prop_assert!((ab.population_variance() - ba.population_variance()).abs() < 1e-6);
        }
    }
}
