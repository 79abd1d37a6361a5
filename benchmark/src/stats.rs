//! Order statistics over small sample vectors.

/// Sorts `values` and returns the percentile `p` (0–100) by linear
/// interpolation between closest ranks; `NaN` for an empty slice.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    values[low] + (values[high] - values[low]) * (rank - low as f64)
}

/// Sorts `values` and returns the median.
pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 50.0)
}

/// Median of a copy, leaving the samples in measurement order.
pub fn median_of(values: &[f64]) -> f64 {
    median(&mut values.to_vec())
}

/// Interquartile range over median — the run-to-run spread the bounds are
/// compared against. Zero for fewer than two samples or a zero median.
pub fn relative_iqr(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    let q1 = percentile(&mut sorted, 25.0);
    let q3 = percentile(&mut sorted, 75.0);
    let mid = percentile(&mut sorted, 50.0);
    if mid == 0.0 {
        0.0
    } else {
        (q3 - q1) / mid.abs()
    }
}
