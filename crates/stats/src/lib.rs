//! Statistics substrate for the *Stable and Accurate Network Coordinates*
//! reproduction.
//!
//! The paper (Ledlie & Seltzer, ICDCS 2006) measures a coordinate system
//! along two axes — **accuracy** (relative error between predicted and
//! observed latency) and **stability** (rate of coordinate change) — and its
//! change-detection heuristics rely on order statistics and two-sample tests.
//! This crate collects every statistical primitive those measurements and
//! heuristics need:
//!
//! * [`percentile`](mod@percentile) — quantiles over sorted or unsorted data with linear
//!   interpolation (used by the moving-percentile filter and by every
//!   figure's "median"/"95th percentile" summaries).
//! * [`summary`] — streaming mean/variance/min/max (Welford), used by the
//!   simulator's metric collectors.
//! * [`histogram`] — linear-, log- and custom-binned frequency histograms
//!   (Figures 2, 3 and 5 of the paper).
//! * [`cdf`] — empirical cumulative distribution functions (Figures 5, 11,
//!   13).
//! * [`boxplot`] — Tukey five-number summaries with outlier extraction
//!   (Figure 4).
//! * [`energy`] — the Székely–Rizzo energy distance between two
//!   multi-dimensional samples (the ENERGY update heuristic, §V-B).
//! * [`ranksum`] — the Wilcoxon rank-sum / Mann–Whitney two-sample test
//!   referenced by the change-detection literature the paper borrows from.
//! * [`timeseries`] — fixed-width time binning used for the "metric over
//!   time" plots (Figure 14).
//!
//! # Example
//!
//! ```
//! use nc_stats::percentile::percentile;
//!
//! let samples = vec![10.0, 12.0, 11.0, 250.0, 9.0];
//! // The 25th percentile is a robust estimate of the "expected" latency in
//! // the presence of a heavy tail, exactly what the MP filter exploits.
//! let p25 = percentile(&samples, 25.0).unwrap();
//! assert!(p25 < 12.0);
//! ```

// Lint policy (missing_docs, broken doc links, clippy set) is centralized
// in the workspace manifest: [workspace.lints] + `lints.workspace = true`.

pub mod boxplot;
pub mod cdf;
pub mod energy;
pub mod histogram;
pub mod percentile;
pub mod ranksum;
pub mod summary;
pub mod timeseries;

pub use boxplot::BoxplotSummary;
pub use cdf::Ecdf;
pub use energy::{
    cross_sum_by, energy_distance, energy_distance_by, energy_from_sums, slide_delta_by,
    within_sum_by,
};
pub use histogram::{Histogram, HistogramBin};
pub use percentile::{median, percentile, percentile_of_sorted};
pub use ranksum::{rank_sum_test, RankSumOutcome};
pub use summary::StreamingSummary;
pub use timeseries::TimeBinner;

/// Errors produced by statistics routines in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatsError {
    /// The input sample set was empty but the statistic requires at least one
    /// observation.
    EmptyInput,
    /// A parameter was outside its documented domain (for example a
    /// percentile not in `0.0..=100.0`).
    InvalidParameter(&'static str),
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::EmptyInput => write!(f, "input sample set was empty"),
            StatsError::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
        }
    }
}

impl std::error::Error for StatsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_nonempty() {
        assert!(!StatsError::EmptyInput.to_string().is_empty());
        assert!(!StatsError::InvalidParameter("threshold")
            .to_string()
            .is_empty());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<StatsError>();
    }
}
