//! MAD-based outlier gating of latency observations.
//!
//! The paper's MP filter cleans up *honest* measurement noise: queueing
//! spikes and heavy-tailed outliers on an otherwise truthful link. It has no
//! answer to a *Byzantine* peer — one that reports a displaced coordinate, a
//! bogus error estimate, or a deliberately inflated reply delay. Such a peer
//! produces a perfectly smooth stream of filtered observations that are
//! nevertheless wildly inconsistent with the embedding, and every one of
//! them yanks the victim's spring.
//!
//! The [`OutlierGate`] defends the update path with a robust statistic over
//! the *residual* of each observation — the filtered RTT minus the distance
//! the node's own coordinate predicts to the peer's claimed coordinate. For
//! a converged embedding and honest peers the residuals cluster near zero;
//! a coordinate liar or delay attacker shows up as a residual far outside
//! the cluster. The gate keeps a sliding window of recently *accepted*
//! residuals and rejects an observation whose residual deviates from the
//! window median by more than `mad_threshold` times the window's median
//! absolute deviation (MAD). Median and MAD have a 50 % breakdown point, so
//! the statistic itself survives a substantial minority of liars slipping
//! into the window.
//!
//! Two guards keep the gate from strangling an honest node:
//!
//! * during warm-up (fewer than `min_samples` accepted residuals) every
//!   observation is accepted — a fresh node's residuals are legitimately
//!   huge while its coordinate converges;
//! * the MAD is floored at `mad_floor_ms`, so a window of eerily consistent
//!   residuals (or an all-liar window, where MAD collapses toward zero)
//!   cannot turn the gate into a reject-everything filter.
//!
//! The gate also clamps the *remote error estimate* a peer reports to at
//! least [`OutlierGateConfig::min_remote_error`]: a liar advertising
//! near-zero error would otherwise grab close to the maximum sample weight
//! `w_s = e_i / (e_i + e_j)` and drag the victim twice as hard.
//!
//! The gate is **off by default** and entirely opt-in; see
//! `stable_nc::NodeConfigBuilder::outlier_gate`.

use crate::config::VivaldiConfigError;

/// Tuning parameters of the [`OutlierGate`].
///
/// The defaults (window 16, threshold 4 MADs, warm-up 8, MAD floor 10 ms,
/// remote-error floor 0.05) tolerate the lognormal jitter and drift of a
/// live wide-area link while rejecting coordinate lies displaced by a few
/// hundred milliseconds or more.
///
/// # Examples
///
/// ```
/// use nc_vivaldi::gate::OutlierGateConfig;
///
/// let config = OutlierGateConfig::default();
/// assert_eq!(config.window, 16);
/// assert!(config.mad_threshold > 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct OutlierGateConfig {
    /// Number of most-recently accepted residuals the gate remembers.
    pub window: usize,
    /// Rejection threshold in MADs: an observation is rejected when its
    /// residual deviates from the window median by more than this many
    /// (floored) MADs.
    pub mad_threshold: f64,
    /// Number of residuals that must be accepted before the gate starts
    /// rejecting anything. Everything is accepted during warm-up.
    pub min_samples: usize,
    /// Lower bound on the MAD, in milliseconds. Keeps a too-consistent
    /// window from rejecting ordinary jitter.
    pub mad_floor_ms: f64,
    /// Lower bound applied to the error estimate a remote peer reports,
    /// blunting the extra pull of a liar advertising perfect confidence.
    pub min_remote_error: f64,
}

impl Default for OutlierGateConfig {
    fn default() -> Self {
        OutlierGateConfig {
            window: 16,
            mad_threshold: 4.0,
            min_samples: 8,
            mad_floor_ms: 10.0,
            min_remote_error: 0.05,
        }
    }
}

impl OutlierGateConfig {
    /// Checks the configuration for nonsense values.
    ///
    /// # Errors
    ///
    /// Returns the [`VivaldiConfigError`] of the first field found wrong: a
    /// window below two, a non-positive MAD threshold, a negative or
    /// non-finite MAD floor, or a remote-error floor outside `[0, 1]`.
    pub fn validate(&self) -> Result<(), VivaldiConfigError> {
        if self.window < 2 {
            return Err(VivaldiConfigError::WindowTooSmall(self.window));
        }
        if !self.mad_threshold.is_finite() || self.mad_threshold <= 0.0 {
            return Err(VivaldiConfigError::MadThresholdNotPositive(
                self.mad_threshold,
            ));
        }
        if !self.mad_floor_ms.is_finite() || self.mad_floor_ms < 0.0 {
            return Err(VivaldiConfigError::MadFloorOutOfRange(self.mad_floor_ms));
        }
        if !self.min_remote_error.is_finite() || !(0.0..=1.0).contains(&self.min_remote_error) {
            return Err(VivaldiConfigError::MinRemoteErrorOutOfRange(
                self.min_remote_error,
            ));
        }
        Ok(())
    }
}

/// Sliding-window MAD rejector over observation residuals.
///
/// Allocation-free in steady state: the residual window is a fixed ring
/// buffer and the median/MAD computation reuses one sorted scratch buffer,
/// both sized once at construction.
///
/// # Examples
///
/// ```
/// use nc_vivaldi::gate::{OutlierGate, OutlierGateConfig};
///
/// let mut gate = OutlierGate::new(OutlierGateConfig::default());
/// // Warm up with plausible residuals ...
/// for _ in 0..8 {
///     assert!(gate.admits(2.0));
///     gate.record(2.0);
/// }
/// // ... then a 500 ms-inconsistent observation is rejected,
/// assert!(!gate.admits(500.0));
/// // while an ordinary one still passes.
/// assert!(gate.admits(5.0));
/// ```
#[derive(Debug, Clone)]
pub struct OutlierGate {
    config: OutlierGateConfig,
    /// Ring buffer of the residuals of accepted observations.
    residuals: Vec<f64>,
    /// Next write position in `residuals`.
    head: usize,
    /// Total residuals recorded (saturating at the window size for
    /// occupancy purposes; kept as a full count for diagnostics).
    recorded: u64,
    /// Reusable scratch for the sorted copy of the window.
    scratch: Vec<f64>,
}

impl OutlierGate {
    /// Builds a gate with the given tuning.
    ///
    /// # Panics
    ///
    /// Panics when the configuration fails [`OutlierGateConfig::validate`].
    pub fn new(config: OutlierGateConfig) -> Self {
        if let Err(error) = config.validate() {
            panic!("invalid outlier gate config: {error}");
        }
        let window = config.window;
        OutlierGate {
            config,
            residuals: Vec::with_capacity(window),
            head: 0,
            recorded: 0,
            scratch: Vec::with_capacity(window),
        }
    }

    /// The tuning this gate runs with.
    pub fn config(&self) -> &OutlierGateConfig {
        &self.config
    }

    /// Number of residuals recorded so far (not capped at the window size).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Whether an observation with this residual (filtered RTT minus
    /// coordinate-predicted distance, in milliseconds) should be admitted to
    /// the update path.
    ///
    /// Non-finite residuals are always rejected. During warm-up — fewer than
    /// `min_samples` residuals recorded — every finite residual is admitted.
    pub fn admits(&mut self, residual_ms: f64) -> bool {
        if !residual_ms.is_finite() {
            return false;
        }
        if (self.recorded as usize) < self.config.min_samples || self.residuals.len() < 2 {
            return true;
        }
        let (median, mad) = self.median_and_mad();
        let spread = mad.max(self.config.mad_floor_ms);
        (residual_ms - median).abs() <= self.config.mad_threshold * spread
    }

    /// Records the residual of an observation that was admitted (and
    /// applied). Rejected observations must *not* be recorded — the window
    /// models the residual distribution of the updates actually taken.
    pub fn record(&mut self, residual_ms: f64) {
        if !residual_ms.is_finite() {
            return;
        }
        if self.residuals.len() < self.config.window {
            self.residuals.push(residual_ms);
        } else {
            self.residuals[self.head] = residual_ms;
        }
        self.head = (self.head + 1) % self.config.window;
        self.recorded = self.recorded.saturating_add(1);
    }

    /// Median and median-absolute-deviation of the current window.
    fn median_and_mad(&mut self) -> (f64, f64) {
        self.scratch.clear();
        self.scratch.extend_from_slice(&self.residuals);
        let median = median_in_place(&mut self.scratch);
        for value in &mut self.scratch {
            *value = (*value - median).abs();
        }
        let mad = median_in_place(&mut self.scratch);
        (median, mad)
    }
}

/// Median of a non-empty slice, sorting it in place.
fn median_in_place(values: &mut [f64]) -> f64 {
    debug_assert!(!values.is_empty());
    values.sort_by(|a, b| a.partial_cmp(b).expect("residuals are finite"));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn warmed_gate() -> OutlierGate {
        let mut gate = OutlierGate::new(OutlierGateConfig::default());
        // Honest residuals: small, mildly noisy.
        for i in 0..12 {
            let residual = (i % 5) as f64 - 2.0;
            assert!(gate.admits(residual));
            gate.record(residual);
        }
        gate
    }

    #[test]
    fn warmup_admits_everything_finite() {
        let mut gate = OutlierGate::new(OutlierGateConfig::default());
        assert!(gate.admits(10_000.0));
        assert!(gate.admits(-10_000.0));
        assert!(!gate.admits(f64::NAN));
        assert!(!gate.admits(f64::INFINITY));
    }

    #[test]
    fn rejects_far_outliers_after_warmup() {
        let mut gate = warmed_gate();
        assert!(!gate.admits(500.0));
        assert!(!gate.admits(-500.0));
        assert!(gate.admits(3.0));
    }

    #[test]
    fn mad_floor_keeps_ordinary_jitter_admissible() {
        let config = OutlierGateConfig::default();
        let mut gate = OutlierGate::new(config.clone());
        // A pathologically consistent window: MAD would be 0 without the
        // floor and everything off the median would be rejected.
        for _ in 0..config.window {
            gate.record(1.0);
        }
        assert!(gate.admits(1.0 + config.mad_threshold * config.mad_floor_ms - 1e-9));
        assert!(!gate.admits(1.0 + config.mad_threshold * config.mad_floor_ms + 1.0));
    }

    #[test]
    fn window_slides_and_adapts() {
        let mut gate = warmed_gate();
        assert!(!gate.admits(200.0));
        // A genuine regime change (say, a route change adding 200 ms) is
        // re-learned once the node's coordinate catches up: as accepted
        // residuals migrate, the window median follows.
        for _ in 0..OutlierGateConfig::default().window {
            gate.record(40.0);
        }
        assert!(gate.admits(41.0));
        assert!(!gate.admits(0.0) || !gate.admits(300.0));
    }

    #[test]
    fn recorded_counts_all_records() {
        let mut gate = OutlierGate::new(OutlierGateConfig::default());
        for _ in 0..40 {
            gate.record(1.0);
        }
        assert_eq!(gate.recorded(), 40);
        assert_eq!(gate.residuals.len(), gate.config.window);
    }

    #[test]
    fn validate_rejects_nonsense() {
        let config = OutlierGateConfig {
            window: 1,
            ..OutlierGateConfig::default()
        };
        assert_eq!(
            config.validate(),
            Err(VivaldiConfigError::WindowTooSmall(1))
        );
        let config = OutlierGateConfig {
            mad_threshold: 0.0,
            ..OutlierGateConfig::default()
        };
        assert_eq!(
            config.validate(),
            Err(VivaldiConfigError::MadThresholdNotPositive(0.0))
        );
        let config = OutlierGateConfig {
            mad_floor_ms: f64::NAN,
            ..OutlierGateConfig::default()
        };
        assert!(matches!(
            config.validate(),
            Err(VivaldiConfigError::MadFloorOutOfRange(floor)) if floor.is_nan()
        ));
        let config = OutlierGateConfig {
            min_remote_error: 1.5,
            ..OutlierGateConfig::default()
        };
        let error = config.validate().unwrap_err();
        assert_eq!(error, VivaldiConfigError::MinRemoteErrorOutOfRange(1.5));
        assert!(error.to_string().contains("remote-error floor"), "{error}");
        assert_eq!(OutlierGateConfig::default().validate(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "invalid outlier gate config")]
    fn new_panics_on_invalid_config() {
        let config = OutlierGateConfig {
            mad_threshold: -1.0,
            ..OutlierGateConfig::default()
        };
        let _ = OutlierGate::new(config);
    }

    #[test]
    fn config_rules_boundary_table() {
        // Columns: 0, 1, 2, -1, NaN, +inf, -inf.
        let probes = [
            0.0,
            1.0,
            2.0,
            -1.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let accepted = |set: fn(&mut OutlierGateConfig, f64)| -> Vec<bool> {
            probes
                .iter()
                .map(|&value| {
                    let mut config = OutlierGateConfig::default();
                    set(&mut config, value);
                    config.validate().is_ok()
                })
                .collect()
        };
        assert_eq!(
            accepted(|c, v| c.mad_threshold = v),
            [false, true, true, false, false, false, false]
        );
        assert_eq!(
            accepted(|c, v| c.mad_floor_ms = v),
            [true, true, true, false, false, false, false]
        );
        assert_eq!(
            accepted(|c, v| c.min_remote_error = v),
            [true, true, false, false, false, false, false]
        );
        let windows: Vec<bool> = [0, 1, 2]
            .into_iter()
            .map(|window| {
                OutlierGateConfig {
                    window,
                    ..OutlierGateConfig::default()
                }
                .validate()
                .is_ok()
            })
            .collect();
        assert_eq!(windows, [false, false, true]);
    }

    #[test]
    fn config_rules_panic_with_the_validate_message() {
        let config = OutlierGateConfig {
            mad_floor_ms: -1.0,
            ..OutlierGateConfig::default()
        };
        let message = config.validate().unwrap_err().to_string();
        let panic = std::panic::catch_unwind(|| OutlierGate::new(config)).unwrap_err();
        let text = panic.downcast_ref::<String>().expect("formatted panic");
        assert!(text.ends_with(&message), "{text}");
    }
}
