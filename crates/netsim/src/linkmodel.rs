//! Per-link latency observation model.
//!
//! Section III of the paper characterises what real measurements of one link
//! look like: a tight common case near the propagation delay, plus rare but
//! persistent samples one to three orders of magnitude larger, spread over
//! the whole trace (Figure 3), amounting to ≈ 0.4 % of all samples exceeding
//! one second across the full mesh (Figure 2). The [`LinkModel`] reproduces
//! that shape:
//!
//! * **base RTT** from the [`crate::topology::Topology`];
//! * **lognormal jitter** around the base (queueing, OS scheduling);
//! * a **heavy-tailed outlier process**: with small probability a sample is
//!   replaced by a Pareto-distributed spike (application-level pings on a
//!   busy PlanetLab node routinely measured hundreds of milliseconds to tens
//!   of seconds);
//! * **slow drift** (diurnal load) and optional **route-change level
//!   shifts**, so the underlying network genuinely changes over time the way
//!   Figure 7 shows.

use std::cell::RefCell;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::rand_ext;
use crate::sim::ConfigError;

/// Tuning of the observation model, shared by every link of a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkModelConfig {
    /// Standard deviation of the lognormal jitter, expressed as a fraction of
    /// the base RTT (default 0.03: a 100 ms link jitters by a few ms).
    pub jitter_sigma: f64,
    /// Probability that a sample is an outlier drawn from the heavy tail
    /// (default 0.012).
    pub outlier_probability: f64,
    /// Pareto shape of outlier magnitudes; smaller is heavier (default 0.9,
    /// giving a tail that regularly reaches seconds and occasionally tens of
    /// seconds).
    pub outlier_alpha: f64,
    /// Scale of the outlier Pareto, as a multiple of the base RTT
    /// (default 3.0: outliers start at a few times the base RTT).
    pub outlier_scale_factor: f64,
    /// Amplitude of the slow sinusoidal drift as a fraction of the base RTT
    /// (default 0.05), with a period of several hours.
    pub drift_amplitude: f64,
    /// Expected number of route-change level shifts per link per day
    /// (default 0.5). Each shift multiplies the base RTT by a factor drawn
    /// from 0.7–1.6 for the remainder of the run.
    pub route_changes_per_day: f64,
    /// Floor applied to every sample in milliseconds (default 0.3 — even a
    /// same-rack ping costs something).
    pub min_rtt_ms: f64,
    /// Probability that a probe (or its reply) is dropped outright on this
    /// link, per direction (default 0.0 — the paper's application-level
    /// pings retried until they heard back, so the original model had no
    /// loss). The discrete-event simulator draws one loss decision per
    /// direction of every exchange.
    pub loss_probability: f64,
    /// Maximum asymmetry of the forward/reverse one-way delays, as a
    /// fraction of half the RTT (default 0.0: both directions take exactly
    /// half). Each link draws a fixed factor in `[-a, a]` at construction,
    /// modelling asymmetric routes whose forward path is consistently
    /// longer than the reverse.
    pub delay_asymmetry: f64,
    /// Per-step standard deviation of the multiplicative random-walk drift
    /// in log space (default 0.0: no walk). Every `drift_walk_step_s`
    /// seconds the underlying base RTT level is multiplied by
    /// `exp(N(0, sigma))`, and the level is linearly interpolated between
    /// steps — the slow, persistent base-RTT migration over simulated hours
    /// that the paper's stability filters exist to track, as opposed to the
    /// bounded sinusoidal `drift_amplitude`. Levels are clamped to
    /// `[0.25, 4.0]` so an unlucky walk stays physical. Like
    /// `loss_probability`, the walk consumes randomness only when enabled,
    /// so sigma-0 configs keep their exact observation streams.
    pub drift_walk_sigma: f64,
    /// Step length of the random-walk drift in seconds (default 1800.0:
    /// the base level takes a new step every simulated half hour).
    pub drift_walk_step_s: f64,
}

impl Default for LinkModelConfig {
    fn default() -> Self {
        LinkModelConfig {
            jitter_sigma: 0.03,
            outlier_probability: 0.012,
            outlier_alpha: 0.9,
            outlier_scale_factor: 3.0,
            drift_amplitude: 0.05,
            route_changes_per_day: 0.5,
            min_rtt_ms: 0.3,
            loss_probability: 0.0,
            delay_asymmetry: 0.0,
            drift_walk_sigma: 0.0,
            drift_walk_step_s: 1800.0,
        }
    }
}

impl LinkModelConfig {
    /// A calmer configuration without outliers or route changes — useful for
    /// convergence tests where the heavy tail would only add noise.
    pub fn clean() -> Self {
        LinkModelConfig {
            jitter_sigma: 0.01,
            outlier_probability: 0.0,
            outlier_alpha: 1.5,
            outlier_scale_factor: 2.0,
            drift_amplitude: 0.0,
            route_changes_per_day: 0.0,
            min_rtt_ms: 0.3,
            loss_probability: 0.0,
            delay_asymmetry: 0.0,
            drift_walk_sigma: 0.0,
            drift_walk_step_s: 1800.0,
        }
    }

    /// Sets the per-direction loss probability.
    ///
    /// The setter records the value as given; an out-of-range probability is
    /// reported as [`ConfigError::LossProbabilityOutOfRange`] by
    /// [`LinkModelConfig::validate`], which [`crate::Simulator::new`] runs
    /// before any link is built. (Until the workspace-wide builder
    /// unification this setter panicked on bad input; validation now lives
    /// in one place for every config surface.)
    pub fn with_loss_probability(mut self, p: f64) -> Self {
        self.loss_probability = p;
        self
    }

    /// Sets the maximum one-way delay asymmetry fraction.
    ///
    /// The setter records the value as given; anything outside `[0, 1)` is
    /// reported as [`ConfigError::DelayAsymmetryOutOfRange`] by
    /// [`LinkModelConfig::validate`].
    pub fn with_delay_asymmetry(mut self, a: f64) -> Self {
        self.delay_asymmetry = a;
        self
    }

    /// Enables the random-walk base-RTT drift: per-step log-space standard
    /// deviation `sigma`, one step every `step_s` seconds.
    ///
    /// The setter records the values as given; a non-positive step or
    /// non-finite sigma is reported as a typed [`ConfigError`] by
    /// [`LinkModelConfig::validate`].
    pub fn with_drift_walk(mut self, sigma: f64, step_s: f64) -> Self {
        self.drift_walk_sigma = sigma;
        self.drift_walk_step_s = step_s;
        self
    }

    /// Checks every tuning parameter for physical plausibility: probabilities
    /// in range, magnitudes finite with the right sign, the drift-walk step a
    /// positive finite period. Called by [`crate::Simulator::new`] so a
    /// malformed model fails fast with a typed error instead of silently
    /// producing NaN latencies mid-run — the same validation idiom
    /// [`crate::SimConfig::validate`] and `stable_nc`'s
    /// `NodeConfig::validate` use.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let nonnegative = [
            ("jitter_sigma", self.jitter_sigma),
            ("drift_amplitude", self.drift_amplitude),
            ("route_changes_per_day", self.route_changes_per_day),
        ];
        for (name, value) in nonnegative {
            if !(value.is_finite() && value >= 0.0) {
                return Err(ConfigError::LinkParameterInvalid { name, value });
            }
        }
        let positive = [
            ("outlier_alpha", self.outlier_alpha),
            ("outlier_scale_factor", self.outlier_scale_factor),
            ("min_rtt_ms", self.min_rtt_ms),
        ];
        for (name, value) in positive {
            if !(value.is_finite() && value > 0.0) {
                return Err(ConfigError::LinkParameterInvalid { name, value });
            }
        }
        if !(0.0..=1.0).contains(&self.outlier_probability) {
            return Err(ConfigError::LinkParameterInvalid {
                name: "outlier_probability",
                value: self.outlier_probability,
            });
        }
        if !(0.0..=1.0).contains(&self.loss_probability) {
            return Err(ConfigError::LossProbabilityOutOfRange(
                self.loss_probability,
            ));
        }
        if !(0.0..1.0).contains(&self.delay_asymmetry) {
            return Err(ConfigError::DelayAsymmetryOutOfRange(self.delay_asymmetry));
        }
        if !(self.drift_walk_step_s.is_finite() && self.drift_walk_step_s > 0.0) {
            return Err(ConfigError::DriftPeriodNotPositive(self.drift_walk_step_s));
        }
        if !(self.drift_walk_sigma.is_finite() && self.drift_walk_sigma >= 0.0) {
            return Err(ConfigError::DriftMagnitudeNotFinite(self.drift_walk_sigma));
        }
        Ok(())
    }
}

/// A route-change event: from `at_s` onward the base RTT is multiplied by
/// `factor`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RouteShift {
    at_s: f64,
    factor: f64,
}

/// The parts of a link's model most links do not have: route shifts (a
/// few percent of links per simulated hour at the default rate), a
/// forward/reverse asymmetry and random-walk levels (both off unless
/// configured). Boxed as one unit so a link without any of them pays one
/// null pointer, not two empty vectors and a zero.
#[derive(Debug, Clone)]
struct LinkExtras {
    /// Route changes in time order.
    shifts: Vec<RouteShift>,
    /// Fixed forward-path share of the RTT: the forward one-way delay is
    /// `rtt / 2 * (1 + asymmetry_factor)`. Zero for symmetric links.
    asymmetry_factor: f64,
    /// Precomputed multiplicative random-walk levels, one per
    /// `drift_walk_step_s`; empty when the walk is disabled.
    /// `underlying_rtt_ms` interpolates linearly between consecutive levels
    /// so the migration is slow and continuous rather than a staircase.
    walk_levels: Vec<f64>,
}

/// The observation model of one (directed) link.
#[derive(Debug, Clone)]
pub struct LinkModel {
    base_rtt_ms: f64,
    /// The workload's tuning, one allocation shared by all the links of a
    /// simulation.
    config: Arc<LinkModelConfig>,
    rng: StdRng,
    drift_phase: f64,
    drift_period_s: f64,
    extras: Option<Box<LinkExtras>>,
}

impl LinkModel {
    /// Creates the model for a link with the given base RTT. `duration_s` is
    /// the length of the run being simulated (route-change times are drawn
    /// inside it); `seed` makes the link reproducible.
    ///
    /// # Panics
    ///
    /// Panics when `base_rtt_ms` is not positive and finite.
    pub fn new(base_rtt_ms: f64, config: LinkModelConfig, duration_s: f64, seed: u64) -> Self {
        // A driver that builds its own link table hands every link a copy
        // of one configuration. Remembering the last one given on this
        // thread lets all those links share it, so `new` allocates once per
        // distinct configuration instead of once per link; which links
        // share is invisible, the configuration being immutable.
        thread_local! {
            static LAST_CONFIG: RefCell<Option<Arc<LinkModelConfig>>> =
                const { RefCell::new(None) };
        }
        let shared = LAST_CONFIG.with(|last| {
            let mut last = last.borrow_mut();
            match last.as_ref() {
                Some(shared) if **shared == config => Arc::clone(shared),
                _ => Arc::clone(last.insert(Arc::new(config))),
            }
        });
        Self::with_shared_config(base_rtt_ms, shared, duration_s, seed)
    }

    /// [`LinkModel::new`] over a configuration the caller shares between
    /// all its links instead of handing each a copy — what the simulator
    /// does for the hundreds of thousands of links of a large mesh. Same
    /// draws, same sample stream.
    ///
    /// # Panics
    ///
    /// Panics when `base_rtt_ms` is not positive and finite.
    pub(crate) fn with_shared_config(
        base_rtt_ms: f64,
        config: Arc<LinkModelConfig>,
        duration_s: f64,
        seed: u64,
    ) -> Self {
        assert!(
            base_rtt_ms.is_finite() && base_rtt_ms > 0.0,
            "base RTT must be positive"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let drift_phase = rng.gen_range(0.0..std::f64::consts::TAU);
        let drift_period_s = rng.gen_range(3.0 * 3600.0..9.0 * 3600.0);
        let expected_shifts = config.route_changes_per_day * duration_s / 86_400.0;
        let shift_count = if expected_shifts <= 0.0 {
            0
        } else {
            // Poisson-ish: draw a small integer with the right mean.
            let mut count = 0usize;
            let mut budget = expected_shifts;
            while budget > 0.0 && rng.gen_range(0.0..1.0) < budget.min(1.0) {
                count += 1;
                budget -= 1.0;
            }
            count
        };
        let mut shifts: Vec<RouteShift> = (0..shift_count)
            .map(|_| RouteShift {
                at_s: rng.gen_range(0.0..duration_s.max(1.0)),
                factor: rng.gen_range(0.7..1.6),
            })
            .collect();
        shifts.sort_by(|a, b| a.at_s.partial_cmp(&b.at_s).expect("finite times"));
        // Drawn only when configured so that the rng stream — and therefore
        // every downstream jitter/outlier sample — is unchanged for
        // symmetric links (the pre-existing workloads). The closed interval
        // `[-a, a]` matches the `delay_asymmetry` contract: both extremes
        // (forward path carrying the whole asymmetry either way) are
        // admissible routes.
        let asymmetry_factor = if config.delay_asymmetry > 0.0 {
            rng.gen_range(-config.delay_asymmetry..=config.delay_asymmetry)
        } else {
            0.0
        };
        // Drawn last and only when enabled: sigma-0 links (every pre-walk
        // workload) consume no extra randomness, keeping their observation
        // streams byte-identical.
        let walk_levels = if config.drift_walk_sigma > 0.0 {
            let steps = (duration_s.max(0.0) / config.drift_walk_step_s).ceil() as usize + 1;
            let mut levels = Vec::with_capacity(steps + 1);
            let mut level = 1.0f64;
            levels.push(level);
            for _ in 0..steps {
                level *= rand_ext::lognormal(&mut rng, 0.0, config.drift_walk_sigma);
                level = level.clamp(0.25, 4.0);
                levels.push(level);
            }
            levels
        } else {
            Vec::new()
        };
        let plain = shifts.is_empty() && asymmetry_factor == 0.0 && walk_levels.is_empty();
        LinkModel {
            base_rtt_ms,
            config,
            rng,
            drift_phase,
            drift_period_s,
            extras: (!plain).then(|| {
                Box::new(LinkExtras {
                    shifts,
                    asymmetry_factor,
                    walk_levels,
                })
            }),
        }
    }

    /// The link's configured base RTT (before drift and route shifts).
    pub fn base_rtt_ms(&self) -> f64 {
        self.base_rtt_ms
    }

    /// The *current* underlying latency at time `time_s`: base RTT with drift
    /// and any route shifts applied, but no jitter or outliers. This is the
    /// signal a perfect filter would recover.
    pub fn underlying_rtt_ms(&self, time_s: f64) -> f64 {
        let (shifts, walk_levels): (&[RouteShift], &[f64]) = match &self.extras {
            Some(extras) => (&extras.shifts, &extras.walk_levels),
            None => (&[], &[]),
        };
        let mut rtt = self.base_rtt_ms;
        for shift in shifts {
            if time_s >= shift.at_s {
                rtt *= shift.factor;
            }
        }
        let drift = 1.0
            + self.config.drift_amplitude
                * (std::f64::consts::TAU * time_s / self.drift_period_s + self.drift_phase).sin();
        rtt *= drift;
        if !walk_levels.is_empty() {
            let last = walk_levels.len() - 1;
            let position = (time_s.max(0.0) / self.config.drift_walk_step_s).min(last as f64);
            let index = (position.floor() as usize).min(last);
            let next = (index + 1).min(last);
            let fraction = position - index as f64;
            let level = walk_levels[index] + (walk_levels[next] - walk_levels[index]) * fraction;
            rtt *= level;
        }
        rtt.max(self.config.min_rtt_ms)
    }

    /// Draws one observed RTT at time `time_s` (milliseconds).
    pub fn sample(&mut self, time_s: f64) -> f64 {
        let underlying = self.underlying_rtt_ms(time_s);
        let observed = if self.rng.gen_range(0.0..1.0) < self.config.outlier_probability {
            // Heavy-tail spike: the probe sat in a queue, the VM was
            // descheduled, or the packet was retransmitted.
            let scale = underlying * self.config.outlier_scale_factor;
            rand_ext::pareto(&mut self.rng, scale, self.config.outlier_alpha)
        } else {
            let sigma = self.config.jitter_sigma;
            underlying * rand_ext::lognormal(&mut self.rng, 0.0, sigma)
        };
        // Cap at two minutes: an application-level ping would have timed out.
        observed.clamp(self.config.min_rtt_ms, 120_000.0)
    }

    /// Number of route shifts scheduled for this link.
    pub fn route_shift_count(&self) -> usize {
        self.extras.as_ref().map_or(0, |extras| extras.shifts.len())
    }

    /// Draws one per-direction loss decision: `true` when the packet is
    /// dropped. Consumes randomness only when the configured loss
    /// probability is positive, so loss-free links keep their exact
    /// observation streams.
    pub fn sample_loss(&mut self) -> bool {
        self.config.loss_probability > 0.0
            && self.rng.gen_range(0.0..1.0) < self.config.loss_probability
    }

    /// Splits a measured round-trip time into `(forward, reverse)` one-way
    /// delays in milliseconds, applying the link's fixed asymmetry factor.
    /// The two always sum to `rtt_ms`.
    pub fn one_way_split(&self, rtt_ms: f64) -> (f64, f64) {
        let asymmetry_factor = self
            .extras
            .as_ref()
            .map_or(0.0, |extras| extras.asymmetry_factor);
        let forward = (rtt_ms / 2.0) * (1.0 + asymmetry_factor);
        (forward, rtt_ms - forward)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(base: f64, seed: u64) -> LinkModel {
        LinkModel::new(base, LinkModelConfig::default(), 4.0 * 3600.0, seed)
    }

    /// Layout pin: base RTT 8 + shared configuration 8 + generator 32 +
    /// drift phase and period 16 + the boxed extras 8 = 72 bytes. A
    /// 1,024-node hour builds two hundred thousand of these and a
    /// 4,096-node hour sixteen times that, so whatever a field adds here is
    /// multiplied by millions; rarely-present state goes into `LinkExtras`.
    #[test]
    fn layout_pin_link_model_within_80_bytes() {
        let size = std::mem::size_of::<LinkModel>();
        assert!(size <= 80, "LinkModel grew to {size} bytes");
    }

    #[test]
    fn links_built_from_copies_of_one_configuration_share_it() {
        let config = LinkModelConfig::default().with_loss_probability(0.01);
        let first = LinkModel::new(40.0, config.clone(), 3600.0, 1);
        let second = LinkModel::new(50.0, config.clone(), 3600.0, 2);
        assert!(Arc::ptr_eq(&first.config, &second.config));
        let other = LinkModel::new(50.0, LinkModelConfig::clean(), 3600.0, 3);
        assert_eq!(*other.config, LinkModelConfig::clean());
        let third = LinkModel::new(60.0, config.clone(), 3600.0, 4);
        assert_eq!(*third.config, config);
        assert_eq!(
            *first.config, config,
            "a later configuration never leaks in"
        );
    }

    #[test]
    fn owned_and_shared_configurations_draw_identical_streams() {
        let plain = LinkModelConfig::default();
        let hostile = LinkModelConfig {
            route_changes_per_day: 24.0,
            ..LinkModelConfig::default()
        }
        .with_loss_probability(0.05)
        .with_drift_walk(0.08, 120.0)
        .with_delay_asymmetry(0.3);
        for config in [plain, hostile] {
            let shared = Arc::new(config.clone());
            for seed in 0..32 {
                let base = 20.0 + seed as f64;
                let mut owned = LinkModel::new(base, config.clone(), 3600.0, seed);
                let mut sharing =
                    LinkModel::with_shared_config(base, Arc::clone(&shared), 3600.0, seed);
                assert_eq!(owned.route_shift_count(), sharing.route_shift_count());
                for step in 0..200 {
                    let time_s = step as f64 * 18.0;
                    let (a, b) = (owned.sample(time_s), sharing.sample(time_s));
                    assert_eq!(a.to_bits(), b.to_bits());
                    assert_eq!(owned.sample_loss(), sharing.sample_loss());
                    assert_eq!(owned.one_way_split(a), sharing.one_way_split(b));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "base RTT must be positive")]
    fn rejects_nonpositive_base() {
        let _ = model(0.0, 1);
    }

    #[test]
    fn common_case_stays_near_base() {
        let mut m = model(80.0, 3);
        let samples: Vec<f64> = (0..10_000).map(|i| m.sample(i as f64)).collect();
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[sorted.len() / 2];
        assert!(
            (median - 80.0).abs() < 12.0,
            "median {median:.1} should sit near the 80 ms base"
        );
    }

    #[test]
    fn heavy_tail_is_present_but_rare() {
        let mut m = model(60.0, 5);
        let samples: Vec<f64> = (0..50_000).map(|i| m.sample(i as f64)).collect();
        let big = samples.iter().filter(|&&v| v > 600.0).count();
        let frac = big as f64 / samples.len() as f64;
        assert!(frac > 0.001, "tail too light: {frac}");
        assert!(frac < 0.05, "tail too heavy: {frac}");
        // Order-of-magnitude outliers exist.
        assert!(samples.iter().any(|&v| v > 6_000.0));
    }

    #[test]
    fn aggregate_tail_fraction_matches_figure_2_order_of_magnitude() {
        // Across a mix of links, a fraction of samples in the vicinity of the
        // paper's 0.4% exceeds one second.
        let mut total = 0usize;
        let mut above_1s = 0usize;
        for (i, base) in [15.0, 40.0, 85.0, 140.0, 260.0].iter().enumerate() {
            let mut m = model(*base, 100 + i as u64);
            for t in 0..20_000 {
                let s = m.sample(t as f64);
                total += 1;
                if s >= 1_000.0 {
                    above_1s += 1;
                }
            }
        }
        let frac = above_1s as f64 / total as f64;
        assert!(
            frac > 0.0005 && frac < 0.02,
            "fraction above 1 s = {frac:.4}, expected near 0.4%"
        );
    }

    #[test]
    fn clean_config_has_no_outliers() {
        let mut m = LinkModel::new(50.0, LinkModelConfig::clean(), 3600.0, 9);
        let samples: Vec<f64> = (0..20_000).map(|i| m.sample(i as f64)).collect();
        assert!(samples.iter().all(|&v| v < 60.0), "clean links never spike");
        assert_eq!(m.route_shift_count(), 0);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let mut a = model(70.0, 11);
        let mut b = model(70.0, 11);
        for t in 0..100 {
            assert_eq!(a.sample(t as f64), b.sample(t as f64));
        }
    }

    #[test]
    fn underlying_latency_changes_after_route_shift() {
        // Force a route change by using a long duration and high rate.
        let config = LinkModelConfig {
            route_changes_per_day: 24.0,
            ..LinkModelConfig::default()
        };
        let m = LinkModel::new(100.0, config, 86_400.0, 17);
        assert!(
            m.route_shift_count() > 0,
            "expected at least one route shift"
        );
        let early = m.underlying_rtt_ms(0.0);
        let late = m.underlying_rtt_ms(86_000.0);
        assert!(
            (early - late).abs() > 1.0,
            "underlying latency should change after shifts ({early:.1} vs {late:.1})"
        );
    }

    #[test]
    fn loss_free_links_never_drop_and_split_evenly() {
        let mut m = model(80.0, 31);
        for _ in 0..1_000 {
            assert!(!m.sample_loss());
        }
        let (fwd, rev) = m.one_way_split(90.0);
        assert_eq!(fwd, 45.0);
        assert_eq!(rev, 45.0);
    }

    #[test]
    fn loss_probability_drops_roughly_that_fraction() {
        let config = LinkModelConfig::default().with_loss_probability(0.1);
        let mut m = LinkModel::new(80.0, config, 3600.0, 31);
        let dropped = (0..20_000).filter(|_| m.sample_loss()).count();
        let frac = dropped as f64 / 20_000.0;
        assert!((frac - 0.1).abs() < 0.02, "loss fraction {frac:.3}");
    }

    #[test]
    fn asymmetric_links_split_unevenly_but_conserve_rtt() {
        let config = LinkModelConfig::default().with_delay_asymmetry(0.4);
        let mut found_asymmetric = false;
        for seed in 0..8 {
            let m = LinkModel::new(80.0, config.clone(), 3600.0, seed);
            let (fwd, rev) = m.one_way_split(100.0);
            assert!((fwd + rev - 100.0).abs() < 1e-9);
            assert!(fwd > 0.0 && rev > 0.0);
            if (fwd - rev).abs() > 1.0 {
                found_asymmetric = true;
            }
        }
        assert!(found_asymmetric, "some links should be visibly asymmetric");
    }

    #[test]
    fn asymmetry_factor_stays_in_the_documented_closed_interval() {
        // The `delay_asymmetry` contract promises a factor in the *closed*
        // interval `[-a, a]`: both extremes are admissible routes and the
        // sampling is inclusive. Recover the drawn factor from the one-way
        // split ( fwd = rtt/2·(1+f), rev = rtt/2·(1−f) ⇒ f = (fwd−rev)/rtt )
        // across many links and pin the bound.
        let a = 0.25;
        let config = LinkModelConfig::default().with_delay_asymmetry(a);
        let mut max_magnitude: f64 = 0.0;
        for seed in 0..512 {
            let m = LinkModel::new(80.0, config.clone(), 3600.0, seed);
            let (fwd, rev) = m.one_way_split(100.0);
            let factor = (fwd - rev) / 100.0;
            assert!(
                (-a..=a).contains(&factor),
                "factor {factor} escaped [-{a}, {a}] (seed {seed})"
            );
            max_magnitude = max_magnitude.max(factor.abs());
        }
        // The draws genuinely range over the interval rather than
        // collapsing near zero.
        assert!(max_magnitude > 0.9 * a, "max |factor| {max_magnitude}");
    }

    #[test]
    fn enabling_loss_does_not_change_the_observation_stream() {
        // Loss decisions draw from the same rng, but only *between* samples;
        // a run that samples first sees identical observations either way.
        let lossy_config = LinkModelConfig::default().with_loss_probability(0.05);
        let mut plain = model(70.0, 11);
        let mut lossy = LinkModel::new(70.0, lossy_config, 4.0 * 3600.0, 11);
        // Before any loss decision is drawn, the streams agree; afterwards
        // the lossy link diverges (it consumed randomness), which is
        // expected — the invariant that matters is that a loss-free config
        // never consumes extra randomness, checked below.
        assert_eq!(plain.sample(0.0), lossy.sample(0.0));
        let _ = lossy.sample_loss();
        let mut a = model(70.0, 12);
        let mut b = model(70.0, 12);
        for t in 0..100 {
            assert!(!b.sample_loss());
            assert_eq!(a.sample(t as f64), b.sample(t as f64));
        }
    }

    #[test]
    fn loss_probability_must_be_a_probability() {
        // Setters no longer panic; the bad value is carried until validate,
        // where it comes back as a typed error.
        let config = LinkModelConfig::default().with_loss_probability(1.5);
        assert_eq!(
            config.validate(),
            Err(ConfigError::LossProbabilityOutOfRange(1.5))
        );
    }

    #[test]
    fn delay_asymmetry_must_leave_both_directions_positive() {
        let config = LinkModelConfig::default().with_delay_asymmetry(1.0);
        assert_eq!(
            config.validate(),
            Err(ConfigError::DelayAsymmetryOutOfRange(1.0))
        );
    }

    #[test]
    fn validate_rejects_unphysical_tuning_parameters() {
        for (mutate, name) in [
            (
                (|c: &mut LinkModelConfig| c.jitter_sigma = -0.1) as fn(&mut LinkModelConfig),
                "jitter_sigma",
            ),
            (|c| c.outlier_probability = 1.2, "outlier_probability"),
            (|c| c.outlier_alpha = 0.0, "outlier_alpha"),
            (
                |c| c.outlier_scale_factor = f64::NAN,
                "outlier_scale_factor",
            ),
            (|c| c.drift_amplitude = f64::INFINITY, "drift_amplitude"),
            (|c| c.route_changes_per_day = -1.0, "route_changes_per_day"),
            (|c| c.min_rtt_ms = 0.0, "min_rtt_ms"),
        ] {
            let mut config = LinkModelConfig::default();
            mutate(&mut config);
            assert!(
                matches!(
                    config.validate(),
                    Err(ConfigError::LinkParameterInvalid { name: n, .. }) if n == name
                ),
                "{name} should be rejected, got {:?}",
                config.validate()
            );
        }
    }

    #[test]
    fn disabled_drift_walk_preserves_the_observation_stream() {
        // A sigma-0 walk draws nothing at construction, so the whole
        // downstream jitter/outlier stream is byte-identical whatever the
        // step length is set to.
        let stepped = LinkModelConfig {
            drift_walk_step_s: 60.0,
            ..LinkModelConfig::default()
        };
        let mut a = model(70.0, 41);
        let mut b = LinkModel::new(70.0, stepped, 4.0 * 3600.0, 41);
        for t in 0..200 {
            assert_eq!(a.sample(t as f64), b.sample(t as f64));
        }
        assert_eq!(a.underlying_rtt_ms(1234.5), b.underlying_rtt_ms(1234.5));
    }

    #[test]
    fn drift_walk_migrates_the_underlying_latency_over_hours() {
        let config = LinkModelConfig::clean().with_drift_walk(0.2, 1800.0);
        let mut moved = false;
        for seed in 0..8 {
            let m = LinkModel::new(100.0, config.clone(), 8.0 * 3600.0, seed);
            let early = m.underlying_rtt_ms(0.0);
            let late = m.underlying_rtt_ms(6.0 * 3600.0);
            // Levels are clamped so the walk stays physical.
            assert!((100.0 * 0.25 - 1e-9..=100.0 * 4.0 + 1e-9).contains(&late));
            if (late - early).abs() > 5.0 {
                moved = true;
            }
        }
        assert!(moved, "an hours-long walk should visibly migrate the base");
    }

    #[test]
    fn drift_walk_interpolates_between_steps() {
        // Between two step boundaries the underlying latency moves
        // monotonically from one level towards the next — a ramp, not a
        // staircase.
        let config = LinkModelConfig::clean().with_drift_walk(0.3, 600.0);
        let m = LinkModel::new(100.0, config, 3600.0, 7);
        let at_step = m.underlying_rtt_ms(600.0);
        let next_step = m.underlying_rtt_ms(1200.0);
        let midpoint = m.underlying_rtt_ms(900.0);
        let (lo, hi) = if at_step <= next_step {
            (at_step, next_step)
        } else {
            (next_step, at_step)
        };
        assert!(
            midpoint >= lo - 1e-9 && midpoint <= hi + 1e-9,
            "midpoint {midpoint} outside [{lo}, {hi}]"
        );
    }

    #[test]
    fn validate_rejects_malformed_drift_configs() {
        let bad_period = LinkModelConfig {
            drift_walk_step_s: 0.0,
            ..LinkModelConfig::default()
        };
        assert!(matches!(
            bad_period.validate(),
            Err(ConfigError::DriftPeriodNotPositive(_))
        ));
        let bad_sigma = LinkModelConfig {
            drift_walk_sigma: f64::NAN,
            ..LinkModelConfig::default()
        };
        assert!(matches!(
            bad_sigma.validate(),
            Err(ConfigError::DriftMagnitudeNotFinite(_))
        ));
        assert!(LinkModelConfig::default().validate().is_ok());
    }

    #[test]
    fn with_drift_walk_defers_range_errors_to_validate() {
        let config = LinkModelConfig::default().with_drift_walk(0.1, -5.0);
        assert_eq!(
            config.validate(),
            Err(ConfigError::DriftPeriodNotPositive(-5.0))
        );
    }

    #[test]
    fn samples_respect_floor_and_cap() {
        let mut m = LinkModel::new(0.5, LinkModelConfig::default(), 3600.0, 23);
        for t in 0..5_000 {
            let s = m.sample(t as f64);
            assert!(s >= 0.3);
            assert!(s <= 120_000.0);
        }
    }
}
