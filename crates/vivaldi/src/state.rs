//! The per-node Vivaldi algorithm state and update rule (paper Figure 1).

use crate::config::VivaldiConfig;
use crate::coordinate::{self as nc_coordinate, Coordinate};
use crate::error::{relative_error, MIN_LATENCY_MS};

/// One latency observation of a remote node: the remote coordinate, the
/// remote node's error estimate `w_j`, and the measured round-trip latency.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteObservation {
    remote_coordinate: Coordinate,
    remote_error_estimate: f64,
    rtt_ms: f64,
}

impl RemoteObservation {
    /// Builds an observation. The remote error estimate is clamped into
    /// `[MIN_ERROR_ESTIMATE, 1.0]` — a non-finite value (possible from a
    /// corrupt or hostile wire message, since `NaN.clamp(..)` stays NaN) is
    /// treated as 1.0, i.e. a completely unconfident peer. The RTT is used
    /// as provided (the state machine validates it against the configured
    /// plausibility bound).
    pub fn new(remote_coordinate: Coordinate, remote_error_estimate: f64, rtt_ms: f64) -> Self {
        let remote_error_estimate = if remote_error_estimate.is_finite() {
            remote_error_estimate.clamp(MIN_ERROR_ESTIMATE, 1.0)
        } else {
            1.0
        };
        RemoteObservation {
            remote_coordinate,
            remote_error_estimate,
            rtt_ms,
        }
    }

    /// The remote node's coordinate at observation time.
    pub fn remote_coordinate(&self) -> &Coordinate {
        &self.remote_coordinate
    }

    /// The remote node's error estimate `w_j`.
    pub fn remote_error_estimate(&self) -> f64 {
        self.remote_error_estimate
    }

    /// The measured round-trip latency in milliseconds.
    pub fn rtt_ms(&self) -> f64 {
        self.rtt_ms
    }
}

/// What one call to [`VivaldiState::observe`] did.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateOutcome {
    /// Relative error of the pre-update prediction against this observation.
    pub relative_error: f64,
    /// Magnitude of the coordinate displacement applied (milliseconds in the
    /// coordinate space). This is the per-observation contribution to the
    /// paper's instability metric.
    pub displacement_ms: f64,
    /// The node's error estimate after the update.
    pub error_estimate: f64,
    /// True when the observation was rejected (non-finite, non-positive or
    /// implausibly large RTT) and no state changed.
    pub rejected: bool,
    /// True when confidence building considered the prediction and the
    /// observation equal (within the measurement-error margin), so the error
    /// estimate was driven toward zero and the coordinate left in place.
    pub within_error_margin: bool,
}

/// Smallest error estimate a node may report. A node that claimed a perfect
/// (zero) error estimate would acquire infinite pull on its neighbours
/// through the `w_i / (w_i + w_j)` balance, so Vivaldi implementations floor
/// it at a small positive value.
pub const MIN_ERROR_ESTIMATE: f64 = 1e-4;

/// The runtime state of a [`VivaldiState`], without its configuration:
/// what a snapshot carries and a restored node continues from.
///
/// Produced by [`VivaldiState::export_state`] and adopted by
/// [`VivaldiState::import_state`] on a node built from the configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct VivaldiRuntime {
    /// The system-level coordinate `x_i`.
    pub coordinate: Coordinate,
    /// The error estimate `w_i`.
    pub error_estimate: f64,
    /// Number of accepted observations.
    pub observation_count: u64,
    /// Sum of all coordinate displacements (milliseconds).
    pub total_displacement_ms: f64,
    /// State of the tie-break generator, so a restored node separates
    /// coincident coordinates along the same directions.
    pub tie_break_state: u64,
}

/// Per-node Vivaldi algorithm state: the coordinate `x_i` and the error
/// estimate `w_i` (the paper calls `1 − w_i` the node's *confidence*).
///
/// The update rule follows Figure 1 of the paper:
///
/// ```text
/// w_s = w_i / (w_i + w_j)                     observation weight
/// ε   = | ‖x_i − x_j‖ − l | / l               relative error of the sample
/// α   = c_e × w_s
/// w_i = α × ε + (1 − α) × w_i                 adaptive EWMA of the error
/// δ   = c_c × w_s
/// x_i = x_i + δ × (l − ‖x_i − x_j‖) × u(x_i − x_j)
/// ```
///
/// The displacement on the last line follows the original Vivaldi paper
/// (Dabek et al., SIGCOMM 2004): the spring pushes the nodes apart when the
/// measured latency exceeds the coordinate distance and pulls them together
/// when it is smaller. (Figure 1 of the TR prints the force term as
/// `(‖x_i − x_j‖ − l)`, which with the unit vector `u(x_i − x_j)` would move
/// coordinates *away* from under-estimated neighbours; we keep the physical
/// spring semantics, which is also what the authors' own simulator does.)
///
/// # Examples
///
/// ```
/// use nc_vivaldi::{RemoteObservation, VivaldiConfig, VivaldiState};
///
/// let mut node = VivaldiState::new(VivaldiConfig::paper_defaults());
/// let remote = VivaldiState::new(VivaldiConfig::paper_defaults());
/// let obs = RemoteObservation::new(remote.coordinate().clone(), remote.error_estimate(), 50.0);
/// let outcome = node.observe(&obs);
/// assert!(!outcome.rejected);
/// assert!(outcome.displacement_ms > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VivaldiState {
    config: VivaldiConfig,
    coordinate: Coordinate,
    error_estimate: f64,
    observation_count: u64,
    total_displacement_ms: f64,
    tie_break_state: u64,
}

impl VivaldiState {
    /// Creates a node at the origin with the configured initial error
    /// estimate.
    ///
    /// # Panics
    ///
    /// Panics with [`VivaldiConfig::validate`]'s message when it refuses
    /// `config`.
    pub fn new(config: VivaldiConfig) -> Self {
        if let Err(error) = config.validate() {
            panic!("invalid Vivaldi config: {error}");
        }
        let coordinate = Coordinate::origin(config.dimensions());
        let error_estimate = config.initial_error_estimate();
        let tie_break_state = config.seed() | 1;
        VivaldiState {
            config,
            coordinate,
            error_estimate,
            observation_count: 0,
            total_displacement_ms: 0.0,
            tie_break_state,
        }
    }

    /// Exports the runtime state — everything but the configuration — for
    /// persistence.
    pub fn export_state(&self) -> VivaldiRuntime {
        VivaldiRuntime {
            coordinate: self.coordinate.clone(),
            error_estimate: self.error_estimate,
            observation_count: self.observation_count,
            total_displacement_ms: self.total_displacement_ms,
            tie_break_state: self.tie_break_state,
        }
    }

    /// Adopts runtime state exported by [`VivaldiState::export_state`],
    /// keeping this node's configuration: the constants come from the
    /// configuration, the trajectory from the state. The error estimate is
    /// clamped into its valid range, a non-finite one read as 1.0, so a
    /// corrupt persisted value cannot enter the update rule.
    ///
    /// # Panics
    ///
    /// Panics when the state's coordinate has another dimensionality than
    /// the configuration (callers restoring from untrusted input check
    /// dimensions first).
    pub fn import_state(&mut self, state: &VivaldiRuntime) {
        assert_eq!(
            state.coordinate.dimensions(),
            self.config.dimensions(),
            "imported coordinate must match the configured dimensionality"
        );
        self.coordinate = state.coordinate.clone();
        self.error_estimate = if state.error_estimate.is_finite() {
            state.error_estimate.clamp(MIN_ERROR_ESTIMATE, 1.0)
        } else {
            1.0
        };
        self.observation_count = state.observation_count;
        self.total_displacement_ms = state.total_displacement_ms;
        self.tie_break_state = state.tie_break_state;
    }

    /// The node's current system-level coordinate `x_i`.
    pub fn coordinate(&self) -> &Coordinate {
        &self.coordinate
    }

    /// The node's error estimate `w_i ∈ [MIN_ERROR_ESTIMATE, 1]`. Lower is
    /// better.
    pub fn error_estimate(&self) -> f64 {
        self.error_estimate
    }

    /// The node's confidence, `1 − w_i`, the quantity plotted in the paper's
    /// Figure 6. Ranges from 0 (just joined, no idea where it is) to ~1
    /// (coordinate predicts recent observations almost exactly).
    pub fn confidence(&self) -> f64 {
        1.0 - self.error_estimate
    }

    /// Number of accepted observations so far.
    pub fn observation_count(&self) -> u64 {
        self.observation_count
    }

    /// Sum of all coordinate displacements so far (milliseconds). Dividing by
    /// elapsed time gives the paper's stability metric for this node.
    pub fn total_displacement_ms(&self) -> f64 {
        self.total_displacement_ms
    }

    /// Predicted round-trip latency to a remote coordinate, in milliseconds.
    pub fn estimated_rtt_ms(&self, remote: &Coordinate) -> f64 {
        self.coordinate.distance(remote)
    }

    /// Applies one latency observation, returning what changed.
    ///
    /// Rejected observations (non-finite, non-positive, or larger than the
    /// configured plausibility bound) leave the state untouched and are
    /// flagged in the outcome; the caller decides whether to count them.
    pub fn observe(&mut self, observation: &RemoteObservation) -> UpdateOutcome {
        let rtt = observation.rtt_ms();
        if !rtt.is_finite() || rtt <= 0.0 || rtt > self.config.max_observed_latency_ms() {
            return UpdateOutcome {
                relative_error: f64::NAN,
                displacement_ms: 0.0,
                error_estimate: self.error_estimate,
                rejected: true,
                within_error_margin: false,
            };
        }
        let rtt = rtt.max(MIN_LATENCY_MS);
        let remote = observation.remote_coordinate();
        let predicted = self.coordinate.distance(remote);

        // Confidence building (§IV-B): within the measurement-error margin the
        // prediction and observation are considered equal.
        let within_margin = self
            .config
            .error_margin_ms()
            .map(|margin| (predicted - rtt).abs() <= margin)
            .unwrap_or(false);

        // Line 1: observation weight from the balance of error estimates.
        let wi = self.error_estimate.clamp(MIN_ERROR_ESTIMATE, 1.0);
        let wj = observation.remote_error_estimate();
        let ws = wi / (wi + wj);

        // Line 2: relative error of this sample (zero when within the margin).
        let sample_error = if within_margin {
            0.0
        } else {
            relative_error(predicted, rtt)
        };

        // Lines 3–4: adaptive EWMA of the error estimate.
        let alpha = self.config.ce() * ws;
        self.error_estimate = (alpha * sample_error + (1.0 - alpha) * self.error_estimate)
            .clamp(MIN_ERROR_ESTIMATE, 1.0);

        // Lines 5–6: move along the spring force, unless the sample was
        // within the error margin (no movement necessary — the coordinate
        // already explains the observation).
        let displacement_ms = if within_margin {
            0.0
        } else {
            let delta = self.config.cc() * ws;
            let force = rtt - predicted;
            // The direction vector lives entirely on the stack (inline
            // coordinate) and is scaled and applied in place: the whole
            // spring step performs zero heap allocations.
            let mut displacement = match self.coordinate.unit_vector_from(remote) {
                Some(u) => u,
                None => self.random_unit_vector(),
            };
            displacement.scale_in_place(delta * force);
            let magnitude = displacement.magnitude();
            self.coordinate.displace_by(&displacement);
            magnitude
        };

        self.observation_count += 1;
        self.total_displacement_ms += displacement_ms;

        UpdateOutcome {
            relative_error: relative_error(predicted, rtt),
            displacement_ms,
            error_estimate: self.error_estimate,
            rejected: false,
            within_error_margin: within_margin,
        }
    }

    /// Deterministic pseudo-random unit vector, used only to separate nodes
    /// whose Euclidean positions coincide (e.g. everyone starts at the
    /// origin). A SplitMix64 step keeps the crate free of external RNG
    /// dependencies while remaining reproducible for a given seed.
    fn random_unit_vector(&mut self) -> Coordinate {
        let dims = self.config.dimensions();
        let mut components = [0.0; nc_coordinate::MAX_DIMS];
        loop {
            for slot in components[..dims].iter_mut() {
                // SplitMix64.
                self.tie_break_state = self.tie_break_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = self.tie_break_state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                // Map to (-1, 1).
                let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
                *slot = unit * 2.0 - 1.0;
            }
            let norm: f64 = components[..dims].iter().map(|c| c * c).sum::<f64>().sqrt();
            if norm > 1e-6 {
                for slot in components[..dims].iter_mut() {
                    *slot /= norm;
                }
                return Coordinate::new(&components[..dims]).expect("normalized finite vector");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn paper_state() -> VivaldiState {
        VivaldiState::new(VivaldiConfig::paper_defaults())
    }

    /// A fresh node placed at `coordinate`.
    fn at(config: VivaldiConfig, coordinate: Coordinate) -> VivaldiState {
        let mut state = VivaldiState::new(config);
        state.coordinate = coordinate;
        state
    }

    fn observation_of(state: &VivaldiState, rtt: f64) -> RemoteObservation {
        RemoteObservation::new(state.coordinate().clone(), state.error_estimate(), rtt)
    }

    #[test]
    fn new_node_starts_at_origin_with_no_confidence() {
        let s = paper_state();
        assert_eq!(s.coordinate(), &Coordinate::origin(3));
        assert_eq!(s.error_estimate(), 1.0);
        assert_eq!(s.confidence(), 0.0);
        assert_eq!(s.observation_count(), 0);
    }

    #[test]
    fn rejects_bad_rtts() {
        let mut s = paper_state();
        let remote = paper_state();
        for bad in [f64::NAN, f64::INFINITY, 0.0, -5.0, 1e9] {
            let outcome = s.observe(&RemoteObservation::new(
                remote.coordinate().clone(),
                remote.error_estimate(),
                bad,
            ));
            assert!(outcome.rejected, "rtt {bad} should be rejected");
        }
        assert_eq!(s.observation_count(), 0);
        assert_eq!(s.coordinate(), &Coordinate::origin(3));
    }

    #[test]
    fn colocated_nodes_separate() {
        let mut s = paper_state();
        let remote = paper_state();
        let outcome = s.observe(&observation_of(&remote, 100.0));
        assert!(!outcome.rejected);
        assert!(outcome.displacement_ms > 0.0);
        assert!(s.coordinate().euclidean_magnitude() > 0.0);
    }

    #[test]
    fn two_nodes_converge_to_their_latency() {
        let config = VivaldiConfig::paper_defaults();
        let mut a = VivaldiState::new(config.clone());
        let mut b = VivaldiState::new(config);
        for _ in 0..500 {
            let to_a = observation_of(&b, 120.0);
            a.observe(&to_a);
            let to_b = observation_of(&a, 120.0);
            b.observe(&to_b);
        }
        let predicted = a.coordinate().distance(b.coordinate());
        assert!(
            (predicted - 120.0).abs() < 10.0,
            "expected ~120 ms, predicted {predicted:.1} ms"
        );
        assert!(a.error_estimate() < 0.2);
    }

    #[test]
    fn triangle_of_nodes_converges() {
        // Three nodes with consistent latencies 60/80/100 (a valid triangle)
        // should embed with low error.
        let config = VivaldiConfig::paper_defaults().with_dimensions(2);
        let mut nodes = [
            VivaldiState::new(config.clone().with_seed(1)),
            VivaldiState::new(config.clone().with_seed(2)),
            VivaldiState::new(config.with_seed(3)),
        ];
        let rtt = |i: usize, j: usize| -> f64 {
            match (i.min(j), i.max(j)) {
                (0, 1) => 60.0,
                (0, 2) => 80.0,
                (1, 2) => 100.0,
                _ => unreachable!(),
            }
        };
        for round in 0..2000 {
            let i = round % 3;
            let j = (round + 1 + round / 3 % 2) % 3;
            if i == j {
                continue;
            }
            let obs = RemoteObservation::new(
                nodes[j].coordinate().clone(),
                nodes[j].error_estimate(),
                rtt(i, j),
            );
            nodes[i].observe(&obs);
        }
        for i in 0..3 {
            for j in (i + 1)..3 {
                let predicted = nodes[i].coordinate().distance(nodes[j].coordinate());
                let err = relative_error(predicted, rtt(i, j));
                assert!(
                    err < 0.25,
                    "pair ({i},{j}) predicted {predicted:.1} vs {} (err {err:.2})",
                    rtt(i, j)
                );
            }
        }
    }

    #[test]
    fn confidence_building_treats_margin_as_equal() {
        let config = VivaldiConfig::paper_defaults().with_confidence_building(Some(3.0));
        let mut a = at(
            config.clone(),
            Coordinate::new(vec![1.0, 0.0, 0.0]).unwrap(),
        );
        let remote = VivaldiState::new(config);
        // Predicted distance 1 ms, observed 3 ms: within the 3 ms margin.
        let outcome = a.observe(&RemoteObservation::new(
            remote.coordinate().clone(),
            0.5,
            3.0,
        ));
        assert!(outcome.within_error_margin);
        assert_eq!(outcome.displacement_ms, 0.0);
        // The error estimate shrinks because the sample error was counted as 0.
        assert!(a.error_estimate() < 1.0);
    }

    #[test]
    fn without_confidence_building_small_jitter_hurts_confidence() {
        // The Figure 6 effect: on a ~1 ms link, a 3 ms sample produces a huge
        // relative error and damages confidence unless the margin is allowed.
        let config = VivaldiConfig::paper_defaults();
        let mut with_margin = at(
            config.clone().with_confidence_building(Some(3.0)),
            Coordinate::new(vec![1.0, 0.0, 0.0]).unwrap(),
        );
        let mut without_margin = at(
            config.clone(),
            Coordinate::new(vec![1.0, 0.0, 0.0]).unwrap(),
        );
        let remote = VivaldiState::new(config);
        // Drive both to moderate confidence first with exact 1 ms samples.
        for _ in 0..50 {
            let obs = RemoteObservation::new(remote.coordinate().clone(), 0.5, 1.0);
            with_margin.observe(&obs);
            without_margin.observe(&obs);
        }
        // Now a burst of 3 ms jitter samples.
        for _ in 0..20 {
            let obs = RemoteObservation::new(remote.coordinate().clone(), 0.5, 3.0);
            with_margin.observe(&obs);
            without_margin.observe(&obs);
        }
        assert!(
            with_margin.confidence() > without_margin.confidence(),
            "confidence building should preserve confidence ({} vs {})",
            with_margin.confidence(),
            without_margin.confidence()
        );
    }

    #[test]
    fn error_estimate_stays_in_bounds() {
        let mut s = paper_state();
        let remote = paper_state();
        for i in 0..200 {
            // Wildly inconsistent observations.
            let rtt = if i % 2 == 0 { 1.0 } else { 5_000.0 };
            s.observe(&observation_of(&remote, rtt));
            assert!(s.error_estimate() >= MIN_ERROR_ESTIMATE);
            assert!(s.error_estimate() <= 1.0);
        }
    }

    #[test]
    fn total_displacement_accumulates() {
        let mut s = paper_state();
        let remote = paper_state();
        let mut sum = 0.0;
        for _ in 0..20 {
            let outcome = s.observe(&observation_of(&remote, 80.0));
            sum += outcome.displacement_ms;
        }
        assert!((s.total_displacement_ms() - sum).abs() < 1e-9);
        assert_eq!(s.observation_count(), 20);
    }

    #[test]
    fn confident_remote_pulls_harder_than_unconfident() {
        // A node observing a very confident neighbour (low w_j) should move
        // further than when observing an unconfident one, all else equal.
        let config = VivaldiConfig::paper_defaults();
        let start = Coordinate::new(vec![10.0, 0.0, 0.0]).unwrap();
        let remote_coord = Coordinate::origin(3);

        let mut toward_confident = at(config.clone(), start.clone());
        let confident = RemoteObservation::new(remote_coord.clone(), 0.01, 100.0);
        let d_confident = toward_confident.observe(&confident).displacement_ms;

        let mut toward_unsure = at(config, start);
        let unsure = RemoteObservation::new(remote_coord, 1.0, 100.0);
        let d_unsure = toward_unsure.observe(&unsure).displacement_ms;

        assert!(
            d_confident > d_unsure,
            "confident neighbour should exert more pull ({d_confident} vs {d_unsure})"
        );
    }

    #[test]
    fn imported_state_continues_the_trajectory_under_the_importers_constants() {
        let mut original = paper_state();
        let remote = paper_state();
        for rtt in [40.0, 55.0, 47.0] {
            original.observe(&observation_of(&remote, rtt));
        }
        let mut restored = paper_state();
        restored.import_state(&original.export_state());
        assert_eq!(restored, original);
        let next = observation_of(&remote, 61.0);
        assert_eq!(restored.observe(&next), original.observe(&next));
        assert_eq!(restored, original);

        // The constants stay the importer's; a non-finite error estimate
        // is read as a completely unconfident node.
        let margin = VivaldiConfig::paper_defaults().with_confidence_building(Some(3.0));
        let mut state = original.export_state();
        state.error_estimate = f64::NAN;
        let mut other = VivaldiState::new(margin.clone());
        other.import_state(&state);
        assert_eq!(other.config, margin);
        assert_eq!(other.coordinate(), original.coordinate());
        assert_eq!(other.error_estimate(), 1.0);
    }

    proptest! {
        #[test]
        fn observe_never_produces_nan_coordinates(
            rtts in proptest::collection::vec(0.1f64..3000.0, 1..200),
            remote_x in -500.0f64..500.0,
            remote_y in -500.0f64..500.0,
            remote_z in -500.0f64..500.0,
        ) {
            let mut s = paper_state();
            let remote = Coordinate::new(vec![remote_x, remote_y, remote_z]).unwrap();
            for rtt in rtts {
                s.observe(&RemoteObservation::new(remote.clone(), 0.5, rtt));
                prop_assert!(s.coordinate().components().iter().all(|c| c.is_finite()));
                prop_assert!(s.error_estimate().is_finite());
            }
        }

        #[test]
        fn displacement_bounded_by_cc_times_force(
            rtt in 0.1f64..5000.0,
            px in -1000.0f64..1000.0,
        ) {
            // A single update moves the coordinate by at most c_c * |rtt - predicted|
            // because w_s <= 1.
            let config = VivaldiConfig::paper_defaults();
            let start = Coordinate::new(vec![px, 0.0, 0.0]).unwrap();
            let mut s = at(config.clone(), start.clone());
            let remote = Coordinate::origin(3);
            let predicted = start.distance(&remote);
            let outcome = s.observe(&RemoteObservation::new(remote, 0.5, rtt));
            let bound = config.cc() * (rtt.max(MIN_LATENCY_MS) - predicted).abs() + 1e-9;
            prop_assert!(outcome.displacement_ms <= bound,
                "displacement {} exceeds bound {}", outcome.displacement_ms, bound);
        }
    }
}
