//! The application-update heuristics of §V-B.
//!
//! Each heuristic watches the stream of system-level coordinates `c_s` and
//! decides when the application-level coordinate `c_a` should be updated and
//! to what value. The paper compares four heuristics (plus one ablation):
//!
//! | Heuristic | Trigger | New `c_a` | State |
//! |-----------|---------|-----------|-------|
//! | SYSTEM | `‖c_s(t) − c_s(t−1)‖ > τ` | `c_s` | previous `c_s` |
//! | APPLICATION | `‖c_a − c_s‖ > τ` | `c_s` | none |
//! | RELATIVE | `‖C(W_s) − C(W_c)‖ / ‖C(W_s) − r‖ > ε_r` | `C(W_c)` | two windows |
//! | ENERGY | `e(W_s, W_c) > τ` | `C(W_c)` | two windows |
//! | APPLICATION/CENTROID | `‖c_a − c_s‖ > τ` | centroid of recent `c_s` | sliding window |
//!
//! The windowed heuristics (RELATIVE, ENERGY) are the ones the paper finds
//! robust: they increase stability substantially before accuracy starts to
//! decline, while the window-less ones can only trade one for the other.

use nc_stats::{cross_sum_by, energy_distance_by, energy_from_sums, slide_delta_by, within_sum_by};
use nc_vivaldi::Coordinate;

use crate::config::HeuristicConfig;
use crate::window::{DetectorState, TwoWindowDetector};

/// The runtime state of an [`UpdateHeuristic`].
///
/// Thresholds and window sizes are configuration and are not captured here;
/// a restored heuristic is first built from its configuration and then
/// adopts one of these states via [`UpdateHeuristic::import_state`].
#[derive(Debug, Clone, PartialEq)]
pub enum HeuristicState {
    /// The heuristic keeps no runtime state (APPLICATION).
    Stateless,
    /// State of [`SystemHeuristic`]: the previously seen system coordinate.
    System {
        /// The last system-level coordinate observed, if any.
        previous_system: Option<Coordinate>,
    },
    /// State of the windowed heuristics (RELATIVE, ENERGY).
    Windowed(DetectorState),
    /// State of [`CentroidHeuristic`]: its sliding coordinate window.
    Centroid {
        /// The sliding window of recent system coordinates, oldest first.
        window: Vec<Coordinate>,
    },
}

impl HeuristicState {
    /// A short name of the state family, for error messages.
    pub fn family(&self) -> &'static str {
        match self {
            HeuristicState::Stateless => "stateless",
            HeuristicState::System { .. } => "system",
            HeuristicState::Windowed(_) => "windowed",
            HeuristicState::Centroid { .. } => "centroid",
        }
    }
}

/// Error returned when a heuristic is asked to adopt state exported by a
/// heuristic of a different family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeuristicStateMismatch {
    /// The family of the heuristic doing the importing.
    pub expected: &'static str,
    /// The family the state was exported from.
    pub found: &'static str,
}

impl std::fmt::Display for HeuristicStateMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cannot restore a {} heuristic from {} state",
            self.expected, self.found
        )
    }
}

impl std::error::Error for HeuristicStateMismatch {}

/// Additional per-update context a heuristic may consult.
#[derive(Debug, Clone, Default)]
pub struct UpdateContext {
    /// The coordinate of the (approximately) nearest known neighbour, learned
    /// from the latency samples themselves. RELATIVE scales its trigger by
    /// the distance to this neighbour so that updates are "relative to the
    /// node's locale"; when it is unknown the heuristic stays quiet.
    pub nearest_neighbor: Option<Coordinate>,
}

/// What a heuristic decided for one system-level update.
#[derive(Debug, Clone, PartialEq)]
pub enum UpdateDecision {
    /// Keep the currently published application-level coordinate.
    Keep,
    /// Publish the contained coordinate as the new application-level
    /// coordinate.
    Publish(Coordinate),
}

impl UpdateDecision {
    /// True when the decision publishes a new coordinate.
    pub fn is_publish(&self) -> bool {
        matches!(self, UpdateDecision::Publish(_))
    }
}

/// A strategy deciding when the application-level coordinate should change.
///
/// Each of the five heuristics implements it, and is driven through its arm
/// of [`Heuristic`]: it receives every system-level coordinate `c_s`
/// together with the currently published application-level coordinate
/// `c_a`.
pub trait UpdateHeuristic: Send {
    /// Considers one new system-level coordinate and decides whether to
    /// publish a new application-level coordinate.
    fn on_system_update(
        &mut self,
        system: &Coordinate,
        application: &Coordinate,
        ctx: &UpdateContext,
    ) -> UpdateDecision;

    /// Exports the heuristic's runtime state for persistence.
    fn export_state(&self) -> HeuristicState;

    /// Adopts runtime state exported by a heuristic of the same family.
    ///
    /// # Errors
    ///
    /// Returns [`HeuristicStateMismatch`] when the state belongs to a
    /// different family; the heuristic is left unchanged in that case.
    fn import_state(&mut self, state: &HeuristicState) -> Result<(), HeuristicStateMismatch>;
}

// ---------------------------------------------------------------------------
// SYSTEM
// ---------------------------------------------------------------------------

/// SYSTEM heuristic: publish `c_s` whenever the system coordinate moved more
/// than `τ` milliseconds in a single step.
///
/// Simple, but suffers from the pathological case the paper points out: many
/// consecutive steps just under the threshold accumulate into a large drift
/// that the application never hears about.
#[derive(Debug, Clone)]
pub struct SystemHeuristic {
    threshold_ms: f64,
    previous_system: Option<Coordinate>,
}

impl SystemHeuristic {
    /// Creates the heuristic with step threshold `τ` in milliseconds.
    ///
    /// # Panics
    ///
    /// Panics with [`HeuristicConfig::validate`]'s message when the
    /// threshold is not a positive finite number.
    pub fn new(threshold_ms: f64) -> Self {
        HeuristicConfig::System { threshold_ms }.expect_valid();
        SystemHeuristic {
            threshold_ms,
            previous_system: None,
        }
    }
}

impl UpdateHeuristic for SystemHeuristic {
    fn on_system_update(
        &mut self,
        system: &Coordinate,
        _application: &Coordinate,
        _ctx: &UpdateContext,
    ) -> UpdateDecision {
        let decision = match &self.previous_system {
            Some(prev) if prev.distance(system) > self.threshold_ms => {
                UpdateDecision::Publish(system.clone())
            }
            _ => UpdateDecision::Keep,
        };
        self.previous_system = Some(system.clone());
        decision
    }

    fn export_state(&self) -> HeuristicState {
        HeuristicState::System {
            previous_system: self.previous_system.clone(),
        }
    }

    fn import_state(&mut self, state: &HeuristicState) -> Result<(), HeuristicStateMismatch> {
        match state {
            HeuristicState::System { previous_system } => {
                self.previous_system = previous_system.clone();
                Ok(())
            }
            other => Err(HeuristicStateMismatch {
                expected: "system",
                found: other.family(),
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// APPLICATION
// ---------------------------------------------------------------------------

/// APPLICATION heuristic: publish `c_s` when the published coordinate has
/// drifted more than `τ` milliseconds away from it.
///
/// Captures slow drift in one direction but permits unbounded oscillation
/// beneath the threshold.
#[derive(Debug, Clone)]
pub struct ApplicationHeuristic {
    threshold_ms: f64,
}

impl ApplicationHeuristic {
    /// Creates the heuristic with drift threshold `τ` in milliseconds.
    ///
    /// # Panics
    ///
    /// Panics with [`HeuristicConfig::validate`]'s message when the
    /// threshold is not a positive finite number.
    pub fn new(threshold_ms: f64) -> Self {
        HeuristicConfig::Application { threshold_ms }.expect_valid();
        ApplicationHeuristic { threshold_ms }
    }
}

impl UpdateHeuristic for ApplicationHeuristic {
    fn on_system_update(
        &mut self,
        system: &Coordinate,
        application: &Coordinate,
        _ctx: &UpdateContext,
    ) -> UpdateDecision {
        if application.distance(system) > self.threshold_ms {
            UpdateDecision::Publish(system.clone())
        } else {
            UpdateDecision::Keep
        }
    }

    fn export_state(&self) -> HeuristicState {
        HeuristicState::Stateless
    }

    fn import_state(&mut self, state: &HeuristicState) -> Result<(), HeuristicStateMismatch> {
        import_stateless(state)
    }
}

/// Adopts `state` on behalf of a heuristic that keeps none: only the
/// stateless family matches.
fn import_stateless(state: &HeuristicState) -> Result<(), HeuristicStateMismatch> {
    match state {
        HeuristicState::Stateless => Ok(()),
        other => Err(HeuristicStateMismatch {
            expected: "stateless",
            found: other.family(),
        }),
    }
}

// ---------------------------------------------------------------------------
// RELATIVE
// ---------------------------------------------------------------------------

/// RELATIVE heuristic: compare the centroids of the start and current
/// windows, scaled by the distance to the nearest known neighbour:
///
/// ```text
/// ‖C(W_s) − C(W_c)‖ / ‖C(W_s) − r‖ > ε_r  ⇒  publish C(W_c)
/// ```
///
/// Updates are therefore relative to the node's locale: a node in a dense
/// cluster updates after small absolute movements, a node whose nearest
/// neighbour is 100 ms away only after proportionally larger ones.
#[derive(Debug, Clone)]
pub struct RelativeHeuristic {
    threshold: f64,
    windows: TwoWindowDetector,
    /// Cached centroid of the **frozen** start window: computed at the first
    /// comparison after the window fills, dropped at a change point and on
    /// `import_state`. Same loop as recomputing it, so bit-identical.
    start_centroid: Option<Coordinate>,
}

impl RelativeHeuristic {
    /// Creates the heuristic with relative threshold `ε_r` and per-window
    /// size `window_size`.
    ///
    /// # Panics
    ///
    /// Panics with [`HeuristicConfig::validate`]'s message when the
    /// threshold is not a positive finite number or the window size is
    /// smaller than 2.
    pub fn new(threshold: f64, window_size: usize) -> Self {
        HeuristicConfig::Relative {
            threshold,
            window: window_size,
        }
        .expect_valid();
        RelativeHeuristic {
            threshold,
            windows: TwoWindowDetector::sized(window_size),
            start_centroid: None,
        }
    }

    /// The ε_r = 0.3, window 32 configuration the paper identifies as the
    /// most conservative setting that still improves stability (§V-D).
    pub fn paper_defaults() -> Self {
        Self::new(0.3, 32)
    }
}

impl UpdateHeuristic for RelativeHeuristic {
    fn on_system_update(
        &mut self,
        system: &Coordinate,
        _application: &Coordinate,
        ctx: &UpdateContext,
    ) -> UpdateDecision {
        self.windows.push(system.clone());
        if !self.windows.is_ready() {
            return UpdateDecision::Keep;
        }
        let Some(neighbor) = &ctx.nearest_neighbor else {
            return UpdateDecision::Keep;
        };
        let windows = &self.windows;
        let start_centroid = self
            .start_centroid
            .get_or_insert_with(|| windows.start_centroid().expect("windows are ready"));
        let locale = start_centroid.distance(neighbor);
        if locale <= f64::EPSILON {
            return UpdateDecision::Keep;
        }
        let current_centroid = windows.current_centroid().expect("windows are ready");
        let movement = start_centroid.distance(&current_centroid);
        if movement / locale > self.threshold {
            self.windows.declare_change_point();
            self.start_centroid = None;
            UpdateDecision::Publish(current_centroid)
        } else {
            UpdateDecision::Keep
        }
    }

    fn export_state(&self) -> HeuristicState {
        HeuristicState::Windowed(self.windows.export_state())
    }

    fn import_state(&mut self, state: &HeuristicState) -> Result<(), HeuristicStateMismatch> {
        match state {
            HeuristicState::Windowed(detector) => {
                self.windows.import_state(detector);
                self.start_centroid = None;
                Ok(())
            }
            other => Err(HeuristicStateMismatch {
                expected: "windowed",
                found: other.family(),
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// ENERGY
// ---------------------------------------------------------------------------

/// ENERGY heuristic: declare a change when the Székely–Rizzo energy distance
/// between the start and current windows exceeds `τ`, and publish the
/// centroid of the current window.
#[derive(Debug, Clone)]
pub struct EnergyHeuristic {
    threshold: f64,
    windows: TwoWindowDetector,
    /// The sums behind the statistic of the windows as they stand, or `None`
    /// when the next comparison has to compute them from scratch: before the
    /// first one, after a change point and after `import_state`.
    sums: Option<EnergySums>,
}

/// The three pairwise-distance sums the energy statistic is closed from
/// (`nc_stats::energy_from_sums`).
///
/// One observation replaces one of the current window's `k` coordinates, so
/// instead of the `2k² − k` distances of a recomputation the sums are *slid*:
/// `cross` moves by `Σ_s d(s,n) − Σ_s d(s,o)` over the start window and
/// `current_within` by twice `Σ_r d(r,n) − Σ_r d(r,o)` over the `k − 1`
/// surviving coordinates — `4k − 2` distances for evicted `o`, admitted `n`.
/// Rounding cannot build up: the sums are *anchored* — recomputed by the
/// from-scratch loops — whenever they are missing and whenever
/// `pushes_since_reset` is a multiple of `k`. That schedule is a function of
/// the snapshotted [`DetectorState`] alone, so a restored heuristic holds
/// sums bit-identical to an uninterrupted one from the next multiple on.
#[derive(Debug, Clone, Copy, PartialEq)]
struct EnergySums {
    /// `Σ_{i≠j} d(s_i, s_j)` over the frozen start window; only anchors
    /// after a change point or `import_state` have to compute it.
    start_within: f64,
    /// `Σ_i Σ_j d(s_i, c_j)` between the two windows.
    cross: f64,
    /// `Σ_{i≠j} d(c_i, c_j)` over the sliding current window.
    current_within: f64,
}

impl EnergyHeuristic {
    /// Creates the heuristic with energy threshold `τ` and per-window size
    /// `window_size`.
    ///
    /// # Panics
    ///
    /// Panics with [`HeuristicConfig::validate`]'s message when the
    /// threshold is not a positive finite number or the window size is
    /// smaller than 2.
    pub fn new(threshold: f64, window_size: usize) -> Self {
        HeuristicConfig::Energy {
            threshold,
            window: window_size,
        }
        .expect_valid();
        EnergyHeuristic {
            threshold,
            windows: TwoWindowDetector::sized(window_size),
            sums: None,
        }
    }

    /// The τ = 8, window 32 configuration used for the paper's PlanetLab
    /// deployment (§VI).
    pub fn paper_defaults() -> Self {
        Self::new(8.0, 32)
    }

    /// Energy distance between the two current windows, or `None` when the
    /// windows are not yet full. Always computed from scratch: the reference
    /// the per-update statistic is tested against, and a diagnostic.
    pub fn current_statistic(&self) -> Option<f64> {
        if !self.windows.is_ready() {
            return None;
        }
        let start = self.windows.start_window();
        let current = self.windows.current_window();
        energy_distance_by(start, &current, |a, b| a.distance(b)).ok()
    }

    /// Pushes `system` into the windows, brings the sums up to date (see
    /// [`EnergySums`]) and returns the statistic, or `None` while the windows
    /// are filling.
    fn advance(&mut self, system: &Coordinate) -> Option<f64> {
        let evicted = self.windows.push(system.clone());
        if !self.windows.is_ready() {
            return None;
        }
        let k = self.windows.window_size();
        let anchor_due = self.windows.pushes_since_reset().is_multiple_of(k as u64);
        let dist = |a: &Coordinate, b: &Coordinate| a.distance(b);
        let sums = match (self.sums, &evicted) {
            (Some(sums), Some(evicted)) if !anchor_due => {
                let start = self.windows.start_window();
                let survivors = self.windows.current_iter().take(k - 1);
                EnergySums {
                    start_within: sums.start_within,
                    cross: sums.cross + slide_delta_by(start, system, evicted, dist),
                    current_within: sums.current_within
                        + 2.0 * slide_delta_by(survivors, system, evicted, dist),
                }
            }
            (stale, _) => {
                let (start, current) = self.windows.contiguous_windows();
                EnergySums {
                    start_within: stale
                        .map_or_else(|| within_sum_by(start, dist), |sums| sums.start_within),
                    cross: cross_sum_by(start, current, dist),
                    current_within: within_sum_by(current, dist),
                }
            }
        };
        self.sums = Some(sums);
        Some(energy_from_sums(
            k,
            k,
            sums.cross,
            sums.start_within,
            sums.current_within,
        ))
    }
}

impl UpdateHeuristic for EnergyHeuristic {
    fn on_system_update(
        &mut self,
        system: &Coordinate,
        _application: &Coordinate,
        _ctx: &UpdateContext,
    ) -> UpdateDecision {
        match self.advance(system) {
            Some(statistic) if statistic > self.threshold => {
                let target = self.windows.current_centroid().expect("windows are ready");
                self.windows.declare_change_point();
                // The sums describe the windows just cleared.
                self.sums = None;
                UpdateDecision::Publish(target)
            }
            _ => UpdateDecision::Keep,
        }
    }

    fn export_state(&self) -> HeuristicState {
        HeuristicState::Windowed(self.windows.export_state())
    }

    fn import_state(&mut self, state: &HeuristicState) -> Result<(), HeuristicStateMismatch> {
        match state {
            HeuristicState::Windowed(detector) => {
                self.windows.import_state(detector);
                self.sums = None;
                Ok(())
            }
            other => Err(HeuristicStateMismatch {
                expected: "windowed",
                found: other.family(),
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// APPLICATION/CENTROID
// ---------------------------------------------------------------------------

/// APPLICATION/CENTROID ablation (§V-G): the APPLICATION drift trigger, but
/// publishing the centroid of a sliding window of recent system coordinates
/// instead of the instantaneous coordinate.
///
/// The paper uses this to show that the windowed heuristics' advantage is not
/// only the centroid target: knowing *when* to update matters, and a plain
/// threshold remains fragile even with a good target.
#[derive(Debug, Clone)]
pub struct CentroidHeuristic {
    threshold_ms: f64,
    window: std::collections::VecDeque<Coordinate>,
    window_size: usize,
}

impl CentroidHeuristic {
    /// Creates the heuristic with drift threshold `τ` (milliseconds) and a
    /// sliding window of `window_size` recent system coordinates.
    ///
    /// # Panics
    ///
    /// Panics with [`HeuristicConfig::validate`]'s message when the
    /// threshold is not a positive finite number or the window size is
    /// zero.
    pub fn new(threshold_ms: f64, window_size: usize) -> Self {
        HeuristicConfig::ApplicationCentroid {
            threshold_ms,
            window: window_size,
        }
        .expect_valid();
        CentroidHeuristic {
            threshold_ms,
            window: std::collections::VecDeque::with_capacity(window_size),
            window_size,
        }
    }
}

impl UpdateHeuristic for CentroidHeuristic {
    fn on_system_update(
        &mut self,
        system: &Coordinate,
        application: &Coordinate,
        _ctx: &UpdateContext,
    ) -> UpdateDecision {
        if self.window.len() == self.window_size {
            self.window.pop_front();
        }
        self.window.push_back(system.clone());
        if application.distance(system) > self.threshold_ms {
            let centroid =
                Coordinate::centroid_iter(self.window.iter()).expect("window is non-empty");
            UpdateDecision::Publish(centroid)
        } else {
            UpdateDecision::Keep
        }
    }

    fn export_state(&self) -> HeuristicState {
        HeuristicState::Centroid {
            window: self.window.iter().cloned().collect(),
        }
    }

    fn import_state(&mut self, state: &HeuristicState) -> Result<(), HeuristicStateMismatch> {
        match state {
            HeuristicState::Centroid { window } => {
                let from = window.len().saturating_sub(self.window_size);
                self.window = window[from..].to_vec().into();
                Ok(())
            }
            other => Err(HeuristicStateMismatch {
                expected: "centroid",
                found: other.family(),
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// The closed set
// ---------------------------------------------------------------------------

/// The update policy an [`ApplicationCoordinate`](crate::ApplicationCoordinate)
/// runs: one of the five heuristics, stored by value, or none at all.
#[derive(Debug, Clone)]
pub enum Heuristic {
    /// No heuristic: the application-level coordinate *is* the system-level
    /// one and moves with every Vivaldi step — the "constant update" mode of
    /// §V, whose instability the heuristics are measured against.
    FollowSystem,
    /// SYSTEM: threshold on the last system-level step.
    System(SystemHeuristic),
    /// APPLICATION: threshold on the drift from the published coordinate.
    Application(ApplicationHeuristic),
    /// RELATIVE: window centroids scaled by the distance to the nearest
    /// neighbour.
    Relative(RelativeHeuristic),
    /// ENERGY: energy distance between the two windows.
    Energy(EnergyHeuristic),
    /// APPLICATION/CENTROID, the §V-G ablation.
    Centroid(CentroidHeuristic),
}

/// Runs `$body` with `$heuristic` bound to the arm's heuristic, whichever it
/// is; [`Heuristic::FollowSystem`] holds none and runs `$follow` instead.
macro_rules! each_arm {
    ($self:expr, FollowSystem => $follow:expr, $heuristic:ident => $body:expr) => {
        match $self {
            Heuristic::FollowSystem => $follow,
            Heuristic::System($heuristic) => $body,
            Heuristic::Application($heuristic) => $body,
            Heuristic::Relative($heuristic) => $body,
            Heuristic::Energy($heuristic) => $body,
            Heuristic::Centroid($heuristic) => $body,
        }
    };
}

impl Heuristic {
    /// Considers `system`, which Vivaldi just reached by a step of
    /// `step_ms`, while `application` is published. Returns the coordinate
    /// to publish and how far the published coordinate moves, or `None` to
    /// keep it.
    pub(crate) fn decide(
        &mut self,
        system: &Coordinate,
        step_ms: f64,
        application: &Coordinate,
        ctx: &UpdateContext,
    ) -> Option<(Coordinate, f64)> {
        let decision = each_arm!(self,
            // `application` is the coordinate Vivaldi stepped from, so it
            // moves exactly as far as the step. The distance between the two
            // positions counts both heights and would not give the step back.
            FollowSystem => return (step_ms > 0.0).then(|| (system.clone(), step_ms)),
            heuristic => heuristic.on_system_update(system, application, ctx)
        );
        match decision {
            UpdateDecision::Keep => None,
            UpdateDecision::Publish(target) => {
                let displacement_ms = application.distance(&target);
                Some((target, displacement_ms))
            }
        }
    }

    pub(crate) fn export_state(&self) -> HeuristicState {
        each_arm!(self,
            FollowSystem => HeuristicState::Stateless,
            heuristic => heuristic.export_state()
        )
    }

    pub(crate) fn import_state(
        &mut self,
        state: &HeuristicState,
    ) -> Result<(), HeuristicStateMismatch> {
        each_arm!(self,
            FollowSystem => import_stateless(state),
            heuristic => heuristic.import_state(state)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn c(x: f64, y: f64) -> Coordinate {
        Coordinate::new(vec![x, y]).unwrap()
    }

    fn ctx_with_neighbor(x: f64, y: f64) -> UpdateContext {
        UpdateContext {
            nearest_neighbor: Some(c(x, y)),
        }
    }

    #[test]
    fn system_heuristic_triggers_on_large_step() {
        let mut h = SystemHeuristic::new(5.0);
        let app = c(0.0, 0.0);
        assert_eq!(
            h.on_system_update(&c(0.0, 0.0), &app, &UpdateContext::default()),
            UpdateDecision::Keep
        );
        assert_eq!(
            h.on_system_update(&c(1.0, 0.0), &app, &UpdateContext::default()),
            UpdateDecision::Keep
        );
        let decision = h.on_system_update(&c(20.0, 0.0), &app, &UpdateContext::default());
        assert_eq!(decision, UpdateDecision::Publish(c(20.0, 0.0)));
    }

    #[test]
    fn system_heuristic_misses_slow_drift() {
        // The documented pathology: many sub-threshold steps never publish.
        let mut h = SystemHeuristic::new(5.0);
        let app = c(0.0, 0.0);
        let mut published = 0;
        for i in 1..=100 {
            let sys = c(i as f64 * 4.0, 0.0); // 4 ms per step, 400 ms total drift
            if h.on_system_update(&sys, &app, &UpdateContext::default())
                .is_publish()
            {
                published += 1;
            }
        }
        assert_eq!(published, 0);
    }

    #[test]
    fn application_heuristic_catches_drift() {
        let mut h = ApplicationHeuristic::new(5.0);
        let app = c(0.0, 0.0);
        let mut first_publish_at = None;
        for i in 1..=10 {
            let sys = c(i as f64, 0.0);
            if h.on_system_update(&sys, &app, &UpdateContext::default())
                .is_publish()
            {
                first_publish_at = Some(i);
                break;
            }
        }
        assert_eq!(
            first_publish_at,
            Some(6),
            "publishes once drift exceeds 5 ms"
        );
    }

    #[test]
    fn application_heuristic_permits_oscillation_below_threshold() {
        let mut h = ApplicationHeuristic::new(10.0);
        let app = c(0.0, 0.0);
        for i in 0..100 {
            let sys = if i % 2 == 0 {
                c(4.0, 0.0)
            } else {
                c(-4.0, 0.0)
            };
            assert_eq!(
                h.on_system_update(&sys, &app, &UpdateContext::default()),
                UpdateDecision::Keep
            );
        }
    }

    #[test]
    fn relative_heuristic_requires_neighbor() {
        let mut h = RelativeHeuristic::new(0.3, 4);
        let app = c(0.0, 0.0);
        for i in 0..50 {
            let sys = c(i as f64 * 10.0, 0.0);
            assert_eq!(
                h.on_system_update(&sys, &app, &UpdateContext::default()),
                UpdateDecision::Keep,
                "no neighbour known, no update"
            );
        }
    }

    #[test]
    fn relative_heuristic_scales_with_locale() {
        // Identical coordinate movement; a near neighbour makes it
        // significant, a far one does not.
        let run = |neighbor: Coordinate| -> usize {
            let mut h = RelativeHeuristic::new(0.3, 4);
            let app = c(0.0, 0.0);
            let ctx = UpdateContext {
                nearest_neighbor: Some(neighbor),
            };
            let mut publishes = 0;
            for i in 0..40 {
                let sys = c(i as f64 * 2.0, 0.0); // steady 2 ms/obs drift
                if h.on_system_update(&sys, &app, &ctx).is_publish() {
                    publishes += 1;
                }
            }
            publishes
        };
        let near = run(c(0.0, 10.0));
        let far = run(c(0.0, 10_000.0));
        assert!(near > far, "near={near} far={far}");
        assert_eq!(far, 0);
    }

    #[test]
    fn relative_publishes_current_centroid_and_resets() {
        let mut h = RelativeHeuristic::new(0.1, 2);
        let app = c(0.0, 0.0);
        let ctx = ctx_with_neighbor(0.0, 5.0);
        let mut last_publish = None;
        for i in 0..20 {
            let sys = c(i as f64 * 3.0, 0.0);
            if let UpdateDecision::Publish(target) = h.on_system_update(&sys, &app, &ctx) {
                last_publish = Some(target);
                break;
            }
        }
        let target = last_publish.expect("should publish");
        // The published target is a centroid of recent system coordinates,
        // not the instantaneous one.
        assert!(target.components()[0] > 0.0);
    }

    #[test]
    fn energy_heuristic_ignores_stationary_jitter() {
        let mut h = EnergyHeuristic::new(8.0, 8);
        let app = c(0.0, 0.0);
        for i in 0..200 {
            let jitter = (i % 7) as f64 * 0.05;
            let sys = c(50.0 + jitter, 20.0);
            assert!(!h
                .on_system_update(&sys, &app, &UpdateContext::default())
                .is_publish());
        }
    }

    #[test]
    fn energy_heuristic_detects_level_shift() {
        let mut h = EnergyHeuristic::new(8.0, 8);
        let app = c(0.0, 0.0);
        for _ in 0..16 {
            h.on_system_update(&c(10.0, 10.0), &app, &UpdateContext::default());
        }
        // The coordinate jumps 100 ms away and stays there.
        let mut published = None;
        for i in 0..16 {
            let decision = h.on_system_update(&c(110.0, 10.0), &app, &UpdateContext::default());
            if let UpdateDecision::Publish(target) = decision {
                published = Some((i, target));
                break;
            }
        }
        let (after, target) = published.expect("shift should be detected");
        assert!(
            after < 16,
            "detected within one window, after {after} samples"
        );
        assert!(
            target.components()[0] > 20.0,
            "target tracks the new location"
        );
    }

    #[test]
    fn energy_statistic_is_none_until_ready() {
        let mut h = EnergyHeuristic::new(8.0, 4);
        assert_eq!(h.current_statistic(), None);
        let app = c(0.0, 0.0);
        for _ in 0..4 {
            h.on_system_update(&c(1.0, 1.0), &app, &UpdateContext::default());
        }
        assert!(h.current_statistic().is_some());
    }

    fn distance(a: &Coordinate, b: &Coordinate) -> f64 {
        a.distance(b)
    }

    /// The sums of `h`'s windows as they stand, by the from-scratch loops.
    fn sums_from_scratch(h: &EnergyHeuristic) -> EnergySums {
        let start = h.windows.start_window();
        let current = h.windows.current_window();
        EnergySums {
            start_within: within_sum_by(start, distance),
            cross: cross_sum_by(start, &current, distance),
            current_within: within_sum_by(&current, distance),
        }
    }

    fn bits(sums: Option<EnergySums>) -> Option<[u64; 3]> {
        sums.map(|s| [s.start_within, s.cross, s.current_within].map(f64::to_bits))
    }

    #[test]
    fn energy_window_that_never_slides_is_anchored() {
        let mut h = EnergyHeuristic::new(8.0, 4);
        let app = c(0.0, 0.0);
        for i in 0..4 {
            assert_eq!(h.sums, None, "nothing to compare while filling");
            h.on_system_update(&c(i as f64 * 0.7, 1.0), &app, &UpdateContext::default());
        }
        assert_eq!(bits(h.sums), bits(Some(sums_from_scratch(&h))));
    }

    #[test]
    fn energy_anchors_after_each_of_two_consecutive_change_points() {
        // k quiet pushes fill both windows, then the coordinate leaps so far
        // that the very next comparison (the first slide) is a change point;
        // the same again straight after it. Neither refill may inherit sums.
        let k = 4;
        let mut h = EnergyHeuristic::new(8.0, k);
        let app = c(0.0, 0.0);
        for round in 0..2 {
            let base = round as f64 * 2_000.0;
            for i in 0..k {
                let d =
                    h.on_system_update(&c(base + i as f64, 0.0), &app, &UpdateContext::default());
                assert_eq!(d, UpdateDecision::Keep);
            }
            // The first ready push of the round: sums present and anchored.
            assert_eq!(bits(h.sums), bits(Some(sums_from_scratch(&h))));
            let d = h.on_system_update(&c(base + 1_000.0, 0.0), &app, &UpdateContext::default());
            assert!(d.is_publish(), "round {round}: the leap is a change point");
            assert_eq!(h.sums, None, "sums of the cleared windows are dropped");
        }
        assert_eq!(h.windows.change_points(), 2);
    }

    #[test]
    fn energy_import_state_drops_the_sums() {
        let mut h = EnergyHeuristic::new(8.0, 4);
        let app = c(0.0, 0.0);
        for i in 0..7 {
            h.on_system_update(&c(i as f64 * 0.3, 0.0), &app, &UpdateContext::default());
        }
        assert!(h.sums.is_some());
        let state = h.export_state();
        h.import_state(&state).unwrap();
        assert_eq!(h.sums, None);
        // 8 = 2k pushes: restored or not, this one anchors.
        h.on_system_update(&c(2.1, 0.0), &app, &UpdateContext::default());
        assert_eq!(bits(h.sums), bits(Some(sums_from_scratch(&h))));
    }

    #[test]
    fn relative_caches_the_frozen_start_centroid() {
        let mut h = RelativeHeuristic::new(0.5, 3);
        let app = c(0.0, 0.0);
        let ctx = ctx_with_neighbor(0.0, 50.0);
        for i in 0..3 {
            h.on_system_update(&c(i as f64, 0.0), &app, &ctx);
        }
        assert_eq!(h.start_centroid, h.windows.start_centroid());
        assert_eq!(h.start_centroid, Some(c(1.0, 0.0)));
        // Sliding the current window leaves the cache alone ...
        h.on_system_update(&c(3.0, 0.0), &app, &ctx);
        assert_eq!(h.start_centroid, Some(c(1.0, 0.0)));
        // ... restoring state and a change point both drop it.
        let state = h.export_state();
        h.import_state(&state).unwrap();
        assert_eq!(h.start_centroid, None);
        let d = h.on_system_update(&c(500.0, 0.0), &app, &ctx);
        assert!(d.is_publish());
        assert_eq!(h.start_centroid, None);
    }

    /// ENERGY with the statistic recomputed by `energy_distance_by` at every
    /// ready push: what the sliding update has to be indistinguishable from.
    struct FromScratchEnergy {
        threshold: f64,
        windows: TwoWindowDetector,
    }

    impl FromScratchEnergy {
        fn on_system_update(&mut self, system: &Coordinate) -> (Option<f64>, UpdateDecision) {
            self.windows.push(system.clone());
            if !self.windows.is_ready() {
                return (None, UpdateDecision::Keep);
            }
            let current = self.windows.current_window();
            let statistic =
                energy_distance_by(self.windows.start_window(), &current, distance).unwrap();
            if statistic > self.threshold {
                let target = Coordinate::centroid(&current).unwrap();
                self.windows.declare_change_point();
                (Some(statistic), UpdateDecision::Publish(target))
            } else {
                (Some(statistic), UpdateDecision::Keep)
            }
        }
    }

    const MAX_PUSHES: usize = 20 * 64 + 40;

    proptest! {
        #[test]
        fn sliding_energy_is_indistinguishable_from_recomputation(
            // 2..=64, small windows as likely as large ones: the reference
            // costs 2k² distances a push.
            k in (1.0f64..=6.0).prop_map(|x| x.exp2().round() as usize),
            dims in 2usize..=5,
            extra in 0usize..=40,
            noise in proptest::collection::vec(-1.0f64..1.0, MAX_PUSHES * 6),
            noise_ms in 0.05f64..3.0,
            jump_at in proptest::collection::vec(0.0f64..1.0, 1..8),
            jump_ms in proptest::collection::vec(-300.0f64..300.0, 8),
            restore_at in 0.0f64..1.0,
        ) {
            let threshold = 8.0;
            let pushes = 20 * k + extra;
            let jump_at: Vec<usize> = jump_at.iter().map(|f| (f * pushes as f64) as usize).collect();
            let restore_at = (restore_at * pushes as f64) as usize;

            let mut h = EnergyHeuristic::new(threshold, k);
            let mut reference = FromScratchEnergy {
                threshold,
                windows: TwoWindowDetector::new(k).unwrap(),
            };
            let mut restored: Option<EnergyHeuristic> = None;
            let mut restored_has_anchored = false;
            let app = Coordinate::origin(dims);
            let ctx = UpdateContext::default();
            let mut centre = vec![0.0; dims];

            for push in 0..pushes {
                for (j, at) in jump_at.iter().enumerate() {
                    if *at == push {
                        centre[j % dims] += jump_ms[j];
                    }
                }
                let noise = &noise[push * 6..][..6];
                let point: Vec<f64> = (0..dims)
                    .map(|d| centre[d] + noise_ms * noise[d])
                    .collect();
                // A height too, so that d(x, x) = 2·height is not zero.
                let system = Coordinate::with_height(point, noise[5].abs()).unwrap();

                if push == restore_at {
                    let mut fresh = EnergyHeuristic::new(threshold, k);
                    fresh.import_state(&h.export_state()).unwrap();
                    restored = Some(fresh);
                }

                let used = h.clone().advance(&system);
                let (exact, expected) = reference.on_system_update(&system);
                prop_assert_eq!(used.is_some(), exact.is_some());
                if let (Some(used), Some(exact)) = (used, exact) {
                    let tolerance = 1e-9 * (1.0 + exact.abs());
                    prop_assert!(
                        (used - exact).abs() <= tolerance,
                        "k={k} push={push}: slid {used} vs recomputed {exact}"
                    );
                    if (exact - threshold).abs() <= tolerance {
                        // Too close to τ for rounding not to matter: either
                        // decision is right and the streams may part here.
                        break;
                    }
                }
                let decision = h.on_system_update(&system, &app, &ctx);
                prop_assert_eq!(&decision, &expected, "k={k} push={push}");

                if let Some(restored) = restored.as_mut() {
                    let again = restored.on_system_update(&system, &app, &ctx);
                    prop_assert_eq!(&again, &decision, "k={k} push={push} after restore");
                    // Anchors fall where `pushes_since_reset` is a multiple of
                    // k (0 straight after a change point, where both hold
                    // nothing); from the first one on the sums are the same.
                    restored_has_anchored |= h.windows.pushes_since_reset().is_multiple_of(k as u64);
                    if restored_has_anchored {
                        prop_assert_eq!(bits(restored.sums), bits(h.sums), "k={k} push={push}");
                    }
                }
            }
        }
    }

    #[test]
    fn centroid_heuristic_publishes_window_centroid() {
        let mut h = CentroidHeuristic::new(5.0, 4);
        let app = c(0.0, 0.0);
        // Fill the window with coordinates near 10, then trigger.
        let mut decision = UpdateDecision::Keep;
        for x in [8.0, 9.0, 10.0, 11.0] {
            decision = h.on_system_update(&c(x, 0.0), &app, &UpdateContext::default());
        }
        match decision {
            UpdateDecision::Publish(target) => {
                assert!((target.components()[0] - 9.5).abs() < 1e-9);
            }
            UpdateDecision::Keep => panic!("drift of ~10 ms should trigger a 5 ms threshold"),
        }
    }

    #[test]
    fn centroid_heuristic_keeps_below_threshold() {
        let mut h = CentroidHeuristic::new(50.0, 4);
        let app = c(0.0, 0.0);
        for x in [8.0, 9.0, 10.0, 11.0] {
            assert_eq!(
                h.on_system_update(&c(x, 0.0), &app, &UpdateContext::default()),
                UpdateDecision::Keep
            );
        }
    }

    #[test]
    fn paper_defaults_match_section_vi() {
        let e = EnergyHeuristic::paper_defaults();
        assert_eq!(e.threshold, 8.0);
        assert_eq!(e.windows.window_size(), 32);
        let r = RelativeHeuristic::paper_defaults();
        assert_eq!(r.threshold, 0.3);
        assert_eq!(r.windows.window_size(), 32);
    }

    #[test]
    #[should_panic(expected = "threshold must be positive")]
    fn negative_threshold_panics() {
        let _ = EnergyHeuristic::new(-1.0, 32);
    }
}
