//! The application-level coordinate manager.
//!
//! [`ApplicationCoordinate`] owns the coordinate an application actually
//! sees. It receives every system-level coordinate the Vivaldi state machine
//! produces, consults its [`Heuristic`] and, when the heuristic decides the
//! change is significant, publishes a new application-level coordinate and
//! reports the update so callers can account for application-level
//! stability and update frequency (the metrics of Figures 9–13).

use nc_vivaldi::Coordinate;

use crate::heuristics::{Heuristic, HeuristicState, HeuristicStateMismatch, UpdateContext};

/// The runtime state of an [`ApplicationCoordinate`]: the
/// published coordinate, the accounting counters and the heuristic's own
/// state. The heuristic itself (family and parameters) is configuration and
/// is rebuilt separately on restore.
#[derive(Debug, Clone, PartialEq)]
pub struct ApplicationState {
    /// The currently published application-level coordinate.
    pub coordinate: Coordinate,
    /// Number of application-level updates published so far.
    pub update_count: u64,
    /// Number of system-level updates considered so far.
    pub system_updates_seen: u64,
    /// Sum of all published displacements (milliseconds).
    pub total_displacement_ms: f64,
    /// Runtime state of the update heuristic.
    pub heuristic: HeuristicState,
}

/// One published change of the application-level coordinate.
#[derive(Debug, Clone, PartialEq)]
pub struct ApplicationUpdate {
    /// The coordinate that was published before this update.
    pub previous: Coordinate,
    /// The newly published coordinate.
    pub current: Coordinate,
    /// How far the published coordinate moved (milliseconds) — the
    /// contribution of this update to application-level instability.
    pub displacement_ms: f64,
}

/// Owns the application-level coordinate `c_a` and decides, via its
/// [`Heuristic`], when to move it.
///
/// # Examples
///
/// ```
/// use nc_change::{ApplicationCoordinate, ApplicationHeuristic, Heuristic, UpdateContext};
/// use nc_vivaldi::Coordinate;
///
/// let mut app = ApplicationCoordinate::new(
///     Coordinate::origin(2),
///     Heuristic::Application(ApplicationHeuristic::new(5.0)),
/// );
/// // Vivaldi stepped 20 ms away: the drift exceeds the 5 ms threshold and
/// // is published.
/// let update = app.on_system_update(
///     &Coordinate::new(vec![20.0, 0.0]).unwrap(),
///     20.0,
///     &UpdateContext::default(),
/// );
/// assert!(update.is_some());
/// assert_eq!(app.update_count(), 1);
/// ```
#[derive(Debug)]
pub struct ApplicationCoordinate {
    coordinate: Coordinate,
    /// Boxed, one allocation per manager: stored inline, the largest arm
    /// would widen every engine that embeds a manager by its full size.
    heuristic: Box<Heuristic>,
    update_count: u64,
    system_updates_seen: u64,
    total_displacement_ms: f64,
}

impl ApplicationCoordinate {
    /// Creates a manager publishing `initial` until the heuristic first
    /// triggers.
    pub fn new(initial: Coordinate, heuristic: Heuristic) -> Self {
        ApplicationCoordinate {
            coordinate: initial,
            heuristic: Box::new(heuristic),
            update_count: 0,
            system_updates_seen: 0,
            total_displacement_ms: 0.0,
        }
    }

    /// The currently published application-level coordinate.
    pub fn coordinate(&self) -> &Coordinate {
        &self.coordinate
    }

    /// The heuristic deciding when the published coordinate moves.
    pub fn heuristic(&self) -> &Heuristic {
        &self.heuristic
    }

    /// Number of application-level updates published so far.
    pub fn update_count(&self) -> u64 {
        self.update_count
    }

    /// Number of system-level updates that have been considered.
    pub fn system_updates_seen(&self) -> u64 {
        self.system_updates_seen
    }

    /// Sum of all published displacements (milliseconds). Divided by elapsed
    /// time this is the application-level instability metric.
    pub fn total_displacement_ms(&self) -> f64 {
        self.total_displacement_ms
    }

    /// Considers one system-level coordinate, which Vivaldi reached by a
    /// step of `step_ms` (read by [`Heuristic::FollowSystem`] alone).
    /// Returns the published update when the heuristic decided to move the
    /// application-level coordinate, or `None` when it held still.
    pub fn on_system_update(
        &mut self,
        system: &Coordinate,
        step_ms: f64,
        ctx: &UpdateContext,
    ) -> Option<ApplicationUpdate> {
        self.system_updates_seen += 1;
        let (current, displacement_ms) =
            self.heuristic
                .decide(system, step_ms, &self.coordinate, ctx)?;
        let previous = std::mem::replace(&mut self.coordinate, current.clone());
        self.update_count += 1;
        self.total_displacement_ms += displacement_ms;
        Some(ApplicationUpdate {
            previous,
            current,
            displacement_ms,
        })
    }

    /// Exports the manager's runtime state (published coordinate, counters,
    /// heuristic state) for persistence.
    pub fn export_state(&self) -> ApplicationState {
        ApplicationState {
            coordinate: self.coordinate.clone(),
            update_count: self.update_count,
            system_updates_seen: self.system_updates_seen,
            total_displacement_ms: self.total_displacement_ms,
            heuristic: self.heuristic.export_state(),
        }
    }

    /// Adopts runtime state exported by
    /// [`ApplicationCoordinate::export_state`] from a manager with the same
    /// heuristic configuration.
    ///
    /// # Errors
    ///
    /// Returns [`HeuristicStateMismatch`] when the embedded heuristic state
    /// belongs to a different heuristic family; the manager is left
    /// unchanged in that case.
    pub fn import_state(&mut self, state: &ApplicationState) -> Result<(), HeuristicStateMismatch> {
        self.heuristic.import_state(&state.heuristic)?;
        self.coordinate = state.coordinate.clone();
        self.update_count = state.update_count;
        self.system_updates_seen = state.system_updates_seen;
        self.total_displacement_ms = state.total_displacement_ms;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::{ApplicationHeuristic, EnergyHeuristic, SystemHeuristic};

    fn c(x: f64, y: f64) -> Coordinate {
        Coordinate::new(vec![x, y]).unwrap()
    }

    fn drift(threshold_ms: f64) -> Heuristic {
        Heuristic::Application(ApplicationHeuristic::new(threshold_ms))
    }

    #[test]
    fn keeps_initial_coordinate_until_triggered() {
        let mut app = ApplicationCoordinate::new(c(0.0, 0.0), drift(100.0));
        for i in 0..50 {
            let update = app.on_system_update(&c(i as f64, 0.0), 1.0, &UpdateContext::default());
            assert!(update.is_none());
        }
        assert_eq!(app.coordinate(), &c(0.0, 0.0));
        assert_eq!(app.update_count(), 0);
        assert_eq!(app.system_updates_seen(), 50);
    }

    #[test]
    fn publishes_and_accounts_displacement() {
        let mut app = ApplicationCoordinate::new(c(0.0, 0.0), drift(5.0));
        let update = app
            .on_system_update(&c(12.0, 0.0), 12.0, &UpdateContext::default())
            .expect("drift beyond threshold publishes");
        assert_eq!(update.previous, c(0.0, 0.0));
        assert_eq!(update.current, c(12.0, 0.0));
        assert_eq!(update.displacement_ms, 12.0);
        assert_eq!(app.update_count(), 1);
        assert_eq!(app.total_displacement_ms(), 12.0);
        assert_eq!(app.coordinate(), &c(12.0, 0.0));
    }

    #[test]
    fn following_the_system_publishes_every_step_at_its_length() {
        // With a height the distance between two positions counts both
        // heights; the displacement published is the step Vivaldi reports.
        let at = |x: f64| Coordinate::with_height(vec![x, 0.0], 2.0).unwrap();
        let mut app = ApplicationCoordinate::new(at(0.0), Heuristic::FollowSystem);
        let update = app
            .on_system_update(&at(3.0), 3.0, &UpdateContext::default())
            .expect("a step is published");
        assert_eq!((update.previous, update.displacement_ms), (at(0.0), 3.0));
        assert_eq!(at(0.0).distance(&at(3.0)), 7.0);
        // No step, no update.
        assert!(app
            .on_system_update(&at(3.0), 0.0, &UpdateContext::default())
            .is_none());
        assert_eq!(app.coordinate(), &at(3.0));
        assert_eq!((app.update_count(), app.system_updates_seen()), (1, 2));
        assert_eq!(app.total_displacement_ms(), 3.0);
        assert_eq!(app.export_state().heuristic, HeuristicState::Stateless);
    }

    #[test]
    fn app_level_instability_is_below_system_level() {
        // The whole point of the machinery: the sum of application-level
        // displacements is much smaller than the system-level movement when
        // the system coordinate oscillates.
        let mut app = ApplicationCoordinate::new(
            c(0.0, 0.0),
            Heuristic::Energy(EnergyHeuristic::new(8.0, 8)),
        );
        let mut system_displacement = 0.0;
        let mut previous = c(0.0, 0.0);
        for i in 0..500 {
            let wiggle = if i % 2 == 0 { 1.0 } else { -1.0 };
            let system = c(50.0 + wiggle, 20.0);
            let step = previous.distance(&system);
            system_displacement += step;
            previous = system.clone();
            app.on_system_update(&system, step, &UpdateContext::default());
        }
        assert!(system_displacement > 500.0);
        assert!(
            app.total_displacement_ms() < system_displacement / 10.0,
            "app-level displacement {} should be well below system-level {}",
            app.total_displacement_ms(),
            system_displacement
        );
    }

    #[test]
    fn debug_representation_is_nonempty() {
        let app =
            ApplicationCoordinate::new(c(0.0, 0.0), Heuristic::System(SystemHeuristic::new(1.0)));
        let s = format!("{app:?}");
        assert!(s.contains("ApplicationCoordinate"));
        assert!(s.contains("System"));
    }
}
