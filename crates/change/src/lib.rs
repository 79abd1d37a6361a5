//! Application-level coordinates and change detection.
//!
//! The second contribution of *Stable and Accurate Network Coordinates* is
//! the distinction between **system-level** coordinates — which evolve a
//! little with every observation — and **application-level** coordinates —
//! which should change only when something *significant* happened, because
//! every application-level change can trigger expensive work (the paper's
//! motivating application reacts to coordinate changes with process
//! migrations).
//!
//! This crate implements:
//!
//! * [`TwoWindowDetector`] — the sliding-window change-detection scheme of
//!   Kifer, Ben-David & Gehrke adapted to streams of coordinates: a frozen
//!   *start* window `W_s` and a sliding *current* window `W_c` that are
//!   compared for significant difference after every update (§V-A).
//! * The five update heuristics of §V-B, each implementing
//!   [`UpdateHeuristic`]:
//!   [`SystemHeuristic`] (threshold on the last step),
//!   [`ApplicationHeuristic`] (threshold on drift from the published
//!   coordinate), [`RelativeHeuristic`] (window centroids compared to the
//!   distance to the nearest neighbour), [`EnergyHeuristic`] (energy distance
//!   between the windows) and [`CentroidHeuristic`]
//!   (APPLICATION/CENTROID, the §V-G ablation).
//! * [`Heuristic`] — the closed set of them, one arm each, plus
//!   [`Heuristic::FollowSystem`], which publishes every system-level step.
//! * [`ApplicationCoordinate`] — the manager that owns the published
//!   application-level coordinate, feeds system-level updates to its
//!   [`Heuristic`] and reports when (and to what) the published coordinate
//!   changed.
//! * [`HeuristicConfig`] — names one heuristic with its parameters; its
//!   [`validate`](HeuristicConfig::validate) is the one place those
//!   parameters are checked, and every constructor above refuses what it
//!   refuses.
//!
//! # Example
//!
//! ```
//! use nc_change::{ApplicationCoordinate, EnergyHeuristic, Heuristic, UpdateContext};
//! use nc_vivaldi::Coordinate;
//!
//! let heuristic = Heuristic::Energy(EnergyHeuristic::paper_defaults());
//! let mut app = ApplicationCoordinate::new(Coordinate::origin(3), heuristic);
//!
//! // Small jitter around a fixed point: the application coordinate holds still.
//! for i in 0..100 {
//!     let wiggle = (i % 5) as f64 * 0.1;
//!     let system = Coordinate::new(vec![10.0 + wiggle, 20.0, 30.0]).unwrap();
//!     app.on_system_update(&system, 0.1, &UpdateContext::default());
//! }
//! assert!(app.update_count() <= 1, "jitter should not reach the application");
//! ```

// Lint policy (missing_docs, broken doc links, clippy set) is centralized
// in the workspace manifest: [workspace.lints] + `lints.workspace = true`.

pub mod config;
pub mod heuristics;
pub mod manager;
pub mod window;

pub use config::{HeuristicConfig, HeuristicConfigError};
pub use heuristics::{
    ApplicationHeuristic, CentroidHeuristic, EnergyHeuristic, Heuristic, HeuristicState,
    HeuristicStateMismatch, RelativeHeuristic, SystemHeuristic, UpdateContext, UpdateDecision,
    UpdateHeuristic,
};
pub use manager::{ApplicationCoordinate, ApplicationState, ApplicationUpdate};
pub use window::{DetectorState, TwoWindowDetector};
