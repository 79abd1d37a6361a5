//! Vivaldi network coordinates.
//!
//! Vivaldi (Cox, Dabek, Kaashoek, Li, Morris) is a fully decentralized
//! algorithm that embeds the nodes of a distributed system into a
//! low-dimensional Euclidean space such that the distance between two nodes'
//! coordinates predicts the round-trip latency between them. Each node keeps
//! a coordinate and a *confidence* in that coordinate and refines both with
//! every latency observation, behaving like a network of springs relaxing
//! toward a low-energy (low-error) configuration.
//!
//! This crate provides the substrate the paper *Stable and Accurate Network
//! Coordinates* (Ledlie & Seltzer) builds on:
//!
//! * [`Coordinate`] — an arbitrary-dimension Euclidean coordinate with an
//!   optional *height* component modelling access-link latency.
//! * [`VivaldiConfig`] — tuning constants `c_c` and `c_e` (both 0.25 in the
//!   paper), the space dimensionality (3 in the paper), and the optional
//!   *confidence building* measurement-error margin (§IV-B).
//! * [`VivaldiState`] — the per-node algorithm state implementing the update
//!   rule of the paper's Figure 1.
//! * [`RemoteObservation`] — one latency sample together with the remote
//!   node's coordinate and confidence.
//!
//! # Quick example
//!
//! ```
//! use nc_vivaldi::{Coordinate, RemoteObservation, VivaldiConfig, VivaldiState};
//!
//! let config = VivaldiConfig::paper_defaults();
//! let mut a = VivaldiState::new(config.clone());
//! let mut b = VivaldiState::new(config);
//!
//! // Feed both nodes a stream of 80 ms observations of each other.
//! for _ in 0..200 {
//!     let obs_for_a = RemoteObservation::new(b.coordinate().clone(), b.error_estimate(), 80.0);
//!     a.observe(&obs_for_a);
//!     let obs_for_b = RemoteObservation::new(a.coordinate().clone(), a.error_estimate(), 80.0);
//!     b.observe(&obs_for_b);
//! }
//!
//! let predicted = a.coordinate().distance(b.coordinate());
//! assert!((predicted - 80.0).abs() < 8.0, "predicted {predicted} ms");
//! ```

// Lint policy (missing_docs, broken doc links, clippy set) is centralized
// in the workspace manifest: [workspace.lints] + `lints.workspace = true`.

pub mod config;
pub mod coordinate;
pub mod error;
pub mod gate;
pub mod state;

pub use config::{VivaldiConfig, VivaldiConfigError};
pub use coordinate::{Coordinate, MAX_COORDINATE_MS, MAX_DIMS};
pub use error::{relative_error, CoordinateError};
pub use gate::{OutlierGate, OutlierGateConfig};
pub use state::{RemoteObservation, UpdateOutcome, VivaldiRuntime, VivaldiState};
