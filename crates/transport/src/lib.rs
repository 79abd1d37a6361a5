//! Real sockets for the stable-coordinates stack: a deployable,
//! dependency-free UDP transport around the sans-I/O engine.
//!
//! The engine in `stable-nc` was designed so that a driver owns all I/O and
//! time; this crate is that driver for an actual network:
//!
//! * [`NodeRuntime`] — a threaded per-process runtime: a socket thread
//!   answering probes and stamping measured RTTs, and a tick thread whose
//!   probe tick is also its loss clock: each tick expires the probes older
//!   than the timeout, then sends the next one. Peers are identified by
//!   their `SocketAddr`; datagrams carry the compact binary codec of
//!   `nc_proto::binary`. Graceful shutdown persists a
//!   [`NodeSnapshot`](nc_proto::NodeSnapshot); starting with the same
//!   snapshot path restores the node, which rejoins the overlay without
//!   resetting its coordinate.
//! * [`DelayHarness`] — an emulated network over `127.0.0.1`: per-link
//!   one-way delays, jitter (and with it reordering), loss and duplication
//!   between real runtimes, for integration tests and demos that need
//!   deployment conditions without a deployment.
//! * the `nc-node` binary — one node per process: bind, seed, probe, print
//!   stats, snapshot on exit.
//!
//! # Quickstart: two nodes on loopback
//!
//! ```
//! use nc_transport::{NodeRuntime, RuntimeConfig};
//!
//! let a = NodeRuntime::bind("127.0.0.1:0".parse().unwrap(), RuntimeConfig {
//!     probe_interval_ms: 5,
//!     probe_timeout_ms: 100,
//!     ..RuntimeConfig::default()
//! }).unwrap();
//! let b = NodeRuntime::bind("127.0.0.1:0".parse().unwrap(), RuntimeConfig {
//!     seeds: vec![a.local_addr()],
//!     probe_interval_ms: 5,
//!     probe_timeout_ms: 100,
//!     ..RuntimeConfig::default()
//! }).unwrap();
//!
//! std::thread::sleep(std::time::Duration::from_millis(300));
//! assert!(b.stats().probes_sent > 0);
//! assert!(b.stats().responses_received > 0);
//! let snapshot = b.shutdown().unwrap();
//! assert!(snapshot.observations > 0);
//! a.shutdown().unwrap();
//! ```

// Lint policy (missing_docs, broken doc links, clippy set) is centralized
// in the workspace manifest: [workspace.lints] + `lints.workspace = true`.

pub mod clock;
pub mod harness;
pub mod persist;
pub mod runtime;
pub mod wheel;

pub use clock::MonoClock;
pub use harness::{DelayHarness, HarnessBuilder, LinkSpec};
pub use persist::{load_snapshot, save_snapshot};
pub use runtime::{NodeRuntime, RuntimeConfig, RuntimeConfigError, RuntimeStats};
pub use wheel::TimerWheel;
