//! Wide-area latency simulation substrate.
//!
//! The paper's evaluation is driven by a three-day trace of application-level
//! UDP pings between 269 PlanetLab nodes (43 million samples) plus a
//! four-hour live deployment. Neither artifact is available, so this crate
//! synthesizes the closest equivalent:
//!
//! * [`topology`] — places nodes in geographic regions and derives realistic
//!   base round-trip times between them.
//! * [`linkmodel`] — per-link observation model: base RTT + lognormal
//!   jitter + a heavy-tailed outlier process + slow drift and occasional
//!   route-change level shifts. Calibrated so the aggregate histogram
//!   has the shape of the paper's Figure 2 (≈ 0.4 % of samples above
//!   one second) and individual links look like Figure 3.
//! * [`trace`] — materialises ping traces (who pinged whom, when, observed
//!   RTT) from the link models, in the paper's measurement schedule.
//! * [`planetlab`] — the full synthetic PlanetLab workload (269 nodes by
//!   default, scalable down for quick runs).
//! * [`cluster`] — the low-latency three-node cluster of §IV-B (Figure 6).
//! * [`sim`] — a **discrete-event simulator** that runs one or more
//!   coordinate stacks ([`stable_nc::StableNode`]) side by side on identical
//!   observation streams. Time advances through an event queue
//!   ([`sim::EventQueue`]), so probes are genuinely *in flight*: a probe
//!   takes half the link RTT to arrive (asymmetrically split when the link
//!   model says so), the reply takes the other half back, and a probe or
//!   reply dropped by the link's loss process — or by an active partition —
//!   surfaces as a timeout and a typed `ProbeLost` event rather than a
//!   stalled schedule.
//! * [`scenario`] — scripted churn replayed by the simulator: joins and
//!   flash crowds, graceful leaves, crashes with snapshot-based restarts
//!   (the `nc-proto` persist/restore path, end to end), node-group or
//!   regional partitions, and mid-run Byzantine compromise
//!   (`SetAdversary`).
//! * [`adversary`] — Byzantine behaviours injected at the schedule layer:
//!   coordinate liars, delay attackers and jitter bombs, assigned to a
//!   seeded fraction of the population or scripted per node.
//! * [`metrics`] — collection of the paper's metrics: per-node relative
//!   error distributions, per-node and aggregate instability,
//!   application-update rates and probe-loss counts, with warm-up exclusion
//!   and windowed medians for before/after-churn comparisons.
//!
//! # Determinism
//!
//! Given the same seed and configuration, a simulation produces a
//! byte-identical [`SimReport`] at any thread count —
//! the property every regression suite and golden file in the repo leans
//! on. The contract, and the `nc-lint` rules that enforce it at the source
//! level (no std `HashMap`, no wall-clock reads, no hot-path panics), is
//! written down in `DETERMINISM.md` at the workspace root.
//!
//! # Which engine runs
//!
//! [`Simulator::run`](sim::Simulator::run) has one engine, plan/execute:
//! the schedule is planned serially in bounded epochs against one
//! [`ProbeLedger`](stable_nc::ProbeLedger) per node, and each epoch's engine
//! work runs on `min(cores, nodes / 64)` workers, node `i` on worker
//! `i mod workers` — at least one, which is the calling thread and spawns
//! nothing. [`with_threads`](sim::Simulator::with_threads) overrides the
//! worker count. The loop behind
//! [`with_serial_execution`](sim::Simulator::with_serial_execution) is the
//! reference the regression suites compare the engine against, not a mode
//! to run experiments in: it runs the same engine operations on one
//! worker, but takes its schedule from the engines' own outcomes instead of
//! the planner's ledgers. The report is the same bytes in every case.
//!
//! # Example: a small two-configuration comparison
//!
//! ```
//! use nc_netsim::planetlab::PlanetLabConfig;
//! use nc_netsim::sim::{SimConfig, Simulator};
//! use stable_nc::NodeConfig;
//!
//! let workload = PlanetLabConfig::small(16).with_seed(1);
//! let sim_config = SimConfig::new(600.0, 5.0).with_measurement_start(300.0);
//! let mut sim = Simulator::new(workload, sim_config, vec![
//!     ("mp".to_string(), NodeConfig::paper_defaults()),
//!     ("raw".to_string(), NodeConfig::original_vivaldi()),
//! ]);
//! let report = sim.run();
//! let mp = report.config("mp").unwrap();
//! let raw = report.config("raw").unwrap();
//! assert!(mp.aggregate_instability() <= raw.aggregate_instability());
//! ```
//!
//! # Example: lossy links and a crash-restart churn scenario
//!
//! A quarter of the mesh crashes mid-run and restarts from the snapshots
//! taken at the instant of the crash; 2 % of packets are dropped
//! throughout. Lost probes are reported per node in the
//! [`SimReport`]:
//!
//! ```
//! use nc_netsim::linkmodel::LinkModelConfig;
//! use nc_netsim::planetlab::PlanetLabConfig;
//! use nc_netsim::scenario::Scenario;
//! use nc_netsim::sim::{SimConfig, Simulator};
//! use stable_nc::NodeConfig;
//!
//! let workload = PlanetLabConfig::small(8)
//!     .with_seed(3)
//!     .with_link_config(LinkModelConfig::default().with_loss_probability(0.02));
//! let sim_config = SimConfig::new(600.0, 5.0).with_measurement_start(0.0);
//! let scenario = Scenario::crash_restart(vec![0, 1], 300.0, 360.0);
//! let report = Simulator::new(workload, sim_config, vec![
//!     ("mp".to_string(), NodeConfig::paper_defaults()),
//! ])
//! .with_scenario(scenario)
//! .run();
//! let metrics = report.config("mp").unwrap();
//! assert!(metrics.total_probes_lost() > 0);
//! ```

// Lint policy (missing_docs, broken doc links, clippy set) is centralized
// in the workspace manifest: [workspace.lints] + `lints.workspace = true`.

pub mod adversary;
pub mod cluster;
pub mod linkmodel;
pub mod metrics;
pub mod planetlab;
pub mod rand_ext;
pub mod scenario;
mod shard;
pub mod sim;
pub mod topology;
pub mod trace;

pub use adversary::{AdversaryConfig, AdversaryModel};
pub use cluster::ClusterModel;
pub use linkmodel::{LinkModel, LinkModelConfig};
pub use metrics::{ConfigMetrics, ConfigSeries, NodeMetrics, NodeSeries, SimReport};
pub use planetlab::PlanetLabConfig;
pub use scenario::{Scenario, ScenarioAction, ScenarioEvent};
pub use sim::{ConfigError, EventQueue, SimConfig, Simulator};
pub use topology::{Region, RttMatrix, Topology};
pub use trace::{TraceConfig, TraceGenerator, TraceRecord};
