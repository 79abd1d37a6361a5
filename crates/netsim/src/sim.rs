//! The discrete-event coordinate-system simulator.
//!
//! The paper evaluates its enhancements in two ways that this simulator
//! unifies: a trace-driven simulator ("we built a simulator that accepted our
//! raw ping trace as input and mimicked the distributed behavior of
//! Vivaldi") and a live deployment in which the filtered and unfiltered
//! systems ran "on the same set of PlanetLab nodes at the same time, using
//! different ports". [`Simulator`] therefore runs **multiple named
//! configurations side by side on identical observation streams**: at every
//! probe the same raw RTT is handed to each configuration's node, so any
//! difference in the resulting metrics is attributable to the coordinate
//! stack alone.
//!
//! # The event model
//!
//! Time advances through a [`EventQueue`] of scheduled `SimEvent`s rather
//! than fixed steps, so probes are genuinely *in flight*: a probe sent at
//! `t` reaches its target half an RTT later (split asymmetrically when the
//! link model says so), the reply takes the other half back, and only then
//! does the prober's engine digest the observation. A probe or reply may be
//! dropped by the link's loss process or by an active network partition, in
//! which case the prober's first tick past the probe's deadline expires it
//! and the engine reports [`Event::ProbeLost`] — the round-robin schedule
//! keeps advancing either way; nothing ever stalls on an unanswered probe.
//!
//! Probing follows the paper's protocol: every node samples its neighbour
//! set in round-robin order at a fixed interval, neighbour sets start small
//! and grow through gossip (each probe reply carries the address of one
//! other node the target knows about); a mid-run joiner announces itself to
//! its seed peers, as a deployment bootstrapping from a membership file
//! would.
//!
//! On top of the queue sits the [`Scenario`](crate::scenario) layer: nodes
//! can join mid-run (alone or as a flash crowd), leave gracefully, crash
//! and later restart from the [`NodeSnapshot`] taken at the instant of the
//! crash, and whole node groups or geographic regions can be partitioned
//! from the rest of the mesh until a heal time. Scenario actions apply
//! identically to every named configuration.
//!
//! The simulator is a *driver* of the sans-I/O engine: every probe runs the
//! full wire exchange — [`StableNode::probe_request_for`] →
//! [`StableNode::respond_into`] → stamp the sampled RTT into the
//! [`ProbeResponse`](nc_proto::ProbeResponse) →
//! [`StableNode::handle_response_into`] — and the metrics are folded from
//! the reported [`Event`] stream, exactly as a deployed daemon would consume
//! them. A node's probe tick, and a restart, lose probes through
//! [`StableNode::expire_pending_into`], the call a daemon makes on its own
//! clock; the tick is the only timer a node has. Every one of those calls is
//! made in one place, `shard::Worker::apply`, which runs one engine
//! operation on every configuration of one node.
//!
//! The schedule is made in one place too: one event loop (`EventLoop`)
//! decides every probe target, link draw, expiry, adversary draw, gossip
//! pick and scenario effect, and hands each engine operation to an
//! `Engines`.
//! [`Simulator::run`] gives it the planner, which reads what the engines
//! will decide off its probe ledgers and queues the operations for its
//! workers; the reference behind [`Simulator::with_serial_execution`] gives
//! it one worker that applies each operation at once, and reads what the
//! engines decided off the engines themselves. That is the only difference
//! between the two.

use std::cmp::Ordering;
use std::sync::Arc;

use nc_proto::{Event, NodeSnapshot};
use nc_query::{CoordinateIndex, QueryConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stable_nc::{FxHashMap, NodeConfig, StableNode};

use crate::adversary::{AdversaryConfig, AdversaryDraw, AdversaryModel, CoordinateLie};
use crate::linkmodel::{LinkModel, LinkModelConfig};
use crate::metrics::{ConfigMetrics, NodeMetrics, SimReport};
use crate::planetlab::PlanetLabConfig;
use crate::scenario::{Scenario, ScenarioAction};
use crate::shard::{
    auto_workers, deal, reassemble, run_epochs, Decided, InFlight, PlanFootprint, PlanOp, SlotCell,
    Worker, EPOCH_EVENTS,
};
use crate::topology::Topology;

/// An invalid [`SimConfig`], reported by [`SimConfig::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The total duration is not positive and finite.
    NonPositiveDuration(f64),
    /// The probe interval is not positive and finite.
    NonPositiveProbeInterval(f64),
    /// The probe interval exceeds the run duration (no node would probe).
    ProbeIntervalExceedsDuration {
        /// The configured interval.
        interval_s: f64,
        /// The configured duration.
        duration_s: f64,
    },
    /// The measurement window starts outside `[0, duration)`.
    MeasurementStartOutOfRange {
        /// The configured start.
        start_s: f64,
        /// The configured duration.
        duration_s: f64,
    },
    /// The trajectory-tracking interval is not positive and finite.
    NonPositiveTrackInterval(f64),
    /// The probe timeout is not positive and finite.
    NonPositiveProbeTimeout(f64),
    /// The adversary fraction is not a probability in `[0, 1]`.
    AdversaryFractionOutOfRange(f64),
    /// An adversary magnitude (displacement, inflation or delay) is not a
    /// finite non-negative number.
    AdversaryMagnitudeNotFinite(f64),
    /// A coordinate liar's claimed error estimate lies outside `(0, 1]`.
    AdversaryErrorEstimateOutOfRange(f64),
    /// The drift-walk step period is not positive and finite.
    DriftPeriodNotPositive(f64),
    /// The drift-walk magnitude is not a finite non-negative number.
    DriftMagnitudeNotFinite(f64),
    /// The per-direction loss probability is not in `[0, 1]`.
    LossProbabilityOutOfRange(f64),
    /// The delay-asymmetry fraction is not in `[0, 1)`.
    DelayAsymmetryOutOfRange(f64),
    /// A link-model tuning parameter has an unphysical value (wrong sign,
    /// NaN or infinity).
    LinkParameterInvalid {
        /// The field name, as written in [`crate::LinkModelConfig`].
        name: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The initial neighbour count is zero: no node would ever probe.
    ZeroInitialNeighbors,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NonPositiveDuration(d) => {
                write!(f, "duration must be positive and finite, got {d}")
            }
            ConfigError::NonPositiveProbeInterval(i) => {
                write!(f, "probe interval must be positive and finite, got {i}")
            }
            ConfigError::ProbeIntervalExceedsDuration {
                interval_s,
                duration_s,
            } => write!(
                f,
                "probe interval {interval_s} s exceeds the run duration {duration_s} s"
            ),
            ConfigError::MeasurementStartOutOfRange {
                start_s,
                duration_s,
            } => write!(
                f,
                "measurement start {start_s} s lies outside the run [0, {duration_s}) s"
            ),
            ConfigError::NonPositiveTrackInterval(i) => {
                write!(f, "track interval must be positive and finite, got {i}")
            }
            ConfigError::NonPositiveProbeTimeout(t) => {
                write!(f, "probe timeout must be positive and finite, got {t}")
            }
            ConfigError::AdversaryFractionOutOfRange(p) => {
                write!(f, "adversary fraction must be in [0, 1], got {p}")
            }
            ConfigError::AdversaryMagnitudeNotFinite(v) => write!(
                f,
                "adversary magnitude must be finite and non-negative, got {v}"
            ),
            ConfigError::AdversaryErrorEstimateOutOfRange(e) => {
                write!(f, "adversary error estimate must lie in (0, 1], got {e}")
            }
            ConfigError::DriftPeriodNotPositive(p) => {
                write!(f, "drift-walk period must be positive and finite, got {p}")
            }
            ConfigError::DriftMagnitudeNotFinite(s) => write!(
                f,
                "drift-walk magnitude must be finite and non-negative, got {s}"
            ),
            ConfigError::LossProbabilityOutOfRange(p) => {
                write!(f, "loss probability must be in [0, 1], got {p}")
            }
            ConfigError::DelayAsymmetryOutOfRange(a) => {
                write!(f, "delay asymmetry must be in [0, 1), got {a}")
            }
            ConfigError::LinkParameterInvalid { name, value } => {
                write!(
                    f,
                    "link-model parameter {name} has unphysical value {value}"
                )
            }
            ConfigError::ZeroInitialNeighbors => {
                write!(f, "initial neighbour count must be at least 1")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Measurement schedule and protocol parameters of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Total simulated time in seconds.
    pub duration_s: f64,
    /// Interval between successive probes sent by one node (seconds); the
    /// paper's trace used 1 s, its deployment 5 s.
    pub probe_interval_s: f64,
    /// Metrics are only accumulated from this time onward (warm-up
    /// exclusion); the paper reports the second half of its runs.
    pub measurement_start_s: f64,
    /// How many other nodes each node knows at start-up.
    pub initial_neighbors: usize,
    /// Whether probe replies gossip one additional neighbour address.
    pub gossip: bool,
    /// Node indices whose coordinates are sampled over time (Figure 7).
    pub track_nodes: Vec<usize>,
    /// Interval between trajectory samples for tracked nodes (seconds).
    pub track_interval_s: f64,
    /// Seed for protocol-level randomness (gossip choices, initial neighbour
    /// sets). Independent of the workload seed.
    pub protocol_seed: u64,
    /// How long a prober waits for a reply before declaring the probe lost
    /// (seconds). Defaults to three probe intervals — far above any
    /// in-flight delay, so losses are declared only for genuinely dropped
    /// packets and dead peers.
    ///
    /// The prober's tick is its loss clock, as a daemon's is: a probe is
    /// declared lost at the prober's first tick at or after its send time
    /// plus the timeout, both in whole milliseconds, and a reply that
    /// arrives before that tick is still digested. With a timeout of a
    /// whole number of intervals that is the very instant the timeout
    /// elapses; a 7.5 s timeout at a 5 s interval declares the loss at the
    /// second tick, 10 s after the send, and a timeout shorter than one
    /// interval at the next tick.
    pub probe_timeout_s: f64,
    /// Optional Byzantine assignment: a seeded random fraction of the
    /// population runs an [`AdversaryModel`] from the start. `None` (the
    /// default) and a fraction of `0.0` are byte-identical to an
    /// adversary-free run — the adversary layer draws from its own RNG and
    /// only for nodes that actually misbehave.
    pub adversary: Option<AdversaryConfig>,
    /// Maintains a per-configuration [`nc_query::CoordinateIndex`] fed from
    /// the engines' application-coordinate updates, queryable after the run
    /// via [`Simulator::query_index`]. Off by default: the index is pure
    /// read-path state and never influences the probe schedule or the
    /// [`SimReport`], so enabling it cannot change simulation results.
    pub query_index: bool,
    /// Keeps the simulated time of every metric sample beside its value
    /// (see [`SimConfig::with_time_series`]). Off by default.
    pub time_series: bool,
}

impl SimConfig {
    /// Creates a schedule with the given duration and probe interval; the
    /// measurement window defaults to the second half of the run, neighbour
    /// sets start with 8 members, gossip is enabled, and probes time out
    /// after three intervals.
    ///
    /// # Panics
    ///
    /// Panics when the combination fails [`SimConfig::validate`]. Build the
    /// struct literally and call `validate()` for a non-panicking path.
    pub fn new(duration_s: f64, probe_interval_s: f64) -> Self {
        SimConfig {
            duration_s,
            probe_interval_s,
            measurement_start_s: duration_s / 2.0,
            initial_neighbors: 8,
            gossip: true,
            track_nodes: Vec::new(),
            track_interval_s: 60.0,
            protocol_seed: 0xF00D,
            probe_timeout_s: probe_interval_s * 3.0,
            adversary: None,
            query_index: false,
            time_series: false,
        }
        .checked()
    }

    /// The schedule of the paper's PlanetLab deployment: four hours, one
    /// probe per node every five seconds, second half measured.
    pub fn paper_deployment() -> Self {
        Self::new(4.0 * 3600.0, 5.0)
    }

    /// Checks every invariant of the schedule.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found: non-positive duration,
    /// interval, track interval or timeout; an interval longer than the
    /// run; a measurement start outside `[0, duration)`; or a zero initial
    /// neighbour count.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(self.duration_s.is_finite() && self.duration_s > 0.0) {
            return Err(ConfigError::NonPositiveDuration(self.duration_s));
        }
        if !(self.probe_interval_s.is_finite() && self.probe_interval_s > 0.0) {
            return Err(ConfigError::NonPositiveProbeInterval(self.probe_interval_s));
        }
        if self.probe_interval_s > self.duration_s {
            return Err(ConfigError::ProbeIntervalExceedsDuration {
                interval_s: self.probe_interval_s,
                duration_s: self.duration_s,
            });
        }
        if !(self.measurement_start_s.is_finite()
            && self.measurement_start_s >= 0.0
            && self.measurement_start_s < self.duration_s)
        {
            return Err(ConfigError::MeasurementStartOutOfRange {
                start_s: self.measurement_start_s,
                duration_s: self.duration_s,
            });
        }
        if !(self.track_interval_s.is_finite() && self.track_interval_s > 0.0) {
            return Err(ConfigError::NonPositiveTrackInterval(self.track_interval_s));
        }
        if !(self.probe_timeout_s.is_finite() && self.probe_timeout_s > 0.0) {
            return Err(ConfigError::NonPositiveProbeTimeout(self.probe_timeout_s));
        }
        if self.initial_neighbors == 0 {
            return Err(ConfigError::ZeroInitialNeighbors);
        }
        if let Some(adversary) = &self.adversary {
            adversary.validate()?;
        }
        Ok(())
    }

    /// The config itself, or a panic with [`SimConfig::validate`]'s message.
    fn checked(self) -> Self {
        if let Err(error) = self.validate() {
            panic!("invalid simulation schedule: {error}");
        }
        self
    }

    /// Sets the measurement start time.
    pub fn with_measurement_start(mut self, start_s: f64) -> Self {
        self.measurement_start_s = start_s;
        self
    }

    /// Sets the initial neighbour count.
    ///
    /// The setter records the value as given; a count of zero (nodes that
    /// know nobody can never probe) is reported as
    /// [`ConfigError::ZeroInitialNeighbors`] by [`SimConfig::validate`].
    /// (This setter used to silently round zero up to one; the
    /// workspace-wide builder unification moved the rule into `validate`.)
    pub fn with_initial_neighbors(mut self, count: usize) -> Self {
        self.initial_neighbors = count;
        self
    }

    /// Enables or disables gossip.
    pub fn with_gossip(mut self, gossip: bool) -> Self {
        self.gossip = gossip;
        self
    }

    /// Requests coordinate tracking for the given nodes.
    pub fn with_tracked_nodes(mut self, nodes: Vec<usize>, interval_s: f64) -> Self {
        self.track_nodes = nodes;
        self.track_interval_s = interval_s;
        self
    }

    /// Sets the protocol randomness seed.
    pub fn with_protocol_seed(mut self, seed: u64) -> Self {
        self.protocol_seed = seed;
        self
    }

    /// Makes a seeded random `fraction` of the population run `model`
    /// (see [`AdversaryConfig`] for the seed default; another seed is set
    /// through the [`adversary`](SimConfig::adversary) field).
    pub fn with_adversaries(mut self, fraction: f64, model: AdversaryModel) -> Self {
        self.adversary = Some(AdversaryConfig::new(fraction, model));
        self
    }

    /// Enables the coordinate query index (see [`SimConfig::query_index`]).
    pub fn with_query_index(mut self) -> Self {
        self.query_index = true;
        self
    }

    /// Keeps every metric sample's timestamp, readable after the run
    /// through [`NodeMetrics::series`] and [`ConfigMetrics::series`] — for
    /// readers that bin or window by time, such as Figure 14 and the churn
    /// tests. The report's accessors read only the values and return the
    /// same bits either way.
    ///
    /// # Memory
    ///
    /// Off, a measured observation costs the fold at most 24 B (two
    /// relative errors and a displacement, 8 B each) and an application
    /// update only adds to a running sum. On, every one of those samples is
    /// also kept as a 16 B `(time_s, value)` pair beside its value — up to
    /// 72 B per measured observation, plus 16 B per application update.
    pub fn with_time_series(mut self) -> Self {
        self.time_series = true;
        self
    }

    /// Length of the measurement window.
    pub fn measurement_duration_s(&self) -> f64 {
        self.duration_s - self.measurement_start_s
    }

    /// Empty metric accumulators for `nodes` nodes, stamped or not as asked.
    fn empty_metrics(&self, nodes: usize) -> ConfigMetrics {
        let measured_s = self.measurement_duration_s();
        if self.time_series {
            ConfigMetrics::with_time_series(nodes, measured_s)
        } else {
            ConfigMetrics::new(nodes, measured_s)
        }
    }
}

// ---------------------------------------------------------------------------
// Event queue
// ---------------------------------------------------------------------------

/// A queue entry, ordered by `(time_s, insertion)`: earliest time first,
/// FIFO among equal times. Insertion numbers are unique, so the order is a
/// *strict* total order — every correct priority queue pops the exact same
/// sequence, which is what lets the container behind [`EventQueue`] change
/// without touching simulation results.
#[derive(Debug)]
struct QueueEntry<T> {
    time_s: f64,
    insertion: u64,
    item: T,
}

/// Heap arity. A 4-ary heap halves the tree depth of a binary heap and
/// packs each node's children into one or two cache lines. Inside a
/// simulation the heap holds about one probe tick per live node beside the
/// packets in flight, about `n · RTT / probe_interval` entries (≈ 30 at
/// 1,024 nodes), and the scripted scenario actions; outside it, the
/// `ncbench` queue replay keeps two entries per node resident. At those
/// depths the fewer, more local levels measurably cut per-pop cost.
const HEAP_ARITY: usize = 4;

/// A deterministic discrete-event queue: events pop in nondecreasing time
/// order, and events scheduled for the same instant pop in insertion order
/// (FIFO), so a simulation's behaviour is a pure function of its inputs.
/// One 4-ary min-heap holds every entry.
#[derive(Debug, Default)]
pub struct EventQueue<T> {
    heap: Vec<QueueEntry<T>>,
    insertions: u64,
    popped: u64,
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            insertions: 0,
            popped: 0,
        }
    }

    /// Strict `(time, insertion)` ordering; `insertion` uniqueness means
    /// `Ordering::Equal` never decides between distinct entries.
    fn earlier(a: &QueueEntry<T>, b: &QueueEntry<T>) -> bool {
        match a.time_s.total_cmp(&b.time_s) {
            Ordering::Less => true,
            Ordering::Greater => false,
            Ordering::Equal => a.insertion < b.insertion,
        }
    }

    fn sift_up(&mut self, mut index: usize) {
        while index > 0 {
            let parent = (index - 1) / HEAP_ARITY;
            if Self::earlier(&self.heap[index], &self.heap[parent]) {
                self.heap.swap(index, parent);
                index = parent;
            } else {
                return;
            }
        }
    }

    fn sift_down(&mut self, mut index: usize) {
        let len = self.heap.len();
        loop {
            let first_child = index * HEAP_ARITY + 1;
            if first_child >= len {
                return;
            }
            let mut earliest = first_child;
            for child in first_child + 1..(first_child + HEAP_ARITY).min(len) {
                if Self::earlier(&self.heap[child], &self.heap[earliest]) {
                    earliest = child;
                }
            }
            if Self::earlier(&self.heap[earliest], &self.heap[index]) {
                self.heap.swap(index, earliest);
                index = earliest;
            } else {
                return;
            }
        }
    }

    /// Schedules `item` at `time_s`.
    ///
    /// # Panics
    ///
    /// Panics when `time_s` is not finite (an event at NaN-o'clock would
    /// never pop in a defined order).
    pub fn schedule(&mut self, time_s: f64, item: T) {
        assert!(time_s.is_finite(), "event times must be finite");
        let insertion = self.insertions;
        self.insertions += 1;
        self.heap.push(QueueEntry {
            time_s,
            insertion,
            item,
        });
        self.sift_up(self.heap.len() - 1);
    }

    /// Removes and returns the earliest event as `(time, item)`.
    pub fn pop(&mut self) -> Option<(f64, T)> {
        let last = self.heap.pop()?;
        let entry = if self.heap.is_empty() {
            last
        } else {
            let entry = std::mem::replace(&mut self.heap[0], last);
            self.sift_down(0);
            entry
        };
        self.popped += 1;
        Some((entry.time_s, entry.item))
    }

    /// Events popped since the queue was created — the exact count behind an
    /// events-per-second figure.
    pub fn popped(&self) -> u64 {
        self.popped
    }
}

// ---------------------------------------------------------------------------
// Simulator
// ---------------------------------------------------------------------------

/// What the simulator does when the clock reaches an event.
///
/// Per-probe responses live in an index-addressed slab of reusable cells
/// (`shard::SlotCell`); events carry only the slab index plus plain
/// scalars, so scheduling and delivering a probe moves a few machine words
/// through the queue instead of cloning coordinates and messages per event.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SimEvent {
    /// A node's probe tick: expire the probes whose timeout has elapsed,
    /// pick the next round-robin target and launch the exchange. Reschedules
    /// itself every probe interval while the node is up.
    ProbeSend { src: usize },
    /// A probe reaches its target, which answers it (the reply may then be
    /// lost on the way back). What the reply needs of the send lives in the
    /// exchange slot.
    ProbeDeliver {
        src: usize,
        dst: usize,
        slot: usize,
        rtt_ms: f64,
        reverse_delay_s: f64,
        reverse_lost: bool,
    },
    /// A reply reaches the prober, which digests the responses held in the
    /// slot's cell.
    ResponseDeliver { src: usize, dst: usize, slot: usize },
    /// Sample the tracked nodes' coordinates (Figure 7 trajectories).
    TrackSample,
    /// Apply the next scripted scenario action.
    ScenarioAction { index: usize },
}

/// One in-run network partition: packets crossing the boundary between
/// `members` and everyone else are dropped until `heal_at_s`.
pub(crate) struct PartitionWindow {
    pub(crate) heal_at_s: f64,
    pub(crate) members: Vec<bool>,
}

/// One coordinate stack (a full set of [`StableNode`]s, one per host) run by
/// the simulator.
pub(crate) struct ConfigRun {
    pub(crate) name: String,
    pub(crate) config: NodeConfig,
    pub(crate) nodes: Vec<StableNode<usize>>,
    pub(crate) metrics: ConfigMetrics,
    /// Read-path index over published application coordinates, present when
    /// [`SimConfig::query_index`] is set. Fed from `ApplicationUpdated`
    /// events only — it never influences the schedule or the report.
    pub(crate) index: Option<CoordinateIndex<usize>>,
}

/// Everything that stays immutable while a simulation runs: the workload,
/// the schedule, the ground-truth topology and the scripted scenario.
/// Shared by reference with every worker thread of a parallel run.
pub(crate) struct SimEnv {
    pub(crate) workload: PlanetLabConfig,
    pub(crate) sim_config: SimConfig,
    pub(crate) topology: Topology,
    pub(crate) scenario: Scenario,
}

/// Protocol-level schedule state: who knows whom, liveness, link models and
/// the protocol RNG. Probe targets, link draws, gossip picks and scenario
/// effects are a pure function of this state, the seeds and the engines'
/// probe ledgers — never of the coordinate stacks — which is what lets the
/// plan/execute engine replay the byte-identical schedule ahead of them.
pub(crate) struct ScheduleState {
    /// Per-link models in creation order, dense: a link is 72 bytes and the
    /// table holds hundreds of thousands, so they sit in a `Vec` (which
    /// carries no empty buckets) and the hash map beside it only maps keys
    /// to positions.
    pub(crate) links: Vec<LinkModel>,
    /// Position in `links` of the packed `(lo << 32) | hi` node pair.
    /// FxHash keeps the one map lookup per exchange a few shifts and
    /// multiplies instead of SipHash rounds.
    pub(crate) link_index: FxHashMap<u64, u32>,
    /// The link-model tuning, one copy shared by every link.
    pub(crate) link_config: Arc<LinkModelConfig>,
    pub(crate) neighbor_sets: Vec<Vec<usize>>,
    /// Per-node membership bitmaps mirroring `neighbor_sets`, so the
    /// per-gossip "already known?" check is one bit test instead of a scan
    /// of a growing vector.
    pub(crate) neighbor_bits: Vec<Vec<u64>>,
    pub(crate) round_robin: Vec<usize>,
    pub(crate) protocol_rng: StdRng,
    /// Liveness per node; down nodes neither probe nor answer.
    pub(crate) alive: Vec<bool>,
    /// Whether a future `ProbeSend` for the node is already in the queue
    /// (guards against double-scheduling across crash/restart cycles).
    pub(crate) probe_cycle_active: Vec<bool>,
    pub(crate) active_partitions: Vec<PartitionWindow>,
    /// Per-node Byzantine behaviour; `None` everywhere in honest runs.
    pub(crate) adversaries: Vec<Option<AdversaryModel>>,
    /// Dedicated RNG for adversary selection and per-reply draws, separate
    /// from `protocol_rng` and the link streams so an adversary-free config
    /// keeps its schedule byte-identical.
    pub(crate) adversary_rng: StdRng,
}

impl ScheduleState {
    /// True when `node` already has `peer` in its probe rotation.
    pub(crate) fn knows(&self, node: usize, peer: usize) -> bool {
        // bounds: peer < n, so peer / 64 < ceil(n / 64), the row's word count.
        self.neighbor_bits[node][peer / 64] >> (peer % 64) & 1 == 1
    }

    /// Adds `peer` to `node`'s probe rotation unless already present.
    pub(crate) fn neighbor_add(&mut self, node: usize, peer: usize) {
        if !self.knows(node, peer) {
            // bounds: peer < n, so peer / 64 < ceil(n / 64), the row's word count.
            self.neighbor_bits[node][peer / 64] |= 1 << (peer % 64);
            self.neighbor_sets[node].push(peer);
        }
    }

    /// Removes `peer` from `node`'s probe rotation if present.
    pub(crate) fn neighbor_remove(&mut self, node: usize, peer: usize) {
        if self.knows(node, peer) {
            // bounds: peer < n, so peer / 64 < ceil(n / 64), the row's word count.
            self.neighbor_bits[node][peer / 64] &= !(1 << (peer % 64));
            self.neighbor_sets[node].retain(|&member| member != peer);
        }
    }

    /// Replaces `node`'s probe rotation wholesale (joiner bootstrap).
    pub(crate) fn neighbor_replace(&mut self, node: usize, set: Vec<usize>) {
        for word in self.neighbor_bits[node].iter_mut() {
            *word = 0;
        }
        for &peer in &set {
            // bounds: peer < n, so peer / 64 < ceil(n / 64), the row's word count.
            self.neighbor_bits[node][peer / 64] |= 1 << (peer % 64);
        }
        self.neighbor_sets[node] = set;
    }

    /// Draws one full exchange over the (unordered) link `src`–`dst`: the
    /// observed RTT, the per-direction loss decisions and the asymmetric
    /// one-way delays. The ground-truth base RTT is derived from the
    /// topology **once per link lifetime**, inside the insertion closure —
    /// no `n × n` matrix is materialised, and the steady-state path is one
    /// FxHash lookup instead of a guaranteed cache miss into a
    /// hundreds-of-megabytes matrix row.
    pub(crate) fn sample_exchange(
        &mut self,
        env: &SimEnv,
        src: usize,
        dst: usize,
        time_s: f64,
    ) -> LinkDraw {
        let (lo, hi) = if src < dst { (src, dst) } else { (dst, src) };
        let key = ((lo as u64) << 32) | hi as u64;
        let seed = env
            .workload
            .seed()
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(key);
        let links = &mut self.links;
        let position = *self.link_index.entry(key).or_insert_with(|| {
            links.push(LinkModel::with_shared_config(
                env.topology.base_rtt_ms(lo, hi),
                Arc::clone(&self.link_config),
                env.sim_config.duration_s,
                seed,
            ));
            (links.len() - 1) as u32
        });
        let link = &mut links[position as usize];
        let rtt_ms = link.sample(time_s);
        let forward_lost = link.sample_loss();
        let reverse_lost = link.sample_loss();
        let (lo_to_hi_ms, hi_to_lo_ms) = link.one_way_split(rtt_ms);
        // The split is stored in (low, high) index order; orient it to the
        // actual probe direction.
        let (forward_ms, reverse_ms) = if src == lo {
            (lo_to_hi_ms, hi_to_lo_ms)
        } else {
            (hi_to_lo_ms, lo_to_hi_ms)
        };
        LinkDraw {
            rtt_ms,
            forward_delay_s: forward_ms / 1_000.0,
            reverse_delay_s: reverse_ms / 1_000.0,
            forward_lost,
            reverse_lost,
        }
    }

    /// Draws the adversarial action for a reply about to be sent by `node`,
    /// or `None` when the node is honest. Called at probe-delivery time, and
    /// consumes randomness only for actual adversaries.
    pub(crate) fn sample_adversary(&mut self, node: usize) -> Option<AdversaryDraw> {
        let model = self.adversaries[node].as_ref()?;
        Some(model.draw(&mut self.adversary_rng))
    }

    /// True when an active partition separates `a` from `b` at `time_s`.
    pub(crate) fn partitioned(&self, a: usize, b: usize, time_s: f64) -> bool {
        self.active_partitions
            .iter()
            .any(|window| time_s < window.heal_at_s && window.members[a] != window.members[b])
    }

    /// Cuts `group` off from everyone else until `heal_at_s`.
    fn start_partition(&mut self, group: &[usize], heal_at_s: f64) {
        let mut members = vec![false; self.alive.len()];
        for &node in group {
            members[node] = true;
        }
        self.active_partitions
            .push(PartitionWindow { heal_at_s, members });
    }

    /// Applies a scenario action that touches nothing but the schedule and
    /// returns `None`; hands back the ones that involve the engines (joins,
    /// crashes, restarts).
    pub(crate) fn apply(&mut self, env: &SimEnv, action: ScenarioAction) -> Option<ScenarioAction> {
        match action {
            ScenarioAction::Leave { nodes } => {
                for node in nodes {
                    self.alive[node] = false;
                    // A graceful leaver says goodbye: every live node drops
                    // it from its probe rotation immediately.
                    for other in 0..self.neighbor_sets.len() {
                        self.neighbor_remove(other, node);
                    }
                }
            }
            ScenarioAction::Partition { group, heal_at_s } => {
                self.start_partition(&group, heal_at_s);
            }
            ScenarioAction::PartitionRegions { regions, heal_at_s } => {
                let group: Vec<usize> = regions
                    .iter()
                    .flat_map(|&region| env.topology.nodes_in_region(region))
                    .collect();
                self.start_partition(&group, heal_at_s);
            }
            ScenarioAction::SetAdversary { nodes, model } => {
                for node in nodes {
                    self.adversaries[node] = model.clone();
                }
            }
            engines => return Some(engines),
        }
        None
    }

    /// Gossip: the probed node `dst` hands back one address from its own
    /// neighbour set and the prober `src` adds it. Identical across
    /// configurations because it only affects the probe schedule.
    pub(crate) fn learn_gossip(&mut self, env: &SimEnv, src: usize, dst: usize) {
        if env.sim_config.gossip && !self.neighbor_sets[dst].is_empty() {
            let idx = self
                .protocol_rng
                .gen_range(0..self.neighbor_sets[dst].len());
            let learned = self.neighbor_sets[dst][idx];
            if learned != src {
                self.neighbor_add(src, learned);
            }
        }
    }

    /// A joiner bootstraps a fresh neighbour set of live peers, and
    /// announces itself to them (the membership-file introduction of the
    /// paper's deployments) so the mesh starts probing it back; gossip
    /// spreads its address from there.
    pub(crate) fn bootstrap_joiner(&mut self, env: &SimEnv, node: usize) {
        self.round_robin[node] = 0;
        let n = env.topology.len();
        let live = self.alive.iter().filter(|&&up| up).count();
        let want = env.sim_config.initial_neighbors.min(live.saturating_sub(1));
        let mut set = Vec::new();
        let mut attempts = 0;
        while set.len() < want && attempts < n * 16 {
            attempts += 1;
            let candidate = self.protocol_rng.gen_range(0..n);
            if candidate != node && self.alive[candidate] && !set.contains(&candidate) {
                set.push(candidate);
            }
        }
        for &seed in &set {
            self.neighbor_add(seed, node);
        }
        self.neighbor_replace(node, set);
    }
}

/// The mutable half of a simulation: the protocol-level [`ScheduleState`],
/// the per-configuration node stacks and their crash snapshots. Either
/// executor deals the stacks out to its workers for a run and puts them back
/// after.
pub(crate) struct EngineState {
    pub(crate) schedule: ScheduleState,
    pub(crate) runs: Vec<ConfigRun>,
    /// Per-run, per-node snapshot taken at the instant of a crash, consumed
    /// by a later restart.
    pub(crate) crash_snapshots: Vec<Vec<Option<NodeSnapshot<usize>>>>,
    /// Events one replay of the schedule popped from its [`EventQueue`]
    /// (see [`Simulator::events_popped`]).
    pub(crate) events_popped: u64,
}

/// Runs one or more coordinate-stack configurations over a synthetic
/// workload, optionally under a churn [`Scenario`]. See the
/// [crate-level documentation](crate) for an example.
///
/// [`Simulator::run`] has one engine: the schedule is planned serially in
/// bounded epochs and each epoch's engine work runs on
/// `min(cores, nodes / 64)` workers, at least one. The calling thread plans
/// the next epoch while the others execute one, then joins them; alone, it
/// plans and executes in turn. The loop behind
/// [`Simulator::with_serial_execution`] is the reference the regression
/// suites compare that engine against, byte for byte.
pub struct Simulator {
    env: SimEnv,
    state: EngineState,
    reference: bool,
    threads: Option<usize>,
}

impl Simulator {
    /// Builds a simulator over `workload` with the given schedule, running
    /// every named configuration side by side.
    ///
    /// # Panics
    ///
    /// Panics with `validate`'s message when the schedule fails
    /// [`SimConfig::validate`], the workload's link model fails
    /// [`LinkModelConfig::validate`] or a configuration fails
    /// [`NodeConfig::validate`] (the message names that configuration).
    /// Panics also when `configs` is empty, when two configurations share a
    /// name, or when a tracked node index is out of range.
    pub fn new(
        workload: PlanetLabConfig,
        sim_config: SimConfig,
        configs: Vec<(String, NodeConfig)>,
    ) -> Self {
        let sim_config = sim_config.checked();
        let link_config = workload.link_config().clone();
        if let Err(error) = link_config.validate() {
            panic!("invalid link model: {error}");
        }
        for (name, config) in &configs {
            if let Err(error) = config.validate() {
                panic!("invalid node config {name:?}: {error}");
            }
        }
        assert!(
            !configs.is_empty(),
            "at least one configuration is required"
        );
        {
            let mut names: Vec<&str> = configs.iter().map(|(n, _)| n.as_str()).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(
                names.len(),
                configs.len(),
                "configuration names must be unique"
            );
        }
        let topology = workload.build_topology();
        let n = topology.len();
        for &tracked in &sim_config.track_nodes {
            assert!(tracked < n, "tracked node {tracked} out of range");
        }
        let mut protocol_rng = StdRng::seed_from_u64(sim_config.protocol_seed);

        // Initial neighbour sets: a ring of successors plus a few random
        // members, mimicking "a node knows at least one other node when it
        // enters the system" seeded from a membership file.
        let mut neighbor_sets: Vec<Vec<usize>> = Vec::with_capacity(n);
        for i in 0..n {
            let mut set = Vec::new();
            let want = sim_config.initial_neighbors.min(n - 1);
            let mut k = 1;
            while set.len() < want {
                let candidate = if set.len() < want / 2 || n <= 3 {
                    (i + k) % n
                } else {
                    protocol_rng.gen_range(0..n)
                };
                k += 1;
                if candidate != i && !set.contains(&candidate) {
                    set.push(candidate);
                }
            }
            neighbor_sets.push(set);
        }

        let run_count = configs.len();
        let query_index = sim_config.query_index;
        let runs = configs
            .into_iter()
            .map(|(name, config)| ConfigRun {
                name,
                nodes: (0..n).map(|_| StableNode::new(config.clone())).collect(),
                metrics: sim_config.empty_metrics(n),
                index: query_index.then(|| {
                    CoordinateIndex::new(QueryConfig {
                        dimensions: config.vivaldi.dimensions(),
                        ..QueryConfig::default()
                    })
                    .unwrap_or_else(|error| panic!("query index unavailable: {error}"))
                }),
                config,
            })
            .collect();

        let words = n.div_ceil(64);
        let mut neighbor_bits = vec![vec![0u64; words]; n];
        for (node, set) in neighbor_sets.iter().enumerate() {
            for &peer in set {
                // bounds: peer < n, so peer / 64 < words = ceil(n / 64).
                neighbor_bits[node][peer / 64] |= 1 << (peer % 64);
            }
        }

        // Seeded adversary assignment: the dedicated RNG exists either way
        // (cheap), but is only *consumed* when adversaries are configured.
        let mut adversary_rng = StdRng::seed_from_u64(
            sim_config
                .adversary
                .as_ref()
                .map(|adversary| adversary.seed)
                .unwrap_or(0xBAD_5EED),
        );
        let mut adversaries: Vec<Option<AdversaryModel>> = vec![None; n];
        if let Some(adversary) = &sim_config.adversary {
            let count = ((adversary.fraction * n as f64).round() as usize).min(n);
            let mut chosen = 0;
            while chosen < count {
                let candidate = adversary_rng.gen_range(0..n);
                if adversaries[candidate].is_none() {
                    adversaries[candidate] = Some(adversary.model.clone());
                    chosen += 1;
                }
            }
        }

        Simulator {
            env: SimEnv {
                workload,
                sim_config,
                topology,
                scenario: Scenario::new(),
            },
            state: EngineState {
                schedule: ScheduleState {
                    links: Vec::new(),
                    link_index: FxHashMap::default(),
                    link_config: Arc::new(link_config),
                    neighbor_sets,
                    neighbor_bits,
                    round_robin: vec![0; n],
                    protocol_rng,
                    alive: vec![true; n],
                    probe_cycle_active: vec![false; n],
                    active_partitions: Vec::new(),
                    adversaries,
                    adversary_rng,
                },
                runs,
                crash_snapshots: vec![vec![None; n]; run_count],
                events_popped: 0,
            },
            reference: false,
            threads: None,
        }
    }

    /// Attaches a churn scenario to the run. Applied identically to every
    /// named configuration.
    ///
    /// # Panics
    ///
    /// Panics when the scenario references a node index outside the
    /// workload.
    pub fn with_scenario(mut self, scenario: Scenario) -> Self {
        if let Some(max) = scenario.max_node() {
            assert!(
                max < self.env.topology.len(),
                "scenario references node {max}, workload has {} nodes",
                self.env.topology.len()
            );
        }
        self.env.scenario = scenario;
        self
    }

    /// Runs the reference instead of the planner: the same event loop, with
    /// every node on one worker on the calling thread, whatever
    /// [`Simulator::with_threads`] says, and each engine operation applied
    /// the moment the loop hands it over. The loop then schedules from what
    /// the engines decided, never from the planner's ledgers. It exists for
    /// the regression suites, which assert the planner's [`SimReport`] equal
    /// to this one's byte for byte; it is not a mode to run experiments in.
    pub fn with_serial_execution(mut self, serial: bool) -> Self {
        self.reference = serial;
        self
    }

    /// Runs this simulation's engine work on exactly `threads` workers (node
    /// `i` belongs to worker `i % threads`; the calling thread is worker 0,
    /// and with `threads = 1` the only one), overriding the count
    /// [`Simulator::run`] would pick. The [`SimReport`] does not depend on
    /// it.
    ///
    /// # Panics
    ///
    /// Panics when `threads` is zero.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "at least one worker thread is required");
        self.threads = Some(threads);
        self
    }

    /// The generated topology (ground-truth base RTTs).
    pub fn topology(&self) -> &Topology {
        &self.env.topology
    }

    /// The named configuration's coordinate query index — the read path
    /// over the application coordinates its engines have published so far.
    /// Populated during [`Simulator::run`]; query it afterwards (or between
    /// staged runs) for k-nearest-node, closest-replica and centroid
    /// answers. Returns `None` for an unknown name or when
    /// [`SimConfig::query_index`] was not enabled.
    ///
    /// A node appears in the index once it publishes its first application
    /// coordinate update and keeps its last published coordinate through
    /// crashes and restarts — the index mirrors a lookup service that
    /// serves the last-known coordinate of an unreachable node until it
    /// re-announces.
    pub fn query_index(&self, name: &str) -> Option<&CoordinateIndex<usize>> {
        self.state
            .runs
            .iter()
            .find(|run| run.name == name)
            .and_then(|run| run.index.as_ref())
    }

    /// Indices of the nodes made adversarial by the static
    /// [`SimConfig::adversary`] assignment, in ascending order. Scenario
    /// scripts can change assignments later; this reflects the state at
    /// construction, which is what experiments need to exclude attackers
    /// from victim-side accuracy metrics.
    pub fn adversaries(&self) -> Vec<usize> {
        self.state
            .schedule
            .adversaries
            .iter()
            .enumerate()
            .filter_map(|(node, model)| model.as_ref().map(|_| node))
            .collect()
    }

    /// Events the finished run popped from its event queue: the exact count
    /// of one replay of the schedule, whatever the worker count and under
    /// the reference loop alike. Zero before [`Simulator::run`].
    pub fn events_popped(&self) -> u64 {
        self.state.events_popped
    }

    /// Runs the simulation to completion and returns the collected metrics.
    ///
    /// The schedule (probe targets, link draws, losses, gossip, scenario
    /// effects) is replayed serially — it is cheap and inherently sequential
    /// through the protocol RNG — in bounded epochs of a few ten thousand
    /// events, against one [`ProbeLedger`](stable_nc::ProbeLedger) per node
    /// in place of the engines; after each epoch its engine work
    /// (coordinate updates, filters, response digestion) runs on the
    /// workers, so the plan's memory does not grow with the duration. The
    /// worker count is [`Simulator::with_threads`]' or, unasked,
    /// `min(cores, nodes / 64)` and at least one, with `cores` taken from
    /// [`std::thread::available_parallelism`]; the 64-nodes-per-worker
    /// floor is measured (README, "How many workers `run()` uses"). One
    /// worker is the calling thread — no thread is spawned for it. Neither
    /// the worker count nor the epoch size reaches the report.
    ///
    /// The report takes the metric accumulators with it: a second `run` on
    /// the same simulator replays the schedule from `t = 0` over the engines
    /// and neighbour sets the first one left, and reports only what it
    /// collected itself.
    pub fn run(&mut self) -> SimReport {
        self.execute();
        self.take_report()
    }

    /// Runs the schedule to completion; the plan's footprint unless the
    /// reference loop ran.
    fn execute(&mut self) -> Option<PlanFootprint> {
        if self.reference {
            run_reference(&self.env, &mut self.state);
            return None;
        }
        let workers = self.threads.unwrap_or_else(|| {
            let cores = std::thread::available_parallelism().map_or(1, |cores| cores.get());
            auto_workers(self.env.topology.len(), cores)
        });
        Some(run_epochs(
            &self.env,
            &mut self.state,
            workers,
            workers - 1,
            EPOCH_EVENTS,
        ))
    }

    /// Moves the metric accumulators into a report, leaving empty ones
    /// behind — no second copy of every series at the moment memory peaks.
    fn take_report(&mut self) -> SimReport {
        let nodes = self.env.topology.len();
        let configs = self.state.runs.iter_mut().map(|run| {
            let metrics =
                std::mem::replace(&mut run.metrics, self.env.sim_config.empty_metrics(nodes));
            (run.name.clone(), metrics)
        });
        SimReport::new(
            configs,
            self.env.sim_config.duration_s,
            self.env.sim_config.measurement_start_s,
        )
    }

    /// Runs the engine on `shards` shards and `helpers` helper threads with
    /// an explicit epoch budget, for the tests that prove neither reaches the
    /// report.
    #[cfg(test)]
    pub(crate) fn run_streamed(
        &mut self,
        shards: usize,
        helpers: usize,
        epoch_events: usize,
    ) -> (SimReport, PlanFootprint) {
        let footprint = run_epochs(&self.env, &mut self.state, shards, helpers, epoch_events);
        (self.take_report(), footprint)
    }
}

/// Feeds a run's optional coordinate query index from one engine event
/// stream: every `ApplicationUpdated` upserts the publishing node's new
/// application coordinate. The executor calls this from its response
/// digest — the only place the engines publish coordinates — so the final
/// index contents are the same whichever loop ran.
pub(crate) fn feed_query_index(
    index: Option<&mut CoordinateIndex<usize>>,
    node: usize,
    events: &[Event<usize>],
) {
    let Some(index) = index else {
        return;
    };
    for event in events {
        if let Event::ApplicationUpdated { update } = event {
            // The engine only publishes finite coordinates of the
            // dimensionality the index was sized for, so this cannot fail.
            let _ = index.update(node, &update.current);
        }
    }
}

/// Folds one engine event stream into a node's metric accumulators.
/// Losses are counted over the whole run (a dead link produces nothing
/// to gate a measurement window on); everything else respects the
/// warm-up exclusion.
pub(crate) fn fold_events(
    metrics: &mut NodeMetrics,
    time_s: f64,
    measuring: bool,
    events: &[Event<usize>],
) {
    for event in events {
        match event {
            Event::SystemMoved {
                displacement_ms,
                relative_error,
                application_relative_error,
                ..
            } if measuring => metrics.record_system_move(
                time_s,
                *relative_error,
                *application_relative_error,
                *displacement_ms,
            ),
            Event::ApplicationUpdated { update } if measuring => {
                metrics.record_application_update(time_s, update.displacement_ms);
            }
            Event::ProbeLost { .. } => {
                metrics.probes_lost += 1;
            }
            Event::ResponseIgnored { .. } => {
                metrics.responses_ignored += 1;
            }
            Event::ObservationRejected { .. } => {
                metrics.observations_rejected += 1;
            }
            Event::NeighborEvicted { .. } => {
                metrics.neighbors_evicted += 1;
            }
            _ => {}
        }
    }
}

/// Where the [`EventLoop`]'s engine decisions come from. The loop hands
/// every engine operation to it, with what the operation needs beside it,
/// and schedules from the [`Decided`] facts it hands back: the number an
/// `Issue` gave the probe, and the peers every configuration evicted on an
/// `Expire`. The reference ([`Reference`]) reads them off
/// the engines; the planner (`shard::Planner`) off its probe ledgers.
pub(crate) trait Engines {
    /// Runs or queues `op` on its node's engines and returns what they
    /// decided.
    fn apply(&mut self, op: PlanOp, beside: Beside) -> Decided<'_>;
}

/// What an operation needs that it does not carry: too wide for every
/// [`PlanOp`], or read only by the planner.
#[derive(Clone, Copy)]
pub(crate) enum Beside {
    Nothing,
    /// The coordinate lie a `Respond` stamps on its reply.
    Lie(CoordinateLie),
    /// What a `Digest` settles: the responder and the probe's number.
    Settle {
        responder: usize,
        seq: u64,
    },
}

/// The simulation's event loop, while it runs: the schedule, the queue and
/// the exchanges in flight. Every schedule decision of a run is made here,
/// whichever executor runs it; the engines' side of each comes from an
/// [`Engines`].
pub(crate) struct EventLoop<'a> {
    env: &'a SimEnv,
    schedule: &'a mut ScheduleState,
    pub(crate) queue: EventQueue<SimEvent>,
    pub(crate) in_flight: InFlight,
    pub(crate) scenario_actions: u64,
    track_sample: u32,
}

impl<'a> EventLoop<'a> {
    /// A loop at `t = 0`, its queue holding the scripted scenario actions,
    /// one probe tick per live node and the first tracking sample.
    pub(crate) fn new(env: &'a SimEnv, schedule: &'a mut ScheduleState) -> Self {
        let mut queue = EventQueue::new();
        for &node in env.scenario.initially_down() {
            schedule.alive[node] = false;
        }
        for (index, event) in env.scenario.events().iter().enumerate() {
            if event.at_s < env.sim_config.duration_s {
                queue.schedule(event.at_s, SimEvent::ScenarioAction { index });
            }
        }
        for src in 0..env.topology.len() {
            if schedule.alive[src] {
                schedule.probe_cycle_active[src] = true;
                queue.schedule(0.0, SimEvent::ProbeSend { src });
            }
        }
        if !env.sim_config.track_nodes.is_empty() {
            queue.schedule(0.0, SimEvent::TrackSample);
        }
        EventLoop {
            env,
            queue,
            schedule,
            in_flight: InFlight::default(),
            scenario_actions: 0,
            track_sample: 0,
        }
    }

    /// Pops and handles the next event. False once the run is over: the
    /// queue is dry or the clock has reached the duration.
    #[inline]
    pub(crate) fn step(&mut self, engines: &mut impl Engines) -> bool {
        match self.queue.pop() {
            Some((now, event)) if now < self.env.sim_config.duration_s => {
                self.on_event(engines, now, event);
                true
            }
            _ => false,
        }
    }

    fn on_event(&mut self, engines: &mut impl Engines, now: f64, event: SimEvent) {
        let env = self.env;
        match event {
            SimEvent::ProbeSend { src } => {
                // Healed partitions are dead weight for every later crossing
                // check; prune them as the clock passes their heal time.
                self.schedule
                    .active_partitions
                    .retain(|window| window.heal_at_s > now);
                if !self.schedule.alive[src] {
                    // The cycle dies with the node; a restart schedules a new one
                    // and expires what the node went down with.
                    self.schedule.probe_cycle_active[src] = false;
                    return;
                }
                // The tick is the prober's loss clock, as a daemon's is: every
                // probe sent at least one timeout ago is lost, before the
                // rotation is read, so its evictions already apply.
                let now_ms = (now * 1_000.0) as u64;
                let timeout_ms = (env.sim_config.probe_timeout_s * 1_000.0) as u64;
                if let Some(deadline_ms) = now_ms.checked_sub(timeout_ms) {
                    self.expire(engines, src, deadline_ms);
                }
                let next_tick = now + env.sim_config.probe_interval_s;
                if next_tick < env.sim_config.duration_s {
                    self.queue.schedule(next_tick, SimEvent::ProbeSend { src });
                } else {
                    self.schedule.probe_cycle_active[src] = false;
                }
                let neighbor_count = self.schedule.neighbor_sets[src].len();
                if neighbor_count == 0 {
                    return;
                }
                let cursor = self.schedule.round_robin[src];
                // bounds: the cursor is reduced modulo neighbor_count == the set's len.
                let dst = self.schedule.neighbor_sets[src][cursor % neighbor_count];
                self.schedule.round_robin[src] = cursor.wrapping_add(1);
                if dst == src {
                    return;
                }
                // One raw observation shared by every configuration.
                let draw = self.schedule.sample_exchange(env, src, dst, now);
                let issue = PlanOp::Issue {
                    node: src as u32,
                    dst: dst as u32,
                    now_ms,
                };
                let seq = engines.apply(issue, Beside::Nothing).seq;
                if draw.forward_lost || self.schedule.partitioned(src, dst, now) {
                    return;
                }
                let slot = self.in_flight.acquire(seq, now_ms);
                self.queue.schedule(
                    now + draw.forward_delay_s,
                    SimEvent::ProbeDeliver {
                        src,
                        dst,
                        slot,
                        rtt_ms: draw.rtt_ms,
                        reverse_delay_s: draw.reverse_delay_s,
                        reverse_lost: draw.reverse_lost,
                    },
                );
            }
            SimEvent::ProbeDeliver {
                src,
                dst,
                slot,
                rtt_ms,
                reverse_delay_s,
                reverse_lost,
            } => {
                // A crash between send and delivery silently eats the probe;
                // the prober's first tick past its deadline reports the loss.
                if !self.schedule.alive[dst] || self.schedule.partitioned(src, dst, now) {
                    self.in_flight.release(slot);
                    return;
                }
                // An adversarial responder corrupts the reply here: delay
                // attacks stretch both the observed RTT and the reply's
                // in-flight time (a held-back reply really is late and can
                // reach a prober that already declared it lost), and a
                // coordinate lie is drawn once and applied identically to
                // every configuration's response.
                let adversary = self.schedule.sample_adversary(dst);
                let (rtt_ms, reverse_delay_s) = match &adversary {
                    Some(draw) => (
                        rtt_ms + draw.extra_delay_ms,
                        reverse_delay_s + draw.extra_delay_ms / 1_000.0,
                    ),
                    None => (rtt_ms, reverse_delay_s),
                };
                let beside = match adversary.and_then(|draw| draw.lie) {
                    Some(lie) => Beside::Lie(lie),
                    None => Beside::Nothing,
                };
                let respond = self.in_flight.respond(slot, dst, rtt_ms, !reverse_lost);
                engines.apply(respond, beside);
                if reverse_lost {
                    self.in_flight.release(slot);
                    return;
                }
                self.queue.schedule(
                    now + reverse_delay_s,
                    SimEvent::ResponseDeliver { src, dst, slot },
                );
            }
            SimEvent::ResponseDeliver { src, dst, slot } => {
                let exchange = self.in_flight.release(slot);
                let (src32, slot, turn) = (src as u32, slot as u32, exchange.turn);
                // A reply reaching a node that crashed meanwhile is dropped;
                // the pending entry survives in its crash snapshot and is
                // expired as lost if the node restarts. A reply crossing a
                // partition that activated while it was in flight is dropped
                // too — every packet across the boundary, in both
                // directions, is lost until the heal.
                if !self.schedule.alive[src] || self.schedule.partitioned(src, dst, now) {
                    let drop = PlanOp::DropReply {
                        src: src32,
                        slot,
                        turn,
                    };
                    engines.apply(drop, Beside::Nothing);
                    return;
                }
                let digest = PlanOp::Digest {
                    src: src32,
                    slot,
                    turn,
                    measuring: now >= env.sim_config.measurement_start_s,
                    now,
                };
                let settle = Beside::Settle {
                    responder: dst,
                    seq: exchange.seq,
                };
                engines.apply(digest, settle);
                self.schedule.learn_gossip(env, src, dst);
            }
            SimEvent::TrackSample => {
                for (order, &node) in env.sim_config.track_nodes.iter().enumerate() {
                    let track = PlanOp::Track {
                        node: node as u32,
                        sample: self.track_sample,
                        order: order as u32,
                        now,
                    };
                    engines.apply(track, Beside::Nothing);
                }
                self.track_sample += 1;
                let next = now + env.sim_config.track_interval_s;
                if next < env.sim_config.duration_s {
                    self.queue.schedule(next, SimEvent::TrackSample);
                }
            }
            SimEvent::ScenarioAction { index } => {
                self.scenario_actions += 1;
                let action = env.scenario.events()[index].action.clone();
                match self.schedule.apply(env, action) {
                    Some(ScenarioAction::Join { nodes }) => {
                        for node in nodes {
                            self.bring_up(engines, now, node, true);
                        }
                    }
                    Some(ScenarioAction::Crash { nodes }) => {
                        for node in nodes {
                            if self.schedule.alive[node] {
                                self.schedule.alive[node] = false;
                                engines.apply(PlanOp::Crash { node: node as u32 }, Beside::Nothing);
                            }
                        }
                    }
                    Some(ScenarioAction::Restart { nodes }) => {
                        for node in nodes {
                            self.bring_up(engines, now, node, false);
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    /// Brings a down node back up: fresh engines on a join, crash-snapshot
    /// restores on a restart. Either way its probe cycle resumes
    /// immediately and any probes outstanding at the crash are expired as
    /// lost (a rebooted daemon stops waiting for pre-crash replies).
    fn bring_up(&mut self, engines: &mut impl Engines, now: f64, node: usize, fresh: bool) {
        if self.schedule.alive[node] {
            return;
        }
        self.schedule.alive[node] = true;
        let restore = PlanOp::Restore {
            node: node as u32,
            fresh,
        };
        engines.apply(restore, Beside::Nothing);
        // A rebooted daemon stops waiting for pre-crash replies; the
        // evictions that causes reach the rotation as a tick's do.
        self.expire(engines, node, (now * 1_000.0) as u64);
        if fresh {
            self.schedule.bootstrap_joiner(self.env, node);
        }
        if !self.schedule.probe_cycle_active[node] {
            self.schedule.probe_cycle_active[node] = true;
            self.queue.schedule(now, SimEvent::ProbeSend { src: node });
        }
    }

    /// Loses every probe `node` sent at or before `sent_at_ms`. When a
    /// configuration's engine evicts the unresponsive peer
    /// (`NodeConfig::max_consecutive_losses`), the shared probe rotation
    /// honours it — but only once *every* configuration has evicted, so the
    /// schedule stays identical across side-by-side stacks. With matching
    /// eviction thresholds (the usual case) they all evict on the same
    /// expiry.
    fn expire(&mut self, engines: &mut impl Engines, node: usize, sent_at_ms: u64) {
        let expire = PlanOp::Expire {
            node: node as u32,
            sent_at_ms,
        };
        for &peer in engines.apply(expire, Beside::Nothing).evicted {
            self.schedule.neighbor_remove(node, peer);
        }
    }
}

/// The engines of the reference loop behind
/// [`Simulator::with_serial_execution`]: every node on one [`Worker`], each
/// operation applied the moment the loop hands it over. It holds no ledger
/// of its own — every decision it hands back is what the engines decided —
/// which keeps it an independent oracle for the planner.
struct Reference {
    worker: Worker,
    cells: Vec<SlotCell>,
}

impl Engines for Reference {
    fn apply(&mut self, mut op: PlanOp, beside: Beside) -> Decided<'_> {
        let lie = match beside {
            Beside::Lie(lie) => Some(lie),
            _ => None,
        };
        if let PlanOp::Respond {
            slot, lie: index, ..
        } = &mut op
        {
            // A slot's first `Respond` is its cell's first use.
            let cells = *slot as usize + 1;
            if self.cells.len() < cells {
                self.cells.resize_with(cells, SlotCell::new);
            }
            *index = lie.map(|_| 0);
        }
        self.worker.apply(op, lie.as_slice(), &self.cells)
    }
}

/// Runs the reference loop from `t = 0` to the configured duration, every
/// node dealt to one worker on the calling thread.
fn run_reference(env: &SimEnv, state: &mut EngineState) {
    let mut reference = Reference {
        // nc-lint: allow(panic) — `deal` builds one worker per thread.
        worker: deal(env, state, 1).pop().expect("one worker"),
        cells: Vec::new(),
    };
    let mut events = EventLoop::new(env, &mut state.schedule);
    while events.step(&mut reference) {}
    let scenario_actions = events.scenario_actions;
    state.events_popped = events.queue.popped();
    reassemble(env, state, vec![reference.worker], scenario_actions, &[]);
}

/// One sampled exchange over a link.
pub(crate) struct LinkDraw {
    pub(crate) rtt_ms: f64,
    pub(crate) forward_delay_s: f64,
    pub(crate) reverse_delay_s: f64,
    pub(crate) forward_lost: bool,
    pub(crate) reverse_lost: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linkmodel::LinkModelConfig;
    use stable_nc::NodeConfig;

    fn quick_sim(configs: Vec<(String, NodeConfig)>) -> SimReport {
        let workload = PlanetLabConfig::small(12).with_seed(3);
        let sim_config = SimConfig::new(400.0, 5.0)
            .with_measurement_start(200.0)
            .with_initial_neighbors(4);
        Simulator::new(workload, sim_config, configs).run()
    }

    #[test]
    #[should_panic(expected = "at least one configuration")]
    fn requires_a_configuration() {
        let _ = Simulator::new(PlanetLabConfig::small(4), SimConfig::new(10.0, 1.0), vec![]);
    }

    #[test]
    #[should_panic(expected = "names must be unique")]
    fn rejects_duplicate_names() {
        let _ = Simulator::new(
            PlanetLabConfig::small(4),
            SimConfig::new(10.0, 1.0),
            vec![
                ("a".into(), NodeConfig::paper_defaults()),
                ("a".into(), NodeConfig::original_vivaldi()),
            ],
        );
    }

    #[test]
    fn validate_rejects_each_bad_field() {
        let good = SimConfig::new(100.0, 5.0);
        assert!(good.validate().is_ok());
        let mut bad = good.clone();
        bad.duration_s = 0.0;
        assert!(matches!(
            bad.validate(),
            Err(ConfigError::NonPositiveDuration(_))
        ));
        let mut bad = good.clone();
        bad.probe_interval_s = f64::NAN;
        assert!(matches!(
            bad.validate(),
            Err(ConfigError::NonPositiveProbeInterval(_))
        ));
        let mut bad = good.clone();
        bad.probe_interval_s = 500.0;
        assert!(matches!(
            bad.validate(),
            Err(ConfigError::ProbeIntervalExceedsDuration { .. })
        ));
        let mut bad = good.clone();
        bad.measurement_start_s = 100.0;
        assert!(matches!(
            bad.validate(),
            Err(ConfigError::MeasurementStartOutOfRange { .. })
        ));
        let mut bad = good.clone();
        bad.track_interval_s = -1.0;
        assert!(matches!(
            bad.validate(),
            Err(ConfigError::NonPositiveTrackInterval(_))
        ));
        let mut bad = good.clone();
        bad.probe_timeout_s = 0.0;
        let error = bad.validate().unwrap_err();
        assert!(matches!(error, ConfigError::NonPositiveProbeTimeout(_)));
        assert!(!error.to_string().is_empty());
    }

    #[test]
    fn validate_rejects_each_bad_adversary_field() {
        let good = SimConfig::new(100.0, 5.0);
        let liar = AdversaryModel::CoordinateLiar {
            displacement_ms: 1_000.0,
            inflate: 1.0,
            error_estimate: 0.01,
        };
        assert!(good
            .clone()
            .with_adversaries(0.25, liar.clone())
            .validate()
            .is_ok());

        let mut bad = good.clone();
        bad.adversary = Some(AdversaryConfig::new(0.25, liar.clone()));
        bad.adversary.as_mut().unwrap().fraction = 1.5;
        let error = bad.validate().unwrap_err();
        assert!(matches!(error, ConfigError::AdversaryFractionOutOfRange(_)));
        assert!(!error.to_string().is_empty());

        let mut bad = good.clone();
        bad.adversary = Some(AdversaryConfig::new(
            0.25,
            AdversaryModel::CoordinateLiar {
                displacement_ms: f64::NAN,
                inflate: 1.0,
                error_estimate: 0.01,
            },
        ));
        assert!(matches!(
            bad.validate(),
            Err(ConfigError::AdversaryMagnitudeNotFinite(_))
        ));

        let mut bad = good.clone();
        bad.adversary = Some(AdversaryConfig::new(
            0.25,
            AdversaryModel::CoordinateLiar {
                displacement_ms: 1_000.0,
                inflate: 1.0,
                error_estimate: 0.0,
            },
        ));
        assert!(matches!(
            bad.validate(),
            Err(ConfigError::AdversaryErrorEstimateOutOfRange(_))
        ));

        let mut bad = good.clone();
        bad.adversary = Some(AdversaryConfig::new(
            0.25,
            AdversaryModel::DelayAttacker {
                extra_delay_ms: f64::INFINITY,
            },
        ));
        assert!(matches!(
            bad.validate(),
            Err(ConfigError::AdversaryMagnitudeNotFinite(_))
        ));
    }

    #[test]
    #[should_panic(expected = "invalid simulation schedule")]
    fn constructor_panics_through_validate() {
        let _ = SimConfig::new(0.0, 1.0);
    }

    #[test]
    fn config_rules_boundary_table() {
        // Columns: 0, 1, 2, -1, NaN, +inf, -inf, against a 100 s run.
        let probes = [
            0.0,
            1.0,
            2.0,
            -1.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let accepted = |set: fn(&mut SimConfig, f64)| -> Vec<bool> {
            probes
                .iter()
                .map(|&value| {
                    let mut config = SimConfig::new(100.0, 5.0);
                    set(&mut config, value);
                    config.validate().is_ok()
                })
                .collect()
        };
        let positive = [false, true, true, false, false, false, false];
        // A duration of 1 or 2 s is shorter than the 5 s interval.
        assert_eq!(
            accepted(|c, v| c.duration_s = v),
            [false, false, false, false, false, false, false]
        );
        assert_eq!(accepted(|c, v| c.probe_interval_s = v), positive);
        assert_eq!(accepted(|c, v| c.track_interval_s = v), positive);
        assert_eq!(accepted(|c, v| c.probe_timeout_s = v), positive);
        assert_eq!(
            accepted(|c, v| c.measurement_start_s = v),
            [true, true, true, false, false, false, false]
        );
        let neighbors: Vec<bool> = [0, 1, 2]
            .into_iter()
            .map(|count| {
                SimConfig::new(100.0, 5.0)
                    .with_initial_neighbors(count)
                    .validate()
                    .is_ok()
            })
            .collect();
        assert_eq!(neighbors, [false, true, true]);
        let liar = AdversaryModel::DelayAttacker {
            extra_delay_ms: 10.0,
        };
        let fractions: Vec<bool> = probes
            .iter()
            .map(|&fraction| {
                SimConfig::new(100.0, 5.0)
                    .with_adversaries(fraction, liar.clone())
                    .validate()
                    .is_ok()
            })
            .collect();
        assert_eq!(fractions, [true, true, false, false, false, false, false]);
        let losses: Vec<bool> = probes
            .iter()
            .map(|&p| {
                LinkModelConfig::default()
                    .with_loss_probability(p)
                    .validate()
                    .is_ok()
            })
            .collect();
        assert_eq!(losses, [true, true, false, false, false, false, false]);
    }

    #[test]
    fn config_rules_panic_with_the_validate_message() {
        let expect_message = |message: String, run: &dyn Fn()| {
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).unwrap_err();
            let text = panic.downcast_ref::<String>().expect("formatted panic");
            assert!(text.ends_with(&message), "{text}");
            text.clone()
        };
        let mut schedule = SimConfig::new(100.0, 5.0);
        schedule.duration_s = 0.0;
        expect_message(schedule.validate().unwrap_err().to_string(), &|| {
            let _ = SimConfig::new(0.0, 5.0);
        });
        let zero = SimConfig::new(100.0, 5.0).with_initial_neighbors(0);
        expect_message(zero.validate().unwrap_err().to_string(), &|| {
            let _ = Simulator::new(
                PlanetLabConfig::small(4),
                zero.clone(),
                vec![("paper".into(), NodeConfig::paper_defaults())],
            );
        });
        // Every configuration is checked, and the message names it.
        let bad = NodeConfig::builder().max_consecutive_losses(0).build();
        let text = expect_message(bad.validate().unwrap_err().to_string(), &|| {
            let _ = Simulator::new(
                PlanetLabConfig::small(4),
                SimConfig::new(100.0, 5.0),
                vec![
                    ("paper".into(), NodeConfig::paper_defaults()),
                    ("evicting".into(), bad.clone()),
                ],
            );
        });
        assert!(text.contains("\"evicting\""), "{text}");
    }

    #[test]
    fn event_queue_pops_in_time_then_fifo_order() {
        let mut queue: EventQueue<&str> = EventQueue::new();
        queue.schedule(5.0, "late");
        queue.schedule(1.0, "early-first");
        queue.schedule(1.0, "early-second");
        assert_eq!(queue.pop(), Some((1.0, "early-first")));
        assert_eq!(queue.pop(), Some((1.0, "early-second")));
        assert_eq!(queue.pop(), Some((5.0, "late")));
        assert_eq!(queue.pop(), None);
        assert_eq!(queue.popped(), 3);
    }

    #[test]
    #[should_panic(expected = "event times must be finite")]
    fn event_queue_rejects_nan_times() {
        let mut queue: EventQueue<u8> = EventQueue::new();
        queue.schedule(f64::NAN, 0);
    }

    #[test]
    fn collects_metrics_for_every_node() {
        let report = quick_sim(vec![("mp".into(), NodeConfig::paper_defaults())]);
        let metrics = report.config("mp").unwrap();
        assert_eq!(metrics.nodes.len(), 12);
        let with_samples = metrics
            .nodes
            .iter()
            .filter(|n| !n.system_errors().is_empty())
            .count();
        assert!(
            with_samples >= 10,
            "most nodes should have measured samples"
        );
        assert!(metrics.aggregate_instability() > 0.0);
    }

    #[test]
    fn embedding_error_becomes_reasonable() {
        let report = quick_sim(vec![("mp".into(), NodeConfig::paper_defaults())]);
        let metrics = report.config("mp").unwrap();
        let median = metrics.median_of_median_relative_error();
        assert!(
            median < 0.6,
            "median relative error should drop well below 1.0, got {median:.2}"
        );
    }

    #[test]
    fn filtered_stack_is_more_stable_than_raw() {
        let report = quick_sim(vec![
            ("mp".into(), NodeConfig::paper_defaults()),
            ("raw".into(), NodeConfig::original_vivaldi()),
        ]);
        let mp = report.config("mp").unwrap();
        let raw = report.config("raw").unwrap();
        assert!(
            mp.aggregate_instability() < raw.aggregate_instability(),
            "MP filter should stabilise the space ({} vs {})",
            mp.aggregate_instability(),
            raw.aggregate_instability()
        );
    }

    #[test]
    fn tracking_produces_trajectories() {
        let workload = PlanetLabConfig::small(6).with_seed(5);
        let sim_config = SimConfig::new(120.0, 5.0)
            .with_measurement_start(60.0)
            .with_tracked_nodes(vec![0, 3], 20.0);
        let report = Simulator::new(
            workload,
            sim_config,
            vec![("mp".into(), NodeConfig::paper_defaults())],
        )
        .run();
        let tracked = &report.config("mp").unwrap().tracked;
        assert!(!tracked.is_empty());
        assert!(tracked.iter().all(|t| t.node == 0 || t.node == 3));
    }

    #[test]
    fn gossip_grows_neighbor_sets() {
        let workload = PlanetLabConfig::small(16).with_seed(9);
        let sim_config = SimConfig::new(300.0, 5.0)
            .with_initial_neighbors(2)
            .with_measurement_start(150.0);
        let mut sim = Simulator::new(
            workload,
            sim_config,
            vec![("mp".into(), NodeConfig::paper_defaults())],
        );
        let before: usize = sim
            .state
            .schedule
            .neighbor_sets
            .iter()
            .map(|s| s.len())
            .sum();
        sim.run();
        let after: usize = sim
            .state
            .schedule
            .neighbor_sets
            .iter()
            .map(|s| s.len())
            .sum();
        assert!(
            after > before,
            "gossip should add neighbours ({before} -> {after})"
        );
    }

    #[test]
    fn identical_seeds_give_identical_reports() {
        let run = || {
            let report = quick_sim(vec![("mp".into(), NodeConfig::paper_defaults())]);
            report
                .config("mp")
                .unwrap()
                .median_of_median_relative_error()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn a_second_run_reports_only_what_it_collected_itself() {
        let mut simulator = Simulator::new(
            PlanetLabConfig::small(12).with_seed(3),
            SimConfig::new(400.0, 5.0)
                .with_measurement_start(200.0)
                .with_initial_neighbors(4)
                .with_tracked_nodes(vec![0], 100.0),
            vec![("mp".to_string(), NodeConfig::paper_defaults())],
        );
        let first = simulator.run();
        let second = simulator.run();
        let (first, second) = (first.config("mp").unwrap(), second.config("mp").unwrap());
        // Same ticks, same tracking schedule: the second report holds one
        // run's worth of each, not the first run's on top.
        assert_eq!(first.total_probes_sent(), 12 * 80);
        assert_eq!(second.total_probes_sent(), first.total_probes_sent());
        assert_eq!(second.tracked.len(), first.tracked.len());
        assert_eq!(second.nodes.len(), 12);
        // The engines carried on where the first run left them.
        assert!(
            second.median_of_median_relative_error() <= first.median_of_median_relative_error(),
            "the second run starts from the first one's coordinates"
        );
    }

    #[test]
    fn sim_config_accessors() {
        let c = SimConfig::paper_deployment();
        assert_eq!(c.duration_s, 4.0 * 3600.0);
        assert_eq!(c.probe_interval_s, 5.0);
        assert_eq!(c.measurement_duration_s(), 2.0 * 3600.0);
        assert_eq!(c.probe_timeout_s, 15.0);
    }

    #[test]
    fn lossy_links_report_probe_losses_without_stalling() {
        let workload = PlanetLabConfig::small(10)
            .with_seed(4)
            .with_link_config(LinkModelConfig::default().with_loss_probability(0.05));
        let sim_config = SimConfig::new(600.0, 5.0)
            .with_measurement_start(100.0)
            .with_initial_neighbors(4);
        let report = Simulator::new(
            workload,
            sim_config,
            vec![("mp".into(), NodeConfig::paper_defaults())],
        )
        .run();
        let metrics = report.config("mp").unwrap();
        assert!(
            metrics.total_probes_lost() > 0,
            "5% loss must produce ProbeLost events"
        );
        // The schedule never stalls: observations keep flowing and the
        // embedding still converges.
        let observed: u64 = metrics.nodes.iter().map(|n| n.observations).sum();
        assert!(observed > 500, "only {observed} observations got through");
        assert!(metrics.median_of_median_relative_error() < 0.8);
    }

    #[test]
    fn total_loss_yields_only_probe_losses() {
        let workload = PlanetLabConfig::small(6)
            .with_seed(8)
            .with_link_config(LinkModelConfig::default().with_loss_probability(1.0));
        let sim_config = SimConfig::new(200.0, 5.0).with_measurement_start(10.0);
        let report = Simulator::new(
            workload,
            sim_config,
            vec![("mp".into(), NodeConfig::paper_defaults())],
        )
        .run();
        let metrics = report.config("mp").unwrap();
        assert!(metrics.total_probes_lost() > 0);
        for node in &metrics.nodes {
            assert!(node.system_errors().is_empty(), "no observation can arrive");
            assert_eq!(node.observations, 0);
            // Nothing moved, so the running sum is still its −0.0 identity.
            assert_eq!(node.instability(190.0).to_bits(), (-0.0f64).to_bits());
        }
    }

    #[test]
    fn crash_restart_restores_state_and_recovers() {
        let workload = PlanetLabConfig::small(10).with_seed(6);
        let sim_config = SimConfig::new(1_200.0, 5.0)
            .with_measurement_start(0.0)
            .with_initial_neighbors(4)
            .with_time_series();
        let crashed = vec![0, 1];
        let scenario = Scenario::crash_restart(crashed.clone(), 600.0, 700.0);
        let report = Simulator::new(
            workload,
            sim_config,
            vec![("mp".into(), NodeConfig::paper_defaults())],
        )
        .with_scenario(scenario)
        .run();
        let metrics = report.config("mp").unwrap();
        for &node in &crashed {
            let times: Vec<f64> = metrics.nodes[node]
                .series()
                .expect("recorded")
                .system_errors
                .iter()
                .map(|(t, _)| *t)
                .collect();
            assert!(
                times.iter().any(|&t| t < 600.0),
                "node {node} observed before the crash"
            );
            assert!(
                !times.iter().any(|&t| (600.0..700.0).contains(&t)),
                "node {node} must be silent while down"
            );
            assert!(
                times.iter().any(|&t| t > 700.0),
                "node {node} resumed after the restart"
            );
        }
        // Probes of the dead nodes timed out and were reported.
        assert!(metrics.total_probes_lost() > 0);
    }

    #[test]
    fn graceful_leavers_stop_being_probed() {
        let workload = PlanetLabConfig::small(8).with_seed(2);
        let sim_config = SimConfig::new(600.0, 5.0)
            .with_measurement_start(0.0)
            .with_initial_neighbors(3)
            .with_time_series();
        let scenario = Scenario::new().at(300.0, ScenarioAction::Leave { nodes: vec![5] });
        let mut sim = Simulator::new(
            workload,
            sim_config,
            vec![("mp".into(), NodeConfig::paper_defaults())],
        )
        .with_scenario(scenario);
        let report = sim.run();
        let metrics = report.config("mp").unwrap();
        assert!(
            metrics.nodes[5]
                .series()
                .expect("recorded")
                .system_errors
                .iter()
                .all(|(t, _)| *t <= 300.5),
            "a leaver stops observing"
        );
        // Nobody keeps it in their rotation.
        for (i, set) in sim.state.schedule.neighbor_sets.iter().enumerate() {
            if i != 5 {
                assert!(!set.contains(&5), "node {i} still probes the leaver");
            }
        }
        // Announced departure: no timeouts needed to learn it.
        assert_eq!(metrics.total_probes_lost(), 0);
    }

    #[test]
    fn flash_crowd_joiners_participate_after_joining() {
        let workload = PlanetLabConfig::small(12).with_seed(5);
        let sim_config = SimConfig::new(900.0, 5.0)
            .with_measurement_start(0.0)
            .with_initial_neighbors(4)
            .with_time_series();
        let crowd = vec![9, 10, 11];
        let scenario = Scenario::flash_crowd(crowd.clone(), 300.0);
        let report = Simulator::new(
            workload,
            sim_config,
            vec![("mp".into(), NodeConfig::paper_defaults())],
        )
        .with_scenario(scenario)
        .run();
        let metrics = report.config("mp").unwrap();
        for &node in &crowd {
            let times: Vec<f64> = metrics.nodes[node]
                .series()
                .expect("recorded")
                .system_errors
                .iter()
                .map(|(t, _)| *t)
                .collect();
            assert!(
                times.iter().all(|&t| t >= 300.0),
                "down nodes observe nothing"
            );
            assert!(
                times.len() > 10,
                "joiner {node} embeds after joining ({} samples)",
                times.len()
            );
        }
    }

    #[test]
    fn partitions_drop_cross_group_probes_until_heal() {
        let workload = PlanetLabConfig::small(8).with_seed(12);
        let sim_config = SimConfig::new(700.0, 5.0)
            .with_measurement_start(0.0)
            .with_initial_neighbors(4)
            .with_time_series();
        let scenario = Scenario::new().at(
            200.0,
            ScenarioAction::Partition {
                group: vec![0, 1, 2, 3],
                heal_at_s: 400.0,
            },
        );
        let report = Simulator::new(
            workload,
            sim_config,
            vec![("mp".into(), NodeConfig::paper_defaults())],
        )
        .with_scenario(scenario)
        .run();
        let metrics = report.config("mp").unwrap();
        assert!(
            metrics.total_probes_lost() > 0,
            "cross-partition probes must time out"
        );
        // After the heal, observations keep accruing for everyone.
        for node in &metrics.nodes {
            let series = node.series().expect("recorded");
            assert!(series.system_errors.iter().any(|(t, _)| *t > 450.0));
        }
    }

    #[test]
    fn scenarios_apply_identically_to_every_configuration() {
        // The schedule (who probes whom, when, what is lost) must not depend
        // on the coordinate stack: under churn, both configurations see the
        // same probe counts per node.
        let run = || {
            let workload = PlanetLabConfig::small(10)
                .with_seed(7)
                .with_link_config(LinkModelConfig::default().with_loss_probability(0.03));
            let sim_config = SimConfig::new(800.0, 5.0)
                .with_measurement_start(0.0)
                .with_initial_neighbors(4);
            Simulator::new(
                workload,
                sim_config,
                vec![
                    ("mp".into(), NodeConfig::paper_defaults()),
                    ("raw".into(), NodeConfig::original_vivaldi()),
                ],
            )
            .with_scenario(Scenario::crash_restart(vec![2, 3], 300.0, 450.0))
            .run()
        };
        let report = run();
        let mp = report.config("mp").unwrap();
        let raw = report.config("raw").unwrap();
        for (a, b) in mp.nodes.iter().zip(raw.nodes.iter()) {
            assert_eq!(a.observations, b.observations);
            assert_eq!(a.probes_lost, b.probes_lost);
        }
    }

    #[test]
    fn engine_eviction_removes_dead_peers_from_the_rotation() {
        // With eviction configured, a crashed node is dropped from every
        // survivor's shared rotation after `max_consecutive_losses` straight
        // timeouts — losses stop accruing instead of repeating forever.
        // Gossip is off so the evicted address cannot be re-learned.
        let workload = PlanetLabConfig::small(8).with_seed(3);
        let sim_config = SimConfig::new(900.0, 5.0)
            .with_measurement_start(0.0)
            .with_initial_neighbors(4)
            .with_gossip(false);
        let config = NodeConfig::builder().max_consecutive_losses(3).build();
        let scenario = Scenario::new().at(200.0, ScenarioAction::Crash { nodes: vec![5] });
        let mut sim = Simulator::new(workload, sim_config, vec![("mp".into(), config)])
            .with_scenario(scenario);
        let report = sim.run();
        let metrics = report.config("mp").unwrap();
        assert!(metrics.total_probes_lost() > 0, "timeouts fired");
        for (node, set) in sim.state.schedule.neighbor_sets.iter().enumerate() {
            if node != 5 {
                assert!(
                    !set.contains(&5),
                    "node {node} still probes the evicted peer"
                );
                assert!(
                    metrics.nodes[node].probes_lost <= 3,
                    "node {node} lost {} probes — eviction should cap the streak at 3",
                    metrics.nodes[node].probes_lost
                );
            }
        }
    }

    #[test]
    fn differing_eviction_thresholds_run_on_the_workers_asked_for() {
        // Thresholds that differ across configurations used to send the run
        // to the serial loop whatever `with_threads` said. The footprint is
        // the plan's own account of how many shards it filled.
        let configs = [3, 5].map(|max| {
            let config = NodeConfig::builder().max_consecutive_losses(max).build();
            (format!("evict{max}"), config)
        });
        let mut simulator = Simulator::new(
            PlanetLabConfig::small(8).with_seed(9),
            SimConfig::new(600.0, 5.0)
                .with_measurement_start(0.0)
                .with_initial_neighbors(3)
                .with_gossip(false),
            configs.to_vec(),
        )
        .with_scenario(Scenario::new().at(150.0, ScenarioAction::Crash { nodes: vec![4] }))
        .with_threads(4);
        let footprint = simulator.execute().expect("the engine, not the reference");
        assert_eq!(footprint.op_capacity, 8 * EPOCH_EVENTS);
        let report = simulator.take_report();
        let evicted = |name| report.config(name).unwrap().total_neighbors_evicted();
        assert!(evicted("evict5") > 0);
        assert!(
            evicted("evict3") > evicted("evict5"),
            "the thresholds really differ: {} vs {}",
            evicted("evict3"),
            evicted("evict5")
        );
    }

    #[test]
    #[should_panic(expected = "scenario references node")]
    fn scenario_node_indices_are_validated() {
        let _ = Simulator::new(
            PlanetLabConfig::small(4),
            SimConfig::new(100.0, 5.0),
            vec![("mp".into(), NodeConfig::paper_defaults())],
        )
        .with_scenario(Scenario::crash_restart(vec![9], 10.0, 20.0));
    }

    /// A 64-node mesh on which every optional part of a [`LinkModel`] is
    /// in play: links lose packets, change routes (one link in six within
    /// the ten minutes), drift by random walk and split their delay
    /// unevenly.
    fn hostile_link_simulator() -> Simulator {
        let links = LinkModelConfig {
            route_changes_per_day: 24.0,
            ..LinkModelConfig::default()
        }
        .with_loss_probability(0.05)
        .with_drift_walk(0.08, 120.0)
        .with_delay_asymmetry(0.3);
        Simulator::new(
            PlanetLabConfig::small(64)
                .with_seed(11)
                .with_link_config(links),
            SimConfig::new(600.0, 5.0),
            vec![("mp".into(), NodeConfig::paper_defaults())],
        )
    }

    /// Ten simulated minutes of exchanges at one probe per node per tick,
    /// targets drawn by a seeded generator so links are created and
    /// revisited in an irregular order; FNV-1a over every draw's
    /// `(rtt_ms, forward_lost, reverse_lost, forward_delay_s)`.
    fn link_stream_digest(schedule: &mut ScheduleState, env: &SimEnv) -> u64 {
        let mut targets = StdRng::seed_from_u64(0x11E5);
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |bits: u64| {
            for byte in bits.to_le_bytes() {
                hash ^= byte as u64;
                hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for tick in 0..120 {
            for src in 0..64usize {
                let dst = (src + targets.gen_range(1..64usize)) % 64;
                let draw = schedule.sample_exchange(env, src, dst, tick as f64 * 5.0);
                fold(draw.rtt_ms.to_bits());
                fold(draw.forward_lost as u64);
                fold(draw.reverse_lost as u64);
                fold(draw.forward_delay_s.to_bits());
            }
        }
        hash
    }

    #[test]
    fn link_draw_stream_is_pinned() {
        // Recorded at 60fdc71, where every link owned its configuration and
        // lived in the hash map itself: the table's layout, the shared
        // configuration and the boxed extras must not move one draw.
        let mut simulator = hostile_link_simulator();
        let digest = link_stream_digest(&mut simulator.state.schedule, &simulator.env);
        assert_eq!(digest, 0x3E68_1BCD_EE59_F894, "{digest:#018X}");
    }
}
