//! Node-sharded parallel execution of a single simulation.
//!
//! The discrete-event loop in [`crate::sim`] interleaves two very different
//! kinds of work. The *schedule* — who probes whom and when, which packets
//! the link model drops, what gossip teaches the rotation, what the scenario
//! script does — is cheap and inherently sequential: every decision flows
//! through one protocol RNG and one global clock. The *engine* work —
//! filters, Vivaldi updates, response construction, metric folding — is
//! expensive and perfectly node-local.
//!
//! This module splits the two and streams the one into the other in bounded
//! **epochs**:
//!
//! 1. **Plan (serial).** The [`Planner`] replays the exact event loop
//!    against the real [`ScheduleState`], with a [`ProbeLedger`] per node
//!    standing in for the engines: the ledger is the only engine state that
//!    feeds back into the schedule (pending probes, loss streaks, the
//!    sequence counter), and it is the very type the engines embed. One
//!    call pops at most one epoch's budget of events ([`EPOCH_EVENTS`]) and
//!    turns them into one [`Batch`] of engine operations per shard, each in
//!    global event order.
//! 2. **Execute (parallel).** Worker `w` owns every node with
//!    `index % threads == w` (across all named configurations) and runs its
//!    batch in order. The only cross-shard data flow is a probe response
//!    travelling from the responder's shard to the prober's shard; it moves
//!    through a slab of turn-versioned [`SlotCell`]s with acquire/release
//!    handshakes, so the steady state recycles response buffers exactly
//!    like the serial path and never locks.
//!
//! The two alternate until the queue is dry. Workers are dealt their nodes
//! once, keep them for the whole run on one thread each, and are
//! reassembled once; between epochs they sleep on a channel while the
//! planner refills the batches they handed back. The batches are cleared
//! and reused and the cell slab is as large as the most exchanges ever in
//! flight at once, so the plan's memory is a few megabytes whatever the
//! simulated duration.
//!
//! An exchange may straddle an epoch boundary — answered in one epoch,
//! digested (or dropped) in a later one — and nothing but its cell carries
//! it across. That is why **no operation may read anything the planner
//! writes after emitting it**: by the time the planner learns that a reply
//! in flight will be dropped at delivery (its prober crashed, a partition
//! came up under it), the `Respond` that built the reply may already have
//! run. So every operation carries its scalars inline, fixed at the moment
//! it is pushed; `Respond` publishes exactly when the link model had not
//! already lost the reply at send time; and a reply dropped at delivery gets
//! an operation of its own, [`PlanOp::DropReply`], which takes the
//! publication and releases the cell in the digest's stead.
//!
//! Because phase 1 performs byte-identical schedule decisions and phase 2
//! performs byte-identical engine calls in a per-node order equal to the
//! serial interleaving, the resulting [`crate::metrics::SimReport`] is
//! byte-identical to serial execution for every thread count and every
//! epoch budget — a contract enforced by the regression and property-test
//! suites.
//!
//! The ledgers are sufficient because an engine influences the schedule
//! through exactly three facts: whether a timeout correlates with a pending
//! probe, whether a loss streak reaches the eviction threshold, and which
//! sequence number a probe carries. All three are answered by the engine's
//! [`ProbeLedger`] — one definition, in `stable-nc` — and that ledger is a
//! function of the calls made on it alone, so the planner's copies, seeded
//! from the engines' when the nodes are dealt and fed the same calls, stay
//! equal to them; [`reassemble`] asserts it after every run. Configurations
//! with one eviction threshold keep equal ledgers, so the planner holds one
//! set per *distinct* threshold ([`LedgerGroup`]) and applies the serial
//! loop's unanimity rule across the sets.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{mpsc, RwLock};

use nc_proto::{Event, NodeSnapshot, ProbeRequest, ProbeResponse};
use nc_query::CoordinateIndex;
use stable_nc::{NodeConfig, ProbeLedger, StableNode};

use crate::adversary::{apply_lie, CoordinateLie};
use crate::metrics::{NodeMetrics, TrackedCoordinate};
use crate::scenario::ScenarioAction;
use crate::sim::{
    feed_query_index, fold_events, EngineState, EventQueue, ScheduleState, SimEnv, SimEvent,
    TICK_LANE, TIMEOUT_LANE,
};

/// Events the planner pops per epoch. Large enough that the two channel
/// round trips per worker and epoch vanish (a 1,024-node hour is ≈ 45
/// epochs), small enough that the batches (≤ 48 bytes per event) stay a few
/// megabytes. Reports do not depend on it; the tests run budgets down to 1.
pub(crate) const EPOCH_EVENTS: usize = 65_536;

/// Fewest nodes that keep one worker busier than the handshakes cost it.
/// Measured on a 2-core host (default executor against two workers,
/// exchanges per second): 1,024 nodes +41 %, 512 +45 %, 256 +16 %, 128 ±0 %
/// at +50 % CPU, 51 −47 %; with two configurations 256 +13 %, 128 −13 %.
const NODES_PER_WORKER: usize = 128;

/// How many workers [`Simulator::run`](crate::sim::Simulator::run) shards a
/// run of `nodes` nodes across on a host with `cores` cores when the caller
/// did not say: one per core, but no more than the mesh can keep busy. One
/// means "do not shard".
pub(crate) fn auto_workers(nodes: usize, cores: usize) -> usize {
    cores.min(nodes / NODES_PER_WORKER).max(1)
}

/// One engine operation for one node, emitted by the planner in global
/// event order. Every field is fixed when the operation is pushed: workers
/// may run it epochs later, and never see planner state.
#[derive(Debug, Clone, Copy)]
enum PlanOp {
    /// `probe_request_for(dst, now_ms)` on every configuration's `node`.
    Issue { node: u32, dst: u32, now_ms: u64 },
    /// The responder's side of an exchange: rebuild the request from
    /// `(dst, seq, sent_at_ms)` — simulator probes carry no other payload —
    /// answer it into cell `slot`, stamp the sampled RTT and the drawn lie
    /// (an index into the batch's `lies`), and pass the cell on.
    Respond {
        dst: u32,
        slot: u32,
        /// 1-based use counter of `slot`; gates the cell handshake.
        turn: u32,
        lie: Option<u32>,
        seq: u64,
        sent_at_ms: u64,
        rtt_ms: f64,
        /// False when the link model lost the reply as it was sent: nobody
        /// will come for it, so the responder releases the cell itself.
        publish: bool,
    },
    /// The prober's side of an exchange: digest the published responses.
    Digest {
        src: u32,
        slot: u32,
        turn: u32,
        measuring: bool,
        now: f64,
    },
    /// A published reply that never reaches its prober (it crashed, or a
    /// partition came up, while the reply was in flight): take the
    /// publication and release the cell. Runs on the prober's shard — the
    /// side that would have digested it.
    DropReply { slot: u32, turn: u32 },
    /// `handle_timeout_into(seq)` on every configuration's `node`.
    Timeout { node: u32, seq: u64 },
    /// Take crash snapshots of every configuration's `node`.
    Crash { node: u32 },
    /// Revive `node`: fresh engines on a join, snapshot restores on a
    /// restart, expiring pre-crash pending probes either way.
    Restore {
        node: u32,
        fresh: bool,
        now: f64,
        now_ms: u64,
    },
    /// Sample `node`'s coordinates for the trajectory metrics.
    Track {
        node: u32,
        sample: u32,
        order: u32,
        now: f64,
    },
}

/// One shard's share of one epoch: its operations in global event order
/// and the coordinate lies they refer to (too wide to ride in every op).
/// Cleared and refilled every epoch; the capacity stays.
#[derive(Default)]
struct Batch {
    ops: Vec<PlanOp>,
    lies: Vec<CoordinateLie>,
}

/// What the plan held in memory when the run ended — independent of the
/// simulated duration, which the tests pin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PlanFootprint {
    /// Operations the batches can hold without reallocating, all shards.
    pub(crate) op_capacity: usize,
    /// Size of the response-cell slab: the most exchanges ever in flight.
    pub(crate) cells: usize,
}

/// The planner's ledgers for the configurations that share one eviction
/// threshold: those engines' ledgers are equal at every event, so one set
/// stands for all of them.
struct LedgerGroup {
    /// The configurations (indices into `EngineState::runs`) it stands for.
    runs: Vec<usize>,
    threshold: Option<u32>,
    /// One ledger per node.
    nodes: Vec<ProbeLedger<usize>>,
    /// The ledger each crashed node went down with, for its restart.
    crashed: Vec<Option<ProbeLedger<usize>>>,
}

/// Groups the configurations by eviction threshold, in order of first
/// appearance, and seeds each group's ledgers from its first configuration's
/// engines and crash snapshots — which a previous `run` may have left
/// anywhere.
fn ledger_groups(state: &EngineState) -> Vec<LedgerGroup> {
    let mut groups: Vec<LedgerGroup> = Vec::new();
    for (index, run) in state.runs.iter().enumerate() {
        let threshold = run.config.max_consecutive_losses;
        match groups.iter_mut().find(|group| group.threshold == threshold) {
            Some(group) => group.runs.push(index),
            None => groups.push(LedgerGroup {
                runs: vec![index],
                threshold,
                nodes: run.nodes.iter().map(|node| node.ledger().clone()).collect(),
                crashed: state.crash_snapshots[index]
                    .iter()
                    .map(|snapshot| {
                        let snapshot = snapshot.as_ref()?;
                        Some(ProbeLedger::import(threshold, snapshot))
                    })
                    .collect(),
            }),
        }
    }
    groups
}

/// One slot of the cross-shard response slab. `data` holds one response per
/// named configuration and is reused across exchanges (turns), keeping the
/// steady-state parallel path as allocation-free as the serial one.
///
/// Protocol: the responder of turn `t` first waits for `consumed == t - 1`
/// (the previous use is fully digested), writes the responses, then either
/// stores `published = t` (someone will come for them) or `consumed = t`
/// (the reply was lost as it was sent; it consumes its own use). The
/// prober's shard waits for `published == t`, reads — or, for a reply
/// dropped at delivery, does not — and stores `consumed = t`. Every wait is
/// on an operation strictly earlier in the planner's global order, and
/// every earlier epoch has been executed in full before a later one starts,
/// so the executor can never deadlock. A cell may stay published across any
/// number of epoch boundaries; the slab only ever grows between epochs,
/// under the write lock, while no worker holds a reference into it.
struct SlotCell {
    published: AtomicU32,
    consumed: AtomicU32,
    data: UnsafeCell<Vec<ProbeResponse<usize>>>,
}

// The handshake state lives in the cell itself, so the argument below
// holds across epochs and across the slab's reallocation (a move of cells
// nobody is touching, made while the planner has the slab to itself).
//
// SAFETY: access to `data` is serialized by the published/consumed turn
// handshake — at any instant at most one worker holds the right to touch
// the vector, and the Acquire/Release pairs order those accesses. The
// atomics are `Sync` by themselves.
unsafe impl Sync for SlotCell {}

impl SlotCell {
    fn new() -> Self {
        SlotCell {
            published: AtomicU32::new(0),
            consumed: AtomicU32::new(0),
            data: UnsafeCell::new(Vec::new()),
        }
    }
}

/// Spins until `counter` — a cell's `published` or `consumed` — reads `turn`.
fn await_turn(counter: &AtomicU32, turn: u32) {
    while counter.load(Ordering::Acquire) != turn {
        std::thread::yield_now();
    }
}

/// One configuration's share of a worker: the engines, metrics and crash
/// snapshots of every node `i` with `i % threads == shard`, stored at local
/// index `i / threads`.
struct WorkerRun {
    config: NodeConfig,
    nodes: Vec<StableNode<usize>>,
    metrics: Vec<NodeMetrics>,
    snapshots: Vec<Option<NodeSnapshot<usize>>>,
    /// `(sample index, track-list position, sample)` — stitched back into
    /// the per-run `tracked` vector in serial order after the join.
    tracked: Vec<(u32, u32, TrackedCoordinate)>,
    /// This worker's slice of the run's optional coordinate query index.
    /// A coordinate update for node `i` is only ever digested by worker
    /// `i % threads`, so the per-worker indexes hold disjoint id sets and
    /// merge without conflicts after the join.
    index: Option<CoordinateIndex<usize>>,
}

/// One worker thread's state: its shard of every configuration plus a
/// reusable engine-event buffer.
struct Worker {
    threads: usize,
    runs: Vec<WorkerRun>,
    events: Vec<Event<usize>>,
}

impl Worker {
    fn execute(&mut self, batch: &Batch, cells: &[SlotCell]) {
        for op in &batch.ops {
            match *op {
                PlanOp::Issue { node, dst, now_ms } => {
                    let local = node as usize / self.threads;
                    for run in &mut self.runs {
                        let _ = run.nodes[local].probe_request_for(dst as usize, now_ms);
                        run.metrics[local].probes_sent += 1;
                    }
                }
                PlanOp::Respond {
                    dst,
                    slot,
                    turn,
                    lie,
                    seq,
                    sent_at_ms,
                    rtt_ms,
                    publish,
                } => {
                    let local = dst as usize / self.threads;
                    let cell = &cells[slot as usize];
                    await_turn(&cell.consumed, turn - 1);
                    // SAFETY: `consumed == turn - 1` means the previous use
                    // of the cell — possibly epochs ago — is finished, and
                    // the planner names this turn in no other `Respond`, so
                    // this worker has exclusive access until it stores
                    // published/consumed below.
                    let responses = unsafe { &mut *cell.data.get() };
                    let request = ProbeRequest::new(dst as usize, seq, sent_at_ms);
                    let lie = lie.map(|index| &batch.lies[index as usize]);
                    for (index, run) in self.runs.iter_mut().enumerate() {
                        let responder = &mut run.nodes[local];
                        if responses.len() <= index {
                            responses.push(ProbeResponse::new(
                                dst as usize,
                                &request,
                                responder.system_coordinate().clone(),
                                responder.error_estimate(),
                            ));
                        }
                        responder.respond_into(&request, &mut responses[index]);
                        responses[index].rtt_ms = rtt_ms;
                        if let Some(lie) = lie {
                            apply_lie(&mut responses[index], lie);
                        }
                    }
                    if publish {
                        cell.published.store(turn, Ordering::Release);
                    } else {
                        cell.consumed.store(turn, Ordering::Release);
                    }
                }
                PlanOp::Digest {
                    src,
                    slot,
                    turn,
                    measuring,
                    now,
                } => {
                    let local = src as usize / self.threads;
                    let cell = &cells[slot as usize];
                    await_turn(&cell.published, turn);
                    // SAFETY: `published == turn` means the responder is
                    // done writing (in this epoch or an earlier one); the
                    // planner emits exactly one taker per published turn —
                    // this digest — and no one else touches the cell until
                    // we store `consumed`.
                    let responses = unsafe { &*cell.data.get() };
                    for (index, run) in self.runs.iter_mut().enumerate() {
                        self.events.clear();
                        run.nodes[local].handle_response_into(&responses[index], &mut self.events);
                        let ignored = self
                            .events
                            .iter()
                            .any(|event| matches!(event, Event::ResponseIgnored { .. }));
                        let node_metrics = &mut run.metrics[local];
                        if !ignored {
                            node_metrics.responses_received += 1;
                            if measuring {
                                node_metrics.observations += 1;
                            }
                        }
                        fold_events(node_metrics, now, measuring, &self.events);
                        feed_query_index(run.index.as_mut(), src as usize, &self.events);
                    }
                    cell.consumed.store(turn, Ordering::Release);
                }
                PlanOp::DropReply { slot, turn } => {
                    // The responder may not have run yet: wait for the
                    // publication exactly as a digest would, then pass the
                    // cell on without reading it.
                    let cell = &cells[slot as usize];
                    await_turn(&cell.published, turn);
                    cell.consumed.store(turn, Ordering::Release);
                }
                PlanOp::Timeout { node, seq } => {
                    let local = node as usize / self.threads;
                    for run in &mut self.runs {
                        self.events.clear();
                        run.nodes[local].handle_timeout_into(seq, &mut self.events);
                        fold_events(&mut run.metrics[local], 0.0, false, &self.events);
                    }
                }
                PlanOp::Crash { node } => {
                    let local = node as usize / self.threads;
                    for run in &mut self.runs {
                        run.snapshots[local] = Some(run.nodes[local].snapshot());
                    }
                }
                PlanOp::Restore {
                    node,
                    fresh,
                    now,
                    now_ms,
                } => {
                    let local = node as usize / self.threads;
                    for run in &mut self.runs {
                        let snapshot = if fresh {
                            None
                        } else {
                            run.snapshots[local].take()
                        };
                        let mut revived = match snapshot {
                            Some(snapshot) => StableNode::restore(run.config.clone(), &snapshot)
                                // nc-lint: allow(panic) — restoring a snapshot
                                // this run took under the same config cannot
                                // fail; a failure is a sim bug.
                                .expect("a crash snapshot restores under its own configuration"),
                            None => StableNode::new(run.config.clone()),
                        };
                        self.events.clear();
                        revived.expire_pending_into(now_ms, 0, &mut self.events);
                        fold_events(&mut run.metrics[local], now, false, &self.events);
                        run.nodes[local] = revived;
                    }
                }
                PlanOp::Track {
                    node,
                    sample,
                    order,
                    now,
                } => {
                    let local = node as usize / self.threads;
                    for run in &mut self.runs {
                        run.tracked.push((
                            sample,
                            order,
                            TrackedCoordinate {
                                time_s: now,
                                node: node as usize,
                                system: run.nodes[local].system_coordinate().clone(),
                                application: run.nodes[local].application_coordinate().clone(),
                            },
                        ));
                    }
                }
            }
        }
    }
}

/// One probe exchange in flight, as the planner tracks it between the
/// events that carry its index: what the later operations need of the
/// send, and the use counter of the response cell with the same index.
/// Planner-private — the operations copy what they need.
#[derive(Debug, Clone, Copy, Default)]
struct ExchangeSlot {
    seq: u64,
    sent_at_ms: u64,
    /// Times a `Respond` has used this slot's cell; persists across reuse.
    turn: u32,
}

/// Phase 1, resumable: the serial schedule replay. Mutates `schedule`
/// exactly as the engine-driven loop would and emits the operations for
/// phase 2 one epoch at a time.
struct Planner<'a> {
    env: &'a SimEnv,
    schedule: &'a mut ScheduleState,
    threads: usize,
    queue: EventQueue<SimEvent>,
    groups: Vec<LedgerGroup>,
    /// In-flight exchanges, indexed by the `slot` field of the probe
    /// events; `slots.len()` is also the size the cell slab must have.
    slots: Vec<ExchangeSlot>,
    free_slots: Vec<u32>,
    scenario_actions: u64,
    track_sample: u32,
}

impl<'a> Planner<'a> {
    fn new(
        env: &'a SimEnv,
        schedule: &'a mut ScheduleState,
        groups: Vec<LedgerGroup>,
        threads: usize,
    ) -> Self {
        Planner {
            env,
            queue: schedule.start(env),
            schedule,
            threads,
            groups,
            slots: Vec::new(),
            free_slots: Vec::new(),
            scenario_actions: 0,
            track_sample: 0,
        }
    }

    /// Plans the next epoch into `batches` (one per shard, cleared first):
    /// at most `budget` popped events. Returns false once the run is over —
    /// the queue is dry or the clock has reached the duration — and this
    /// epoch is the last.
    fn plan_epoch(&mut self, batches: &mut [Batch], budget: usize) -> bool {
        for batch in batches.iter_mut() {
            batch.ops.clear();
            batch.lies.clear();
        }
        for _ in 0..budget {
            match self.queue.pop() {
                Some((now, event)) if now < self.env.sim_config.duration_s => {
                    self.on_event(batches, now, event);
                }
                _ => return false,
            }
        }
        true
    }

    fn emit(&self, batches: &mut [Batch], node: usize, op: PlanOp) {
        // bounds: node % threads < threads == batches.len().
        batches[node % self.threads].ops.push(op);
    }

    /// Claims an exchange slot for a probe that survived its forward leg.
    fn acquire_slot(&mut self, seq: u64, sent_at_ms: u64) -> usize {
        let slot = self.free_slots.pop().unwrap_or_else(|| {
            self.slots.push(ExchangeSlot::default());
            (self.slots.len() - 1) as u32
        }) as usize;
        self.slots[slot].seq = seq;
        self.slots[slot].sent_at_ms = sent_at_ms;
        slot
    }

    fn on_event(&mut self, batches: &mut [Batch], now: f64, event: SimEvent) {
        let env = self.env;
        match event {
            SimEvent::ProbeSend { src } => {
                let schedule = &mut *self.schedule;
                schedule
                    .active_partitions
                    .retain(|window| window.heal_at_s > now);
                if !schedule.alive[src] {
                    schedule.probe_cycle_active[src] = false;
                    return;
                }
                let next_tick = now + env.sim_config.probe_interval_s;
                if next_tick < env.sim_config.duration_s {
                    self.queue
                        .schedule_timer(TICK_LANE, next_tick, SimEvent::ProbeSend { src });
                } else {
                    schedule.probe_cycle_active[src] = false;
                }
                let neighbor_count = schedule.neighbor_sets[src].len();
                if neighbor_count == 0 {
                    return;
                }
                // bounds: the cursor is reduced modulo neighbor_count == len.
                let dst = schedule.neighbor_sets[src][schedule.round_robin[src] % neighbor_count];
                schedule.round_robin[src] = schedule.round_robin[src].wrapping_add(1);
                if dst == src {
                    return;
                }
                let draw = schedule.sample_exchange(env, src, dst, now);
                let now_ms = (now * 1_000.0) as u64;
                // Every group numbers the probe alike: sequence numbers
                // do not depend on the threshold.
                let seq = self
                    .groups
                    .iter_mut()
                    .fold(0, |_, group| group.nodes[src].issue(dst, now_ms));
                self.emit(
                    batches,
                    src,
                    PlanOp::Issue {
                        node: src as u32,
                        dst: dst as u32,
                        now_ms,
                    },
                );
                self.queue.schedule_timer(
                    TIMEOUT_LANE,
                    now + env.sim_config.probe_timeout_s,
                    SimEvent::ProbeTimeout { src, seq },
                );
                if draw.forward_lost || self.schedule.partitioned(src, dst, now) {
                    return;
                }
                let slot = self.acquire_slot(seq, now_ms);
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
                if !self.schedule.alive[dst] || self.schedule.partitioned(src, dst, now) {
                    self.free_slots.push(slot as u32);
                    return;
                }
                // Adversary draw: same point of the schedule as the serial
                // loop's `on_probe_deliver`, so the dedicated adversary RNG
                // advances identically and serial/sharded runs stay
                // byte-identical.
                let adversary = self.schedule.sample_adversary(dst);
                let (rtt_ms, reverse_delay_s) = match &adversary {
                    Some(draw) => (
                        rtt_ms + draw.extra_delay_ms,
                        reverse_delay_s + draw.extra_delay_ms / 1_000.0,
                    ),
                    None => (rtt_ms, reverse_delay_s),
                };
                // bounds: dst % threads < threads == batches.len().
                let batch = &mut batches[dst % self.threads];
                let lie = adversary.and_then(|draw| draw.lie).map(|lie| {
                    batch.lies.push(lie);
                    (batch.lies.len() - 1) as u32
                });
                let exchange = &mut self.slots[slot];
                exchange.turn += 1;
                batch.ops.push(PlanOp::Respond {
                    dst: dst as u32,
                    slot: slot as u32,
                    turn: exchange.turn,
                    lie,
                    seq: exchange.seq,
                    sent_at_ms: exchange.sent_at_ms,
                    rtt_ms,
                    publish: !reverse_lost,
                });
                if reverse_lost {
                    self.free_slots.push(slot as u32);
                    return;
                }
                self.queue.schedule(
                    now + reverse_delay_s,
                    SimEvent::ResponseDeliver { src, dst, slot },
                );
            }
            SimEvent::ResponseDeliver { src, dst, slot } => {
                let exchange = self.slots[slot];
                self.free_slots.push(slot as u32);
                if !self.schedule.alive[src] || self.schedule.partitioned(src, dst, now) {
                    self.emit(
                        batches,
                        src,
                        PlanOp::DropReply {
                            slot: slot as u32,
                            turn: exchange.turn,
                        },
                    );
                    return;
                }
                for group in &mut self.groups {
                    group.nodes[src].settle(&dst, exchange.seq);
                }
                self.emit(
                    batches,
                    src,
                    PlanOp::Digest {
                        src: src as u32,
                        slot: slot as u32,
                        turn: exchange.turn,
                        measuring: now >= env.sim_config.measurement_start_s,
                        now,
                    },
                );
                self.schedule.learn_gossip(env, src, dst);
            }
            SimEvent::ProbeTimeout { src, seq } => {
                if !self.schedule.alive[src] {
                    return;
                }
                self.emit(
                    batches,
                    src,
                    PlanOp::Timeout {
                        node: src as u32,
                        seq,
                    },
                );
                // The shared rotation drops the peer only once *every*
                // configuration has evicted it — the serial loop's rule.
                let mut target = None;
                let mut evicted_by_all = true;
                for group in &mut self.groups {
                    let lost = group.nodes[src].timeout(seq);
                    evicted_by_all &= lost.as_ref().is_some_and(|(_, evicted)| *evicted);
                    target = lost.map(|(probe, _)| probe.target).or(target);
                }
                if evicted_by_all {
                    if let Some(dst) = target {
                        self.schedule.neighbor_remove(src, dst);
                    }
                }
            }
            SimEvent::TrackSample => {
                for (order, &node) in env.sim_config.track_nodes.iter().enumerate() {
                    self.emit(
                        batches,
                        node,
                        PlanOp::Track {
                            node: node as u32,
                            sample: self.track_sample,
                            order: order as u32,
                            now,
                        },
                    );
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
                            self.bring_up(batches, now, node, true);
                        }
                    }
                    Some(ScenarioAction::Crash { nodes }) => {
                        for node in nodes {
                            if !self.schedule.alive[node] {
                                continue;
                            }
                            self.schedule.alive[node] = false;
                            for group in &mut self.groups {
                                group.crashed[node] = Some(group.nodes[node].clone());
                            }
                            self.emit(batches, node, PlanOp::Crash { node: node as u32 });
                        }
                    }
                    Some(ScenarioAction::Restart { nodes }) => {
                        for node in nodes {
                            self.bring_up(batches, now, node, false);
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    /// The planner's side of `EngineState::bring_up`: identical schedule
    /// mutations (including the restart-expiry evictions, under the same
    /// unanimity rule), a `Restore` op instead of the engine work.
    fn bring_up(&mut self, batches: &mut [Batch], now: f64, node: usize, fresh: bool) {
        if self.schedule.alive[node] {
            return;
        }
        self.schedule.alive[node] = true;
        let now_ms = (now * 1_000.0) as u64;
        let mut evicted_by_all: Option<Vec<usize>> = None;
        for group in &mut self.groups {
            let crashed = if fresh {
                None
            } else {
                group.crashed[node].take()
            };
            let mut revived = crashed.unwrap_or_else(|| ProbeLedger::new(group.threshold));
            let mut evicted_here = Vec::new();
            while let Some((lost, evicted)) = revived.expire(now_ms, 0) {
                if evicted {
                    evicted_here.push(lost.target);
                }
            }
            group.nodes[node] = revived;
            evicted_by_all = Some(match evicted_by_all {
                None => evicted_here,
                Some(previous) => previous
                    .into_iter()
                    .filter(|id| evicted_here.contains(id))
                    .collect(),
            });
        }
        self.emit(
            batches,
            node,
            PlanOp::Restore {
                node: node as u32,
                fresh,
                now,
                now_ms,
            },
        );
        let schedule = &mut *self.schedule;
        for target in evicted_by_all.unwrap_or_default() {
            schedule.neighbor_remove(node, target);
        }
        if fresh {
            schedule.bootstrap_joiner(self.env, node);
        }
        if !schedule.probe_cycle_active[node] {
            schedule.probe_cycle_active[node] = true;
            self.queue.schedule(now, SimEvent::ProbeSend { src: node });
        }
    }
}

/// Runs the simulation to completion with engine work sharded across
/// `threads` workers, planning `epoch_events` events at a time, and leaves
/// `state` (metrics, engines, schedule, crash snapshots) byte-identical to
/// what serial execution would have produced.
pub(crate) fn run_sharded(
    env: &SimEnv,
    state: &mut EngineState,
    threads: usize,
    epoch_events: usize,
) -> PlanFootprint {
    assert!(epoch_events > 0, "an epoch must make progress");
    let groups = ledger_groups(state);
    let workers = deal(env, state, threads);
    let mut planner = Planner::new(env, &mut state.schedule, groups, threads);
    // Room for an epoch in which every event lands on one shard, so the
    // lists never reallocate (tracking, several ops per event, may grow
    // them once).
    let mut batches: Vec<Batch> = (0..threads)
        .map(|_| Batch {
            ops: Vec::with_capacity(epoch_events),
            lies: Vec::new(),
        })
        .collect();
    // Workers hold the read lock for the length of an epoch; the planner
    // takes the write lock between epochs, when nobody does.
    let cells: RwLock<Vec<SlotCell>> = RwLock::new(Vec::new());

    // Shard 0 runs on the calling thread, between two rounds of planning:
    // it has nothing else to do while an epoch executes, and the memory the
    // planner frees (the link table's growth) is reused by that shard's
    // engines instead of idling in an allocator arena no worker draws on.
    let mut workers = workers.into_iter();
    // nc-lint: allow(panic) — `deal` builds one worker per thread and
    // `with_threads` rejects zero.
    let mut local = workers.next().expect("at least one worker");
    let remote: Vec<Worker> = std::thread::scope(|scope| {
        let cells = &cells;
        let mut links = Vec::with_capacity(threads - 1);
        let mut handles = Vec::with_capacity(threads - 1);
        for mut worker in workers {
            let (work_tx, work_rx) = mpsc::channel::<Batch>();
            let (done_tx, done_rx) = mpsc::channel::<Batch>();
            links.push((work_tx, done_rx));
            handles.push(scope.spawn(move || {
                // Ends when the planner hangs up: after the last epoch, or
                // while unwinding.
                for batch in work_rx {
                    {
                        // nc-lint: allow(panic) — only a panic poisons the
                        // lock, and that run is already lost.
                        let cells = cells.read().expect("a worker or the planner panicked");
                        worker.execute(&batch, &cells);
                    }
                    if done_tx.send(batch).is_err() {
                        break;
                    }
                }
                worker
            }));
        }
        // A send or receive fails only when its worker has panicked; stop
        // planning and let the join below re-raise that panic.
        'epochs: loop {
            let more = planner.plan_epoch(&mut batches, epoch_events);
            cells
                .write()
                // nc-lint: allow(panic) — only a panic poisons the lock, and
                // that run is already lost.
                .expect("a worker panicked")
                .resize_with(planner.slots.len(), SlotCell::new);
            // bounds: batches[0] is the calling thread's; batches[1..] pair
            // up with the spawned workers' links.
            let (mine, theirs) = batches.split_at_mut(1);
            for ((work_tx, _), batch) in links.iter().zip(theirs.iter_mut()) {
                if work_tx.send(std::mem::take(batch)).is_err() {
                    break 'epochs;
                }
            }
            {
                // nc-lint: allow(panic) — only a panic poisons the lock, and
                // that run is already lost.
                let cells = cells.read().expect("a worker panicked");
                local.execute(&mine[0], &cells);
            }
            for ((_, done_rx), batch) in links.iter().zip(theirs.iter_mut()) {
                match done_rx.recv() {
                    Ok(executed) => *batch = executed,
                    Err(_) => break 'epochs,
                }
            }
            if !more {
                break;
            }
        }
        drop(links);
        handles
            .into_iter()
            // nc-lint: allow(panic) — a panicking worker already poisoned
            // the run; re-raising it here is the contract.
            .map(|handle| handle.join().expect("sharded simulation worker panicked"))
            .collect()
    });
    let finished: Vec<Worker> = std::iter::once(local).chain(remote).collect();

    state.events_popped = planner.queue.popped();
    let scenario_actions = planner.scenario_actions;
    let footprint = PlanFootprint {
        op_capacity: batches.iter().map(|batch| batch.ops.capacity()).sum(),
        cells: planner.slots.len(),
    };
    let groups = planner.groups;
    reassemble(env, state, finished, scenario_actions, &groups);
    footprint
}

/// Deals node `i` (engines, metrics, crash snapshots — every configuration)
/// to worker `i % threads`; its local index there is `i / threads`.
fn deal(env: &SimEnv, state: &mut EngineState, threads: usize) -> Vec<Worker> {
    let n = env.topology.len();
    let run_count = state.runs.len();
    let mut workers: Vec<Worker> = (0..threads)
        .map(|_| Worker {
            threads,
            runs: Vec::with_capacity(run_count),
            events: Vec::new(),
        })
        .collect();
    for (run_index, run) in state.runs.iter_mut().enumerate() {
        let nodes = std::mem::take(&mut run.nodes);
        let metrics = std::mem::take(&mut run.metrics.nodes);
        let snapshots = std::mem::take(&mut state.crash_snapshots[run_index]);
        for worker in workers.iter_mut() {
            worker.runs.push(WorkerRun {
                config: run.config.clone(),
                nodes: Vec::with_capacity(n / threads + 1),
                metrics: Vec::with_capacity(n / threads + 1),
                snapshots: Vec::with_capacity(n / threads + 1),
                tracked: Vec::new(),
                index: run.index.as_ref().map(|index| {
                    CoordinateIndex::new(index.config().clone())
                        // nc-lint: allow(panic) — the config validated when
                        // the run's index was built; revalidation is free.
                        .expect("a validated query config rebuilds")
                }),
            });
        }
        for (i, ((node, metric), snapshot)) in
            nodes.into_iter().zip(metrics).zip(snapshots).enumerate()
        {
            // bounds: i % threads < threads == workers.len().
            let slot = &mut workers[i % threads].runs[run_index];
            slot.nodes.push(node);
            slot.metrics.push(metric);
            slot.snapshots.push(snapshot);
        }
    }
    workers
}

/// Puts `state` back together in global node order, stitches tracked
/// samples back into the serial emission order, restores unclaimed crash
/// snapshots, and checks every engine's ledger against the planner's.
fn reassemble(
    env: &SimEnv,
    state: &mut EngineState,
    finished: Vec<Worker>,
    scenario_actions: u64,
    groups: &[LedgerGroup],
) {
    let n = env.topology.len();
    let threads = finished.len();
    let run_count = state.runs.len();
    let mut per_worker: Vec<Vec<WorkerRun>> =
        finished.into_iter().map(|worker| worker.runs).collect();
    for run_index in (0..run_count).rev() {
        let mut shards: Vec<WorkerRun> = per_worker
            .iter_mut()
            // nc-lint: allow(panic) — every worker was dealt run_count runs;
            // parity is structural.
            .map(|runs| runs.pop().expect("one WorkerRun per configuration"))
            .collect();
        let run = &mut state.runs[run_index];
        let mut nodes_iters: Vec<_> = Vec::with_capacity(threads);
        let mut metrics_iters: Vec<_> = Vec::with_capacity(threads);
        let mut snapshot_iters: Vec<_> = Vec::with_capacity(threads);
        let mut tracked: Vec<(u32, u32, TrackedCoordinate)> = Vec::new();
        let mut index_parts: Vec<CoordinateIndex<usize>> = Vec::new();
        for shard in shards.drain(..) {
            nodes_iters.push(shard.nodes.into_iter());
            metrics_iters.push(shard.metrics.into_iter());
            snapshot_iters.push(shard.snapshots.into_iter());
            tracked.extend(shard.tracked);
            index_parts.extend(shard.index);
        }
        let mut nodes = Vec::with_capacity(n);
        let mut metrics = Vec::with_capacity(n);
        let mut snapshots = Vec::with_capacity(n);
        // Shard k holds exactly the nodes `i` with `i % threads == k`, in
        // ascending order, so draining the iterators round-robin restores
        // the global node order; running one dry is a planner bug worth
        // crashing on.
        for i in 0..n {
            // bounds: i % threads < threads, one iterator per worker shard.
            // nc-lint: allow(panic) — structural parity, see loop comment.
            nodes.push(nodes_iters[i % threads].next().expect("node count parity"));
            // bounds: i % threads < threads, one iterator per worker shard.
            // nc-lint: allow(panic) — structural parity, see loop comment.
            metrics.push(metrics_iters[i % threads].next().expect("metric parity"));
            // bounds: i % threads < threads, one iterator per worker shard.
            // nc-lint: allow(panic) — structural parity, see loop comment.
            snapshots.push(snapshot_iters[i % threads].next().expect("snapshot parity"));
        }
        run.nodes = nodes;
        run.metrics.nodes = metrics;
        state.crash_snapshots[run_index] = snapshots;
        tracked.sort_by_key(|&(sample, order, _)| (sample, order));
        run.metrics
            .tracked
            .extend(tracked.into_iter().map(|(_, _, sample)| sample));
        run.metrics.scenario_ops += scenario_actions;
        // Fold the per-worker query-index slices back into the run's index.
        // Each worker digested a disjoint set of node ids, so the upserts
        // never collide and the merged contents equal a serial run's
        // (rebalance counters are layout diagnostics and may differ).
        if let Some(target) = run.index.as_mut() {
            for part in &index_parts {
                for (id, coordinate) in part.iter() {
                    let _ = target.update(*id, coordinate);
                }
            }
        }
    }
    // The direct form of what the byte-comparison suites infer: the planner
    // fed its ledgers what the engines fed theirs. Always on — it is one
    // comparison per node and configuration per run.
    for group in groups {
        for &index in &group.runs {
            let run = &state.runs[index];
            for (node, (engine, planned)) in run.nodes.iter().zip(&group.nodes).enumerate() {
                assert!(
                    engine.ledger() == planned,
                    "node {node} of configuration {:?}: the engine's probe ledger \
                     diverged from the planner's\n engine: {:?}\nplanner: {planned:?}",
                    run.name,
                    engine.ledger(),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use proptest::prelude::*;

    use super::*;
    use crate::adversary::AdversaryModel;
    use crate::linkmodel::LinkModelConfig;
    use crate::planetlab::PlanetLabConfig;
    use crate::scenario::Scenario;
    use crate::sim::{SimConfig, Simulator};

    /// Runs `job` on a thread of its own and fails the test when it is not
    /// back within a minute: a broken handshake spins forever, and a test
    /// that fails in seconds beats a CI job that hangs.
    fn under_watchdog<T: Send + 'static>(job: impl FnOnce() -> T + Send + 'static) -> T {
        let (done, result) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = done.send(job());
        });
        result
            .recv_timeout(Duration::from_secs(60))
            .expect("the sharded run deadlocked, or panicked on its own thread")
    }

    fn serial_json(simulator: Simulator) -> String {
        serde::json::to_string(&simulator.with_serial_execution(true).run())
    }

    fn streamed_json(
        mut simulator: Simulator,
        threads: usize,
        epoch_events: usize,
    ) -> (String, PlanFootprint) {
        let (report, footprint) = simulator.run_streamed(threads, epoch_events);
        (serde::json::to_string(&report), footprint)
    }

    #[test]
    fn auto_workers_is_one_per_core_capped_at_one_per_128_nodes() {
        assert_eq!(auto_workers(255, 8), 1);
        assert_eq!(auto_workers(256, 1), 1);
        assert_eq!(auto_workers(256, 2), 2);
        assert_eq!(auto_workers(1_024, 2), 2);
        assert_eq!(auto_workers(1_024, 64), 8);
        assert_eq!(auto_workers(0, 0), 1);
    }

    #[test]
    fn an_op_stays_within_the_size_the_epoch_budget_was_chosen_for() {
        assert!(std::mem::size_of::<PlanOp>() <= 48);
    }

    /// Two nodes that probe only each other, no loss, no gossip. Node 1
    /// holds every reply back two seconds, so the reply to node 0's probe of
    /// `t = 100` is in flight from ≈ 100.1 s (the `Respond`, which
    /// publishes: the link lost nothing) until ≈ 102.1 s. `disruption`
    /// strikes at 101 s, in between, and turns that delivery into a
    /// `DropReply`; node 0 is back probing well before the end, so the
    /// dropped exchange's slot must take a later `Respond`.
    fn reply_in_flight(disruption: Scenario) -> Simulator {
        let scenario = disruption.at(
            0.0,
            ScenarioAction::SetAdversary {
                nodes: vec![1],
                model: Some(AdversaryModel::DelayAttacker {
                    extra_delay_ms: 2_000.0,
                }),
            },
        );
        Simulator::new(
            PlanetLabConfig::small(2).with_seed(1),
            SimConfig::new(300.0, 5.0)
                .with_measurement_start(0.0)
                .with_initial_neighbors(1)
                .with_gossip(false),
            vec![("mp".to_string(), NodeConfig::paper_defaults())],
        )
        .with_scenario(scenario)
    }

    /// With one event per epoch the boundary falls between the `Respond`
    /// and the drop, whatever else happens; 7 puts it at arbitrary offsets.
    /// A drop that forgot to release the cell deadlocks the slot's next
    /// `Respond`; one that forgot to free the slot grows the slab past the
    /// two exchanges this mesh can have in flight.
    fn assert_dropped_reply_releases_its_slot(disruption: fn() -> Scenario) {
        let serial = serial_json(reply_in_flight(disruption()));
        for threads in 1..=3 {
            for epoch_events in [1, 7] {
                let (streamed, footprint) = under_watchdog(move || {
                    streamed_json(reply_in_flight(disruption()), threads, epoch_events)
                });
                assert_eq!(
                    streamed, serial,
                    "{threads} threads, {epoch_events} events per epoch"
                );
                assert_eq!(footprint.cells, 2, "the dropped reply's slot is reused");
            }
        }
    }

    #[test]
    fn a_reply_in_flight_when_its_prober_crashes_releases_its_slot() {
        assert_dropped_reply_releases_its_slot(|| Scenario::crash_restart(vec![0], 101.0, 130.0));
    }

    #[test]
    fn a_reply_in_flight_when_a_partition_comes_up_releases_its_slot() {
        assert_dropped_reply_releases_its_slot(|| {
            Scenario::new().at(
                101.0,
                ScenarioAction::Partition {
                    group: vec![0],
                    heal_at_s: 150.0,
                },
            )
        });
    }

    #[test]
    fn plan_memory_does_not_grow_with_the_duration() {
        let footprint = |hours: f64| {
            let simulator = Simulator::new(
                PlanetLabConfig::small(16).with_seed(4),
                SimConfig::new(hours * 3_600.0, 5.0).with_initial_neighbors(4),
                vec![("mp".to_string(), NodeConfig::paper_defaults())],
            );
            streamed_json(simulator, 2, 256).1
        };
        let one_hour = footprint(1.0);
        assert_eq!(one_hour.op_capacity, 2 * 256);
        assert_eq!(footprint(4.0).op_capacity, one_hour.op_capacity);
    }

    const NODES: usize = 10;

    /// Decodes one scripted disturbance from a random word (the vendored
    /// proptest shim offers primitive strategies only): a crash + restart
    /// pair, a graceful leave, a timed partition over an arbitrary subset,
    /// or a spell of Byzantine behaviour — lies, or replies held back
    /// within or beyond the 15 s probe timeout.
    fn apply_op(scenario: Scenario, word: u64) -> Scenario {
        let node = ((word >> 2) % NODES as u64) as usize;
        let at_s = 50.0 + ((word >> 8) % 300) as f64;
        let width_s = 30.0 + ((word >> 18) % 110) as f64;
        match word % 4 {
            0 => scenario
                .at(at_s, ScenarioAction::Crash { nodes: vec![node] })
                .at(
                    at_s + width_s,
                    ScenarioAction::Restart { nodes: vec![node] },
                ),
            1 => scenario.at(at_s, ScenarioAction::Leave { nodes: vec![node] }),
            2 => {
                let mask = ((word >> 28) & 0xFFFF) | 1;
                let group: Vec<usize> = (0..NODES).filter(|&n| mask & (1 << n) != 0).collect();
                scenario.at(
                    at_s,
                    ScenarioAction::Partition {
                        group,
                        heal_at_s: at_s + width_s,
                    },
                )
            }
            _ => {
                let model = match (word >> 28) % 3 {
                    0 => AdversaryModel::CoordinateLiar {
                        displacement_ms: 2_000.0,
                        inflate: 1.0,
                        error_estimate: 0.01,
                    },
                    1 => AdversaryModel::DelayAttacker {
                        extra_delay_ms: 700.0,
                    },
                    _ => AdversaryModel::JitterBomb {
                        max_extra_delay_ms: 20_000.0,
                    },
                };
                scenario
                    .at(
                        at_s,
                        ScenarioAction::SetAdversary {
                            nodes: vec![node],
                            model: Some(model),
                        },
                    )
                    .at(
                        at_s + width_s,
                        ScenarioAction::SetAdversary {
                            nodes: vec![node],
                            model: None,
                        },
                    )
            }
        }
    }

    proptest! {
        #[test]
        fn streamed_report_matches_serial_for_every_epoch_budget(
            seed in 0u64..10_000,
            loss in 0.0f64..0.15,
            gossip_word in 0u32..2,
            evict_mp_word in 0u32..8,
            evict_raw_word in 0u32..8,
            threads in 1usize..5,
            op_words in proptest::collection::vec(0u64..u64::MAX, 0..6),
        ) {
            // One threshold per configuration — none at all two times in
            // eight, 2..=6 otherwise — so equal and differing thresholds,
            // and with them the unanimity rule, are drawn together with the
            // restarts that expire pending probes.
            let evict = |word: u32| (word >= 2).then(|| 2 + (word - 2) % 5);
            let (evict_mp, evict_raw) = (evict(evict_mp_word), evict(evict_raw_word));
            let build = move |op_words: &[u64]| {
                let workload = PlanetLabConfig::small(NODES)
                    .with_seed(seed)
                    .with_link_config(LinkModelConfig::default().with_loss_probability(loss));
                let sim_config = SimConfig::new(500.0, 5.0)
                    .with_measurement_start(100.0)
                    .with_initial_neighbors(3)
                    .with_gossip(gossip_word == 1)
                    .with_tracked_nodes(vec![0, NODES / 2], 50.0);
                let mut config = NodeConfig::builder();
                if let Some(max) = evict_mp {
                    config = config.max_consecutive_losses(max);
                }
                let scenario = op_words.iter().fold(Scenario::new(), |s, &w| apply_op(s, w));
                Simulator::new(
                    workload,
                    sim_config,
                    vec![
                        ("mp".to_string(), config.build()),
                        ("raw".to_string(), {
                            let mut raw = NodeConfig::original_vivaldi();
                            raw.max_consecutive_losses = evict_raw;
                            raw
                        }),
                    ],
                )
                .with_scenario(scenario)
            };
            let serial = serial_json(build(&op_words));
            for epoch_events in [1usize, 7, 64, 4_096] {
                let words = op_words.clone();
                let (streamed, _) = under_watchdog(move || {
                    streamed_json(build(&words), threads, epoch_events)
                });
                prop_assert_eq!(
                    &streamed, &serial,
                    "{} threads, {} events per epoch diverged from serial (seed {})",
                    threads, epoch_events, seed
                );
            }
        }
    }
}
