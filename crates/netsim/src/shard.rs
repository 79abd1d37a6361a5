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
//! 1. **Plan (serial).** The simulation's one event loop
//!    ([`EventLoop`]) runs with the [`Planner`] as its engines: a
//!    [`ProbeLedger`] per node stands in for the engines, because the
//!    ledger is the only engine state that feeds back into the schedule
//!    (pending probes, loss streaks, the sequence counter), and it is the
//!    very type the engines embed. One call pops at most one epoch's budget
//!    of events ([`EPOCH_EVENTS`]) and turns them into one [`Batch`] of
//!    engine operations per shard, each in global event order.
//! 2. **Execute (cooperative).** Shard `w` holds every node with
//!    `index % threads == w` (across all named configurations): a
//!    [`Worker`], its batch and a cursor into it. The only cross-shard data
//!    flow is a probe response travelling from the responder's shard to the
//!    prober's shard; it moves through a slab of turn-versioned
//!    [`SlotCell`]s with acquire/release handshakes, whose response buffers
//!    are rewritten in place turn after turn, so the steady state neither
//!    allocates nor locks.
//!
//! The two phases overlap. The calling thread releases epoch `k` to the
//! shards, plans epoch `k + 1` into a second set of batches while its
//! `threads - 1` helper threads execute `k`, and then joins `k` itself. No
//! shard belongs to a thread: each thread has a home shard, and any thread
//! may claim any free one. Before every op the thread running it checks,
//! without waiting, whether the op's cell is at the turn the op needs
//! ([`ready`]). A thread runs its home shard until the next op is not ready,
//! then runs another free shard until that one is not ready either or home
//! can move again, and goes home. No thread ever waits inside an op.
//!
//! **Progress.** The op with the lowest global index among the shards' next
//! ops is always ready: the cell turn it needs was passed on by an op earlier
//! in the global order, and every such op has run — earlier epochs in full,
//! this one up to the shards' cursors. So one thread alone finishes any
//! epoch. That is what lets the helpers run the whole epoch while the calling
//! thread plans, and why one worker (`threads == 1`) needs no path of its own.
//!
//! Workers are dealt their nodes once and reassembled once; between epochs
//! the helpers sleep on a channel. The batches are cleared and reused and the
//! cell slab is as large as the most exchanges ever in flight at once, so the
//! plan's memory is a few megabytes whatever the simulated duration.
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
//! publication and releases the cell in the digest's stead. The same rule
//! is what makes it safe to plan epoch `k + 1` while epoch `k` executes.
//!
//! [`Worker::apply`] is the simulator's only engine executor, and the event
//! loop its only scheduler. The reference runs the same loop with one worker
//! as its engines, applying each [`PlanOp`] as the loop hands it over, so
//! the facts the loop schedules from ([`Decided`]) come from the engines
//! themselves, where the planner reads them off its ledgers. Since that is
//! the only difference, the [`crate::metrics::SimReport`] is byte-identical
//! to the reference's for every thread count and every epoch budget exactly
//! when the planner decides as the engines do — a contract enforced by the
//! regression and property-test suites.
//!
//! The ledgers are sufficient because an engine influences the schedule
//! through exactly three facts: which probes a deadline expires, whether a
//! loss streak reaches the eviction threshold, and which sequence number a
//! probe carries. All three are answered by the engine's [`ProbeLedger`] —
//! one definition, in `stable-nc` — and that ledger is a function of the
//! calls made on it alone, so the planner's copies, seeded
//! from the engines' when the nodes are dealt and fed the same calls, stay
//! equal to them; [`reassemble`] asserts it after every run. Configurations
//! with one eviction threshold keep equal ledgers, so the planner holds one
//! set per *distinct* threshold ([`LedgerGroup`]) and applies the loop's
//! unanimity rule across the sets: a peer leaves the shared rotation once
//! every configuration has evicted it.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex, RwLock, TryLockError};

use nc_proto::{Event, NodeSnapshot, ProbeRequest, ProbeResponse};
use nc_query::CoordinateIndex;
use stable_nc::{NodeConfig, ProbeLedger, StableNode};

use crate::adversary::{apply_lie, CoordinateLie};
use crate::metrics::{NodeMetrics, TrackedCoordinate};
use crate::sim::{feed_query_index, fold_events, Beside, EngineState, Engines, EventLoop, SimEnv};

/// Events the planner pops per epoch. Large enough that the two channel
/// round trips per helper and epoch vanish (a 1,024-node hour is ≈ 90
/// epochs), small enough that both sets of batches (≤ 48 bytes per event)
/// stay a few megabytes. Reports do not depend on it; the tests run budgets
/// down to 1.
pub(crate) const EPOCH_EVENTS: usize = 32_768;

/// Fewest nodes that keep one worker busier than the handshakes cost it.
/// Measured on a 2-core host, two workers against one (`ncbench --scale`,
/// three alternating pairs per row, exchanges per second): 512 nodes +30 to
/// +140 %, 256 +80 to +93 %, 128 +60 to +81 % at +7 to +20 % CPU per
/// exchange, 64 +30 to +53 % at +24 to +45 %; with two configurations
/// (`sim-compare`) 128 +42 to +123 %, 64 +23 to +63 % at +19 to +56 % CPU.
/// From 128 nodes two workers won every pair by 40 % or more; below, the
/// rate they add costs a fifth to a half more CPU per exchange.
const NODES_PER_WORKER: usize = 64;

/// How many workers [`Simulator::run`](crate::sim::Simulator::run) shards a
/// run of `nodes` nodes across on a host with `cores` cores when the caller
/// did not say: one per core, but no more than the mesh can keep busy. One
/// means "do not shard".
pub(crate) fn auto_workers(nodes: usize, cores: usize) -> usize {
    cores.min(nodes / NODES_PER_WORKER).max(1)
}

/// One engine operation for one node, emitted by the event loop in global
/// event order. Every field is fixed when the operation is pushed: workers
/// may run it epochs later, and never see planner state.
#[derive(Debug, Clone, Copy)]
pub(crate) enum PlanOp {
    /// `probe_request_for(dst, now_ms)` on every configuration's `node`.
    Issue { node: u32, dst: u32, now_ms: u64 },
    /// The responder's side of an exchange: rebuild the request from
    /// `(dst, seq, sent_at_ms)` — simulator probes carry no other payload —
    /// answer it into cell `slot`, stamp the sampled RTT and the drawn lie
    /// (an index into the lies passed beside the op), and pass the cell on.
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
    DropReply { src: u32, slot: u32, turn: u32 },
    /// `expire_pending_into(sent_at_ms, 0)` on every configuration's
    /// `node`: every probe sent at or before `sent_at_ms` is lost. Emitted
    /// at each of the node's probe ticks, with the tick's time less the
    /// probe timeout (none while that would precede `t = 0`), and at each
    /// restart, with the restart's time.
    Expire { node: u32, sent_at_ms: u64 },
    /// Take crash snapshots of every configuration's `node`.
    Crash { node: u32 },
    /// Revive `node`: fresh engines on a join, snapshot restores on a
    /// restart. The loop follows it with an `Expire` of every probe
    /// outstanding at the crash, then ticks the node at once unless its
    /// tick is still queued.
    Restore { node: u32, fresh: bool },
    /// Sample `node`'s coordinates for the trajectory metrics.
    Track {
        node: u32,
        sample: u32,
        order: u32,
        now: f64,
    },
}

/// What the engines decided on one op: the facts an engine feeds back into
/// the schedule, and all the event loop reads of an [`Engines`]. The
/// reference returns [`Worker::apply`]'s; the planner reads the same facts
/// off its ledgers, and its shards drop the ones they compute again.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Decided<'a> {
    /// `Issue`: the sequence number every configuration gave the probe.
    pub(crate) seq: u64,
    /// `Expire`: the peers that every configuration evicted, in the first
    /// configuration's order.
    pub(crate) evicted: &'a [usize],
}

/// Folds the number one more configuration — or ledger group — gave a probe
/// of `node` into the number agreed so far. One response cell carries one
/// `seq` for every configuration, so they must all agree.
fn agree_on_seq(node: usize, agreed: Option<u64>, seq: u64) -> Option<u64> {
    assert!(
        agreed.is_none_or(|agreed| agreed == seq),
        "node {node}: the configurations numbered one probe {agreed:?} and {seq}"
    );
    Some(seq)
}

/// Narrows `evicted` to the peers that one more configuration — or ledger
/// group — evicted as well; the first one seeds it.
fn evicted_by_every(
    evicted: &mut Vec<usize>,
    first: bool,
    evicted_here: impl Iterator<Item = usize> + Clone,
) {
    if first {
        evicted.extend(evicted_here);
    } else {
        evicted.retain(|id| evicted_here.clone().any(|here| here == *id));
    }
}

/// The peers `events` report evicted.
fn evicted_in(events: &[Event<usize>]) -> impl Iterator<Item = usize> + Clone + '_ {
    events.iter().filter_map(|event| match event {
        Event::NeighborEvicted { id } => Some(*id),
        _ => None,
    })
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
pub(crate) struct LedgerGroup {
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

/// One slot of the response slab. `data` holds one response per named
/// configuration and is reused across exchanges (turns), so the steady-state
/// exchange path allocates nothing.
///
/// Protocol: the responder of turn `t` runs only once `consumed == t - 1`
/// (the previous use is fully digested), writes the responses, then either
/// stores `published = t` (someone will come for them) or `consumed = t`
/// (the reply was lost as it was sent; it consumes its own use). The
/// prober's shard runs its op only once `published == t`, reads — or, for a
/// reply dropped at delivery, does not — and stores `consumed = t`. Each
/// condition is met by an operation strictly earlier in the planner's global
/// order, which is the module's progress argument; the executor checks it
/// before every op ([`ready`]) and the reference, which runs every op as the
/// loop emits it, always finds it met. A cell may stay published across any
/// number of epoch boundaries; the slab only ever grows between epochs,
/// under the write lock, while no thread holds a reference into it.
pub(crate) struct SlotCell {
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
    pub(crate) fn new() -> Self {
        SlotCell {
            published: AtomicU32::new(0),
            consumed: AtomicU32::new(0),
            data: UnsafeCell::new(Vec::new()),
        }
    }
}

/// Whether `op` can run now: the cell turn it needs has been passed on. Ops
/// without a cell are always ready. Never waits.
fn ready(op: &PlanOp, cells: &[SlotCell]) -> bool {
    match *op {
        PlanOp::Respond { slot, turn, .. } => {
            cells[slot as usize].consumed.load(Ordering::Acquire) == turn - 1
        }
        PlanOp::Digest { slot, turn, .. } | PlanOp::DropReply { slot, turn, .. } => {
            cells[slot as usize].published.load(Ordering::Acquire) == turn
        }
        _ => true,
    }
}

/// Asserts that `counter` — a cell's `published` or `consumed` — reads
/// `turn`. The executor runs an op only once [`ready`] says so and the
/// reference loop's turns are always met, so an op never waits for one.
fn assert_turn(counter: &AtomicU32, turn: u32) {
    let at = counter.load(Ordering::Acquire);
    assert!(
        at == turn,
        "a response cell is at turn {at}, not at the {turn} its op needs"
    );
}

/// One probe exchange in flight, between the events that carry its index:
/// what the later operations need of the send, and the use counter of the
/// response cell with the same index.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ExchangeSlot {
    pub(crate) seq: u64,
    pub(crate) sent_at_ms: u64,
    /// Times a `Respond` has used this slot's cell; persists across reuse.
    pub(crate) turn: u32,
}

/// The exchanges in flight, indexed by the `slot` field of the probe events
/// and recycled through a free list; [`len`](InFlight::len) is the size the
/// response-cell slab must have.
#[derive(Default)]
pub(crate) struct InFlight {
    slots: Vec<ExchangeSlot>,
    free: Vec<u32>,
}

impl InFlight {
    /// Claims a slot for a probe that survived its forward leg.
    pub(crate) fn acquire(&mut self, seq: u64, sent_at_ms: u64) -> usize {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(ExchangeSlot::default());
            (self.slots.len() - 1) as u32
        }) as usize;
        self.slots[slot].seq = seq;
        self.slots[slot].sent_at_ms = sent_at_ms;
        slot
    }

    /// The `Respond` that answers the probe in `slot` from `dst`: the slot's
    /// cell takes its next turn. It names no lie; the [`Engines`] that gets
    /// one beside it sets the index.
    pub(crate) fn respond(
        &mut self,
        slot: usize,
        dst: usize,
        rtt_ms: f64,
        publish: bool,
    ) -> PlanOp {
        let exchange = &mut self.slots[slot];
        exchange.turn += 1;
        PlanOp::Respond {
            dst: dst as u32,
            slot: slot as u32,
            turn: exchange.turn,
            lie: None,
            seq: exchange.seq,
            sent_at_ms: exchange.sent_at_ms,
            rtt_ms,
            publish,
        }
    }

    /// Returns `slot` to the free list and the exchange it held.
    pub(crate) fn release(&mut self, slot: usize) -> ExchangeSlot {
        self.free.push(slot as u32);
        self.slots[slot]
    }

    pub(crate) fn len(&self) -> usize {
        self.slots.len()
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

/// The simulator's engine executor: its shard of every configuration plus
/// a reusable engine-event buffer. Every engine call a simulation makes is
/// made by [`Worker::apply`].
pub(crate) struct Worker {
    threads: usize,
    runs: Vec<WorkerRun>,
    events: Vec<Event<usize>>,
    /// What [`Decided::evicted`] lends out, refilled by every op.
    evicted: Vec<usize>,
}

impl Worker {
    /// Runs `op` on every configuration of its node and returns what the
    /// engines decided. `lies` is what a `Respond`'s `lie` indexes into;
    /// `cells` is the response slab, at least as long as the highest slot
    /// an op names. The op's cell must be [`ready`]: it is when the ops'
    /// slots and turns come from one [`InFlight`], each node's ops run in the
    /// order they were emitted, and the executor checked before the call —
    /// or the reference runs each op as the loop hands it over.
    // Inlined into `Shard::run`'s loop over a batch, the sharded hot path.
    #[inline]
    pub(crate) fn apply(
        &mut self,
        op: PlanOp,
        lies: &[CoordinateLie],
        cells: &[SlotCell],
    ) -> Decided<'_> {
        let mut seq = 0;
        self.evicted.clear();
        match op {
            PlanOp::Issue { node, dst, now_ms } => {
                let local = node as usize / self.threads;
                let mut agreed = None;
                for run in &mut self.runs {
                    let issued = run.nodes[local].probe_request_for(dst as usize, now_ms).seq;
                    run.metrics[local].probes_sent += 1;
                    agreed = agree_on_seq(node as usize, agreed, issued);
                }
                seq = agreed.unwrap_or_default();
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
                assert_turn(&cell.consumed, turn - 1);
                // SAFETY: `consumed == turn - 1` means the previous use
                // of the cell — possibly epochs ago — is finished, and
                // `InFlight::respond` names this turn in no other
                // `Respond`, so this worker has exclusive access until it
                // stores published/consumed below.
                let responses = unsafe { &mut *cell.data.get() };
                let request = ProbeRequest::new(dst as usize, seq, sent_at_ms);
                let lie = lie.map(|index| &lies[index as usize]);
                for (index, run) in self.runs.iter_mut().enumerate() {
                    let responder = &mut run.nodes[local];
                    // First uses of a cell grow its vector; afterwards the
                    // existing message (and its gossip buffer) is rewritten
                    // in place.
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
                assert_turn(&cell.published, turn);
                // SAFETY: `published == turn` means the responder is done
                // writing (in this epoch or an earlier one); the emitting
                // loop releases each slot once, so it emits one taker per
                // published turn — this digest — and no one else touches
                // the cell until we store `consumed`.
                let responses = unsafe { &*cell.data.get() };
                for (index, run) in self.runs.iter_mut().enumerate() {
                    self.events.clear();
                    run.nodes[local].handle_response_into(&responses[index], &mut self.events);
                    // A reply the engine refused to correlate (it raced its
                    // own timeout, or the peer was evicted meanwhile) is not
                    // an observation — it was already accounted as a loss.
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
            PlanOp::DropReply { slot, turn, .. } => {
                // Ready exactly when a digest would be; pass the cell on
                // without reading it.
                let cell = &cells[slot as usize];
                assert_turn(&cell.published, turn);
                cell.consumed.store(turn, Ordering::Release);
            }
            PlanOp::Expire { node, sent_at_ms } => {
                let local = node as usize / self.threads;
                for (index, run) in self.runs.iter_mut().enumerate() {
                    self.events.clear();
                    run.nodes[local].expire_pending_into(sent_at_ms, 0, &mut self.events);
                    evicted_by_every(&mut self.evicted, index == 0, evicted_in(&self.events));
                    fold_events(&mut run.metrics[local], 0.0, false, &self.events);
                }
            }
            PlanOp::Crash { node } => {
                let local = node as usize / self.threads;
                for run in &mut self.runs {
                    run.snapshots[local] = Some(run.nodes[local].snapshot());
                }
            }
            PlanOp::Restore { node, fresh } => {
                let local = node as usize / self.threads;
                for run in &mut self.runs {
                    let snapshot = if fresh {
                        None
                    } else {
                        run.snapshots[local].take()
                    };
                    run.nodes[local] = match snapshot {
                        Some(snapshot) => StableNode::restore(run.config.clone(), &snapshot)
                            // nc-lint: allow(panic) — restoring a snapshot
                            // this run took under the same config cannot
                            // fail; a failure is a sim bug.
                            .expect("a crash snapshot restores under its own configuration"),
                        None => StableNode::new(run.config.clone()),
                    };
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
        Decided {
            seq,
            evicted: &self.evicted,
        }
    }
}

/// The planner's engines: the facts the schedule needs, read off one
/// [`LedgerGroup`] per eviction threshold, and every op queued with its lie
/// for the shard that owns its node. Built around each epoch's batches.
struct Planner<'a> {
    groups: &'a mut [LedgerGroup],
    /// What [`Decided::evicted`] lends out, refilled by every op.
    evicted: &'a mut Vec<usize>,
    /// One per shard: node `i`'s ops go to batch `i % batches.len()`.
    batches: &'a mut [Batch],
}

impl Engines for Planner<'_> {
    #[inline]
    fn apply(&mut self, mut op: PlanOp, beside: Beside) -> Decided<'_> {
        let mut seq = 0;
        self.evicted.clear();
        let node = match op {
            PlanOp::Issue { node, dst, now_ms } => {
                // Every group numbers the probe alike: sequence numbers do
                // not depend on the threshold.
                seq = self
                    .groups
                    .iter_mut()
                    .fold(None, |agreed, group| {
                        let issued = group.nodes[node as usize].issue(dst as usize, now_ms);
                        agree_on_seq(node as usize, agreed, issued)
                    })
                    .unwrap_or_default();
                node
            }
            PlanOp::Respond { dst, .. } => dst,
            PlanOp::Digest { src, .. } => {
                if let Beside::Settle { responder, seq } = beside {
                    for group in self.groups.iter_mut() {
                        group.nodes[src as usize].settle(&responder, seq);
                    }
                }
                src
            }
            PlanOp::DropReply { src, .. } => src,
            PlanOp::Expire { node, sent_at_ms } => {
                for (index, group) in self.groups.iter_mut().enumerate() {
                    let ledger = &mut group.nodes[node as usize];
                    let evicted_here = std::iter::from_fn(|| ledger.expire(sent_at_ms, 0))
                        .filter_map(|(lost, evicted)| evicted.then_some(lost.target));
                    if index == 0 {
                        self.evicted.extend(evicted_here);
                    } else {
                        // Allocates only when this group evicts as well.
                        let evicted_here: Vec<usize> = evicted_here.collect();
                        self.evicted.retain(|id| evicted_here.contains(id));
                    }
                }
                node
            }
            PlanOp::Crash { node } => {
                for group in self.groups.iter_mut() {
                    group.crashed[node as usize] = Some(group.nodes[node as usize].clone());
                }
                node
            }
            PlanOp::Restore { node, fresh } => {
                for group in self.groups.iter_mut() {
                    let crashed = if fresh {
                        None
                    } else {
                        group.crashed[node as usize].take()
                    };
                    group.nodes[node as usize] =
                        crashed.unwrap_or_else(|| ProbeLedger::new(group.threshold));
                }
                node
            }
            PlanOp::Track { node, .. } => node,
        };
        // bounds: node % batches.len() < batches.len().
        let batch = &mut self.batches[node as usize % self.batches.len()];
        if let (PlanOp::Respond { lie: index, .. }, Beside::Lie(lie)) = (&mut op, beside) {
            *index = Some(batch.lies.len() as u32);
            batch.lies.push(lie);
        }
        batch.ops.push(op);
        Decided {
            seq,
            evicted: self.evicted,
        }
    }
}

/// Plans the next epoch into `planner`'s batches, cleared first: at most
/// `budget` popped events. Returns false once the run is over and this
/// epoch is the last.
fn plan_epoch(events: &mut EventLoop, planner: &mut Planner, budget: usize) -> bool {
    for batch in planner.batches.iter_mut() {
        batch.ops.clear();
        batch.lies.clear();
    }
    (0..budget).all(|_| events.step(planner))
}

/// Runs the simulation to completion with engine work sharded across
/// `shards` workers, run by the calling thread and `helpers` more (the tests
/// run every shard from the calling thread alone), planning `epoch_events`
/// events at a time. Leaves `state` (metrics, engines, schedule, crash
/// snapshots) byte-identical to what the reference would have produced.
pub(crate) fn run_epochs(
    env: &SimEnv,
    state: &mut EngineState,
    shards: usize,
    helpers: usize,
    epoch_events: usize,
) -> PlanFootprint {
    assert!(epoch_events > 0, "an epoch must make progress");
    let mut groups = ledger_groups(state);
    let mut evicted = Vec::new();
    let workers = deal(env, state, shards);
    let mut events = EventLoop::new(env, &mut state.schedule);
    let (finished, op_capacity) = execute(workers, helpers, epoch_events, |batches| {
        let mut planner = Planner {
            groups: &mut groups,
            evicted: &mut evicted,
            batches,
        };
        Planned {
            more: plan_epoch(&mut events, &mut planner, epoch_events),
            cells: events.in_flight.len(),
        }
    });
    let scenario_actions = events.scenario_actions;
    let footprint = PlanFootprint {
        op_capacity,
        cells: events.in_flight.len(),
    };
    state.events_popped = events.queue.popped();
    reassemble(env, state, finished, scenario_actions, &groups);
    footprint
}

/// What the planner of [`execute`] says about the epoch it just planned.
struct Planned {
    /// False for the run's last epoch.
    more: bool,
    /// How many response cells the ops planned so far name.
    cells: usize,
}

/// One shard as the executor holds it: the worker, its share of the
/// released epoch and how far into it the shard has run. Any thread may
/// claim it; the mutex is the claim, and a panic inside an op poisons it.
struct Shard {
    worker: Worker,
    batch: Batch,
    cursor: usize,
}

impl Shard {
    /// The next op to run; `None` once the batch has run.
    fn head(&self) -> Option<PlanOp> {
        self.batch.ops.get(self.cursor).copied()
    }

    /// Runs ops while the next one is [`ready`], stopping after any op once
    /// `leave` says so, and returns how many ran.
    #[inline]
    fn run(&mut self, cells: &[SlotCell], leave: impl Fn() -> bool) -> usize {
        let start = self.cursor;
        while let Some(op) = self.head() {
            if !ready(&op, cells) {
                break;
            }
            self.worker.apply(op, &self.batch.lies, cells);
            self.cursor += 1;
            if leave() {
                break;
            }
        }
        self.cursor - start
    }
}

/// A thread panicked inside an op of a shard, and the run is lost.
struct Poisoned;

/// Runs the released epoch from one thread until every shard has run its
/// batch: `home` whenever it can move, another free shard otherwise, and
/// back home as soon as home's next op is ready. Yields only when no free
/// shard can move. Fails as soon as it meets a poisoned shard.
fn join_epoch(
    shards: &[Mutex<Shard>],
    home: usize,
    cells: &[SlotCell],
    unfinished: &AtomicUsize,
) -> Result<(), Poisoned> {
    // The op home stopped at, while this thread is away from it; `None`
    // when home is finished or another thread has it.
    let mut home_head = None;
    while unfinished.load(Ordering::Acquire) > 0 {
        let mut moved = false;
        for offset in 0..shards.len() {
            let index = (home + offset) % shards.len();
            let mut shard = match shards[index].try_lock() {
                Ok(shard) => shard,
                Err(TryLockError::WouldBlock) => {
                    if offset == 0 {
                        home_head = None;
                    }
                    continue;
                }
                Err(TryLockError::Poisoned(_)) => return Err(Poisoned),
            };
            let ran = if offset == 0 {
                let ran = shard.run(cells, || false);
                home_head = shard.head();
                ran
            } else {
                shard.run(cells, || home_head.is_some_and(|op| ready(&op, cells)))
            };
            if ran > 0 {
                if shard.head().is_none() {
                    unfinished.fetch_sub(1, Ordering::AcqRel);
                }
                moved = true;
                break;
            }
        }
        if !moved {
            std::thread::yield_now();
        }
    }
    Ok(())
}

/// Executes the epochs `plan` fills, one shard per worker, on the calling
/// thread and `helpers` scoped threads (homed on shards 0 to `helpers`), and
/// hands back the workers and the op capacity of both sets of batches.
/// `plan` fills the batches it is given, one per shard and cleared first; it
/// runs on the calling thread, one epoch ahead of the shards.
fn execute(
    workers: Vec<Worker>,
    helpers: usize,
    epoch_events: usize,
    mut plan: impl FnMut(&mut [Batch]) -> Planned,
) -> (Vec<Worker>, usize) {
    // Room for an epoch in which every event lands on one shard, so the
    // lists never reallocate (tracking, several ops per event, may grow
    // them once).
    let batch = || Batch {
        ops: Vec::with_capacity(epoch_events),
        lies: Vec::new(),
    };
    let mut next: Vec<Batch> = workers.iter().map(|_| batch()).collect();
    let shards: Vec<Mutex<Shard>> = workers
        .into_iter()
        .map(|worker| {
            Mutex::new(Shard {
                worker,
                batch: batch(),
                cursor: 0,
            })
        })
        .collect();
    // Executing threads hold the read lock for the length of an epoch; the
    // calling thread grows the slab under the write lock between epochs,
    // when nobody does.
    let cells: RwLock<Vec<SlotCell>> = RwLock::new(Vec::new());
    // Shards of the released epoch that have ops left to run. Stored
    // (Release) before the helpers are signalled, decremented (AcqRel) by
    // the thread that runs a shard's last op and read (Acquire) by every
    // joining thread, so a thread that reads 0 has seen every op run.
    let unfinished = AtomicUsize::new(0);
    let mut planned = plan(&mut next);
    std::thread::scope(|scope| {
        let (shards, cells, unfinished) = (&shards, &cells, &unfinished);
        let mut links = Vec::with_capacity(helpers);
        let mut handles = Vec::with_capacity(helpers);
        for home in 1..=helpers {
            let (start_tx, start_rx) = mpsc::channel::<()>();
            let (done_tx, done_rx) = mpsc::channel::<()>();
            links.push((start_tx, done_rx));
            handles.push(scope.spawn(move || {
                // Ends when the calling thread hangs up — after the last
                // epoch, or while unwinding — or at a poisoned shard.
                for () in start_rx {
                    let joined = {
                        // nc-lint: allow(panic) — only a panic under the
                        // write lock poisons it, and that run is lost.
                        let cells = cells.read().expect("the planning thread panicked");
                        join_epoch(shards, home, &cells, unfinished)
                    };
                    if joined.is_err() || done_tx.send(()).is_err() {
                        break;
                    }
                }
            }));
        }
        // A handshake fails only when a helper has died, and a shard is
        // poisoned only when a thread panicked in it: either way stop, and
        // let the joins below re-raise the panic.
        'epochs: loop {
            cells
                .write()
                // nc-lint: allow(panic) — only a panic under the write lock
                // poisons it, and that run is already lost.
                .expect("the planning thread panicked")
                .resize_with(planned.cells, SlotCell::new);
            let mut released = 0;
            for (shard, batch) in shards.iter().zip(next.iter_mut()) {
                // nc-lint: allow(panic) — every shard ran its batch to the
                // end, so no op of it panicked.
                let mut shard = shard.lock().expect("a finished shard is not poisoned");
                std::mem::swap(&mut shard.batch, batch);
                shard.cursor = 0;
                released += usize::from(!shard.batch.ops.is_empty());
            }
            unfinished.store(released, Ordering::Release);
            for (start_tx, _) in &links {
                if start_tx.send(()).is_err() {
                    break 'epochs;
                }
            }
            let last = !planned.more;
            if !last {
                planned = plan(&mut next);
            }
            let joined = {
                // nc-lint: allow(panic) — only a panic under the write lock
                // poisons it, and that run is already lost.
                let cells = cells.read().expect("the planning thread panicked");
                join_epoch(shards, 0, &cells, unfinished)
            };
            if joined.is_err() {
                break;
            }
            for (_, done_rx) in &links {
                if done_rx.recv().is_err() {
                    break 'epochs;
                }
            }
            if last {
                break;
            }
        }
        drop(links);
        for handle in handles {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
    let mut op_capacity: usize = next.iter().map(|batch| batch.ops.capacity()).sum();
    let workers = shards
        .into_iter()
        .map(|shard| {
            // nc-lint: allow(panic) — a panic inside an op was re-raised
            // above; a poisoned shard that got this far is an executor bug.
            let shard = shard.into_inner().expect("no thread panicked in a shard");
            op_capacity += shard.batch.ops.capacity();
            shard.worker
        })
        .collect();
    (workers, op_capacity)
}

/// Deals node `i` (engines, metrics, crash snapshots — every configuration)
/// to worker `i % threads`; its local index there is `i / threads`.
pub(crate) fn deal(env: &SimEnv, state: &mut EngineState, threads: usize) -> Vec<Worker> {
    let n = env.topology.len();
    let run_count = state.runs.len();
    let mut workers: Vec<Worker> = (0..threads)
        .map(|_| Worker {
            threads,
            runs: Vec::with_capacity(run_count),
            events: Vec::new(),
            evicted: Vec::new(),
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
pub(crate) fn reassemble(
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
        // never collide and the merged contents equal a one-worker run's
        // (rebalance counters are layout diagnostics and may differ).
        if let Some(target) = run.index.as_mut() {
            for part in &index_parts {
                for (id, coordinate) in part.iter() {
                    let _ = target.update(*id, &coordinate);
                }
            }
        }
    }
    // The direct form of what the byte-comparison suites infer: the planner
    // fed its ledgers what the engines fed theirs, and every crash snapshot
    // still unclaimed holds the ledger the planner keeps for its restart —
    // the one `ledger_groups` seeds a later run with. Always on — it is one
    // comparison per node and configuration per run.
    for group in groups {
        for &index in &group.runs {
            let run = &state.runs[index];
            let engines = run.nodes.iter().zip(&state.crash_snapshots[index]);
            let planned = group.nodes.iter().zip(&group.crashed);
            for (node, ((engine, snapshot), (planned, crashed))) in engines.zip(planned).enumerate()
            {
                assert!(
                    engine.ledger() == planned,
                    "node {node} of configuration {:?}: the engine's probe ledger \
                     diverged from the planner's\n engine: {:?}\nplanner: {planned:?}",
                    run.name,
                    engine.ledger(),
                );
                let snapshot = snapshot
                    .as_ref()
                    .map(|snapshot| ProbeLedger::import(group.threshold, snapshot));
                assert!(
                    snapshot == *crashed,
                    "node {node} of configuration {:?}: the crash snapshot's probe \
                     ledger diverged from the planner's\nsnapshot: {snapshot:?}\n planner: {crashed:?}",
                    run.name,
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
    use crate::scenario::{Scenario, ScenarioAction};
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

    fn serial_text(simulator: Simulator) -> String {
        format!("{:?}", simulator.with_serial_execution(true).run())
    }

    fn streamed_text(
        mut simulator: Simulator,
        shards: usize,
        helpers: usize,
        epoch_events: usize,
    ) -> (String, PlanFootprint) {
        let (report, footprint) = simulator.run_streamed(shards, helpers, epoch_events);
        (format!("{report:?}"), footprint)
    }

    #[test]
    fn auto_workers_is_one_per_core_capped_at_one_per_64_nodes() {
        assert_eq!(auto_workers(127, 8), 1);
        assert_eq!(auto_workers(128, 1), 1);
        assert_eq!(auto_workers(128, 2), 2);
        assert_eq!(auto_workers(1_024, 2), 2);
        assert_eq!(auto_workers(1_024, 64), 16);
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
        let serial = serial_text(reply_in_flight(disruption()));
        for threads in 1..=3 {
            for epoch_events in [1, 7] {
                let (streamed, footprint) = under_watchdog(move || {
                    streamed_text(
                        reply_in_flight(disruption()),
                        threads,
                        threads - 1,
                        epoch_events,
                    )
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
            streamed_text(simulator, 2, 1, 256).1
        };
        let one_hour = footprint(1.0);
        // Two shards, two sets of batches: the one executing and the one
        // being planned.
        assert_eq!(one_hour.op_capacity, 4 * 256);
        assert_eq!(footprint(4.0).op_capacity, one_hour.op_capacity);
    }

    /// Twelve nodes under 5 % loss and asymmetric delays.
    fn lossy() -> Simulator {
        Simulator::new(
            PlanetLabConfig::small(12).with_seed(7).with_link_config(
                LinkModelConfig::default()
                    .with_loss_probability(0.05)
                    .with_delay_asymmetry(0.2),
            ),
            SimConfig::new(600.0, 5.0)
                .with_measurement_start(0.0)
                .with_initial_neighbors(4),
            vec![("mp".to_string(), NodeConfig::paper_defaults())],
        )
    }

    /// Joins, a leave and crashes with snapshot restarts, two configurations
    /// with differing eviction thresholds, tracked coordinates.
    fn churn() -> Simulator {
        let scenario = Scenario::crash_restart(vec![1, 2, 7], 200.0, 330.0)
            .with_initially_down(vec![10, 11])
            .at(
                150.0,
                ScenarioAction::Join {
                    nodes: vec![10, 11],
                },
            )
            .at(400.0, ScenarioAction::Leave { nodes: vec![3] });
        Simulator::new(
            PlanetLabConfig::small(12)
                .with_seed(5)
                .with_link_config(LinkModelConfig::default().with_loss_probability(0.02)),
            SimConfig::new(600.0, 5.0)
                .with_measurement_start(0.0)
                .with_initial_neighbors(4)
                .with_tracked_nodes(vec![0, 5], 60.0),
            vec![
                (
                    "mp".to_string(),
                    NodeConfig::builder().max_consecutive_losses(3).build(),
                ),
                ("raw".to_string(), NodeConfig::original_vivaldi()),
            ],
        )
        .with_scenario(scenario)
    }

    /// A partition that comes up under replies in flight and heals.
    fn partition() -> Simulator {
        Simulator::new(
            PlanetLabConfig::small(12).with_seed(13),
            SimConfig::new(600.0, 5.0)
                .with_measurement_start(0.0)
                .with_initial_neighbors(4),
            vec![("mp".to_string(), NodeConfig::paper_defaults())],
        )
        .with_scenario(Scenario::new().at(
            200.0,
            ScenarioAction::Partition {
                group: vec![0, 1, 2, 4],
                heal_at_s: 400.0,
            },
        ))
    }

    /// The calling thread alone drives every shard of every epoch it plans,
    /// with no helper to run the op another shard waits for: it finishes
    /// only if the lowest op among the shards' next ones is always ready.
    #[test]
    fn one_thread_alone_runs_every_shard_of_every_epoch() {
        let families = [
            ("loss", lossy as fn() -> Simulator),
            ("churn", churn),
            ("partition", partition),
        ];
        for (family, build) in families {
            let serial = serial_text(build());
            for shards in [2, 3] {
                for epoch_events in [1, 7, 64, 4_096] {
                    let (streamed, _) =
                        under_watchdog(move || streamed_text(build(), shards, 0, epoch_events));
                    assert_eq!(
                        streamed, serial,
                        "{family}: {shards} shards, {epoch_events} events per epoch"
                    );
                }
            }
        }
    }

    /// A worker with no configurations: its ops pass cells on and touch
    /// nothing else.
    fn bare_worker(threads: usize) -> Worker {
        Worker {
            threads,
            runs: Vec::new(),
            events: Vec::new(),
            evicted: Vec::new(),
        }
    }

    /// One shard digests a reply that only the other shard's second op
    /// publishes, and that shard's first op names a slot beyond the slab.
    /// Whichever thread runs it panics; the other must notice the poisoned
    /// shard instead of waiting for the reply, and the run must re-raise the
    /// panic instead of hanging.
    #[test]
    fn a_panic_inside_an_op_is_reraised_not_a_hang() {
        for helpers in [0, 1] {
            for faulty in [0, 1] {
                let message = under_watchdog(move || {
                    let workers = vec![bare_worker(2), bare_worker(2)];
                    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        execute(workers, helpers, 4, |batches| {
                            batches[1 - faulty].ops.push(PlanOp::Digest {
                                src: 0,
                                slot: 0,
                                turn: 1,
                                measuring: false,
                                now: 0.0,
                            });
                            batches[faulty].ops.extend([
                                PlanOp::DropReply {
                                    src: 0,
                                    slot: 9,
                                    turn: 1,
                                },
                                PlanOp::Respond {
                                    dst: 0,
                                    slot: 0,
                                    turn: 1,
                                    lie: None,
                                    seq: 0,
                                    sent_at_ms: 0,
                                    rtt_ms: 1.0,
                                    publish: true,
                                },
                            ]);
                            Planned {
                                more: false,
                                cells: 1,
                            }
                        })
                    }));
                    let panic = run.err()?;
                    panic.downcast_ref::<String>().cloned().or_else(|| {
                        panic
                            .downcast_ref::<&str>()
                            .map(|message| message.to_string())
                    })
                });
                assert!(
                    message
                        .as_deref()
                        .is_some_and(|message| message.contains("index out of bounds")),
                    "{helpers} helpers, faulty shard {faulty}: {message:?}"
                );
            }
        }
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
            let serial = serial_text(build(&op_words));
            for epoch_events in [1usize, 7, 64, 4_096] {
                let words = op_words.clone();
                let (streamed, _) = under_watchdog(move || {
                    streamed_text(build(&words), threads, threads - 1, epoch_events)
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
