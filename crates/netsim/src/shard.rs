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
//! This module splits the two into phases:
//!
//! 1. **Plan (serial).** Replay the exact event loop against the real
//!    [`ScheduleState`], but with a lightweight per-node *mirror* of the only
//!    engine state that feeds back into the schedule (pending probes, loss
//!    streaks, the probe sequence counter). The replay emits a per-shard list
//!    of engine operations in global event order, plus one [`ExchangeRec`]
//!    per delivered probe.
//! 2. **Execute (parallel).** Worker `w` owns every node with
//!    `index % threads == w` (across all named configurations) and runs its
//!    operation list in order. The only cross-shard data flow is a probe
//!    response travelling from the responder's shard to the prober's shard;
//!    it moves through a slab of epoch-versioned [`SlotCell`]s with
//!    acquire/release handshakes, so the steady state recycles response
//!    buffers exactly like the serial path and never locks.
//!
//! Because phase 1 performs byte-identical schedule decisions and phase 2
//! performs byte-identical engine calls in a per-node order equal to the
//! serial interleaving, the resulting [`crate::metrics::SimReport`] is
//! byte-identical to serial execution — a contract enforced by the
//! regression and property-test suites.
//!
//! The mirror is sufficient because the engine influences the schedule
//! through exactly three facts (see `StableNode`): whether a timeout
//! correlates with a pending probe, whether a loss streak reaches the
//! eviction threshold, and which sequence number a probe carries. All three
//! are pure functions of the mirrored state. Uniform eviction thresholds
//! across configurations are required (the same condition the
//! per-configuration parallel path already imposes); `Simulator::run` falls
//! back to the serial path otherwise.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU32, Ordering};

use nc_proto::{Event, NodeSnapshot, ProbeRequest, ProbeResponse};
use nc_query::CoordinateIndex;
use rand::Rng;
use stable_nc::{FxHashMap, NodeConfig, StableNode};

use crate::adversary::{apply_lie, CoordinateLie};
use crate::metrics::{NodeMetrics, TrackedCoordinate};
use crate::scenario::ScenarioAction;
use crate::sim::{
    feed_query_index, fold_events, EngineState, EventQueue, PartitionWindow, ScheduleState, SimEnv,
    SimEvent, TICK_LANE, TIMEOUT_LANE,
};

/// One engine operation for one node, emitted by the planner in global
/// event order. Node-addressed variants carry the global node index; probe
/// exchanges are addressed through their [`ExchangeRec`].
#[derive(Debug, Clone, Copy)]
enum PlanOp {
    /// `probe_request_for(dst, now_ms)` on every configuration's `node`.
    Issue { node: u32, dst: u32, now_ms: u64 },
    /// The responder's side of exchange `rec`: build the responses and
    /// publish them to the prober's shard.
    Respond { rec: u32 },
    /// The prober's side of exchange `rec`: digest the published responses.
    Digest { rec: u32, now: f64, measuring: bool },
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

/// One delivered probe exchange: everything both shards need to replay it
/// without touching each other's engines. The request is reconstructed on
/// the responder's shard from `(dst, seq, sent_at_ms)` — simulator probes
/// carry no other payload.
struct ExchangeRec {
    src: u32,
    dst: u32,
    seq: u64,
    sent_at_ms: u64,
    rtt_ms: f64,
    /// Index into the executor's [`SlotCell`] slab.
    slot: u32,
    /// 1-based use counter of `slot`; gates the publish/consume handshake.
    epoch: u32,
    /// False when the reply never reaches the prober (reverse loss, crash,
    /// partition): the responder then consumes its own slot use.
    has_digest: bool,
    /// The coordinate lie drawn for this exchange (adversarial responder),
    /// applied to every configuration's response at `Respond` time —
    /// exactly where the serial loop applies it.
    lie: Option<CoordinateLie>,
}

/// The planner's output: per-shard operation lists (each in global event
/// order), the exchange records they reference, and the slot-slab size.
struct Plan {
    shard_ops: Vec<Vec<PlanOp>>,
    recs: Vec<ExchangeRec>,
    slot_count: usize,
    scenario_actions: u64,
    events_popped: u64,
}

/// The per-node mirror of the engine state that feeds back into the shared
/// schedule. Mirrors `StableNode`'s pending-probe table, loss streaks and
/// probe sequence counter — nothing else, because nothing else the engine
/// does can alter who gets probed when.
#[derive(Debug, Default, Clone)]
struct MirrorNode {
    probe_seq: u64,
    pending: Vec<MirrorPending>,
    streaks: FxHashMap<usize, u32>,
}

#[derive(Debug, Clone, Copy)]
struct MirrorPending {
    seq: u64,
    target: usize,
}

impl MirrorNode {
    /// Mirrors `probe_request_for`: registers the pending probe and returns
    /// the sequence number the engines will assign.
    fn issue(&mut self, target: usize) -> u64 {
        let seq = self.probe_seq;
        self.probe_seq = self.probe_seq.wrapping_add(1);
        self.pending.push(MirrorPending { seq, target });
        seq
    }

    /// Mirrors the pending/streak effects of `handle_response_into`: a
    /// correlated reply settles its pending entry and clears the streak; an
    /// uncorrelated one is ignored (once the node has ever issued a probe)
    /// and changes nothing.
    fn response(&mut self, responder: usize, seq: u64) {
        match self
            .pending
            .iter()
            .position(|probe| probe.seq == seq && probe.target == responder)
        {
            Some(position) => {
                self.pending.remove(position);
            }
            None if self.probe_seq > 0 => return,
            None => {}
        }
        self.streaks.remove(&responder);
    }

    /// Mirrors `handle_timeout_into`: returns the lost probe's target (if
    /// the timeout still correlates) and whether the loss streak evicted it.
    /// Eviction also releases every other pending probe of the same target,
    /// exactly as `StableNode::evict` does.
    fn timeout(&mut self, seq: u64, max_losses: Option<u32>) -> (Option<usize>, bool) {
        let Some(position) = self.pending.iter().position(|probe| probe.seq == seq) else {
            return (None, false);
        };
        let target = self.pending.remove(position).target;
        let streak = self.streaks.entry(target).or_insert(0);
        *streak = streak.saturating_add(1);
        let streak = *streak;
        let mut evicted = false;
        if let Some(max) = max_losses {
            if streak >= max {
                self.streaks.remove(&target);
                self.pending.retain(|probe| probe.target != target);
                evicted = true;
            }
        }
        (Some(target), evicted)
    }

    /// Mirrors `expire_pending(now, 0)` at a restart: every outstanding
    /// probe times out, oldest first; returns the targets evicted along the
    /// way in event order.
    fn expire_all(&mut self, max_losses: Option<u32>) -> Vec<usize> {
        let mut evicted = Vec::new();
        while let Some(first) = self.pending.first() {
            let seq = first.seq;
            let (target, did_evict) = self.timeout(seq, max_losses);
            if did_evict {
                if let Some(target) = target {
                    evicted.push(target);
                }
            }
        }
        evicted
    }
}

/// One slot of the cross-shard response slab. `data` holds one response per
/// named configuration and is reused across exchanges (epochs), keeping the
/// steady-state parallel path as allocation-free as the serial one.
///
/// Protocol: the responder of epoch `e` first waits for `consumed == e - 1`
/// (the previous use is fully digested), writes the responses, then either
/// stores `published = e` (a digest is coming) or `consumed = e` (the reply
/// was lost in flight; it consumes its own use). The prober waits for
/// `published == e`, reads, and stores `consumed = e`. Every wait is on an
/// operation strictly earlier in the planner's global order, so the
/// executor can never deadlock.
struct SlotCell {
    published: AtomicU32,
    consumed: AtomicU32,
    data: UnsafeCell<Vec<ProbeResponse<usize>>>,
}

// SAFETY: access to `data` is serialized by the published/consumed epoch
// handshake — at any instant at most one worker holds the right to touch
// the vector, and the Acquire/Release pairs order those accesses.
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
    fn execute(&mut self, ops: &[PlanOp], recs: &[ExchangeRec], cells: &[SlotCell]) {
        for op in ops {
            match *op {
                PlanOp::Issue { node, dst, now_ms } => {
                    let local = node as usize / self.threads;
                    for run in &mut self.runs {
                        let _ = run.nodes[local].probe_request_for(dst as usize, now_ms);
                        run.metrics[local].probes_sent += 1;
                    }
                }
                PlanOp::Respond { rec } => {
                    let rec = &recs[rec as usize];
                    let local = rec.dst as usize / self.threads;
                    let cell = &cells[rec.slot as usize];
                    while cell.consumed.load(Ordering::Acquire) != rec.epoch - 1 {
                        std::thread::yield_now();
                    }
                    // SAFETY: the epoch handshake above grants this worker
                    // exclusive access until it stores published/consumed.
                    let responses = unsafe { &mut *cell.data.get() };
                    let request = ProbeRequest::new(rec.dst as usize, rec.seq, rec.sent_at_ms);
                    for (index, run) in self.runs.iter_mut().enumerate() {
                        if responses.len() <= index {
                            let response = run.nodes[local].respond(&request);
                            responses.push(response);
                        } else {
                            run.nodes[local].respond_into(&request, &mut responses[index]);
                        }
                        responses[index].rtt_ms = rec.rtt_ms;
                        if let Some(lie) = &rec.lie {
                            apply_lie(&mut responses[index], lie);
                        }
                    }
                    if rec.has_digest {
                        cell.published.store(rec.epoch, Ordering::Release);
                    } else {
                        cell.consumed.store(rec.epoch, Ordering::Release);
                    }
                }
                PlanOp::Digest {
                    rec,
                    now,
                    measuring,
                } => {
                    let rec = &recs[rec as usize];
                    let local = rec.src as usize / self.threads;
                    let cell = &cells[rec.slot as usize];
                    while cell.published.load(Ordering::Acquire) != rec.epoch {
                        std::thread::yield_now();
                    }
                    // SAFETY: published == epoch means the responder is done
                    // writing; no one else touches the cell until we store
                    // `consumed`.
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
                        feed_query_index(run.index.as_mut(), rec.src as usize, &self.events);
                    }
                    cell.consumed.store(rec.epoch, Ordering::Release);
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
                        let events = revived.expire_pending(now_ms, 0);
                        fold_events(&mut run.metrics[local], now, false, &events);
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

/// Runs the simulation to completion with engine work sharded across
/// `threads` workers, leaving `state` (metrics, engines, schedule, crash
/// snapshots) byte-identical to what serial execution would have produced.
pub(crate) fn run_sharded(env: &SimEnv, state: &mut EngineState, threads: usize) {
    let max_losses = state.runs[0].config.max_consecutive_losses;
    let plan = build_plan(env, &mut state.schedule, max_losses, threads);
    state.events_popped = plan.events_popped;
    execute_plan(env, state, &plan, threads);
}

/// Phase 1: the serial schedule replay. Mutates `schedule` exactly as the
/// engine-driven loop would and returns the operation lists for phase 2.
fn build_plan(
    env: &SimEnv,
    schedule: &mut ScheduleState,
    max_losses: Option<u32>,
    threads: usize,
) -> Plan {
    let n = env.topology.len();
    let duration = env.sim_config.duration_s;
    let mut queue: EventQueue<SimEvent> = EventQueue::new();
    let mut mirrors: Vec<MirrorNode> = vec![MirrorNode::default(); n];
    let mut mirror_snapshots: Vec<Option<MirrorNode>> = vec![None; n];
    let mut shard_ops: Vec<Vec<PlanOp>> = (0..threads).map(|_| Vec::new()).collect();
    let mut recs: Vec<ExchangeRec> = Vec::new();
    let mut free_slots: Vec<u32> = Vec::new();
    let mut slot_epochs: Vec<u32> = Vec::new();
    let mut scenario_actions = 0u64;
    let mut track_sample = 0u32;

    for &node in env.scenario.initially_down() {
        schedule.alive[node] = false;
    }
    for (index, event) in env.scenario.events().iter().enumerate() {
        if event.at_s < duration {
            queue.schedule(event.at_s, SimEvent::ScenarioAction { index });
        }
    }
    for src in 0..n {
        if schedule.alive[src] {
            schedule.probe_cycle_active[src] = true;
            queue.schedule_timer(TICK_LANE, 0.0, SimEvent::ProbeSend { src });
        }
    }
    if !env.sim_config.track_nodes.is_empty() {
        queue.schedule(0.0, SimEvent::TrackSample);
    }

    while let Some((now, event)) = queue.pop() {
        if now >= duration {
            break;
        }
        match event {
            SimEvent::ProbeSend { src } => {
                schedule
                    .active_partitions
                    .retain(|window| window.heal_at_s > now);
                if !schedule.alive[src] {
                    schedule.probe_cycle_active[src] = false;
                    continue;
                }
                let next_tick = now + env.sim_config.probe_interval_s;
                if next_tick < duration {
                    queue.schedule_timer(TICK_LANE, next_tick, SimEvent::ProbeSend { src });
                } else {
                    schedule.probe_cycle_active[src] = false;
                }
                let neighbor_count = schedule.neighbor_sets[src].len();
                if neighbor_count == 0 {
                    continue;
                }
                // bounds: the cursor is reduced modulo neighbor_count == len.
                let dst = schedule.neighbor_sets[src][schedule.round_robin[src] % neighbor_count];
                schedule.round_robin[src] = schedule.round_robin[src].wrapping_add(1);
                if dst == src {
                    continue;
                }
                let draw = schedule.sample_exchange(env, src, dst, now);
                let now_ms = (now * 1_000.0) as u64;
                let seq = mirrors[src].issue(dst);
                // bounds: src % threads < threads == shard_ops.len().
                shard_ops[src % threads].push(PlanOp::Issue {
                    node: src as u32,
                    dst: dst as u32,
                    now_ms,
                });
                queue.schedule_timer(
                    TIMEOUT_LANE,
                    now + env.sim_config.probe_timeout_s,
                    SimEvent::ProbeTimeout { src, seq },
                );
                if draw.forward_lost || schedule.partitioned(src, dst, now) {
                    continue;
                }
                // The record is created only for probes that actually reach
                // their target; the ProbeDeliver event carries its index in
                // the `slot` field.
                let rec_index = recs.len();
                recs.push(ExchangeRec {
                    src: src as u32,
                    dst: dst as u32,
                    seq,
                    sent_at_ms: now_ms,
                    rtt_ms: draw.rtt_ms,
                    slot: u32::MAX,
                    epoch: 0,
                    has_digest: false,
                    lie: None,
                });
                queue.schedule(
                    now + draw.forward_delay_s,
                    SimEvent::ProbeDeliver {
                        src,
                        dst,
                        slot: rec_index,
                        rtt_ms: draw.rtt_ms,
                        reverse_delay_s: draw.reverse_delay_s,
                        reverse_lost: draw.reverse_lost,
                    },
                );
            }
            SimEvent::ProbeDeliver {
                src,
                dst,
                slot: rec_index,
                reverse_delay_s,
                reverse_lost,
                ..
            } => {
                if !schedule.alive[dst] || schedule.partitioned(src, dst, now) {
                    continue;
                }
                // Adversary draw: same point of the schedule as the serial
                // loop's `on_probe_deliver`, so the dedicated adversary RNG
                // advances identically and serial/sharded runs stay
                // byte-identical.
                let adversary = schedule.sample_adversary(dst);
                let reverse_delay_s = match &adversary {
                    Some(draw) => reverse_delay_s + draw.extra_delay_ms / 1_000.0,
                    None => reverse_delay_s,
                };
                let slot = free_slots.pop().unwrap_or_else(|| {
                    slot_epochs.push(0);
                    (slot_epochs.len() - 1) as u32
                });
                slot_epochs[slot as usize] += 1;
                let rec = &mut recs[rec_index];
                rec.slot = slot;
                rec.epoch = slot_epochs[slot as usize];
                if let Some(draw) = adversary {
                    rec.rtt_ms += draw.extra_delay_ms;
                    rec.lie = draw.lie;
                }
                // bounds: dst % threads < threads == shard_ops.len().
                shard_ops[dst % threads].push(PlanOp::Respond {
                    rec: rec_index as u32,
                });
                if reverse_lost {
                    free_slots.push(slot);
                    continue;
                }
                queue.schedule(
                    now + reverse_delay_s,
                    SimEvent::ResponseDeliver {
                        src,
                        dst,
                        slot: rec_index,
                    },
                );
            }
            SimEvent::ResponseDeliver {
                src,
                dst,
                slot: rec_index,
            } => {
                let slot = recs[rec_index].slot;
                if !schedule.alive[src] || schedule.partitioned(src, dst, now) {
                    free_slots.push(slot);
                    continue;
                }
                let measuring = now >= env.sim_config.measurement_start_s;
                recs[rec_index].has_digest = true;
                mirrors[src].response(dst, recs[rec_index].seq);
                // bounds: src % threads < threads == shard_ops.len().
                shard_ops[src % threads].push(PlanOp::Digest {
                    rec: rec_index as u32,
                    now,
                    measuring,
                });
                free_slots.push(slot);
                if env.sim_config.gossip && !schedule.neighbor_sets[dst].is_empty() {
                    let idx = schedule
                        .protocol_rng
                        .gen_range(0..schedule.neighbor_sets[dst].len());
                    let learned = schedule.neighbor_sets[dst][idx];
                    if learned != src {
                        schedule.neighbor_add(src, learned);
                    }
                }
            }
            SimEvent::ProbeTimeout { src, seq } => {
                if !schedule.alive[src] {
                    continue;
                }
                // bounds: src % threads < threads == shard_ops.len().
                shard_ops[src % threads].push(PlanOp::Timeout {
                    node: src as u32,
                    seq,
                });
                let (target, evicted) = mirrors[src].timeout(seq, max_losses);
                if evicted {
                    if let Some(dst) = target {
                        schedule.neighbor_remove(src, dst);
                    }
                }
            }
            SimEvent::TrackSample => {
                for (order, &node) in env.sim_config.track_nodes.iter().enumerate() {
                    // bounds: node % threads < threads == shard_ops.len().
                    shard_ops[node % threads].push(PlanOp::Track {
                        node: node as u32,
                        sample: track_sample,
                        order: order as u32,
                        now,
                    });
                }
                track_sample += 1;
                let next = now + env.sim_config.track_interval_s;
                if next < duration {
                    queue.schedule(next, SimEvent::TrackSample);
                }
            }
            SimEvent::ScenarioAction { index } => {
                scenario_actions += 1;
                let action = env.scenario.events()[index].action.clone();
                match action {
                    ScenarioAction::Join { nodes } => {
                        for node in nodes {
                            plan_bring_up(
                                env,
                                schedule,
                                &mut mirrors,
                                &mut mirror_snapshots,
                                &mut shard_ops,
                                max_losses,
                                threads,
                                now,
                                node,
                                true,
                                &mut queue,
                            );
                        }
                    }
                    ScenarioAction::Leave { nodes } => {
                        for node in nodes {
                            schedule.alive[node] = false;
                            for other in 0..schedule.neighbor_sets.len() {
                                schedule.neighbor_remove(other, node);
                            }
                        }
                    }
                    ScenarioAction::Crash { nodes } => {
                        for node in nodes {
                            if !schedule.alive[node] {
                                continue;
                            }
                            schedule.alive[node] = false;
                            mirror_snapshots[node] = Some(mirrors[node].clone());
                            // bounds: node % threads < threads == shard_ops.len().
                            shard_ops[node % threads].push(PlanOp::Crash { node: node as u32 });
                        }
                    }
                    ScenarioAction::Restart { nodes } => {
                        for node in nodes {
                            plan_bring_up(
                                env,
                                schedule,
                                &mut mirrors,
                                &mut mirror_snapshots,
                                &mut shard_ops,
                                max_losses,
                                threads,
                                now,
                                node,
                                false,
                                &mut queue,
                            );
                        }
                    }
                    ScenarioAction::Partition { group, heal_at_s } => {
                        plan_partition(env, schedule, &group, heal_at_s);
                    }
                    ScenarioAction::PartitionRegions { regions, heal_at_s } => {
                        let group: Vec<usize> = regions
                            .iter()
                            .flat_map(|&region| env.topology.nodes_in_region(region))
                            .collect();
                        plan_partition(env, schedule, &group, heal_at_s);
                    }
                    ScenarioAction::SetAdversary { nodes, model } => {
                        for node in nodes {
                            schedule.adversaries[node] = model.clone();
                        }
                    }
                }
            }
        }
    }

    Plan {
        shard_ops,
        recs,
        slot_count: slot_epochs.len(),
        scenario_actions,
        events_popped: queue.popped(),
    }
}

/// The planner's mirror of `EngineState::bring_up`: identical schedule
/// mutations (including the restart-expiry evictions), a `Restore` op
/// instead of the engine work.
#[allow(clippy::too_many_arguments)] // the planner's full mutable context; bundling it into a struct would just rename the borrows
fn plan_bring_up(
    env: &SimEnv,
    schedule: &mut ScheduleState,
    mirrors: &mut [MirrorNode],
    mirror_snapshots: &mut [Option<MirrorNode>],
    shard_ops: &mut [Vec<PlanOp>],
    max_losses: Option<u32>,
    threads: usize,
    now: f64,
    node: usize,
    fresh: bool,
    queue: &mut EventQueue<SimEvent>,
) {
    if schedule.alive[node] {
        return;
    }
    schedule.alive[node] = true;
    let now_ms = (now * 1_000.0) as u64;
    let mut revived = if fresh {
        MirrorNode::default()
    } else {
        mirror_snapshots[node].take().unwrap_or_default()
    };
    let evicted = revived.expire_all(max_losses);
    mirrors[node] = revived;
    // bounds: node % threads < threads == shard_ops.len().
    shard_ops[node % threads].push(PlanOp::Restore {
        node: node as u32,
        fresh,
        now,
        now_ms,
    });
    for target in evicted {
        schedule.neighbor_remove(node, target);
    }
    if fresh {
        schedule.round_robin[node] = 0;
        let n = env.topology.len();
        let want = env.sim_config.initial_neighbors.min(
            schedule
                .alive
                .iter()
                .filter(|&&up| up)
                .count()
                .saturating_sub(1),
        );
        let mut set = Vec::new();
        let mut attempts = 0;
        while set.len() < want && attempts < n * 16 {
            attempts += 1;
            let candidate = schedule.protocol_rng.gen_range(0..n);
            if candidate != node && schedule.alive[candidate] && !set.contains(&candidate) {
                set.push(candidate);
            }
        }
        for &seed in &set {
            schedule.neighbor_add(seed, node);
        }
        schedule.neighbor_replace(node, set);
    }
    if !schedule.probe_cycle_active[node] {
        schedule.probe_cycle_active[node] = true;
        queue.schedule(now, SimEvent::ProbeSend { src: node });
    }
}

fn plan_partition(env: &SimEnv, schedule: &mut ScheduleState, group: &[usize], heal_at_s: f64) {
    let mut members = vec![false; env.topology.len()];
    for &node in group {
        members[node] = true;
    }
    schedule
        .active_partitions
        .push(PartitionWindow { heal_at_s, members });
}

/// Phase 2: split the engines across workers, run every shard's operation
/// list in parallel, and reassemble `state` in the original order.
fn execute_plan(env: &SimEnv, state: &mut EngineState, plan: &Plan, threads: usize) {
    let n = env.topology.len();
    let run_count = state.runs.len();
    let cells: Vec<SlotCell> = (0..plan.slot_count).map(|_| SlotCell::new()).collect();

    // Deal node `i` (engines, metrics, crash snapshots — every
    // configuration) to worker `i % threads`; local index is `i / threads`.
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

    let recs = &plan.recs;
    let cells_ref = &cells;
    let finished: Vec<Worker> = std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .into_iter()
            .zip(plan.shard_ops.iter())
            .map(|(mut worker, ops)| {
                scope.spawn(move || {
                    worker.execute(ops, recs, cells_ref);
                    worker
                })
            })
            .collect();
        handles
            .into_iter()
            // nc-lint: allow(panic) — a panicking worker already poisoned
            // the run; re-raising it here is the contract.
            .map(|handle| handle.join().expect("sharded simulation worker panicked"))
            .collect()
    });

    // Reassemble in global node order, stitch tracked samples back into the
    // serial emission order, and restore unclaimed crash snapshots.
    let mut per_worker: Vec<Vec<WorkerRun>> =
        finished.into_iter().map(|worker| worker.runs).collect();
    for run_index in (0..run_count).rev() {
        let mut shards: Vec<WorkerRun> = per_worker
            .iter_mut()
            // nc-lint: allow(panic) — every worker was built with run_count
            // runs a few lines up; parity is structural.
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
        run.metrics.scenario_ops += plan.scenario_actions;
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
}
