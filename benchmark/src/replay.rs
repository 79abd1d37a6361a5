//! The traced run of the three simulator workloads.
//!
//! `Simulator::run` is opaque from outside, so the per-layer numbers come
//! from a *stage replay*: the workload's topology, node count, neighbour
//! count, link model and node configuration, one `StableNode<usize>` per
//! node, an `EventQueue` and per-link `LinkModel`s, driven through public
//! calls only. A round is one probe tick of every node, run stage by stage
//! (expire → next_probe → link draw → schedule → pop → respond → schedule →
//! pop → handle_response), so the calls of one operation are consecutive
//! and can be timed a batch at a time; every thirty-second round is spanned
//! call by call instead, which gives the trace file and the price of
//! tracing. The component stages (MP filter, Vivaldi, MAD gate, ENERGY,
//! RELATIVE) are then replayed singly on the RTTs and remote coordinates
//! the loop produced.

use nc_change::heuristics::{
    EnergyHeuristic, RelativeHeuristic, UpdateContext, UpdateDecision, UpdateHeuristic,
};
use nc_filters::moving_percentile::MovingPercentileFilter;
use nc_filters::LatencyFilter;
use nc_netsim::adversary::AdversaryModel;
use nc_netsim::linkmodel::LinkModel;
use nc_netsim::sim::EventQueue;
use nc_proto::{Event, ProbeRequest, ProbeResponse};
use nc_vivaldi::gate::OutlierGate;
use nc_vivaldi::state::{RemoteObservation, VivaldiState};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;
use stable_nc::{Coordinate, FxHashMap, NodeConfig, StableNode};

use crate::alloc::allocations;
use crate::clock::{calibrate_clock_ns, now_ns, seconds};
use crate::metrics::Outcome;
use crate::sim::{self, SimKind, SimSpec};
use crate::spans::{Tracer, ROOT};
use crate::{host, micro, stats, Options};

/// Exchanges the stage replay drives at full scale.
const REPLAY_EXCHANGES: usize = 200_000;
/// One round in this many is spanned call by call; the rest are batched.
const SPAN_EVERY: usize = 32;
/// Share of the run budget spent inside `Simulator::run` repetitions.
const SIMULATOR_SHARE: f64 = 0.4;

/// One observation the replay loop produced, kept for the component stages.
struct Observation {
    node: usize,
    peer: usize,
    rtt_ms: f64,
    remote: Coordinate,
    remote_error: f64,
}

/// One link draw: the observed RTT, the forward share of it, and the loss
/// decision of each direction.
#[derive(Clone, Copy, Default)]
struct Draw {
    rtt_ms: f64,
    forward_ms: f64,
    forward_lost: bool,
    reverse_lost: bool,
}

/// The per-operation self-time table of a tracer, for the detail record.
pub fn self_time_table(tracer: &Tracer) -> Value {
    Value::Seq(
        tracer
            .self_times()
            .into_iter()
            .map(|(op, spans, total_ns, self_ns)| {
                Value::Map(vec![
                    ("op".to_string(), Value::Str(op.to_string())),
                    ("spans".to_string(), Value::UInt(spans)),
                    ("total_ns".to_string(), Value::UInt(total_ns)),
                    ("self_ns".to_string(), Value::UInt(self_ns)),
                ])
            })
            .collect(),
    )
}

/// `--trace 1` for a simulator workload.
pub fn run(kind: SimKind, options: &Options, out: &mut Outcome) {
    let clock_ns = calibrate_clock_ns(10_000);
    let spec = kind.spec(options.seed, options.scale);

    let mut build_s: Vec<f64> = (0..5)
        .map(|_| {
            let start = now_ns();
            std::hint::black_box(spec.workload.build_topology());
            seconds(start, now_ns())
        })
        .collect();
    out.set("netsim.topology_build_s", stats::median(&mut build_s));

    // The real simulator: wall time, exact counts, memory growth.
    let reps = sim::repetitions(&spec, options.seconds * SIMULATOR_SHARE, 2, out);
    let last = &reps[reps.len() - 1];
    sim::check_gains(last, out);
    let run_s: Vec<f64> = reps.iter().map(|rep| rep.run_s).collect();
    let counts = last.counts;
    out.samples.insert("netsim.run_s", reps.len());
    out.set("netsim.run_s", stats::median_of(&run_s));
    out.set("netsim.run_s.iqr", stats::relative_iqr(&run_s));
    out.set(
        "netsim.ns_per_exchange",
        stats::median_of(&run_s) * 1e9 / counts.received.max(1) as f64,
    );
    out.set("netsim.probes_sent", counts.sent as f64);
    out.set("netsim.responses_received", counts.received as f64);
    out.set("netsim.probes_lost", counts.lost as f64);
    out.set("netsim.responses_ignored", counts.ignored as f64);
    out.set("netsim.observations_rejected", counts.rejected as f64);
    out.set("netsim.neighbors_evicted", counts.evicted as f64);
    out.set("netsim.scenario_ops", counts.scenario_ops as f64);
    out.set("netsim.app_updates", counts.app_updates as f64);
    out.set(
        "netsim.useful_ratio",
        counts.applied() as f64 / counts.sent.max(1) as f64,
    );
    out.set(
        "netsim.rss_growth_mb",
        host::peak_rss_mib() - reps[0].rss_before_mib,
    );
    if let Some((accuracy, stability)) = last.gains {
        out.set("netsim.accuracy_gain_x", accuracy);
        out.set("netsim.stability_gain_x", stability);
    }

    let mut tracer = Tracer::new(&options.workload);
    micro::event_queue(spec.nodes, out);
    micro::link_model(&spec, out);
    let observations = stage_replay(kind, &spec, options, &mut tracer, out);
    component_stages(&observations, &spec, &mut tracer, out);
    micro::harness(clock_ns, options.scale, out);

    let (recorded, dropped) = tracer.span_totals();
    out.note("spans", Value::UInt(recorded as u64));
    out.note("spans_dropped", Value::UInt(dropped));
    out.note("self_times", self_time_table(&tracer));
    let path = crate::out_dir().join(format!("trace-{}.jsonl", options.workload));
    if let Err(error) = tracer.write_jsonl(&path) {
        out.problem(format!("cannot write the trace file: {error}"));
    }
}

/// The configuration of the scored stack.
fn scored_config(spec: &SimSpec) -> NodeConfig {
    spec.configs
        .iter()
        .find(|(name, _)| name == spec.scored)
        .map_or_else(NodeConfig::paper_defaults, |(_, config)| config.clone())
}

/// A unit-length direction scaled to `length_ms`, as a displacement.
fn random_displacement(rng: &mut StdRng, length_ms: f64) -> Coordinate {
    let raw = [
        rng.gen_range(-1.0..1.0f64),
        rng.gen_range(-1.0..1.0),
        rng.gen_range(-1.0..1.0),
    ];
    let norm = raw.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-9);
    Coordinate::new(raw.map(|x| x / norm * length_ms)).unwrap_or_else(|_| Coordinate::origin(3))
}

/// Drives the engines through the workload's exchange pattern and returns
/// the observations they digested.
fn stage_replay(
    kind: SimKind,
    spec: &SimSpec,
    options: &Options,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Vec<Observation> {
    let n = spec.nodes;
    let config = scored_config(spec);
    let topology = spec.workload.build_topology();
    let link_config = spec.workload.link_config().clone();
    let interval_s = spec.schedule.probe_interval_s;
    let timeout_ms = (spec.schedule.probe_timeout_s * 1e3) as u64;
    let rounds = (REPLAY_EXCHANGES / options.scale)
        .div_ceil(n)
        .max(SPAN_EVERY + 1);
    let duration_s = rounds as f64 * interval_s;
    let mut rng = StdRng::seed_from_u64(options.seed);

    // Engines and their seeded neighbour sets: half ring successors, half
    // random members, as the simulator bootstraps them.
    let mut nodes: Vec<StableNode<usize>> =
        (0..n).map(|_| StableNode::new(config.clone())).collect();
    let want = spec.schedule.initial_neighbors.min(n - 1);
    for (i, node) in nodes.iter_mut().enumerate() {
        let mut added = 0;
        let mut k = 1;
        while added < want {
            let candidate = if added < want / 2 {
                (i + k) % n
            } else {
                rng.gen_range(0..n)
            };
            k += 1;
            if candidate != i && node.seed_neighbor(candidate) {
                added += 1;
            }
        }
    }
    let AdversaryModel::CoordinateLiar {
        displacement_ms: liar_displacement_ms,
        error_estimate: liar_error_estimate,
        ..
    } = sim::LIAR
    else {
        unreachable!("the hostile workload's adversary is a coordinate liar")
    };
    let liars: Vec<bool> = (0..n)
        .map(|_| kind == SimKind::Hostile && rng.gen_range(0.0..1.0) < sim::LIAR_FRACTION)
        .collect();
    let crash_set: Vec<usize> = if kind == SimKind::Hostile {
        (0..n / 4).collect()
    } else {
        Vec::new()
    };
    let (crash_round, restart_round) = (rounds / 3, rounds / 3 + rounds / 6);
    let mut alive = vec![true; n];
    let mut snapshots = Vec::new();

    let mut links: FxHashMap<u64, LinkModel> = FxHashMap::default();
    let mut queue: EventQueue<usize> = EventQueue::new();
    let placeholder = ProbeRequest::new(0usize, 0, 0);
    let mut requests: Vec<Option<ProbeRequest<usize>>> = vec![None; n];
    let mut responses: Vec<ProbeResponse<usize>> = (0..n)
        .map(|_| ProbeResponse::new(0, &placeholder, Coordinate::origin(3), 1.0))
        .collect();
    let mut draws = vec![Draw::default(); n];
    let mut events: Vec<Event<usize>> = Vec::with_capacity(64);
    let mut observations: Vec<Observation> = Vec::with_capacity(rounds * n);
    let everyone: Vec<usize> = (0..n).collect();
    let (mut probing, mut in_flight, mut order) = (Vec::new(), Vec::new(), Vec::new());

    let op_round = tracer.op("replay.round");
    let op_expire = tracer.op("core.expire_pending_into");
    let op_probe = tracer.op("core.next_probe");
    let op_link = tracer.op("netsim.link_draw");
    let op_schedule = tracer.op("netsim.queue_schedule");
    let op_pop = tracer.op("netsim.queue_pop");
    let op_respond = tracer.op("core.respond_into");
    let op_handle = tracer.op("core.handle_response_into");
    let op_snapshot = tracer.op("core.snapshot");
    let op_restore = tracer.op("core.restore");

    let (mut emitted, mut lost, mut evicted, mut rejected, mut ignored) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut batched_ns, mut batched_exchanges, mut spanned_ns, mut spanned_exchanges) =
        (0u64, 0u64, 0u64, 0u64);
    let mut batched_allocs = 0u64;

    for round in 0..rounds {
        let time_s = round as f64 * interval_s;
        let now_ms = (time_s * 1e3) as u64;
        let spanned = round % SPAN_EVERY == SPAN_EVERY - 1;
        let req_base = (round * n) as u32;

        // Scripted crash and snapshot restart (`sim-hostile` only).
        if round == crash_round {
            tracer.calls(op_snapshot, false, ROOT, req_base, &crash_set, |i| {
                snapshots.push((i, nodes[i].snapshot()));
                alive[i] = false;
            });
        }
        if round == restart_round {
            let restored: Vec<usize> = (0..snapshots.len()).collect();
            tracer.calls(op_restore, false, ROOT, req_base, &restored, |k| {
                let (i, snapshot) = &snapshots[k];
                if let Ok(node) = StableNode::restore(config.clone(), snapshot) {
                    nodes[*i] = node;
                }
                alive[*i] = true;
            });
            for (i, _) in &snapshots {
                // Probes in flight at the crash can never be answered.
                events.clear();
                nodes[*i].expire_pending_into(u64::MAX, 0, &mut events);
            }
        }

        let allocs_start = allocations();
        let round_start = now_ns();
        let parent = if spanned {
            tracer.open(op_round, ROOT, round as u32)
        } else {
            ROOT
        };

        tracer.calls(op_expire, spanned, parent, req_base, &everyone, |i| {
            if alive[i] {
                events.clear();
                nodes[i].expire_pending_into(now_ms, timeout_ms, &mut events);
                for event in &events {
                    match event {
                        Event::ProbeLost { .. } => lost += 1,
                        Event::NeighborEvicted { .. } => evicted += 1,
                        _ => {}
                    }
                }
            }
        });
        tracer.calls(op_probe, spanned, parent, req_base, &everyone, |i| {
            requests[i] = if alive[i] {
                nodes[i].next_probe(now_ms)
            } else {
                None
            };
        });
        probing.clear();
        probing.extend((0..n).filter(|i| requests[*i].is_some()));

        tracer.calls(op_link, spanned, parent, req_base, &probing, |i| {
            let Some(request) = &requests[i] else { return };
            let (lo, hi) = (i.min(request.target), i.max(request.target));
            let key = ((lo as u64) << 32) | hi as u64;
            let link = links.entry(key).or_insert_with(|| {
                LinkModel::new(
                    topology.base_rtt_ms(lo, hi),
                    link_config.clone(),
                    duration_s,
                    options
                        .seed
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(key),
                )
            });
            let rtt_ms = link.sample(time_s);
            let forward_lost = link.sample_loss();
            let reverse_lost = link.sample_loss();
            let (low_to_high_ms, high_to_low_ms) = link.one_way_split(rtt_ms);
            draws[i] = Draw {
                rtt_ms,
                forward_ms: if i == lo {
                    low_to_high_ms
                } else {
                    high_to_low_ms
                },
                forward_lost,
                reverse_lost,
            };
        });

        // Probes travel to their targets ...
        in_flight.clear();
        in_flight.extend(probing.iter().copied().filter(|i| !draws[*i].forward_lost));
        tracer.calls(op_schedule, spanned, parent, req_base, &in_flight, |i| {
            queue.schedule(time_s + draws[i].forward_ms / 1e3, i);
        });
        order.clear();
        tracer.calls(op_pop, spanned, parent, req_base, &in_flight, |_| {
            order.extend(queue.pop().map(|(_, i)| i));
        });
        // ... which answer unless they are down ...
        order.retain(|i| {
            requests[*i]
                .as_ref()
                .is_some_and(|request| alive[request.target])
        });
        tracer.calls(op_respond, spanned, parent, req_base, &order, |i| {
            let Some(request) = &requests[i] else { return };
            nodes[request.target].respond_into(request, &mut responses[i]);
            responses[i].rtt_ms = draws[i].rtt_ms;
        });
        for &i in &order {
            let response = &mut responses[i];
            // Here the engines' own membership is the probe schedule, so
            // gossip follows the workload's switch, and a node is never
            // taught its own address (the simulator's schedule skips it).
            if spec.schedule.gossip {
                response.gossip.retain(|entry| entry.id != i);
            } else {
                response.gossip.clear();
            }
            if liars[response.responder] {
                response
                    .coordinate
                    .displace_by(&random_displacement(&mut rng, liar_displacement_ms));
                response.error_estimate = liar_error_estimate;
            }
        }
        // ... and the replies travel back.
        in_flight.clear();
        in_flight.extend(order.iter().copied().filter(|i| !draws[*i].reverse_lost));
        tracer.calls(op_schedule, spanned, parent, req_base, &in_flight, |i| {
            queue.schedule(time_s + draws[i].rtt_ms / 1e3, i);
        });
        order.clear();
        tracer.calls(op_pop, spanned, parent, req_base, &in_flight, |_| {
            order.extend(queue.pop().map(|(_, i)| i));
        });
        tracer.calls(op_handle, spanned, parent, req_base, &order, |i| {
            events.clear();
            nodes[i].handle_response_into(&responses[i], &mut events);
            emitted += events.len() as u64;
            for event in &events {
                match event {
                    Event::ObservationRejected { .. } => rejected += 1,
                    Event::ResponseIgnored { .. } => ignored += 1,
                    _ => {}
                }
            }
        });

        tracer.close(parent);
        let round_ns = now_ns() - round_start;
        if spanned {
            spanned_ns += round_ns;
            spanned_exchanges += order.len() as u64;
        } else {
            batched_ns += round_ns;
            batched_exchanges += order.len() as u64;
            batched_allocs += allocations() - allocs_start;
        }
        for &i in &order {
            let response = &responses[i];
            observations.push(Observation {
                node: i,
                peer: response.responder,
                rtt_ms: response.rtt_ms,
                remote: response.coordinate.clone(),
                remote_error: response.error_estimate,
            });
        }
    }

    let exchanges = observations.len() as u64;
    out.attempted += exchanges;
    out.check(
        nodes.iter().all(|node| {
            node.system_coordinate()
                .components()
                .iter()
                .all(|x| x.is_finite())
                && node.error_estimate().is_finite()
        }),
        || "a replayed engine holds a non-finite coordinate".to_string(),
    );
    out.set("core.next_probe_ns", tracer.batch_ns("core.next_probe"));
    out.set("core.respond_ns", tracer.batch_ns("core.respond_into"));
    out.set(
        "core.handle_response_ns",
        tracer.batch_ns("core.handle_response_into"),
    );
    out.set(
        "core.expire_pending_ns",
        tracer.batch_ns("core.expire_pending_into"),
    );
    out.set(
        "core.snapshot_restore_us",
        (tracer.batch_ns("core.snapshot") + tracer.batch_ns("core.restore")) / 1e3,
    );
    out.set(
        "core.events_per_response",
        emitted as f64 / exchanges.max(1) as f64,
    );
    out.set(
        "core.allocs_per_exchange",
        batched_allocs as f64 / batched_exchanges.max(1) as f64,
    );
    if spanned_exchanges > 0 && batched_exchanges > 0 {
        let spanned_cost = spanned_ns as f64 / spanned_exchanges as f64;
        let batched_cost = batched_ns as f64 / batched_exchanges as f64;
        out.set(
            "bench.trace_overhead_share",
            spanned_cost / batched_cost - 1.0,
        );
        out.note("replay.ns_per_exchange", Value::Float(batched_cost));
    }
    out.note("replay.exchanges", Value::UInt(exchanges));
    out.note("replay.probes_lost", Value::UInt(lost));
    out.note("replay.neighbors_evicted", Value::UInt(evicted));
    out.note("replay.observations_rejected", Value::UInt(rejected));
    out.note("replay.responses_ignored", Value::UInt(ignored));
    observations
}

/// Replays each component of the observation pipeline singly, in batches,
/// on the inputs the loop recorded.
fn component_stages(
    observations: &[Observation],
    spec: &SimSpec,
    tracer: &mut Tracer,
    out: &mut Outcome,
) {
    let n = spec.nodes;
    let config = scored_config(spec);
    let all: Vec<usize> = (0..observations.len()).collect();

    // One MP filter per directed link, located outside the timed region.
    let mut link_of: FxHashMap<(usize, usize), usize> = FxHashMap::default();
    let link_index: Vec<usize> = observations
        .iter()
        .map(|obs| {
            let next = link_of.len();
            *link_of.entry((obs.node, obs.peer)).or_insert(next)
        })
        .collect();
    let mut filters = vec![MovingPercentileFilter::paper_defaults(); link_of.len()];
    let mut filtered = vec![0.0f64; observations.len()];
    let op = tracer.op("filters.mp_observe");
    tracer.calls(op, false, ROOT, 0, &all, |k| {
        filtered[k] = filters[link_index[k]]
            .observe(observations[k].rtt_ms)
            .unwrap_or(observations[k].rtt_ms);
    });

    // Vivaldi on the filtered stream; a second, untimed pass over fresh
    // states records the coordinate after each update and the residual
    // before it, which the gate and the heuristics consume.
    let inputs: Vec<RemoteObservation> = observations
        .iter()
        .zip(&filtered)
        .map(|(obs, rtt)| RemoteObservation::new(obs.remote.clone(), obs.remote_error, *rtt))
        .collect();
    let fresh = || vec![VivaldiState::new(config.vivaldi.clone()); n];
    let mut states = fresh();
    let op = tracer.op("vivaldi.observe");
    tracer.calls(op, false, ROOT, 0, &all, |k| {
        std::hint::black_box(states[observations[k].node].observe(&inputs[k]));
    });
    let mut states = fresh();
    let mut residuals = Vec::with_capacity(inputs.len());
    let mut systems = Vec::with_capacity(inputs.len());
    for (obs, input) in observations.iter().zip(&inputs) {
        let state = &mut states[obs.node];
        residuals.push(input.rtt_ms() - state.estimated_rtt_ms(&obs.remote));
        state.observe(input);
        systems.push(state.coordinate().clone());
    }

    if let Some(gate_config) = &config.outlier_gate {
        let mut gates = vec![OutlierGate::new(gate_config.clone()); n];
        let op = tracer.op("vivaldi.gate");
        tracer.calls(op, false, ROOT, 0, &all, |k| {
            let gate = &mut gates[observations[k].node];
            if gate.admits(residuals[k]) {
                gate.record(residuals[k]);
            }
        });
    }

    let mut published = vec![Coordinate::origin(config.vivaldi.dimensions()); n];
    let mut energy = vec![EnergyHeuristic::paper_defaults(); n];
    let context = UpdateContext::default();
    let mut publishes = 0u64;
    let op = tracer.op("change.energy");
    tracer.calls(op, false, ROOT, 0, &all, |k| {
        let node = observations[k].node;
        if let UpdateDecision::Publish(coordinate) =
            energy[node].on_system_update(&systems[k], &published[node], &context)
        {
            published[node] = coordinate;
            publishes += 1;
        }
    });

    // RELATIVE scales its trigger by the distance to the nearest neighbour:
    // the peer with the smallest filtered RTT seen so far.
    let mut nearest: Vec<Option<(f64, Coordinate)>> = vec![None; n];
    let contexts: Vec<UpdateContext> = observations
        .iter()
        .zip(&filtered)
        .map(|(obs, rtt)| {
            let slot = &mut nearest[obs.node];
            if slot.as_ref().is_none_or(|(best, _)| rtt < best) {
                *slot = Some((*rtt, obs.remote.clone()));
            }
            UpdateContext {
                nearest_neighbor: slot.as_ref().map(|(_, coordinate)| coordinate.clone()),
            }
        })
        .collect();
    let mut published = vec![Coordinate::origin(config.vivaldi.dimensions()); n];
    let mut relative = vec![RelativeHeuristic::paper_defaults(); n];
    let op = tracer.op("change.relative");
    tracer.calls(op, false, ROOT, 0, &all, |k| {
        let node = observations[k].node;
        if let UpdateDecision::Publish(coordinate) =
            relative[node].on_system_update(&systems[k], &published[node], &contexts[k])
        {
            published[node] = coordinate;
        }
    });

    let stage = |name: &str| tracer.batch_ns(name);
    out.set("filters.mp_observe_ns", stage("filters.mp_observe"));
    out.set("vivaldi.observe_ns", stage("vivaldi.observe"));
    out.set("vivaldi.gate_ns", stage("vivaldi.gate"));
    out.set("change.energy_ns", stage("change.energy"));
    out.set("change.relative_ns", stage("change.relative"));
    out.set(
        "change.publish_share",
        publishes as f64 / observations.len().max(1) as f64,
    );
    let whole = stage("core.handle_response_into");
    if whole > 0.0 {
        let components = stage("filters.mp_observe")
            + stage("vivaldi.observe")
            + stage("vivaldi.gate")
            + stage("change.energy");
        out.set("core.glue_share", 1.0 - components / whole);
    }
}
