//! Micro-benchmarks of the per-observation costs: the latency filters, the
//! Vivaldi update rule, the change-detection statistics and the full
//! `StableNode` wire-digestion path. These are the operations a deployed
//! node performs for every probe, so their cost bounds the sustainable
//! probing rate.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use nc_change::{EnergyHeuristic, RelativeHeuristic, UpdateContext, UpdateHeuristic};
use nc_filters::{EwmaFilter, LatencyFilter, MovingPercentileFilter, RawFilter};
use nc_netsim::sim::EventQueue;
use nc_stats::{energy_distance_by, percentile};
use nc_vivaldi::{Coordinate, RemoteObservation, VivaldiConfig, VivaldiState};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stable_nc::{NodeConfig, ProbeResponse, StableNode};

fn latency_stream(len: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(7);
    (0..len)
        .map(|_| {
            if rng.gen_bool(0.01) {
                2_000.0 + rng.gen_range(0.0..20_000.0)
            } else {
                80.0 + rng.gen_range(-5.0..5.0)
            }
        })
        .collect()
}

fn bench_filters(c: &mut Criterion) {
    let stream = latency_stream(1_000);
    let mut group = c.benchmark_group("filters_per_1000_observations");
    group.bench_function("moving_percentile_h4_p25", |b| {
        b.iter_batched(
            MovingPercentileFilter::paper_defaults,
            |mut filter| {
                for &s in &stream {
                    black_box(filter.observe(s));
                }
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("moving_percentile_h128", |b| {
        b.iter_batched(
            || MovingPercentileFilter::new(128, 25.0).unwrap(),
            |mut filter| {
                for &s in &stream {
                    black_box(filter.observe(s));
                }
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("ewma_alpha_0_1", |b| {
        b.iter_batched(
            || EwmaFilter::new(0.1).unwrap(),
            |mut filter| {
                for &s in &stream {
                    black_box(filter.observe(s));
                }
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("raw", |b| {
        b.iter_batched(
            RawFilter::new,
            |mut filter| {
                for &s in &stream {
                    black_box(filter.observe(s));
                }
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_vivaldi_update(c: &mut Criterion) {
    let remote = Coordinate::new(vec![30.0, 40.0, 10.0]).unwrap();
    c.bench_function("vivaldi_observe", |b| {
        b.iter_batched(
            || VivaldiState::new(VivaldiConfig::paper_defaults()),
            |mut state| {
                for i in 0..100 {
                    let obs = RemoteObservation::new(remote.clone(), 0.4, 60.0 + (i % 7) as f64);
                    black_box(state.observe(&obs));
                }
            },
            BatchSize::SmallInput,
        )
    });
}

/// Tight loops over the allocation-free hot path, so a heap allocation or a
/// regression creeping back into the per-observation arithmetic is directly
/// visible as a per-op time jump. These benches measure *single* operations
/// (amortised over a tight loop), unlike the per-1000-observation batches
/// above.
fn bench_hot_path_tight_loops(c: &mut Criterion) {
    let mut group = c.benchmark_group("hot_path_tight_loop");

    // Coordinate algebra: the exact op sequence of one Vivaldi spring step.
    let a = Coordinate::new(vec![12.0, -7.0, 3.0]).unwrap();
    let bcoord = Coordinate::new(vec![-4.0, 9.0, 21.0]).unwrap();
    group.bench_function("coordinate_algebra_1000_steps", |b| {
        b.iter(|| {
            let mut acc = a.clone();
            for _ in 0..1000 {
                let distance = acc.distance(black_box(&bcoord));
                let mut direction = acc
                    .unit_vector_from(black_box(&bcoord))
                    .expect("distinct points");
                direction.scale_in_place(0.25 * (60.0 - distance));
                acc.displace_by(&direction);
                black_box(&acc);
            }
            acc
        })
    });

    // One full Vivaldi update on a warmed state (steady state: no
    // tie-breaking, no warm-up effects).
    group.bench_function("vivaldi_single_update_x1000", |b| {
        b.iter_batched(
            || {
                let mut state = VivaldiState::new(VivaldiConfig::paper_defaults());
                let remote = Coordinate::new(vec![30.0, 40.0, 10.0]).unwrap();
                for _ in 0..32 {
                    state.observe(&RemoteObservation::new(remote.clone(), 0.4, 60.0));
                }
                (state, remote)
            },
            |(mut state, remote)| {
                for i in 0..1000u32 {
                    let obs = RemoteObservation::new(remote.clone(), 0.4, 60.0 + (i % 7) as f64);
                    black_box(state.observe(&obs));
                }
                state
            },
            BatchSize::SmallInput,
        )
    });

    // One MP-filter observation on a full window (steady state: the expiring
    // sample is removed and the new one inserted by binary search).
    group.bench_function("moving_percentile_observe_x1000", |b| {
        b.iter_batched(
            || {
                let mut filter = MovingPercentileFilter::paper_defaults();
                for raw in [80.0, 82.0, 79.0, 81.0] {
                    filter.observe(raw);
                }
                filter
            },
            |mut filter| {
                for i in 0..1000u32 {
                    black_box(filter.observe(78.0 + (i % 11) as f64));
                }
                filter
            },
            BatchSize::SmallInput,
        )
    });

    group.finish();
}

fn bench_change_detection(c: &mut Criterion) {
    let mut group = c.benchmark_group("change_detection_per_update");
    let drift = |len: usize| -> Vec<Coordinate> {
        (0..len)
            .map(|i| Coordinate::new(vec![i as f64 * 0.3, 20.0, 5.0]).unwrap())
            .collect()
    };
    for window in [8usize, 32, 128, 1024] {
        // Four windows' worth per case, so that every size fills, slides,
        // declares a change point and starts over, not only the small ones.
        let coords = drift(4 * window);
        group.bench_function(format!("energy_window_{window}"), |b| {
            b.iter_batched(
                || EnergyHeuristic::new(8.0, window),
                |mut heuristic| {
                    let app = Coordinate::origin(3);
                    for coord in &coords {
                        black_box(heuristic.on_system_update(
                            coord,
                            &app,
                            &UpdateContext::default(),
                        ));
                    }
                },
                BatchSize::SmallInput,
            )
        });
    }
    let coords = drift(128);
    group.bench_function("relative_window_32", |b| {
        b.iter_batched(
            || RelativeHeuristic::new(0.3, 32),
            |mut heuristic| {
                let app = Coordinate::origin(3);
                let ctx = UpdateContext {
                    nearest_neighbor: Some(Coordinate::new(vec![5.0, 5.0, 0.0]).unwrap()),
                };
                for coord in &coords {
                    black_box(heuristic.on_system_update(coord, &app, &ctx));
                }
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_statistics(c: &mut Criterion) {
    let data = latency_stream(10_000);
    c.bench_function("percentile_10k_samples", |b| {
        b.iter(|| black_box(percentile(&data, 95.0).unwrap()))
    });
    let a: Vec<Vec<f64>> = (0..32).map(|i| vec![i as f64, 0.0, 1.0]).collect();
    let bb: Vec<Vec<f64>> = (0..32).map(|i| vec![i as f64 + 10.0, 2.0, 1.0]).collect();
    c.bench_function("energy_distance_32x32", |b| {
        b.iter(|| {
            black_box(
                energy_distance_by(&a, &bb, |x, y| {
                    x.iter()
                        .zip(y.iter())
                        .map(|(p, q)| (p - q) * (p - q))
                        .sum::<f64>()
                        .sqrt()
                })
                .unwrap(),
            )
        })
    });
}

fn bench_stable_node(c: &mut Criterion) {
    let stream = latency_stream(1_000);
    let remote = Coordinate::new(vec![30.0, 40.0, 10.0]).unwrap();
    let mut group = c.benchmark_group("stable_node_per_1000_observations");
    for (name, config) in [
        ("paper_defaults", NodeConfig::paper_defaults()),
        ("original_vivaldi", NodeConfig::original_vivaldi()),
    ] {
        group.bench_function(name, |b| {
            b.iter_batched(
                || {
                    // Pre-build the response once; the loop re-stamps seq and
                    // rtt so only the wire digestion path is measured.
                    let mut node = StableNode::<u32>::new(config.clone());
                    let request = node.probe_request_for(1, 0);
                    let response = ProbeResponse::new(1, &request, remote.clone(), 0.4);
                    let events: Vec<stable_nc::Event<u32>> = Vec::with_capacity(32);
                    (node, response, events)
                },
                |(mut node, mut response, mut events)| {
                    for (step, &rtt) in stream.iter().enumerate() {
                        let request = node.probe_request_for(1, step as u64 + 1);
                        response.seq = request.seq;
                        response.rtt_ms = rtt;
                        events.clear();
                        node.handle_response_into(&response, &mut events);
                        black_box(&events);
                    }
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

/// The four queue events of one probe exchange.
enum MixEvent {
    Tick,
    Timeout,
    Deliver,
    Response,
}

/// The simulator's queue traffic at 1,024 nodes, without the simulator: each
/// tick re-arms itself one interval on, arms a timeout three intervals on
/// and sends a packet whose delivery sends the reply — per exchange two
/// constant-offset timers and two drawn-delay packets, at a resident depth
/// of 4 · 1,024 (one tick and three timeouts per node, ≈ 30 packets in
/// flight). `exchange_mix_1024` sends the timers through the lanes as the
/// simulator does; `..._heap_only` sends the same mix through plain
/// `schedule`, which is what the simulator did before the lanes. One sample
/// is a million exchanges, so the printed milliseconds read as nanoseconds
/// per exchange (four events).
fn bench_event_queue(c: &mut Criterion) {
    const NODES: usize = 1_024;
    const EXCHANGES: usize = 1_000_000;
    const INTERVAL_S: f64 = 5.0;
    const TIMEOUT_S: f64 = 15.0;
    const TICK_LANE: usize = 0;
    const TIMEOUT_LANE: usize = 1;
    let mut rng = StdRng::seed_from_u64(11);
    let delays: Vec<f64> = (0..4_096).map(|_| rng.gen_range(0.01..0.15)).collect();
    let mut group = c.benchmark_group("event_queue");
    for (name, lanes) in [
        ("exchange_mix_1024", true),
        ("exchange_mix_1024_heap_only", false),
    ] {
        let timer = move |queue: &mut EventQueue<MixEvent>, lane, time_s, event| {
            if lanes {
                queue.schedule_timer(lane, time_s, event);
            } else {
                queue.schedule(time_s, event);
            }
        };
        group.bench_function(name, |b| {
            b.iter_batched(
                || {
                    // Ticks spread over one interval; behind each node the
                    // timeouts of its last three probes.
                    let mut queue = EventQueue::new();
                    let tick_at = |node: usize| INTERVAL_S * node as f64 / NODES as f64;
                    for node in 0..NODES {
                        timer(&mut queue, TICK_LANE, tick_at(node), MixEvent::Tick);
                    }
                    for round in 0..3 {
                        for node in 0..NODES {
                            let time_s = tick_at(node) + INTERVAL_S * round as f64;
                            timer(&mut queue, TIMEOUT_LANE, time_s, MixEvent::Timeout);
                        }
                    }
                    queue
                },
                |mut queue| {
                    let mut exchanges = 0;
                    let mut draws = delays.iter().cycle();
                    while exchanges < EXCHANGES {
                        let (now, event) = queue.pop().expect("ticks re-arm forever");
                        match event {
                            MixEvent::Tick => {
                                timer(&mut queue, TICK_LANE, now + INTERVAL_S, MixEvent::Tick);
                                timer(&mut queue, TIMEOUT_LANE, now + TIMEOUT_S, MixEvent::Timeout);
                                let delay = draws.next().expect("cycle never ends");
                                queue.schedule(now + delay, MixEvent::Deliver);
                            }
                            MixEvent::Deliver => {
                                let delay = draws.next().expect("cycle never ends");
                                queue.schedule(now + delay, MixEvent::Response);
                            }
                            MixEvent::Response => exchanges += 1,
                            MixEvent::Timeout => {}
                        }
                    }
                    queue
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group!(
    micro,
    bench_event_queue,
    bench_filters,
    bench_vivaldi_update,
    bench_hot_path_tight_loops,
    bench_change_detection,
    bench_statistics,
    bench_stable_node
);
criterion_main!(micro);
