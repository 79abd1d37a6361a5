//! Property tests for the discrete-event core (vendored proptest).
//!
//! Three invariants carry the whole simulator:
//!
//! 1. the [`EventQueue`] pops events in nondecreasing time order, FIFO among
//!    equal times — the determinism and causality guarantee every handler
//!    relies on — whichever container (heap or timer lane) an event went
//!    into;
//! 2. a link that loses every packet produces *only* `ProbeLost` events:
//!    no observation arrives, no coordinate ever moves, and the probe
//!    schedule still runs to completion (lost probes never stall it);
//! 3. a fixed run produces the report it produced yesterday: the executor
//!    suites compare the engine with the reference loop, the pinned digest
//!    below compares both with a constant — with and without the time
//!    series, which only keep timestamps beside the values the report reads.

use std::cmp::Ordering;

use proptest::prelude::*;

use nc_netsim::linkmodel::LinkModelConfig;
use nc_netsim::metrics::{ConfigMetrics, SimReport};
use nc_netsim::planetlab::PlanetLabConfig;
use nc_netsim::scenario::Scenario;
use nc_netsim::sim::{EventQueue, SimConfig, Simulator, TIMER_LANES};
use nc_stats::{percentile, StatsError};
use stable_nc::{NodeConfig, OutlierGateConfig};

/// The queue's contract, written out: earliest time first (`total_cmp`),
/// insertion order among equal times.
fn reference_order(a: &(f64, usize), b: &(f64, usize)) -> Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

proptest! {
    #[test]
    fn pops_are_nondecreasing_in_time(
        times in proptest::collection::vec(0.0f64..10_000.0, 1..200),
    ) {
        let mut queue: EventQueue<usize> = EventQueue::new();
        for (index, &time) in times.iter().enumerate() {
            queue.schedule(time, index);
        }
        prop_assert_eq!(queue.len(), times.len());
        let mut last = f64::NEG_INFINITY;
        let mut popped = 0;
        while let Some((time, index)) = queue.pop() {
            prop_assert!(
                time >= last,
                "event {} at {} popped after an event at {}", index, time, last
            );
            prop_assert_eq!(time, times[index]);
            last = time;
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
        prop_assert!(queue.is_empty());
    }

    #[test]
    fn equal_times_pop_in_insertion_order(
        time in 0.0f64..100.0,
        count in 2usize..50,
    ) {
        let mut queue: EventQueue<usize> = EventQueue::new();
        for index in 0..count {
            queue.schedule(time, index);
        }
        for expected in 0..count {
            let (popped_time, index) = queue.pop().unwrap();
            prop_assert_eq!(popped_time, time);
            prop_assert_eq!(index, expected, "FIFO among equal times");
        }
    }

    /// A random mix of heap schedules, timer-lane schedules (monotone per
    /// lane, deliberately non-monotone, and repeated equal times) and
    /// interleaved pops: every pop returns the `(time, insertion)` minimum of
    /// what is resident, `len` / `peek_time` agree at every step, and the
    /// final drain is the stable sort of the remainder. Times sit on a
    /// half-second grid so that ties across containers are common.
    #[test]
    fn lanes_and_heap_pop_in_one_strict_order(
        ops in proptest::collection::vec(0u64..u64::MAX, 1..400),
    ) {
        let mut queue: EventQueue<usize> = EventQueue::new();
        let mut resident: Vec<(f64, usize)> = Vec::new();
        let mut lane_clock = [0.0f64; TIMER_LANES];
        let mut scheduled = 0usize;
        let mut popped = 0u64;
        for op in ops {
            let lane = (op >> 8) as usize % TIMER_LANES;
            let grid = ((op >> 16) % 64) as f64 * 0.5;
            match op % 8 {
                // Plain heap schedule at an arbitrary time.
                0 | 1 => {
                    queue.schedule(grid, scheduled);
                    resident.push((grid, scheduled));
                    scheduled += 1;
                }
                // A well-behaved timer: at or after the lane's last one
                // (a zero step repeats the time exactly).
                2..=4 => {
                    let time = lane_clock[lane] + ((op >> 16) % 4) as f64 * 0.5;
                    lane_clock[lane] = time;
                    queue.schedule_timer(lane, time, scheduled);
                    resident.push((time, scheduled));
                    scheduled += 1;
                }
                // A mis-declared timer: anywhere on the grid, usually
                // earlier than the lane's tail.
                5 => {
                    queue.schedule_timer(lane, grid, scheduled);
                    resident.push((grid, scheduled));
                    scheduled += 1;
                }
                _ => {
                    let expected = resident
                        .iter()
                        .copied()
                        .min_by(reference_order);
                    prop_assert_eq!(queue.pop(), expected);
                    if let Some(entry) = expected {
                        resident.retain(|other| other.1 != entry.1);
                        popped += 1;
                    }
                }
            }
            prop_assert_eq!(queue.len(), resident.len());
            prop_assert_eq!(queue.is_empty(), resident.is_empty());
            prop_assert_eq!(
                queue.peek_time(),
                resident.iter().copied().min_by(reference_order).map(|entry| entry.0)
            );
            prop_assert_eq!(queue.popped(), popped);
        }
        // `sort_by` is stable and `resident` is in insertion order, so
        // sorting by time alone is the contract's order.
        resident.sort_by(|a, b| a.0.total_cmp(&b.0));
        let drained: Vec<(f64, usize)> = std::iter::from_fn(|| queue.pop()).collect();
        prop_assert_eq!(drained, resident);
        prop_assert_eq!(queue.popped(), scheduled as u64);
    }

    #[test]
    fn total_loss_yields_only_probe_lost_and_frozen_coordinates(
        seed in 0u64..500,
    ) {
        let workload = PlanetLabConfig::small(5)
            .with_seed(seed)
            .with_link_config(LinkModelConfig::default().with_loss_probability(1.0));
        let sim_config = SimConfig::new(120.0, 5.0)
            .with_measurement_start(0.0)
            .with_initial_neighbors(2);
        let report = Simulator::new(
            workload,
            sim_config,
            vec![("mp".to_string(), NodeConfig::paper_defaults())],
        )
        .run();
        let metrics = report.config("mp").unwrap();
        prop_assert!(
            metrics.total_probes_lost() > 0,
            "every probe must eventually be reported lost (seed {})", seed
        );
        for (node, node_metrics) in metrics.nodes.iter().enumerate() {
            prop_assert!(
                node_metrics.system_errors().is_empty(),
                "node {} observed through a 100% lossy mesh (seed {})", node, seed
            );
            prop_assert!(node_metrics.system_displacements().is_empty());
            prop_assert_eq!(node_metrics.observations, 0);
        }
    }
}

/// The restart re-arm case: a node revived mid-interval ticks *now*, while
/// the tick lane's tail already sits one interval ahead. The early timer
/// must fall through to the heap and still pop first — and the lane keeps
/// accepting later timers behind its old tail.
#[test]
fn timer_earlier_than_its_lanes_tail_falls_through_in_order() {
    let mut queue: EventQueue<&str> = EventQueue::new();
    queue.schedule_timer(0, 10.0, "tick-a");
    queue.schedule_timer(0, 10.0, "tick-b");
    queue.schedule_timer(0, 7.5, "restart");
    queue.schedule_timer(0, 12.5, "restart-rearm");
    queue.schedule_timer(1, 9.0, "timeout");
    queue.schedule(10.0, "packet");
    assert_eq!(queue.len(), 6);
    assert_eq!(queue.peek_time(), Some(7.5));
    let order: Vec<(f64, &str)> = std::iter::from_fn(|| queue.pop()).collect();
    assert_eq!(
        order,
        vec![
            (7.5, "restart"),
            (9.0, "timeout"),
            (10.0, "tick-a"),
            (10.0, "tick-b"),
            (10.0, "packet"),
            (12.5, "restart-rearm"),
        ]
    );
    assert_eq!(queue.popped(), 6);
}

#[test]
#[should_panic(expected = "event times must be finite")]
fn timers_reject_nan_times() {
    let mut queue: EventQueue<u8> = EventQueue::new();
    queue.schedule_timer(0, f64::NAN, 0);
}

fn fnv1a(hash: &mut u64, bits: u64) {
    for byte in bits.to_le_bytes() {
        *hash ^= byte as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Every number a configuration's accessors expose, scalars then per-node
/// vectors.
fn accessor_values(metrics: &ConfigMetrics) -> Vec<f64> {
    let mut values = vec![
        metrics.total_probes_sent() as f64,
        metrics.total_responses_received() as f64,
        metrics.total_probes_lost() as f64,
        metrics.total_responses_ignored() as f64,
        metrics.total_observations_rejected() as f64,
        metrics.total_neighbors_evicted() as f64,
        metrics.scenario_ops as f64,
        metrics.aggregate_instability(),
        metrics.aggregate_application_instability(),
        metrics.median_of_median_relative_error(),
        metrics.median_of_p95_relative_error(),
        metrics.median_of_application_median_relative_error(),
        metrics.median_of_application_p95_relative_error(),
        metrics.application_updates_per_node_second(),
        metrics.pooled_error_summary().mean(),
    ];
    values.extend(metrics.median_relative_errors());
    values.extend(metrics.p95_relative_errors());
    values.extend(metrics.application_median_relative_errors());
    values.extend(metrics.application_p95_relative_errors());
    values.extend(metrics.p95_coordinate_changes());
    values.extend(metrics.per_node_instability());
    values.extend(metrics.per_node_application_instability());
    values
}

/// FNV-1a over the bits of every accessor value of every configuration, in
/// name order.
fn report_digest(report: &SimReport) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for (name, metrics) in report.iter() {
        for byte in name.bytes() {
            fnv1a(&mut hash, byte as u64);
        }
        for value in accessor_values(metrics) {
            fnv1a(&mut hash, value.to_bits());
        }
    }
    hash
}

/// Digest of [`pinned_run`], taken at the commit *before* timers left the
/// heap (PR 12, `157f771`). A change that moves it changed what the
/// simulator computes — the pop order, a draw, an engine decision — and
/// must say so; a pure performance change must not.
const PINNED_DIGEST: u64 = 0x535D_35F5_A7D1_2649;

/// Events [`pinned_run`] pops from its queue: the exact work count of the
/// schedule, which the digest (a fold of the report) does not cover.
const PINNED_EVENTS: u64 = 58_115;

/// 64 nodes, 20 simulated minutes, 5 % loss, eviction after three straight
/// losses, eight nodes crashed for two minutes and restored from their
/// snapshots: timeouts, evictions, the restart re-arm and snapshot/restore
/// all fire, on two configurations side by side.
fn pinned_run() -> Simulator {
    pinned_run_on(pinned_schedule())
}

fn pinned_schedule() -> SimConfig {
    SimConfig::new(1_200.0, 5.0)
        .with_measurement_start(300.0)
        .with_initial_neighbors(8)
}

fn pinned_run_on(sim_config: SimConfig) -> Simulator {
    let workload = PlanetLabConfig::small(64)
        .with_seed(16)
        .with_link_config(LinkModelConfig::default().with_loss_probability(0.05));
    Simulator::new(
        workload,
        sim_config,
        vec![
            (
                "mp".to_string(),
                NodeConfig::builder().max_consecutive_losses(3).build(),
            ),
            (
                "raw".to_string(),
                NodeConfig::builder()
                    .filter(stable_nc::FilterConfig::Raw)
                    .max_consecutive_losses(3)
                    .build(),
            ),
        ],
    )
    .with_scenario(Scenario::crash_restart((0..8).collect(), 500.0, 622.5))
}

#[test]
fn report_digest_is_pinned_for_every_executor() {
    let executors = [
        ("reference", pinned_run().with_serial_execution(true)),
        ("default", pinned_run()),
        ("2 workers", pinned_run().with_threads(2)),
    ];
    for (name, mut simulator) in executors {
        let report = simulator.run();
        let metrics = report.config("mp").unwrap();
        assert!(
            metrics.total_probes_lost() > 0 && metrics.total_neighbors_evicted() > 0,
            "the pinned run must exercise timeouts and evictions"
        );
        assert_eq!(
            report_digest(&report),
            PINNED_DIGEST,
            "{name}: report digest moved"
        );
        assert_eq!(
            simulator.events_popped(),
            PINNED_EVENTS,
            "{name}: every executor replays the same schedule, event for event"
        );
    }
}

/// The bits of a percentile, or `None` for an empty sample.
fn bits(value: Result<f64, StatsError>) -> Option<u64> {
    value.ok().map(f64::to_bits)
}

/// Re-derives every per-node statistic from the recorded time series the
/// way the accessors once computed them from timestamped samples, and
/// checks it against the compact accessors bit for bit.
fn assert_series_reproduce_the_accessors(name: &str, metrics: &ConfigMetrics) {
    let series = metrics.series().expect("the run recorded its time series");
    assert_eq!(series.nodes().len(), metrics.nodes.len());
    let values = |pairs: &[(f64, f64)]| pairs.iter().map(|&(_, v)| v).collect::<Vec<f64>>();
    for (node, (compact, stamped)) in metrics.nodes.iter().zip(series.nodes()).enumerate() {
        let errors = values(&stamped.system_errors);
        let application_errors = values(&stamped.application_errors);
        let moves = values(&stamped.system_displacements);
        let application_moves = values(&stamped.application_displacements);
        let context = format!("{name}, node {node}");
        assert_eq!(errors, compact.system_errors(), "{context}");
        assert_eq!(
            bits(percentile(&errors, 50.0)),
            bits(compact.median_relative_error()),
            "{context}"
        );
        assert_eq!(
            bits(percentile(&errors, 95.0)),
            bits(compact.p95_relative_error()),
            "{context}"
        );
        assert_eq!(
            bits(percentile(&application_errors, 50.0)),
            bits(compact.application_median_relative_error()),
            "{context}"
        );
        assert_eq!(
            bits(percentile(&application_errors, 95.0)),
            bits(compact.application_p95_relative_error()),
            "{context}"
        );
        assert_eq!(
            bits(percentile(&moves, 95.0)),
            bits(compact.p95_coordinate_change()),
            "{context}"
        );
        assert_eq!(
            moves.iter().sum::<f64>().to_bits(),
            compact.total_system_displacement_ms().to_bits(),
            "{context}"
        );
        assert_eq!(
            application_moves.iter().sum::<f64>().to_bits(),
            compact.total_application_displacement_ms().to_bits(),
            "{context}"
        );
        assert_eq!(application_moves.len(), compact.application_update_count());
    }
}

#[test]
fn time_series_on_and_off_give_identical_reports() {
    // The pinned run, stamped: the same digest and the same schedule.
    let mut stamped = pinned_run_on(pinned_schedule().with_time_series());
    let report = stamped.run();
    assert_eq!(
        report_digest(&report),
        PINNED_DIGEST,
        "time series moved the digest"
    );
    assert_eq!(stamped.events_popped(), PINNED_EVENTS);
    for (name, metrics) in report.iter() {
        assert_series_reproduce_the_accessors(name, metrics);
    }
    assert!(
        pinned_run().run().config("mp").unwrap().series().is_none(),
        "the default run keeps no timestamps"
    );

    // A second crash/restart shape on two workers: a quarter of the mesh
    // down for 150 s, the MAD gate and eviction on, raw Vivaldi beside it.
    let run = |sim_config: SimConfig| {
        Simulator::new(
            PlanetLabConfig::small(48)
                .with_seed(5)
                .with_link_config(LinkModelConfig::default().with_loss_probability(0.03)),
            sim_config,
            vec![
                (
                    "gated".to_string(),
                    NodeConfig::builder()
                        .outlier_gate(OutlierGateConfig::default())
                        .max_consecutive_losses(3)
                        .build(),
                ),
                ("raw".to_string(), NodeConfig::original_vivaldi()),
            ],
        )
        .with_scenario(Scenario::crash_restart((0..12).collect(), 300.0, 450.0))
        .with_threads(2)
        .run()
    };
    let schedule = SimConfig::new(900.0, 5.0)
        .with_measurement_start(200.0)
        .with_initial_neighbors(6);
    let plain = run(schedule.clone());
    let stamped = run(schedule.with_time_series());
    assert_eq!(report_digest(&plain), report_digest(&stamped));
    for (name, metrics) in stamped.iter() {
        assert_series_reproduce_the_accessors(name, metrics);
    }
}
