//! Property tests for the discrete-event core (vendored proptest).
//!
//! Four invariants carry the whole simulator:
//!
//! 1. the [`EventQueue`] pops events in nondecreasing time order, FIFO among
//!    equal times — the determinism and causality guarantee every handler
//!    relies on;
//! 2. the prober's tick is its loss clock: a probe is declared lost at the
//!    prober's first tick at or after its send time plus the timeout, and
//!    a reply that arrives before that tick is digested;
//! 3. a link that loses every packet produces *only* `ProbeLost` events:
//!    no observation arrives, no coordinate ever moves, and the probe
//!    schedule still runs to completion (lost probes never stall it);
//! 4. a fixed run produces the report it produced yesterday: the executor
//!    suites compare the engine with the reference loop, the pinned digest
//!    below compares both with a constant — with and without the time
//!    series, which only keep timestamps beside the values the report reads.

use std::cmp::Ordering;

use proptest::prelude::*;

use nc_netsim::linkmodel::LinkModelConfig;
use nc_netsim::metrics::{ConfigMetrics, SimReport};
use nc_netsim::planetlab::PlanetLabConfig;
use nc_netsim::scenario::Scenario;
use nc_netsim::sim::{EventQueue, SimConfig, Simulator};
use nc_stats::{percentile, StatsError};
use stable_nc::{NodeConfig, OutlierGateConfig};

/// The queue's contract, written out: earliest time first (`total_cmp`),
/// insertion order among equal times.
fn reference_order(a: &(f64, usize), b: &(f64, usize)) -> Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

/// One configuration's metrics of a run of five nodes with two initial
/// neighbours each, probing every 5 s over links that lose `loss` of the
/// packets in each direction.
fn five_nodes(
    seed: u64,
    loss: f64,
    duration_s: f64,
    timeout_s: f64,
    config: NodeConfig,
) -> ConfigMetrics {
    let workload = PlanetLabConfig::small(5)
        .with_seed(seed)
        .with_link_config(LinkModelConfig::default().with_loss_probability(loss));
    let mut sim_config = SimConfig::new(duration_s, 5.0)
        .with_measurement_start(0.0)
        .with_initial_neighbors(2);
    sim_config.probe_timeout_s = timeout_s;
    let report = Simulator::new(workload, sim_config, vec![("mp".to_string(), config)]).run();
    report.config("mp").unwrap().clone()
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
        prop_assert_eq!(queue.popped(), times.len() as u64);
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

    /// A random interleaving of schedules and pops: every pop returns the
    /// `(time, insertion)` minimum of what is resident, and the final drain
    /// is the stable sort of the remainder. Times sit on a half-second grid
    /// so that ties are common.
    #[test]
    fn interleaved_schedules_and_pops_follow_one_strict_order(
        ops in proptest::collection::vec(0u64..u64::MAX, 1..400),
    ) {
        let mut queue: EventQueue<usize> = EventQueue::new();
        let mut resident: Vec<(f64, usize)> = Vec::new();
        let mut scheduled = 0usize;
        let mut popped = 0u64;
        for op in ops {
            if op % 4 == 0 {
                let expected = resident.iter().copied().min_by(reference_order);
                prop_assert_eq!(queue.pop(), expected);
                if let Some(entry) = expected {
                    resident.retain(|other| other.1 != entry.1);
                    popped += 1;
                }
            } else {
                let time = ((op >> 16) % 64) as f64 * 0.5;
                queue.schedule(time, scheduled);
                resident.push((time, scheduled));
                scheduled += 1;
            }
            prop_assert_eq!(queue.popped(), popped);
        }
        // `sort_by` is stable and `resident` is in insertion order, so
        // sorting by time alone is the contract's order.
        resident.sort_by(|a, b| a.0.total_cmp(&b.0));
        let drained: Vec<(f64, usize)> = std::iter::from_fn(|| queue.pop()).collect();
        prop_assert_eq!(drained, resident);
        prop_assert_eq!(queue.popped(), scheduled as u64);
    }

    /// Every probe is lost, and each loss is declared at the prober's first
    /// tick at or after send + timeout.
    ///
    /// Without eviction every node probes at each of the 24 ticks of the
    /// 120 s run; the probes of the 21 ticks up to t = 100 s reach their
    /// deadline tick (send + 15 s) inside the run and are reported lost, the
    /// last three are still pending at its end.
    ///
    /// With eviction after one loss, each node's rotation of two, `[a, b]`,
    /// empties within five ticks: t = 0 probes a, 5 b, 10 a; at 15 the probe
    /// of a sent at 0 is lost, a is evicted (its probe of t = 10 with it)
    /// and the tick probes b; at 20 the probe of b sent at 5 is lost and b is
    /// evicted with its probe of t = 15. Four probes sent, two lost, two
    /// evictions per node, and the node is silent from then on. An expiry
    /// run after the tick picks its target probes once more per node.
    #[test]
    fn total_loss_yields_only_probe_lost_and_frozen_coordinates(
        seed in 0u64..500,
    ) {
        let runs = [
            ("no eviction", NodeConfig::paper_defaults(), 24, 21, 0),
            (
                "eviction after one loss",
                NodeConfig::builder().max_consecutive_losses(1).build(),
                4,
                2,
                2,
            ),
        ];
        for (arm, config, sent, lost, evicted) in runs {
            let metrics = five_nodes(seed, 1.0, 120.0, 15.0, config);
            for (node, node_metrics) in metrics.nodes.iter().enumerate() {
                prop_assert_eq!(
                    (
                        node_metrics.probes_sent,
                        node_metrics.probes_lost,
                        node_metrics.neighbors_evicted,
                    ),
                    (sent, lost, evicted),
                    "{}, node {} (seed {}): probes sent, lost and evictions", arm, node, seed
                );
                prop_assert!(
                    node_metrics.system_errors().is_empty(),
                    "node {} observed through a 100% lossy mesh (seed {})", node, seed
                );
                prop_assert!(node_metrics.system_displacements().is_empty());
                prop_assert_eq!(node_metrics.observations, 0);
                prop_assert_eq!(node_metrics.responses_received, 0);
            }
        }
    }
}

/// The loss rule with timeouts that are not a whole number of 5 s probe
/// intervals. Over a mesh that loses everything, each node probes at every
/// tick, and a probe sent at `t` is reported lost at the first tick at or
/// after `t + timeout` — so the count of losses inside the run tells which
/// tick declared them:
///
/// - 7.5 s: the second tick, 10 s after the send. In 30 s the probes of
///   t = 0, 5, 10 and 15 are lost; a loss at the deadline itself would add
///   t = 20's, and one at the third tick drop t = 15's. In 10 s none is: the
///   tick at 5 s comes before the deadline of the probe sent at 0, which a
///   cutoff clamped at `t = 0` would lose.
/// - 2.5 s and 1 ms, shorter than one interval: the next tick. In 30 s the
///   probes of t = 0 through 20 are lost.
/// - 15 s, three whole intervals: the deadline's own tick, the probes of
///   t = 0 through 10.
#[test]
fn a_loss_is_declared_at_the_first_tick_past_its_deadline() {
    let cases = [
        (7.5, 30.0, 4),
        (7.5, 10.0, 0),
        (2.5, 30.0, 5),
        (0.001, 30.0, 5),
        (15.0, 30.0, 3),
    ];
    for (timeout_s, duration_s, lost) in cases {
        let metrics = five_nodes(3, 1.0, duration_s, timeout_s, NodeConfig::paper_defaults());
        for node in &metrics.nodes {
            assert_eq!(node.probes_sent, (duration_s / 5.0) as u64);
            assert_eq!(
                node.probes_lost, lost,
                "timeout {timeout_s} s over a {duration_s} s run"
            );
        }
    }
}

/// A reply that arrives after the timeout but before the prober's next tick
/// is digested, because that tick is when the prober gives up on it: over a
/// clean mesh a 1 ms timeout, far below every round trip, loses nothing.
#[test]
fn a_reply_before_the_deadline_tick_is_digested() {
    let clean = five_nodes(3, 0.0, 30.0, 0.001, NodeConfig::paper_defaults());
    assert_eq!(clean.total_probes_lost(), 0);
    assert_eq!(clean.total_probes_sent(), 5 * 6);
    assert_eq!(clean.total_responses_received(), 5 * 6);
    assert_eq!(clean.total_responses_ignored(), 0);
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

/// Digest of [`pinned_run`], unchanged since `157f771` through every change
/// to the queue's containers and to how a probe's loss is timed. A change
/// that moves it changed what the simulator computes — the pop order, a
/// draw, an engine decision — and must say so; a pure performance change
/// must not.
const PINNED_DIGEST: u64 = 0x535D_35F5_A7D1_2649;

/// Events [`pinned_run`] pops from its queue: the exact work count of the
/// schedule, which the digest (a fold of the report) does not cover.
const PINNED_EVENTS: u64 = 43_138;

/// 64 nodes, 20 simulated minutes, 5 % loss, eviction after three straight
/// losses, eight nodes crashed for two minutes and restored from their
/// snapshots: losses, evictions, the restart re-arm and snapshot/restore
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
