//! The three simulator workloads: `sim-steady`, `sim-hostile`, `sim-compare`.
//!
//! Only API that ROADMAP items 2–3 keep is called: `Simulator::new`,
//! `with_scenario`, `run`, and the `SimReport` / `ConfigMetrics` accessor
//! methods. Every rate divides an exact count read from those accessors.

use nc_netsim::adversary::AdversaryModel;
use nc_netsim::linkmodel::LinkModelConfig;
use nc_netsim::metrics::{ConfigMetrics, SimReport};
use nc_netsim::planetlab::PlanetLabConfig;
use nc_netsim::scenario::{Scenario, ScenarioAction};
use nc_netsim::sim::{SimConfig, Simulator};
use nc_netsim::topology::Region;
use serde::Value;
use stable_nc::{NodeConfig, OutlierGateConfig};

use crate::clock::{now_ns, process_cpu_ns, seconds};
use crate::host;
use crate::metrics::Outcome;
use crate::Options;

/// Set-ups timed before the first repetition, so `setup_s` is a median of
/// at least this many samples however few repetitions fit the run.
const EXTRA_SETUPS: usize = 20;

/// Fewest `Simulator::run` repetitions behind a median.
const MIN_REPS: usize = 3;

/// Probes a node may still have in flight when the clock stops: one per
/// probe interval inside the three-interval timeout, plus the tick itself.
const IN_FLIGHT_PER_NODE: u64 = 4;

/// Which simulator workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimKind {
    /// Clean links, one full-stack configuration.
    Steady,
    /// Loss, drift, liars, crash/restart and a partition.
    Hostile,
    /// Raw Vivaldi beside the full stack, the paper's deployment schedule.
    Compare,
}

/// Everything `Simulator::new` needs, plus what the checks need to know.
pub struct SimSpec {
    /// Node count.
    pub nodes: usize,
    /// The synthetic network.
    pub workload: PlanetLabConfig,
    /// The schedule.
    pub schedule: SimConfig,
    /// Named coordinate stacks, run side by side.
    pub configs: Vec<(String, NodeConfig)>,
    /// Scripted churn (empty for the steady workloads).
    pub scenario: Scenario,
    /// The configuration whose accuracy and stability are reported.
    pub scored: &'static str,
}

/// The liar model of `sim-hostile` (also replayed by the traced run).
pub const LIAR: AdversaryModel = AdversaryModel::CoordinateLiar {
    displacement_ms: 2000.0,
    inflate: 1.0,
    error_estimate: 0.01,
};

/// Share of `sim-hostile`'s nodes that lie.
pub const LIAR_FRACTION: f64 = 0.10;

/// Node configuration of `sim-hostile`: the full stack plus the MAD gate
/// and eviction after three straight losses.
pub fn hostile_node_config() -> NodeConfig {
    NodeConfig::builder()
        .outlier_gate(OutlierGateConfig::default())
        .max_consecutive_losses(3)
        .build()
}

/// Link model of `sim-hostile`: 5 % loss per direction and a base-RTT walk.
pub fn hostile_links() -> LinkModelConfig {
    LinkModelConfig::default()
        .with_loss_probability(0.05)
        .with_drift_walk(0.08, 300.0)
}

impl SimKind {
    /// Builds the workload's inputs from the seed.
    ///
    /// The seed drives the protocol randomness — initial neighbour sets and
    /// gossip picks. The node
    /// placement, the per-link noise streams and (on `sim-hostile`) the set
    /// of lying nodes are the workload's fixed
    /// property (the repo's default placement seed), so accuracy of
    /// different seeds is comparable: with the placement redrawn per seed
    /// the median error alone spreads by 12 % across seeds, wider than any
    /// bound worth having.
    pub fn spec(self, seed: u64, scale: usize) -> SimSpec {
        let stable = || ("stable".to_string(), NodeConfig::paper_defaults());
        match self {
            SimKind::Steady => {
                let nodes = (1024 / scale).max(12);
                SimSpec {
                    nodes,
                    workload: PlanetLabConfig::small(nodes),
                    schedule: SimConfig::new(3600.0, 5.0)
                        .with_measurement_start(1800.0)
                        .with_protocol_seed(seed),
                    configs: vec![stable()],
                    scenario: Scenario::new(),
                    scored: "stable",
                }
            }
            SimKind::Hostile => {
                let nodes = (1024 / scale).max(40);
                let crashed: Vec<usize> = (0..nodes / 4).collect();
                SimSpec {
                    nodes,
                    workload: PlanetLabConfig::small(nodes).with_link_config(hostile_links()),
                    schedule: SimConfig::new(3600.0, 5.0)
                        .with_measurement_start(1800.0)
                        .with_initial_neighbors(32)
                        .with_gossip(false)
                        .with_protocol_seed(seed)
                        .with_adversaries(LIAR_FRACTION, LIAR),
                    configs: vec![("stable".to_string(), hostile_node_config())],
                    scenario: Scenario::crash_restart(crashed, 1200.0, 1500.0).at(
                        2160.0,
                        ScenarioAction::PartitionRegions {
                            regions: vec![Region::Asia],
                            heal_at_s: 2460.0,
                        },
                    ),
                    scored: "stable",
                }
            }
            SimKind::Compare => {
                let nodes = (256 / scale).max(12);
                SimSpec {
                    nodes,
                    workload: PlanetLabConfig::small(nodes),
                    schedule: SimConfig::paper_deployment().with_protocol_seed(seed),
                    configs: vec![
                        ("raw".to_string(), NodeConfig::original_vivaldi()),
                        stable(),
                    ],
                    scenario: Scenario::new(),
                    scored: "stable",
                }
            }
        }
    }
}

impl SimSpec {
    /// Set-up: node placement, neighbour sets, one engine per node and
    /// configuration, the scenario attached.
    fn build(&self) -> Simulator {
        Simulator::new(
            self.workload.clone(),
            self.schedule.clone(),
            self.configs.clone(),
        )
        .with_scenario(self.scenario.clone())
    }
}

/// Exact work counts of one finished run, summed over configurations.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    /// Probes issued.
    pub sent: u64,
    /// Replies digested (completed exchanges).
    pub received: u64,
    /// Probes that expired.
    pub lost: u64,
    /// Replies dropped as uncorrelated.
    pub ignored: u64,
    /// Observations the engine rejected before the coordinate update.
    pub rejected: u64,
    /// Peers evicted after a loss streak.
    pub evicted: u64,
    /// Scenario actions applied.
    pub scenario_ops: u64,
    /// Application-level coordinate updates published in the window.
    pub app_updates: u64,
}

impl Counts {
    /// Reads the counts through the report's accessor methods.
    pub fn of(report: &SimReport, nodes: usize) -> Counts {
        let mut total = Counts::default();
        for (_, metrics) in report.iter() {
            total.sent += metrics.total_probes_sent();
            total.received += metrics.total_responses_received();
            total.lost += metrics.total_probes_lost();
            total.ignored += metrics.total_responses_ignored();
            total.rejected += metrics.total_observations_rejected();
            total.evicted += metrics.total_neighbors_evicted();
            total.scenario_ops += metrics.scenario_ops;
            let window_s = report.duration_s - report.measurement_start_s;
            total.app_updates +=
                (metrics.application_updates_per_node_second() * window_s * nodes as f64).round()
                    as u64;
        }
        total
    }

    /// Observations that reached the coordinate update.
    pub fn applied(&self) -> u64 {
        self.received.saturating_sub(self.rejected)
    }
}

fn fnv1a(hash: &mut u64, bits: u64) {
    for byte in bits.to_le_bytes() {
        *hash ^= byte as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Every scalar and per-node vector a configuration's accessors expose.
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
    ];
    values.extend(metrics.median_relative_errors());
    values.extend(metrics.application_median_relative_errors());
    values.extend(metrics.per_node_instability());
    values.extend(metrics.per_node_application_instability());
    values
}

/// FNV-1a over the bits of every accessor value of every configuration, in
/// name order; also reports whether all of them are finite.
pub fn report_digest(report: &SimReport) -> (u64, bool) {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    let mut finite = true;
    for (name, metrics) in report.iter() {
        for byte in name.bytes() {
            fnv1a(&mut hash, byte as u64);
        }
        for value in accessor_values(metrics) {
            finite &= value.is_finite();
            fnv1a(&mut hash, value.to_bits());
        }
    }
    (hash, finite)
}

/// One timed `Simulator::run`.
pub struct Repetition {
    /// Wall seconds of set-up (`Simulator::new` and what it needs).
    pub setup_s: f64,
    /// Wall seconds inside `Simulator::run`.
    pub run_s: f64,
    /// Process CPU seconds inside `Simulator::run`, all workers included.
    pub cpu_s: f64,
    /// Resident memory after set-up, before the run, in MiB.
    pub rss_before_mib: f64,
    /// Exact work counts.
    pub counts: Counts,
    /// Digest of the report.
    pub digest: u64,
    /// Median relative error of the scored configuration.
    pub rel_error_p50: f64,
    /// Aggregate application-level instability of the scored configuration.
    pub instability: f64,
    /// `(accuracy, stability)` gain of `stable` over `raw`, when both ran.
    pub gains: Option<(f64, f64)>,
}

/// Builds, runs and checks the workload once.
pub fn repetition(spec: &SimSpec, out: &mut Outcome) -> Repetition {
    let setup_start = now_ns();
    let mut simulator = spec.build();
    let setup_s = seconds(setup_start, now_ns());
    let rss_before_mib = host::rss_mib();

    let cpu_start = process_cpu_ns();
    let run_start = now_ns();
    let report = simulator.run();
    let run_s = seconds(run_start, now_ns());
    let cpu_s = seconds(cpu_start, process_cpu_ns());

    let counts = Counts::of(&report, spec.nodes);
    let (digest, finite) = report_digest(&report);
    out.check(finite, || {
        "a report accessor returned a non-finite value".to_string()
    });
    let accounted = counts.received + counts.lost;
    out.check(counts.sent >= accounted, || {
        format!(
            "more outcomes than probes: sent {} < received {} + lost {}",
            counts.sent, counts.received, counts.lost
        )
    });
    let allowance = spec.nodes as u64 * IN_FLIGHT_PER_NODE * spec.configs.len() as u64;
    let gap = counts.sent.saturating_sub(accounted);
    out.check(gap <= allowance, || {
        format!("{gap} probes unaccounted for at the end, at most {allowance} can be in flight")
    });
    out.attempted += counts.sent;
    out.failed += gap.saturating_sub(allowance) + accounted.saturating_sub(counts.sent);

    let scored = report.config(spec.scored);
    let rel_error_p50 = scored.map_or(f64::NAN, |m| {
        m.median_of_application_median_relative_error()
    });
    let instability = scored.map_or(f64::NAN, |m| m.aggregate_application_instability());
    let gains = report.config("raw").zip(scored).map(|(raw, _)| {
        (
            raw.median_of_application_median_relative_error() / rel_error_p50,
            raw.aggregate_application_instability() / instability,
        )
    });
    Repetition {
        setup_s,
        run_s,
        cpu_s,
        rss_before_mib,
        counts,
        digest,
        rel_error_p50,
        instability,
        gains,
    }
}

/// Repeats the workload until the run budget is spent and checks that every
/// repetition produced the same report.
pub fn repetitions(
    spec: &SimSpec,
    budget_s: f64,
    min_reps: usize,
    out: &mut Outcome,
) -> Vec<Repetition> {
    let mut reps: Vec<Repetition> = Vec::new();
    let mut spent_s = 0.0;
    loop {
        let rep = repetition(spec, out);
        spent_s += rep.run_s;
        reps.push(rep);
        // Stop where one more repetition would overshoot the budget by more
        // than it undershoots now.
        let typical = spent_s / reps.len() as f64;
        if reps.len() >= min_reps && spent_s + typical / 2.0 >= budget_s {
            break;
        }
    }
    let first = reps[0].digest;
    out.check(reps.iter().all(|rep| rep.digest == first), || {
        "report_digest differs between repetitions of the same seed".to_string()
    });
    out.note("report_digest", Value::Str(format!("{first:016x}")));
    out.note("repetitions", Value::UInt(reps.len() as u64));
    reps
}

/// The paper's claim, checked on every `sim-compare` run: the full stack is
/// more accurate and more stable than raw Vivaldi.
pub fn check_gains(rep: &Repetition, out: &mut Outcome) {
    if let Some((accuracy, stability)) = rep.gains {
        out.check(accuracy > 1.0 && stability > 1.0, || {
            format!(
                "the full stack does not beat raw Vivaldi: accuracy gain {accuracy:.3}x, stability gain {stability:.3}x"
            )
        });
    }
}

/// End-to-end run (`--trace 0`).
pub fn run(kind: SimKind, options: &Options, out: &mut Outcome) {
    let spec = kind.spec(options.seed, options.scale);
    let mut setup_samples: Vec<f64> = Vec::new();
    for _ in 0..EXTRA_SETUPS {
        let start = now_ns();
        drop(std::hint::black_box(spec.build()));
        setup_samples.push(seconds(start, now_ns()));
    }
    let reps = repetitions(&spec, options.seconds, MIN_REPS, out);
    setup_samples.extend(reps.iter().map(|rep| rep.setup_s));

    let last = &reps[reps.len() - 1];
    check_gains(last, out);
    let exchanges = last.counts.received as f64;
    let per_rep = |f: &dyn Fn(&Repetition) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };
    out.set_median("setup_s", &setup_samples);
    out.set_median("ops_per_s", &per_rep(&|rep| exchanges / rep.run_s));
    out.set_median(
        "updates_per_s",
        &per_rep(&|rep| rep.counts.applied() as f64 / rep.run_s),
    );
    out.set_median(
        "cpu_us_per_op",
        &per_rep(&|rep| rep.cpu_s * 1e6 / exchanges),
    );
    out.set("peak_rss_mb", host::peak_rss_mib());
    out.set("rel_error_p50", last.rel_error_p50);
    out.set("instability_ms_per_s", last.instability);
    out.note("exchanges", Value::UInt(last.counts.received));
    out.note("probes_lost", Value::UInt(last.counts.lost));
}

/// Accuracy and stability of the full stack on a small reference
/// simulation of the run's seed. The two workloads that embed no simulator
/// report these after their own measurement is over (timings and peak RSS
/// are already taken), so the paper's two numbers are bounded on every run.
pub fn reference_accuracy(options: &Options, out: &mut Outcome) {
    let nodes = (256 / options.scale).max(12);
    let spec = SimSpec {
        nodes,
        workload: PlanetLabConfig::small(nodes),
        schedule: SimConfig::new(7200.0, 5.0).with_protocol_seed(options.seed),
        configs: vec![("stable".to_string(), NodeConfig::paper_defaults())],
        scenario: Scenario::new(),
        scored: "stable",
    };
    let mut scratch = Outcome::default();
    let rep = repetition(&spec, &mut scratch);
    out.problems.extend(scratch.problems);
    out.set("rel_error_p50", rep.rel_error_p50);
    out.set("instability_ms_per_s", rep.instability);
}
