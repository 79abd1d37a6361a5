//! Bench-to-JSON reporter: runs the macro simulator benchmarks and writes
//! `BENCH_sim.json` at the workspace root, so the performance trajectory is
//! tracked across PRs instead of living only in terminal scrollback.
//!
//! Usage:
//!
//! ```text
//! cargo run -p nc-bench --release --bin bench_report                   # full run
//! cargo run -p nc-bench --release --bin bench_report -- --quick
//! cargo run -p nc-bench --release --bin bench_report -- --check --quick
//! cargo run -p nc-bench --release --bin bench_report -- --threads 1
//! cargo run -p nc-bench --release --bin bench_report -- --huge
//! ```
//!
//! The full run measures the 256-node hour and its lossy/churn variant
//! (median of 3), a 64-node hour (a mesh `Simulator::run` gives one worker
//! on any host), the 1,024- and 4,096-node hours —
//! each three times: as `run()` dispatches it, pinned to one worker and
//! pinned to two (the sharding verdict, ROADMAP 1(d)) — and the 16,384-node
//! hour (1 iteration each), plus the `nc-query` read path: batches of
//! k-nearest queries against indexes of 10,000 and 100,000 synthetic
//! tracked nodes; `--quick` runs single iterations of the 64- and 256-node
//! workloads and both query batches, and `--huge` adds a 65,536-node hour
//! and a 1,000,000-node query batch. The JSON (schema 2) opens with a
//! `host` block — core count, CPU model, kernel, `rustc -V` — because every
//! wall-clock figure below it, and how many workers the unpinned rows ran
//! on, is a property of that host; it then maps bench name → median nanoseconds,
//! node count and throughput — queries per second for the read path; for
//! the simulator the exact number of events the run popped from its queue
//! (`Simulator::events_popped`) and that count per second — and embeds the
//! frozen pre-PR-3 baseline for before/after comparison.
//!
//! `--check` compares fresh results against the committed `BENCH_sim.json`
//! instead of rewriting it. Every simulator row's `events` must equal the
//! recorded count exactly — the count is a function of the workload alone,
//! so the tolerance is 0 % on any host and at any worker count — and any
//! measured bench more than the threshold slower than its recorded median
//! (default 15 %, `--threshold <percent>`) fails the run with exit code 1.
//! CI invokes `--check --quick` as a regression smoke test.
//!
//! Without `--threads N` (or the `NC_BENCH_THREADS` environment variable)
//! the unpinned rows measure what `Simulator::run` does on this host; with
//! it they run on exactly `N` workers (`Simulator::with_threads`); the flag
//! wins over the environment.

use std::time::Instant;

use nc_netsim::linkmodel::LinkModelConfig;
use nc_netsim::planetlab::PlanetLabConfig;
use nc_netsim::scenario::Scenario;
use nc_netsim::sim::{SimConfig, Simulator};
use nc_query::{CoordinateIndex, QueryConfig};
use nc_vivaldi::Coordinate;
use stable_nc::NodeConfig;

/// One simulated hour at the paper's deployment probe interval.
const DURATION_S: f64 = 3_600.0;
const PROBE_INTERVAL_S: f64 = 5.0;

/// Default `--check` regression threshold, as a fraction of the recorded
/// median.
const DEFAULT_CHECK_THRESHOLD: f64 = 0.15;

/// Baselines frozen immediately before PR 3 (allocation-free hot path),
/// measured as the mean of 10 samples of `cargo bench -p nc-bench --bench
/// event_sim` on the development machine. Kept in the report so the
/// speedup claim stays auditable without digging through git history.
const PRE_PR3_BASELINE: &[(&str, u64, f64)] = &[
    ("event_sim/one_hour_256_nodes", 256, 1.298e9),
    ("event_sim/one_hour_256_nodes_lossy_churn", 256, 1.054e9),
];

/// When a simulator row runs: in every mode, in full runs, or only with
/// `--huge`.
enum Tier {
    Quick,
    Full,
    Huge,
}

/// One simulator row of the report.
struct SimBench {
    name: &'static str,
    nodes: usize,
    lossy_churn: bool,
    /// The worker count the row is pinned to; `None` follows `--threads`,
    /// or — without it — whatever `Simulator::run` picks on this host.
    threads: Option<usize>,
    /// Iterations behind the median in a full run (`--quick` runs one).
    iterations: usize,
    tier: Tier,
}

const fn sim_bench(
    name: &'static str,
    nodes: usize,
    threads: Option<usize>,
    iterations: usize,
    tier: Tier,
) -> SimBench {
    SimBench {
        name,
        nodes,
        lossy_churn: false,
        threads,
        iterations,
        tier,
    }
}

/// 64 nodes get one worker from `run()` on any host; 256 is the paper-sized
/// mesh and the first it shards on its own; the
/// pinned 1,024- and 4,096-node rows are the sharding verdict — one worker
/// against two, beside what `run()` picked.
const SIM_BENCHES: &[SimBench] = &[
    sim_bench("event_sim/one_hour_64_nodes", 64, None, 3, Tier::Quick),
    sim_bench("event_sim/one_hour_256_nodes", 256, None, 3, Tier::Quick),
    SimBench {
        name: "event_sim/one_hour_256_nodes_lossy_churn",
        nodes: 256,
        lossy_churn: true,
        threads: None,
        iterations: 3,
        tier: Tier::Quick,
    },
    sim_bench("event_sim/one_hour_1024_nodes", 1024, None, 3, Tier::Full),
    sim_bench(
        "event_sim/one_hour_1024_nodes_threads_1",
        1024,
        Some(1),
        3,
        Tier::Full,
    ),
    sim_bench(
        "event_sim/one_hour_1024_nodes_threads_2",
        1024,
        Some(2),
        3,
        Tier::Full,
    ),
    sim_bench("event_sim/one_hour_4096_nodes", 4096, None, 1, Tier::Full),
    sim_bench(
        "event_sim/one_hour_4096_nodes_threads_1",
        4096,
        Some(1),
        1,
        Tier::Full,
    ),
    sim_bench(
        "event_sim/one_hour_4096_nodes_threads_2",
        4096,
        Some(2),
        1,
        Tier::Full,
    ),
    sim_bench("event_sim/one_hour_16384_nodes", 16384, None, 1, Tier::Full),
    sim_bench("event_sim/one_hour_65536_nodes", 65536, None, 1, Tier::Huge),
];

struct BenchResult {
    name: &'static str,
    nodes: u64,
    median_ns: f64,
    /// Queue events one simulation popped (a function of the workload, so
    /// identical across iterations and hosts); `None` for the query benches.
    events: Option<u64>,
    /// Throughput over the median sample; labelled per bench family in the
    /// JSON (`events_per_sec` for the simulator, `queries_per_sec` for the
    /// query read path).
    rate: f64,
    rate_key: &'static str,
}

/// One timed simulation: wall time of build + run, and the events it popped.
fn run_sim(nodes: usize, lossy_churn: bool, threads: Option<usize>) -> (std::time::Duration, u64) {
    let start = Instant::now();
    let mut workload = PlanetLabConfig::small(nodes).with_seed(20050502);
    if lossy_churn {
        workload =
            workload.with_link_config(LinkModelConfig::default().with_loss_probability(0.02));
    }
    let sim_config = SimConfig::new(DURATION_S, PROBE_INTERVAL_S).with_measurement_start(1_800.0);
    let mut simulator = Simulator::new(
        workload,
        sim_config,
        vec![("mp".to_string(), NodeConfig::paper_defaults())],
    );
    if lossy_churn {
        let crashed: Vec<usize> = (0..nodes / 4).collect();
        simulator = simulator.with_scenario(Scenario::crash_restart(crashed, 1_200.0, 1_500.0));
    }
    if let Some(threads) = threads {
        simulator = simulator.with_threads(threads);
    }
    let report = simulator.run();
    std::hint::black_box(report);
    (start.elapsed(), simulator.events_popped())
}

fn median_ns(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

fn measure(bench: &SimBench, iterations: usize, threads: Option<usize>) -> BenchResult {
    let name = bench.name;
    let mut samples = Vec::with_capacity(iterations);
    let mut events = 0;
    for iteration in 0..iterations {
        let (elapsed, popped) = run_sim(bench.nodes, bench.lossy_churn, threads);
        eprintln!(
            "  {name} iteration {}: {elapsed:?}, {popped} events",
            iteration + 1
        );
        samples.push(elapsed.as_nanos() as f64);
        events = popped;
    }
    let median = median_ns(samples);
    BenchResult {
        name,
        nodes: bench.nodes as u64,
        median_ns: median,
        events: Some(events),
        rate: events as f64 / (median / 1e9),
        rate_key: "events_per_sec",
    }
}

/// How many k-nearest queries one read-path sample issues.
const QUERY_BATCH: usize = 100_000;
/// Neighbours requested per query (a replica-selection-sized answer).
const QUERY_K: usize = 8;

/// splitmix64: a tiny deterministic generator for the synthetic coordinate
/// population — the bench must not depend on ambient randomness.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A synthetic-but-plausible coordinate: components spread over ±300 ms (a
/// terrestrial embedding), heights of a few ms (well-connected nodes'
/// access links; the height term adds to every distance, so it directly
/// sets the k-NN candidate radius).
fn synthetic_coordinate(state: &mut u64) -> Coordinate {
    let mut axis = || {
        let raw = (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64;
        (raw - 0.5) * 600.0
    };
    let components = [axis(), axis(), axis()];
    let height = (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64 * 4.0;
    Coordinate::with_height(components, height).expect("synthetic coordinate is finite")
}

/// Measures the `nc-query` read path: builds an index of `nodes` synthetic
/// tracked coordinates (untimed), then times a batch of `QUERY_BATCH`
/// k-nearest queries against it.
fn measure_queries(name: &'static str, nodes: u64, iterations: usize) -> BenchResult {
    let mut state = 0x5EED ^ nodes;
    let mut index: CoordinateIndex<u64> =
        CoordinateIndex::new(QueryConfig::default()).expect("default config validates");
    for id in 0..nodes {
        let coordinate = synthetic_coordinate(&mut state);
        index
            .update(id, &coordinate)
            .expect("insert synthetic node");
    }
    let mut samples = Vec::with_capacity(iterations);
    for iteration in 0..iterations {
        let mut sink = 0.0f64;
        let start = Instant::now();
        for _ in 0..QUERY_BATCH {
            let target = synthetic_coordinate(&mut state);
            let hits = index.k_nearest(&target, QUERY_K).expect("query");
            if let Some(nearest) = hits.first() {
                sink += nearest.distance_ms;
            }
        }
        let elapsed = start.elapsed();
        std::hint::black_box(sink);
        eprintln!("  {name} iteration {}: {elapsed:?}", iteration + 1);
        samples.push(elapsed.as_nanos() as f64);
    }
    let median = median_ns(samples);
    BenchResult {
        name,
        nodes,
        median_ns: median,
        events: None,
        rate: QUERY_BATCH as f64 / (median / 1e9),
        rate_key: "queries_per_sec",
    }
}

/// Pulls `"<name>": { ... "<key>": <value> ... }` out of the committed
/// report. The file is written by this binary with one bench per line, so a
/// line scan is enough — no JSON parser dependency needed here.
fn recorded_number(json: &str, name: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{name}\"");
    let key = format!("\"{key}\":");
    for line in json.lines() {
        if let Some(rest) = line.trim_start().strip_prefix(&needle) {
            let rest = rest.split(key.as_str()).nth(1)?;
            let value: String = rest
                .trim_start()
                .chars()
                .take_while(|c| c.is_ascii_digit() || *c == '.')
                .collect();
            return value.parse().ok();
        }
    }
    None
}

/// The machine the numbers were taken on, as a JSON object body: without
/// it a wall-clock figure, and the engine an unpinned row ran on, cannot be
/// read. Anything the host does not reveal is recorded as `unknown`.
fn host_block() -> String {
    let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find_map(|line| line.strip_prefix("model name")?.split(':').nth(1))
        .map_or("unknown".to_string(), |model| model.trim().to_string());
    let kernel = match read("/proc/sys/kernel/osrelease").trim() {
        "" => "unknown".to_string(),
        release => release.to_string(),
    };
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|output| String::from_utf8(output.stdout).ok())
        .map(|version| version.trim().to_string())
        .filter(|version| !version.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |cores| cores.get());
    let quote = |text: String| text.replace(['"', '\\'], "'");
    format!(
        "\"nproc\": {nproc}, \"cpu\": \"{}\", \"kernel\": \"{}\", \"rustc\": \"{}\"",
        quote(cpu),
        quote(kernel),
        quote(rustc)
    )
}

fn workspace_root() -> std::path::PathBuf {
    // The workspace root is two levels above this crate's manifest.
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the workspace root")
        .to_path_buf()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|arg| arg == "--quick");
    let check = args.iter().any(|arg| arg == "--check");
    let huge = args.iter().any(|arg| arg == "--huge");
    let threshold = args
        .iter()
        .position(|arg| arg == "--threshold")
        .map(|index| {
            args.get(index + 1)
                .and_then(|value| value.parse::<f64>().ok())
                .expect("--threshold takes a percentage, e.g. --threshold 15")
                / 100.0
        })
        .unwrap_or(DEFAULT_CHECK_THRESHOLD);
    let threads: Option<usize> = args
        .iter()
        .position(|arg| arg == "--threads")
        .map(|index| {
            args.get(index + 1)
                .and_then(|value| value.parse().ok())
                .expect("--threads takes a worker count, e.g. --threads 4")
        })
        .or_else(|| {
            std::env::var("NC_BENCH_THREADS")
                .ok()
                .map(|value| value.parse().expect("NC_BENCH_THREADS must be a number"))
        });
    let iterations = if quick { 1 } else { 3 };

    eprintln!(
        "bench_report: measuring macro benches ({} iterations each at most, unpinned rows {}) ...",
        iterations,
        match threads {
            Some(threads) => format!("sharded over {threads} workers"),
            None => "as run() dispatches them".to_string(),
        }
    );
    let mut results: Vec<BenchResult> = SIM_BENCHES
        .iter()
        .filter(|bench| match bench.tier {
            Tier::Quick => true,
            Tier::Full => !quick,
            Tier::Huge => huge,
        })
        .map(|bench| {
            let iterations = if quick { 1 } else { bench.iterations };
            measure(bench, iterations, bench.threads.or(threads))
        })
        .collect();
    // Query read-path batches run in quick mode too: the CI `--check
    // --quick` gate covers them, so a k-NN slowdown fails the smoke test.
    results.push(measure_queries("query/knn_10k_nodes", 10_000, iterations));
    results.push(measure_queries("query/knn_100k_nodes", 100_000, iterations));
    if huge {
        results.push(measure_queries("query/knn_1m_nodes", 1_000_000, 1));
    }

    let root = workspace_root();
    let path = root.join("BENCH_sim.json");

    if check {
        let recorded = std::fs::read_to_string(&path)
            .unwrap_or_else(|error| panic!("--check needs {}: {error}", path.display()));
        // Diagnostics follow the workspace check-tool contract shared with
        // nc-lint (see DETERMINISM.md): one `<tool>: error[<rule>]: ...`
        // line per finding, a `<tool> --check: FAIL (n diagnostics)` or
        // `OK (...)` summary, and a nonzero exit iff anything was found.
        let mut checked = 0;
        let mut failures = 0;
        for result in &results {
            let Some(median) = recorded_number(&recorded, result.name, "median_ns") else {
                eprintln!("  {}: not in BENCH_sim.json, skipping", result.name);
                continue;
            };
            checked += 1;
            // The event count is a function of the workload alone: exact on
            // any host, under any engine.
            let recorded_events =
                recorded_number(&recorded, result.name, "events").map(|events| events as u64);
            if let (Some(fresh), Some(recorded)) = (result.events, recorded_events) {
                if fresh != recorded {
                    failures += 1;
                    eprintln!(
                        "bench_report: error[bench-events]: {}: popped {fresh} events vs recorded {recorded}; the count must match exactly",
                        result.name
                    );
                }
            }
            let ratio = result.median_ns / median;
            let delta = (ratio - 1.0) * 100.0;
            if ratio > 1.0 + threshold {
                failures += 1;
                eprintln!(
                    "bench_report: error[bench-regression]: {}: fresh {:.0} ns vs recorded {:.0} ns ({delta:+.1} %), over the {:.0} % budget",
                    result.name,
                    result.median_ns,
                    median,
                    threshold * 100.0
                );
            } else {
                eprintln!(
                    "  {}: fresh {:.0} ns vs recorded {:.0} ns ({delta:+.1} %) ok",
                    result.name, result.median_ns, median
                );
            }
        }
        if failures > 0 {
            eprintln!("bench_report --check: FAIL ({failures} diagnostics)");
            std::process::exit(1);
        }
        eprintln!("bench_report --check: OK ({checked} benches checked)");
        return;
    }

    let mut json = String::new();
    json.push_str("{\n  \"schema\": 2,\n");
    json.push_str(
        "  \"description\": \"Macro simulator benchmarks (median wall-clock ns); regenerate with `cargo run -p nc-bench --release --bin bench_report`\",\n",
    );
    json.push_str(&format!("  \"host\": {{ {} }},\n", host_block()));
    json.push_str("  \"benches\": {\n");
    for (index, result) in results.iter().enumerate() {
        let events = match result.events {
            Some(events) => format!("\"events\": {events}, "),
            None => String::new(),
        };
        json.push_str(&format!(
            "    \"{}\": {{ \"median_ns\": {:.0}, \"nodes\": {}, {events}\"{}\": {:.0} }}{}\n",
            result.name,
            result.median_ns,
            result.nodes,
            result.rate_key,
            result.rate,
            if index + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str("  },\n");
    json.push_str("  \"baseline_pre_pr3\": {\n");
    for (index, (name, nodes, ns)) in PRE_PR3_BASELINE.iter().enumerate() {
        json.push_str(&format!(
            "    \"{name}\": {{ \"median_ns\": {ns:.0}, \"nodes\": {nodes} }}{}\n",
            if index + 1 < PRE_PR3_BASELINE.len() {
                ","
            } else {
                ""
            }
        ));
    }
    json.push_str("  }\n}\n");

    std::fs::write(&path, &json).expect("write BENCH_sim.json");
    eprintln!("wrote {}", path.display());
    print!("{json}");
}
