//! `query-drift`: a 100,000-node `CoordinateIndex` with rounds of drifting
//! point updates followed by exact k-NN reads, on one thread.
//!
//! Reads beside writes on the same shards: an optimisation that buys
//! `ops_per_s` (k-NN) with heavier shard maintenance pays in
//! `updates_per_s` in the same run.

use nc_query::{CoordinateIndex, QueryConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;
use stable_nc::Coordinate;

use crate::alloc::allocations;
use crate::clock::{now_ns, process_cpu_ns, seconds};
use crate::metrics::Outcome;
use crate::spans::{Tracer, ROOT};
use crate::{host, micro, sim, stats, Options};

/// Tracked nodes at full scale.
const NODES: usize = 100_000;
/// Point updates per round.
const UPDATES_PER_ROUND: usize = 256;
/// k-NN queries per round.
const QUERIES_PER_ROUND: usize = 1_024;
/// Neighbours asked for.
const K: usize = 8;
/// Indexes built per run; `setup_s` is the median over them.
const BUILDS: usize = 5;
/// In the traced run, one query in this many is timed singly.
const SINGLE_EVERY: usize = 64;

/// A synthetic node: 3-D within ±300 ms, height 0–4 ms.
fn random_coordinate(rng: &mut StdRng) -> Coordinate {
    let components = [
        rng.gen_range(-300.0..300.0),
        rng.gen_range(-300.0..300.0),
        rng.gen_range(-300.0..300.0),
    ];
    Coordinate::with_height(components, rng.gen_range(0.0..4.0))
        .unwrap_or_else(|_| Coordinate::origin(3))
}

/// `from` moved by at most 5 ms per axis, as Vivaldi drift does.
fn drifted(from: &Coordinate, rng: &mut StdRng) -> Coordinate {
    let mut components = [0.0; 3];
    for (moved, x) in components.iter_mut().zip(from.components()) {
        *moved = x + rng.gen_range(-5.0..5.0);
    }
    Coordinate::with_height(components, from.height()).unwrap_or_else(|_| from.clone())
}

fn build(coordinates: &[Coordinate], out: &mut Outcome) -> CoordinateIndex<u64> {
    let mut index = CoordinateIndex::new(QueryConfig::default())
        .unwrap_or_else(|error| panic!("default query configuration rejected: {error}"));
    for (id, coordinate) in coordinates.iter().enumerate() {
        if index.update(id as u64, coordinate).is_err() {
            out.failed += 1;
        }
    }
    index
}

/// The `k` nearest ids by a brute-force scan with the index's own
/// `(distance, id)` order.
fn oracle(coordinates: &[Coordinate], target: &Coordinate) -> Vec<u64> {
    let mut ranked: Vec<(f64, u64)> = coordinates
        .iter()
        .enumerate()
        .map(|(id, coordinate)| (target.distance(coordinate), id as u64))
        .collect();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    ranked.truncate(K);
    ranked.into_iter().map(|(_, id)| id).collect()
}

/// Runs the workload (both the end-to-end and the traced form).
pub fn run(options: &Options, out: &mut Outcome) {
    let nodes = (NODES / options.scale).max(1_000);
    let mut rng = StdRng::seed_from_u64(options.seed);
    let mut coordinates: Vec<Coordinate> =
        (0..nodes).map(|_| random_coordinate(&mut rng)).collect();

    let mut build_samples = Vec::new();
    let mut built = None;
    for _ in 0..BUILDS {
        drop(built.take());
        let start = now_ns();
        let index = build(&coordinates, out);
        build_samples.push(seconds(start, now_ns()));
        built = Some(index);
    }
    let Some(mut index) = built else {
        return;
    };

    let mut tracer = options.trace.then(|| Tracer::new("query-drift"));
    let ops = tracer.as_mut().map(|t| {
        (
            t.op("query.round"),
            t.op("query.update"),
            t.op("query.k_nearest"),
        )
    });
    let mut moves: Vec<(u64, Coordinate)> = Vec::with_capacity(UPDATES_PER_ROUND);
    let mut targets: Vec<Coordinate> = Vec::with_capacity(QUERIES_PER_ROUND);
    let (mut knn_rates, mut update_rates, mut cpu_per_knn) = (Vec::new(), Vec::new(), Vec::new());
    let (mut single_us, mut knn_allocs) = (Vec::new(), 0u64);
    let (mut checked, mut mismatches, mut queries, mut updates) = (0u64, 0u64, 0u64, 0u64);
    let start = now_ns();
    let mut round = 0u32;
    while seconds(start, now_ns()) < options.seconds {
        // Inputs for the round, generated outside the timed regions.
        moves.clear();
        for _ in 0..UPDATES_PER_ROUND {
            let id = rng.gen_range(0..nodes);
            coordinates[id] = drifted(&coordinates[id], &mut rng);
            moves.push((id as u64, coordinates[id].clone()));
        }
        targets.clear();
        targets.extend((0..QUERIES_PER_ROUND).map(|_| random_coordinate(&mut rng)));
        let parent = match (tracer.as_mut(), ops) {
            (Some(tracer), Some(ops)) => tracer.open(ops.0, ROOT, round),
            _ => ROOT,
        };

        let update_start = now_ns();
        for (id, coordinate) in &moves {
            if index.update(*id, coordinate).is_err() {
                out.failed += 1;
            }
        }
        let update_end = now_ns();
        update_rates.push(moves.len() as f64 / seconds(update_start, update_end));
        updates += moves.len() as u64;

        let allocs_start = allocations();
        let cpu_start = process_cpu_ns();
        let knn_start = now_ns();
        let mut found = 0usize;
        for (position, target) in targets.iter().enumerate() {
            let timed = tracer.is_some()
                && round.is_multiple_of(2)
                && position.is_multiple_of(SINGLE_EVERY);
            let t0 = if timed { now_ns() } else { 0 };
            match index.k_nearest(target, K) {
                Ok(matches) => found += std::hint::black_box(matches).len(),
                Err(_) => out.failed += 1,
            }
            if let (true, Some(tracer), Some(ops)) = (timed, tracer.as_mut(), ops) {
                let t1 = now_ns();
                tracer.span(
                    ops.2,
                    parent,
                    round * QUERIES_PER_ROUND as u32 + position as u32,
                    t0,
                    t1,
                );
                single_us.push((t1 - t0) as f64 / 1e3);
            }
        }
        let knn_s = seconds(knn_start, now_ns());
        cpu_per_knn.push(seconds(cpu_start, process_cpu_ns()) * 1e6 / targets.len() as f64);
        knn_allocs += allocations() - allocs_start;
        knn_rates.push(targets.len() as f64 / knn_s);
        queries += targets.len() as u64;
        out.check(found == targets.len() * K, || {
            format!(
                "round {round}: {found} matches for {} queries of k = {K}",
                targets.len()
            )
        });

        if let (Some(tracer), Some(ops)) = (tracer.as_mut(), ops) {
            tracer.span(ops.1, parent, round, update_start, update_end);
            tracer.close(parent);
        }
        // Every 1,024th query is checked against a brute-force scan,
        // outside the timed regions.
        if let Some(target) = targets.first() {
            checked += 1;
            let answer: Vec<u64> = index
                .k_nearest(target, K)
                .map(|matches| matches.into_iter().map(|m| m.id).collect())
                .unwrap_or_default();
            if answer != oracle(&coordinates, target) {
                mismatches += 1;
            }
        }
        round += 1;
    }
    out.attempted = queries + updates;
    out.failed += mismatches;
    out.check(mismatches == 0, || {
        format!("{mismatches} of {checked} oracle-checked queries disagree with brute force")
    });
    out.note("rounds", Value::UInt(round as u64));
    out.note("oracle_checked", Value::UInt(checked));

    if let Some(tracer) = tracer {
        let (splits, merges) = index.rebalances();
        out.set("query.knn_us_p50", stats::percentile(&mut single_us, 50.0));
        out.set("query.knn_us_p99", stats::percentile(&mut single_us, 99.0));
        out.samples.insert("query.knn_us_p50", single_us.len());
        out.set("query.update_ns", 1e9 / stats::median_of(&update_rates));
        out.set("query.build_s", stats::median_of(&build_samples));
        out.set("query.shards", index.shard_count() as f64);
        out.set("query.splits", splits as f64);
        out.set("query.merges", merges as f64);
        out.set(
            "query.allocs_per_knn",
            knn_allocs as f64 / queries.max(1) as f64,
        );
        out.set("query.oracle_checked", checked as f64);
        out.set("query.oracle_mismatches", mismatches as f64);
        // Odd rounds time no query singly: their rate against the even
        // rounds' is the price of the single timings.
        let rate_of = |parity: usize| {
            let rates: Vec<f64> = knn_rates.iter().skip(parity).step_by(2).copied().collect();
            stats::median_of(&rates)
        };
        if knn_rates.len() >= 2 {
            out.set("bench.trace_overhead_share", rate_of(1) / rate_of(0) - 1.0);
        }
        let clock_ns = crate::clock::calibrate_clock_ns(10_000);
        micro::query_publish(index, out);
        micro::harness(clock_ns, options.scale, out);
        out.note("self_times", crate::replay::self_time_table(&tracer));
        if let Err(error) = tracer.write_jsonl(&crate::out_dir().join("trace-query-drift.jsonl")) {
            out.problem(format!("cannot write the trace file: {error}"));
        }
    } else {
        out.set_median("setup_s", &build_samples);
        out.set_median("ops_per_s", &knn_rates);
        out.set_median("updates_per_s", &update_rates);
        out.set_median("cpu_us_per_op", &cpu_per_knn);
        out.set("peak_rss_mb", host::peak_rss_mib());
        drop(index);
        sim::reference_accuracy(options, out);
    }
}
