//! Per-event-cost profiler for the simulator's scaling behaviour.
//!
//! Runs one simulated hour (shorter at very large sizes unless overridden)
//! at a ladder of mesh sizes and reports wall-clock time, the number of
//! events popped from the queue and the resulting events-per-second rate.
//! A flat rate across sizes means per-event cost is size-independent — the
//! property the 4096-node scaling work targets; a falling rate exposes a
//! cliff (superlinear per-event cost).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p nc-netsim --example cliff [-- nodes...] [--threads N] [--duration S]
//! ```
//!
//! Defaults to `256 1024 4096`. `--threads N` runs the node-sharded
//! executor (`Simulator::with_threads`); profile with `perf record` around
//! this binary to attribute per-event cost.

#![allow(clippy::print_stdout, clippy::print_stderr)] // A measurement program prints its table.

use std::time::Instant;

use nc_netsim::planetlab::PlanetLabConfig;
use nc_netsim::sim::{SimConfig, Simulator};
use stable_nc::NodeConfig;

/// Wall seconds of one run and the events it popped.
fn run(nodes: usize, duration_s: f64, threads: Option<usize>) -> (f64, u64) {
    let workload = PlanetLabConfig::small(nodes).with_seed(20_050_502);
    let sim_config = SimConfig::new(duration_s, 5.0).with_measurement_start(duration_s / 2.0);
    let mut simulator = Simulator::new(
        workload,
        sim_config,
        vec![("mp".to_string(), NodeConfig::paper_defaults())],
    );
    if let Some(threads) = threads {
        simulator = simulator.with_threads(threads);
    }
    let start = Instant::now();
    let report = simulator.run();
    std::hint::black_box(report);
    (start.elapsed().as_secs_f64(), simulator.events_popped())
}

fn main() {
    let mut sizes: Vec<usize> = Vec::new();
    let mut threads: Option<usize> = None;
    let mut duration_override: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => {
                let value = args.next().expect("--threads takes a worker count");
                threads = Some(value.parse().expect("--threads takes a number"));
            }
            "--duration" => {
                let value = args.next().expect("--duration takes seconds");
                duration_override = Some(value.parse().expect("--duration takes seconds"));
            }
            other => sizes.push(other.parse().unwrap_or_else(|_| {
                panic!("unrecognized argument {other:?} (expected a node count)")
            })),
        }
    }
    if sizes.is_empty() {
        sizes = vec![256, 1024, 4096];
    }

    let mut baseline: Option<f64> = None;
    for &nodes in &sizes {
        // Keep the largest sizes affordable by default: the rate, not the
        // total, is the quantity under test.
        let duration_s = duration_override.unwrap_or(if nodes > 8192 { 900.0 } else { 3600.0 });
        let (elapsed, events) = run(nodes, duration_s, threads);
        let rate = events as f64 / elapsed / 1e6;
        let relative = baseline.get_or_insert(rate);
        println!(
            "{nodes:>6} nodes  {duration_s:>6.0} s simulated  {elapsed:>8.2} s wall  \
             {events:>10} events  {rate:>6.2}M ev/s  ({:.2}x baseline cost)",
            *relative / rate
        );
    }
}
