//! Confidence building on a low-latency cluster (the paper's §IV-B / Figure 6
//! scenario).
//!
//! Three nodes on the same rack measure each other once per second. Because
//! the real latency (~1 ms) is at the resolution of the measurement software,
//! ordinary Vivaldi never becomes confident; allowing a small
//! measurement-error margin fixes that.
//!
//! This example deliberately drives the bare `VivaldiState` layer — the
//! substrate *below* the sans-I/O `StableNode` engine — to isolate the
//! confidence-building mechanism from filtering and change detection.
//!
//! Run with: `cargo run --release --example cluster_confidence`

#![allow(clippy::print_stdout, clippy::print_stderr)] // An example shows its results.

use nc_netsim::cluster::ClusterModel;
use nc_vivaldi::{RemoteObservation, VivaldiConfig, VivaldiState};

fn run_cluster(margin_ms: Option<f64>, seed: u64) -> Vec<f64> {
    let config = VivaldiConfig::paper_defaults().with_confidence_building(margin_ms);
    let mut nodes: Vec<VivaldiState> = (0..3)
        .map(|i| VivaldiState::new(config.clone().with_seed(seed + i)))
        .collect();
    let mut model = ClusterModel::paper_cluster(seed);
    let mut confidence = Vec::new();
    for second in 0..600 {
        for i in 0..3 {
            let j = (i + 1 + second % 2) % 3;
            let rtt = model.sample();
            let obs = RemoteObservation::new(
                nodes[j].coordinate().clone(),
                nodes[j].error_estimate(),
                rtt,
            );
            nodes[i].observe(&obs);
        }
        confidence.push(nodes[0].confidence());
    }
    confidence
}

fn main() {
    println!("three-node cluster, one probe per second, ten minutes\n");
    let with_margin = run_cluster(Some(3.0), 42);
    let without_margin = run_cluster(None, 42);

    println!("minute   confidence (with 3 ms margin)   confidence (without)");
    println!("--------------------------------------------------------------");
    for minute in 0..10 {
        let idx = (minute * 60 + 59).min(with_margin.len() - 1);
        println!(
            "{:6}   {:29.3}   {:20.3}",
            minute + 1,
            with_margin[idx],
            without_margin[idx]
        );
    }

    let mean = |v: &[f64]| v[v.len() / 2..].iter().sum::<f64>() / (v.len() - v.len() / 2) as f64;
    println!(
        "\nsteady-state confidence: {:.3} with confidence building, {:.3} without \
         (the paper reports ~1.0 vs ~0.75)",
        mean(&with_margin),
        mean(&without_margin)
    );
}
