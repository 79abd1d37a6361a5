//! PlanetLab-style comparison: the full paper stack versus the original
//! Vivaldi on identical observation streams.
//!
//! This is a compact version of the paper's §VI deployment experiment
//! (Figure 13): two coordinate systems run side by side on the same synthetic
//! PlanetLab workload and the accuracy/stability metrics are printed for the
//! second half of the run.
//!
//! The simulator drives every node through the sans-I/O engine API — each
//! probe is a `ProbeRequest`/`ProbeResponse` exchange delivered through the
//! discrete-event queue (probes spend half the RTT in flight each way), and
//! the metrics are folded from the engine's `Event` stream, so this doubles
//! as an end-to-end exercise of the wire protocol at 32-node scale. Links
//! drop 2% of packets per direction, the way a real PlanetLab mesh would;
//! the lost probes time out, surface as `Event::ProbeLost` and are counted
//! in the report without ever stalling the probe schedule.
//!
//! Run with: `cargo run --release --example planetlab_sim`

#![allow(clippy::print_stdout, clippy::print_stderr)] // An example shows its results.

use nc_netsim::linkmodel::LinkModelConfig;
use nc_netsim::planetlab::PlanetLabConfig;
use nc_netsim::sim::{SimConfig, Simulator};
use stable_nc::NodeConfig;

fn main() {
    let workload = PlanetLabConfig::small(32)
        .with_seed(20050624)
        .with_link_config(LinkModelConfig::default().with_loss_probability(0.02));
    let sim_config = SimConfig::new(3_600.0, 5.0).with_measurement_start(1_800.0);
    let configs = vec![
        (
            "enhanced (MP filter + ENERGY)".to_string(),
            NodeConfig::paper_defaults(),
        ),
        (
            "original Vivaldi (raw, no suppression)".to_string(),
            NodeConfig::original_vivaldi(),
        ),
    ];

    println!("simulating 32 nodes for one hour (measurement: second half) ...");
    let report = Simulator::new(workload, sim_config, configs).run();

    println!(
        "\n{:44} {:>18} {:>18} {:>14} {:>12}",
        "configuration", "median rel. error", "95th pct rel. err", "instability", "probes lost"
    );
    println!("{}", "-".repeat(111));
    for (name, metrics) in report.iter() {
        println!(
            "{:44} {:>18.3} {:>18.3} {:>11.1} ms/s {:>12}",
            name,
            metrics.median_of_application_median_relative_error(),
            metrics.median_of_application_p95_relative_error(),
            metrics.aggregate_application_instability(),
            metrics.total_probes_lost(),
        );
    }

    let enhanced = report.config("enhanced (MP filter + ENERGY)").unwrap();
    let original = report
        .config("original Vivaldi (raw, no suppression)")
        .unwrap();
    let error_reduction = (1.0
        - enhanced.median_of_application_p95_relative_error()
            / original.median_of_application_p95_relative_error())
        * 100.0;
    let stability_reduction = (1.0
        - enhanced.aggregate_application_instability()
            / original.aggregate_application_instability())
        * 100.0;
    println!(
        "\nenhancements reduce the median 95th-percentile relative error by {error_reduction:.0}% \
         and instability by {stability_reduction:.0}% (paper: 54% and 96%)"
    );
}
