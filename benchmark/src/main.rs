//! `ncbench` — the repo's measure of record.
//!
//! Five named workloads, seven end-to-end metrics every workload reports,
//! and a separate traced run that attributes time and work to each crate of
//! the workspace. See `README.md` beside this package for the reasoning and
//! `../BENCHMARK.json` for the catalogue the driver reads.
//!
//! ```text
//! ncbench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, result on the last line
//! ncbench run   [--seed n] [--seconds s] [--runs k] [--out file]      every workload, end to end
//! ncbench trace [--seed n] [--seconds s] [--runs k] [--out file]      every workload, per layer
//! ncbench agree A.json B.json                                        compare two result sets
//! ncbench smoke                                                      all workloads at 1/20 scale
//! ncbench manifest                                                   the catalogue, as BENCHMARK.json lists it
//! ```

mod agree;
mod alloc;
mod clock;
mod host;
mod metrics;
mod micro;
mod query;
mod replay;
mod sim;
mod spans;
mod stats;
mod suite;
mod udp;

use std::process::ExitCode;

use metrics::Outcome;

#[global_allocator]
static ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;

/// Scale divisor of `ncbench smoke`.
pub const SMOKE_SCALE: usize = 20;

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end run.
    pub trace: bool,
    /// Size divisor: 1 for the real workloads, [`SMOKE_SCALE`] for smoke.
    pub scale: usize,
}

/// Directory the traced run writes its span files to.
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: ncbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       ncbench run|trace [--seed n] [--seconds s] [--runs k] [--out file]\n       ncbench agree A.json B.json\n       ncbench smoke | manifest\nworkloads: {}",
        metrics::WORKLOADS.map(|(name, _)| name).join(", ")
    );
    ExitCode::from(2)
}

/// Parses `--key value` pairs; `None` on an unknown key or a missing value.
fn parse_flags(args: &[String]) -> Option<Vec<(&str, &str)>> {
    let mut flags = Vec::new();
    let mut rest = args.iter();
    while let Some(key) = rest.next() {
        let key = key.strip_prefix("--")?;
        flags.push((key, rest.next()?.as_str()));
    }
    Some(flags)
}

fn flag<'a>(flags: &[(&str, &'a str)], key: &str) -> Option<&'a str> {
    flags.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
}

fn run_sim(kind: sim::SimKind, options: &Options, out: &mut Outcome) {
    if options.trace {
        replay::run(kind, options, out);
    } else {
        sim::run(kind, options, out);
    }
}

/// Runs one workload in this process and prints its record: a `detail`
/// line, then the contract's result object as the last line.
fn run_one(options: &Options) -> ExitCode {
    let mut out = Outcome::default();
    match options.workload.as_str() {
        "sim-steady" => run_sim(sim::SimKind::Steady, options, &mut out),
        "sim-hostile" => run_sim(sim::SimKind::Hostile, options, &mut out),
        "sim-compare" => run_sim(sim::SimKind::Compare, options, &mut out),
        "udp-answer" => udp::run(options, &mut out),
        "query-drift" => query::run(options, &mut out),
        _ => return usage(),
    }
    let result = out.result_line(options.trace);
    println!("{}", out.detail_line(&options.workload, options.seed));
    println!("{result}");
    for problem in &out.problems {
        eprintln!("ncbench: error[check]: {}: {problem}", options.workload);
    }
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(first) = args.first() else {
        return usage();
    };
    match first.as_str() {
        "run" | "trace" => {
            let Some(flags) = parse_flags(&args[1..]) else {
                return usage();
            };
            let seed = flag(&flags, "seed").map_or(Some(1), |v| v.parse().ok());
            let seconds = flag(&flags, "seconds").map_or(Some(15.0), |v| v.parse().ok());
            let runs = flag(&flags, "runs").map_or(Some(1), |v| v.parse().ok());
            let (Some(seed), Some(seconds), Some(runs)) = (seed, seconds, runs) else {
                return usage();
            };
            suite::run_all(
                first == "trace",
                seed,
                seconds,
                1,
                runs,
                flag(&flags, "out"),
            )
        }
        "smoke" => suite::smoke(),
        "manifest" => {
            println!(
                "{}",
                serde::json::to_string_value(&serde::Value::Map(metrics::manifest_sections()))
            );
            ExitCode::SUCCESS
        }
        "agree" => match (args.get(1), args.get(2)) {
            (Some(a), Some(b)) => agree::compare_files(a, b),
            _ => usage(),
        },
        _ => {
            let Some(flags) = parse_flags(&args) else {
                return usage();
            };
            let options = (|| {
                Some(Options {
                    workload: flag(&flags, "workload")?.to_string(),
                    seed: flag(&flags, "seed")?.parse().ok()?,
                    seconds: flag(&flags, "seconds")?.parse().ok()?,
                    trace: match flag(&flags, "trace")? {
                        "0" => false,
                        "1" => true,
                        _ => return None,
                    },
                    scale: flag(&flags, "scale").map_or(Some(1), |v| v.parse().ok())?,
                })
            })();
            match options {
                Some(options) if options.seconds > 0.0 && options.scale > 0 => run_one(&options),
                _ => usage(),
            }
        }
    }
}
