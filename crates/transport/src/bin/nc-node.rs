//! `nc-node` — one stable-coordinates node per process, on real UDP.
//!
//! ```text
//! nc-node --bind 127.0.0.1:0 \
//!         --seed 10.0.0.1:4500 --seed 10.0.0.2:4500 \
//!         --probe-interval-ms 500 --probe-timeout-ms 2000 \
//!         --stats-interval-s 5 --duration-s 0 \
//!         --snapshot node-a.snapshot
//! ```
//!
//! The node binds, joins the overlay through its seed addresses (gossip
//! grows the membership from there), probes round-robin, and prints a stats
//! line per interval. On exit — after `--duration-s`, or at end of input on
//! stdin (type `quit` or close the pipe) — it persists its snapshot when
//! `--snapshot` is given; starting again with the same snapshot path
//! resumes from it, keeping the node's coordinate and membership.

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "a daemon reports on the terminal"
)]

use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use nc_transport::{NodeRuntime, RuntimeConfig};
use stable_nc::NodeConfig;

struct Args {
    bind: SocketAddr,
    seeds: Vec<SocketAddr>,
    probe_interval_ms: u64,
    probe_timeout_ms: u64,
    stats_interval_s: u64,
    duration_s: u64,
    snapshot: Option<PathBuf>,
    max_consecutive_losses: Option<u32>,
}

const USAGE: &str = "usage: nc-node --bind ADDR [options]
  --bind ADDR                 address to bind (e.g. 127.0.0.1:0)
  --seed ADDR                 bootstrap peer; repeatable
  --probe-interval-ms N       milliseconds between probes (default 500)
  --probe-timeout-ms N        probe timeout in milliseconds (default 2000)
  --stats-interval-s N        seconds between stats lines, 0 = off (default 5)
  --duration-s N              run time in seconds, 0 = until stdin closes (default 0)
  --snapshot PATH             restore from and persist the engine snapshot here
  --max-consecutive-losses N  evict peers after N straight losses (default: never)";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        bind: "127.0.0.1:0".parse().expect("valid default"),
        seeds: Vec::new(),
        probe_interval_ms: 500,
        probe_timeout_ms: 2_000,
        stats_interval_s: 5,
        duration_s: 0,
        snapshot: None,
        max_consecutive_losses: None,
    };
    let mut bind_seen = false;
    let mut raw = std::env::args().skip(1);
    while let Some(flag) = raw.next() {
        if flag == "--help" || flag == "-h" {
            return Err(String::new());
        }
        let mut value = || raw.next().ok_or_else(|| format!("{flag} expects a value"));
        match flag.as_str() {
            "--bind" => {
                args.bind = value()?.parse().map_err(|e| format!("--bind: {e}"))?;
                bind_seen = true;
            }
            "--seed" => args
                .seeds
                .push(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--probe-interval-ms" => {
                args.probe_interval_ms = value()?
                    .parse()
                    .map_err(|e| format!("--probe-interval-ms: {e}"))?
            }
            "--probe-timeout-ms" => {
                args.probe_timeout_ms = value()?
                    .parse()
                    .map_err(|e| format!("--probe-timeout-ms: {e}"))?
            }
            "--stats-interval-s" => {
                args.stats_interval_s = value()?
                    .parse()
                    .map_err(|e| format!("--stats-interval-s: {e}"))?
            }
            "--duration-s" => {
                args.duration_s = value()?.parse().map_err(|e| format!("--duration-s: {e}"))?
            }
            "--snapshot" => args.snapshot = Some(PathBuf::from(value()?)),
            "--max-consecutive-losses" => {
                args.max_consecutive_losses = Some(
                    value()?
                        .parse()
                        .map_err(|e| format!("--max-consecutive-losses: {e}"))?,
                )
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !bind_seen {
        return Err("--bind is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("nc-node: {message}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    let mut node_config = NodeConfig::builder();
    if let Some(losses) = args.max_consecutive_losses {
        node_config = node_config.max_consecutive_losses(losses);
    }
    let config = RuntimeConfig {
        node: node_config.build(),
        seeds: args.seeds.clone(),
        advertised_addr: None,
        probe_interval_ms: args.probe_interval_ms,
        probe_timeout_ms: args.probe_timeout_ms,
        snapshot_path: args.snapshot.clone(),
    };
    let restoring = args.snapshot.as_deref().is_some_and(|path| path.exists());

    // The `t=` of every stats line counts from here.
    #[allow(
        clippy::disallowed_methods,
        reason = "a daemon's stats line reports wall time"
    )]
    let started = Instant::now();
    let runtime = match NodeRuntime::bind(args.bind, config) {
        Ok(runtime) => runtime,
        Err(e) => {
            eprintln!("nc-node: failed to start on {}: {e}", args.bind);
            return ExitCode::FAILURE;
        }
    };
    println!("nc-node listening on {}", runtime.local_addr());
    if restoring {
        let (coordinate, _) = runtime.coordinate();
        println!(
            "nc-node restored snapshot: coord=[{}]",
            coordinate
                .components()
                .iter()
                .map(|c| format!("{c:.1}"))
                .collect::<Vec<_>>()
                .join(",")
        );
    }

    // Exit either after --duration-s or when stdin reaches EOF / "quit"
    // (whichever a supervisor finds easier to drive).
    let stdin_done = Arc::new(AtomicBool::new(false));
    if args.duration_s == 0 {
        let stdin_done = Arc::clone(&stdin_done);
        std::thread::spawn(move || {
            use std::io::BufRead;
            let stdin = std::io::stdin();
            for line in stdin.lock().lines() {
                match line {
                    Ok(text) if text.trim() == "quit" => break,
                    Ok(_) => continue,
                    Err(_) => break,
                }
            }
            stdin_done.store(true, Ordering::SeqCst);
        });
    }

    let stats_interval = Duration::from_secs(args.stats_interval_s);
    let mut next_stats = stats_interval;
    loop {
        std::thread::sleep(Duration::from_millis(50));
        if args.stats_interval_s > 0 && started.elapsed() >= next_stats {
            println!(
                "[{}] {}",
                runtime.advertised_addr(),
                stats_line(&runtime, started)
            );
            next_stats += stats_interval;
        }
        if args.duration_s > 0 {
            if started.elapsed() >= Duration::from_secs(args.duration_s) {
                break;
            }
        } else if stdin_done.load(Ordering::SeqCst) {
            break;
        }
    }

    println!("nc-node final: {}", stats_line(&runtime, started));
    match runtime.shutdown() {
        Ok(snapshot) => {
            if args.snapshot.is_some() {
                println!(
                    "nc-node snapshot persisted ({} neighbors, {} observations)",
                    snapshot.neighbor_count(),
                    snapshot.observations
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("nc-node: shutdown failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One human-readable status line: the engine's coordinate and error, its
/// peer count and the runtime's counters, `t=` seconds after `started`.
fn stats_line(runtime: &NodeRuntime, started: Instant) -> String {
    let view = runtime.view();
    let stats = runtime.stats();
    let components: Vec<String> = view
        .system
        .components()
        .iter()
        .map(|c| format!("{c:.1}"))
        .collect();
    format!(
        "t={:.1}s coord=[{}] h={:.1} err={:.3} peers={} sent={} recv={} answered={} ignored={} lost={} evicted={}",
        started.elapsed().as_secs_f64(),
        components.join(","),
        view.system.height(),
        view.error_estimate,
        view.membership.len(),
        stats.probes_sent,
        stats.responses_received,
        stats.requests_answered,
        stats.responses_ignored,
        stats.probes_lost,
        stats.neighbors_evicted,
    )
}
