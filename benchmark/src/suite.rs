//! `ncbench run`, `trace` and `smoke`: every workload, each in a fresh child
//! process (so `peak_rss_mb` is per workload), collected into one result
//! file with the host described.

use std::process::{Command, ExitCode};

use serde::Value;

use crate::metrics::{self, number, WORKLOADS};
use crate::{clock, host, SMOKE_SCALE};

/// One child run's two record lines, parsed.
struct ChildRecord {
    result: Value,
    detail: Value,
    exit_ok: bool,
}

impl ChildRecord {
    /// The child exited cleanly and reported every check passed.
    fn ok(&self) -> bool {
        self.exit_ok && self.result.get("correct") == Some(&Value::Bool(true))
    }
}

fn run_child(
    workload: &str,
    trace: bool,
    seed: u64,
    seconds: f64,
    scale: usize,
) -> Result<ChildRecord, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--scale", &scale.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev().filter(|line| !line.trim().is_empty());
    let parse = |line: Option<&str>| {
        line.ok_or_else(|| format!("the {workload} child printed no record"))
            .and_then(|line| serde::json::parse_value(line).map_err(|e| format!("{workload}: {e}")))
    };
    let result = parse(lines.next())?;
    let detail = parse(lines.next())?;
    Ok(ChildRecord {
        result,
        detail: detail.get("detail").cloned().unwrap_or(Value::Null),
        exit_ok: output.status.success(),
    })
}

fn print_record(workload: &str, record: &ChildRecord) {
    let count = |key: &str| record.result.get(key).and_then(number).unwrap_or(0.0);
    println!(
        "{workload}: {} (attempted {}, failed {})",
        if record.ok() { "correct" } else { "FAILED" },
        count("attempted"),
        count("failed"),
    );
    if let Some(Value::Map(entries)) = record.result.get("metrics") {
        for (name, entry) in entries {
            let value = entry.get("value").and_then(number).unwrap_or(f64::NAN);
            let unit = match entry.get("unit") {
                Some(Value::Str(unit)) => unit.as_str(),
                _ => "",
            };
            println!("  {name:<40} {value:>16.6} {unit}");
        }
    }
    if let Some(Value::Seq(noisy)) = record.detail.get("noisy") {
        for name in noisy {
            if let Value::Str(name) = name {
                println!("  noisy: the repetitions of {name} spread wider than its bound");
            }
        }
    }
}

/// Runs every workload `runs` times, each run in its own child process, and
/// writes the result set. Fails when
/// any child reports a failed check.
pub fn run_all(
    trace: bool,
    seed: u64,
    seconds: f64,
    scale: usize,
    runs: usize,
    out: Option<&str>,
) -> ExitCode {
    let spin = clock::spin_mops(if scale == 1 { 1.0 } else { 0.1 });
    let mut workloads = Vec::new();
    let mut all_ok = true;
    for (workload, _) in WORKLOADS {
        let mut records = Vec::new();
        for _ in 0..runs {
            match run_child(workload, trace, seed, seconds, scale) {
                Ok(record) => {
                    print_record(workload, &record);
                    all_ok &=
                        record.exit_ok && record.result.get("correct") == Some(&Value::Bool(true));
                    let mut entry = match record.result {
                        Value::Map(entries) => entries,
                        _ => Vec::new(),
                    };
                    entry.push(("detail".to_string(), record.detail));
                    records.push(Value::Map(entry));
                }
                Err(error) => {
                    eprintln!("ncbench: error[run]: {workload}: {error}");
                    all_ok = false;
                }
            }
        }
        workloads.push((workload.to_string(), Value::Seq(records)));
    }
    let kind = if trace { "trace" } else { "run" };
    let set = Value::Map(vec![
        ("schema".to_string(), Value::UInt(1)),
        ("kind".to_string(), Value::Str(kind.to_string())),
        ("run_seconds".to_string(), Value::Float(seconds)),
        ("scale".to_string(), Value::UInt(scale as u64)),
        ("host".to_string(), host::host_block(seed, spin)),
        ("workloads".to_string(), Value::Map(workloads)),
    ]);
    let path = out.map_or_else(
        || crate::out_dir().join(format!("{kind}-seed{seed}.json")),
        std::path::PathBuf::from,
    );
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, serde::json::to_string_value(&set) + "\n"));
    match written {
        Ok(()) => println!("result set written to {}", path.display()),
        Err(error) => {
            eprintln!(
                "ncbench: error[run]: cannot write {}: {error}",
                path.display()
            );
            all_ok = false;
        }
    }
    if all_ok {
        println!("ncbench {kind}: OK ({} workloads checked)", WORKLOADS.len());
        ExitCode::SUCCESS
    } else {
        println!("ncbench {kind}: FAIL");
        ExitCode::FAILURE
    }
}

/// Checks that `BENCHMARK.json` lists exactly this program's catalogue.
fn manifest_agrees() -> Result<(), String> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let manifest = serde::json::parse_value(&text).map_err(|e| e.to_string())?;
    for (section, expected) in metrics::manifest_sections() {
        if manifest.get(&section) != Some(&expected) {
            return Err(format!(
                "BENCHMARK.json `{section}` differs from `ncbench manifest`"
            ));
        }
    }
    Ok(())
}

/// All five workloads, end to end and traced, at 1/20 scale with every
/// check on.
pub fn smoke() -> ExitCode {
    let start = clock::now_ns();
    let mut ok = true;
    if let Err(error) = manifest_agrees() {
        eprintln!("ncbench: error[manifest]: {error}");
        ok = false;
    }
    let dir = crate::out_dir();
    for trace in [false, true] {
        let path = dir.join(if trace {
            "smoke-trace.json"
        } else {
            "smoke-run.json"
        });
        ok &= run_all(trace, 1, 1.0, SMOKE_SCALE, 1, path.to_str()) == ExitCode::SUCCESS;
    }
    println!(
        "ncbench smoke: {} in {:.1} s",
        if ok { "OK" } else { "FAIL" },
        clock::seconds(start, clock::now_ns())
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
