//! `ncbench agree A.json B.json`: compares two result sets metric by
//! metric against the catalogue's bounds.
//!
//! A row is `agree` when B's median is no worse than A's by more than the
//! bound, `worse` when it is, and `unresolved` when the run-to-run spread
//! of either side is wider than the bound — unless every run of one side
//! reads better than every run of the other, which settles it either way.
//! Per-layer metrics carry no bound and are listed with their change only.

use std::process::ExitCode;

use serde::Value;

use crate::metrics::{self, number, Better};
use crate::stats;

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde::json::parse_value(&text).map_err(|e| format!("{path}: {e}"))
}

/// Every run's value of `metric` on `workload`, in run order.
fn samples(set: &Value, workload: &str, metric: &str) -> Vec<f64> {
    let Some(Value::Seq(runs)) = set.get("workloads").and_then(|w| w.get(workload)) else {
        return Vec::new();
    };
    runs.iter()
        .filter_map(|run| number(run.get("metrics")?.get(metric)?.get("value")?))
        .collect()
}

/// The `report_digest` of every run of `workload`.
fn digests(set: &Value, workload: &str) -> Vec<String> {
    let Some(Value::Seq(runs)) = set.get("workloads").and_then(|w| w.get(workload)) else {
        return Vec::new();
    };
    runs.iter()
        .filter_map(|run| match run.get("detail")?.get("report_digest")? {
            Value::Str(digest) => Some(digest.clone()),
            _ => None,
        })
        .collect()
}

/// How a row reads.
#[derive(Debug, PartialEq, Eq)]
enum Verdict {
    Agree,
    Worse,
    Unresolved,
}

/// Judges B against A for one bounded metric.
fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (median_a, median_b) = (stats::median_of(a), stats::median_of(b));
    let worsening = match better {
        Better::Lower => (median_b - median_a) / median_a.abs(),
        Better::Higher => (median_a - median_b) / median_a.abs(),
    };
    let b_beats = |x: f64, y: f64| match better {
        Better::Lower => y < x,
        Better::Higher => y > x,
    };
    let every = |wins: &dyn Fn(f64, f64) -> bool| a.iter().all(|x| b.iter().all(|y| wins(*x, *y)));
    let spread = stats::relative_iqr(a).max(stats::relative_iqr(b));
    if spread > bound {
        if every(&|x, y| b_beats(x, y)) {
            Verdict::Agree
        } else if every(&|x, y| b_beats(y, x)) && worsening > bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else if worsening > bound {
        Verdict::Worse
    } else {
        Verdict::Agree
    }
}

/// Prints the comparison; fails on any `worse` row or unreadable file.
pub fn compare_files(path_a: &str, path_b: &str) -> ExitCode {
    let (set_a, set_b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            for error in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("ncbench: error[agree]: {error}");
            }
            return ExitCode::from(2);
        }
    };
    let (mut worse, mut unresolved, mut rows) = (0, 0, 0);
    for (workload, _) in metrics::WORKLOADS {
        println!("{workload}");
        for def in metrics::END_TO_END.iter().chain(metrics::PER_LAYER) {
            let (a, b) = (
                samples(&set_a, workload, def.name),
                samples(&set_b, workload, def.name),
            );
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let (median_a, median_b) = (stats::median_of(&a), stats::median_of(&b));
            if median_a == 0.0 && median_b == 0.0 {
                continue;
            }
            let change = (median_b - median_a) / median_a.abs() * 100.0;
            let verdict = match def.bound {
                Some(bound) => match judge(&a, &b, def.better, bound) {
                    Verdict::Agree => "agree",
                    Verdict::Worse => {
                        worse += 1;
                        "worse"
                    }
                    Verdict::Unresolved => {
                        unresolved += 1;
                        "unresolved"
                    }
                },
                None => "",
            };
            rows += 1;
            println!(
                "  {:<38} {median_a:>15.6} {median_b:>15.6} {change:>+9.2} % {:<5} {verdict}",
                def.name, def.unit
            );
        }
        let (a, b) = (digests(&set_a, workload), digests(&set_b, workload));
        if let (Some(first), false) = (a.first(), b.is_empty()) {
            let identical = a.iter().chain(&b).all(|digest| digest == first);
            println!(
                "  {:<38} {}",
                "report_digest",
                if identical { "identical" } else { "differs" }
            );
        }
    }
    println!(
        "ncbench agree: {} ({rows} rows, {worse} worse, {unresolved} unresolved)",
        if worse == 0 { "OK" } else { "FAIL" }
    );
    if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_move_inside_the_bound_agrees() {
        assert_eq!(
            judge(&[100.0, 101.0], &[95.0, 96.0], Better::Higher, 0.10),
            Verdict::Agree
        );
    }

    #[test]
    fn a_move_beyond_the_bound_is_worse_in_the_bad_direction_only() {
        assert_eq!(
            judge(&[100.0], &[80.0], Better::Higher, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            judge(&[100.0], &[120.0], Better::Higher, 0.10),
            Verdict::Agree
        );
        assert_eq!(
            judge(&[100.0], &[120.0], Better::Lower, 0.10),
            Verdict::Worse
        );
    }

    #[test]
    fn a_wide_spread_is_unresolved_unless_one_side_wins_every_pairing() {
        let noisy = [60.0, 100.0, 140.0];
        assert_eq!(
            judge(&noisy, &[90.0, 95.0, 130.0], Better::Higher, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&noisy, &[150.0, 160.0, 170.0], Better::Higher, 0.10),
            Verdict::Agree
        );
        assert_eq!(
            judge(&noisy, &[10.0, 20.0, 30.0], Better::Higher, 0.10),
            Verdict::Worse
        );
    }
}
