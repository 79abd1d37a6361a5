//! The `nc-lint` binary: run the workspace's hot-path panic lint pass.
//!
//! ```text
//! cargo run -p nc-lint -- --check              # lint the workspace, exit 1 on findings
//! cargo run -p nc-lint -- --list               # print the rule set
//! cargo run -p nc-lint -- --check --json       # machine-readable diagnostics
//! cargo run -p nc-lint -- --check --root <dir> # lint a different tree (fixtures, CI smoke)
//! ```
//!
//! Exit status is the contract: 0 means no diagnostics, 1 means findings
//! were printed (format: see `nc_lint::diag`), 2 means usage error.

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "findings are reported on the terminal"
)]

use std::path::PathBuf;
use std::process::ExitCode;

fn workspace_root() -> PathBuf {
    // Two levels above this crate's manifest.
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}

fn usage() -> ExitCode {
    eprintln!("usage: nc-lint [--check] [--json] [--list] [--root <dir>]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut json = false;
    let mut list = false;
    let mut root = workspace_root();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            // Linting is always a check; the flag is accepted so the CI
            // invocation reads as what it does.
            "--check" => {}
            "--json" => json = true,
            "--list" => list = true,
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => return usage(),
            },
            _ => return usage(),
        }
    }

    if list {
        for rule in nc_lint::RULES {
            println!("{:<16} {}", rule.id, rule.description);
        }
        return ExitCode::SUCCESS;
    }

    let (diagnostics, checked) = match nc_lint::lint_tree(&root) {
        Ok(result) => result,
        Err(error) => {
            eprintln!("nc-lint: cannot lint {}: {error}", root.display());
            return ExitCode::from(2);
        }
    };

    if json {
        print!("{}", nc_lint::render_json(&diagnostics));
    } else {
        for diag in &diagnostics {
            println!("{}", diag.render_text());
        }
    }

    if diagnostics.is_empty() {
        eprintln!("nc-lint --check: OK ({checked} files checked)");
        ExitCode::SUCCESS
    } else {
        eprintln!("nc-lint --check: FAIL ({} diagnostics)", diagnostics.len());
        ExitCode::FAILURE
    }
}
