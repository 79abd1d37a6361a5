//! `nc-lint`: the workspace's hot-path panic linter.
//!
//! This reproduction's load-bearing guarantee — byte-identical
//! [`SimReport`]s across serial and sharded execution — is stated in
//! `DETERMINISM.md`, and clippy enforces most of its clauses (`clippy.toml`
//! and the workspace lint table). `nc-lint` holds the one clippy cannot
//! scope: no panics in the engine's hot-path modules. It is a
//! dependency-free static pass with a hand-rolled Rust lexer (comments,
//! strings and raw strings handled correctly, so prose never produces false
//! hits) that walks every workspace `.rs` file outside `vendor/`,
//! `target/`, `benchmark/` and fixture directories.
//!
//! `cargo run -p nc-lint -- --list` prints the rule set.
//!
//! Suppression is inline and auditable:
//!
//! ```text
//! // nc-lint: allow(panic) — a panicking worker already poisoned the run
//! ```
//!
//! A pragma covers its own line and the line directly below; a pragma
//! without a written reason is itself a diagnostic.
//!
//! [`SimReport`]: https://example.invalid/stable-network-coordinates

pub mod diag;
pub mod lexer;
pub mod rules;
pub mod walk;

use std::path::Path;

pub use diag::{render_json, Diagnostic};
pub use rules::{lint_source, RULES};

/// Lints every discoverable `.rs` file under `root`. Returns the sorted
/// diagnostics and the number of files checked.
pub fn lint_tree(root: &Path) -> std::io::Result<(Vec<Diagnostic>, usize)> {
    let files = walk::rust_files(root)?;
    let mut diagnostics = Vec::new();
    for rel_path in &files {
        let source = std::fs::read_to_string(root.join(rel_path))?;
        diagnostics.extend(rules::lint_source(rel_path, &source));
    }
    Ok((diagnostics, files.len()))
}
