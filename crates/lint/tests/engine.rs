//! End-to-end rule-engine tests: lint the checked-in fixture tree and
//! compare the full JSON report against a golden file, byte for byte.
//!
//! The fixture tree under `tests/fixtures/tree/` mimics the workspace
//! layout (`crates/<name>/src/...`) so crate-scoped rules fire exactly as
//! they do on the real tree. The golden file is the report's byte-identity
//! contract: any change to a rule, a message, or the sort order shows up
//! as a readable diff here.

use std::path::Path;

use nc_lint::diag::render_json;
use nc_lint::lint_tree;
use nc_lint::rules::lint_source;

fn fixture_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/tree")
}

#[test]
fn fixture_tree_matches_golden_json() {
    let (diags, checked) = lint_tree(&fixture_root()).expect("fixture tree lints");
    assert_eq!(checked, 5, "fixture tree should contain 5 .rs files");
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/expected.json");
    let golden = std::fs::read_to_string(&golden_path).expect("golden file reads");
    let rendered = render_json(&diags);
    assert_eq!(
        rendered, golden,
        "fixture diagnostics drifted from the golden JSON; \
         if the change is intentional, regenerate with \
         `cargo run -p nc-lint -- --json --root crates/lint/tests/fixtures/tree`"
    );
}

#[test]
fn fixture_tree_is_stable_across_runs() {
    let (first, _) = lint_tree(&fixture_root()).expect("first pass");
    let (second, _) = lint_tree(&fixture_root()).expect("second pass");
    assert_eq!(render_json(&first), render_json(&second));
}

#[test]
fn trap_file_produces_zero_diagnostics() {
    let source = std::fs::read_to_string(fixture_root().join("crates/netsim/src/sim.rs"))
        .expect("trap fixture reads");
    let diags = lint_source("crates/netsim/src/sim.rs", &source);
    assert!(
        diags.is_empty(),
        "banned names inside strings/comments must not fire: {diags:?}"
    );
}

#[test]
fn test_targets_are_exempt() {
    let source = std::fs::read_to_string(fixture_root().join("crates/netsim/tests/sim.rs"))
        .expect("test fixture reads");
    let diags = lint_source("crates/netsim/tests/sim.rs", &source);
    assert!(diags.is_empty(), "tests/ dirs are exempt: {diags:?}");
    // The same source as library code of the hot-path module is flagged.
    assert_eq!(lint_source("crates/netsim/src/sim.rs", &source).len(), 3);
}

#[test]
fn cfg_test_modules_are_exempt() {
    let source = std::fs::read_to_string(fixture_root().join("crates/core/src/peers.rs"))
        .expect("cfg(test) fixture reads");
    let diags = lint_source("crates/core/src/peers.rs", &source);
    // Only the library half above the module fires.
    assert_eq!(
        diags.len(),
        1,
        "#[cfg(test)] mod bodies are exempt: {diags:?}"
    );
    assert_eq!((diags[0].rule.as_str(), diags[0].line), ("panic", 6));
}

#[test]
fn crate_scope_comes_from_the_path() {
    // The same hot-path file name is a violation in core but fine in transport.
    let source = "//! doc\nfn f(v: &[u32]) -> u32 { *v.first().unwrap() }\n";
    let in_core = lint_source("crates/core/src/node.rs", source);
    let in_transport = lint_source("crates/transport/src/node.rs", source);
    assert_eq!(in_core.len(), 1);
    assert_eq!(in_core[0].rule, "panic");
    assert!(in_transport.is_empty());
}

#[test]
fn hot_path_scope_is_per_file() {
    // .unwrap() is the panic rule's concern only in node.rs/sim.rs/shard.rs.
    let source = "//! doc\nfn f(v: &[u32]) -> u32 { *v.first().unwrap() }\n";
    let on_hot_path = lint_source("crates/core/src/node.rs", source);
    let elsewhere = lint_source("crates/core/src/filters.rs", source);
    assert_eq!(on_hot_path.len(), 1);
    assert_eq!(on_hot_path[0].rule, "panic");
    assert!(elsewhere.is_empty());
}

#[test]
fn pragma_on_same_line_suppresses() {
    let source = "//! doc\nfn f(v: &[u32]) -> u32 { *v.first().unwrap() } // nc-lint: allow(panic) — test reason here\n";
    assert_eq!(lint_source("crates/core/src/node.rs", source).len(), 0);
    let unsuppressed = source.replace("allow(panic)", "allow(pragma)");
    assert_eq!(
        lint_source("crates/core/src/node.rs", &unsuppressed).len(),
        1
    );
}
