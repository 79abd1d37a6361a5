//! Workspace file discovery.
//!
//! Collects every `.rs` file under the root, skipping directories that are
//! not the workspace's own source: `vendor/` (offline stand-ins with their
//! own style), `benchmark/` (a cargo workspace of its own, which clippy
//! holds to the same bans in a run of its own; no `panic` scope reaches
//! it, and its one pragma still names the wall-clock ban that clippy now
//! holds), `target/`, VCS metadata, and
//! any `fixtures/` directory — lint-rule fixtures *deliberately* violate
//! the rules, and must be reachable only by pointing `--root` directly at
//! them.

use std::fs;
use std::path::Path;

/// Directory names never descended into.
const SKIPPED_DIRS: &[&str] = &["vendor", "benchmark", "target", "fixtures"];

/// Returns the workspace-relative (forward-slash) paths of all lintable
/// `.rs` files under `root`, sorted for deterministic diagnostic order.
pub fn rust_files(root: &Path) -> std::io::Result<Vec<String>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name.starts_with('.') || SKIPPED_DIRS.contains(&name.as_ref()) {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                files.push(relative_slash(root, &path));
            }
        }
    }
    files.sort();
    Ok(files)
}

fn relative_slash(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skip_list_covers_vendor_target_and_fixtures() {
        for dir in ["vendor", "target", "fixtures"] {
            assert!(SKIPPED_DIRS.contains(&dir));
        }
    }
}
