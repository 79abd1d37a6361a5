//! Diagnostics and their two renderings (human text and machine JSON).
//!
//! The text format is the workspace's CI diagnostic contract, so one
//! log-scraping pattern covers every check tool:
//!
//! ```text
//! <tool>: error[<rule>]: <subject>: <message>
//! <tool> --check: FAIL (<n> diagnostics)   # or: OK (<n> ... checked)
//! ```
//!
//! For `nc-lint` the subject is `path:line:col`. Scrape with `^\w[\w-]*: error\[[a-z-]+\]: `.

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// 1-indexed line.
    pub line: u32,
    /// 1-indexed column.
    pub col: u32,
    /// Stable rule id (see [`crate::rules::RULES`]).
    pub rule: String,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// The shared-format diagnostic line.
    pub fn render_text(&self) -> String {
        format!(
            "nc-lint: error[{}]: {}:{}:{}: {}",
            self.rule, self.path, self.line, self.col, self.message
        )
    }
}

/// Renders the full diagnostic list as pretty-printed JSON (an array of
/// objects), with no serializer dependency: the linter must stay
/// dependency-free, and the shape is flat enough to emit by hand.
pub fn render_json(diagnostics: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (index, diag) in diagnostics.iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        out.push_str("\n  {");
        out.push_str(&format!("\n    \"path\": \"{}\",", escape(&diag.path)));
        out.push_str(&format!("\n    \"line\": {},", diag.line));
        out.push_str(&format!("\n    \"col\": {},", diag.col));
        out.push_str(&format!("\n    \"rule\": \"{}\",", escape(&diag.rule)));
        out.push_str(&format!("\n    \"message\": \"{}\"", escape(&diag.message)));
        out.push_str("\n  }");
    }
    if !diagnostics.is_empty() {
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Diagnostic {
        Diagnostic {
            path: "crates/netsim/src/sim.rs".to_string(),
            line: 50,
            col: 5,
            rule: "panic".to_string(),
            message: ".unwrap() can panic".to_string(),
        }
    }

    #[test]
    fn text_format_matches_shared_contract() {
        assert_eq!(
            sample().render_text(),
            "nc-lint: error[panic]: crates/netsim/src/sim.rs:50:5: .unwrap() can panic"
        );
    }

    #[test]
    fn json_escapes_quotes_and_backslashes() {
        let mut diag = sample();
        diag.message = "say \"hi\" \\ done".to_string();
        let json = render_json(&[diag]);
        assert!(json.contains("say \\\"hi\\\" \\\\ done"));
    }

    #[test]
    fn empty_list_is_an_empty_array() {
        assert_eq!(render_json(&[]), "[]\n");
    }
}
