//! The rule engine: the clause of the determinism contract that clippy
//! cannot scope, made mechanical.
//!
//! DETERMINISM.md states the contract; clippy (`clippy.toml` and the
//! workspace lint table) enforces the clauses it has lints for. What is
//! left is the hot-path panic rule: it binds named engine modules, not
//! crates, and asks for a written `// bounds:` argument beside an
//! arithmetic index rather than banning indexing outright. Its scope comes
//! from the file's path inside the workspace, and test code is exempt
//! because the contract only concerns shipped library paths.
//!
//! Suppression is deliberate and auditable: only an inline
//! `// nc-lint: allow(<rule>) — <reason>` pragma on the same line or the
//! line directly above silences a diagnostic, and a pragma without a
//! written reason is itself a diagnostic.

use std::collections::BTreeSet;

use crate::diag::Diagnostic;
use crate::lexer::{lex, Comment, Lexed, Tok, Token};

/// Engine hot-path modules held to the no-panic rule.
const HOT_PATH_FILES: &[&str] = &[
    "node.rs", "peers.rs", "sim.rs", "shard.rs", "index.rs", "curve.rs",
];

/// How many lines above an arithmetic slice index a `// bounds:` note may
/// sit.
const BOUNDS_WINDOW: u32 = 3;

/// One lint rule's identity and rationale, for `--list`.
pub struct RuleInfo {
    /// Stable rule id, used in diagnostics and suppression pragmas.
    pub id: &'static str,
    /// One-line description of what the rule enforces and where.
    pub description: &'static str,
}

/// The shipped rule set.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "panic",
        description: "no unwrap/expect and no un-annotated arithmetic slice index in engine hot-path modules (node.rs, peers.rs, sim.rs, shard.rs, index.rs, curve.rs library code; tests exempt)",
    },
    RuleInfo {
        id: "pragma",
        description: "nc-lint suppression pragmas must name a known rule and carry a written reason",
    },
];

/// True iff `id` names a shipped rule.
fn is_known_rule(id: &str) -> bool {
    RULES.iter().any(|rule| rule.id == id)
}

/// Where a file sits in the workspace, for rule scoping.
struct FileClass {
    crate_name: String,
    file_name: String,
    /// Under a `tests/`, `benches/` or `examples/` directory.
    is_test_target: bool,
}

fn classify(rel_path: &str) -> FileClass {
    let components: Vec<&str> = rel_path.split('/').collect();
    let crate_name = match components.first() {
        Some(&"crates") if components.len() > 1 => components[1].to_string(),
        _ => "workspace-root".to_string(),
    };
    let file_name = components.last().unwrap_or(&"").to_string();
    let is_test_target = components
        .iter()
        .any(|c| matches!(*c, "tests" | "benches" | "examples"));
    FileClass {
        crate_name,
        file_name,
        is_test_target,
    }
}

/// A parsed `// nc-lint: allow(rule, ...) — reason` suppression.
struct Pragma {
    rules: Vec<String>,
    line: u32,
    has_reason: bool,
}

const PRAGMA_MARKER: &str = "nc-lint: allow(";

/// Doc comments are rendered prose, not lint directives: a doc sentence
/// *describing* the pragma syntax must neither suppress anything nor be
/// held to the pragma grammar.
fn is_doc_comment(text: &str) -> bool {
    text.starts_with("///")
        || text.starts_with("//!")
        || text.starts_with("/**")
        || text.starts_with("/*!")
}

/// Merges runs of contiguous standalone `//` line comments into logical
/// blocks, so a pragma written across several comment lines covers the code
/// line the whole block precedes (its `end_line` becomes the block's last
/// line). A comment trailing code stays its own block — it is anchored to
/// the line it annotates, not to whatever comment happens to follow.
fn comment_blocks(comments: &[Comment], code_lines: &BTreeSet<u32>) -> Vec<Comment> {
    let mut blocks: Vec<Comment> = Vec::new();
    for comment in comments {
        let continues_block = !is_doc_comment(&comment.text)
            && comment.text.starts_with("//")
            && !code_lines.contains(&comment.start_line)
            && blocks.last().is_some_and(|prev| {
                prev.text.starts_with("//")
                    && !is_doc_comment(&prev.text)
                    && !code_lines.contains(&prev.end_line)
                    && prev.end_line + 1 == comment.start_line
            });
        if continues_block {
            if let Some(prev) = blocks.last_mut() {
                prev.text.push('\n');
                prev.text.push_str(&comment.text);
                prev.end_line = comment.end_line;
                continue;
            }
        }
        blocks.push(comment.clone());
    }
    blocks
}

fn parse_pragmas(lexed: &Lexed) -> Vec<Pragma> {
    let code_lines: BTreeSet<u32> = lexed.tokens.iter().map(|t| t.line).collect();
    let mut pragmas = Vec::new();
    for comment in &comment_blocks(&lexed.comments, &code_lines) {
        if is_doc_comment(&comment.text) {
            continue;
        }
        // A merged block can hold several pragmas (one comment line each).
        for (start, _) in comment.text.match_indices(PRAGMA_MARKER) {
            let rest = &comment.text[start + PRAGMA_MARKER.len()..];
            let Some(close) = rest.find(')') else {
                continue;
            };
            let rules = rest[..close]
                .split(',')
                .map(|rule| rule.trim().to_string())
                .filter(|rule| !rule.is_empty())
                .collect();
            // The reason is whatever follows the closing paren, minus
            // separator punctuation, up to the next pragma in the same
            // block. Requiring a handful of characters keeps "— ." from
            // counting as a justification.
            let tail = &rest[close + 1..];
            let tail = &tail[..tail.find(PRAGMA_MARKER).unwrap_or(tail.len())];
            let reason: String = tail
                .trim_start_matches(|c: char| c.is_whitespace() || "—–-:,.".contains(c))
                .trim()
                .to_string();
            pragmas.push(Pragma {
                rules,
                line: comment.end_line,
                has_reason: reason.chars().count() >= 5,
            });
        }
    }
    pragmas
}

/// Line ranges of `#[cfg(test)] mod ... { ... }` blocks, so in-file unit
/// test modules get the same exemptions as `tests/` directories.
fn cfg_test_spans(lexed: &Lexed) -> Vec<(u32, u32)> {
    let tokens = &lexed.tokens;
    let mut spans = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if !is_punct(tokens.get(i), '#') {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if is_punct(tokens.get(j), '!') {
            j += 1;
        }
        if !is_punct(tokens.get(j), '[') {
            i += 1;
            continue;
        }
        // Scan the attribute body for `cfg` ... `test` and find its `]`.
        let mut depth = 0usize;
        let mut saw_cfg = false;
        let mut saw_test = false;
        while j < tokens.len() {
            match &tokens[j].tok {
                Tok::Punct('[') => depth += 1,
                Tok::Punct(']') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                Tok::Ident(name) if name == "cfg" => saw_cfg = true,
                Tok::Ident(name) if name == "test" => saw_test = true,
                _ => {}
            }
            j += 1;
        }
        if saw_cfg && saw_test {
            // Skip any further attributes between #[cfg(test)] and the item.
            let mut k = j + 1;
            while is_punct(tokens.get(k), '#') {
                let mut inner = k + 1;
                let mut inner_depth = 0usize;
                while inner < tokens.len() {
                    match tokens[inner].tok {
                        Tok::Punct('[') => inner_depth += 1,
                        Tok::Punct(']') => {
                            inner_depth -= 1;
                            if inner_depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    inner += 1;
                }
                k = inner + 1;
            }
            if is_ident(tokens.get(k), "mod") {
                // Find the opening brace, then its match.
                let mut open = k + 1;
                while open < tokens.len() && !matches!(tokens[open].tok, Tok::Punct('{')) {
                    open += 1;
                }
                let mut brace_depth = 0usize;
                let mut close = open;
                while close < tokens.len() {
                    match tokens[close].tok {
                        Tok::Punct('{') => brace_depth += 1,
                        Tok::Punct('}') => {
                            brace_depth -= 1;
                            if brace_depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    close += 1;
                }
                if open < tokens.len() {
                    let end = tokens.get(close).map(|t| t.line).unwrap_or(u32::MAX);
                    spans.push((tokens[i].line, end));
                }
            }
        }
        i = j + 1;
    }
    spans
}

fn in_spans(spans: &[(u32, u32)], line: u32) -> bool {
    spans
        .iter()
        .any(|(start, end)| line >= *start && line <= *end)
}

fn is_punct(token: Option<&Token>, c: char) -> bool {
    matches!(token, Some(t) if t.tok == Tok::Punct(c))
}

fn is_ident(token: Option<&Token>, name: &str) -> bool {
    matches!(token, Some(t) if matches!(&t.tok, Tok::Ident(n) if n == name))
}

fn ident_name(token: Option<&Token>) -> Option<&str> {
    match token {
        Some(Token {
            tok: Tok::Ident(name),
            ..
        }) => Some(name.as_str()),
        _ => None,
    }
}

/// Is there a comment containing `needle` ending within `window` lines
/// above `line` (or starting on `line` itself, for trailing notes)?
fn has_note(comments: &[Comment], needle: &str, line: u32, window: u32) -> bool {
    comments.iter().any(|comment| {
        comment.text.contains(needle)
            && comment.end_line + window >= line
            && comment.start_line <= line
    })
}

/// Rule: panic, over the library code of a hot-path module.
fn panic_rule(rel_path: &str, lexed: &Lexed, raw: &mut Vec<Diagnostic>) {
    let test_spans = cfg_test_spans(lexed);
    let tokens = &lexed.tokens;
    for (i, token) in tokens.iter().enumerate() {
        if in_spans(&test_spans, token.line) {
            continue;
        }
        let mut push = |message: String| {
            raw.push(Diagnostic {
                path: rel_path.to_string(),
                line: token.line,
                col: token.col,
                rule: "panic".to_string(),
                message,
            });
        };
        if is_punct(tokens.get(i.wrapping_sub(1)), '.') && is_punct(tokens.get(i + 1), '(') {
            if let Some(name @ ("unwrap" | "expect")) = ident_name(Some(token)) {
                push(format!(
                    ".{name}() can panic on the engine hot path; return an error, \
                     restructure, or justify with a pragma"
                ));
            }
        }
        // Arithmetic slice index: `expr[... + ...]` where expr ends in an
        // identifier or closing bracket. An adjacent `// bounds:` note
        // acknowledges the in-range argument.
        if token.tok == Tok::Punct('[')
            && matches!(
                tokens.get(i.wrapping_sub(1)).map(|t| &t.tok),
                Some(Tok::Ident(_)) | Some(Tok::Punct(')')) | Some(Tok::Punct(']'))
            )
        {
            let mut depth = 0usize;
            let mut j = i;
            let mut arithmetic = false;
            while j < tokens.len() {
                match tokens[j].tok {
                    Tok::Punct('[') => depth += 1,
                    Tok::Punct(']') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    Tok::Punct('+' | '-' | '*' | '/' | '%') => arithmetic = true,
                    _ => {}
                }
                j += 1;
            }
            if arithmetic && !has_note(&lexed.comments, "bounds:", token.line, BOUNDS_WINDOW) {
                push(
                    "slice index computed with arithmetic; add a `// bounds: ...` note \
                     arguing why it is in range (or restructure to a checked access)"
                        .to_string(),
                );
            }
        }
    }
}

/// Lints one file's source. `rel_path` must be workspace-relative with
/// forward slashes — rule scoping is derived from it.
pub fn lint_source(rel_path: &str, source: &str) -> Vec<Diagnostic> {
    let lexed = lex(source);
    let class = classify(rel_path);
    let pragmas = parse_pragmas(&lexed);

    let mut raw: Vec<Diagnostic> = Vec::new();
    if matches!(class.crate_name.as_str(), "core" | "netsim" | "query")
        && HOT_PATH_FILES.contains(&class.file_name.as_str())
        && !class.is_test_target
    {
        panic_rule(rel_path, &lexed, &mut raw);
    }

    // Rule: pragma — malformed suppressions are diagnostics themselves.
    for pragma in &pragmas {
        if !pragma.has_reason {
            raw.push(Diagnostic {
                path: rel_path.to_string(),
                line: pragma.line,
                col: 1,
                rule: "pragma".to_string(),
                message: "suppression pragma without a written reason: use \
                          `// nc-lint: allow(<rule>) — <reason>`"
                    .to_string(),
            });
        }
        for rule in &pragma.rules {
            if !is_known_rule(rule) {
                raw.push(Diagnostic {
                    path: rel_path.to_string(),
                    line: pragma.line,
                    col: 1,
                    rule: "pragma".to_string(),
                    message: format!("suppression pragma names unknown rule `{rule}`"),
                });
            }
        }
    }

    // Apply suppressions: a justified pragma covers its own line and the
    // line directly below (so it can sit above the offending statement).
    let mut diagnostics: Vec<Diagnostic> = raw
        .into_iter()
        .filter(|diag| {
            !pragmas.iter().any(|pragma| {
                pragma.has_reason
                    && pragma.rules.iter().any(|rule| rule == &diag.rule)
                    && (pragma.line == diag.line || pragma.line + 1 == diag.line)
            })
        })
        .collect();
    diagnostics.sort_by(|a, b| (a.line, a.col, &a.rule).cmp(&(b.line, b.col, &b.rule)));
    diagnostics
}
