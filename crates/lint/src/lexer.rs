//! A hand-rolled Rust lexer, just deep enough to lint safely.
//!
//! The point of lexing (rather than regexing over source text) is precision
//! about *where code stops and prose begins*: `.unwrap()` inside a string
//! literal, a doc comment, or a nested block comment is not a hot-path
//! panic, and `'a` in `fn f<'a>()` is a lifetime, not an unterminated
//! char literal. The lexer therefore handles, correctly:
//!
//! - line comments (`//`, `///`, `//!`) and **nested** block comments
//!   (`/* /* */ */`), which Rust allows and naive scanners get wrong;
//! - string literals with escapes, byte strings, C strings, and raw strings
//!   with an arbitrary hash fence (`r#"..."#`, `br##"..."##`, ...);
//! - raw identifiers (`r#type`) versus raw strings (`r#"..."`);
//! - lifetimes (`'a`, `'_`, `'static`) versus char literals (`'a'`, `'\''`).
//!
//! Everything else becomes an [`Tok::Ident`], a numeric literal, or a
//! single-character [`Tok::Punct`]; rules match on short token sequences.
//! Comments are kept out of the token stream but preserved (with their line
//! spans) so rules can check for `// bounds:` notes and `nc-lint:
//! allow(...)` suppression pragmas.

/// One lexed token kind. Literal contents are deliberately dropped: no rule
/// looks *inside* a string, which is exactly what makes string/comment
/// false positives impossible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// An identifier or keyword (`HashMap`, `unsafe`, `fn`, `r#type`).
    Ident(String),
    /// A lifetime such as `'a` or `'static` (without the quote).
    Lifetime(String),
    /// A character or byte literal (`'x'`, `b'\n'`).
    CharLit,
    /// A string literal of any flavor (plain, byte, C, raw).
    StrLit,
    /// A numeric literal.
    NumLit,
    /// A single punctuation character (`.`, `[`, `:`, ...).
    Punct(char),
}

/// A token plus its 1-indexed source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token itself.
    pub tok: Tok,
    /// 1-indexed line of the token's first character.
    pub line: u32,
    /// 1-indexed column of the token's first character.
    pub col: u32,
}

/// A comment (line or block) with the line span it covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// Full comment text including the `//` / `/*` markers.
    pub text: String,
    /// 1-indexed first line.
    pub start_line: u32,
    /// 1-indexed last line (equal to `start_line` for line comments).
    pub end_line: u32,
}

/// The result of lexing one file: code tokens and comment trivia.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All non-comment tokens in source order.
    pub tokens: Vec<Token>,
    /// All comments in source order.
    pub comments: Vec<Comment>,
}

struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn new(src: &'a str) -> Self {
        Cursor {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek_at(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let byte = self.peek()?;
        self.pos += 1;
        if byte == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(byte)
    }
}

fn is_ident_start(byte: u8) -> bool {
    byte.is_ascii_alphabetic() || byte == b'_' || byte >= 0x80
}

fn is_ident_continue(byte: u8) -> bool {
    byte.is_ascii_alphanumeric() || byte == b'_' || byte >= 0x80
}

/// True for the prefixes that may introduce a string literal (`b"..."`,
/// `r"..."`, `br#"..."#`, `c"..."`, `cr"..."`).
fn is_string_prefix(ident: &str) -> bool {
    matches!(ident, "b" | "r" | "c" | "br" | "cr")
}

/// Lexes `source` into tokens and comments. The lexer never fails: on a
/// malformed construct (unterminated string, stray byte) it consumes one
/// byte and continues, which is the right behavior for a linter that must
/// not crash on the very file it is diagnosing.
pub fn lex(source: &str) -> Lexed {
    let mut cursor = Cursor::new(source);
    let mut out = Lexed::default();

    while let Some(byte) = cursor.peek() {
        let line = cursor.line;
        let col = cursor.col;
        match byte {
            b' ' | b'\t' | b'\r' | b'\n' => {
                cursor.bump();
            }
            b'/' if cursor.peek_at(1) == Some(b'/') => {
                let mut text = String::new();
                while let Some(c) = cursor.peek() {
                    if c == b'\n' {
                        break;
                    }
                    text.push(cursor.bump().unwrap_or(b' ') as char);
                }
                out.comments.push(Comment {
                    text,
                    start_line: line,
                    end_line: line,
                });
            }
            b'/' if cursor.peek_at(1) == Some(b'*') => {
                let mut text = String::new();
                let mut depth = 0usize;
                while let Some(c) = cursor.peek() {
                    if c == b'/' && cursor.peek_at(1) == Some(b'*') {
                        depth += 1;
                        text.push('/');
                        text.push('*');
                        cursor.bump();
                        cursor.bump();
                    } else if c == b'*' && cursor.peek_at(1) == Some(b'/') {
                        depth -= 1;
                        text.push('*');
                        text.push('/');
                        cursor.bump();
                        cursor.bump();
                        if depth == 0 {
                            break;
                        }
                    } else {
                        text.push(cursor.bump().unwrap_or(b' ') as char);
                    }
                }
                out.comments.push(Comment {
                    text,
                    start_line: line,
                    end_line: cursor.line,
                });
            }
            b'"' => {
                consume_string(&mut cursor);
                out.tokens.push(Token {
                    tok: Tok::StrLit,
                    line,
                    col,
                });
            }
            b'\'' => {
                lex_quote(&mut cursor, &mut out, line, col);
            }
            _ if byte.is_ascii_digit() => {
                consume_number(&mut cursor);
                out.tokens.push(Token {
                    tok: Tok::NumLit,
                    line,
                    col,
                });
            }
            _ if is_ident_start(byte) => {
                lex_ident_or_string(&mut cursor, &mut out, line, col);
            }
            _ => {
                cursor.bump();
                out.tokens.push(Token {
                    tok: Tok::Punct(byte as char),
                    line,
                    col,
                });
            }
        }
    }
    out
}

/// Consumes a plain (escaped) string or char body after the opening quote
/// has NOT yet been consumed; `quote` selects `"` or `'`.
fn consume_delimited(cursor: &mut Cursor<'_>, quote: u8) {
    cursor.bump(); // opening quote
    while let Some(c) = cursor.peek() {
        if c == b'\\' {
            cursor.bump();
            cursor.bump();
        } else if c == quote {
            cursor.bump();
            break;
        } else {
            cursor.bump();
        }
    }
}

fn consume_string(cursor: &mut Cursor<'_>) {
    consume_delimited(cursor, b'"');
}

/// Consumes a raw string starting at `r`/`br`/`cr` whose prefix has already
/// been consumed and whose next characters are `#* "`. Returns after the
/// matching fence.
fn consume_raw_string(cursor: &mut Cursor<'_>) {
    let mut hashes = 0usize;
    while cursor.peek() == Some(b'#') {
        hashes += 1;
        cursor.bump();
    }
    cursor.bump(); // opening quote
    'scan: while let Some(c) = cursor.bump() {
        if c == b'"' {
            for ahead in 0..hashes {
                if cursor.peek_at(ahead) != Some(b'#') {
                    continue 'scan;
                }
            }
            for _ in 0..hashes {
                cursor.bump();
            }
            break;
        }
    }
}

/// `'` is ambiguous: lifetime (`'a`), labeled loop (`'outer:`), or char
/// literal (`'a'`, `'\n'`). Rust's own rule: after the quote, an identifier
/// not followed by another `'` is a lifetime.
fn lex_quote(cursor: &mut Cursor<'_>, out: &mut Lexed, line: u32, col: u32) {
    if cursor.peek_at(1).map(is_ident_start).unwrap_or(false) {
        // Look past the identifier: a closing quote right after makes it a
        // char literal like 'a'; anything else is a lifetime.
        let mut ahead = 2;
        while cursor
            .peek_at(ahead)
            .map(is_ident_continue)
            .unwrap_or(false)
        {
            ahead += 1;
        }
        if cursor.peek_at(ahead) != Some(b'\'') {
            cursor.bump(); // the quote
            let mut name = String::new();
            while cursor.peek().map(is_ident_continue).unwrap_or(false) {
                name.push(cursor.bump().unwrap_or(b'_') as char);
            }
            out.tokens.push(Token {
                tok: Tok::Lifetime(name),
                line,
                col,
            });
            return;
        }
    }
    consume_delimited(cursor, b'\'');
    out.tokens.push(Token {
        tok: Tok::CharLit,
        line,
        col,
    });
}

fn consume_number(cursor: &mut Cursor<'_>) {
    // Digits, underscores, radix/exponent letters, plus a fractional part.
    // We never inspect numeric values, so lexing loosely is fine as long as
    // we do not swallow a `..` range operator.
    while cursor.peek().map(is_ident_continue).unwrap_or(false) {
        cursor.bump();
    }
    if cursor.peek() == Some(b'.')
        && cursor
            .peek_at(1)
            .map(|c| c.is_ascii_digit())
            .unwrap_or(false)
    {
        cursor.bump();
        while cursor.peek().map(is_ident_continue).unwrap_or(false) {
            cursor.bump();
        }
    }
}

/// An identifier, unless it turns out to be a string prefix (`r"`, `br#"`,
/// `b"`) or a raw identifier (`r#type`).
fn lex_ident_or_string(cursor: &mut Cursor<'_>, out: &mut Lexed, line: u32, col: u32) {
    let mut ident = String::new();
    while cursor.peek().map(is_ident_continue).unwrap_or(false) {
        ident.push(cursor.bump().unwrap_or(b'_') as char);
    }
    match cursor.peek() {
        Some(b'"') if is_string_prefix(&ident) => {
            if ident.contains('r') {
                consume_raw_string(cursor);
            } else {
                consume_string(cursor);
            }
            out.tokens.push(Token {
                tok: Tok::StrLit,
                line,
                col,
            });
        }
        Some(b'\'') if ident == "b" => {
            // Byte literal b'x'.
            consume_delimited(cursor, b'\'');
            out.tokens.push(Token {
                tok: Tok::CharLit,
                line,
                col,
            });
        }
        Some(b'#') if is_string_prefix(&ident) && ident.contains('r') => {
            // Either a raw string fence (r#"..."#) or a raw identifier
            // (r#type). Count the hashes and look at what follows.
            let mut hashes = 0usize;
            while cursor.peek_at(hashes) == Some(b'#') {
                hashes += 1;
            }
            if cursor.peek_at(hashes) == Some(b'"') {
                consume_raw_string(cursor);
                out.tokens.push(Token {
                    tok: Tok::StrLit,
                    line,
                    col,
                });
            } else if ident == "r" && hashes == 1 {
                cursor.bump(); // the '#'
                let mut raw = String::new();
                while cursor.peek().map(is_ident_continue).unwrap_or(false) {
                    raw.push(cursor.bump().unwrap_or(b'_') as char);
                }
                out.tokens.push(Token {
                    tok: Tok::Ident(raw),
                    line,
                    col,
                });
            } else {
                out.tokens.push(Token {
                    tok: Tok::Ident(ident),
                    line,
                    col,
                });
            }
        }
        _ => {
            out.tokens.push(Token {
                tok: Tok::Ident(ident),
                line,
                col,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(source: &str) -> Vec<String> {
        lex(source)
            .tokens
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(name) => Some(name),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn raw_strings_hide_their_contents() {
        let source = r####"let x = r#"HashMap::new() and .unwrap()"#; let y = HashMap;"####;
        assert_eq!(idents(source), vec!["let", "x", "let", "y", "HashMap"]);
    }

    #[test]
    fn raw_strings_with_multiple_hashes_and_inner_fences() {
        let source = "let x = r##\"a \"# quote\"##; Instant";
        assert_eq!(idents(source), vec!["let", "x", "Instant"]);
    }

    #[test]
    fn byte_and_c_string_prefixes_are_strings() {
        let source = "b\"unsafe\"; br#\"unsafe\"#; c\"unsafe\"; cr#\"unsafe\"#;";
        let lexed = lex(source);
        assert!(lexed
            .tokens
            .iter()
            .all(|t| !matches!(&t.tok, Tok::Ident(name) if name == "unsafe")));
        assert_eq!(
            lexed.tokens.iter().filter(|t| t.tok == Tok::StrLit).count(),
            4
        );
    }

    #[test]
    fn raw_identifiers_are_identifiers() {
        assert_eq!(idents("let r#type = 1;"), vec!["let", "type"]);
    }

    #[test]
    fn nested_block_comments_are_one_comment() {
        let source = "before /* outer /* inner unsafe */ still comment */ after";
        let lexed = lex(source);
        assert_eq!(idents(source), vec!["before", "after"]);
        assert_eq!(lexed.comments.len(), 1);
        assert!(lexed.comments[0].text.contains("inner unsafe"));
    }

    #[test]
    fn block_comment_line_span_is_recorded() {
        let source = "/* one\ntwo\nthree */\nident";
        let lexed = lex(source);
        assert_eq!(lexed.comments[0].start_line, 1);
        assert_eq!(lexed.comments[0].end_line, 3);
        assert_eq!(lexed.tokens[0].line, 4);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let source = "fn f<'a>(x: &'a str) -> &'static str { 'outer: loop { break 'outer; } }";
        let lifetimes: Vec<String> = lex(source)
            .tokens
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Lifetime(name) => Some(name),
                _ => None,
            })
            .collect();
        assert_eq!(lifetimes, vec!["a", "a", "static", "outer", "outer"]);
    }

    #[test]
    fn char_literals_including_escaped_quote() {
        let source = r"let a = 'x'; let b = '\''; let c = '\\'; let d = '\u{1F600}';";
        let lexed = lex(source);
        assert_eq!(
            lexed
                .tokens
                .iter()
                .filter(|t| t.tok == Tok::CharLit)
                .count(),
            4
        );
        assert!(lexed
            .tokens
            .iter()
            .all(|t| !matches!(t.tok, Tok::Lifetime(_))));
    }

    #[test]
    fn strings_with_escapes_hide_contents() {
        let source = r#"let s = "say \"HashMap\" loudly"; thread_rng"#;
        assert_eq!(idents(source), vec!["let", "s", "thread_rng"]);
    }

    #[test]
    fn line_comment_positions() {
        let source = "x // trailing HashMap\ny";
        let lexed = lex(source);
        assert_eq!(idents(source), vec!["x", "y"]);
        assert_eq!(lexed.comments[0].start_line, 1);
        assert!(lexed.comments[0].text.contains("HashMap"));
    }

    #[test]
    fn numbers_do_not_swallow_ranges() {
        let source = "for i in 0..10 { a[i] }";
        let lexed = lex(source);
        let puncts: Vec<char> = lexed
            .tokens
            .iter()
            .filter_map(|t| match t.tok {
                Tok::Punct(c) => Some(c),
                _ => None,
            })
            .collect();
        assert_eq!(puncts.iter().filter(|c| **c == '.').count(), 2);
    }

    #[test]
    fn float_literals_lex_as_one_number() {
        let lexed = lex("let x = 1.5e3 + 0xff_u32;");
        assert_eq!(
            lexed.tokens.iter().filter(|t| t.tok == Tok::NumLit).count(),
            2
        );
    }
}
