//! A minimal Rust lexer: just enough to tell code from comments, string
//! and char literals, and attributes — so rules never fire on the word
//! `unsafe` inside a doc string or a test fixture's error message.
//!
//! The lexer is deliberately not a parser. It produces a flat token
//! stream (identifier-ish words, single punctuation characters, string
//! literals with their contents) annotated with 1-based line numbers,
//! plus a per-line comment map. Rules operate on token subsequences and
//! on the comment map; anything the lexer blanks (comment bodies, string
//! contents) can never look like code to a rule.
//!
//! Supported literal forms: `"…"` with escapes, `r"…"`/`r#"…"#` (any
//! hash depth), `b"…"`/`br#"…"#`, char literals (`'x'`, `'\n'`,
//! `'\u{…}'`) distinguished from lifetimes (`'a`, `'static`) by
//! lookahead, nested `/* … */` block comments, and `//` line comments.

/// What a token is. Numbers lex as [`TokKind::Word`] too — no rule
/// pattern starts with a digit, so they can never be confused with a
/// keyword or type name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier-ish word: `[A-Za-z0-9_]+`.
    Word,
    /// A single punctuation character.
    Punct,
    /// A string literal; `text` holds the *contents* (delimiters and
    /// hashes stripped, escapes left verbatim).
    Str,
}

/// One lexed token with the 1-based line it starts on.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: usize,
}

impl Tok {
    /// Whether this token is the word `w`.
    pub fn is_word(&self, w: &str) -> bool {
        self.kind == TokKind::Word && self.text == w
    }

    /// Whether this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.starts_with(c)
    }
}

/// A fully lexed source file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens in source order.
    pub tokens: Vec<Tok>,
    /// Comment text per 1-based line, concatenated when a line carries
    /// several comments (or several lines of one block comment).
    pub comments: Vec<(usize, String)>,
    /// Total number of lines in the file.
    pub lines: usize,
}

impl Lexed {
    /// The concatenated comment text on `line`, if any.
    pub fn comment_on(&self, line: usize) -> Option<&str> {
        // `comments` is built in line order; a linear scan would do, but
        // rules probe repeatedly so binary-search the first match.
        let i = self.comments.partition_point(|(l, _)| *l < line);
        match self.comments.get(i) {
            Some((l, text)) if *l == line => Some(text),
            _ => None,
        }
    }

    /// The first token on `line`, if any.
    pub fn first_token_on(&self, line: usize) -> Option<&Tok> {
        let i = self.tokens.partition_point(|t| t.line < line);
        self.tokens.get(i).filter(|t| t.line == line)
    }
}

/// Lexes `src` into tokens and comments. Never fails: unterminated
/// constructs simply run to end of file, which is good enough for an
/// analyzer whose inputs also have to survive `rustc`.
pub fn lex(src: &str) -> Lexed {
    let b: Vec<char> = src.chars().collect();
    let n = b.len();
    let mut out = Lexed::default();
    let mut line = 1usize;
    let mut i = 0usize;

    // Appends comment text for `line`, merging consecutive pieces.
    fn push_comment(out: &mut Lexed, line: usize, text: &str) {
        match out.comments.last_mut() {
            Some((l, acc)) if *l == line => {
                acc.push(' ');
                acc.push_str(text);
            }
            _ => out.comments.push((line, text.to_string())),
        }
    }

    while i < n {
        let c = b[i];
        if c == '\n' {
            line += 1;
            i += 1;
        } else if c == '/' && i + 1 < n && b[i + 1] == '/' {
            // Line comment (incl. `///` and `//!` doc comments).
            let start = i;
            while i < n && b[i] != '\n' {
                i += 1;
            }
            let text: String = b[start..i].iter().collect();
            push_comment(&mut out, line, &text);
        } else if c == '/' && i + 1 < n && b[i + 1] == '*' {
            // Block comment, possibly nested, possibly multi-line.
            let mut depth = 1usize;
            i += 2;
            let mut acc = String::new();
            while i < n && depth > 0 {
                if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                    depth += 1;
                    i += 2;
                } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                    depth -= 1;
                    i += 2;
                } else if b[i] == '\n' {
                    push_comment(&mut out, line, &acc);
                    acc.clear();
                    line += 1;
                    i += 1;
                } else {
                    acc.push(b[i]);
                    i += 1;
                }
            }
            push_comment(&mut out, line, &acc);
        } else if c == '"' {
            let (content, ni, nl) = scan_string(&b, i + 1, line);
            out.tokens.push(Tok {
                kind: TokKind::Str,
                text: content,
                line,
            });
            i = ni;
            line = nl;
        } else if (c == 'r' || c == 'b') && is_raw_or_byte_string(&b, i) {
            let (content, ni, nl, start_line) = scan_prefixed_string(&b, i, line);
            out.tokens.push(Tok {
                kind: TokKind::Str,
                text: content,
                line: start_line,
            });
            i = ni;
            line = nl;
        } else if c == '\'' {
            // Char literal vs lifetime: a backslash right after the quote
            // is always a char literal; otherwise require a closing quote
            // one character later (`'x'`). Everything else is a lifetime.
            if i + 1 < n && b[i + 1] == '\\' {
                // Start at the backslash so the escape-skip arm consumes
                // the escaped character too (`'\''` must not terminate on
                // its own escaped quote).
                i += 1;
                while i < n {
                    if b[i] == '\\' {
                        i += 2;
                    } else if b[i] == '\'' {
                        i += 1;
                        break;
                    } else {
                        i += 1;
                    }
                }
            } else if i + 2 < n && b[i + 1] != '\'' && b[i + 2] == '\'' {
                i += 3;
            } else {
                out.tokens.push(Tok {
                    kind: TokKind::Punct,
                    text: "'".to_string(),
                    line,
                });
                i += 1;
            }
        } else if c.is_alphanumeric() || c == '_' {
            let start = i;
            while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                i += 1;
            }
            out.tokens.push(Tok {
                kind: TokKind::Word,
                text: b[start..i].iter().collect(),
                line,
            });
        } else if c.is_whitespace() {
            i += 1;
        } else {
            out.tokens.push(Tok {
                kind: TokKind::Punct,
                text: c.to_string(),
                line,
            });
            i += 1;
        }
    }
    out.lines = line;
    out
}

/// Whether position `i` (at `r` or `b`) starts a raw/byte string rather
/// than an identifier.
fn is_raw_or_byte_string(b: &[char], i: usize) -> bool {
    // Reject when the r/b is the tail of a longer identifier (`attr`,
    // `grab"…"` cannot occur, but `when_r"x"` tokenizes as one word).
    if i > 0 && (b[i - 1].is_alphanumeric() || b[i - 1] == '_') {
        return false;
    }
    let mut j = i + 1;
    if b[i] == 'b' && j < b.len() && b[j] == 'r' {
        j += 1;
    }
    while j < b.len() && b[j] == '#' {
        j += 1;
    }
    j < b.len() && b[j] == '"'
}

/// Scans a plain string body starting just past the opening quote.
/// Returns (contents, next index, next line).
fn scan_string(b: &[char], mut i: usize, mut line: usize) -> (String, usize, usize) {
    let mut content = String::new();
    while i < b.len() {
        match b[i] {
            '\\' => {
                content.push(b[i]);
                if i + 1 < b.len() {
                    content.push(b[i + 1]);
                    if b[i + 1] == '\n' {
                        line += 1;
                    }
                }
                i += 2;
            }
            '"' => {
                i += 1;
                break;
            }
            '\n' => {
                content.push('\n');
                line += 1;
                i += 1;
            }
            c => {
                content.push(c);
                i += 1;
            }
        }
    }
    (content, i, line)
}

/// Scans `r"…"`, `r#"…"#…`, `b"…"`, `br#"…"#` starting at the prefix.
/// Returns (contents, next index, next line, line the literal started on).
fn scan_prefixed_string(b: &[char], mut i: usize, line: usize) -> (String, usize, usize, usize) {
    let start_line = line;
    let mut raw = false;
    if b[i] == 'b' {
        i += 1;
    }
    if i < b.len() && b[i] == 'r' {
        raw = true;
        i += 1;
    }
    let mut hashes = 0usize;
    while i < b.len() && b[i] == '#' {
        hashes += 1;
        i += 1;
    }
    debug_assert!(i < b.len() && b[i] == '"');
    i += 1; // opening quote
    if !raw {
        let (content, ni, nl) = scan_string(b, i, line);
        return (content, ni, nl, start_line);
    }
    // Raw: no escapes; terminate on `"` followed by `hashes` hashes.
    let mut content = String::new();
    let mut cur_line = line;
    while i < b.len() {
        if b[i] == '"' {
            let mut k = 0usize;
            while k < hashes && i + 1 + k < b.len() && b[i + 1 + k] == '#' {
                k += 1;
            }
            if k == hashes {
                i += 1 + hashes;
                return (content, i, cur_line, start_line);
            }
        }
        if b[i] == '\n' {
            cur_line += 1;
        }
        content.push(b[i]);
        i += 1;
    }
    (content, i, cur_line, start_line)
}

/// 1-based inclusive line ranges covered by `#[cfg(test)] mod … { … }`
/// blocks. Rules skip these lines: test code may panic, hash, and format
/// floats freely — the contracts guard the shipped paths.
///
/// Recognized shape: a `#[cfg(…)]` attribute whose argument tokens
/// include the word `test`, followed by any further attributes, then
/// `mod <name> {`. (The workspace never puts `#[cfg(test)]` on a lone
/// item or an out-of-line `mod`; `tests/`, `benches/`, and `examples/`
/// directories are excluded from the walk entirely.)
pub fn test_ranges(lx: &Lexed) -> Vec<(usize, usize)> {
    let t = &lx.tokens;
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 3 < t.len() {
        if !(t[i].is_punct('#') && t[i + 1].is_punct('[') && t[i + 2].is_word("cfg")) {
            i += 1;
            continue;
        }
        // Span the attribute's brackets and look for `test` inside.
        let (attr_end, saw_test) = {
            let mut depth = 1usize; // the '[' at i+1
            let mut j = i + 2;
            let mut saw = false;
            while j < t.len() && depth > 0 {
                if t[j].is_punct('[') {
                    depth += 1;
                } else if t[j].is_punct(']') {
                    depth -= 1;
                } else if t[j].is_word("test") {
                    saw = true;
                }
                j += 1;
            }
            (j, saw)
        };
        if !saw_test {
            i = attr_end;
            continue;
        }
        // Skip any further attributes.
        let mut j = attr_end;
        while j + 1 < t.len() && t[j].is_punct('#') && t[j + 1].is_punct('[') {
            let mut depth = 1usize;
            j += 2;
            while j < t.len() && depth > 0 {
                if t[j].is_punct('[') {
                    depth += 1;
                } else if t[j].is_punct(']') {
                    depth -= 1;
                }
                j += 1;
            }
        }
        if !(j + 2 < t.len() && t[j].is_word("mod") && t[j + 2].is_punct('{')) {
            i = attr_end;
            continue;
        }
        let open_line = t[i].line;
        let mut depth = 1usize;
        let mut k = j + 3;
        while k < t.len() && depth > 0 {
            if t[k].is_punct('{') {
                depth += 1;
            } else if t[k].is_punct('}') {
                depth -= 1;
            }
            k += 1;
        }
        let close_line = t.get(k.saturating_sub(1)).map_or(lx.lines, |t| t.line);
        out.push((open_line, close_line));
        i = k;
    }
    out
}

/// Whether `line` falls inside any of `ranges`.
pub fn in_ranges(ranges: &[(usize, usize)], line: usize) -> bool {
    ranges.iter().any(|&(lo, hi)| lo <= line && line <= hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_puncts_and_lines() {
        let lx = lex("fn main() {\n    let x = 1;\n}\n");
        assert!(lx.tokens[0].is_word("fn"));
        assert!(lx.tokens[1].is_word("main"));
        assert_eq!(lx.tokens[0].line, 1);
        let let_tok = lx.tokens.iter().find(|t| t.is_word("let")).unwrap();
        assert_eq!(let_tok.line, 2);
    }

    #[test]
    fn comments_do_not_tokenize() {
        let lx = lex("// unsafe HashMap\nlet x = 1; /* panic! */\n");
        assert!(!lx.tokens.iter().any(|t| t.is_word("unsafe")));
        assert!(!lx.tokens.iter().any(|t| t.is_word("panic")));
        assert!(lx.comment_on(1).unwrap().contains("unsafe"));
        assert!(lx.comment_on(2).unwrap().contains("panic"));
    }

    #[test]
    fn nested_block_comment_spans_lines() {
        let lx = lex("/* a /* b\n c */ d */ let y = 2;\n");
        assert!(lx.tokens[0].is_word("let"));
        assert_eq!(lx.tokens[0].line, 2);
        assert!(lx.comment_on(1).unwrap().contains('b'));
    }

    #[test]
    fn string_contents_are_opaque_to_word_rules() {
        let lx = lex(r#"let s = "unsafe { HashMap }";"#);
        assert!(!lx.tokens.iter().any(|t| t.is_word("unsafe")));
        let lit = lx.tokens.iter().find(|t| t.kind == TokKind::Str).unwrap();
        assert!(lit.text.contains("HashMap"));
    }

    #[test]
    fn raw_and_byte_strings() {
        let lx = lex(r##"let s = r#"a "quoted" {:.2}"# ; let b = b"bytes";"##);
        let lits: Vec<_> = lx
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Str)
            .collect();
        assert_eq!(lits.len(), 2);
        assert!(lits[0].text.contains("{:.2}"));
        assert_eq!(lits[1].text, "bytes");
    }

    #[test]
    fn escaped_quote_does_not_end_string() {
        let lx = lex(r#"let s = "a\"b"; let t = 1;"#);
        let lit = lx.tokens.iter().find(|t| t.kind == TokKind::Str).unwrap();
        assert_eq!(lit.text, r#"a\"b"#);
        assert!(lx.tokens.iter().any(|t| t.is_word("t")));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let lx = lex("fn f<'a>(x: &'a str) -> char { 'x' }");
        // Both lifetimes survive as quote puncts; the char literal 'x'
        // is consumed without emitting a word.
        let quotes = lx.tokens.iter().filter(|t| t.is_punct('\'')).count();
        assert_eq!(quotes, 2);
        let xs = lx.tokens.iter().filter(|t| t.is_word("x")).count();
        assert_eq!(xs, 1); // the parameter only, not the char
    }

    #[test]
    fn escaped_char_literals() {
        let lx = lex(r"let c = '\n'; let q = '\''; let u = '\u{1F600}'; done");
        assert!(lx.tokens.iter().any(|t| t.is_word("done")));
        assert_eq!(lx.tokens.iter().filter(|t| t.is_punct('\'')).count(), 0);
    }

    #[test]
    fn cfg_test_mod_ranges() {
        let src = "\
fn live() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() { panic!(); }
}
fn also_live() {}
";
        let lx = lex(src);
        let ranges = test_ranges(&lx);
        assert_eq!(ranges.len(), 1);
        assert!(in_ranges(&ranges, 5));
        assert!(!in_ranges(&ranges, 1));
        assert!(!in_ranges(&ranges, 7));
    }

    #[test]
    fn cfg_test_with_extra_attr_and_nested_braces() {
        let src = "\
#[cfg(test)]
#[allow(deprecated)]
mod tests {
    fn helper() { if true { let _ = 1; } }
}
fn live() {}
";
        let lx = lex(src);
        let ranges = test_ranges(&lx);
        assert_eq!(ranges, vec![(1, 5)]);
    }

    #[test]
    fn cfg_not_test_is_ignored() {
        let lx = lex("#[cfg(feature = \"x\")]\nmod m { }\n");
        assert!(test_ranges(&lx).is_empty());
    }
}
