//! A minimal Rust token scanner for the audit's call graph.
//!
//! Deliberately not a parser: the graph only needs identifier/punctuation
//! sequences with comments and literals out of the way, plus line
//! numbers for reporting and a flag marking test-only regions. The
//! scanner handles line and (nested) block comments, plain and raw
//! string literals (including byte-string prefixes), character literals
//! versus lifetimes, and tracks `#[cfg(test)]` / `#[test]` items by
//! brace matching so the analyses can exempt test code.

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword.
    Ident(String),
    /// Any string literal: `".."`, `r".."`, `r#".."#`, `b".."`, `br".."`.
    Str(String),
    /// A character literal (`'x'`, `'\n'`).
    Char,
    /// A lifetime (`'a`) — distinct so it is never confused with a char.
    Lifetime,
    /// A numeric literal.
    Num,
    /// A single punctuation character.
    Punct(char),
}

/// A token plus the context the analyses need.
#[derive(Debug, Clone)]
pub struct Token {
    pub tok: Tok,
    /// 1-based source line.
    pub line: u32,
    /// True inside a `#[cfg(test)]` or `#[test]` item (attribute
    /// through the end of the annotated item).
    pub in_test: bool,
}

impl Token {
    pub fn is_ident(&self, s: &str) -> bool {
        matches!(&self.tok, Tok::Ident(i) if i == s)
    }

    pub fn is_punct(&self, c: char) -> bool {
        self.tok == Tok::Punct(c)
    }

    pub fn ident(&self) -> Option<&str> {
        match &self.tok {
            Tok::Ident(i) => Some(i),
            _ => None,
        }
    }

    pub fn str_lit(&self) -> Option<&str> {
        match &self.tok {
            Tok::Str(s) => Some(s),
            _ => None,
        }
    }
}

fn is_ident_char(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphanumeric()
}

fn is_ident_start(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphabetic()
}

/// Tokenize `src`, then mark test-only regions.
pub fn lex(src: &str) -> Vec<Token> {
    let b = src.as_bytes();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut toks: Vec<Token> = Vec::new();
    let push = |tok: Tok, line: u32, toks: &mut Vec<Token>| {
        toks.push(Token {
            tok,
            line,
            in_test: false,
        });
    };
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            _ if c.is_ascii_whitespace() => i += 1,
            b'/' if b.get(i + 1) == Some(&b'/') => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let mut depth = 1u32;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            b'"' => {
                let start = line;
                let s = scan_plain_string(b, &mut i, &mut line);
                push(Tok::Str(s), start, &mut toks);
            }
            b'\'' => scan_quote(b, &mut i, line, &mut toks),
            _ if is_ident_start(c) => {
                let start = i;
                while i < b.len() && is_ident_char(b[i]) {
                    i += 1;
                }
                let ident = &src[start..i];
                // Raw/byte string prefixes glue an "identifier" to a
                // string literal: r"..", r#".."#, b"..", br#".."#.
                let raw = matches!(ident, "r" | "br" | "rb");
                let byte = ident == "b";
                if raw && i < b.len() && (b[i] == b'"' || b[i] == b'#') {
                    let start_line = line;
                    if let Some(s) = scan_raw_string(b, &mut i, &mut line) {
                        push(Tok::Str(s), start_line, &mut toks);
                        continue;
                    }
                } else if byte && i < b.len() && b[i] == b'"' {
                    let start_line = line;
                    let s = scan_plain_string(b, &mut i, &mut line);
                    push(Tok::Str(s), start_line, &mut toks);
                    continue;
                } else if byte && i < b.len() && b[i] == b'\'' {
                    // Byte char literal b'x'.
                    scan_quote(b, &mut i, line, &mut toks);
                    continue;
                }
                push(Tok::Ident(ident.to_string()), line, &mut toks);
            }
            _ if c.is_ascii_digit() => {
                while i < b.len() && (is_ident_char(b[i]) || b[i] == b'.') {
                    // Stop before a range operator: `0..n`.
                    if b[i] == b'.' && b.get(i + 1) == Some(&b'.') {
                        break;
                    }
                    i += 1;
                }
                push(Tok::Num, line, &mut toks);
            }
            _ => {
                push(Tok::Punct(c as char), line, &mut toks);
                i += 1;
            }
        }
    }
    mark_test_regions(&mut toks);
    toks
}

/// Scan a `"..."` literal with escapes. `i` points at the opening quote
/// on entry and one past the closing quote on exit.
fn scan_plain_string(b: &[u8], i: &mut usize, line: &mut u32) -> String {
    let mut out = String::new();
    *i += 1; // opening quote
    while *i < b.len() {
        match b[*i] {
            b'"' => {
                *i += 1;
                break;
            }
            b'\\' => {
                // Keep escapes opaque; the rules never interpret them.
                if b.get(*i + 1) == Some(&b'\n') {
                    *line += 1;
                }
                *i += 2;
            }
            b'\n' => {
                out.push('\n');
                *line += 1;
                *i += 1;
            }
            c => {
                out.push(c as char);
                *i += 1;
            }
        }
    }
    out
}

/// Scan a raw string body starting at the `#`s or quote after the `r`
/// prefix. Returns `None` if this was not actually a raw string (e.g.
/// `r#foo`, a raw identifier).
fn scan_raw_string(b: &[u8], i: &mut usize, line: &mut u32) -> Option<String> {
    let mut hashes = 0usize;
    let mut j = *i;
    while j < b.len() && b[j] == b'#' {
        hashes += 1;
        j += 1;
    }
    if j >= b.len() || b[j] != b'"' {
        return None; // raw identifier like r#fn
    }
    j += 1;
    let body_start = j;
    while j < b.len() {
        if b[j] == b'\n' {
            *line += 1;
            j += 1;
            continue;
        }
        if b[j] == b'"' {
            let after = &b[j + 1..];
            if after.len() >= hashes && after[..hashes].iter().all(|&h| h == b'#') {
                let body = String::from_utf8_lossy(&b[body_start..j]).into_owned();
                *i = j + 1 + hashes;
                return Some(body);
            }
        }
        j += 1;
    }
    *i = j;
    Some(String::from_utf8_lossy(&b[body_start..]).into_owned())
}

/// Disambiguate `'` between char literals and lifetimes.
fn scan_quote(b: &[u8], i: &mut usize, line: u32, toks: &mut Vec<Token>) {
    let push = |tok: Tok, toks: &mut Vec<Token>| {
        toks.push(Token {
            tok,
            line,
            in_test: false,
        });
    };
    let next = b.get(*i + 1).copied();
    match next {
        Some(b'\\') => {
            // Escaped char literal: scan to the closing quote.
            let mut j = *i + 2;
            if j < b.len() {
                j += 1; // the escaped character itself
            }
            // Unicode escapes: '\u{..}'.
            while j < b.len() && b[j] != b'\'' {
                j += 1;
            }
            *i = j + 1;
            push(Tok::Char, toks);
        }
        Some(c) if is_ident_char(c) => {
            let mut j = *i + 1;
            while j < b.len() && is_ident_char(b[j]) {
                j += 1;
            }
            if b.get(j) == Some(&b'\'') {
                *i = j + 1;
                push(Tok::Char, toks); // 'x'
            } else {
                *i = j;
                push(Tok::Lifetime, toks); // 'a
            }
        }
        Some(_) if b.get(*i + 2) == Some(&b'\'') => {
            *i += 3;
            push(Tok::Char, toks); // e.g. '('
        }
        _ => {
            *i += 1;
            push(Tok::Punct('\''), toks);
        }
    }
}

/// Mark every token belonging to a `#[cfg(test)]` or `#[test]` item
/// (the attribute, any stacked attributes, and the item body).
fn mark_test_regions(toks: &mut [Token]) {
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_punct('#') && toks.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            let (attr_end, is_test) = scan_attr(toks, i + 1);
            if is_test {
                // Skip attributes stacked after the test attribute.
                let mut j = attr_end + 1;
                while j < toks.len()
                    && toks[j].is_punct('#')
                    && toks.get(j + 1).is_some_and(|t| t.is_punct('['))
                {
                    let (e, _) = scan_attr(toks, j + 1);
                    j = e + 1;
                }
                let end = scan_item(toks, j);
                for t in &mut toks[i..=end] {
                    t.in_test = true;
                }
                i = end + 1;
            } else {
                i = attr_end + 1;
            }
        } else {
            i += 1;
        }
    }
}

/// `open` indexes the `[` of an attribute. Returns the index of the
/// matching `]` and whether the attribute marks test-only code
/// (contains the ident `test` and no `not`, so `#[cfg(not(test))]`
/// stays in scope).
fn scan_attr(toks: &[Token], open: usize) -> (usize, bool) {
    let mut depth = 0usize;
    let mut saw_test = false;
    let mut saw_not = false;
    let mut j = open;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if t.is_ident("test") {
            saw_test = true;
        } else if t.is_ident("not") {
            saw_not = true;
        }
        j += 1;
    }
    (j.min(toks.len() - 1), saw_test && !saw_not)
}

/// Find the end of the item starting at `start`: either a `;` at
/// bracket depth zero (e.g. `#[cfg(test)] use foo;`) or the `}` closing
/// the item's brace block.
fn scan_item(toks: &[Token], start: usize) -> usize {
    let mut depth = 0usize;
    let mut j = start;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
            depth = depth.saturating_sub(1);
            if depth == 0 && t.is_punct('}') {
                return j;
            }
        } else if t.is_punct(';') && depth == 0 {
            return j;
        }
        j += 1;
    }
    toks.len() - 1
}

// ---------------------------------------------------------------------
// Item extraction (the audit layer's symbol table)
// ---------------------------------------------------------------------

/// One `fn` item found in a token stream: its name, where it starts,
/// and the half-open token range of its body. Nested functions are
/// reported too (their body ranges lie inside the outer one's).
#[derive(Debug, Clone)]
pub struct FnSpan {
    pub name: String,
    /// 1-based source line of the `fn` keyword.
    pub line: u32,
    /// True when the item sits in a test-only region.
    pub in_test: bool,
    /// Token indices of the body, `{` exclusive .. `}` exclusive.
    /// Empty for bodyless declarations (trait methods, externs).
    pub body: std::ops::Range<usize>,
}

/// Extract every `fn` item (including nested ones). `fn(` pointer
/// types are skipped — they declare a type, not an item.
pub fn extract_fns(toks: &[Token]) -> Vec<FnSpan> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is_ident("fn") {
            continue;
        }
        let Some(name_tok) = toks.get(i + 1) else {
            continue;
        };
        let Some(name) = name_tok.ident() else {
            continue; // `fn(` pointer type or malformed
        };
        // Find the body `{` (or a `;` for bodyless declarations) at
        // bracket depth zero relative to the signature.
        let mut depth = 0usize;
        let mut j = i + 2;
        let mut body = 0..0;
        while j < toks.len() {
            let t = &toks[j];
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth = depth.saturating_sub(1);
            } else if t.is_punct(';') && depth == 0 {
                break; // declaration without a body
            } else if t.is_punct('{') && depth == 0 {
                let open = j;
                let mut braces = 0usize;
                while j < toks.len() {
                    let b = &toks[j];
                    if b.is_punct('{') || b.is_punct('(') || b.is_punct('[') {
                        braces += 1;
                    } else if b.is_punct('}') || b.is_punct(')') || b.is_punct(']') {
                        braces = braces.saturating_sub(1);
                        if braces == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
                body = open + 1..j.min(toks.len());
                break;
            }
            j += 1;
        }
        out.push(FnSpan {
            name: name.to_string(),
            line: toks[i].line,
            in_test: toks[i].in_test,
            body,
        });
    }
    out
}

/// `const NAME: T = "value";` (or `= Name("value")`) items inside
/// `mod <module> { .. }`:
/// returns `(NAME, value, line)` triples. Used to read the
/// `simcore::trace::names` registry without compiling it.
pub fn extract_mod_consts(toks: &[Token], module: &str) -> Vec<(String, String, u32)> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !(toks[i].is_ident("mod") && toks.get(i + 1).is_some_and(|t| t.is_ident(module))) {
            continue;
        }
        let mut j = i + 2;
        while j < toks.len() && !toks[j].is_punct('{') {
            j += 1;
        }
        let mut depth = 0usize;
        while j < toks.len() {
            let t = &toks[j];
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return out;
                }
            } else if t.is_ident("const") {
                if let Some(name) = toks.get(j + 1).and_then(|t| t.ident()) {
                    // Scan to `=`, then take the first string literal
                    // before `;` (`= "n"` and `= Name("n")` alike).
                    let mut k = j + 2;
                    while k < toks.len() && !toks[k].is_punct('=') && !toks[k].is_punct(';') {
                        k += 1;
                    }
                    let val = toks[k..]
                        .iter()
                        .take_while(|t| !t.is_punct(';'))
                        .find_map(Token::str_lit);
                    if let Some(val) = val {
                        out.push((name.to_string(), val.to_string(), toks[j].line));
                    }
                }
            }
            j += 1;
        }
        return out;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<(String, bool)> {
        lex(src)
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(i) => Some((i, t.in_test)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn comments_and_strings_are_not_tokens() {
        let toks = lex("// HashMap\n/* HashSet /* nested */ */ let x = \"HashMap\";");
        assert!(!toks.iter().any(|t| t.is_ident("HashMap")));
        assert!(!toks.iter().any(|t| t.is_ident("HashSet")));
        assert!(toks.iter().any(|t| t.str_lit() == Some("HashMap")));
    }

    #[test]
    fn raw_strings_and_lifetimes() {
        let toks = lex("fn f<'a>(x: &'a str) { let s = r#\"panic!(\"#; g(s) }");
        assert!(toks.iter().any(|t| t.tok == Tok::Lifetime));
        assert!(!toks.iter().any(|t| t.is_ident("panic")));
        let toks = lex("let c = '\\n'; let d = 'x'; let e = '{';");
        assert_eq!(toks.iter().filter(|t| t.tok == Tok::Char).count(), 3);
        assert!(!toks.iter().any(|t| t.is_punct('{')));
    }

    #[test]
    fn cfg_test_region_is_marked() {
        let src = "fn live() { a.unwrap(); }\n\
                   #[cfg(test)]\nmod tests {\n  fn t() { b.unwrap(); }\n}\n\
                   fn live2() { c.unwrap(); }";
        let ids = idents(src);
        let unwraps: Vec<bool> = ids
            .iter()
            .filter(|(i, _)| i == "unwrap")
            .map(|&(_, t)| t)
            .collect();
        assert_eq!(unwraps, vec![false, true, false]);
    }

    #[test]
    fn test_attribute_with_stacked_attrs() {
        let src = "#[test]\n#[should_panic(expected = \"boom\")]\nfn t() { x.unwrap() }\n\
                   fn live() { y.unwrap() }";
        let ids = idents(src);
        let unwraps: Vec<bool> = ids
            .iter()
            .filter(|(i, _)| i == "unwrap")
            .map(|&(_, t)| t)
            .collect();
        assert_eq!(unwraps, vec![true, false]);
    }

    #[test]
    fn cfg_not_test_stays_live() {
        let src = "#[cfg(not(test))]\nfn live() { x.unwrap() }";
        let ids = idents(src);
        assert!(ids.iter().any(|(i, t)| i == "unwrap" && !t));
    }

    #[test]
    fn line_numbers_survive_multiline_constructs() {
        let src = "/* a\nb\nc */\nlet s = \"x\ny\";\nHashMap";
        let toks = lex(src);
        let h = toks.iter().find(|t| t.is_ident("HashMap")).unwrap();
        assert_eq!(h.line, 6);
    }
}
