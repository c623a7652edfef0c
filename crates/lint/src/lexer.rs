//! A minimal Rust lexer: just enough token structure for protocol linting.
//!
//! The linter never needs a full parse tree. Every pass works on a stream of
//! *items* — code tokens interleaved with comment trivia, each carrying a
//! line/column — plus a brace-matched map of function bodies. The lexer's
//! only hard job is classification: `unsafe` inside a string, a doc example,
//! or a `/* */` block must not count as an unsafe site, and `'a` must not
//! open a character literal.

/// A code token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword (`unsafe`, `fn`, `Ordering`, …). Raw
    /// identifiers (`r#type`) are stored without the `r#` prefix.
    Ident(String),
    /// One punctuation character. Multi-character operators arrive as
    /// consecutive puncts (`::` is `:`,`:`), which is all the passes need.
    Punct(char),
    /// A lifetime (`'a`, `'static`); consumed as one token so the leading
    /// quote is never mistaken for a character literal.
    Lifetime,
    /// String / char / byte / numeric literal. Contents are dropped: no
    /// pass inspects literal bodies, they only must not leak tokens.
    Literal,
}

/// A comment, with its kind preserved so passes can accept annotations in
/// either plain (`//`) or doc (`///`, `//!`) position.
#[derive(Debug, Clone)]
pub struct Comment {
    pub text: String,
    pub line: u32,
    pub col: u32,
}

/// One element of the lexed stream.
#[derive(Debug, Clone)]
pub enum Item {
    Tok { tok: Tok, line: u32, col: u32 },
    Comment(Comment),
}

impl Item {
    pub fn line(&self) -> u32 {
        match self {
            Item::Tok { line, .. } => *line,
            Item::Comment(c) => c.line,
        }
    }
}

/// A lexed file: the item stream plus the indices of code tokens (comments
/// excluded), in order — the passes scan `code`, and walk `items` when they
/// need surrounding trivia.
#[derive(Debug, Default)]
pub struct LexFile {
    pub items: Vec<Item>,
    /// Indices into `items` of every `Item::Tok`, in stream order.
    pub code: Vec<usize>,
}

impl LexFile {
    /// The token at code position `i` (None past the end).
    pub fn tok(&self, i: usize) -> Option<&Tok> {
        self.code.get(i).map(|&idx| match &self.items[idx] {
            Item::Tok { tok, .. } => tok,
            Item::Comment(_) => unreachable!("code indices point at tokens"),
        })
    }

    /// Line of the token at code position `i`.
    pub fn line_of(&self, i: usize) -> u32 {
        self.items[self.code[i]].line()
    }

    /// Column of the token at code position `i`.
    pub fn col_of(&self, i: usize) -> u32 {
        match &self.items[self.code[i]] {
            Item::Tok { col, .. } => *col,
            Item::Comment(_) => 0,
        }
    }

    /// True if the token at code position `i` is the identifier `name`.
    pub fn is_ident(&self, i: usize, name: &str) -> bool {
        matches!(self.tok(i), Some(Tok::Ident(s)) if s == name)
    }

    /// True if the token at code position `i` is the punctuation `c`.
    pub fn is_punct(&self, i: usize, c: char) -> bool {
        matches!(self.tok(i), Some(Tok::Punct(p)) if *p == c)
    }

    /// Comment text "attached" before code position `i`: walking backward
    /// through the stream, collect every comment until a statement/block
    /// boundary token (`;`, `{`, `}`) or the file start. Plain tokens in
    /// between (attributes, `pub`, `let x =`, …) are skipped, so the
    /// annotation may sit above the whole statement or item:
    ///
    /// ```text
    /// // SAFETY: [INV-01] …
    /// #[inline]
    /// pub unsafe fn f() { … }
    /// ```
    ///
    /// A comment that follows a token on its own line *trails* that line
    /// (`a.store(1, Relaxed); // ORDERING: …`) and is skipped: it sits after
    /// the previous statement's `;` in the stream, and must not justify the
    /// statement below it as well.
    pub fn attached_comment(&self, code_i: usize) -> String {
        let mut out = Vec::new();
        let stop = self.code[code_i];
        for (k, item) in self.items[..stop].iter().enumerate().rev() {
            match item {
                Item::Comment(c) => {
                    let trails = k > 0
                        && matches!(&self.items[k - 1], Item::Tok { line, .. } if *line == c.line);
                    if !trails {
                        out.push(c.text.as_str());
                    }
                }
                Item::Tok { tok: Tok::Punct(';' | '{' | '}'), .. } => break,
                Item::Tok { .. } => {}
            }
        }
        out.reverse();
        out.join("\n")
    }

    /// Comment text trailing code position `i` on the same source line
    /// (`foo.store(x, Ordering::Relaxed); // ORDERING: …`).
    pub fn trailing_comment(&self, code_i: usize) -> String {
        let line = self.line_of(code_i);
        let mut out = String::new();
        for item in &self.items[self.code[code_i]..] {
            match item {
                Item::Comment(c) if c.line == line => {
                    out.push_str(&c.text);
                    out.push('\n');
                }
                Item::Comment(_) => break,
                Item::Tok { line: l, .. } if *l > line => break,
                Item::Tok { .. } => {}
            }
        }
        out
    }

    /// Everything a site at code position `i` can be annotated with: the
    /// comments attached above its statement, then the one trailing its
    /// line, newline-separated so neither text runs into the other.
    pub fn site_comment(&self, code_i: usize) -> String {
        format!("{}\n{}", self.attached_comment(code_i), self.trailing_comment(code_i))
    }
}

/// Lexes `src`. Never fails: unterminated constructs consume to EOF, which
/// degrades one file's diagnostics rather than aborting the run.
pub fn lex(src: &str) -> LexFile {
    let b = src.as_bytes();
    let mut out = LexFile::default();
    let (mut i, mut line, mut col) = (0usize, 1u32, 1u32);

    macro_rules! bump {
        () => {{
            if b[i] == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
            i += 1;
        }};
    }

    while i < b.len() {
        let c = b[i];
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => bump!(),
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                let (start, at, at_col) = (i, line, col);
                while i < b.len() && b[i] != b'\n' {
                    bump!();
                }
                out.items.push(Item::Comment(Comment {
                    text: src[start..i].to_string(),
                    line: at,
                    col: at_col,
                }));
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let (start, at, at_col) = (i, line, col);
                let mut depth = 0usize;
                while i < b.len() {
                    if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        bump!();
                        bump!();
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        bump!();
                        bump!();
                        if depth == 0 {
                            break;
                        }
                    } else {
                        bump!();
                    }
                }
                out.items.push(Item::Comment(Comment {
                    text: src[start..i.min(src.len())].to_string(),
                    line: at,
                    col: at_col,
                }));
            }
            b'"' => {
                let (l, cl) = (line, col);
                bump!();
                while i < b.len() {
                    match b[i] {
                        b'\\' => {
                            bump!();
                            if i < b.len() {
                                bump!();
                            }
                        }
                        b'"' => {
                            bump!();
                            break;
                        }
                        _ => bump!(),
                    }
                }
                push_tok(&mut out, Tok::Literal, l, cl);
            }
            b'r' | b'b'
                if is_raw_or_byte_string(b, i) =>
            {
                let (l, cl) = (line, col);
                // Skip prefix letters (`r`, `b`, `br`, `rb`).
                while i < b.len() && (b[i] == b'r' || b[i] == b'b') {
                    bump!();
                }
                if i < b.len() && b[i] == b'#' || i < b.len() && b[i] == b'"' {
                    // Raw string r"…" / r#"…"# (any number of hashes).
                    let mut hashes = 0usize;
                    while i < b.len() && b[i] == b'#' {
                        hashes += 1;
                        bump!();
                    }
                    if i < b.len() && b[i] == b'"' {
                        bump!();
                        'raw: while i < b.len() {
                            if b[i] == b'"' {
                                // Check for the closing hash run.
                                let mut k = 0usize;
                                while k < hashes && i + 1 + k < b.len() && b[i + 1 + k] == b'#' {
                                    k += 1;
                                }
                                if k == hashes {
                                    bump!();
                                    for _ in 0..hashes {
                                        bump!();
                                    }
                                    break 'raw;
                                }
                            }
                            bump!();
                        }
                    }
                    push_tok(&mut out, Tok::Literal, l, cl);
                } else {
                    // `b'x'` byte char.
                    if i < b.len() && b[i] == b'\'' {
                        bump!();
                        while i < b.len() {
                            match b[i] {
                                b'\\' => {
                                    bump!();
                                    if i < b.len() {
                                        bump!();
                                    }
                                }
                                b'\'' => {
                                    bump!();
                                    break;
                                }
                                _ => bump!(),
                            }
                        }
                    }
                    push_tok(&mut out, Tok::Literal, l, cl);
                }
            }
            b'\'' => {
                let (l, cl) = (line, col);
                // Lifetime (`'a` not followed by a closing quote) vs char
                // literal (`'a'`, `'\n'`, `'\u{1F600}'`).
                let mut j = i + 1;
                let mut is_lifetime = false;
                if j < b.len() && (b[j].is_ascii_alphabetic() || b[j] == b'_') {
                    while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                        j += 1;
                    }
                    if j >= b.len() || b[j] != b'\'' {
                        is_lifetime = true;
                    }
                }
                if is_lifetime {
                    while i < j {
                        bump!();
                    }
                    push_tok(&mut out, Tok::Lifetime, l, cl);
                } else {
                    bump!();
                    while i < b.len() {
                        match b[i] {
                            b'\\' => {
                                bump!();
                                if i < b.len() {
                                    bump!();
                                }
                            }
                            b'\'' => {
                                bump!();
                                break;
                            }
                            _ => bump!(),
                        }
                    }
                    push_tok(&mut out, Tok::Literal, l, cl);
                }
            }
            c if c.is_ascii_digit() => {
                let (l, cl) = (line, col);
                // Numbers (incl. 0x…, suffixes, floats). An exponent's sign
                // splits into a separate punct, which no pass cares about.
                while i < b.len()
                    && (b[i].is_ascii_alphanumeric() || b[i] == b'_' || b[i] == b'.')
                {
                    // `1..=3` range: do not swallow the second dot.
                    if b[i] == b'.' && i + 1 < b.len() && b[i + 1] == b'.' {
                        break;
                    }
                    bump!();
                }
                push_tok(&mut out, Tok::Literal, l, cl);
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let (l, cl) = (line, col);
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    bump!();
                }
                push_tok(&mut out, Tok::Ident(src[start..i].to_string()), l, cl);
            }
            _ => {
                let (l, cl) = (line, col);
                // Raw identifier `r#ident` is handled above via the string
                // branch guard; here `#` etc. are plain puncts.
                push_tok(&mut out, Tok::Punct(c as char), l, cl);
                bump!();
            }
        }
    }
    out
}

/// True if position `i` starts a string-ish literal prefixed with `r`/`b`
/// (`r"`, `r#"`, `b"`, `br"`, `b'`, …) rather than a plain identifier.
fn is_raw_or_byte_string(b: &[u8], i: usize) -> bool {
    let mut j = i;
    while j < b.len() && (b[j] == b'r' || b[j] == b'b') {
        j += 1;
        if j - i > 2 {
            return false;
        }
    }
    if j >= b.len() {
        return false;
    }
    b[j] == b'"' || b[j] == b'\'' && b[i] == b'b' || b[j] == b'#' && j + 1 < b.len() && {
        let mut k = j;
        while k < b.len() && b[k] == b'#' {
            k += 1;
        }
        k < b.len() && b[k] == b'"'
    }
}

fn push_tok(out: &mut LexFile, tok: Tok, line: u32, col: u32) {
    out.code.push(out.items.len());
    out.items.push(Item::Tok { tok, line, col });
}

/// A function body span over *code token* positions: `fn_kw..close` where
/// `body` is the position of the opening `{` (None for bodyless trait
/// declarations).
#[derive(Debug, Clone)]
pub struct FnSpan {
    pub name: String,
    /// Code position of the `fn` keyword.
    pub fn_kw: usize,
    /// Code position of the body's `{`, if the fn has a body.
    pub body: Option<usize>,
    /// Code position one past the body's matching `}` (== body for bodyless).
    pub end: usize,
}

/// Finds every `fn` item and its brace-matched body. Nested functions and
/// closures inside a body stay inside the enclosing span; `enclosing_fn`
/// returns the innermost match.
pub fn fn_spans(f: &LexFile) -> Vec<FnSpan> {
    let mut spans = Vec::new();
    let mut stack: Vec<(usize, Option<usize>)> = Vec::new(); // (brace pos, span idx)
    // Pending fn header: set at `fn name`, resolved at its body `{` or a `;`.
    let mut pending: Option<(String, usize)> = None;
    let n = f.code.len();
    for i in 0..n {
        match f.tok(i).unwrap() {
            Tok::Ident(id) if id == "fn" => {
                if let Some(Tok::Ident(name)) = f.tok(i + 1) {
                    pending = Some((name.clone(), i));
                }
            }
            Tok::Punct(';') => {
                // Trait method declaration without a body.
                if let Some((name, fn_kw)) = pending.take() {
                    spans.push(FnSpan { name, fn_kw, body: None, end: i });
                }
            }
            Tok::Punct('{') => {
                if let Some((name, fn_kw)) = pending.take() {
                    spans.push(FnSpan { name, fn_kw, body: Some(i), end: usize::MAX });
                    stack.push((i, Some(spans.len() - 1)));
                } else {
                    stack.push((i, None));
                }
            }
            Tok::Punct('}') => {
                if let Some((_, Some(si))) = stack.pop() {
                    spans[si].end = i + 1;
                }
            }
            _ => {}
        }
    }
    // Unclosed bodies (lexer resilience): extend to EOF.
    for s in &mut spans {
        if s.end == usize::MAX {
            s.end = n;
        }
    }
    spans
}

/// The innermost function span containing code position `i`.
pub fn enclosing_fn(spans: &[FnSpan], i: usize) -> Option<&FnSpan> {
    spans
        .iter()
        .filter(|s| {
            let start = s.body.unwrap_or(s.fn_kw);
            start <= i && i < s.end
        })
        .min_by_key(|s| s.end - s.body.unwrap_or(s.fn_kw))
}

/// Code-position ranges lexically inside `#[cfg(test)] mod … { }` blocks or
/// `#[test]` functions — the "test code" exemption of the ordering and
/// cast passes.
pub fn test_spans(f: &LexFile) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let n = f.code.len();
    for i in 0..n {
        let is_mod = f.is_ident(i, "mod");
        let is_fn = f.is_ident(i, "fn");
        if !is_mod && !is_fn {
            continue;
        }
        // Look back a bounded window for `cfg ( test` / `# [ test ]` /
        // `# [ should_panic` attribute tokens.
        let lo = i.saturating_sub(24);
        let mut attr_test = false;
        for j in lo..i {
            if is_mod && f.is_ident(j, "cfg") && f.is_punct(j + 1, '(') && f.is_ident(j + 2, "test")
            {
                attr_test = true;
            }
            if is_fn
                && f.is_punct(j, '#')
                && f.is_punct(j + 1, '[')
                && (f.is_ident(j + 2, "test") || f.is_ident(j + 2, "should_panic"))
            {
                attr_test = true;
            }
        }
        if !attr_test {
            continue;
        }
        // Find the block's opening brace, then its match.
        let mut k = i;
        while k < n && !f.is_punct(k, '{') {
            if f.is_punct(k, ';') {
                break; // `mod foo;` — nothing to span
            }
            k += 1;
        }
        if k >= n || !f.is_punct(k, '{') {
            continue;
        }
        let mut depth = 0usize;
        let mut end = n;
        for j in k..n {
            if f.is_punct(j, '{') {
                depth += 1;
            } else if f.is_punct(j, '}') {
                depth -= 1;
                if depth == 0 {
                    end = j + 1;
                    break;
                }
            }
        }
        spans.push((i, end));
    }
    spans
}

/// True if code position `i` falls in any of `spans`.
pub fn in_spans(spans: &[(usize, usize)], i: usize) -> bool {
    spans.iter().any(|&(a, b)| a <= i && i < b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_do_not_leak_tokens() {
        let f = lex(r#"let s = "unsafe { } Ordering::Relaxed"; // unsafe in comment"#);
        assert!(!f.code.iter().any(|&i| matches!(
            &f.items[i],
            Item::Tok { tok: Tok::Ident(id), .. } if id == "unsafe" || id == "Ordering"
        )));
        // But the comment is preserved as trivia.
        assert!(f.items.iter().any(|it| matches!(it, Item::Comment(c) if c.text.contains("unsafe"))));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let f = lex("fn f<'a>(x: &'a str) -> &'a str { x } let c = 'x';");
        let lifetimes = f.code.iter().filter(|&&i| matches!(f.items[i], Item::Tok { tok: Tok::Lifetime, .. })).count();
        assert_eq!(lifetimes, 3);
        // 'x' is one literal, not a lifetime.
        assert!(f.code.iter().any(|&i| matches!(f.items[i], Item::Tok { tok: Tok::Literal, .. })));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let f = lex(r##"let s = r#"unsafe { "nested" }"#; let t = 1;"##);
        assert!(!f.code.iter().any(|&i| matches!(
            &f.items[i],
            Item::Tok { tok: Tok::Ident(id), .. } if id == "unsafe"
        )));
        assert!(f.code.iter().any(|&i| matches!(
            &f.items[i],
            Item::Tok { tok: Tok::Ident(id), .. } if id == "t"
        )));
    }

    #[test]
    fn attached_comment_skips_attributes_and_modifiers() {
        let src = "\
// SAFETY: [INV-01] fine\n\
#[inline]\n\
pub unsafe fn f() {}\n";
        let f = lex(src);
        let pos = (0..f.code.len()).find(|&i| f.is_ident(i, "unsafe"));
        let c = f.attached_comment(pos.unwrap());
        assert!(c.contains("SAFETY: [INV-01]"), "{c}");
    }

    #[test]
    fn attached_comment_stops_at_statement_boundary() {
        let src = "// SAFETY: [INV-01] first\nfoo();\nunsafe { bar() }\n";
        let f = lex(src);
        let pos = (0..f.code.len()).find(|&i| f.is_ident(i, "unsafe"));
        let c = f.attached_comment(pos.unwrap());
        assert!(!c.contains("SAFETY"), "comment beyond `;` must not attach: {c}");
    }

    #[test]
    fn trailing_comment_does_not_attach_to_the_next_statement() {
        let src = "\
a.store(1, Ordering::Relaxed); // ORDERING: reason = exclusive\n\
// above the second\n\
b.store(2, Ordering::Relaxed); // ORDERING: reason = quiescent\n";
        let f = lex(src);
        let sites: Vec<usize> = (0..f.code.len()).filter(|&i| f.is_ident(i, "Ordering")).collect();
        assert_eq!(f.attached_comment(sites[0]), "");
        assert_eq!(f.attached_comment(sites[1]), "// above the second");
        // Each site still sees its own line's comment, on a line of its own.
        assert_eq!(f.site_comment(sites[0]), "\n// ORDERING: reason = exclusive\n");
        assert_eq!(
            f.site_comment(sites[1]),
            "// above the second\n// ORDERING: reason = quiescent\n"
        );
    }

    #[test]
    fn fn_spans_nest_and_resolve() {
        let src = "fn outer() { let c = || { inner_call(); }; } fn next() {}";
        let f = lex(src);
        let spans = fn_spans(&f);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[1].name, "next");
        // A position inside the closure still maps to `outer`.
        let call = (0..f.code.len()).find(|&i| f.is_ident(i, "inner_call"));
        assert_eq!(enclosing_fn(&spans, call.unwrap()).unwrap().name, "outer");
    }

    #[test]
    fn cfg_test_mod_spans_detected() {
        let src = "fn lib() {} #[cfg(test)] mod tests { fn helper() { todo_marker(); } }";
        let f = lex(src);
        let spans = test_spans(&f);
        assert_eq!(spans.len(), 1);
        let marker = (0..f.code.len()).find(|&i| f.is_ident(i, "todo_marker"));
        assert!(in_spans(&spans, marker.unwrap()));
    }
}
