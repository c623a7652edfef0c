//! Pass 3 — protection-scope heuristic.
//!
//! A `Shared::deref()` (or `as_ref()`) is only sound under an active
//! protection (paper §2, §4.2). The lexical approximation enforced here:
//! inside data-structure and scheme code, every `.deref(` / `.as_ref(`
//! call must either
//!
//! 1. follow a `pin()` / `start_op()` call earlier in the same function
//!    body (the protection span is opened locally), or
//! 2. sit in a function annotated `// PROTECTION: <who-protects>` — for
//!    helpers that run inside a caller's span (`seek`), teardown paths with
//!    exclusive access (`Drop`), and scheme-internal validation machinery.
//!
//! The annotation is load-bearing documentation: it states *whose* span
//! discharges the obligation, and it is what a reviewer checks.

use crate::lexer::{enclosing_fn, FnSpan, LexFile};
use crate::{Diagnostic, PASS_SCOPE};

/// Files subject to the heuristic (normalized path infixes).
const SCOPE_INFIXES: &[&str] = &["crates/ds/src/", "crates/smr/src/schemes/"];

pub fn in_scope(file: &str) -> bool {
    SCOPE_INFIXES.iter().any(|p| file.contains(p))
}

pub fn run(file: &str, f: &LexFile, spans: &[FnSpan], out: &mut Vec<Diagnostic>) {
    if !in_scope(file) {
        return;
    }
    for i in 0..f.code.len() {
        let callee = if f.is_punct(i, '.') && f.is_punct(i + 2, '(') {
            match f.tok(i + 1) {
                Some(crate::lexer::Tok::Ident(id)) if id == "deref" || id == "as_ref" => id.clone(),
                _ => continue,
            }
        } else {
            continue;
        };
        let span = match enclosing_fn(spans, i) {
            Some(s) => s,
            None => {
                out.push(diag(file, f, i, &callee, "outside any function body"));
                continue;
            }
        };
        // (1) A pin()/start_op() call earlier in this function body.
        let body_start = span.body.unwrap_or(span.fn_kw);
        let opens = |j| (f.is_ident(j, "pin") || f.is_ident(j, "start_op")) && f.is_punct(j + 1, '(');
        if (body_start..i).any(opens) {
            continue;
        }
        // (2) A `// PROTECTION:` annotation on the enclosing function.
        if f.attached_comment(span.fn_kw).contains("PROTECTION:") {
            continue;
        }
        out.push(diag(
            file,
            f,
            i,
            &callee,
            &format!(
                "in `{}` with no preceding pin()/start_op() in the function body",
                span.name
            ),
        ));
    }
}

fn diag(file: &str, f: &LexFile, i: usize, callee: &str, detail: &str) -> Diagnostic {
    let msg = format!(
        ".{callee}() {detail} — open a protection span first, or annotate the fn with \
         `// PROTECTION: <who discharges the obligation>`"
    );
    Diagnostic::at(file, f, i, PASS_SCOPE, msg)
}
