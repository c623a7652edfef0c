//! Pass 1 — invariant citations.
//!
//! Clippy holds every `unsafe` block and `unsafe impl` to a `// SAFETY:`
//! comment (`undocumented_unsafe_blocks`) and every `unsafe fn` to a
//! `# Safety` doc (`missing_safety_doc`). This pass adds what clippy cannot
//! know:
//!
//! * every plain comment that says `SAFETY:` (in any case, as clippy reads
//!   it) cites at least one `[INV-xx]` itself, free text being unauditable;
//! * every `[INV-xx]` any comment cites is declared in `INVARIANTS.md`: a
//!   typo must not pass the gate;
//! * every `unsafe fn` and `unsafe trait` carries a `SAFETY:` comment,
//!   attached above it (see [`crate::lexer::LexFile::attached_comment`]).

use crate::lexer::{Item, LexFile};
use crate::registry::{cited_invariants, Registry};
use crate::{Diagnostic, PASS_SAFETY};

pub fn run(file: &str, f: &LexFile, registry: &Registry, out: &mut Vec<Diagnostic>) {
    let diag = |line, col, msg: String| Diagnostic {
        file: file.to_string(),
        line,
        col,
        pass: PASS_SAFETY,
        msg,
    };
    for item in &f.items {
        let Item::Comment(c) = item else { continue };
        let cited = cited_invariants(&c.text);
        if cited.is_empty() && is_safety_comment(&c.text) {
            out.push(diag(c.line, c.col, "SAFETY comment cites no `[INV-xx]` invariant ID".into()));
        }
        for id in cited.iter().filter(|id| !registry.contains(id)) {
            let msg = format!("comment cites unknown invariant `[{id}]` (not in INVARIANTS.md)");
            out.push(diag(c.line, c.col, msg));
        }
    }
    for i in 0..f.code.len() {
        if f.is_ident(i, "unsafe")
            && (f.is_ident(i + 1, "fn") || f.is_ident(i + 1, "trait"))
            && !f.attached_comment(i).lines().any(is_safety_comment)
        {
            let msg = "unsafe fn/trait without an attached `// SAFETY: [INV-xx]` comment";
            out.push(Diagnostic::at(file, f, i, PASS_SAFETY, msg.into()));
        }
    }
}

/// A plain (not doc) comment that says `SAFETY:` in any case.
fn is_safety_comment(text: &str) -> bool {
    let doc = ["///", "//!", "/**", "/*!"].iter().any(|p| text.starts_with(p));
    !doc && text.to_ascii_uppercase().contains("SAFETY:")
}
