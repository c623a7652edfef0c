//! Pass 1 — unsafe-invariant audit.
//!
//! Every `unsafe` block, `unsafe fn`, `unsafe impl`, and `unsafe trait`
//! must carry an attached `// SAFETY: [INV-xx]` comment citing a declared
//! invariant from `INVARIANTS.md`. "Attached" means within the contiguous
//! comment/attribute run directly above the statement or item (see
//! [`crate::lexer::LexFile::attached_comment`]); a site may cite several
//! invariants. Unknown IDs are as fatal as missing ones — a typo must not
//! pass the gate.

use crate::lexer::LexFile;
use crate::registry::{cited_invariants, Registry};
use crate::{Diagnostic, PASS_SAFETY};

pub fn run(file: &str, f: &LexFile, registry: &Registry, out: &mut Vec<Diagnostic>) {
    for i in 0..f.code.len() {
        if !f.is_ident(i, "unsafe") {
            continue;
        }
        let kind = match f.tok(i + 1) {
            Some(crate::lexer::Tok::Punct('{')) => "unsafe block",
            Some(crate::lexer::Tok::Ident(id)) => match id.as_str() {
                "fn" => "unsafe fn",
                "impl" => "unsafe impl",
                "trait" => "unsafe trait",
                "extern" => "unsafe extern block",
                // `pub unsafe fn` never occurs (`unsafe` follows `pub`), but
                // qualifiers after `unsafe` do: `unsafe extern "C" fn`.
                _ => "unsafe item",
            },
            _ => "unsafe item",
        };
        let comment = f.site_comment(i);
        if !comment.contains("SAFETY:") {
            out.push(Diagnostic {
                file: file.to_string(),
                line: f.line_of(i),
                col: f.col_of(i),
                pass: PASS_SAFETY,
                msg: format!(
                    "{kind} without an attached `// SAFETY: [INV-xx]` comment \
                     citing an invariant from INVARIANTS.md"
                ),
            });
            continue;
        }
        let cited = cited_invariants(&comment);
        if cited.is_empty() {
            out.push(Diagnostic {
                file: file.to_string(),
                line: f.line_of(i),
                col: f.col_of(i),
                pass: PASS_SAFETY,
                msg: format!(
                    "{kind}: SAFETY comment cites no `[INV-xx]` invariant ID \
                     (free-text safety arguments are not auditable)"
                ),
            });
            continue;
        }
        for id in cited {
            if !registry.contains(&id) {
                out.push(Diagnostic {
                    file: file.to_string(),
                    line: f.line_of(i),
                    col: f.col_of(i),
                    pass: PASS_SAFETY,
                    msg: format!(
                        "{kind}: SAFETY comment cites unknown invariant `[{id}]` \
                         (not declared in INVARIANTS.md)"
                    ),
                });
            }
        }
    }
}
