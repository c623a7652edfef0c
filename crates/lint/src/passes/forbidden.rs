//! Pass 4 — forbidden-API pass.
//!
//! Mechanical denials of APIs that break protocol invariants in ways the
//! other passes cannot see:
//!
//! * `mem::forget` / `forget(…)` — forgetting an `OpGuard` leaks an open
//!   protection span (the scheme believes the thread is mid-operation
//!   forever, pinning every later retiree). Type resolution is out of reach
//!   for a lexer, so *all* forgets are denied; a genuinely safe one takes a
//!   `// FORBID-OK:` justification.
//! * `todo!` / `unimplemented!` in non-test code.
//! * raw `as`-casts of pointer-width values outside `packed.rs` — the
//!   packed-word layout (§4.3.1) is the one audited place where addresses
//!   and integers may be punned. Detected shapes: `as *const` / `as *mut`,
//!   `as_raw() as …`, and `<ident ending in ptr/addr> as usize|u64`.
//!   Escape hatch: `// CAST-OK:` with a reason.
//! * prefetch intrinsics (`_mm_prefetch`, `core::arch`'s `_prefetch`,
//!   `core::intrinsics::prefetch_*`) outside `packed.rs` — a prefetch is a
//!   hint that may name a freed address ([INV-16]), and `Shared::prefetch`
//!   is the one audited place that issues it. No escape hatch.

use crate::lexer::{in_spans, LexFile, Tok};
use crate::{Diagnostic, PASS_FORBIDDEN};

/// The one module allowed to pun pointers and integers freely.
const CAST_SANCTUM: &str = "crates/smr/src/packed.rs";

pub fn run(
    file: &str,
    f: &LexFile,
    test_spans: &[(usize, usize)],
    out: &mut Vec<Diagnostic>,
) {
    let in_tests_dir = file.contains("/tests/") || file.starts_with("tests/");
    for i in 0..f.code.len() {
        let id = match f.tok(i) {
            Some(Tok::Ident(id)) => id.as_str(),
            _ => continue,
        };
        match id {
            "forget" if f.is_punct(i + 1, '(') && !escaped(f, i, "FORBID-OK:") => {
                out.push(diag(
                    file,
                    f,
                    i,
                    "mem::forget is forbidden: forgetting an OpGuard leaks an open \
                     protection span (end_op never runs). Use ManuallyDrop in the \
                     rare legitimate case and justify with `// FORBID-OK:`",
                ));
            }
            "todo" | "unimplemented"
                if f.is_punct(i + 1, '!') && !in_tests_dir && !in_spans(test_spans, i) =>
            {
                out.push(diag(
                    file,
                    f,
                    i,
                    "todo!/unimplemented! in non-test code: stub reachable at \
                     runtime",
                ));
            }
            "as" => {
                if file.ends_with(CAST_SANCTUM) || in_tests_dir || in_spans(test_spans, i) {
                    continue;
                }
                if let Some(shape) = ptr_cast_shape(f, i) {
                    if !escaped(f, i, "CAST-OK:") {
                        out.push(diag(
                            file,
                            f,
                            i,
                            &format!(
                                "raw pointer-width `as` cast ({shape}) outside packed.rs — \
                                 route through the packed-pointer API (Shared::addr, \
                                 Shared::as_raw) or justify with `// CAST-OK:`"
                            ),
                        ));
                    }
                }
            }
            _ if is_prefetch_intrinsic(id) && !file.ends_with(CAST_SANCTUM) => {
                out.push(diag(
                    file,
                    f,
                    i,
                    "prefetch intrinsic outside packed.rs — prefetch through \
                     Shared::prefetch, the one site that issues the hint ([INV-16])",
                ));
            }
            _ => {}
        }
    }
}

/// The prefetch intrinsics of `core::arch` (`_mm_prefetch`, AArch64's
/// `_prefetch`) and of `core::intrinsics` (`prefetch_read_data` and kin).
fn is_prefetch_intrinsic(id: &str) -> bool {
    matches!(id, "_mm_prefetch" | "_prefetch")
        || id.starts_with("prefetch_read")
        || id.starts_with("prefetch_write")
}

/// Classifies the `as` at code position `i` as a pointer-width pun, if any.
fn ptr_cast_shape(f: &LexFile, i: usize) -> Option<&'static str> {
    // `as *const T` / `as *mut T`
    if f.is_punct(i + 1, '*')
        && (f.is_ident(i + 2, "const") || f.is_ident(i + 2, "mut"))
    {
        return Some("`as *const`/`as *mut`");
    }
    // `.as_raw() as …`
    if i >= 3
        && f.is_ident(i - 3, "as_raw")
        && f.is_punct(i - 2, '(')
        && f.is_punct(i - 1, ')')
    {
        return Some("`as_raw() as …`");
    }
    // `<ptr-ish ident> as usize|u64`
    if f.is_ident(i + 1, "usize") || f.is_ident(i + 1, "u64") {
        if let Some(Tok::Ident(prev)) = f.tok(i.wrapping_sub(1)) {
            let p = prev.as_str();
            if p == "ptr" || p == "addr" || p.ends_with("_ptr") || p.ends_with("_addr") {
                return Some("`<ptr> as int`");
            }
        }
    }
    None
}

fn escaped(f: &LexFile, i: usize, marker: &str) -> bool {
    f.site_comment(i).contains(marker)
}

fn diag(file: &str, f: &LexFile, i: usize, msg: &str) -> Diagnostic {
    Diagnostic {
        file: file.to_string(),
        line: f.line_of(i),
        col: f.col_of(i),
        pass: PASS_FORBIDDEN,
        msg: msg.to_string(),
    }
}
