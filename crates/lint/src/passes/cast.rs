//! Pass 4 — pointer-width casts.
//!
//! Raw `as`-casts of pointer-width values are denied in non-test code
//! outside `packed.rs`: the packed-word layout (§4.3.1) is the one audited
//! place where addresses and integers may be punned. Stable Rust has no
//! lint for this (`lossy_provenance_casts` is nightly-only). Detected
//! shapes: `as *const` / `as *mut`, `as_raw() as …`, and
//! `<ident ending in ptr/addr> as usize|u64`. Escape hatch: `// CAST-OK:`
//! with a reason.

use crate::lexer::{in_spans, LexFile, Tok};
use crate::{Diagnostic, PASS_CAST};

/// The one module allowed to pun pointers and integers freely.
const CAST_SANCTUM: &str = "crates/smr/src/packed.rs";

pub fn run(
    file: &str,
    f: &LexFile,
    test_spans: &[(usize, usize)],
    out: &mut Vec<Diagnostic>,
) {
    let in_tests_dir = file.contains("/tests/") || file.starts_with("tests/");
    if file.ends_with(CAST_SANCTUM) || in_tests_dir {
        return;
    }
    for i in 0..f.code.len() {
        if !f.is_ident(i, "as") || in_spans(test_spans, i) {
            continue;
        }
        let Some(shape) = ptr_cast_shape(f, i) else { continue };
        if f.site_comment(i).contains("CAST-OK:") {
            continue;
        }
        let msg = format!(
            "raw pointer-width `as` cast ({shape}) outside packed.rs — route through the \
             packed-pointer API (Shared::addr, Shared::as_raw) or justify with `// CAST-OK:`"
        );
        out.push(Diagnostic::at(file, f, i, PASS_CAST, msg));
    }
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
