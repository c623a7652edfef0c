//! Negative fixture — pass 1 (safety): unsafe sites that fail the
//! invariant audit. Linted by `tests/lint_fixtures.rs` under the display
//! path `crates/smr/src/fixture_safety.rs`; every marked line must produce
//! exactly one `safety` diagnostic.
//!
//! Marker format (see `tests/lint_fixtures.rs`): tilde-ERROR, the pass
//! name in brackets, then a message substring, trailing the offending
//! line. Marker text deliberately avoids the linter's own gate keywords so
//! it cannot satisfy a pass by accident.

pub fn uncited(p: *const u64) -> u64 {
    unsafe { *p } //~ ERROR[safety]: without an attached
}

pub fn free_text(p: *const u64) -> u64 {
    // SAFETY: trust me, this one is fine.
    unsafe { *p } //~ ERROR[safety]: cites no
}

pub fn unknown_id(p: *const u64) -> u64 {
    // SAFETY: [INV-99] cites an invariant that was never declared.
    unsafe { *p } //~ ERROR[safety]: unknown invariant
}

pub struct Token(*const u8);

unsafe impl Send for Token {} //~ ERROR[safety]: without an attached

/// A citation trailing one block covers that block only.
pub fn two_blocks(p: *const u64) -> u64 {
    let a = unsafe { *p }; // SAFETY: [INV-12] caller passes a live pointer.
    let b = unsafe { *p }; //~ ERROR[safety]: without an attached
    a + b
}
