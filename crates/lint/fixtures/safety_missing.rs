//! Negative fixture — pass 1 (safety): comments and unsafe fns that fail
//! the citation audit. Linted by `tests/lint_fixtures.rs` under the
//! display path `crates/smr/src/fixture_safety.rs`; every marked line must
//! produce exactly one `safety` diagnostic. A block or impl with no comment
//! at all is clippy's (`undocumented_unsafe_blocks`), not this pass's.
//!
//! Marker format (see `tests/lint_fixtures.rs`): tilde-ERROR, the pass
//! name in brackets, then a message substring, trailing the offending line
//! (on a comment's line it is part of that comment). Marker text
//! deliberately avoids the linter's own gate keywords so it cannot satisfy
//! a pass by accident.

pub fn free_text(p: *const u64) -> u64 {
    // SAFETY: trust me, this one is fine. //~ ERROR[safety]: cites no
    unsafe { *p }
}

pub fn unknown_id(p: *const u64) -> u64 {
    // SAFETY: [INV-99] was never declared. //~ ERROR[safety]: unknown invariant
    unsafe { *p }
}

/// # Safety
/// `p` must point to a live, aligned `u64`.
pub unsafe fn uncited(p: *const u64) -> u64 { //~ ERROR[safety]: without an attached
    // SAFETY: [INV-11] forwarded from this fn's own contract.
    unsafe { *p }
}
