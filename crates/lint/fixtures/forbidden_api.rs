//! Negative fixture — pass 4 (forbidden): one hit per denied API.
//! Linted by `tests/lint_fixtures.rs` under the display path
//! `crates/smr/src/forbidden_api.rs` — non-test code, outside the cast
//! sanctum (`packed.rs`).

use core::mem;

pub fn leak_guard(guard: OpGuard) {
    mem::forget(guard); //~ ERROR[forbidden]: forgetting an OpGuard
}

pub fn unfinished() {
    todo!("wire this up") //~ ERROR[forbidden]: stub reachable at
}

pub fn pun(node_ptr: *const u8) -> usize {
    node_ptr as usize //~ ERROR[forbidden]: raw pointer-width
}

pub fn warm(line: *const i8) {
    // SAFETY: [INV-16] only the hint is issued.
    unsafe { core::arch::x86_64::_mm_prefetch::<3>(line) } //~ ERROR[forbidden]: prefetch intrinsic outside packed.rs
}
