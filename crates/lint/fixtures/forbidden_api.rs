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

pub fn born(node: &SmrNode<u64>) -> u64 {
    node.header.index as u64 //~ ERROR[forbidden]: node header field access outside node.rs
}

pub fn shape(header: *const Header) -> u16 {
    // SAFETY: [INV-15] the header is live.
    unsafe { (*header).shape } //~ ERROR[forbidden]: node header field access outside node.rs
}
