//! Negative fixture — pass 4 (cast): a pointer-width pun. Linted by
//! `tests/lint_fixtures.rs` under the display path
//! `crates/smr/src/cast_pun.rs` — non-test code, outside the cast sanctum
//! (`packed.rs`).

pub fn pun(node_ptr: *const u8) -> usize {
    node_ptr as usize //~ ERROR[cast]: raw pointer-width
}
