//! Positive fixture — pass 4 (forbidden): the one sanctioned prefetch.
//! Linted under `crates/smr/src/packed.rs`, the module that owns
//! `Shared::prefetch`; must be clean.

pub fn warm(line: *const i8) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: [INV-16] only the hint is issued — no load, no reference.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(line)
    };
}
