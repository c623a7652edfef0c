//! Positive fixture — pass 1 (safety): every citation form the audit
//! accepts. Linted under `crates/smr/src/safety_ok.rs`; must be clean.

pub struct Token(*const u8);

// SAFETY: [INV-07] the pointer is an opaque id on this type; it is never
// dereferenced, so handing the value across threads cannot alias memory.
unsafe impl Send for Token {}

/// # Safety
/// `p` must point to a live, aligned `u64`. Doc prose may quote the form,
/// `// SAFETY: [INV-xx]`, without citing anything.
// SAFETY: [INV-11] unsafe fn: contract stated in `# Safety` above,
// discharged by every caller.
pub unsafe fn read_raw(p: *const u64) -> u64 {
    // SAFETY: [INV-11] forwarded from this fn's own contract.
    unsafe { *p }
}

pub fn multi_citation(p: *const u64) -> u64 {
    // SAFETY: [INV-03] exclusive access during teardown; see also [INV-04]
    // for the single-retire argument.
    unsafe { *p }
}
