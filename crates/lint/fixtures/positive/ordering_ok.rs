//! Positive fixture — pass 2 (ordering): gated sites with strong orderings
//! or structured `// ORDERING:` annotations. Linted under the display path
//! `crates/smr/src/registry.rs` (publish/cas/retire_load rules apply); must
//! be clean.

use core::sync::atomic::{AtomicUsize, Ordering};

pub struct Slot(AtomicUsize);

impl Slot {
    /// Strong ordering at a publish site needs no justification.
    pub fn release(&self) -> usize {
        self.0.load(Ordering::SeqCst)
    }

    /// Relaxed at a cas site, justified by citing the pairing site —
    /// `release` above carries the SeqCst this pairing needs, so the
    /// reference resolves within the file.
    pub fn try_acquire(&self) {
        // ORDERING: pairs = smr/src/registry.rs:release — the SeqCst
        // access on the release path orders this store.
        self.0.store(1, Ordering::Relaxed);
    }

    /// Trailing-comment form of a structural reason.
    pub fn announced_sorted_into(&self) -> bool {
        self.0.load(Ordering::Relaxed) == 0 // ORDERING: reason = exclusive — caller holds &mut.
    }
}
