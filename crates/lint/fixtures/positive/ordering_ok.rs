//! Positive fixture — pass 2 (ordering): gated sites with strong orderings
//! or structured `// ORDERING:` annotations. Linted under the display path
//! `crates/smr/src/schemes/hp.rs` (publish/retire_load rules apply); must
//! be clean.

use core::sync::atomic::{AtomicUsize, Ordering};

pub struct Slot(AtomicUsize);

impl Slot {
    /// Strong ordering at a publish site needs no justification.
    pub fn read(&self) -> usize {
        self.0.load(Ordering::SeqCst)
    }

    /// Relaxed at a publish site, justified by citing the pairing site —
    /// `read` above carries the SeqCst this pairing needs, so the
    /// reference resolves within the file.
    pub fn start_op(&self) {
        // ORDERING: pairs = schemes/hp.rs:read — the validated SeqCst
        // re-read on the protect path orders this publish.
        self.0.store(1, Ordering::Relaxed);
    }

    /// Trailing-comment form of a structural reason.
    pub fn snapshot_hazards_into(&self) -> bool {
        self.0.load(Ordering::Relaxed) == 0 // ORDERING: reason = exclusive — caller holds &mut.
    }
}
