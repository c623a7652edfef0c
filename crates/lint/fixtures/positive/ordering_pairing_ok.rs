//! Positive fixture — pass 2 (ordering): resolvable pairing references.
//! Linted under the display path `crates/smr/src/schemes/mp.rs`, so the
//! real rules classify `read`/`announce_margin` as `publish` and
//! `snapshot_into` as `retire_load`; must be clean.

use core::sync::atomic::{fence, AtomicU64, Ordering};

pub struct Margin(AtomicU64);

impl Margin {
    /// The announcement: Release publish plus the SeqCst announce fence —
    /// the pairing target the fast path cites.
    pub fn announce_margin(&self) {
        self.0.store(1, Ordering::Release);
        fence(Ordering::SeqCst);
    }

    /// Fence-free fast path, justified by citing the announce fence.
    pub fn read(&self) -> u64 {
        // ORDERING: pairs = schemes/mp.rs:announce_margin — the announce
        // fence orders the margin publish before this validating load.
        self.0.load(Ordering::Relaxed)
    }

    /// Scan-side structural reason in trailing position.
    pub fn snapshot_into(&self) -> u64 {
        self.0.load(Ordering::Relaxed) // ORDERING: reason = quiescent — scan revalidates under its own fence.
    }
}
