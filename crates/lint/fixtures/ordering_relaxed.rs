//! Negative fixture — pass 2 (ordering): gated `Ordering::Relaxed` sites
//! and an unclassified site. Linted by `tests/lint_fixtures.rs` under the
//! display path `crates/smr/src/schemes/hp.rs`, so the *real*
//! `crates/lint/ordering.rules` classifications apply: `read` is a
//! `publish` site, `snapshot_hazards_into` is `retire_load`, and `mystery`
//! matches no rule.

use core::sync::atomic::{AtomicUsize, Ordering};

pub struct Slot(AtomicUsize);

impl Slot {
    /// Bare Relaxed at a publish-role site: always an error.
    pub fn read(&self) -> usize {
        self.0.load(Ordering::Relaxed) //~ ERROR[ordering]: at a publish site
    }

    /// Justification present but names no pairing fence or structural
    /// reason, so it does not discharge the gate.
    pub fn snapshot_hazards_into(&self) -> usize {
        // ORDERING: because the scan squints hard enough.
        self.0.load(Ordering::Relaxed) //~ ERROR[ordering]: at a retire_load site
    }

    /// No rule classifies `mystery`: in a scoped file every site must be
    /// classified, whatever its ordering.
    pub fn mystery(&self) -> usize {
        self.0.load(Ordering::Acquire) //~ ERROR[ordering]: unclassified
    }
}
