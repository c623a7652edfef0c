//! Negative fixture — pass 2 (ordering): gated `Ordering::Relaxed` sites
//! and an unclassified site. Linted by `tests/lint_fixtures.rs` under the
//! display path `crates/smr/src/registry.rs`, so the *real*
//! `crates/lint/ordering.rules` classifications apply: `release` is a
//! `publish` site, `announced_sorted_into` is `retire_load`, `try_acquire`
//! is `cas`, and `mystery` matches no rule.

use core::sync::atomic::{AtomicUsize, Ordering};

pub struct Slot(AtomicUsize);

impl Slot {
    /// Bare Relaxed at a publish-role site: always an error.
    pub fn release(&self) -> usize {
        self.0.load(Ordering::Relaxed) //~ ERROR[ordering]: at a publish site
    }

    /// Justification present but names no pairing fence or structural
    /// reason, so it does not discharge the gate.
    pub fn announced_sorted_into(&self) -> usize {
        // ORDERING: because the scan squints hard enough.
        self.0.load(Ordering::Relaxed) //~ ERROR[ordering]: at a retire_load site
    }

    /// `seqlock` stopped being a reason when the tree's last seqlock was
    /// deleted: the next one is argued in review, not waved through by a
    /// keyword that still happens to parse.
    pub fn try_acquire(&self) -> usize {
        // ORDERING: reason = seqlock — the version re-read rejects torn data.
        self.0.load(Ordering::Relaxed) //~ ERROR[ordering]: unknown reason `seqlock`
    }

    /// No rule classifies `mystery`: in a scoped file every site must be
    /// classified, whatever its ordering.
    pub fn mystery(&self) -> usize {
        self.0.load(Ordering::Acquire) //~ ERROR[ordering]: unclassified
    }
}
