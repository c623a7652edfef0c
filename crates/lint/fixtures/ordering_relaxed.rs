//! Negative fixture — pass 2 (ordering): `Ordering::Relaxed` sites without
//! a structured annotation of their own. Linted by `tests/lint_fixtures.rs`
//! under the display path `crates/smr/src/registry.rs`, i.e. inside a
//! protocol crate, where the one rule applies to every function alike.

use core::sync::atomic::{AtomicUsize, Ordering};

pub struct Slot(AtomicUsize);

impl Slot {
    /// Bare Relaxed: always an error.
    pub fn release(&self) -> usize {
        self.0.load(Ordering::Relaxed) //~ ERROR[ordering]: strengthen the ordering or attach
    }

    /// Justification present but names no pairing fence or structural
    /// reason, so it does not discharge the gate.
    pub fn announced_sorted_into(&self) -> usize {
        // ORDERING: because the scan squints hard enough.
        self.0.load(Ordering::Relaxed) //~ ERROR[ordering]: free-text
    }

    /// `seqlock` stopped being a reason when the tree's last seqlock was
    /// deleted: the next one is argued in review, not waved through by a
    /// keyword that still happens to parse.
    pub fn try_acquire(&self) -> usize {
        // ORDERING: reason = seqlock — the version re-read rejects torn data.
        self.0.load(Ordering::Relaxed) //~ ERROR[ordering]: unknown reason `seqlock`
    }

    /// An annotation trailing one statement covers that statement only: the
    /// store below it needs its own.
    pub fn two_stores(&self, other: &Slot) {
        self.0.store(1, Ordering::Relaxed); // ORDERING: reason = exclusive — caller holds both.
        other.0.store(2, Ordering::Relaxed); //~ ERROR[ordering]: strengthen the ordering or attach
    }

    /// Stronger orderings are not judged: no table says what `mystery` is
    /// for, and an `Acquire` needs no annotation wherever it stands.
    pub fn mystery(&self) -> usize {
        self.0.load(Ordering::Acquire)
    }
}
