//! Negative fixture — pass 2 (ordering): `pairs =` *resolution* errors.
//! Linted by `tests/lint_fixtures.rs` as `crates/smr/src/fixture_pairing.rs`.
//! Every annotation head below parses — the errors come from resolving the
//! `pairs` references against the file's own site table.

use core::sync::atomic::{AtomicU64, Ordering};

pub struct Hdr(AtomicU64);

impl Hdr {
    /// Declares itself statistics: a real site, but outside the
    /// fence-placement argument, so not a legal pairing target.
    pub fn live_nodes(&self) -> u64 {
        self.0.load(Ordering::Relaxed) // ORDERING: reason = diagnostic
    }

    pub fn new(&self) {
        // ORDERING: pairs = fixture_pairing.rs:reclaim — that fn holds only Relaxed
        // sites, so there is nothing to pair with.
        let _ = self.0.load(Ordering::Relaxed); //~ ERROR[ordering]: nothing to pair with
    }

    pub fn reclaim(&self) {
        // ORDERING: pairs = fixture_pairing.rs:nonexistent_fn — no such site anywhere.
        let _ = self.0.load(Ordering::Relaxed); //~ ERROR[ordering]: dangling `pairs = fixture_pairing.rs:nonexistent_fn`
        // ORDERING: pairs = fixture_pairing.rs:live_nodes — cites the counter.
        let _ = self.0.load(Ordering::Relaxed); //~ ERROR[ordering]: cites a `diagnostic` site
    }
}
