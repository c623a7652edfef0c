//! Negative fixture — pass 2 (ordering): pairing-graph *resolution* errors.
//! Linted by `tests/lint_fixtures.rs` under its own path, which the last
//! four rows of `crates/lint/ordering.rules` classify: `new`/`reclaim` are
//! gated `retire_load` sites, `live_nodes` is `counter`, and `Drop::drop`
//! is `exempt`. Every annotation head below parses — the errors come from
//! resolving the `pairs` references against the file's site table.

use core::sync::atomic::{AtomicU64, Ordering};

pub struct Hdr(AtomicU64);

impl Drop for Hdr {
    /// Classified `exempt`: a real site, but outside the protocol argument.
    fn drop(&mut self) {
        let _ = self.0.load(Ordering::Acquire);
    }
}

impl Hdr {
    /// Counter-role site: un-gated, but also not a legal pairing target.
    pub fn live_nodes(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    pub fn new(&self) {
        // ORDERING: pairs = ordering_pairing.rs:drop — cites the exempt Drop site.
        let _ = self.0.load(Ordering::Relaxed); //~ ERROR[ordering]: cites a site classified `exempt`
        // ORDERING: pairs = ordering_pairing.rs:reclaim — that fn holds only Relaxed
        // sites, so there is nothing to pair with.
        let _ = self.0.load(Ordering::Relaxed); //~ ERROR[ordering]: role-incompatible pair
    }

    pub fn reclaim(&self) {
        // ORDERING: pairs = ordering_pairing.rs:nonexistent_fn — no such site anywhere.
        let _ = self.0.load(Ordering::Relaxed); //~ ERROR[ordering]: dangling `pairs = ordering_pairing.rs:nonexistent_fn`
        // ORDERING: pairs = ordering_pairing.rs:live_nodes — cites the counter site.
        let _ = self.0.load(Ordering::Relaxed); //~ ERROR[ordering]: cites a site classified `counter`
    }
}
