//! Positive fixture — pass 2 (ordering): a statistics counter says so at
//! the site (`reason = diagnostic`), and test code is not judged at all.
//! Linted under the display path `crates/smr/src/schemes/common.rs`; must
//! be clean.

use core::sync::atomic::{AtomicU64, Ordering};

pub struct Counter(AtomicU64);

impl Counter {
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed); // ORDERING: reason = diagnostic
    }

    pub fn get(&self) -> u64 {
        // ORDERING: reason = diagnostic — a stale total mis-reports, nothing more.
        self.0.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_relaxed_in_test_code_stays_silent() {
        let c = Counter(AtomicU64::new(0));
        c.0.store(3, Ordering::Relaxed);
        assert_eq!(c.get(), 3);
    }
}
