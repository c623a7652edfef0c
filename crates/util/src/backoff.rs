//! Exponential backoff for contended retry loops.

/// Exponential backoff for optimistic-concurrency retry loops (the in-tree
/// replacement for `crossbeam_utils::Backoff`).
///
/// Each [`spin`](Backoff::spin) doubles the number of `spin_loop` hints
/// issued, up to `2^SPIN_LIMIT`, then keeps spinning at that ceiling.
#[derive(Debug, Default)]
pub struct Backoff {
    step: u32,
}

const SPIN_LIMIT: u32 = 6;

impl Backoff {
    /// Creates a backoff in its initial (shortest-wait) state.
    pub fn new() -> Self {
        Backoff { step: 0 }
    }

    /// Spins `2^step` times and escalates the step, saturating at
    /// 2^6 = 64 hint instructions per call.
    #[inline]
    pub fn spin(&mut self) {
        for _ in 0..1u32 << self.step.min(SPIN_LIMIT) {
            core::hint::spin_loop();
        }
        if self.step <= SPIN_LIMIT {
            self.step += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escalates_then_saturates() {
        let mut b = Backoff::new();
        assert_eq!(b.step, 0);
        for i in 1..=SPIN_LIMIT + 1 {
            b.spin();
            assert_eq!(b.step, i, "each spin escalates one step");
        }
        // Further spins stay saturated and keep working.
        b.spin();
        assert_eq!(b.step, SPIN_LIMIT + 1);
    }
}
