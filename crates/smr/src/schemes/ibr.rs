//! Interval-based reclamation (Wen et al., PPoPP 2018; paper §3.3).
//!
//! IBR keeps no per-reference slots at all. Each thread reserves an *epoch
//! interval* `[lower, upper]`: `lower` is the epoch observed at operation
//! start and `upper` is bumped to the current global epoch on reads (the
//! 2GE — two-global-epochs — reservation variant). The invariant is that
//! the birth epoch of any node the thread may dereference lies inside its
//! reserved interval. A retired node is reclaimable if, for every active
//! thread, it was retired before the thread's interval began or born after
//! the interval's end.
//!
//! The paper's artifact uses the framework's default *tagged-pointer* IBR,
//! which packs birth epochs into pointer tags. We implement the 2GE variant
//! instead: the reservation semantics and wasted-memory behavior are the
//! same, but 2GE never needs to read a field of a not-yet-protected node —
//! which would be undefined behavior in Rust (see DESIGN.md,
//! "Substitutions").
//!
//! Like HE, IBR is robust but allows arbitrarily large wasted memory: every
//! node alive when a thread stalls stays pinned by its interval.

use std::sync::Arc;

use core::sync::atomic::Ordering;

use crate::api::{Config, Smr, SmrHandle};
use crate::error::SmrError;
use crate::node::{BirthAt, Retired};
use crate::packed::{Atomic, Shared};
use crate::registry::SlotArray;
use crate::schemes::common::{EpochClock, MirroredRow, INACTIVE};
use crate::schemes::core::{
    impl_handle_telemetry, smr_core_accessors, HandleCore, Protection, Scheme, SchemeCore,
};
use crate::telemetry::FenceSite;

const LOWER: usize = 0;
const UPPER: usize = 1;

/// Interval-based reclamation scheme (shared state).
pub struct Ibr {
    clock: EpochClock,
    /// Two slots per thread: reserved `[lower, upper]` (INACTIVE = idle).
    reservations: SlotArray,
    core: SchemeCore,
}

/// Per-thread handle for [`Ibr`].
pub struct IbrHandle {
    scheme: Arc<Ibr>,
    core: HandleCore,
    /// This thread's `[lower, upper]` row; only `upper` is announced
    /// through the mirror, `lower` is stored directly.
    bounds: MirroredRow<INACTIVE>,
    /// Retained reservation snapshot, refilled in place per scan.
    intervals: Vec<(u64, u64)>,
    alloc_counter: usize,
}

/// IBR (2GE) is exempt from the oracle's waste-bound monitor: a stalled
/// reservation pins unboundedly many retirees whose intervals overlap it.
impl Scheme for Ibr {
    const NAME: &'static str = "IBR";
    const BIRTH: BirthAt = BirthAt::Stamp;
    #[cfg(feature = "oracle")]
    const PROTECTS_BY_EPOCH: bool = true;

    fn core(&self) -> &SchemeCore {
        &self.core
    }
}

impl Smr for Ibr {
    type Handle = IbrHandle;

    fn try_new(cfg: Config) -> Result<Arc<Self>, SmrError> {
        let core = SchemeCore::try_new(cfg)?;
        Ok(Arc::new(Ibr {
            clock: EpochClock::new(),
            reservations: SlotArray::new(core.cfg.max_threads, 2, INACTIVE),
            core,
        }))
    }

    fn try_register(self: &Arc<Self>) -> Result<IbrHandle, SmrError> {
        let core = self.core.try_register()?;
        Ok(IbrHandle {
            bounds: MirroredRow::new(&self.reservations, core.tid),
            core,
            scheme: self.clone(),
            intervals: Vec::new(),
            alloc_counter: 0,
        })
    }

    smr_core_accessors!();
}

impl_handle_telemetry!(IbrHandle);

impl Protection<Ibr> for Vec<(u64, u64)> {
    /// Snapshots all active reservations once, into the retained buffer.
    fn snapshot(&mut self, scheme: &Ibr) {
        self.clear();
        for tid in 0..scheme.reservations.threads() {
            let lo = scheme.reservations.get(tid, LOWER).load(Ordering::Acquire);
            let hi = scheme.reservations.get(tid, UPPER).load(Ordering::Acquire);
            if lo != INACTIVE {
                self.push((lo, hi.min(INACTIVE - 1)));
            }
        }
    }

    /// A node is free once every active interval began after it was
    /// retired or ended before it was born: no reservation then admits a
    /// reference to it.
    #[inline]
    fn is_protected(&self, r: &Retired) -> bool {
        self.iter().any(|&(lo, hi)| !(r.retire < lo || r.birth > hi))
    }
}

impl SmrHandle for IbrHandle {
    fn start_op(&mut self) {
        self.core.start_op::<Ibr>();
        let e = self.scheme.clock.now();
        let slots = &self.scheme.reservations;
        slots.get(self.core.tid, LOWER).store(e, Ordering::Release);
        // The reservation must be visible before any data-structure read:
        // `end_op` left `UPPER` idle, so this always stores and fences.
        self.bounds.announce(slots, &mut self.core.tele, UPPER, e, FenceSite::StartOp);
    }

    fn end_op(&mut self) {
        self.core.end_op();
        let slots = &self.scheme.reservations;
        self.bounds.withdraw(slots, UPPER);
        slots.get(self.core.tid, LOWER).store(INACTIVE, Ordering::Release);
    }

    fn read<T: Send + Sync>(&mut self, src: &Atomic<T>, _refno: usize) -> Shared<T> {
        // 2GE loop: extend the reserved upper bound until it is stable
        // across the load, guaranteeing any node seen has birth ≤ upper.
        // Only an epoch change under us announces: IBR's rare per-read cost.
        loop {
            let w = src.load(Ordering::Acquire);
            let e = self.scheme.clock.now();
            let (slots, tele) = (&self.scheme.reservations, &mut self.core.tele);
            if !self.bounds.announce(slots, tele, UPPER, e, FenceSite::Announce) {
                return w;
            }
        }
    }

    fn alloc_with_tail<T: Send + Sync>(
        &mut self,
        data: T,
        index: Option<u32>,
        tail_len: usize,
    ) -> Shared<T> {
        // IBR advances the epoch every constant number of allocations (§3.3).
        let freq = self.scheme.core.cfg.epoch_freq;
        self.scheme.clock.tick(&mut self.alloc_counter, freq);
        let birth = self.scheme.clock.now();
        self.core.alloc::<Ibr, _>(data, index.unwrap_or(0), birth, tail_len)
    }

    // SAFETY: [INV-11] trait contract: the caller retires a removed node
    // exactly once (the winning unlink CAS is at the call site).
    unsafe fn retire<T: Send + Sync>(&mut self, node: Shared<T>) {
        let stamp = self.scheme.clock.now();
        // SAFETY: [INV-04] forwarded from this fn's own contract.
        unsafe { self.core.retire(&*self.scheme, &mut self.intervals, node, stamp, stamp) }
    }

    fn retired_len(&self) -> usize {
        self.core.retired_len()
    }

    fn force_empty(&mut self) {
        self.core.scan(&*self.scheme, &mut self.intervals);
    }
}

impl Drop for IbrHandle {
    fn drop(&mut self) {
        self.bounds.clear(&self.scheme.reservations);
        self.core.release(&*self.scheme, &mut self.intervals);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{Counter, Telemetry};

    fn setup(threads: usize) -> Arc<Ibr> {
        Ibr::new(Config { max_threads: threads, epoch_freq: 1, ..Config::default() })
    }

    #[test]
    fn interval_overlap_blocks_reclamation() {
        let smr = setup(2);
        let mut reader = smr.register();
        let mut writer = smr.register();

        writer.start_op();
        let n = writer.alloc(3u32);
        let cell = Atomic::new(n);

        reader.start_op(); // lower = current epoch ≥ birth of n? birth ≤ lower here
        let got = reader.read(&cell, 0);
        assert_eq!(got, n);

        cell.store(Shared::null(), Ordering::Release);
        unsafe { writer.retire(n) }; // SAFETY: [INV-12] unlinked above, retired once.
        writer.force_empty();
        assert_eq!(writer.retired_len(), 1, "overlapping reservation pins node");
        // SAFETY: [INV-12] reader's reservation still pins the node.
        assert_eq!(unsafe { *got.deref().data() }, 3);

        reader.end_op();
        writer.end_op();
        writer.force_empty();
        assert_eq!(writer.retired_len(), 0);
    }

    #[test]
    fn nodes_born_after_reservation_end_are_reclaimed() {
        let smr = setup(2);
        let mut stalled = smr.register();
        let mut worker = smr.register();

        stalled.start_op(); // reserves [e, e] and stalls
        worker.start_op();
        for i in 0..100u32 {
            // epoch_freq = 1 ⇒ every alloc advances the epoch, so nodes are
            // quickly born after the stalled interval's upper bound.
            let n = worker.alloc(i);
            unsafe { worker.retire(n) }; // SAFETY: [INV-12] never published, retired once.
        }
        worker.force_empty();
        assert!(
            worker.retired_len() <= 3,
            "robustness: younger nodes reclaimed despite stall, kept {}",
            worker.retired_len()
        );
        stalled.end_op();
        worker.end_op();
        worker.force_empty();
        assert_eq!(worker.retired_len(), 0);
    }

    #[test]
    fn stable_epoch_reads_cost_nothing() {
        let cfg = Config { max_threads: 1, empty_freq: 100, epoch_freq: 1000, ..Config::default() };
        let smr = Ibr::new(cfg);
        let mut h = smr.register();
        h.start_op();
        let n = h.alloc(1u8);
        let cell = Atomic::new(n);
        let baseline = h.counter(Counter::Fences);
        for _ in 0..50 {
            let _ = h.read(&cell, 0);
        }
        assert_eq!(h.counter(Counter::Fences), baseline, "per-operation overhead only");
        h.end_op();
        unsafe { h.retire(n) }; // SAFETY: [INV-12] test-owned, retired once.
        h.force_empty();
    }
}
