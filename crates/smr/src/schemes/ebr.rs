//! Epoch-based reclamation (Fraser 2004, McKenney & Slingwine 1998; §3.2).
//!
//! Each thread announces, at operation start, the global epoch it observed.
//! A node retired at epoch `r` can be freed once every *active* thread has
//! announced an epoch `> r`: such threads began their operation after the
//! node was already unlinked, so they cannot hold a reference (threads do
//! not keep references across operations). Reads are plain loads — EBR's
//! per-operation overhead is a single announcement fence.
//!
//! EBR is **not robust**: a thread stalled mid-operation pins its announced
//! epoch forever, so no node retired at or after that epoch is ever freed
//! and wasted memory grows without bound — the failure mode motivating MP.

use std::sync::Arc;

use core::sync::atomic::Ordering;

use crate::api::{Config, Smr, SmrHandle};
use crate::error::SmrError;
use crate::node::Retired;
use crate::packed::{Atomic, Shared};
use crate::registry::SlotArray;
use crate::schemes::common::{counted_fence, EpochClock, INACTIVE};
use crate::schemes::core::{
    impl_handle_telemetry, smr_core_accessors, HandleCore, Protection, Scheme, SchemeCore,
};
use crate::telemetry::FenceSite;

/// Epoch-based reclamation scheme (shared state).
pub struct Ebr {
    clock: EpochClock,
    /// One announcement slot per thread: observed epoch, or `INACTIVE`.
    announce: SlotArray,
    core: SchemeCore,
}

/// Per-thread handle for [`Ebr`].
pub struct EbrHandle {
    scheme: Arc<Ebr>,
    core: HandleCore,
    /// The current scan's view of [`Ebr::min_active_epoch`].
    min_active: MinActive,
    alloc_counter: usize,
}

/// EBR is exempt from the oracle's waste-bound monitor: one stalled thread
/// legitimately pins every later retiree (§1).
impl Scheme for Ebr {
    const NAME: &'static str = "EBR";
    #[cfg(feature = "oracle")]
    const PROTECTS_BY_EPOCH: bool = true;

    fn core(&self) -> &SchemeCore {
        &self.core
    }
}

impl Smr for Ebr {
    type Handle = EbrHandle;

    fn try_new(cfg: Config) -> Result<Arc<Self>, SmrError> {
        let core = SchemeCore::try_new(cfg)?;
        Ok(Arc::new(Ebr {
            clock: EpochClock::new(),
            announce: SlotArray::new(core.cfg.max_threads, 1, INACTIVE),
            core,
        }))
    }

    fn try_register(self: &Arc<Self>) -> Result<EbrHandle, SmrError> {
        Ok(EbrHandle {
            core: self.core.try_register()?,
            scheme: self.clone(),
            min_active: MinActive(None),
            alloc_counter: 0,
        })
    }

    smr_core_accessors!();
}

impl_handle_telemetry!(EbrHandle);

impl Ebr {
    /// Smallest epoch announced by any active thread, or `None` if no thread
    /// is inside an operation.
    fn min_active_epoch(&self) -> Option<u64> {
        let mut min = None;
        for tid in 0..self.announce.threads() {
            let e = self.announce.get(tid, 0).load(Ordering::Acquire);
            if e != INACTIVE {
                min = Some(min.map_or(e, |m: u64| m.min(e)));
            }
        }
        min
    }
}

/// One scan's snapshot: the smallest announced epoch, if any.
struct MinActive(Option<u64>);

impl Protection<Ebr> for MinActive {
    fn snapshot(&mut self, scheme: &Ebr) {
        self.0 = scheme.min_active_epoch();
    }

    /// Free only if every active thread announced strictly after the
    /// retirement epoch (see module docs) — such a thread began after the
    /// node was unlinked. No active thread: free.
    #[inline]
    fn is_protected(&self, r: &Retired) -> bool {
        self.0.is_some_and(|m| r.retire >= m)
    }
}

impl SmrHandle for EbrHandle {
    fn start_op(&mut self) {
        self.core.start_op::<Ebr>();
        let e = self.scheme.clock.now();
        self.scheme.announce.get(self.core.tid, 0).store(e, Ordering::Release);
        // The announcement must be visible before any data-structure read.
        counted_fence(&mut self.core.tele, FenceSite::StartOp);
    }

    fn end_op(&mut self) {
        self.core.end_op();
        self.scheme.announce.get(self.core.tid, 0).store(INACTIVE, Ordering::Release);
    }

    #[inline]
    fn read<T: Send + Sync>(&mut self, src: &Atomic<T>, _refno: usize) -> Shared<T> {
        src.load(Ordering::Acquire)
    }

    fn alloc_with_tail<T: Send + Sync>(
        &mut self,
        data: T,
        index: Option<u32>,
        tail_len: usize,
    ) -> Shared<T> {
        let freq = self.scheme.core.cfg.epoch_freq;
        self.scheme.clock.tick(&mut self.alloc_counter, freq);
        self.core.alloc::<Ebr, _>(data, index.unwrap_or(0), 0, tail_len)
    }

    // SAFETY: [INV-11] trait contract: the caller retires a removed node
    // exactly once (the winning unlink CAS is at the call site).
    unsafe fn retire<T: Send + Sync>(&mut self, node: Shared<T>) {
        let stamp = self.scheme.clock.now();
        // SAFETY: [INV-04] forwarded from this fn's own contract.
        unsafe { self.core.retire(&*self.scheme, &mut self.min_active, node, stamp, stamp) }
    }

    fn retired_len(&self) -> usize {
        self.core.retired_len()
    }

    fn force_empty(&mut self) {
        self.core.scan(&*self.scheme, &mut self.min_active);
    }
}

impl Drop for EbrHandle {
    fn drop(&mut self) {
        self.scheme.announce.get(self.core.tid, 0).store(INACTIVE, Ordering::Release);
        self.core.release(&*self.scheme, &mut self.min_active);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(threads: usize) -> Arc<Ebr> {
        Ebr::new(Config { max_threads: threads, epoch_freq: 1, ..Config::default() })
    }

    #[test]
    fn idle_system_reclaims_immediately() {
        let smr = setup(1);
        let mut h = smr.register();
        h.start_op();
        let n = h.alloc(1u32);
        h.end_op(); // no active threads now
        // SAFETY: [INV-12] test-owned, retired once.
        unsafe { h.retire(n) };
        h.force_empty();
        assert_eq!(h.retired_len(), 0);
    }

    #[test]
    fn active_thread_with_older_epoch_blocks_reclamation() {
        let smr = setup(2);
        let mut stalled = smr.register();
        let mut worker = smr.register();

        stalled.start_op(); // announces current epoch and "stalls"

        worker.start_op();
        let n = worker.alloc(5u64); // advances epoch (epoch_freq=1)
        // SAFETY: [INV-12] never published, retired once.
        unsafe { worker.retire(n) };
        worker.end_op();
        worker.force_empty();
        assert!(
            worker.retired_len() >= 1,
            "node retired at >= stalled thread's epoch must be pinned"
        );

        stalled.end_op();
        worker.end_op();
        worker.force_empty();
        assert_eq!(worker.retired_len(), 0, "reclaims once the straggler finishes");
    }

    #[test]
    fn stalled_thread_pins_unbounded_waste() {
        // EBR's non-robustness (§3.2): waste grows with churn while a thread
        // is parked mid-operation.
        let smr = setup(2);
        let mut stalled = smr.register();
        let mut worker = smr.register();
        stalled.start_op();
        worker.start_op();
        for i in 0..500u32 {
            let n = worker.alloc(i);
            // SAFETY: [INV-12] never published, retired once.
            unsafe { worker.retire(n) };
        }
        assert!(
            worker.retired_len() >= 500,
            "waste {} should grow without bound under a stall",
            worker.retired_len()
        );
        stalled.end_op();
        worker.end_op();
        worker.force_empty();
        assert_eq!(worker.retired_len(), 0);
    }

    #[test]
    fn later_epoch_nodes_freed_even_with_active_threads() {
        let smr = setup(2);
        let mut a = smr.register();
        let mut b = smr.register();
        // b retires a node at an old epoch while a is inactive.
        b.start_op();
        let old = b.alloc(1u32);
        // SAFETY: [INV-12] never published, retired once.
        unsafe { b.retire(old) };
        // Advance epochs past the retirement stamp (epoch_freq = 1).
        let fillers: Vec<_> = (0..4).map(|_| b.alloc(0u8)).collect();
        b.end_op();
        // Both threads start ops AFTER the retirement epoch advanced; their
        // fresh announcements cannot pin `old`.
        a.start_op();
        b.start_op();
        b.force_empty();
        assert!(
            !b.core.retired().iter().any(|r| r.addr() == old.addr()),
            "old node freed despite active thread"
        );
        a.end_op();
        b.end_op();
        for f in fillers {
            // SAFETY: [INV-12] never published, retired once.
            unsafe { b.retire(f) };
        }
        b.force_empty();
        assert_eq!(b.retired_len(), 0);
    }
}
