//! Hazard pointers (Michael 2004; paper §3.1).
//!
//! The canonical pointer-based reclamation scheme: each thread announces
//! every node it is about to dereference in a shared per-thread slot, issues
//! a full fence, and revalidates that the source pointer still points to the
//! node — establishing that protection was announced while the node was
//! linked. Wasted memory is bounded by `O(H·T)` but a fence is paid on
//! (almost) every pointer dereference, which is the overhead MP removes.
//!
//! This implementation includes the two optimizations the paper applied to
//! make HP-based baselines competitive (§6 "Optimizations to IBR
//! Framework"): `end_op` clears all slots with a *single* trailing fence,
//! and `empty()` snapshots all hazard slots once (sorted) instead of
//! rescanning them per retired node.

use std::sync::Arc;

use core::sync::atomic::Ordering;

use crate::api::{Config, Smr, SmrHandle};
use crate::error::SmrError;
use crate::node::Retired;
use crate::packed::{Atomic, Shared};
use crate::registry::SlotArray;
use crate::schemes::common::{counted_fence, MirroredRow, NO_HAZARD};
use crate::schemes::core::{
    impl_handle_telemetry, smr_core_accessors, HandleCore, Protection, Scheme, SchemeCore,
};
use crate::telemetry::FenceSite;

/// Hazard-pointer SMR scheme (shared state).
pub struct Hp {
    hp_slots: SlotArray,
    core: SchemeCore,
}

/// Per-thread handle for [`Hp`].
pub struct HpHandle {
    scheme: Arc<Hp>,
    core: HandleCore,
    /// This thread's hazard slots and their local mirror.
    hazards: MirroredRow<NO_HAZARD>,
    /// Retained hazard snapshot (sorted addresses), refilled in place per
    /// scan.
    snap: Vec<u64>,
}

impl Scheme for Hp {
    const NAME: &'static str = "HP";

    fn core(&self) -> &SchemeCore {
        &self.core
    }

    /// Every kept node is pinned by some announced hazard, so a handle's
    /// list can never exceed the total slot budget (Table 1's HP bound).
    #[cfg(feature = "oracle")]
    fn waste_bound(&self) -> Option<u128> {
        let cfg = &self.core.cfg;
        Some((cfg.max_threads * cfg.slots_per_thread) as u128)
    }
}

impl Smr for Hp {
    type Handle = HpHandle;

    fn try_new(cfg: Config) -> Result<Arc<Self>, SmrError> {
        let core = SchemeCore::try_new(cfg)?;
        let (threads, slots) = (core.cfg.max_threads, core.cfg.slots_per_thread);
        Ok(Arc::new(Hp { hp_slots: SlotArray::new(threads, slots, NO_HAZARD), core }))
    }

    fn try_register(self: &Arc<Self>) -> Result<HpHandle, SmrError> {
        let core = self.core.try_register()?;
        Ok(HpHandle {
            hazards: MirroredRow::new(&self.hp_slots, core.tid),
            core,
            scheme: self.clone(),
            snap: Vec::new(),
        })
    }

    smr_core_accessors!();
}

impl_handle_telemetry!(HpHandle);

impl Protection<Hp> for Vec<u64> {
    fn snapshot(&mut self, scheme: &Hp) {
        scheme.hp_slots.announced_sorted_into(self);
    }

    /// No hazard slot held the address after the scan fence, so no thread
    /// can have validated a protection for it.
    #[inline]
    fn is_protected(&self, r: &Retired) -> bool {
        self.binary_search(&r.addr()).is_ok()
    }
}

impl SmrHandle for HpHandle {
    fn start_op(&mut self) {
        self.core.start_op::<Hp>();
    }

    fn end_op(&mut self) {
        self.core.end_op();
        // Paper optimization: clear all slots, then a single fence.
        self.hazards.clear(&self.scheme.hp_slots);
        counted_fence(&mut self.core.tele, FenceSite::EndOp);
    }

    fn read<T: Send + Sync>(&mut self, src: &Atomic<T>, refno: usize) -> Shared<T> {
        let mut backoff = mp_util::Backoff::new();
        // On a failed validation the re-read *becomes* the next candidate.
        // A fence is paid only per newly announced address: a retry that
        // lands back on the slot's standing address (A→B→A churn) is free.
        // A null (possibly marked-null) word needs no protection.
        let mut w = src.load(Ordering::Acquire);
        while !w.is_null() {
            match self.hazards.protect(&self.scheme.hp_slots, &mut self.core.tele, refno, src, w) {
                Ok(_) => break,
                Err(now) => {
                    // A writer is churning `src`: back off before fencing again.
                    backoff.spin();
                    w = now;
                }
            }
        }
        #[cfg(feature = "oracle")]
        self.core.ledger.read(refno, w.addr(), true);
        w
    }

    fn unprotect(&mut self, refno: usize) {
        self.hazards.withdraw(&self.scheme.hp_slots, refno);
        #[cfg(feature = "oracle")]
        self.core.ledger.release(refno);
    }

    fn alloc_with_tail<T: Send + Sync>(
        &mut self,
        data: T,
        index: Option<u32>,
        tail_len: usize,
    ) -> Shared<T> {
        self.core.alloc::<Hp, _>(data, index.unwrap_or(0), 0, tail_len)
    }

    // SAFETY: [INV-11] trait contract: the caller retires a removed node
    // exactly once (the winning unlink CAS is at the call site).
    unsafe fn retire<T: Send + Sync>(&mut self, node: Shared<T>) {
        // SAFETY: [INV-04] forwarded from this fn's own contract.
        unsafe { self.core.retire(&*self.scheme, &mut self.snap, node, 0, 0) }
    }

    fn retired_len(&self) -> usize {
        self.core.retired_len()
    }

    fn force_empty(&mut self) {
        self.core.scan(&*self.scheme, &mut self.snap);
    }
}

impl Drop for HpHandle {
    fn drop(&mut self) {
        self.hazards.clear(&self.scheme.hp_slots);
        self.core.release(&*self.scheme, &mut self.snap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{Counter, Telemetry};

    fn setup(threads: usize) -> Arc<Hp> {
        Hp::new(Config { max_threads: threads, ..Config::default() })
    }

    #[test]
    fn unprotected_retired_node_is_reclaimed() {
        let smr = setup(1);
        let mut h = smr.register();
        h.start_op();
        let n = h.alloc(1u32);
        // SAFETY: [INV-12] never published, retired once by the test.
        unsafe { h.retire(n) };
        h.force_empty();
        assert_eq!(h.retired_len(), 0);
        assert_eq!(smr.retired_pending(), 0);
        h.end_op();
    }

    #[test]
    fn protected_node_survives_empty() {
        let smr = setup(2);
        let mut reader = smr.register();
        let mut writer = smr.register();

        writer.start_op();
        let n = writer.alloc(5u64);
        let cell = Atomic::new(n);

        reader.start_op();
        let got = reader.read(&cell, 0);
        assert_eq!(got, n);

        // Writer unlinks and retires; reader's hazard must block reclamation.
        cell.store(Shared::null(), Ordering::Release);
        unsafe { writer.retire(n) }; // SAFETY: [INV-12] unlinked above, retired once.
        writer.force_empty();
        assert_eq!(writer.retired_len(), 1, "hazard must block reclamation");
        // SAFETY: [INV-12] reader's hazard span is still open and pins the node.
        assert_eq!(unsafe { *got.deref().data() }, 5, "still dereferenceable");

        // Reader drops protection; now reclamation succeeds.
        reader.end_op();
        writer.force_empty();
        assert_eq!(writer.retired_len(), 0);
        writer.end_op();
    }

    /// A retire-triggered scan judges against the slots as they are now: a
    /// hazard an earlier scan saw, released since, pins nothing.
    #[test]
    fn released_hazard_does_not_outlive_the_next_retire_triggered_scan() {
        // Watermark max(1, 2·2·1) = 4; after a scan that kept one node the
        // trigger re-arms at max(4, 1 + 1) = 4 again.
        let cfg = Config { max_threads: 2, slots_per_thread: 1, empty_freq: 1, ..Config::default() };
        let smr = Hp::new(cfg);
        let mut reader = smr.register();
        let mut writer = smr.register();
        fn retire_fresh(writer: &mut HpHandle, count: u64) {
            for i in 0..count {
                let other = writer.alloc(i);
                unsafe { writer.retire(other) }; // SAFETY: [INV-12] never published, retired once.
            }
        }

        writer.start_op();
        let n = writer.alloc(5u64);
        let cell = Atomic::new(n);
        reader.start_op();
        let _ = reader.read(&cell, 0);

        cell.store(Shared::null(), Ordering::Release);
        unsafe { writer.retire(n) }; // SAFETY: [INV-12] unlinked above, retired once.
        retire_fresh(&mut writer, 3);
        assert_eq!(writer.counter(Counter::Empties), 1, "the fourth retire scans");
        assert_eq!(writer.retired_len(), 1, "the scan saw the hazard and kept the node");

        reader.end_op();
        retire_fresh(&mut writer, 3);
        assert_eq!(writer.counter(Counter::Empties), 2);
        assert_eq!(writer.retired_len(), 0, "no hazard is announced, yet a node was kept");
        writer.end_op();
    }

    #[test]
    fn read_validates_against_concurrent_swap() {
        let smr = setup(1);
        let mut h = smr.register();
        h.start_op();
        let a = h.alloc(1u32);
        let b = h.alloc(2u32);
        let cell = Atomic::new(a);
        // Simulate a swap happening between announce and validate by
        // pre-poisoning: read returns whatever is current at validation.
        cell.store(b, Ordering::Release);
        let got = h.read(&cell, 0);
        assert_eq!(got, b);
        h.end_op();
        // SAFETY: [INV-12] test-owned nodes, each retired exactly once.
        unsafe {
            h.retire(a);
            h.retire(b);
        }
    }

    #[test]
    fn repeated_read_of_same_node_fences_once() {
        let smr = setup(1);
        let mut h = smr.register();
        h.start_op();
        let n = h.alloc(3u16);
        let cell = Atomic::new(n);
        let f0 = h.tele().fences();
        let _ = h.read(&cell, 0);
        let after_first = h.tele().fences();
        assert_eq!(after_first, f0 + 1);
        for _ in 0..10 {
            let _ = h.read(&cell, 0);
        }
        assert_eq!(h.tele().fences(), after_first, "slot dedup avoids refencing");
        h.end_op();
        unsafe { h.retire(n) }; // SAFETY: [INV-12] test-owned, retired once.
    }

    #[test]
    fn wasted_memory_bounded_by_hazards() {
        // A stalled reader pins at most slots_per_thread nodes.
        let cfg = Config { max_threads: 2, slots_per_thread: 4, ..Config::default() };
        let smr = Hp::new(cfg);
        let mut reader = smr.register();
        let mut writer = smr.register();

        reader.start_op();
        writer.start_op();
        // Reader protects 4 distinct nodes and then "stalls".
        let mut cells = Vec::new();
        for i in 0..4u32 {
            let n = writer.alloc(i);
            let cell = Atomic::new(n);
            let _ = reader.read(&cell, i as usize);
            cells.push((cell, n));
        }
        // Writer churns: retire the protected nodes + many unprotected ones.
        for (cell, n) in &cells {
            cell.store(Shared::null(), Ordering::Release);
            unsafe { writer.retire(*n) }; // SAFETY: [INV-12] unlinked above, retired once.
        }
        for i in 0..1000u32 {
            let n = writer.alloc(i);
            unsafe { writer.retire(n) }; // SAFETY: [INV-12] never published, retired once.
        }
        writer.force_empty();
        assert!(
            writer.retired_len() <= 4,
            "wasted memory {} exceeds hazard count",
            writer.retired_len()
        );
        reader.end_op();
        writer.end_op();
    }
}
