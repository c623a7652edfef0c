//! Hazard eras (Ramalhete & Correia 2017; paper §3.3).
//!
//! HE keeps HP's per-reference protection slots but stores *eras* (epoch
//! values) instead of addresses. Nodes carry a birth era and a retire era;
//! a retired node may be freed when no announced era lies inside its
//! birth–death interval. Because the global era advances only every
//! `epoch_freq` deletions, consecutive reads usually see an unchanged era
//! and skip the announcement fence — this is how HE undercuts HP's
//! overhead while keeping HP's deployment effort.
//!
//! HE is robust (a stalled thread cannot pin nodes born after its announced
//! eras) but its wasted memory is not bounded by a predetermined value: all
//! nodes alive at the moment a thread stalls stay pinned, which can be the
//! entire data structure (§1).

use std::sync::Arc;

use core::sync::atomic::Ordering;

use crate::api::{Config, Smr, SmrHandle};
use crate::error::SmrError;
use crate::node::{BirthAt, Retired};
use crate::packed::{Atomic, Shared};
use crate::registry::SlotArray;
use crate::schemes::common::{interval_hit, EpochClock, MirroredRow, INACTIVE};
use crate::schemes::core::{
    impl_handle_telemetry, smr_core_accessors, HandleCore, Protection, Scheme, SchemeCore,
};
use crate::telemetry::FenceSite;

/// Hazard-eras SMR scheme (shared state).
pub struct He {
    clock: EpochClock,
    /// Era announcement slots (`INACTIVE` = no era announced).
    era_slots: SlotArray,
    core: SchemeCore,
}

/// Per-thread handle for [`He`].
pub struct HeHandle {
    scheme: Arc<He>,
    core: HandleCore,
    /// This thread's era slots and their local mirror.
    eras: MirroredRow<INACTIVE>,
    /// Retained era snapshot (sorted), refilled in place per scan.
    snap: Vec<u64>,
    retire_counter: usize,
}

impl Scheme for He {
    const NAME: &'static str = "HE";
    const BIRTH: BirthAt = BirthAt::Stamp;

    fn core(&self) -> &SchemeCore {
        &self.core
    }

    /// Era-pile conformance bound. At most T·H distinct eras are announced;
    /// each pins retirees whose lifetime contains it, and the era clock
    /// advances every `epoch_freq` retires per thread, so a pile of more
    /// than F·T nodes per announced era (plus the `empty_freq` batch retired
    /// since the last scan) means the interval filter is broken. Heuristic,
    /// not a paper theorem — HE's waste is not predetermined — but far above
    /// anything a correct scan retains at test scale.
    #[cfg(feature = "oracle")]
    fn waste_bound(&self) -> Option<u128> {
        let cfg = &self.core.cfg;
        let t = cfg.max_threads as u128;
        let h = cfg.slots_per_thread as u128;
        let f = cfg.epoch_freq as u128;
        Some(t * h * f * t + cfg.empty_freq as u128)
    }
}

impl Smr for He {
    type Handle = HeHandle;

    fn try_new(cfg: Config) -> Result<Arc<Self>, SmrError> {
        let core = SchemeCore::try_new(cfg)?;
        let (threads, slots) = (core.cfg.max_threads, core.cfg.slots_per_thread);
        Ok(Arc::new(He {
            clock: EpochClock::new(),
            era_slots: SlotArray::new(threads, slots, INACTIVE),
            core,
        }))
    }

    fn try_register(self: &Arc<Self>) -> Result<HeHandle, SmrError> {
        let core = self.core.try_register()?;
        Ok(HeHandle {
            eras: MirroredRow::new(&self.era_slots, core.tid),
            core,
            scheme: self.clone(),
            snap: Vec::new(),
            retire_counter: 0,
        })
    }

    smr_core_accessors!();
}

impl_handle_telemetry!(HeHandle);

impl Protection<He> for Vec<u64> {
    fn snapshot(&mut self, scheme: &He) {
        scheme.era_slots.announced_sorted_into(self);
    }

    /// No announced era overlaps the node's lifetime, so no thread can have
    /// validated a protection for it (§3.3).
    #[inline]
    fn is_protected(&self, r: &Retired) -> bool {
        interval_hit(self, r.birth, r.retire)
    }
}

impl SmrHandle for HeHandle {
    fn start_op(&mut self) {
        self.core.start_op::<He>();
    }

    fn end_op(&mut self) {
        // Era slots are *not* cleared between operations (lazy eras): a
        // stale era only pins nodes whose lifetime contains it — a
        // shrinking, finite set — so robustness is unaffected, while the
        // next operation that sees an unchanged global era pays no fence at
        // all. This matches the paper's characterization of HE's per-read
        // cost as "only reading the global epoch" (§6).
        self.core.end_op();
    }

    fn read<T: Send + Sync>(&mut self, src: &Atomic<T>, refno: usize) -> Shared<T> {
        // Published HE get_protected loop: (re)announce the era until it is
        // stable across the pointer load. A stable era proves any node seen
        // by the load has birth ≤ era ≤ retire w.r.t. our announcement.
        loop {
            let w = src.load(Ordering::Acquire);
            let era = self.scheme.clock.now();
            let (slots, tele) = (&self.scheme.era_slots, &mut self.core.tele);
            if !self.eras.announce(slots, tele, refno, era, FenceSite::Announce) {
                #[cfg(feature = "oracle")]
                self.core.ledger.read(refno, w.addr(), false);
                return w;
            }
        }
    }

    fn unprotect(&mut self, refno: usize) {
        self.eras.withdraw(&self.scheme.era_slots, refno);
        #[cfg(feature = "oracle")]
        self.core.ledger.release(refno);
    }

    fn alloc_with_tail<T: Send + Sync>(
        &mut self,
        data: T,
        index: Option<u32>,
        tail_len: usize,
    ) -> Shared<T> {
        let birth = self.scheme.clock.now();
        self.core.alloc::<He, _>(data, index.unwrap_or(0), birth, tail_len)
    }

    // SAFETY: [INV-11] trait contract: the caller retires a removed node
    // exactly once (the winning unlink CAS is at the call site).
    unsafe fn retire<T: Send + Sync>(&mut self, node: Shared<T>) {
        let stamp = self.scheme.clock.now();
        // HE advances the era every constant number of deletions (§3.3).
        let freq = self.scheme.core.cfg.epoch_freq;
        self.scheme.clock.tick(&mut self.retire_counter, freq);
        // SAFETY: [INV-04] forwarded from this fn's own contract.
        unsafe { self.core.retire(&*self.scheme, &mut self.snap, node, stamp, stamp) }
    }

    fn retired_len(&self) -> usize {
        self.core.retired_len()
    }

    fn force_empty(&mut self) {
        self.core.scan(&*self.scheme, &mut self.snap);
    }
}

impl Drop for HeHandle {
    fn drop(&mut self) {
        self.eras.clear(&self.scheme.era_slots);
        self.core.release(&*self.scheme, &mut self.snap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::STAMP_MAX;
    use crate::telemetry::{Counter, Telemetry};

    fn setup(threads: usize) -> Arc<He> {
        He::new(Config { max_threads: threads, epoch_freq: 1, ..Config::default() })
    }

    #[test]
    fn era_inside_lifetime_blocks_reclamation() {
        let smr = setup(2);
        let mut reader = smr.register();
        let mut writer = smr.register();

        writer.start_op();
        let n = writer.alloc(1u32);
        let cell = Atomic::new(n);

        reader.start_op();
        let got = reader.read(&cell, 0); // announces current era
        assert_eq!(got, n);

        cell.store(Shared::null(), Ordering::Release);
        unsafe { writer.retire(n) }; // SAFETY: [INV-12] unlinked above, retired once.
        writer.force_empty();
        assert_eq!(writer.retired_len(), 1, "announced era within [birth,retire] pins node");
        // SAFETY: [INV-12] reader's announced era still pins the node.
        assert_eq!(unsafe { *got.deref().data() }, 1);

        // Lazy eras: ending the operation keeps the era announced; only
        // deregistering (or a later refresh) releases it.
        reader.end_op();
        drop(reader);
        writer.force_empty();
        assert_eq!(writer.retired_len(), 0);
        writer.end_op();
    }

    /// A retire-triggered scan judges against the slots as they are now: an
    /// era an earlier scan saw, released since, pins nothing.
    #[test]
    fn released_era_does_not_outlive_the_next_retire_triggered_scan() {
        // Watermark max(1, 2·2·1) = 4; after a scan that kept one node the
        // trigger re-arms at max(4, 1 + 1) = 4 again.
        let smr = He::new(
            Config {
                max_threads: 2,
                slots_per_thread: 1,
                empty_freq: 1,
                epoch_freq: 1,
                ..Config::default()
            },
        );
        let mut reader = smr.register();
        let mut writer = smr.register();
        fn retire_fresh(writer: &mut HeHandle, count: u32) {
            for i in 0..count {
                let other = writer.alloc(i);
                unsafe { writer.retire(other) }; // SAFETY: [INV-12] never published, retired once.
            }
        }

        writer.start_op();
        let n = writer.alloc(1u32);
        let cell = Atomic::new(n);
        reader.start_op();
        let _ = reader.read(&cell, 0);

        cell.store(Shared::null(), Ordering::Release);
        unsafe { writer.retire(n) }; // SAFETY: [INV-12] unlinked above, retired once.
        retire_fresh(&mut writer, 3);
        assert_eq!(writer.counter(Counter::Empties), 1, "the fourth retire scans");
        assert_eq!(writer.retired_len(), 1, "the scan saw the era and kept the node");

        reader.unprotect(0);
        retire_fresh(&mut writer, 3);
        assert_eq!(writer.counter(Counter::Empties), 2);
        assert_eq!(writer.retired_len(), 0, "no era is announced, yet a node was kept");
        reader.end_op();
        writer.end_op();
    }

    /// A birth above the 48-bit stamp is stored clamped, never later than
    /// it was: a reader whose era is the node's true birth still pins it,
    /// and a node born after that era, clamped to the same stamp, is kept
    /// too — a clamped node is protected longer, never freed early.
    #[test]
    fn a_birth_above_the_stamp_clamp_is_still_pinned_by_its_era() {
        let smr = setup(2);
        let born = STAMP_MAX + 100;
        smr.clock.set(born);
        let mut reader = smr.register();
        let mut writer = smr.register();

        writer.start_op();
        let n = writer.alloc(1u32);
        // SAFETY: [INV-12] allocated in this operation, not yet published.
        assert_eq!(unsafe { n.birth() }, Some(STAMP_MAX), "true birth {born}");
        let cell = Atomic::new(n);
        reader.start_op();
        assert_eq!(reader.read(&cell, 0), n, "announces era {born}");

        cell.store(Shared::null(), Ordering::Release);
        unsafe { writer.retire(n) }; // SAFETY: [INV-12] unlinked above, retired once.
        writer.force_empty();
        assert_eq!(writer.retired_len(), 1, "the era at the true birth pins the node");

        let younger = writer.alloc(2u32);
        unsafe { writer.retire(younger) }; // SAFETY: [INV-12] never published, retired once.
        writer.force_empty();
        assert_eq!(writer.retired_len(), 2, "born after the era, but clamped below it");

        reader.end_op();
        drop(reader);
        writer.force_empty();
        assert_eq!(writer.retired_len(), 0, "no era announced, nothing pinned");
        writer.end_op();
    }

    #[test]
    fn nodes_born_after_stall_are_reclaimed() {
        // Robustness: the stalled reader's eras predate new nodes' births.
        let smr = setup(2);
        let mut stalled = smr.register();
        let mut worker = smr.register();

        stalled.start_op();
        worker.start_op();
        let pin = worker.alloc(0u32);
        let cell = Atomic::new(pin);
        let _ = stalled.read(&cell, 0); // stalled announces era, then stops
        // Churn: every alloc is born after the era advanced (epoch_freq=1).
        for i in 0..100u32 {
            let churn = worker.alloc(i);
            unsafe { worker.retire(churn) }; // SAFETY: [INV-12] never published, retired once.
        }
        worker.force_empty();
        assert!(
            worker.retired_len() <= 2,
            "younger nodes must be reclaimed despite stall, kept {}",
            worker.retired_len()
        );
        stalled.end_op();
        drop(stalled); // lazy eras: deregistration releases the stale era
        worker.end_op();
        cell.store(Shared::null(), Ordering::Release);
        unsafe { worker.retire(pin) }; // SAFETY: [INV-12] unlinked above, retired once.
        worker.force_empty();
        assert_eq!(worker.retired_len(), 0);
    }

    #[test]
    fn stable_era_reads_do_not_fence() {
        let cfg = Config { max_threads: 1, empty_freq: 100, epoch_freq: 1000, ..Config::default() };
        let smr = He::new(cfg);
        let mut h = smr.register();
        h.start_op();
        let n = h.alloc(9u8);
        let cell = Atomic::new(n);
        let _ = h.read(&cell, 0);
        let after_first = h.counter(Counter::Fences);
        for _ in 0..50 {
            let _ = h.read(&cell, 0);
        }
        assert_eq!(h.counter(Counter::Fences), after_first, "unchanged era ⇒ no fence");
        h.end_op();
        unsafe { h.retire(n) }; // SAFETY: [INV-12] test-owned, retired once.
        h.force_empty();
    }
}
