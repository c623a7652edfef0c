//! Drop the Anchor (Braginsky, Kogan & Petrank, SPAA 2013; paper §3.1).
//!
//! DTA reduces HP's overhead by announcing an *anchor* once every `k` node
//! traversals instead of a hazard pointer per dereference: the anchor
//! protects every node reachable from it within `k` hops. Reclamation runs
//! an EBR-like fast path; if a thread stalls mid-operation (its announced
//! operation stamp stops changing), the reclaimer *freezes* the `k` nodes
//! protected by the stalled thread's anchor — making them immutable and
//! splicing fresh copies into the structure — after which every non-frozen
//! node can be reclaimed despite the stall.
//!
//! Freezing is data-structure-specific (§3.1: "only a list freezing
//! technique is known"), so the scheme exposes a [`Freezer`] hook that the
//! DTA-enabled linked list registers (`mp-ds::dta_list`). Without a
//! registered freezer the scheme behaves exactly like EBR — which is also
//! its behavior on data structures DTA has never been applied to.
//!
//! Frozen nodes are never reclaimed while the scheme lives, reproducing
//! DTA's documented weakness (Table 1 footnote: frozen memory can grow
//! arbitrarily large): the originals the freezer unlinks wait in a park of
//! the scheme's own until it drops.

use std::collections::HashSet;
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

use core::sync::atomic::Ordering;

use crate::api::{Config, Smr, SmrHandle};
use crate::error::SmrError;
use crate::node::{BirthAt, Retired};
use crate::packed::{Atomic, Shared};
use crate::registry::SlotArray;
use crate::schemes::common::{counted_fence, EpochClock, INACTIVE};
use crate::schemes::core::{
    impl_handle_telemetry, smr_core_accessors, HandleCore, Protection, Scheme, SchemeCore,
};
use crate::telemetry::FenceSite;

/// Data-structure-specific freezing callback (see module docs).
///
/// `freeze_from` must render the anchored neighborhood of the node at
/// `anchor_addr` immutable and unlinked from the live structure (replaced by
/// copies), then return the addresses of the frozen nodes. The neighborhood
/// extends until `old_quota` nodes **born before `older_than`** (i.e.
/// pre-existing when the stalled operation started) have been frozen —
/// newly inserted nodes are frozen too but do not count, which is how DTA
/// guarantees coverage of the stalled thread's position even when
/// arbitrarily many nodes were inserted behind it (§3.1's footnote: the
/// insertion-time field). Returning an empty set means freezing could not
/// be performed; the stalled thread then keeps blocking reclamation.
pub trait Freezer: Send + Sync {
    /// Freezes the anchored neighborhood; returns frozen node addresses.
    fn freeze_from(&self, anchor_addr: u64, old_quota: usize, older_than: u64) -> Vec<u64>;
}

/// Drop-the-Anchor SMR scheme (shared state).
pub struct Dta {
    clock: EpochClock,
    /// Operation stamps: the epoch announced at `start_op` (`INACTIVE` idle).
    announce: SlotArray,
    /// One anchor address slot per thread (0 = none).
    anchors: SlotArray,
    core: SchemeCore,
    /// Client-registered freezing procedure.
    freezer: RwLock<Option<Arc<dyn Freezer>>>,
    /// Stall bookkeeping: per-tid (last observed stamp, misses) plus the
    /// global set of frozen node addresses.
    recovery: Mutex<RecoveryState>,
    /// Originals the freezer unlinked ([`Dta::park_frozen`]), freed when
    /// the scheme drops. Not behind `recovery`: the freezer parks while a
    /// scan holds that lock.
    frozen_park: Mutex<Vec<Retired>>,
}

struct RecoveryState {
    last_stamp: Vec<u64>,
    misses: Vec<usize>,
    /// Per tid: `Some((stamp, freeze_clock))` while the thread is
    /// neutralized — its old stamp pins only nodes retired inside
    /// `[stamp, freeze_clock)`, a fixed window (see `classify_threads`).
    neutralized: Vec<Option<(u64, u64)>>,
    frozen: HashSet<u64>,
}

/// How a scan must treat one thread (computed by `classify_threads_into`).
#[derive(Clone, Copy)]
enum ThreadClass {
    /// Not inside an operation: pins nothing.
    Idle,
    /// Active: pins every node retired at or after its stamp (EBR rule).
    Respected(u64),
    /// Stalled and successfully frozen: its references are confined to the
    /// frozen zone plus nodes retired inside the window `[stamp, fclock)` —
    /// nodes retired at ≥ `fclock` were still linked (hence in the frozen
    /// zone, or unreachable to it) when freezing completed.
    Neutralized { stamp: u64, fclock: u64 },
}

/// Per-thread handle for [`Dta`].
pub struct DtaHandle {
    scheme: Arc<Dta>,
    core: HandleCore,
    /// Stamp announced by the current operation (`start_op`/`refresh_op`).
    stamp: u64,
    /// Retained thread-classification buffer, refilled in place per scan.
    class_scratch: Vec<ThreadClass>,
    alloc_counter: usize,
}

/// DTA's waste depends on freeze timing and the anchored-segment size, not
/// a predetermined formula — exempt from the oracle's waste-bound monitor.
impl Scheme for Dta {
    const NAME: &'static str = "DTA";
    const BIRTH: BirthAt = BirthAt::Stamp;
    #[cfg(feature = "oracle")]
    const PROTECTS_BY_EPOCH: bool = true;

    fn core(&self) -> &SchemeCore {
        &self.core
    }
}

impl Smr for Dta {
    type Handle = DtaHandle;

    fn try_new(cfg: Config) -> Result<Arc<Self>, SmrError> {
        let core = SchemeCore::try_new(cfg)?;
        let threads = core.cfg.max_threads;
        Ok(Arc::new(Dta {
            clock: EpochClock::new(),
            announce: SlotArray::new(threads, 1, INACTIVE),
            anchors: SlotArray::new(threads, 1, 0),
            recovery: Mutex::new(RecoveryState {
                last_stamp: vec![INACTIVE; threads],
                misses: vec![0; threads],
                neutralized: vec![None; threads],
                frozen: HashSet::new(),
            }),
            frozen_park: Mutex::new(Vec::new()),
            core,
            freezer: RwLock::new(None),
        }))
    }

    fn try_register(self: &Arc<Self>) -> Result<DtaHandle, SmrError> {
        Ok(DtaHandle {
            core: self.core.try_register()?,
            scheme: self.clone(),
            stamp: 0,
            class_scratch: Vec::new(),
            alloc_counter: 0,
        })
    }

    smr_core_accessors!();
}

impl_handle_telemetry!(DtaHandle);

impl Dta {
    /// Registers the data-structure-specific freezing procedure.
    pub fn set_freezer(&self, f: Arc<dyn Freezer>) {
        *self.freezer.write().unwrap() = Some(f);
    }

    /// Unregisters the freezer (called by the client structure's `Drop`,
    /// whose nodes the freezer walks).
    pub fn clear_freezer(&self) {
        *self.freezer.write().unwrap() = None;
    }

    /// Parks a node unlinked by the *freezer* (a frozen original replaced by
    /// a copy) for reclamation at scheme teardown. Frozen nodes are pinned
    /// forever while the scheme lives (Table 1 footnote), so they bypass
    /// the ordinary retire path.
    ///
    /// # Safety
    /// `node` must be removed (unreachable), never retired before, and
    /// present in the frozen set so concurrent `empty()` runs keep pinning
    /// any aliases of it.
    // SAFETY: [INV-11] obligation stated in `# Safety` above; the freezer's
    // replace_reachable_segment cites the winning splice at the call site.
    pub unsafe fn park_frozen<T: Send + Sync>(&self, node: Shared<T>) {
        // SAFETY: [INV-04] forwarded from this fn's own contract (removed,
        // never retired before).
        let r = unsafe { self.core.capture(node, u64::MAX) };
        self.frozen_park.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(r);
    }

    /// Number of nodes currently frozen (for tests and Table 1).
    pub fn frozen_count(&self) -> usize {
        self.recovery.lock().unwrap().frozen.len()
    }

    /// Updates stall bookkeeping and classifies every thread for the
    /// reclamation rule. Runs under the recovery lock (`rec`), which the
    /// scanning handle keeps holding through its reclaim loop — so no node is
    /// freed while a freeze walk dereferences the (pinned) anchor chain.
    ///
    /// `out` (a handle-retained buffer) is cleared and refilled in place so
    /// steady-state scans do not allocate.
    #[allow(clippy::needless_range_loop)] // tid indexes three parallel arrays
    fn classify_threads_into(&self, rec: &mut RecoveryState, out: &mut Vec<ThreadClass>) {
        let cfg = &self.core.cfg;
        out.clear();
        out.resize(cfg.max_threads, ThreadClass::Idle);
        let freezer = self.freezer.read().unwrap().clone();
        for tid in 0..cfg.max_threads {
            let stamp = self.announce.get(tid, 0).load(Ordering::Acquire);
            if stamp == INACTIVE {
                rec.last_stamp[tid] = INACTIVE;
                rec.misses[tid] = 0;
                rec.neutralized[tid] = None;
                continue;
            }
            if rec.last_stamp[tid] == stamp {
                rec.misses[tid] += 1;
            } else {
                // The thread progressed to a new operation (stamps are
                // unique and increasing): any previous neutralization ends —
                // its fresh stamp is respected again.
                rec.last_stamp[tid] = stamp;
                rec.misses[tid] = 0;
                rec.neutralized[tid] = None;
            }
            if let Some((s, fclock)) = rec.neutralized[tid] {
                debug_assert_eq!(s, stamp);
                out[tid] = ThreadClass::Neutralized { stamp: s, fclock };
                continue;
            }
            let stalled = rec.misses[tid] >= cfg.stall_patience;
            if stalled {
                if let Some(f) = &freezer {
                    let anchor = self.anchors.get(tid, 0).load(Ordering::Acquire);
                    if anchor != 0 {
                        // Freeze the anchored neighborhood: enough nodes
                        // *born before the stalled op* to cover a full
                        // anchor cadence (+2 slack: anchors are posted on
                        // the predecessor, and the thread may stand one hop
                        // past its cadence point).
                        let frozen =
                            f.freeze_from(anchor, cfg.anchor_hops + 2, stamp);
                        if !frozen.is_empty() {
                            rec.frozen.extend(frozen.iter().copied());
                            // Revalidate before neutralizing: if the thread
                            // re-anchored or finished meanwhile, it was not
                            // stalled — its references may lie outside the
                            // zone we just froze, so keep respecting it.
                            core::sync::atomic::fence(Ordering::SeqCst);
                            let stamp_now =
                                self.announce.get(tid, 0).load(Ordering::Acquire);
                            let anchor_now =
                                self.anchors.get(tid, 0).load(Ordering::Acquire);
                            if stamp_now == stamp && anchor_now == anchor {
                                // Safe: the thread's references are confined
                                // to the frozen zone (anchor unchanged ⇒ it
                                // is within one cadence of the anchor) plus
                                // nodes retired before this instant.
                                let fclock = self.clock.now();
                                rec.neutralized[tid] = Some((stamp, fclock));
                                out[tid] =
                                    ThreadClass::Neutralized { stamp, fclock };
                                continue;
                            }
                        }
                    }
                }
            }
            out[tid] = ThreadClass::Respected(stamp);
        }
    }
}

/// One scan's view of the scheme: the recovery lock — taken by the first
/// snapshot and held until the view drops, because frees must not run while
/// a freeze walk dereferences pinned retired nodes — plus the thread
/// classification computed under it.
struct DtaScan<'a> {
    scheme: &'a Dta,
    rec: Option<MutexGuard<'a, RecoveryState>>,
    classes: &'a mut Vec<ThreadClass>,
}

impl Protection<Dta> for DtaScan<'_> {
    fn snapshot(&mut self, _scheme: &Dta) {
        let scheme = self.scheme;
        let rec = self.rec.get_or_insert_with(|| scheme.recovery.lock().unwrap());
        scheme.classify_threads_into(rec, self.classes);
    }

    #[inline]
    fn is_protected(&self, r: &Retired) -> bool {
        // Nothing is judged before `snapshot` took the lock: keep.
        let Some(rec) = &self.rec else { return true };
        rec.frozen.contains(&r.addr())
            || self.classes.iter().any(|class| match *class {
                ThreadClass::Idle => false,
                // EBR rule: an active thread may reference anything
                // retired at or after its announced stamp.
                ThreadClass::Respected(m) => r.retire >= m,
                // A neutralized thread pins only the fixed window of
                // nodes retired during its stall, up to the freeze;
                // later retirees were linked when freezing completed,
                // so the thread can reach them only inside the frozen
                // zone (kept above) or not at all.
                // Keyed on the *retiring operation's start* rather than
                // the retire stamp: the remover may be preempted between
                // its unlink CAS and its retire() call, so only
                // op_start ≤ unlink-time is guaranteed.
                ThreadClass::Neutralized { stamp, fclock } => {
                    r.retire >= stamp && r.op_start < fclock
                }
            })
    }
}

impl DtaHandle {
    /// Splits the handle into the pieces one call into the core needs.
    fn scan_parts(&mut self) -> (&mut HandleCore, &Dta, DtaScan<'_>) {
        let scan = DtaScan { scheme: &self.scheme, rec: None, classes: &mut self.class_scratch };
        (&mut self.core, &self.scheme, scan)
    }

    /// The scheme this handle belongs to (used by the DTA list to register
    /// its freezer and to inspect frozen state).
    pub fn scheme(&self) -> &Arc<Dta> {
        &self.scheme
    }

    /// Drops this thread's anchor on `node_addr` — announcing that every
    /// local reference the thread will hold until the next post lies within
    /// `Config::anchor_hops` pointer hops of that node. The client calls
    /// this on its current *predecessor* node, which it knows to be linked
    /// (reached via validated unmarked reads), every `anchor_hops`
    /// traversal steps — DTA's replacement for a hazard fence per read.
    pub fn post_anchor(&mut self, node_addr: u64) {
        self.scheme.anchors.get(self.core.tid, 0).store(node_addr, Ordering::Release);
        counted_fence(&mut self.core.tele, FenceSite::Announce);
    }

    /// The configured anchor cadence (hops between posts).
    pub fn anchor_hops(&self) -> usize {
        self.scheme.core.cfg.anchor_hops
    }

    /// Re-announces a *fresh* operation stamp mid-operation. The client
    /// structure calls this whenever a traversal restarts after reading a
    /// frozen pointer: the thread may have been neutralized (deemed
    /// stalled), in which case its old stamp no longer protects a fresh
    /// traversal — the new, never-seen stamp is respected again by every
    /// reclaimer, and the restart drops all old local references.
    pub fn refresh_op(&mut self) {
        let e = self.scheme.clock.advance();
        self.stamp = e;
        self.scheme.announce.get(self.core.tid, 0).store(e, Ordering::Release);
        self.scheme.anchors.get(self.core.tid, 0).store(0, Ordering::Release);
        counted_fence(&mut self.core.tele, FenceSite::StartOp);
    }
}

impl SmrHandle for DtaHandle {
    fn start_op(&mut self) {
        self.core.start_op::<Dta>();
        let e = self.scheme.clock.advance(); // fresh stamp ⇒ visible progress
        self.stamp = e;
        self.scheme.announce.get(self.core.tid, 0).store(e, Ordering::Release);
        counted_fence(&mut self.core.tele, FenceSite::StartOp);
    }

    fn end_op(&mut self) {
        self.core.end_op();
        self.scheme.announce.get(self.core.tid, 0).store(INACTIVE, Ordering::Release);
        self.scheme.anchors.get(self.core.tid, 0).store(0, Ordering::Release);
    }

    fn read<T: Send + Sync>(&mut self, src: &Atomic<T>, _refno: usize) -> Shared<T> {
        // Plain load: DTA's protection comes from the EBR stamp plus the
        // anchors the client structure posts via [`DtaHandle::post_anchor`].
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
        let birth = self.scheme.clock.now();
        self.core.alloc::<Dta, _>(data, index.unwrap_or(0), birth, tail_len)
    }

    // SAFETY: [INV-11] trait contract: the caller retires a removed node
    // exactly once (the winning unlink CAS is at the call site).
    unsafe fn retire<T: Send + Sync>(&mut self, node: Shared<T>) {
        let stamp = self.scheme.clock.now();
        // The neutralization window is keyed on when the unlinking
        // operation began (≤ the unlink itself); see `is_protected`.
        let op_start = self.stamp;
        let (core, scheme, mut scan) = self.scan_parts();
        // SAFETY: [INV-04] forwarded from this fn's own contract.
        unsafe { core.retire(scheme, &mut scan, node, stamp, op_start) }
    }

    fn retired_len(&self) -> usize {
        self.core.retired_len()
    }

    fn force_empty(&mut self) {
        let (core, scheme, mut scan) = self.scan_parts();
        core.scan(scheme, &mut scan);
    }
}

impl Drop for Dta {
    fn drop(&mut self) {
        let parked = self.frozen_park.get_mut().unwrap_or_else(std::sync::PoisonError::into_inner);
        for r in parked.drain(..) {
            // SAFETY: [INV-06] teardown: every handle holds an `Arc` to the
            // scheme, so `&mut self` here proves none is left to reference
            // a frozen original.
            unsafe { r.reclaim() };
        }
    }
}

impl Drop for DtaHandle {
    fn drop(&mut self) {
        self.scheme.announce.get(self.core.tid, 0).store(INACTIVE, Ordering::Release);
        self.scheme.anchors.get(self.core.tid, 0).store(0, Ordering::Release);
        let (core, scheme, mut scan) = self.scan_parts();
        core.release(scheme, &mut scan);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::Telemetry;

    fn setup(threads: usize) -> Arc<Dta> {
        Dta::new(
            Config {
                max_threads: threads,
                epoch_freq: 1,
                anchor_hops: 3,
                stall_patience: 2,
                ..Config::default()
            },
        )
    }

    #[test]
    fn behaves_like_ebr_without_freezer() {
        let smr = setup(2);
        let mut stalled = smr.register();
        let mut worker = smr.register();
        stalled.start_op();
        for i in 0..100u32 {
            // Worker runs short, well-behaved operations; only the stalled
            // thread's stale stamp can pin memory.
            worker.start_op();
            let n = worker.alloc(i);
            // SAFETY: [INV-12] never published, retired once.
            unsafe { worker.retire(n) };
            worker.end_op();
        }
        assert!(worker.retired_len() >= 100, "no freezer ⇒ stall pins everything (EBR)");
        stalled.end_op();
        worker.end_op();
        worker.force_empty();
        assert_eq!(worker.retired_len(), 0);
    }

    /// A handle that drops while a peer is mid-operation leaves its drain
    /// scan's keepers as orphans; the next registrant adopts and frees them
    /// instead of holding them to teardown.
    #[test]
    fn a_dropped_handles_leftovers_are_adopted_and_freed() {
        let smr = setup(3);
        let mut a = smr.register();
        let mut b = smr.register();
        b.start_op();
        a.start_op();
        let n = a.alloc(0u32);
        // SAFETY: [INV-12] never published, retired once.
        unsafe { a.retire(n) };
        a.end_op();
        drop(a);
        assert_eq!(smr.core.registry.orphan_count(), 1, "b's stamp pins the node past a's drop");
        b.end_op();
        let mut c = smr.register();
        c.force_empty();
        assert_eq!(smr.telemetry().pending(), 0);
        assert_eq!(smr.core.registry.orphan_count(), 0);
    }

    #[test]
    fn reads_are_free_and_anchor_posts_fence() {
        let smr = setup(1);
        let mut h = smr.register();
        h.start_op();
        let n = h.alloc(0u32);
        let cell = Atomic::new(n);
        let f0 = h.tele().fences();
        // Reads are plain loads — DTA's whole point.
        for _ in 0..10 {
            let _ = h.read(&cell, 0);
        }
        assert_eq!(h.tele().fences(), f0, "reads must not fence");
        assert_eq!(h.anchor_hops(), 3);
        h.post_anchor(n.addr());
        assert_eq!(h.tele().fences(), f0 + 1, "anchor post costs one fence");
        assert_eq!(smr.anchors.get(0, 0).load(Ordering::Relaxed), n.addr());
        h.end_op();
        // SAFETY: [INV-12] test-owned, retired once.
        unsafe { h.retire(n) };
        h.force_empty();
    }

    struct FakeFreezer {
        to_freeze: Vec<u64>,
    }
    impl Freezer for FakeFreezer {
        fn freeze_from(&self, _anchor: u64, _quota: usize, _older_than: u64) -> Vec<u64> {
            self.to_freeze.clone()
        }
    }

    #[test]
    fn stalled_thread_neutralized_by_freezing() {
        let smr = setup(2);
        let mut stalled = smr.register();
        let mut worker = smr.register();

        // The stalled thread posts an anchor, then stops taking steps.
        stalled.start_op();
        worker.start_op();
        let anchor_node = worker.alloc(0u32);
        let cell = Atomic::new(anchor_node);
        let _ = stalled.read(&cell, 0);
        stalled.post_anchor(anchor_node.addr());
        assert_ne!(smr.anchors.get(0, 0).load(Ordering::Relaxed), 0);

        // Freezer will claim the anchor node as frozen.
        smr.set_freezer(Arc::new(FakeFreezer { to_freeze: vec![anchor_node.addr()] }));

        // Churn with short operations, scanning after each, until stall
        // detection (patience=2) kicks in; the worker's own fresh stamps
        // never pin old nodes.
        for i in 0..50u32 {
            worker.end_op();
            worker.start_op();
            let n = worker.alloc(i);
            // SAFETY: [INV-12] never published, retired once.
            unsafe { worker.retire(n) };
            worker.force_empty();
        }
        assert!(
            worker.retired_len() < 50,
            "freezing must unblock reclamation, kept {}",
            worker.retired_len()
        );
        assert_eq!(smr.frozen_count(), 1);

        // The frozen node itself must never be reclaimed while the scheme
        // lives, even when retired.
        cell.store(Shared::null(), Ordering::Release);
        // SAFETY: [INV-12] unlinked above, retired once.
        unsafe { worker.retire(anchor_node) };
        stalled.end_op();
        worker.end_op();
        worker.force_empty();
        assert_eq!(worker.retired_len(), 1, "frozen node pinned forever");
    }
}
