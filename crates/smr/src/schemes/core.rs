//! The reclamation skeleton every scheme shares.
//!
//! The schemes differ in what a thread announces and which retired nodes
//! an announcement pins; everything around that predicate — registration,
//! allocation accounting, the retire → scan → free pipeline, orphan
//! adoption, drain-on-drop — is the same and lives here, once.
//! A scheme embeds a [`SchemeCore`] in its shared state and a
//! [`HandleCore`] in its handle, names itself through [`Scheme`], and hands
//! the scan a [`Protection`]: a snapshot of its announcements plus the
//! "may this node still be referenced?" predicate over it. Everything is
//! generic, so each scheme's pipeline monomorphises to straight-line code.

use core::sync::atomic::{fence, Ordering};
use std::time::Instant;

use mp_util::CachePadded;

use crate::api::Config;
use crate::error::SmrError;
use crate::node::{BirthAt, Retired};
use crate::packed::Shared;
use crate::registry::Registry;
use crate::schemes::common::{ScanPolicy, ScanState};
use crate::telemetry::{Counter, HandleTelemetry, SchemeTelemetry};

/// What a scheme's shared state tells the skeleton about itself.
pub(crate) trait Scheme {
    /// Display name (`Smr::name`, oracle reports).
    const NAME: &'static str;
    /// Whether an open operation protects every node it can reach (EBR,
    /// IBR, DTA, Leaky), so the oracle's deref check exempts it.
    #[cfg(feature = "oracle")]
    const PROTECTS_BY_EPOCH: bool = false;
    /// Whether retired nodes are ever scanned (false only for Leaky).
    const RECLAIMS: bool = true;
    /// Where the scheme's nodes keep their birth epoch: nowhere unless its
    /// scans judge a node's lifetime, in the header's stamp unless they
    /// also read its index.
    const BIRTH: BirthAt = BirthAt::Nowhere;

    /// The embedded shared half of the skeleton.
    fn core(&self) -> &SchemeCore;

    /// The predetermined cap on one handle's retired list after a scan, if
    /// the scheme has one; checked by the oracle's waste-bound monitor.
    #[cfg(feature = "oracle")]
    fn waste_bound(&self) -> Option<u128> {
        None
    }
}

/// A scheme's view of who is protected, judged against by one scan.
pub(crate) trait Protection<S: Scheme> {
    /// Refills the snapshot from the scheme's live announcements. Called
    /// once per scan, after the scan's SeqCst fence.
    fn snapshot(&mut self, scheme: &S);

    /// True if, per the snapshot, some thread may still reference `r`.
    fn is_protected(&self, r: &Retired) -> bool;
}

/// The shared half: everything a scheme instance owns besides its
/// announcement arrays.
pub(crate) struct SchemeCore {
    pub(crate) registry: Registry,
    scan_policy: ScanPolicy,
    pub(crate) cfg: Config,
    pub(crate) tele: SchemeTelemetry,
}

impl SchemeCore {
    /// Validates `cfg` and resolves the scan policy.
    pub(crate) fn try_new(cfg: Config) -> Result<Self, SmrError> {
        cfg.validate()?;
        Ok(SchemeCore {
            registry: Registry::new(cfg.max_threads),
            scan_policy: ScanPolicy::from_config(&cfg),
            cfg,
            tele: SchemeTelemetry::default(),
        })
    }

    /// Leases a tid and builds the per-handle half for it.
    pub(crate) fn try_register(&self) -> Result<HandleCore, SmrError> {
        let lease = self
            .registry
            .try_acquire()
            .ok_or(SmrError::RegistryExhausted { max_threads: self.cfg.max_threads })?;
        let mut tele = HandleTelemetry::new();
        if lease.recycled {
            tele.bump(Counter::TidRecycles);
        }
        // Adopt parked orphans: churned-out handles leave behind whatever
        // their drain scan could not free; this handle frees them at its
        // next scan instead of letting them pile to teardown.
        Ok(HandleCore {
            tid: lease.tid,
            retired: CachePadded::new(self.registry.adopt_orphans()),
            scan_scratch: Vec::new(),
            scan: ScanState::new(&self.scan_policy),
            tele: CachePadded::new(tele),
            #[cfg(feature = "oracle")]
            ledger: crate::oracle::Ledger::new(self.cfg.slots_per_thread),
        })
    }

    /// Captures a removed node for deferred reclamation and counts it in
    /// the scheme's pending gauge.
    ///
    /// # Safety
    /// `node` must be removed, non-null and captured at most once.
    // SAFETY: [INV-11] obligation stated in `# Safety` above; forwarded by
    // `HandleCore::retire` and DTA's `park_frozen` from their own contracts.
    pub(crate) unsafe fn capture<T: Send + Sync>(&self, node: Shared<T>, stamp: u64) -> Retired {
        // SAFETY: [INV-04] forwarded from this fn's own contract.
        let r = unsafe { Retired::new(node.as_raw(), stamp) };
        self.tele.add(1, r.bytes() as usize);
        r
    }
}

impl Drop for SchemeCore {
    fn drop(&mut self) {
        // SAFETY: [INV-06] teardown: every handle holds an `Arc` to the
        // scheme embedding this core, so `&mut self` here proves no handle
        // exists and orphaned retired lists can no longer be protected by
        // anyone.
        unsafe { self.registry.reclaim_orphans() };
    }
}

/// The per-handle half: a thread's retired list and the bookkeeping around
/// it.
pub(crate) struct HandleCore {
    pub(crate) tid: usize,
    /// Cache-padded so adjacent handles never false-share the hot
    /// retired-list head (cf. `registry.rs::SlotArray` rows).
    retired: CachePadded<Vec<Retired>>,
    /// Retained swap buffer for scans: the drain source of one scan is the
    /// keep destination of the next, so steady-state scans never allocate.
    scan_scratch: Vec<Retired>,
    scan: ScanState,
    pub(crate) tele: CachePadded<HandleTelemetry>,
    /// What this handle's reads and allocations protect, for the oracle's
    /// deref check.
    #[cfg(feature = "oracle")]
    pub(crate) ledger: crate::oracle::Ledger,
}

impl HandleCore {
    /// `start_op` prologue: oracle context, op accounting.
    #[inline]
    pub(crate) fn start_op<S: Scheme>(&mut self) {
        #[cfg(feature = "oracle")]
        {
            crate::oracle::enter_scheme(S::NAME);
            self.ledger.open(S::PROTECTS_BY_EPOCH);
        }
        let retired_len = self.retired.len();
        self.tele.record_op_start(retired_len);
    }

    /// `end_op` prologue: closes the operation in the oracle's ledger.
    #[inline]
    pub(crate) fn end_op(&mut self) {
        #[cfg(feature = "oracle")]
        self.ledger.close();
    }

    /// Allocates a node followed by `tail_len` null links, keeping of
    /// `index` and `birth` what `S` reads, where [`Scheme::BIRTH`] says.
    #[inline]
    pub(crate) fn alloc<S: Scheme, T: Send + Sync>(
        &mut self,
        data: T,
        index: u32,
        birth: u64,
        tail_len: usize,
    ) -> Shared<T> {
        self.tele.bump(Counter::Allocs);
        let tele = &mut self.tele;
        let ptr = crate::node::alloc_node_in(data, S::BIRTH, index, birth, tail_len, tele);
        // SAFETY: [INV-02] `ptr` was just returned by the node allocator.
        let node = unsafe { Shared::from_owned(ptr) };
        #[cfg(feature = "oracle")]
        self.ledger.allocated(node.addr());
        node
    }

    /// Buffers `node` as retired at `stamp` (by an operation that began at
    /// `op_start`) and scans when the trigger is due.
    ///
    /// # Safety
    /// `node` must be removed, non-null and retired at most once — the
    /// `SmrHandle::retire` contract, forwarded by every scheme.
    // SAFETY: [INV-11] obligation stated in `# Safety` above; each scheme's
    // `retire` forwards its own trait contract here.
    pub(crate) unsafe fn retire<T, S, P>(
        &mut self,
        scheme: &S,
        prot: &mut P,
        node: Shared<T>,
        stamp: u64,
        op_start: u64,
    ) where
        T: Send + Sync,
        S: Scheme,
        P: Protection<S>,
    {
        let shared = scheme.core();
        self.tele.bump(Counter::Retires);
        #[cfg(feature = "oracle")]
        self.ledger.retired(node.addr());
        // SAFETY: [INV-04] forwarded from this fn's own contract.
        let mut r = unsafe { shared.capture(node, stamp) };
        r.op_start = op_start;
        self.retired.push(r);
        if S::RECLAIMS && self.scan.due(self.retired.len()) {
            self.scan(scheme, prot);
        }
    }

    /// One reclamation scan: fence, snapshot, then partition the retired
    /// list into kept and freed. Allocation-free in steady state — the
    /// retired list swaps through the retained `scan_scratch` and the
    /// snapshot refills the scheme's own buffers.
    pub(crate) fn scan<S: Scheme, P: Protection<S>>(&mut self, scheme: &S, prot: &mut P) {
        self.tele.bump(Counter::Empties);
        if !S::RECLAIMS {
            return;
        }
        let shared = scheme.core();
        let scan_t0 = Instant::now();
        // Retirements about to be judged are ordered after any protection
        // announcement the snapshot will observe.
        fence(Ordering::SeqCst);
        prot.snapshot(scheme);
        // `pending` (last scan's scratch) becomes the drain source and the
        // emptied `retired` collects the keepers; `mem::take` leaves a
        // capacity-0 Vec, so nothing allocates.
        let mut pending = std::mem::take(&mut self.scan_scratch);
        debug_assert!(pending.is_empty());
        std::mem::swap(&mut pending, &mut *self.retired);
        let before = pending.len();
        let mut freed_bytes = 0usize;
        for r in pending.drain(..) {
            if prot.is_protected(&r) {
                self.retired.push(r);
            } else {
                self.tele.bump(Counter::Frees);
                freed_bytes += r.bytes() as usize;
                // SAFETY: [INV-05] the node is retired (unreachable) and the
                // scheme's snapshot, taken after the SeqCst fence above,
                // shows no announcement that admits a reference to it — each
                // scheme's `is_protected` carries its own argument.
                unsafe { r.reclaim() };
            }
        }
        self.scan_scratch = pending;
        let freed = before - self.retired.len();
        shared.tele.sub(freed, freed_bytes);
        self.scan.rearm(&shared.scan_policy, self.retired.len());
        self.tele.record_scan_elapsed(scan_t0);
        #[cfg(feature = "oracle")]
        if let Some(bound) = scheme.waste_bound() {
            crate::oracle::check_waste_bound(S::NAME, self.retired.len(), bound);
        }
    }

    /// Handle teardown, after the scheme withdrew its announcements (so the
    /// handle's own stale slots cannot pin its leftovers): a drain scan —
    /// with watermark-batched triggers a short-lived handle may never have
    /// reached its threshold, and without this its whole list would park as
    /// orphans, unbounded under handle churn — then the tid and whatever
    /// the scan kept go back to the registry. The thread's pool magazine
    /// stays warm: it goes home when the thread exits, not with a handle.
    pub(crate) fn release<S: Scheme, P: Protection<S>>(&mut self, scheme: &S, prot: &mut P) {
        self.scan(scheme, prot);
        scheme.core().registry.release(self.tid, std::mem::take(&mut *self.retired));
    }

    /// Current length of the retired list.
    #[inline]
    pub(crate) fn retired_len(&self) -> usize {
        self.retired.len()
    }

    /// The retired list itself, for tests that look for a specific node.
    #[cfg(test)]
    pub(crate) fn retired(&self) -> &[Retired] {
        &self.retired
    }
}

/// The two `Smr` accessors every scheme answers from its embedded core;
/// invoke inside the scheme's `impl Smr` block.
macro_rules! smr_core_accessors {
    () => {
        fn name() -> &'static str {
            <Self as $crate::schemes::core::Scheme>::NAME
        }

        fn telemetry(&self) -> &$crate::telemetry::SchemeTelemetry {
            &self.core.tele
        }
    };
}
pub(crate) use smr_core_accessors;

/// `Telemetry` for a handle type, answered from its embedded core.
macro_rules! impl_handle_telemetry {
    ($handle:ty) => {
        impl $crate::telemetry::Telemetry for $handle {
            fn tele(&self) -> &$crate::telemetry::HandleTelemetry {
                &self.core.tele
            }

            fn tele_mut(&mut self) -> &mut $crate::telemetry::HandleTelemetry {
                &mut self.core.tele
            }
        }
    };
}
pub(crate) use impl_handle_telemetry;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::Telemetry;

    /// Everything a scheme must write for the skeleton: here the protected
    /// set is a list of addresses the test edits.
    struct Fake {
        core: SchemeCore,
    }

    impl Scheme for Fake {
        const NAME: &'static str = "FAKE";

        fn core(&self) -> &SchemeCore {
            &self.core
        }
    }

    struct Pinned(Vec<u64>);

    impl Protection<Fake> for Pinned {
        fn snapshot(&mut self, _: &Fake) {}

        fn is_protected(&self, r: &Retired) -> bool {
            self.0.contains(&r.addr())
        }
    }

    struct Handle {
        core: HandleCore,
    }
    impl_handle_telemetry!(Handle);

    fn fake(cfg: Config) -> Fake {
        Fake { core: SchemeCore::try_new(Config { max_threads: 2, ..cfg }).unwrap() }
    }

    fn register(s: &Fake) -> Handle {
        Handle { core: s.core.try_register().unwrap() }
    }

    /// Allocates and retires one node; returns its address.
    fn retire(h: &mut Handle, s: &Fake, pinned: &mut Pinned) -> u64 {
        retire_if(h, s, pinned, false)
    }

    /// As [`retire`], pinning the node first when `pin` is set.
    fn retire_if(h: &mut Handle, s: &Fake, pinned: &mut Pinned, pin: bool) -> u64 {
        let node = h.core.alloc::<Fake, _>(0u64, 0, 0, 0);
        if pin {
            pinned.0.push(node.addr());
        }
        // SAFETY: [INV-12] never published, retired once.
        unsafe { h.core.retire(s, pinned, node, 0, 0) };
        node.addr()
    }

    /// No trigger fires on its own: scans happen where the test asks.
    fn manual() -> Config {
        Config { empty_freq: 1 << 20, ..Config::default() }
    }

    #[test]
    fn scan_partitions_exactly_and_the_second_scan_allocates_nothing() {
        let s = fake(manual());
        let (mut h, mut pinned) = (register(&s), Pinned(Vec::new()));
        let addrs: Vec<u64> = (0..8).map(|_| retire(&mut h, &s, &mut pinned)).collect();
        pinned.0 = vec![addrs[1], addrs[4], addrs[6]];
        h.core.scan(&s, &mut pinned);
        let kept: Vec<u64> = h.core.retired().iter().map(|r| r.addr()).collect();
        assert_eq!(kept, pinned.0, "exactly the protected nodes survive, in order");
        assert_eq!(h.snapshot().frees(), 5);
        assert_eq!(s.core.tele.pending(), 3);

        for _ in 0..5 {
            retire(&mut h, &s, &mut pinned);
        }
        // The scan swaps the retired list through its scratch buffer, so
        // the two capacities only trade places; a sum that grew means the
        // scan allocated.
        let capacity = |h: &Handle| h.core.retired.capacity() + h.core.scan_scratch.capacity();
        let warm = capacity(&h);
        h.core.scan(&s, &mut pinned);
        assert_eq!(capacity(&h), warm, "steady-state scan grew a buffer");
        assert_eq!(h.core.retired_len(), 3);
        pinned.0.clear();
        h.core.release(&s, &mut pinned);
        assert_eq!(s.core.tele.pending(), 0);
    }

    #[test]
    fn gauge_is_exact_across_retire_scan_drop_park_adopt_and_free() {
        let s = fake(manual());
        let (mut h, mut pinned) = (register(&s), Pinned(Vec::new()));
        let a = retire(&mut h, &s, &mut pinned);
        let node_bytes = s.core.tele.pending_bytes();
        // The gauge counts the pool block a node holds: a header + `u64`
        // (24 bytes, 32 with the oracle's canary) is its own 8-byte class.
        let node_size = size_of::<crate::node::SmrNode<u64>>();
        assert_eq!(node_bytes, node_size.next_multiple_of(mp_util::pool::CLASS_GRANULE));
        let b = retire(&mut h, &s, &mut pinned);
        retire(&mut h, &s, &mut pinned);
        assert_eq!((s.core.tele.pending(), s.core.tele.pending_bytes()), (3, 3 * node_bytes));

        pinned.0 = vec![a, b];
        h.core.scan(&s, &mut pinned);
        assert_eq!((s.core.tele.pending(), s.core.tele.pending_bytes()), (2, 2 * node_bytes));

        // Drop parks only what the drain scan kept.
        pinned.0 = vec![b];
        h.core.release(&s, &mut pinned);
        assert_eq!(s.core.registry.orphan_count(), 1);
        assert_eq!((s.core.tele.pending(), s.core.tele.pending_bytes()), (1, node_bytes));

        // The next handle adopts the orphan without moving the gauge…
        let mut h2 = register(&s);
        assert_eq!(h2.snapshot().tid_recycles(), 1, "tid 0 came back");
        assert_eq!((s.core.registry.orphan_count(), h2.core.retired_len()), (0, 1));
        assert_eq!((s.core.tele.pending(), s.core.tele.pending_bytes()), (1, node_bytes));
        // …and frees it once nothing pins it.
        pinned.0.clear();
        h2.core.scan(&s, &mut pinned);
        assert_eq!((s.core.tele.pending(), s.core.tele.pending_bytes()), (0, 0));
        h2.core.release(&s, &mut pinned);
    }

    #[test]
    fn an_all_kept_scan_rearms_at_kept_plus_empty_freq() {
        let s = fake(Config { slots_per_thread: 1, empty_freq: 3, ..Config::default() });
        let (mut h, mut pinned) = (register(&s), Pinned(Vec::new()));
        let scans_after: Vec<u64> = (0..10)
            .map(|_| {
                retire_if(&mut h, &s, &mut pinned, true);
                h.snapshot().empties()
            })
            .collect();
        // The watermark max(3, 2·2·1) = 4 fires on the 4th retire and keeps
        // all four; the trigger re-arms at kept + 3 = 7, then 7 + 3 = 10:
        // three scans in ten retires, not seven.
        assert_eq!(scans_after, [0, 0, 0, 1, 1, 1, 2, 2, 2, 3]);
        pinned.0.clear();
        h.core.release(&s, &mut pinned);
    }
}
