//! Vector-clock happens-before tracker (driven by mp-smr's `hb-oracle`).
//!
//! The substrate of `mp-smr`'s happens-before oracle: a process-global
//! ledger of the synchronization edges the SMR protocol *claims* exist —
//! SeqCst fences (which join through a shared clock, modelling their total
//! order) and protection records stamped with the announcing thread's
//! clock — against which the oracle checks that every dereference of a
//! retired node and (where a scheme's validation protocol makes the check
//! exact) every free is justified by a tracked happens-before path.
//!
//! Everything here is plain bookkeeping behind one mutex: the tracker
//! never touches atomics itself, so it cannot mask the very orderings it
//! audits — a hook call serializes on the lock *after* the instrumented
//! synchronization action has retired. Lock-order skew can therefore only
//! *weaken* the tracked happens-before relation (two racing hooks serialize
//! in some order, but no edge is invented that the real execution lacked),
//! which biases every check toward false negatives, never false positives.
//!
//! Check methods return [`HbViolation`] instead of panicking so the caller
//! can release the lock, attach scheme/seed context, and panic outside the
//! tracker — a poisoned mutex would otherwise cascade into every later
//! test in the process.

use std::collections::{HashMap, HashSet};
use std::sync::{Mutex, PoisonError};

/// A grow-on-demand vector clock. Component `t` counts the events of
/// tracker thread `t`; missing components read as zero.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VClock(Vec<u64>);

impl VClock {
    /// The zero clock (happens-before everything).
    pub fn new() -> Self {
        VClock(Vec::new())
    }

    /// Component `tid`, zero when never ticked.
    pub fn get(&self, tid: usize) -> u64 {
        self.0.get(tid).copied().unwrap_or(0)
    }

    /// Advances this thread's own component by one event.
    pub fn tick(&mut self, tid: usize) {
        if self.0.len() <= tid {
            self.0.resize(tid + 1, 0);
        }
        self.0[tid] += 1;
    }

    /// Componentwise maximum: afterwards `self` dominates both inputs.
    pub fn join(&mut self, other: &VClock) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (s, o) in self.0.iter_mut().zip(&other.0) {
            *s = (*s).max(*o);
        }
    }

    /// Componentwise `self ≤ other` (the happens-before partial order).
    pub fn le(&self, other: &VClock) -> bool {
        self.0.iter().enumerate().all(|(t, &v)| v <= other.get(t))
    }

    /// True when the event this clock stamps (an event of thread `owner`,
    /// whose component was ticked at the event) happens-before the point
    /// observed by `other`. This is the exact single-component test: an
    /// event is in `other`'s past iff `other` has absorbed the owner's
    /// component up to the event's stamp.
    pub fn event_before(&self, owner: usize, other: &VClock) -> bool {
        self.get(owner) <= other.get(owner)
    }
}

/// A happens-before check failure, reported to the caller for contextual
/// panicking (scheme name, replay seed) outside the tracker lock.
#[derive(Debug)]
pub struct HbViolation {
    /// Violation class, e.g. `"hb-unjustified deref"`.
    pub what: &'static str,
    /// Node address involved.
    pub addr: u64,
    /// Human-readable diagnosis naming the missing edge.
    pub detail: String,
}

/// One protection claim: thread `tid` announced protection of a node and
/// validated the announcement, at clock `clock` (ticked at the event).
#[derive(Clone, Debug)]
struct Record {
    tid: usize,
    /// Slot-keyed records (hazard pointers) are evicted when the slot is
    /// re-announced or cleared; `None` records (margins, eras) persist
    /// until the policy's op/handle boundary.
    slot: Option<usize>,
    /// Allocation-ownership record (the allocating thread may always
    /// dereference its own not-yet-published node).
    owned: bool,
    clock: VClock,
}

#[derive(Default)]
struct Inner {
    /// Per-thread clocks, indexed by tracker tid.
    clocks: Vec<VClock>,
    /// The SeqCst-fence join clock: every tracked fence merges through it,
    /// modelling the single total order of SeqCst fences.
    sc: VClock,
    /// Addresses currently retired (and not yet freed).
    retired: HashSet<u64>,
    /// Live protection records per node address.
    records: HashMap<u64, Vec<Record>>,
    /// Per-thread index of addresses carrying a non-owned record by that
    /// thread, so op boundaries drop a thread's claims without scanning
    /// the whole ledger.
    by_tid: HashMap<usize, HashSet<u64>>,
    /// Per-thread index of addresses carrying an ownership record.
    owned_by_tid: HashMap<usize, HashSet<u64>>,
    /// Slot index: which address a `(tid, slot)`-keyed record protects.
    by_slot: HashMap<(usize, usize), u64>,
    /// Tracker tids of exited threads, recycled by `register_thread` so
    /// clock widths stay bounded by the peak live-thread count.
    free_tids: Vec<usize>,
    /// Per-thread operation state (set by `begin_op`/`end_op`).
    in_op: Vec<bool>,
    /// Blanket protection (epoch schemes): any in-op deref is justified.
    blanket: Vec<bool>,
    /// Whether the thread's current policy scopes records to one operation.
    op_scoped: Vec<bool>,
}

impl Inner {
    /// Drops `tid`'s non-owned protection records (op boundaries and
    /// teardown); with `including_owned`, its allocation-ownership records
    /// too (handle/thread teardown only — ownership is not op-scoped).
    fn drop_thread_records(&mut self, tid: usize, including_owned: bool) {
        if let Some(addrs) = self.by_tid.remove(&tid) {
            for addr in addrs {
                if let Some(v) = self.records.get_mut(&addr) {
                    v.retain(|r| r.owned || r.tid != tid);
                    if v.is_empty() {
                        self.records.remove(&addr);
                    }
                }
            }
        }
        if including_owned {
            if let Some(addrs) = self.owned_by_tid.remove(&tid) {
                for addr in addrs {
                    if let Some(v) = self.records.get_mut(&addr) {
                        v.retain(|r| !(r.owned && r.tid == tid));
                        if v.is_empty() {
                            self.records.remove(&addr);
                        }
                    }
                }
            }
        }
        self.by_slot.retain(|&(t, _), _| t != tid);
    }

    /// Removes every record on `addr`, fixing the per-thread and slot
    /// indexes; returns the removed records.
    fn purge_addr(&mut self, addr: u64) -> Option<Vec<Record>> {
        let recs = self.records.remove(&addr)?;
        for r in &recs {
            let index = if r.owned { &mut self.owned_by_tid } else { &mut self.by_tid };
            if let Some(set) = index.get_mut(&r.tid) {
                set.remove(&addr);
                if set.is_empty() {
                    index.remove(&r.tid);
                }
            }
            if let Some(s) = r.slot {
                if self.by_slot.get(&(r.tid, s)) == Some(&addr) {
                    self.by_slot.remove(&(r.tid, s));
                }
            }
        }
        Some(recs)
    }

    /// Unindexes `(tid, addr)` from the non-owned index if the thread's
    /// last non-owned record on the address is gone.
    fn unindex_if_last(&mut self, tid: usize, addr: u64) {
        let still =
            self.records.get(&addr).is_some_and(|v| v.iter().any(|r| r.tid == tid && !r.owned));
        if !still {
            if let Some(set) = self.by_tid.get_mut(&tid) {
                set.remove(&addr);
                if set.is_empty() {
                    self.by_tid.remove(&tid);
                }
            }
        }
    }
}

/// The happens-before tracker. One instance audits one process; all
/// methods are `&self` and serialize on an internal mutex.
#[derive(Default)]
pub struct HbTracker {
    inner: Mutex<Inner>,
}

impl HbTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A violation panics *outside* the lock, but a client panic while a
        // hook is on the stack could still poison; the ledger stays
        // internally consistent, so keep going.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers the calling thread; returns its tracker tid. Tids of
    /// exited threads (see [`release_thread`](Self::release_thread)) are
    /// recycled, and a recycled slot keeps its clock. That inheritance is
    /// itself a real edge — the dead thread's exit and the heir's
    /// registration serialize on the tracker lock — so the heir's view
    /// covers only events genuinely ordered before it, and monotonic
    /// component ticks guarantee it can never cover an event ticked after
    /// the reuse. (Tests that stage a *missing* edge must pin their
    /// observer's registration before the offending thread exits, or the
    /// observer may inherit the offender's clock.)
    pub fn register_thread(&self) -> usize {
        let mut g = self.lock();
        if let Some(tid) = g.free_tids.pop() {
            g.in_op[tid] = false;
            g.blanket[tid] = true;
            g.op_scoped[tid] = false;
            return tid;
        }
        let tid = g.clocks.len();
        g.clocks.push(VClock::new());
        g.in_op.push(false);
        g.blanket.push(true);
        g.op_scoped.push(false);
        tid
    }

    /// Unregisters an exiting thread: every claim it holds dies (its
    /// announcement rows are gone) and its tid slot is recycled, keeping
    /// clock widths bounded by the peak live-thread count rather than the
    /// total number of threads the process ever spawned.
    pub fn release_thread(&self, tid: usize) {
        let g = &mut *self.lock();
        g.drop_thread_records(tid, true);
        g.in_op[tid] = false;
        g.free_tids.push(tid);
    }

    /// Records a SeqCst fence by `tid`: the thread's clock and the shared
    /// fence clock join, so any two tracked fences are ordered one way or
    /// the other — the edge every scan/announce pairing relies on.
    pub fn fence_sc(&self, tid: usize) {
        let g = &mut *self.lock();
        g.clocks[tid].tick(tid);
        g.sc.join(&g.clocks[tid]);
        g.clocks[tid].join(&g.sc);
    }

    /// Marks `tid` as inside an operation under the given record policy.
    pub fn begin_op(&self, tid: usize, blanket: bool, op_scoped: bool) {
        let g = &mut *self.lock();
        if op_scoped {
            g.drop_thread_records(tid, false);
        }
        g.in_op[tid] = true;
        g.blanket[tid] = blanket;
        g.op_scoped[tid] = op_scoped;
        g.clocks[tid].tick(tid);
    }

    /// Marks `tid` as outside any operation; op-scoped records die here.
    pub fn end_op(&self, tid: usize) {
        let g = &mut *self.lock();
        if g.op_scoped[tid] {
            g.drop_thread_records(tid, false);
        }
        g.in_op[tid] = false;
    }

    /// Drops every record of `tid` (handle teardown: its announcement rows
    /// are cleared, so its claims must not outlive them).
    pub fn clear_thread(&self, tid: usize) {
        let g = &mut *self.lock();
        g.drop_thread_records(tid, true);
        g.in_op[tid] = false;
    }

    /// Records a validated protection of `addr` by `tid`. A `Some(slot)`
    /// key models single-address protection (hazard pointers): it evicts
    /// the slot's previous record, since re-announcing the slot withdraws
    /// the old claim. `None` models interval/era protection, where one
    /// announcement covers many nodes and nothing is evicted.
    pub fn protect(&self, tid: usize, slot: Option<usize>, addr: u64) {
        let g = &mut *self.lock();
        g.clocks[tid].tick(tid);
        let clock = g.clocks[tid].clone();
        if let Some(s) = slot {
            if let Some(old) = g.by_slot.insert((tid, s), addr) {
                if old != addr {
                    if let Some(v) = g.records.get_mut(&old) {
                        v.retain(|r| !(r.tid == tid && r.slot == Some(s)));
                        if v.is_empty() {
                            g.records.remove(&old);
                        }
                    }
                    g.unindex_if_last(tid, old);
                }
            }
        }
        let recs = g.records.entry(addr).or_default();
        if let Some(r) = recs.iter_mut().find(|r| r.tid == tid && r.slot == slot && !r.owned) {
            r.clock = clock;
        } else {
            recs.push(Record { tid, slot, owned: false, clock });
        }
        g.by_tid.entry(tid).or_default().insert(addr);
    }

    /// Withdraws the `(tid, slot)` protection record, if any.
    pub fn unprotect(&self, tid: usize, slot: usize) {
        let g = &mut *self.lock();
        if let Some(addr) = g.by_slot.remove(&(tid, slot)) {
            if let Some(v) = g.records.get_mut(&addr) {
                v.retain(|r| !(r.tid == tid && r.slot == Some(slot)));
                if v.is_empty() {
                    g.records.remove(&addr);
                }
            }
            g.unindex_if_last(tid, addr);
        }
    }

    /// Records an allocation: any stale state for a recycled address dies,
    /// and the allocating thread gains an ownership record.
    pub fn on_alloc(&self, tid: usize, addr: u64) {
        let g = &mut *self.lock();
        g.retired.remove(&addr);
        g.purge_addr(addr);
        g.clocks[tid].tick(tid);
        let clock = g.clocks[tid].clone();
        g.records.entry(addr).or_default().push(Record { tid, slot: None, owned: true, clock });
        g.owned_by_tid.entry(tid).or_default().insert(addr);
    }

    /// Records a retire by `tid`: the node leaves the retiring thread's
    /// ownership and enters the retired set the deref check consults.
    pub fn on_retire(&self, tid: usize, addr: u64) {
        let g = &mut *self.lock();
        if let Some(v) = g.records.get_mut(&addr) {
            v.retain(|r| !(r.owned && r.tid == tid));
            if v.is_empty() {
                g.records.remove(&addr);
            }
        }
        if let Some(set) = g.owned_by_tid.get_mut(&tid) {
            set.remove(&addr);
            if set.is_empty() {
                g.owned_by_tid.remove(&tid);
            }
        }
        g.retired.insert(addr);
    }

    /// Records a free by `tid` and retires all state for `addr`. With
    /// `check` set, fails if another thread holds a non-owned protection
    /// record whose creation happens-before this free: the freeing scan's
    /// snapshot was then *entitled* (by the tracked fence edges) to see the
    /// announcement, so freeing past it means the scan's judgement — not
    /// thread timing — is wrong. Only enable `check` for schemes whose
    /// protect hook fires strictly after a validated announce fence (HP),
    /// where that entailment is exact.
    pub fn on_free(&self, tid: usize, addr: u64, check: bool) -> Result<(), HbViolation> {
        let g = &mut *self.lock();
        g.retired.remove(&addr);
        let recs = g.purge_addr(addr);
        if !check {
            return Ok(());
        }
        let free_view = &g.clocks[tid];
        if let Some(recs) = recs {
            for r in recs {
                if !r.owned && r.tid != tid && r.clock.event_before(r.tid, free_view) {
                    return Err(HbViolation {
                        what: "free under live protection",
                        addr,
                        detail: format!(
                            "thread {} holds a validated protection record whose \
                             announcement happens-before this free (record stamp {} \
                             ≤ freeing thread's view {}), so the reclamation scan \
                             must have observed the announcement and kept the node",
                            r.tid,
                            r.clock.get(r.tid),
                            free_view.get(r.tid),
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    /// Checks a dereference of `addr` by `tid`: inside an operation, a
    /// retired node may be dereferenced only under blanket (epoch)
    /// protection or a live protection/ownership record of this thread.
    pub fn deref_check(&self, tid: usize, addr: u64) -> Result<(), HbViolation> {
        let g = &*self.lock();
        if !g.in_op[tid] || !g.retired.contains(&addr) || g.blanket[tid] {
            return Ok(());
        }
        let justified =
            g.records.get(&addr).is_some_and(|v| v.iter().any(|r| r.tid == tid));
        if justified {
            return Ok(());
        }
        Err(HbViolation {
            what: "hb-unjustified deref",
            addr,
            detail: "dereference of a retired node with no validated protection \
                     record on this thread — no tracked happens-before edge orders \
                     the node's retirement after a protection this thread announced"
                .to_string(),
        })
    }

    /// Test/introspection: number of live protection records on `addr`.
    pub fn record_count(&self, addr: u64) -> usize {
        self.lock().records.get(&addr).map_or(0, Vec::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_tick_join_le() {
        let mut a = VClock::new();
        let mut b = VClock::new();
        a.tick(0);
        a.tick(0);
        b.tick(1);
        assert!(!a.le(&b));
        assert!(!b.le(&a));
        let mut j = a.clone();
        j.join(&b);
        assert!(a.le(&j));
        assert!(b.le(&j));
        assert_eq!(j.get(0), 2);
        assert_eq!(j.get(1), 1);
        assert!(VClock::new().le(&a), "zero clock precedes everything");
    }

    #[test]
    fn event_before_is_the_single_component_test() {
        let mut a = VClock::new();
        a.tick(3);
        let mut seen = VClock::new();
        assert!(!a.event_before(3, &seen));
        seen.join(&a);
        assert!(a.event_before(3, &seen));
    }

    #[test]
    fn fences_order_threads_through_the_sc_clock() {
        let t = HbTracker::new();
        let a = t.register_thread();
        let b = t.register_thread();
        t.fence_sc(a);
        t.fence_sc(b);
        let g = t.lock();
        assert!(g.clocks[a].le(&g.clocks[b]), "later fence absorbs the earlier one");
    }

    #[test]
    fn hb_ordered_free_under_live_record_is_flagged() {
        let t = HbTracker::new();
        let reader = t.register_thread();
        let scanner = t.register_thread();
        t.begin_op(reader, false, true);
        t.protect(reader, Some(0), 0xabc);
        t.fence_sc(reader); // protect published before...
        t.fence_sc(scanner); // ...the scan's fence: record is in the scan's past
        let err = t.on_free(scanner, 0xabc, true).expect_err("must flag");
        assert!(err.detail.contains("happens-before this free"), "{}", err.detail);
    }

    #[test]
    fn unordered_or_withdrawn_records_do_not_flag_a_free() {
        let t = HbTracker::new();
        let reader = t.register_thread();
        let scanner = t.register_thread();
        // Record not ordered before the free: scanner never absorbed it.
        t.begin_op(reader, false, true);
        t.protect(reader, Some(0), 0xdef);
        assert!(t.on_free(scanner, 0xdef, true).is_ok());
        // Withdrawn by unprotect: no record survives to flag.
        t.protect(reader, Some(1), 0x123);
        t.fence_sc(reader);
        t.fence_sc(scanner);
        t.unprotect(reader, 1);
        assert!(t.on_free(scanner, 0x123, true).is_ok());
        // Slot reuse evicts the old record the same way.
        t.protect(reader, Some(2), 0x456);
        t.fence_sc(reader);
        t.protect(reader, Some(2), 0x789);
        t.fence_sc(scanner);
        assert!(t.on_free(scanner, 0x456, true).is_ok());
        assert_eq!(t.record_count(0x789), 1);
    }

    #[test]
    fn deref_check_requires_a_record_only_for_retired_nodes_in_op() {
        let t = HbTracker::new();
        let reader = t.register_thread();
        let writer = t.register_thread();
        t.on_alloc(writer, 0x1000);
        t.begin_op(reader, false, true);
        assert!(t.deref_check(reader, 0x1000).is_ok(), "live node needs no record");
        t.on_retire(writer, 0x1000);
        assert!(t.deref_check(reader, 0x1000).is_err(), "retired + no record");
        t.protect(reader, Some(0), 0x1000);
        assert!(t.deref_check(reader, 0x1000).is_ok(), "record justifies");
        t.end_op(reader);
        assert!(t.deref_check(reader, 0x1000).is_ok(), "outside an op: not checked");
        t.begin_op(reader, false, true);
        assert!(t.deref_check(reader, 0x1000).is_err(), "op-scoped record died");
        t.begin_op(reader, true, true);
        assert!(t.deref_check(reader, 0x1000).is_ok(), "blanket protection");
    }

    #[test]
    fn owner_may_deref_until_retire_and_alloc_resets_recycled_state() {
        let t = HbTracker::new();
        let owner = t.register_thread();
        t.begin_op(owner, false, false);
        t.on_alloc(owner, 0x2000);
        assert!(t.deref_check(owner, 0x2000).is_ok());
        t.on_retire(owner, 0x2000);
        assert!(t.deref_check(owner, 0x2000).is_err(), "ownership ends at retire");
        assert!(t.on_free(owner, 0x2000, true).is_ok(), "own records never flag");
        // Address recycled: the fresh incarnation starts clean.
        t.on_alloc(owner, 0x2000);
        assert!(t.deref_check(owner, 0x2000).is_ok());
    }

    #[test]
    fn released_tids_are_recycled_and_inherit_no_usable_edges() {
        let t = HbTracker::new();
        let a = t.register_thread();
        let b = t.register_thread();
        t.fence_sc(a);
        t.begin_op(a, false, true);
        t.protect(a, Some(0), 0x42);
        t.release_thread(a);
        let heir = t.register_thread();
        assert_eq!(heir, a, "exited tid is recycled");
        assert_eq!(t.record_count(0x42), 0, "claims die with the thread");
        // The heir's inherited clock cannot cover a post-reuse event: the
        // fresh protect below ticks past anything thread `a` ever absorbed.
        t.begin_op(b, false, true);
        t.protect(b, Some(0), 0x99);
        assert!(t.on_free(heir, 0x99, true).is_ok(), "no inherited edge to a fresh event");
        assert_eq!(t.register_thread(), 2, "free list drained, new tids grow again");
    }

    #[test]
    fn ownership_survives_op_boundaries_but_not_thread_exit() {
        let t = HbTracker::new();
        let owner = t.register_thread();
        let other = t.register_thread();
        t.begin_op(owner, false, true); // op-scoped policy
        t.on_alloc(owner, 0x5000);
        t.end_op(owner);
        t.begin_op(owner, false, true);
        t.on_retire(other, 0x5000); // foreign retire leaves the owner's record
        assert!(t.deref_check(owner, 0x5000).is_ok(), "ownership is not op-scoped");
        t.release_thread(owner);
        let heir = t.register_thread();
        assert_eq!(heir, owner);
        t.begin_op(heir, false, true);
        assert!(t.deref_check(heir, 0x5000).is_err(), "heir does not inherit ownership");
    }

    #[test]
    fn persistent_records_survive_op_boundaries_when_not_op_scoped() {
        let t = HbTracker::new();
        let reader = t.register_thread();
        let writer = t.register_thread();
        t.on_alloc(writer, 0x3000);
        t.begin_op(reader, false, false); // margin/era policy
        t.protect(reader, None, 0x3000);
        t.on_retire(writer, 0x3000);
        t.end_op(reader);
        t.begin_op(reader, false, false);
        assert!(t.deref_check(reader, 0x3000).is_ok(), "standing announcement persists");
        t.clear_thread(reader);
        t.begin_op(reader, false, false);
        assert!(t.deref_check(reader, 0x3000).is_err(), "handle teardown drops claims");
    }
}
