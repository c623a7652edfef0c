//! Michael's list specialized for Drop-the-Anchor (paper §3.1, Figure 4/6).
//!
//! DTA is the only scheme in the paper's comparison whose protection is
//! co-designed with the data structure: the traversal posts an *anchor*
//! every `k` hops (instead of a hazard fence per node), and a stalled
//! thread is neutralized by *freezing* the `k`-node neighborhood of its
//! anchor — setting a freeze bit on each node's `next` pointer (rendering
//! the segment immutable), splicing fresh copies of the live keys into the
//! list, and pinning the frozen originals forever.
//!
//! The traversal protocol therefore differs from the generic list in two
//! ways: it posts anchors on the current predecessor at the configured
//! cadence, and it restarts from the head whenever it reads a frozen next
//! pointer (the frozen zone is being replaced; copies appear shortly).
//! Only a list freezing technique is known (§3.1), which is why the paper
//! evaluates DTA solely on the linked list — as do we.

use std::sync::Arc;
use std::sync::atomic::Ordering;

use mp_smr::schemes::{Dta, DtaHandle, Freezer};
use mp_smr::{Atomic, Shared, Smr, SmrHandle, Telemetry};

/// Deleted-bit on a node's `next` pointer.
const DELETED: u64 = 0b01;
/// Freeze-bit: the field is immutable; traversals must restart.
const FROZEN: u64 = 0b10;

/// DTA-list node payload.
pub struct Node {
    key: u64,
    next: Atomic<Node>,
}

/// Michael's list under Drop-the-Anchor reclamation.
pub struct DtaList {
    head: Shared<Node>,
    smr: Arc<Dta>,
}

// SAFETY: [INV-07] all node access goes through `Shared`/`Atomic` words under
// a DTA handle; the payload is plain `u64` keys.
unsafe impl Send for DtaList {}
// SAFETY: [INV-07] see above.
unsafe impl Sync for DtaList {}

struct Position {
    prev: Shared<Node>,
    curr: Shared<Node>,
    curr_key: u64,
}

/// The list-specific freezing procedure registered with the scheme.
struct ListFreezer {
    head: Shared<Node>,
    scheme: std::sync::Weak<Dta>,
}

// SAFETY: [INV-07] holds only an immortal sentinel word and a Weak scheme
// reference; all node access happens under the recovery lock.
unsafe impl Send for ListFreezer {}
// SAFETY: [INV-07] see above.
unsafe impl Sync for ListFreezer {}

impl Freezer for ListFreezer {
    // PROTECTION: caller — invoked by the stall classifier under the
    // recovery lock; the stalled thread's stamp pins every node walked here.
    fn freeze_from(&self, anchor_addr: u64, old_quota: usize, older_than: u64) -> Vec<u64> {
        let Some(scheme) = self.scheme.upgrade() else {
            return Vec::new();
        };
        // Phase 1 — freeze: set the FROZEN bit on next pointers starting at
        // the anchor, until `old_quota` nodes *born before the stalled
        // operation* are frozen. Nodes inserted behind the stalled thread
        // during its operation are frozen too but do not count — this is
        // what guarantees the zone covers the thread's position no matter
        // how many insertions landed between its anchor and itself (§3.1).
        // The anchor chain may include already-retired nodes; they are
        // pinned by the stalled thread's stamp (it has not been neutralized
        // yet) and no reclamation runs concurrently (the recovery lock is
        // held), so walking is safe.
        let mut frozen = Vec::with_capacity(old_quota);
        let mut node = Shared::<Node>::from_word(anchor_addr);
        let mut old_frozen = 0usize;
        while old_frozen < old_quota {
            if node.is_null() {
                break;
            }
            // SAFETY: [INV-01] pinned as argued above (or an immortal sentinel).
            let node_ref = unsafe { node.deref() }.data();
            if node.as_raw() == self.head.as_raw() {
                // Never freeze the head: it has no predecessor to splice a
                // replacement from, and being immortal it needs none. It
                // does not count toward the quota either — coverage must
                // extend a full cadence beyond it.
                node = node_ref.next.load(Ordering::Acquire).unmarked();
                continue;
            }
            if node_ref.key == u64::MAX {
                // Never freeze the tail (its null next must stay readable);
                // record it so a thread parked on it counts as covered.
                frozen.push(node.addr());
                break;
            }
            let prev_word = node_ref.next.fetch_or_mark(FROZEN, Ordering::AcqRel);
            frozen.push(node.addr());
            // SAFETY: [INV-01] pinned as `node_ref` is, above.
            if unsafe { node.birth() }.is_some_and(|birth| birth < older_than) {
                old_frozen += 1;
            }
            node = prev_word.unmarked();
        }
        if frozen.is_empty() {
            return frozen;
        }
        // Phase 2 — replace the reachable zone prefix with fresh copies.
        // The caller (the scheme's stall classifier) publishes `frozen`
        // into the frozen set before neutralizing the stalled thread.
        self.replace_reachable_segment(&scheme, &frozen);
        frozen
    }
}

impl ListFreezer {
    /// Finds the reachable prefix of the frozen zone, builds unfrozen copies
    /// of its live nodes, and swings the zone's predecessor to the copies.
    /// Deleted nodes encountered on the way are spliced (and parked) by the
    /// freezer itself, so the splice point always has a clean next field.
    ///
    /// The walking thread runs inside an active operation (`empty()` runs
    /// within one), so its EBR stamp pins every node retired from here on —
    /// plain loads are safe.
    // PROTECTION: caller — runs under the recovery lock inside an active
    // operation; the walker's EBR stamp pins every node retired from here on.
    fn replace_reachable_segment(&self, scheme: &Arc<Dta>, frozen: &[u64]) {
        let in_zone = |s: Shared<Node>| frozen.contains(&(s.addr()));
        'retry: loop {
            let mut prev = self.head;
            loop {
                // SAFETY: [INV-01] prev is the head or a node reached via clean edges.
                let prev_field = &unsafe { prev.deref() }.data().next;
                let w = prev_field.load(Ordering::Acquire);
                if w.mark() != 0 {
                    // prev got deleted or frozen under us; restart.
                    continue 'retry;
                }
                let c = w.unmarked();
                if c.is_null() {
                    return; // zone not reachable: nothing to replace
                }
                if in_zone(c) {
                    // prev → c enters the zone. Collect the reachable
                    // segment and its live keys (zone fields are immutable).
                    let mut seg: Vec<Shared<Node>> = Vec::new();
                    let mut live: Vec<u64> = Vec::new();
                    let mut n = c;
                    let after_zone = loop {
                        if n.is_null() || !in_zone(n) {
                            break n;
                        }
                        // SAFETY: [INV-01] zone nodes are pinned and immutable.
                        let n_ref = unsafe { n.deref() }.data();
                        if n_ref.key == u64::MAX {
                            break n; // tail recorded in zone, never frozen
                        }
                        let nw = n_ref.next.load(Ordering::Acquire);
                        if nw.mark() & DELETED == 0 {
                            live.push(n_ref.key);
                        }
                        seg.push(n);
                        n = nw.unmarked();
                    };
                    if seg.is_empty() {
                        return;
                    }
                    // Build the copy chain (tail-first), ending at the zone
                    // exit.
                    let mut chain = after_zone;
                    for &k in live.iter().rev() {
                        let copy = mp_smr::node::alloc_bare(Node {
                            key: k,
                            next: Atomic::new(chain),
                        });
                        chain = Shared::pack(copy, 0);
                    }
                    if prev_field
                        .compare_exchange(w, chain, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        // The originals are now unlinked. Nobody else can
                        // have retired them (splicing inside a frozen zone
                        // is impossible), so we own their reclamation.
                        for s in seg {
                            // SAFETY: [INV-04] unlinked by our CAS, never
                            // retired, and in the frozen set.
                            unsafe { scheme.park_frozen(s) };
                        }
                        return;
                    }
                    // Interference: discard unpublished copies and retry.
                    let mut cc = chain;
                    while cc.as_raw() != after_zone.as_raw() && !cc.is_null() {
                        // SAFETY: [INV-03] copies were never published.
                        let cc_node = unsafe { cc.deref() }.data();
                        // ORDERING: reason = owned-store — the copy chain was
                        // never published, so no other thread can observe it.
                        let nx = cc_node.next.load(Ordering::Relaxed);
                        // SAFETY: [INV-03] never published; freed once here.
                        unsafe { cc.drop_owned() };
                        cc = nx;
                    }
                    continue 'retry;
                }
                // SAFETY: [INV-01] c reachable via a clean edge; pinned once retired.
                let c_ref = unsafe { c.deref() }.data();
                let nw = c_ref.next.load(Ordering::Acquire);
                if nw.mark() & DELETED != 0 {
                    // c is logically deleted (and outside the zone): splice
                    // it ourselves so the eventual splice point is clean.
                    if prev_field
                        .compare_exchange(
                            w,
                            nw.unmarked(),
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_ok()
                    {
                        // We won the physical removal: its deleter's splice
                        // will fail and it will never retire — we own it.
                        // SAFETY: [INV-04] unlinked by our CAS, never retired.
                        unsafe { scheme.park_frozen(c) };
                        continue; // re-read prev_field
                    }
                    continue 'retry;
                }
                prev = c;
            }
        }
    }
}

impl DtaList {
    /// Creates an empty DTA list and registers its freezer with `smr`.
    pub fn new(smr: &Arc<Dta>) -> Self {
        let mut h = smr.register();
        let tail = h.alloc(Node { key: u64::MAX, next: Atomic::null() });
        let head = h.alloc(Node { key: 0, next: Atomic::new(tail) });
        drop(h);
        smr.set_freezer(Arc::new(ListFreezer { head, scheme: Arc::downgrade(smr) }));
        DtaList { head, smr: smr.clone() }
    }

    /// The traversal: Michael's seek + anchor cadence + frozen-zone restart.
    // PROTECTION: caller — seek runs inside the caller's start_op span;
    // derefs are covered by the posted-anchor contract (§3.1).
    fn seek(&self, h: &mut DtaHandle, key: u64) -> Position {
        let cadence = h.anchor_hops();
        let mut saw_frozen = false;
        'retry: loop {
            if saw_frozen {
                // We may have been neutralized (deemed stalled): our old
                // stamp no longer protects fresh traversals. Announce a new
                // stamp — we hold no references across the restart.
                h.refresh_op();
                saw_frozen = false;
            }
            let mut hops = 0usize;
            let mut prev = self.head;
            // Anchor the operation start at the head: a stall anywhere in
            // the first `cadence` hops is covered by the head's zone.
            h.post_anchor(prev.addr());
            // SAFETY: [INV-01] head sentinel, never retired.
            let mut curr = h.read(unsafe { &prev.deref().data().next }, 0);
            loop {
                if curr.mark() & FROZEN != 0 {
                    saw_frozen = true;
                    continue 'retry; // zone under replacement: restart
                }
                let curr_clean = curr.unmarked();
                debug_assert!(!curr_clean.is_null());
                h.record_node_traversed();
                // SAFETY: [INV-01] within `cadence` hops of our posted anchor,
                // or reached via validated unmarked edges — DTA's contract.
                let curr_node = unsafe { curr_clean.deref() }.data();
                let next = h.read(&curr_node.next, 0);
                if next.mark() & FROZEN != 0 {
                    saw_frozen = true;
                    continue 'retry;
                }
                if next.mark() & DELETED != 0 {
                    // splice out the deleted node
                    // SAFETY: [INV-01] prev protected by the anchor contract.
                    let prev_node = unsafe { prev.deref() }.data();
                    if prev_node
                        .next
                        .compare_exchange(
                            curr_clean,
                            next.unmarked(),
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_err()
                    {
                        continue 'retry;
                    }
                    // SAFETY: [INV-04] the winning splice uniquely retires it.
                    unsafe { h.retire(curr_clean) };
                    curr = next.unmarked();
                    continue;
                }
                if curr_node.key >= key {
                    return Position { prev, curr: curr_clean, curr_key: curr_node.key };
                }
                prev = curr_clean;
                curr = next;
                hops += 1;
                if hops.is_multiple_of(cadence) {
                    // Post the anchor on the predecessor: every reference we
                    // hold until the next post lies within `cadence` hops.
                    h.post_anchor(prev.addr());
                    // Validate prev is still linked & unfrozen: its next
                    // field must not have gained a freeze bit.
                    // SAFETY: [INV-01] prev covered by the anchor just posted.
                    let check = unsafe { prev.deref() }.data().next.load(Ordering::Acquire);
                    if check.mark() & FROZEN != 0 {
                        saw_frozen = true;
                        continue 'retry;
                    }
                }
            }
        }
    }

    /// Adds `key`; returns `false` if present.
    pub fn insert(&self, h: &mut DtaHandle, key: u64) -> bool {
        assert!(key < u64::MAX);
        h.start_op();
        loop {
            let pos = self.seek(h, key);
            if pos.curr_key == key {
                h.end_op();
                return false;
            }
            let new = h.alloc(Node { key, next: Atomic::new(pos.curr) });
            // SAFETY: [INV-01] prev covered by the anchor contract.
            let prev_node = unsafe { pos.prev.deref() }.data();
            match prev_node.next.compare_exchange(
                pos.curr,
                new,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    h.end_op();
                    return true;
                }
                // SAFETY: [INV-03] CAS failed: never published, still ours.
                Err(_) => unsafe { new.drop_owned() },
            }
        }
    }

    /// Removes `key`; returns `false` if absent.
    pub fn remove(&self, h: &mut DtaHandle, key: u64) -> bool {
        h.start_op();
        loop {
            let pos = self.seek(h, key);
            if pos.curr_key != key {
                h.end_op();
                return false;
            }
            // SAFETY: [INV-01] curr covered by the anchor contract.
            let curr_node = unsafe { pos.curr.deref() }.data();
            let next = h.read(&curr_node.next, 0);
            if next.mark() != 0 {
                continue; // frozen or concurrently deleted; re-seek decides
            }
            if curr_node
                .next
                .compare_exchange(next, next.with_mark(DELETED), Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                continue;
            }
            // SAFETY: [INV-01] prev covered by the anchor contract.
            let prev_node = unsafe { pos.prev.deref() }.data();
            if prev_node
                .next
                .compare_exchange(pos.curr, next, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                // SAFETY: [INV-04] the winning splice uniquely retires it.
                unsafe { h.retire(pos.curr) };
            } else {
                let _ = self.seek(h, key);
            }
            h.end_op();
            return true;
        }
    }

    /// Membership test.
    pub fn contains(&self, h: &mut DtaHandle, key: u64) -> bool {
        h.start_op();
        let pos = self.seek(h, key);
        h.end_op();
        pos.curr_key == key
    }

    /// Collects all keys (test helper).
    pub fn collect(&self, h: &mut DtaHandle) -> Vec<u64> {
        let mut out = Vec::new();
        h.start_op();
        let mut pos = self.seek(h, 0);
        while pos.curr_key != u64::MAX {
            out.push(pos.curr_key);
            pos = self.seek(h, pos.curr_key + 1);
        }
        h.end_op();
        out
    }
}

/// `DtaList` plugs into the common benchmark interface, but only under the
/// [`Dta`] scheme — the type-level encoding of "DTA cannot currently be
/// applied to other data structures" (§6) and vice versa.
impl crate::ConcurrentSet<Dta> for DtaList {
    fn new(smr: &Arc<Dta>) -> Self {
        DtaList::new(smr)
    }

    fn insert(&self, h: &mut DtaHandle, key: u64) -> bool {
        DtaList::insert(self, h, key)
    }

    fn remove(&self, h: &mut DtaHandle, key: u64) -> bool {
        DtaList::remove(self, h, key)
    }

    fn contains(&self, h: &mut DtaHandle, key: u64) -> bool {
        DtaList::contains(self, h, key)
    }

    fn name() -> &'static str {
        "dta-list"
    }
}

impl Drop for DtaList {
    // PROTECTION: exclusive — `&mut self` in drop: no handle can still hold a
    // protected reference, so the walk needs no pin span.
    fn drop(&mut self) {
        // The freezer walks our nodes; disarm it before freeing them.
        self.smr.clear_freezer();
        let mut curr = self.head;
        while !curr.is_null() {
            // SAFETY: [INV-03] exclusive access during drop; nodes freed once.
            let node = unsafe { curr.deref() }.data();
            // ORDERING: reason = exclusive — teardown under `&mut self` rules
            // out concurrent writers, so the Relaxed load cannot race.
            let next = node.next.load(Ordering::Relaxed).unmarked();
            // SAFETY: [INV-03] exclusive access; each node freed exactly once.
            unsafe { curr.drop_owned() };
            curr = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_smr::{Config, Smr};

    fn cfg() -> Config {
        Config {
            max_threads: 8,
            empty_freq: 4,
            epoch_freq: 8,
            anchor_hops: 4,
            stall_patience: 3,
            ..Config::default()
        }
    }

    #[test]
    fn sequential_semantics() {
        let smr = Dta::new(cfg());
        let list = DtaList::new(&smr);
        let mut h = smr.register();
        assert!(list.insert(&mut h, 3));
        assert!(list.insert(&mut h, 1));
        assert!(list.insert(&mut h, 2));
        assert!(!list.insert(&mut h, 2));
        assert_eq!(list.collect(&mut h), vec![1, 2, 3]);
        assert!(list.remove(&mut h, 2));
        assert!(!list.remove(&mut h, 2));
        assert!(list.contains(&mut h, 1));
        assert!(!list.contains(&mut h, 2));
    }

    #[test]
    fn sequential_model_check() {
        let smr = Dta::new(cfg());
        let list = DtaList::new(&smr);
        let model = crate::model_check(&list, &smr, 64, 3000);
        assert_eq!(list.collect(&mut smr.register()), model);
    }

    #[test]
    fn concurrent_stress() {
        let smr = Dta::new(cfg());
        let list = DtaList::new(&smr);
        crate::stress(&list, &smr, 32, 2500);
        let mut h = smr.register();
        let keys = list.collect(&mut h);
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn freezing_unblocks_a_stalled_thread() {
        // A thread stalls mid-traversal with an anchor posted; churn by a
        // worker must eventually be reclaimable again after the zone is
        // frozen and replaced, and the list must stay correct.
        let smr = Dta::new(cfg());
        let list = DtaList::new(&smr);
        let mut stalled = smr.register();
        let mut worker = smr.register();

        // Prefill.
        for k in 0..32u64 {
            worker.insert_helper(&list, k);
        }

        // The stalled thread starts an op and posts an anchor at the head,
        // then stops taking steps.
        stalled.start_op();
        stalled.post_anchor(list.head.addr());

        // Worker churns with short ops until the stall is detected, frozen,
        // and reclamation resumes.
        for round in 0..200u64 {
            let k = round % 32;
            list.remove(&mut worker, k);
            list.insert(&mut worker, k);
        }
        assert!(smr.frozen_count() > 0, "stall must trigger freezing");
        assert!(
            worker.retired_len() < 150,
            "reclamation must resume after freezing, {} pinned",
            worker.retired_len()
        );

        // The stalled thread wakes up: its traversal hits the frozen zone,
        // restarts from the head, and sees a consistent list.
        let keys = {
            // finish the stalled op first
            stalled.end_op();
            list.collect(&mut stalled)
        };
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(keys.len(), 32);
    }

    // Small helper so tests read naturally.
    trait InsertHelper {
        fn insert_helper(&mut self, list: &DtaList, k: u64);
    }
    impl InsertHelper for DtaHandle {
        fn insert_helper(&mut self, list: &DtaList, k: u64) {
            assert!(list.insert(self, k));
        }
    }
}
