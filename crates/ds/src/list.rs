//! Michael's nonblocking sorted linked list (SPAA 2002), paper §5.2.
//!
//! Keys are kept sorted between a head *link* and a tail sentinel
//! (`u64::MAX`, index `MAX_INDEX` — paper §5.2). The head is a link word,
//! not a node, as in Michael's own code: `seek`'s `prev` is the link that
//! points at `curr` — the head link or the `next` field of a protected node
//! (Michael's `*prev`) — and every splice, insert and remove CAS goes
//! through it. The paper's head sentinel (index 0) only ever stood for the
//! bottom of the index space: `seek` never passed it to
//! `update_lower_bound`, so MP's search interval still opens at 0.
//!
//! Deletion is two-step: a CAS sets the *deleted* mark bit in the victim's
//! `next` pointer (logical removal, freezing the field), then the node is
//! spliced out by a CAS on the link that points at it (physical removal)
//! and retired by whichever thread wins that splice.
//!
//! The operations are crate-private functions over a head link, so
//! [`HashMap`](crate::HashMap) runs this same code: a table is one head
//! link per bucket, every chain ending at one shared tail.
//!
//! A node is the one-word SMR header, the key and the `next` link: 24
//! bytes under every scheme but MP, whose nodes alone add a birth word
//! (32 bytes), because MP reads both an index and a birth and the header's
//! stamp holds one of the two.
//!
//! The MP integration (Listing 7) is the two bolded lines: during `seek`,
//! passing a node with a smaller key updates the search interval's lower
//! endpoint; the stopping node updates the upper endpoint. `insert` then
//! allocates with the midpoint index of the final `(pred, succ)` interval.
//!
//! A search protects a node only before dereferencing it. `seek`'s stopping
//! node needs only the mark bit of its `next` link, so `seek` tests it with
//! a plain load and reads the successor under protection only to advance or
//! to splice a marked node. A mark is permanent (a marked `next` is never
//! re-pointed, and every CAS on a link expects an unmarked word), so the
//! plain load decides what the protected read would have.

use std::sync::Arc;
use std::sync::atomic::Ordering;

use mp_smr::node::MAX_INDEX;
use mp_smr::{Atomic, Shared, Smr, SmrHandle};

use crate::ConcurrentSet;

/// Deleted-bit on a node's `next` pointer (the node owning the field is
/// logically removed).
const DELETED: u64 = 0b01;

/// Protection slot roles; rotated as the traversal advances.
const SLOTS: [usize; 3] = [0, 1, 2];

/// List node payload: immutable key, optional value, next link.
pub struct Node<V = ()> {
    key: u64,
    value: V,
    next: Atomic<Node<V>>,
}

/// Michael's lock-free sorted linked-list set.
///
/// ```
/// use std::sync::Arc;
/// use mp_smr::{Config, Smr, schemes::Mp};
/// use mp_ds::{ConcurrentSet, LinkedList};
///
/// let smr = Mp::new(Config { max_threads: 2, ..Config::default() });
/// let list = LinkedList::<Mp>::new(&smr);
/// let mut h = smr.register();
/// assert!(list.insert(&mut h, 7));
/// assert!(list.contains(&mut h, 7));
/// assert!(list.remove(&mut h, 7));
/// assert!(!list.contains(&mut h, 7));
/// ```
pub struct LinkedList<S: Smr, V = ()> {
    /// Head link: points at the first node, the tail when the list is empty.
    head: Atomic<Node<V>>,
    /// Tail sentinel; never removed.
    tail: Shared<Node<V>>,
    smr: Arc<S>,
}

// SAFETY: [INV-07] all node access goes through `Shared`/`Atomic` words under
// an SMR handle, and the payload type is required `Send + Sync`.
unsafe impl<S: Smr, V: Send + Sync> Send for LinkedList<S, V> {}
// SAFETY: [INV-07] see above.
unsafe impl<S: Smr, V: Send + Sync> Sync for LinkedList<S, V> {}

/// Result of a successful `seek`: `curr` is the first node with
/// `key ≥ target`; `prev` is the link that points at it. Both stay valid
/// under the recorded slots until `end_op`.
struct Position<'a, V> {
    /// The head link, or the `next` field of a node the rotating `prev`
    /// slot protects.
    prev: &'a Atomic<Node<V>>,
    curr: Shared<Node<V>>,
    curr_key: u64,
    /// A slot whose protection is no longer needed; safe to overwrite with
    /// further reads (e.g. `remove` re-reading `curr->next`).
    free_slot: usize,
}

/// Allocates a tail sentinel (key `u64::MAX`, index `MAX_INDEX` per §5.2)
/// through a handle registered for the purpose. Client keys stay below it.
///
/// # Panics
/// If `smr`'s registry has no free slot (see [`Smr::register`]).
pub(crate) fn new_tail<S: Smr, V: Send + Sync + Default + 'static>(
    smr: &Arc<S>,
) -> Shared<Node<V>> {
    let mut h = smr.register();
    h.alloc_with_index(Node { key: u64::MAX, value: V::default(), next: Atomic::null() }, MAX_INDEX)
}

/// Searches the chain at `head` for the first node with key ≥ `key`,
/// splicing out any marked nodes encountered (Listing 7). On return, MP's
/// search interval is `(prev's owner.key, curr.key)`, opening at 0 when
/// `prev` is the head link.
// PROTECTION: caller — seek runs inside the caller's operation (its
// `pin()` guard); every deref below is of a slot-protected read made in
// this op.
//
// Out of line on purpose: inlined through `contains` into a caller's loop,
// seek lost the hot-loop inlining bonus for its per-hop `read`, and HE's
// `read` (over the default threshold) became a call on every hop.
#[inline(never)]
fn seek<'a, H: SmrHandle, V: Send + Sync + 'static>(
    head: &'a Atomic<Node<V>>,
    h: &mut H,
    key: u64,
) -> Position<'a, V> {
    'retry: loop {
        // Slot roles rotate: prev, curr, next.
        let (mut prev_s, mut curr_s, mut next_s) = (SLOTS[0], SLOTS[1], SLOTS[2]);
        let mut prev = head;
        let mut curr = h.read(head, curr_s);
        debug_assert_eq!(curr.mark(), 0, "only a node's own link is ever marked");
        loop {
            h.record_node_traversed();
            debug_assert!(!curr.is_null(), "tail sentinel bounds every traversal");
            // SAFETY: [INV-01] curr was returned by a protected read this op.
            let curr_node = unsafe { curr.deref() }.data();
            let ckey = curr_node.key;
            // The stopping node: its successor is only mark-checked, so a
            // plain load does (module docs).
            if ckey >= key && curr_node.next.load(Ordering::Acquire).mark() == 0 {
                h.update_upper_bound(curr);
                // next_s protects nothing the caller needs; hand it back
                // as scratch.
                return Position { prev, curr, curr_key: ckey, free_slot: next_s };
            }
            let next = h.read(&curr_node.next, next_s);
            if next.mark() != 0 {
                // curr is logically deleted: splice it out of the list.
                let next_clean = next.unmarked();
                if prev
                    .compare_exchange(curr, next_clean, Ordering::AcqRel, Ordering::Acquire)
                    .is_err()
                {
                    continue 'retry;
                }
                // SAFETY: [INV-04] the winning splice uniquely retires curr.
                unsafe { h.retire(curr) };
                // next_clean was protected under next_s; it becomes curr.
                std::mem::swap(&mut curr_s, &mut next_s);
                curr = next_clean;
                continue;
            }
            // A stopping node reaches the read only with a marked link,
            // and a mark is never cleared: an unmarked one means advance.
            debug_assert!(ckey < key, "a mark is never cleared");
            h.update_lower_bound(curr);
            // Advance: curr's link becomes prev, next becomes curr; the
            // slot that protected the old prev's owner is recycled.
            prev = &curr_node.next;
            curr = next;
            let recycled = prev_s;
            prev_s = curr_s;
            curr_s = next_s;
            next_s = recycled;
        }
    }
}

/// Adds `key` mapped to `value` to the chain at `head`; returns `false`
/// (dropping `value`) if the key is already present.
pub(crate) fn insert<H: SmrHandle, V: Send + Sync + 'static>(
    head: &Atomic<Node<V>>,
    h: &mut H,
    key: u64,
    value: V,
) -> bool {
    assert!(key < u64::MAX, "key space reserved for the tail sentinel");
    let mut op = h.pin();
    let mut value = value;
    loop {
        let pos = seek(head, &mut *op, key);
        if pos.curr_key == key {
            return false;
        }
        // MP assigns the midpoint index of (pred, succ) — the bounds seek
        // just maintained (Listing 5).
        let new = op.alloc(Node { key, value, next: Atomic::new(pos.curr) });
        match pos.prev.compare_exchange(pos.curr, new, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => return true,
            Err(_) => {
                // SAFETY: [INV-03] the CAS failed, so no other thread ever
                // saw `new`. Recover the value for the next attempt.
                value = unsafe { new.take_owned() }.value;
            }
        }
    }
}

/// Returns a copy of the value stored under `key` in the chain at `head`.
/// The clone happens while the node is protected.
pub(crate) fn get<H: SmrHandle, V: Clone + Send + Sync + 'static>(
    head: &Atomic<Node<V>>,
    h: &mut H,
    key: u64,
) -> Option<V> {
    let mut op = h.pin();
    let pos = seek(head, &mut *op, key);
    if pos.curr_key == key {
        // SAFETY: [INV-01] curr is protected by seek until end_op.
        Some(unsafe { pos.curr.deref() }.data().value.clone())
    } else {
        None
    }
}

/// Removes `key` from the chain at `head`; returns `false` if absent.
pub(crate) fn remove<H: SmrHandle, V: Send + Sync + 'static>(
    head: &Atomic<Node<V>>,
    h: &mut H,
    key: u64,
) -> bool {
    // Removing the tail would retire the sentinel every chain of a table
    // ends at, while the structure still holds it.
    assert!(key < u64::MAX, "key space reserved for the tail sentinel");
    let mut op = h.pin();
    loop {
        let pos = seek(head, &mut *op, key);
        if pos.curr_key != key {
            return false;
        }
        // SAFETY: [INV-01] curr is protected by seek.
        let curr_node = unsafe { pos.curr.deref() }.data();
        let next = op.read(&curr_node.next, pos.free_slot);
        if next.mark() != 0 {
            continue; // already being deleted; re-seek decides the winner
        }
        // Logical removal: set the deleted bit on curr's next pointer.
        if curr_node
            .next
            .compare_exchange(next, next.with_mark(DELETED), Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            continue;
        }
        // Physical removal: try to splice; on failure, a seek does it.
        if pos.prev.compare_exchange(pos.curr, next, Ordering::AcqRel, Ordering::Acquire).is_ok() {
            // SAFETY: [INV-04] the winning splice uniquely retires the node.
            unsafe { op.retire(pos.curr) };
        } else {
            let _ = seek(head, &mut *op, key); // helper splice + retire
        }
        return true;
    }
}

/// Membership test on the chain at `head`.
pub(crate) fn contains<H: SmrHandle, V: Send + Sync + 'static>(
    head: &Atomic<Node<V>>,
    h: &mut H,
    key: u64,
) -> bool {
    let mut op = h.pin();
    seek(head, &mut *op, key).curr_key == key
}

/// True if the chain at `head` holds no client key (same caveats as
/// [`collect`]).
pub(crate) fn is_empty<H: SmrHandle, V: Send + Sync + 'static>(
    head: &Atomic<Node<V>>,
    h: &mut H,
) -> bool {
    let mut op = h.pin();
    seek(head, &mut *op, 0).curr_key == u64::MAX
}

/// Collects the chain's keys in order (test/diagnostic helper; not
/// linearizable under concurrent updates).
pub(crate) fn collect<H: SmrHandle, V: Send + Sync + 'static>(
    head: &Atomic<Node<V>>,
    h: &mut H,
) -> Vec<u64> {
    let mut out = Vec::new();
    let mut op = h.pin();
    let mut pos = seek(head, &mut *op, 0);
    while pos.curr_key != u64::MAX {
        out.push(pos.curr_key);
        pos = seek(head, &mut *op, pos.curr_key + 1);
    }
    out
}

/// Frees every node linked from `head` up to `tail`, which is left for the
/// caller (a table's chains share one). Marked nodes still linked were
/// never retired — only a splice's winner retires — so they are freed here.
///
/// # Safety
/// The caller owns the chain exclusively (its structure is being dropped),
/// and the chain ends at `tail`.
// SAFETY: [INV-11] obligation stated in `# Safety` above; both callers are
// `Drop` impls citing [INV-03].
// PROTECTION: exclusive — the caller's `&mut` on the whole structure: no
// handle can still hold a protected reference.
pub(crate) unsafe fn drop_chain<V>(head: &Atomic<Node<V>>, tail: Shared<Node<V>>) {
    // ORDERING: reason = exclusive — teardown under `&mut` rules out
    // concurrent writers, so the Relaxed loads cannot race.
    let mut curr = head.load(Ordering::Relaxed);
    while curr != tail {
        // SAFETY: [INV-03] exclusive access during drop; nodes freed once.
        let node = unsafe { curr.deref() }.data();
        // ORDERING: reason = exclusive — see above.
        let next = node.next.load(Ordering::Relaxed).unmarked();
        // SAFETY: [INV-03] exclusive access; each node freed exactly once.
        unsafe { curr.drop_owned() };
        curr = next;
    }
}

impl<S: Smr, V: Send + Sync + 'static> LinkedList<S, V> {
    /// Adds `key` mapped to `value`; returns `false` (dropping `value`'s
    /// node) if the key is already present. The map flavor of `insert`.
    pub fn insert_kv(&self, h: &mut S::Handle, key: u64, value: V) -> bool {
        insert(&self.head, h, key, value)
    }

    /// Returns a copy of the value stored under `key`, if present. The
    /// clone happens while the node is protected, so the returned value is
    /// never read from reclaimed memory.
    pub fn get(&self, h: &mut S::Handle, key: u64) -> Option<V>
    where
        V: Clone,
    {
        get(&self.head, h, key)
    }

    /// Number of elements (test/diagnostic helper; not linearizable under
    /// concurrent updates).
    pub fn len(&self, h: &mut S::Handle) -> usize {
        self.collect(h).len()
    }

    /// True if the list holds no client keys (same caveats as [`len`]).
    ///
    /// [`len`]: LinkedList::len
    pub fn is_empty(&self, h: &mut S::Handle) -> bool {
        is_empty(&self.head, h)
    }

    /// Collects all keys in order (test helper).
    pub fn collect(&self, h: &mut S::Handle) -> Vec<u64> {
        collect(&self.head, h)
    }
}

impl<S: Smr, V: Send + Sync + Default + 'static> ConcurrentSet<S> for LinkedList<S, V> {
    fn new(smr: &Arc<S>) -> Self {
        let tail = new_tail(smr);
        LinkedList { head: Atomic::new(tail), tail, smr: smr.clone() }
    }

    fn insert(&self, h: &mut S::Handle, key: u64) -> bool {
        insert(&self.head, h, key, V::default())
    }

    fn remove(&self, h: &mut S::Handle, key: u64) -> bool {
        remove(&self.head, h, key)
    }

    fn contains(&self, h: &mut S::Handle, key: u64) -> bool {
        contains(&self.head, h, key)
    }

    fn name() -> &'static str {
        "list"
    }
}

impl<S: Smr, V> Drop for LinkedList<S, V> {
    fn drop(&mut self) {
        // SAFETY: [INV-03] `&mut self` in drop: no handle can still hold a
        // protected reference. The chain ends at our tail, freed once, last.
        unsafe {
            drop_chain(&self.head, self.tail);
            self.tail.drop_owned();
        }
        let _ = &self.smr; // scheme owned at least as long as its nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_smr::schemes::{Ebr, He, Hp, Ibr, Leaky, Mp};
    use mp_smr::Config;

    fn cfg() -> Config {
        Config { max_threads: 8, empty_freq: 4, epoch_freq: 8, ..Config::default() }
    }

    #[test]
    fn node_size_is_pinned() {
        assert_eq!(crate::node_bytes::<Node>(), 24, "header 8 + key 8 + next 8");
    }

    fn smoke<S: Smr>() {
        let smr = S::new(cfg());
        let list: LinkedList<S> = LinkedList::new(&smr);
        let mut h = smr.register();
        assert!(list.is_empty(&mut h));
        assert!(list.insert(&mut h, 5));
        assert!(list.insert(&mut h, 1));
        assert!(list.insert(&mut h, 9));
        assert!(!list.insert(&mut h, 5), "duplicate rejected");
        assert_eq!(list.collect(&mut h), vec![1, 5, 9]);
        assert!(list.contains(&mut h, 1));
        assert!(!list.contains(&mut h, 2));
        assert!(list.remove(&mut h, 5));
        assert!(!list.remove(&mut h, 5));
        assert_eq!(list.collect(&mut h), vec![1, 9]);
        assert_eq!(list.len(&mut h), 2);
        assert!(!list.is_empty(&mut h));
    }

    #[test]
    #[should_panic(expected = "reserved for the tail sentinel")]
    fn removing_the_tail_key_panics() {
        let smr = Mp::new(cfg());
        let list: LinkedList<Mp> = LinkedList::new(&smr);
        list.remove(&mut smr.register(), u64::MAX);
    }

    #[test]
    fn smoke_all_schemes() {
        smoke::<Mp>();
        smoke::<Hp>();
        smoke::<Ebr>();
        smoke::<He>();
        smoke::<Ibr>();
        smoke::<Leaky>();
    }

    #[test]
    fn sequential_model_check_mp() {
        let smr = Mp::new(cfg());
        let list: LinkedList<Mp> = LinkedList::new(&smr);
        let model = crate::model_check(&list, &smr, 64, 4000);
        assert_eq!(list.collect(&mut smr.register()), model);
    }

    #[test]
    fn concurrent_stress_mp() {
        concurrent_stress::<Mp>();
    }

    #[test]
    fn concurrent_stress_hp() {
        concurrent_stress::<Hp>();
    }

    #[test]
    fn concurrent_stress_ebr() {
        concurrent_stress::<Ebr>();
    }

    fn concurrent_stress<S: Smr>() {
        let smr = S::new(cfg());
        let list = LinkedList::<S>::new(&smr);
        crate::stress(&list, &smr, 32, 3000);
        // Structure invariant: keys strictly sorted.
        let mut h = smr.register();
        let keys = list.collect(&mut h);
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "sorted, duplicate-free");
    }

    #[test]
    fn mp_midpoint_indices_follow_key_order() {
        let smr = Mp::new(cfg());
        let list: LinkedList<Mp> = LinkedList::new(&smr);
        let mut h = smr.register();
        // Insert in an order that keeps splitting intervals.
        for key in [500u64, 250, 750, 125, 375, 625, 875] {
            assert!(list.insert(&mut h, key));
        }
        // Walk the list and check index monotonicity (allowing USE_HP
        // collisions, which are protected separately).
        h.start_op();
        let mut pos = seek(&list.head, &mut h, 0);
        let mut last_idx = 0u32;
        while pos.curr_key != u64::MAX {
            // SAFETY: [INV-12] test-controlled: protected by the open span.
            let idx = unsafe { pos.curr.deref() }.index();
            if idx != mp_smr::node::USE_HP {
                assert!(idx >= last_idx, "indices must respect key order");
                last_idx = idx;
            }
            let k = pos.curr_key;
            pos = seek(&list.head, &mut h, k + 1);
        }
        h.end_op();
    }
}
