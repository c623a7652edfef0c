//! Michael's nonblocking sorted linked list (SPAA 2002), paper §5.2.
//!
//! Keys are kept sorted between a head sentinel (`-∞`, index 0) and a tail
//! sentinel (`u64::MAX`, index `MAX_INDEX` — paper §5.2). Deletion is
//! two-step: a CAS sets the *deleted* mark bit in the victim's `next`
//! pointer (logical removal, freezing the field), then the node is spliced
//! out by a CAS on its predecessor (physical removal) and retired by
//! whichever thread wins that splice.
//!
//! The MP integration (Listing 7) is the two bolded lines: during `seek`,
//! passing a node with a smaller key updates the search interval's lower
//! endpoint; the stopping node updates the upper endpoint. `insert` then
//! allocates with the midpoint index of the final `(pred, succ)` interval.

use std::sync::Arc;
use std::sync::atomic::Ordering;

use mp_smr::node::MAX_INDEX;
use mp_smr::{Atomic, Shared, Smr, SmrHandle, Telemetry};

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
/// let smr = Mp::new(Config::default().with_max_threads(2));
/// let list = LinkedList::<Mp>::new(&smr);
/// let mut h = smr.register();
/// assert!(list.insert(&mut h, 7));
/// assert!(list.contains(&mut h, 7));
/// assert!(list.remove(&mut h, 7));
/// assert!(!list.contains(&mut h, 7));
/// ```
pub struct LinkedList<S: Smr, V = ()> {
    /// Head sentinel; never removed, so it may be dereferenced freely.
    head: Shared<Node<V>>,
    smr: Arc<S>,
}

// SAFETY: [INV-07] all node access goes through `Shared`/`Atomic` words under
// an SMR handle, and the payload type is required `Send + Sync`.
unsafe impl<S: Smr, V: Send + Sync> Send for LinkedList<S, V> {}
// SAFETY: [INV-07] see above.
unsafe impl<S: Smr, V: Send + Sync> Sync for LinkedList<S, V> {}

/// Result of a successful `seek`: `curr` is the first node with
/// `key ≥ target`; `prev` is its predecessor. Both are protected under the
/// recorded slots until `end_op`.
struct Position<V> {
    prev: Shared<Node<V>>,
    curr: Shared<Node<V>>,
    curr_key: u64,
    /// A slot whose protection is no longer needed; safe to overwrite with
    /// further reads (e.g. `remove` re-reading `curr->next`).
    free_slot: usize,
}

impl<S: Smr, V: Send + Sync + 'static> LinkedList<S, V> {
    /// Searches for the first node with key ≥ `key`, splicing out any
    /// marked nodes encountered (Listing 7). On return, MP's search
    /// interval is `(prev.key, curr.key)`.
    // PROTECTION: caller — seek runs inside the caller's start_op/end_op
    // span; every deref below is of a slot-protected read made in this op.
    fn seek(&self, h: &mut S::Handle, key: u64) -> Position<V> {
        'retry: loop {
            // Slot roles rotate: prev, curr, next.
            let (mut prev_s, mut curr_s, mut next_s) = (SLOTS[0], SLOTS[1], SLOTS[2]);
            let mut prev = self.head;
            // SAFETY: [INV-01] head is a sentinel, never retired.
            let mut curr = h.read(unsafe { &prev.deref().data().next }, curr_s);
            if curr.mark() != 0 {
                // Head can never be deleted; a marked value here means we
                // raced an in-flight splice representation — retry.
                continue 'retry;
            }
            loop {
                h.record_node_traversed();
                debug_assert!(!curr.is_null(), "tail sentinel bounds every traversal");
                // SAFETY: [INV-01] curr was returned by a protected read this op.
                let curr_node = unsafe { curr.deref() }.data();
                let next = h.read(&curr_node.next, next_s);
                if next.mark() != 0 {
                    // curr is logically deleted: splice it out of the list.
                    let next_clean = next.unmarked();
                    // SAFETY: [INV-01] prev is protected (or the head sentinel).
                    let prev_node = unsafe { prev.deref() }.data();
                    if prev_node
                        .next
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
                let ckey = curr_node.key;
                if ckey >= key {
                    h.update_upper_bound(curr);
                    // next_s protected curr's successor, which the caller
                    // does not need; hand it back as scratch.
                    return Position { prev, curr, curr_key: ckey, free_slot: next_s };
                }
                h.update_lower_bound(curr);
                // Advance: curr becomes prev, next becomes curr; the slot
                // that protected the old prev is recycled for future reads.
                prev = curr;
                curr = next;
                let recycled = prev_s;
                prev_s = curr_s;
                curr_s = next_s;
                next_s = recycled;
            }
        }
    }

    /// Adds `key` mapped to `value`; returns `false` (dropping `value`'s
    /// node) if the key is already present. The map flavor of `insert`.
    pub fn insert_kv(&self, h: &mut S::Handle, key: u64, value: V) -> bool {
        assert!(key < u64::MAX, "key space reserved for the tail sentinel");
        h.start_op();
        let mut value = value;
        loop {
            let pos = self.seek(h, key);
            if pos.curr_key == key {
                h.end_op();
                return false;
            }
            // MP assigns the midpoint index of (pred, succ) — the bounds
            // seek just maintained (Listing 5).
            let new = h.alloc(Node { key, value, next: Atomic::new(pos.curr) });
            // SAFETY: [INV-01] prev is protected (or the head sentinel).
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
                Err(_) => {
                    // Never published; the node is exclusively ours.
                    // SAFETY: [INV-03] the CAS failed, so no other thread
                    // ever saw `new`. Recover the value for the next attempt.
                    value = unsafe { new.take_owned() }.value;
                }
            }
        }
    }

    /// Returns a copy of the value stored under `key`, if present. The
    /// clone happens while the node is protected, so the returned value is
    /// never read from reclaimed memory.
    pub fn get(&self, h: &mut S::Handle, key: u64) -> Option<V>
    where
        V: Clone,
    {
        h.start_op();
        let pos = self.seek(h, key);
        let out = if pos.curr_key == key {
            // SAFETY: [INV-01] curr is protected by seek until end_op.
            Some(unsafe { pos.curr.deref() }.data().value.clone())
        } else {
            None
        };
        h.end_op();
        out
    }

    /// Number of elements (test/diagnostic helper; not linearizable under
    /// concurrent updates).
    pub fn len(&self, h: &mut S::Handle) -> usize {
        h.start_op();
        let mut n = 0;
        let mut pos = self.seek(h, 0);
        while pos.curr_key != u64::MAX {
            n += 1;
            pos = self.seek(h, pos.curr_key + 1);
        }
        h.end_op();
        n
    }

    /// True if the list holds no client keys (same caveats as [`len`]).
    ///
    /// [`len`]: LinkedList::len
    pub fn is_empty(&self, h: &mut S::Handle) -> bool {
        h.start_op();
        let pos = self.seek(h, 0);
        h.end_op();
        pos.curr_key == u64::MAX
    }

    /// Collects all keys in order (test helper).
    pub fn collect(&self, h: &mut S::Handle) -> Vec<u64> {
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

impl<S: Smr, V: Send + Sync + Default + 'static> ConcurrentSet<S> for LinkedList<S, V> {
    fn new(smr: &Arc<S>) -> Self {
        let mut h = smr.register();
        // Sentinel indices per §5.2: head 0, tail MAX_INDEX. The tail's key
        // is u64::MAX; client keys must stay below it.
        let tail = h.alloc_with_index(
            Node { key: u64::MAX, value: V::default(), next: Atomic::null() },
            MAX_INDEX,
        );
        let head = h
            .alloc_with_index(Node { key: 0, value: V::default(), next: Atomic::new(tail) }, 0);
        LinkedList { head, smr: smr.clone() }
    }

    fn insert(&self, h: &mut S::Handle, key: u64) -> bool {
        self.insert_kv(h, key, V::default())
    }

    fn remove(&self, h: &mut S::Handle, key: u64) -> bool {
        h.start_op();
        loop {
            let pos = self.seek(h, key);
            if pos.curr_key != key {
                h.end_op();
                return false;
            }
            // SAFETY: [INV-01] curr is protected by seek.
            let curr_node = unsafe { pos.curr.deref() }.data();
            let next = h.read(&curr_node.next, pos.free_slot);
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
            // SAFETY: [INV-01] prev is protected by seek (or the head sentinel).
            let prev_node = unsafe { pos.prev.deref() }.data();
            if prev_node
                .next
                .compare_exchange(pos.curr, next, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                // SAFETY: [INV-04] the winning splice uniquely retires the node.
                unsafe { h.retire(pos.curr) };
            } else {
                let _ = self.seek(h, key); // helper splice + retire
            }
            h.end_op();
            return true;
        }
    }

    fn contains(&self, h: &mut S::Handle, key: u64) -> bool {
        h.start_op();
        let pos = self.seek(h, key);
        h.end_op();
        pos.curr_key == key
    }

    fn name() -> &'static str {
        "list"
    }
}

impl<S: Smr, V> Drop for LinkedList<S, V> {
    // PROTECTION: exclusive — `&mut self` in drop: no handle can still hold a
    // protected reference, so the walk needs no pin span.
    fn drop(&mut self) {
        // Exclusive access: free every node still linked, sentinels included.
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
        let _ = &self.smr; // scheme owned at least as long as its nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_smr::schemes::{Ebr, He, Hp, Ibr, Leaky, Mp};
    use mp_smr::Config;

    fn cfg() -> Config {
        Config::default().with_max_threads(8).with_empty_freq(4).with_epoch_freq(8)
    }

    #[test]
    fn node_size_is_pinned() {
        assert_eq!(crate::node_bytes::<Node>(), 32, "header 16 + key 8 + next 8");
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
        use mp_util::RngExt;
        let smr = Mp::new(cfg());
        let list: LinkedList<Mp> = LinkedList::new(&smr);
        let mut h = smr.register();
        let mut model = std::collections::BTreeSet::new();
        let mut rng = mp_util::rng();
        for _ in 0..4000 {
            let key = rng.random_range(0..64u64);
            match rng.random_range(0..3) {
                0 => assert_eq!(list.insert(&mut h, key), model.insert(key)),
                1 => assert_eq!(list.remove(&mut h, key), model.remove(&key)),
                _ => assert_eq!(list.contains(&mut h, key), model.contains(&key)),
            }
        }
        assert_eq!(list.collect(&mut h), model.iter().copied().collect::<Vec<_>>());
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
        use mp_util::RngExt;
        let smr = S::new(cfg());
        let list = Arc::new(LinkedList::<S>::new(&smr));
        let threads = 4;
        let ops = 3000;
        std::thread::scope(|s| {
            for t in 0..threads {
                let list = list.clone();
                let smr = smr.clone();
                s.spawn(move || {
                    let mut h = smr.register();
                    let mut rng = mp_util::rng();
                    for i in 0..ops {
                        let key = rng.random_range(0..32u64);
                        match (i + t) % 3 {
                            0 => {
                                list.insert(&mut h, key);
                            }
                            1 => {
                                list.remove(&mut h, key);
                            }
                            _ => {
                                list.contains(&mut h, key);
                            }
                        }
                    }
                });
            }
        });
        // Structure invariant: keys strictly sorted.
        let mut h = smr.register();
        let keys = list.collect(&mut h);
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "sorted, duplicate-free");
    }

    #[test]
    fn mp_midpoint_indices_follow_key_order() {
        let smr = Mp::new(cfg());
        let list = LinkedList::new(&smr);
        let mut h = smr.register();
        // Insert in an order that keeps splitting intervals.
        for key in [500u64, 250, 750, 125, 375, 625, 875] {
            assert!(list.insert(&mut h, key));
        }
        // Walk the list and check index monotonicity (allowing USE_HP
        // collisions, which are protected separately).
        h.start_op();
        let mut pos = self_seek(&list, &mut h, 0);
        let mut last_idx = 0u32;
        while pos.curr_key != u64::MAX {
            // SAFETY: [INV-12] test-controlled: protected by the open span.
            let idx = unsafe { pos.curr.deref() }.index();
            if idx != mp_smr::node::USE_HP {
                assert!(idx >= last_idx, "indices must respect key order");
                last_idx = idx;
            }
            let k = pos.curr_key;
            pos = self_seek(&list, &mut h, k + 1);
        }
        h.end_op();
    }

    fn self_seek<S: Smr>(list: &LinkedList<S, ()>, h: &mut S::Handle, key: u64) -> Position<()> {
        list.seek(h, key)
    }
}
