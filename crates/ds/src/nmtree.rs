//! The Natarajan–Mittal nonblocking external BST (PPoPP 2014), paper §5.3.
//!
//! An external (leaf-oriented) unbalanced BST: leaves store the client
//! keys, internal nodes only route searches. Deletion marks *edges* rather
//! than nodes, by stealing the two low pointer bits: a **flagged** edge
//! means the leaf it points to is being deleted; a **tagged** edge can
//! never change again. A deletion *injects* a flag on the parent→leaf edge,
//! then *cleans up* by tagging the parent's sibling edge and swinging the
//! ancestor's edge from the successor to the sibling subtree — unlinking
//! the parent and the leaf (and, when deletions chain, the whole tagged
//! region) in one CAS.
//!
//! The initial state (paper Figure 1) has routing sentinels `R` (key ∞₂)
//! and `S` (key ∞₁) plus three sentinel leaves ∞₀ < ∞₁ < ∞₂; every client
//! key is `< ∞₀`. Per §5.3, the ∞₀ leaf gets MP index `MAX_INDEX` and the
//! other initial nodes `USE_HP`; `R` and `S` are never removed.
//!
//! MP integration (Listing 9): `seek` shrinks the search interval at every
//! internal node it navigates — the two bolded `update_*_bound` lines.

use std::sync::Arc;
use std::sync::atomic::Ordering;

use mp_smr::node::{MAX_INDEX, USE_HP};
use mp_smr::{Atomic, Shared, Smr, SmrHandle, Telemetry};

use crate::ConcurrentSet;

/// Edge mark: the leaf this edge points to is being deleted.
const FLAG: u64 = 0b01;
/// Edge mark: this edge is immutable (its tail node is being unlinked).
const TAG: u64 = 0b10;

/// A severed edge: null with both marks set — a combination no live edge
/// ever carries (flagged/tagged edges always hold real pointers, leaf child
/// edges are null and unmarked). `retire_region` overwrites every edge of a
/// detached node with this word *before* retiring the node, so a reader
/// re-validating (HP/MP) or re-reading (IBR/HE) the edge observes a change
/// instead of a frozen pointer into freed memory; `seek` restarts when it
/// reads one. Without this, the region's interior edges would never change
/// again, and protect-then-validate schemes would happily follow them to
/// nodes reclaimed out from under the traversal (see DESIGN.md, "Findings").
fn dead<V>() -> Shared<Node<V>> {
    Shared::null().with_mark(FLAG | TAG)
}

/// True iff `e` is the severed-edge sentinel written by `retire_region`.
fn is_dead<V>(e: Shared<Node<V>>) -> bool {
    e.mark() == (FLAG | TAG) && e.is_null()
}

/// Sentinel keys ∞₀ < ∞₁ < ∞₂ (client keys must be `< ∞₀`).
const INF0: u64 = u64::MAX - 2;
const INF1: u64 = u64::MAX - 1;
const INF2: u64 = u64::MAX;

/// Minimum protection slots a tree operation needs (4 seek-record roles +
/// one in-flight read + one spare).
pub const SLOTS_NEEDED: usize = 6;

/// Tree node payload. Leaves have both children null; only leaves carry
/// meaningful values (internal nodes route searches).
pub struct Node<V = ()> {
    key: u64,
    value: V,
    left: Atomic<Node<V>>,
    right: Atomic<Node<V>>,
}

impl<V> Node<V> {
    fn leaf(key: u64, value: V) -> Self {
        Node { key, value, left: Atomic::null(), right: Atomic::null() }
    }
}

/// The Natarajan–Mittal lock-free external BST set.
pub struct NmTree<S: Smr, V = ()> {
    /// Root routing node `R`; never removed.
    root: Shared<Node<V>>,
    /// Routing node `S` (= `R.left`); never removed.
    s: Shared<Node<V>>,
    smr: Arc<S>,
}

// SAFETY: [INV-07] all node access goes through `Shared`/`Atomic` words under
// an SMR handle, and the payload type is required `Send + Sync`.
unsafe impl<S: Smr, V: Send + Sync> Send for NmTree<S, V> {}
// SAFETY: [INV-07] see above.
unsafe impl<S: Smr, V: Send + Sync> Sync for NmTree<S, V> {}

/// A protected node: the packed word plus the slot (refno) guarding it.
/// `slot == None` for the `R`/`S` sentinels, which are never reclaimed.
struct Prot<V> {
    node: Shared<Node<V>>,
    slot: Option<u8>,
}

impl<V> Clone for Prot<V> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<V> Copy for Prot<V> {}

/// Reference-counted pool of protection slots. Seek-record roles share
/// slots when they alias the same node; a slot is reusable once no role
/// holds it. This is how the rotating-role traversal keeps every recorded
/// node continuously protected without re-announcing (and re-fencing).
struct SlotPool {
    cnt: [u8; SLOTS_NEEDED],
}

impl SlotPool {
    fn new() -> Self {
        SlotPool { cnt: [0; SLOTS_NEEDED] }
    }

    /// Claims a currently unused slot.
    fn acquire(&mut self) -> u8 {
        for (i, c) in self.cnt.iter_mut().enumerate() {
            if *c == 0 {
                *c = 1;
                return i as u8;
            }
        }
        unreachable!("at most 5 of {SLOTS_NEEDED} slots are ever held")
    }

    /// `dst = src`, maintaining refcounts.
    fn assign<V>(&mut self, dst: &mut Prot<V>, src: Prot<V>) {
        if let Some(s) = src.slot {
            self.cnt[s as usize] += 1;
        }
        if let Some(s) = dst.slot {
            self.cnt[s as usize] -= 1;
        }
        *dst = src;
    }

    /// Drops one reference to `p`'s slot.
    fn release<V>(&mut self, p: Prot<V>) {
        if let Some(s) = p.slot {
            self.cnt[s as usize] -= 1;
        }
    }
}

/// The seek record (paper Listing 8): four protected nodes plus the edge
/// words needed for subsequent CASes.
struct SeekRecord<V> {
    ancestor: Prot<V>,
    successor: Prot<V>,
    parent: Prot<V>,
    leaf: Prot<V>,
    /// Edge word ancestor→successor at discovery time (CAS expectation for
    /// the cleanup swing).
    successor_edge: Shared<Node<V>>,
    /// Edge word parent→leaf at discovery time (CAS expectation for insert
    /// and for delete's flag injection).
    leaf_edge: Shared<Node<V>>,
}

impl<S: Smr, V: Send + Sync + 'static> NmTree<S, V> {
    /// Navigates from the root to the leaf where `key`'s search terminates
    /// (Listing 9), maintaining the MP search interval along the way.
    /// All four record roles remain protected until the next seek/`end_op`.
    // PROTECTION: caller — seek runs inside the caller's start_op/end_op
    // span; every deref below is of a slot-protected read made in this op.
    fn seek(&self, h: &mut S::Handle, key: u64) -> SeekRecord<V> {
        'restart: loop {
            let pool = &mut SlotPool::new();
            let mut ancestor = Prot { node: self.root, slot: None };
            let mut successor = Prot { node: self.s, slot: None };
            let mut parent = Prot { node: self.s, slot: None };
            // SAFETY: [INV-01] S is a sentinel, never reclaimed.
            let s_node = unsafe { self.s.deref() }.data();
            let lslot = pool.acquire();
            // parent (S) → leaf edge.
            let mut parent_edge = h.read(&s_node.left, lslot as usize);
            let mut leaf = Prot { node: parent_edge.unmarked(), slot: Some(lslot) };
            let mut successor_edge = parent_edge;

            // current = leaf.left (unconditionally: the subtree root under S
            // always carries key ∞₀, greater than every client key).
            if is_dead(parent_edge) {
                continue 'restart;
            }
            let cslot = pool.acquire();
            // SAFETY: [INV-01] leaf protected under lslot.
            let mut current_edge =
                h.read(&unsafe { leaf.node.deref() }.data().left, cslot as usize);
            let mut current = Prot { node: current_edge.unmarked(), slot: Some(cslot) };

            while !current.node.is_null() {
                h.record_node_traversed();
                if parent_edge.mark() & TAG == 0 {
                    pool.assign(&mut ancestor, parent);
                    pool.assign(&mut successor, leaf);
                    successor_edge = parent_edge;
                }
                pool.assign(&mut parent, leaf);
                pool.assign(&mut leaf, current);
                parent_edge = current_edge;

                // SAFETY: [INV-01] current protected under its slot.
                let cur_node = unsafe { current.node.deref() }.data();
                let next_slot = pool.acquire();
                let next_edge = if key < cur_node.key {
                    h.update_upper_bound(current.node);
                    h.read(&cur_node.left, next_slot as usize)
                } else {
                    h.update_lower_bound(current.node);
                    h.read(&cur_node.right, next_slot as usize)
                };
                current_edge = next_edge;
                let next = Prot { node: next_edge.unmarked(), slot: Some(next_slot) };
                pool.release(current);
                current = next;
            }
            // A severed (dead) edge unmarks to null and ends the descent
            // here: the node we stood on was detached and retired, so the
            // record is garbage. Start over.
            if is_dead(current_edge) {
                continue 'restart;
            }
            pool.release(current);
            return SeekRecord {
                ancestor,
                successor,
                parent,
                leaf,
                successor_edge,
                leaf_edge: parent_edge,
            };
        }
    }

    /// The cleanup routine (Natarajan–Mittal): given a seek record whose
    /// parent has a flagged child edge, tag the sibling edge and swing the
    /// ancestor's edge from the successor to the sibling — detaching the
    /// parent, the deleted leaf, and any chained tagged region. The swing
    /// winner retires the whole detached region exactly once.
    ///
    /// Returns true iff this call performed the swing.
    // PROTECTION: caller — runs inside the caller's start_op span; all seek
    // record roles stay protected under their slots until the next seek.
    fn cleanup(&self, h: &mut S::Handle, key: u64, sr: &SeekRecord<V>) -> bool {
        // SAFETY: [INV-01] all record roles are protected (or sentinels).
        let parent_node = unsafe { sr.parent.node.deref() }.data();
        let (child_field, sibling_field) = if key < parent_node.key {
            (&parent_node.left, &parent_node.right)
        } else {
            (&parent_node.right, &parent_node.left)
        };
        let mut sibling_field = sibling_field;
        let child_edge = child_field.load(Ordering::Acquire);
        if child_edge.mark() & FLAG == 0 {
            // The flag is on the other side: we are helping a deletion of
            // the sibling-side leaf.
            sibling_field = child_field;
        }
        // Tag the sibling edge — it can never change again.
        let prev = sibling_field.fetch_or_mark(TAG, Ordering::AcqRel);
        let sibling = prev.unmarked();
        // New ancestor edge: sibling subtree, FLAG preserved (the sibling
        // leaf may itself be under deletion), TAG cleared.
        let new_edge = sibling.with_mark(prev.mark() & FLAG);

        // SAFETY: [INV-01] ancestor protected by the seek record (or root).
        let ancestor_node = unsafe { sr.ancestor.node.deref() }.data();
        let anc_field = if key < ancestor_node.key {
            &ancestor_node.left
        } else {
            &ancestor_node.right
        };
        let expected = sr.successor_edge.unmarked();
        if anc_field
            .compare_exchange(expected, new_edge, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            // SAFETY: [INV-04] the swing detached the region rooted at
            // successor (minus the sibling subtree); we are its unique owner.
            unsafe { self.retire_region(h, sr.successor.node, sibling) };
            true
        } else {
            false
        }
    }

    /// Retires every node in the detached region: the tagged path from
    /// `region_root` down to the deletion parent plus the flagged leaves
    /// hanging off it — everything reachable without entering `keep`.
    ///
    /// Each node's outgoing edges are severed (overwritten with [`dead`])
    /// *before* the node is retired. The region's edges would otherwise be
    /// frozen forever, and a reader standing on a region node it protected
    /// in time could follow an unchanged edge to a child that was already
    /// reclaimed: hazard-style revalidation re-reads the edge and sees the
    /// same word, and an interval/era reservation admits any node whose
    /// birth its announced bound covers — both are only sound when retired
    /// nodes stop being reachable. Severing restores that: a reader whose
    /// protection landed before the sever is visible to every reclaimer
    /// scan that could free the child (the sever precedes the retire), and
    /// a reader that arrives after it reads [`dead`] and restarts.
    ///
    /// # Safety
    /// Must be called exactly once per successful cleanup swing, by the
    /// winning thread. The region is unreachable and its edges are all
    /// marked (immutable to every other writer).
    // SAFETY: [INV-11] unsafe fn: contract stated in `# Safety` above,
    // discharged at the single call site in `cleanup`.
    // PROTECTION: caller — the region is detached and we are its unique
    // retirer; its nodes cannot be reclaimed before the retires below.
    unsafe fn retire_region(
        &self,
        h: &mut S::Handle,
        region_root: Shared<Node<V>>,
        keep: Shared<Node<V>>,
    ) {
        let mut stack = vec![region_root.unmarked()];
        while let Some(n) = stack.pop() {
            if n.as_raw() == keep.as_raw() {
                continue; // the surviving sibling subtree
            }
            // SAFETY: [INV-01] region nodes cannot be reclaimed before *we*
            // retire them — we are the unique retirer.
            let node = unsafe { n.deref() }.data();
            let l = node.left.load(Ordering::Acquire);
            let r = node.right.load(Ordering::Acquire);
            node.left.store(dead(), Ordering::Release);
            node.right.store(dead(), Ordering::Release);
            if !l.is_null() {
                stack.push(l.unmarked());
            }
            if !r.is_null() {
                stack.push(r.unmarked());
            }
            // SAFETY: [INV-04] detached region: each node retired exactly
            // once by the unique swing winner (this fn's contract).
            unsafe { h.retire(n) };
        }
    }

    /// In-order key collection. Requires `&mut self`: callers must be
    /// quiescent (no concurrent operations), which exclusive access
    /// enforces statically. Test/diagnostic helper.
    // PROTECTION: quiescent — `&mut self` rules out concurrent operations,
    // so derefs need no pin span.
    pub fn collect_quiescent(&mut self) -> Vec<u64> {
        let mut out = Vec::new();
        // SAFETY: [INV-03] exclusive access; no mutation in flight.
        let s_node = unsafe { self.s.deref() }.data();
        let sub = s_node.left.load(Ordering::Acquire);
        let mut stack = vec![sub.unmarked()];
        while let Some(n) = stack.pop() {
            if n.is_null() {
                continue;
            }
            // SAFETY: [INV-03] exclusive access; the tree is quiescent.
            let node = unsafe { n.deref() }.data();
            // ORDERING: reason = quiescent — `&mut self` enforces quiescence;
            // these loads have no concurrent writer to race with.
            let l = node.left.load(Ordering::Relaxed);
            let r = node.right.load(Ordering::Relaxed); // ORDERING: reason = quiescent — as above.
            if l.is_null() && r.is_null() {
                if node.key < INF0 {
                    out.push(node.key);
                }
            } else {
                stack.push(l.unmarked());
                stack.push(r.unmarked());
            }
        }
        out.sort_unstable();
        out
    }

    /// Number of client keys (quiescent test helper).
    pub fn len_quiescent(&mut self) -> usize {
        self.collect_quiescent().len()
    }
}

impl<S: Smr, V: Send + Sync + Default + 'static> ConcurrentSet<S> for NmTree<S, V> {
    fn new(smr: &Arc<S>) -> Self {
        let mut h = smr.register();
        // Paper §5.3: ∞₀ gets MAX_INDEX; the other initial nodes USE_HP.
        let leaf0 = h.alloc_with_index(Node::leaf(INF0, V::default()), MAX_INDEX);
        let leaf1 = h.alloc_with_index(Node::leaf(INF1, V::default()), USE_HP);
        let leaf2 = h.alloc_with_index(Node::leaf(INF2, V::default()), USE_HP);
        let s = h.alloc_with_index(
            Node {
                key: INF1,
                value: V::default(),
                left: Atomic::new(leaf0),
                right: Atomic::new(leaf1),
            },
            USE_HP,
        );
        let root = h.alloc_with_index(
            Node {
                key: INF2,
                value: V::default(),
                left: Atomic::new(s),
                right: Atomic::new(leaf2),
            },
            USE_HP,
        );
        NmTree { root, s, smr: smr.clone() }
    }

    fn insert(&self, h: &mut S::Handle, key: u64) -> bool {
        self.insert_kv(h, key, V::default())
    }

    fn remove(&self, h: &mut S::Handle, key: u64) -> bool {
        self.remove_inner(h, key)
    }

    fn contains(&self, h: &mut S::Handle, key: u64) -> bool {
        h.start_op();
        let sr = self.seek(h, key);
        // SAFETY: [INV-01] leaf protected by the seek record.
        let found = unsafe { sr.leaf.node.deref() }.data().key == key;
        h.end_op();
        found
    }

    fn name() -> &'static str {
        "nmtree"
    }
}

impl<S: Smr, V: Send + Sync + 'static> NmTree<S, V> {
    /// Adds `key` mapped to `value`; returns `false` (dropping the nodes)
    /// if the key is already present. The map flavor of `insert`.
    pub fn insert_kv(&self, h: &mut S::Handle, key: u64, value: V) -> bool
    where
        V: Default, // internal routing nodes carry a placeholder value
    {
        assert!(key < INF0, "key space reserved for tree sentinels");
        h.start_op();
        let mut value = value;
        loop {
            let sr = self.seek(h, key);
            // SAFETY: [INV-01] leaf protected by the seek record.
            let leaf_node = unsafe { sr.leaf.node.deref() };
            let leaf_key = leaf_node.data().key;
            if leaf_key == key {
                h.end_op();
                return false;
            }
            // Allocate the new leaf with the search interval's midpoint
            // index, and give the routing internal the same index (they are
            // adjacent in key order).
            let new_leaf = h.alloc(Node::leaf(key, value));
            // SAFETY: [INV-02] just allocated, exclusively ours.
            let leaf_idx = unsafe { new_leaf.deref() }.index();
            let leaf_edge_clean = sr.leaf_edge.unmarked();
            let (lc, rc) =
                if key < leaf_key { (new_leaf, leaf_edge_clean) } else { (leaf_edge_clean, new_leaf) };
            let internal = h.alloc_with_index(
                Node {
                    key: key.max(leaf_key),
                    value: V::default(),
                    left: Atomic::new(lc),
                    right: Atomic::new(rc),
                },
                leaf_idx,
            );

            // SAFETY: [INV-01] parent protected by the seek record (or S).
            let parent_node = unsafe { sr.parent.node.deref() }.data();
            let edge =
                if key < parent_node.key { &parent_node.left } else { &parent_node.right };
            match edge.compare_exchange(
                leaf_edge_clean,
                internal,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    h.end_op();
                    return true;
                }
                Err(actual) => {
                    // SAFETY: [INV-03] never published; recover the value
                    // for the retry.
                    unsafe {
                        value = new_leaf.take_owned().value;
                        internal.drop_owned();
                    }
                    // If the edge still leads to our leaf but is marked, a
                    // deletion is pending there: help it finish.
                    if actual.as_raw() == sr.leaf.node.as_raw() && actual.mark() != 0 {
                        self.cleanup(h, key, &sr);
                    }
                }
            }
        }
    }

    /// Returns a copy of the value stored under `key`, if present; cloned
    /// while the leaf is protected.
    pub fn get(&self, h: &mut S::Handle, key: u64) -> Option<V>
    where
        V: Clone,
    {
        h.start_op();
        let sr = self.seek(h, key);
        // SAFETY: [INV-01] leaf protected by the seek record.
        let leaf = unsafe { sr.leaf.node.deref() }.data();
        let out = if leaf.key == key { Some(leaf.value.clone()) } else { None };
        h.end_op();
        out
    }

    fn remove_inner(&self, h: &mut S::Handle, key: u64) -> bool {
        h.start_op();
        let mut injected = false;
        let mut victim: Shared<Node<V>> = Shared::null();
        loop {
            let sr = self.seek(h, key);
            if !injected {
                // INJECTION mode: flag the parent→leaf edge.
                // SAFETY: [INV-01] record roles protected.
                let leaf_key = unsafe { sr.leaf.node.deref() }.data().key;
                if leaf_key != key {
                    h.end_op();
                    return false;
                }
                // SAFETY: [INV-01] parent protected by the seek record.
                let parent_node = unsafe { sr.parent.node.deref() }.data();
                let edge =
                    if key < parent_node.key { &parent_node.left } else { &parent_node.right };
                let expected = sr.leaf_edge.unmarked();
                match edge.compare_exchange(
                    expected,
                    expected.with_mark(FLAG),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => {
                        injected = true;
                        victim = sr.leaf.node;
                        if self.cleanup(h, key, &sr) {
                            h.end_op();
                            return true;
                        }
                    }
                    Err(actual) => {
                        if actual.as_raw() == sr.leaf.node.as_raw() && actual.mark() != 0 {
                            // Another operation is deleting this leaf: help.
                            self.cleanup(h, key, &sr);
                        }
                    }
                }
            } else {
                // CLEANUP mode: our flag is planted; finish (or observe that
                // a helper finished) the physical removal.
                if sr.leaf.node.as_raw() != victim.as_raw() {
                    h.end_op();
                    return true; // a helper completed the removal
                }
                if self.cleanup(h, key, &sr) {
                    h.end_op();
                    return true;
                }
            }
        }
    }

}

impl<S: Smr, V> Drop for NmTree<S, V> {
    // PROTECTION: exclusive — `&mut self` in drop: no handle can still hold a
    // protected reference, so the walk needs no pin span.
    fn drop(&mut self) {
        // Exclusive access: free the whole tree.
        let mut stack = vec![self.root];
        while let Some(n) = stack.pop() {
            if n.is_null() {
                continue;
            }
            // SAFETY: [INV-03] exclusive during drop; nodes freed once
            // (tree shape: every node has a single parent edge).
            let node = unsafe { n.deref() }.data();
            // ORDERING: reason = exclusive — teardown under `&mut self` rules
            // out concurrent writers, so the Relaxed loads cannot race.
            stack.push(node.left.load(Ordering::Relaxed).unmarked());
            stack.push(node.right.load(Ordering::Relaxed).unmarked()); // ORDERING: reason = exclusive — as above.
            // SAFETY: [INV-03] exclusive access; each node freed exactly once.
            unsafe { n.drop_owned() };
        }
        let _ = &self.smr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_smr::schemes::{Ebr, He, Hp, Ibr, Mp};
    use mp_smr::Config;

    fn cfg() -> Config {
        Config::default().with_max_threads(8).with_empty_freq(4).with_epoch_freq(8)
    }

    #[test]
    fn node_size_is_pinned() {
        assert_eq!(crate::node_bytes::<Node>(), 48, "header 24 + key 8 + two children 16");
    }

    fn smoke<S: Smr>() {
        let smr = S::new(cfg());
        let mut tree: NmTree<S> = NmTree::new(&smr);
        let mut h = smr.register();
        assert!(!tree.contains(&mut h, 10));
        for k in [10u64, 5, 20, 1, 7, 15, 30] {
            assert!(tree.insert(&mut h, k), "insert {k}");
        }
        assert!(!tree.insert(&mut h, 10));
        for k in [10u64, 5, 20, 1, 7, 15, 30] {
            assert!(tree.contains(&mut h, k), "contains {k}");
        }
        assert!(!tree.contains(&mut h, 2));
        assert!(tree.remove(&mut h, 5));
        assert!(!tree.remove(&mut h, 5));
        assert!(!tree.contains(&mut h, 5));
        drop(h);
        assert_eq!(tree.collect_quiescent(), vec![1, 7, 10, 15, 20, 30]);
    }

    #[test]
    fn smoke_all_schemes() {
        smoke::<Mp>();
        smoke::<Hp>();
        smoke::<Ebr>();
        smoke::<He>();
        smoke::<Ibr>();
    }

    // PROTECTION: quiescent — single-threaded test; nothing is retired.
    #[test]
    fn initial_state_matches_figure_1() {
        let smr = Mp::new(cfg());
        let tree = NmTree::<Mp>::new(&smr);
        // SAFETY: [INV-12] test-controlled: quiescent, nothing retired.
        unsafe {
            let r = tree.root.deref();
            assert_eq!(r.data().key, INF2);
            let s = r.data().left.load(Ordering::Relaxed);
            assert_eq!(s.as_raw(), tree.s.as_raw());
            let s_node = s.deref();
            assert_eq!(s_node.data().key, INF1);
            let l0 = s_node.data().left.load(Ordering::Relaxed).deref();
            assert_eq!(l0.data().key, INF0);
            assert_eq!(l0.index(), MAX_INDEX, "∞₀ leaf gets MAX_INDEX (§5.3)");
            let l1 = s_node.data().right.load(Ordering::Relaxed).deref();
            assert_eq!(l1.data().key, INF1);
            assert_eq!(l1.index(), USE_HP);
            let l2 = r.data().right.load(Ordering::Relaxed).deref();
            assert_eq!(l2.data().key, INF2);
        }
    }

    #[test]
    fn sequential_model_check_mp() {
        use mp_util::RngExt;
        let smr = Mp::new(cfg());
        let mut tree: NmTree<Mp> = NmTree::new(&smr);
        let mut h = smr.register();
        let mut model = std::collections::BTreeSet::new();
        let mut rng = mp_util::rng();
        for _ in 0..4000 {
            let key = rng.random_range(0..128u64);
            match rng.random_range(0..3) {
                0 => assert_eq!(tree.insert(&mut h, key), model.insert(key), "insert {key}"),
                1 => assert_eq!(tree.remove(&mut h, key), model.remove(&key), "remove {key}"),
                _ => assert_eq!(
                    tree.contains(&mut h, key),
                    model.contains(&key),
                    "contains {key}"
                ),
            }
        }
        drop(h);
        assert_eq!(tree.collect_quiescent(), model.iter().copied().collect::<Vec<_>>());
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
    fn concurrent_stress_he() {
        concurrent_stress::<He>();
    }

    fn concurrent_stress<S: Smr>() {
        use mp_util::RngExt;
        let smr = S::new(cfg());
        let tree = Arc::new(NmTree::<S>::new(&smr));
        std::thread::scope(|s| {
            for t in 0..4usize {
                let tree = tree.clone();
                let smr = smr.clone();
                s.spawn(move || {
                    let mut h = smr.register();
                    let mut rng = mp_util::rng();
                    for i in 0..2500usize {
                        let key = rng.random_range(0..64u64);
                        match (i + t) % 3 {
                            0 => {
                                tree.insert(&mut h, key);
                            }
                            1 => {
                                tree.remove(&mut h, key);
                            }
                            _ => {
                                tree.contains(&mut h, key);
                            }
                        }
                    }
                });
            }
        });
        let mut tree = Arc::into_inner(tree).expect("all workers joined");
        let keys = tree.collect_quiescent();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "sorted, duplicate-free");
    }

    #[test]
    fn delete_then_reinsert_same_key() {
        let smr = Mp::new(cfg());
        let mut tree: NmTree<Mp> = NmTree::new(&smr);
        let mut h = smr.register();
        for round in 0..50 {
            assert!(tree.insert(&mut h, 42), "round {round}");
            assert!(tree.remove(&mut h, 42), "round {round}");
        }
        assert!(!tree.contains(&mut h, 42));
        drop(h);
        assert!(tree.collect_quiescent().is_empty());
    }
}
