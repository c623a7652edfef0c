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
//! internal node it navigates — the two bolded `update_*_bound` lines. The
//! interval opens under the ∞₀ leaf, whose `MAX_INDEX` is every search's
//! first upper bound; the ∞₀ router under `S` is stepped through without
//! bounding anything.
//!
//! Router indices: a router routes at `key.max(leaf_key)` and carries the
//! index of the leaf with that key, so (inserts only) a new leaf's interval
//! is exactly the index gap between its key neighbours. Only a new minimum
//! ends its descent at the larger leaf; had its router taken the new leaf's
//! index, the next key between the two would meet the empty interval
//! (i, i) and be stamped `USE_HP`, with its router, high in the tree.
//!
//! Collisions: a key then collides only once its neighbours' gap has been
//! halved away, ~32 levels deep in the insertion-order BST: 0.0297 per
//! insert at 500 000 random keys (`setup_split -- 1 nmtree`), a rate that
//! varies severalfold with the key order. Routers carrying the new leaf's
//! index collide less (0.0118) because their early `USE_HP` routers bound
//! every search below them by `USE_HP`, read as `0xffff_ffff`: that key
//! range's intervals keep reaching the top of the index space instead of
//! running out, at the price of 1.20 hazard-fallback reads per insert
//! (0.17 with the rule above).
//!
//! Descent prefetch: at each internal node, as soon as its two child edges
//! are loaded and before its key is compared, `seek` prefetches both
//! children ([`Shared::prefetch`]: the block start and the line of link
//! `RIGHT`, since a 40-byte internal node — MP's, with its birth word —
//! can straddle a cache line; the 32-byte one of every other scheme never
//! does). Left
//! or right is a coin flip the branch predictor often loses, and without
//! the hint the next miss starts only once the key has arrived and the
//! branch has resolved. A prefetch reads nothing, so it needs no
//! protection; the child is still taken by a protected `read`.
//!
//! Layout: a node is `{ key, value }`, and the two child edges of an
//! *internal* node are its tail ([`SmrHandle::alloc_with_tail`] with two
//! links, `tail()[LEFT]` and `tail()[RIGHT]`), in the same block right
//! after the payload. A *leaf* is allocated with no tail, so half the
//! tree's nodes carry no child words at all: 16 bytes a leaf, 32 an
//! internal node (24 and 40 under MP, whose nodes alone add a birth word;
//! HE, IBR and DTA keep their birth in the header's stamp). "Is
//! this a leaf" is therefore "is its tail empty" — a
//! fact fixed at allocation — and the descent ends on the node that answers
//! yes, without reading a child edge of it.

use std::sync::Arc;
use std::sync::atomic::Ordering;

use mp_smr::node::{MAX_INDEX, USE_HP};
use mp_smr::{Shared, Smr, SmrHandle, Telemetry};

use crate::ConcurrentSet;

/// Edge mark: the leaf this edge points to is being deleted.
const FLAG: u64 = 0b01;
/// Edge mark: this edge is immutable (its tail node is being unlinked).
const TAG: u64 = 0b10;

/// Positions of an internal node's two child edges in its tail.
const LEFT: usize = 0;
const RIGHT: usize = 1;

/// A severed edge: null with both marks set — a combination no live edge
/// ever carries (every edge of a linked internal node holds a real pointer,
/// marked or not). `retire_region` overwrites every edge of a
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

/// Tree node payload. Only leaves carry meaningful values (internal nodes
/// route searches); only internal nodes carry child edges, as their tail.
pub struct Node<V = ()> {
    key: u64,
    value: V,
}

/// Allocates an internal node routing at `key` with both child edges set.
fn internal<H: SmrHandle, V: Send + Sync + Default>(
    h: &mut H,
    key: u64,
    index: u32,
    left: Shared<Node<V>>,
    right: Shared<Node<V>>,
) -> Shared<Node<V>> {
    let node = h.alloc_with_tail(Node { key, value: V::default() }, Some(index), 2);
    // SAFETY: [INV-03] not published yet; exclusively ours. [INV-15] the two
    // links just allocated.
    let links = unsafe { node.tail() };
    // ORDERING: reason = owned-store — the node is unpublished; the AcqRel
    // CAS that links it (or the constructor's return) publishes these stores.
    links[LEFT].store(left, Ordering::Relaxed);
    links[RIGHT].store(right, Ordering::Relaxed); // ORDERING: reason = owned-store — as above.
    node
}

/// The Natarajan–Mittal lock-free external BST set.
pub struct NmTree<S: Smr, V = ()> {
    /// Root routing node `R`; never removed.
    root: Shared<Node<V>>,
    /// Routing node `S` (= `R.left`); never removed.
    s: Shared<Node<V>>,
    /// The ∞₀ leaf, index `MAX_INDEX`: the rightmost leaf under `S`, never
    /// removed (no client key reaches it), so every search's upper bound.
    inf0: Shared<Node<V>>,
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
            // Every client key is below ∞₀, so the search interval opens
            // under the ∞₀ leaf's `MAX_INDEX` (§5.3); the descent narrows it.
            h.update_upper_bound(self.inf0);
            let pool = &mut SlotPool::new();
            let mut ancestor = Prot { node: self.root, slot: None };
            let mut successor = Prot { node: self.s, slot: None };
            let mut parent = Prot { node: self.s, slot: None };
            let lslot = pool.acquire();
            // parent (S) → leaf edge. S is never detached, so this edge is
            // never severed and always leads to a node.
            // SAFETY: [INV-01] S is a sentinel, never reclaimed; [INV-15] it
            // is internal.
            let mut parent_edge = h.read(&unsafe { self.s.tail() }[LEFT], lslot as usize);
            let mut leaf = Prot { node: parent_edge.unmarked(), slot: Some(lslot) };
            let mut successor_edge = parent_edge;

            // The subtree root under S always carries key ∞₀, greater than
            // every client key: the step through it is left unconditionally,
            // and it is no bound of the search interval.
            let mut under_s = true;
            loop {
                // SAFETY: [INV-01] leaf protected under its slot.
                let (leaf_node, leaf_links) =
                    unsafe { (leaf.node.deref().data(), leaf.node.tail()) };
                // Fetch both children before the comparison picks one
                // (module docs): a block start and link `RIGHT` each, since
                // an internal node can straddle a cache line. A leaf has no
                // links, so nothing is fetched below it.
                for link in leaf_links {
                    link.load(Ordering::Acquire).prefetch(RIGHT);
                }
                let side = if under_s || key < leaf_node.key { LEFT } else { RIGHT };
                h.record_node_traversed();
                if !under_s {
                    if side == LEFT {
                        h.update_upper_bound(leaf.node);
                    } else {
                        h.update_lower_bound(leaf.node);
                    }
                }
                under_s = false;
                // [INV-15] A node allocated without child edges is a leaf:
                // the descent ends on it.
                let Some(child_field) = leaf_links.get(side) else { break };
                let next_slot = pool.acquire();
                let next_edge = h.read(child_field, next_slot as usize);
                // A severed (dead) edge: the node we stand on was detached
                // and retired, so the record is garbage. Start over.
                if is_dead(next_edge) {
                    continue 'restart;
                }
                let next = Prot { node: next_edge.unmarked(), slot: Some(next_slot) };
                if parent_edge.mark() & TAG == 0 {
                    pool.assign(&mut ancestor, parent);
                    pool.assign(&mut successor, leaf);
                    successor_edge = parent_edge;
                }
                pool.assign(&mut parent, leaf);
                pool.assign(&mut leaf, next);
                pool.release(next);
                parent_edge = next_edge;
            }
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
        // SAFETY: [INV-01] all record roles are protected (or sentinels);
        // [INV-15] the parent role is a node the seek stepped through, so
        // internal.
        let (parent_node, parent_links) =
            unsafe { (sr.parent.node.deref().data(), sr.parent.node.tail()) };
        let (child_field, sibling_field) = if key < parent_node.key {
            (&parent_links[LEFT], &parent_links[RIGHT])
        } else {
            (&parent_links[RIGHT], &parent_links[LEFT])
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

        // SAFETY: [INV-01] ancestor protected by the seek record (or root);
        // [INV-15] stepped through by the seek, so internal.
        let (ancestor_node, ancestor_links) =
            unsafe { (sr.ancestor.node.deref().data(), sr.ancestor.node.tail()) };
        let anc_field = &ancestor_links[if key < ancestor_node.key { LEFT } else { RIGHT }];
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
    /// Each node's outgoing edges — an internal node's two, a leaf's none —
    /// are severed (overwritten with [`dead`])
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
            // retire them — we are the unique retirer. [INV-15] the loop
            // visits the edges the node has.
            for edge in unsafe { n.tail() } {
                let child = edge.load(Ordering::Acquire);
                debug_assert!(!child.is_null(), "only this walk severs, once per node");
                edge.store(dead(), Ordering::Release);
                stack.push(child.unmarked());
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
        let sub = unsafe { self.s.tail() }[LEFT].load(Ordering::Acquire);
        let mut stack = vec![sub.unmarked()];
        while let Some(n) = stack.pop() {
            // SAFETY: [INV-03] exclusive access; the tree is quiescent.
            let (node, links) = unsafe { (n.deref().data(), n.tail()) };
            if links.is_empty() && node.key < INF0 {
                out.push(node.key);
            }
            for link in links {
                // ORDERING: reason = quiescent — `&mut self` enforces quiescence;
                // this load has no concurrent writer to race with.
                stack.push(link.load(Ordering::Relaxed).unmarked());
            }
        }
        out.sort_unstable();
        out
    }
}

impl<S: Smr, V: Send + Sync + Default + 'static> ConcurrentSet<S> for NmTree<S, V> {
    fn new(smr: &Arc<S>) -> Self {
        let mut h = smr.register();
        // Paper §5.3: ∞₀ gets MAX_INDEX; the other initial nodes USE_HP.
        let mut leaf = |key, index| h.alloc_with_index(Node { key, value: V::default() }, index);
        let (leaf0, leaf1, leaf2) = (leaf(INF0, MAX_INDEX), leaf(INF1, USE_HP), leaf(INF2, USE_HP));
        let s = internal(&mut h, INF1, USE_HP, leaf0, leaf1);
        let root = internal(&mut h, INF2, USE_HP, s, leaf2);
        NmTree { root, s, inf0: leaf0, smr: smr.clone() }
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
            // index. The router routes at `key.max(leaf_key)` and takes
            // the index of the leaf carrying that key (module docs).
            let new_leaf = h.alloc(Node { key, value });
            let leaf_edge_clean = sr.leaf_edge.unmarked();
            let (lc, rc, router_idx) = if key < leaf_key {
                (new_leaf, leaf_edge_clean, leaf_node.index())
            } else {
                // SAFETY: [INV-02] just allocated, exclusively ours.
                (leaf_edge_clean, new_leaf, unsafe { new_leaf.deref() }.index())
            };
            let router = internal(h, key.max(leaf_key), router_idx, lc, rc);

            // SAFETY: [INV-01] parent protected by the seek record (or S);
            // [INV-15] the seek stepped through it, so it is internal.
            let (parent_node, parent_links) =
                unsafe { (sr.parent.node.deref().data(), sr.parent.node.tail()) };
            let edge = &parent_links[if key < parent_node.key { LEFT } else { RIGHT }];
            match edge.compare_exchange(
                leaf_edge_clean,
                router,
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
                        router.drop_owned();
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
        assert!(key < INF0, "key space reserved for tree sentinels");
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
                // SAFETY: [INV-01] parent protected by the seek record (or S);
                // [INV-15] the seek stepped through it, so it is internal.
                let (parent_node, parent_links) =
                    unsafe { (sr.parent.node.deref().data(), sr.parent.node.tail()) };
                let edge = &parent_links[if key < parent_node.key { LEFT } else { RIGHT }];
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
            // SAFETY: [INV-03] exclusive during drop; nodes freed once
            // (tree shape: every node has a single parent edge). [INV-15]
            // the loop visits the edges the node has.
            for link in unsafe { n.tail() } {
                // ORDERING: reason = exclusive — teardown under `&mut self` rules
                // out concurrent writers, so the Relaxed load cannot race.
                stack.push(link.load(Ordering::Relaxed).unmarked());
            }
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
        Config { max_threads: 8, empty_freq: 4, epoch_freq: 8, ..Config::default() }
    }

    /// A leaf is the bare node; an internal node adds its two child edges.
    #[test]
    fn node_size_is_pinned() {
        assert_eq!(crate::node_bytes::<Node>(), 16, "header 8 + key 8");
        for (tail_len, block) in [(0, 16), (2, 32)] {
            let held = crate::retired_block_bytes(Node { key: 0, value: () }, tail_len);
            assert_eq!(held, block, "{tail_len} links");
        }
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
            assert_eq!(tree.root.deref().data().key, INF2);
            let r_links = tree.root.tail();
            let s = r_links[LEFT].load(Ordering::Relaxed);
            assert_eq!(s.as_raw(), tree.s.as_raw());
            assert_eq!(s.deref().data().key, INF1);
            let s_links = s.tail();
            let l0 = s_links[LEFT].load(Ordering::Relaxed);
            assert_eq!(l0.deref().data().key, INF0);
            assert_eq!(l0.deref().index(), MAX_INDEX, "∞₀ leaf gets MAX_INDEX (§5.3)");
            let l1 = s_links[RIGHT].load(Ordering::Relaxed);
            assert_eq!(l1.deref().data().key, INF1);
            assert_eq!(l1.deref().index(), USE_HP);
            let l2 = r_links[RIGHT].load(Ordering::Relaxed);
            assert_eq!(l2.deref().data().key, INF2);
            assert_eq!((r_links.len(), s_links.len()), (2, 2), "R and S route");
            assert!([l0, l1, l2].iter().all(|l| l.tail().is_empty()), "leaves have no edges");
        }
    }

    /// The empty tree is where a search ends on a node it never stepped
    /// *from*: `S.left` is the tail-less ∞₀ leaf itself.
    #[test]
    fn empty_tree_operations_end_on_the_sentinel_leaf() {
        let smr = Hp::new(cfg());
        let mut tree: NmTree<Hp, u32> = NmTree::new(&smr);
        let mut h = smr.register();
        for round in 0..2 {
            assert!(!tree.contains(&mut h, 7), "round {round}");
            assert!(!tree.remove(&mut h, 7), "round {round}");
            assert_eq!(tree.get(&mut h, 7), None, "round {round}");
            // Back to empty through a real removal for the second round.
            assert!(tree.insert_kv(&mut h, 7, 70));
            assert_eq!(tree.get(&mut h, 7), Some(70));
            assert!(tree.remove(&mut h, 7));
        }
        drop(h);
        assert!(tree.collect_quiescent().is_empty());
    }

    /// Counts (leaves, internal nodes) reachable from the root, checking on
    /// the way that a node either routes — two links, both set, neither
    /// marked once the tree is quiescent — or has no link at all.
    // PROTECTION: quiescent — `&mut` tree: no operation in flight.
    fn shape<S: Smr>(tree: &mut NmTree<S>) -> (usize, usize) {
        let (mut leaves, mut internals) = (0, 0);
        let mut stack = vec![tree.root];
        while let Some(n) = stack.pop() {
            // SAFETY: [INV-12] quiescent walk over linked nodes.
            let links = unsafe { n.tail() };
            match links.len() {
                0 => leaves += 1,
                2 => internals += 1,
                len => panic!("a tree node with {len} links"),
            }
            for link in links {
                let child = link.load(Ordering::Acquire);
                assert!(!child.is_null() && child.mark() == 0, "edge {child:?} of a linked node");
                stack.push(child);
            }
        }
        (leaves, internals)
    }

    #[test]
    fn every_node_is_a_two_link_router_or_a_link_less_leaf() {
        use mp_util::RngExt;
        let smr = Mp::new(cfg());
        let mut tree: NmTree<Mp> = NmTree::new(&smr);
        assert_eq!(shape(&mut tree), (3, 2), "Figure 1");
        let mut h = smr.register();
        let mut model = std::collections::BTreeSet::new();
        let mut rng = mp_util::rng();
        for _ in 0..600 {
            let key = rng.random_range(0..256u64);
            assert_eq!(tree.insert(&mut h, key), model.insert(key));
        }
        for _ in 0..300 {
            let key = rng.random_range(0..256u64);
            assert_eq!(tree.remove(&mut h, key), model.remove(&key));
        }
        drop(h);
        assert_eq!(shape(&mut tree), (model.len() + 3, model.len() + 2));
        assert_eq!(tree.collect_quiescent(), model.iter().copied().collect::<Vec<_>>());
    }

    /// What a removal leaves behind for a reader still standing on the
    /// detached nodes: the parent's two edges are severed, and the leaf has
    /// no edge to sever — nothing leads out of the region.
    // PROTECTION: caller — the reader's handle stays inside its operation,
    // holding the seek record's slots, until the last deref below.
    #[test]
    fn removal_severs_the_parents_edges_and_a_leaf_has_none() {
        // No scan before the handles drop: the retired nodes stay allocated
        // whatever the scheme would have decided.
        let smr = Hp::new(Config { empty_freq: 1 << 20, ..cfg() });
        let tree: NmTree<Hp> = NmTree::new(&smr);
        let (mut reader, mut remover) = (smr.register(), smr.register());
        for key in [10u64, 5, 20] {
            assert!(tree.insert(&mut remover, key));
        }
        reader.start_op();
        let sr = tree.seek(&mut reader, 5);
        let (parent, leaf) = (sr.parent.node, sr.leaf.node);
        assert!(tree.remove(&mut remover, 5));
        assert_eq!(smr.retired_pending(), 2, "the parent and the leaf");
        // SAFETY: [INV-12] both nodes are protected by the reader's seek
        // record and, with scans held off, not reclaimed.
        unsafe {
            assert_eq!(leaf.deref().data().key, 5);
            assert!(leaf.tail().is_empty());
            let edges = parent.tail();
            assert_eq!(edges.len(), 2);
            assert!(edges.iter().all(|e| is_dead(e.load(Ordering::Acquire))));
        }
        reader.end_op();
        assert!(!tree.contains(&mut reader, 5));
        assert!(tree.contains(&mut reader, 10) && tree.contains(&mut reader, 20));
    }

    #[test]
    fn sequential_model_check_mp() {
        let smr = Mp::new(cfg());
        let mut tree: NmTree<Mp> = NmTree::new(&smr);
        let model = crate::model_check(&tree, &smr, 128, 4000);
        assert_eq!(tree.collect_quiescent(), model);
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
        let smr = S::new(cfg());
        let mut tree = NmTree::<S>::new(&smr);
        crate::stress(&tree, &smr, 64, 2500);
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
