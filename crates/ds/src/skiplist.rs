//! Fraser's nonblocking skip list (2004), paper §5.2.
//!
//! The skip list is a tower of Michael-style sorted linked lists, ordered
//! by containment: every node is linked at level 0, and each higher level
//! skips geometrically more nodes. `find` navigates top-down, producing
//! per-level `(pred, succ)` pairs; `insert` links bottom-up; `remove` marks
//! every level's next pointer top-down, and the later of the level-0 mark's
//! winner and the node's inserter (the retire handshake,
//! `second_to_finish`, on the node header's client flag) physically
//! unlinks it (via repeated `find`) and retires it.
//!
//! A node carries exactly as many forward pointers as its tower is tall:
//! they are the node's *tail* ([`SmrHandle::alloc_with_tail`]), allocated
//! in the same block right after the payload, so a one-level node
//! is 24 bytes, a two-level one 32, and only a full-height one 96. Towers
//! are drawn at p = 1/4 (Pugh's choice, as in LevelDB and Redis), so a node
//! carries 4/3 links on average and the expected node is 26.7 bytes, under
//! HE, IBR and DTA too, which keep their birth in the header's stamp; MP,
//! which reads an index as well, adds a birth word to each, 34.7 bytes.
//! The sentinels are the same type with a tail of [`MAX_HEIGHT`].
//!
//! MP integration (§5.2): searches update the MP search interval exactly as
//! in the single list — each rightward step updates the lower bound, each
//! descent point updates the upper bound. The paper budgets two MPs per
//! level, re-reading `curr` into the `pred` slot on every step right; this
//! implementation rotates *three* slots per level (pred / curr / next
//! change roles instead, so each traversed node costs one protected read,
//! not two) and keeps one scratch slot for `remove`'s re-reads of the
//! victim's tower: [`SLOTS_NEEDED`] `= 3 · MAX_HEIGHT + 1`.
//!
//! A search protects a node only before dereferencing it. At a descent
//! point `find` needs only the mark bit of the node's successor link, so it
//! tests it with a plain load; the protected read is taken only to step
//! right or to splice a marked node. A mark is permanent — a marked link is
//! never re-pointed, and every CAS on a link expects an unmarked word — so
//! the plain load decides what the protected read would have.
//!
//! Descent prefetch: at each `curr`, before its key is compared, `find`
//! prefetches both nodes the next step may land on ([`Shared::prefetch`]:
//! block start plus the link that step reads) — the successor at this
//! level, and the first node after `pred` one level down. A prefetch reads
//! nothing, so it needs no protection; either node is still taken by a
//! protected `read` before it is dereferenced.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use mp_smr::node::MAX_INDEX;
use mp_smr::{Shared, Smr, SmrHandle, SmrNode, Telemetry};

use crate::ConcurrentSet;

/// Maximum tower height. With p = 1/4, level occupancy quarters per level,
/// so 10 levels cover 4¹⁰ ≈ 10⁶ keys, twice the paper's 500 K-element
/// experiments.
pub const MAX_HEIGHT: usize = 10;

/// Protection slots a skip-list operation may use: three per level
/// (rotating pred/curr/next roles, so each traversed node costs exactly one
/// protected read) plus a scratch slot for `remove`'s re-reads.
pub const SLOTS_NEEDED: usize = 3 * MAX_HEIGHT + 1;

/// Deleted-bit on a level's next pointer.
const DELETED: u64 = 0b01;

/// Scratch slot for transient next-pointer reads outside `find`.
const SCRATCH: usize = 3 * MAX_HEIGHT;

/// The three rotating slots of `level`.
#[inline]
fn slot(level: usize, role: usize) -> usize {
    3 * level + role
}

/// Skip-list node payload: immutable key and optional value. The tower of
/// links is the node's tail, as long as the node is tall, and the retire
/// handshake's flag is the node header's (`second_to_finish`).
pub struct Node<V = ()> {
    key: u64,
    value: V,
}

/// The retire handshake (Fraser's `check_for_full_delete`). A removed node
/// may be unlinked for good and retired only once its inserter has stopped
/// linking it: an inserter that read a level's forward pointer as unmarked
/// can still link that level after the remover has marked every level and
/// run an unlinking `find`, and a node retired before that link would be
/// reachable again with no scheme protecting its new readers. So both
/// parties call this when they are done — the inserter after
/// `link_upper_levels`, the remover after the level-0 mark — and only the
/// second caller (`true`) unlinks and retires; the first leaves the node,
/// marked, to it. The flag is the header's client flag
/// ([`SmrNode::raise_flag`], an `AcqRel` read-modify-write). A one-level
/// node has no upper levels to link, so its inserter is done at birth and
/// never calls this: its remover is second without asking.
fn second_to_finish<V>(node: &SmrNode<Node<V>>, height: usize) -> bool {
    height == 1 || node.raise_flag()
}

/// Fraser's lock-free skip-list set.
///
/// ```
/// use mp_smr::{Config, Smr, schemes::Mp};
/// use mp_ds::{ConcurrentSet, SkipList, skiplist::SLOTS_NEEDED};
///
/// let smr = Mp::new(Config { slots_per_thread: SLOTS_NEEDED, ..Config::default() });
/// let sl = SkipList::<Mp>::new(&smr);
/// let mut h = smr.register();
/// assert!(sl.insert(&mut h, 3));
/// assert!(sl.contains(&mut h, 3));
/// assert!(sl.remove(&mut h, 3));
/// ```
pub struct SkipList<S: Smr, V = ()> {
    head: Shared<Node<V>>,
    tail: Shared<Node<V>>,
    smr: Arc<S>,
}

// SAFETY: [INV-07] all node access goes through `Shared`/`Atomic` words under
// an SMR handle, and the payload type is required `Send + Sync`.
unsafe impl<S: Smr, V: Send + Sync> Send for SkipList<S, V> {}
// SAFETY: [INV-07] see above.
unsafe impl<S: Smr, V: Send + Sync> Sync for SkipList<S, V> {}

/// Per-level predecessor/successor pairs produced by `find`. Each level's
/// pair stays protected by that level's slots until the next `find` or
/// `end_op`.
struct FindResult<V> {
    preds: [Shared<Node<V>>; MAX_HEIGHT],
    succs: [Shared<Node<V>>; MAX_HEIGHT],
    found: bool,
}

/// `key`'s tower height, geometric with p = 1/4: one plus one level per two
/// trailing ones of the key's splitmix64 hash, capped at [`MAX_HEIGHT`]. A
/// function of the key alone, so one key stream builds the same towers on
/// every run, on every thread and under every scheme.
pub fn random_height(key: u64) -> usize {
    let mut z = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    ((z.trailing_ones() as usize) / 2 + 1).min(MAX_HEIGHT)
}

impl<S: Smr, V: Send + Sync + 'static> SkipList<S, V> {
    /// Top-down search. Returns protected per-level (pred, succ) pairs with
    /// `pred.key < key ≤ succ.key` at every level, splicing marked nodes
    /// encountered along the way. Maintains the MP search interval across
    /// the whole descent (§5.2).
    // PROTECTION: caller — find runs inside the caller's start_op/end_op
    // span; every deref below is of a slot-protected read made in this op.
    fn find(&self, h: &mut S::Handle, key: u64) -> FindResult<V> {
        'retry: loop {
            let mut preds = [self.head; MAX_HEIGHT];
            let mut succs = [self.tail; MAX_HEIGHT];
            // pred enters each level protected either as a sentinel or by an
            // upper level's slot, which lower levels never overwrite.
            let mut pred = self.head;
            for level in (0..MAX_HEIGHT).rev() {
                // Three-slot rotation (as in the list seek): one protected
                // read per node stepped onto. Each level owns its three slots,
                // so the recorded (pred, succ) pair stays protected while
                // lower levels — and the caller — do further reads.
                let (mut pred_s, mut curr_s, mut next_s) =
                    (slot(level, 0), slot(level, 1), slot(level, 2));
                // SAFETY: [INV-01] pred is protected (sentinel or upper-level
                // slot); [INV-15] it is linked at `level`, so taller than it.
                let mut pred_next = unsafe { pred.tail() };
                let mut curr = h.read(&pred_next[level], curr_s);
                if curr.mark() != 0 {
                    continue 'retry; // pred deleted under us
                }
                loop {
                    h.record_node_traversed();
                    debug_assert!(!curr.is_null(), "tail bounds every level");
                    // SAFETY: [INV-01] curr protected under curr_s; [INV-15]
                    // reached through a level-`level` link, so taller than it.
                    let (curr_node, curr_next) = unsafe { (curr.deref().data(), curr.tail()) };
                    // Fetch both ways before the comparison picks one
                    // (module docs): right, the successor at this level;
                    // down, the first node after `pred` one level below.
                    let right = curr_next[level].load(Ordering::Acquire);
                    right.prefetch(level);
                    if level > 0 {
                        pred_next[level - 1].load(Ordering::Acquire).prefetch(level - 1);
                    }
                    // Descend: record this level's pair; its slots are never
                    // reused below this level or by the caller. The
                    // successor is only mark-checked, so the plain load
                    // above does (module docs).
                    if curr_node.key >= key && right.mark() == 0 {
                        h.update_upper_bound(curr);
                        preds[level] = pred;
                        succs[level] = curr;
                        break;
                    }
                    let next = h.read(&curr_next[level], next_s);
                    if next.mark() != 0 {
                        // curr deleted at this level: splice it out. The
                        // level-0 marker retires, not us.
                        let next_clean = next.unmarked();
                        if pred_next[level]
                            .compare_exchange(
                                curr,
                                next_clean,
                                Ordering::AcqRel,
                                Ordering::Acquire,
                            )
                            .is_err()
                        {
                            continue 'retry;
                        }
                        // next_clean (protected under next_s) becomes curr.
                        std::mem::swap(&mut curr_s, &mut next_s);
                        curr = next_clean;
                        continue;
                    }
                    // A descent point reaches the read only with a marked
                    // link, and a mark is never cleared: unmarked means
                    // advance right. Rotate roles, no extra read.
                    debug_assert!(curr_node.key < key, "a mark is never cleared");
                    h.update_lower_bound(curr);
                    pred = curr;
                    pred_next = curr_next;
                    curr = next;
                    let recycled = pred_s;
                    pred_s = curr_s;
                    curr_s = next_s;
                    next_s = recycled;
                }
            }
            let found = {
                // SAFETY: [INV-01] succs[0] protected by level 0's slot.
                unsafe { succs[0].deref() }.data().key == key
            };
            return FindResult { preds, succs, found };
        }
    }

    /// Links `new` at levels `1..height`, re-finding on interference.
    /// Returns once linking is complete or the node was concurrently
    /// removed. The mark check is only an early exit: a remover can mark
    /// the level right after it, and the `pred` CAS then links a marked
    /// node — which is why `new` is not unlinked and retired before its
    /// inserter's [`second_to_finish`].
    // PROTECTION: caller — runs inside the caller's start_op span; `new` is
    // the caller's own node, unretired until its `second_to_finish`, and
    // preds stay protected by the most recent find.
    fn link_upper_levels(
        &self,
        h: &mut S::Handle,
        new: Shared<Node<V>>,
        key: u64,
        mut r: FindResult<V>,
        height: usize,
    ) {
        let mut level = 1;
        while level < height {
            // SAFETY: [INV-01] no protected read needed: nobody retires
            // `new` before its inserter — our caller — has called
            // `second_to_finish` ([INV-04]); [INV-15] `level < height`, the
            // length `new` was allocated with.
            let new_next = unsafe { new.tail() };
            let cur_fwd = new_next[level].load(Ordering::Acquire);
            if cur_fwd.mark() != 0 {
                return; // concurrently removed; stop linking
            }
            let succ = r.succs[level];
            // Point our forward pointer at succ before exposing the level.
            if cur_fwd != succ
                && new_next[level]
                    .compare_exchange(cur_fwd, succ, Ordering::AcqRel, Ordering::Acquire)
                    .is_err()
            {
                return; // marked concurrently
            }
            #[cfg(test)]
            tests::pause(new.addr());
            // SAFETY: [INV-01] pred protected by the most recent find, which
            // recorded it at `level` ([INV-15]: so taller than it).
            let pred_next = unsafe { r.preds[level].tail() };
            if pred_next[level]
                .compare_exchange(succ, new, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                level += 1;
                continue;
            }
            // Interference: recompute the neighborhood and retry the level.
            r = self.find(h, key);
            if !r.found || r.succs[0] != new {
                return; // removed while linking
            }
        }
    }

    /// Physically unlinks the marked `victim` at every level it is linked
    /// at (`find` splices marked nodes). Compares identities — a same-key
    /// node may reappear.
    fn unlink(&self, h: &mut S::Handle, victim: Shared<Node<V>>, key: u64) {
        loop {
            let r = self.find(h, key);
            if !r.found || r.succs[0] != victim {
                break;
            }
        }
    }

    /// Adds `key` mapped to `value`; returns `false` (dropping the node)
    /// if the key is already present. The map flavor of `insert`.
    pub fn insert_kv(&self, h: &mut S::Handle, key: u64, value: V) -> bool {
        assert!(key < u64::MAX, "key space reserved for the tail sentinel");
        h.start_op();
        let height = random_height(key);
        let mut value = value;
        loop {
            let r = self.find(h, key);
            if r.found {
                h.end_op();
                return false;
            }
            // Midpoint index of the search interval find just maintained,
            // and a tower exactly as tall as the node.
            let new = h.alloc_with_tail(Node { key, value }, None, height);
            // SAFETY: [INV-03] not published yet; exclusively ours. [INV-15]
            // the zip stops at the `height` links just allocated.
            for (link, succ) in unsafe { new.tail() }.iter().zip(&r.succs) {
                // ORDERING: reason = owned-store — the node is unpublished;
                // the level-0 AcqRel CAS below is what publishes these stores.
                link.store(*succ, Ordering::Relaxed);
            }

            // Level-0 link is the linearization point.
            // SAFETY: [INV-01] preds are protected by find (or sentinels);
            // [INV-15] every node has a level 0.
            let pred0_next = unsafe { r.preds[0].tail() };
            if pred0_next[0]
                .compare_exchange(r.succs[0], new, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                // SAFETY: [INV-03] never published; exclusively ours.
                // Recover the value for the next attempt.
                value = unsafe { new.take_owned() }.value;
                continue;
            }
            self.link_upper_levels(h, new, key, r, height);
            // One-level nodes are born done (and may be retired by now):
            // only a tall node's inserter takes part in the handshake.
            // SAFETY: [INV-01] a tall node is not retired before this very
            // call returns ([INV-04]), so no protected read is needed.
            if height > 1 && second_to_finish(unsafe { new.deref() }, height) {
                // Removed while we were linking, and the remover is done
                // marking: it left the node to us.
                self.unlink(h, new, key);
                // SAFETY: [INV-04] marked at every level, unlinked after the
                // last link attempt, and `second_to_finish` returned `true`
                // to us alone — unique retirer.
                unsafe { h.retire(new) };
            }
            h.end_op();
            return true;
        }
    }

    /// Returns a copy of the value stored under `key`, if present; cloned
    /// while the node is protected.
    pub fn get(&self, h: &mut S::Handle, key: u64) -> Option<V>
    where
        V: Clone,
    {
        h.start_op();
        let r = self.find(h, key);
        let out = if r.found {
            // SAFETY: [INV-01] succs[0] protected by find until end_op.
            Some(unsafe { r.succs[0].deref() }.data().value.clone())
        } else {
            None
        };
        h.end_op();
        out
    }

    /// Collects all keys in order (test helper; not linearizable).
    pub fn collect(&self, h: &mut S::Handle) -> Vec<u64> {
        let mut out = Vec::new();
        h.start_op();
        let mut cursor = 0u64;
        loop {
            let r = self.find(h, cursor);
            // SAFETY: [INV-01] protected by find.
            let key = unsafe { r.succs[0].deref() }.data().key;
            if key == u64::MAX {
                break;
            }
            out.push(key);
            cursor = key + 1;
        }
        h.end_op();
        out
    }

    /// Number of live keys (test helper).
    pub fn len(&self, h: &mut S::Handle) -> usize {
        self.collect(h).len()
    }

    /// True if no client key is present (test helper).
    pub fn is_empty(&self, h: &mut S::Handle) -> bool {
        self.collect(h).is_empty()
    }
}

impl<S: Smr, V: Send + Sync + Default + 'static> ConcurrentSet<S> for SkipList<S, V> {
    fn new(smr: &Arc<S>) -> Self {
        let mut h = smr.register();
        // Sentinel indices per §5.2: head 0, tail MAX_INDEX.
        // Both are full-height towers; the tail sentinel's links stay null.
        let sentinel = |h: &mut S::Handle, key, index| {
            h.alloc_with_tail(Node { key, value: V::default() }, Some(index), MAX_HEIGHT)
        };
        let tail = sentinel(&mut h, u64::MAX, MAX_INDEX);
        let head = sentinel(&mut h, 0, 0);
        // SAFETY: [INV-03] head is unpublished until the constructor returns;
        // [INV-15] the loop visits the `MAX_HEIGHT` links it was given.
        for link in unsafe { head.tail() } {
            // ORDERING: reason = owned-store — head is unpublished until the
            // constructor returns; it is handed out via &self afterwards.
            link.store(tail, Ordering::Relaxed);
        }
        SkipList { head, tail, smr: smr.clone() }
    }

    fn insert(&self, h: &mut S::Handle, key: u64) -> bool {
        self.insert_kv(h, key, V::default())
    }
    fn remove(&self, h: &mut S::Handle, key: u64) -> bool {
        h.start_op();
        let r = self.find(h, key);
        if !r.found {
            h.end_op();
            return false;
        }
        let victim = r.succs[0];
        // SAFETY: [INV-01] victim protected by find: its level-0 slot is
        // untouched until the unlink pass, which only compares addresses.
        // [INV-15] the tower's own length is the height: levels 0 and `1..`.
        let (victim_node, victim_next) = unsafe { (victim.deref(), victim.tail()) };

        // Mark top-down, levels height-1 .. 1.
        for link in victim_next[1..].iter().rev() {
            loop {
                let next = h.read(link, SCRATCH);
                if next.mark() != 0 {
                    break;
                }
                if link
                    .compare_exchange(
                        next,
                        next.with_mark(DELETED),
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    )
                    .is_ok()
                {
                    break;
                }
            }
        }

        // The level-0 mark is the logical deletion; its winner retires.
        loop {
            let next = h.read(&victim_next[0], SCRATCH);
            if next.mark() != 0 {
                h.end_op();
                return false; // another thread won the deletion
            }
            if victim_next[0]
                .compare_exchange(
                    next,
                    next.with_mark(DELETED),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_ok()
            {
                break;
            }
        }

        #[cfg(test)]
        tests::pause(victim.addr());
        if second_to_finish(victim_node, victim_next.len()) {
            // The inserter is done (a one-level node's was at birth), so
            // nothing links the node again once this pass has unlinked it.
            // Otherwise the inserter, finishing second, does both.
            self.unlink(h, victim, key);
            // SAFETY: [INV-04] we won the level-0 mark, the inserter had
            // stopped linking before the unlink above, and
            // `second_to_finish` returned `true` to us alone — unique
            // retirer.
            unsafe { h.retire(victim) };
        }
        h.end_op();
        true
    }

    fn contains(&self, h: &mut S::Handle, key: u64) -> bool {
        h.start_op();
        let r = self.find(h, key);
        h.end_op();
        r.found
    }

    fn name() -> &'static str {
        "skiplist"
    }
}

impl<S: Smr, V> Drop for SkipList<S, V> {
    // PROTECTION: exclusive — `&mut self` in drop: no handle can still hold a
    // protected reference, so the walk needs no pin span.
    fn drop(&mut self) {
        // Exclusive access: walk level 0 and free everything.
        let mut curr = self.head;
        while !curr.is_null() {
            // SAFETY: [INV-03] exclusive during drop; each node freed once.
            // [INV-15] every node has a level 0.
            let links = unsafe { curr.tail() };
            // ORDERING: reason = exclusive — teardown under `&mut self` rules
            // out concurrent writers, so the Relaxed load cannot race.
            let next = links[0].load(Ordering::Relaxed).unmarked();
            // SAFETY: [INV-03] exclusive access; each node freed exactly once.
            unsafe { curr.drop_owned() };
            curr = next;
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
        Config {
            max_threads: 8,
            slots_per_thread: SLOTS_NEEDED,
            empty_freq: 4,
            epoch_freq: 8,
            ..Config::default()
        }
    }

    /// A paused thread's side of its two channels: the address of the node
    /// it is working on goes out, the go-ahead comes in.
    type Pause = (std::sync::mpsc::Sender<u64>, std::sync::mpsc::Receiver<()>);

    thread_local! {
        /// Armed only by the regression test below, on the thread to hold.
        static PAUSE: std::cell::RefCell<Option<Pause>> = const { std::cell::RefCell::new(None) };
    }

    /// The two pause points: in `link_upper_levels` between a level's mark
    /// check and its `pred` CAS, and in `remove` between the level-0 mark
    /// and the retire handshake. Fires once per arming.
    pub(super) fn pause(node_addr: u64) {
        if let Some((paused, resume)) = PAUSE.take() {
            paused.send(node_addr).unwrap();
            resume.recv().unwrap();
        }
    }

    /// Regression: an inserter that has read level 1 of its node as
    /// unmarked is held there while a remover marks every level; the
    /// inserter then links level 1. Whichever of the two finishes first,
    /// the node must end up unlinked at every level and retired once;
    /// retired early, it stays reachable at level 1 after reclamation.
    ///
    /// `remover_first`: the remover runs to completion (scan and handle
    /// drop included) while the inserter is held. Otherwise the remover is
    /// held in turn, just before its handshake, until the inserter has
    /// linked level 1 and finished.
    // PROTECTION: quiescent — the closing walk runs after both worker
    // threads joined; every other access goes through the set's own ops.
    fn removed_node_is_not_left_linked<S: Smr>(remover_first: bool) {
        use std::sync::atomic::AtomicU64;
        use std::sync::mpsc::channel;
        let smr = S::new(cfg());
        let sl = SkipList::<S>::new(&smr);
        let inserting = AtomicU64::new(0);
        let (ins_paused_tx, ins_paused_rx) = channel();
        let (ins_resume_tx, ins_resume_rx) = channel();
        let (rem_paused_tx, rem_paused_rx) = channel();
        let (rem_resume_tx, rem_resume_rx) = channel();
        let (smr_ref, sl, inserting) = (&smr, &sl, &inserting);
        let victim_addr = std::thread::scope(|s| {
            let remover = s.spawn(move || {
                let mut h = smr_ref.register();
                let addr =
                    ins_paused_rx.recv().expect("the inserter pauses on its first tall node");
                if !remover_first {
                    PAUSE.set(Some((rem_paused_tx, rem_resume_rx)));
                }
                let key = inserting.load(Ordering::Acquire);
                assert!(sl.remove(&mut h, key), "the paused node is already in the set");
                h.force_empty();
                drop(h); // drains: whatever this handle retired is now freed
                addr
            });
            let inserter = s.spawn(move || {
                let mut h = smr_ref.register();
                PAUSE.set(Some((ins_paused_tx, ins_resume_rx)));
                for key in 0.. {
                    inserting.store(key, Ordering::Release);
                    assert!(sl.insert(&mut h, key));
                    if PAUSE.with_borrow(Option::is_none) {
                        break; // that was the tall node
                    }
                }
                h.force_empty();
            });
            if remover_first {
                let addr = remover.join().unwrap();
                ins_resume_tx.send(()).unwrap();
                inserter.join().unwrap();
                addr
            } else {
                rem_paused_rx.recv().expect("the remover pauses before its handshake");
                ins_resume_tx.send(()).unwrap();
                inserter.join().unwrap();
                rem_resume_tx.send(()).unwrap();
                remover.join().unwrap()
            }
        });
        // Every handle is gone, so whatever was retired has been freed.
        // Walk each level comparing addresses before dereferencing.
        for level in 0..MAX_HEIGHT {
            // SAFETY: [INV-12] quiescent: both threads joined.
            let mut curr = unsafe { sl.head.tail() }[level].load(Ordering::Acquire);
            while curr != sl.tail {
                assert_ne!(curr.addr(), victim_addr, "removed node still linked at level {level}");
                assert_eq!(curr.mark(), 0);
                // SAFETY: [INV-12] quiescent, and not the removed node.
                curr = unsafe { curr.tail() }[level].load(Ordering::Acquire);
            }
        }
        assert_eq!(smr.retired_pending(), 0, "the removed node was retired and freed");
        let mut h = smr.register();
        let keys = sl.collect(&mut h);
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "sorted, duplicate-free");
    }

    #[test]
    fn removed_node_is_not_left_linked_hp_mp_ebr() {
        for remover_first in [true, false] {
            removed_node_is_not_left_linked::<Hp>(remover_first);
            removed_node_is_not_left_linked::<Mp>(remover_first);
            removed_node_is_not_left_linked::<Ebr>(remover_first);
        }
    }

    /// A node's block is as big as its tower is tall: header 8 + key 8 +
    /// 8 per level under HP, exactly — the pool's classes are a word apart,
    /// and the handshake flag lives in the header.
    #[test]
    fn node_size_is_pinned() {
        for (height, block) in [(1, 24), (2, 32), (3, 40), (4, 48), (MAX_HEIGHT, 96)] {
            let held = crate::retired_block_bytes(Node { key: 0, value: () }, height);
            assert_eq!(held, block, "height {height}");
        }
    }

    fn smoke<S: Smr>() {
        let smr = S::new(cfg());
        let sl: SkipList<S> = SkipList::new(&smr);
        let mut h = smr.register();
        assert!(sl.is_empty(&mut h));
        for k in [42u64, 7, 99, 3, 55] {
            assert!(sl.insert(&mut h, k));
        }
        assert!(!sl.insert(&mut h, 42));
        assert_eq!(sl.collect(&mut h), vec![3, 7, 42, 55, 99]);
        assert!(sl.contains(&mut h, 55));
        assert!(!sl.contains(&mut h, 56));
        assert!(sl.remove(&mut h, 42));
        assert!(!sl.remove(&mut h, 42));
        assert_eq!(sl.collect(&mut h), vec![3, 7, 55, 99]);
        assert_eq!(sl.len(&mut h), 4);
    }

    #[test]
    fn smoke_all_schemes() {
        smoke::<Mp>();
        smoke::<Hp>();
        smoke::<Ebr>();
        smoke::<He>();
        smoke::<Ibr>();
    }

    #[test]
    fn random_height_distribution() {
        // Consecutive keys, the worst stream for a weak hash.
        let mut counts = [0usize; MAX_HEIGHT + 1];
        for key in 0..16_384u64 {
            let ht = random_height(key);
            assert!((1..=MAX_HEIGHT).contains(&ht));
            assert_eq!(random_height(key), ht, "a key's height is fixed");
            counts[ht] += 1;
        }
        // p = 1/4 per level: 12 288, 3 072, 768, 192, … expected. Each
        // count is binomial: allow four standard deviations (σ ≈ 14 keys at
        // height 4, 55 at height 1).
        for (ht, want) in [(1, 12_288.0f64), (2, 3_072.0), (3, 768.0), (4, 192.0)] {
            let got = counts[ht] as f64;
            let sigma = (want * (1.0 - want / 16_384.0)).sqrt();
            assert!((got - want).abs() < 4.0 * sigma, "height {ht}: {got} keys, expected ≈ {want}");
        }
        // A tower carries 1 / (1 − p) = 4/3 links on average.
        let links: usize = counts.iter().enumerate().map(|(ht, &n)| ht * n).sum();
        let mean = links as f64 / 16_384.0;
        assert!((mean - 4.0 / 3.0).abs() < 0.05, "mean tower {mean:.3} links, expected ≈ 1.333");
    }

    #[test]
    fn sequential_model_check_mp() {
        let smr = Mp::new(cfg());
        let sl: SkipList<Mp> = SkipList::new(&smr);
        let model = crate::model_check(&sl, &smr, 128, 4000);
        assert_eq!(sl.collect(&mut smr.register()), model);
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
    fn concurrent_stress_ibr() {
        concurrent_stress::<Ibr>();
    }

    fn concurrent_stress<S: Smr>() {
        let smr = S::new(cfg());
        let sl = SkipList::<S>::new(&smr);
        crate::stress(&sl, &smr, 64, 2500);
        let mut h = smr.register();
        let keys = sl.collect(&mut h);
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "sorted, duplicate-free");
    }

    #[test]
    fn tall_and_short_towers_coexist() {
        let smr = Mp::new(cfg());
        let sl: SkipList<Mp> = SkipList::new(&smr);
        let mut h = smr.register();
        for k in 0..200u64 {
            assert!(sl.insert(&mut h, k));
        }
        for k in (0..200u64).step_by(2) {
            assert!(sl.remove(&mut h, k));
        }
        let expect: Vec<u64> = (1..200).step_by(2).collect();
        assert_eq!(sl.collect(&mut h), expect);
    }
}
