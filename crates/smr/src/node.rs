//! Node allocation: the per-node SMR header and type-erased reclamation.
//!
//! Every node managed by an SMR scheme is allocated as an [`SmrNode<T>`]:
//! a one-word [`Header`] (48-bit stamp, 8-bit shape, 8-bit client flag)
//! followed by the client payload, then by the node's *tail*: an array of
//! [`Atomic<T>`] links whose length is chosen at allocation time (a
//! skip-list tower, an internal tree node's two child edges; empty for a
//! list node and a tree leaf). A node carries only the words its scheme
//! reads (the paper's Table 1). The stamp holds the one thing the scheme
//! reads of a node: the index (HP, EBR and Leaky read neither, and keep
//! the index there too) or, under the schemes that judge a retired node by
//! its lifetime and read no index (HE, IBR, DTA), the birth epoch. MP reads
//! both, so its nodes alone end in a *birth word* after the tail. No node
//! holds a retire epoch — that is known only once the node is retired, and
//! lives in the retired-list record for exactly that long. The header's
//! shape records the tail length and where the birth lives, and every
//! layout the block is handled under is derived from it ([INV-15]), so one
//! allocation and one free path serve every node. Retired nodes are stored
//! type-erased (the crate-private `Retired` record, which carries the
//! retire epoch the scans judge) so one retired list can hold nodes of any
//! client type.

use core::alloc::Layout;
use core::sync::atomic::{AtomicU8, AtomicUsize, Ordering};

use crate::packed::Atomic;
use crate::telemetry::{Counter, HandleTelemetry};

/// Reserved index meaning "protect this node with hazard pointers, not
/// margin pointers" (paper §4.3.2). Assigned on index collision.
pub const USE_HP: u32 = u32::MAX;

/// Start of the *USE_HP class*: any index whose top 16 bits are all ones
/// packs to the same 16-bit value as [`USE_HP`], so the `read` fast path
/// cannot distinguish it from a collision marker. The whole class is
/// therefore handled via hazard pointers (see DESIGN.md).
pub const USE_HP_CLASS_START: u32 = 0xffff_0000;

/// Maximal assignable index (the paper's `max_index`): the last index below
/// the `USE_HP` class, where the tail sentinels of the list, the skip list
/// and the NM-tree's `∞₀` leaf sit — margin-protected like any other node.
pub const MAX_INDEX: u32 = USE_HP_CLASS_START - 1;

/// True if `index` must be protected via the hazard-pointer fallback.
#[inline]
pub fn is_use_hp_class(index: u32) -> bool {
    index >= USE_HP_CLASS_START
}

/// Low six bits of [`Header`]'s shape: the tail length.
const TAIL_BITS: u8 = (1 << 6) - 1;

/// The longest tail a header's shape can record: 63 links (the skip list
/// needs 10, the NM-tree 2). A longer tail is refused at allocation, with
/// a panic, never clamped: a wrapped length would free the block in the
/// wrong size class.
pub const MAX_TAIL_LEN: usize = TAIL_BITS as usize;

/// The largest birth a header's 48-bit stamp holds. A later birth is
/// clamped to it: a stored birth is then never later than the true one, so
/// a clamped node is only ever protected longer, never freed early.
pub const STAMP_MAX: u64 = (1 << 48) - 1;

/// Where a node keeps its birth epoch: a fixed property of its scheme
/// (`Scheme::BIRTH`), recorded in the top two bits of the node's shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum BirthAt {
    /// Nowhere: the scheme judges no lifetime (HP, EBR, Leaky). The stamp
    /// holds the index.
    Nowhere = 0,
    /// In the header's stamp, clamped to [`STAMP_MAX`]: the scheme judges a
    /// lifetime and reads no index (HE, IBR, DTA).
    Stamp = 1 << 6,
    /// In a word after the tail: the scheme reads both (MP), and a 32-bit
    /// index and a birth do not fit beside the shape in one word.
    Word = 1 << 7,
}

/// The per-node SMR header: one word, whatever the scheme (paper Listing
/// 10's added `Node` fields, less the retire epoch, which is
/// `Retired::retire`, held only while the node is pending). A 48-bit
/// *stamp* holds what the scheme reads of a node: its index (MP, and the
/// schemes that read neither), or its birth epoch (HE, IBR, DTA). MP, which
/// reads both, keeps its birth in a word after the tail.
///
/// Its fields are this module's alone (the linter's forbidden-API pass
/// denies `.header.<field>` anywhere else): the shape decides what the
/// stamp holds and whether the birth word exists, so only the code that
/// reads the shape may read them.
#[repr(C, align(8))]
#[derive(Debug)]
pub struct Header {
    /// The stamp's low 32 bits: the whole index, or the birth's low half.
    stamp_lo: u32,
    /// The stamp's high 16 bits: 0 under an index, the birth's bits 32–47
    /// otherwise.
    stamp_hi: u16,
    /// The tail length in the low six bits ([`TAIL_BITS`]), a [`BirthAt`]
    /// on top: what the block's layout is derived from and what the stamp
    /// holds ([INV-15]). Written once by the allocation, immutable
    /// afterwards.
    shape: u8,
    /// The client flag: 0 at birth, raised once by
    /// [`SmrNode::raise_flag`], never lowered.
    flag: AtomicU8,
    /// Oracle canary: [`crate::oracle::CANARY_ALIVE`] while the node is
    /// live, [`crate::oracle::CANARY_RETIRED`] once retired, the poison
    /// value once reclaimed; validated by every `Shared::deref`. Atomic,
    /// because a correct reader may race the retire. Only present when the
    /// `oracle` feature is armed (every workspace test build), so a release
    /// build's header stays one word.
    #[cfg(feature = "oracle")]
    canary: core::sync::atomic::AtomicU64,
}

impl Header {
    #[inline]
    fn tail_len(&self) -> usize {
        usize::from(self.shape & TAIL_BITS)
    }

    #[inline]
    fn birth_at(&self) -> BirthAt {
        const STAMP: u8 = BirthAt::Stamp as u8;
        match self.shape & !TAIL_BITS {
            0 => BirthAt::Nowhere,
            STAMP => BirthAt::Stamp,
            _ => BirthAt::Word,
        }
    }

    /// The index, or 0 when the stamp holds a birth, so a packed pointer
    /// never carries birth bits.
    #[inline]
    fn index(&self) -> u32 {
        if self.birth_at() == BirthAt::Stamp {
            0
        } else {
            self.stamp_lo
        }
    }

    #[inline]
    fn stamp(&self) -> u64 {
        u64::from(self.stamp_lo) | u64::from(self.stamp_hi) << 32
    }
}

/// Canary validation for `Shared::deref`: reads the header through a raw
/// pointer (never materializing a reference to the possibly-poisoned
/// payload), panics on a reclaimed or wild pointee, and hands a retired
/// one to the oracle's deref check.
///
/// # Safety
/// `h` must point to memory that is still mapped — guaranteed for any node
/// the oracle has seen, since reclaimed nodes sit in quarantine.
#[cfg(feature = "oracle")]
// SAFETY: [INV-11] the mapped-memory obligation is stated in `# Safety`
// above and discharged by each caller (deref sites in packed.rs).
pub(crate) unsafe fn oracle_check_canary(h: *const Header) {
    // SAFETY: [INV-10] quarantined memory stays mapped until eviction, so
    // this header read is in-bounds even for an already-reclaimed node.
    let canary = unsafe { &(*h).canary };
    // ORDERING: reason = diagnostic — a reader racing the retire may see
    // either value, and both are right for it.
    let canary = canary.load(Ordering::Relaxed);
    match canary {
        crate::oracle::CANARY_ALIVE => {}
        crate::oracle::CANARY_RETIRED => crate::oracle::retired_deref(h as u64), // CAST-OK: the ledger records addresses as u64.
        _ => crate::oracle::uaf_panic(h as u64, canary),
    }
}

/// An SMR-managed node: header followed by the client payload.
///
/// `#[repr(C)]` guarantees the header is at offset 0, so a type-erased
/// `*mut Header` can be recovered from any `*mut SmrNode<T>`.
#[repr(C)]
pub struct SmrNode<T> {
    header: Header,
    data: T,
}

impl<T> SmrNode<T> {
    /// The client payload.
    #[inline]
    pub fn data(&self) -> &T {
        &self.data
    }

    /// The node's immutable MP index; 0 under a scheme whose stamp holds
    /// the birth instead (HE, IBR, DTA), which reads no index.
    #[inline]
    pub fn index(&self) -> u32 {
        self.header.index()
    }

    /// Raises the node's client flag and returns whether it was already
    /// raised. The flag starts lowered and is never lowered again, so of
    /// any number of callers exactly one — the first — gets `false`. The
    /// read-modify-write is `AcqRel`: a `true` caller sees everything the
    /// first caller did before raising it. What the flag means is the
    /// client's; the skip list's retire handshake is its one use.
    #[inline]
    pub fn raise_flag(&self) -> bool {
        self.header.flag.fetch_or(1, Ordering::AcqRel) != 0
    }
}

/// Live-allocation gauge: incremented on every SMR node allocation and
/// decremented on every reclamation. Lets tests assert leak-freedom and
/// benchmarks report resident nodes.
pub mod gauge {
    use super::*;

    pub(crate) static LIVE: AtomicUsize = AtomicUsize::new(0);

    /// Number of SMR nodes currently allocated and not yet reclaimed
    /// (linked + retired-pending), across all schemes in the process.
    pub fn live_nodes() -> usize {
        LIVE.load(Ordering::Acquire)
    }
}

/// The block behind a node with payload `T`, `tail_len` links and, if
/// `birth_word`, a birth word: its layout, and the birth word's offset (0
/// when there is none). The tail starts at `size_of::<SmrNode<T>>()`; the birth
/// word follows it, so a prefetch or a tail index computes the same
/// addresses with or without one.
#[inline]
fn block<T>(tail_len: usize, birth_word: bool) -> (Layout, usize) {
    // The tail's element type is fixed by the node type, so this pins
    // `Atomic`'s representation rather than a caller's choice: a wider
    // (more aligned) link would not start where `tail` looks for it, and
    // one with drop glue would leak, since frees drop the payload only.
    const {
        assert!(align_of::<Atomic<T>>() <= align_of::<SmrNode<T>>());
        assert!(!core::mem::needs_drop::<Atomic<T>>());
    }
    let tail = Layout::array::<Atomic<T>>(tail_len).expect("tail size overflows");
    let (mut layout, _) = Layout::new::<SmrNode<T>>().extend(tail).expect("node size overflows");
    let mut birth_at = 0;
    if birth_word {
        (layout, birth_at) = layout.extend(Layout::new::<u64>()).expect("node size overflows");
    }
    (layout.pad_to_align(), birth_at)
}

/// [`block`] for the node at `ptr`, read off its header.
///
/// # Safety
/// `ptr` must have come from [`alloc_node`] and its block must still be
/// mapped (allocated, or parked in the oracle's quarantine).
// SAFETY: [INV-11] obligation stated in `# Safety` above; every caller is
// in this module and holds the node it sizes.
#[inline]
unsafe fn block_of<T>(ptr: *const SmrNode<T>) -> (Layout, usize) {
    // SAFETY: [INV-15] the header is at offset 0 and was written by the
    // allocation, whose shape the block was sized from.
    let header = unsafe { &(*ptr).header };
    block::<T>(header.tail_len(), header.birth_at() == BirthAt::Word)
}

/// The tail of the node at `ptr`: the links its allocation placed after
/// the payload (none unless it asked for some).
///
/// # Safety
/// `ptr` must have come from [`alloc_node`] (so the header's shape is the
/// one the block was sized for) and the node must stay allocated for `'a`.
// SAFETY: [INV-11] obligation stated in `# Safety` above; `Shared::tail`
// forwards its own protection contract, the allocator owns the fresh node.
pub(crate) unsafe fn tail<'a, T>(ptr: *mut SmrNode<T>) -> &'a [Atomic<T>] {
    // SAFETY: [INV-15] the slice is built from the allocation's own pointer
    // (not from a `&T`, which covers the payload only), starts one
    // `SmrNode<T>` past it — aligned, per `block`'s assertions — and spans
    // the links that allocation sized and null-initialized.
    unsafe {
        let len = (*ptr).header.tail_len();
        // CAST-OK: the tail's element type is fixed by the node type.
        core::slice::from_raw_parts(ptr.add(1) as *const Atomic<T>, len)
    }
}

/// The birth epoch of the node at `ptr`, read from where its shape says
/// it lives — the stamp (clamped to [`STAMP_MAX`]) or the birth word — or
/// `None` if its scheme stamps none.
///
/// # Safety
/// Same as [`tail`].
// SAFETY: [INV-11] obligation stated in `# Safety` above; `Shared::birth`
// forwards its own protection contract.
pub(crate) unsafe fn birth<T>(ptr: *const SmrNode<T>) -> Option<u64> {
    // SAFETY: [INV-15] the shape says where the birth lives; a birth word,
    // if there is one, is where `block` places it, which is where the
    // allocation wrote it, inside the block and 8-aligned; header and word
    // are immutable from then on.
    unsafe {
        let header = &(*ptr).header;
        match header.birth_at() {
            BirthAt::Nowhere => None,
            BirthAt::Stamp => Some(header.stamp()),
            BirthAt::Word => Some(ptr.cast::<u8>().add(block_of(ptr).1).cast::<u64>().read()),
        }
    }
}

/// Allocates a tail-less node with the given payload whose birth lives
/// `at`: `index` is kept unless the stamp holds the birth, `birth` unless
/// it lives nowhere.
///
/// The block comes from the slab pool (`mp_util::pool`): a recycled block
/// of the node's size class when the thread's magazine or a chunk holds
/// one, a fresh carve otherwise.
pub(crate) fn alloc_node<T>(data: T, at: BirthAt, index: u32, birth: u64) -> *mut SmrNode<T> {
    alloc_node_tracked(data, at, index, birth, 0).0
}

/// Node allocation plus per-handle telemetry: counts the pool hit/miss
/// split (recycled block / fresh carve). Every `SmrHandle::alloc_with_tail`
/// routes here.
pub(crate) fn alloc_node_in<T>(
    data: T,
    at: BirthAt,
    index: u32,
    birth: u64,
    tail_len: usize,
    tele: &mut HandleTelemetry,
) -> *mut SmrNode<T> {
    let (ptr, from_pool) = alloc_node_tracked(data, at, index, birth, tail_len);
    tele.bump(if from_pool { Counter::PoolHits } else { Counter::PoolMisses });
    ptr
}

fn alloc_node_tracked<T>(
    data: T,
    at: BirthAt,
    index: u32,
    birth: u64,
    tail_len: usize,
) -> (*mut SmrNode<T>, bool) {
    assert!(tail_len <= MAX_TAIL_LEN, "tail length must fit the header's 6-bit field");
    let shape = tail_len as u8 | at as u8;
    let stamp = if at == BirthAt::Stamp { birth.min(STAMP_MAX) } else { u64::from(index) };
    let (layout, birth_at) = block::<T>(tail_len, at == BirthAt::Word);
    gauge::LIVE.fetch_add(1, Ordering::AcqRel);
    let (raw, from_pool) = mp_util::pool::alloc(layout);
    let ptr = raw as *mut SmrNode<T>; // CAST-OK: pool block served for exactly this node's layout.
    // SAFETY: [INV-08] `raw` is an exclusively owned block of the node's layout;
    // the writes fully initialize node, tail and birth word (recycled pool
    // blocks may hold stale or oracle-poisoned bytes, overwritten without
    // being read). [INV-15] the shape is written here, before anyone else
    // can see the node, and the links and the birth word are written
    // within the block sized from it.
    unsafe {
        ptr.write(SmrNode {
            header: Header {
                stamp_lo: stamp as u32,
                stamp_hi: (stamp >> 32) as u16,
                shape,
                flag: AtomicU8::new(0),
                #[cfg(feature = "oracle")]
                canary: core::sync::atomic::AtomicU64::new(crate::oracle::CANARY_ALIVE),
            },
            data,
        });
        let links = ptr.add(1) as *mut Atomic<T>; // CAST-OK: the tail's element type is fixed by the node type.
        for i in 0..tail_len {
            links.add(i).write(Atomic::null());
        }
        if at == BirthAt::Word {
            raw.add(birth_at).cast::<u64>().write(birth);
        }
    }
    #[cfg(feature = "oracle")]
    // SAFETY: [INV-15] the node was just initialized above and is still
    // exclusively owned; its birth is read back as every later reader sees it.
    crate::oracle::on_alloc(ptr as u64, unsafe { self::birth(ptr) }.unwrap_or(0)); // CAST-OK: shadow-table key; oracle tracks addresses as u64.
    (ptr, from_pool)
}

/// Poisons a node whose payload was just dropped or moved out — payload,
/// tail and birth word, so a stale tower read sees poison too — and parks
/// its block in the oracle quarantine (instead of returning it to the
/// allocator), so a later buggy dereference reads the poison canary
/// deterministically.
///
/// # Safety
/// Same contract as [`dealloc_node`].
#[cfg(feature = "oracle")]
// SAFETY: [INV-11] contract inherited from `dealloc_node` (see `# Safety`);
// each call site cites its own exclusive-ownership argument.
unsafe fn poison_and_quarantine<T>(ptr: *mut SmrNode<T>, layout: Layout) {
    // SAFETY: [INV-03] the reclaiming thread owns `ptr` exclusively (scan
    // approved it, per the caller's contract), so overwriting the bytes
    // races with nothing; [INV-15] `layout` is the block's own, so the fill
    // ends where the block does; [INV-10] the block then transfers to
    // quarantine, keeping it mapped for canary validation.
    unsafe {
        let after_header = core::mem::offset_of!(SmrNode<T>, data);
        core::ptr::write_bytes(
            // CAST-OK: byte-wise poison fill of everything past the header.
            (ptr as *mut u8).add(after_header),
            crate::oracle::POISON_BYTE,
            layout.size() - after_header,
        );
        (*ptr).header.canary.store(crate::oracle::CANARY_POISON, Ordering::Release);
        // CAST-OK: quarantine parks the block as untyped bytes + layout.
        crate::oracle::quarantine_node(ptr as *mut u8, layout);
    }
}

/// Frees a node. Without the oracle the block goes back to the thread-local
/// pool for recycling; with the oracle it is poisoned and quarantined first,
/// and only reaches the pool when evicted from quarantine (so UAF detection
/// is not weakened by recycling).
///
/// # Safety
/// `ptr` must have come from [`alloc_node`] and must not be accessed again.
// SAFETY: [INV-11] obligation stated in `# Safety` above; every caller
// (Retired::reclaim via dealloc_erased, tests) cites how it is met.
pub(crate) unsafe fn dealloc_node<T>(ptr: *mut SmrNode<T>) {
    // SAFETY: [INV-03] per this fn's contract the node is scan-approved and
    // never accessed again — the reclaiming thread has exclusive access. The
    // payload is dropped exactly once, here (the tail has no drop glue, see
    // `block`).
    unsafe { free_node(ptr, || core::ptr::drop_in_place(core::ptr::addr_of_mut!((*ptr).data))) }
}

/// Frees a node, returning its payload to the caller.
///
/// # Safety
/// Same as [`dealloc_node`].
// SAFETY: [INV-11] obligation stated in `# Safety` above, discharged at the
// call sites (failed-publication paths that still own the fresh node).
pub(crate) unsafe fn take_node<T>(ptr: *mut SmrNode<T>) -> T {
    // SAFETY: [INV-03] exclusive access per this fn's contract: the payload
    // is moved out exactly once, before the block is given up.
    unsafe { free_node(ptr, || core::ptr::read(core::ptr::addr_of!((*ptr).data))) }
}

/// The one free path: disposes of the payload through `take` (drop it, or
/// move it out), then gives the block up under the layout it was allocated
/// with — poisoned into quarantine with the oracle, straight back to the
/// pool without.
///
/// # Safety
/// Same as [`dealloc_node`]; `take` must leave the payload logically
/// uninitialized.
// SAFETY: [INV-11] obligation stated in `# Safety` above; the two callers
// are `dealloc_node` and `take_node`.
unsafe fn free_node<T, R>(ptr: *mut SmrNode<T>, take: impl FnOnce() -> R) -> R {
    gauge::LIVE.fetch_sub(1, Ordering::AcqRel);
    // SAFETY: [INV-03] exclusive access per this fn's contract, and no
    // access after the block is given up; [INV-15] the header's shape is
    // what the allocation sized the block from, so [INV-08] the pool gets
    // the block back under the layout class it was served for.
    unsafe {
        let (layout, _) = block_of(ptr);
        #[cfg(feature = "oracle")]
        crate::oracle::on_free(ptr as u64, birth(ptr).unwrap_or(0)); // CAST-OK: shadow-table key; oracle tracks addresses as u64.
        let out = take();
        #[cfg(feature = "oracle")]
        poison_and_quarantine(ptr, layout);
        #[cfg(not(feature = "oracle"))]
        mp_util::pool::dealloc(ptr as *mut u8, layout); // CAST-OK: pool stores free blocks as untyped bytes + layout.
        out
    }
}

/// Allocates an SMR node outside any handle, stamped with birth 0 the way
/// DTA stamps its own. For scheme-internal machinery only — e.g. the
/// replacement copies DTA's freezer splices into a list, whose birth its
/// next freeze reads; ordinary clients allocate through
/// [`crate::SmrHandle::alloc`].
pub fn alloc_bare<T>(data: T) -> *mut SmrNode<T> {
    alloc_node(data, BirthAt::Stamp, 0, 0)
}

/// Monomorphized eraser stored in [`Retired::drop_fn`].
///
/// # Safety
/// `ptr` must be the header of an `SmrNode<T>` of this exact `T` (recorded
/// at retire time), under [`dealloc_node`]'s contract.
// SAFETY: [INV-11] obligation stated above; Retired::reclaim's call site
// carries the scan-approval argument.
unsafe fn dealloc_erased<T>(ptr: *mut Header) {
    // SAFETY: [INV-09] header is at offset 0 of the #[repr(C)] node, so the
    // erased header pointer converts back to the `*mut SmrNode<T>` that
    // `Retired::new` erased; contract then forwards to `dealloc_node`.
    unsafe { dealloc_node(ptr as *mut SmrNode<T>) } // CAST-OK: [INV-09] pun, see SAFETY above.
}

/// A type-erased retired node, buffered until reclamation is safe.
pub(crate) struct Retired {
    pub(crate) ptr: *mut Header,
    /// The node's birth, wherever its shape keeps it; 0 for a node whose
    /// scheme stamps none (the schemes whose scans read this field always
    /// stamp one).
    pub(crate) birth: u64,
    pub(crate) retire: u64,
    /// Start stamp of the *operation* that unlinked and retired the node.
    /// `retire` can postdate the unlink arbitrarily (the remover may be
    /// preempted between its splice and its `retire` call); `op_start` is
    /// guaranteed ≤ the unlink time, which DTA's neutralization window
    /// depends on. Defaults to `retire` for schemes that don't need it.
    pub(crate) op_start: u64,
    pub(crate) index: u32,
    /// Bytes the node holds — the pool block it occupies, not only its
    /// header + payload — so the pending gauge counts what is held.
    bytes: u32,
    // SAFETY: [INV-11] unsafe fn *type*: the pointee-type obligation is
    // carried by `dealloc_erased`, the only value ever stored here.
    drop_fn: unsafe fn(*mut Header),
}

// SAFETY: [INV-07] a `Retired` is a plain word bundle; the raw pointer moves
// between threads (retiring thread's list → scheme orphan list) but is only
// dereferenced by `reclaim`, whose call sites carry the [INV-05] argument.
unsafe impl Send for Retired {}

impl Retired {
    /// Captures `ptr` for deferred reclamation, stamping `retire_epoch`.
    ///
    /// # Safety
    /// `ptr` must be a removed (unreachable) node retired exactly once.
    // SAFETY: [INV-11] obligation stated above; each scheme's `retire`
    // cites the winning unlink CAS ([INV-04]) at its call site.
    pub(crate) unsafe fn new<T>(ptr: *mut SmrNode<T>, retire_epoch: u64) -> Self {
        // SAFETY: [INV-04] the node is removed, so the retiring thread may
        // read it; [INV-15] its header and birth word are immutable.
        let (layout, birth, index) =
            unsafe { (block_of(ptr).0, birth(ptr).unwrap_or(0), (*ptr).header.index()) };
        let header = ptr as *mut Header; // CAST-OK: [INV-09] header-at-offset-0 pun.
        #[cfg(feature = "oracle")]
        {
            crate::oracle::on_retire(header as u64, birth);
            // SAFETY: [INV-10] the retiring thread may read the removed
            // node ([INV-04]), and the canary is atomic.
            unsafe { (*header).canary.store(crate::oracle::CANARY_RETIRED, Ordering::Release) };
        }
        let bytes = mp_util::pool::block_size(layout) as u32;
        Retired {
            ptr: header,
            birth,
            retire: retire_epoch,
            op_start: retire_epoch,
            index,
            bytes,
            drop_fn: dealloc_erased::<T>,
        }
    }

    /// Reclaims the node's memory.
    ///
    /// # Safety
    /// No thread may hold a protected reference to the node.
    // SAFETY: [INV-11] obligation stated above; every scheme's `empty()`
    // call site points at the scan that approved the node ([INV-05]).
    pub(crate) unsafe fn reclaim(self) {
        // SAFETY: [INV-05] caller's scan approved the node; `drop_fn` is the
        // monomorphized eraser recorded by `Retired::new` for this node.
        unsafe { (self.drop_fn)(self.ptr) };
    }

    /// The node address as a u64 (for comparison against hazard slots).
    #[inline]
    pub(crate) fn addr(&self) -> u64 {
        self.ptr as u64 // CAST-OK: compared against announced slot words, never decoded.
    }

    /// Bytes the node holds (its pool block), for the pending-bytes gauge.
    #[inline]
    pub(crate) fn bytes(&self) -> u32 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_is_at_offset_zero() {
        let node = alloc_node(0u128, BirthAt::Word, 9, 4);
        // SAFETY: [INV-12] node is live and owned by this test thread.
        assert_eq!(node as usize, unsafe { &(*node).header } as *const _ as usize);
        unsafe { dealloc_node(node) }; // SAFETY: [INV-12] unpublished, test-owned node.
    }

    /// Zero-cost-when-off witness: without the oracle feature the header
    /// is stamp, shape and client flag, one word exactly — an oracle field
    /// leaking onto the hot path, or a per-node field nothing reads, fails
    /// this at test time.
    #[cfg(not(feature = "oracle"))]
    #[test]
    fn header_is_one_word_without_the_oracle() {
        assert_eq!(core::mem::size_of::<Header>(), 8);
    }

    /// Counterpart: under the oracle the canary widens the header by one
    /// word, and a live node's canary reads back alive.
    #[cfg(feature = "oracle")]
    #[test]
    fn header_gains_exactly_one_canary_word_under_the_oracle() {
        assert_eq!(core::mem::size_of::<Header>(), 16);
        let node = alloc_node(7u32, BirthAt::Nowhere, 0, 0);
        // SAFETY: [INV-12] node is live and owned by this test thread.
        assert_eq!(unsafe { (*node).header.canary.load(Ordering::Relaxed) }, crate::oracle::CANARY_ALIVE);
        unsafe { dealloc_node(node) }; // SAFETY: [INV-12] unpublished, test-owned node.
    }

    #[test]
    fn gauge_tracks_alloc_and_free() {
        // Tests run in parallel, so only lower bounds are reliable here; the
        // exact end-to-end leak check lives in the `leak_check` integration
        // test, which runs alone in its own process.
        let a = alloc_node(vec![1u8, 2, 3], BirthAt::Nowhere, 1, 0);
        let b = alloc_node("hello".to_string(), BirthAt::Word, 2, 0);
        assert!(gauge::live_nodes() >= 2, "our two live nodes must be counted");
        // SAFETY: [INV-12] both nodes are unpublished and test-owned.
        unsafe {
            dealloc_node(a);
            dealloc_node(b);
        }
    }

    /// Through type erasure a node is freed as what it was allocated as —
    /// payload dropped once, block and gauge returned — whether or not it
    /// carries a tail or a birth word the erased `T` knows nothing about,
    /// and its record keeps what the stamp holds: the index, or the birth.
    #[test]
    fn retired_reclaims_through_type_erasure() {
        struct DropFlag(std::sync::Arc<AtomicUsize>);
        impl Drop for DropFlag {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::AcqRel);
            }
        }
        for tail_len in [0, 5] {
            for (at, birth, index) in
                [(BirthAt::Word, 3, 11), (BirthAt::Stamp, 3, 0), (BirthAt::Nowhere, 0, 11)]
            {
                let flag = std::sync::Arc::new(AtomicUsize::new(0));
                let node = alloc_node_tracked(DropFlag(flag.clone()), at, 11, 3, tail_len).0;
                let retired = unsafe { Retired::new(node, 8) }; // SAFETY: [INV-12] never published, retired once.
                assert_eq!((retired.birth, retired.index), (birth, index), "{at:?}");
                assert_eq!(retired.retire, 8);
                let block = block::<DropFlag>(tail_len, at == BirthAt::Word).0;
                assert_eq!(retired.bytes as usize, mp_util::pool::block_size(block));
                unsafe { retired.reclaim() }; // SAFETY: [INV-12] no other thread ever saw the node.
                assert_eq!(flag.load(Ordering::Acquire), 1, "payload Drop must run");
            }
        }
    }

    /// A retired node is counted as the block it holds — its size in the
    /// pool's word-sized classes, which for a node (a whole number of words)
    /// is its own size: 16 bytes for a header and a `u64`, whether or not
    /// the stamp holds a birth, 24 with a birth word (one more each with
    /// the oracle's canary). A tail counts in full, and so does the birth
    /// word.
    #[test]
    fn retired_bytes_are_the_block_held() {
        fn node_and_retired_bytes<T: Default>(tail_len: usize, at: BirthAt) -> (usize, usize) {
            let node = alloc_node_tracked(T::default(), at, 0, 1, tail_len).0;
            let retired = unsafe { Retired::new(node, 1) }; // SAFETY: [INV-12] never published, retired once.
            let bytes = retired.bytes() as usize;
            unsafe { retired.reclaim() }; // SAFETY: [INV-12] no other thread ever saw the node.
            let words = tail_len + usize::from(at == BirthAt::Word);
            (size_of::<SmrNode<T>>() + words * size_of::<Atomic<T>>(), bytes)
        }
        let sizes = [
            node_and_retired_bytes::<u64>(0, BirthAt::Nowhere),
            node_and_retired_bytes::<[u64; 2]>(0, BirthAt::Nowhere),
            node_and_retired_bytes::<u64>(1, BirthAt::Nowhere),
            node_and_retired_bytes::<u64>(20, BirthAt::Nowhere),
            node_and_retired_bytes::<u64>(0, BirthAt::Word),
            node_and_retired_bytes::<u64>(20, BirthAt::Word),
            node_and_retired_bytes::<u64>(0, BirthAt::Stamp),
            node_and_retired_bytes::<u64>(20, BirthAt::Stamp),
        ];
        for (node, bytes) in sizes {
            assert_eq!(bytes, node.next_multiple_of(mp_util::pool::CLASS_GRANULE));
        }
        assert!(sizes.contains(&(24, 24)), "{sizes:?}");
        assert_eq!(sizes[3].0 - sizes[0].0, 160, "twenty links are twenty words");
        assert_eq!(sizes[4].0 - sizes[0].0, 8, "a birth word is one word");
        assert_eq!(sizes[5].0 - sizes[3].0, 8, "with a tail too");
        assert_eq!((sizes[6], sizes[7]), (sizes[0], sizes[3]), "a stamped birth costs nothing");
    }

    /// The tail starts where the accessor says for any payload alignment,
    /// holds `tail_len` null links, and a length the header cannot hold is
    /// refused before anything is allocated.
    #[test]
    fn tail_is_null_links_past_the_payload() {
        #[repr(align(16))]
        #[derive(Default)]
        struct Wide(#[allow(dead_code)] u8);
        fn check<T: Default>(tail_len: usize, at: BirthAt) {
            let node = alloc_node_tracked(T::default(), at, 0, 5, tail_len).0;
            // SAFETY: [INV-12] node is live and owned by this test thread.
            let links = unsafe { tail(node) };
            assert_eq!(links.len(), tail_len);
            assert!(links.iter().all(|l| l.load(Ordering::Relaxed).is_null()));
            assert_eq!(links.as_ptr() as usize, node as usize + size_of::<SmrNode<T>>());
            unsafe { dealloc_node(node) }; // SAFETY: [INV-12] unpublished, test-owned node.
        }
        for at in [BirthAt::Nowhere, BirthAt::Stamp, BirthAt::Word] {
            check::<u8>(0, at);
            check::<u8>(3, at);
            check::<Wide>(3, at);
            check::<u8>(MAX_TAIL_LEN, at);
        }
        let too_long = || alloc_node_tracked(0u8, BirthAt::Word, 0, 0, MAX_TAIL_LEN + 1);
        let too_long = std::panic::catch_unwind(too_long);
        assert!(too_long.is_err(), "a wrapped length would free the block in the wrong class");
    }

    /// The birth reads back as written, for any payload alignment and tail,
    /// whatever the tail links hold, from a birth word or from the stamp; a
    /// node whose scheme stamps none reports none, and the index is 0 only
    /// where the stamp holds the birth.
    #[test]
    fn birth_word_sits_past_the_tail() {
        #[repr(align(16))]
        #[derive(Default)]
        struct Wide(#[allow(dead_code)] u8);
        fn check<T: Default>(tail_len: usize) {
            let born = STAMP_MAX - 7;
            let cases = [
                (BirthAt::Word, Some(born), 9),
                (BirthAt::Stamp, Some(born), 0),
                (BirthAt::Nowhere, None, 9),
            ];
            for (at, birth_read, index) in cases {
                let node = alloc_node_tracked(T::default(), at, 9, born, tail_len).0;
                // SAFETY: [INV-12] node is live and owned by this test thread.
                for link in unsafe { tail(node) } {
                    link.store(crate::Shared::from_word(u64::MAX), Ordering::Relaxed);
                }
                // SAFETY: [INV-12] as above.
                let (got, got_index) = unsafe { (birth(node), (*node).index()) };
                assert_eq!((got, got_index), (birth_read, index), "{at:?}, tail {tail_len}");
                unsafe { dealloc_node(node) }; // SAFETY: [INV-12] unpublished, test-owned node.
            }
        }
        for tail_len in [0, 1, 7] {
            check::<u8>(tail_len);
            check::<u64>(tail_len);
            check::<Wide>(tail_len);
        }
    }

    /// A stamped birth round-trips through `Shared::birth` as
    /// `min(birth, STAMP_MAX)`: exact up to the clamp, the clamp itself
    /// above it — never later than the true birth, and never spilling into
    /// the shape or the flag, so the index still reads 0 and the flag still
    /// starts lowered.
    #[test]
    fn a_stamped_birth_reads_back_clamped_to_48_bits() {
        for born in [0, STAMP_MAX - 1, STAMP_MAX, STAMP_MAX + 1, u64::MAX - 1] {
            let node = alloc_node_tracked(0u64, BirthAt::Stamp, 7, born, 2).0;
            // SAFETY: [INV-12] node is live and owned by this test thread.
            let shared = unsafe { crate::Shared::from_owned(node) };
            // SAFETY: [INV-12] as above.
            let (got, links) = unsafe { (shared.birth(), shared.tail().len()) };
            assert_eq!(got, Some(born.min(STAMP_MAX)), "birth {born:#x}");
            assert_eq!((shared.packed_index(), links), (0, 2), "birth {born:#x}");
            // SAFETY: [INV-12] as above.
            assert!(!unsafe { &*node }.raise_flag(), "birth {born:#x}");
            unsafe { dealloc_node(node) }; // SAFETY: [INV-12] unpublished, test-owned node.
        }
    }

    /// The client flag: lowered at birth, raised by the first caller, who
    /// alone sees `false`.
    #[test]
    fn the_first_raise_alone_finds_the_flag_lowered() {
        let node = alloc_node(0u64, BirthAt::Nowhere, 0, 0);
        // SAFETY: [INV-12] node is live and owned by this test thread.
        let node_ref = unsafe { &*node };
        assert!(!node_ref.raise_flag());
        assert!(node_ref.raise_flag());
        assert!(node_ref.raise_flag());
        unsafe { dealloc_node(node) }; // SAFETY: [INV-12] unpublished, test-owned node.
    }

    /// Pool recycling round-trip: a reclaimed node's block is served to the
    /// next same-class allocation on this thread, the live gauge balances,
    /// and the payload's drop glue runs exactly once per node lifetime
    /// (recycling must never re-drop or skip a payload). Without the oracle
    /// only — the oracle parks freed blocks in quarantine, so immediate
    /// reuse is deliberately impossible there.
    #[cfg(not(feature = "oracle"))]
    #[test]
    fn pool_recycling_round_trip() {
        struct DropFlag(std::sync::Arc<AtomicUsize>);
        impl Drop for DropFlag {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::AcqRel);
            }
        }
        let drops = std::sync::Arc::new(AtomicUsize::new(0));

        let a = alloc_node(DropFlag(drops.clone()), BirthAt::Nowhere, 1, 0);
        let a_addr = a as usize;
        unsafe { dealloc_node(a) }; // SAFETY: [INV-12] unpublished, test-owned node.
        assert_eq!(drops.load(Ordering::Acquire), 1, "first payload dropped once");

        // Same thread, same size class: the LIFO free list returns the block.
        let mut tele = HandleTelemetry::new();
        let b = alloc_node_in(DropFlag(drops.clone()), BirthAt::Nowhere, 2, 0, 0, &mut tele);
        assert_eq!(b as usize, a_addr, "reclaimed block must be recycled");
        assert_eq!(tele.counter(Counter::PoolHits), 1);
        assert_eq!(tele.counter(Counter::PoolMisses), 0);
        assert_eq!(drops.load(Ordering::Acquire), 1, "recycling must not run drop glue");
        // SAFETY: [INV-12] `b` is live and owned by this test thread.
        assert_eq!(unsafe { (*b).header.index() }, 2, "header fully re-initialized");

        unsafe { dealloc_node(b) }; // SAFETY: [INV-12] unpublished, test-owned node.
        assert_eq!(drops.load(Ordering::Acquire), 2, "each payload dropped exactly once");
        // Gauge exactness under recycling is asserted in the single-test
        // `zero_alloc` process (the gauge is global; tests here run in
        // parallel) and end-to-end in `leak_check`.
    }

    #[test]
    fn use_hp_class_boundaries() {
        assert!(is_use_hp_class(USE_HP));
        assert!(is_use_hp_class(USE_HP_CLASS_START));
        assert!(!is_use_hp_class(USE_HP_CLASS_START - 1));
        assert!(!is_use_hp_class(0));
    }
}
