//! Packed pointer representation (paper §4.3.1, Listing 6).
//!
//! MP must know a node's index *without dereferencing the node* (the
//! "chicken and egg" problem of logical protection). A pointer is therefore
//! a single 64-bit word packing:
//!
//! ```text
//!   63            48 47                         2 1    0
//!  +----------------+----------------------------+------+
//!  |  index >> 16   |   virtual address bits      | mark |
//!  +----------------+----------------------------+------+
//! ```
//!
//! * bits 48..64 — the 16 most significant bits of the pointee's 32-bit MP
//!   index (`PRECISION = 16`). Observing packed value `i` means the node's
//!   index lies in `[i << 16, (i << 16) + 0xffff]`.
//! * bits 2..48 — the node address. x86-64 and AArch64 user space use at
//!   most 48 significant address bits, as the paper relies on.
//! * bits 0..2 — untouched by the SMR layer; client data structures use them
//!   as delete/flag/tag marks (Michael list: 1 bit; NM tree: 2 bits).
//!
//! A single-word CAS therefore updates pointer, index, and marks atomically.

use core::fmt;
use core::marker::PhantomData;
use core::sync::atomic::{AtomicU64, Ordering};

use crate::node::SmrNode;

/// Number of index bits carried in a packed pointer.
pub const PRECISION: u32 = 16;
/// Number of significant virtual-address bits.
pub const ADDR_BITS: u32 = 48;
/// Mask extracting the address-plus-mark field.
pub const ADDR_MASK: u64 = (1 << ADDR_BITS) - 1;
/// Low bits available to clients as marks.
pub const MARK_MASK: u64 = 0b11;

/// A snapshot of a packed pointer word: address + packed index + marks.
///
/// `Shared` is a plain `Copy` value — the moral equivalent of the paper's
/// `MP_CAS_Ptr` read out of shared memory. Dereferencing requires `unsafe`
/// and is sound only while the pointee is protected by the issuing thread's
/// SMR handle (see [`crate::SmrHandle::read`]).
pub struct Shared<T> {
    word: u64,
    _marker: PhantomData<*mut SmrNode<T>>,
}

impl<T> Clone for Shared<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Shared<T> {}

impl<T> PartialEq for Shared<T> {
    fn eq(&self, other: &Self) -> bool {
        self.word == other.word
    }
}
impl<T> Eq for Shared<T> {}

impl<T> fmt::Debug for Shared<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Shared")
            .field("addr", &format_args!("{:#x}", self.word & ADDR_MASK & !MARK_MASK))
            .field("packed_index", &self.packed_index())
            .field("mark", &self.mark())
            .finish()
    }
}

impl<T> Shared<T> {
    /// The null pointer (all bits zero; packed index 0, no marks).
    #[inline]
    pub const fn null() -> Self {
        Shared { word: 0, _marker: PhantomData }
    }

    /// Reconstructs a `Shared` from a raw packed word.
    #[inline]
    pub const fn from_word(word: u64) -> Self {
        Shared { word, _marker: PhantomData }
    }

    /// The raw packed word (address + index + marks).
    #[inline]
    pub const fn into_word(self) -> u64 {
        self.word
    }

    /// Packs a freshly allocated node, reading its index from the header:
    /// 0 for a node whose header stamps a birth instead (HE, IBR, DTA), so
    /// the packed word never carries birth bits.
    ///
    /// # Safety
    /// `ptr` must point to a live `SmrNode<T>` (typically just allocated and
    /// exclusively owned by the caller).
    #[inline]
    // SAFETY: [INV-11] obligation (live node) stated in `# Safety` above;
    // every caller packs a pointer the node allocator just returned.
    pub unsafe fn from_owned(ptr: *mut SmrNode<T>) -> Self {
        // SAFETY: [INV-02] `ptr` is live per this fn's contract, so the
        // header read is in-bounds.
        let index = unsafe { (*ptr).index() };
        Self::pack(ptr, index)
    }

    /// Packs an address with an explicit 32-bit index.
    #[inline]
    pub fn pack(ptr: *mut SmrNode<T>, index: u32) -> Self {
        let addr = ptr as u64;
        debug_assert_eq!(addr & !ADDR_MASK, 0, "address exceeds 48 bits");
        debug_assert_eq!(addr & MARK_MASK, 0, "allocation not 4-byte aligned");
        let packed = (index >> PRECISION) as u64;
        Shared { word: (packed << ADDR_BITS) | addr, _marker: PhantomData }
    }

    /// True if the address field (ignoring marks) is null.
    #[inline]
    pub fn is_null(self) -> bool {
        self.word & ADDR_MASK & !MARK_MASK == 0
    }

    /// The node address with index and mark bits stripped.
    #[inline]
    pub fn as_raw(self) -> *mut SmrNode<T> {
        (self.word & ADDR_MASK & !MARK_MASK) as *mut SmrNode<T>
    }

    /// The node address as a bare `u64` (index and mark bits stripped) —
    /// the form announced in hazard/anchor slots and compared by
    /// reclamation scans. This accessor is the one sanctioned
    /// pointer→integer pun for protocol code outside this module; the
    /// linter's forbidden-API pass rejects raw `as` casts elsewhere.
    #[inline]
    pub fn addr(self) -> u64 {
        self.word & ADDR_MASK & !MARK_MASK
    }

    /// The 16 packed index bits (i.e. `index >> 16` of the pointee).
    #[inline]
    pub fn packed_index(self) -> u16 {
        (self.word >> ADDR_BITS) as u16
    }

    /// Inclusive bounds `[lo, hi]` of the pointee's possible 32-bit index,
    /// reconstructed from the packed 16 bits (Listing 10's
    /// `idx_lower_bound` / `idx_upper_bound`).
    #[inline]
    pub fn index_bounds(self) -> (u32, u32) {
        let lo = (self.packed_index() as u32) << PRECISION;
        (lo, lo | ((1 << PRECISION) - 1))
    }

    /// The client mark bits (low 2 bits).
    #[inline]
    pub fn mark(self) -> u64 {
        self.word & MARK_MASK
    }

    /// Copy of this pointer with the mark bits replaced by `mark`.
    #[inline]
    pub fn with_mark(self, mark: u64) -> Self {
        debug_assert_eq!(mark & !MARK_MASK, 0);
        Shared { word: (self.word & !MARK_MASK) | mark, _marker: PhantomData }
    }

    /// Copy of this pointer with all mark bits cleared.
    #[inline]
    pub fn unmarked(self) -> Self {
        Shared { word: self.word & !MARK_MASK, _marker: PhantomData }
    }

    /// Dereferences the pointer.
    ///
    /// # Safety
    /// The pointee must be protected from reclamation for the duration of
    /// `'a`: either returned by [`crate::SmrHandle::read`] during the current
    /// operation, just allocated and not yet published, or owned exclusively
    /// (e.g. during `Drop` of the whole structure). Must not be null.
    #[inline]
    // SAFETY: [INV-11] obligation (protected pointee) stated in `# Safety`
    // above; every call site cites [INV-01] or [INV-03].
    pub unsafe fn deref<'a>(self) -> &'a SmrNode<T> {
        self.oracle_check();
        // SAFETY: [INV-02] the word decodes to a live (protected, per this
        // fn's contract) allocation, so the reference is valid for 'a.
        unsafe { &*self.as_raw() }
    }

    /// The node's *tail*: the links [`SmrHandle::alloc_with_tail`] placed
    /// after the payload, null until stored to; empty for a node allocated
    /// without one. The length is fixed at allocation, so indexing the
    /// slice is the bounds check.
    ///
    /// # Safety
    /// Same contract as [`deref`](Shared::deref).
    ///
    /// [`SmrHandle::alloc_with_tail`]: crate::SmrHandle::alloc_with_tail
    #[inline]
    // SAFETY: [INV-11] obligation (protected pointee) stated in `# Safety`
    // above; every call site cites [INV-01] or [INV-03].
    pub unsafe fn tail<'a>(self) -> &'a [Atomic<T>] {
        self.oracle_check();
        // SAFETY: [INV-02] the word decodes to a live (protected, per this
        // fn's contract) allocation; [INV-15] the slice is built from that
        // allocation's address, not from a reference to the payload.
        unsafe { crate::node::tail(self.as_raw()) }
    }

    /// The node's birth epoch, if its scheme stamps one: HE, IBR and DTA
    /// keep it in the header's 48-bit stamp, MP in a word after the tail,
    /// and HP, EBR and Leaky stamp none (DESIGN.md, "the tailed layout").
    /// A stamped birth reads back clamped to [`STAMP_MAX`], 2⁴⁸ − 1: never
    /// later than the true birth, so a clamped node is only ever protected
    /// longer.
    ///
    /// [`STAMP_MAX`]: crate::node::STAMP_MAX
    ///
    /// # Safety
    /// Same contract as [`deref`](Shared::deref).
    #[inline]
    // SAFETY: [INV-11] obligation (protected pointee) stated in `# Safety`
    // above; every call site cites [INV-01] or [INV-03].
    pub unsafe fn birth(self) -> Option<u64> {
        self.oracle_check();
        // SAFETY: [INV-02] the word decodes to a live (protected, per this
        // fn's contract) allocation; [INV-15] the word's presence and place
        // are read off the allocation's own header.
        unsafe { crate::node::birth(self.as_raw()) }
    }

    /// Asks the CPU to start fetching the cache line of the pointee's first
    /// byte and the line of its tail link `link` — the two lines a descent
    /// reads when it steps onto the node. Null and marked words are
    /// skipped.
    ///
    /// A hint, not an access: nothing is dereferenced, so the word needs no
    /// protection and may name a retired, freed or never-mapped block, and
    /// the prefetch protects nothing either. `link` need not be below the
    /// node's tail length; the address is computed, never read. On targets
    /// without a prefetch instruction (anything but x86-64 here) it
    /// compiles to nothing.
    #[inline]
    pub fn prefetch(self, link: usize) {
        if self.mark() != 0 || self.is_null() {
            return;
        }
        let block = self.as_raw().cast::<i8>().cast_const();
        let offset = size_of::<SmrNode<T>>() + link * size_of::<Atomic<T>>();
        #[cfg(target_arch = "x86_64")]
        // SAFETY: [INV-16] only the hint is issued — no load, no reference,
        // no pointer kept — so both lines may belong to any block, live or
        // not; `wrapping_add` keeps the address arithmetic defined
        // whatever the block is.
        unsafe {
            use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch::<_MM_HINT_T0>(block);
            _mm_prefetch::<_MM_HINT_T0>(block.wrapping_add(offset));
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = (block, offset);
    }

    /// The oracle's toll on every access to the pointee; nothing without
    /// it.
    #[inline]
    fn oracle_check(self) {
        debug_assert!(!self.is_null());
        // Oracle: reclaimed nodes stay mapped (quarantined) with a poisoned
        // header canary, so a protection bug panics here deterministically
        // instead of reading freed memory; a retired node must be covered
        // by an open operation of this thread (the oracle's ledger).
        #[cfg(feature = "oracle")]
        // SAFETY: [INV-10] quarantined memory stays mapped, so the canary
        // check may read the header even if protection was violated.
        unsafe {
            crate::node::oracle_check_canary(self.as_raw() as *const crate::node::Header)
        };
    }

    /// Frees a node the caller *exclusively owns*, bypassing the retire
    /// path: a node whose publication CAS failed (it was never shared), or
    /// a node reclaimed during teardown of the whole data structure.
    ///
    /// # Safety
    /// No other thread can hold any reference to the node, and it must not
    /// have been retired.
    // SAFETY: [INV-11] obligation stated in `# Safety` above; call sites
    // cite [INV-03] (failed publication or structure teardown).
    pub unsafe fn drop_owned(self) {
        // SAFETY: [INV-03] forwarded from this fn's own contract.
        unsafe { crate::node::dealloc_node(self.as_raw()) };
    }

    /// Like [`drop_owned`](Shared::drop_owned), but returns the payload —
    /// e.g. to recover the value of a failed insert for the retry.
    ///
    /// # Safety
    /// Same contract as [`drop_owned`](Shared::drop_owned).
    // SAFETY: [INV-11] obligation stated in `# Safety` above; call sites
    // cite [INV-03] (failed publication or structure teardown).
    pub unsafe fn take_owned(self) -> T {
        // SAFETY: [INV-03] forwarded from this fn's own contract.
        unsafe { crate::node::take_node(self.as_raw()) }
    }
}

/// A shared atomic packed pointer — the paper's `MP_CAS_Ptr`.
///
/// Supports the usual load / store / CAS operations over the full packed
/// word, so index and marks travel with the address under a single CAS.
pub struct Atomic<T> {
    word: AtomicU64,
    _marker: PhantomData<*mut SmrNode<T>>,
}

// SAFETY: [INV-07] the packed word is just a number; every deref site is
// separately guarded ([INV-01]/[INV-03]), so sharing the cell transfers no
// access rights. Same argument for all four impls below.
unsafe impl<T: Send + Sync> Send for Atomic<T> {}
// SAFETY: [INV-07] see above.
unsafe impl<T: Send + Sync> Sync for Atomic<T> {}
// SAFETY: [INV-07] see above.
unsafe impl<T: Send + Sync> Send for Shared<T> {}
// SAFETY: [INV-07] see above.
unsafe impl<T: Send + Sync> Sync for Shared<T> {}

impl<T> Atomic<T> {
    /// A null atomic pointer.
    pub const fn null() -> Self {
        Atomic { word: AtomicU64::new(0), _marker: PhantomData }
    }

    /// Creates an atomic pointer initialized to `s`.
    pub fn new(s: Shared<T>) -> Self {
        Atomic { word: AtomicU64::new(s.into_word()), _marker: PhantomData }
    }

    /// Atomically loads the packed word.
    #[inline]
    pub fn load(&self, order: Ordering) -> Shared<T> {
        Shared::from_word(self.word.load(order))
    }

    /// Atomically stores the packed word.
    #[inline]
    pub fn store(&self, s: Shared<T>, order: Ordering) {
        self.word.store(s.into_word(), order);
    }

    /// Single-word compare-and-swap over the full packed word.
    ///
    /// On failure returns the current value.
    #[inline]
    pub fn compare_exchange(
        &self,
        current: Shared<T>,
        new: Shared<T>,
        success: Ordering,
        failure: Ordering,
    ) -> Result<Shared<T>, Shared<T>> {
        self.word
            .compare_exchange(current.into_word(), new.into_word(), success, failure)
            .map(Shared::from_word)
            .map_err(Shared::from_word)
    }

    /// Atomically sets mark bits (`mask ⊆ MARK_MASK`), returning the
    /// previous value. Used by the NM tree to *tag* an edge whose current
    /// target is unknown (Natarajan & Mittal's edge marking, paper §5.3).
    #[inline]
    pub fn fetch_or_mark(&self, mask: u64, order: Ordering) -> Shared<T> {
        debug_assert_eq!(mask & !MARK_MASK, 0);
        Shared::from_word(self.word.fetch_or(mask, order))
    }

    /// Weak CAS variant (may fail spuriously); use inside retry loops.
    #[inline]
    pub fn compare_exchange_weak(
        &self,
        current: Shared<T>,
        new: Shared<T>,
        success: Ordering,
        failure: Ordering,
    ) -> Result<Shared<T>, Shared<T>> {
        self.word
            .compare_exchange_weak(current.into_word(), new.into_word(), success, failure)
            .map(Shared::from_word)
            .map_err(Shared::from_word)
    }
}

impl<T> Default for Atomic<T> {
    fn default() -> Self {
        Self::null()
    }
}

impl<T> fmt::Debug for Atomic<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.load(Ordering::Relaxed).fmt(f) // ORDERING: reason = diagnostic
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{alloc_node, BirthAt};

    #[test]
    fn null_roundtrip() {
        let s: Shared<u32> = Shared::null();
        assert!(s.is_null());
        assert_eq!(s.packed_index(), 0);
        assert_eq!(s.mark(), 0);
        assert!(s.as_raw().is_null());
    }

    #[test]
    fn pack_preserves_address_and_index() {
        let ptr = alloc_node(123u64, BirthAt::Nowhere, 0xdead_beef, 0);
        let s = unsafe { Shared::from_owned(ptr) }; // SAFETY: [INV-12] just allocated.
        assert_eq!(s.as_raw(), ptr);
        assert_eq!(s.packed_index(), 0xdead);
        let (lo, hi) = s.index_bounds();
        assert_eq!(lo, 0xdead_0000);
        assert_eq!(hi, 0xdead_ffff);
        assert!(lo <= 0xdead_beef && 0xdead_beef <= hi);
        unsafe { crate::node::dealloc_node(ptr) }; // SAFETY: [INV-12] test-owned node.
    }

    #[test]
    fn marks_do_not_disturb_address_or_index() {
        let ptr = alloc_node(7u8, BirthAt::Nowhere, 42 << PRECISION, 0);
        let s = unsafe { Shared::from_owned(ptr) }; // SAFETY: [INV-12] just allocated.
        let m = s.with_mark(1);
        assert_eq!(m.mark(), 1);
        assert_eq!(m.as_raw(), ptr);
        assert_eq!(m.packed_index(), 42);
        assert_eq!(m.unmarked(), s);
        let m3 = s.with_mark(3);
        assert_eq!(m3.mark(), 3);
        assert_eq!(m3.unmarked(), s);
        assert!(!m3.is_null());
        unsafe { crate::node::dealloc_node(ptr) }; // SAFETY: [INV-12] test-owned node.
    }

    #[test]
    fn marked_null_is_still_null() {
        let s: Shared<u32> = Shared::null().with_mark(1);
        assert!(s.is_null());
        assert_eq!(s.mark(), 1);
    }

    #[test]
    fn prefetch_dereferences_nothing() {
        // Each word below would fault if read through: null, the NM-tree's
        // severed edge (null with both marks), and an address in the first
        // pages, which user space never maps. A prefetch names them and
        // returns.
        Shared::<u64>::null().prefetch(0);
        Shared::<u64>::null().with_mark(MARK_MASK).prefetch(1);
        let dangling = Shared::<u64>::pack(core::ptr::without_provenance_mut(0x1000), 0);
        dangling.prefetch(0);
        dangling.prefetch(1);
        dangling.prefetch(1 << 20);
        dangling.with_mark(1).prefetch(0);
        // A freed block: its address may be recycled or unmapped.
        let ptr = alloc_node(9u64, BirthAt::Nowhere, 0, 0);
        let freed = unsafe { Shared::from_owned(ptr) }; // SAFETY: [INV-12] just allocated.
        unsafe { crate::node::dealloc_node(ptr) }; // SAFETY: [INV-12] test-owned node.
        freed.prefetch(0);
    }

    #[test]
    fn atomic_cas_full_word() {
        let a = alloc_node(1u32, BirthAt::Nowhere, 5 << PRECISION, 0);
        let b = alloc_node(2u32, BirthAt::Nowhere, 9 << PRECISION, 0);
        let sa = unsafe { Shared::from_owned(a) }; // SAFETY: [INV-12] just allocated.
        let sb = unsafe { Shared::from_owned(b) }; // SAFETY: [INV-12] just allocated.
        let cell = Atomic::new(sa);
        // CAS with wrong expected fails and reports the live value.
        assert_eq!(
            cell.compare_exchange(sb, sa, Ordering::AcqRel, Ordering::Acquire),
            Err(sa)
        );
        // Marked expected differs from unmarked stored value.
        assert!(cell
            .compare_exchange(sa.with_mark(1), sb, Ordering::AcqRel, Ordering::Acquire)
            .is_err());
        // On success, CAS returns the previous value (std semantics).
        assert_eq!(
            cell.compare_exchange(sa, sb.with_mark(1), Ordering::AcqRel, Ordering::Acquire),
            Ok(sa)
        );
        let now = cell.load(Ordering::Acquire);
        assert_eq!(now.mark(), 1);
        assert_eq!(now.as_raw(), b);
        assert_eq!(now.packed_index(), 9);
        // SAFETY: [INV-12] both nodes are test-owned.
        unsafe {
            crate::node::dealloc_node(a);
            crate::node::dealloc_node(b);
        }
    }

    #[test]
    fn index_bounds_top_of_range_is_use_hp_class() {
        // A node whose index lies in the top 64K maps to packed 0xffff and
        // reconstructs to an upper bound of u32::MAX — the USE_HP class.
        let ptr = alloc_node((), BirthAt::Nowhere, u32::MAX - 5, 0);
        let s = unsafe { Shared::from_owned(ptr) }; // SAFETY: [INV-12] just allocated.
        let (_, hi) = s.index_bounds();
        assert_eq!(hi, u32::MAX);
        unsafe { crate::node::dealloc_node(ptr) }; // SAFETY: [INV-12] test-owned node.
    }
}
