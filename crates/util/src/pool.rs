//! Slab-backed block pool for SMR node recycling.
//!
//! The reclamation hot path of every scheme is `alloc` → unlink → `retire`
//! → `empty()` → free. With the system allocator on both ends, a churn
//! workload measures malloc/free round trips rather than the reclamation
//! scheme, and a prefilled structure measures the allocator's rounding and
//! per-block header rather than the node — the hazards the paper's C++
//! harness avoids with per-thread block pools on a bump allocator. This
//! module is that substrate, in two levels:
//!
//! * **Per-thread magazine** (the only thing the alloc/free hot path
//!   touches). Per size class a thread keeps up to [`THREAD_CLASS_CAP`]
//!   recycled blocks in a LIFO and one *span*: a run of never-used blocks
//!   its chunk granted it, consumed by bump pointer. A full magazine spills
//!   half its blocks to the slab; an empty one refills from it.
//! * **The slab**, under one mutex. A layout's size is padded to its
//!   alignment and then rounded up to a [`CLASS_GRANULE`]-byte class (up to
//!   [`MAX_POOLED_SIZE`]), so an 8-aligned node holds exactly the words it
//!   is made of. Blocks are carved from [`CHUNK`]-byte chunks, each serving
//!   one class at a time; chunks are cut from [`REGION`]-byte regions
//!   obtained from the system allocator at chunk alignment, so a block
//!   carries no allocator header and its chunk is found by masking its
//!   address. Block `k` of a chunk sits `64 + k · size` bytes into it, so a
//!   block is aligned to the largest power of two dividing its class size
//!   (capped at 64, at least 8). A chunk starts with an
//!   in-band header: how many of its blocks are out (`live`), how many the
//!   bump pointer has carved, and an intrusive list (link in each block's
//!   first word) of the blocks that came home.
//!
//! **The blank-chunk rule.** A chunk whose last block came home is *blank*:
//!   its free list is dropped, and whichever class needs a chunk next takes
//!   the lowest blank chunk of the earliest region and carves it from the
//!   start. After a mass free (a structure dropped) the next build therefore
//!   walks memory sequentially again instead of popping a free list in
//!   drop order — one cold load per pop and a random page per node, which
//!   measured +36 % on the benchmark's second and third tree set-ups.
//!
//! Regions are never returned to the system: the reserve is the process's
//! high-water mark rounded up to chunks, with one live block per chunk as
//! its worst case. [`stats`] reports it.
//!
//! Layouts larger than [`MAX_POOLED_SIZE`] or more aligned than
//! [`MAX_POOLED_ALIGN`] bypass the pool and go straight to the system
//! allocator.
//!
//! Blocks are recycled with their contents intact except for the first
//! word, which holds the free-list link while a block sits in its chunk.
//! The reclamation oracle's poison canary lives past that word, and the
//! oracle quarantines a freed node *first*, releasing it into the pool only
//! after its shadow entry is pruned (see `mp-smr`'s oracle module).

use core::alloc::Layout;
use core::ptr::{addr_of, null_mut};
use std::cell::RefCell;
use std::sync::{Mutex, MutexGuard};

/// Largest block size (bytes) served from the pool; bigger layouts bypass
/// straight to the system allocator.
pub const MAX_POOLED_SIZE: usize = 2048;

/// Largest alignment served from the pool. Not the alignment of every
/// block: a block is aligned to the largest power of two dividing its class
/// size, and a layout's class size is a multiple of the layout's alignment
/// (see `class_of`), which is what a request needs.
pub const MAX_POOLED_ALIGN: usize = 16;

/// Size-class granule: block sizes are rounded up to the next multiple —
/// one word, the alignment of every SMR node and the least any block gets.
pub const CLASS_GRANULE: usize = 8;

/// Number of size classes (`MAX_POOLED_SIZE / CLASS_GRANULE`).
pub const NUM_CLASSES: usize = MAX_POOLED_SIZE / CLASS_GRANULE;

/// Per-thread, per-class magazine capacity: the most recycled blocks of
/// one size class a thread keeps to itself. A free that finds the magazine
/// full sends half of it (64 blocks) home under one slab lock, so a thread
/// that only frees takes the lock once per 64 frees.
/// It is not sized to hold a scan's frees: an `mp-smr` scan frees up to
/// its node watermark (512 nodes at `Config::default()`), and the overflow
/// goes back to the slab, where any thread's refill finds it.
pub const THREAD_CLASS_CAP: usize = 128;

/// Bytes per chunk: the unit that serves one size class and goes blank as a
/// whole. Chunks are `CHUNK`-aligned.
pub const CHUNK: usize = 64 << 10;

/// Chunks per region; one `u64` bitmap tracks a region's blank chunks.
const REGION_CHUNKS: usize = 64;

/// Bytes per region, the unit requested from the system allocator.
pub const REGION: usize = CHUNK * REGION_CHUNKS;

/// How many blocks a magazine receives per refill, recycled or as a span.
const REFILL_BATCH: usize = 32;

// ---------------------------------------------------------------------------
// Size classes

#[inline]
fn class_of(layout: Layout) -> Option<usize> {
    if layout.size() == 0
        || layout.size() > MAX_POOLED_SIZE
        || layout.align() > MAX_POOLED_ALIGN
    {
        return None;
    }
    // Padded to the alignment first: the class size is then a multiple of
    // it, and so is every block offset `64 + k · size` in the chunk.
    // `MAX_POOLED_SIZE` is itself a multiple of `MAX_POOLED_ALIGN`, so the
    // padding cannot push a pooled size past the last class.
    Some(layout.pad_to_align().size().div_ceil(CLASS_GRANULE) - 1)
}

#[inline]
const fn class_size(class: usize) -> usize {
    (class + 1) * CLASS_GRANULE
}

/// Blocks one chunk of `class` holds.
#[inline]
const fn chunk_capacity(class: usize) -> u32 {
    // 32-bit operands: `take_home` divides once per returned block.
    (CHUNK - size_of::<ChunkHeader>()) as u32 / class_size(class) as u32
}

/// Bytes a block served for `layout` occupies: its class size, or the
/// layout's own size when the layout bypasses the pool.
#[inline]
pub fn block_size(layout: Layout) -> usize {
    class_of(layout).map_or(layout.size(), class_size)
}

// ---------------------------------------------------------------------------
// Chunks

/// In-band header at the start of every chunk in use. All fields are read
/// and written under the slab lock; `class` is also read lock-free by
/// `dealloc`'s debug check, and is constant while any block is out.
///
/// A chunk is in exactly one state, told by `live`: *blank* (`live == 0`,
/// its bit set in the region's bitmap, header stale), *available*
/// (`0 < live < capacity`, linked in its class's `avail` list) or *full*
/// (`live == capacity`, unlisted). `carved - live` blocks sit in `free`.
#[repr(C, align(64))]
struct ChunkHeader {
    /// Blocks that came home, LIFO, linked through their first word.
    free: *mut u8,
    /// Neighbours in the class's `avail` list.
    next: *mut ChunkHeader,
    prev: *mut ChunkHeader,
    /// Size class the chunk is carved for.
    class: u32,
    /// Index of the owning region in `Slab::regions`.
    region: u32,
    /// Blocks out of the chunk: in use, in a magazine or in a span.
    live: u32,
    /// Blocks the bump pointer has handed out at least once (a prefix).
    carved: u32,
}

// What `class_of`'s alignment argument stands on: the first block of a chunk
// is as aligned as any request, and padding never leaves the pooled range.
const _: () = assert!(
    size_of::<ChunkHeader>().is_multiple_of(MAX_POOLED_ALIGN)
        && MAX_POOLED_SIZE.is_multiple_of(MAX_POOLED_ALIGN)
);

/// The chunk holding `block`, by address mask.
#[inline]
fn chunk_of(block: *mut u8) -> *mut ChunkHeader {
    // Blocks start past the header, so the mask never lands on the block.
    block.wrapping_sub(block.addr() & (CHUNK - 1)).cast()
}

struct Region {
    base: *mut u8,
    /// Bit `i` set: chunk `i` is blank.
    blank: u64,
}

struct Slab {
    regions: Vec<Region>,
    /// No region below this index has a blank chunk.
    blank_hint: usize,
    /// Per class, the chunks with a block to give. A chunk with uncarved
    /// room is always last: chunks are pushed in front, and a class takes a
    /// blank chunk only when its list is empty.
    avail: [*mut ChunkHeader; NUM_CLASSES],
}

// SAFETY: [INV-08] every pointer in the slab addresses region memory the
// slab owns for the life of the process and is dereferenced only by the
// thread holding the slab lock.
unsafe impl Send for Slab {}

static SLAB: Mutex<Slab> =
    Mutex::new(Slab { regions: Vec::new(), blank_hint: 0, avail: [null_mut(); NUM_CLASSES] });

fn lock_slab() -> MutexGuard<'static, Slab> {
    // Every update leaves the slab consistent before anything that can
    // panic (only the allocator's own failure handling), so a poisoned
    // lock still guards valid data.
    SLAB.lock().unwrap_or_else(|e| e.into_inner())
}

impl Slab {
    /// Unlinks `c` from its class's `avail` list.
    ///
    /// # Safety
    /// `c` is an initialised header currently in that list.
    // SAFETY: [INV-11] unsafe fn: contract stated in `# Safety` above,
    // discharged by the chunk-state argument at each call ([INV-08]).
    unsafe fn unlink(&mut self, c: *mut ChunkHeader) {
        // SAFETY: [INV-08] `c` and its list neighbours are initialised
        // headers of chunks in use, accessed under the slab lock.
        unsafe {
            let (prev, next) = ((*c).prev, (*c).next);
            if prev.is_null() {
                self.avail[(*c).class as usize] = next;
            } else {
                (*prev).next = next;
            }
            if !next.is_null() {
                (*next).prev = prev;
            }
        }
    }

    /// Links `c` at the front of its class's `avail` list.
    ///
    /// # Safety
    /// `c` is an initialised header not currently in any list.
    // SAFETY: [INV-11] unsafe fn: contract stated in `# Safety` above,
    // discharged by the chunk-state argument at each call ([INV-08]).
    unsafe fn link_front(&mut self, c: *mut ChunkHeader) {
        // SAFETY: [INV-08] `c` and the old head are initialised headers of
        // chunks in use, accessed under the slab lock.
        unsafe {
            let head = &mut self.avail[(*c).class as usize];
            (*c).prev = null_mut();
            (*c).next = *head;
            if !head.is_null() {
                (**head).prev = c;
            }
            *head = c;
        }
    }

    /// Claims the lowest blank chunk of the earliest region (reserving a
    /// region when none has one) for `class` and lists it.
    fn take_blank(&mut self, class: usize) -> *mut ChunkHeader {
        while self.regions.get(self.blank_hint).is_some_and(|r| r.blank == 0) {
            self.blank_hint += 1;
        }
        if self.blank_hint == self.regions.len() {
            let layout =
                Layout::from_size_align(REGION, CHUNK).expect("region layout is a constant");
            // SAFETY: [INV-08] the layout has non-zero size.
            let base = unsafe { std::alloc::alloc(layout) };
            if base.is_null() {
                std::alloc::handle_alloc_error(layout);
            }
            self.regions.push(Region { base, blank: u64::MAX });
        }
        let region = &mut self.regions[self.blank_hint];
        let index = region.blank.trailing_zeros() as usize;
        region.blank &= !(1 << index);
        let c: *mut ChunkHeader = region.base.wrapping_add(index * CHUNK).cast();
        // SAFETY: [INV-08] the chunk lies inside its region, is CHUNK-aligned
        // and blank — no block of it is out — so the slab owns every byte.
        unsafe {
            c.write(ChunkHeader {
                free: null_mut(),
                next: null_mut(),
                prev: null_mut(),
                class: class as u32,
                region: self.blank_hint as u32,
                live: 0,
                carved: 0,
            });
            self.link_front(c);
        }
        c
    }

    /// Gives `mag` up to [`REFILL_BATCH`] recycled blocks of `class`, or,
    /// when no chunk holds one, a span of never-used blocks.
    fn refill(&mut self, class: usize, mag: &mut Magazine) {
        let capacity = chunk_capacity(class);
        for _ in 0..REFILL_BATCH {
            let c = self.avail[class];
            // SAFETY: [INV-08] a listed chunk's header is initialised; a
            // block on its free list is owned by the chunk and holds the
            // next link in its first word (written by `take_home`).
            unsafe {
                if c.is_null() || (*c).free.is_null() {
                    break;
                }
                let block = (*c).free;
                (*c).free = block.cast::<*mut u8>().read();
                (*c).live += 1;
                if (*c).live == capacity {
                    self.unlink(c);
                }
                mag.blocks.push(block);
            }
        }
        if !mag.blocks.is_empty() {
            return;
        }
        // The head holds no free block, so it is the one chunk with
        // uncarved room, or the list is empty.
        let head = self.avail[class];
        let c = if head.is_null() { self.take_blank(class) } else { head };
        // SAFETY: [INV-08] `c` is listed with an empty free list, hence
        // `carved == live < capacity`: the span lies inside the chunk and
        // has never been handed out.
        unsafe {
            let n = (capacity - (*c).carved).min(REFILL_BATCH as u32);
            let first = size_of::<ChunkHeader>() + (*c).carved as usize * class_size(class);
            mag.span = c.cast::<u8>().add(first);
            mag.span_left = n;
            (*c).carved += n;
            (*c).live += n;
            if (*c).live == capacity {
                self.unlink(c);
            }
        }
    }

    /// Returns `block` to its chunk; the chunk goes blank when it was the
    /// last one out.
    ///
    /// # Safety
    /// `block` was served by this pool and is exclusively the caller's.
    // SAFETY: [INV-11] unsafe fn: contract stated in `# Safety` above,
    // discharged by every caller ([INV-08]).
    unsafe fn take_home(&mut self, block: *mut u8) {
        let c = chunk_of(block);
        // SAFETY: [INV-08] a block that is out keeps its chunk in use, so
        // the header is initialised; the block is the caller's to overwrite.
        unsafe {
            let was_full = (*c).live == chunk_capacity((*c).class as usize);
            (*c).live -= 1;
            if (*c).live == 0 {
                if !was_full {
                    self.unlink(c);
                }
                let region = (*c).region as usize;
                let r = &mut self.regions[region];
                r.blank |= 1 << ((c.addr() - r.base.addr()) / CHUNK);
                self.blank_hint = self.blank_hint.min(region);
                return;
            }
            block.cast::<*mut u8>().write((*c).free);
            (*c).free = block;
            if was_full {
                self.link_front(c);
            }
        }
    }
}

/// What the slab holds, for "why is memory held" (see [`stats`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Regions obtained from the system allocator (never returned).
    pub regions: usize,
    /// `regions × REGION`: the pool's reserve. Pages of chunks that were
    /// never carved are reserved but not resident.
    pub reserved_bytes: usize,
    /// Chunks currently carved for a size class.
    pub chunks_in_use: usize,
    /// Chunks with no block out, ready for any class.
    pub blank_chunks: usize,
    /// Blocks sitting in chunk free lists.
    pub free_blocks: usize,
    /// Blocks out of their chunk: in use, in a magazine or in a span.
    pub live_blocks: usize,
}

/// Snapshot of the slab, computed under its lock by walking the chunk
/// headers. Nothing on the alloc/free path counts anything for it.
pub fn stats() -> PoolStats {
    let slab = lock_slab();
    let mut s = PoolStats {
        regions: slab.regions.len(),
        reserved_bytes: slab.regions.len() * REGION,
        ..PoolStats::default()
    };
    for r in &slab.regions {
        s.blank_chunks += r.blank.count_ones() as usize;
        for i in (0..REGION_CHUNKS).filter(|i| r.blank & (1 << i) == 0) {
            let c: *const ChunkHeader = r.base.wrapping_add(i * CHUNK).cast();
            // SAFETY: [INV-08] a chunk whose blank bit is clear has an
            // initialised header, stable while the slab lock is held.
            let (live, carved) = unsafe { ((*c).live, (*c).carved) };
            s.chunks_in_use += 1;
            s.live_blocks += live as usize;
            s.free_blocks += (carved - live) as usize;
        }
    }
    s
}

// ---------------------------------------------------------------------------
// Magazines

/// One thread's cache for one size class.
struct Magazine {
    /// Recycled blocks, LIFO.
    blocks: Vec<*mut u8>,
    /// Next never-used block of the span the chunk granted, and how many
    /// remain. They count as `live` in their chunk.
    span: *mut u8,
    span_left: u32,
}

impl Magazine {
    const fn new() -> Self {
        Magazine { blocks: Vec::new(), span: null_mut(), span_left: 0 }
    }

    /// A block of `class`, and whether it is recycled (`true`) or a fresh
    /// carve (`false`).
    #[inline]
    fn take(&mut self, class: usize) -> (*mut u8, bool) {
        if self.blocks.is_empty() && self.span_left == 0 {
            lock_slab().refill(class, self);
        }
        if let Some(block) = self.blocks.pop() {
            return (block, true);
        }
        let block = self.span;
        self.span_left -= 1;
        // SAFETY: [INV-08] `refill` left a non-empty span (no recycled
        // block was available), so `block` and its successor are inside
        // the chunk or one past its last block.
        self.span = unsafe { block.add(class_size(class)) };
        (block, false)
    }

    /// Caches `block`, spilling half the magazine to the slab when full.
    ///
    /// # Safety
    /// `block` was served by this pool for this magazine's class and is
    /// exclusively the caller's.
    // SAFETY: [INV-11] unsafe fn: contract stated in `# Safety` above,
    // discharged by `dealloc` ([INV-08]).
    #[inline]
    unsafe fn put(&mut self, block: *mut u8) {
        if self.blocks.len() >= THREAD_CLASS_CAP {
            let mut slab = lock_slab();
            for spilled in self.blocks.drain(THREAD_CLASS_CAP / 2..) {
                // SAFETY: [INV-08] the magazine owned the block exclusively.
                unsafe { slab.take_home(spilled) };
            }
        }
        self.blocks.push(block);
    }

    /// Sends every cached block and the rest of the span home.
    fn release(&mut self, class: usize) {
        if self.blocks.is_empty() && self.span_left == 0 {
            return;
        }
        let mut slab = lock_slab();
        for block in self.blocks.drain(..) {
            // SAFETY: [INV-08] the magazine owned the block exclusively.
            unsafe { slab.take_home(block) };
        }
        for i in 0..self.span_left as usize {
            // SAFETY: [INV-08] the span's blocks were granted to this
            // magazine alone and lie inside their chunk.
            unsafe { slab.take_home(self.span.add(i * class_size(class))) };
        }
        self.span_left = 0;
    }
}

struct ThreadCache {
    classes: [Magazine; NUM_CLASSES],
}

impl Drop for ThreadCache {
    fn drop(&mut self) {
        for (class, mag) in self.classes.iter_mut().enumerate() {
            mag.release(class);
        }
    }
}

thread_local! {
    static CACHE: RefCell<ThreadCache> =
        const { RefCell::new(ThreadCache { classes: [const { Magazine::new() }; NUM_CLASSES] }) };
}

// ---------------------------------------------------------------------------
// Alloc / dealloc

/// Allocates a block for `layout`: from the calling thread's magazine, else
/// from the slab. Returns the pointer and whether the block is recycled
/// (`true`: it came from a magazine or a chunk free list) or a fresh carve
/// (`false`; also every layout that bypasses the pool).
///
/// The returned block is at least `layout.size()` bytes at alignment
/// `>= layout.align()`; free it with [`dealloc`] using the *same* `layout`.
/// `layout.size()` must be non-zero.
pub fn alloc(layout: Layout) -> (*mut u8, bool) {
    let Some(class) = class_of(layout) else {
        debug_assert!(layout.size() > 0, "pool does not serve zero-sized layouts");
        // SAFETY: [INV-08] layout has non-zero size (all SMR nodes carry a
        // header), asserted above.
        let ptr = unsafe { std::alloc::alloc(layout) };
        if ptr.is_null() {
            std::alloc::handle_alloc_error(layout);
        }
        return (ptr, false);
    };
    CACHE.try_with(|cache| cache.borrow_mut().classes[class].take(class)).unwrap_or_else(|_| {
        // Thread-local already destroyed (thread exit): a magazine for
        // this one call.
        let mut mag = Magazine::new();
        let served = mag.take(class);
        mag.release(class);
        served
    })
}

/// Returns a block to the calling thread's magazine (or, for a layout that
/// bypasses the pool, to the system allocator).
///
/// # Safety
/// `ptr` must have been returned by [`alloc`] called with the same `layout`,
/// and must not be used again after this call.
// SAFETY: [INV-11] unsafe fn: contract stated in `# Safety` above,
// discharged by every caller ([INV-08]).
pub unsafe fn dealloc(ptr: *mut u8, layout: Layout) {
    let Some(class) = class_of(layout) else {
        // SAFETY: [INV-08] forwarded: unpooled layouts go straight to the
        // system allocator with the caller's layout.
        unsafe { std::alloc::dealloc(ptr, layout) };
        return;
    };
    debug_assert_eq!(
        // SAFETY: [INV-08] the block is out, so its chunk's header is
        // initialised and `class` is not written until it comes home.
        unsafe { addr_of!((*chunk_of(ptr)).class).read() } as usize,
        class,
        "block freed with a layout of another size class than it was served for"
    );
    // SAFETY: [INV-08] forwarded from this fn's contract.
    let cached = CACHE.try_with(|cache| unsafe { cache.borrow_mut().classes[class].put(ptr) });
    if cached.is_err() {
        // Thread-local already destroyed (thread exit): straight home.
        // SAFETY: [INV-08] forwarded from this fn's contract.
        unsafe { lock_slab().take_home(ptr) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::Checker;
    use crate::rng::{RngExt, SeedableRng, SmallRng};
    use std::sync::mpsc;

    // The slab is process-global and these assertions are absolute (zero
    // live blocks, every chunk blank), so each test holds one lock and does
    // its pool work on a thread of its own: the magazine goes home when that
    // thread exits, whichever thread the harness ran the test on.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn isolated<R: Send>(work: impl FnOnce() -> R + Send) -> R {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let out = on_thread(work);
        let s = stats();
        assert_eq!((s.live_blocks, s.chunks_in_use), (0, 0), "a test stranded blocks: {s:?}");
        out
    }

    fn on_thread<R: Send>(work: impl FnOnce() -> R + Send) -> R {
        std::thread::scope(|s| s.spawn(work).join().expect("pool test thread panicked"))
    }

    fn layout(size: usize) -> Layout {
        Layout::from_size_align(size, 8).unwrap()
    }

    fn alloc_addr(size: usize) -> usize {
        alloc(layout(size)).0.addr()
    }

    /// Frees `blocks`, all served for `layout(size)`.
    fn free_all(blocks: impl IntoIterator<Item = usize>, size: usize) {
        for b in blocks {
            // SAFETY: [INV-12] test-owned blocks, each served by `alloc(layout(size))` and freed once.
            unsafe { dealloc(b as *mut u8, layout(size)) };
        }
    }

    /// Sends the calling thread's magazine for `size` home now.
    fn release_magazine(size: usize) {
        let class = class_of(layout(size)).unwrap();
        CACHE.with(|c| c.borrow_mut().classes[class].release(class));
    }

    fn chunk_addr(block: usize) -> usize {
        block & !(CHUNK - 1)
    }

    #[test]
    fn same_block_is_reused_lifo() {
        isolated(|| {
            let p1 = alloc_addr(48);
            free_all([p1], 48);
            let (p2, recycled) = alloc(layout(48));
            assert_eq!(p1, p2.addr(), "LIFO magazine must hand the same block back");
            assert!(recycled);
            free_all([p1], 48);
        });
    }

    #[test]
    fn class_boundaries_at_8_9_16_17_2048_and_2049_bytes() {
        assert_eq!(class_of(layout(8)), Some(0));
        assert_eq!(class_of(layout(9)), Some(1));
        assert_eq!(class_of(layout(16)), Some(1));
        assert_eq!(class_of(layout(17)), Some(2));
        assert_eq!(class_of(layout(2048)), Some(NUM_CLASSES - 1));
        assert_eq!(class_of(layout(2049)), None);
        assert_eq!(block_size(layout(8)), 8);
        assert_eq!(block_size(layout(9)), 16);
        assert_eq!(block_size(layout(17)), 24);
        assert_eq!(block_size(layout(2048)), 2048);
        assert_eq!(block_size(layout(2049)), 2049, "a bypassed layout holds its own size");
        // A 16-aligned layout is padded to its alignment before it is
        // classed, so its blocks sit 16 apart however odd its size.
        assert_eq!(block_size(Layout::from_size_align(17, 16).unwrap()), 32);
        assert_eq!(block_size(Layout::from_size_align(2041, 16).unwrap()), 2048);
        isolated(|| {
            let (small, next) = (alloc_addr(16), alloc_addr(17));
            assert_ne!(chunk_addr(small), chunk_addr(next), "one class per chunk");
            let last = alloc_addr(2048);
            assert!(last + 2048 <= chunk_addr(last) + CHUNK, "the largest class fits its chunk");
            free_all([small], 16);
            free_all([next], 17);
            free_all([last], 2048);
        });
    }

    #[test]
    fn different_sizes_in_same_class_share_blocks() {
        isolated(|| {
            // 33 and 40 both round up to the 40-byte class.
            let (a, b) = (layout(33), layout(40));
            assert_eq!(class_of(a), class_of(b));
            let (p1, _) = alloc(a);
            assert_eq!(p1.addr() % 8, 0);
            // SAFETY: [INV-12] test-owned block served by `alloc(a)`, freed once.
            unsafe { dealloc(p1, a) };
            let (p2, recycled) = alloc(b);
            assert_eq!((p1, true), (p2, recycled));
            // SAFETY: [INV-12] test-owned block of `a`'s class, freed once.
            unsafe { dealloc(p2, b) };
        });
    }

    #[test]
    fn oversized_and_overaligned_layouts_bypass() {
        let big = layout(MAX_POOLED_SIZE + 1);
        let aligned = Layout::from_size_align(64, 32).unwrap();
        assert_eq!(class_of(big), None);
        assert_eq!(class_of(aligned), None, "align > 16");
        assert_eq!(block_size(aligned), 64);
        isolated(|| {
            let before = stats();
            for bypass in [big, aligned] {
                let (p, recycled) = alloc(bypass);
                assert!(!recycled);
                assert_eq!(p.addr() % bypass.align(), 0);
                // SAFETY: [INV-12] test-owned block served by `alloc(bypass)`, freed once.
                unsafe { dealloc(p, bypass) };
            }
            assert_eq!(stats(), before, "bypassed layouts never reach the slab");
        });
    }

    #[test]
    fn thread_cap_spills_instead_of_growing_unboundedly() {
        isolated(|| {
            let n = THREAD_CLASS_CAP + 16;
            let blocks: Vec<usize> = (0..n).map(|_| alloc_addr(448)).collect();
            let out = stats().live_blocks;
            free_all(blocks, 448);
            // The free that found the magazine full sent its newer half
            // home; the magazine never held more than its cap.
            let s = stats();
            assert_eq!(s.free_blocks, THREAD_CLASS_CAP / 2, "{s:?}");
            assert_eq!(s.live_blocks, out - THREAD_CLASS_CAP / 2);
        });
    }

    #[test]
    fn mass_free_blanks_every_chunk_and_the_rebuild_carves_in_address_order() {
        let per_chunk = chunk_capacity(class_of(layout(48)).unwrap()) as usize;
        let n = 3 * per_chunk + 100;
        let build = move || -> Vec<usize> { (0..n).map(|_| alloc_addr(48)).collect() };
        isolated(move || {
            let first = build();
            assert!(
                first.windows(2).all(|w| chunk_addr(w[0]) != chunk_addr(w[1]) || w[0] + 48 == w[1]),
                "a fresh carve ascends block by block within each chunk"
            );
            assert_eq!(stats().chunks_in_use, 4);
            // Free in an order no drop traversal would improve on.
            let mut order = first.clone();
            let mut rng = SmallRng::seed_from_u64(48);
            for i in (1..order.len()).rev() {
                order.swap(i, rng.random_range(0..i + 1));
            }
            free_all(order, 48);
            release_magazine(48);
            let s = stats();
            assert_eq!((s.live_blocks, s.free_blocks, s.chunks_in_use), (0, 0, 0), "{s:?}");

            let second = build();
            assert_eq!(second, first, "the rebuild re-carves the same chunks from their start");
            free_all(second, 48);
        });
    }

    #[test]
    fn a_blank_chunk_serves_whichever_class_asks_next() {
        isolated(|| {
            let a = alloc_addr(48);
            free_all([a], 48);
            release_magazine(48);
            assert_eq!(stats().chunks_in_use, 0);
            let b = alloc_addr(200);
            assert_eq!(
                b,
                chunk_addr(a) + size_of::<ChunkHeader>(),
                "the 200-byte class re-carves, from its start, the chunk the 48-byte class left"
            );
            free_all([b], 200);
        });
    }

    #[test]
    fn a_thread_exiting_with_a_half_used_magazine_strands_nothing() {
        isolated(|| {
            // The thread leaves recycled blocks in its magazine, an
            // unfinished span, and blocks it never freed.
            let kept: Vec<usize> = on_thread(|| {
                let blocks: Vec<usize> = (0..REFILL_BATCH + 7).map(|_| alloc_addr(112)).collect();
                free_all(blocks[..10].iter().copied(), 112);
                blocks[10..].to_vec()
            });
            let s = stats();
            assert_eq!(s.live_blocks, kept.len(), "only the blocks still in use are out: {s:?}");
            assert_eq!(s.free_blocks, 2 * REFILL_BATCH - kept.len());
            free_all(kept, 112);
        });
    }

    #[test]
    fn a_block_freed_on_another_thread_goes_home_to_its_own_chunk() {
        isolated(|| {
            let blocks: Vec<usize> = (0..10).map(|_| alloc_addr(80)).collect();
            let span_left = REFILL_BATCH - blocks.len();
            on_thread(|| free_all(blocks.iter().copied(), 80));
            // The other thread's magazine went home with it: the blocks sit
            // in the chunk they were carved from.
            let s = stats();
            assert_eq!((s.chunks_in_use, s.live_blocks), (1, span_left), "{s:?}");
            assert_eq!(s.free_blocks, 10);
            let (again, recycled) = on_thread(|| {
                let (p, recycled) = alloc(layout(80));
                free_all([p.addr()], 80);
                (p.addr(), recycled)
            });
            assert!(recycled, "a third thread refills from that chunk's free list");
            assert_eq!(chunk_addr(again), chunk_addr(blocks[0]));
        });
    }

    /// Any layout the pool serves — sizes that are not a multiple of their
    /// alignment included — gets a block aligned as asked, at least as big
    /// as asked and disjoint from every other live block; `isolated` then
    /// checks that freeing them all leaves no live block and no chunk in use.
    #[test]
    fn any_pooled_layout_is_served_aligned_sized_and_disjoint() {
        Checker::new().cases(8).run(
            "any_pooled_layout_is_served_aligned_sized_and_disjoint",
            |rng| {
                (0..400)
                    .map(|_| (rng.random_range(1..MAX_POOLED_SIZE + 1), 1 << rng.random_range(0..5u32)))
                    .collect()
            },
            |requests: &[(usize, usize)]| {
                isolated(|| {
                    let mut live: Vec<(usize, usize, Layout)> = Vec::new();
                    for &(size, align) in requests {
                        let layout = Layout::from_size_align(size, align).unwrap();
                        let (addr, held) = (alloc(layout).0.addr(), block_size(layout));
                        assert_eq!(addr % align, 0, "{layout:?} served at {addr:#x}");
                        assert!(held >= size, "{layout:?} holds {held} bytes");
                        live.push((addr, addr + held, layout));
                    }
                    live.sort_unstable_by_key(|&(start, ..)| start);
                    for w in live.windows(2) {
                        assert!(w[0].1 <= w[1].0, "{:?} overlaps {:?}", w[0], w[1]);
                    }
                    for (start, _, layout) in live {
                        // SAFETY: [INV-12] test-owned block served by `alloc(layout)`, freed once.
                        unsafe { dealloc(start as *mut u8, layout) };
                    }
                });
            },
        );
    }

    /// Checker-seeded interleaving of alloc and free over three threads and
    /// four classes, any thread freeing what any other allocated. The
    /// driver hands each step to its thread and waits for the answer, so
    /// the interleaving is the script's. `live` is exact across threads iff
    /// the slab ends with nothing out and every chunk blank.
    #[test]
    fn cross_thread_churn_ends_with_every_chunk_blank() {
        const SIZES: [usize; 4] = [16, 48, 200, 2048];
        enum Cmd {
            Alloc(usize),
            Free(usize, usize),
        }
        Checker::new().cases(8).run(
            "cross_thread_churn_ends_with_every_chunk_blank",
            |rng| {
                (0..3_000)
                    // Allocs (ops 0..4) outnumber frees, so magazines fill
                    // and the final frees spill.
                    .map(|_| (rng.random_range(0..3usize), rng.random_range(0..7u32)))
                    .collect()
            },
            |script: &[(usize, u32)]| {
                isolated(|| {
                    std::thread::scope(|s| {
                        let workers: Vec<_> = (0..3)
                            .map(|_| {
                                let (cmd_tx, cmd_rx) = mpsc::channel::<Cmd>();
                                let (addr_tx, addr_rx) = mpsc::channel::<usize>();
                                let worker = s.spawn(move || {
                                    for cmd in cmd_rx {
                                        let done = match cmd {
                                            Cmd::Alloc(size) => alloc_addr(size),
                                            Cmd::Free(block, size) => {
                                                free_all([block], size);
                                                0
                                            }
                                        };
                                        addr_tx.send(done).expect("driver hung up");
                                    }
                                });
                                (cmd_tx, addr_rx, worker)
                            })
                            .collect();
                        let step = |t: usize, cmd: Cmd| {
                            workers[t].0.send(cmd).expect("worker hung up");
                            workers[t].1.recv().expect("worker died")
                        };
                        let mut out: Vec<(usize, usize)> = Vec::new();
                        for &(t, op) in script {
                            match SIZES.get(op as usize) {
                                Some(&size) => out.push((step(t, Cmd::Alloc(size)), size)),
                                None if out.is_empty() => {}
                                None => {
                                    let pick = op as usize * 31 % out.len();
                                    let (block, size) = out.swap_remove(pick);
                                    step(t, Cmd::Free(block, size));
                                }
                            }
                        }
                        for (block, size) in out {
                            step(0, Cmd::Free(block, size));
                        }
                        // Joined by hand: the scope's own wait ends before
                        // a thread's magazine has gone home.
                        for (cmd_tx, _, worker) in workers {
                            drop(cmd_tx);
                            worker.join().expect("worker panicked");
                        }
                    });
                });
            },
        );
    }
}
