//! Margin pointers — the paper's contribution (§4, Listing 10).
//!
//! MP is pointer-based reclamation where each protection slot announces a
//! *logical key interval* instead of a physical node: a margin pointer with
//! value `i` protects every node whose 32-bit index lies within
//! `margin / 2` of `i`. Because node indices approximate physical proximity
//! (they are assigned as midpoints of the insertion-time search interval,
//! §4.1), one announcement + one fence typically covers a long stretch of a
//! traversal — HP's safety at a fraction of its fence cost.
//!
//! Three mechanisms make the scheme practical (§4.3):
//!
//! 1. **Pointer packing** — pointers carry the pointee's index high bits, so
//!    protection can be checked without dereferencing ([`crate::packed`]).
//! 2. **`USE_HP` fallback** — when a new node's search interval leaves no
//!    room for a fresh index ( |upper − lower| ≤ 1 ), the node is stamped
//!    `USE_HP` and protected with an ordinary hazard pointer: HP's own
//!    [`MirroredRow::protect`], on MP's hazard row. This keeps the
//!    indices of all MP-protected *linked* nodes unique.
//! 3. **Epoch filter** — retired nodes may still collide (same position
//!    re-inserted/re-deleted repeatedly). An HE-style birth/retire epoch
//!    filter, with the epoch advanced every `epoch_freq` unlinks, caps how
//!    many same-index retired nodes one margin can pin (Theorem 4.2).
//!
//! The resulting wasted-memory bound per thread is
//! `#HP + #MP·margin + #MP·margin·epoch_freq·T` — *predetermined*, unlike
//! the robust-but-unbounded HE/IBR.
//!
//! ## Fence amortization (DESIGN.md "Fence amortization")
//!
//! The announcement fence is amortized across hops *and* operations:
//!
//! * **Forward-centered margins** — a fresh margin covers
//!   `[idx_lo, idx_lo + margin]` (midpoint derived from the configured
//!   `margin`, not a hardcoded half-block): traversals visit increasing
//!   indices, so coverage is spent where the traversal is going.
//! * **Cross-refno cover** — a read is fence-free when *any* of the
//!   thread's announced margins covers the precision block, not just the
//!   slot named by `refno`; refno rotation in clients no longer defeats
//!   standing coverage. The inlined read tests one cached interval; past
//!   it, an exact region index over the row's midpoints (`MarginRow`)
//!   names the covering slot in O(1). Rows of up to 8 slots, one cache
//!   line of midpoints, are scanned instead, which costs them less.
//! * **Persistent announcements** — `end_op` releases hazard slots only.
//!   Margins and the announced epoch stay published (HE's lazy-era
//!   discipline): a standing (margin, epoch) pair pins only nodes whose
//!   lifetime contains that epoch — a finite, shrinking set — and the next
//!   operation whose `start_op` sees an unchanged global epoch issues no
//!   fence at all.
//! * **Margins that never move** — a margin slot's value changes only
//!   while no refno depends on it. Slots are not tied to refnos: the
//!   handle records which slot covers the node last returned through each
//!   refno (`owner`) and how many refnos own each slot (`pins`), and an
//!   announcement goes into the next unpinned slot of a rotating cursor —
//!   one store and one fence, as in Listing 10. A reused refno's old
//!   margin simply stays where it is, so standing coverage survives, and
//!   a reclamation scan reads every slot on its own, like a hazard slot.
//!
//! ## Deviations from Listing 10 (documented in DESIGN.md)
//!
//! * The margin-hit fast path re-checks the global epoch (one shared
//!   relaxed load, no fence). Without it, a node born *after* the thread's
//!   announced epoch could be returned under margin protection yet be
//!   invisible to the reclaimer's epoch filter — a use-after-free window.
//!   On an observed advance the rest of the operation falls back to
//!   HP's `protect`, the §4.3.2 slow path.
//! * `empty()` treats the entire top-64K index range as the `USE_HP` class
//!   (the packed 16 bits cannot distinguish it) and checks *both* HP and MP
//!   slots for every candidate, which is strictly conservative.

use std::sync::Arc;

use core::sync::atomic::{AtomicU64, Ordering};

use crate::api::{Config, Smr, SmrHandle};
use crate::error::SmrError;
use crate::node::{is_use_hp_class, BirthAt, Retired, USE_HP};
use crate::packed::{Atomic, Shared};
use crate::registry::SlotArray;
use crate::schemes::common::{counted_fence, interval_hit, MirroredRow};
use crate::schemes::common::{INACTIVE, NO_HAZARD, NO_MARGIN};
use crate::schemes::core::{
    impl_handle_telemetry, smr_core_accessors, HandleCore, Protection, Scheme, SchemeCore,
};
use crate::telemetry::{Counter, FenceSite};

/// `owner` entry of a refno that depends on no margin slot.
const NO_OWNER: usize = usize::MAX;

/// Rows of at most this many slots are scanned, not indexed. Their
/// midpoints fit one cache line, and scanning them costs less than the
/// index's lookup plus its upkeep on every announcement: indexing the
/// 4-slot rows of the list and the hash map cost MP 25 % and 10 % of its
/// throughput there (EXPERIMENTS.md, "A region index over the margin row").
const SCANNED_ROW: usize = 8;

/// Most regions a [`MarginRow`]'s index has. A row of `s` slots gets the
/// power of two at or above `4·s`, up to this, so that up to 64 slots a
/// lookup meets about `2·s / regions ≤ ½` aliased candidates.
const MAX_REGIONS: usize = 256;

/// One thread's announced margins, as its handle mirrors them, with an
/// exact index over their midpoints by region when the row is longer than
/// [`SCANNED_ROW`].
///
/// Region `r` holds the midpoints `m` with `(m >> shift) % regions == r`,
/// where `2^shift` is the least power of two `≥ margin`; its mask has a bit
/// for each slot whose midpoint lies there. A margin covers a precision
/// block exactly when its midpoint lies in the block's *covering window*
/// `[idx_hi − half, idx_lo + half]`. The window is narrower than `2^shift`,
/// so it meets at most two regions: a lookup ORs their two masks and range-
/// checks only the slots named. Aliased regions add candidates but never
/// hide one, so the lookup is exact.
struct MarginRow {
    /// Per slot, the announced midpoint, or `NO_MARGIN`.
    mids: Box<[u64]>,
    /// `margin / 2`.
    half: u64,
    /// log2 of a region's width.
    shift: u32,
    /// `regions − 1`; `regions` is a power of two.
    region_mask: u32,
    /// Mask words per region, `⌈slots / 64⌉`.
    words: u32,
    /// `regions × words` words: bit `s % 64` of word `r · words + s / 64`
    /// is slot `s` in region `r`. Empty for a scanned row.
    masks: Box<[u64]>,
}

impl MarginRow {
    fn new(slots: usize, margin: u32) -> Self {
        let (regions, words) = if slots <= SCANNED_ROW {
            (1, 0)
        } else {
            ((4 * slots).next_power_of_two().min(MAX_REGIONS), slots.div_ceil(64))
        };
        MarginRow {
            mids: vec![NO_MARGIN; slots].into_boxed_slice(),
            half: u64::from(margin / 2),
            shift: u64::from(margin).next_power_of_two().trailing_zeros(),
            region_mask: (regions - 1) as u32,
            words: words as u32,
            masks: vec![0; regions * words].into_boxed_slice(),
        }
    }

    /// Offset of the masks of the region holding midpoint `mid`.
    #[inline]
    fn region(&self, mid: u64) -> usize {
        ((mid >> self.shift) as usize & self.region_mask as usize) * self.words as usize
    }

    /// Records that `slot` now announces `mid`: in an indexed row, two bit
    /// operations besides the store.
    #[inline]
    fn set(&mut self, slot: usize, mid: u64) {
        debug_assert_ne!(mid, NO_MARGIN);
        let old = std::mem::replace(&mut self.mids[slot], mid);
        if self.masks.is_empty() {
            return;
        }
        let (word, bit) = (slot / 64, 1u64 << (slot % 64));
        if old != NO_MARGIN {
            let r = self.region(old);
            self.masks[r + word] &= !bit;
        }
        let r = self.region(mid);
        self.masks[r + word] |= bit;
    }

    /// The lowest-index slot whose margin covers the precision block
    /// `[idx_lo, idx_hi]`, if any: the cross-refno cover check that elides
    /// re-announcements when clients rotate refnos per hop. In an indexed
    /// row it costs two mask loads per 64 slots and one range check per
    /// candidate: O(1) for rows of up to 64 slots. The candidates are all
    /// checked, without a branch on each, and the lowest hit is taken.
    #[inline]
    fn covering(&self, idx_lo: u32, idx_hi: u32) -> Option<usize> {
        let lo = u64::from(idx_hi).saturating_sub(self.half);
        let hi = u64::from(idx_lo) + self.half;
        if self.masks.is_empty() {
            return self.mids.iter().position(|mid| (lo..=hi).contains(mid));
        }
        let (a, b) = (self.region(lo), self.region(hi));
        for w in 0..self.words as usize {
            let (mut candidates, mut hits) = (self.masks[a + w] | self.masks[b + w], 0u64);
            while candidates != 0 {
                let bit = candidates.trailing_zeros();
                let mid = self.mids[w * 64 + bit as usize];
                hits |= u64::from((lo..=hi).contains(&mid)) << bit;
                candidates &= candidates - 1;
            }
            if hits != 0 {
                return Some(w * 64 + hits.trailing_zeros() as usize);
            }
        }
        None
    }
}

/// Margin-pointers SMR scheme (shared state).
pub struct Mp {
    /// Global epoch, advanced every `epoch_freq` unlinks per thread (§4.3.2).
    global_epoch: AtomicU64,
    /// Margin announcement slots (32-bit index midpoints; `NO_MARGIN` idle).
    mp_slots: SlotArray,
    /// Hazard fallback slots (node addresses; `NO_HAZARD` idle).
    hp_slots: SlotArray,
    /// Per-thread announced start-of-operation epochs (`INACTIVE` idle).
    local_epochs: SlotArray,
    core: SchemeCore,
}

/// Per-thread handle for [`Mp`].
pub struct MpHandle {
    scheme: Arc<Mp>,
    core: HandleCore,
    /// Local mirror of this thread's announced margins, with their region
    /// index.
    margins: MarginRow,
    /// This thread's hazard fallback slots and their local mirror.
    hazards: MirroredRow<NO_HAZARD>,
    /// Search-interval endpoints maintained by the client's insert
    /// (Listing 5); consumed by [`SmrHandle::alloc`].
    lower_bound: u32,
    upper_bound: u32,
    /// Epoch announced at `start_op`.
    epoch: u64,
    /// Set when the thread observes the epoch advancing mid-operation;
    /// all subsequent reads protect with HPs (old margins remain valid).
    use_hp_mode: bool,
    /// Per refno, the margin slot covering the node last returned through
    /// it, or `NO_OWNER`. The API contract keeps that node protected until
    /// its refno is reused, so the slot must not change until then.
    /// Nothing resets an entry between operations: a stale one only keeps
    /// a standing margin standing until its refno is read again.
    owner: Vec<usize>,
    /// Per margin slot, how many refnos own it. `announce_margin` stores
    /// only into a slot with no pins — the one rule the safety argument
    /// rests on.
    pins: Vec<u32>,
    /// Rotating cursor over the row for the next announcement's slot.
    cursor: usize,
    /// Cached cover interval `[cover_lo, cover_hi]` (inclusive, empty when
    /// `cover_lo > cover_hi`): a subset of the margin announced in slot
    /// `cover_slot`, capped below the `USE_HP` class, so the hot-path cover
    /// check is two register compares instead of a slot scan. Only
    /// `announce_margin` overwrites a slot, and it re-primes the cache
    /// before returning, so the cache never outlives the margin it mirrors.
    cover_lo: u32,
    cover_hi: u32,
    cover_slot: usize,
    /// Retained slot snapshot (`MpSnapshot` margin/hazard
    /// buffers), refilled in place by every scan.
    snap: MpSnapshot,
    unlink_counter: usize,
}

impl Scheme for Mp {
    const NAME: &'static str = "MP";
    const BIRTH: BirthAt = BirthAt::Word;

    fn core(&self) -> &SchemeCore {
        &self.core
    }

    /// Theorem 4.2's predetermined bound. Each kept node is held by a
    /// hazard (≤ T·H in total) or by a margin of a thread whose epoch
    /// admits its lifetime; a margin spans at most margin + 2^16 indices
    /// (precision slack) and each index piles up at most F·T same-epoch
    /// retirees per epoch window. Astronomically loose, but predetermined —
    /// a scan bug that keeps everything still trips it. Persistent
    /// (cross-op) margins do not widen it: the bound already charges every
    /// slot of every thread.
    #[cfg(feature = "oracle")]
    fn waste_bound(&self) -> Option<u128> {
        let cfg = &self.core.cfg;
        let t = cfg.max_threads as u128;
        let h = cfg.slots_per_thread as u128;
        let m = cfg.margin as u128 + (1 << 16);
        let f = cfg.epoch_freq as u128;
        Some(t * h + t * h * m * f * t)
    }
}

impl Smr for Mp {
    type Handle = MpHandle;

    fn try_new(cfg: Config) -> Result<Arc<Self>, SmrError> {
        let core = SchemeCore::try_new(cfg)?;
        let (threads, slots) = (core.cfg.max_threads, core.cfg.slots_per_thread);
        Ok(Arc::new(Mp {
            global_epoch: AtomicU64::new(1),
            mp_slots: SlotArray::new(threads, slots, NO_MARGIN),
            hp_slots: SlotArray::new(threads, slots, NO_HAZARD),
            local_epochs: SlotArray::new(threads, 1, INACTIVE),
            core,
        }))
    }

    fn try_register(self: &Arc<Self>) -> Result<MpHandle, SmrError> {
        let core = self.core.try_register()?;
        let cfg = &self.core.cfg;
        Ok(MpHandle {
            scheme: self.clone(),
            margins: MarginRow::new(cfg.slots_per_thread, cfg.margin),
            hazards: MirroredRow::new(&self.hp_slots, core.tid),
            lower_bound: 0,
            upper_bound: 0,
            epoch: 0,
            use_hp_mode: false,
            owner: vec![NO_OWNER; cfg.slots_per_thread],
            pins: vec![0; cfg.slots_per_thread],
            cursor: 0,
            cover_lo: 1,
            cover_hi: 0,
            cover_slot: 0,
            snap: MpSnapshot::default(),
            unlink_counter: 0,
            core,
        })
    }

    smr_core_accessors!();
}

impl_handle_telemetry!(MpHandle);

/// Every thread's protection state as one scan sees it (the paper's
/// snapshot optimization, §6). Every margin is `2 · half` wide, so "some
/// margin of a thread meets the block `[lo, hi]`" is "some midpoint lies in
/// `[lo − half, hi + half]`": one binary search over the thread's sorted
/// midpoints, where §4.3 suggests an interval tree. Hazards are judged
/// without the epoch filter, so whose they are does not matter and they
/// share one sorted list. The buffers live in the *handle*
/// (`MpHandle::snap`) and are refilled in place, so steady-state scans
/// reuse their capacity instead of allocating.
#[derive(Default)]
struct MpSnapshot {
    /// `margin / 2`.
    half: u64,
    /// Every announced hazard address, sorted.
    hazards: Vec<u64>,
    /// One entry per thread row.
    threads: Vec<ThreadMargins>,
}

#[derive(Default)]
struct ThreadMargins {
    /// The thread's announced start-of-operation epoch (`INACTIVE` idle).
    epoch: u64,
    /// Its announced margin midpoints, sorted.
    margins: Vec<u64>,
}

impl MpSnapshot {
    /// True if a margin of some thread whose epoch lies in `[birth, retire]`
    /// meets the precision block of `index`.
    fn margin_covers(&self, index: u32, birth: u64, retire: u64) -> bool {
        if is_use_hp_class(index) {
            return false;
        }
        let (lo, hi) = precision_range(index);
        let (lo, hi) = (lo.saturating_sub(self.half), hi + self.half);
        // The epoch filter applies to margins only: a thread whose announced
        // epoch lies outside the node's lifetime cannot have (validly)
        // margin-protected it — Theorem 4.2's key step, bounding same-index
        // retiree pileups.
        self.threads
            .iter()
            .any(|t| birth <= t.epoch && t.epoch <= retire && interval_hit(&t.margins, lo, hi))
    }
}

/// The *pointer-precision range* of `index`: due to the 16-bit packing
/// loss, protection must be judged against the full
/// `[index & !0xffff, index | 0xffff]` block (Listing 10, note 7).
fn precision_range(index: u32) -> (u64, u64) {
    ((index & 0xffff_0000) as u64, (index | 0xffff) as u64)
}

/// The reclamation predicate of Listing 10's `empty`, over the slot
/// snapshot.
impl Protection<Mp> for MpSnapshot {
    /// Refills the snapshot in place; after warm-up every buffer reuses its
    /// retained capacity.
    fn snapshot(&mut self, scheme: &Mp) {
        self.half = (scheme.core.cfg.margin / 2) as u64;
        scheme.hp_slots.announced_sorted_into(&mut self.hazards);
        self.threads.resize_with(scheme.core.cfg.max_threads, ThreadMargins::default);
        for (tid, t) in self.threads.iter_mut().enumerate() {
            // Every slot is read on its own, like a hazard slot: a slot a
            // returned node depends on does not change until that node's
            // refno is reused, so there is no move for the read to tear.
            t.margins.clear();
            t.margins.extend(
                scheme
                    .mp_slots
                    .row(tid)
                    .iter()
                    .map(|s| s.load(Ordering::Acquire))
                    .filter(|&v| v != NO_MARGIN),
            );
            t.margins.sort_unstable();
            t.epoch = scheme.local_epochs.get(tid, 0).load(Ordering::Acquire);
        }
    }

    /// A node is free when no HP holds its address and no margin (of a
    /// thread whose epoch admits the node's lifetime) covers its index:
    /// then no thread can have validated protection for it (Theorem 4.3).
    #[inline]
    fn is_protected(&self, r: &Retired) -> bool {
        // Hazard check: UNCONDITIONAL. Listing 10 epoch-filters the hazard
        // slots too, but a thread that observed the epoch advancing protects
        // *newer-born* nodes with HPs (the §4.3.2 fallback) precisely while
        // its announced epoch predates their birth — epoch-filtering hazards
        // would reclaim under those protections (caught by
        // tests/mp_depth.rs). Address protection is epoch-free and the waste
        // bound's #HP term is unaffected.
        self.hazards.binary_search(&r.addr()).is_ok()
            || self.margin_covers(r.index, r.birth, r.retire)
    }
}

impl MpHandle {
    /// Ends `refno`'s dependence on its margin slot, if it has one.
    #[inline]
    fn release(&mut self, refno: usize) {
        let slot = self.owner[refno];
        if slot != NO_OWNER {
            self.pins[slot] -= 1;
            self.owner[refno] = NO_OWNER;
        }
    }

    /// Records that the node now returned through `refno` is covered by
    /// margin slot `slot`.
    #[inline]
    fn set_owner(&mut self, refno: usize, slot: usize) {
        self.release(refno);
        self.owner[refno] = slot;
        self.pins[slot] += 1;
    }

    /// Primes the cover cache with the interval of the margin announced in
    /// `slot`. The cached bounds saturate *inward* (never widen) and cap
    /// below the `USE_HP` class, so a cache hit simultaneously proves the
    /// precision block is margin-covered and not `USE_HP`-stamped.
    #[inline]
    fn cache_cover(&mut self, slot: usize) {
        let (mid, half) = (self.margins.mids[slot], self.margins.half);
        self.cover_lo = u32::try_from(mid.saturating_sub(half)).unwrap_or(u32::MAX);
        self.cover_hi = (mid.saturating_add(half)).min(0xfffe_ffff) as u32;
        self.cover_slot = slot;
    }

    /// Publishes a margin covering the precision block at `idx_lo` on
    /// behalf of `refno`: one slot store and one fence (Listing 10). The
    /// store goes into a slot no refno owns, so every node this operation
    /// still holds keeps the announcement it was validated against, and a
    /// scan reading the row slot by slot needs no more than the hazard
    /// argument of [`MirroredRow::protect`]: announce, fence, validate.
    fn announce_margin(&mut self, refno: usize, idx_lo: u32) {
        // Forward-centered midpoint, derived from the configured margin:
        // the interval is [idx_lo, idx_lo + 2·(margin/2)], and margin >
        // 2^16 (Config validation) keeps the whole precision block inside.
        let mid = idx_lo as u64 + self.margins.half;
        self.release(refno);
        // At most `slots − 1` other refnos own a slot, so the cursor finds
        // an unpinned one within a lap. The margin `refno` depended on
        // stays where it is: standing coverage for later operations.
        let slot = loop {
            let s = self.cursor;
            self.cursor = if s + 1 == self.pins.len() { 0 } else { s + 1 };
            if self.pins[s] == 0 {
                break s;
            }
        };
        self.scheme.mp_slots.get(self.core.tid, slot).store(mid, Ordering::Release);
        self.set_owner(refno, slot);
        counted_fence(&mut self.core.tele, FenceSite::Announce);
        // The local mirror and its index are updated after the fence, so
        // the fence does not wait on the index's stores.
        self.margins.set(slot, mid);
        // The store above is the only place announced coverage can be
        // destroyed, so re-priming here keeps the cover cache a subset of
        // live coverage.
        self.cache_cover(slot);
    }

    /// Condemns the rest of the operation to hazard-pointer protection
    /// (§4.3.2). Emptying the cover cache is what keeps the inlined read
    /// fast path honest — it no longer tests the mode flag.
    fn enter_hp_mode(&mut self) {
        self.use_hp_mode = true;
        self.cover_lo = 1;
        self.cover_hi = 0;
    }

    /// Slow path of [`SmrHandle::read`]: HP fallback, margin lookup
    /// beyond the cover cache, announcement, and validation. Kept out of
    /// the wrapper so the per-hop fast path stays small enough to inline
    /// into traversal loops.
    #[cold]
    fn read_slow<T: Send + Sync>(&mut self, src: &Atomic<T>, refno: usize) -> Shared<T> {
        self.core.tele.bump(Counter::ReadSlow);
        let mut backoff = mp_util::Backoff::new();
        loop {
            let w = src.load(Ordering::Acquire);
            if w.is_null() {
                #[cfg(feature = "oracle")]
                self.core.ledger.read(refno, 0, false);
                return w;
            }
            let (idx_lo, idx_hi) = w.index_bounds();

            // Collision / USE_HP-class / fallback-mode reads go through
            // HP's own protect (§4.3.2), on the refno's hazard slot.
            if idx_hi == USE_HP || self.use_hp_mode {
                self.core.tele.bump(Counter::HpFallbackReads);
                let (slots, tele) = (&self.scheme.hp_slots, &mut self.core.tele);
                if self.hazards.protect(slots, tele, refno, src, w).is_ok() {
                    // The hazard slot owns this refno's protection now.
                    self.release(refno);
                    #[cfg(feature = "oracle")]
                    self.core.ledger.read(refno, w.addr(), true);
                    return w;
                }
                // Validation raced a writer; back off before re-announcing.
                backoff.spin();
                continue;
            }

            // Margin path: fence-free whenever ANY announced margin covers
            // the precision block (the cache above only mirrors one).
            if let Some(slot) = self.margins.covering(idx_lo, idx_hi) {
                // ORDERING: pairs = schemes/mp.rs:announce_margin — same
                // announce-fence/Release-publish pairing argument as the
                // cached-cover fast path above.
                if self.scheme.global_epoch.load(Ordering::Relaxed) == self.epoch {
                    self.cache_cover(slot);
                    self.set_owner(refno, slot);
                    #[cfg(feature = "oracle")]
                    self.core.ledger.read(refno, w.addr(), false);
                    return w;
                }
                // Epoch advanced: §4.3.2 HP mode. Restart the loop so the
                // node is re-validated under a hazard pointer.
                self.enter_hp_mode();
                continue;
            }

            // Announce a margin centered on the traversal direction:
            // indices grow along a traversal (midpoint assignment orders
            // them), so spend the whole interval forward of the block base.
            self.announce_margin(refno, idx_lo);
            // Validate the node is still reachable from `src`: the margin
            // was announced while the node was linked.
            if src.load(Ordering::Acquire) == w {
                // Listing 10: ensure the epoch did not advance across the
                // announcement; if it did, fall back to HPs (§4.3.2).
                if self.scheme.global_epoch.load(Ordering::SeqCst) != self.epoch {
                    self.enter_hp_mode();
                    continue;
                }
                #[cfg(feature = "oracle")]
                self.core.ledger.read(refno, w.addr(), false);
                return w;
            }
            // Margin validation raced a writer on `src`; back off.
            backoff.spin();
        }
    }

    /// Listing 10's index for a new node: the midpoint of the search
    /// interval, or `USE_HP` when the interval has no room (index
    /// collision, §4.3.2).
    fn interval_index(&mut self) -> u32 {
        let lo = self.lower_bound.min(self.upper_bound);
        let hi = self.lower_bound.max(self.upper_bound);
        let index = if hi - lo <= 1 { USE_HP } else { lo + (hi - lo) / 2 };
        // A `USE_HP` bound enters the arithmetic as 0xffff_ffff, so the
        // result can land anywhere in the `USE_HP` class; such a node is
        // hazard-protected whatever its low bits say — a collision.
        if is_use_hp_class(index) {
            self.core.tele.bump(Counter::CollisionAllocs);
            return USE_HP;
        }
        index
    }

    /// Test/model introspection: the index intervals `[lo, hi]` this
    /// thread currently announces. Not part of the SMR API surface.
    #[doc(hidden)]
    pub fn announced_margins(&self) -> Vec<(u64, u64)> {
        let half = self.margins.half;
        self.margins
            .mids
            .iter()
            .filter(|&&v| v != NO_MARGIN)
            .map(|&v| (v.saturating_sub(half), v + half))
            .collect()
    }

    /// Test/model introspection: the epoch this thread has announced.
    #[doc(hidden)]
    pub fn announced_epoch(&self) -> u64 {
        self.epoch
    }
}

impl SmrHandle for MpHandle {
    fn start_op(&mut self) {
        self.core.start_op::<Mp>();
        self.lower_bound = 0;
        self.upper_bound = 0;
        self.use_hp_mode = false;
        // Amortized epoch announcement (HE's lazy-era discipline): margins
        // and the announced epoch persist across operations, so the
        // op-start fence is owed only when the global epoch moved since
        // our standing announcement — the announcement currently visible
        // to reclaimers was already published by an earlier fence.
        let e = self.scheme.global_epoch.load(Ordering::SeqCst);
        if e != self.epoch {
            self.epoch = e;
            self.scheme.local_epochs.get(self.core.tid, 0).store(e, Ordering::Release);
            // Announcement must be visible before any data-structure read
            // (Listing 10 start_op's memory_fence).
            counted_fence(&mut self.core.tele, FenceSite::StartOp);
        }
    }

    fn end_op(&mut self) {
        self.core.end_op();
        // Amortized end: release the hazard slots — address protection
        // must not outlive the operation, since addresses are recycled —
        // but KEEP the margins and the epoch announcement. A standing
        // (margin, epoch) pair pins only nodes whose lifetime contains
        // that epoch, a finite set that only shrinks (HE's lazy-era
        // argument), and the next operation reuses both without a fence.
        // Dropping protection needs no fence: a reclaimer that still sees
        // the stale hazard merely keeps a node one scan longer. The clear
        // itself is owed only when this operation published a hazard —
        // pure margin-path operations end in O(1).
        self.hazards.clear(&self.scheme.hp_slots);
    }

    // Inlined into traversal loops: the steady-state hop costs two
    // compares against the cached cover interval (a subset of a standing
    // margin, capped below the USE_HP class — so a hit also proves the
    // node is neither USE_HP-stamped nor read in HP-fallback mode, which
    // empties the cache), the epoch equality check, and one compare of the
    // refno's owner against the cached slot. Everything else lives in the
    // outlined `read_slow`.
    #[inline]
    fn read<T: Send + Sync>(&mut self, src: &Atomic<T>, refno: usize) -> Shared<T> {
        let w = src.load(Ordering::Acquire);
        if w.is_null() {
            #[cfg(feature = "oracle")]
            self.core.ledger.read(refno, 0, false);
            return w;
        }
        let (idx_lo, idx_hi) = w.index_bounds();
        if idx_lo >= self.cover_lo
            && idx_hi <= self.cover_hi
            // ORDERING: pairs = schemes/mp.rs:announce_margin — Relaxed
            // pairs with the publisher's release store of the node into
            // `src`: the birth stamp was read from `global_epoch`
            // sequenced-before that publish, our acquire load of `src`
            // observed the node, and read-read coherence on the monotone
            // `global_epoch` forces this load to return a value ≥ the
            // node's birth — equality with `self.epoch` therefore proves
            // birth ≤ announced epoch. Retire stamps are ≥ the announced
            // epoch by monotonicity since it was read. No fence here: the
            // covering margin and the epoch were fenced when announced.
            && self.scheme.global_epoch.load(Ordering::Relaxed) == self.epoch
        {
            if self.owner[refno] != self.cover_slot {
                self.set_owner(refno, self.cover_slot);
            }
            #[cfg(feature = "oracle")]
            self.core.ledger.read(refno, w.addr(), false);
            return w;
        }
        self.read_slow(src, refno)
    }

    fn unprotect(&mut self, _refno: usize) {
        // No-op (§4.3 "Node Unprotection"): margins keep protecting
        // future-accessed nodes; hazard slots are cleared wholesale at
        // end_op and margins persist until evicted by refno reuse. The
        // API's rule still holds: the refno's node is released.
        #[cfg(feature = "oracle")]
        self.core.ledger.release(_refno);
    }

    fn alloc_with_tail<T: Send + Sync>(
        &mut self,
        data: T,
        index: Option<u32>,
        tail_len: usize,
    ) -> Shared<T> {
        let index = index.unwrap_or_else(|| self.interval_index());
        let birth = self.scheme.global_epoch.load(Ordering::SeqCst);
        self.core.alloc::<Mp, _>(data, index, birth, tail_len)
    }

    // SAFETY: [INV-11] trait contract: the caller retires a removed node
    // exactly once (the winning unlink CAS is at the call site).
    unsafe fn retire<T: Send + Sync>(&mut self, node: Shared<T>) {
        let stamp = self.scheme.global_epoch.load(Ordering::SeqCst);
        self.unlink_counter += 1;
        // §4.3.2: each thread increments the global epoch once every
        // `epoch_freq` node unlinks — the F of Theorem 4.2's bound.
        if self.unlink_counter.is_multiple_of(self.scheme.core.cfg.epoch_freq) {
            self.scheme.global_epoch.fetch_add(1, Ordering::SeqCst);
        }
        // SAFETY: [INV-04] forwarded from this fn's own contract.
        unsafe { self.core.retire(&*self.scheme, &mut self.snap, node, stamp, stamp) }
    }

    // PROTECTION: caller — the client passes a node it protected during the
    // current operation (Listing 5 reads n->index under that span).
    fn update_lower_bound<T: Send + Sync>(&mut self, node: Shared<T>) {
        // SAFETY: [INV-01] deref dominated by the caller's protected read.
        let idx = unsafe { node.deref() }.index();
        self.lower_bound = idx;
    }

    // PROTECTION: caller — same contract as `update_lower_bound`.
    fn update_upper_bound<T: Send + Sync>(&mut self, node: Shared<T>) {
        // SAFETY: [INV-01] deref dominated by the caller's protected read.
        let idx = unsafe { node.deref() }.index();
        self.upper_bound = idx;
    }

    fn retired_len(&self) -> usize {
        self.core.retired_len()
    }

    fn force_empty(&mut self) {
        self.core.scan(&*self.scheme, &mut self.snap);
    }
}

impl Drop for MpHandle {
    fn drop(&mut self) {
        // Dropping announcements is removal-only — a stale observation can
        // only over-protect nodes this thread no longer reads — so no
        // fence is needed.
        self.scheme.mp_slots.clear_row(self.core.tid);
        self.hazards.clear(&self.scheme.hp_slots);
        self.scheme.local_epochs.get(self.core.tid, 0).store(INACTIVE, Ordering::Release);
        self.core.release(&*self.scheme, &mut self.snap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::MAX_INDEX;
    use crate::telemetry::{Counter, Telemetry};

    fn setup(threads: usize) -> Arc<Mp> {
        Mp::new(
            Config {
                max_threads: threads,
                epoch_freq: 1000,
                ..Config::default()
            }, // avoid mid-test epoch churn unless wanted
        )
    }

    /// Builds a node with a given index, linked into a cell.
    fn cell_with<T: Send + Sync>(h: &mut MpHandle, data: T, index: u32) -> (Atomic<T>, Shared<T>) {
        let n = h.alloc_with_index(data, index);
        (Atomic::new(n), n)
    }

    #[test]
    fn midpoint_index_assignment() {
        let smr = setup(1);
        let mut h = smr.register();
        h.start_op();
        let (c_lo, lo) = cell_with(&mut h, 0u32, 1000);
        let (c_hi, hi) = cell_with(&mut h, 0u32, 3000);
        let lo_r = h.read(&c_lo, 0);
        let hi_r = h.read(&c_hi, 1);
        h.update_lower_bound(lo_r);
        h.update_upper_bound(hi_r);
        let n = h.alloc(7u32);
        // SAFETY: [INV-12] node protected by this test's open span.
        assert_eq!(unsafe { n.deref() }.index(), 2000, "midpoint of (1000,3000)");
        h.end_op();
        // SAFETY: [INV-12] test-owned nodes, each retired exactly once.
        unsafe {
            h.retire(n);
            h.retire(lo);
            h.retire(hi);
        }
        let _ = (c_lo, c_hi);
    }

    #[test]
    fn exhausted_interval_yields_use_hp() {
        let smr = setup(1);
        let mut h = smr.register();
        h.start_op();
        let (c_lo, lo) = cell_with(&mut h, 0u32, 41);
        let (c_hi, hi) = cell_with(&mut h, 0u32, 42);
        let lo_r = h.read(&c_lo, 0);
        let hi_r = h.read(&c_hi, 1);
        h.update_lower_bound(lo_r);
        h.update_upper_bound(hi_r);
        let n = h.alloc(1u8);
        // SAFETY: [INV-12] node protected by this test's open span.
        assert_eq!(unsafe { n.deref() }.index(), USE_HP);
        assert_eq!(h.counter(Counter::CollisionAllocs), 1);
        h.end_op();
        // SAFETY: [INV-12] test-owned nodes, each retired exactly once.
        unsafe {
            h.retire(n);
            h.retire(lo);
            h.retire(hi);
        }
    }

    #[test]
    fn margin_protects_nearby_nodes_without_extra_fences() {
        let smr = setup(1);
        let mut h = smr.register();
        h.start_op();
        // Nodes clustered within one margin (margin default 2^20).
        let cells: Vec<_> =
            (0..8u32).map(|i| cell_with(&mut h, i, 500_000 + (i << 16))).collect();
        let f0 = h.counter(Counter::Fences);
        let _ = h.read(&cells[0].0, 0);
        let after_first = h.counter(Counter::Fences);
        assert_eq!(after_first, f0 + 1, "first read announces one margin");
        assert_eq!(h.counter(Counter::FencesAnnounce), 1, "the fence is attributed to the announce site");
        for (i, (c, _)) in cells[1..].iter().enumerate() {
            // Rotate refnos like a list traversal would: the cross-refno
            // cover check must keep the cluster fence-free anyway.
            let _ = h.read(c, (i + 1) % 3);
        }
        assert_eq!(h.counter(Counter::Fences), after_first, "margin covers the cluster: no more fences");
        h.end_op();
        for (_, n) in cells {
            unsafe { h.retire(n) }; // SAFETY: [INV-12] test-owned, retired once.
        }
    }

    #[test]
    fn margin_midpoint_derived_from_config() {
        // Satellite regression for the hardcoded `idx_lo + (1 << 15)`
        // midpoint: with a non-default margin the announced interval must
        // span [idx_lo, idx_lo + margin], i.e. forward over the traversal
        // direction and scaled by the *configured* margin.
        let margin = 1u32 << 22;
        let smr = Mp::new(Config { max_threads: 1, epoch_freq: 1000, margin, ..Config::default() });
        let mut h = smr.register();
        h.start_op();
        let base = 1u32 << 24;
        let (c0, n0) = cell_with(&mut h, 0u32, base);
        let _ = h.read(&c0, 0);
        let f_after_first = h.counter(Counter::Fences);

        // Far forward but still inside [base, base + margin]: covered.
        let (c1, n1) = cell_with(&mut h, 1u32, base + margin - (1 << 16));
        let _ = h.read(&c1, 1);
        assert_eq!(h.counter(Counter::Fences), f_after_first, "configured margin covers forward reads");

        // Just beyond the configured margin: must re-announce.
        let (c2, n2) = cell_with(&mut h, 2u32, base + margin + (1 << 16));
        let _ = h.read(&c2, 2);
        assert_eq!(h.counter(Counter::Fences), f_after_first + 1, "past-margin read announces");

        // Behind the block base: forward centering does not cover it.
        let (c3, n3) = cell_with(&mut h, 3u32, base - (1 << 17));
        let f_before_back = h.counter(Counter::Fences);
        let _ = h.read(&c3, 0);
        assert_eq!(h.counter(Counter::Fences), f_before_back + 1, "margins are forward-centered");

        h.end_op();
        // SAFETY: [INV-12] test-owned nodes, each retired exactly once.
        unsafe {
            h.retire(n0);
            h.retire(n1);
            h.retire(n2);
            h.retire(n3);
        }
        let _ = (c0, c1, c2, c3);
    }

    #[test]
    fn standing_margin_survives_end_op_and_elides_next_op_fences() {
        let smr = setup(1);
        let mut h = smr.register();
        h.start_op();
        let (c, n) = cell_with(&mut h, 1u32, 500_000);
        let _ = h.read(&c, 0);
        h.end_op();
        let fences_after_op1 = h.counter(Counter::Fences);
        // Second op over the same region: no epoch movement, standing
        // margin → zero fences for both the bracketing and the read.
        h.start_op();
        let _ = h.read(&c, 1);
        h.end_op();
        assert_eq!(
            h.counter(Counter::Fences),
            fences_after_op1,
            "unchanged epoch + standing margin must make the second op fence-free \
             (start_op {}, end_op {}, announce {}, hp {})",
            h.counter(Counter::FencesStartOp),
            h.counter(Counter::FencesEndOp),
            h.counter(Counter::FencesAnnounce),
            h.counter(Counter::FencesHpProtect),
        );
        // SAFETY: [INV-12] test-owned node, retired once.
        unsafe { h.retire(n) };
        let _ = c;
    }

    #[test]
    fn margin_blocks_reclamation_of_covered_node() {
        let smr = setup(2);
        let mut reader = smr.register();
        let mut writer = smr.register();

        writer.start_op();
        let (cell, n) = cell_with(&mut writer, 5u64, 700_000);

        reader.start_op();
        let got = reader.read(&cell, 0);
        assert_eq!(got, n);

        cell.store(Shared::null(), Ordering::Release);
        unsafe { writer.retire(n) }; // SAFETY: [INV-12] unlinked above, retired once.
        writer.force_empty();
        assert_eq!(writer.retired_len(), 1, "margin must pin the covered index");
        // SAFETY: [INV-12] reader's span is still open and pins the node.
        assert_eq!(unsafe { *got.deref().data() }, 5);

        reader.end_op();
        writer.force_empty();
        assert_eq!(
            writer.retired_len(),
            1,
            "margins persist across end_op (amortization): still pinned"
        );
        drop(reader);
        writer.force_empty();
        assert_eq!(writer.retired_len(), 0, "dropping the handle releases the margin");
        writer.end_op();
    }

    #[test]
    fn far_away_nodes_not_pinned_by_margin() {
        let smr = setup(2);
        let mut reader = smr.register();
        let mut writer = smr.register();

        writer.start_op();
        let (cell, near) = cell_with(&mut writer, 0u32, 1 << 24);
        reader.start_op();
        let _ = reader.read(&cell, 0); // margin forward from 2^24

        // Retire nodes far outside the margin (margin = 2^20).
        for i in 0..50u32 {
            let far = writer.alloc_with_index(i, (1 << 28) + (i << 17));
            unsafe { writer.retire(far) }; // SAFETY: [INV-12] never published, retired once.
        }
        writer.force_empty();
        assert_eq!(writer.retired_len(), 0, "distant indices unprotected");

        cell.store(Shared::null(), Ordering::Release);
        unsafe { writer.retire(near) }; // SAFETY: [INV-12] unlinked above, retired once.
        writer.force_empty();
        assert_eq!(writer.retired_len(), 1, "near node still pinned");
        drop(reader);
        writer.end_op();
        writer.force_empty();
        assert_eq!(writer.retired_len(), 0);
    }

    #[test]
    fn use_hp_class_node_protected_via_hazard() {
        let smr = setup(2);
        let mut reader = smr.register();
        let mut writer = smr.register();

        writer.start_op();
        let (cell, n) = cell_with(&mut writer, 9u32, USE_HP);
        reader.start_op();
        let got = reader.read(&cell, 0);
        assert_eq!(got, n);
        assert!(reader.counter(Counter::HpFallbackReads) >= 1, "collision path must use HP");
        assert!(reader.counter(Counter::FencesHpProtect) >= 1, "attributed to the HP site");

        cell.store(Shared::null(), Ordering::Release);
        unsafe { writer.retire(n) }; // SAFETY: [INV-12] unlinked above, retired once.
        writer.force_empty();
        assert_eq!(writer.retired_len(), 1, "hazard pins the collision node");
        // SAFETY: [INV-12] reader's hazard span is still open and pins the node.
        assert_eq!(unsafe { *got.deref().data() }, 9);

        // Hazards (unlike margins) are released at end_op: addresses get
        // recycled, so address protection must not outlive the op.
        reader.end_op();
        writer.force_empty();
        assert_eq!(writer.retired_len(), 0);
        writer.end_op();
    }

    #[test]
    fn epoch_advance_mid_op_switches_to_hp() {
        let cfg = Config { max_threads: 2, empty_freq: 1000, epoch_freq: 1, ..Config::default() };
        let smr = Mp::new(cfg);
        let mut reader = smr.register();
        let mut writer = smr.register();

        writer.start_op();
        let (c1, n1) = cell_with(&mut writer, 1u32, 100_000);
        let (c2, n2) = cell_with(&mut writer, 2u32, 110_000);

        reader.start_op();
        let _ = reader.read(&c1, 0); // margin announced at epoch e

        // Writer unlinks something unrelated → epoch advances (freq 1).
        let junk = writer.alloc_with_index(0u8, 1);
        unsafe { writer.retire(junk) }; // SAFETY: [INV-12] never published, retired once.

        // §4.3.2: the rest of the operation protects with hazard pointers.
        let before = reader.counter(Counter::HpFallbackReads);
        let _ = reader.read(&c2, 1);
        assert!(reader.use_hp_mode, "epoch change must flip the fallback flag");
        let _ = reader.read(&c1, 0);
        assert!(reader.counter(Counter::HpFallbackReads) > before);

        reader.end_op();
        writer.end_op();
        // SAFETY: [INV-12] test-owned nodes, each retired exactly once.
        unsafe {
            writer.retire(n1);
            writer.retire(n2);
        }
        writer.force_empty();
        let _ = (c1, c2);
    }

    #[test]
    fn reused_refno_leaves_its_old_margin_standing() {
        // Refno reuse must not throw away the standing margin: the new
        // announcement goes into another slot, and a later read in the old
        // region stays fence-free.
        let smr = setup(1);
        let mut h = smr.register();
        h.start_op();
        let region_a = 1u32 << 24;
        let region_b = 1u32 << 28;
        let (ca, na) = cell_with(&mut h, 0u32, region_a);
        let (cb, nb) = cell_with(&mut h, 1u32, region_b);
        let (ca2, na2) = cell_with(&mut h, 2u32, region_a + (1 << 16));

        let _ = h.read(&ca, 0); // announce margin over region A
        let _ = h.read(&cb, 0); // refno 0 reused far away: A's margin stays
        let fences = h.counter(Counter::Fences);
        let _ = h.read(&ca2, 1); // back in region A: covered by the standing margin
        assert_eq!(h.counter(Counter::Fences), fences, "standing margin keeps region A fence-free");

        h.end_op();
        // SAFETY: [INV-12] test-owned nodes, each retired exactly once.
        unsafe {
            h.retire(na);
            h.retire(nb);
            h.retire(na2);
        }
        let _ = (ca, cb, ca2);
    }

    #[test]
    fn node_stays_covered_until_its_own_refno_is_reused() {
        // A node returned under a cross-refno cover must stay protected
        // until ITS refno is reused, even when the refno that announced the
        // covering margin moves on (2 slots: the other one takes the new
        // announcement).
        let cfg =
            Config { max_threads: 2, slots_per_thread: 2, epoch_freq: 1000, ..Config::default() };
        let smr = Mp::new(cfg);
        let mut reader = smr.register();
        let mut writer = smr.register();

        writer.start_op();
        let (ca, na) = cell_with(&mut writer, 7u64, 1 << 24);
        let (cb, nb) = cell_with(&mut writer, 8u64, (1 << 24) + (1 << 16));
        let (cc, nc) = cell_with(&mut writer, 9u64, 1 << 28);

        reader.start_op();
        let _ = reader.read(&ca, 0); // margin over region A
        let got_b = reader.read(&cb, 1); // cross-refno cover: refno 1 owns A's slot too
        // Refno 0 reused far away: A's slot is still pinned by refno 1, so
        // the announcement must land in the other slot.
        let _ = reader.read(&cc, 0);

        cb.store(Shared::null(), Ordering::Release);
        unsafe { writer.retire(nb) }; // SAFETY: [INV-12] unlinked above, retired once.
        writer.force_empty();
        assert_eq!(writer.retired_len(), 1, "the node must remain margin-pinned");
        // SAFETY: [INV-12] refno 1's margin protection is still in force.
        assert_eq!(unsafe { *got_b.deref().data() }, 8);

        drop(reader);
        writer.force_empty();
        assert_eq!(writer.retired_len(), 0);
        // SAFETY: [INV-12] test-owned nodes, each retired exactly once.
        unsafe {
            writer.retire(na);
            writer.retire(nc);
        }
        writer.end_op();
        let _ = (ca, cc);
    }

    #[test]
    fn two_slots_always_leave_one_free_for_the_next_announcement() {
        // The "a free slot always exists" argument at its tightest: two
        // slots, two refnos reused alternately, every read far from every
        // standing margin. Each announcement must find the slot the reused
        // refno just gave up, and the node held through the other refno
        // must keep its margin.
        let cfg = Config {
            max_threads: 1,
            slots_per_thread: 2,
            epoch_freq: 1_000_000,
            ..Config::default()
        };
        let smr = Mp::new(cfg);
        let mut h = smr.register();
        h.start_op();
        let cells: Vec<_> = (0..1_000u32).map(|i| cell_with(&mut h, i, (i + 1) << 22)).collect();
        let covered = |h: &MpHandle, i: usize| {
            let idx = ((i as u64) + 1) << 22;
            h.announced_margins().iter().any(|&(lo, hi)| lo <= idx && idx <= hi)
        };
        for (i, (c, n)) in cells.iter().enumerate() {
            assert_eq!(h.read(c, i % 2), *n);
            assert_eq!(h.counter(Counter::FencesAnnounce), i as u64 + 1, "every read announces");
            assert!(covered(&h, i), "read {i}: the node just returned is not covered");
            assert!(i == 0 || covered(&h, i - 1), "read {i}: the other refno's node lost its margin");
        }
        assert_eq!(h.counter(Counter::HpFallbackReads), 0);
        h.end_op();
        for (_, n) in cells {
            unsafe { h.retire(n) }; // SAFETY: [INV-12] test-owned, retired once.
        }
    }

    #[test]
    fn theorem_4_2_waste_is_bounded_under_stall() {
        // A stalled thread with announced margins + epoch pins at most
        // #HP + #MP·M + #MP·M·F·T nodes; churned nodes born after its epoch
        // must be reclaimed. We churn same-index nodes — the worst case the
        // epoch filter exists for.
        let cfg =
            Config { max_threads: 2, slots_per_thread: 2, epoch_freq: 10, ..Config::default() };
        let smr = Mp::new(cfg);
        let mut stalled = smr.register();
        let mut worker = smr.register();

        worker.start_op();
        let (cell, pinned) = cell_with(&mut worker, 0u32, 800_000);
        stalled.start_op();
        let _ = stalled.read(&cell, 0); // margin over 800_000, then stall

        // Churn 5_000 nodes with the *same* index inside the margin.
        for i in 0..5_000u32 {
            let n = worker.alloc_with_index(i, 800_001);
            unsafe { worker.retire(n) }; // SAFETY: [INV-12] never published, retired once.
        }
        worker.force_empty();
        // Bound: #HP + #MP·M + #MP·M·F·T is astronomically larger than what
        // we expect in practice; empirically only nodes retired while the
        // stalled epoch admits them stay pinned — a couple of epochs' worth.
        let pinned_count = worker.retired_len();
        assert!(
            pinned_count <= 2 * 10 * 2, // ≈ F·T epochs of same-margin churn
            "stall pinned {pinned_count} nodes; epoch filter failed"
        );

        // With amortized announcements the margins outlive end_op; only
        // dropping the handle withdraws them.
        drop(stalled);
        cell.store(Shared::null(), Ordering::Release);
        unsafe { worker.retire(pinned) }; // SAFETY: [INV-12] unlinked above, retired once.
        worker.end_op();
        worker.force_empty();
        assert_eq!(worker.retired_len(), 0);
    }

    #[test]
    fn margins_at_both_ends_of_the_index_space_protect_their_blocks_only() {
        let smr = setup(2);
        let (margin, half) = (1u32 << 20, 1u64 << 19);
        // Thread 1, epoch 5: one margin whose lower edge falls below index 0
        // and one whose upper edge passes `MAX_INDEX`, stored out of order.
        smr.mp_slots.get(1, 0).store(MAX_INDEX as u64, Ordering::Release);
        smr.mp_slots.get(1, 1).store(0x8000, Ordering::Release);
        smr.local_epochs.get(1, 0).store(5, Ordering::Release);
        let mut snap = MpSnapshot::default();
        snap.snapshot(&smr);
        assert_eq!(snap.half, half);

        assert!(snap.margin_covers(0x0001_0000, 5, 5), "block above the low midpoint");
        assert!(snap.margin_covers(MAX_INDEX, 1, 9), "MAX_INDEX's own block");
        assert!(snap.margin_covers(MAX_INDEX - margin / 2, 5, 7), "half a margin below the top");
        assert!(!snap.margin_covers(0x0001_0000 + 2 * margin, 5, 5), "a margin past the low one");
        assert!(!snap.margin_covers(MAX_INDEX - 2 * margin, 5, 5), "a margin short of the high one");
        // The epoch filter: a lifetime the announced epoch lies outside of.
        assert!(!snap.margin_covers(0x0001_0000, 6, 9));
        assert!(!snap.margin_covers(MAX_INDEX, 1, 4));
        // The USE_HP class is never margin-protected, whatever the margins.
        assert!(!snap.margin_covers(USE_HP, 5, 5));
    }

    /// The linear definition the region index replaced: midpoint `mid`
    /// covers the whole precision block `[idx_lo, idx_hi]` under half-width
    /// `half`.
    fn covers(mid: u64, half: i64, idx_lo: u32, idx_hi: u32) -> bool {
        mid != NO_MARGIN
            && mid as i64 - half <= idx_lo as i64
            && (idx_hi as i64) <= mid as i64 + half
    }

    #[test]
    fn region_index_finds_the_slot_the_linear_scan_finds() {
        use mp_util::{RngExt, SeedableRng, SmallRng};
        let mut rng = SmallRng::seed_from_u64(0x6d70_5f72_6567_696f);
        let block = |idx: u32| (idx & 0xffff_0000, idx | 0xffff);
        let (mut hits, mut misses) = (0u32, 0u32);
        // A scanned row, the shortest indexed row, and indexed rows of one
        // and of two mask words.
        for slots in [4usize, 9, 62, 70] {
            for shift in 17..=31u32 {
                // A power of two, and an odd margin just above the next
                // lower one, whose region is still `2^shift` wide.
                let odd = (1u32 << (shift - 1)) + 1 + 2 * rng.random_range(0..1u32 << (shift - 2));
                for margin in [1u32 << shift, odd] {
                    let mut row = MarginRow::new(slots, margin);
                    let half = row.half;
                    let top = MAX_INDEX as u64 + half;
                    // A few hot spots, so that several slots cover one block
                    // and share or alias regions.
                    let hot: Vec<u64> = (0..3).map(|_| rng.random_range(0..top)).collect();
                    for _ in 0..300 {
                        let mid = match rng.random_range(0..6u8) {
                            0 => 0,
                            1 => MAX_INDEX as u64,
                            2 => top,
                            3 => rng.random_range(0..top + 1),
                            _ => {
                                let c = hot[rng.random_range(0..hot.len())];
                                (c + rng.random_range(0..2 * half)).saturating_sub(half)
                            }
                        };
                        // Any slot, so slots are re-announced elsewhere.
                        row.set(rng.random_range(0..slots), mid);
                        let near = |rng: &mut SmallRng, m: u64| {
                            let d = rng.random_range(0..2 * half + (1 << 17));
                            (m + d).saturating_sub(half + (1 << 16)).min(u64::from(u32::MAX)) as u32
                        };
                        let known = row.mids[rng.random_range(0..slots)];
                        let queries = [
                            0,
                            MAX_INDEX,
                            rng.random_range(0..u32::MAX),
                            near(&mut rng, mid),
                            near(&mut rng, if known == NO_MARGIN { mid } else { known }),
                        ];
                        for (idx_lo, idx_hi) in queries.map(block) {
                            let linear = row
                                .mids
                                .iter()
                                .position(|&v| covers(v, half as i64, idx_lo, idx_hi));
                            assert_eq!(
                                row.covering(idx_lo, idx_hi),
                                linear,
                                "{slots} slots, margin {margin:#x}, block {idx_lo:#x}, mids {:x?}",
                                row.mids
                            );
                            if linear.is_some() {
                                hits += 1;
                            } else {
                                misses += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(hits > 10_000 && misses > 10_000, "{hits} hits, {misses} misses");
    }

    #[test]
    fn sentinel_indices_allocate_explicitly() {
        let smr = setup(1);
        let mut h = smr.register();
        h.start_op();
        let head = h.alloc_with_index(0u64, 0);
        let tail = h.alloc_with_index(u64::MAX, MAX_INDEX);
        // SAFETY: [INV-12] both nodes protected by this test's open span.
        assert_eq!(unsafe { head.deref() }.index(), 0);
        // SAFETY: [INV-12] both nodes protected by this test's open span.
        assert_eq!(unsafe { tail.deref() }.index(), MAX_INDEX);
        h.end_op();
        // SAFETY: [INV-12] test-owned nodes, each retired exactly once.
        unsafe {
            h.retire(head);
            h.retire(tail);
        }
        h.force_empty();
    }
}
