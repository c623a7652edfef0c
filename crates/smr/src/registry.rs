//! Shared per-thread slot arrays and thread registration.
//!
//! Every scheme announces per-thread protection state in fixed-size shared
//! arrays indexed by a thread id (tid): hazard-pointer slots, margin-pointer
//! slots, epoch/era announcements. The arrays are allocated once at scheme
//! construction ([`Config::max_threads`](crate::Config) rows), each row
//! starting on its own cache line so announcements by different threads
//! never false-share.

use core::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use mp_util::CachePadded;

use crate::node::Retired;

/// A `max_threads × slots_per_thread` matrix of atomic words in one
/// allocation, each thread's row starting on its own cache line: the row
/// stride is `slots` words rounded up to [`CachePadded`]'s alignment, and
/// the first row starts at the first aligned word of the (slightly
/// over-sized) buffer. Rows of adjacent tids therefore never share a line,
/// whatever the allocator hands back.
pub struct SlotArray {
    cells: Box<[AtomicU64]>,
    /// Index of the first aligned word of `cells` (row 0, slot 0).
    base: usize,
    /// Words between consecutive rows (a multiple of the line size).
    stride: usize,
    slots: usize,
    threads: usize,
    init: u64,
}

/// Words per [`CachePadded`] alignment unit.
const LINE_WORDS: usize = align_of::<CachePadded<()>>() / size_of::<AtomicU64>();

impl SlotArray {
    /// Creates the matrix with every slot holding `init` (a scheme-specific
    /// "no protection" sentinel).
    pub fn new(threads: usize, slots: usize, init: u64) -> Self {
        let stride = slots.next_multiple_of(LINE_WORDS);
        // `LINE_WORDS - 1` spare words let row 0 start on a line boundary
        // wherever the 8-aligned buffer itself begins.
        let cells: Box<[AtomicU64]> =
            (0..threads * stride + LINE_WORDS - 1).map(|_| AtomicU64::new(init)).collect();
        let misaligned = cells.as_ptr().addr() / size_of::<AtomicU64>() % LINE_WORDS;
        let base = (LINE_WORDS - misaligned) % LINE_WORDS;
        SlotArray { cells, base, stride, slots, threads, init }
    }

    /// Number of thread rows.
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The slot cell for `(tid, slot)`.
    #[inline]
    pub fn get(&self, tid: usize, slot: usize) -> &AtomicU64 {
        assert!(tid < self.threads && slot < self.slots);
        &self.cells[self.base + tid * self.stride + slot]
    }

    /// One thread's slots.
    #[inline]
    pub fn row(&self, tid: usize) -> &[AtomicU64] {
        assert!(tid < self.threads);
        let start = self.base + tid * self.stride;
        &self.cells[start..start + self.slots]
    }

    /// Resets every slot of `tid` to the "no protection" sentinel (Release).
    pub fn clear_row(&self, tid: usize) {
        for s in self.row(tid) {
            s.store(self.init, Ordering::Release);
        }
    }

    /// Snapshots every announced (non-sentinel) value of every row into
    /// `out`, cleared and refilled in place and sorted for binary search —
    /// HP's hazard addresses, HE's eras. Call after the scan's SeqCst
    /// fence; the buffer is the scanning handle's, so steady-state scans
    /// reuse its capacity.
    pub fn announced_sorted_into(&self, out: &mut Vec<u64>) {
        out.clear();
        for tid in 0..self.threads {
            for slot in self.row(tid) {
                let v = slot.load(Ordering::Acquire);
                if v != self.init {
                    out.push(v);
                }
            }
        }
        out.sort_unstable();
    }
}

/// A claimed thread id plus whether it was ever held by an earlier handle
/// (drives the `tid_recycles` churn counter).
#[derive(Debug, Clone, Copy)]
pub(crate) struct TidLease {
    /// The claimed thread id.
    pub tid: usize,
    /// True if some earlier handle held (and released) this tid.
    pub recycled: bool,
}

/// Thread-id allocator plus the orphan list of retired nodes abandoned by
/// deregistered handles (freed when the scheme itself is dropped, at which
/// point no handle can hold protected references).
///
/// Tid acquire/release is lock-free (a CAS over free-bit words), so handle
/// churn — threads registering and deregistering under load, as the soak
/// harness does — never serializes on a mutex. Only the orphan list, an
/// infrequent deregistration-time path, stays behind a lock.
pub struct Registry {
    /// One bit per tid; set = free. Fixed at `max_threads` bits.
    free_bits: Box<[AtomicU64]>,
    /// One bit per tid; set = acquired at least once (recycle detection).
    ever_used: Box<[AtomicU64]>,
    orphans: Mutex<Vec<Retired>>,
    max_threads: usize,
}

impl Registry {
    /// Creates a registry handing out tids `0..max_threads`.
    pub fn new(max_threads: usize) -> Self {
        let words = max_threads.div_ceil(64);
        let free_bits: Box<[AtomicU64]> = (0..words)
            .map(|w| {
                let lo = w * 64;
                let hi = max_threads.min(lo + 64);
                let mut bits = 0u64;
                for b in 0..(hi - lo) {
                    bits |= 1u64 << b;
                }
                AtomicU64::new(bits)
            })
            .collect();
        Registry {
            free_bits,
            ever_used: (0..words).map(|_| AtomicU64::new(0)).collect(),
            orphans: Mutex::new(Vec::new()),
            max_threads,
        }
    }

    /// Maximum concurrent registrations.
    pub fn max_threads(&self) -> usize {
        self.max_threads
    }

    /// Locks the orphan list, tolerating poisoning: it is a plain vector,
    /// consistent after any panic, and `release` runs from `Drop` during
    /// unwinding — it must never double-panic.
    fn orphans_locked(&self) -> std::sync::MutexGuard<'_, Vec<Retired>> {
        self.orphans.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Claims a tid lock-free, or returns `None` with every tid taken. The
    /// scan restarts while CASes are contended, so `None` is returned only
    /// after a contention-free pass found every bit claimed.
    pub(crate) fn try_acquire(&self) -> Option<TidLease> {
        loop {
            let mut contended = false;
            for (w, word) in self.free_bits.iter().enumerate() {
                let mut bits = word.load(Ordering::Acquire);
                while bits != 0 {
                    let b = bits.trailing_zeros() as usize;
                    let mask = 1u64 << b;
                    // The claiming CAS pairs with `release`'s fetch_or: its
                    // Acquire success ordering makes the previous holder's
                    // row clears visible to the new handle.
                    match word.compare_exchange_weak(
                        bits,
                        bits & !mask,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    ) {
                        Ok(_) => {
                            let recycled =
                                self.ever_used[w].fetch_or(mask, Ordering::AcqRel) & mask != 0;
                            return Some(TidLease { tid: w * 64 + b, recycled });
                        }
                        Err(cur) => {
                            contended = true;
                            bits = cur;
                        }
                    }
                }
            }
            if !contended {
                return None;
            }
        }
    }

    /// Takes the whole orphan list for adoption by a newly registered
    /// handle, which appends it to its own retired list and frees the nodes
    /// at its next scan under the scheme's usual safety predicate. Orphans
    /// are already-retired (unreachable) nodes, so another handle scanning
    /// them is exactly as safe as scanning its own retirees. Without
    /// adoption, handle churn grows the orphan list without bound: each
    /// dying handle's drain scan parks whatever its peers still pinned at
    /// that instant, and nothing ever re-examines it before teardown.
    pub(crate) fn adopt_orphans(&self) -> Vec<Retired> {
        std::mem::take(&mut *self.orphans_locked())
    }

    /// Returns a tid and parks the handle's unreclaimed retired nodes.
    /// Lock-free on the tid path (the orphan lock is taken only when the
    /// handle actually leaves leftovers) and panic-free: it runs from
    /// `Drop` during unwinding.
    pub(crate) fn release(&self, tid: usize, leftovers: Vec<Retired>) {
        if !leftovers.is_empty() {
            self.orphans_locked().extend(leftovers);
        }
        // Release (via AcqRel): publishes the departing handle's slot-row
        // clears to whichever thread re-acquires this tid.
        self.free_bits[tid / 64].fetch_or(1u64 << (tid % 64), Ordering::AcqRel);
    }

    /// Drains the orphan list. Called by scheme `Drop` implementations.
    ///
    /// # Safety
    /// Caller must guarantee no thread can still dereference orphaned nodes
    /// (true during scheme teardown: handles hold an `Arc` to the scheme, so
    /// none remain).
    // SAFETY: [INV-11] obligation stated in `# Safety` above; every scheme
    // `Drop` cites the teardown argument ([INV-06]) at its call site.
    pub(crate) unsafe fn reclaim_orphans(&self) {
        let orphans = std::mem::take(&mut *self.orphans_locked());
        for r in orphans {
            // SAFETY: [INV-06] forwarded from this fn's contract: teardown,
            // no handle left to protect any orphan.
            unsafe { r.reclaim() };
        }
    }

    /// Number of orphaned retired nodes awaiting scheme teardown.
    pub fn orphan_count(&self) -> usize {
        self.orphans_locked().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_array_layout_and_clear() {
        let a = SlotArray::new(3, 4, u64::MAX);
        assert_eq!(a.threads(), 3);
        assert_eq!(a.row(2).len(), 4);
        for t in 0..3 {
            for s in 0..4 {
                assert_eq!(a.get(t, s).load(Ordering::Relaxed), u64::MAX);
            }
        }
        a.get(1, 2).store(7, Ordering::Relaxed);
        assert_eq!(a.get(1, 2).load(Ordering::Relaxed), 7);
        // Other rows untouched.
        assert_eq!(a.get(0, 2).load(Ordering::Relaxed), u64::MAX);
        a.clear_row(1);
        assert_eq!(a.get(1, 2).load(Ordering::Relaxed), u64::MAX);
    }

    /// Rows are line-aligned and at least a line apart, whatever the slot
    /// count — the property the old per-row `Box` left to the allocator.
    #[test]
    fn slot_array_rows_never_share_a_cache_line() {
        let align = align_of::<CachePadded<()>>();
        for slots in [1, 2, 8, 62] {
            let a = SlotArray::new(4, slots, 0);
            assert_eq!(a.row(0).as_ptr().addr() % align, 0, "row 0 unaligned at {slots} slots");
            for t in 0..3 {
                assert_eq!(a.row(t).len(), slots);
                let gap = a.row(t + 1).as_ptr().addr() - a.row(t).as_ptr().addr();
                assert_eq!(gap % align, 0, "row stride {gap} unaligned at {slots} slots");
                assert!(gap >= align.max(slots * 8), "rows {t},{} overlap a line", t + 1);
            }
        }
    }

    #[test]
    fn announced_sorted_into_collects_every_row_skips_idle_and_reuses_the_buffer() {
        const IDLE: u64 = u64::MAX;
        let a = SlotArray::new(3, 4, IDLE);
        let mut out = vec![99]; // stale content must not survive
        a.announced_sorted_into(&mut out);
        assert!(out.is_empty(), "an idle array announces nothing");

        // One value in the last row's last slot, two in the first row, a
        // duplicate across rows; row 1 stays idle.
        a.get(2, 3).store(5, Ordering::Relaxed);
        a.get(0, 0).store(40, Ordering::Relaxed);
        a.get(0, 2).store(7, Ordering::Relaxed);
        a.get(2, 0).store(40, Ordering::Relaxed);
        a.announced_sorted_into(&mut out);
        assert_eq!(out, [5, 7, 40, 40], "every row, idle slots skipped, sorted");

        let (ptr, cap) = (out.as_ptr(), out.capacity());
        a.clear_row(0);
        a.announced_sorted_into(&mut out);
        assert_eq!(out, [5, 40], "a cleared row drops out of the next walk");
        assert_eq!((out.as_ptr(), out.capacity()), (ptr, cap), "second walk reallocated");
    }

    #[test]
    fn registry_recycles_tids() {
        let r = Registry::new(2);
        let a = r.try_acquire().unwrap();
        let b = r.try_acquire().unwrap();
        assert_ne!(a.tid, b.tid);
        assert!(!a.recycled && !b.recycled, "first acquisitions are fresh");
        r.release(a.tid, Vec::new());
        let c = r.try_acquire().unwrap();
        assert_eq!(c.tid, a.tid, "released tid must be reused");
        assert!(c.recycled, "reuse must be flagged for the churn counter");
    }

    /// Satellite regression: tid recycle under concurrent churn. 16 threads
    /// hammer acquire/release; a claim board asserts no tid is ever held by
    /// two threads at once, and the allocator neither leaks nor invents
    /// tids. Runs on the lock-free CAS path, so this is also the
    /// linearizability test for the free-bit words.
    #[test]
    fn tid_recycle_under_concurrent_churn() {
        use core::sync::atomic::AtomicBool;

        const THREADS: usize = 16;
        const TIDS: usize = 7; // fewer tids than threads forces recycling
        const ROUNDS: usize = 400;

        let r = Registry::new(TIDS);
        let claimed: Vec<AtomicBool> = (0..TIDS).map(|_| AtomicBool::new(false)).collect();
        let recycles = core::sync::atomic::AtomicUsize::new(0);

        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for _ in 0..ROUNDS {
                        // More churners than tids: exhaustion is expected,
                        // double-grants are the bug under test.
                        let Some(lease) = r.try_acquire() else {
                            std::thread::yield_now();
                            continue;
                        };
                        assert!(lease.tid < TIDS, "tid {} out of range", lease.tid);
                        assert!(
                            !claimed[lease.tid].swap(true, Ordering::AcqRel),
                            "tid {} granted to two threads at once",
                            lease.tid
                        );
                        if lease.recycled {
                            recycles.fetch_add(1, Ordering::Relaxed);
                        }
                        std::hint::black_box(lease.tid);
                        claimed[lease.tid].store(false, Ordering::Release);
                        r.release(lease.tid, Vec::new());
                    }
                });
            }
        });
        for (tid, c) in claimed.iter().enumerate() {
            assert!(!c.load(Ordering::Acquire), "tid {tid} left claimed");
        }
        assert_eq!(
            r.free_bits.iter().map(|w| w.load(Ordering::Acquire).count_ones()).sum::<u32>(),
            TIDS as u32,
            "every tid must be free again after the churn"
        );
        assert!(
            recycles.load(Ordering::Relaxed) > TIDS,
            "churn must actually exercise the recycle path"
        );
    }

    #[test]
    fn registry_exhaustion_is_recoverable() {
        let r = Registry::new(1);
        let a = r.try_acquire().expect("first claim fits");
        assert!(r.try_acquire().is_none(), "capacity 1 is exhausted");
        r.release(a.tid, Vec::new());
        assert!(r.try_acquire().is_some(), "exhaustion clears when a peer churns out");
    }

    #[test]
    fn orphans_counted() {
        let r = Registry::new(1);
        let tid = r.try_acquire().unwrap().tid;
        let node = crate::node::alloc_node(5u32, crate::node::BirthAt::Nowhere, 0, 0);
        let retired = unsafe { Retired::new(node, 1) }; // SAFETY: [INV-12] never published.
        r.release(tid, vec![retired]);
        assert_eq!(r.orphan_count(), 1);
        unsafe { r.reclaim_orphans() }; // SAFETY: [INV-12] single-threaded test.
        assert_eq!(r.orphan_count(), 0);
    }
}
