//! Zero-allocation hot path witness (counter-backed).
//!
//! Installs a counting global allocator and proves that, after a warm-up
//! phase, a steady-state churn loop — pinned operations, node allocation,
//! retirement, and full `empty()` scans — performs **zero** heap
//! allocations: every node comes from the thread's pool magazine, every
//! scan compacts the retired list in place, and the scheme's snapshot
//! refills handle-retained buffers. Also asserts a
//! pool hit rate above 90% under churn, that arming telemetry (timing every
//! pinned op and every scan) adds no allocation either, and that the
//! live-node gauge returns to its baseline.
//!
//! The counting allocator is process-global, so this integration binary
//! holds exactly one `#[test]` (same discipline as `leak_check`).
//!
//! Without the oracle only: its quarantine keeps freed blocks from the pool.
//! So this binary compiles to nothing when a test build arms mp-smr's
//! `oracle` feature (`cargo test --workspace` does), and runs in the
//! unarmed `cargo test --release -p mp-smr`.

#![cfg(not(feature = "oracle"))]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mp_smr::node::gauge;
use mp_smr::schemes::{Hp, Mp};
use mp_smr::{telemetry, Config, Smr, SmrHandle, Telemetry};

/// `rounds` pinned operations of `per_round` alloc/retire pairs each, every
/// one followed by a full scan.
fn pinned_churn<H: SmrHandle>(h: &mut H, rounds: usize, per_round: u64) {
    for _ in 0..rounds {
        let mut op = h.pin();
        for i in 0..per_round {
            let n = op.alloc(i);
            // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
            unsafe { op.retire(n) };
        }
        drop(op);
        h.force_empty();
    }
}

/// Counts every heap allocation made by the process.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_churn_does_not_allocate() {
    // Telemetry compiled in but disarmed: counters tick, but no latency
    // timing runs — the hot path must stay allocation-free with the
    // subsystem present.
    telemetry::set_armed(false);
    let live_baseline = gauge::live_nodes();

    let smr = Mp::new(
        Config { max_threads: 2, empty_freq: 64, epoch_freq: 16, ..Config::default() },
    );
    let mut h = smr.register();

    // Warm-up: grow the pool's free lists, the retired list, and every
    // snapshot buffer past their steady-state working set. Interleave scans
    // so reclaimed blocks cycle back through the pool.
    for round in 0..8 {
        let _ = round;
        h.start_op();
        for i in 0..256u64 {
            let n = h.alloc(i);
            // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
            unsafe { h.retire(n) };
        }
        h.end_op();
        h.force_empty();
    }
    h.force_empty();

    // Measure pool efficacy over the steady phase only.
    h.reset_telemetry();

    let heap_allocs_before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..64 {
        h.start_op();
        for i in 0..128u64 {
            let n = h.alloc(i);
            // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
            unsafe { h.retire(n) };
        }
        h.end_op();
        h.force_empty();
    }
    let heap_allocs = ALLOCS.load(Ordering::Relaxed) - heap_allocs_before;

    let snap = h.snapshot();
    assert_eq!(
        heap_allocs, 0,
        "steady-state churn (alloc/retire/empty) must not touch the heap \
         (saw {heap_allocs} allocations over {} ops)",
        snap.ops()
    );
    assert_eq!(snap.allocs(), 64 * 128, "every allocation accounted");
    assert_eq!(snap.pool_hits() + snap.pool_misses(), snap.allocs());
    assert!(
        snap.pool_hit_rate() > 0.9,
        "pool hit rate {:.3} should exceed 0.9 under churn (hits {}, misses {})",
        snap.pool_hit_rate(),
        snap.pool_hits(),
        snap.pool_misses()
    );

    drop(h);
    drop(smr);

    // Watermark-triggered scans must be equally allocation-free: this
    // phase never calls `force_empty` — every scan fires from the
    // retired-count watermark on the retire path, so the adaptive trigger
    // machinery itself is proven to stay off the heap in steady state.
    let smr = Hp::new(
        Config { max_threads: 2, slots_per_thread: 4, empty_freq: 64, ..Config::default() },
    );
    let mut h = smr.register();
    for _ in 0..8 {
        h.start_op();
        for i in 0..256u64 {
            let n = h.alloc(i);
            // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
            unsafe { h.retire(n) };
        }
        h.end_op();
    }
    h.force_empty();
    h.reset_telemetry();

    let heap_allocs_before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..64 {
        h.start_op();
        for i in 0..128u64 {
            let n = h.alloc(i);
            // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
            unsafe { h.retire(n) };
        }
        h.end_op();
    }
    let heap_allocs = ALLOCS.load(Ordering::Relaxed) - heap_allocs_before;
    let snap = h.snapshot();
    assert!(snap.empties() > 0, "watermark scans must fire without force_empty");
    assert_eq!(
        heap_allocs, 0,
        "watermark-triggered churn must not touch the heap \
         (saw {heap_allocs} allocations over {} scans)",
        snap.empties()
    );
    assert!(
        snap.pool_hit_rate() > 0.9,
        "pool hit rate {:.3} should exceed 0.9 under watermark churn",
        snap.pool_hit_rate()
    );

    drop(h);
    drop(smr);

    // Armed steady state: both latency histograms are fixed arrays inside
    // the handle, so timing every pinned op and every scan stays off the
    // heap as well.
    telemetry::set_armed(true);
    let smr = Mp::new(
        Config { max_threads: 2, empty_freq: 64, epoch_freq: 16, ..Config::default() },
    );
    let mut h = smr.register();
    pinned_churn(&mut h, 8, 256);
    h.reset_telemetry();
    let heap_allocs_before = ALLOCS.load(Ordering::Relaxed);
    pinned_churn(&mut h, 64, 128);
    let heap_allocs = ALLOCS.load(Ordering::Relaxed) - heap_allocs_before;
    telemetry::set_armed(false);
    let snap = h.snapshot();
    assert_eq!(
        heap_allocs, 0,
        "armed churn must not touch the heap (saw {heap_allocs} allocations over {} ops)",
        snap.ops()
    );
    assert!(snap.op_latency().count() > 0, "armed pin() guards are timed");
    assert!(snap.scan_latency().count() > 0, "armed scans are timed");

    // Everything retired was reclaimed or is still on the handle; dropping
    // handle + scheme returns the gauge to its baseline (no pool leak —
    // pooled blocks are raw memory, not live nodes).
    drop(h);
    drop(smr);
    assert_eq!(gauge::live_nodes(), live_baseline, "live-node gauge restored");
}
