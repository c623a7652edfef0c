//! Deeper MP-specific properties: scan decisions against the margin
//! formula, multi-reader epoch interactions, and dual-protection corners.

use std::sync::atomic::Ordering;

use mp_smr::schemes::Mp;
use mp_smr::{Atomic, Config, Counter, Shared, Smr, SmrHandle, Telemetry};

fn cfg() -> Config {
    Config { max_threads: 3, epoch_freq: 1000, ..Config::default() }
}

/// The snapshot scan's keep/free decisions must match the test's own
/// interval model of the announced margins.
#[test]
fn snapshot_scan_agrees_with_the_interval_model() {
    let smr = Mp::new(cfg());
    let mut reader = smr.register();
    let mut writer = smr.register();
    writer.start_op();
    reader.start_op();

    // Reader protects three scattered margins.
    let mut pinned_cells = Vec::new();
    for (i, idx) in [1u32 << 20, 1 << 24, 1 << 28].iter().enumerate() {
        let n = writer.alloc_with_index(0u32, *idx);
        let cell = Atomic::new(n);
        let got = reader.read(&cell, i);
        assert_eq!(got, n);
        pinned_cells.push((cell, n));
    }
    // Retire nodes inside and outside the margins.
    let mut expect_kept = 0;
    for idx in [
        (1u32 << 20) + 5,       // inside margin 0
        (1 << 24) - 100,        // inside margin 1
        (1 << 28) + 1000,       // inside margin 2
        (1 << 22),              // far from everything
        (1 << 30),              // far
    ] {
        let probe = writer.alloc_with_index(0u32, idx);
        // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
        unsafe { writer.retire(probe) };
        let half = 1u32 << 19; // margin 2^20
        let covered = [1u32 << 20, 1 << 24, 1 << 28].iter().any(|&m| {
            // Forward-centered announcement: mid = block base + margin/2,
            // so the interval is [block base, block base + margin].
            let mid = (m & 0xffff_0000) as i64 + half as i64;
            let lo = (idx & 0xffff_0000) as i64;
            let hi = (idx | 0xffff) as i64;
            mid - (half as i64) <= hi && lo <= mid + half as i64
        });
        if covered {
            expect_kept += 1;
        }
    }
    writer.force_empty();
    assert_eq!(
        writer.retired_len(),
        expect_kept,
        "scan disagrees with the margin formula"
    );
    // Margins persist across end_op (fence amortization); only dropping
    // the handle withdraws them.
    reader.end_op();
    drop(reader);
    writer.end_op();
    for (cell, n) in pinned_cells {
        cell.store(Shared::null(), Ordering::Release);
        // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
        unsafe { writer.retire(n) };
    }
    writer.force_empty();
    assert_eq!(writer.retired_len(), 0);
}

/// Two readers announced at different epochs: the reclaimer must apply
/// each reader's own epoch filter, not a global minimum.
#[test]
fn per_reader_epoch_filters() {
    let smr = Mp::new(Config { max_threads: 3, epoch_freq: 1, ..Config::default() });
    let mut early = smr.register();
    let mut late = smr.register();
    let mut writer = smr.register();

    writer.start_op();
    early.start_op(); // epoch e0

    // Early returns a margin-protected node before the epoch moves: this
    // consumes its per-op re-arm eligibility, so the later advance must
    // condemn it to the §4.3.2 HP fallback (the pre-amortization behavior).
    let warm = writer.alloc_with_index(0u32, 1 << 20);
    let warm_cell = Atomic::new(warm);
    let _ = early.read(&warm_cell, 1);

    // Advance the epoch (epoch_freq = 1: every retire bumps it).
    let junk = writer.alloc_with_index(0u8, 1);
    // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
    unsafe { writer.retire(junk) };

    late.start_op(); // epoch e1 > e0

    // A node born & retired now: early's epoch e0 < birth ⇒ early's margins
    // cannot pin it; late's margins can.
    let n = writer.alloc_with_index(7u32, 1 << 24);
    let cell = Atomic::new(n);
    let _ = late.read(&cell, 0); // late margin covers 2^24
    let _ = early.read(&cell, 0); // early margin also covers it physically...
    cell.store(Shared::null(), Ordering::Release);
    // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
    unsafe { writer.retire(n) };
    writer.force_empty();
    assert_eq!(writer.retired_len(), 1, "late reader must pin the node");

    // Margins persist across end_op; drop the handle to withdraw late's.
    late.end_op();
    drop(late);
    writer.force_empty();
    // Early announced before the node's birth; its margin alone must NOT
    // pin it (Theorem 4.2's filter) — but early holds a reference!
    // Safety is preserved because early's read detected the epoch change
    // and fell back to a hazard pointer:
    assert!(
        early.counter(Counter::HpFallbackReads) > 0,
        "early reader must have taken the HP fallback across the epoch change"
    );
    assert_eq!(writer.retired_len(), 1, "early's hazard still pins the node");
    // end_op releases the hazard; early's standing margin over 2^24 cannot
    // pin the node because its announced epoch e0 predates the birth.
    early.end_op();
    writer.force_empty();
    assert_eq!(writer.retired_len(), 0);

    // Teardown: `warm` was born at e0 under early's margin — only dropping
    // early releases it.
    drop(early);
    warm_cell.store(Shared::null(), Ordering::Release);
    // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
    unsafe { writer.retire(warm) };
    writer.force_empty();
    assert_eq!(writer.retired_len(), 0);
    writer.end_op();
}

/// A node protected by BOTH a hazard (one reader) and a margin (another)
/// stays pinned until the last protection is gone.
#[test]
fn dual_protection_released_in_order() {
    let smr = Mp::new(cfg());
    let mut margin_reader = smr.register();
    let mut hazard_reader = smr.register();
    let mut writer = smr.register();
    writer.start_op();
    margin_reader.start_op();
    hazard_reader.start_op();

    // USE_HP-class node: hazard_reader protects by address.
    let hp_node = writer.alloc_with_index(1u32, u32::MAX);
    let hp_cell = Atomic::new(hp_node);
    let _ = hazard_reader.read(&hp_cell, 0);
    // Normal node in margin_reader's margin.
    let mp_node = writer.alloc_with_index(2u32, 1 << 22);
    let mp_cell = Atomic::new(mp_node);
    let _ = margin_reader.read(&mp_cell, 0);

    hp_cell.store(Shared::null(), Ordering::Release);
    mp_cell.store(Shared::null(), Ordering::Release);
    // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
    unsafe {
        writer.retire(hp_node);
        writer.retire(mp_node);
    }
    writer.force_empty();
    assert_eq!(writer.retired_len(), 2);

    hazard_reader.end_op();
    writer.force_empty();
    assert_eq!(writer.retired_len(), 1, "margin still pins its node");

    // end_op keeps the margin standing (fence amortization); dropping the
    // handle is what finally withdraws the interval protection.
    margin_reader.end_op();
    writer.force_empty();
    assert_eq!(writer.retired_len(), 1, "standing margin outlives end_op");
    drop(margin_reader);
    writer.force_empty();
    assert_eq!(writer.retired_len(), 0);
    writer.end_op();
}

/// A new node's index is the midpoint of the announced search interval
/// (§4.1, Listing 10).
#[test]
fn new_node_takes_the_interval_midpoint() {
    let smr = Mp::new(cfg());
    let mut h = smr.register();
    h.start_op();
    let lo = h.alloc_with_index(0u8, 1000);
    let hi = h.alloc_with_index(0u8, 2000);
    let cl = Atomic::new(lo);
    let ch = Atomic::new(hi);
    let rl = h.read(&cl, 0);
    let rh = h.read(&ch, 1);
    h.update_lower_bound(rl);
    h.update_upper_bound(rh);
    let n = h.alloc(0u8);
    // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
    let idx = unsafe { n.deref() }.index();
    assert_eq!(idx, 1500);
    h.end_op();
    // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
    unsafe {
        h.retire(n);
        h.retire(lo);
        h.retire(hi);
    }
    h.force_empty();
}
