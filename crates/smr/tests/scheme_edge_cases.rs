//! Cross-scheme edge cases: handle lifecycle, tid recycling, panic safety,
//! idle-system reclamation, and boundary indices.

use std::sync::atomic::Ordering;

use mp_smr::node::{USE_HP, USE_HP_CLASS_START};
use mp_smr::schemes::{Dta, Ebr, He, Hp, Ibr, Leaky, Mp};
use mp_smr::{Atomic, Config, Shared, Smr, SmrHandle, Telemetry};

fn cfg() -> Config {
    Config { max_threads: 3, empty_freq: 2, epoch_freq: 4, ..Config::default() }
}

/// Exercises one scheme generically: alloc/link/read/unlink/retire cycles
/// with interleaved operations, then full reclamation once idle.
fn lifecycle<S: Smr>() {
    let smr = S::new(cfg());
    let mut a = smr.register();
    let mut b = smr.register();

    for round in 0..50u32 {
        a.start_op();
        b.start_op();
        let n = a.alloc(round);
        let cell = Atomic::new(n);
        let r = b.read(&cell, 0);
        // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
        assert_eq!(unsafe { *r.deref().data() }, round);
        cell.store(Shared::null(), Ordering::Release);
        // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
        unsafe { a.retire(n) };
        a.end_op();
        b.end_op();
    }
    drop(b);
    a.force_empty();
    assert_eq!(a.retired_len(), 0, "idle system reclaims everything");
    drop(a);
}

#[test]
fn lifecycle_all_schemes() {
    lifecycle::<Mp>();
    lifecycle::<Hp>();
    lifecycle::<Ebr>();
    lifecycle::<He>();
    lifecycle::<Ibr>();
    lifecycle::<Dta>();
}

#[test]
fn leaky_lifecycle_defers_to_scheme_drop() {
    // Leaky cannot pass the generic lifecycle (it never reclaims); verify
    // its contract separately.
    let smr = Leaky::new(cfg());
    let mut h = smr.register();
    h.start_op();
    let n = h.alloc(1u8);
    // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
    unsafe { h.retire(n) };
    h.end_op();
    h.force_empty();
    assert_eq!(h.retired_len(), 1);
}

#[test]
fn tid_recycling_clears_protection() {
    // A dropped handle must not leave protections behind for its successor
    // tid, or retired nodes would be pinned forever.
    let smr = Hp::new(Config { max_threads: 1, ..Config::default() });
    let cell;
    {
        let mut h1 = smr.register();
        h1.start_op();
        let n = h1.alloc(9u32);
        cell = Atomic::new(n);
        let _ = h1.read(&cell, 0); // announce a hazard, then drop mid-op
    }
    let mut h2 = smr.register();
    h2.start_op();
    let n = cell.load(Ordering::Acquire);
    cell.store(Shared::null(), Ordering::Release);
    // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
    unsafe { h2.retire(n) };
    h2.force_empty();
    assert_eq!(h2.retired_len(), 0, "stale hazard from dead handle must not pin");
    h2.end_op();
}

#[test]
fn panicking_thread_releases_its_handle() {
    let smr = Mp::new(cfg());
    let smr2 = smr.clone();
    let res = std::thread::spawn(move || {
        let mut h = smr2.register();
        h.start_op();
        let n = h.alloc(5u8);
        // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
        unsafe { h.retire(n) };
        panic!("worker dies mid-operation");
    })
    .join();
    assert!(res.is_err());
    // The handle's Drop ran during unwinding: its tid is free again and its
    // retired node was parked for teardown.
    let _h1 = smr.register();
    let _h2 = smr.register();
    let _h3 = smr.register(); // would panic if the tid leaked (max_threads=3)
}

#[test]
#[should_panic(expected = "more handles registered")]
fn over_registration_panics() {
    let smr = Ebr::new(Config { max_threads: 2, ..Config::default() });
    let _a = smr.register();
    let _b = smr.register();
    let _c = smr.register();
}

#[test]
fn two_schemes_coexist_in_one_process() {
    let mp = Mp::new(cfg());
    let hp = Hp::new(cfg());
    let mut hm = mp.register();
    let mut hh = hp.register();
    hm.start_op();
    hh.start_op();
    let a = hm.alloc(1u64);
    let b = hh.alloc(2u64);
    // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
    unsafe {
        hm.retire(a);
        hh.retire(b);
    }
    hm.end_op();
    hh.end_op();
    hm.force_empty();
    hh.force_empty();
    assert_eq!(mp.retired_pending(), 0);
    assert_eq!(hp.retired_pending(), 0);
}

#[test]
fn mp_class_boundary_index_is_hazard_protected() {
    // Index exactly at the USE_HP class boundary: packed bits collide with
    // USE_HP, so reads must take the hazard path and empty() must honor it.
    let smr = Mp::new(Config { max_threads: 2, ..Config::default() });
    let mut reader = smr.register();
    let mut writer = smr.register();
    writer.start_op();
    reader.start_op();
    for idx in [USE_HP_CLASS_START, USE_HP_CLASS_START + 1, u32::MAX - 1, USE_HP] {
        let n = writer.alloc_with_index(idx, idx);
        let cell = Atomic::new(n);
        let got = reader.read(&cell, 0);
        assert_eq!(got, n, "read must return the node for idx {idx:#x}");
        cell.store(Shared::null(), Ordering::Release);
        // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
        unsafe { writer.retire(n) };
        writer.force_empty();
        assert_eq!(
            writer.retired_len(),
            1,
            "boundary node {idx:#x} must be pinned by the hazard"
        );
        reader.unprotect(0);
        reader.end_op();
        reader.start_op();
        writer.force_empty();
        assert_eq!(writer.retired_len(), 0, "released after unprotect for {idx:#x}");
    }
    reader.end_op();
    writer.end_op();
}

#[test]
fn ibr_extends_interval_for_late_born_nodes() {
    // A node born *after* an operation started must still be protected by
    // the reader's reservation once read (the 2GE upper-bound extension).
    let cfg = Config { max_threads: 2, epoch_freq: 1, ..Config::default() };
    let smr = Ibr::new(cfg);
    let mut reader = smr.register();
    let mut writer = smr.register();

    reader.start_op(); // reserves [e, e]
    writer.start_op();
    // Advance the epoch well past the reader's reservation, and free the
    // churn before the reservation is extended over its lifetimes.
    for i in 0..5u32 {
        let churn = writer.alloc(i);
        // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
        unsafe { writer.retire(churn) };
    }
    writer.force_empty();
    let late = writer.alloc(99u32); // birth > reader's initial upper bound
    let cell = Atomic::new(late);
    let got = reader.read(&cell, 0); // must extend upper to cover it
    assert_eq!(got, late);
    cell.store(Shared::null(), Ordering::Release);
    // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
    unsafe { writer.retire(late) };
    writer.force_empty();
    assert_eq!(
        writer.retired_len(),
        1,
        "extended reservation must pin the late-born node"
    );
    // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
    assert_eq!(unsafe { *got.deref().data() }, 99);
    reader.end_op();
    writer.end_op();
    writer.force_empty();
    assert_eq!(writer.retired_len(), 0);
}

#[test]
fn hp_unprotect_releases_exactly_one_slot() {
    let smr = Hp::new(Config { max_threads: 2, ..Config::default() });
    let mut reader = smr.register();
    let mut writer = smr.register();
    writer.start_op();
    reader.start_op();
    let a = writer.alloc(1u8);
    let b = writer.alloc(2u8);
    let ca = Atomic::new(a);
    let cb = Atomic::new(b);
    let _ = reader.read(&ca, 0);
    let _ = reader.read(&cb, 1);
    ca.store(Shared::null(), Ordering::Release);
    cb.store(Shared::null(), Ordering::Release);
    // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
    unsafe {
        writer.retire(a);
        writer.retire(b);
    }
    writer.force_empty();
    assert_eq!(writer.retired_len(), 2);
    reader.unprotect(0);
    writer.force_empty();
    assert_eq!(writer.retired_len(), 1, "slot 1 must still pin b");
    reader.unprotect(1);
    writer.force_empty();
    assert_eq!(writer.retired_len(), 0);
    reader.end_op();
    writer.end_op();
}

#[test]
fn stats_account_for_full_life_cycle() {
    let smr = Mp::new(cfg());
    let mut h = smr.register();
    h.start_op();
    let n = h.alloc(3u16);
    let cell = Atomic::new(n);
    let _ = h.read(&cell, 0);
    h.end_op();
    // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
    unsafe { h.retire(n) };
    h.force_empty();
    let s = h.snapshot();
    assert_eq!(s.ops(), 1);
    assert_eq!(s.allocs(), 1);
    assert_eq!(s.retires(), 1);
    assert_eq!(s.frees(), 1);
    assert!(s.fences() >= 2, "start_op + end_op at minimum");
    assert!(s.empties() >= 1);
}
