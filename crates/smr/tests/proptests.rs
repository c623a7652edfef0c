//! Randomized tests for the SMR substrate: pointer packing, margin
//! interval arithmetic, and scheme-level protection invariants.
//!
//! Formerly `proptest`-based; now driven by the in-tree seeded PRNG so the
//! suite runs offline. Each test derives all of its random inputs from a
//! printed base seed — set `MP_CHECK_SEED` to replay a failure exactly.

use mp_util::{Checker, RngExt, SeedableRng, SmallRng};

use mp_smr::node::{is_use_hp_class, USE_HP};
use mp_smr::schemes::{Hp, Mp};
use mp_smr::{Atomic, Config, Shared, Smr, SmrHandle};

/// Per-test deterministic RNG from the checker's base seed, so
/// `MP_CHECK_SEED` replays a failure and a malformed value panics.
fn test_rng(salt: u64) -> (u64, SmallRng) {
    let seed = Checker::new().base_seed();
    (seed, SmallRng::seed_from_u64(seed ^ salt))
}

const CASES: usize = 256;

/// Packing a (pointer, index, mark) triple and reading it back loses
/// only the low 16 index bits, exactly as specified (PRECISION = 16).
#[test]
fn packed_word_roundtrip() {
    let (seed, mut rng) = test_rng(0x01);
    let smr = Hp::new(Config { max_threads: 1, ..Config::default() });
    let mut h = smr.register();
    for _ in 0..CASES {
        let index: u32 = rng.random_range(0..u32::MAX);
        let mark: u64 = rng.random_range(0..4u64);
        let ctx = format!("index {index:#x} mark {mark} (seed {seed:#x})");
        let n = h.alloc_with_index(0u8, index);
        let m = n.with_mark(mark);
        assert_eq!(m.packed_index(), (index >> 16) as u16, "{ctx}");
        assert_eq!(m.mark(), mark, "{ctx}");
        assert_eq!(m.as_raw(), n.as_raw(), "{ctx}");
        let (lo, hi) = m.index_bounds();
        assert!(lo <= index && index <= hi, "{ctx}");
        assert_eq!(hi - lo, 0xffff, "{ctx}");
        // Round-trip through an atomic cell.
        let cell = Atomic::new(m);
        assert_eq!(cell.load(std::sync::atomic::Ordering::Relaxed), m, "{ctx}");
        // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
        unsafe { h.retire(n) };
        h.force_empty();
    }
}

/// A reader's margin protects exactly the indices within margin/2 of
/// its announcement (modulo the 2^16 pointer-precision quantization):
/// retired nodes inside are pinned, outside are reclaimed.
#[test]
fn margin_interval_protection() {
    let (seed, mut rng) = test_rng(0x02);
    for _ in 0..CASES {
        let protected_index: u32 = rng.random_range(0..0xfff0_0000);
        let probe_index: u32 = rng.random_range(0..0xfff0_0000);
        let margin = 1u32 << 20;
        let cfg =
            Config { max_threads: 2, epoch_freq: 1_000_000, margin, ..Config::default() };
        let smr = Mp::new(cfg);
        let mut reader = smr.register();
        let mut writer = smr.register();

        writer.start_op();
        reader.start_op();
        let anchor = writer.alloc_with_index(0u32, protected_index);
        let cell = Atomic::new(anchor);
        let got = reader.read(&cell, 0);
        assert_eq!(got, anchor);

        let probe = writer.alloc_with_index(1u32, probe_index);
        // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
        unsafe { writer.retire(probe) };
        writer.force_empty();

        // The announced margin is forward-centered on the anchor's
        // precision-block base (mid = base + margin/2, so the interval is
        // [base, base + margin]); the reclaimer pins the probe iff the
        // margin intersects the probe's whole precision block.
        let half_cfg = (margin / 2) as i64;
        let mid = (protected_index & 0xffff_0000) as i64 + half_cfg;
        let p_lo = (probe_index & 0xffff_0000) as i64;
        let p_hi = (probe_index | 0xffff) as i64;
        let half = (margin / 2) as i64;
        let expect_pinned =
            !is_use_hp_class(probe_index) && mid - half <= p_hi && p_lo <= mid + half;
        assert_eq!(
            writer.retired_len() == 1,
            expect_pinned,
            "probe {probe_index:#x} vs margin around {protected_index:#x} (seed {seed:#x})"
        );

        // Margins persist across end_op (fence amortization): drop the
        // reader handle to withdraw its interval before the teardown scan.
        reader.end_op();
        drop(reader);
        writer.end_op();
        cell.store(Shared::null(), std::sync::atomic::Ordering::Release);
        // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
        unsafe { writer.retire(anchor) };
        writer.force_empty();
        assert_eq!(writer.retired_len(), 0, "seed {seed:#x}");
    }
}

/// Hazard-pointer protection is exact: a retired node is pinned iff
/// some slot holds exactly its address.
#[test]
fn hp_protection_is_exact() {
    for protect in [false, true] {
        let smr = Hp::new(Config { max_threads: 2, ..Config::default() });
        let mut reader = smr.register();
        let mut writer = smr.register();
        writer.start_op();
        reader.start_op();
        let n = writer.alloc(7u64);
        let cell = Atomic::new(n);
        if protect {
            let _ = reader.read(&cell, 0);
        }
        cell.store(Shared::null(), std::sync::atomic::Ordering::Release);
        // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
        unsafe { writer.retire(n) };
        writer.force_empty();
        assert_eq!(writer.retired_len() == 1, protect);
        reader.end_op();
        writer.end_op();
        writer.force_empty();
        assert_eq!(writer.retired_len(), 0);
    }
}

/// MP's collision marker: allocating with an exhausted search interval
/// always yields USE_HP; any wider interval yields a strictly interior
/// index, preserving the order embedding.
#[test]
fn alloc_index_respects_interval() {
    let (seed, mut rng) = test_rng(0x03);
    for _ in 0..CASES {
        let lo: u32 = rng.random_range(0..u32::MAX - 2);
        let width: u32 = rng.random_range(0..1_000_000);
        let hi = lo.saturating_add(width);
        let smr = Mp::new(Config { max_threads: 1, epoch_freq: 1_000_000, ..Config::default() });
        let mut h = smr.register();
        h.start_op();
        let a = h.alloc_with_index(0u8, lo);
        let b = h.alloc_with_index(0u8, hi);
        let ca = Atomic::new(a);
        let cb = Atomic::new(b);
        let ra = h.read(&ca, 0);
        let rb = h.read(&cb, 1);
        h.update_lower_bound(ra);
        h.update_upper_bound(rb);
        let n = h.alloc(0u8);
        // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
        let idx = unsafe { n.deref() }.index();
        if hi - lo <= 1 {
            assert_eq!(idx, USE_HP, "lo {lo} hi {hi} (seed {seed:#x})");
        } else {
            assert!(lo < idx && idx < hi, "idx {idx} not inside ({lo}, {hi}) (seed {seed:#x})");
        }
        h.end_op();
        // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
        unsafe {
            h.retire(n);
            h.retire(a);
            h.retire(b);
        }
        h.force_empty();
    }
}
