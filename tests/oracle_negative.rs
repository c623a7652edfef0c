//! Negative tests for the reclamation oracle, which every test build arms
//! through the root package's mp-smr dev-dependency: each class of SMR
//! bug the oracle exists to catch is committed on purpose through the
//! real allocation/retire/reclaim pipeline, and the test asserts the
//! oracle panics with the right diagnosis and a replay seed.
//!
//! The deref check gets four seeded negatives, each with a silent twin
//! that differs in the one step that ends the protection: nothing is ever
//! freed there, so the poison canary has nothing to say and only the
//! protection ledger can object.
//!
//! A subtlety keeps teardown clean: schemes push the shadow-tracked
//! [`Retired`] record *after* the oracle check inside `Retired::new`, so a
//! rejected (second) retire never lands on any retired list and the node
//! is still reclaimed exactly once when the scheme drops.
//!
//! [`Retired`]: margin_pointers::smr::node::Retired

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;

use margin_pointers::ds::{ConcurrentSet, LinkedList};
use margin_pointers::smr::oracle;
use margin_pointers::smr::schemes::{He, Hp, Mp};
use margin_pointers::smr::{Atomic, Config, Shared, Smr, SmrHandle};

/// The seed every test stamps before misbehaving, so the panic messages
/// are asserted against a known replay line.
const SEED: u64 = 0x0bad_5eed_0bad_5eed;

fn cfg() -> Config {
    Config { max_threads: 2, empty_freq: 4, ..Config::default() }
}

/// Runs `f`, requires it to panic, and returns the panic message.
fn oracle_panic(f: impl FnOnce()) -> String {
    oracle::set_replay_seed(SEED);
    let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("the oracle must panic");
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .expect("oracle panics carry a string message")
}

#[test]
fn double_retire_trips_the_oracle() {
    let smr = Hp::new(cfg());
    let mut h = smr.register();
    h.start_op();
    let n = h.alloc(1u64);
    h.end_op();
    // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
    unsafe { h.retire(n) };
    // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
    let msg = oracle_panic(|| unsafe { h.retire(n) });
    assert!(msg.contains("double retire"), "wrong diagnosis: {msg}");
    assert!(msg.contains("reclamation oracle"), "unbranded report: {msg}");
}

#[test]
fn use_after_free_trips_the_canary() {
    let smr = Hp::new(cfg());
    let mut h = smr.register();
    h.start_op();
    let n = h.alloc(2u64);
    h.end_op();
    // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
    unsafe { h.retire(n) };
    // No hazard protects `n`, so a forced scan reclaims it: the payload is
    // poisoned and the header canary flipped, with the memory parked in
    // quarantine (not returned to the allocator) so the next line reads
    // the poisoned canary deterministically.
    h.force_empty();
    let msg = oracle_panic(|| {
        // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
        let _ = unsafe { n.deref() };
    });
    assert!(msg.contains("use-after-free"), "wrong diagnosis: {msg}");
    assert!(msg.contains("after reclamation"), "should name the poison canary: {msg}");
}

#[test]
fn use_after_free_still_caught_with_pool_enabled() {
    // The node pool must not weaken UAF detection: freed blocks go through
    // the oracle's FIFO quarantine *before* any pool reinsertion, so a
    // dangling pointer still reads the poisoned canary — never a
    // freshly recycled, reinitialized block.
    let smr = Hp::new(cfg());
    let mut h = smr.register();
    h.start_op();
    let n = h.alloc(7u64);
    h.end_op();
    // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
    unsafe { h.retire(n) };
    h.force_empty();
    // Churn through more allocations than the quarantine would need to
    // start evicting into the pool; `n`'s block must stay quarantined (or
    // at minimum poisoned) rather than being handed back for reuse first.
    h.start_op();
    for i in 0..32u64 {
        let m = h.alloc(i);
        // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
        unsafe { h.retire(m) };
    }
    h.end_op();
    h.force_empty();
    let msg = oracle_panic(|| {
        // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
        let _ = unsafe { n.deref() };
    });
    assert!(msg.contains("use-after-free"), "wrong diagnosis: {msg}");
}

#[test]
fn use_after_free_still_caught_after_the_block_went_home_to_its_chunk() {
    // The full hand-off: quarantine eviction → the freeing thread's pool
    // magazine → (thread exit) the chunk's free list, whose link is written
    // into the block's first word. The poison canary sits past that word,
    // so a dangling pointer still reads it. The payload's size class is
    // used by no other test of this binary, so nothing re-serves the block.
    type Payload = [u64; 9];
    let smr = Hp::new(cfg());
    let n = std::thread::scope(|s| {
        s.spawn(|| {
            let mut h = smr.register();
            h.start_op();
            let n = h.alloc::<Payload>([7; 9]);
            h.end_op();
            // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
            unsafe { h.retire(n) };
            h.force_empty();
            // `n` is the oldest of these frees: one more than the quarantine
            // holds pushes it out, into this thread's magazine.
            for i in 0..=oracle::QUARANTINE_CAP as u64 {
                h.start_op();
                let m = h.alloc::<Payload>([i; 9]);
                h.end_op();
                // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
                unsafe { h.retire(m) };
                if i % 64 == 0 {
                    h.force_empty();
                }
            }
            h.force_empty();
            n
        })
        .join()
        .expect("churn thread panicked")
    });
    let msg = oracle_panic(|| {
        // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
        let _ = unsafe { n.deref() };
    });
    assert!(msg.contains("after reclamation"), "the link reached the canary word: {msg}");
}

#[test]
fn use_after_free_of_a_tall_tower_trips_the_canary() {
    // A node with a tail is poisoned and quarantined as the block it is:
    // reading the top level of a freed 20-level tower dies on the canary
    // with the usual context, and the tower's own words are poison too, so
    // even a reader that got past the canary would not follow a stale link.
    const HEIGHT: usize = 20;
    let smr = Hp::new(cfg());
    let mut h = smr.register();
    h.start_op();
    let n = h.alloc_with_tail(5u64, None, HEIGHT);
    h.end_op();
    // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
    let top = unsafe { &n.tail()[HEIGHT - 1] };
    // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
    unsafe { h.retire(n) };
    h.force_empty();
    let msg = oracle_panic(|| {
        // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
        let _ = unsafe { n.tail()[HEIGHT - 1].load(Ordering::Acquire) };
    });
    assert!(msg.contains("use-after-free"), "wrong diagnosis: {msg}");
    assert!(msg.contains("after reclamation"), "should name the poison canary: {msg}");
    assert!(msg.contains(&format!("MP_CHECK_SEED={SEED:#x}")), "missing replay line: {msg}");
    // The quarantine keeps the block mapped, so the stale reference reads
    // what the oracle poured over it.
    assert_eq!(top.load(Ordering::Acquire).into_word(), u64::from_ne_bytes([0x5a; 8]));
}

#[test]
fn prefetching_a_freed_node_trips_nothing() {
    // The control for the use-after-free tests above: `Shared::prefetch`
    // names the same poisoned, quarantined block a deref dies on — its
    // first line and every tail link's line, and a link past the tail —
    // and returns, because a prefetch reads nothing ([INV-16]). The deref
    // at the end proves the block really was reclaimed.
    let smr = Hp::new(cfg());
    let mut h = smr.register();
    h.start_op();
    let n = h.alloc_with_tail(4u64, None, 2);
    h.end_op();
    // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
    unsafe { h.retire(n) };
    h.force_empty();
    assert_eq!(h.retired_len(), 0, "the scan freed the node");
    oracle::set_replay_seed(SEED);
    for link in 0..4 {
        n.prefetch(link);
        n.with_mark(1).prefetch(link);
    }
    let msg = oracle_panic(|| {
        // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
        let _ = unsafe { n.deref() };
    });
    assert!(msg.contains("after reclamation"), "the block was not reclaimed: {msg}");
}

#[test]
fn retire_after_free_trips_the_oracle() {
    let smr = Hp::new(cfg());
    let mut h = smr.register();
    h.start_op();
    let n = h.alloc(3u64);
    h.end_op();
    // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
    unsafe { h.retire(n) };
    h.force_empty();
    // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
    let msg = oracle_panic(|| unsafe { h.retire(n) });
    assert!(msg.contains("freed or never-allocated"), "wrong diagnosis: {msg}");
}

#[test]
fn waste_bound_violation_trips_the_monitor() {
    // The monitor is the exact function every bounded scheme calls after
    // `empty()`; feeding it a kept-list longer than the bound must panic.
    let msg = oracle_panic(|| oracle::check_waste_bound("HP", 65, 64));
    assert!(msg.contains("waste bound violated for HP"), "wrong diagnosis: {msg}");
    assert!(msg.contains("65"), "should report the kept length: {msg}");
    assert!(msg.contains("64"), "should report the bound: {msg}");
}

#[test]
fn oracle_reports_carry_the_replay_seed() {
    let smr = Hp::new(cfg());
    let mut h = smr.register();
    h.start_op();
    let n = h.alloc(4u64);
    h.end_op();
    // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
    unsafe { h.retire(n) };
    // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
    let msg = oracle_panic(|| unsafe { h.retire(n) });
    assert!(
        msg.contains(&format!("MP_CHECK_SEED={SEED:#x}")),
        "missing replay line: {msg}"
    );
    assert!(msg.contains("scheme=HP"), "missing scheme attribution: {msg}");
}

#[test]
fn nested_pin_trips_the_oracle() {
    let smr = Hp::new(cfg());
    let mut h1 = smr.register();
    let mut h2 = smr.register();
    // The check is per *thread*, not per handle: nesting through a second
    // handle trips it too.
    let msg = oracle_panic(|| {
        let _outer = h1.pin();
        let _inner = h2.pin();
    });
    assert!(msg.contains("nested pin"), "wrong diagnosis: {msg}");
}

#[test]
fn a_structure_operation_inside_a_pin_trips_the_oracle() {
    let smr = Hp::new(cfg());
    let list = LinkedList::<Hp>::new(&smr);
    let mut h1 = smr.register();
    let mut h2 = smr.register();
    // Every structure operation opens with `pin()`, so it nests like one.
    let msg = oracle_panic(|| {
        let _outer = h1.pin();
        list.insert(&mut h2, 1);
    });
    assert!(msg.contains("nested pin"), "wrong diagnosis: {msg}");
}

/// What a reader does between reading a node through refno 0 and
/// dereferencing it after a writer retired it.
#[derive(Clone, Copy)]
enum Then {
    /// Nothing: the node is still protected.
    Keep,
    /// `unprotect(0)`.
    Unprotect,
    /// Reads a second node through this refno.
    ReadThrough(usize),
    /// Ends its operation and starts the next.
    NextOp,
}

/// A writer allocates two nodes without bound hints (so MP's reads take
/// the hazard fallback); a reader reads the first through refno 0, does
/// `then`, and dereferences it after the writer unlinked and retired it.
/// The scan watermark is out of reach, so nothing is freed: the node stays
/// live memory whatever the reader did. Returns the deref's panic message,
/// if any.
fn reader_derefs_a_retired_node<S: Smr>(then: Then) -> Option<String> {
    let smr = S::new(Config { empty_freq: 1 << 20, ..cfg() });
    let (mut writer, mut reader) = (smr.register(), smr.register());
    writer.start_op();
    let (n, m) = (writer.alloc(7u64), writer.alloc(8u64));
    writer.end_op();
    let (cell, other) = (Atomic::new(n), Atomic::new(m));
    reader.start_op();
    let got = reader.read(&cell, 0);
    match then {
        Then::Keep => {}
        Then::Unprotect => reader.unprotect(0),
        Then::ReadThrough(refno) => assert_eq!(reader.read(&other, refno), m),
        Then::NextOp => {
            reader.end_op();
            reader.start_op();
        }
    }
    cell.store(Shared::null(), Ordering::Release);
    // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
    unsafe { writer.retire(n) };
    assert_eq!(writer.retired_len(), 1, "the watermark must keep the scan away");
    oracle::set_replay_seed(SEED);
    // SAFETY: [INV-12] test-controlled: nothing is freed (see above), so the read is of live memory; whether a protection stands is the oracle's question.
    let read = catch_unwind(AssertUnwindSafe(|| unsafe { *got.deref().data() }));
    reader.end_op();
    // SAFETY: [INV-12] test-controlled: `m` was published only in `other`, which nothing reads any more.
    unsafe { m.drop_owned() };
    match read {
        Ok(v) => {
            assert_eq!(v, 7);
            None
        }
        Err(panic) => Some(panic.downcast_ref::<String>().expect("oracle panics carry a String").clone()),
    }
}

/// Requires the deref to panic with the ledger's diagnosis, naming the
/// scheme and the replay seed.
fn assert_unprotected<S: Smr>(then: Then) {
    let msg = reader_derefs_a_retired_node::<S>(then).expect("the deref must trip the oracle");
    assert!(msg.contains("unprotected dereference"), "wrong diagnosis: {msg}");
    assert!(msg.contains(&format!("scheme={}", S::name())), "missing scheme attribution: {msg}");
    assert!(msg.contains(&format!("MP_CHECK_SEED={SEED:#x}")), "missing replay line: {msg}");
}

/// Requires the deref to pass silently.
fn assert_protected<S: Smr>(then: Then) {
    if let Some(msg) = reader_derefs_a_retired_node::<S>(then) {
        panic!("{}: a protected deref tripped the oracle: {msg}", S::name());
    }
}

#[test]
fn hp_deref_after_unprotect_trips_the_ledger() {
    assert_unprotected::<Hp>(Then::Unprotect);
}

#[test]
fn hp_deref_under_a_standing_hazard_is_silent() {
    assert_protected::<Hp>(Then::Keep);
}

#[test]
fn hp_deref_after_its_refno_was_read_again_trips_the_ledger() {
    assert_unprotected::<Hp>(Then::ReadThrough(0));
}

#[test]
fn hp_deref_after_another_refno_was_read_is_silent() {
    assert_protected::<Hp>(Then::ReadThrough(1));
}

#[test]
fn mp_fallback_deref_after_its_refno_was_read_again_trips_the_ledger() {
    assert_unprotected::<Mp>(Then::ReadThrough(0));
}

#[test]
fn mp_fallback_deref_after_another_refno_was_read_is_silent() {
    assert_protected::<Mp>(Then::ReadThrough(1));
}

#[test]
fn hp_deref_in_the_next_operation_trips_the_ledger() {
    assert_unprotected::<Hp>(Then::NextOp);
}

/// HE's era stands until its refno is read again or released, across
/// operations; HP's hazard ends with the operation.
#[test]
fn he_deref_in_the_next_operation_is_silent() {
    assert_protected::<He>(Then::NextOp);
}
