//! Happens-before oracle tests (`--features hb-oracle`, implies `oracle`).
//!
//! **Positive half** — every scheme runs a small multi-threaded churn
//! workload with the vector-clock tracker armed: each `counted_fence` and
//! raw scan fence joins the tracked SeqCst order, each validated protect
//! stamps a record, and every `Shared::deref` of a retired node must be
//! justified by a tracked edge. A silent run is the pass: the oracle found
//! no dereference or free whose protection story the protocol cannot back
//! with a happens-before path.
//!
//! **Negative half** — the seeded missing protection, driven through the
//! public API only: an HP reader protects a node, withdraws the hazard,
//! and dereferences the node after the writer retired it. Nothing is freed
//! (the scan watermark is out of reach), so the poison canary stays quiet
//! and the panic can only come from the ledger finding no protection
//! record of the reader's thread. Its twin keeps the hazard and must stay
//! silent. This pins that the oracle actually *checks* dereferences rather
//! than merely shadowing them.
//!
//! Compiles to nothing without the feature, so default `cargo test`
//! wall-clock is unchanged.

#![cfg(feature = "hb-oracle")]

use std::sync::atomic::Ordering;
use std::sync::{Arc, Barrier};

use margin_pointers::ds::{ConcurrentSet, LinkedList, SkipList};
use margin_pointers::smr::schemes::{Dta, Ebr, He, Hp, Ibr, Leaky, Mp};
use margin_pointers::smr::{Atomic, Config, Shared, Smr, SmrHandle};

const KEY_SPACE: u64 = 32;

/// Aggressive cadences so scans (and thus fence/free hooks) run many
/// times within a short plan.
fn cfg() -> Config {
    Config {
        max_threads: 4,
        slots_per_thread: margin_pointers::ds::skiplist::SLOTS_NEEDED,
        empty_freq: 4,
        epoch_freq: 8,
        anchor_hops: 4,
        stall_patience: 2,
        ..Config::default()
    }
}

/// Three threads churn a set (insert/remove/contains over a small key
/// space) so retired nodes are continually re-read, scanned, and freed
/// while the tracker audits every deref and free.
fn churn<S: Smr, D: ConcurrentSet<S>>() {
    let smr = S::new(cfg());
    let ds = Arc::new(D::new(&smr));
    let barrier = Arc::new(Barrier::new(3));
    std::thread::scope(|s| {
        for t in 0..3u64 {
            let smr = smr.clone();
            let ds = ds.clone();
            let barrier = barrier.clone();
            s.spawn(move || {
                let mut h = smr.register();
                barrier.wait();
                let mut k = t + 1;
                for i in 0..400u64 {
                    k = (k.wrapping_mul(31) + t + 7) % KEY_SPACE;
                    match i % 3 {
                        0 => {
                            ds.insert(&mut h, k);
                        }
                        1 => {
                            ds.remove(&mut h, k);
                        }
                        _ => {
                            ds.contains(&mut h, k);
                        }
                    }
                }
            });
        }
    });
}

#[test]
fn mp_churn_is_hb_clean() {
    churn::<Mp, LinkedList<Mp>>();
    churn::<Mp, SkipList<Mp>>();
}

#[test]
fn hp_churn_is_hb_clean() {
    churn::<Hp, LinkedList<Hp>>();
}

#[test]
fn he_churn_is_hb_clean() {
    churn::<He, LinkedList<He>>();
}

#[test]
fn ebr_churn_is_hb_clean() {
    churn::<Ebr, LinkedList<Ebr>>();
}

#[test]
fn ibr_churn_is_hb_clean() {
    churn::<Ibr, LinkedList<Ibr>>();
}

#[test]
fn dta_churn_is_hb_clean() {
    churn::<Dta, LinkedList<Dta>>();
}

#[test]
fn leaky_churn_is_hb_clean() {
    churn::<Leaky, LinkedList<Leaky>>();
}

// ---------------------------------------------------------------------------
// The deref check: a retired node needs a live protection record.
// ---------------------------------------------------------------------------

/// An HP reader protects `n` and — when `release_first` — withdraws the
/// hazard again; the writer then unlinks and retires `n`, and the reader
/// dereferences it. The scan watermark is never reached and both handles
/// outlive the dereference, so nothing is freed: the reclamation oracle's
/// poison canary has nothing to say and only the hb ledger judges. The
/// reader runs on its own thread because the ledger keys claims by thread;
/// its panic, if any, is re-raised on the caller's.
fn hp_reader_derefs_a_retired_node(release_first: bool) {
    let smr = Hp::new(Config { empty_freq: 1 << 20, ..cfg() });
    let mut writer = smr.register();
    writer.start_op();
    let n = writer.alloc(7u64);
    let cell = Atomic::new(n);
    let step = Barrier::new(2);
    let read = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut reader = smr.register();
            reader.start_op();
            let got = reader.read(&cell, 0);
            if release_first {
                reader.unprotect(0);
            }
            step.wait(); // hazard validated (and, in the negative, withdrawn)
            step.wait(); // node retired
            // SAFETY: [INV-12] nothing is freed in this test (see above), so
            // the read is of live memory whether or not the hazard stands —
            // the missing protection is what the oracle is asked to notice.
            let v = unsafe { *got.deref().data() };
            reader.end_op();
            v
        });
        step.wait();
        cell.store(Shared::null(), Ordering::Release);
        // SAFETY: [INV-12] unlinked above, retired once.
        unsafe { writer.retire(n) };
        step.wait();
        reader.join()
    });
    writer.end_op();
    assert_eq!(writer.retired_len(), 1, "the watermark must keep the scan away");
    match read {
        Ok(v) => assert_eq!(v, 7),
        Err(panic) => {
            let msg = panic.downcast_ref::<String>().expect("oracle panics carry a String");
            // Not quoted in the failure text: that would satisfy the
            // caller's `should_panic(expected = …)` by itself.
            assert!(msg.contains("MP_CHECK_SEED"), "the report lost its replay context");
            std::panic::resume_unwind(panic);
        }
    }
}

/// The control: the hazard stands across the retirement, so the validated
/// protection record justifies the dereference and the run is silent.
#[test]
fn deref_of_a_retired_node_under_a_standing_hazard_is_hb_clean() {
    hp_reader_derefs_a_retired_node(false);
}

/// The seeded negative: the same run with the hazard withdrawn before the
/// retirement. No record of the reader's thread covers the node any more,
/// so the dereference must panic and name the missing protection.
#[test]
#[should_panic(expected = "hb-unjustified deref")]
fn deref_of_a_retired_node_after_unprotect_panics() {
    hp_reader_derefs_a_retired_node(true);
}
