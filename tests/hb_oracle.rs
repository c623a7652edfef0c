//! Happens-before oracle tests (`--features hb-oracle`, implies `oracle`).
//!
//! **Positive half** — every scheme runs the recorded churn
//! (`mp_bench::churn`, whose history must also be linearizable) with the
//! vector-clock tracker armed: each `counted_fence` and raw scan fence
//! joins the tracked SeqCst order, each validated protect stamps a
//! record, and every `Shared::deref` of a retired node must be
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

mod common;

use std::sync::atomic::Ordering;
use std::sync::Barrier;

use margin_pointers::ds::{ConcurrentSet, LinkedList, SkipList};
use margin_pointers::smr::schemes::{Dta, Ebr, He, Hp, Ibr, Leaky, Mp};
use margin_pointers::smr::{Atomic, Config, Shared, Smr, SmrHandle};
use mp_bench::churn::{plans, seeds, Churn, Draw};

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

/// Three workers × 400 steps over 32 keys through the recorded churn, so
/// retired nodes are continually re-read, scanned and freed while the
/// tracker audits every deref and free.
fn churn<S: Smr, D: ConcurrentSet<S>>() {
    const KEYS: u64 = 32;
    common::check(&format!("{} / {}", S::name(), D::name()), 1, seeds(3), |seeds| {
        let workers = plans(seeds, Draw::Thirds, 400, KEYS);
        Churn { prefill: Vec::new(), keys: KEYS, workers, fault: None }.run::<S, D>(&S::new(cfg()));
    });
}

/// One test per scheme, churning each structure it names.
macro_rules! hb_clean {
    ($($test:ident => $s:ident on $($ds:ident),+;)*) => {$(
        #[test]
        fn $test() {
            $(churn::<$s, $ds<$s>>();)+
        }
    )*};
}

hb_clean! {
    mp_churn_is_hb_clean    => Mp    on LinkedList, SkipList;
    hp_churn_is_hb_clean    => Hp    on LinkedList;
    he_churn_is_hb_clean    => He    on LinkedList;
    ebr_churn_is_hb_clean   => Ebr   on LinkedList;
    ibr_churn_is_hb_clean   => Ibr   on LinkedList;
    dta_churn_is_hb_clean   => Dta   on LinkedList;
    leaky_churn_is_hb_clean => Leaky on LinkedList;
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
