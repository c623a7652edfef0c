//! End-to-end leak check: after exercising every scheme on every structure
//! and dropping everything, the global SMR allocation gauge must return to
//! zero. This test runs alone in its own process (one test per integration
//! binary), so the gauge is not perturbed by parallel tests.
//!
//! Each churn round also cross-checks the per-handle telemetry counters
//! against the scheme's global retired-pending gauge: a node can only be
//! freed after being retired, so the scheme can never report more pending
//! than the handles' `retires - frees` — though it may report less, since
//! every handle runs a final drain scan at Drop after its counters were
//! sampled (DTA is exempt from the bound — its freezing recovery parks
//! nodes on the pending gauge without a handle-attributed retire).

use std::sync::Arc;

use margin_pointers::ds::{ConcurrentSet, DtaList, HashMap, LinkedList, NmTree, SkipList};
use margin_pointers::smr::node::gauge;
use margin_pointers::smr::schemes::{Dta, Ebr, He, Hp, Ibr, Leaky, Mp};
use margin_pointers::smr::{Config, Smr, Telemetry, TelemetrySnapshot};

fn cfg() -> Config {
    Config::default()
        .with_max_threads(6)
        .with_slots_per_thread(margin_pointers::ds::skiplist::SLOTS_NEEDED)
        .with_empty_freq(8)
        .with_epoch_freq(16)
        .with_anchor_hops(8)
        .with_stall_patience(3)
}

fn churn<S: Smr, D: ConcurrentSet<S>>() {
    let smr = S::new(cfg());
    let ds = Arc::new(D::new(&smr));
    let mut merged = TelemetrySnapshot::default();
    std::thread::scope(|s| {
        let mut joins = Vec::new();
        for t in 0..3u64 {
            let smr = smr.clone();
            let ds = ds.clone();
            joins.push(s.spawn(move || {
                let mut h = smr.register();
                let mut x = t * 7 + 1;
                for i in 0..4000u64 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let key = x % 128;
                    match i % 3 {
                        0 => {
                            ds.insert(&mut h, key);
                        }
                        1 => {
                            ds.remove(&mut h, key);
                        }
                        _ => {
                            ds.contains(&mut h, key);
                        }
                    }
                }
                h.snapshot()
            }));
        }
        for j in joins {
            merged.merge(&j.join().expect("churn worker panicked"));
        }
    });

    // Counter invariants, checked while the scheme still exists (handles
    // are dropped, so their leftover retired lists are parked as orphans
    // and still count as pending).
    let combo = format!("{} / {}", S::name(), D::name());
    assert!(merged.ops() > 0, "{combo}: no operations recorded");
    assert!(
        merged.retires() >= merged.frees(),
        "{combo}: freed {} nodes but only {} were ever retired",
        merged.frees(),
        merged.retires()
    );
    let outstanding = (merged.retires() - merged.frees()) as usize;
    let pending = smr.retired_pending();
    // Handles run a drain scan at Drop, *after* the worker took its
    // snapshot, so the gauge may read below `retires - frees`; it can never
    // exceed it (for DTA it can — freezing recovery parks nodes on the
    // gauge without a handle-attributed retire, so no bound holds there).
    if S::name() != "DTA" {
        assert!(
            pending <= outstanding,
            "{combo}: gauge reports {pending} pending > {outstanding} outstanding retires"
        );
    }

    drop(ds);
    drop(smr);
}

#[test]
fn no_nodes_leak_across_all_schemes_and_structures() {
    assert_eq!(gauge::live_nodes(), 0, "gauge must start clean");

    churn::<Mp, LinkedList<Mp>>();
    churn::<Mp, SkipList<Mp>>();
    churn::<Mp, NmTree<Mp>>();
    churn::<Mp, HashMap<Mp>>();

    churn::<Hp, LinkedList<Hp>>();
    churn::<Hp, SkipList<Hp>>();
    churn::<Hp, NmTree<Hp>>();
    churn::<Hp, HashMap<Hp>>();

    churn::<Ebr, LinkedList<Ebr>>();
    churn::<Ebr, SkipList<Ebr>>();
    churn::<Ebr, NmTree<Ebr>>();
    churn::<Ebr, HashMap<Ebr>>();

    churn::<He, LinkedList<He>>();
    churn::<He, SkipList<He>>();
    churn::<He, NmTree<He>>();
    churn::<He, HashMap<He>>();

    churn::<Ibr, LinkedList<Ibr>>();
    churn::<Ibr, SkipList<Ibr>>();
    churn::<Ibr, NmTree<Ibr>>();
    churn::<Ibr, HashMap<Ibr>>();

    churn::<Leaky, LinkedList<Leaky>>();
    churn::<Dta, DtaList>();

    assert_eq!(
        gauge::live_nodes(),
        0,
        "every allocated node must be reclaimed after teardown"
    );
}
