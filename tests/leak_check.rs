//! End-to-end leak check: after exercising every scheme on every structure
//! and dropping everything, the global SMR allocation gauge must return to
//! zero. The tests in this binary hold one lock while they run, so no
//! other test perturbs the process-wide gauge.
//!
//! Each churn round also cross-checks the per-handle telemetry counters
//! against the scheme's global retired-pending gauge: a node can only be
//! freed after being retired, so the scheme can never report more pending
//! than the handles' `retires - frees` — though it may report less, since
//! every handle runs a final drain scan at Drop after its counters were
//! sampled (DTA is exempt from the bound — its freezing recovery parks
//! nodes on the pending gauge without a handle-attributed retire).
//!
//! A second test holds the *scheme's* pending gauge, nodes and bytes, exact
//! across the handle-death path: drain, park, adopt, free.

use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard};

use margin_pointers::ds::{ConcurrentSet, DtaList, HashMap, LinkedList, NmTree, SkipList};
use margin_pointers::smr::node::gauge;
use margin_pointers::smr::schemes::{Dta, Ebr, He, Hp, Ibr, Leaky, Mp};
use margin_pointers::smr::{Config, Smr, SmrHandle, Telemetry, TelemetrySnapshot};

/// Serialises the tests of this binary: each one expects the process-wide
/// node gauge to be its own.
fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn cfg() -> Config {
    Config {
        max_threads: 6,
        slots_per_thread: margin_pointers::ds::skiplist::SLOTS_NEEDED,
        empty_freq: 8,
        epoch_freq: 16,
        anchor_hops: 8,
        stall_patience: 3,
        ..Config::default()
    }
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
    let _exclusive = exclusive();
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

/// A reader parked on its own thread with one operation pinned — the §1
/// stalled reader. `release()` unpins and joins it.
struct StalledReader {
    release: mpsc::Sender<()>,
    join: std::thread::JoinHandle<()>,
}

impl StalledReader {
    /// Registers a handle on a fresh thread, pins an op, and returns once
    /// the pin is live (so every retire after this call is covered).
    fn spawn(smr: &Arc<Ebr>) -> StalledReader {
        let (ready_tx, ready_rx) = mpsc::channel();
        let (release, parked_rx) = mpsc::channel::<()>();
        let smr = smr.clone();
        let join = std::thread::spawn(move || {
            let mut h = smr.register();
            let _pin = h.pin();
            ready_tx.send(()).expect("main thread waits for the pin");
            let _ = parked_rx.recv(); // blocks until release() drops the sender
        });
        ready_rx.recv().expect("stalled reader pinned");
        StalledReader { release, join }
    }

    fn release(self) {
        drop(self.release);
        self.join.join().expect("stalled reader exited");
    }
}

/// The retired gauge (nodes AND bytes) must stay exact across the whole
/// handle-death path — Drop-time drain, parking the un-freeable leftovers
/// as orphans, adoption by a later registrant, and the final frees. Any
/// double-count or missed `sub` shows up as a nonzero residue here.
#[test]
fn gauge_stays_exact_across_drop_park_adopt_and_free() {
    let _exclusive = exclusive();
    const NODES: usize = 10;
    // No scan fires on its own: the gauge itself is under test.
    let smr = Ebr::new(Config { max_threads: 4, empty_freq: 1 << 20, ..Config::default() });
    let stall = StalledReader::spawn(&smr);

    let mut writer = smr.register();
    for _ in 0..NODES {
        let mut op = writer.pin();
        let n = op.alloc([0u8; 128]);
        // SAFETY: [INV-12] test-controlled: never published, retired once.
        unsafe { op.retire(n) };
    }
    let tele = smr.telemetry();
    let nodes_before = smr.retired_pending();
    let bytes_before = tele.pending_bytes();
    assert_eq!(nodes_before, NODES);
    assert!(bytes_before >= NODES * 128, "gauge must count at least the payload bytes");

    // Drop-drain: the pinned reader makes every node un-freeable, so the
    // drain parks all of them as orphans — and must not touch the gauge.
    drop(writer);
    assert_eq!(smr.retired_pending(), nodes_before, "park must not change the node gauge");
    assert_eq!(tele.pending_bytes(), bytes_before, "park must not change the byte gauge");

    // Adoption on a later register must not double-count either.
    stall.release();
    let mut adopter = smr.register();
    assert_eq!(smr.retired_pending(), nodes_before, "adopt must not change the node gauge");
    assert_eq!(tele.pending_bytes(), bytes_before, "adopt must not change the byte gauge");

    // With the pin gone, draining frees everything; the gauge must return
    // to exactly zero on both axes.
    for _ in 0..4 {
        adopter.force_empty();
    }
    assert_eq!(smr.retired_pending(), 0, "all adopted nodes must free");
    assert_eq!(tele.pending_bytes(), 0, "freed bytes must be subtracted exactly");
}
