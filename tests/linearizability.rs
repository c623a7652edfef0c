//! End-to-end linearizability: drive every structure under every
//! bounded-waste scheme with concurrent threads, record the real history,
//! and check it against sequential set semantics. A reclamation bug that
//! resurrects or loses a node manifests as a non-linearizable read
//! (a "ghost" membership observation), so this doubles as a deep SMR test.

use std::sync::Arc;

use margin_pointers::ds::{ConcurrentSet, DtaList, HashMap, LinkedList, NmTree, SkipList};
use margin_pointers::smr::schemes::{Dta, Ebr, He, Hp, Ibr, Mp};
use margin_pointers::smr::{Config, Smr};
use mp_bench::linearize::{History, OpKind};

const KEY_SPACE: u64 = 24; // small: maximal same-key contention
const OPS_PER_THREAD: usize = 3_000;
const THREADS: usize = 4;

fn cfg() -> Config {
    Config {
        max_threads: THREADS + 1,
        slots_per_thread: margin_pointers::ds::skiplist::SLOTS_NEEDED,
        empty_freq: 4,
        epoch_freq: 8,
        anchor_hops: 4,
        stall_patience: 2,
        ..Config::default()
    }
}

fn run_and_check<S: Smr, D: ConcurrentSet<S>>() {
    let smr = S::new(cfg());
    let ds = Arc::new(D::new(&smr));
    // Prefill even keys.
    let prefilled: Vec<u64> = (0..KEY_SPACE).filter(|k| k % 2 == 0).collect();
    {
        let mut h = smr.register();
        for &k in &prefilled {
            assert!(ds.insert(&mut h, k));
        }
    }
    let mut merged = History::new();
    std::thread::scope(|s| {
        let mut joins = Vec::new();
        for t in 0..THREADS as u64 {
            let smr = smr.clone();
            let ds = ds.clone();
            joins.push(s.spawn(move || {
                let mut handle = smr.register();
                let mut hist = History::new();
                let mut x = t * 2654435761 + 1;
                for _ in 0..OPS_PER_THREAD {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let key = x % KEY_SPACE;
                    match x % 3 {
                        0 => hist.record(OpKind::Insert, key, || ds.insert(&mut handle, key)),
                        1 => hist.record(OpKind::Remove, key, || ds.remove(&mut handle, key)),
                        _ => {
                            hist.record(OpKind::Contains, key, || ds.contains(&mut handle, key))
                        }
                    }
                }
                hist
            }));
        }
        for j in joins {
            merged.merge(j.join().expect("worker"));
        }
    });
    assert_eq!(merged.len(), THREADS * OPS_PER_THREAD);
    if let Err(e) = merged.check(&prefilled) {
        panic!("{} / {}: non-linearizable history: {e}", S::name(), D::name());
    }
}

/// One `#[test]` per scheme × structure combo, so a non-linearizable
/// history names its combo directly in the failing-test list (and combos
/// run in parallel instead of serially inside one test).
macro_rules! linearizability_tests {
    ($($test:ident => $scheme:ident on $ds:ty;)*) => {$(
        #[test]
        fn $test() {
            run_and_check::<$scheme, $ds>();
        }
    )*};
}

linearizability_tests! {
    list_mp_histories_linearizable      => Mp  on LinkedList<Mp>;
    list_hp_histories_linearizable      => Hp  on LinkedList<Hp>;
    list_ebr_histories_linearizable     => Ebr on LinkedList<Ebr>;
    list_he_histories_linearizable      => He  on LinkedList<He>;
    skiplist_mp_histories_linearizable  => Mp  on SkipList<Mp>;
    skiplist_hp_histories_linearizable  => Hp  on SkipList<Hp>;
    skiplist_ibr_histories_linearizable => Ibr on SkipList<Ibr>;
    skiplist_he_histories_linearizable  => He  on SkipList<He>;
    nmtree_mp_histories_linearizable    => Mp  on NmTree<Mp>;
    nmtree_hp_histories_linearizable    => Hp  on NmTree<Hp>;
    hashmap_mp_histories_linearizable   => Mp  on HashMap<Mp>;
    hashmap_hp_histories_linearizable   => Hp  on HashMap<Hp>;
    hashmap_he_histories_linearizable   => He  on HashMap<He>;
    dta_list_histories_linearizable     => Dta on DtaList;
}
