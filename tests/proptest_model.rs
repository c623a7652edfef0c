//! Model checking with the in-tree seeded shrinking checker
//! ([`mp_util::check`]): random operation sequences applied to each
//! structure (under MP and under HP) must behave exactly like the
//! `BTreeSet`/`BTreeMap` oracle, and structure-specific invariants must
//! hold afterwards.
//!
//! Failures shrink to a minimal operation sequence and print the base
//! seed; replay with `MP_CHECK_SEED=<seed> cargo test -q <test_name>`.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use mp_util::{Checker, RngExt, SmallRng};

use margin_pointers::ds::{ConcurrentSet, DtaList, LinkedList, NmTree, SkipList};
use margin_pointers::smr::schemes::{Dta, Hp, Mp};
use margin_pointers::smr::{Config, Smr};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Insert(u64),
    Remove(u64),
    Contains(u64),
}

/// Draws a random op sequence (1..max_len ops over `key_space` keys).
fn gen_ops(rng: &mut SmallRng, key_space: u64, max_len: usize) -> Vec<Op> {
    let len = rng.random_range(1..max_len);
    (0..len)
        .map(|_| {
            let k = rng.random_range(0..key_space);
            match rng.random_range(0..3u8) {
                0 => Op::Insert(k),
                1 => Op::Remove(k),
                _ => Op::Contains(k),
            }
        })
        .collect()
}

fn cfg() -> Config {
    Config {
        max_threads: 2,
        slots_per_thread: margin_pointers::ds::skiplist::SLOTS_NEEDED,
        empty_freq: 4,
        epoch_freq: 8,
        ..Config::default()
    }
}

fn check_against_model<S: Smr, D: ConcurrentSet<S>>(ops: &[Op]) {
    let smr = S::new(cfg());
    let ds = D::new(&smr);
    let mut h = smr.register();
    let mut model = BTreeSet::new();
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Insert(k) => {
                assert_eq!(ds.insert(&mut h, k), model.insert(k), "op {i}: insert({k})")
            }
            Op::Remove(k) => {
                assert_eq!(ds.remove(&mut h, k), model.remove(&k), "op {i}: remove({k})")
            }
            Op::Contains(k) => {
                assert_eq!(ds.contains(&mut h, k), model.contains(&k), "op {i}: contains({k})")
            }
        }
    }
    // Final state must match exactly.
    for k in 0..64 {
        assert_eq!(ds.contains(&mut h, k), model.contains(&k), "final contains({k})");
    }
}

#[test]
fn list_matches_btreeset_under_mp() {
    Checker::new().cases(24).run(
        "list_matches_btreeset_under_mp",
        |rng| gen_ops(rng, 48, 400),
        check_against_model::<Mp, LinkedList<Mp>>,
    );
}

#[test]
fn list_matches_btreeset_under_hp() {
    Checker::new().cases(24).run(
        "list_matches_btreeset_under_hp",
        |rng| gen_ops(rng, 48, 400),
        check_against_model::<Hp, LinkedList<Hp>>,
    );
}

#[test]
fn skiplist_matches_btreeset_under_mp() {
    Checker::new().cases(24).run(
        "skiplist_matches_btreeset_under_mp",
        |rng| gen_ops(rng, 48, 400),
        check_against_model::<Mp, SkipList<Mp>>,
    );
}

#[test]
fn nmtree_matches_btreeset_under_mp() {
    Checker::new().cases(24).run(
        "nmtree_matches_btreeset_under_mp",
        |rng| gen_ops(rng, 48, 400),
        check_against_model::<Mp, NmTree<Mp>>,
    );
}

#[test]
fn dta_list_matches_btreeset() {
    Checker::new().cases(24).run(
        "dta_list_matches_btreeset",
        |rng| gen_ops(rng, 48, 400),
        |ops| {
            let smr = Dta::new(Config { anchor_hops: 4, stall_patience: 2, ..cfg() });
            let ds = DtaList::new(&smr);
            let mut h = smr.register();
            let mut model = BTreeSet::new();
            for op in ops {
                match *op {
                    Op::Insert(k) => assert_eq!(ds.insert(&mut h, k), model.insert(k)),
                    Op::Remove(k) => assert_eq!(ds.remove(&mut h, k), model.remove(&k)),
                    Op::Contains(k) => assert_eq!(ds.contains(&mut h, k), model.contains(&k)),
                }
            }
            assert_eq!(ds.collect(&mut h), model.into_iter().collect::<Vec<_>>());
        },
    );
}

/// The key/value flavor (Definition 4.1's search data structure as a map):
/// NM tree `insert_kv`/`get`/`remove` against a `BTreeMap` oracle.
/// `insert_kv` is first-writer-wins, mirrored with `entry().or_insert()`.
#[test]
fn nmtree_kv_matches_btreemap_under_mp() {
    Checker::new().cases(24).run(
        "nmtree_kv_matches_btreemap_under_mp",
        |rng| gen_ops(rng, 48, 400),
        |ops| {
            let smr = Mp::new(cfg());
            let tree: NmTree<Mp, u64> = NmTree::new(&smr);
            let mut h = smr.register();
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            for (i, op) in ops.iter().enumerate() {
                match *op {
                    Op::Insert(k) => {
                        let v = k.wrapping_mul(3) + 1; // derived, checkable value
                        let fresh = !model.contains_key(&k);
                        model.entry(k).or_insert(v);
                        assert_eq!(
                            tree.insert_kv(&mut h, k, v),
                            fresh,
                            "op {i}: insert_kv({k})"
                        );
                    }
                    Op::Remove(k) => {
                        assert_eq!(
                            tree.remove(&mut h, k),
                            model.remove(&k).is_some(),
                            "op {i}: remove({k})"
                        );
                    }
                    Op::Contains(k) => {
                        assert_eq!(
                            tree.get(&mut h, k),
                            model.get(&k).copied(),
                            "op {i}: get({k})"
                        );
                    }
                }
            }
            for k in 0..48 {
                assert_eq!(tree.get(&mut h, k), model.get(&k).copied(), "final get({k})");
            }
        },
    );
}

/// Two-phase concurrent property: a batch of keys is partitioned among
/// threads that insert their shares concurrently; afterwards the set
/// must contain exactly the batch. Then threads remove disjoint shares
/// concurrently; the set must end empty.
#[test]
fn concurrent_partition_roundtrip() {
    Checker::new().cases(16).run(
        "concurrent_partition_roundtrip",
        |rng| {
            let n = rng.random_range(1usize..96);
            let keys: BTreeSet<u64> = (0..n).map(|_| rng.random_range(0..512u64)).collect();
            keys.into_iter().collect()
        },
        |keys: &[u64]| {
            let smr = Mp::new(Config { max_threads: 4, ..cfg() });
            let ds: Arc<SkipList<Mp>> = Arc::new(SkipList::new(&smr));
            std::thread::scope(|s| {
                for t in 0..3usize {
                    let smr = smr.clone();
                    let ds = ds.clone();
                    let share: Vec<u64> = keys.iter().copied().skip(t).step_by(3).collect();
                    s.spawn(move || {
                        let mut h = smr.register();
                        for k in share {
                            assert!(ds.insert(&mut h, k), "fresh key {k}");
                        }
                    });
                }
            });
            let mut h = smr.register();
            for &k in keys {
                assert!(ds.contains(&mut h, k));
            }
            std::thread::scope(|s| {
                for t in 0..3usize {
                    let smr = smr.clone();
                    let ds = ds.clone();
                    let share: Vec<u64> = keys.iter().copied().skip(t).step_by(3).collect();
                    s.spawn(move || {
                        let mut h = smr.register();
                        for k in share {
                            assert!(ds.remove(&mut h, k), "present key {k}");
                        }
                    });
                }
            });
            for &k in keys {
                assert!(!ds.contains(&mut h, k));
            }
        },
    );
}
