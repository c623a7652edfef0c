//! The key/value flavor of the structures (Definition 4.1 covers "a set or
//! key/value data type"): `insert_kv` / `get` on every structure, value
//! integrity under concurrent churn, and drop-correctness of owned values.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use mp_ds::{ConcurrentSet, LinkedList, NmTree, SkipList};
use mp_smr::schemes::Mp;
use mp_smr::{Config, Smr};

fn cfg() -> Config {
    Config {
        max_threads: 8,
        slots_per_thread: mp_ds::skiplist::SLOTS_NEEDED,
        empty_freq: 4,
        epoch_freq: 8,
        ..Config::default()
    }
}

#[test]
fn list_map_roundtrip() {
    let smr = Mp::new(cfg());
    let map: LinkedList<Mp, String> = LinkedList::new(&smr);
    let mut h = smr.register();
    assert!(map.insert_kv(&mut h, 3, "three".into()));
    assert!(map.insert_kv(&mut h, 1, "one".into()));
    assert!(!map.insert_kv(&mut h, 3, "shadow".into()), "duplicate key keeps old value");
    assert_eq!(map.get(&mut h, 3).as_deref(), Some("three"));
    assert_eq!(map.get(&mut h, 1).as_deref(), Some("one"));
    assert_eq!(map.get(&mut h, 2), None);
    assert!(map.remove(&mut h, 3));
    assert_eq!(map.get(&mut h, 3), None);
}

#[test]
fn skiplist_map_roundtrip() {
    let smr = Mp::new(cfg());
    let map: SkipList<Mp, u64> = SkipList::new(&smr);
    let mut h = smr.register();
    for k in 0..100u64 {
        assert!(map.insert_kv(&mut h, k, k * k));
    }
    for k in 0..100u64 {
        assert_eq!(map.get(&mut h, k), Some(k * k));
    }
    assert_eq!(map.get(&mut h, 100), None);
}

#[test]
fn nmtree_map_roundtrip() {
    let smr = Mp::new(cfg());
    let map: NmTree<Mp, u64> = NmTree::new(&smr);
    let mut h = smr.register();
    for k in [50u64, 25, 75, 10, 60, 90] {
        assert!(map.insert_kv(&mut h, k, !k));
    }
    for k in [50u64, 25, 75, 10, 60, 90] {
        assert_eq!(map.get(&mut h, k), Some(!k));
    }
    assert_eq!(map.get(&mut h, 51), None);
    assert!(map.remove(&mut h, 50));
    assert_eq!(map.get(&mut h, 50), None);
}

#[test]
fn values_survive_concurrent_churn() {
    // Every key's value is a function of the key; readers must never see a
    // torn or stale-freed value under insert/remove churn.
    let smr = Mp::new(cfg());
    let map: Arc<SkipList<Mp, u64>> = Arc::new(SkipList::new(&smr));
    std::thread::scope(|s| {
        for t in 0..2u64 {
            let (smr, map) = (smr.clone(), map.clone());
            s.spawn(move || {
                let mut h = smr.register();
                let mut x = t + 1;
                for _ in 0..4000 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let k = x % 64;
                    map.remove(&mut h, k);
                    map.insert_kv(&mut h, k, k.wrapping_mul(0x9e37_79b9));
                }
            });
        }
        for _ in 0..2 {
            let (smr, map) = (smr.clone(), map.clone());
            s.spawn(move || {
                let mut h = smr.register();
                let mut x = 99u64;
                for _ in 0..6000 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let k = x % 64;
                    if let Some(v) = map.get(&mut h, k) {
                        assert_eq!(v, k.wrapping_mul(0x9e37_79b9), "torn value for {k}");
                    }
                }
            });
        }
    });
}

#[test]
fn owned_values_dropped_exactly_once() {
    // Heap-owning values: every inserted value's destructor must run
    // exactly once, whether the node is removed + reclaimed, dropped with
    // the structure, or its insert CAS lost the race.
    static DROPS: AtomicUsize = AtomicUsize::new(0);
    #[derive(Default)]
    struct Counted(#[allow(dead_code)] Option<Box<u64>>);
    impl Drop for Counted {
        fn drop(&mut self) {
            if self.0.is_some() {
                DROPS.fetch_add(1, Ordering::AcqRel);
            }
        }
    }
    let calls = {
        let smr = Mp::new(cfg());
        let map: Arc<LinkedList<Mp, Counted>> = Arc::new(LinkedList::new(&smr));
        let total = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for t in 0..3u64 {
                let (smr, map, total) = (smr.clone(), map.clone(), total.clone());
                s.spawn(move || {
                    let mut h = smr.register();
                    let mut x = t * 31 + 1;
                    for _ in 0..2000 {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let k = x % 48;
                        if x % 2 == 0 {
                            // Whether this lands in the map, loses the CAS
                            // race, or is rejected as a duplicate, its value
                            // must be dropped exactly once overall.
                            map.insert_kv(&mut h, k, Counted(Some(Box::new(k))));
                            total.fetch_add(1, Ordering::AcqRel);
                        } else {
                            map.remove(&mut h, k);
                        }
                    }
                });
            }
        });
        total.load(Ordering::Acquire)
    }; // map + scheme dropped: every node reclaimed
    assert_eq!(
        DROPS.load(Ordering::Acquire),
        calls,
        "each insert_kv call's value drops exactly once (no leak, no double drop)"
    );
}

#[test]
fn skiplist_tower_sits_past_an_over_aligned_value() {
    // A 16-byte-aligned value pads the node past its last field; the tower
    // must start after that padding, where `Shared::tail` looks for it. If
    // the two disagreed, storing a link would scribble over a value (or the
    // reverse), so every value is checked after every tower is linked — and
    // each value still drops exactly once, tall node or short.
    static DROPS: AtomicUsize = AtomicUsize::new(0);
    #[repr(align(16))]
    #[derive(Default)]
    struct Wide {
        pattern: u128,
        counted: bool,
    }
    impl Clone for Wide {
        fn clone(&self) -> Self {
            Wide { pattern: self.pattern, counted: false }
        }
    }
    impl Drop for Wide {
        fn drop(&mut self) {
            if self.counted {
                DROPS.fetch_add(1, Ordering::AcqRel);
            }
        }
    }
    fn pattern(k: u64) -> u128 {
        u128::from(k) << 64 | u128::from(!k)
    }
    const KEYS: u64 = 2000; // towers up to ~11 levels
    {
        let smr = Mp::new(cfg());
        let map: SkipList<Mp, Wide> = SkipList::new(&smr);
        let mut h = smr.register();
        for k in 0..KEYS {
            assert!(map.insert_kv(&mut h, k, Wide { pattern: pattern(k), counted: true }));
        }
        assert!(!map.insert_kv(&mut h, 7, Wide { pattern: 0, counted: true }), "duplicate");
        for k in 0..KEYS {
            assert_eq!(map.get(&mut h, k).map(|w| w.pattern), Some(pattern(k)), "key {k}");
        }
        for k in (0..KEYS).step_by(2) {
            assert!(map.remove(&mut h, k));
        }
        for k in 0..KEYS {
            let expect = (k % 2 == 1).then(|| pattern(k));
            assert_eq!(map.get(&mut h, k).map(|w| w.pattern), expect, "key {k}");
        }
    } // handle, map and scheme dropped: every node reclaimed
    assert_eq!(DROPS.load(Ordering::Acquire), KEYS as usize + 1, "one drop per value");
}
