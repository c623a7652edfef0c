//! Footprint pins: the pool block behind every node each structure
//! allocates, measured — as the bytes a retired node holds — rather than
//! computed from a `size_of`, and stated in bytes per key; and the nodes a
//! structure allocates before its first key. The benchmark's
//! `setup_rss_anon_kb` is these numbers times the prefill, plus one word
//! per bucket, so a word added to a node, or a sentinel added to a bucket,
//! fails here, with the structure's name, instead of surfacing as a memory
//! regression some PRs later.
//!
//! Without the oracle only: its canary word widens every header. One
//! `#[test]` in this binary, and every pool access on a thread that has
//! exited before the closing checks, so the process-wide gauges are exact.

#![cfg(not(feature = "oracle"))]

use margin_pointers::ds::skiplist::{MAX_HEIGHT, SLOTS_NEEDED};
use margin_pointers::ds::{ConcurrentSet, HashMap, LinkedList, NmTree, SkipList};
use margin_pointers::smr::node::gauge;
use margin_pointers::smr::schemes::Hp;
use margin_pointers::smr::{Config, Smr};

/// Enough skip-list keys for the mean tower to settle within its bracket.
const KEYS: u64 = 4096;

/// No scan before the handle drops, so retired bytes only add up.
fn cfg() -> Config {
    Config::default()
        .with_max_threads(2)
        .with_slots_per_thread(SLOTS_NEEDED)
        .with_empty_freq(1 << 20)
}

/// Inserts `keys` keys, removes them one at a time, and returns what each
/// removal retired: (nodes, bytes held). Runs on a thread of its own.
fn retired_per_removal<D: ConcurrentSet<Hp>>(keys: u64) -> Vec<(usize, usize)> {
    std::thread::spawn(move || {
        let smr = Hp::new(cfg());
        let ds = D::new(&smr);
        let mut h = smr.register();
        for key in 0..keys {
            assert!(ds.insert(&mut h, key));
        }
        let held = || (smr.retired_pending(), smr.telemetry().pending_bytes());
        (0..keys)
            .map(|key| {
                let (nodes, bytes) = held();
                assert!(ds.remove(&mut h, key));
                (held().0 - nodes, held().1 - bytes)
            })
            .collect()
    })
    .join()
    .expect("footprint thread panicked")
}

#[test]
fn every_structure_allocates_the_block_it_is_pinned_to() {
    assert_eq!(gauge::live_nodes(), 0, "gauge starts clean");

    // A structure's fixed cost: the nodes it holds with no key in it. A
    // table's buckets are link words, so 4 096 of them share one tail
    // sentinel; a list is a head link and a tail sentinel.
    std::thread::spawn(|| {
        let smr = Hp::new(cfg());
        let table = HashMap::<Hp>::with_buckets(&smr, 4096);
        assert_eq!(gauge::live_nodes(), 1, "hashmap: 4 096 buckets hold one sentinel");
        drop(table);
        assert_eq!(gauge::live_nodes(), 0, "hashmap: its drop frees the shared tail");
        let list = LinkedList::<Hp>::new(&smr);
        assert_eq!(gauge::live_nodes(), 1, "list: one sentinel");
        drop(list);
        assert_eq!(gauge::live_nodes(), 0, "list: its drop frees the tail");
    })
    .join()
    .expect("fixed-cost thread panicked");
    assert_eq!(mp_util::pool::stats().live_blocks, 0, "a sentinel's block did not go home");

    // What one removal retires, per structure — the structure's bytes per
    // key. List and hash bucket: one node of header 16 + key 8 + link 8.
    // NM-tree: the 24-byte leaf (header 16 + key 8) and the 40-byte internal
    // node that routed to it (the same plus two child edges).
    for (name, removals, per_key) in [
        ("list", retired_per_removal::<LinkedList<Hp>>(256), (1, 32)),
        ("hashmap", retired_per_removal::<HashMap<Hp>>(256), (1, 32)),
        ("nmtree", retired_per_removal::<NmTree<Hp>>(256), (2, 24 + 40)),
    ] {
        assert!(
            removals.iter().all(|&r| r == per_key),
            "{name}: a key is no longer {per_key:?} (nodes, bytes): {removals:?}"
        );
    }

    // Skip list: header 16 + key 8 + flag 8 + 8 per level, no rounding —
    // 40 B at height 1, 48 B at 2, … 192 B at `MAX_HEIGHT` — so with heights
    // drawn at p = 1/2 a key costs Σ 2⁻ʰ·(32 + 8h) = 48.0 bytes on average.
    let table: Vec<usize> = (1..=MAX_HEIGHT).map(|h| 32 + 8 * h).collect();
    assert_eq!((table[0], table[1], table[2], table[MAX_HEIGHT - 1]), (40, 48, 56, 192));
    let removals = retired_per_removal::<SkipList<Hp>>(KEYS);
    assert!(
        removals.iter().all(|(nodes, bytes)| *nodes == 1 && table.contains(bytes)),
        "skiplist: a block outside the table"
    );
    let blocks = removals.iter().map(|&(_, bytes)| bytes);
    assert_eq!(blocks.clone().min(), Some(40), "skiplist: a one-level node is 40 bytes");
    let mean = blocks.sum::<usize>() as f64 / removals.len() as f64;
    assert!((46.0..50.0).contains(&mean), "skiplist: {mean:.1} bytes per key, expected 48.0");

    // A mixed-height list built on one thread and dropped on another: every
    // block finds its way home to the chunk of its own height class.
    let smr = Hp::new(cfg());
    let list = std::thread::scope(|s| {
        s.spawn(|| {
            let list = SkipList::<Hp>::new(&smr);
            let mut h = smr.register();
            for key in 0..KEYS {
                assert!(list.insert(&mut h, key));
            }
            list
        })
        .join()
        .expect("builder thread panicked")
    });
    std::thread::spawn(move || drop(list)).join().expect("dropping thread panicked");
    drop(smr);

    assert_eq!(gauge::live_nodes(), 0, "gauge ends clean");
    assert_eq!(mp_util::pool::stats().live_blocks, 0, "a block did not go back to its chunk");
}
