//! Footprint pins: the pool block behind every node each structure
//! allocates, measured — as the bytes a retired node holds — rather than
//! computed from a `size_of`. The benchmark's `setup_rss_anon_kb` is these
//! numbers times the prefill, so a field that crosses a 16-byte class
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
        .with_scan_watermark(1 << 20)
}

/// Inserts `keys` keys, removes them one at a time, and returns the bytes
/// held per node retired by each removal. Runs on a thread of its own.
fn retired_block_sizes<D: ConcurrentSet<Hp>>(keys: u64) -> Vec<usize> {
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
                let (nodes, bytes) = (held().0 - nodes, held().1 - bytes);
                assert!(nodes > 0, "{}: a removal retires what it unlinked", D::name());
                assert_eq!(bytes % nodes, 0, "{}: one node type per structure", D::name());
                bytes / nodes
            })
            .collect()
    })
    .join()
    .expect("footprint thread panicked")
}

#[test]
fn every_structure_allocates_the_block_it_is_pinned_to() {
    assert_eq!(gauge::live_nodes(), 0, "gauge starts clean");

    // Header 24 + key 8 + one link 8 (list, hash bucket) or two child
    // links 16 (NM-tree): the 48-byte class.
    for (name, blocks) in [
        ("list", retired_block_sizes::<LinkedList<Hp>>(256)),
        ("hashmap", retired_block_sizes::<HashMap<Hp>>(256)),
        ("nmtree", retired_block_sizes::<NmTree<Hp>>(256)),
    ] {
        assert!(blocks.iter().all(|&b| b == 48), "{name}: a node is no longer 48 bytes");
    }

    // Skip list: header 24 + key 8 + flag 8 + 8 per level — 48 B at height
    // 1, 64 B at 2 and 3, … 208 B at `MAX_HEIGHT` — so with heights drawn
    // at p = 1/2 a key costs Σ 2⁻ʰ·⌈40 + 8h⌉₁₆ = 58.7 bytes on average.
    let table: Vec<usize> = (1..=MAX_HEIGHT).map(|h| (40 + 8 * h).next_multiple_of(16)).collect();
    assert_eq!((table[0], table[1], table[2], table[MAX_HEIGHT - 1]), (48, 64, 64, 208));
    let blocks = retired_block_sizes::<SkipList<Hp>>(KEYS);
    assert!(blocks.iter().all(|b| table.contains(b)), "skiplist: a block outside the table");
    assert_eq!(blocks.iter().min(), Some(&48), "skiplist: a one-level node is 48 bytes");
    let mean = blocks.iter().sum::<usize>() as f64 / blocks.len() as f64;
    assert!((56.0..62.0).contains(&mean), "skiplist: {mean:.1} bytes per key, expected 58.7");

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
