//! Footprint checks that need the unarmed pool: the nodes a structure
//! allocates before its first key, each sentinel's block going home when
//! the structure drops, and a skip list built on one thread and dropped on
//! another returning every block to the chunk of its height class. What a
//! node holds per key is pinned once, in the root suite's `node_bytes`.
//!
//! Without the oracle only: armed, a freed block waits in the oracle's
//! quarantine, so the pool's `live_blocks` would not read 0. So this
//! binary compiles to nothing when a test build arms mp-smr's `oracle`
//! feature (`cargo test` does), and runs in the unarmed `cargo test
//! --release -p mp-smr`. One `#[test]` in this binary, and every pool
//! access on a thread that has exited before the closing checks, so the
//! process-wide gauges are exact.

#![cfg(not(feature = "oracle"))]

use mp_ds::skiplist::SLOTS_NEEDED;
use mp_ds::{ConcurrentSet, HashMap, LinkedList, SkipList};
use mp_smr::node::gauge;
use mp_smr::schemes::{Hp, Mp};
use mp_smr::{Config, Smr};

/// Keys in the cross-thread skip list: towers of every common height.
const KEYS: u64 = 4096;

fn cfg() -> Config {
    Config { max_threads: 2, slots_per_thread: SLOTS_NEEDED, ..Config::default() }
}

#[test]
fn sentinels_and_cross_thread_drops_send_every_block_home() {
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

    // A mixed-height list built on one thread and dropped on another: every
    // block finds its way home to the chunk of its own height class.
    let smr = Mp::new(cfg());
    let list = std::thread::scope(|s| {
        s.spawn(|| {
            let list = SkipList::<Mp>::new(&smr);
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
