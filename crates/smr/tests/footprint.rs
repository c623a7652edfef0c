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
//! access on a thread that has exited before each check, so the pool's
//! chunk walk (`live_blocks`) counts exactly the nodes still allocated.

#![cfg(not(feature = "oracle"))]

use mp_ds::skiplist::SLOTS_NEEDED;
use mp_ds::{ConcurrentSet, HashMap, LinkedList, SkipList};
use mp_smr::schemes::{Hp, Mp};
use mp_smr::{Config, Smr};
use mp_util::pool;

/// Keys in the cross-thread skip list: towers of every common height.
const KEYS: u64 = 4096;

fn cfg() -> Config {
    Config { max_threads: 2, slots_per_thread: SLOTS_NEEDED, ..Config::default() }
}

/// Runs `f` on a thread of its own and returns once that thread exited, so
/// its magazine went home and `live_blocks` counts what `f` left allocated.
fn on_a_thread<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
    std::thread::spawn(f).join().expect("a worker thread panicked")
}

#[test]
fn sentinels_and_cross_thread_drops_send_every_block_home() {
    assert_eq!(pool::stats().live_blocks, 0, "the pool starts empty");

    // A structure's fixed cost: the nodes it holds with no key in it. A
    // table's buckets are link words, so 4 096 of them share one tail
    // sentinel; a list is a head link and a tail sentinel.
    let smr = Hp::new(cfg());
    let table = on_a_thread({
        let smr = smr.clone();
        move || HashMap::<Hp>::with_buckets(&smr, 4096)
    });
    assert_eq!(pool::stats().live_blocks, 1, "hashmap: 4 096 buckets hold one sentinel");
    on_a_thread(move || drop(table));
    assert_eq!(pool::stats().live_blocks, 0, "hashmap: its drop frees the shared tail");
    let list = on_a_thread({
        let smr = smr.clone();
        move || LinkedList::<Hp>::new(&smr)
    });
    assert_eq!(pool::stats().live_blocks, 1, "list: one sentinel");
    on_a_thread(move || drop(list));
    assert_eq!(pool::stats().live_blocks, 0, "list: its drop frees the tail");
    drop(smr);

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
    on_a_thread(move || drop(list));
    drop(smr);

    assert_eq!(pool::stats().live_blocks, 0, "a block did not go back to its chunk");
}
