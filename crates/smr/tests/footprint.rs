//! Footprint pins: the pool block behind every node each structure
//! allocates, under MP, HE and HP, measured — as the bytes a retired node
//! holds — rather than computed from a `size_of`, and stated in bytes per
//! key; and the nodes a structure allocates before its first key. The
//! benchmark's `setup_rss_anon_kb` is these numbers times the prefill,
//! plus one word per bucket, so a word added to a node, or a sentinel
//! added to a bucket, fails here, with the structure's name, instead of
//! surfacing as a memory regression some PRs later.
//!
//! A node carries the words its scheme reads: MP and HE judge a retired
//! node by its lifetime and stamp a birth word after its tail, HP does
//! not, so every MP or HE block is HP's plus one word.
//!
//! Without the oracle only: its canary word widens every header. So this
//! binary compiles to nothing when a test build arms mp-smr's `oracle`
//! feature (`cargo test --workspace` does), and runs in the unarmed
//! `cargo test --release -p mp-smr`. One `#[test]` in this binary, and
//! every pool access on a thread that has exited before the closing
//! checks, so the process-wide gauges are exact.

#![cfg(not(feature = "oracle"))]

use mp_ds::skiplist::{random_height, MAX_HEIGHT, SLOTS_NEEDED};
use mp_ds::{ConcurrentSet, HashMap, LinkedList, NmTree, SkipList};
use mp_smr::node::gauge;
use mp_smr::schemes::{He, Hp, Mp};
use mp_smr::{Config, Smr};

/// Enough skip-list keys for the mean tower to settle within its bracket.
const KEYS: u64 = 4096;

/// No scan before the handle drops, so retired bytes only add up.
fn cfg() -> Config {
    Config::default()
        .with_max_threads(2)
        .with_slots_per_thread(SLOTS_NEEDED)
        .with_empty_freq(1 << 20)
}

/// Inserts `keys`, removes them one at a time, and returns what each
/// removal retired: (nodes, bytes held). Runs on a thread of its own.
fn retired_per_removal<S: Smr, D: ConcurrentSet<S>>(keys: &[u64]) -> Vec<(usize, usize)> {
    let keys = keys.to_vec();
    std::thread::spawn(move || {
        let smr = S::new(cfg());
        let ds = D::new(&smr);
        let mut h = smr.register();
        for &key in &keys {
            assert!(ds.insert(&mut h, key));
        }
        let held = || (smr.retired_pending(), smr.telemetry().pending_bytes());
        keys.iter()
            .map(|&key| {
                let (nodes, bytes) = held();
                assert!(ds.remove(&mut h, key));
                (held().0 - nodes, held().1 - bytes)
            })
            .collect()
    })
    .join()
    .expect("footprint thread panicked")
}

/// Pins every structure's blocks under `S`, whose nodes end in `birth`
/// bytes of birth word (0 or 8).
fn pin<S: Smr>(birth: usize) {
    let name = std::any::type_name::<S>().rsplit("::").next().unwrap();
    // What one removal retires, per structure — the structure's bytes per
    // key. List and hash bucket: one node of header 8 + key 8 + link 8.
    // NM-tree: the leaf (header 8 + key 8) and the internal node that
    // routed to it (the same plus two child edges).
    let (list, leaf, internal) = (24 + birth, 16 + birth, 32 + birth);
    let keys: Vec<u64> = (0..256).collect();
    for (structure, removals, per_key) in [
        ("list", retired_per_removal::<S, LinkedList<S>>(&keys), (1, list)),
        ("hashmap", retired_per_removal::<S, HashMap<S>>(&keys), (1, list)),
        ("nmtree", retired_per_removal::<S, NmTree<S>>(&keys), (2, leaf + internal)),
    ] {
        assert!(
            removals.iter().all(|&r| r == per_key),
            "{name} {structure}: a key is no longer {per_key:?} (nodes, bytes): {removals:?}"
        );
    }

    // Skip list: header 8 + key 8 + 8 per level, no rounding — under HP
    // 24 B at height 1, 32 B at 2, … 176 B at `MAX_HEIGHT` — so with heights
    // drawn at p = 1/2 a key costs Σ 2⁻ʰ·(16 + 8h) = 32.0 bytes on average,
    // plus the birth word. The first key above the stream with a full
    // tower adds a height-20 node to the pins.
    let tower = |height: usize| 16 + 8 * height + birth;
    let tall = (KEYS..).find(|&key| random_height(key) == MAX_HEIGHT).unwrap();
    let keys: Vec<u64> = (0..KEYS).chain([tall]).collect();
    let removals = retired_per_removal::<S, SkipList<S>>(&keys);
    for (&key, &(nodes, bytes)) in keys.iter().zip(&removals) {
        let height = random_height(key);
        assert_eq!((nodes, bytes), (1, tower(height)), "{name} skiplist: key {key}, height {height}");
    }
    for height in [1, 2, MAX_HEIGHT] {
        assert!(keys.iter().any(|&key| random_height(key) == height), "no height-{height} key");
    }
    assert_eq!((tower(1), tower(2), tower(MAX_HEIGHT)), (24 + birth, 32 + birth, 176 + birth));
    let stream = &removals[..KEYS as usize];
    let mean = stream.iter().map(|&(_, bytes)| bytes).sum::<usize>() as f64 / KEYS as f64;
    let expected = (32 + birth) as f64;
    assert!(
        (expected - 2.0..expected + 2.0).contains(&mean),
        "{name} skiplist: {mean:.1} bytes per key, expected {expected:.1}"
    );
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

    pin::<Hp>(0);
    pin::<He>(8);
    pin::<Mp>(8);

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
