//! The paper's Table 1 in bytes, held by tier-1: what one removal retires
//! on the list, the hash map, the NM-tree and the skip list under HP, HE
//! and MP, measured as the bytes a retired node holds rather than computed
//! from a `size_of`, less the oracle's canary word. The benchmark's
//! `setup_rss_anon_kb` is these numbers times the prefill, plus one word
//! per bucket, so a word added to any node fails here, with the
//! structure's name, instead of surfacing as a memory regression later.
//!
//! This suite is the one place these bytes are pinned. It runs where
//! `cargo test` does, armed, so every header carries one canary word on
//! top of what a release build's nodes hold; the release stage's
//! `crates/smr/tests/footprint.rs` keeps only what needs the unarmed pool.
//!
//! A node carries the words its scheme reads. HP reads an index and HE a
//! birth epoch, each held in the header's stamp, so their nodes are the
//! same size; MP reads both and adds a birth word after the tail.

use margin_pointers::ds::skiplist::{random_height, MAX_HEIGHT, SLOTS_NEEDED};
use margin_pointers::ds::{ConcurrentSet, HashMap, LinkedList, NmTree, SkipList};
use margin_pointers::smr::node::Header;
use margin_pointers::smr::schemes::{He, Hp, Mp};
use margin_pointers::smr::{Config, Smr};

/// The oracle's canary: one word on every header of an armed build.
const CANARY: usize = 8;

/// Enough skip-list keys for the mean tower to settle within its bracket.
const KEYS: u64 = 4096;

/// Inserts `keys`, then removes them one at a time, and returns what each
/// removal retired: (nodes, bytes held less the canary words).
fn retired_per_removal<S: Smr, D: ConcurrentSet<S>>(keys: &[u64]) -> Vec<(usize, usize)> {
    assert_eq!(size_of::<Header>(), 8 + CANARY, "the root test build arms the oracle");
    // No scan before the handle drops, so retired bytes only add up.
    let cfg = Config {
        max_threads: 1,
        slots_per_thread: SLOTS_NEEDED,
        empty_freq: 1 << 20,
        ..Config::default()
    };
    let smr = S::new(cfg);
    let ds = D::new(&smr);
    let mut h = smr.register();
    for &key in keys {
        assert!(ds.insert(&mut h, key));
    }
    let held = || (smr.retired_pending(), smr.telemetry().pending_bytes());
    keys.iter()
        .map(|&key| {
            let (nodes, bytes) = held();
            assert!(ds.remove(&mut h, key));
            let nodes = held().0 - nodes;
            (nodes, held().1 - bytes - nodes * CANARY)
        })
        .collect()
}

/// Checks every removal under `S`, whose nodes end in `birth` bytes of
/// birth word (0 or 8).
fn check<S: Smr>(birth: usize) {
    let name = S::name();
    // List and hash bucket: header 8 + key 8 + link 8. NM-tree: the leaf
    // (header 8 + key 8) and the internal node that routed to it (the same
    // plus two edges).
    let keys: Vec<u64> = (0..128).collect();
    for (structure, removals, per_key) in [
        ("list", retired_per_removal::<S, LinkedList<S>>(&keys), (1, 24 + birth)),
        ("hashmap", retired_per_removal::<S, HashMap<S>>(&keys), (1, 24 + birth)),
        ("nmtree", retired_per_removal::<S, NmTree<S>>(&keys), (2, 16 + 32 + 2 * birth)),
    ] {
        let wrong: Vec<_> = removals.iter().filter(|&&r| r != per_key).collect();
        let shown = format!("{name} {structure}: a key is not {per_key:?} (nodes, bytes)");
        assert!(wrong.is_empty(), "{shown}: {wrong:?}");
    }

    // Skip list: header 8 + key 8 + 8 per level, no rounding — 24 B at
    // height 1, 32 B at 2, … 96 B at `MAX_HEIGHT`, plus the birth word. The
    // first key with a full tower joins the stream.
    let tall = (KEYS..).find(|&key| random_height(key) == MAX_HEIGHT).unwrap();
    let keys: Vec<u64> = (0..KEYS).chain([tall]).collect();
    let removals = retired_per_removal::<S, SkipList<S>>(&keys);
    for (&key, &removal) in keys.iter().zip(&removals) {
        let height = random_height(key);
        let shown = format!("{name} skiplist: key {key}, height {height}");
        assert_eq!(removal, (1, 16 + 8 * height + birth), "{shown}");
    }
    for height in [1, 2, MAX_HEIGHT] {
        assert!(keys.iter().any(|&key| random_height(key) == height), "no height-{height} key");
    }
    // With heights drawn at p = 1/4 a key costs Σ 3·4⁻ʰ·(16 + 8h) = 26.67
    // bytes on average, plus the birth word.
    let stream = &removals[..KEYS as usize];
    let mean = stream.iter().map(|&(_, bytes)| bytes).sum::<usize>() as f64 / KEYS as f64;
    let expected = 16.0 + 8.0 * 4.0 / 3.0 + birth as f64;
    assert!(
        (expected - 2.0..expected + 2.0).contains(&mean),
        "{name} skiplist: {mean:.1} bytes per key, expected {expected:.1}"
    );
}

#[test]
fn hp_nodes_hold_an_index_and_no_birth() {
    check::<Hp>(0);
}

#[test]
fn he_nodes_are_hp_sized_with_the_birth_in_the_stamp() {
    check::<He>(0);
}

#[test]
fn mp_nodes_alone_add_a_birth_word() {
    check::<Mp>(8);
}
