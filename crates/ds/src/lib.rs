//! # mp-ds — Nonblocking search data structures, generic over SMR
//!
//! The three client data structures the margin-pointers paper evaluates
//! (§5), each parameterized by the reclamation scheme `S: Smr`:
//!
//! * [`LinkedList`] — Michael's lock-free sorted linked list (SPAA 2002),
//!   §5.2 Listing 7: a head link (a word, not a node) and a tail sentinel.
//!   MP's search interval opens at index 0, where the paper's head
//!   sentinel sat.
//! * [`SkipList`] — Fraser's lock-free skip list (2004), §5.2.
//! * [`NmTree`] — the Natarajan–Mittal external binary search tree
//!   (PPoPP 2014), §5.3 Listings 8–9.
//! * [`DtaList`] — the list specialized for Drop-the-Anchor, providing the
//!   freezing procedure DTA's recovery requires (§3.1).
//! * [`HashMap`] — Michael's lock-free hash table (same SPAA 2002 paper as
//!   the list), a further MP client beyond the paper's three: one head link
//!   per bucket, every chain ending at one shared tail sentinel, run by
//!   the list's own operations.
//!
//! All structures implement the common [`ConcurrentSet`] interface over
//! `u64` keys. Keys must be `< MAX_KEY` (the top values are reserved for
//! sentinels). Every shared pointer access goes through the SMR handle's
//! `read`, and insert paths maintain the MP search interval via
//! `update_lower_bound` / `update_upper_bound` — so plugging in [`Mp`]
//! yields margin protection, while any other scheme works unchanged.
//!
//! [`Mp`]: mp_smr::schemes::Mp

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod dta_list;
pub mod hashmap;
pub mod list;
pub mod nmtree;
pub mod skiplist;

use std::sync::Arc;

use mp_smr::Smr;

pub use dta_list::DtaList;
pub use hashmap::HashMap;
pub use list::LinkedList;
pub use nmtree::NmTree;
pub use skiplist::SkipList;

/// Largest usable client key; larger values are reserved for sentinels
/// (list/skip-list tail `u64::MAX`, tree sentinels `∞₀ < ∞₁ < ∞₂`).
pub const MAX_KEY: u64 = u64::MAX - 3;

/// The common set interface the paper benchmarks (integer keys, §6).
///
/// Operations take the caller's SMR handle explicitly — the Rust equivalent
/// of the paper's per-thread SMR state. Handles must come from the same
/// scheme instance the structure was built with.
pub trait ConcurrentSet<S: Smr>: Send + Sync + Sized + 'static {
    /// Creates an empty set managed by `smr`.
    ///
    /// # Panics
    /// Registers one handle to allocate the structure's sentinels, so this
    /// panics if `smr`'s registry has no free slot (see [`Smr::register`]).
    fn new(smr: &Arc<S>) -> Self;

    /// Adds `key`; returns `false` if it was already present.
    fn insert(&self, handle: &mut S::Handle, key: u64) -> bool;

    /// Removes `key`; returns `false` if it was absent.
    fn remove(&self, handle: &mut S::Handle, key: u64) -> bool;

    /// Membership test.
    fn contains(&self, handle: &mut S::Handle, key: u64) -> bool;

    /// Structure name for reports ("list", "skiplist", "nmtree").
    fn name() -> &'static str;
}

/// Size of an SMR node with payload `T`, less the canary word the header
/// gains when mp-smr's oracle is compiled in. Each structure pins this for
/// its `Node` (with `V = ()`): a layout change then shows up in review
/// before it shows up in the benchmark's `setup_rss_anon_kb`.
#[cfg(test)]
fn node_bytes<T>() -> usize {
    size_of::<mp_smr::SmrNode<T>>() - canary_bytes()
}

/// The word the oracle's canary adds to every header, when compiled in.
#[cfg(test)]
fn canary_bytes() -> usize {
    let header = size_of::<mp_smr::node::Header>();
    assert!(header == 8 || header == 16, "1 word, 2 with the oracle's canary: {header}");
    header - 8
}

/// `ops` random inserts, removes and lookups on one handle, each checked
/// against a `BTreeSet`, keys drawn from `0..keys`. Returns the model's
/// keys in order, for the caller to compare with the structure's; the
/// handle is dropped by then, so a quiescent walk may follow.
#[cfg(test)]
fn model_check<S: Smr, D: ConcurrentSet<S>>(
    ds: &D,
    smr: &Arc<S>,
    keys: u64,
    ops: usize,
) -> Vec<u64> {
    use mp_util::RngExt;
    let mut h = smr.register();
    let mut model = std::collections::BTreeSet::new();
    let mut rng = mp_util::rng();
    for _ in 0..ops {
        let key = rng.random_range(0..keys);
        match rng.random_range(0..3) {
            0 => assert_eq!(ds.insert(&mut h, key), model.insert(key), "insert {key}"),
            1 => assert_eq!(ds.remove(&mut h, key), model.remove(&key), "remove {key}"),
            _ => assert_eq!(ds.contains(&mut h, key), model.contains(&key), "contains {key}"),
        }
    }
    model.into_iter().collect()
}

/// Four threads of `ops` mixed insert/remove/contains each, keys drawn from
/// `0..keys`.
#[cfg(test)]
fn stress<S: Smr, D: ConcurrentSet<S>>(ds: &D, smr: &Arc<S>, keys: u64, ops: usize) {
    use mp_util::RngExt;
    std::thread::scope(|s| {
        for t in 0..4usize {
            s.spawn(move || {
                let mut h = smr.register();
                let mut rng = mp_util::rng();
                for i in 0..ops {
                    let key = rng.random_range(0..keys);
                    match (i + t) % 3 {
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
            });
        }
    });
}

/// Bytes a retired node with payload `data` and `tail_len` links holds
/// under HP, which stamps no birth word, less the canary word: the
/// allocation that is pinned, not a `size_of`.
#[cfg(test)]
fn retired_block_bytes<T: Send + Sync>(data: T, tail_len: usize) -> usize {
    use mp_smr::SmrHandle;
    // One retire, far below any scan trigger: the gauge reads this node.
    let cfg = mp_smr::Config { max_threads: 1, ..mp_smr::Config::default() };
    let smr = <mp_smr::schemes::Hp as Smr>::new(cfg);
    let mut h = smr.register();
    let node = h.alloc_with_tail(data, None, tail_len);
    // SAFETY: [INV-12] never published, retired once.
    unsafe { h.retire(node) };
    smr.telemetry().pending_bytes() - canary_bytes()
}
