//! Michael's lock-free hash table (SPAA 2002 — the same paper as the
//! list): a fixed array of bucket head links.
//!
//! This is the "hash tables" half of the paper the linked list came from,
//! and a natural MP client beyond the three structures the paper
//! evaluates. As in Michael's table, a bucket is one link word: the head
//! of a sorted chain run by the list's own operations. Every chain ends at
//! one tail sentinel the whole table shares, so a table's fixed cost is one
//! word per bucket plus one node, allocated with the one handle
//! [`with_buckets`](HashMap::with_buckets) registers. MP's search interval
//! and midpoint index assignment apply per chain unchanged: the interval
//! opens at 0 in every bucket, and the shared tail keeps `MAX_INDEX`. One
//! SMR scheme instance protects all buckets — margins/hazards are
//! index/address based and bucket-agnostic.
//!
//! The table is not resizable (Michael's original; resizing lock-free hash
//! tables is a separate line of work). Pick `buckets` for the expected
//! load; performance degrades gracefully to the list's O(n/buckets).

use std::sync::Arc;

use mp_smr::{Atomic, Shared, Smr};

use crate::list::{self, Node};
use crate::ConcurrentSet;

/// Fibonacci multiplicative hash: spreads sequential keys uniformly.
#[inline]
fn bucket_of(key: u64, buckets: usize) -> usize {
    (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize % buckets
}

/// Michael's lock-free hash set/map over list buckets.
///
/// ```
/// use mp_smr::{Config, Smr, schemes::Mp};
/// use mp_ds::{ConcurrentSet, HashMap};
///
/// let smr = Mp::new(Config::default());
/// let map = HashMap::<Mp, u64>::with_buckets(&smr, 64);
/// let mut h = smr.register();
/// assert!(map.insert_kv(&mut h, 7, 49));
/// assert_eq!(map.get(&mut h, 7), Some(49));
/// assert!(map.remove(&mut h, 7));
/// ```
pub struct HashMap<S: Smr, V = ()> {
    /// One head link per bucket.
    heads: Box<[Atomic<Node<V>>]>,
    /// The tail sentinel every bucket's chain ends at; never removed.
    tail: Shared<Node<V>>,
    smr: Arc<S>,
}

// SAFETY: [INV-07] all node access goes through `Shared`/`Atomic` words under
// an SMR handle, and the payload type is required `Send + Sync`.
unsafe impl<S: Smr, V: Send + Sync> Send for HashMap<S, V> {}
// SAFETY: [INV-07] see above.
unsafe impl<S: Smr, V: Send + Sync> Sync for HashMap<S, V> {}

/// Default bucket count used by [`ConcurrentSet::new`].
pub const DEFAULT_BUCKETS: usize = 256;

impl<S: Smr, V: Send + Sync + Default + 'static> HashMap<S, V> {
    /// Creates a table with `buckets` empty buckets, all managed by `smr`.
    ///
    /// # Panics
    /// If `buckets` is 0, or if `smr`'s registry has no free slot for the
    /// one handle that allocates the shared tail sentinel.
    pub fn with_buckets(smr: &Arc<S>, buckets: usize) -> Self {
        assert!(buckets > 0);
        let tail = list::new_tail(smr);
        HashMap {
            heads: (0..buckets).map(|_| Atomic::new(tail)).collect(),
            tail,
            smr: smr.clone(),
        }
    }

    #[inline]
    fn head(&self, key: u64) -> &Atomic<Node<V>> {
        &self.heads[bucket_of(key, self.heads.len())]
    }

    /// Adds `key` mapped to `value`; returns `false` if present.
    pub fn insert_kv(&self, h: &mut S::Handle, key: u64, value: V) -> bool {
        list::insert(self.head(key), h, key, value)
    }

    /// Returns a copy of the value stored under `key`, if present.
    pub fn get(&self, h: &mut S::Handle, key: u64) -> Option<V>
    where
        V: Clone,
    {
        list::get(self.head(key), h, key)
    }

    /// Number of elements (test helper; not linearizable).
    pub fn len(&self, h: &mut S::Handle) -> usize {
        self.heads.iter().map(|head| list::collect(head, h).len()).sum()
    }

    /// True if no element is present (test helper).
    pub fn is_empty(&self, h: &mut S::Handle) -> bool {
        self.heads.iter().all(|head| list::is_empty(head, h))
    }

    /// Collects all keys in ascending order (test helper).
    pub fn collect(&self, h: &mut S::Handle) -> Vec<u64> {
        let mut out: Vec<u64> = self.heads.iter().flat_map(|head| list::collect(head, h)).collect();
        out.sort_unstable();
        out
    }
}

impl<S: Smr, V: Send + Sync + Default + 'static> ConcurrentSet<S> for HashMap<S, V> {
    fn new(smr: &Arc<S>) -> Self {
        Self::with_buckets(smr, DEFAULT_BUCKETS)
    }

    fn insert(&self, h: &mut S::Handle, key: u64) -> bool {
        list::insert(self.head(key), h, key, V::default())
    }

    fn remove(&self, h: &mut S::Handle, key: u64) -> bool {
        list::remove(self.head(key), h, key)
    }

    fn contains(&self, h: &mut S::Handle, key: u64) -> bool {
        list::contains(self.head(key), h, key)
    }

    fn name() -> &'static str {
        "hashmap"
    }
}

impl<S: Smr, V> Drop for HashMap<S, V> {
    fn drop(&mut self) {
        // SAFETY: [INV-03] `&mut self` in drop: no handle can still hold a
        // protected reference. Every chain ends at the shared tail, which is
        // freed once, after the last chain.
        unsafe {
            for head in self.heads.iter() {
                list::drop_chain(head, self.tail);
            }
            self.tail.drop_owned();
        }
        let _ = &self.smr; // scheme owned at least as long as its nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_smr::schemes::{Ebr, He, Hp, Ibr, Mp};
    use mp_smr::{AnySmr, Config};

    fn cfg() -> Config {
        Config::default().with_max_threads(8).with_empty_freq(4).with_epoch_freq(8)
    }

    fn smoke<S: Smr>() {
        let smr = S::new(cfg());
        let map: HashMap<S> = HashMap::with_buckets(&smr, 16);
        let mut h = smr.register();
        assert!(map.is_empty(&mut h));
        for k in 0..200u64 {
            assert!(map.insert(&mut h, k), "insert {k}");
        }
        assert!(!map.insert(&mut h, 100));
        assert_eq!(map.len(&mut h), 200);
        for k in 0..200u64 {
            assert!(map.contains(&mut h, k));
        }
        assert!(!map.contains(&mut h, 200));
        for k in (0..200u64).step_by(2) {
            assert!(map.remove(&mut h, k));
        }
        assert_eq!(map.collect(&mut h), (1..200u64).step_by(2).collect::<Vec<_>>());
    }

    #[test]
    fn smoke_multiple_schemes() {
        smoke::<Mp>();
        smoke::<Hp>();
        smoke::<Ebr>();
    }

    #[test]
    fn kv_roundtrip() {
        let smr = Mp::new(cfg());
        let map: HashMap<Mp, String> = HashMap::with_buckets(&smr, 8);
        let mut h = smr.register();
        assert!(map.insert_kv(&mut h, 1, "a".into()));
        assert!(map.insert_kv(&mut h, 9, "b".into())); // may share bucket with 1
        assert_eq!(map.get(&mut h, 1).as_deref(), Some("a"));
        assert_eq!(map.get(&mut h, 9).as_deref(), Some("b"));
        assert_eq!(map.get(&mut h, 17), None);
    }

    #[test]
    fn bucket_distribution_is_uniformish() {
        let mut counts = vec![0usize; 64];
        for k in 0..64_000u64 {
            counts[bucket_of(k, 64)] += 1;
        }
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(*max < 2 * *min, "sequential keys must spread: min {min} max {max}");
    }

    /// Bucket counts for the tests below: at 1 and 2 buckets most splices
    /// and front inserts CAS a table slot rather than a node's link.
    const BUCKETS: [usize; 3] = [32, 1, 2];

    #[test]
    fn sequential_model_check() {
        for buckets in BUCKETS {
            let smr = Mp::new(cfg());
            let map: HashMap<Mp> = HashMap::with_buckets(&smr, buckets);
            let model = crate::model_check(&map, &smr, 256, 4000);
            assert_eq!(map.collect(&mut smr.register()), model);
        }
    }

    fn stress_table<S: Smr>(buckets: usize) {
        let smr = S::new(cfg());
        let map: HashMap<S> = HashMap::with_buckets(&smr, buckets);
        crate::stress(&map, &smr, 128, 2500);
        let mut h = smr.register();
        let keys = map.collect(&mut h);
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "{buckets} buckets: duplicate key");
        let mut per_bucket = vec![0; buckets];
        for &key in &keys {
            per_bucket[bucket_of(key, buckets)] += 1;
        }
        let chains: Vec<usize> =
            map.heads.iter().map(|head| list::collect(head, &mut h).len()).collect();
        assert_eq!(chains, per_bucket, "{buckets} buckets: a key in the wrong chain");
    }

    #[test]
    fn concurrent_stress() {
        for buckets in BUCKETS {
            stress_table::<Mp>(buckets);
            stress_table::<Hp>(buckets);
            stress_table::<He>(buckets);
            stress_table::<Ebr>(buckets);
            stress_table::<Ibr>(buckets);
            // MP again, through the runtime-selected facade.
            stress_table::<AnySmr>(buckets);
        }
    }

    #[test]
    fn drop_frees_every_chain_and_the_shared_tail_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // Every `Counted` drop counts, the tail's default value included.
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        #[derive(Default)]
        struct Counted;
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        const KEYS: u64 = 64;
        {
            let smr = Mp::new(cfg());
            let map: HashMap<Mp, Counted> = HashMap::with_buckets(&smr, 4);
            let mut h = smr.register();
            for key in 0..KEYS {
                assert!(map.insert_kv(&mut h, key, Counted));
            }
            assert!((0..4).all(|b| (0..KEYS).any(|k| bucket_of(k, 4) == b)), "a bucket is empty");
            // Removed nodes go through retire and the scheme; linked ones
            // through the table's drop.
            for key in (0..KEYS).step_by(3) {
                assert!(map.remove(&mut h, key));
            }
        } // handle, map and scheme dropped: every node reclaimed
        assert_eq!(
            DROPS.load(Ordering::Relaxed),
            KEYS as usize + 1,
            "each value once, and the shared tail's once"
        );
    }
}
