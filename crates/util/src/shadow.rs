//! A sharded shadow table: a concurrent map from 64-bit keys (typically
//! addresses) to small per-object state records, with atomic check-and-set
//! transitions.
//!
//! This is the generic substrate of `mp-smr`'s reclamation oracle: the SMR
//! crate keys the table by node address and encodes its lifecycle state
//! machine (Allocated → Retired, the entry removed on free) in
//! [`ShadowSlot::state`], using
//! [`ShadowSlot::tag`] as a birth-epoch incarnation stamp so reuses of the
//! same address after a real free are distinguishable from the original
//! allocation. The table itself knows nothing about SMR: it only offers
//! linearizable per-key transitions whose rejection reasons propagate back
//! to the caller as strings.
//!
//! Sharded by a multiplicative hash of the key so concurrent transitions on
//! different keys rarely contend; a transition holds exactly one shard lock
//! for the duration of the caller's closure.

use std::collections::HashMap;
use std::sync::Mutex;

/// One tracked object's shadow record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShadowSlot {
    /// Client-defined state-machine value.
    pub state: u8,
    /// Client-defined incarnation tag (e.g. a birth-epoch stamp), used to
    /// tell apart successive objects that reuse the same key.
    pub tag: u64,
}

/// Outcome of a transition closure: the slot's next value (`None` removes
/// the entry), or a rejection message describing the violated invariant.
pub type ShadowVerdict = Result<Option<ShadowSlot>, String>;

/// A sharded key → [`ShadowSlot`] map with atomic per-key transitions.
pub struct ShadowTable {
    shards: Box<[Mutex<HashMap<u64, ShadowSlot>>]>,
    mask: u64,
}

impl ShadowTable {
    /// Creates a table with the default shard count (64).
    pub fn new() -> Self {
        Self::with_shards(64)
    }

    /// Creates a table with `n` shards (rounded up to a power of two).
    pub fn with_shards(n: usize) -> Self {
        let n = n.max(1).next_power_of_two();
        let shards: Vec<_> = (0..n).map(|_| Mutex::new(HashMap::new())).collect();
        ShadowTable { shards: shards.into_boxed_slice(), mask: n as u64 - 1 }
    }

    fn shard(&self, key: u64) -> &Mutex<HashMap<u64, ShadowSlot>> {
        // Fibonacci multiplicative hash: keys are usually addresses, whose
        // low bits are alignment zeros — mix the high bits down.
        let h = key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32;
        &self.shards[(h & self.mask) as usize]
    }

    /// Atomically applies `apply` to the slot under `key`.
    ///
    /// The closure sees the current slot (or `None` if the key is
    /// untracked) and returns the next slot (`None` removes the entry) or
    /// an error explaining why the transition is illegal. The closure runs
    /// under the shard lock; callers should keep it small and must not
    /// touch the table reentrantly. A panicking sibling thread cannot wedge
    /// the table: poisoned shard locks are recovered, since the map itself
    /// is always left structurally intact.
    pub fn transition(
        &self,
        key: u64,
        apply: impl FnOnce(Option<ShadowSlot>) -> ShadowVerdict,
    ) -> Result<(), String> {
        let mut map = self.shard(key).lock().unwrap_or_else(|p| p.into_inner());
        let current = map.get(&key).copied();
        match apply(current) {
            Ok(Some(next)) => {
                map.insert(key, next);
                Ok(())
            }
            Ok(None) => {
                map.remove(&key);
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// The current slot under `key`, if tracked.
    pub fn get(&self, key: u64) -> Option<ShadowSlot> {
        self.shard(key).lock().unwrap_or_else(|p| p.into_inner()).get(&key).copied()
    }

    /// Number of tracked keys (sums all shards; O(shards)).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|p| p.into_inner()).len())
            .sum()
    }

    /// True if no key is tracked.
    pub fn is_empty(&self) -> bool {
        self.shards
            .iter()
            .all(|s| s.lock().unwrap_or_else(|p| p.into_inner()).is_empty())
    }
}

impl Default for ShadowTable {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_update_remove_roundtrip() {
        let t = ShadowTable::new();
        assert!(t.is_empty());
        t.transition(0x1000, |cur| {
            assert_eq!(cur, None);
            Ok(Some(ShadowSlot { state: 0, tag: 7 }))
        })
        .unwrap();
        assert_eq!(t.get(0x1000), Some(ShadowSlot { state: 0, tag: 7 }));
        assert_eq!(t.len(), 1);
        t.transition(0x1000, |cur| {
            let cur = cur.expect("tracked");
            Ok(Some(ShadowSlot { state: 1, ..cur }))
        })
        .unwrap();
        assert_eq!(t.get(0x1000).unwrap().state, 1);
        t.transition(0x1000, |_| Ok(None)).unwrap();
        assert!(t.is_empty());
    }

    #[test]
    fn rejected_transition_leaves_slot_untouched() {
        let t = ShadowTable::new();
        t.transition(5, |_| Ok(Some(ShadowSlot { state: 2, tag: 1 }))).unwrap();
        let err = t
            .transition(5, |cur| {
                assert_eq!(cur.unwrap().state, 2);
                Err("illegal".to_string())
            })
            .unwrap_err();
        assert_eq!(err, "illegal");
        assert_eq!(t.get(5), Some(ShadowSlot { state: 2, tag: 1 }));
    }

    #[test]
    fn keys_with_shared_low_bits_spread_over_shards() {
        // Addresses are 16-byte aligned in practice; the shard hash must not
        // send them all to shard 0.
        let t = ShadowTable::with_shards(8);
        for i in 0..64u64 {
            t.transition(i << 4, |_| Ok(Some(ShadowSlot { state: 0, tag: i }))).unwrap();
        }
        assert_eq!(t.len(), 64);
        let used = t
            .shards
            .iter()
            .filter(|s| !s.lock().unwrap().is_empty())
            .count();
        assert!(used > 1, "all 64 keys landed in one shard");
    }

    #[test]
    fn concurrent_transitions_are_atomic_per_key() {
        let t = std::sync::Arc::new(ShadowTable::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let t = t.clone();
                s.spawn(move || {
                    for k in 0..256u64 {
                        t.transition(k, |cur| {
                            let tag = cur.map_or(0, |c| c.tag) + 1;
                            Ok(Some(ShadowSlot { state: 0, tag }))
                        })
                        .unwrap();
                    }
                });
            }
        });
        for k in 0..256 {
            assert_eq!(t.get(k).unwrap().tag, 4, "lost update on key {k}");
        }
    }
}
