//! A linearizability checker for concurrent *set* histories.
//!
//! Worker threads record each operation's invocation/response timestamps
//! (from one global atomic counter) plus its result. Because set
//! operations on distinct keys commute, a history is linearizable iff its
//! projection onto every key is — and a single key's projection is a
//! boolean object with forced transitions:
//!
//! * successful `insert` flips absent→present, successful `remove` flips
//!   present→absent ⇒ in any linearization the successful updates form an
//!   **alternating chain** starting with an insert;
//! * every other operation is a read of the boolean state (`contains`,
//!   failed `insert` ≡ reads *present*, failed `remove` ≡ reads *absent*).
//!
//! The checker verifies:
//!
//! 1. the alternating chain exists and can be ordered consistently with
//!    real time, via earliest-deadline-first greedy selection among the
//!    updates that may come next, those no unplaced update completed
//!    before (optimal for interval orders, so chain violations reported
//!    here are genuine);
//! 2. every read's interval is consistent with the chain: a read of
//!    *present* must overlap some `[insert.invoke, remove.response]`
//!    window (or follow an unmatched final insert), and a read of *absent*
//!    must overlap some window in which the key may be absent.
//!
//! Check 2 uses generous may-overlap windows derived from the greedy
//! chain, so it can miss contrived violations a full search would catch,
//! and — only when same-kind successful updates overlap in real time — it
//! could in principle pick a chain whose windows reject a read another
//! valid chain admits. Every failure report therefore includes the raw
//! events for audit. In exchange the check is near-linear per key and
//! scales to millions of recorded operations, which exhaustive
//! linearization search cannot.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::workload::Op;

/// Global logical clock for invocation/response stamps.
static CLOCK: AtomicU64 = AtomicU64::new(0);

/// One completed operation.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Which operation ran.
    pub kind: Op,
    /// The key it targeted.
    pub key: u64,
    /// What it returned.
    pub result: bool,
    /// Logical time at invocation.
    pub invoke: u64,
    /// Logical time at response.
    pub response: u64,
}

/// Records events for one thread; merge with [`History::merge`].
#[derive(Debug, Default)]
pub struct History {
    events: Vec<Event>,
}

impl History {
    /// Creates an empty per-thread history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `op` and records it: stamps the invocation, executes, stamps
    /// the response.
    pub fn record(&mut self, kind: Op, key: u64, op: impl FnOnce() -> bool) {
        let invoke = CLOCK.fetch_add(1, Ordering::AcqRel);
        let result = op();
        let response = CLOCK.fetch_add(1, Ordering::AcqRel);
        self.events.push(Event { kind, key, result, invoke, response });
    }

    /// Merges another thread's history into this one.
    pub fn merge(&mut self, other: History) {
        self.events.extend(other.events);
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Checks the full history for set-linearizability. `prefilled` lists
    /// keys present before any recorded operation ran.
    ///
    /// Returns `Err` with a human-readable explanation of the first
    /// violation found.
    pub fn check(&self, prefilled: &[u64]) -> Result<(), String> {
        use std::collections::HashMap;
        let mut per_key: HashMap<u64, Vec<Event>> = HashMap::new();
        for e in &self.events {
            per_key.entry(e.key).or_default().push(*e);
        }
        for (key, mut events) in per_key {
            events.sort_by_key(|e| e.invoke);
            let initially_present = prefilled.contains(&key);
            check_key(key, &events, initially_present)?;
        }
        Ok(())
    }
}

/// Checks one key's projected history (see module docs).
fn check_key(key: u64, events: &[Event], initially_present: bool) -> Result<(), String> {
    // Split into successful updates (the chain) and reads.
    let mut chain: Vec<Event> = Vec::new();
    let mut reads: Vec<(Event, bool)> = Vec::new(); // (event, observed-present)
    for &e in events {
        match (e.kind, e.result) {
            (Op::Insert, true) | (Op::Remove, true) => chain.push(e),
            (Op::Insert, false) => reads.push((e, true)),
            (Op::Remove, false) => reads.push((e, false)),
            (Op::Contains, r) => reads.push((e, r)),
        }
    }

    // 1. Build the alternating chain greedily: of the updates of the
    // required kind that may come next, because nothing still unplaced
    // completed before they started, take the earliest response. The
    // horizon, the earliest unplaced response, only grows, so updates
    // become eligible once each, in invoke order (the events come sorted).
    let mut by_response: BinaryHeap<_> =
        chain.iter().enumerate().map(|(i, e)| Reverse((e.response, i))).collect();
    // Eligible inserts, then removes, earliest response first.
    let mut eligible: [BinaryHeap<Reverse<(u64, usize)>>; 2] = Default::default();
    let mut placed = vec![false; chain.len()];
    let mut admitted = 0;
    let mut ordered: Vec<Event> = Vec::with_capacity(chain.len());
    let mut expect_insert = !initially_present;
    while ordered.len() < chain.len() {
        while let Some(&Reverse((_, i))) = by_response.peek() {
            if !placed[i] {
                break;
            }
            by_response.pop();
        }
        let &Reverse((horizon, first)) = by_response.peek().expect("an update is unplaced");
        while admitted < chain.len() && chain[admitted].invoke <= horizon {
            let e = chain[admitted];
            eligible[usize::from(e.kind == Op::Remove)].push(Reverse((e.response, admitted)));
            admitted += 1;
        }
        let Some(Reverse((_, next))) = eligible[usize::from(!expect_insert)].pop() else {
            let required = if expect_insert { Op::Insert } else { Op::Remove };
            return Err(format!(
                "key {key}: the alternation needs a successful {required:?} next, but none \
                 left may come before {:?}",
                chain[first]
            ));
        };
        placed[next] = true;
        ordered.push(chain[next]);
        expect_insert = !expect_insert;
    }

    // 2. Each state's may-windows, absent then present: the key may be in
    // a state from the invocation of the update that entered it (0 at the
    // start) to the response of the update that left it (open-ended for
    // the last).
    let mut windows: [Vec<(u64, u64)>; 2] = Default::default();
    let (mut present, mut since) = (initially_present, 0);
    for e in &ordered {
        windows[usize::from(present)].push((since, e.response));
        (present, since) = (!present, e.invoke);
    }
    windows[usize::from(present)].push((since, u64::MAX));

    // 3. Every read must overlap a window of its observed state: of the
    // windows opened by its response, the one reaching furthest must
    // reach its invocation.
    let reach = windows.clone().map(|mut sorted| {
        sorted.sort_unstable();
        let mut furthest = 0;
        for w in &mut sorted {
            furthest = furthest.max(w.1);
            w.1 = furthest;
        }
        sorted
    });
    for (e, observed_present) in reads {
        let state = usize::from(observed_present);
        let opened = reach[state].partition_point(|&(lo, _)| lo <= e.response);
        if opened == 0 || reach[state][opened - 1].1 < e.invoke {
            return Err(format!(
                "key {key}: {:?} observed {} but no such state window overlaps \
                 [{}, {}] (windows: {:?})",
                e.kind,
                if observed_present { "present" } else { "absent" },
                e.invoke,
                e.response,
                windows[state]
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: Op, key: u64, result: bool, invoke: u64, response: u64) -> Event {
        Event { kind, key, result, invoke, response }
    }

    fn hist(events: Vec<Event>) -> History {
        History { events }
    }

    #[test]
    fn sequential_history_passes() {
        let h = hist(vec![
            ev(Op::Insert, 1, true, 0, 1),
            ev(Op::Contains, 1, true, 2, 3),
            ev(Op::Remove, 1, true, 4, 5),
            ev(Op::Contains, 1, false, 6, 7),
            ev(Op::Insert, 1, true, 8, 9),
        ]);
        h.check(&[]).unwrap();
    }

    #[test]
    fn double_successful_insert_fails() {
        let h = hist(vec![
            ev(Op::Insert, 1, true, 0, 1),
            ev(Op::Insert, 1, true, 2, 3), // no remove in between
        ]);
        assert!(h.check(&[]).is_err());
    }

    #[test]
    fn contains_true_before_any_insert_fails() {
        let h = hist(vec![
            ev(Op::Contains, 1, true, 0, 1),
            ev(Op::Insert, 1, true, 2, 3),
        ]);
        assert!(h.check(&[]).is_err());
    }

    #[test]
    fn prefilled_key_reads_present() {
        let h = hist(vec![
            ev(Op::Contains, 1, true, 0, 1),
            ev(Op::Remove, 1, true, 2, 3),
            ev(Op::Insert, 1, true, 4, 5),
        ]);
        h.check(&[1]).unwrap();
        // Same history without prefill is invalid.
        assert!(h.check(&[]).is_err());
    }

    #[test]
    fn overlapping_updates_resolve_by_interval_order() {
        // insert and remove overlap: either order works; the chain must
        // pick insert first (starting from absent).
        let h = hist(vec![
            ev(Op::Insert, 7, true, 0, 10),
            ev(Op::Remove, 7, true, 5, 15),
        ]);
        h.check(&[]).unwrap();
    }

    #[test]
    fn long_update_overlapping_a_later_pair_is_placed_first() {
        // The first remove spans the later insert-remove pair; it alone may
        // come first, though the later remove responds earlier.
        let h = hist(vec![
            ev(Op::Remove, 7, true, 0, 100),
            ev(Op::Contains, 7, false, 10, 11),
            ev(Op::Insert, 7, true, 20, 21),
            ev(Op::Remove, 7, true, 30, 31),
        ]);
        h.check(&[7]).unwrap();
    }

    #[test]
    fn strict_order_violation_detected() {
        // remove completes strictly before insert starts, yet alternation
        // (from absent) needs insert first — impossible.
        let h = hist(vec![
            ev(Op::Remove, 7, true, 0, 1),
            ev(Op::Insert, 7, true, 5, 6),
        ]);
        assert!(h.check(&[]).is_err());
    }

    #[test]
    fn stale_read_after_remove_fails() {
        let h = hist(vec![
            ev(Op::Insert, 3, true, 0, 1),
            ev(Op::Remove, 3, true, 2, 3),
            ev(Op::Contains, 3, true, 10, 11), // observes a ghost
        ]);
        assert!(h.check(&[]).is_err());
    }

    #[test]
    fn prefilled_key_never_removed_reading_absent_fails() {
        // A node freed while still reachable reads as a lost key.
        let h = hist(vec![ev(Op::Contains, 4, true, 0, 1), ev(Op::Contains, 4, false, 2, 3)]);
        assert!(h.check(&[4]).is_err());
    }

    #[test]
    fn absent_read_between_insert_and_later_remove_fails() {
        // The read starts after the insert completed and ends before the
        // remove starts: the key was present throughout.
        let h = hist(vec![
            ev(Op::Insert, 6, true, 0, 1),
            ev(Op::Contains, 6, false, 4, 5),
            ev(Op::Remove, 6, true, 10, 11),
        ]);
        assert!(h.check(&[]).is_err());
        // Overlapping the remove, the same read is fine.
        let h = hist(vec![
            ev(Op::Insert, 6, true, 0, 1),
            ev(Op::Contains, 6, false, 4, 12),
            ev(Op::Remove, 6, true, 10, 11),
        ]);
        h.check(&[]).unwrap();
    }

    #[test]
    fn failed_update_reads_state() {
        let h = hist(vec![
            ev(Op::Insert, 5, true, 0, 1),
            ev(Op::Insert, 5, false, 2, 3), // duplicate: observes present ✓
            ev(Op::Remove, 5, true, 4, 5),
            ev(Op::Remove, 5, false, 6, 7), // absent ✓
        ]);
        h.check(&[]).unwrap();
        let bad = hist(vec![
            ev(Op::Insert, 5, false, 0, 1), // duplicate-fail with nothing there
            ev(Op::Insert, 5, true, 4, 5),
        ]);
        assert!(bad.check(&[]).is_err());
    }

    #[test]
    fn distinct_keys_are_independent() {
        let h = hist(vec![
            ev(Op::Insert, 1, true, 0, 1),
            ev(Op::Insert, 2, true, 0, 1),
            ev(Op::Remove, 1, true, 2, 3),
            ev(Op::Contains, 2, true, 4, 5),
        ]);
        h.check(&[]).unwrap();
    }

    #[test]
    fn recorder_produces_monotone_stamps() {
        let mut h = History::new();
        h.record(Op::Insert, 9, || true);
        h.record(Op::Contains, 9, || true);
        assert_eq!(h.len(), 2);
        assert!(h.events[0].invoke < h.events[0].response);
        assert!(h.events[0].response < h.events[1].invoke);
        h.check(&[]).unwrap();
    }
}
