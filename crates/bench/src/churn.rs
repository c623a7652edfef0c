//! One recorded concurrent churn over a set, with an optional misbehaving
//! thread: the workload behind every fault row of the root test suites.
//!
//! [`Churn::run`] prefills a fresh structure ([`Churn::run_on`] one the
//! caller built), then runs each worker's
//! plan on its own thread and handle while a misbehaving thread acts out a
//! [`Fault`] and the calling thread polls the scheme's pending-waste gauge.
//! Once the workers finish and the misbehaver is released, a recovery
//! phase on a fresh handle reads every key, then inserts and removes a
//! fresh one. Every operation — the workers', the misbehaver's and the
//! recovery's — is recorded into one [`History`], so a fault that lets a
//! node be freed while still reachable, or loses one, shows as a
//! non-linearizable read after the fault as well as during it.
//!
//! Every run asserts that the history is linearizable, that operations
//! ran and that no more nodes were freed than retired; callers add only
//! their own bounds on the returned [`Outcome`].

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use mp_ds::ConcurrentSet;
use mp_smr::{Smr, SmrError, SmrHandle, Telemetry, TelemetrySnapshot};
use mp_util::{RngCore, RngExt, SeedableRng, SmallRng};

use crate::linearize::History;
use crate::workload::Op;

/// One planned operation and its key.
pub type Step = (Op, u64);

/// The recovery phase's fresh key: above every plan's key space and every
/// key a [`Fault`] touches.
const FRESH_KEY: u64 = 1 << 40;

/// Message the injected panics carry; a process-wide hook drops them.
const INJECTED_PANIC: &str = "injected mid-op fault";

/// How a worker's plan is drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Draw {
    /// `insert`, `remove` and `contains` equally likely, each on its own
    /// uniform key.
    Thirds,
    /// Updates only: `insert k` then `remove k` on one uniform key. Each
    /// pair retires a node, and the set drains to the pairs in flight.
    InsertRemove,
    /// Updates only: `remove k` then `insert k` on one uniform key. Each
    /// pair retires a node once `k` is present, and the set fills and
    /// stays full, so nodes live long and traversals stay long.
    RemoveInsert,
}

/// `len` steps over keys `0..keys`, drawn by `draw` from `rng`.
pub fn plan(rng: &mut SmallRng, draw: Draw, len: usize, keys: u64) -> Vec<Step> {
    let mut steps = Vec::with_capacity(len + 1);
    while steps.len() < len {
        let key = rng.random_range(0..keys);
        match draw {
            Draw::Thirds => {
                let op = [Op::Insert, Op::Remove, Op::Contains][rng.random_range(0..3usize)];
                steps.push((op, key));
            }
            Draw::InsertRemove => steps.extend([(Op::Insert, key), (Op::Remove, key)]),
            Draw::RemoveInsert => steps.extend([(Op::Remove, key), (Op::Insert, key)]),
        }
    }
    steps.truncate(len);
    steps
}

/// One plan of `len` steps per seed: the shape a `Checker` shrinks by
/// dropping workers.
pub fn plans(seeds: &[u64], draw: Draw, len: usize, keys: u64) -> Vec<Vec<Step>> {
    seeds.iter().map(|&seed| plan(&mut SmallRng::seed_from_u64(seed), draw, len, keys)).collect()
}

/// A `Checker` generator of one seed per worker, for [`plans`].
pub fn seeds(workers: usize) -> impl FnMut(&mut SmallRng) -> Vec<u64> {
    move |rng| (0..workers).map(|_| rng.next_u64()).collect()
}

/// How the misbehaving thread acts while the workers run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Pins an operation and takes no step until the workers finish
    /// (§1's stalled reader). The workers start once the pin is live.
    Stall,
    /// Reads every key first, so whatever protection the scheme keeps
    /// across operations stands over the whole key space, then stalls.
    ReadThenStall,
    /// Until the workers finish: reads a key, which leaves whatever
    /// protection the scheme keeps across operations standing, then opens
    /// an operation and sleeps in it for 200 µs. Stalls come and go while
    /// the announcements of the last read are still live.
    RepeatedStall,
    /// Alternates insert-remove pairs with panics that unwind out of a
    /// pinned operation, caught on its own thread.
    MidOpPanic,
    /// Runs eight insert-remove pairs, then leaks an open operation and
    /// its handle and panics: no drop runs, and the pin and the registry
    /// slot are gone for good.
    LeakedPin,
    /// Until the workers finish: takes every free registry slot, which
    /// must end in `RegistryExhausted` naming `max_threads`, drops them,
    /// and registers once more, which must succeed. Some re-registration
    /// must reuse a tid.
    RegistryExhaustion {
        /// The scheme's `Config::max_threads`.
        max_threads: usize,
    },
    /// Retires sixteen nodes, below any scan cadence, on keys above the
    /// plans', then forgets its handle: a killed thread, whose backlog
    /// stays stranded.
    KilledThread,
}

/// One churn: what is prefilled, what each worker runs, what goes wrong.
#[derive(Debug)]
pub struct Churn {
    /// Keys inserted before the workers start.
    pub prefill: Vec<u64>,
    /// The plans' key space `0..keys`, which the recovery phase reads.
    pub keys: u64,
    /// Each worker's plan, run on its own thread and handle.
    pub workers: Vec<Vec<Step>>,
    /// The misbehaving thread, if any.
    pub fault: Option<Fault>,
}

/// What a [`Churn::run`] observed.
#[derive(Debug)]
pub struct Outcome {
    /// Operations the linearizable history recorded, from the workers, the
    /// misbehaver and the recovery, each on a handle `stats` merges.
    pub recorded: usize,
    /// Telemetry merged over every handle that ran an operation: the
    /// prefill's, the workers', the misbehaver's (its last snapshot, when
    /// it forgets its handle, and those of its re-registrations) and the
    /// recovery's. Orphan adoption moves retired nodes between handles,
    /// but every free is some merged handle's retire.
    pub stats: TelemetrySnapshot,
    /// The most retired nodes pending at once, polled every millisecond
    /// while the workers ran.
    pub peak_pending: usize,
    /// Retired nodes pending once the workers finished, their handles
    /// dropped, and before the misbehaver was released.
    pub pending_at_release: usize,
    /// Operations the misbehaver recorded; under [`Fault::RepeatedStall`]
    /// each is followed by one stall, so this counts its stalls.
    pub misbehaver_ops: usize,
}

impl Churn {
    /// Runs the churn on a fresh `D` over `smr`, as the module docs
    /// describe, and checks it.
    ///
    /// # Panics
    ///
    /// Re-raises a worker's or the misbehaver's panic, such as an oracle
    /// report. Panics if the history is not linearizable, if no operation
    /// ran, or if more nodes were freed than retired.
    pub fn run<S: Smr, D: ConcurrentSet<S>>(&self, smr: &Arc<S>) -> Outcome {
        self.run_on(smr, &D::new(smr), &[])
    }

    /// Runs the churn on `ds`, which holds exactly the keys `present` when
    /// the call starts, for a caller that runs churns back to back on one
    /// structure. `stats` covers this call's handles only.
    ///
    /// # Panics
    ///
    /// As [`Churn::run`], and if a prefill key is already present.
    pub fn run_on<S: Smr, D: ConcurrentSet<S>>(
        &self,
        smr: &Arc<S>,
        ds: &D,
        present: &[u64],
    ) -> Outcome {
        let mut history = History::new();
        let mut stats = TelemetrySnapshot::default();
        {
            let mut h = smr.register();
            for &key in &self.prefill {
                assert!(ds.insert(&mut h, key), "prefill key {key} already present");
            }
            stats.merge(&h.snapshot());
        }
        if matches!(self.fault, Some(Fault::MidOpPanic | Fault::LeakedPin)) {
            silence_injected_panics();
        }

        let done = AtomicBool::new(false);
        // The workers, the misbehaver if any, and the poller.
        let start = Barrier::new(self.workers.len() + usize::from(self.fault.is_some()) + 1);
        let (mut peak_pending, mut pending_at_release) = (0, 0);
        let mut results = Vec::new();
        std::thread::scope(|s| {
            let (start, done) = (&start, &done);
            let workers: Vec<_> = self
                .workers
                .iter()
                .map(|plan| {
                    s.spawn(move || {
                        let mut h = smr.register();
                        let mut hist = History::new();
                        start.wait();
                        for &step in plan {
                            apply(ds, &mut h, &mut hist, step);
                        }
                        (hist, h.snapshot())
                    })
                })
                .collect();
            let misbehaver = self
                .fault
                .map(|fault| s.spawn(move || misbehave(fault, smr, ds, self.keys, start, done)));
            start.wait();
            // A worker that panics counts as finished, so the misbehaver
            // is released before the scope raises the panic.
            while !workers.iter().all(|w| w.is_finished()) {
                peak_pending = peak_pending.max(smr.retired_pending());
                std::thread::sleep(Duration::from_millis(1));
            }
            pending_at_release = smr.retired_pending();
            peak_pending = peak_pending.max(pending_at_release);
            done.store(true, Ordering::Release);
            results.extend(workers.into_iter().map(|w| w.join()));
            results.extend(misbehaver.map(|m| m.join()));
        });
        for result in results {
            let (hist, snapshot) = result.unwrap_or_else(|p| panic::resume_unwind(p));
            history.merge(hist);
            stats.merge(&snapshot);
        }
        // The workers recorded every step of their plans.
        let misbehaver_ops = history.len() - self.workers.iter().map(Vec::len).sum::<usize>();

        let mut h = smr.register();
        for key in 0..self.keys {
            apply(ds, &mut h, &mut history, (Op::Contains, key));
        }
        apply(ds, &mut h, &mut history, (Op::Insert, FRESH_KEY));
        apply(ds, &mut h, &mut history, (Op::Remove, FRESH_KEY));
        stats.merge(&h.snapshot());

        let run = format!("{} / {} / {:?}", S::name(), D::name(), self.fault);
        assert!(stats.ops() > 0, "{run}: no operations ran");
        assert!(
            stats.retires() >= stats.frees(),
            "{run}: freed more nodes ({}) than were ever retired ({})",
            stats.frees(),
            stats.retires()
        );
        let initial: Vec<u64> = present.iter().chain(&self.prefill).copied().collect();
        if let Err(e) = history.check(&initial) {
            panic!("{run}: non-linearizable history: {e}");
        }
        Outcome {
            recorded: history.len(),
            stats,
            peak_pending,
            pending_at_release,
            misbehaver_ops,
        }
    }
}

/// Runs `step` on `ds` through `h`, recording it in `hist`.
fn apply<S: Smr, D: ConcurrentSet<S>>(ds: &D, h: &mut S::Handle, hist: &mut History, step: Step) {
    let (op, key) = step;
    hist.record(op, key, || match op {
        Op::Insert => ds.insert(h, key),
        Op::Remove => ds.remove(h, key),
        Op::Contains => ds.contains(h, key),
    });
}

/// The misbehaving thread: acts out `fault` and returns what it recorded
/// and its handle's last telemetry.
fn misbehave<S: Smr, D: ConcurrentSet<S>>(
    fault: Fault,
    smr: &Arc<S>,
    ds: &D,
    keys: u64,
    start: &Barrier,
    done: &AtomicBool,
) -> (History, TelemetrySnapshot) {
    let (mut hist, mut h) = (History::new(), smr.register());
    let pair = |h: &mut S::Handle, hist: &mut History, key| {
        apply(ds, h, hist, (Op::Insert, key));
        apply(ds, h, hist, (Op::Remove, key));
    };
    let running = || !done.load(Ordering::Acquire);
    let stats = match fault {
        Fault::Stall | Fault::ReadThenStall => {
            for key in (0..keys).filter(|_| fault == Fault::ReadThenStall) {
                apply(ds, &mut h, &mut hist, (Op::Contains, key));
            }
            let op = h.pin();
            start.wait();
            while running() {
                std::thread::yield_now();
            }
            drop(op);
            h.snapshot()
        }
        Fault::RepeatedStall => {
            start.wait();
            let mut key = 0;
            while running() {
                key = (key * 31 + 7) % keys;
                apply(ds, &mut h, &mut hist, (Op::Contains, key));
                let _op = h.pin();
                std::thread::sleep(Duration::from_micros(200));
            }
            h.snapshot()
        }
        Fault::MidOpPanic => {
            start.wait();
            let mut key = 1;
            while running() {
                // Real operations keep protections and retires live around
                // the fault, which unwinds out of a pinned operation.
                for _ in 0..4 {
                    key = (key * 31 + 7) % keys;
                    pair(&mut h, &mut hist, key);
                }
                let unwound = panic::catch_unwind(AssertUnwindSafe(|| {
                    let _op = h.pin();
                    panic!("{INJECTED_PANIC}");
                }));
                assert!(unwound.is_err(), "injected panic must unwind");
            }
            h.snapshot()
        }
        Fault::LeakedPin => {
            start.wait();
            for key in 0..8 {
                pair(&mut h, &mut hist, key % keys);
            }
            let stats = h.snapshot();
            let unwound = panic::catch_unwind(AssertUnwindSafe(move || {
                let op = h.pin();
                #[allow(
                    clippy::mem_forget,
                    reason = "the fault under test is the leak: an op guard that never runs its drop"
                )]
                std::mem::forget(op);
                #[allow(clippy::mem_forget, reason = "the handle's slot is gone for good")]
                std::mem::forget(h);
                panic!("{INJECTED_PANIC}");
            }));
            assert!(unwound.is_err(), "injected panic must unwind");
            stats
        }
        Fault::RegistryExhaustion { max_threads } => {
            start.wait();
            let (mut recycled, mut stats) = (false, h.snapshot());
            while running() {
                let mut extras = Vec::new();
                loop {
                    match smr.try_register() {
                        Ok(extra) => extras.push(extra),
                        Err(SmrError::RegistryExhausted { max_threads: m }) => {
                            assert_eq!(m, max_threads, "exhaustion names the wrong limit");
                            break;
                        }
                        Err(e) => panic!("unexpected register error: {e}"),
                    }
                }
                drop(extras);
                let mut again = smr.try_register().expect("a slot must free up after drops");
                recycled |= again.snapshot().tid_recycles() >= 1;
                apply(ds, &mut again, &mut hist, (Op::Contains, 1 % keys));
                stats.merge(&again.snapshot());
            }
            assert!(recycled, "no re-registration reused a tid");
            stats
        }
        Fault::KilledThread => {
            start.wait();
            for key in keys..keys + 16 {
                pair(&mut h, &mut hist, key);
            }
            let stats = h.snapshot();
            #[allow(
                clippy::mem_forget,
                reason = "a killed thread: the handle's drop (drain and orphan park) must never run"
            )]
            std::mem::forget(h);
            stats
        }
    };
    (hist, stats)
}

/// Installs, once per process, a panic hook that drops the injected
/// panics: they fire on every round of a [`Fault::MidOpPanic`] and would
/// flood stderr, since the test harness does not capture spawned threads'
/// output. Every other panic still reaches the previous hook.
fn silence_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !info.payload_as_str().is_some_and(|m| m.contains(INJECTED_PANIC)) {
                prev(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_seeded_and_drawn_as_asked() {
        let thirds = plans(&[7, 7], Draw::Thirds, 300, 10);
        assert_eq!(thirds[0], thirds[1], "one seed, one plan");
        assert!(thirds[0].iter().all(|&(_, k)| k < 10), "keys stay in 0..keys");
        for op in [Op::Insert, Op::Remove, Op::Contains] {
            assert!(thirds[0].iter().any(|&(o, _)| o == op), "{op:?} never drawn");
        }
        for (draw, first, second) in [
            (Draw::InsertRemove, Op::Insert, Op::Remove),
            (Draw::RemoveInsert, Op::Remove, Op::Insert),
        ] {
            let pairs = plans(&[7], draw, 10, 10).remove(0);
            assert!(pairs.chunks(2).all(|p| p[0] == (first, p[1].1) && p[1].0 == second));
        }
    }
}
