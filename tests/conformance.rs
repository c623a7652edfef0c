//! Conformance matrix: every SMR scheme on every structure it supports,
//! run under fault injection.
//!
//! Each combo runs seeded random operation plans on two worker threads
//! while a third thread misbehaves in one of the two ways the paper's
//! threat model cares about:
//!
//! * **stalled thread** — announces an operation and stops taking steps
//!   until the workers finish (§1's scenario; exercises bounded-waste
//!   paths, DTA recovery, and the oracle's waste-bound monitor, which
//!   fires inside every `empty()` for MP/HP/HE), or
//! * **mid-operation panic** — repeatedly unwinds out of a pinned
//!   operation (caught in-thread), exercising the RAII guard's unwind
//!   path under concurrent load.
//!
//! Every test runs in the default `cargo test`, where it checks progress,
//! the structure's answers after the fault, and the waste caps. The root
//! package's mp-smr dev-dependency arms the reclamation oracle for every
//! test build. The oracle converts any lifecycle violation (double
//! retire, double free, use-after-free via the poisoned-canary check on
//! every `deref`) into an immediate panic carrying the replay seed, and
//! checks each scheme's waste bound inside every scan. The `Checker` then
//! shrinks the operation plan. A run that completes silently is the
//! conformance pass.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use mp_util::{Checker, RngExt, SmallRng};

use margin_pointers::ds::{ConcurrentSet, DtaList, HashMap, LinkedList, NmTree, SkipList};
use margin_pointers::smr::oracle;
use margin_pointers::smr::schemes::{Dta, Ebr, He, Hp, Ibr, Leaky, Mp};
use margin_pointers::smr::{Config, Smr, SmrError, SmrHandle, Telemetry, TelemetrySnapshot};

/// Keys are drawn from `[0, KEY_SPACE)`; the sequential probe uses a key
/// above it.
const KEY_SPACE: u64 = 48;

/// Message carried by the injected panics; the hook filter below matches
/// on it.
const INJECTED_PANIC: &str = "injected mid-op fault";

/// Installs (once, process-wide) a panic hook that swallows the injected
/// fault panics — they fire on every fault-thread iteration and would
/// otherwise flood stderr, since spawned-thread output is not captured by
/// the test harness. All other panics still reach the previous hook.
fn silence_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let injected = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .is_some_and(|m| m.contains(INJECTED_PANIC));
            if !injected {
                prev(info);
            }
        }));
    });
}

/// Which misbehaving third thread accompanies the two workers.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Fault {
    /// Pins an operation and stops taking steps until the workers finish.
    Stall,
    /// Alternates real operations with panics unwinding out of a pin.
    MidOpPanic,
}

/// Aggressive cadences so reclamation (and with it the oracle's
/// free/waste-bound hooks) runs many times within a short plan.
fn cfg() -> Config {
    Config::default()
        .with_max_threads(5)
        .with_slots_per_thread(margin_pointers::ds::skiplist::SLOTS_NEEDED)
        .with_empty_freq(4)
        .with_epoch_freq(8)
        .with_anchor_hops(4)
        .with_stall_patience(2)
}

/// A random operation plan: `(kind % 3, key)` pairs split between the two
/// workers by parity.
fn gen_plan(rng: &mut SmallRng) -> Vec<(u8, u64)> {
    let len = rng.random_range(64..256);
    (0..len).map(|_| (rng.random_range(0..3u8), rng.random_range(0..KEY_SPACE))).collect()
}

fn apply<S: Smr, D: ConcurrentSet<S>>(ds: &D, h: &mut S::Handle, kind: u8, key: u64) {
    match kind % 3 {
        0 => {
            ds.insert(h, key);
        }
        1 => {
            ds.remove(h, key);
        }
        _ => {
            ds.contains(h, key);
        }
    }
}

/// Runs one plan under the chosen fault and returns the telemetry merged over
/// every handle that existed (so `retires >= frees` is a true global
/// invariant: orphan adoption can move a retired node between handles,
/// but every free corresponds to some handle's retire).
fn run_case<S: Smr, D: ConcurrentSet<S>>(
    fault: Fault,
    plan: &[(u8, u64)],
) -> TelemetrySnapshot {
    let smr = S::new(cfg());
    let ds = Arc::new(D::new(&smr));
    let mut merged = TelemetrySnapshot::default();

    // Prefill a few keys so early removes have something to reclaim.
    {
        let mut h = smr.register();
        for k in 0..8u64 {
            ds.insert(&mut h, (k * 5) % KEY_SPACE);
        }
        merged.merge(&h.snapshot());
    }

    let done = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(3)); // 2 workers + 1 fault thread

    std::thread::scope(|s| {
        let mut workers = Vec::new();
        for t in 0..2usize {
            let smr = smr.clone();
            let ds = ds.clone();
            let barrier = barrier.clone();
            let share: Vec<(u8, u64)> = plan.iter().copied().skip(t).step_by(2).collect();
            workers.push(s.spawn(move || {
                let mut h = smr.register();
                barrier.wait();
                for (kind, key) in share {
                    apply(&*ds, &mut h, kind, key);
                }
                h.snapshot()
            }));
        }

        let faulter = {
            let smr = smr.clone();
            let ds = ds.clone();
            let done = done.clone();
            let barrier = barrier.clone();
            if fault == Fault::MidOpPanic {
                silence_injected_panics();
            }
            s.spawn(move || {
                let mut h = smr.register();
                barrier.wait();
                match fault {
                    Fault::Stall => {
                        // Announce an operation and stop taking steps until
                        // the workers are done (§1's scenario).
                        let _op = h.pin();
                        while !done.load(Ordering::Acquire) {
                            std::thread::yield_now();
                        }
                    }
                    Fault::MidOpPanic => {
                        let mut k = 1u64;
                        while !done.load(Ordering::Acquire) {
                            // Real operations keep protections and retires
                            // live around the injected fault...
                            for _ in 0..4 {
                                k = (k.wrapping_mul(31) + 7) % KEY_SPACE;
                                ds.insert(&mut h, k);
                                ds.remove(&mut h, k);
                            }
                            // ...then unwind out of a bare pinned operation
                            // (no structure call inside, so the oracle's
                            // pin-nesting check stays quiet).
                            let unwound =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    let _op = h.pin();
                                    panic!("{INJECTED_PANIC}");
                                }));
                            assert!(unwound.is_err(), "injected panic must unwind");
                        }
                    }
                }
                h.snapshot()
            })
        };

        // Release the fault thread before raising a worker's panic (an
        // oracle report, say): the scope joins it, and a stalled one
        // waits for `done`.
        let results: Vec<_> = workers.into_iter().map(|w| w.join()).collect();
        done.store(true, Ordering::Release);
        for r in results {
            merged.merge(&r.expect("worker panicked"));
        }
        merged.merge(&faulter.join().expect("fault thread panicked"));
    });

    // Sequential probe: the structure must still work, and scanning the
    // whole key space routes every surviving node through the canary check
    // in `deref`.
    let mut h = smr.register();
    let probe = KEY_SPACE + 5;
    assert!(ds.insert(&mut h, probe), "probe key must be fresh");
    assert!(ds.contains(&mut h, probe), "probe key must be found");
    assert!(ds.remove(&mut h, probe), "probe key must be removable");
    assert!(!ds.contains(&mut h, probe), "probe key must be gone");
    for k in 0..KEY_SPACE {
        ds.contains(&mut h, k);
    }
    merged.merge(&h.snapshot());
    merged
}

/// Runs the seeded conformance property for one scheme × structure × fault
/// combo; `name` labels the shrink report.
fn conformance<S: Smr, D: ConcurrentSet<S>>(fault: Fault, name: &str) {
    let checker = Checker::new().cases(3);
    oracle::set_replay_seed(checker.base_seed());
    checker.run(name, gen_plan, |plan| {
        let stats = run_case::<S, D>(fault, plan);
        assert!(stats.ops() > 0, "no operations ran");
        assert!(
            stats.retires() >= stats.frees(),
            "{}: freed more nodes ({}) than were ever retired ({})",
            S::name(),
            stats.frees(),
            stats.retires()
        );
    });
}

/// Expands one module per scheme × structure combo, each holding the two
/// fault-injection tests.
macro_rules! conformance_suite {
    ($($module:ident => $scheme:ident on $ds:ty;)*) => {$(
        mod $module {
            use super::*;

            #[test]
            fn survives_a_stalled_thread() {
                conformance::<$scheme, $ds>(
                    Fault::Stall,
                    concat!(stringify!($module), "::survives_a_stalled_thread"),
                );
            }

            #[test]
            fn survives_mid_op_panics() {
                conformance::<$scheme, $ds>(
                    Fault::MidOpPanic,
                    concat!(stringify!($module), "::survives_mid_op_panics"),
                );
            }
        }
    )*};
}

/// Fence-amortization-specific stall scenario: with persistent margins, a
/// stalled thread pins intervals it announced in *earlier, completed*
/// operations — a wider exposure than the pre-amortization design, where
/// `end_op` withdrew every margin. Writers churn exactly the covered
/// range; the explicit Theorem 4.2 formula check below, and under the
/// oracle its waste-bound monitor inside every `empty()`, must hold: the
/// epoch filter, not margin withdrawal, is what caps the pile-up.
mod mp_stalled_wide_margin {
    use super::*;

    const STALL_MARGIN: u32 = 1 << 24;
    const STALL_SLOTS: usize = margin_pointers::ds::skiplist::SLOTS_NEEDED;

    fn stall_config() -> Config {
        Config::default()
            .with_max_threads(5)
            .with_slots_per_thread(STALL_SLOTS)
            .with_empty_freq(4)
            .with_epoch_freq(8)
            .with_margin(STALL_MARGIN)
    }

    /// Theorem 4.2 terms: waste ≤ T·H + T·H·M·F·T with M = margin + 2^16
    /// (precision slack).
    fn theorem_bound() -> u128 {
        let t = 5u128;
        let h = STALL_SLOTS as u128;
        let m = STALL_MARGIN as u128 + (1 << 16);
        let f = 8u128;
        t * h + t * h * m * f * t
    }

    /// Runs the §1 scenario — a reader stalls inside a pinned op with
    /// standing margins tiling the key range while two writers churn the
    /// covered keys — and returns the peak global pending waste.
    fn stalled_wide_margin_peak() -> usize {
        let smr = Mp::new(stall_config());
        let ds = Arc::new(LinkedList::<Mp>::new(&smr));
        {
            let mut h = smr.register();
            for k in 0..KEY_SPACE {
                ds.insert(&mut h, k);
            }
        }

        let done = Arc::new(AtomicBool::new(false));
        let barrier = Arc::new(Barrier::new(4)); // staller + 2 writers + poller
        let mut peak_pending = 0usize;

        std::thread::scope(|s| {
            {
                let smr = smr.clone();
                let ds = ds.clone();
                let done = done.clone();
                let barrier = barrier.clone();
                s.spawn(move || {
                    let mut h = smr.register();
                    // Several completed read ops: their margins persist
                    // (the amortization under test) and tile the key range.
                    for k in 0..KEY_SPACE {
                        ds.contains(&mut h, k);
                    }
                    // Then stall inside a pinned op (§1's scenario), the
                    // standing margins plus the op's own still announced.
                    let _op = h.pin();
                    barrier.wait();
                    while !done.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                });
            }
            let mut writers = Vec::new();
            for t in 0..2usize {
                let smr = smr.clone();
                let ds = ds.clone();
                let barrier = barrier.clone();
                writers.push(s.spawn(move || {
                    let mut h = smr.register();
                    barrier.wait();
                    // Churn the exact range the staller's margins cover.
                    for round in 0..150u64 {
                        for k in (t as u64..KEY_SPACE).step_by(2) {
                            ds.remove(&mut h, k);
                            ds.insert(&mut h, (k + round) % KEY_SPACE);
                        }
                    }
                }));
            }
            barrier.wait();
            // Poll global pending waste while the writers churn. A writer
            // that panics counts as finished, so the staller is released
            // and the scope raises the panic.
            while !writers.iter().all(|w| w.is_finished()) {
                peak_pending = peak_pending.max(smr.retired_pending());
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            peak_pending = peak_pending.max(smr.retired_pending());
            done.store(true, Ordering::Release);
        });
        peak_pending
    }

    #[test]
    fn waste_stays_in_theorem_4_2_bound_under_covered_churn() {
        let peak_pending = stalled_wide_margin_peak();
        // Under the oracle the Theorem 4.2 bound is also enforced inside
        // every scan.
        let bound = theorem_bound();
        assert!(
            (peak_pending as u128) <= bound,
            "peak waste {peak_pending} exceeds Theorem 4.2 bound {bound}"
        );
        // Empirical sharpness: the stalled margins cover the whole churned
        // range, so without the epoch filter the pile-up would track the
        // total churn (~tens of thousands of retires). The filter caps the
        // margin-pinned set at nodes whose lifetime contains the stalled
        // epoch, leaving only scan-cadence backlog (each writer's unscanned
        // list, up to the 2·5·62 = 620-node watermark) on top.
        assert!(
            peak_pending <= 2_000,
            "stalled wide margin pinned {peak_pending} nodes; epoch filter ineffective"
        );
    }
}

/// Robustness scenario matrix: four thread-misbehavior scenarios × the
/// four schemes the paper's comparison leans on, at a higher thread count
/// than the base suite. Each scenario must (a) complete — no deadlock, no
/// OOM, workers make progress, (b) keep the structure usable afterwards
/// (a sequential probe, which under the oracle routes survivors through
/// its canary check), and (d) for the bounded-waste schemes (MP, HP, HE)
/// keep the scheme's retired-node gauge under the cap the scan trigger
/// implies: no handle holds more than a watermark plus `empty_freq`
/// unscanned or kept nodes. EBR is exempt from (d) by design — a stalled
/// or leaked pin defeats epoch reclamation (§1), which is exactly the
/// paper's motivation; survival is still asserted.
mod scenario_matrix {
    use super::*;

    const WORKERS: usize = 6;
    const OPS_PER_WORKER: u64 = 1_500;
    /// The list's slot row, as the benchmark's `list-read` sizes it. The
    /// trigger's watermark grows with the row: a skip list's 62 slots would
    /// let each handle hold 1 240 unscanned nodes.
    const LIST_SLOTS: usize = 4;
    /// Handles that retire: the workers and the misbehaver (the prefill
    /// only inserts).
    const RETIRING_HANDLES: usize = WORKERS + 1;

    /// Which way the extra thread misbehaves.
    #[derive(Clone, Copy, PartialEq, Eq)]
    enum Scenario {
        /// Pins an operation and stops taking steps until the workers
        /// finish (§1's stalled reader).
        StalledPin,
        /// Leaks an *open* operation and its handle via `mem::forget`,
        /// then panics: the strongest stall — no drop path ever runs, the
        /// pin and the registry slot are gone for good.
        PanicLeak,
        /// Churns `try_register` to exhaustion: the matrix's recoverable-
        /// error leg — exhaustion must surface as `RegistryExhausted` (not
        /// a panic), and a retry after dropping must reuse a tid.
        SlotExhaustion,
        /// A thread that retired nodes disappears without dropping its
        /// handle (kill -9 in miniature): its backlog is stranded and the
        /// gauge stays permanently elevated; everyone else must cope.
        KilledThread,
    }

    /// Aggressive cadences. `max_threads` leaves exactly a couple of spare
    /// slots so `SlotExhaustion` reaches the limit quickly while the other
    /// scenarios keep their probe slot.
    fn matrix_cfg() -> Config {
        Config::default()
            .with_max_threads(WORKERS + 4)
            .with_slots_per_thread(LIST_SLOTS)
            .with_empty_freq(64)
            .with_epoch_freq(16)
    }

    /// Check (d)'s cap in nodes: a handle scans once its list reaches the
    /// watermark `max(empty_freq, 2·T·H)` and re-arms at `kept +
    /// empty_freq`, so each retiring handle holds at most a watermark plus
    /// `empty_freq` — 7 × (80 + 64) = 1 008 nodes here.
    fn node_cap() -> usize {
        let c = matrix_cfg();
        let watermark = c.empty_freq.max(2 * c.max_threads * c.slots_per_thread);
        RETIRING_HANDLES * (watermark + c.empty_freq)
    }

    fn run_scenario<S: Smr>(scenario: Scenario, waste_capped: bool) {
        oracle::set_replay_seed(0x5ce9_a210);
        let smr = S::new(matrix_cfg());
        let ds = Arc::new(LinkedList::<S>::new(&smr));
        {
            let mut h = smr.register();
            for k in 0..KEY_SPACE {
                ds.insert(&mut h, k);
            }
        }

        let done = Arc::new(AtomicBool::new(false));
        let barrier = Arc::new(Barrier::new(WORKERS + 2)); // workers + misbehaver + poller
        let mut peak_nodes = 0usize;
        let mut total_ops = 0u64;

        std::thread::scope(|s| {
            let mut joins = Vec::new();
            for t in 0..WORKERS {
                let smr = smr.clone();
                let ds = ds.clone();
                let barrier = barrier.clone();
                joins.push(s.spawn(move || {
                    let mut h = smr.register();
                    barrier.wait();
                    let mut k = (t as u64).wrapping_mul(17) + 1;
                    for _ in 0..OPS_PER_WORKER {
                        k = (k.wrapping_mul(31) + 7) % KEY_SPACE;
                        ds.insert(&mut h, k);
                        ds.remove(&mut h, k);
                    }
                    h.snapshot().ops()
                }));
            }

            {
                let smr = smr.clone();
                let ds = ds.clone();
                let done = done.clone();
                let barrier = barrier.clone();
                if scenario == Scenario::PanicLeak {
                    silence_injected_panics();
                }
                s.spawn(move || {
                    barrier.wait();
                    match scenario {
                        Scenario::StalledPin => {
                            let mut h = smr.register();
                            let _op = h.pin();
                            while !done.load(Ordering::Acquire) {
                                std::thread::yield_now();
                            }
                        }
                        Scenario::PanicLeak => {
                            let mut h = smr.register();
                            // Real retires first, so the leaked pin has
                            // live protections and backlog around it.
                            for k in 0..8u64 {
                                ds.insert(&mut h, k);
                                ds.remove(&mut h, k);
                            }
                            let unwound =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                                    let mut h = h;
                                    let op = h.pin();
                                    // FORBID-OK: the scenario under test *is* the leak —
                                    // an op guard and handle that never run their drops.
                                    std::mem::forget(op);
                                    // FORBID-OK: see above; the slot is gone for good.
                                    std::mem::forget(h);
                                    panic!("{INJECTED_PANIC}");
                                }));
                            assert!(unwound.is_err(), "injected panic must unwind");
                        }
                        Scenario::SlotExhaustion => {
                            let h = smr.register(); // holds one slot throughout
                            let mut recycled_seen = false;
                            while !done.load(Ordering::Acquire) {
                                // Grab every free slot...
                                let mut extras = Vec::new();
                                loop {
                                    match smr.try_register() {
                                        Ok(extra) => extras.push(extra),
                                        Err(SmrError::RegistryExhausted { max_threads }) => {
                                            assert_eq!(max_threads, WORKERS + 4);
                                            break;
                                        }
                                        Err(e) => panic!("unexpected register error: {e}"),
                                    }
                                }
                                // ...then release them and reacquire one:
                                // recovery must work and reuse a tid.
                                drop(extras);
                                let mut again = smr
                                    .try_register()
                                    .expect("slot must be reacquirable after drops");
                                recycled_seen |= again.snapshot().tid_recycles() >= 1;
                                // A real op on the recycled lease.
                                ds.contains(&mut again, 1);
                            }
                            drop(h);
                            assert!(recycled_seen, "no reacquire ever observed a recycled tid");
                        }
                        Scenario::KilledThread => {
                            let mut h = smr.register();
                            // Build up a retired backlog below the scan
                            // cadence, so it is stranded un-scanned...
                            for k in 0..16u64 {
                                ds.insert(&mut h, 1_000 + k);
                                ds.remove(&mut h, 1_000 + k);
                            }
                            // FORBID-OK: modelling a killed thread — the handle's
                            // drop (drain + orphan park) must never run.
                            std::mem::forget(h);
                        }
                    }
                });
            }

            barrier.wait();
            // A worker that panics (an oracle report, say) counts as
            // finished, so the misbehaver is released and the panic raised.
            while !joins.iter().all(|j| j.is_finished()) {
                peak_nodes = peak_nodes.max(smr.retired_pending());
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            peak_nodes = peak_nodes.max(smr.retired_pending());
            done.store(true, Ordering::Release);
            for j in joins {
                total_ops += j.join().expect("worker panicked");
            }
        });

        // (a) Progress under the fault.
        assert!(
            total_ops >= WORKERS as u64 * OPS_PER_WORKER,
            "workers did not complete their plans: {total_ops}"
        );
        // (d) Bounded-waste schemes keep the gauge under the trigger's cap
        // even while a thread misbehaves; EBR is exempt (§1).
        if waste_capped {
            assert!(
                peak_nodes <= node_cap(),
                "{}: peak retired nodes {peak_nodes} exceeded the trigger's cap of {}",
                S::name(),
                node_cap()
            );
        }
        // (b) The structure still works; under the oracle the scan routes
        // survivors through its canary check.
        let mut h = smr.register();
        let probe = KEY_SPACE + 7;
        assert!(ds.insert(&mut h, probe));
        assert!(ds.remove(&mut h, probe));
        for k in 0..KEY_SPACE {
            ds.contains(&mut h, k);
        }
    }

    macro_rules! scenario_suite {
        ($($module:ident => $scheme:ident capped $capped:literal;)*) => {$(
            mod $module {
                use super::*;

                #[test]
                fn survives_a_stalled_pin() {
                    run_scenario::<$scheme>(Scenario::StalledPin, $capped);
                }

                #[test]
                fn survives_a_leaked_pin_and_handle() {
                    run_scenario::<$scheme>(Scenario::PanicLeak, $capped);
                }

                #[test]
                fn recovers_from_registry_exhaustion_with_tid_reuse() {
                    run_scenario::<$scheme>(Scenario::SlotExhaustion, $capped);
                }

                #[test]
                fn survives_a_killed_thread_with_stranded_backlog() {
                    run_scenario::<$scheme>(Scenario::KilledThread, $capped);
                }
            }
        )*};
    }

    scenario_suite! {
        mp  => Mp  capped true;
        hp  => Hp  capped true;
        he  => He  capped true;
        ebr => Ebr capped false;
    }
}

/// Every slot of a reader's row keeps its node through a scan. The reader
/// protects one node per slot, the writer retires them all and scans, and
/// every node must stay retired and pass the canary check. Deterministic,
/// so a scan that skips a slot fails here on every run; the stress rows
/// above meet such a fault only when a race lands in that slot. MP runs
/// without bound hints, so every read takes its §4.3.2 hazard fallback.
mod slot_rows {
    use super::*;
    use margin_pointers::smr::{Atomic, Shared};

    const SLOTS: usize = 4;

    fn every_slot_keeps_its_node<S: Smr>() {
        let smr = S::new(Config::default().with_max_threads(2).with_slots_per_thread(SLOTS));
        let (mut reader, mut writer) = (smr.register(), smr.register());
        writer.start_op();
        let nodes: Vec<_> = (0..SLOTS as u64).map(|k| writer.alloc(k)).collect();
        let cells: Vec<_> = nodes.iter().map(|&n| Atomic::new(n)).collect();
        reader.start_op();
        let held: Vec<_> = cells.iter().enumerate().map(|(slot, c)| reader.read(c, slot)).collect();
        for (cell, &n) in cells.iter().zip(&nodes) {
            cell.store(Shared::null(), Ordering::Release);
            // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
            unsafe { writer.retire(n) };
        }
        writer.end_op();
        writer.force_empty();
        assert_eq!(writer.retired_len(), SLOTS, "{}: a scan freed a node a slot held", S::name());
        for (k, n) in held.iter().enumerate() {
            // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
            assert_eq!(unsafe { *n.deref().data() }, k as u64);
        }
        reader.end_op();
    }

    #[test]
    fn hp() {
        every_slot_keeps_its_node::<Hp>();
    }

    #[test]
    fn he() {
        every_slot_keeps_its_node::<He>();
    }

    #[test]
    fn ibr() {
        every_slot_keeps_its_node::<Ibr>();
    }

    #[test]
    fn mp() {
        every_slot_keeps_its_node::<Mp>();
    }
}

conformance_suite! {
    mp_list       => Mp    on LinkedList<Mp>;
    mp_skiplist   => Mp    on SkipList<Mp>;
    mp_nmtree     => Mp    on NmTree<Mp>;
    mp_hashmap    => Mp    on HashMap<Mp>;
    hp_list       => Hp    on LinkedList<Hp>;
    hp_skiplist   => Hp    on SkipList<Hp>;
    hp_nmtree     => Hp    on NmTree<Hp>;
    hp_hashmap    => Hp    on HashMap<Hp>;
    ebr_list      => Ebr   on LinkedList<Ebr>;
    ebr_skiplist  => Ebr   on SkipList<Ebr>;
    ebr_nmtree    => Ebr   on NmTree<Ebr>;
    ebr_hashmap   => Ebr   on HashMap<Ebr>;
    he_list       => He    on LinkedList<He>;
    he_skiplist   => He    on SkipList<He>;
    he_nmtree     => He    on NmTree<He>;
    he_hashmap    => He    on HashMap<He>;
    ibr_list      => Ibr   on LinkedList<Ibr>;
    ibr_skiplist  => Ibr   on SkipList<Ibr>;
    ibr_nmtree    => Ibr   on NmTree<Ibr>;
    ibr_hashmap   => Ibr   on HashMap<Ibr>;
    leaky_list    => Leaky on LinkedList<Leaky>;
    leaky_skiplist=> Leaky on SkipList<Leaky>;
    leaky_nmtree  => Leaky on NmTree<Leaky>;
    leaky_hashmap => Leaky on HashMap<Leaky>;
    dta_list      => Dta   on DtaList;
}
