//! The fixed-duration measurement driver (§6 experimental setup).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use mp_ds::ConcurrentSet;
use mp_smr::{AnySmr, Config, SchemeKind, Smr, SmrHandle, Telemetry, TelemetrySnapshot};

use crate::workload::{draw_key, thread_rng, Mix, Op};

/// How the structure is prefilled before measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prefill {
    /// `S` uniformly random keys from a range of size `2S` (§6 default).
    Random,
    /// Keys `0..S` inserted in ascending order — the index-collision
    /// worst case of Figure 7a (§6 "Key Distribution").
    Ascending,
}

/// Whether to park a thread mid-operation for the whole run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallMode {
    /// No artificial stalls (context-switch stalls still occur naturally
    /// once threads exceed the host's cores, as in the paper).
    None,
    /// One extra registered thread announces an operation (pinning its
    /// epoch/interval under epoch-based schemes) and sleeps to the end —
    /// the §1 scenario motivating bounded wasted memory.
    OneStalledThread,
}

/// Fault injection applied during the measured window — a testing aid for
/// the reclamation oracle and conformance suites, `None` for real
/// measurements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// No injected faults.
    None,
    /// One extra registered thread alternates real operations with a panic
    /// raised *inside* a pinned operation (caught within the thread), so
    /// the RAII guard's unwind path — `end_op`, protection release, retired
    /// handoff — is exercised repeatedly under concurrent load.
    MidOpPanic,
}

/// Parameters of one measurement point.
#[derive(Debug, Clone)]
pub struct BenchParams {
    /// Worker thread count.
    pub threads: usize,
    /// Measurement duration.
    pub duration: Duration,
    /// Prefill size `S`; operations draw keys from `[0, 2S)`.
    pub prefill: usize,
    /// Prefill order.
    pub prefill_mode: Prefill,
    /// Operation mix.
    pub mix: Mix,
    /// RNG seed (runs are reproducible per seed).
    pub seed: u64,
    /// Stall injection.
    pub stall: StallMode,
    /// Fault injection (mid-operation panics).
    pub fault: FaultMode,
    /// SMR configuration (margin, cadences, slots).
    pub config: Config,
}

impl BenchParams {
    /// Parameters for reproducing a paper experiment: `paper_prefill` is the
    /// paper's S (500 K for BST/skip list, 5 K for the list); the actual
    /// prefill is CI-scaled via [`crate::prefill_size`] and MP's margin is
    /// scaled to keep *margin × index density* at the paper's operating
    /// point — midpoint indices spread over the whole 32-bit space, so a
    /// 2^20 margin over a 25×-smaller structure covers 25× fewer neighbors
    /// unless rescaled.
    pub fn paper(threads: usize, paper_prefill: usize, mix: Mix) -> Self {
        let prefill = crate::prefill_size(paper_prefill);
        let mut p = Self::new(threads, prefill, mix);
        let scale = (paper_prefill as u64).div_ceil(prefill as u64).max(1);
        // Quadratic margin scaling: midpoint assignment splits index gaps
        // binarily, so a `scale`×-smaller structure not only spreads nodes
        // `scale`× further apart on average but also *widens the spread* of
        // gap sizes (fewer splits of the same 2^32 space) — linear scaling
        // was measured to leave MP re-announcing on most hops at the CI
        // prefill. `scale = 1` (full paper size) still yields the paper's
        // 2^20 operating point; the cap keeps `2·margin < max_index`
        // (Config validation headroom).
        let margin = ((1u64 << 20) * scale * scale).next_power_of_two().min(1 << 30) as u32;
        p.config = p.config.with_margin(margin);
        p
    }

    /// Raw parameters: exact prefill, default margin, no stalls.
    pub fn new(threads: usize, prefill: usize, mix: Mix) -> Self {
        // Slot budget: the skip list needs the most (2 per level + 2).
        let slots = mp_ds::skiplist::SLOTS_NEEDED;
        BenchParams {
            threads,
            duration: crate::duration(),
            prefill,
            prefill_mode: Prefill::Random,
            mix,
            seed: 0x5eed_cafe_f00d_0001,
            stall: StallMode::None,
            fault: FaultMode::None,
            config: Config::default()
                .with_max_threads(threads + 3) // +setup, +staller, +faulter
                .with_slots_per_thread(slots)
                .with_epoch_freq(150 * threads.max(1)),
        }
    }
}

/// Aggregated outcome of one measurement point.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Total completed operations across threads.
    pub total_ops: u64,
    /// Throughput in million operations per second.
    pub mops: f64,
    /// Merged per-thread telemetry: counters, latency histograms and the
    /// ratios the figures plot (`fences_per_node()`,
    /// `avg_retired_at_op_start()`, `hp_fallback_rate()`, …).
    pub telemetry: TelemetrySnapshot,
    /// Peak global retired-pending observed by a 10 ms poller.
    pub peak_pending: usize,
}

/// Message carried by [`FaultMode::MidOpPanic`]'s injected panics; the
/// panic hook filter below matches on it.
pub const INJECTED_PANIC: &str = "injected mid-op fault";

/// Installs (once, process-wide) a panic hook that swallows the injected
/// fault panics — they fire on every fault-thread iteration and would
/// otherwise flood stderr, since spawned-thread output is not captured by
/// the test harness. All other panics still reach the previous hook.
pub fn silence_injected_panics() {
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

/// Runs one measurement point of scheme `S` on structure `D`.
pub fn run<S: Smr, D: ConcurrentSet<S>>(p: &BenchParams) -> BenchResult {
    run_with::<S, D>(p, |cfg| S::new(cfg))
}

/// Runs one measurement point of the runtime-selected `kind` on structure
/// `D` through the [`AnySmr`] facade — one monomorphization for the whole
/// scheme sweep, at enum-dispatch cost on the hot path (fine for
/// comparisons, use [`run`] for absolute numbers).
pub fn run_kind<D: ConcurrentSet<AnySmr>>(kind: SchemeKind, p: &BenchParams) -> BenchResult {
    run_with::<AnySmr, D>(p, |cfg| {
        AnySmr::try_with_kind(kind, cfg).expect("valid bench config")
    })
}

/// [`run`] with an explicit scheme constructor (the facade entry point
/// injects the selected kind through `make`).
fn run_with<S: Smr, D: ConcurrentSet<S>>(
    p: &BenchParams,
    make: impl FnOnce(Config) -> Arc<S>,
) -> BenchResult {
    p.mix.check();
    let smr = make(p.config.clone());
    let ds = Arc::new(D::new(&smr));
    let key_range = (2 * p.prefill.max(1)) as u64;

    // Prefill (single-threaded, outside the measured window).
    {
        let mut h = smr.register();
        match p.prefill_mode {
            Prefill::Random => {
                let mut rng = thread_rng(p.seed, usize::MAX);
                let mut added = 0;
                while added < p.prefill {
                    if ds.insert(&mut h, draw_key(&mut rng, key_range)) {
                        added += 1;
                    }
                }
            }
            Prefill::Ascending => {
                for k in 0..p.prefill as u64 {
                    ds.insert(&mut h, k);
                }
            }
        }
    }

    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(
        p.threads
            + 1
            + matches!(p.stall, StallMode::OneStalledThread) as usize
            + matches!(p.fault, FaultMode::MidOpPanic) as usize,
    ));
    let total_ops = Arc::new(AtomicU64::new(0));

    let mut merged = TelemetrySnapshot::default();
    let mut peak_pending = 0usize;

    std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for tid in 0..p.threads {
            let smr = smr.clone();
            let ds = ds.clone();
            let stop = stop.clone();
            let barrier = barrier.clone();
            let total_ops = total_ops.clone();
            let mix = p.mix;
            let seed = p.seed;
            joins.push(scope.spawn(move || {
                let mut h = smr.register();
                let mut rng = thread_rng(seed, tid);
                barrier.wait();
                let mut ops = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let key = draw_key(&mut rng, key_range);
                    match mix.draw(&mut rng) {
                        Op::Contains => {
                            ds.contains(&mut h, key);
                        }
                        Op::Insert => {
                            ds.insert(&mut h, key);
                        }
                        Op::Remove => {
                            ds.remove(&mut h, key);
                        }
                    }
                    ops += 1;
                }
                total_ops.fetch_add(ops, Ordering::AcqRel);
                // Drain before the final snapshot so the scan cost and
                // frees of batches still below the watermark are counted —
                // the Drop-path drain records into telemetry nobody reads.
                h.force_empty();
                h.snapshot()
            }));
        }

        if matches!(p.stall, StallMode::OneStalledThread) {
            let smr = smr.clone();
            let stop = stop.clone();
            let barrier = barrier.clone();
            scope.spawn(move || {
                let mut h = smr.register();
                barrier.wait();
                // Enter an operation and stop taking steps (§1's scenario);
                // the guard ends the operation when the thread exits.
                let _op = h.pin();
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(5));
                }
            });
        }

        if matches!(p.fault, FaultMode::MidOpPanic) {
            let smr = smr.clone();
            let ds = ds.clone();
            let stop = stop.clone();
            let barrier = barrier.clone();
            let seed = p.seed;
            silence_injected_panics();
            scope.spawn(move || {
                let mut h = smr.register();
                let mut rng = thread_rng(seed, usize::MAX - 1);
                barrier.wait();
                while !stop.load(Ordering::Relaxed) {
                    // A few real operations so protections and retires are
                    // live around the injected fault...
                    for _ in 0..8 {
                        let key = draw_key(&mut rng, key_range);
                        ds.insert(&mut h, key);
                        ds.remove(&mut h, key);
                    }
                    // ...then a panic raised inside a *bare* pinned
                    // operation (no data-structure call inside, so the
                    // oracle's pin-nesting check stays quiet). The RAII
                    // guard must end the operation on the unwind path.
                    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let _op = h.pin();
                        panic!("{INJECTED_PANIC}");
                    }));
                    assert!(unwound.is_err(), "injected panic must unwind");
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
        }

        barrier.wait();
        let deadline = Instant::now() + p.duration;
        while Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10).min(p.duration));
            peak_pending = peak_pending.max(smr.retired_pending());
            smr.sample_waste();
        }
        stop.store(true, Ordering::Release);
        for j in joins {
            merged.merge(&j.join().expect("worker panicked"));
        }
    });

    let total = total_ops.load(Ordering::Acquire);
    BenchResult {
        total_ops: total,
        mops: total as f64 / p.duration.as_secs_f64() / 1e6,
        telemetry: merged,
        peak_pending,
    }
}

/// `n` repetitions of the same point (the paper reports the mean of 10
/// runs): `mops` is the mean over runs, the telemetry snapshots are merged
/// — so every ratio read from the result is pooled over all runs' counts
/// rather than a mean of per-run ratios — and `peak_pending` is the max.
pub fn run_avg<S: Smr, D: ConcurrentSet<S>>(p: &BenchParams, n: usize) -> BenchResult {
    let n = n.max(1);
    let mut runs = (0..n).map(|i| {
        let mut p = p.clone();
        p.seed = p.seed.wrapping_add(i as u64);
        run::<S, D>(&p)
    });
    let mut acc = runs.next().expect("at least one run");
    for r in runs {
        acc.total_ops += r.total_ops;
        acc.mops += r.mops;
        acc.peak_pending = acc.peak_pending.max(r.peak_pending);
        acc.telemetry.merge(&r.telemetry);
    }
    acc.mops /= n as f64;
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{READ_DOMINATED, READ_ONLY};
    use mp_ds::{LinkedList, NmTree, SkipList};
    use mp_smr::schemes::{Ebr, Hp, Mp};

    fn quick(threads: usize, prefill: usize, mix: Mix) -> BenchParams {
        let mut p = BenchParams::new(threads, prefill, mix);
        p.duration = Duration::from_millis(50);
        p
    }

    #[test]
    fn driver_runs_mp_on_all_structures() {
        let p = quick(2, 100, READ_DOMINATED);
        let a = run::<Mp, LinkedList<Mp>>(&p);
        let b = run::<Mp, SkipList<Mp>>(&p);
        let c = run::<Mp, NmTree<Mp>>(&p);
        for r in [&a, &b, &c] {
            assert!(r.total_ops > 0, "no progress: {r:?}");
            assert!(r.telemetry.ops() >= r.total_ops, "every op brackets start/end");
        }
    }

    #[test]
    fn facade_run_matches_the_static_path() {
        let p = quick(2, 100, READ_DOMINATED);
        let r = run_kind::<LinkedList<AnySmr>>(SchemeKind::Hp, &p);
        assert!(r.total_ops > 0, "no progress through the facade: {r:?}");
        assert!(r.telemetry.ops() >= r.total_ops);
    }

    #[test]
    fn read_only_workload_never_retires() {
        let p = quick(2, 100, READ_ONLY);
        let r = run::<Hp, LinkedList<Hp>>(&p);
        assert_eq!(r.telemetry.retires(), 0);
        assert_eq!(r.telemetry.avg_retired_at_op_start(), 0.0);
    }

    #[test]
    fn stalled_thread_grows_ebr_waste_but_not_mp() {
        let mut p = quick(2, 200, READ_DOMINATED);
        p.stall = StallMode::OneStalledThread;
        p.duration = Duration::from_millis(150);
        let ebr = run::<Ebr, LinkedList<Ebr>>(&p);
        let mp = run::<Mp, LinkedList<Mp>>(&p);
        assert!(
            ebr.peak_pending > mp.peak_pending.max(60),
            "EBR waste {} should exceed MP waste {} under a stall",
            ebr.peak_pending,
            mp.peak_pending
        );
    }

    #[test]
    fn mid_op_panic_fault_keeps_workers_progressing() {
        let mut p = quick(2, 100, READ_DOMINATED);
        p.fault = FaultMode::MidOpPanic;
        let r = run::<Mp, LinkedList<Mp>>(&p);
        assert!(r.total_ops > 0, "workers stalled under fault injection: {r:?}");
        assert!(r.telemetry.ops() >= r.total_ops);
    }

    #[test]
    fn ascending_prefill_populates() {
        let mut p = quick(1, 64, READ_ONLY);
        p.prefill_mode = Prefill::Ascending;
        let r = run::<Mp, LinkedList<Mp>>(&p);
        assert!(r.total_ops > 0);
    }
}
