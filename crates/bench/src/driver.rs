//! The fixed-duration measurement driver (§6 experimental setup): the one
//! loop behind every figure, Table 1 and the soak. A robustness run —
//! skewed keys, handle churn, stalled readers — is a parameter point of
//! the same loop, not a second harness.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use mp_ds::{ConcurrentSet, DtaList, HashMap, LinkedList, NmTree, SkipList};
use mp_smr::schemes::{Dta, Ebr, He, Hp, Ibr, Leaky, Mp};
use mp_smr::{Config, SchemeKind, Smr, SmrHandle, Telemetry, TelemetrySnapshot};
use mp_util::hist::Histogram;

use crate::workload::{thread_rng, KeyDist, KeySampler, Mix, Op};
use crate::Scale;

/// One operation in this many is timed (as `benchmark/` does): a pair of
/// clock reads is a quarter of a tree lookup if taken on every operation.
const LATENCY_SAMPLE_EVERY: u64 = 16;

/// How the structure is prefilled before measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prefill {
    /// `S` distinct keys drawn from [`BenchParams::dist`] over a range of
    /// size `2S` (§6 default: uniform).
    Random,
    /// Keys `0..S` inserted in ascending order — the index-collision
    /// worst case of Figure 7a (§6 "Key Distribution").
    Ascending,
}

/// Parameters of one measurement point.
#[derive(Debug, Clone, PartialEq)]
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
    /// Key popularity (§6 and every figure: uniform).
    pub dist: KeyDist,
    /// A worker drops its handle and re-registers after this many
    /// operations, exercising tid recycling and orphan handoff under load
    /// (0 = never, the figures' value).
    pub churn_every: u64,
    /// Extra registered threads that pin an operation at the start of the
    /// measured window and hold it to the end — the §1 scenario motivating
    /// bounded wasted memory. Set through
    /// [`with_stalled`](BenchParams::with_stalled), which also grows the
    /// registry to fit them. (Context-switch stalls still occur naturally
    /// once threads exceed the host's cores, as in the paper.)
    pub stalled: usize,
    /// SMR configuration (margin, cadences, slots).
    pub config: Config,
}

impl BenchParams {
    /// Parameters for reproducing a paper experiment at `scale`:
    /// `paper_prefill` is the paper's S (500 K for BST/skip list, 5 K for
    /// the list); the actual prefill and the run length come from
    /// [`Scale`], and MP's margin is scaled to keep *margin × index
    /// density* at the paper's operating point — midpoint indices spread
    /// over the whole 32-bit space, so a 2^20 margin over a 25×-smaller
    /// structure covers 25× fewer neighbors unless rescaled.
    pub fn paper(scale: Scale, threads: usize, paper_prefill: usize, mix: Mix) -> Self {
        let prefill = scale.prefill(paper_prefill);
        let mut p = Self::new(threads, prefill, mix);
        p.duration = scale.duration();
        let scale = (paper_prefill as u64).div_ceil(prefill as u64).max(1);
        // Quadratic margin scaling: midpoint assignment splits index gaps
        // binarily, so a `scale`×-smaller structure not only spreads nodes
        // `scale`× further apart on average but also *widens the spread* of
        // gap sizes (fewer splits of the same 2^32 space) — linear scaling
        // was measured to leave MP re-announcing on most hops at the CI
        // prefill. `scale = 1` (full paper size) still yields the paper's
        // 2^20 operating point; the cap keeps `2·margin < max_index`
        // (Config validation headroom).
        p.config.margin = ((1u64 << 20) * scale * scale).next_power_of_two().min(1 << 30) as u32;
        p
    }

    /// Raw parameters: exact prefill, [`Scale::Ci`]'s run length, default
    /// margin, uniform keys, no churn, no stalled threads.
    pub fn new(threads: usize, prefill: usize, mix: Mix) -> Self {
        // Slot budget: the skip list needs the most (3 per level + 1 scratch).
        let slots = mp_ds::skiplist::SLOTS_NEEDED;
        BenchParams {
            threads,
            duration: Scale::Ci.duration(),
            prefill,
            prefill_mode: Prefill::Random,
            mix,
            seed: 0x5eed_cafe_f00d_0001,
            dist: KeyDist::Uniform,
            churn_every: 0,
            stalled: 0,
            config: Config {
                max_threads: threads + 2, // +setup, +churn slack
                slots_per_thread: slots,
                epoch_freq: 150 * threads.max(1),
                ..Config::default()
            },
        }
    }

    /// The soak point: `threads` workers (pick more than the host has
    /// cores) on Zipfian(0.99) keys, 30 % writes, handle churn every 20 K
    /// operations — the conditions the scan watermark was built for. Meant
    /// for the hash map, whose shards delegate to the list (3 slots): the
    /// tight slot budget keeps the watermark (k·H) low enough that scans
    /// fire between churn points.
    pub fn soak(threads: usize, prefill: usize) -> Self {
        let mix = Mix { contains: 70, insert: 15, remove: 15, name: "soak-70-15-15" };
        let mut p = Self::new(threads, prefill, mix);
        p.dist = KeyDist::Zipfian(0.99);
        p.churn_every = 20_000;
        p.config.slots_per_thread = 4;
        p
    }

    /// Sets the number of stalled threads, growing `Config::max_threads`
    /// to fit them.
    pub fn with_stalled(mut self, n: usize) -> Self {
        self.config.max_threads = self.config.max_threads + n - self.stalled;
        self.stalled = n;
        self
    }
}

/// Aggregated outcome of one measurement point.
#[derive(Debug, Clone, Default)]
pub struct BenchResult {
    /// Total completed operations across threads.
    pub total_ops: u64,
    /// Throughput in million operations per second.
    pub mops: f64,
    /// Merged per-thread telemetry: counters, latency histograms and the
    /// ratios the figures plot (`fences_per_node()`,
    /// `avg_retired_at_op_start()`, `hp_fallback_rate()`, …).
    pub telemetry: TelemetrySnapshot,
    /// Client-side operation latency in nanoseconds, timed around one
    /// structure call in 16, so scan pauses surface as tail latency.
    pub latency: Histogram,
    /// Handle drop + re-register cycles performed by workers.
    pub handle_churns: u64,
    /// Peak scheme-wide retired-but-unreclaimed nodes (5 ms poller).
    pub peak_pending: usize,
    /// Peak scheme-wide retired bytes (same poller).
    pub peak_pending_bytes: usize,
    /// Retired-but-unreclaimed nodes after every worker handle dropped and
    /// a fresh handle adopted and scanned what they left. With
    /// drain-on-drop and orphan adoption this is the *net* unreclaimed
    /// residue, unlike the merged telemetry's `frees()`, which misses
    /// Drop-path scans (their telemetry dies with the handle).
    pub end_pending: usize,
    /// Peak resident set size in KiB while the run was hot (same poller).
    pub peak_rss_kb: u64,
}

/// Resident set size in KiB from `/proc/self/status` (0 where unsupported).
fn rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status").map_or(0, |status| vm_rss_kb(&status))
}

/// The `VmRSS` line of a `/proc/<pid>/status` text, which the kernel
/// states in kB whatever its page size; 0 if the line is missing.
fn vm_rss_kb(status: &str) -> u64 {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// The data structures a [`Point`] can name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Structure {
    /// Michael's linked list ([`LinkedList`]); under DTA, the co-designed
    /// [`DtaList`] (§6 evaluates DTA only there).
    List,
    /// Fraser's skip list ([`SkipList`]).
    SkipList,
    /// The Natarajan–Mittal tree ([`NmTree`]).
    NmTree,
    /// Michael's hash table ([`HashMap`]).
    HashMap,
}

/// One measurement point: a structure, a scheme and the parameters to
/// run them at.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// The structure under test.
    pub structure: Structure,
    /// The reclamation scheme.
    pub scheme: SchemeKind,
    /// Threads, mix, prefill, duration, seed and `Config`.
    pub params: BenchParams,
}

/// Runs one measurement point. The scheme and structure are data; this
/// match turns them into concrete types, so every point runs statically
/// dispatched, as a hand-written `run::<Mp, NmTree<Mp>>` would.
pub fn run_point(point: &Point) -> BenchResult {
    fn on<S: Smr>(structure: Structure, p: &BenchParams) -> BenchResult {
        match structure {
            Structure::List => run::<S, LinkedList<S>>(p),
            Structure::SkipList => run::<S, SkipList<S>>(p),
            Structure::NmTree => run::<S, NmTree<S>>(p),
            Structure::HashMap => run::<S, HashMap<S>>(p),
        }
    }
    let (structure, p) = (point.structure, &point.params);
    match point.scheme {
        SchemeKind::Mp => on::<Mp>(structure, p),
        SchemeKind::Hp => on::<Hp>(structure, p),
        SchemeKind::Ebr => on::<Ebr>(structure, p),
        SchemeKind::He => on::<He>(structure, p),
        SchemeKind::Ibr => on::<Ibr>(structure, p),
        SchemeKind::Dta if structure == Structure::List => run::<Dta, DtaList>(p),
        SchemeKind::Dta => on::<Dta>(structure, p),
        SchemeKind::Leaky => on::<Leaky>(structure, p),
    }
}

/// Runs one measurement point of scheme `S` on structure `D`.
fn run<S: Smr, D: ConcurrentSet<S>>(p: &BenchParams) -> BenchResult {
    p.mix.check();
    let smr = S::new(p.config.clone());
    let ds = D::new(&smr);
    let sampler = KeySampler::new(p.dist, (2 * p.prefill.max(1)) as u64);

    // Prefill (single-threaded, outside the measured window).
    {
        let mut h = smr.register();
        match p.prefill_mode {
            Prefill::Random => {
                // Drawn from the run's own distribution, so hot keys
                // exist. A skewed draw may never produce `S` distinct
                // keys; a uniform one stays far below the attempt cap.
                let mut rng = thread_rng(p.seed, usize::MAX);
                let mut added = 0;
                let mut attempts = 0;
                while added < p.prefill && attempts < 50 * p.prefill {
                    if ds.insert(&mut h, sampler.draw(&mut rng)) {
                        added += 1;
                    }
                    attempts += 1;
                }
            }
            Prefill::Ascending => {
                for k in 0..p.prefill as u64 {
                    ds.insert(&mut h, k);
                }
            }
        }
    }

    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(p.threads + 1 + p.stalled);

    let mut res = BenchResult::default();

    std::thread::scope(|scope| {
        let (smr, ds, sampler, stop, barrier) = (&smr, &ds, &sampler, &stop, &barrier);
        let workers: Vec<_> = (0..p.threads)
            .map(|tid| {
                scope.spawn(move || {
                    let mut h = smr.register();
                    let mut telemetry = TelemetrySnapshot::default();
                    let mut latency = Histogram::new();
                    let mut rng = thread_rng(p.seed, tid);
                    barrier.wait();
                    let (mut ops, mut churns) = (0u64, 0u64);
                    let mut next_churn = p.churn_every; // 0 is never reached
                    while !stop.load(Ordering::Relaxed) {
                        let key = sampler.draw(&mut rng);
                        let op = p.mix.draw(&mut rng);
                        let t0 = (ops % LATENCY_SAMPLE_EVERY == 0).then(Instant::now);
                        match op {
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
                        if let Some(t0) = t0 {
                            latency.record(t0.elapsed().as_nanos() as u64);
                        }
                        ops += 1;
                        if ops == next_churn {
                            // Handle churn under load: leftovers park as
                            // orphans (adopted by a later register), the
                            // tid goes back to the bitmap, and the
                            // re-register must observe a recycled lease.
                            // Scan before the snapshot, as at the end of
                            // the run.
                            h.force_empty();
                            telemetry.merge(&h.snapshot());
                            drop(h);
                            h = smr.register();
                            churns += 1;
                            next_churn += p.churn_every;
                        }
                    }
                    // Drain before the final snapshot so the scan cost and
                    // frees of batches still below the watermark are
                    // counted — the Drop-path drain records into telemetry
                    // nobody reads.
                    h.force_empty();
                    telemetry.merge(&h.snapshot());
                    (ops, churns, telemetry, latency)
                })
            })
            .collect();

        for _ in 0..p.stalled {
            scope.spawn(move || {
                let mut h = smr.register();
                barrier.wait();
                // Enter an operation and stop taking steps (§1's scenario):
                // epoch-based schemes pin every later retiree. The guard
                // ends the operation when the thread exits.
                let _op = h.pin();
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(5));
                }
            });
        }

        barrier.wait();
        let deadline = Instant::now() + p.duration;
        while Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5).min(p.duration));
            res.peak_pending = res.peak_pending.max(smr.retired_pending());
            res.peak_pending_bytes =
                res.peak_pending_bytes.max(smr.telemetry().pending_bytes());
            res.peak_rss_kb = res.peak_rss_kb.max(rss_kb());
        }
        stop.store(true, Ordering::Release);
        for w in workers {
            let (ops, churns, telemetry, latency) = w.join().expect("worker panicked");
            res.total_ops += ops;
            res.handle_churns += churns;
            res.telemetry.merge(&telemetry);
            res.latency.merge(&latency);
        }
    });
    res.mops = res.total_ops as f64 / p.duration.as_secs_f64() / 1e6;

    // Post-stall drain: a stalled thread unpins only as it exits, which
    // can be after the workers' final scans — so without this,
    // `end_pending` would report the stall's pile-up rather than whether
    // the backlog is recoverable. A fresh handle adopts the orphans and
    // scans with no pins left standing; what remains is truly stranded.
    {
        let mut h = smr.register();
        for _ in 0..4 {
            h.force_empty();
        }
    }
    res.end_pending = smr.retired_pending();
    res
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
    fn read_only_workload_never_retires() {
        let p = quick(2, 100, READ_ONLY);
        let r = run::<Hp, LinkedList<Hp>>(&p);
        assert_eq!(r.telemetry.retires(), 0);
        assert_eq!(r.telemetry.avg_retired_at_op_start(), 0.0);
    }

    #[test]
    fn stalled_thread_grows_ebr_waste_but_not_mp() {
        let mut p = quick(2, 200, READ_DOMINATED).with_stalled(1);
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
    fn ascending_prefill_populates() {
        let mut p = quick(1, 64, READ_ONLY);
        p.prefill_mode = Prefill::Ascending;
        let r = run::<Mp, LinkedList<Mp>>(&p);
        assert!(r.total_ops > 0);
    }

    /// HP's waste is bounded by its thread count, MP's by Theorem 4.2;
    /// epoch/era schemes legitimately pile up when oversubscription parks
    /// a reader, so the waste caps below exempt them.
    fn bounded(kind: SchemeKind) -> bool {
        matches!(kind, SchemeKind::Mp | SchemeKind::Hp)
    }

    fn soak_smoke(scheme: SchemeKind, stalled: usize) -> Point {
        let mut params = BenchParams::soak(4, 128).with_stalled(stalled);
        params.duration = Duration::from_millis(150);
        params.churn_every = 500; // churn quickly at smoke scale
        Point { structure: Structure::HashMap, scheme, params }
    }

    #[test]
    fn soak_reclaims_under_churn_for_every_scheme() {
        for kind in crate::COMPARISON_SET {
            let r = run_point(&soak_smoke(kind, 0));
            let who = kind.name();
            assert!(r.total_ops > 0, "{who}: no progress: {r:?}");
            let [p50, p99, p999] = [0.50, 0.99, 0.999].map(|q| r.latency.quantile(q));
            assert!(0 < p50 && p50 <= p99 && p99 <= p999, "{who}: broken latency quantiles");
            assert!(r.handle_churns > 0, "{who}: workers never churned handles");
            assert!(
                r.telemetry.tid_recycles() >= r.handle_churns,
                "{who}: each churn re-register must observe a recycled tid \
                 (recycles {}, churns {})",
                r.telemetry.tid_recycles(),
                r.handle_churns
            );
            // Net progress under churn: a handle that dies before its
            // watermark must drain at Drop, and parked orphans must be
            // adopted, not pile up to teardown.
            assert!(
                r.telemetry.retires() > r.end_pending as u64,
                "{who}: {} retires but zero net frees (drain/adoption dead)",
                r.telemetry.retires()
            );
            // Sized to catch unbounded orphan growth (which scales with
            // duration) while tolerating stall-pinned transients on an
            // oversubscribed host.
            assert!(
                !bounded(kind) || r.peak_pending <= 50_000,
                "{who}: peak pending {} blows the robust-scheme waste cap",
                r.peak_pending
            );
            assert!(r.peak_rss_kb > 0 || !cfg!(target_os = "linux"));
        }
    }

    #[test]
    fn soak_survives_a_stalled_reader() {
        // "Never OOM": the ceiling the survival gate has always used, far
        // above anything a 150 ms run should reach.
        const RSS_CEILING_KB: u64 = 1_572_864; // 1.5 GiB
        for kind in crate::COMPARISON_SET {
            let r = run_point(&soak_smoke(kind, 1));
            let who = kind.name();
            assert!(r.total_ops > 0, "{who}: writers must stay live under a stall: {r:?}");
            assert!(r.peak_pending_bytes > 0, "{who}: poller never saw the gauge move");
            // The bounded-waste schemes must drain their backlog once the
            // stall ends (epoch/era schemes legitimately strand pinned
            // retirees until teardown).
            assert!(
                !bounded(kind) || r.end_pending <= 10_000,
                "{who}: end pending {} did not drain after the stall",
                r.end_pending
            );
            assert!(
                r.peak_rss_kb <= RSS_CEILING_KB,
                "{who}: peak RSS {} KiB exceeds the survival ceiling",
                r.peak_rss_kb
            );
        }
    }

    #[test]
    fn vm_rss_is_read_in_kib_from_the_status_text() {
        let status = "Name:\tbench\nVmPeak:\t  912 kB\nVmRSS:\t   45056 kB\nRssAnon:\t 40000 kB\n";
        assert_eq!(vm_rss_kb(status), 45056, "kB as stated, not pages times 4");
        assert_eq!(vm_rss_kb("Name:\tbench\n"), 0, "no VmRSS line");
    }

    #[test]
    fn rss_probe_reads_something_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(rss_kb() > 0);
        }
    }
}
