//! Oversubscribed YCSB-style soak harness.
//!
//! Where the figure benches measure §6's fixed-duration uniform sweeps,
//! the soak runs the conditions the adaptive scan watermarks were built
//! for: more worker threads than cores (so scans race context switches),
//! skewed key popularity (Zipfian / hot-set — hot keys churn constantly
//! while the cold tail pins long scans), and handle churn under load
//! (workers periodically drop and re-register, exercising the lock-free
//! registry's tid recycling and orphan handoff).
//!
//! Outputs per scheme: throughput, client-side p50/p99/p999 operation
//! latency (timed around each structure call, so scan pauses surface as
//! tail latency), amortized scan cost (`scan_ns_per_free`), tid recycles,
//! peak retired backlog, and peak process RSS sampled from
//! `/proc/self/statm` while the run is hot.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use mp_ds::ConcurrentSet;
use mp_smr::{AnySmr, Config, SchemeKind, Smr, SmrHandle, Telemetry, TelemetrySnapshot};
use mp_util::hist::Histogram;

use crate::workload::{thread_rng, KeyDist, KeySampler, Mix, Op};

/// Parameters of one soak point.
#[derive(Debug, Clone)]
pub struct SoakParams {
    /// Worker thread count — deliberately larger than the host's cores.
    pub threads: usize,
    /// Measured duration (after prefill).
    pub duration: Duration,
    /// Prefill size; keys are drawn from `[0, 2·prefill)`.
    pub prefill: usize,
    /// Key popularity distribution.
    pub dist: KeyDist,
    /// Operation mix.
    pub mix: Mix,
    /// A worker drops its handle and re-registers after this many
    /// operations (0 disables churn). Staggered per thread so the churn
    /// points spread over the run.
    pub churn_every: u64,
    /// Extra registered threads that pin an operation at the start of the
    /// measured window and hold it to the end — the §1 stalled-reader
    /// scenario, here to prove backpressure keeps the run survivable.
    /// Prefer [`with_stalled_readers`](SoakParams::with_stalled_readers),
    /// which also grows the registry to fit them.
    pub stalled_readers: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// SMR configuration.
    pub config: Config,
}

impl SoakParams {
    /// Soak defaults for `threads` oversubscribed workers over a
    /// `prefill`-sized structure: Zipfian(0.99) keys, 30% writes, handle
    /// churn every 20 K ops.
    pub fn new(threads: usize, prefill: usize, duration: Duration) -> SoakParams {
        SoakParams {
            threads,
            duration,
            prefill,
            dist: KeyDist::Zipfian(0.99),
            mix: Mix { contains: 70, insert: 15, remove: 15, name: "soak-70-15-15" },
            churn_every: 20_000,
            stalled_readers: 0,
            seed: 0x50a4_5eed_0000_0001,
            // The hash map's shards delegate to the list (3 slots); a tight
            // slot budget keeps the auto watermark (k·H) low enough that
            // scans actually fire between handle churn points.
            config: Config::default()
                .with_max_threads(threads + 2) // +prefill, +churn slack
                .with_slots_per_thread(4),
        }
    }

    /// Adds `n` stalled readers, growing `Config::max_threads` to fit them.
    pub fn with_stalled_readers(mut self, n: usize) -> SoakParams {
        let max = self.config.max_threads + n - self.stalled_readers;
        self.stalled_readers = n;
        self.config = self.config.with_max_threads(max);
        self
    }
}

/// Aggregated outcome of one soak point.
#[derive(Debug, Clone)]
pub struct SoakResult {
    /// Total completed operations.
    pub total_ops: u64,
    /// Throughput in million operations per second.
    pub mops: f64,
    /// Client-observed operation latency quantiles (nanoseconds).
    pub p50_ns: u64,
    /// 99th percentile operation latency.
    pub p99_ns: u64,
    /// 99.9th percentile operation latency — the scan-pause witness.
    pub p999_ns: u64,
    /// Handle drop + re-register cycles performed by workers.
    pub handle_churns: u64,
    /// Peak scheme-wide retired-but-unreclaimed nodes (5 ms poller).
    pub peak_pending: usize,
    /// Peak scheme-wide retired payload bytes (same poller) — the figure
    /// the backpressure watermarks act on.
    pub peak_pending_bytes: usize,
    /// Retired-but-unreclaimed nodes after every worker handle dropped —
    /// orphans awaiting adoption or teardown. With drain-on-drop and
    /// orphan adoption this is the *net* unreclaimed residue, unlike the
    /// merged telemetry's `frees()`, which misses Drop-path scans (their
    /// telemetry dies with the handle).
    pub end_pending: usize,
    /// Peak resident set size in KiB while the run was hot.
    pub peak_rss_kb: u64,
    /// Times the backpressure ladder engaged its help-scan rung.
    pub bp_help_engagements: u64,
    /// Times the backpressure ladder engaged its throttle rung.
    pub bp_throttle_engagements: u64,
    /// Times the ladder released back to normal.
    pub bp_releases: u64,
    /// Merged per-handle telemetry; the soak report's `scan_ns_per_free()`
    /// and `tid_recycles()` columns are read from it.
    pub telemetry: TelemetrySnapshot,
}

/// Resident set size in KiB from `/proc/self/statm` (0 where unsupported).
pub fn rss_kb() -> u64 {
    let Ok(statm) = std::fs::read_to_string("/proc/self/statm") else {
        return 0;
    };
    let resident_pages: u64 = statm
        .split_whitespace()
        .nth(1)
        .and_then(|f| f.parse().ok())
        .unwrap_or(0);
    resident_pages * 4 // 4 KiB pages
}

/// Runs one soak point of scheme `S` on structure `D`.
pub fn run_soak<S: Smr, D: ConcurrentSet<S>>(p: &SoakParams) -> SoakResult {
    run_soak_with::<S, D>(p, |cfg| S::new(cfg))
}

/// Runs one soak point of the runtime-selected `kind` on structure `D` —
/// the [`AnySmr`] facade path the soak bench drives, so one
/// monomorphization covers the whole scheme sweep.
pub fn run_soak_kind<D: ConcurrentSet<AnySmr>>(kind: SchemeKind, p: &SoakParams) -> SoakResult {
    run_soak_with::<AnySmr, D>(p, |cfg| {
        AnySmr::try_with_kind(kind, cfg).expect("valid soak config")
    })
}

/// [`run_soak`] with an explicit scheme constructor (the facade entry
/// point injects the selected kind through `make`).
fn run_soak_with<S: Smr, D: ConcurrentSet<S>>(
    p: &SoakParams,
    make: impl FnOnce(Config) -> Arc<S>,
) -> SoakResult {
    p.mix.check();
    let smr = make(p.config.clone());
    let ds = Arc::new(D::new(&smr));
    let key_range = (2 * p.prefill.max(1)) as u64;
    let sampler = KeySampler::new(p.dist, key_range);

    // Prefill with the *same* distribution the run uses, so hot keys exist.
    {
        let mut h = smr.register();
        let mut rng = thread_rng(p.seed, usize::MAX);
        let mut added = 0;
        let mut attempts = 0u64;
        while added < p.prefill && attempts < 50 * p.prefill as u64 {
            if ds.insert(&mut h, sampler.draw(&mut rng)) {
                added += 1;
            }
            attempts += 1;
        }
    }

    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(p.threads + 1 + p.stalled_readers));
    let total_ops = Arc::new(AtomicU64::new(0));
    let total_churns = Arc::new(AtomicU64::new(0));

    let mut thread_outcomes: Vec<(TelemetrySnapshot, Histogram)> = Vec::new();
    let mut peak_pending = 0usize;
    let mut peak_pending_bytes = 0usize;
    let mut peak_rss = 0u64;

    std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for tid in 0..p.threads {
            let smr = smr.clone();
            let ds = ds.clone();
            let stop = stop.clone();
            let barrier = barrier.clone();
            let total_ops = total_ops.clone();
            let total_churns = total_churns.clone();
            let sampler = sampler.clone();
            let mix = p.mix;
            let seed = p.seed;
            let churn_every = p.churn_every;
            joins.push(scope.spawn(move || {
                let mut h = smr.register();
                let mut merged = TelemetrySnapshot::default();
                let mut hist = Histogram::new();
                let mut rng = thread_rng(seed, tid);
                // Stagger churn points so re-registrations spread out.
                let mut ops_until_churn = if churn_every == 0 {
                    u64::MAX
                } else {
                    churn_every / 2 + (churn_every * tid as u64) % churn_every.max(1)
                };
                barrier.wait();
                let mut ops = 0u64;
                let mut churns = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let key = sampler.draw(&mut rng);
                    let t0 = Instant::now();
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
                    hist.record(t0.elapsed().as_nanos() as u64);
                    ops += 1;
                    ops_until_churn = ops_until_churn.saturating_sub(1);
                    if ops_until_churn == 0 {
                        // Handle churn under load: leftovers park as
                        // orphans (adopted by a later register), the tid
                        // goes back to the bitmap, and the re-register
                        // must observe a recycled lease. Scan before the
                        // snapshot so drain-time frees are counted — the
                        // Drop-path scan records into telemetry we can no
                        // longer read.
                        h.force_empty();
                        merged.merge(&h.snapshot());
                        drop(h);
                        h = smr.register();
                        churns += 1;
                        ops_until_churn = churn_every;
                    }
                }
                total_ops.fetch_add(ops, Ordering::AcqRel);
                total_churns.fetch_add(churns, Ordering::AcqRel);
                h.force_empty(); // count the final drain's frees too
                merged.merge(&h.snapshot());
                (merged, hist)
            }));
        }

        for _ in 0..p.stalled_readers {
            let smr = smr.clone();
            let stop = stop.clone();
            let barrier = barrier.clone();
            scope.spawn(move || {
                let mut h = smr.register();
                barrier.wait();
                // Pin an operation and stop taking steps for the whole
                // run (§1's stalled reader). Epoch-based schemes pin every
                // later retiree; backpressure must keep writers alive.
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
            peak_pending = peak_pending.max(smr.retired_pending());
            peak_pending_bytes = peak_pending_bytes.max(smr.telemetry().pending_bytes());
            peak_rss = peak_rss.max(rss_kb());
            smr.sample_waste();
        }
        stop.store(true, Ordering::Release);
        for j in joins {
            thread_outcomes.push(j.join().expect("soak worker panicked"));
        }
    });
    // Post-stall drain: the stalled readers unpin only as their threads
    // exit, which can be after the workers' final scans — so without this,
    // `end_pending` would report the stall's pile-up rather than whether
    // the backlog is recoverable. A fresh handle adopts the orphans and
    // scans with no pins left standing; what remains is truly stranded.
    {
        let mut h = smr.register();
        for _ in 0..4 {
            h.force_empty();
        }
    }
    let end_pending = smr.retired_pending();
    let bp = smr.telemetry().backpressure();
    let (bp_help, bp_throttle, bp_releases) =
        (bp.help_engagements(), bp.throttle_engagements(), bp.releases());

    let mut merged = TelemetrySnapshot::default();
    let mut latency = Histogram::new();
    for (snap, hist) in &thread_outcomes {
        merged.merge(snap);
        latency.merge(hist);
    }
    let total = total_ops.load(Ordering::Acquire);
    SoakResult {
        total_ops: total,
        mops: total as f64 / p.duration.as_secs_f64() / 1e6,
        p50_ns: latency.quantile(0.50),
        p99_ns: latency.quantile(0.99),
        p999_ns: latency.quantile(0.999),
        handle_churns: total_churns.load(Ordering::Acquire),
        peak_pending,
        peak_pending_bytes,
        end_pending,
        peak_rss_kb: peak_rss,
        bp_help_engagements: bp_help,
        bp_throttle_engagements: bp_throttle,
        bp_releases,
        telemetry: merged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_ds::HashMap;
    use mp_smr::schemes::Hp;

    #[test]
    fn soak_smoke_produces_quantiles_and_churns() {
        let mut p = SoakParams::new(4, 128, Duration::from_millis(120));
        p.churn_every = 500; // churn quickly at smoke scale
        let r = run_soak::<Hp, HashMap<Hp>>(&p);
        assert!(r.total_ops > 0, "no progress: {r:?}");
        assert!(r.p50_ns > 0 && r.p50_ns <= r.p99_ns && r.p99_ns <= r.p999_ns);
        assert!(r.handle_churns > 0, "workers never churned handles");
        assert!(
            r.telemetry.tid_recycles() >= r.handle_churns,
            "each churn re-register must observe a recycled tid \
             (recycles {}, churns {})",
            r.telemetry.tid_recycles(),
            r.handle_churns
        );
        assert!(r.peak_rss_kb > 0 || !cfg!(target_os = "linux"));
    }

    #[test]
    fn stalled_reader_engages_backpressure_through_the_facade() {
        // One pinned reader under EBR pins every later retiree; a tiny cap
        // guarantees the ladder engages within the smoke window. The kind
        // goes through `run_soak_kind`, the facade path the bench drives.
        let mut p =
            SoakParams::new(4, 128, Duration::from_millis(150)).with_stalled_readers(1);
        p.churn_every = 0; // keep the run simple: survival is the point
        p.config = p.config.with_backpressure_bytes(16 << 10);
        let r = run_soak_kind::<HashMap<AnySmr>>(SchemeKind::Ebr, &p);
        assert!(r.total_ops > 0, "writers must stay live under backpressure: {r:?}");
        assert!(
            r.bp_help_engagements + r.bp_throttle_engagements >= 1,
            "ladder never engaged despite a stalled reader and a 16 KiB cap: {r:?}"
        );
        assert!(r.peak_pending_bytes > 0, "poller never saw the gauge move");
    }

    #[test]
    fn rss_probe_reads_something_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(rss_kb() > 0);
        }
    }
}
