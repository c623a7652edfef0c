//! The four closed-loop workloads and the machinery that runs one repetition
//! of one scheme: worker threads, the sampling main thread, the stalled
//! reader, and the correctness ledger.
//!
//! Load shape (all workloads): `W` worker threads each issue their next set
//! operation when the previous one returns. The main thread only sleeps,
//! samples the waste and RSS gauges every 5 ms, and — in `skip-stall` — holds
//! the stalled reader's pin. Lookup keys are uniform over `[0, 2·S)`, update
//! keys over the worker's own residue class of it (see `Bench::worker`).

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::ScopedJoinHandle;
use std::time::{Duration, Instant};

use mp_ds::{nmtree, skiplist, ConcurrentSet, HashMap, LinkedList, NmTree, SkipList};
use mp_smr::schemes::{He, Hp, Mp};
use mp_smr::{Smr, SmrBuilder, SmrHandle, Telemetry, TelemetrySnapshot};

use crate::fingerprint::{rss_kib, thread_schedstat, wait_share};
use crate::loghist::LogHist;
use crate::prng::{label as stream_label, Rng};

/// One workload: a structure, a size, an operation mix, and why it exists.
#[derive(Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// Prefill size `S`; keys are drawn from `[0, 2·S)`.
    pub prefill: u64,
    pub contains_pct: u64,
    pub insert_pct: u64,
    /// One registered reader stalls inside an operation for each repetition.
    pub stall: bool,
    /// Set-ups a run times (`setup_s` is their median): as many as the
    /// structure's build time leaves room for. The last one is measured.
    pub setups: usize,
    pub why: &'static str,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "list-read",
        prefill: 5_000,
        contains_pct: 100,
        insert_pct: 0,
        stall: false,
        setups: 9,
        why:
            "5 000-key list, 100 % contains: ~2 500 read hops per op and no alloc/retire/scan, \
              so the scheme's read path is all of the cost and reclamation changes must not move it",
    },
    Spec {
        name: "tree-read",
        prefill: 500_000,
        contains_pct: 90,
        insert_pct: 5,
        stall: false,
        setups: 3,
        why: "500 000-key NM-tree, 90/5/5: the paper's Fig 2 point, cache-miss heavy, ~20 hops \
              per op, where default margin 2^20 meets the index density it was chosen for",
    },
    Spec {
        name: "hash-write",
        prefill: 16_384,
        contains_pct: 0,
        insert_pct: 50,
        stall: false,
        setups: 31,
        why: "4 096-bucket hash map, ~4 keys per bucket, 50/50 insert/remove: at most 3 hops \
              per op, so node alloc, pool, retire, scan trigger and empty() dominate",
    },
    Spec {
        name: "skip-stall",
        prefill: 131_072,
        contains_pct: 50,
        insert_pct: 25,
        stall: true,
        setups: 3,
        why: "131 072-key skip list, 50/25/25, one stalled reader per repetition: scans must \
              keep nodes, so the re-arm floor and the bounded-waste property are under load",
    },
];

pub fn spec(name: &str) -> Option<Spec> {
    SPECS.iter().find(|s| s.name == name).copied()
}

/// Operation kinds, in the order spans and per-kind histograms use.
pub const KINDS: [&str; 3] = ["contains", "insert", "remove"];
/// Child-span names, continuing the numbering of [`KINDS`].
pub const CHILD_KINDS: [&str; 3] = ["register", "force_empty", "drop_handle"];
/// Raw spans kept per worker in a traced repetition.
pub const SPAN_CAP: usize = 100_000;
/// One operation in this many is timed in an untraced repetition.
const SAMPLE_EVERY: usize = 16;
const GAUGE_PERIOD: Duration = Duration::from_millis(5);
/// Seeds every workload's prefill, whatever `--seed` says (see `Bench::new`).
const PREFILL_SEED: u64 = 0x5eed_2021;

/// The structure family a workload runs, abstracted over the scheme.
pub trait Family {
    type Set<S: Smr>: ConcurrentSet<S>;
    /// Protection slots the structure needs per thread.
    const SLOTS: usize;
    fn build<S: Smr>(smr: &Arc<S>) -> Self::Set<S> {
        <Self::Set<S> as ConcurrentSet<S>>::new(smr)
    }
}

pub struct ListFamily;
impl Family for ListFamily {
    type Set<S: Smr> = LinkedList<S>;
    const SLOTS: usize = 4;
}

pub struct TreeFamily;
impl Family for TreeFamily {
    type Set<S: Smr> = NmTree<S>;
    const SLOTS: usize = nmtree::SLOTS_NEEDED;
}

pub struct HashFamily;
impl Family for HashFamily {
    type Set<S: Smr> = HashMap<S>;
    const SLOTS: usize = 4;
    fn build<S: Smr>(smr: &Arc<S>) -> HashMap<S> {
        HashMap::with_buckets(smr, 4096)
    }
}

pub struct SkipFamily;
impl Family for SkipFamily {
    type Set<S: Smr> = SkipList<S>;
    const SLOTS: usize = skiplist::SLOTS_NEEDED;
}

/// A scheme at the library's defaults: only the registry size and the slot
/// count the structure needs are set. No margin rescaling, no ablation
/// switches, no `MP_*` variables.
pub fn build_scheme<S: Smr>(max_threads: usize, slots: usize) -> Result<Arc<S>, String> {
    SmrBuilder::new()
        .max_threads(max_threads)
        .slots_per_thread(slots)
        .try_build::<S>()
        .map_err(|e| format!("building {}: {e}", S::name()))
}

/// A fixed-size bit set over the key space.
#[derive(Clone)]
struct Bits(Vec<u64>);

impl Bits {
    fn new(n: u64) -> Bits {
        Bits(vec![0; n.div_ceil(64) as usize])
    }
    #[inline]
    fn toggle(&mut self, k: u64) {
        self.0[(k / 64) as usize] ^= 1 << (k % 64);
    }
    fn get(&self, k: u64) -> bool {
        self.0[(k / 64) as usize] >> (k % 64) & 1 == 1
    }
    fn xor(&mut self, other: &Bits) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a ^= b;
        }
    }
}

/// What one worker did to the set, kept across repetitions: count and
/// wrapping key-sum of its successful inserts and removes, and the parity of
/// successful updates per key. In a linearizable set the successful inserts
/// and removes of one key alternate, so prefill XOR parity is the key's final
/// presence — checked key by key after the last repetition. Aligned to two
/// cache lines (the prefetcher pairs them) so that neighbouring workers'
/// counters never share one.
#[repr(align(128))]
struct Ledger {
    ins_count: u64,
    ins_sum: u64,
    rem_count: u64,
    rem_sum: u64,
    parity: Bits,
}

impl Ledger {
    fn new(key_space: u64) -> Ledger {
        Ledger {
            ins_count: 0,
            ins_sum: 0,
            rem_count: 0,
            rem_sum: 0,
            parity: Bits::new(key_space),
        }
    }
}

/// One recorded span of a traced repetition. `kind` indexes [`KINDS`] then
/// [`CHILD_KINDS`]; times are nanoseconds since the repetition's start.
#[derive(Clone, Copy)]
pub struct Span {
    pub kind: u8,
    pub ok: bool,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Parameters of one repetition.
#[derive(Clone, Copy)]
pub struct RepCfg {
    pub seconds: f64,
    /// Names the repetition's key streams; the same index gives every scheme
    /// the same streams.
    pub index: u64,
    /// Telemetry armed and every operation timed; the first [`SPAN_CAP`] raw
    /// spans per worker are kept.
    pub traced: bool,
}

/// What a traced repetition adds: library counters and per-op spans.
pub struct TraceOut {
    /// Merged over workers, taken when the worker's loop ends (before the
    /// closing `force_empty`), so it covers exactly the operations.
    pub counters: TelemetrySnapshot,
    pub kind_hists: [LogHist; 3],
    /// Sum of every op span, ns.
    pub span_ns: u128,
    /// Per worker: op spans (first [`SPAN_CAP`]) then the child spans.
    pub spans: Vec<Vec<Span>>,
}

pub struct RepOut {
    pub ops: u64,
    /// Σ over workers of ops ÷ that worker's own elapsed time.
    pub ops_per_s: f64,
    /// Sampled (untraced) or complete (traced) client-side op latency.
    pub latency: LogHist,
    pub waste_peak_bytes: u64,
    pub rss_peak_kib: u64,
    /// Slowest worker's closing `force_empty`, after the stall is released.
    pub drain_ms: f64,
    /// Mean share of runnable time the workers waited for a CPU.
    pub wait_share: Option<f64>,
    pub panicked: u64,
    pub trace: Option<TraceOut>,
}

pub struct FinishOut {
    /// Keys whose presence disagrees with prefill XOR update parity.
    pub mismatched_keys: u64,
    /// |observed − (prefill + inserts − removes)| over counts.
    pub count_error: u64,
    pub sum_ok: bool,
    /// `retired_pending()` after every handle dropped and a fresh one drained.
    pub pending_after: u64,
    /// Operations the sweep itself issued.
    pub sweep_ops: u64,
}

/// One scheme under test with its structure, driven through a trait object so
/// repetitions of different schemes can interleave.
pub trait Subject {
    fn rep(&mut self, cfg: RepCfg) -> Result<RepOut, String>;
    fn finish(&mut self) -> Result<FinishOut, String>;
}

struct Bench<S: Smr, D: ConcurrentSet<S>> {
    spec: Spec,
    seed: u64,
    workers: usize,
    smr: Arc<S>,
    set: D,
    prefill: Bits,
    ledgers: Vec<Ledger>,
}

struct WorkerOut {
    ops: u64,
    elapsed: Duration,
    latency: LogHist,
    drain: Duration,
    wait_share: Option<f64>,
    trace: Option<(TelemetrySnapshot, [LogHist; 3], u128, Vec<Span>)>,
}

/// Flags the main thread and the workers of one repetition share.
struct RepCtl {
    ready: AtomicUsize,
    go: AtomicBool,
    stop: AtomicBool,
    done: AtomicUsize,
    drain: AtomicBool,
}

fn spin_until(flag: &AtomicBool) {
    while !flag.load(Ordering::Acquire) {
        std::thread::yield_now();
    }
}

/// Waits until `counter` reaches `want`; gives up early if a worker thread
/// has already ended, which before the drain signal means it panicked.
fn await_workers<T>(counter: &AtomicUsize, want: usize, handles: &[ScopedJoinHandle<'_, T>]) {
    while counter.load(Ordering::Acquire) < want && !handles.iter().any(|h| h.is_finished()) {
        std::thread::sleep(Duration::from_micros(50));
    }
}

fn nanos_since(epoch: Instant, t: Instant) -> u64 {
    t.duration_since(epoch).as_nanos() as u64
}

/// The child span in `slot` of [`CHILD_KINDS`], begun at `t0` and ending now.
fn child_span(epoch: Instant, slot: usize, t0: Instant) -> Span {
    Span {
        kind: (KINDS.len() + slot) as u8,
        ok: true,
        start_ns: nanos_since(epoch, t0),
        end_ns: nanos_since(epoch, Instant::now()),
    }
}

impl<S: Smr, D: ConcurrentSet<S>> Bench<S, D> {
    /// Builds the scheme at the library's defaults, registers one handle and
    /// prefills the structure with it, all on the calling thread.
    fn new(
        scheme: &'static str,
        spec: Spec,
        seed: u64,
        workers: usize,
        slots: usize,
        build: fn(&Arc<S>) -> D,
    ) -> Result<Self, String> {
        // The workers, the stalled reader, and one to spare.
        let smr = build_scheme::<S>(workers + 2, slots)?;
        let set = build(&smr);
        let key_space = 2 * spec.prefill;
        let mut prefill = Bits::new(key_space);
        let mut h = smr
            .try_register()
            .map_err(|e| format!("{scheme}: prefill register: {e}"))?;
        // The same key stream for every scheme *and every seed*: MP assigns
        // a node's index from its neighbours at insertion time, so the
        // insertion history fixes the index layout for good; a seed that
        // rebuilt it would compare different structures. Only the operation
        // streams follow `--seed`. Which draws are fresh is decided here, not
        // by the library, so a wrong `insert` result shows.
        let mut rng = Rng::new(
            PREFILL_SEED,
            &[stream_label("prefill"), stream_label(spec.name)],
        );
        let mut added = 0;
        while added < spec.prefill {
            let k = rng.below(key_space);
            let fresh = !prefill.get(k);
            if set.insert(&mut h, k) != fresh {
                return Err(format!("{scheme}: prefill insert({k}) returned {}", !fresh));
            }
            if fresh {
                prefill.toggle(k);
                added += 1;
            }
        }
        drop(h);
        let ledgers = (0..workers).map(|_| Ledger::new(key_space)).collect();
        Ok(Bench {
            spec,
            seed,
            workers,
            smr,
            set,
            prefill,
            ledgers,
        })
    }

    /// The closed loop of one worker: register, wait for the start signal,
    /// operate until told to stop, then drain and drop the handle. Workers
    /// register as the threads of any program would, each for itself and one
    /// right after the other, so they hold adjacent thread ids.
    fn worker<const TRACED: bool>(
        &self,
        ctl: &RepCtl,
        epoch: Instant,
        span_cap: usize,
        worker: u64,
        mut rng: Rng,
        ledger: &mut Ledger,
    ) -> Result<WorkerOut, String> {
        let t_register = Instant::now();
        let mut h = self
            .smr
            .try_register()
            .map_err(|e| format!("worker register: {e}"))?;
        let registered = child_span(epoch, 0, t_register);
        let spec = self.spec;
        let key_space = 2 * spec.prefill;
        let workers = self.workers as u64;
        let insert_below = spec.contains_pct + spec.insert_pct;
        let mut spans = Vec::with_capacity(span_cap + 3);
        let mut children = [registered; 3];
        let mut child = |slot: usize, t0: Instant| children[slot] = child_span(epoch, slot, t0);

        let mut latency = LogHist::default();
        let mut kind_hists: [LogHist; 3] = Default::default();
        let mut span_ns = 0u128;
        let mut ops = 0u64;
        // Lookups draw from the whole key space; updates from the keys of this
        // worker's own residue class, so no key is ever inserted and removed
        // by two threads at once. `SkipList::link_upper_levels` can link a
        // node at an upper level after a concurrent `remove` of the same key
        // has unlinked and retired it, and the node is then reclaimed while
        // still reachable: on `skip-stall` one run in about thirty ended with
        // both workers circling a cycle of recycled nodes under HP.
        let update_keys = key_space / workers;
        let mut one_op = |h: &mut S::Handle, ledger: &mut Ledger| -> (u8, bool) {
            let r = rng.next_u64();
            let draw = |n: u64| ((r >> 32) * n) >> 32;
            let pct = ((r & 0xffff_ffff) * 100) >> 32;
            if pct < spec.contains_pct {
                return (0, black_box(self.set.contains(h, draw(key_space))));
            }
            let key = draw(update_keys) * workers + worker;
            if pct < insert_below {
                let ok = self.set.insert(h, key);
                if ok {
                    ledger.ins_count += 1;
                    ledger.ins_sum = ledger.ins_sum.wrapping_add(key);
                    ledger.parity.toggle(key);
                }
                (1, ok)
            } else {
                let ok = self.set.remove(h, key);
                if ok {
                    ledger.rem_count += 1;
                    ledger.rem_sum = ledger.rem_sum.wrapping_add(key);
                    ledger.parity.toggle(key);
                }
                (2, ok)
            }
        };

        ctl.ready.fetch_add(1, Ordering::AcqRel);
        spin_until(&ctl.go);
        let sched0 = thread_schedstat();
        let t_start = Instant::now();
        loop {
            for i in 0..SAMPLE_EVERY {
                if TRACED || i == 0 {
                    let t0 = Instant::now();
                    let (kind, ok) = one_op(&mut h, ledger);
                    let t1 = Instant::now();
                    let dt = t1.duration_since(t0).as_nanos() as u64;
                    latency.record(dt);
                    if TRACED {
                        kind_hists[kind as usize].record(dt);
                        span_ns += dt as u128;
                        if spans.len() < span_cap {
                            spans.push(Span {
                                kind,
                                ok,
                                start_ns: nanos_since(epoch, t0),
                                end_ns: nanos_since(epoch, t1),
                            });
                        }
                    }
                } else {
                    one_op(&mut h, ledger);
                }
            }
            ops += SAMPLE_EVERY as u64;
            if ctl.stop.load(Ordering::Relaxed) {
                break;
            }
        }
        let elapsed = t_start.elapsed();
        let wait = wait_share(sched0, thread_schedstat());
        let counters = TRACED.then(|| h.snapshot());

        // Drain only after the main thread has released the stalled reader,
        // so every repetition starts from a drained state.
        ctl.done.fetch_add(1, Ordering::AcqRel);
        spin_until(&ctl.drain);
        let t_drain = Instant::now();
        h.force_empty();
        let drain = t_drain.elapsed();
        child(1, t_drain);
        let t_drop = Instant::now();
        drop(h);
        child(2, t_drop);

        let trace = counters.map(|c| {
            spans.extend_from_slice(&children);
            (c, kind_hists, span_ns, spans)
        });
        Ok(WorkerOut {
            ops,
            elapsed,
            latency,
            drain,
            wait_share: wait,
            trace,
        })
    }
}

impl<S: Smr, D: ConcurrentSet<S>> Subject for Bench<S, D> {
    fn rep(&mut self, cfg: RepCfg) -> Result<RepOut, String> {
        let workers = self.workers;
        let ctl = RepCtl {
            ready: AtomicUsize::new(0),
            go: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            done: AtomicUsize::new(0),
            drain: AtomicBool::new(false),
        };
        let mut ledgers = std::mem::take(&mut self.ledgers);
        let this = &*self;
        let stream = |who: u64| {
            Rng::new(
                this.seed,
                &[
                    stream_label(this.spec.name),
                    stream_label("rep"),
                    cfg.index,
                    who,
                ],
            )
        };

        if cfg.traced {
            mp_smr::telemetry::set_armed(true);
        }
        let epoch = Instant::now();
        let mut waste_peak = 0u64;
        let mut rss_peak = 0u64;
        let outs = std::thread::scope(|s| {
            // The stalled reader: a registered handle that completes one
            // lookup — leaving whatever protections the scheme keeps between
            // operations — then begins its next operation and stops there
            // until the repetition is over. Registered afresh each
            // repetition, like the workers, so nothing it announced outlives
            // the repetition.
            let mut stall_handle = None;
            if this.spec.stall {
                let mut h = this
                    .smr
                    .try_register()
                    .map_err(|e| format!("stall register: {e}"))?;
                // The same key every repetition and every seed: where the
                // reader stands decides what its margins cover, and the
                // repetitions are compared with one another.
                let key =
                    Rng::new(PREFILL_SEED, &[stream_label("stall")]).below(2 * this.spec.prefill);
                black_box(this.set.contains(&mut h, key));
                stall_handle = Some(h);
            }
            let stall_guard = stall_handle.as_mut().map(|h| h.pin());

            let handles: Vec<_> = ledgers
                .iter_mut()
                .enumerate()
                .map(|(w, ledger)| {
                    let rng = stream(w as u64);
                    let ctl = &ctl;
                    s.spawn(move || {
                        if cfg.traced {
                            this.worker::<true>(ctl, epoch, SPAN_CAP, w as u64, rng, ledger)
                        } else {
                            this.worker::<false>(ctl, epoch, 0, w as u64, rng, ledger)
                        }
                    })
                })
                .collect();
            await_workers(&ctl.ready, workers, &handles);
            ctl.go.store(true, Ordering::Release);
            let t0 = Instant::now();
            let length = Duration::from_secs_f64(cfg.seconds);
            loop {
                std::thread::sleep(GAUGE_PERIOD.min(length.saturating_sub(t0.elapsed())));
                waste_peak = waste_peak.max(this.smr.telemetry().pending_bytes() as u64);
                rss_peak = rss_peak.max(rss_kib().unwrap_or(0));
                if t0.elapsed() >= length {
                    break;
                }
            }
            ctl.stop.store(true, Ordering::Relaxed);
            await_workers(&ctl.done, workers, &handles);
            drop(stall_guard);
            drop(stall_handle);
            ctl.drain.store(true, Ordering::Release);
            // A panicked worker reads as `None`; the rest still report.
            handles
                .into_iter()
                .map(|h| h.join().ok().transpose())
                .collect::<Result<Vec<_>, String>>()
        });
        if cfg.traced {
            mp_smr::telemetry::set_armed(false);
        }
        self.ledgers = ledgers;
        let outs: Vec<Option<WorkerOut>> = outs?;

        let mut out = RepOut {
            ops: 0,
            ops_per_s: 0.0,
            latency: LogHist::default(),
            waste_peak_bytes: waste_peak,
            rss_peak_kib: rss_peak,
            drain_ms: 0.0,
            wait_share: None,
            panicked: 0,
            trace: None,
        };
        let mut trace = TraceOut {
            counters: TelemetrySnapshot::default(),
            kind_hists: Default::default(),
            span_ns: 0,
            spans: Vec::new(),
        };
        let mut waits = Vec::new();
        for o in outs {
            let Some(o) = o else {
                out.panicked += 1;
                continue;
            };
            out.ops += o.ops;
            out.ops_per_s += o.ops as f64 / o.elapsed.as_secs_f64();
            out.latency.merge(&o.latency);
            out.drain_ms = out.drain_ms.max(o.drain.as_secs_f64() * 1e3);
            waits.extend(o.wait_share);
            if let Some((counters, hists, span_ns, spans)) = o.trace {
                trace.counters.merge(&counters);
                for (a, b) in trace.kind_hists.iter_mut().zip(&hists) {
                    a.merge(b);
                }
                trace.span_ns += span_ns;
                trace.spans.push(spans);
            }
        }
        if !waits.is_empty() {
            out.wait_share = Some(waits.iter().sum::<f64>() / waits.len() as f64);
        }
        if cfg.traced {
            out.trace = Some(trace);
        }
        Ok(out)
    }

    fn finish(&mut self) -> Result<FinishOut, String> {
        let key_space = 2 * self.spec.prefill;
        let mut expected = self.prefill.clone();
        let (mut want_count, mut want_sum) = (0u64, 0u64);
        for k in 0..key_space {
            if expected.get(k) {
                want_count += 1;
                want_sum = want_sum.wrapping_add(k);
            }
        }
        for l in &self.ledgers {
            expected.xor(&l.parity);
            want_count = want_count
                .wrapping_add(l.ins_count)
                .wrapping_sub(l.rem_count);
            want_sum = want_sum.wrapping_add(l.ins_sum).wrapping_sub(l.rem_sum);
        }

        let mut h = self
            .smr
            .try_register()
            .map_err(|e| format!("sweep register: {e}"))?;
        let (mut count, mut sum, mut mismatched) = (0u64, 0u64, 0u64);
        for k in 0..key_space {
            let present = self.set.contains(&mut h, k);
            if present {
                count += 1;
                sum = sum.wrapping_add(k);
            }
            mismatched += (present != expected.get(k)) as u64;
        }
        drop(h);
        // A fresh handle announces nothing of its own: with every other
        // handle gone, its scan must free all that is left.
        let mut h = self
            .smr
            .try_register()
            .map_err(|e| format!("drain register: {e}"))?;
        h.force_empty();
        drop(h);
        Ok(FinishOut {
            mismatched_keys: mismatched,
            count_error: count.abs_diff(want_count),
            sum_ok: sum == want_sum,
            pending_after: self.smr.retired_pending() as u64,
            sweep_ops: key_space,
        })
    }
}

/// The schemes under test end to end, in the order every per-scheme list uses.
pub const SCHEMES: [&str; 3] = ["mp", "he", "hp"];

/// Builds, registers and prefills all three schemes' structures for `spec`,
/// one after another on the calling thread: the wall time of this call is one
/// sample of `setup_s`.
pub fn build_subjects(
    spec: Spec,
    seed: u64,
    workers: usize,
) -> Result<Vec<Box<dyn Subject>>, String> {
    fn one<S: Smr, F: Family>(
        scheme: &'static str,
        (spec, seed, workers): (Spec, u64, usize),
    ) -> Result<Box<dyn Subject>, String> {
        let bench = Bench::<S, _>::new(scheme, spec, seed, workers, F::SLOTS, F::build::<S>)?;
        Ok(Box::new(bench))
    }
    fn all<F: Family>(args: (Spec, u64, usize)) -> Result<Vec<Box<dyn Subject>>, String> {
        Ok(vec![
            one::<Mp, F>(SCHEMES[0], args)?,
            one::<He, F>(SCHEMES[1], args)?,
            one::<Hp, F>(SCHEMES[2], args)?,
        ])
    }
    let args = (spec, seed, workers);
    match spec.name {
        "list-read" => all::<ListFamily>(args),
        "tree-read" => all::<TreeFamily>(args),
        "hash-write" => all::<HashFamily>(args),
        "skip-stall" => all::<SkipFamily>(args),
        other => Err(format!("no structure family for workload {other}")),
    }
}
