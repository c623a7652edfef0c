//! Scheme-agnostic observability: counters, two latency histograms and the
//! live waste gauges, surfaced through the [`Telemetry`] trait and rendered
//! one way, by [`export::prometheus_text`].
//!
//! The paper's whole argument is quantitative — fences per operation
//! (Fig. 5), wasted memory (Fig. 6), collision/fallback rates (§4.3) — and
//! this module keeps those signals as counts:
//!
//! * **Counters** — one exact `u64` per [`Counter`] per handle, merged
//!   across handles by [`TelemetrySnapshot::merge`]. Fig. 6's
//!   wasted-memory average is one of them: `retired_sampled_sum / ops`.
//! * **Latency histograms** — power-of-two log-bucketed [`Histogram`]s
//!   (64 buckets, merged along with the counters) for the operations a
//!   [`pin`](crate::SmrHandle::pin) guard brackets and for `empty()` scans.
//! * **Waste gauges** — [`SchemeTelemetry`], the scheme's retired-but-
//!   unreclaimed nodes and bytes right now, read at render time.
//!
//! # Arming and the zero-cost-off contract
//!
//! Counters are always on: plain per-handle saturating `u64` bumps at
//! constant indices of one array, declared once in the `counters!` table
//! below. The *timed* layer (the two histograms) is gated by one
//! process-global flag, switched by [`set_armed`]. Disarmed, the hot path
//! pays one relaxed atomic load and a predictable branch per site: no
//! clock reads and no heap allocation, and armed it allocates nothing
//! either, so `tests/zero_alloc.rs` witnesses exactly zero steady-state
//! allocations in both states.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

use mp_util::hist::Histogram;

pub mod export;

static ARMED: AtomicBool = AtomicBool::new(false);

/// Whether timed telemetry is armed (off until [`set_armed`] turns it
/// on). Counters are unaffected: they are always collected.
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed) // ORDERING: reason = diagnostic
}

/// Arms or disarms timed telemetry process-wide. Handles hold no
/// per-arming state, so the change takes effect at the next pinned
/// operation or scan of *every* handle, including handles registered
/// before the call.
pub fn set_armed(on: bool) {
    ARMED.store(on, Ordering::Relaxed); // ORDERING: reason = diagnostic
}

/// Starts a latency timer iff telemetry is armed (one relaxed load and a
/// predictable branch when disarmed — no clock read).
#[inline]
pub fn timer() -> Option<Instant> {
    if armed() {
        Some(Instant::now())
    } else {
        None
    }
}

// ---------------------------------------------------------------------------
// Counters

/// Declares every counter exactly once. Each `Variant => name, "doc";` row
/// becomes a [`Counter`] variant, its slot in [`Counter::ALL`] (rows are
/// in export order), its [`Counter::name`], and the `name()` getter on
/// [`TelemetrySnapshot`]. Adding a counter is one row here plus the
/// `bump`/`add` at its increment site.
macro_rules! counters {
    ($($variant:ident => $name:ident, $doc:literal;)*) => {
        /// Scheme-agnostic counter identifiers; the discriminant indexes
        /// the counter arrays of [`HandleTelemetry`] and
        /// [`TelemetrySnapshot`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Counter {
            $(#[doc = $doc] $variant,)*
        }

        impl Counter {
            /// Every counter, in stable export order.
            pub const ALL: [Counter; Counter::COUNT] = [$(Counter::$variant),*];

            /// How many counters there are.
            pub const COUNT: usize = [$(Counter::$variant),*].len();

            /// Stable snake-case name (Prometheus/JSON key).
            pub fn name(self) -> &'static str {
                match self {
                    $(Counter::$variant => stringify!($name),)*
                }
            }
        }

        impl TelemetrySnapshot {
            $(#[doc = $doc]
            pub fn $name(&self) -> u64 {
                self.counter(Counter::$variant)
            })*
        }
    };
}

counters! {
    Fences => fences,
        "Full memory fences (or sequentially consistent protection stores) on the protection \
         path; Fig. 5 numerator.";
    FencesStartOp => fences_start_op,
        "Fences issued at operation start ([`FenceSite::StartOp`]).";
    FencesEndOp => fences_end_op,
        "Fences issued at operation end ([`FenceSite::EndOp`]).";
    FencesAnnounce => fences_announce,
        "Fences issued by mid-op protection announcements ([`FenceSite::Announce`]).";
    FencesHpProtect => fences_hp_protect,
        "Fences issued by hazard-pointer protection stores ([`FenceSite::HpProtect`]).";
    NodesTraversed => nodes_traversed,
        "Nodes visited by client structures during searches; Fig. 5 denominator.";
    Ops => ops,
        "Operations started (`start_op` calls).";
    RetiredSampledSum => retired_sampled_sum,
        "Sum over operations of the retired-list length at `start_op`; over `ops` it is Fig. 6's \
         wasted-memory metric.";
    Allocs => allocs,
        "Nodes allocated.";
    Retires => retires,
        "Nodes retired.";
    Frees => frees,
        "Nodes reclaimed by this handle's `empty()` runs.";
    Empties => empties,
        "Reclamation passes executed.";
    ReadSlow => read_slow,
        "MP only: `read` calls that missed the cover cache and entered the slow path (a margin \
         lookup across the row, an announcement, or the hazard-pointer fallback).";
    HpFallbackReads => hp_fallback_reads,
        "MP only: `read` calls that took the hazard-pointer fallback (index collision, `USE_HP` \
         class, or epoch advance).";
    CollisionAllocs => collision_allocs,
        "MP only: nodes allocated with the `USE_HP` collision index.";
    PoolHits => pool_hits,
        "Node allocations served a recycled block (the thread's magazine or a chunk free list).";
    PoolMisses => pool_misses,
        "Node allocations served a fresh carve: memory no node used before, or an unpoolable \
         layout sent to the system allocator.";
    TidRecycles => tid_recycles,
        "Registrations that reused a tid released by an earlier handle (0 or 1 per handle, \
         summed on merge).";
    ScanNanos => scan_nanos,
        "Wall nanoseconds spent inside `empty()` scans. Always on: scans are rare, so two clock \
         reads per scan are noise.";
}

/// Which protection-path call site issued a fence. The per-site split is
/// the profiling surface behind the fence-amortization work: ~64 fences/op
/// is indistinguishable from ~2 fences/op in the aggregate `fences` counter
/// until you know whether they come from per-op bracketing (`StartOp` /
/// `EndOp`), per-uncovered-node margin announcements (`Announce`), or the
/// §4.3.2 hazard-pointer fallback (`HpProtect`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FenceSite {
    /// Operation-start announcement (epoch / era / reservation publish).
    StartOp,
    /// Operation-end slot clearing (HP's single batched fence).
    EndOp,
    /// Mid-operation protection announcement: MP margin announce, HE era
    /// re-publish, IBR upper-bound extension, DTA anchor post.
    Announce,
    /// Hazard-pointer protection store: HP's per-node announce and MP's
    /// §4.3.2 collision/epoch fallback.
    HpProtect,
}

impl FenceSite {
    /// The per-site counter this site's fences are attributed to.
    const fn counter(self) -> Counter {
        match self {
            FenceSite::StartOp => Counter::FencesStartOp,
            FenceSite::EndOp => Counter::FencesEndOp,
            FenceSite::Announce => Counter::FencesAnnounce,
            FenceSite::HpProtect => Counter::FencesHpProtect,
        }
    }
}

// ---------------------------------------------------------------------------
// Per-handle state

/// Per-handle telemetry state: the counters and both latency histograms.
/// Embedded by every scheme's handle; schemes record through
/// [`bump`](Self::bump) / [`add`](Self::add) and the `record_*` methods
/// that also sample or time, clients and the bench driver read a
/// [`snapshot`](Self::snapshot).
pub struct HandleTelemetry {
    counters: [u64; Counter::COUNT],
    op_hist: Histogram,
    scan_hist: Histogram,
}

impl Default for HandleTelemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl HandleTelemetry {
    /// Zeroed state for a newly registered handle.
    pub fn new() -> HandleTelemetry {
        HandleTelemetry {
            counters: [0; Counter::COUNT],
            op_hist: Histogram::new(),
            scan_hist: Histogram::new(),
        }
    }

    // -- recorders (the hot-path write surface) --

    /// Adds one to counter `c`.
    #[inline]
    pub fn bump(&mut self, c: Counter) {
        self.add(c, 1);
    }

    /// Adds `n` to counter `c`, saturating.
    #[inline]
    pub fn add(&mut self, c: Counter, n: u64) {
        let v = &mut self.counters[c as usize];
        *v = v.saturating_add(n);
    }

    /// Counts one protection-path fence (Fig. 5 numerator), attributed to
    /// the issuing call site so the per-site breakdown can tell per-op
    /// bracketing apart from per-node announcements.
    #[inline]
    pub fn record_fence(&mut self, site: FenceSite) {
        self.bump(Counter::Fences);
        self.bump(site.counter());
    }

    /// Counts an operation start, sampling the retired-list length.
    #[inline]
    pub fn record_op_start(&mut self, retired_len: usize) {
        self.bump(Counter::Ops);
        self.add(Counter::RetiredSampledSum, retired_len as u64);
    }

    /// Records a whole-operation latency sample (nanoseconds).
    #[inline]
    pub fn record_op_nanos(&mut self, nanos: u64) {
        self.op_hist.record(nanos);
    }

    /// Folds a scan timer into the always-on `ScanNanos` counter (the
    /// `scan_ns_per_free` bench column) and — when telemetry is armed —
    /// the scan-latency histogram. Scans are watermark-paced, so the two
    /// clock reads per scan are amortized over hundreds of retires.
    #[inline]
    pub fn record_scan_elapsed(&mut self, t0: Instant) {
        let nanos = t0.elapsed().as_nanos() as u64;
        self.add(Counter::ScanNanos, nanos);
        if armed() {
            self.scan_hist.record(nanos);
        }
    }

    // -- read surface --

    /// One counter's current value.
    #[inline]
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// A self-contained copy of counters and histograms, mergeable across
    /// handles.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            counters: self.counters,
            op_latency: self.op_hist.clone(),
            scan_latency: self.scan_hist.clone(),
        }
    }

    /// Zeroes counters and histograms.
    pub fn reset(&mut self) {
        self.counters = [0; Counter::COUNT];
        self.op_hist.reset();
        self.scan_hist.reset();
    }
}

// ---------------------------------------------------------------------------
// The trait

/// The scheme-agnostic observability surface of every [`SmrHandle`]
/// (and, via `Deref`, every [`OpGuard`]): a snapshot/counter read surface
/// for consumers plus the one recorder clients call. Handles implement the
/// two accessors; everything else is provided.
///
/// [`SmrHandle`]: crate::SmrHandle
/// [`OpGuard`]: crate::OpGuard
pub trait Telemetry {
    /// This handle's telemetry state.
    fn tele(&self) -> &HandleTelemetry;

    /// Mutable telemetry state.
    fn tele_mut(&mut self) -> &mut HandleTelemetry;

    /// Copies counters + histograms into a mergeable snapshot.
    fn snapshot(&self) -> TelemetrySnapshot {
        self.tele().snapshot()
    }

    /// Reads one counter.
    fn counter(&self, c: Counter) -> u64 {
        self.tele().counter(c)
    }

    /// Counts one client node traversal (Fig. 5 denominator).
    fn record_node_traversed(&mut self) {
        self.tele_mut().bump(Counter::NodesTraversed);
    }

    /// Zeroes counters and histograms (used to scope a measurement window).
    fn reset_telemetry(&mut self) {
        self.tele_mut().reset();
    }
}

// ---------------------------------------------------------------------------
// Snapshot

/// A self-contained, mergeable copy of one handle's telemetry: counters
/// and both latency histograms. This is the read
/// path of the bench drivers, the exporters and the examples; every
/// counter has a getter of its own name (generated by the counter table)
/// and the ratios the paper's figures plot are derived here, once.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySnapshot {
    counters: [u64; Counter::COUNT],
    op_latency: Histogram,
    scan_latency: Histogram,
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl TelemetrySnapshot {
    /// Merges `other` into `self` (order-independent).
    ///
    /// Every counter accumulates with `u64::saturating_add`: on a soak run
    /// long enough to approach the counter range, a merged total pins at
    /// `u64::MAX` instead of wrapping into a small nonsense value (debug
    /// builds would panic on the wrap; release builds would silently
    /// corrupt every derived ratio).
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        for (a, b) in self.counters.iter_mut().zip(&other.counters) {
            *a = a.saturating_add(*b);
        }
        self.op_latency.merge(&other.op_latency);
        self.scan_latency.merge(&other.scan_latency);
    }

    /// Reads one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Scan nanoseconds per reclaimed node — the amortized cost of the
    /// reclamation path, which the watermark trigger exists to keep flat
    /// as threads scale.
    pub fn scan_ns_per_free(&self) -> f64 {
        ratio(self.counter(Counter::ScanNanos), self.counter(Counter::Frees))
    }

    /// Fences per traversed node (Fig. 5 y-axis).
    pub fn fences_per_node(&self) -> f64 {
        ratio(self.counter(Counter::Fences), self.counter(Counter::NodesTraversed))
    }

    /// Fences per started operation (the fence-budget metric).
    pub fn fences_per_op(&self) -> f64 {
        ratio(self.counter(Counter::Fences), self.counter(Counter::Ops))
    }

    /// `site`'s share of [`fences_per_op`](Self::fences_per_op); the four
    /// sites sum to it.
    pub fn fences_per_op_at(&self, site: FenceSite) -> f64 {
        ratio(self.counter(site.counter()), self.counter(Counter::Ops))
    }

    /// Fraction of traversed nodes read through MP's hazard-pointer
    /// fallback (Fig. 7a discussion).
    pub fn hp_fallback_rate(&self) -> f64 {
        ratio(self.counter(Counter::HpFallbackReads), self.counter(Counter::NodesTraversed))
    }

    /// Average retired-list length at op start (Fig. 6 y-axis).
    pub fn avg_retired_at_op_start(&self) -> f64 {
        ratio(self.counter(Counter::RetiredSampledSum), self.counter(Counter::Ops))
    }

    /// Fraction of node allocations served a recycled pool block, in
    /// `[0, 1]`.
    pub fn pool_hit_rate(&self) -> f64 {
        let hits = self.counter(Counter::PoolHits);
        ratio(hits, hits.saturating_add(self.counter(Counter::PoolMisses)))
    }

    /// Fresh-memory node allocations (pool misses) per operation.
    pub fn allocs_per_op(&self) -> f64 {
        ratio(self.counter(Counter::PoolMisses), self.counter(Counter::Ops))
    }

    /// The latency histogram of operations bracketed by a
    /// [`pin`](crate::SmrHandle::pin) guard (samples only when armed).
    /// Raw `start_op`/`end_op` brackets, which every `mp-ds` structure
    /// uses, are not timed.
    pub fn op_latency(&self) -> &Histogram {
        &self.op_latency
    }

    /// The `empty()` scan latency histogram (samples only when armed).
    pub fn scan_latency(&self) -> &Histogram {
        &self.scan_latency
    }
}

// ---------------------------------------------------------------------------
// Per-scheme state

/// Scheme-wide telemetry: the retired-but-unreclaimed node and byte
/// gauges (the paper's wasted memory), including orphans. Kept per scheme
/// instance, not process-wide like [`crate::node::gauge`], so several
/// instances in one process (the conformance matrix, the bench harness)
/// never read each other's waste. Returned by
/// [`Smr::telemetry`](crate::Smr::telemetry).
#[derive(Default)]
pub struct SchemeTelemetry {
    nodes: AtomicUsize,
    bytes: AtomicUsize,
}

impl SchemeTelemetry {
    /// Records `n` newly retired nodes carrying `bytes` in total.
    #[inline]
    pub(crate) fn add(&self, n: usize, bytes: usize) {
        self.nodes.fetch_add(n, Ordering::AcqRel);
        self.bytes.fetch_add(bytes, Ordering::AcqRel);
    }

    /// Records `n` reclaimed nodes releasing `bytes` in total.
    #[inline]
    pub(crate) fn sub(&self, n: usize, bytes: usize) {
        self.nodes.fetch_sub(n, Ordering::AcqRel);
        self.bytes.fetch_sub(bytes, Ordering::AcqRel);
    }

    /// Retired-but-unreclaimed nodes right now (the paper's wasted
    /// memory), including orphans.
    pub fn pending(&self) -> usize {
        self.nodes.load(Ordering::Acquire)
    }

    /// Retired-but-unreclaimed bytes right now, for this scheme instance
    /// only (orphans included), counted as the pool blocks the nodes hold.
    /// Read by the Prometheus exposition (`mp_wasted_bytes`) and by
    /// callers; the scan trigger counts nodes and never reads it.
    pub fn pending_bytes(&self) -> usize {
        self.bytes.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorders_map_to_counters() {
        let mut t = HandleTelemetry::new();
        t.record_op_start(5);
        t.record_op_start(7);
        t.add(Counter::NodesTraversed, 4);
        for site in [
            FenceSite::StartOp,
            FenceSite::EndOp,
            FenceSite::Announce,
            FenceSite::Announce,
            FenceSite::HpProtect,
        ] {
            t.record_fence(site);
        }
        let expected = [
            (Counter::Fences, 5),
            (Counter::FencesStartOp, 1),
            (Counter::FencesEndOp, 1),
            (Counter::FencesAnnounce, 2),
            (Counter::FencesHpProtect, 1),
            (Counter::NodesTraversed, 4),
            (Counter::Ops, 2),
            (Counter::RetiredSampledSum, 12),
        ];
        for c in Counter::ALL {
            let want = expected.iter().find(|(e, _)| *e == c).map_or(0, |&(_, v)| v);
            assert_eq!(t.counter(c), want, "{}", c.name());
        }

        let mut snap = t.snapshot();
        snap.merge(&t.snapshot());
        assert_eq!(snap.ops(), 4);
        assert_eq!(snap.counter(Counter::RetiredSampledSum), 24);

        t.reset();
        assert!(Counter::ALL.iter().all(|&c| t.counter(c) == 0));
        assert_eq!(t.snapshot().op_latency().count(), 0);
    }

    /// The table drives the test: `bump`/`add` land on their own index,
    /// the generated getter reads it back, and `merge` accumulates and
    /// saturates (instead of wrapping on a long soak) at every index.
    #[test]
    fn every_counter_bumps_merges_and_saturates() {
        let mut t = HandleTelemetry::new();
        for (i, c) in Counter::ALL.into_iter().enumerate() {
            assert_eq!(c as usize, i, "ALL is in declaration order");
            t.bump(c);
            t.add(c, i as u64);
        }
        let snap = t.snapshot();
        let mut acc = snap.clone();
        acc.merge(&snap);
        let mut near_max = HandleTelemetry::new();
        for c in Counter::ALL {
            near_max.add(c, u64::MAX - 1);
        }
        let mut pinned = near_max.snapshot();
        pinned.merge(&snap);
        for (i, c) in Counter::ALL.into_iter().enumerate() {
            assert_eq!(snap.counter(c), 1 + i as u64, "{}", c.name());
            assert_eq!(acc.counter(c), 2 * (1 + i as u64), "{} accumulates", c.name());
            assert_eq!(pinned.counter(c), u64::MAX, "{} pins at MAX", c.name());
        }
        assert_eq!(snap.fences(), 1, "generated getters read their own index");
        assert_eq!(snap.scan_nanos(), 1 + Counter::ScanNanos as u64);
        // Ratios remain finite and sane at saturation.
        assert!(pinned.fences_per_node() <= 1.0 + 1e-12);
        assert!(pinned.pool_hit_rate() <= 1.0);
    }

    #[test]
    fn derived_ratios() {
        let z = TelemetrySnapshot::default();
        for r in [
            z.fences_per_node(),
            z.fences_per_op(),
            z.fences_per_op_at(FenceSite::HpProtect),
            z.hp_fallback_rate(),
            z.avg_retired_at_op_start(),
            z.pool_hit_rate(),
            z.allocs_per_op(),
            z.scan_ns_per_free(),
        ] {
            assert_eq!(r, 0.0, "nothing counted reads as zero, not NaN");
        }
        let mut t = HandleTelemetry::new();
        for (c, n) in [
            (Counter::Fences, 5),
            (Counter::FencesAnnounce, 3),
            (Counter::NodesTraversed, 10),
            (Counter::Ops, 4),
            (Counter::RetiredSampledSum, 12),
            (Counter::HpFallbackReads, 2),
            (Counter::PoolHits, 6),
            (Counter::PoolMisses, 2),
            (Counter::Frees, 4),
            (Counter::ScanNanos, 1000),
        ] {
            t.add(c, n);
        }
        let s = t.snapshot();
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        assert!(close(s.fences_per_node(), 0.5));
        assert!(close(s.fences_per_op(), 1.25));
        assert!(close(s.fences_per_op_at(FenceSite::Announce), 0.75));
        assert_eq!(s.fences_per_op_at(FenceSite::EndOp), 0.0);
        assert!(close(s.hp_fallback_rate(), 0.2));
        assert!(close(s.avg_retired_at_op_start(), 3.0));
        assert!(close(s.pool_hit_rate(), 0.75));
        assert!(close(s.allocs_per_op(), 0.5));
        assert!(close(s.scan_ns_per_free(), 250.0));
    }

    /// Layout pin (1 216 bytes at 18 counters): the two histograms plus
    /// eight bytes per counter and nothing else.
    #[test]
    fn handle_telemetry_size_is_pinned() {
        assert_eq!(core::mem::size_of::<HandleTelemetry>(), Counter::COUNT * 8 + 1072);
    }

    #[test]
    fn waste_gauges_add_and_sub() {
        let g = SchemeTelemetry::default();
        g.add(5, 320);
        g.sub(2, 128);
        assert_eq!((g.pending(), g.pending_bytes()), (3, 192));
    }

    #[test]
    fn counter_names_are_stable_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for c in Counter::ALL {
            assert!(seen.insert(c.name()), "duplicate counter name {}", c.name());
        }
        assert_eq!(seen.len(), Counter::ALL.len());
        // The per-site counters always sum to the aggregate in recorded
        // state (enforced by `record_fence` taking a site), and their names
        // share the `fences_` prefix for exporter grouping.
        for c in
            [Counter::FencesStartOp, Counter::FencesEndOp, Counter::FencesAnnounce, Counter::FencesHpProtect]
        {
            assert!(c.name().starts_with("fences_"), "{} misnamed", c.name());
        }
    }
}
