//! Scheme-agnostic observability: event tracing, latency histograms, and
//! the waste time-series, surfaced through the [`Telemetry`] trait.
//!
//! The paper's whole argument is quantitative — fences per operation
//! (Fig. 5), wasted memory over time (Fig. 6), collision/fallback rates
//! (§4.3) — and this module turns those signals from end-of-run counter
//! sums into a proper observability layer:
//!
//! * **Event tracing** — each handle can own a bounded lock-free ring
//!   ([`mp_util::ring::RingBuffer`]) of 16-byte packed [`EventRecord`]s
//!   (alloc / retire / free / protect-collision / HP-fallback /
//!   epoch-advance), drained lock-free by any reader while writers keep
//!   running. A full ring drops the newest event and counts the drop;
//!   tracing never stalls reclamation.
//! * **Latency histograms** — power-of-two log-bucketed
//!   [`Histogram`]s (64 buckets, mergeable like `OpStats::merge`) for
//!   whole-operation latency (timed by [`OpGuard`](crate::OpGuard)) and
//!   `empty()` scan latency (timed inside each scheme's reclamation pass).
//! * **Waste time-series** — [`WasteSeries`], a fixed ring of
//!   (timestamp, pending nodes, pending bytes) samples per scheme, fed by
//!   [`Smr::sample_waste`](crate::Smr::sample_waste) (the bench driver's
//!   poller and the optional [`WasteSampler`] thread call it), so Fig. 6
//!   becomes a live curve instead of a post-hoc sum.
//! * **Exporters** — [`export`] renders a merged snapshot as Prometheus
//!   text exposition or JSON, honoring the same `MP_BENCH_DIR` output
//!   convention as the bench reports.
//!
//! # Arming and the zero-cost-off contract
//!
//! Counters (the old `OpStats`) are always on: plain per-handle `u64`
//! bumps, exactly as before. The *timed* and *traced* layers are gated by
//! a process-global armed flag — the `MP_TELEMETRY` env var (`1` / `on` /
//! `true` to arm) or [`set_armed`] at runtime. Disarmed, the hot path
//! pays one relaxed atomic load and a predictable branch per site: no
//! clock reads, no ring pushes, and — crucially — no heap allocation, so
//! `tests/zero_alloc.rs` still witnesses exactly zero steady-state
//! allocations with telemetry compiled in. Handles allocate their event
//! ring at registration time only if tracing is armed at that moment.

use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use mp_util::hist::Histogram;
use mp_util::ring::RingBuffer;

use crate::schemes::common::PendingGauge;
use crate::stats::{FenceSite, OpStats};

pub mod export;

// ---------------------------------------------------------------------------
// Arming (env default, runtime override)

const STATE_UNINIT: u8 = 0;
const STATE_ON: u8 = 1;
const STATE_OFF: u8 = 2;

static ARMED: AtomicU8 = AtomicU8::new(STATE_UNINIT);

/// Whether timed/traced telemetry is armed. First call consults the
/// `MP_TELEMETRY` env var (`1` / `on` / `true` arm it; anything else —
/// including unset — leaves it off). Counters are unaffected: they are
/// always collected.
#[inline]
pub fn armed() -> bool {
    match ARMED.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => {
            let on = matches!(
                std::env::var("MP_TELEMETRY").as_deref(),
                Ok("1") | Ok("on") | Ok("true")
            );
            ARMED.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
            on
        }
    }
}

/// Runtime override of the armed flag (see [`SmrBuilder::telemetry`]).
/// Handles registered while disarmed have no event ring; arm before
/// registering (the builder does) to trace from the first operation.
///
/// [`SmrBuilder::telemetry`]: crate::SmrBuilder::telemetry
pub fn set_armed(on: bool) {
    ARMED.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
}

static EVENT_CAPACITY: AtomicUsize = AtomicUsize::new(1024);

/// Sets the per-handle event-ring capacity used for handles registered
/// from now on (rounded up to a power of two by the ring).
pub fn set_event_capacity(records: usize) {
    EVENT_CAPACITY.store(records.max(2), Ordering::Relaxed);
}

/// Microseconds since the process's telemetry epoch (first call). 40 bits
/// of microseconds cover ~12.7 days, comfortably beyond any run.
pub fn now_micros() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
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
// Events

/// Traced event kinds (the discriminant is packed into [`EventRecord`]).
#[repr(u8)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A node was allocated (payload: node address).
    Alloc = 1,
    /// A node was retired (payload: node address).
    Retire = 2,
    /// A retired node was reclaimed (payload: node address).
    Free = 3,
    /// MP assigned the `USE_HP` index on an index collision
    /// (payload: the colliding predecessor index).
    ProtectCollision = 4,
    /// MP's `read` took the hazard-pointer fallback path
    /// (payload: node address).
    HpFallback = 5,
    /// The global epoch/era advanced (payload: new epoch).
    EpochAdvance = 6,
    /// The scheme's backpressure ladder escalated (payload: the new
    /// [`BpLevel`](crate::backpressure::BpLevel) as `u64`).
    BackpressureEngage = 7,
    /// The scheme's backpressure ladder released back to a lower rung
    /// (payload: the new level as `u64`).
    BackpressureRelease = 8,
}

impl EventKind {
    /// Decodes a packed discriminant.
    pub fn from_u8(v: u8) -> Option<EventKind> {
        Some(match v {
            1 => EventKind::Alloc,
            2 => EventKind::Retire,
            3 => EventKind::Free,
            4 => EventKind::ProtectCollision,
            5 => EventKind::HpFallback,
            6 => EventKind::EpochAdvance,
            7 => EventKind::BackpressureEngage,
            8 => EventKind::BackpressureRelease,
            _ => return None,
        })
    }

    /// Stable lowercase name (used by exporters and tests).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Alloc => "alloc",
            EventKind::Retire => "retire",
            EventKind::Free => "free",
            EventKind::ProtectCollision => "protect_collision",
            EventKind::HpFallback => "hp_fallback",
            EventKind::EpochAdvance => "epoch_advance",
            EventKind::BackpressureEngage => "backpressure_engage",
            EventKind::BackpressureRelease => "backpressure_release",
        }
    }
}

/// One traced event, packed into 16 bytes: `meta` is
/// `timestamp_micros:40 | kind:8 | tid:16`, `payload` is the event-specific
/// word (node address, index, or epoch).
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventRecord {
    meta: u64,
    /// Event-specific payload word.
    pub payload: u64,
}

const TS_BITS: u32 = 40;
const TS_MASK: u64 = (1 << TS_BITS) - 1;

/// Sampling period (power of two) for [`EventKind::HpFallback`] traces:
/// every fallback read is *counted*, every `HP_FALLBACK_SAMPLE`-th is
/// *traced*. Fallback reads are the one event that fires per traversed
/// node rather than per operation or per reclamation, so unsampled
/// tracing would dominate armed-run cost on collision-heavy structures.
pub const HP_FALLBACK_SAMPLE: u64 = 64;

impl EventRecord {
    /// Packs an event.
    #[inline]
    pub fn new(t_micros: u64, kind: EventKind, tid: u16, payload: u64) -> EventRecord {
        EventRecord {
            meta: ((t_micros & TS_MASK) << 24) | ((kind as u64) << 16) | tid as u64,
            payload,
        }
    }

    /// Microseconds since the telemetry epoch (wraps after ~12.7 days).
    #[inline]
    pub fn t_micros(&self) -> u64 {
        self.meta >> 24
    }

    /// The event kind (`None` only for a corrupt record).
    #[inline]
    pub fn kind(&self) -> Option<EventKind> {
        EventKind::from_u8(((self.meta >> 16) & 0xff) as u8)
    }

    /// The recording handle's thread id (registry slot).
    #[inline]
    pub fn tid(&self) -> u16 {
        (self.meta & 0xffff) as u16
    }
}

/// The per-handle event ring type.
pub type EventRing = RingBuffer<EventRecord>;

// ---------------------------------------------------------------------------
// Counters

/// Scheme-agnostic counter identifiers — the typed read surface over what
/// used to be direct `OpStats` field access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Full memory fences on the protection path (Fig. 5 numerator).
    Fences,
    /// Fences issued at operation start.
    FencesStartOp,
    /// Fences issued at operation end.
    FencesEndOp,
    /// Fences issued by mid-op protection announcements.
    FencesAnnounce,
    /// Fences issued by hazard-pointer protection stores.
    FencesHpProtect,
    /// Nodes traversed by client structures (Fig. 5 denominator).
    NodesTraversed,
    /// Operations started.
    Ops,
    /// Sum of retired-list lengths sampled at op start (Fig. 6).
    RetiredSampledSum,
    /// Nodes allocated.
    Allocs,
    /// Nodes retired.
    Retires,
    /// Nodes reclaimed.
    Frees,
    /// Reclamation passes executed.
    Empties,
    /// MP reads that took the hazard-pointer fallback.
    HpFallbackReads,
    /// MP allocations that hit the `USE_HP` collision index.
    CollisionAllocs,
    /// Node allocations served a recycled pool block.
    PoolHits,
    /// Node allocations served a fresh carve (or an unpoolable layout).
    PoolMisses,
    /// Reclamation scans that had to grow a scratch buffer.
    ScanHeapAllocs,
    /// Scans that adopted a peer's published protection snapshot.
    SnapshotReuses,
    /// Registrations that reused a previously released tid (churn).
    TidRecycles,
    /// Wall nanoseconds spent inside `empty()` scans (always on).
    ScanNanos,
    /// Backpressure help-scans: reclamation passes this handle ran on
    /// behalf of laggards because the retired-bytes gauge crossed the
    /// help watermark.
    HelpScans,
    /// Backpressure throttle waits: bounded backoffs taken on the
    /// allocation path while the gauge sat above the hard cap.
    ThrottleWaits,
}

impl Counter {
    /// Every counter, in stable export order.
    pub const ALL: [Counter; 22] = [
        Counter::Fences,
        Counter::FencesStartOp,
        Counter::FencesEndOp,
        Counter::FencesAnnounce,
        Counter::FencesHpProtect,
        Counter::NodesTraversed,
        Counter::Ops,
        Counter::RetiredSampledSum,
        Counter::Allocs,
        Counter::Retires,
        Counter::Frees,
        Counter::Empties,
        Counter::HpFallbackReads,
        Counter::CollisionAllocs,
        Counter::PoolHits,
        Counter::PoolMisses,
        Counter::ScanHeapAllocs,
        Counter::SnapshotReuses,
        Counter::TidRecycles,
        Counter::ScanNanos,
        Counter::HelpScans,
        Counter::ThrottleWaits,
    ];

    /// Stable snake-case name (Prometheus/JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Counter::Fences => "fences",
            Counter::FencesStartOp => "fences_start_op",
            Counter::FencesEndOp => "fences_end_op",
            Counter::FencesAnnounce => "fences_announce",
            Counter::FencesHpProtect => "fences_hp_protect",
            Counter::NodesTraversed => "nodes_traversed",
            Counter::Ops => "ops",
            Counter::RetiredSampledSum => "retired_sampled_sum",
            Counter::Allocs => "allocs",
            Counter::Retires => "retires",
            Counter::Frees => "frees",
            Counter::Empties => "empties",
            Counter::HpFallbackReads => "hp_fallback_reads",
            Counter::CollisionAllocs => "collision_allocs",
            Counter::PoolHits => "pool_hits",
            Counter::PoolMisses => "pool_misses",
            Counter::ScanHeapAllocs => "scan_heap_allocs",
            Counter::SnapshotReuses => "snapshot_reuses",
            Counter::TidRecycles => "tid_recycles",
            Counter::ScanNanos => "scan_nanos",
            Counter::HelpScans => "help_scans",
            Counter::ThrottleWaits => "throttle_waits",
        }
    }
}

fn counter_of(stats: &OpStats, c: Counter) -> u64 {
    match c {
        Counter::Fences => stats.fences,
        Counter::FencesStartOp => stats.fences_start_op,
        Counter::FencesEndOp => stats.fences_end_op,
        Counter::FencesAnnounce => stats.fences_announce,
        Counter::FencesHpProtect => stats.fences_hp_protect,
        Counter::NodesTraversed => stats.nodes_traversed,
        Counter::Ops => stats.ops,
        Counter::RetiredSampledSum => stats.retired_sampled_sum,
        Counter::Allocs => stats.allocs,
        Counter::Retires => stats.retires,
        Counter::Frees => stats.frees,
        Counter::Empties => stats.empties,
        Counter::HpFallbackReads => stats.hp_fallback_reads,
        Counter::CollisionAllocs => stats.collision_allocs,
        Counter::PoolHits => stats.pool_hits,
        Counter::PoolMisses => stats.pool_misses,
        Counter::ScanHeapAllocs => stats.scan_heap_allocs,
        Counter::SnapshotReuses => stats.snapshot_reuses,
        Counter::TidRecycles => stats.tid_recycles,
        Counter::ScanNanos => stats.scan_nanos,
        Counter::HelpScans => stats.help_scans,
        Counter::ThrottleWaits => stats.throttle_waits,
    }
}

// ---------------------------------------------------------------------------
// Per-handle state

/// Per-handle telemetry state: the counters, both latency histograms, and
/// (when armed at registration) the event ring. Embedded by every scheme's
/// handle; schemes record through the typed `record_*` methods, clients
/// and the bench driver read through [`Telemetry`].
pub struct HandleTelemetry {
    stats: OpStats,
    op_hist: Histogram,
    scan_hist: Histogram,
    ring: Option<Arc<EventRing>>,
    tid: u16,
}

impl HandleTelemetry {
    /// State for the handle registered in registry slot `tid`. Allocates an
    /// event ring only if tracing is armed right now.
    pub fn new(tid: usize) -> HandleTelemetry {
        let ring = if armed() {
            Some(Arc::new(EventRing::new(EVENT_CAPACITY.load(Ordering::Relaxed))))
        } else {
            None
        };
        HandleTelemetry {
            stats: OpStats::default(),
            op_hist: Histogram::new(),
            scan_hist: Histogram::new(),
            ring,
            tid: tid as u16,
        }
    }

    // -- typed recorders (the hot-path write surface) --

    /// Counts one protection-path fence (Fig. 5 numerator), attributed to
    /// the issuing call site so the per-site breakdown can tell per-op
    /// bracketing apart from per-node announcements.
    #[inline]
    pub fn record_fence(&mut self, site: FenceSite) {
        self.stats.fences = self.stats.fences.saturating_add(1);
        let per_site = match site {
            FenceSite::StartOp => &mut self.stats.fences_start_op,
            FenceSite::EndOp => &mut self.stats.fences_end_op,
            FenceSite::Announce => &mut self.stats.fences_announce,
            FenceSite::HpProtect => &mut self.stats.fences_hp_protect,
        };
        *per_site = per_site.saturating_add(1);
    }

    /// Counts an operation start, sampling the retired-list length.
    #[inline]
    pub fn record_op_start(&mut self, retired_len: usize) {
        self.stats.ops = self.stats.ops.saturating_add(1);
        self.stats.retired_sampled_sum =
            self.stats.retired_sampled_sum.saturating_add(retired_len as u64);
    }

    /// Counts one node allocation (the pool split is recorded separately
    /// by the node allocator via [`record_pool_hit`](Self::record_pool_hit)
    /// / [`record_pool_miss`](Self::record_pool_miss)).
    #[inline]
    pub fn record_alloc(&mut self) {
        self.stats.allocs = self.stats.allocs.saturating_add(1);
    }

    /// Counts a retire and traces it (payload: node address).
    #[inline]
    pub fn record_retire(&mut self, addr: u64) {
        self.stats.retires = self.stats.retires.saturating_add(1);
        self.trace(EventKind::Retire, addr);
    }

    /// Counts a reclaimed node and traces it (payload: node address).
    #[inline]
    pub fn record_free(&mut self, addr: u64) {
        self.stats.frees = self.stats.frees.saturating_add(1);
        self.trace(EventKind::Free, addr);
    }

    /// Counts one reclamation pass.
    #[inline]
    pub fn record_empty(&mut self) {
        self.stats.empties = self.stats.empties.saturating_add(1);
    }

    /// Counts a scan that had to grow a scratch buffer.
    #[inline]
    pub fn record_scan_heap_alloc(&mut self) {
        self.stats.scan_heap_allocs = self.stats.scan_heap_allocs.saturating_add(1);
    }

    /// Counts a scan that adopted a peer's published protection snapshot
    /// instead of walking the slot rows.
    #[inline]
    pub fn record_snapshot_reuse(&mut self) {
        self.stats.snapshot_reuses = self.stats.snapshot_reuses.saturating_add(1);
    }

    /// Marks this handle's tid as recycled from an earlier registration
    /// (called once, at registration, when the registry says so).
    #[inline]
    pub fn record_tid_recycle(&mut self) {
        self.stats.tid_recycles = self.stats.tid_recycles.saturating_add(1);
    }

    /// Counts an MP hazard-pointer fallback read and traces it, sampled.
    ///
    /// Fallback reads sit on the traversal critical path and can fire once
    /// per visited node (skip-list towers are `USE_HP`-class), so tracing
    /// each one would pay a clock read + ring push per node. The counter
    /// stays exact; only the trace stream is 1-in-[`HP_FALLBACK_SAMPLE`]
    /// sampled.
    #[inline]
    pub fn record_hp_fallback(&mut self, addr: u64) {
        self.stats.hp_fallback_reads = self.stats.hp_fallback_reads.saturating_add(1);
        if self.stats.hp_fallback_reads & (HP_FALLBACK_SAMPLE - 1) == 0 {
            self.trace(EventKind::HpFallback, addr);
        }
    }

    /// Counts a `USE_HP` collision allocation and traces it.
    #[inline]
    pub fn record_collision_alloc(&mut self, index: u32) {
        self.stats.collision_allocs = self.stats.collision_allocs.saturating_add(1);
        self.trace(EventKind::ProtectCollision, index as u64);
    }

    /// Counts a pool-served node allocation and traces the alloc.
    #[inline]
    pub fn record_pool_hit(&mut self, addr: u64) {
        self.stats.pool_hits = self.stats.pool_hits.saturating_add(1);
        self.trace(EventKind::Alloc, addr);
    }

    /// Counts a system-allocator node allocation and traces the alloc.
    #[inline]
    pub fn record_pool_miss(&mut self, addr: u64) {
        self.stats.pool_misses = self.stats.pool_misses.saturating_add(1);
        self.trace(EventKind::Alloc, addr);
    }

    /// Counts client node traversals (Fig. 5 denominator).
    #[inline]
    pub fn record_nodes_traversed(&mut self, n: u64) {
        self.stats.nodes_traversed = self.stats.nodes_traversed.saturating_add(n);
    }

    /// Traces an epoch/era advance (payload: the new epoch).
    #[inline]
    pub fn record_epoch_advance(&mut self, epoch: u64) {
        self.trace(EventKind::EpochAdvance, epoch);
    }

    /// Counts a backpressure help-scan this handle ran on behalf of
    /// laggards (the scan itself is counted separately by `record_empty`).
    #[inline]
    pub fn record_help_scan(&mut self) {
        self.stats.help_scans = self.stats.help_scans.saturating_add(1);
    }

    /// Counts one bounded throttle wait taken on the allocation path.
    #[inline]
    pub fn record_throttle_wait(&mut self) {
        self.stats.throttle_waits = self.stats.throttle_waits.saturating_add(1);
    }

    /// Pushes an event when tracing is armed for this handle; a single
    /// `Option` branch when it is not. A full ring drops the event and
    /// counts the drop — tracing never blocks.
    #[inline]
    pub fn trace(&mut self, kind: EventKind, payload: u64) {
        if let Some(ring) = &self.ring {
            ring.push(EventRecord::new(now_micros(), kind, self.tid, payload));
        }
    }

    /// Records a whole-operation latency sample (nanoseconds).
    #[inline]
    pub fn record_op_nanos(&mut self, nanos: u64) {
        self.op_hist.record(nanos);
    }

    /// Records an `empty()` scan latency sample (nanoseconds) into both
    /// the always-on `scan_nanos` counter and the scan histogram.
    #[inline]
    pub fn record_scan_nanos(&mut self, nanos: u64) {
        self.stats.scan_nanos = self.stats.scan_nanos.saturating_add(nanos);
        self.scan_hist.record(nanos);
    }

    /// Folds a scan timer into the always-on `scan_nanos` counter (the
    /// `scan_ns_per_free` bench column) and — when telemetry is armed —
    /// the scan-latency histogram. Scans are watermark-paced, so the two
    /// clock reads per scan are amortized over hundreds of retires.
    #[inline]
    pub fn record_scan_elapsed(&mut self, t0: Instant) {
        let nanos = t0.elapsed().as_nanos() as u64;
        self.stats.scan_nanos = self.stats.scan_nanos.saturating_add(nanos);
        if armed() {
            self.scan_hist.record(nanos);
        }
    }

    // -- read surface --

    /// The raw counters.
    #[inline]
    pub fn stats(&self) -> &OpStats {
        &self.stats
    }

    /// One counter's current value.
    #[inline]
    pub fn counter(&self, c: Counter) -> u64 {
        counter_of(&self.stats, c)
    }

    /// The whole-operation latency histogram.
    pub fn op_latency(&self) -> &Histogram {
        &self.op_hist
    }

    /// The `empty()` scan latency histogram.
    pub fn scan_latency(&self) -> &Histogram {
        &self.scan_hist
    }

    /// The event ring, if tracing was armed when this handle registered.
    /// Clone the `Arc` and drain from any thread.
    pub fn events(&self) -> Option<Arc<EventRing>> {
        self.ring.clone()
    }

    /// A self-contained copy of counters, histograms, and the drop count,
    /// mergeable across handles.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            stats: self.stats.clone(),
            op_latency: self.op_hist.clone(),
            scan_latency: self.scan_hist.clone(),
            events_dropped: self.ring.as_ref().map_or(0, |r| r.dropped()),
        }
    }

    /// Zeroes counters and histograms (the event ring, if any, is kept).
    pub fn reset(&mut self) {
        self.stats = OpStats::default();
        self.op_hist.reset();
        self.scan_hist.reset();
    }
}

// ---------------------------------------------------------------------------
// The trait

/// The scheme-agnostic observability surface of every [`SmrHandle`]
/// (and, via `Deref`, every [`OpGuard`]): typed recorders for writers and
/// a snapshot/counter read surface for consumers. Handles implement the
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

    /// The whole-operation latency histogram (samples only when armed).
    fn op_latency(&self) -> &Histogram {
        self.tele().op_latency()
    }

    /// The `empty()` scan latency histogram (samples only when armed).
    fn scan_latency(&self) -> &Histogram {
        self.tele().scan_latency()
    }

    /// The handle's event ring, if tracing was armed at registration.
    fn events(&self) -> Option<Arc<EventRing>> {
        self.tele().events()
    }

    /// Counts one protection-path fence, attributed to its call site.
    fn record_fence(&mut self, site: FenceSite) {
        self.tele_mut().record_fence(site);
    }

    /// Counts one client node traversal (Fig. 5 denominator).
    fn record_node_traversed(&mut self) {
        self.tele_mut().record_nodes_traversed(1);
    }

    /// Counts `n` client node traversals at once.
    fn record_nodes_traversed(&mut self, n: u64) {
        self.tele_mut().record_nodes_traversed(n);
    }

    /// Traces a custom event through this handle's ring.
    fn trace(&mut self, kind: EventKind, payload: u64) {
        self.tele_mut().trace(kind, payload);
    }

    /// Zeroes counters and histograms (used to scope a measurement window;
    /// the event ring is kept).
    fn reset_telemetry(&mut self) {
        self.tele_mut().reset();
    }
}

// ---------------------------------------------------------------------------
// Snapshot

/// A self-contained, mergeable copy of one handle's telemetry: counters,
/// both latency histograms, and the event-drop count. This is the only
/// read path the bench driver and examples use — `OpStats` fields are no
/// longer touched directly outside the schemes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySnapshot {
    stats: OpStats,
    op_latency: Histogram,
    scan_latency: Histogram,
    events_dropped: u64,
}

impl TelemetrySnapshot {
    /// Merges `other` into `self` (saturating; order-independent).
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        self.stats.merge(&other.stats);
        self.op_latency.merge(&other.op_latency);
        self.scan_latency.merge(&other.scan_latency);
        self.events_dropped = self.events_dropped.saturating_add(other.events_dropped);
    }

    /// Reads one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        counter_of(&self.stats, c)
    }

    /// Protection-path fences.
    pub fn fences(&self) -> u64 {
        self.stats.fences
    }

    /// Fences issued at operation start.
    pub fn fences_start_op(&self) -> u64 {
        self.stats.fences_start_op
    }

    /// Fences issued at operation end.
    pub fn fences_end_op(&self) -> u64 {
        self.stats.fences_end_op
    }

    /// Fences issued by mid-op protection announcements.
    pub fn fences_announce(&self) -> u64 {
        self.stats.fences_announce
    }

    /// Fences issued by hazard-pointer protection stores.
    pub fn fences_hp_protect(&self) -> u64 {
        self.stats.fences_hp_protect
    }

    /// Client node traversals.
    pub fn nodes_traversed(&self) -> u64 {
        self.stats.nodes_traversed
    }

    /// Operations started.
    pub fn ops(&self) -> u64 {
        self.stats.ops
    }

    /// Nodes allocated.
    pub fn allocs(&self) -> u64 {
        self.stats.allocs
    }

    /// Nodes retired.
    pub fn retires(&self) -> u64 {
        self.stats.retires
    }

    /// Nodes reclaimed.
    pub fn frees(&self) -> u64 {
        self.stats.frees
    }

    /// Reclamation passes.
    pub fn empties(&self) -> u64 {
        self.stats.empties
    }

    /// MP hazard-pointer fallback reads.
    pub fn hp_fallback_reads(&self) -> u64 {
        self.stats.hp_fallback_reads
    }

    /// MP `USE_HP` collision allocations.
    pub fn collision_allocs(&self) -> u64 {
        self.stats.collision_allocs
    }

    /// Pool-served node allocations.
    pub fn pool_hits(&self) -> u64 {
        self.stats.pool_hits
    }

    /// System-allocator node allocations.
    pub fn pool_misses(&self) -> u64 {
        self.stats.pool_misses
    }

    /// Scans that grew a scratch buffer.
    pub fn scan_heap_allocs(&self) -> u64 {
        self.stats.scan_heap_allocs
    }

    /// Scans that adopted a peer's published protection snapshot.
    pub fn snapshot_reuses(&self) -> u64 {
        self.stats.snapshot_reuses
    }

    /// Registrations that reused a previously released tid.
    pub fn tid_recycles(&self) -> u64 {
        self.stats.tid_recycles
    }

    /// Wall nanoseconds spent inside `empty()` scans.
    pub fn scan_nanos(&self) -> u64 {
        self.stats.scan_nanos
    }

    /// Backpressure help-scans run on behalf of laggards.
    pub fn help_scans(&self) -> u64 {
        self.stats.help_scans
    }

    /// Bounded backpressure throttle waits on the allocation path.
    pub fn throttle_waits(&self) -> u64 {
        self.stats.throttle_waits
    }

    /// Scan nanoseconds per reclaimed node (amortized reclamation cost).
    pub fn scan_ns_per_free(&self) -> f64 {
        self.stats.scan_ns_per_free()
    }

    /// Fences per traversed node (Fig. 5 y-axis).
    pub fn fences_per_node(&self) -> f64 {
        self.stats.fences_per_node()
    }

    /// Average retired-list length at op start (Fig. 6 y-axis).
    pub fn avg_retired_at_op_start(&self) -> f64 {
        self.stats.avg_retired_at_op_start()
    }

    /// Fraction of node allocations served by the block pool.
    pub fn pool_hit_rate(&self) -> f64 {
        self.stats.pool_hit_rate()
    }

    /// Heap allocations per operation.
    pub fn allocs_per_op(&self) -> f64 {
        self.stats.allocs_per_op()
    }

    /// The whole-operation latency histogram.
    pub fn op_latency(&self) -> &Histogram {
        &self.op_latency
    }

    /// The scan latency histogram.
    pub fn scan_latency(&self) -> &Histogram {
        &self.scan_latency
    }

    /// Events rejected by full rings.
    pub fn events_dropped(&self) -> u64 {
        self.events_dropped
    }
}

// ---------------------------------------------------------------------------
// Per-scheme state

/// One waste-series sample: wasted memory at an instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WasteSample {
    /// Microseconds since the telemetry epoch.
    pub t_micros: u64,
    /// Retired-but-unreclaimed nodes (scheme-wide, incl. orphans).
    pub pending_nodes: u64,
    /// Retired-but-unreclaimed bytes (scheme-wide, incl. orphans).
    pub pending_bytes: u64,
}

struct WasteSlot {
    /// `t_micros + 1`; 0 marks an empty slot.
    stamp: AtomicU64,
    nodes: AtomicU64,
    bytes: AtomicU64,
}

/// A fixed-capacity overwrite ring of [`WasteSample`]s — the Fig. 6 curve
/// as a live time-series. Writers ([`Smr::sample_waste`]) are lock-free
/// (three relaxed stores); readers may observe a torn in-flight sample,
/// which is acceptable for a monitoring series.
///
/// [`Smr::sample_waste`]: crate::Smr::sample_waste
pub struct WasteSeries {
    slots: Box<[WasteSlot]>,
    next: AtomicUsize,
}

/// Samples kept per scheme (oldest overwritten first).
pub const WASTE_SERIES_CAPACITY: usize = 256;

impl WasteSeries {
    fn new() -> WasteSeries {
        WasteSeries {
            slots: (0..WASTE_SERIES_CAPACITY)
                .map(|_| WasteSlot {
                    stamp: AtomicU64::new(0),
                    nodes: AtomicU64::new(0),
                    bytes: AtomicU64::new(0),
                })
                .collect(),
            next: AtomicUsize::new(0),
        }
    }

    /// Appends a sample (overwrites the oldest once full). Allocation-free.
    pub fn record(&self, pending_nodes: u64, pending_bytes: u64) {
        let i = self.next.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        let slot = &self.slots[i];
        slot.stamp.store(now_micros().saturating_add(1), Ordering::Relaxed);
        slot.nodes.store(pending_nodes, Ordering::Relaxed);
        slot.bytes.store(pending_bytes, Ordering::Relaxed);
    }

    /// The retained samples in chronological order.
    pub fn samples(&self) -> Vec<WasteSample> {
        let mut out: Vec<WasteSample> = self
            .slots
            .iter()
            .filter_map(|s| {
                let stamp = s.stamp.load(Ordering::Relaxed);
                if stamp == 0 {
                    return None;
                }
                Some(WasteSample {
                    t_micros: stamp - 1,
                    pending_nodes: s.nodes.load(Ordering::Relaxed),
                    pending_bytes: s.bytes.load(Ordering::Relaxed),
                })
            })
            .collect();
        out.sort_by_key(|s| s.t_micros);
        out
    }

    /// The most recent sample, if any were recorded.
    pub fn latest(&self) -> Option<WasteSample> {
        self.samples().into_iter().next_back()
    }
}

/// Scheme-wide telemetry: the pending-waste gauge every scheme already
/// kept (now tracking bytes alongside nodes), the waste time-series, and
/// the backpressure ladder state. Returned by
/// [`Smr::telemetry`](crate::Smr::telemetry).
pub struct SchemeTelemetry {
    pub(crate) pending: PendingGauge,
    waste: WasteSeries,
    backpressure: crate::backpressure::BackpressureState,
}

impl Default for SchemeTelemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl SchemeTelemetry {
    /// Fresh state (constructed by each scheme's `new`).
    pub fn new() -> SchemeTelemetry {
        SchemeTelemetry {
            pending: PendingGauge::default(),
            waste: WasteSeries::new(),
            backpressure: crate::backpressure::BackpressureState::new(),
        }
    }

    /// Retired-but-unreclaimed nodes right now (the paper's wasted
    /// memory), including orphans.
    pub fn pending(&self) -> usize {
        self.pending.get()
    }

    /// Retired-but-unreclaimed payload bytes right now, for this scheme
    /// instance only (orphans included). This is the gauge backpressure
    /// decisions read.
    pub fn pending_bytes(&self) -> usize {
        self.pending.bytes()
    }

    /// The waste time-series.
    pub fn waste(&self) -> &WasteSeries {
        &self.waste
    }

    /// The backpressure ladder state: current rung plus engagement /
    /// release counters (see [`crate::backpressure`]).
    pub fn backpressure(&self) -> &crate::backpressure::BackpressureState {
        &self.backpressure
    }
}

// ---------------------------------------------------------------------------
// Background sampler

/// A background thread that periodically calls
/// [`Smr::sample_waste`](crate::Smr::sample_waste), turning the Fig. 6
/// wasted-memory metric into a live curve without any instrumentation in
/// the workload. Stops and joins on drop.
pub struct WasteSampler {
    stop: Arc<std::sync::atomic::AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl WasteSampler {
    /// Samples `smr`'s waste gauge every `interval` until dropped.
    pub fn spawn<S: crate::Smr>(smr: Arc<S>, interval: std::time::Duration) -> WasteSampler {
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let join = std::thread::spawn(move || {
            while !flag.load(Ordering::Acquire) {
                smr.sample_waste();
                std::thread::sleep(interval);
            }
        });
        WasteSampler { stop, join: Some(join) }
    }
}

impl Drop for WasteSampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_record_is_16_bytes_and_round_trips() {
        assert_eq!(core::mem::size_of::<EventRecord>(), 16);
        let r = EventRecord::new(123_456, EventKind::HpFallback, 7, 0xdead_beef);
        assert_eq!(r.t_micros(), 123_456);
        assert_eq!(r.kind(), Some(EventKind::HpFallback));
        assert_eq!(r.tid(), 7);
        assert_eq!(r.payload, 0xdead_beef);
        // Timestamp truncates to 40 bits without corrupting kind/tid.
        let far = EventRecord::new(u64::MAX, EventKind::Alloc, u16::MAX, 1);
        assert_eq!(far.t_micros(), TS_MASK);
        assert_eq!(far.kind(), Some(EventKind::Alloc));
        assert_eq!(far.tid(), u16::MAX);
    }

    #[test]
    fn recorders_map_to_counters() {
        let mut t = HandleTelemetry::new(3);
        t.record_fence(FenceSite::StartOp);
        t.record_op_start(5);
        t.record_op_start(7);
        t.record_alloc();
        t.record_retire(0x10);
        t.record_free(0x10);
        t.record_empty();
        t.record_hp_fallback(0x20);
        t.record_collision_alloc(9);
        t.record_pool_hit(0x30);
        t.record_pool_miss(0x40);
        t.record_nodes_traversed(4);
        t.record_scan_heap_alloc();
        t.record_snapshot_reuse();
        t.record_tid_recycle();
        t.record_scan_nanos(500);
        t.record_help_scan();
        t.record_throttle_wait();
        t.record_fence(FenceSite::EndOp);
        t.record_fence(FenceSite::Announce);
        t.record_fence(FenceSite::Announce);
        t.record_fence(FenceSite::HpProtect);
        assert_eq!(t.counter(Counter::Fences), 5);
        assert_eq!(t.counter(Counter::FencesStartOp), 1);
        assert_eq!(t.counter(Counter::FencesEndOp), 1);
        assert_eq!(t.counter(Counter::FencesAnnounce), 2);
        assert_eq!(t.counter(Counter::FencesHpProtect), 1);
        assert_eq!(t.counter(Counter::Ops), 2);
        assert_eq!(t.counter(Counter::RetiredSampledSum), 12);
        assert_eq!(t.counter(Counter::Allocs), 1);
        assert_eq!(t.counter(Counter::Retires), 1);
        assert_eq!(t.counter(Counter::Frees), 1);
        assert_eq!(t.counter(Counter::Empties), 1);
        assert_eq!(t.counter(Counter::HpFallbackReads), 1);
        assert_eq!(t.counter(Counter::CollisionAllocs), 1);
        assert_eq!(t.counter(Counter::PoolHits), 1);
        assert_eq!(t.counter(Counter::PoolMisses), 1);
        assert_eq!(t.counter(Counter::NodesTraversed), 4);
        assert_eq!(t.counter(Counter::ScanHeapAllocs), 1);
        assert_eq!(t.counter(Counter::SnapshotReuses), 1);
        assert_eq!(t.counter(Counter::TidRecycles), 1);
        assert_eq!(t.counter(Counter::ScanNanos), 500);
        assert_eq!(t.counter(Counter::HelpScans), 1);
        assert_eq!(t.counter(Counter::ThrottleWaits), 1);

        let mut snap = t.snapshot();
        snap.merge(&t.snapshot());
        assert_eq!(snap.ops(), 4);
        assert_eq!(snap.counter(Counter::RetiredSampledSum), 24);

        t.reset();
        assert_eq!(t.counter(Counter::Ops), 0);
        assert_eq!(t.op_latency().count(), 0);
    }

    #[test]
    fn hp_fallback_traces_are_sampled() {
        let mut t = HandleTelemetry::new(1);
        t.ring = Some(Arc::new(EventRing::new(1024)));
        for i in 0..(3 * HP_FALLBACK_SAMPLE) {
            t.record_hp_fallback(i);
        }
        assert_eq!(t.counter(Counter::HpFallbackReads), 3 * HP_FALLBACK_SAMPLE);
        let ring = t.events().expect("ring installed");
        let mut traced = 0u64;
        ring.drain(|rec| {
            assert_eq!(rec.kind(), Some(EventKind::HpFallback));
            traced += 1;
        });
        assert_eq!(traced, 3, "exactly one trace per {HP_FALLBACK_SAMPLE} fallback reads");
    }

    #[test]
    fn waste_series_retains_in_order_and_overwrites() {
        let w = WasteSeries::new();
        assert!(w.samples().is_empty());
        assert_eq!(w.latest(), None);
        for i in 0..(WASTE_SERIES_CAPACITY as u64 + 10) {
            w.record(i, i * 64);
        }
        let samples = w.samples();
        assert_eq!(samples.len(), WASTE_SERIES_CAPACITY, "ring overwrites, never grows");
        // Chronological and the newest value survived.
        for pair in samples.windows(2) {
            assert!(pair[0].t_micros <= pair[1].t_micros);
        }
        assert!(samples.iter().any(|s| s.pending_nodes == WASTE_SERIES_CAPACITY as u64 + 9));
        assert_eq!(w.latest().unwrap().pending_bytes % 64, 0);
    }

    #[test]
    fn counter_names_are_stable_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for c in Counter::ALL {
            assert!(seen.insert(c.name()), "duplicate counter name {}", c.name());
        }
        assert_eq!(seen.len(), 22);
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
