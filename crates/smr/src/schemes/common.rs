//! Shared building blocks for scheme implementations.

use core::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};

use crate::api::Config;
use crate::telemetry::{FenceSite, HandleTelemetry};

/// Sentinel announced-epoch value meaning "thread not inside an operation".
pub const INACTIVE: u64 = u64::MAX;

/// Sentinel hazard-slot value meaning "no node protected".
pub const NO_HAZARD: u64 = 0;

/// Sentinel margin-slot value meaning "no interval protected"
/// (Listing 10's `NO_MARGIN`, widened to the u64 slot width).
pub const NO_MARGIN: u64 = u64::MAX;

/// Issues a full sequentially consistent fence and counts it (Figure 5),
/// attributed to the issuing call site for the per-site fence breakdown.
#[inline]
pub fn counted_fence(tele: &mut HandleTelemetry, site: FenceSite) {
    fence(Ordering::SeqCst);
    #[cfg(feature = "hb-oracle")]
    crate::hb::on_fence_sc();
    tele.record_fence(site);
}

/// True if some value of `sorted` lies in `[lo, hi]` — HE's "an announced
/// era inside the node's lifetime", MP's "a margin midpoint within half a
/// margin of the node's precision block".
#[inline]
pub fn interval_hit(sorted: &[u64], lo: u64, hi: u64) -> bool {
    let i = sorted.partition_point(|&v| v < lo);
    i < sorted.len() && sorted[i] <= hi
}

/// Global gauge shared by every scheme instance: retired-but-unreclaimed
/// node count and payload bytes (the paper's wasted memory).
///
/// Both dimensions are kept on the *scheme* (not process-wide like
/// [`crate::node::gauge`]) so waste sampling and the byte scan watermark
/// attribute memory to the scheme that actually holds it — several scheme
/// instances in one process (the conformance matrix, the bench harness) no
/// longer read each other's bytes.
#[derive(Default)]
pub struct PendingGauge {
    nodes: AtomicUsize,
    bytes: AtomicUsize,
}

impl PendingGauge {
    /// Records `n` newly retired nodes carrying `bytes` total payload.
    #[inline]
    pub fn add(&self, n: usize, bytes: usize) {
        self.nodes.fetch_add(n, Ordering::AcqRel);
        self.bytes.fetch_add(bytes, Ordering::AcqRel);
    }

    /// Records `n` reclaimed nodes releasing `bytes` total payload.
    #[inline]
    pub fn sub(&self, n: usize, bytes: usize) {
        self.nodes.fetch_sub(n, Ordering::AcqRel);
        self.bytes.fetch_sub(bytes, Ordering::AcqRel);
    }

    /// Current wasted-memory count in nodes.
    #[inline]
    pub fn get(&self) -> usize {
        self.nodes.load(Ordering::Acquire)
    }

    /// Current wasted-memory total in bytes.
    #[inline]
    pub fn bytes(&self) -> usize {
        self.bytes.load(Ordering::Acquire)
    }
}

/// When a scheme's next reclamation scan should run, derived from
/// [`Config`] once at scheme construction (paper §3.1 discussion of HP's
/// `empty` cadence, generalized).
///
/// The adaptive trigger replaces the historical "every `empty_freq`
/// retires" cadence with HP's classical watermark rule: scan when the
/// handle's retired list reaches `k × H` entries (`H = max_threads ×
/// slots_per_thread`, `k = 2`), so scan *frequency* tracks the retire rate
/// while scan *cost* (a `T×H` slot walk) is amortized over at least `k×H`
/// retirees — the per-free scan cost becomes a constant instead of growing
/// linearly with thread count. `empty_freq` survives as the re-arm floor:
/// when a scan cannot shrink the list (a stalled reader pins everything),
/// the next scan waits for at least `empty_freq` further retires instead of
/// thrashing on every retire.
///
/// A second, optional threshold bounds memory rather than scan cost: with
/// `watermark_bytes` set, a handle also scans early once the scheme-wide
/// retired-bytes gauge reaches it, still at most once per `empty_freq` of
/// its own retires. Under a stalled reader the other threads' retirements
/// then pay for scans as soon as the scheme holds too much, instead of
/// each waiting for its own list to reach `k × H`.
#[derive(Debug, Clone)]
pub struct ScanPolicy {
    /// Retired-node count per handle that triggers a scan.
    pub watermark_nodes: usize,
    /// Scheme-wide retired bytes that trigger an early scan
    /// (`Config::scan_watermark_bytes`; 0 = off).
    pub watermark_bytes: usize,
    /// Minimum additional retires between consecutive scans when the
    /// retired list is not shrinking (`Config::empty_freq`).
    pub rearm_floor: usize,
}

impl ScanPolicy {
    /// Resolves the effective policy: the explicit `Config::scan_watermark`
    /// if set, else the `k × H` auto rule.
    pub fn from_config(cfg: &Config) -> Self {
        let nodes = match cfg.scan_watermark {
            0 => cfg.empty_freq.max(2 * cfg.max_threads * cfg.slots_per_thread),
            n => n,
        };
        ScanPolicy {
            watermark_nodes: nodes,
            watermark_bytes: cfg.scan_watermark_bytes,
            rearm_floor: cfg.empty_freq,
        }
    }
}

/// Per-handle trigger state for [`ScanPolicy`]; owned by the handle, so no
/// atomics are involved on the retire path unless the byte watermark is
/// set.
#[derive(Debug)]
pub struct ScanState {
    /// Retired-list length at which the node watermark fires.
    next_len: usize,
    /// Retired-list length below which the byte watermark may not fire:
    /// what the last scan kept plus `rearm_floor`.
    floor_len: usize,
}

impl ScanState {
    /// Initial state: the first scan is due at the configured watermark.
    /// A handle that adopts an orphan backlog needs no seeding —
    /// [`ScanState::due`] reads the retired list length directly.
    pub fn new(policy: &ScanPolicy) -> Self {
        ScanState { next_len: policy.watermark_nodes, floor_len: policy.rearm_floor }
    }

    /// True when a reclamation scan is due: the list reached the node
    /// watermark, or the byte watermark is set, `pending_bytes()` (the
    /// scheme-wide gauge, read only then) has reached it, and the list
    /// grew by `rearm_floor` since the last scan.
    #[inline]
    pub fn due(
        &self,
        policy: &ScanPolicy,
        retired_len: usize,
        pending_bytes: impl FnOnce() -> usize,
    ) -> bool {
        retired_len >= self.next_len
            || (policy.watermark_bytes != 0
                && retired_len >= self.floor_len
                && pending_bytes() >= policy.watermark_bytes)
    }

    /// Re-arms the trigger after a scan that kept `kept_len` nodes: the
    /// next scan fires at the watermark, or — when a pinned backlog
    /// already exceeds it — after at least `rearm_floor` further retires,
    /// so a stalled reader costs one slot walk per `empty_freq` retires
    /// instead of one per retire. The byte watermark waits for the same
    /// `rearm_floor` retires.
    pub fn rearm(&mut self, policy: &ScanPolicy, kept_len: usize) {
        self.floor_len = kept_len + policy.rearm_floor;
        self.next_len = policy.watermark_nodes.max(self.floor_len);
    }
}

/// A monotone global epoch/era clock.
#[derive(Default)]
pub struct EpochClock(AtomicU64);

impl EpochClock {
    /// Creates a clock starting at 1 (0 is reserved so that "birth 0" can
    /// never equal a post-increment retire stamp in edge cases).
    pub fn new() -> Self {
        EpochClock(AtomicU64::new(1))
    }

    /// Reads the current epoch.
    #[inline]
    pub fn now(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }

    /// Advances the clock by one.
    #[inline]
    pub fn advance(&self) -> u64 {
        self.0.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Counts one event on `counter` and advances the clock on every
    /// `freq`-th (the paper's per-thread `epoch_freq` cadence).
    #[inline]
    pub fn tick(&self, counter: &mut usize, freq: usize) {
        *counter += 1;
        if counter.is_multiple_of(freq) {
            self.advance();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::Counter;

    #[test]
    fn clock_monotone() {
        let c = EpochClock::new();
        let a = c.now();
        let b = c.advance();
        assert!(b > a);
        assert_eq!(c.now(), b);
    }

    #[test]
    fn interval_hit_logic() {
        assert!(interval_hit(&[5], 5, 5));
        assert!(interval_hit(&[3, 9], 4, 9));
        assert!(!interval_hit(&[3, 9], 4, 8));
        assert!(!interval_hit(&[], 0, u64::MAX));
        assert!(interval_hit(&[0], 0, 0));
        assert!(!interval_hit(&[10], 0, 9));
        assert!(!interval_hit(&[10], 11, 20));
    }

    #[test]
    fn gauge_add_sub() {
        let g = PendingGauge::default();
        g.add(5, 320);
        g.sub(2, 128);
        assert_eq!(g.get(), 3);
        assert_eq!(g.bytes(), 192);
    }

    #[test]
    fn scan_policy_auto_derives_k_times_h() {
        let cfg = Config::default().with_max_threads(4).with_slots_per_thread(8);
        let p = ScanPolicy::from_config(&cfg);
        assert_eq!(p.watermark_nodes, 2 * 4 * 8, "k·H with k = 2");
        assert_eq!(p.rearm_floor, cfg.empty_freq);
        assert_eq!(p.watermark_bytes, 0);
        let p = ScanPolicy::from_config(&cfg.clone().with_scan_watermark_bytes(4096));
        assert_eq!(p.watermark_bytes, 4096);

        // Explicit knob wins over the auto rule; empty_freq floors the auto
        // rule when it exceeds k·H.
        let p = ScanPolicy::from_config(&cfg.clone().with_scan_watermark(7));
        assert_eq!(p.watermark_nodes, 7);
        let p = ScanPolicy::from_config(&cfg.with_empty_freq(1000));
        assert_eq!(p.watermark_nodes, 1000);
    }

    #[test]
    fn scan_state_triggers_at_watermark_and_rearms_under_pinning() {
        let cfg = Config::default().with_max_threads(1).with_slots_per_thread(2);
        let p = ScanPolicy::from_config(&cfg); // watermark = max(30, 4) = 30
        assert_eq!(p.watermark_bytes, 0, "byte watermark off by default");
        let mut s = ScanState::new(&p);
        let unread = || -> usize { panic!("the gauge is read only when the byte watermark is set") };
        for len in 1..30 {
            assert!(!s.due(&p, len, unread), "below watermark at len {len}");
        }
        assert!(s.due(&p, 30, unread), "watermark reached");
        // Scan kept everything (stalled reader): next scan waits a full
        // rearm_floor of retires, not one.
        s.rearm(&p, 30);
        for len in 30..60 {
            assert!(!s.due(&p, len, unread), "inside rearm window at len {len}");
        }
        assert!(s.due(&p, 60, unread), "rearm floor elapsed");
        // Scan freed everything: back to the plain watermark.
        s.rearm(&p, 0);
        assert!(!s.due(&p, 29, unread));
        assert!(s.due(&p, 30, unread));
        // Off, the byte watermark never fires, however full the gauge.
        assert!(!s.due(&p, 29, || usize::MAX));

        // Byte watermark 1000, node watermark 2·4·8 = 64, re-arm floor 10.
        let cfg = cfg.with_max_threads(4).with_slots_per_thread(8).with_empty_freq(10);
        let p = ScanPolicy::from_config(&cfg.with_scan_watermark_bytes(1000));
        let mut s = ScanState::new(&p);
        // Below the bytes watermark only the node watermark fires.
        assert!(!s.due(&p, 63, || 999));
        assert!(s.due(&p, 64, || 0));
        // At the bytes watermark a scan fires below the node watermark,
        // once the list holds `rearm_floor` nodes.
        assert!(!s.due(&p, 9, || 1000));
        assert!(s.due(&p, 10, || 1000));
        // An all-kept scan of 5 nodes: the gauge stays high, but the next
        // scan waits `rearm_floor` more retires.
        s.rearm(&p, 5);
        for len in 5..15 {
            assert!(!s.due(&p, len, || usize::MAX), "inside rearm window at len {len}");
        }
        assert!(s.due(&p, 15, || 1000));
        assert!(!s.due(&p, 15, || 999), "gauge back under the watermark");
    }

    #[test]
    fn fence_counted() {
        let mut t = HandleTelemetry::new();
        counted_fence(&mut t, FenceSite::StartOp);
        counted_fence(&mut t, FenceSite::Announce);
        assert_eq!(t.counter(Counter::Fences), 2);
        assert_eq!(t.counter(Counter::FencesStartOp), 1);
        assert_eq!(t.counter(Counter::FencesAnnounce), 1);
    }
}
