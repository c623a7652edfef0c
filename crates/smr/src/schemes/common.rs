//! Shared building blocks for scheme implementations.

use core::sync::atomic::{fence, AtomicU64, Ordering};

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

/// When a scheme's next reclamation scan should run, derived from
/// [`Config`] once at scheme construction (paper §3.1 discussion of HP's
/// `empty` cadence, generalized).
///
/// HP's classical watermark rule: scan when the handle's retired list
/// reaches `k × H` entries (`H = max_threads × slots_per_thread`, `k = 2`),
/// so scan *frequency* tracks the retire rate while scan *cost* (a `T×H`
/// slot walk) is amortized over at least `k×H` retirees — the per-free
/// scan cost stays constant instead of growing linearly with thread
/// count. `empty_freq` floors the watermark and is the re-arm floor: when
/// a scan cannot shrink the list (a stalled reader pins everything), the
/// next scan waits for at least `empty_freq` further retires instead of
/// thrashing on every retire.
#[derive(Debug, Clone)]
pub struct ScanPolicy {
    /// Retired-node count per handle that triggers a scan:
    /// `max(empty_freq, 2 · max_threads · slots_per_thread)`.
    pub watermark: usize,
    /// Minimum additional retires between consecutive scans when the
    /// retired list is not shrinking (`Config::empty_freq`).
    pub rearm_floor: usize,
}

impl ScanPolicy {
    /// Derives the policy from the configuration.
    pub fn from_config(cfg: &Config) -> Self {
        ScanPolicy {
            watermark: cfg.empty_freq.max(2 * cfg.max_threads * cfg.slots_per_thread),
            rearm_floor: cfg.empty_freq,
        }
    }
}

/// Per-handle trigger state for [`ScanPolicy`]; owned by the handle, so no
/// atomics are involved on the retire path.
#[derive(Debug)]
pub struct ScanState {
    /// Retired-list length at which the next scan fires.
    next_len: usize,
}

impl ScanState {
    /// Initial state: the first scan is due at the watermark. A handle
    /// that adopts an orphan backlog needs no seeding — [`ScanState::due`]
    /// reads the retired list length directly.
    pub fn new(policy: &ScanPolicy) -> Self {
        ScanState { next_len: policy.watermark }
    }

    /// True when a reclamation scan is due.
    #[inline]
    pub fn due(&self, retired_len: usize) -> bool {
        retired_len >= self.next_len
    }

    /// Re-arms the trigger after a scan that kept `kept_len` nodes: the
    /// next scan fires at the watermark, or — when a pinned backlog
    /// already exceeds it — after at least `rearm_floor` further retires,
    /// so a stalled reader costs one slot walk per `empty_freq` retires
    /// instead of one per retire.
    pub fn rearm(&mut self, policy: &ScanPolicy, kept_len: usize) {
        self.next_len = policy.watermark.max(kept_len + policy.rearm_floor);
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
    fn scan_policy_derives_k_times_h_floored_by_empty_freq() {
        let cfg = Config::default().with_max_threads(4).with_slots_per_thread(8);
        let p = ScanPolicy::from_config(&cfg);
        assert_eq!(p.watermark, 2 * 4 * 8, "k·H with k = 2");
        assert_eq!(p.rearm_floor, cfg.empty_freq);
        let p = ScanPolicy::from_config(&cfg.with_empty_freq(1000));
        assert_eq!(p.watermark, 1000, "empty_freq floors the watermark");
    }

    #[test]
    fn scan_state_triggers_at_watermark_and_rearms_under_pinning() {
        let cfg = Config::default().with_max_threads(1).with_slots_per_thread(2);
        let p = ScanPolicy::from_config(&cfg); // watermark = max(30, 4) = 30
        let mut s = ScanState::new(&p);
        for len in 1..30 {
            assert!(!s.due(len), "below watermark at len {len}");
        }
        assert!(s.due(30), "watermark reached");
        // Scan kept everything (stalled reader): next scan waits a full
        // rearm_floor of retires, not one.
        s.rearm(&p, 30);
        for len in 30..60 {
            assert!(!s.due(len), "inside rearm window at len {len}");
        }
        assert!(s.due(60), "rearm floor elapsed");
        // Scan freed everything: back to the plain watermark.
        s.rearm(&p, 0);
        assert!(!s.due(29));
        assert!(s.due(30));

        // Watermark 2·4·8 = 64, re-arm floor 10: a scan that kept 5 re-arms
        // at the watermark, one that kept 60 at 60 + 10.
        let p = ScanPolicy::from_config(
            &cfg.with_max_threads(4).with_slots_per_thread(8).with_empty_freq(10),
        );
        s.rearm(&p, 5);
        assert!(!s.due(63) && s.due(64));
        s.rearm(&p, 60);
        assert!(!s.due(69) && s.due(70));
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
