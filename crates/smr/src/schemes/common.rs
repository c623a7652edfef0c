//! Shared building blocks for scheme implementations.

use core::sync::atomic::{fence, AtomicU64, Ordering};

use crate::api::Config;
use crate::packed::{Atomic, Shared};
use crate::registry::SlotArray;
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

/// One handle's row of a [`SlotArray`] whose idle value is `IDLE`, and the
/// handle's mirror of it: the per-read announce step of HP, HE, IBR and
/// MP's hazard fallback, written once. Only this handle writes the row, so
/// the mirror is exact; `dirty` says some slot may be non-idle.
pub struct MirroredRow<const IDLE: u64> {
    tid: usize,
    mirror: Box<[u64]>,
    dirty: bool,
}

impl<const IDLE: u64> MirroredRow<IDLE> {
    /// Mirrors row `tid` of `slots`, which must be idle.
    pub fn new(slots: &SlotArray, tid: usize) -> Self {
        MirroredRow { tid, mirror: vec![IDLE; slots.row(tid).len()].into(), dirty: false }
    }

    /// Publishes `value` in `slot` — a Release store, then a SeqCst fence
    /// counted at `site` — unless it stands there already, fenced when it
    /// was stored. Returns whether it stored.
    #[inline]
    pub fn announce(
        &mut self,
        slots: &SlotArray,
        tele: &mut HandleTelemetry,
        slot: usize,
        value: u64,
        site: FenceSite,
    ) -> bool {
        if self.mirror[slot] == value {
            return false;
        }
        slots.get(self.tid, slot).store(value, Ordering::Release);
        self.mirror[slot] = value;
        self.dirty = true;
        counted_fence(tele, site);
        true
    }

    /// Hazard-pointer protection of non-null `w` (§3.1): announce its
    /// address, then validate that `src` still holds `w`, so the node was
    /// linked when the announcement became visible. A failed validation
    /// returns the re-read word, the caller's next candidate.
    #[inline]
    pub fn protect<T: Send + Sync>(
        &mut self,
        slots: &SlotArray,
        tele: &mut HandleTelemetry,
        slot: usize,
        src: &Atomic<T>,
        w: Shared<T>,
    ) -> Result<Shared<T>, Shared<T>> {
        let addr = w.addr();
        if self.mirror[slot] != addr {
            // Hb-oracle: the overwritten slot's claim dies; the new one is
            // recorded only once validated.
            #[cfg(feature = "hb-oracle")]
            crate::hb::on_unprotect(slot);
            self.announce(slots, tele, slot, addr, FenceSite::HpProtect);
            let now = src.load(Ordering::Acquire);
            if now != w {
                return Err(now);
            }
        }
        // Hb-oracle: validated by the re-read above or, for a standing
        // address, by the caller's load of `w`, made after its fence.
        #[cfg(feature = "hb-oracle")]
        crate::hb::on_protect(Some(slot), addr);
        Ok(w)
    }

    /// Withdraws `slot`'s announcement, unfenced: a scan that still sees
    /// it only keeps a node one scan longer.
    #[inline]
    pub fn withdraw(&mut self, slots: &SlotArray, slot: usize) {
        slots.get(self.tid, slot).store(IDLE, Ordering::Release);
        self.mirror[slot] = IDLE;
        #[cfg(feature = "hb-oracle")]
        crate::hb::on_unprotect(slot);
    }

    /// Withdraws the whole row, unfenced, if anything was announced since
    /// the last clear.
    #[inline]
    pub fn clear(&mut self, slots: &SlotArray) {
        if self.dirty {
            slots.clear_row(self.tid);
            self.mirror.fill(IDLE);
            self.dirty = false;
        }
    }
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

    /// A row of `slots` slots for tid 1 of a two-thread hazard array.
    fn hazard_row(slots: usize) -> (SlotArray, MirroredRow<NO_HAZARD>, HandleTelemetry) {
        let array = SlotArray::new(2, slots, NO_HAZARD);
        let row = MirroredRow::new(&array, 1);
        (array, row, HandleTelemetry::new())
    }

    #[test]
    fn re_announcing_the_standing_value_neither_stores_nor_fences() {
        let array = SlotArray::new(2, 3, INACTIVE);
        let mut row = MirroredRow::<INACTIVE>::new(&array, 1);
        let mut t = HandleTelemetry::new();
        assert!(row.announce(&array, &mut t, 2, 7, FenceSite::Announce));
        assert_eq!(array.get(1, 2).load(Ordering::Relaxed), 7);
        assert_eq!(t.counter(Counter::FencesAnnounce), 1);
        // Overwrite the slot behind the mirror's back, so a second store
        // would show.
        array.get(1, 2).store(99, Ordering::Relaxed);
        assert!(!row.announce(&array, &mut t, 2, 7, FenceSite::Announce));
        assert_eq!(array.get(1, 2).load(Ordering::Relaxed), 99, "the standing value was stored again");
        assert_eq!(t.counter(Counter::Fences), 1, "the standing value was fenced again");
        // A new value stores and fences.
        assert!(row.announce(&array, &mut t, 2, 8, FenceSite::Announce));
        assert_eq!(array.get(1, 2).load(Ordering::Relaxed), 8);
        assert_eq!(t.counter(Counter::Fences), 2);
    }

    #[test]
    fn failed_protect_returns_the_re_read_word() {
        let (array, mut row, mut t) = hazard_row(2);
        let (a, b) = (Shared::<u64>::from_word(0x1000), Shared::from_word(0x2000));
        // The candidate `a` was loaded before `src` moved on to `b`.
        let src = Atomic::new(b);
        assert_eq!(row.protect(&array, &mut t, 1, &src, a), Err(b));
        assert_eq!(array.get(1, 1).load(Ordering::Relaxed), 0x1000, "the candidate was announced");
        assert_eq!(t.counter(Counter::FencesHpProtect), 1);
        // The re-read word is the next candidate, and it validates.
        assert_eq!(row.protect(&array, &mut t, 1, &src, b), Ok(b));
        assert_eq!(array.get(1, 1).load(Ordering::Relaxed), 0x2000);
        assert_eq!(t.counter(Counter::FencesHpProtect), 2);
        // Once it stands, protecting it again costs no fence.
        assert_eq!(row.protect(&array, &mut t, 1, &src, b), Ok(b));
        assert_eq!(t.counter(Counter::Fences), 2);
    }

    #[test]
    fn clear_after_withdrawing_every_slot_leaves_the_row_idle() {
        let (array, mut row, mut t) = hazard_row(3);
        for (slot, addr) in [0x100, 0x200, 0x300].into_iter().enumerate() {
            assert!(row.announce(&array, &mut t, slot, addr, FenceSite::HpProtect));
        }
        for slot in 0..3 {
            row.withdraw(&array, slot);
        }
        row.clear(&array);
        assert!(array.row(1).iter().all(|s| s.load(Ordering::Relaxed) == NO_HAZARD));
        assert!(row.mirror.iter().all(|&v| v == NO_HAZARD) && !row.dirty, "the mirror is idle too");
        // The mirror forgot the old values: announcing one stores and fences.
        assert!(row.announce(&array, &mut t, 0, 0x100, FenceSite::HpProtect));
        assert_eq!(t.counter(Counter::Fences), 4);
    }

    #[test]
    fn clear_with_nothing_announced_touches_no_slot() {
        let (array, mut row, mut t) = hazard_row(2);
        // A value the clear would overwrite if it stored anything.
        array.get(1, 0).store(0x40, Ordering::Relaxed);
        row.clear(&array);
        assert_eq!(array.get(1, 0).load(Ordering::Relaxed), 0x40, "an idle row's clear stored");
        // After an announcement the clear runs, and the row is idle again.
        row.announce(&array, &mut t, 1, 0x80, FenceSite::HpProtect);
        row.clear(&array);
        assert!(array.row(1).iter().all(|s| s.load(Ordering::Relaxed) == NO_HAZARD));
        array.get(1, 0).store(0x40, Ordering::Relaxed);
        row.clear(&array);
        assert_eq!(array.get(1, 0).load(Ordering::Relaxed), 0x40, "a cleared row's clear stored");
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
