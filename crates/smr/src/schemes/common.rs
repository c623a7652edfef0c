//! Shared building blocks for scheme implementations.

use core::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};

use mp_util::CachePadded;

use crate::api::Config;
use crate::telemetry::{Counter, FenceSite, HandleTelemetry};

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

/// Global gauge shared by every scheme instance: retired-but-unreclaimed
/// node count and payload bytes (the paper's wasted memory).
///
/// Both dimensions are kept on the *scheme* (not process-wide like
/// [`crate::node::gauge`]) so waste sampling and backpressure decisions
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
#[derive(Debug, Clone)]
pub struct ScanPolicy {
    /// Retired-node count per handle that triggers a scan.
    pub watermark_nodes: usize,
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
        ScanPolicy { watermark_nodes: nodes, rearm_floor: cfg.empty_freq.max(1) }
    }
}

/// Per-handle trigger state for [`ScanPolicy`]; owned by the handle, so no
/// atomics are involved on the retire path.
#[derive(Debug)]
pub struct ScanState {
    next_len: usize,
}

impl ScanState {
    /// Initial state: the first scan is due at the configured watermark.
    /// A handle that adopts an orphan backlog needs no seeding —
    /// [`ScanState::due`] reads the retired list length directly.
    pub fn new(policy: &ScanPolicy) -> Self {
        ScanState { next_len: policy.watermark_nodes }
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
        self.next_len = policy.watermark_nodes.max(kept_len + policy.rearm_floor);
    }
}

/// A version-stamped shared protection snapshot (hazard addresses for HP,
/// announced eras for HE), published by whichever handle scanned last and
/// adopted by peers whose scan begins before any protection-slot
/// generation bump — those peers skip the `T×H` slot walk entirely.
///
/// # Soundness (see DESIGN.md "Scan scalability")
///
/// A stale snapshot may only **over**-approximate the protected set. The
/// per-thread generation counters enforce this: every protection-announcing
/// store bumps the announcing thread's generation (release-ordered, before
/// that thread's validation fence), and an adopter compares the generation
/// vector it loads *after its own scan fence* with the vector stored at
/// publish time. Equality proves no protection was announced-and-validated
/// between the publisher's fence and the adopter's fence, so the snapshot
/// can only contain protections that have since been *released* — retaining
/// too much, never freeing too little. Any mismatch (or a concurrent
/// publish, detected by the seqlock version) rejects reuse and falls back
/// to a fresh walk.
pub struct SharedSnapshot {
    /// Seqlock word: odd while a publisher is writing.
    version: AtomicU64,
    /// Per-thread protection generations (single writer each; padded so
    /// the hot-path bump never false-shares).
    gens: Box<[CachePadded<AtomicU64>]>,
    /// Generation vector captured by the publisher before its slot walk.
    snap_gens: Box<[AtomicU64]>,
    /// Published snapshot length.
    len: AtomicUsize,
    /// Published sorted snapshot values (capacity `threads × slots`).
    data: Box<[AtomicU64]>,
}

/// A scanning handle's retained buffers for [`SharedSnapshot::fill`]:
/// refilled in place, so steady-state scans allocate nothing.
#[derive(Default)]
pub struct SnapshotScratch {
    /// The sorted protected set (hazard addresses / announced eras) the
    /// current scan judges retired nodes against.
    pub values: Vec<u64>,
    /// Generation vector loaded after the scan fence.
    gens: Vec<u64>,
    /// True if the previous scan adopted the shared snapshot. A handle
    /// never adopts twice in a row: releases (unprotect/end_op/drop) do not
    /// bump generations, so the forced fresh walk bounds how long a
    /// released protection can linger in an adopted snapshot.
    adopted_last: bool,
}

impl SnapshotScratch {
    /// Combined buffer capacity (growth across a scan = a heap allocation).
    pub fn capacity(&self) -> usize {
        self.values.capacity() + self.gens.capacity()
    }
}

impl SharedSnapshot {
    /// Fills `scratch.values` with the sorted protected set, after the
    /// caller's scan fence: adopts the published snapshot when `allow_adopt`
    /// and its generation vector still equals the one loaded here — no
    /// protection was announced-and-validated since that snapshot's walk,
    /// so it only over-approximates (see the type docs) — and otherwise
    /// runs `walk` over the live slots and publishes the result.
    pub fn fill(
        &self,
        scratch: &mut SnapshotScratch,
        allow_adopt: bool,
        tele: &mut HandleTelemetry,
        walk: impl Fn(&mut Vec<u64>),
    ) {
        self.load_gens_into(&mut scratch.gens);
        let adopted = allow_adopt
            && !scratch.adopted_last
            && self.try_adopt_into(&scratch.gens, &mut scratch.values);
        scratch.adopted_last = adopted;
        if adopted {
            tele.bump(Counter::SnapshotReuses);
        } else {
            walk(&mut scratch.values);
            self.publish_snapshot(&scratch.gens, &scratch.values);
        }
    }

    /// Pre-sizes every buffer (`threads` generations, `threads × slots`
    /// snapshot capacity) so publishing and adopting are allocation-free.
    pub fn new(threads: usize, slots: usize) -> Self {
        SharedSnapshot {
            version: AtomicU64::new(0),
            gens: (0..threads).map(|_| CachePadded::new(AtomicU64::new(0))).collect(),
            snap_gens: (0..threads).map(|_| AtomicU64::new(u64::MAX)).collect(),
            len: AtomicUsize::new(0),
            data: (0..threads * slots).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Marks a new protection announcement by `tid`. Call after the slot
    /// store and before the announcing thread's validation fence.
    #[inline]
    pub fn bump_gen(&self, tid: usize) {
        // Single-writer counter: only the handle owning `tid` ever bumps
        // its own generation, so an unsynchronized load+store is exact —
        // no RMW needed. This sits on HP's per-hop protect path, where a
        // locked fetch_add would double the per-hop barrier cost.
        //
        // ORDERING: reason = exclusive — the Relaxed load reads a cell only
        // this thread writes (single-writer counter; no RMW needed).
        // Release on the store: a generation reader that observes this bump
        // also observes the slot store sequenced before it, so a publisher
        // whose captured generations include the bump walks a slot array
        // that already shows the protection.
        let g = self.gens[tid].load(Ordering::Relaxed);
        self.gens[tid].store(g.wrapping_add(1), Ordering::Release);
    }

    /// Loads the full generation vector into `out` (cleared and refilled).
    /// Call *after* the scanning handle's SeqCst fence.
    pub fn load_gens_into(&self, out: &mut Vec<u64>) {
        out.clear();
        for g in self.gens.iter() {
            out.push(g.load(Ordering::Acquire));
        }
    }

    /// Attempts to adopt the published snapshot into `out`. Succeeds only
    /// if the snapshot is stable (seqlock even and unchanged) and its
    /// generation vector equals `gens_now`; on success `out` holds the
    /// published sorted snapshot.
    pub fn try_adopt_into(&self, gens_now: &[u64], out: &mut Vec<u64>) -> bool {
        let v1 = self.version.load(Ordering::Acquire);
        if v1 & 1 == 1 {
            return false;
        }
        for (i, &g) in gens_now.iter().enumerate() {
            // ORDERING: reason = seqlock — the re-read of `version` below
            // (with the Acquire fence) rejects any value raced with a
            // concurrent publish.
            if self.snap_gens[i].load(Ordering::Relaxed) != g {
                return false;
            }
        }
        // ORDERING: reason = seqlock — the Acquire fence + version re-read
        // below reject any value raced with a concurrent publish.
        let n = self.len.load(Ordering::Relaxed);
        if n > self.data.len() {
            return false;
        }
        out.clear();
        for slot in &self.data[..n] {
            // ORDERING: reason = seqlock — the Acquire fence + version
            // re-read below reject any slot value raced with a publish.
            out.push(slot.load(Ordering::Relaxed));
        }
        fence(Ordering::Acquire);
        // ORDERING: reason = seqlock — the Relaxed re-read is the classic
        // seqlock validation; the Acquire fence above orders it after the
        // data reads.
        let ok = self.version.load(Ordering::Relaxed) == v1;
        #[cfg(feature = "hb-oracle")]
        if ok {
            // CAST-OK: hb-ledger site key; the snapshot instance's address
            // names this seqlock so parallel tests never share a site.
            crate::hb::on_snapshot_adopt(self as *const Self as u64);
        }
        ok
    }

    /// Publishes a freshly walked snapshot (`snap`, sorted) together with
    /// the generation vector `gens_now` that was loaded *before* the walk.
    /// Best-effort: yields to a concurrent publisher instead of blocking.
    pub fn publish_snapshot(&self, gens_now: &[u64], snap: &[u64]) {
        if snap.len() > self.data.len() || gens_now.len() != self.snap_gens.len() {
            return;
        }
        // ORDERING: reason = seqlock — pre-read; the Acquire CAS below is
        // the synchronizing claim, so a stale value only fails the CAS.
        let v0 = self.version.load(Ordering::Relaxed);
        if v0 & 1 == 1 {
            return;
        }
        // ORDERING: reason = seqlock — Relaxed on failure publishes nothing
        // (we yield to the concurrent publisher); Acquire on success pairs
        // with the closing Release version store of the previous section.
        if self
            .version
            .compare_exchange(v0, v0 + 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        // ORDERING: Release fence after the opening CAS (the crossbeam
        // SeqLock pattern): it orders the odd version store before every
        // Relaxed data write below, so a reader that observes any write
        // from this section also observes the odd version on its
        // validating re-read and rejects the torn snapshot. Without it,
        // weakly-ordered hardware may let a data store become visible
        // while both of the reader's version loads still return `v0`.
        fence(Ordering::Release);
        for (dst, &g) in self.snap_gens.iter().zip(gens_now) {
            // ORDERING: reason = seqlock — these Relaxed writes are
            // published by the Release version store closing the section.
            dst.store(g, Ordering::Relaxed);
        }
        for (dst, &v) in self.data.iter().zip(snap) {
            // ORDERING: reason = seqlock — published by the closing Release
            // version store below.
            dst.store(v, Ordering::Relaxed);
        }
        // ORDERING: reason = seqlock — published by the closing Release
        // version store below.
        self.len.store(snap.len(), Ordering::Relaxed);
        self.version.store(v0 + 2, Ordering::Release);
        #[cfg(feature = "hb-oracle")]
        // CAST-OK: hb-ledger site key; the snapshot instance's address
        // names this seqlock so parallel tests never share a site.
        crate::hb::on_snapshot_publish(self as *const Self as u64);
    }

    /// `publish_snapshot` with the section-opening `Release` fence
    /// *deliberately omitted* — the seeded negative for the happens-before
    /// oracle's adoption check (`tests/hb_oracle.rs`). Kept as a duplicate
    /// body rather than a flag on the real path so the production publish
    /// carries zero test plumbing. Never call this outside that test.
    #[cfg(feature = "hb-oracle")]
    #[doc(hidden)]
    pub fn publish_snapshot_skip_release_fence(&self, gens_now: &[u64], snap: &[u64]) {
        if snap.len() > self.data.len() || gens_now.len() != self.snap_gens.len() {
            return;
        }
        let v0 = self.version.load(Ordering::Relaxed);
        if v0 & 1 == 1 {
            return;
        }
        if self
            .version
            .compare_exchange(v0, v0 + 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        // The `fence(Ordering::Release)` that belongs here is the seeded
        // omission: data writes below may become visible before the odd
        // version store on weak hardware, the torn-snapshot race the hb
        // oracle must flag at adoption time.
        for (dst, &g) in self.snap_gens.iter().zip(gens_now) {
            dst.store(g, Ordering::Relaxed);
        }
        for (dst, &v) in self.data.iter().zip(snap) {
            dst.store(v, Ordering::Relaxed);
        }
        self.len.store(snap.len(), Ordering::Relaxed);
        self.version.store(v0 + 2, Ordering::Release);
        // CAST-OK: hb-ledger site key; the snapshot instance's address
        // names this seqlock so parallel tests never share a site.
        crate::hb::on_snapshot_publish_data_only(self as *const Self as u64);
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
    pub fn tick(&self, counter: &mut usize, freq: usize, tele: &mut HandleTelemetry) {
        *counter += 1;
        if counter.is_multiple_of(freq) {
            tele.record_epoch_advance(self.advance());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_monotone() {
        let c = EpochClock::new();
        let a = c.now();
        let b = c.advance();
        assert!(b > a);
        assert_eq!(c.now(), b);
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
    }

    #[test]
    fn shared_snapshot_adopts_only_at_equal_generations() {
        let snap = SharedSnapshot::new(3, 2);
        let mut gens = Vec::new();
        let mut out = Vec::new();

        // Nothing published yet: the sentinel generations never match.
        snap.load_gens_into(&mut gens);
        assert!(!snap.try_adopt_into(&gens, &mut out));

        snap.publish_snapshot(&gens, &[10, 20, 30]);
        assert!(snap.try_adopt_into(&gens, &mut out), "same generations ⇒ adopt");
        assert_eq!(out, vec![10, 20, 30]);

        // A protection announcement by thread 1 invalidates the snapshot…
        snap.bump_gen(1);
        snap.load_gens_into(&mut gens);
        assert!(!snap.try_adopt_into(&gens, &mut out), "bump ⇒ reject");

        // …until a fresh walk is published under the new generations.
        snap.publish_snapshot(&gens, &[40]);
        assert!(snap.try_adopt_into(&gens, &mut out));
        assert_eq!(out, vec![40]);
    }

    #[test]
    fn shared_snapshot_rejects_oversized_publish() {
        let snap = SharedSnapshot::new(1, 2);
        let mut gens = Vec::new();
        let mut out = Vec::new();
        snap.load_gens_into(&mut gens);
        snap.publish_snapshot(&gens, &[1, 2, 3]); // exceeds capacity: dropped
        assert!(!snap.try_adopt_into(&gens, &mut out), "truncated publish must not adopt");
        snap.publish_snapshot(&gens, &[1, 2]);
        assert!(snap.try_adopt_into(&gens, &mut out));
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn fence_counted() {
        let mut t = HandleTelemetry::new(0);
        counted_fence(&mut t, FenceSite::StartOp);
        counted_fence(&mut t, FenceSite::Announce);
        assert_eq!(t.counter(Counter::Fences), 2);
        assert_eq!(t.counter(Counter::FencesStartOp), 1);
        assert_eq!(t.counter(Counter::FencesAnnounce), 1);
    }
}
