//! Memory backpressure: the policy ladder that keeps wasted memory under a
//! configured byte cap even when threads misbehave.
//!
//! Theorem 4.2 bounds wasted memory under well-behaved threads; a stalled
//! reader turns that bound into a plateau, and an unbounded retire stream
//! from the *other* threads is what actually drives a process toward OOM.
//! This module adds the deployment-side defence the robustness literature
//! (Hyaline, see PAPERS.md) calls for: when the scheme's retired-bytes
//! gauge crosses a configurable watermark, retiring writers escalate
//! through a ladder —
//!
//! 1. **Help-scan** (`bytes ≥ cap/2`): the retiring thread adopts any
//!    orphaned retired lists ([`Registry::adopt_orphans`]) and runs a
//!    reclamation scan on behalf of laggards, so memory parked behind a
//!    churned-out or stalled peer is drained by whoever notices first.
//! 2. **Throttle** (`bytes ≥ cap`): allocations additionally take a
//!    *bounded* [`mp_util::Backoff`] wait, slowing producers until scans
//!    catch up. The wait never blocks indefinitely and allocation never
//!    fails — the ladder trades throughput for memory, never liveness.
//!
//! De-escalation is hysteretic: the ladder only returns to `Normal` once
//! the gauge falls to `cap/4`, so it does not flap around a watermark.
//! Every scheme-wide transition is counted in [`BackpressureState`], and
//! the per-handle work is visible in the `help_scans` / `throttle_waits`
//! counters — all of which flow into the Prometheus/JSON exporters.
//!
//! Within a single operation a handle's *applied* rung is monotone: once
//! an op has helped (or throttled) it does not drop back to a lower rung
//! until the next `start_op`, which keeps the per-op cost model simple and
//! is pinned by a property test in `tests/backpressure.rs`.
//!
//! [`Registry::adopt_orphans`]: crate::registry::Registry

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

use crate::api::Config;
use crate::error::BackpressureError;
use crate::telemetry::{Counter, HandleTelemetry};

/// A rung of the backpressure ladder, ordered by severity.
#[repr(u8)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum BpLevel {
    /// Gauge below every watermark: no intervention.
    Normal = 0,
    /// Gauge at or above the help watermark (`cap/2`): retiring threads
    /// adopt orphans and scan on behalf of laggards.
    HelpScan = 1,
    /// Gauge at or above the hard cap: allocations additionally take a
    /// bounded backoff.
    Throttle = 2,
}

impl BpLevel {
    /// Decodes a packed discriminant (saturates corrupt values to
    /// [`BpLevel::Throttle`], the conservative reading).
    pub fn from_u8(v: u8) -> BpLevel {
        match v {
            0 => BpLevel::Normal,
            1 => BpLevel::HelpScan,
            _ => BpLevel::Throttle,
        }
    }

    /// Stable lowercase name (used by exporters and logs).
    pub fn name(self) -> &'static str {
        match self {
            BpLevel::Normal => "normal",
            BpLevel::HelpScan => "help_scan",
            BpLevel::Throttle => "throttle",
        }
    }
}

/// The resolved backpressure watermarks, derived from [`Config`] once at
/// scheme construction.
#[derive(Debug, Clone)]
pub struct BackpressurePolicy {
    /// Hard cap in retired payload bytes; `0` disables the ladder.
    cap_bytes: usize,
    /// Help-scan watermark (`cap/2`).
    help_bytes: usize,
    /// Hysteresis floor (`cap/4`): the ladder releases to `Normal` only
    /// once the gauge falls to or below this.
    release_bytes: usize,
}

impl BackpressurePolicy {
    /// Resolves the policy from `Config::backpressure_bytes` (0 = disabled).
    pub fn from_config(cfg: &Config) -> Self {
        BackpressurePolicy::with_cap(cfg.backpressure_bytes)
    }

    /// A policy with an explicit hard cap in bytes (0 = disabled).
    pub fn with_cap(cap_bytes: usize) -> Self {
        BackpressurePolicy {
            cap_bytes,
            help_bytes: cap_bytes / 2,
            release_bytes: cap_bytes / 4,
        }
    }

    /// Whether the ladder is active at all.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.cap_bytes != 0
    }

    /// The hard (throttle) cap in bytes; 0 when disabled.
    pub fn cap_bytes(&self) -> usize {
        self.cap_bytes
    }

    /// The help-scan watermark in bytes.
    pub fn help_bytes(&self) -> usize {
        self.help_bytes
    }

    /// The hysteresis release watermark in bytes.
    pub fn release_bytes(&self) -> usize {
        self.release_bytes
    }

    /// The rung the gauge value `bytes` maps to, given the ladder is
    /// `current`ly on some rung (hysteresis: inside the band between the
    /// release floor and the help watermark, an engaged ladder holds the
    /// help rung instead of flapping).
    pub fn assess(&self, bytes: usize, current: BpLevel) -> BpLevel {
        if !self.enabled() {
            return BpLevel::Normal;
        }
        if bytes >= self.cap_bytes {
            return BpLevel::Throttle;
        }
        if bytes >= self.help_bytes {
            return BpLevel::HelpScan;
        }
        if bytes <= self.release_bytes {
            return BpLevel::Normal;
        }
        if current >= BpLevel::HelpScan {
            BpLevel::HelpScan
        } else {
            BpLevel::Normal
        }
    }
}

/// Scheme-wide ladder state: the current rung plus monotone transition
/// counters, embedded in every scheme's
/// [`SchemeTelemetry`](crate::telemetry::SchemeTelemetry) so exporters and
/// tests read it without matching on scheme types.
#[derive(Debug, Default)]
pub struct BackpressureState {
    level: AtomicU8,
    help_engagements: AtomicU64,
    throttle_engagements: AtomicU64,
    releases: AtomicU64,
}

impl BackpressureState {
    /// Fresh state on the `Normal` rung.
    pub fn new() -> Self {
        Self::default()
    }

    /// The ladder's current rung.
    #[inline]
    pub fn level(&self) -> BpLevel {
        BpLevel::from_u8(self.level.load(Ordering::Acquire))
    }

    /// Times the ladder escalated onto the help rung.
    pub fn help_engagements(&self) -> u64 {
        self.help_engagements.load(Ordering::Acquire)
    }

    /// Times the ladder escalated onto the throttle rung.
    pub fn throttle_engagements(&self) -> u64 {
        self.throttle_engagements.load(Ordering::Acquire)
    }

    /// Times the ladder de-escalated (any downward transition).
    pub fn releases(&self) -> u64 {
        self.releases.load(Ordering::Acquire)
    }

    /// Total upward transitions (help + throttle engagements) — the
    /// "backpressure engaged at least once" witness the soak gate checks.
    pub fn engagements(&self) -> u64 {
        self.help_engagements().saturating_add(self.throttle_engagements())
    }

    /// Moves the scheme-wide rung to `target`, counting the transition.
    /// Racing observers are serialized by the CAS: each actual change is
    /// counted once.
    pub(crate) fn observe(&self, target: BpLevel) {
        let mut cur = self.level.load(Ordering::Acquire);
        loop {
            if cur == target as u8 {
                return;
            }
            match self.level.compare_exchange(
                cur,
                target as u8,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
        if (target as u8) > cur {
            match target {
                BpLevel::Throttle => {
                    self.throttle_engagements.fetch_add(1, Ordering::AcqRel);
                }
                _ => {
                    self.help_engagements.fetch_add(1, Ordering::AcqRel);
                }
            }
        } else {
            self.releases.fetch_add(1, Ordering::AcqRel);
        }
    }
}

/// Retire-path hook, called by every scheme after buffering a retired
/// node: re-assesses the gauge, records any scheme-wide transition, and
/// floors the result at the handle's in-op rung (`rung`, reset by
/// `start_op`) so the applied ladder is monotone within one operation.
/// Returns `true` when the caller must run a help-scan (adopt orphans,
/// then `empty()`).
#[inline]
pub(crate) fn after_retire(
    policy: &BackpressurePolicy,
    state: &BackpressureState,
    pending_bytes: usize,
    rung: &mut BpLevel,
) -> bool {
    if !policy.enabled() {
        return false;
    }
    let target = policy.assess(pending_bytes, state.level());
    state.observe(target);
    let applied = target.max(*rung);
    *rung = applied;
    applied >= BpLevel::HelpScan
}

/// Allocation-path hook: while the scheme-wide ladder (floored at the
/// handle's in-op rung) is on the throttle rung, takes one bounded backoff
/// wait per allocation. Never blocks indefinitely, never fails the
/// allocation.
#[inline]
pub(crate) fn before_alloc(
    policy: &BackpressurePolicy,
    state: &BackpressureState,
    rung: &mut BpLevel,
    tele: &mut HandleTelemetry,
) {
    if !policy.enabled() {
        return;
    }
    let applied = state.level().max(*rung);
    if applied < BpLevel::Throttle {
        return;
    }
    *rung = BpLevel::Throttle;
    tele.bump(Counter::ThrottleWaits);
    throttle_wait();
}

/// One bounded throttle wait: a full exponential-backoff ramp followed by
/// a single scheduler yield — roughly a hundred spin-loop hints, bounded
/// by construction (no loop on the gauge).
fn throttle_wait() {
    let mut backoff = mp_util::Backoff::new();
    while !backoff.is_completed() {
        backoff.spin();
    }
    backoff.snooze();
}

/// Checks the gauge against the policy's hard cap, for callers that
/// prefer shedding load to being throttled (see
/// [`Smr::check_backpressure`](crate::Smr::check_backpressure)).
pub(crate) fn check(
    policy: &BackpressurePolicy,
    pending_bytes: usize,
) -> Result<(), BackpressureError> {
    if policy.enabled() && pending_bytes >= policy.cap_bytes() {
        Err(BackpressureError { pending_bytes, cap_bytes: policy.cap_bytes() })
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_policy_never_leaves_normal() {
        let p = BackpressurePolicy::with_cap(0);
        assert!(!p.enabled());
        assert_eq!(p.assess(usize::MAX, BpLevel::Normal), BpLevel::Normal);
        assert!(check(&p, usize::MAX).is_ok());
    }

    #[test]
    fn ladder_escalates_at_watermarks_and_releases_with_hysteresis() {
        let p = BackpressurePolicy::with_cap(1000);
        assert_eq!((p.help_bytes(), p.release_bytes()), (500, 250));
        assert_eq!(p.assess(0, BpLevel::Normal), BpLevel::Normal);
        assert_eq!(p.assess(499, BpLevel::Normal), BpLevel::Normal);
        assert_eq!(p.assess(500, BpLevel::Normal), BpLevel::HelpScan);
        assert_eq!(p.assess(999, BpLevel::HelpScan), BpLevel::HelpScan);
        assert_eq!(p.assess(1000, BpLevel::HelpScan), BpLevel::Throttle);
        // Falling out of throttle: help rung while >= help watermark...
        assert_eq!(p.assess(600, BpLevel::Throttle), BpLevel::HelpScan);
        // ...held through the hysteresis band...
        assert_eq!(p.assess(300, BpLevel::HelpScan), BpLevel::HelpScan);
        // ...and released only at the release floor.
        assert_eq!(p.assess(250, BpLevel::HelpScan), BpLevel::Normal);
        // An idle ladder inside the band stays idle (no spurious engage).
        assert_eq!(p.assess(300, BpLevel::Normal), BpLevel::Normal);
    }

    #[test]
    fn observe_counts_each_transition_once() {
        let state = BackpressureState::new();
        assert_eq!(state.level(), BpLevel::Normal);
        state.observe(BpLevel::HelpScan);
        state.observe(BpLevel::HelpScan); // no-op: same rung
        state.observe(BpLevel::Throttle);
        state.observe(BpLevel::Normal);
        assert_eq!(state.help_engagements(), 1);
        assert_eq!(state.throttle_engagements(), 1);
        assert_eq!(state.releases(), 1);
        assert_eq!(state.engagements(), 2);
        assert_eq!(state.level(), BpLevel::Normal);
    }

    #[test]
    fn after_retire_is_monotone_within_an_op() {
        let p = BackpressurePolicy::with_cap(1000);
        let state = BackpressureState::new();
        let mut rung = BpLevel::Normal;
        assert!(after_retire(&p, &state, 1200, &mut rung), "throttle rung helps too");
        assert_eq!(rung, BpLevel::Throttle);
        // Gauge collapsed mid-op (a help-scan freed everything): the
        // scheme-wide ladder releases but the in-op rung stays pinned.
        assert!(after_retire(&p, &state, 0, &mut rung));
        assert_eq!(rung, BpLevel::Throttle, "applied rung is monotone within the op");
        assert_eq!(state.level(), BpLevel::Normal, "scheme-wide ladder tracked the gauge down");
        // Next op starts from a fresh rung.
        let mut rung = BpLevel::Normal;
        assert!(!after_retire(&p, &state, 0, &mut rung));
        assert_eq!(rung, BpLevel::Normal);
    }

    #[test]
    fn check_reports_cap_excess() {
        let p = BackpressurePolicy::with_cap(100);
        assert!(check(&p, 99).is_ok());
        let err = check(&p, 100).unwrap_err();
        assert_eq!(err.cap_bytes, 100);
        assert_eq!(err.pending_bytes, 100);
    }
}
