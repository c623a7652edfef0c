//! Backpressure ladder integration tests: watermark ordering, hysteretic
//! release, gauge exactness across the park/adopt path, and a
//! Checker-seeded monotonicity property.
//!
//! The driving trick: a stalled reader thread holds a pinned operation,
//! so under EBR every later retiree is unreclaimable and the
//! retired-bytes gauge rises monotonically with each retire — the ladder's
//! transitions become deterministic functions of the observed gauge.

use std::sync::mpsc;
use std::sync::Arc;

use mp_util::{Checker, RngExt, SmallRng};

use margin_pointers::smr::schemes::Ebr;
use margin_pointers::smr::{BpLevel, Config, Smr, SmrHandle, Telemetry};

/// A reader parked on its own thread with one operation pinned — the §1
/// stalled reader. `release()` unpins and joins it.
struct StalledReader {
    release: mpsc::Sender<()>,
    join: std::thread::JoinHandle<()>,
}

impl StalledReader {
    /// Registers a handle on a fresh thread, pins an op, and returns once
    /// the pin is live (so every retire after this call is covered).
    fn spawn(smr: &Arc<Ebr>) -> StalledReader {
        let (ready_tx, ready_rx) = mpsc::channel();
        let (release, parked_rx) = mpsc::channel::<()>();
        let smr = smr.clone();
        let join = std::thread::spawn(move || {
            let mut h = smr.register();
            let _pin = h.pin();
            ready_tx.send(()).expect("main thread waits for the pin");
            let _ = parked_rx.recv(); // blocks until release() drops the sender
        });
        ready_rx.recv().expect("stalled reader pinned");
        StalledReader { release, join }
    }

    fn release(self) {
        drop(self.release);
        self.join.join().expect("stalled reader exited");
    }
}

/// Hard cap for the ladder tests; payloads are small multiples of it.
const CAP: usize = 4 << 10;

/// Cadence scans pushed out of the way so the ladder is the only thing
/// that can trigger reclamation during the test.
fn cfg(cap: usize) -> Config {
    Config::default()
        .with_max_threads(4)
        .with_empty_freq(1 << 20)
        .with_backpressure_bytes(cap)
}

#[test]
fn help_engages_before_throttle_and_releases_with_hysteresis() {
    let smr = Ebr::new(cfg(CAP));
    let stall = StalledReader::spawn(&smr); // every retiree pinned: gauge only rises
    let mut writer = smr.register();

    let tele = smr.telemetry();
    let bp = tele.backpressure();
    assert_eq!(bp.level(), BpLevel::Normal);

    // Watermark ordering: the first engagement is the help rung, reached
    // strictly before any throttle engagement.
    while tele.pending_bytes() < CAP / 2 {
        let mut op = writer.pin();
        let n = op.alloc([0u8; 256]);
        // SAFETY: [INV-12] test-controlled: never published, retired once.
        unsafe { op.retire(n) };
    }
    assert_eq!(bp.level(), BpLevel::HelpScan, "help watermark must engage the help rung");
    assert!(bp.help_engagements() >= 1);
    assert_eq!(bp.throttle_engagements(), 0, "throttle must not fire below the cap");
    assert!(writer.snapshot().help_scans() >= 1, "the engaged writer ran a help-scan");

    while tele.pending_bytes() < CAP {
        let mut op = writer.pin();
        let n = op.alloc([0u8; 256]);
        // SAFETY: [INV-12] test-controlled: never published, retired once.
        unsafe { op.retire(n) };
    }
    assert_eq!(bp.level(), BpLevel::Throttle, "cap must engage the throttle rung");
    assert!(bp.throttle_engagements() >= 1);

    // On the throttle rung, allocations take a bounded wait (and complete).
    {
        let mut op = writer.pin();
        let n = op.alloc([0u8; 64]);
        // SAFETY: [INV-12] test-controlled: never published, retired once.
        unsafe { op.retire(n) };
    }
    assert!(writer.snapshot().throttle_waits() >= 1, "throttled allocs must count a wait");

    // Release: unpin, drain, and the next retire re-assesses the gauge to
    // the hysteresis floor — the ladder returns to Normal and counts the
    // de-escalation.
    stall.release();
    for _ in 0..4 {
        writer.force_empty();
    }
    assert!(
        tele.pending_bytes() <= CAP / 4,
        "drain must pull the gauge to the release floor, got {}",
        tele.pending_bytes()
    );
    {
        let mut op = writer.pin();
        let n = op.alloc([0u8; 16]);
        // SAFETY: [INV-12] test-controlled: never published, retired once.
        unsafe { op.retire(n) };
    }
    assert_eq!(bp.level(), BpLevel::Normal, "ladder must release below the floor");
    assert!(bp.releases() >= 1);
}

/// Satellite bugfix pin: the retired gauge (nodes AND bytes) must stay
/// exact across the whole handle-death path — Drop-time drain, parking the
/// un-freeable leftovers as orphans, adoption by a later registrant, and
/// the final frees. Any double-count or missed `sub` shows up as a nonzero
/// residue here.
#[test]
fn gauge_stays_exact_across_drop_park_adopt_and_free() {
    const NODES: usize = 10;
    let smr = Ebr::new(cfg(0)); // ladder off: the gauge itself is under test
    let stall = StalledReader::spawn(&smr);

    let mut writer = smr.register();
    for _ in 0..NODES {
        let mut op = writer.pin();
        let n = op.alloc([0u8; 128]);
        // SAFETY: [INV-12] test-controlled: never published, retired once.
        unsafe { op.retire(n) };
    }
    let tele = smr.telemetry();
    let nodes_before = smr.retired_pending();
    let bytes_before = tele.pending_bytes();
    assert_eq!(nodes_before, NODES);
    assert!(bytes_before >= NODES * 128, "gauge must count at least the payload bytes");

    // Drop-drain: the pinned reader makes every node un-freeable, so the
    // drain parks all of them as orphans — and must not touch the gauge.
    drop(writer);
    assert_eq!(smr.retired_pending(), nodes_before, "park must not change the node gauge");
    assert_eq!(tele.pending_bytes(), bytes_before, "park must not change the byte gauge");

    // Adoption on a later register must not double-count either.
    stall.release();
    let mut adopter = smr.register();
    assert_eq!(smr.retired_pending(), nodes_before, "adopt must not change the node gauge");
    assert_eq!(tele.pending_bytes(), bytes_before, "adopt must not change the byte gauge");

    // With the pin gone, draining frees everything; the gauge must return
    // to exactly zero on both axes.
    for _ in 0..4 {
        adopter.force_empty();
    }
    assert_eq!(smr.retired_pending(), 0, "all adopted nodes must free");
    assert_eq!(tele.pending_bytes(), 0, "freed bytes must be subtracted exactly");
}

/// Checker-seeded property: with a pinned reader the gauge is monotone
/// within a case, so the scheme-wide ladder must (1) never de-escalate,
/// (2) sit exactly on the rung the watermarks dictate after every retire,
/// and (3) count one engagement per upward transition and zero releases.
#[test]
fn ladder_transitions_are_monotone_under_a_monotone_gauge() {
    let checker = Checker::new().cases(6);
    let gen = |rng: &mut SmallRng| -> Vec<(u8, u8)> {
        let len = rng.random_range(32..128);
        (0..len)
            .map(|_| (rng.random_range(0..8u8), rng.random_range(0..3u8)))
            .collect()
    };
    checker.run("backpressure::monotone_ladder", gen, |plan| {
        let smr = Ebr::new(cfg(CAP));
        let stall = StalledReader::spawn(&smr);
        let mut writer = smr.register();
        let tele = smr.telemetry();
        let bp = tele.backpressure();

        let mut upward = 0u64;
        let mut prev = BpLevel::Normal;
        for &(retires, size_tag) in plan {
            // One op: a random burst of retires of a random payload size.
            // Each retire re-assesses the ladder exactly once, so sampling
            // after every retire observes every transition.
            let mut op = writer.pin();
            for _ in 0..(retires % 8) + 1 {
                match size_tag % 3 {
                    0 => {
                        let n = op.alloc([0u8; 64]);
                        // SAFETY: [INV-12] test-controlled: never published, retired once.
                        unsafe { op.retire(n) };
                    }
                    1 => {
                        let n = op.alloc([0u8; 256]);
                        // SAFETY: [INV-12] test-controlled: never published, retired once.
                        unsafe { op.retire(n) };
                    }
                    _ => {
                        let n = op.alloc([0u8; 1024]);
                        // SAFETY: [INV-12] test-controlled: never published, retired once.
                        unsafe { op.retire(n) };
                    }
                }

                let bytes = tele.pending_bytes();
                let expect = if bytes >= CAP {
                    BpLevel::Throttle
                } else if bytes >= CAP / 2 {
                    BpLevel::HelpScan
                } else {
                    BpLevel::Normal
                };
                let level = bp.level();
                assert_eq!(
                    level, expect,
                    "gauge {bytes} bytes must map to {expect:?} on a monotone rise"
                );
                assert!(level >= prev, "ladder de-escalated {prev:?} -> {level:?} while rising");
                if level > prev {
                    upward += 1;
                }
                prev = level;
            }
            drop(op);
        }
        assert_eq!(bp.engagements(), upward, "each upward transition counted exactly once");
        assert_eq!(bp.releases(), 0, "no release can fire under a monotone gauge");
        stall.release();
    });
}
