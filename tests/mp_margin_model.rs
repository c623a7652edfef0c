//! Checker-seeded model test for MP's margin fast path.
//!
//! The fence-amortization machinery (standing margins, cross-refno
//! covers, slots reused by a rotating cursor, lazy epoch re-announcement)
//! adds several ways for a *stale* margin or epoch to be consulted. This
//! model pins the soundness invariants all of them must preserve. A read
//! that returns under margin protection (i.e. not via the hazard-pointer
//! fallback) only ever returns a node that is
//!
//! 1. **inside one of the thread's announced intervals**, and
//! 2. **born no later than the thread's announced epoch** — the property
//!    the reclamation scan's epoch filter relies on (Theorem 4.2),
//!
//! and — the one rule the design rests on, *a margin slot changes only
//! while no refno depends on it* —
//!
//! 3. **stays inside an announced interval after every later step**, until
//!    its refno is read again or the operation ends;
//!
//! and, because the read looks past its one-interval cache through a
//! region index over the row (a scan only on rows of up to 8 slots),
//!
//! 4. **announces only when it must**: the read issues an announcement
//!    (`FencesAnnounce` rises) only if no announced interval covered the
//!    node's precision block just before it. A lookup that misses a
//!    covering slot fails here.
//!
//! Failures shrink to a minimal step sequence; replay with
//! `MP_CHECK_SEED=<seed> cargo test -q --test mp_margin_model`.

use mp_util::{Checker, RngExt, SmallRng};

use margin_pointers::smr::node::MAX_INDEX;
use margin_pointers::smr::schemes::Mp;
use margin_pointers::smr::{Atomic, Config, Counter, Shared, Smr, SmrHandle, Telemetry};

/// The widest margin `Config` accepts: the index space must hold two.
const MAX_MARGIN: u64 = (MAX_INDEX as u64 - 1) / 2;

/// One shrinkable step. Configuration and topology are steps too, so the
/// shrinker can minimize them along with the action sequence: the first
/// `Setup` fixes the scheme parameters (defaults apply if shrunk away) and
/// every `Link` adds one node for the reader to traverse.
#[derive(Debug, Clone, Copy)]
enum Step {
    Setup { margin_shift: u32, epoch_freq: usize, slots: usize },
    Link { index: u32 },
    Read { cell: usize, refno: usize },
    Churn,
    Reop,
}

fn gen_steps(rng: &mut SmallRng) -> Vec<Step> {
    let n_cells = rng.random_range(2..10usize);
    let slots = rng.random_range(2..71usize);
    let mut steps = vec![Step::Setup {
        margin_shift: rng.random_range(17..32u32),
        epoch_freq: rng.random_range(1..16usize),
        slots,
    }];
    // Stay below the USE_HP class (top 64 K block) so every read exercises
    // the margin machinery, not the hazard path.
    steps.extend((0..n_cells).map(|_| Step::Link { index: rng.random_range(0..0xfff0_0000u32) }));
    let len = rng.random_range(16..128usize);
    steps.extend((0..len).map(|_| match rng.random_range(0..10u8) {
        0..=6 => Step::Read {
            cell: rng.random_range(0..n_cells),
            refno: rng.random_range(0..slots),
        },
        7..=8 => Step::Churn,
        _ => Step::Reop,
    }));
    steps
}

fn run_steps(steps: &[Step]) {
    // Pre-scan: the scheme must be configured before any handle exists.
    let (mut margin_shift, mut epoch_freq, mut slots) = (20u32, 8usize, 3usize);
    if let Some(Step::Setup { margin_shift: m, epoch_freq: f, slots: s }) =
        steps.iter().find(|s| matches!(s, Step::Setup { .. }))
    {
        (margin_shift, epoch_freq, slots) = (*m, *f, *s);
    }
    let indices: Vec<u32> = steps
        .iter()
        .filter_map(|s| if let Step::Link { index } = s { Some(*index) } else { None })
        .collect();
    if indices.is_empty() {
        return; // nothing to read; a shrunk-away topology is a trivial pass
    }

    let cfg = Config {
        max_threads: 2,
        slots_per_thread: slots, // 2^31 does not fit twice; its nearest valid margin stands in.
        margin: (1u64 << margin_shift).min(MAX_MARGIN) as u32,
        empty_freq: 4,
        epoch_freq,
        ..Config::default()
    };
    let smr = Mp::new(cfg);
    let mut reader = smr.register();
    let mut writer = smr.register();

    writer.start_op();
    let cells: Vec<_> = indices
        .iter()
        .map(|&idx| {
            let n = writer.alloc_with_index(idx as u64, idx);
            (Atomic::new(n), n)
        })
        .collect();

    reader.start_op();
    // Per refno, the index last returned through it on the margin path.
    let mut held: Vec<Option<u64>> = vec![None; slots];
    for &step in steps {
        match step {
            Step::Setup { .. } | Step::Link { .. } => {}
            Step::Read { cell, refno } => {
                let refno = refno % slots;
                let cell = cell % cells.len();
                let (block_lo, block_hi) =
                    (u64::from(indices[cell] & 0xffff_0000), u64::from(indices[cell] | 0xffff));
                let covered = reader
                    .announced_margins()
                    .iter()
                    .any(|&(lo, hi)| lo <= block_lo && block_hi <= hi);
                let hp_before = reader.counter(Counter::HpFallbackReads);
                let announced_before = reader.counter(Counter::FencesAnnounce);
                let got = reader.read(&cells[cell].0, refno);
                assert!(!got.is_null(), "cells stay linked for the whole plan");
                held[refno] = None;
                if reader.counter(Counter::HpFallbackReads) > hp_before {
                    continue; // hazard-protected: interval/epoch need not apply
                }
                assert!(
                    !covered || reader.counter(Counter::FencesAnnounce) == announced_before,
                    "read of index {:#x} announced although a standing margin covered its \
                     block (margin 2^{margin_shift}, {slots} slots)",
                    indices[cell],
                );
                // SAFETY: [INV-01] the read above returned under an open
                // protection span, so the node is pinned at least until the
                // next step.
                let (node, birth) = unsafe { (got.deref(), got.birth()) };
                let birth = birth.expect("an MP node carries its birth word");
                assert!(
                    birth <= reader.announced_epoch(),
                    "margin-path read returned a node born at epoch {birth} after the \
                     announced epoch {} — invisible to the scan's epoch filter",
                    reader.announced_epoch(),
                );
                held[refno] = Some(node.index() as u64);
            }
            Step::Churn => {
                let junk = writer.alloc_with_index(0u64, 1);
                // SAFETY: [INV-04] never published; retired exactly once.
                unsafe { writer.retire(junk) };
            }
            Step::Reop => {
                reader.end_op();
                reader.start_op();
                held.fill(None);
            }
        }
        let margins = reader.announced_margins();
        for (refno, idx) in held.iter().enumerate() {
            let Some(idx) = *idx else { continue };
            assert!(
                margins.iter().any(|&(lo, hi)| lo <= idx && idx <= hi),
                "after {step:?}: index {idx:#x}, held through refno {refno}, is inside no \
                 announced interval {margins:x?} (margin 2^{margin_shift})",
            );
        }
    }
    reader.end_op();
    drop(reader); // withdraw standing margins before teardown

    for (cell, n) in cells {
        cell.store(Shared::null(), std::sync::atomic::Ordering::Release);
        // SAFETY: [INV-04] unlinked above; retired exactly once.
        unsafe { writer.retire(n) };
    }
    writer.end_op();
    drop(writer);
}

#[test]
fn margin_fast_path_never_escapes_interval_or_epoch() {
    let checker = Checker::new().cases(64);
    checker.run("mp_margin_model::margin_fast_path", gen_steps, run_steps);
}
