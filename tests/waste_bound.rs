//! Theorem 4.2 end-to-end: under a thread stalled mid-operation, MP's
//! wasted memory stays within its predetermined bound while EBR's grows
//! with the churn — on the real linked list, through the recorded churn
//! (`mp_bench::churn`), whose history must also be linearizable.

use margin_pointers::ds::LinkedList;
use margin_pointers::smr::schemes::{Ebr, Hp, Mp};
mod common;

use margin_pointers::smr::{Config, Smr};
use mp_bench::churn::{plans, seeds, Churn, Draw, Fault};

const PAIRS_PER_WORKER: usize = 5_000;
const WORKERS: usize = 2;
const KEYS: u64 = 256;

const DEFAULT_MARGIN: u32 = 1 << 20;

/// Two workers run remove-insert pairs over a full 256-key list while one
/// registered thread sits parked inside an operation; `judge` gets the
/// scheme-wide retired-pending count once the workers' handles are gone,
/// right before the straggler wakes up.
fn waste_under_stall<S: Smr>(margin: u32, judge: impl Fn(usize)) {
    let name = format!("{} / margin {margin:#x}", S::name());
    common::check(&name, 1, seeds(WORKERS), |seeds| {
        let cfg =
            Config { max_threads: 4, empty_freq: 8, epoch_freq: 32, margin, ..Config::default() };
        let out = Churn {
            prefill: (0..KEYS).collect(),
            keys: KEYS,
            workers: plans(seeds, Draw::RemoveInsert, 2 * PAIRS_PER_WORKER, KEYS),
            fault: Some(Fault::Stall),
        }
        .run::<S, LinkedList<S>>(&S::new(cfg));
        judge(out.pending_at_release);
    });
}

#[test]
fn mp_waste_is_bounded_under_stall() {
    // Theorem 4.2 bound: #HP + #MP·M + #MP·M·F·T — astronomically loose;
    // the practical bound is a couple of epochs of same-margin churn. The
    // stalled thread holds no slots here, so waste must be near zero.
    waste_under_stall::<Mp>(DEFAULT_MARGIN, |waste| {
        assert!(waste <= 64, "MP wasted {waste} nodes under a stall");
    });
}

#[test]
fn hp_waste_is_bounded_under_stall() {
    waste_under_stall::<Hp>(DEFAULT_MARGIN, |waste| {
        assert!(waste <= 64, "HP wasted {waste} nodes under a stall");
    });
}

#[test]
fn ebr_waste_grows_with_churn_under_stall() {
    waste_under_stall::<Ebr>(DEFAULT_MARGIN, |waste| {
        assert!(waste >= 1_000, "EBR should have pinned thousands of nodes, pinned only {waste}");
    });
}

#[test]
fn mp_bound_scales_with_margin_not_churn() {
    // Same churn, two margins: MP's waste must not scale with the churn
    // volume either way (it may scale with the margin).
    let churn_total = PAIRS_PER_WORKER * WORKERS;
    for margin in [DEFAULT_MARGIN, 1 << 24] {
        waste_under_stall::<Mp>(margin, |w| {
            assert!(
                w * 20 < churn_total,
                "margin {margin:#x}: waste {w} looks proportional to churn {churn_total}"
            );
        });
    }
}
