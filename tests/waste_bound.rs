//! Theorem 4.2 end-to-end: under a thread stalled mid-operation, MP's
//! wasted memory stays within its predetermined bound while EBR's grows
//! with the churn — on the real linked list, not a synthetic harness.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use margin_pointers::ds::{ConcurrentSet, LinkedList};
use margin_pointers::smr::schemes::{Ebr, Hp, Mp};
use margin_pointers::smr::{Config, Smr, SmrHandle};

const CHURN_PER_WORKER: u64 = 5_000;
const WORKERS: u64 = 2;

const DEFAULT_MARGIN: u32 = 1 << 20;

fn cfg(margin: u32) -> Config {
    Config::default().with_max_threads(4).with_empty_freq(8).with_epoch_freq(32).with_margin(margin)
}

/// Runs churn against a structure while one registered thread sits parked
/// inside an operation; returns the scheme-wide retired-pending count right
/// before the straggler wakes up.
fn waste_under_stall<S: Smr>(margin: u32) -> usize {
    let smr = S::new(cfg(margin));
    let list = Arc::new(LinkedList::<S>::new(&smr));
    {
        let mut h = smr.register();
        for k in 0..256 {
            list.insert(&mut h, k);
        }
    }
    let parked = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));
    let mut waste = 0;
    std::thread::scope(|s| {
        {
            let smr = smr.clone();
            let parked = parked.clone();
            let release = release.clone();
            s.spawn(move || {
                let mut h = smr.register();
                h.start_op();
                parked.store(true, Ordering::Release);
                while !release.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                h.end_op();
            });
        }
        while !parked.load(Ordering::Acquire) {
            std::hint::spin_loop();
        }
        let mut joins = Vec::new();
        for t in 0..WORKERS {
            let smr = smr.clone();
            let list = list.clone();
            joins.push(s.spawn(move || {
                let mut h = smr.register();
                for i in 0..CHURN_PER_WORKER {
                    let k = (i * WORKERS + t) % 256;
                    list.remove(&mut h, k);
                    list.insert(&mut h, k);
                }
                h.force_empty();
            }));
        }
        // Release the parked thread before raising a worker's panic (an
        // oracle report, say): the scope joins it.
        let results: Vec<_> = joins.into_iter().map(|j| j.join()).collect();
        waste = smr.retired_pending();
        release.store(true, Ordering::Release);
        for r in results {
            r.unwrap();
        }
    });
    waste
}

#[test]
fn mp_waste_is_bounded_under_stall() {
    let waste = waste_under_stall::<Mp>(DEFAULT_MARGIN);
    // Theorem 4.2 bound: #HP + #MP·M + #MP·M·F·T — astronomically loose;
    // the practical bound is a couple of epochs of same-margin churn. The
    // stalled thread holds no slots here, so waste must be near zero.
    assert!(waste <= 64, "MP wasted {waste} nodes under a stall");
}

#[test]
fn hp_waste_is_bounded_under_stall() {
    let waste = waste_under_stall::<Hp>(DEFAULT_MARGIN);
    assert!(waste <= 64, "HP wasted {waste} nodes under a stall");
}

#[test]
fn ebr_waste_grows_with_churn_under_stall() {
    let waste = waste_under_stall::<Ebr>(DEFAULT_MARGIN);
    assert!(
        waste >= 1_000,
        "EBR should have pinned thousands of nodes, pinned only {waste}"
    );
}

#[test]
fn mp_bound_scales_with_margin_not_churn() {
    // Same churn, two margins: MP's waste must not scale with the churn
    // volume either way (it may scale with the margin).
    let churn_total = (CHURN_PER_WORKER * WORKERS) as usize;
    for margin in [DEFAULT_MARGIN, 1 << 24] {
        let w = waste_under_stall::<Mp>(margin);
        assert!(
            w * 20 < churn_total,
            "margin {margin:#x}: waste {w} looks proportional to churn {churn_total}"
        );
    }
}
