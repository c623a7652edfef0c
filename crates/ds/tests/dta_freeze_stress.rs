//! Regression stress for DTA's freezing recovery: a repeatedly parking
//! thread forces stall detection, freezing, zone replacement, and stamp
//! refresh, all under concurrent insert/remove/contains churn. This exact
//! scenario exposed three races in earlier revisions (use-after-free of a
//! falsely-neutralized thread's traversal, fixed-hop zones outrun by
//! concurrent insertions, and retire-stamp windows missing preempted
//! removers), so it stays as a permanent canary.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mp_ds::DtaList;
use mp_smr::schemes::Dta;
use mp_smr::{Config, Smr, SmrHandle};

#[test]
fn freezing_survives_heavy_concurrency() {
    for _round in 0..30 {
        let cfg = Config {
            max_threads: 8,
            empty_freq: 4,
            epoch_freq: 8,
            anchor_hops: 4,
            stall_patience: 1, // aggressive: false positives guaranteed
            ..Config::default()
        };
        let smr = Dta::new(cfg);
        let list = Arc::new(DtaList::new(&smr));
        {
            let mut h = smr.register();
            for k in 0..200u64 {
                list.insert(&mut h, k);
            }
        }
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            // A thread that repeatedly parks mid-operation.
            {
                let (smr, list, stop) = (smr.clone(), list.clone(), stop.clone());
                s.spawn(move || {
                    let mut h = smr.register();
                    while !stop.load(Ordering::Relaxed) {
                        h.start_op();
                        list.contains(&mut h, 100);
                        h.start_op();
                        std::thread::sleep(Duration::from_micros(300));
                        h.end_op();
                    }
                });
            }
            // Churners.
            for t in 0..4u64 {
                let (smr, list, stop) = (smr.clone(), list.clone(), stop.clone());
                s.spawn(move || {
                    let mut h = smr.register();
                    let mut x = t + 1;
                    while !stop.load(Ordering::Relaxed) {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let k = x % 200;
                        match x % 3 {
                            0 => {
                                list.insert(&mut h, k);
                            }
                            1 => {
                                list.remove(&mut h, k);
                            }
                            _ => {
                                list.contains(&mut h, k);
                            }
                        }
                    }
                });
            }
            std::thread::sleep(Duration::from_millis(60));
            stop.store(true, Ordering::Release);
        });
        // The list must remain a sorted duplicate-free set.
        let mut h = smr.register();
        let keys = list.collect(&mut h);
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "list corrupted");
    }
}
