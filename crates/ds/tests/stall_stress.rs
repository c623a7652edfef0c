//! Stall-under-load safety for MP on every structure: while worker threads
//! churn, one thread repeatedly parks mid-operation *holding announced
//! margins* (it traverses before parking). This exercises the Listing 10
//! fast path's epoch interaction — the exact window where a node born
//! after the parked thread's epoch could be margin-covered yet invisible
//! to the reclaimer's filter (see mp.rs module docs for the deviation that
//! closes it).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mp_ds::{ConcurrentSet, LinkedList, NmTree, SkipList};
use mp_smr::schemes::Mp;
use mp_smr::{Config, Smr, SmrHandle};

fn stall_churn<D: ConcurrentSet<Mp>>() -> usize {
    let cfg = Config {
        max_threads: 8,
        slots_per_thread: mp_ds::skiplist::SLOTS_NEEDED,
        empty_freq: 4,
        epoch_freq: 8, // fast epochs: maximal fallback churn
        ..Config::default()
    };
    let smr = Mp::new(cfg);
    let ds = Arc::new(D::new(&smr));
    {
        let mut h = smr.register();
        let mut x = 7u64;
        for _ in 0..300 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            ds.insert(&mut h, x % 512);
        }
    }
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        // Parker: traverses (announcing margins), then sleeps mid-op.
        {
            let (smr, ds, stop) = (smr.clone(), ds.clone(), stop.clone());
            s.spawn(move || {
                let mut h = smr.register();
                let mut x = 3u64;
                while !stop.load(Ordering::Relaxed) {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    // A real operation leaves the handle with announced
                    // margins; starting the next op and stalling keeps the
                    // epoch pinned while slots stay populated mid-window.
                    ds.contains(&mut h, x % 512);
                    h.start_op();
                    std::thread::sleep(Duration::from_micros(200));
                    h.end_op();
                }
            });
        }
        for t in 0..3u64 {
            let (smr, ds, stop) = (smr.clone(), ds.clone(), stop.clone());
            s.spawn(move || {
                let mut h = smr.register();
                let mut x = t * 13 + 1;
                while !stop.load(Ordering::Relaxed) {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let k = x % 512;
                    match x % 3 {
                        0 => {
                            ds.insert(&mut h, k);
                        }
                        1 => {
                            ds.remove(&mut h, k);
                        }
                        _ => {
                            ds.contains(&mut h, k);
                        }
                    }
                }
            });
        }
        std::thread::sleep(Duration::from_millis(120));
        stop.store(true, Ordering::Release);
    });
    smr.retired_pending()
}

#[test]
fn mp_list_safe_and_bounded_under_repeated_stalls() {
    for _ in 0..5 {
        let pending = stall_churn::<LinkedList<Mp>>();
        assert!(pending < 5_000, "waste {pending} not bounded");
    }
}

#[test]
fn mp_skiplist_safe_and_bounded_under_repeated_stalls() {
    for _ in 0..5 {
        let pending = stall_churn::<SkipList<Mp>>();
        assert!(pending < 5_000, "waste {pending} not bounded");
    }
}

#[test]
fn mp_nmtree_safe_and_bounded_under_repeated_stalls() {
    for _ in 0..5 {
        let pending = stall_churn::<NmTree<Mp>>();
        assert!(pending < 5_000, "waste {pending} not bounded");
    }
}
