//! Stall resilience: the paper's §1 scenario, live.
//!
//! One thread parks itself in the middle of an operation while three
//! workers churn inserts/removes. Under EBR the parked thread pins every
//! node retired after its announcement, so wasted memory grows without
//! bound; under MP it stays flat — the predetermined bound in action
//! (Theorem 4.2).
//!
//! ```sh
//! cargo run --release -p mp-bench --example stall_resilience
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mp_ds::{ConcurrentSet, LinkedList};
use mp_smr::schemes::{Ebr, Mp};
use mp_smr::{Config, Smr, SmrHandle};

fn churn_with_stall<S: Smr>(label: &str) -> Vec<usize> {
    let smr = S::new(Config::default().with_max_threads(8));
    let list = Arc::new(LinkedList::<S>::new(&smr));
    let stop = Arc::new(AtomicBool::new(false));

    // Prefill.
    {
        let mut h = smr.register();
        for k in 0..512 {
            list.insert(&mut h, k);
        }
    }

    let mut samples = Vec::new();
    std::thread::scope(|s| {
        // The straggler: starts an operation and goes to sleep.
        {
            let smr = smr.clone();
            let stop = stop.clone();
            s.spawn(move || {
                let mut h = smr.register();
                // Pin an operation open (RAII: ends when the guard drops),
                // then stall mid-operation.
                let _op = h.pin();
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(5));
                }
            });
        }
        // Workers churn.
        for t in 0..3u64 {
            let smr = smr.clone();
            let list = list.clone();
            let stop = stop.clone();
            s.spawn(move || {
                let mut h = smr.register();
                let mut k = t;
                while !stop.load(Ordering::Relaxed) {
                    list.remove(&mut h, k % 512);
                    list.insert(&mut h, k % 512);
                    k = k.wrapping_add(3);
                }
            });
        }
        // Sample wasted memory ten times over one second.
        for _ in 0..10 {
            std::thread::sleep(Duration::from_millis(100));
            samples.push(smr.retired_pending());
        }
        stop.store(true, Ordering::Release);
    });

    println!("{label:>4}: wasted-memory samples over time = {samples:?}");
    samples
}

fn main() {
    println!("churning 3 workers while 1 thread is parked mid-operation...\n");
    let ebr = churn_with_stall::<Ebr>("EBR");
    let mp = churn_with_stall::<Mp>("MP");
    let ebr_final = *ebr.last().unwrap();
    let mp_final = *mp.last().unwrap();
    println!(
        "\nfinal wasted memory — EBR: {ebr_final} nodes (grows with runtime), \
         MP: {mp_final} nodes (bounded)"
    );
    assert!(
        ebr_final > 10 * mp_final.max(1),
        "expected EBR waste to dwarf MP's under a stall"
    );
    println!("MP kept wasted memory bounded; EBR could not. (Paper §1, Figure 6.)");
}
