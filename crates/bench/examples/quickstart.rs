//! Quickstart: a concurrent skip list protected by margin pointers.
//!
//! ```sh
//! cargo run --release -p mp-bench --example quickstart
//! ```

use std::sync::Arc;

use mp_ds::{skiplist, ConcurrentSet, SkipList};
use mp_smr::{schemes::Mp, Atomic, Config, Shared, Smr, SmrHandle, Telemetry};

fn main() {
    // 1. Configure the SMR scheme. The margin (2^20 here, the paper's
    //    default) trades run-time overhead against the wasted-memory bound.
    let config = Config {
        max_threads: 8,
        slots_per_thread: skiplist::SLOTS_NEEDED,
        margin: 1 << 20,
        ..Config::default()
    };
    let smr = Mp::new(config);

    // 2. Build a data structure on top of it.
    let set: Arc<SkipList<Mp>> = Arc::new(SkipList::new(&smr));

    // 3. Each thread registers a handle and goes to work. All protection —
    //    margin announcements, hazard fallbacks, epoch stamping — happens
    //    inside the structure's operations.
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let set = Arc::clone(&set);
            let smr = Arc::clone(&smr);
            s.spawn(move || {
                let mut handle = smr.register();
                for i in 0..10_000u64 {
                    let key = (i * 7 + t) % 8_192;
                    match i % 4 {
                        0 => {
                            set.insert(&mut handle, key);
                        }
                        1 => {
                            set.contains(&mut handle, key);
                        }
                        2 => {
                            set.remove(&mut handle, key);
                        }
                        _ => {
                            set.contains(&mut handle, key.wrapping_add(1) % 8_192);
                        }
                    }
                }
                let snap = handle.snapshot();
                println!(
                    "thread {t}: {} ops, {} fences, {} nodes retired, {} reclaimed",
                    snap.ops(),
                    snap.fences(),
                    snap.retires(),
                    snap.frees(),
                );
            });
        }
    });

    let mut handle = smr.register();
    println!("final size: {} keys", set.len(&mut handle));
    println!("unreclaimed (wasted) nodes right now: {}", smr.retired_pending());

    // 4. Under the hood: structures drive the raw SMR API. Client code that
    //    needs it directly uses `pin()` — an RAII guard that announces the
    //    operation on creation and releases every protection when dropped,
    //    so start_op/end_op can never be left unbalanced.
    let mut op = handle.pin();
    let node = op.alloc_with_index(123u64, 42 << 16);
    let cell = Atomic::new(node); // publish ...
    let seen = op.read(&cell, 0); // ... and load through protected read
    // SAFETY: [INV-01] deref inside the `op` pin span that read `seen`.
    println!("raw API: read back key {}", unsafe { *seen.deref().data() });
    cell.store(Shared::null(), std::sync::atomic::Ordering::Release); // unlink
    // SAFETY: [INV-04] unlinked above, retired once.
    unsafe { op.retire(node) };
    drop(op); // end_op: protections released, node reclaimable
    drop(handle);
}
