//! Compare all SMR schemes on one workload, in one command.
//!
//! Runs the paper's read-dominated workload on the NM tree under every
//! scheme and prints throughput, fences per traversed node, and wasted
//! memory — a miniature of the paper's evaluation (§6). The schemes are
//! selected at runtime through the [`AnySmr`] facade, so the whole table
//! is one monomorphization; name a scheme to run a single row:
//!
//! ```sh
//! cargo run --release -p mp-bench --example scheme_comparison
//! cargo run --release -p mp-bench --example scheme_comparison -- ebr
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mp_ds::{skiplist, ConcurrentSet, NmTree};
use mp_smr::{
    AnySmr, SchemeKind, Smr, SmrBuilder, Telemetry, TelemetrySnapshot,
};

const THREADS: usize = 4;
const PREFILL: u64 = 20_000;
const RUN: Duration = Duration::from_millis(400);

fn bench(kind: SchemeKind) -> (f64, usize, TelemetrySnapshot) {
    let smr: Arc<AnySmr> = SmrBuilder::new()
        .max_threads(THREADS + 1)
        .slots_per_thread(skiplist::SLOTS_NEEDED)
        .margin(1 << 27) // margin sized for PREFILL's index density
        .scheme(kind)
        .try_build_any()
        .expect("valid config");
    let set: Arc<NmTree<AnySmr>> = Arc::new(NmTree::new(&smr));
    {
        // Uniform random prefill (§6): the NM tree is unbalanced, so random
        // insertion order is what keeps depth logarithmic.
        let mut h = smr.try_register().expect("registry slot");
        let mut x = 0x243f_6a88_85a3_08d3u64;
        let mut added = 0;
        while added < PREFILL {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if set.insert(&mut h, x % (2 * PREFILL)) {
                added += 1;
            }
        }
    }
    let stop = Arc::new(AtomicBool::new(false));
    let mut ops_total = 0u64;
    let mut merged = TelemetrySnapshot::default();
    let mut peak_pending = 0usize;
    std::thread::scope(|s| {
        let mut joins = Vec::new();
        for t in 0..THREADS as u64 {
            let (smr, set, stop) = (smr.clone(), set.clone(), stop.clone());
            joins.push(s.spawn(move || {
                let mut h = smr.try_register().expect("registry slot");
                let mut x = t + 1;
                let mut ops = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let key = x % (2 * PREFILL);
                    match x % 100 {
                        0..=89 => {
                            set.contains(&mut h, key);
                        }
                        90..=94 => {
                            set.insert(&mut h, key);
                        }
                        _ => {
                            set.remove(&mut h, key);
                        }
                    }
                    ops += 1;
                }
                (ops, h.snapshot())
            }));
        }
        let deadline = Instant::now() + RUN;
        while Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
            peak_pending = peak_pending.max(smr.retired_pending());
        }
        stop.store(true, Ordering::Release);
        for j in joins {
            let (o, s) = j.join().unwrap();
            ops_total += o;
            merged.merge(&s);
        }
    });
    (ops_total as f64 / RUN.as_secs_f64() / 1e6, peak_pending, merged)
}

fn main() {
    // DTA is excluded from the sweep: without its list-specific freezer it
    // degenerates to EBR and the row would mislead.
    let kinds: Vec<SchemeKind> = match std::env::args().nth(1) {
        Some(name) => vec![name.parse().unwrap_or_else(|e| panic!("{e}"))],
        None => SchemeKind::ALL.into_iter().filter(|k| *k != SchemeKind::Dta).collect(),
    };
    println!(
        "NM tree, read-dominated, {THREADS} threads, S={PREFILL} \
         (paper §6 in miniature)\n"
    );
    println!(
        "{:>6}  {:>8}  {:>12}  {:>12}  {:>9}  {:>10}",
        "scheme", "Mops/s", "fences/node", "peak wasted", "pool-hit", "allocs/op"
    );
    for kind in kinds {
        let (mops, peak, snap) = bench(kind);
        let name = kind.name();
        let fpn = snap.fences_per_node();
        println!(
            "{name:>6}  {mops:>8.3}  {fpn:>12.4}  {peak:>12}  {:>9.3}  {:>10.4}",
            snap.pool_hit_rate(),
            snap.allocs_per_op(),
        );
    }
    println!("\nMP: bounded wasted memory at epoch-scheme-like cost (Table 1).");
    println!("pool-hit: node allocations served a recycled pool block;");
    println!("allocs/op: fresh-memory node allocations per operation (pool misses / ops).");
}
