//! End-to-end telemetry tour: counters, armed latency histograms, waste
//! sampling, and both exporters.
//!
//! Runs a short churn workload on MP with telemetry armed, prints a
//! counter/latency digest, and writes the
//! Prometheus + JSON artifacts under `MP_BENCH_DIR` (default
//! `target/bench-results`), validating both before reporting their paths.
//!
//! ```sh
//! MP_TELEMETRY=1 cargo run --release --example telemetry_export
//! ```
//!
//! (The example arms telemetry itself via [`SmrBuilder::telemetry`], so the
//! env var is optional.)

use std::sync::Arc;
use std::time::Duration;

use margin_pointers::ds::{skiplist, ConcurrentSet, SkipList};
use margin_pointers::smr::schemes::Mp;
use margin_pointers::smr::telemetry::export;
use margin_pointers::smr::{Smr, SmrBuilder, SmrHandle, Telemetry, TelemetrySnapshot, WasteSampler};

const THREADS: u64 = 4;
const OPS_PER_THREAD: u64 = 30_000;

fn main() {
    let smr = SmrBuilder::new()
        .max_threads(THREADS as usize + 2) // workers + setup + final reader
        .slots_per_thread(skiplist::SLOTS_NEEDED)
        .margin(1 << 20)
        .telemetry(true) // arm op and scan latency timing
        .build::<Mp>();
    let set: Arc<SkipList<Mp>> = Arc::new(SkipList::new(&smr));

    // Background waste sampler: snapshots retired-but-unreclaimed nodes and
    // bytes into the scheme's time series every 5 ms until dropped.
    let sampler = WasteSampler::spawn(smr.clone(), Duration::from_millis(5));

    let mut merged = TelemetrySnapshot::default();
    std::thread::scope(|s| {
        let mut joins = Vec::new();
        for t in 0..THREADS {
            let (smr, set) = (smr.clone(), set.clone());
            joins.push(s.spawn(move || {
                let mut h = smr.register();
                let mut x = t + 0x9e37_79b9;
                for i in 0..OPS_PER_THREAD {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let key = x % 8_192;
                    match i % 3 {
                        0 => {
                            set.insert(&mut h, key);
                        }
                        1 => {
                            set.contains(&mut h, key);
                        }
                        _ => {
                            set.remove(&mut h, key);
                        }
                    }
                }
                h.snapshot()
            }));
        }
        for j in joins {
            merged.merge(&j.join().expect("worker panicked"));
        }
    });
    // Raw-API phase: `pin()` guards are what the op-latency histogram
    // times (structure operations drive start_op/end_op directly and are
    // charged to the structures' own metrics instead).
    {
        let mut h = smr.register();
        for i in 0..2_000u64 {
            let mut op = h.pin();
            let n = op.alloc_with_index(i, ((i % 60_000) as u32 + 2_000) << 16);
            unsafe { op.retire(n) }; // SAFETY: [INV-04] never published, retired once.
            drop(op);
        }
        merged.merge(&h.snapshot());
    }
    drop(sampler); // stop + join the sampler thread

    println!("== counters ==");
    println!("  ops            {:>10}", merged.ops());
    println!("  allocs         {:>10}", merged.allocs());
    println!("  retires        {:>10}", merged.retires());
    println!("  frees          {:>10}", merged.frees());
    println!("  fences         {:>10}", merged.fences());
    println!("  fences/node    {:>10.4}", merged.fences_per_node());
    println!("  pool hit rate  {:>10.3}", merged.pool_hit_rate());

    let ops = merged.op_latency();
    println!("== op latency (ns) ==");
    println!(
        "  count {}  mean {:.0}  p50 {}  p99 {}  max {}",
        ops.count(),
        ops.mean(),
        ops.quantile(0.50),
        ops.quantile(0.99),
        ops.max()
    );
    let scans = merged.scan_latency();
    println!("== empty() scan latency (ns) ==");
    println!(
        "  count {}  mean {:.0}  p99 {}  max {}",
        scans.count(),
        scans.mean(),
        scans.quantile(0.99),
        scans.max()
    );

    let waste = smr.telemetry().waste().samples();
    println!("== waste series ({} samples) ==", waste.len());
    if let Some(peak) = waste.iter().max_by_key(|s| s.pending_bytes) {
        println!("  peak: {} nodes / {} bytes pending", peak.pending_nodes, peak.pending_bytes);
    }

    let (prom, json) = export::write_artifacts("MP", &merged, &waste).expect("write artifacts");
    let samples = export::validate_artifact_files(&prom, &json).expect("artifacts must validate");
    println!("== exporters ==");
    println!("  {} ({samples} Prometheus samples)", prom.display());
    println!("  {}", json.display());
}
