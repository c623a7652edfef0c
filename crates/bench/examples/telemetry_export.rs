//! End-to-end telemetry tour: counters, armed latency histograms, the live
//! waste gauges, and the Prometheus exposition.
//!
//! Runs a short recorded churn (`mp_bench::churn`) on MP with telemetry
//! armed, prints a counter/latency digest to stderr and the validated
//! Prometheus text exposition to stdout, so the output can go straight to
//! a file:
//!
//! ```sh
//! cargo run --release -p mp-bench --example telemetry_export > telemetry_mp.prom
//! ```

use mp_bench::churn::{plans, Churn, Draw};
use mp_ds::{skiplist, SkipList};
use mp_smr::schemes::Mp;
use mp_smr::telemetry::{self, export};
use mp_smr::{Smr, SmrBuilder};

const THREADS: usize = 4;
const OPS_PER_THREAD: usize = 30_000;

fn main() {
    telemetry::set_armed(true); // time pin() guards and scans
    let smr = SmrBuilder::new()
        .max_threads(THREADS + 2) // workers + setup + final reader
        .slots_per_thread(skiplist::SLOTS_NEEDED)
        .margin(1 << 20)
        .build::<Mp>();
    // Each worker's operations over 8 192 keys, recorded and checked for
    // linearizability.
    let seeds: Vec<u64> = (1..=THREADS as u64).collect();
    let workers = plans(&seeds, Draw::Thirds, OPS_PER_THREAD, 8_192);
    let churn = Churn { prefill: Vec::new(), keys: 8_192, workers, fault: None };
    let merged = churn.run::<Mp, SkipList<Mp>>(&smr).stats;

    eprintln!("== counters ==");
    eprintln!("  ops            {:>10}", merged.ops());
    eprintln!("  allocs         {:>10}", merged.allocs());
    eprintln!("  retires        {:>10}", merged.retires());
    eprintln!("  frees          {:>10}", merged.frees());
    eprintln!("  fences         {:>10}", merged.fences());
    eprintln!("  fences/node    {:>10.4}", merged.fences_per_node());
    eprintln!("  pool hit rate  {:>10.3}", merged.pool_hit_rate());

    // Every structure operation opens with `pin()`, whose guard is what
    // the armed op-latency histogram times.
    let ops = merged.op_latency();
    assert_eq!(ops.count(), merged.ops(), "armed: every operation is timed");
    eprintln!("== pin() op latency (ns) ==");
    eprintln!(
        "  count {}  mean {:.0}  p50 {}  p99 {}  max {}",
        ops.count(),
        ops.mean(),
        ops.quantile(0.50),
        ops.quantile(0.99),
        ops.max()
    );
    let scans = merged.scan_latency();
    eprintln!("== empty() scan latency (ns) ==");
    eprintln!(
        "  count {}  mean {:.0}  p99 {}  max {}",
        scans.count(),
        scans.mean(),
        scans.quantile(0.99),
        scans.max()
    );

    let waste = smr.telemetry();
    eprintln!("== waste now ==");
    eprintln!("  {} nodes / {} bytes pending", waste.pending(), waste.pending_bytes());

    let text = export::prometheus_text("MP", &merged, waste);
    let samples = export::validate_prometheus(&text).expect("exposition must validate");
    eprintln!("== exposition: {samples} Prometheus samples on stdout ==");
    print!("{text}");
}
