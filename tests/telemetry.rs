//! Telemetry integration: armed timing on a real workload, the exposition
//! contract, and the disarmed counters-only contract.
//!
//! Arming is process-global state, so a single `#[test]` covers both armed
//! and disarmed phases in a fixed order — the same discipline as
//! `leak_check` and `zero_alloc`. The other tests assert nothing about
//! timing: one holds the exposition to its metric families and live waste
//! gauges, one holds the README's counter table to `Counter::ALL`.

use margin_pointers::ds::LinkedList;
use margin_pointers::smr::schemes::{Ebr, Mp};
use margin_pointers::smr::telemetry::export;
use margin_pointers::smr::{telemetry, Counter, Smr, SmrBuilder, SmrHandle, Telemetry};
use mp_bench::churn::{plans, Churn, Draw};

#[test]
fn armed_run_times_and_exports_and_disarmed_run_only_counts() {
    // --- Phase 1: armed. Ops and scans are timed.
    telemetry::set_armed(true);
    let smr = SmrBuilder::new().max_threads(4).empty_freq(32).build::<Mp>();

    // Counter sanity on a single handle before the multithreaded churn.
    {
        let mut h = smr.register();
        let mut op = h.pin();
        let n = op.alloc_with_index(7u64, 21 << 16);
        // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
        unsafe { op.retire(n) };
        drop(op);
        h.force_empty();
        let snap = h.snapshot();
        assert_eq!(snap.allocs(), 1, "the alloc is counted");
        assert_eq!(snap.retires(), 1, "the retire is counted");
        assert_eq!(snap.frees(), 1, "the unprotected node is freed and counted");
        assert!(snap.op_latency().count() >= 1, "pin() ops are timed when armed");
    }

    // Three workers × 4 000 operations over 512 keys, recorded and checked.
    let workers = plans(&[1, 2, 3], Draw::Thirds, 4_000, 512);
    let churn = Churn { prefill: Vec::new(), keys: 512, workers, fault: None };
    let out = churn.run::<Mp, LinkedList<Mp>>(&smr);
    let merged = out.stats;
    assert!(merged.ops() >= out.recorded as u64, "every recorded op counted");
    assert_eq!(merged.op_latency().count(), merged.ops(), "armed: every ds op is timed");
    assert!(merged.retires() > 0 && merged.frees() > 0, "churn reclaims");
    assert!(merged.scan_latency().count() > 0, "armed scans are timed");

    // The exposition round-trips through its validator on real data.
    let prom = export::prometheus_text("MP", &merged, smr.telemetry());
    let n = export::validate_prometheus(&prom).expect("valid Prometheus exposition");
    assert!(n > 10, "expected a full metric family set, got {n} samples");
    assert!(prom.contains("mp_ops_total"), "counter families present");
    assert!(prom.contains("mp_scan_latency_nanos_bucket"), "histogram families present");
    // The list's nodes came from the pool, so it reserved at least a region.
    let reserved = prom
        .lines()
        .find_map(|l| l.strip_prefix("mp_pool_reserved_bytes "))
        .expect("pool gauges present");
    assert!(reserved.parse::<usize>().unwrap() >= mp_util::pool::REGION);

    // --- Phase 2: disarmed. Counters still tick; no timing.
    telemetry::set_armed(false);
    let smr2 = Ebr::new(Default::default());
    {
        let mut h = smr2.register();
        let mut op = h.pin();
        let n = op.alloc(1u32);
        // SAFETY: [INV-12] test-controlled: the nodes involved are test-owned (unpublished or unlinked here) or the protecting span is held open by the test.
        unsafe { op.retire(n) };
        drop(op);
        let snap = h.snapshot();
        assert_eq!(snap.ops(), 1, "counters are always on");
        assert_eq!(snap.op_latency().count(), 0, "no timing when disarmed");
    }
}

/// The exposition's contract, on a scheme no one polled: every metric
/// family an operator scrapes is present, the waste gauges are the live
/// gauges as they read at render time, and no family of a removed
/// mechanism (event ring, backpressure ladder, scan-growth counter) is.
#[test]
fn exposition_carries_every_family_and_reads_waste_live() {
    let smr = Ebr::new(Default::default());
    let mut h = smr.register();
    {
        // Ten retires stay far below the scan watermark: all ten pend.
        let mut op = h.pin();
        for i in 0..10u64 {
            let n = op.alloc(i);
            // SAFETY: [INV-12] test-controlled: never published, retired once.
            unsafe { op.retire(n) };
        }
    }
    let waste = smr.telemetry();
    assert_eq!(waste.pending(), 10);
    let prom = export::prometheus_text("EBR", &h.snapshot(), waste);
    export::validate_prometheus(&prom).expect("valid Prometheus exposition");
    for family in [
        "mp_ops_total",
        "mp_op_latency_nanos_bucket",
        "mp_scan_latency_nanos_bucket",
        "mp_wasted_nodes",
        "mp_wasted_bytes",
        "mp_pool_reserved_bytes",
        "mp_pool_blank_chunks",
        "mp_pool_free_blocks",
    ] {
        assert!(prom.lines().any(|l| l.starts_with(family)), "{family} missing:\n{prom}");
    }
    for (gauge, live) in
        [("mp_wasted_nodes", waste.pending()), ("mp_wasted_bytes", waste.pending_bytes())]
    {
        let sample = format!("\n{gauge}{{scheme=\"EBR\"}} {live}\n");
        assert!(prom.contains(&sample), "{gauge} is not the live gauge {live}:\n{prom}");
    }
    for gone in ["mp_events_", "mp_backpressure_"] {
        assert!(!prom.contains(gone), "a {gone} family is exported");
    }
    // The counter families are exactly the counter table: a removed
    // counter (the scan-growth one among them) is not exported.
    let counters: Vec<&str> = prom
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE ")?.strip_suffix(" counter"))
        .collect();
    let declared: Vec<String> =
        Counter::ALL.iter().map(|c| format!("mp_{}_total", c.name())).collect();
    assert_eq!(counters, declared);
}

/// README's "Counters" table has exactly one row per counter, in
/// `Counter::ALL` order: a new table row in `telemetry.rs` without its
/// README row (or a stale README row) fails here.
#[test]
fn readme_counter_table_matches_the_counter_table() {
    let readme = include_str!("../README.md");
    let section = readme.split("\n### Counters\n").nth(1).expect("README has a Counters section");
    let documented: Vec<&str> = section
        .lines()
        .skip_while(|l| !l.starts_with("|---"))
        .skip(1)
        .take_while(|l| l.starts_with('|'))
        .map(|row| row.split('`').nth(1).expect("first cell is a `name`"))
        .collect();
    let declared: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
    assert_eq!(documented, declared);
}
