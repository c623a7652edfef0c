//! Telemetry integration: armed timing on a real workload, exporter
//! validity, and the disarmed counters-only contract.
//!
//! Arming is process-global state, so a single `#[test]` covers both armed
//! and disarmed phases in a fixed order — the same discipline as
//! `leak_check` and `zero_alloc`. The only other test here registers no
//! handle: it holds the README's counter table to `Counter::ALL`.

use std::sync::Arc;

use margin_pointers::ds::{ConcurrentSet, LinkedList};
use margin_pointers::smr::schemes::{Ebr, Mp};
use margin_pointers::smr::telemetry::export;
use margin_pointers::smr::{
    telemetry, Counter, Smr, SmrBuilder, SmrHandle, Telemetry, TelemetrySnapshot,
};

fn churn<S: Smr>(smr: &Arc<S>, threads: u64, ops: u64) -> TelemetrySnapshot {
    let set: Arc<LinkedList<S>> = Arc::new(LinkedList::new(smr));
    let mut merged = TelemetrySnapshot::default();
    std::thread::scope(|s| {
        let mut joins = Vec::new();
        for t in 0..threads {
            let (smr, set) = (smr.clone(), set.clone());
            joins.push(s.spawn(move || {
                let mut h = smr.register();
                for i in 0..ops {
                    let key = (i * 17 + t) % 512;
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
    merged
}

#[test]
fn armed_run_times_and_exports_and_disarmed_run_only_counts() {
    // --- Phase 1: armed. Ops and scans are timed, waste sampled.
    let smr = SmrBuilder::new()
        .max_threads(4)
        .empty_freq(32)
        .telemetry(true)
        .build::<Mp>();

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

    let merged = churn(&smr, 3, 4_000);
    smr.sample_waste();
    assert!(merged.ops() >= 3 * 4_000, "every op counted");
    assert!(merged.op_latency().count() == 0, "ds ops use raw start_op, not pin()");
    assert!(merged.retires() > 0 && merged.frees() > 0, "churn reclaims");
    assert!(merged.scan_latency().count() > 0, "armed scans are timed");

    let waste = smr.telemetry().waste().samples();
    assert!(!waste.is_empty(), "sample_waste records into the series");

    // Exporters round-trip through their own validators on real data.
    let prom = export::prometheus_text("MP", &merged, &waste);
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
    let json = export::json("MP", &merged, &waste);
    export::validate_json(&json).expect("valid JSON");
    assert!(json.contains("\"pool\": {\"regions\": "), "pool object present");

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
