//! Throughput trajectory for the zero-allocation hot path.
//!
//! Sweeps scheme × structure × thread-count and records, per point:
//! throughput (Mops/s), fresh-memory allocations per operation, pool hit
//! rate, fences per operation, and the number of scans that had to grow a
//! scratch buffer. The machine-readable result lands in
//! `BENCH_throughput.json` under `$MP_BENCH_DIR` (default
//! `target/bench-results/`). The node pool has no off switch; the
//! `"pool": "on"` column is constant and stays for readers of schema v3.
//!
//! Knobs: `MP_BENCH_THREADS`, `MP_BENCH_DURATION_MS`, `MP_BENCH_PREFILL`,
//! `MP_BENCH_RUNS`, `MP_BENCH_FULL` (see crate docs).

use std::fmt::Write as _;

use mp_bench::{for_each_scheme, json_path, json_str, BenchParams, Table};
use mp_ds::{LinkedList, NmTree, SkipList};
use mp_smr::{FenceSite, TelemetrySnapshot};

/// One measured point of the sweep: where it was taken, its throughput,
/// and the merged telemetry every other column is read from.
struct Point {
    scheme: &'static str,
    structure: &'static str,
    threads: usize,
    mops: f64,
    telemetry: TelemetrySnapshot,
}

impl Point {
    /// Per-site attribution of `fences_per_op`:
    /// `[start_op, end_op, announce, hp_protect]`.
    fn fence_sites_per_op(&self) -> [f64; 4] {
        [FenceSite::StartOp, FenceSite::EndOp, FenceSite::Announce, FenceSite::HpProtect]
            .map(|site| self.telemetry.fences_per_op_at(site))
    }

    fn json(&self) -> String {
        let t = &self.telemetry;
        let sites = self.fence_sites_per_op();
        format!(
            "{{\"scheme\": {}, \"structure\": {}, \"threads\": {}, \"pool\": \"on\", \
             \"cadence\": \"watermark\", \
             \"mops\": {:.4}, \"allocs_per_op\": {:.5}, \"pool_hit_rate\": {:.4}, \
             \"fences_per_op\": {:.4}, \
             \"fences_start_op_per_op\": {:.4}, \"fences_end_op_per_op\": {:.4}, \
             \"fences_announce_per_op\": {:.4}, \"fences_hp_protect_per_op\": {:.4}, \
             \"scan_heap_allocs\": {}, \"empties\": {}, \"scan_ns_per_free\": {:.1}}}",
            json_str(self.scheme),
            json_str(self.structure),
            self.threads,
            self.mops,
            t.allocs_per_op(),
            t.pool_hit_rate(),
            t.fences_per_op(),
            sites[0],
            sites[1],
            sites[2],
            sites[3],
            t.scan_heap_allocs(),
            t.empties(),
            t.scan_ns_per_free(),
        )
    }
}

fn main() {
    let runs = mp_bench::runs();
    let sweep = mp_bench::thread_sweep();
    let duration_ms = mp_bench::duration().as_millis();
    let mut points: Vec<Point> = Vec::new();

    // Sweep one structure family across all schemes and thread counts.
    macro_rules! sweep_structure {
        ($ds:ident, $label:expr, $paper_s:expr) => {
            for &threads in &sweep {
                let p = BenchParams::paper(threads, $paper_s, mp_bench::READ_DOMINATED);
                for_each_scheme!($ds, &p, runs, |name, res| {
                    points.push(Point {
                        scheme: name,
                        structure: $label,
                        threads,
                        mops: res.mops,
                        telemetry: res.telemetry,
                    });
                });
            }
        };
    }

    sweep_structure!(LinkedList, "list", 5_000);
    sweep_structure!(SkipList, "skiplist", 500_000);
    sweep_structure!(NmTree, "tree", 500_000);

    let mut table = Table::new(
        "Throughput trajectory (read-dominated)",
        &[
            "structure",
            "threads",
            "scheme",
            "Mops/s",
            "allocs/op",
            "pool-hit",
            "fences/op",
            "f-sites s/e/a/h",
            "scan-ns/free",
        ],
    );
    for pt in &points {
        let (t, sites) = (&pt.telemetry, pt.fence_sites_per_op());
        table.row(vec![
            pt.structure.to_string(),
            pt.threads.to_string(),
            pt.scheme.to_string(),
            format!("{:.3}", pt.mops),
            format!("{:.4}", t.allocs_per_op()),
            format!("{:.3}", t.pool_hit_rate()),
            format!("{:.3}", t.fences_per_op()),
            format!("{:.2}/{:.2}/{:.2}/{:.2}", sites[0], sites[1], sites[2], sites[3]),
            format!("{:.0}", t.scan_ns_per_free()),
        ]);
    }
    table.emit("throughput");

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"schema\": \"mp-bench/throughput/v3\",");
    let _ = writeln!(
        json,
        "  \"config\": {{\"threads\": {:?}, \"duration_ms\": {}, \"runs\": {}, \"workload\": \"read-dominated\"}},",
        sweep, duration_ms, runs
    );
    let _ = write!(json, "  \"results\": [");
    for (i, pt) in points.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(json, "{sep}\n    {}", pt.json());
    }
    let _ = writeln!(json, "\n  ]\n}}");

    let path = json_path("BENCH_throughput");
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&path, json).expect("write BENCH_throughput.json");
    eprintln!("[json] {}", path.display());
}
