//! Figure 3 — Fraser skip-list throughput (paper §6.1).
//!
//! Same setting and expected shape as Figure 2, on the skip list: MP ≈ HE
//! in non-read-only workloads, HP trails, read-only MP ≈ −30% vs the best
//! EBR-based scheme.

use mp_bench::{for_each_scheme, BenchParams, Table};
use mp_ds::SkipList;

fn main() {
    let paper_s = 500_000;
    let prefill = mp_bench::prefill_size(paper_s);
    let runs = mp_bench::runs();
    for mix in [mp_bench::READ_DOMINATED, mp_bench::WRITE_DOMINATED, mp_bench::READ_ONLY] {
        let mut table = Table::new(
            &format!("Figure 3: skip list (S={prefill}) throughput, {} workload", mix.name),
            &["threads", "scheme", "Mops/s", "avg-retired"],
        );
        for threads in mp_bench::thread_sweep() {
            let p = BenchParams::paper(threads, paper_s, mix);
            for_each_scheme!(SkipList, &p, runs, |name, res| {
                table.row(vec![
                    threads.to_string(),
                    name.to_string(),
                    format!("{:.3}", res.mops),
                    format!("{:.1}", res.telemetry.avg_retired_at_op_start()),
                ]);
            });
        }
        table.emit(&format!("fig3_skiplist_{}", mix.name));
    }
}
