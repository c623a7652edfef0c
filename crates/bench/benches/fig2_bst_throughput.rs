//! Figure 2 — Natarajan–Mittal BST throughput (paper §6.1).
//!
//! Paper setting: S = 500 K prefill, keys from a 1 M range, thread counts
//! 1..100, three workloads. Expected shape: in non-read-only workloads MP ≈
//! IBR ≈ HE while HP trails 1.3–2×; in read-only, MP trails the best
//! EBR-based scheme by ≈20%; past the hardware-thread count, IBR/HE dip and
//! MP can overtake them.

use mp_bench::{for_each_scheme, BenchParams, Table};
use mp_ds::NmTree;

fn main() {
    let paper_s = 500_000;
    let prefill = mp_bench::prefill_size(paper_s);
    let runs = mp_bench::runs();
    for mix in [mp_bench::READ_DOMINATED, mp_bench::WRITE_DOMINATED, mp_bench::READ_ONLY] {
        let mut table = Table::new(
            &format!("Figure 2: BST (S={prefill}) throughput, {} workload", mix.name),
            &["threads", "scheme", "Mops/s", "avg-retired"],
        );
        for threads in mp_bench::thread_sweep() {
            let p = BenchParams::paper(threads, paper_s, mix);
            for_each_scheme!(NmTree, &p, runs, |name, res| {
                table.row(vec![
                    threads.to_string(),
                    name.to_string(),
                    format!("{:.3}", res.mops),
                    format!("{:.1}", res.telemetry.avg_retired_at_op_start()),
                ]);
            });
        }
        table.emit(&format!("fig2_bst_{}", mix.name));
    }
}
