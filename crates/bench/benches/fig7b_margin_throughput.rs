//! Figure 7b — margin-size sensitivity: throughput (paper §6.1).
//!
//! Write-dominated workload on the 500 K BST, margins 2^17..2^26. Expected
//! shape: throughput rises monotonically with the margin (bigger margins ⇒
//! fewer announcements ⇒ fewer fences). The paper picks 2^20 as the
//! largest margin that still keeps wasted memory flat (Figure 7c).

use mp_bench::{BenchParams, Table};
use mp_ds::NmTree;
use mp_smr::schemes::Mp;

fn main() {
    let prefill = mp_bench::prefill_size(500_000);
    let runs = mp_bench::runs();
    let threads = *mp_bench::thread_sweep().last().unwrap_or(&2);
    let mut table = Table::new(
        &format!("Figure 7b: margin sensitivity, write-dominated BST (S={prefill}, T={threads})"),
        &["margin", "Mops/s", "fences/node"],
    );
    for shift in 17..=26u32 {
        let mut p = BenchParams::paper(threads, 500_000, mp_bench::WRITE_DOMINATED);
        p.config = p.config.with_margin(1 << shift);
        let res = mp_bench::driver::run_avg::<Mp, NmTree<Mp>>(&p, runs);
        table.row(vec![
            format!("2^{shift}"),
            format!("{:.3}", res.mops),
            format!("{:.4}", res.telemetry.fences_per_node()),
        ]);
    }
    table.emit("fig7b_margin_throughput");
}
