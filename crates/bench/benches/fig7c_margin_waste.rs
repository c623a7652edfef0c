//! Figure 7c — margin-size sensitivity: wasted memory (paper §6.1).
//!
//! Same sweep as Figure 7b, reporting retired-but-unreclaimed nodes.
//! Expected shape: wasted memory rises monotonically with the margin
//! (bigger margins pin more retired indices per announcement).

use mp_bench::{BenchParams, Table};
use mp_ds::NmTree;
use mp_smr::schemes::Mp;

fn main() {
    let prefill = mp_bench::prefill_size(500_000);
    let runs = mp_bench::runs();
    let threads = *mp_bench::thread_sweep().last().unwrap_or(&2);
    let mut table = Table::new(
        &format!("Figure 7c: margin sensitivity, wasted memory (S={prefill}, T={threads})"),
        &["margin", "avg-retired", "peak-pending"],
    );
    for shift in 17..=26u32 {
        let mut p = BenchParams::paper(threads, 500_000, mp_bench::WRITE_DOMINATED);
        p.config = p.config.with_margin(1 << shift);
        let res = mp_bench::driver::run_avg::<Mp, NmTree<Mp>>(&p, runs);
        table.row(vec![
            format!("2^{shift}"),
            format!("{:.1}", res.telemetry.avg_retired_at_op_start()),
            res.peak_pending.to_string(),
        ]);
    }
    table.emit("fig7c_margin_waste");
}
