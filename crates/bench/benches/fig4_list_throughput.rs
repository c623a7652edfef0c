//! Figure 4 — Michael linked-list throughput, including DTA (paper §6.1).
//!
//! Paper setting: S = 5 K (linear-time operations make larger sizes
//! impractical). Expected shape: IBR leads at high thread counts (2–3×
//! over MP), DTA outperforms MP and HP, and MP's gap versus the epoch
//! schemes is widest here — the "symbiotic" effect: the slower the data
//! structure, the more MP's per-dereference work shows.

use mp_bench::{for_each_scheme, BenchParams, Table};
use mp_ds::{DtaList, LinkedList};
use mp_smr::schemes::Dta;

fn main() {
    let paper_s = 5_000;
    let prefill = mp_bench::prefill_size(paper_s);
    let runs = mp_bench::runs();
    for mix in [mp_bench::READ_DOMINATED, mp_bench::WRITE_DOMINATED, mp_bench::READ_ONLY] {
        let mut table = Table::new(
            &format!("Figure 4: linked list (S={prefill}) throughput, {} workload", mix.name),
            &["threads", "scheme", "Mops/s", "avg-retired"],
        );
        for threads in mp_bench::thread_sweep() {
            let p = BenchParams::paper(threads, paper_s, mix);
            for_each_scheme!(LinkedList, &p, runs, |name, res| {
                table.row(vec![
                    threads.to_string(),
                    name.to_string(),
                    format!("{:.3}", res.mops),
                    format!("{:.1}", res.telemetry.avg_retired_at_op_start()),
                ]);
            });
            // DTA runs on its co-designed list (§6 evaluates DTA only here).
            let res = mp_bench::driver::run_avg::<Dta, DtaList>(&p, runs);
            table.row(vec![
                threads.to_string(),
                "DTA".to_string(),
                format!("{:.3}", res.mops),
                format!("{:.1}", res.telemetry.avg_retired_at_op_start()),
            ]);
        }
        table.emit(&format!("fig4_list_{}", mix.name));
    }
}
