//! Figure 6 — wasted memory: average retired-but-unreclaimed nodes at
//! operation start, read-dominated workload, all structures (paper §6.1).
//!
//! Expected shape: MP and HP stay near zero at every thread count; HE and
//! IBR grow with the thread count (up to orders of magnitude larger),
//! because context-switch stalls pin their epochs/eras. A second pass adds
//! an explicitly stalled thread (§1's scenario), which makes EBR-family
//! waste grow without bound while MP's stays bounded.

use mp_bench::{for_each_scheme, BenchParams, Table};
use mp_ds::{DtaList, LinkedList, NmTree, SkipList};
use mp_smr::schemes::Dta;

fn main() {
    let runs = mp_bench::runs();
    let mix = mp_bench::READ_DOMINATED;
    for (stalled, suffix, slug) in [
        (0, "natural stalls only", "fig6_wasted_memory"),
        (1, "one thread parked mid-operation", "fig6_wasted_memory_stalled"),
    ] {
        let mut table = Table::new(
            &format!("Figure 6: wasted memory, read-dominated ({suffix})"),
            &["structure", "threads", "scheme", "avg-retired", "peak-pending"],
        );
        for threads in mp_bench::thread_sweep() {
            macro_rules! ds_point {
                ($ds:ident, $label:expr, $paper:expr) => {{
                    let p = BenchParams::paper(threads, $paper, mix).with_stalled(stalled);
                    for_each_scheme!($ds, &p, runs, |name, res| {
                        table.row(vec![
                            $label.to_string(),
                            threads.to_string(),
                            name.to_string(),
                            format!("{:.1}", res.telemetry.avg_retired_at_op_start()),
                            res.peak_pending.to_string(),
                        ]);
                    });
                }};
            }
            ds_point!(NmTree, "nmtree", 500_000);
            ds_point!(SkipList, "skiplist", 500_000);
            ds_point!(LinkedList, "list", 5_000);
            // DTA on its list (§6: little waste; freezing rarely fires).
            let p = BenchParams::paper(threads, 5_000, mix).with_stalled(stalled);
            let res = mp_bench::driver::run_avg::<Dta, DtaList>(&p, runs);
            table.row(vec![
                "list".into(),
                threads.to_string(),
                "DTA".into(),
                format!("{:.1}", res.telemetry.avg_retired_at_op_start()),
                res.peak_pending.to_string(),
            ]);
        }
        table.emit(slug);
    }
}
