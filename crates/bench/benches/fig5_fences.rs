//! Figure 5 — memory fences per traversed node, MP vs HP (paper §6.1).
//!
//! Read-only workload on all three data structures. Expected shape: MP
//! issues ≈2× fewer fences per node than HP on every structure, because a
//! single margin covers many nearby nodes while HP fences per dereference.

use mp_bench::{BenchParams, Table};
use mp_ds::{LinkedList, NmTree, SkipList};
use mp_smr::schemes::{Hp, Mp};

fn point<S, D>(threads: usize, paper_s: usize, runs: usize) -> f64
where
    S: mp_smr::Smr,
    D: mp_ds::ConcurrentSet<S>,
{
    let p = BenchParams::paper(threads, paper_s, mp_bench::READ_ONLY);
    mp_bench::driver::run_avg::<S, D>(&p, runs).telemetry.fences_per_node()
}

fn main() {
    let runs = mp_bench::runs();
    let threads = *mp_bench::thread_sweep().last().unwrap_or(&2);
    let mut table = Table::new(
        "Figure 5: memory fences per traversed node (read-only)",
        &["structure", "scheme", "fences/node", "ratio HP/MP"],
    );
    let points: [(&str, f64, f64); 3] = [
        (
            "list",
            point::<Mp, LinkedList<Mp>>(threads, 5_000, runs),
            point::<Hp, LinkedList<Hp>>(threads, 5_000, runs),
        ),
        (
            "skiplist",
            point::<Mp, SkipList<Mp>>(threads, 500_000, runs),
            point::<Hp, SkipList<Hp>>(threads, 500_000, runs),
        ),
        (
            "nmtree",
            point::<Mp, NmTree<Mp>>(threads, 500_000, runs),
            point::<Hp, NmTree<Hp>>(threads, 500_000, runs),
        ),
    ];
    for (ds, mp, hp) in points {
        table.row(vec![ds.into(), "MP".into(), format!("{mp:.4}"), String::new()]);
        table.row(vec![
            ds.into(),
            "HP".into(),
            format!("{hp:.4}"),
            format!("{:.2}x", hp / mp.max(1e-12)),
        ]);
    }
    table.emit("fig5_fences");
}
