//! Figure 7a — index-collision worst case (paper §6.1 "Key Distribution &
//! MP Index Collisions").
//!
//! A list built by inserting keys in ascending order halves the remaining
//! index interval on every insertion, so with 32-bit indices all nodes
//! beyond the first ~32 collide and take the `USE_HP` path. Expected
//! shape: MP's read-only throughput gracefully degrades *to* HP's — never
//! below it — so clients that need the wasted-memory bound risk nothing by
//! adopting MP.

use mp_bench::{BenchParams, Prefill, Table};
use mp_ds::LinkedList;
use mp_smr::schemes::{Hp, Mp};

fn main() {
    let prefill = mp_bench::prefill_size(5_000);
    let runs = mp_bench::runs();
    let mut table = Table::new(
        &format!("Figure 7a: ascending-insert list (S={prefill}), read-only throughput"),
        &["threads", "scheme", "Mops/s", "MP hp-fallback rate"],
    );
    for threads in mp_bench::thread_sweep() {
        let mut p = BenchParams::paper(threads, 5_000, mp_bench::READ_ONLY);
        p.prefill_mode = Prefill::Ascending;
        let mp = mp_bench::driver::run_avg::<Mp, LinkedList<Mp>>(&p, runs);
        let hp = mp_bench::driver::run_avg::<Hp, LinkedList<Hp>>(&p, runs);
        table.row(vec![
            threads.to_string(),
            "MP".into(),
            format!("{:.3}", mp.mops),
            format!("{:.1}%", 100.0 * mp.telemetry.hp_fallback_rate()),
        ]);
        table.row(vec![
            threads.to_string(),
            "HP".into(),
            format!("{:.3}", hp.mops),
            String::new(),
        ]);
    }
    table.emit("fig7a_ascending");
}
