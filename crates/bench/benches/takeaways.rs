//! §6.1 "Evaluation Takeaways" as an executable contract.
//!
//! The paper closes its evaluation with three claims; this bench measures
//! each and prints PASS/FAIL, so a regression in the reproduction is
//! caught by reading one table:
//!
//! 1. *"MP is the best performer in its category of SMR schemes with
//!    bounded wasted memory"* — MP vs HP (the only other self-contained
//!    bounded scheme), non-read-only workloads. On a single-core host the
//!    throughput comparison can invert (fences are cheap); we therefore
//!    check the mechanism — fences per traversed node — alongside it.
//! 2. *"MP performs comparably to EBR-based schemes … and can outperform
//!    them in the presence of thread stalls"* — checked as: with a parked
//!    thread, MP's waste stays bounded while EBR-family waste explodes
//!    (the enabling condition for the throughput crossover the paper sees
//!    once memory pressure matters).
//! 3. *"MP wastes less memory than EBR-based schemes, not only in theory
//!    but in practice"* — avg retired-at-op-start, read-dominated.

use mp_bench::{BenchParams, Table};
use mp_ds::{LinkedList, NmTree};
use mp_smr::schemes::{Ebr, He, Hp, Ibr, Mp};

fn verdict(ok: bool) -> String {
    if ok { "PASS".into() } else { "FAIL".into() }
}

fn main() {
    let runs = mp_bench::runs();
    let threads = *mp_bench::thread_sweep().last().unwrap_or(&2);
    let mut table = Table::new(
        "Evaluation takeaways (§6.1) as measurable claims",
        &["#", "claim (operationalized)", "measured", "verdict"],
    );

    // 1. MP beats HP on fences/node in the bounded-waste category.
    {
        let p = BenchParams::paper(threads, 500_000, mp_bench::READ_DOMINATED);
        let mp = mp_bench::driver::run_avg::<Mp, NmTree<Mp>>(&p, runs);
        let hp = mp_bench::driver::run_avg::<Hp, NmTree<Hp>>(&p, runs);
        let (mp_fpn, hp_fpn) = (mp.telemetry.fences_per_node(), hp.telemetry.fences_per_node());
        table.row(vec![
            "1".into(),
            "bounded-waste category: MP < HP fences/node (BST, read-dom.)".into(),
            format!("MP {mp_fpn:.3} vs HP {hp_fpn:.3}"),
            verdict(mp_fpn < hp_fpn),
        ]);
        table.row(vec![
            "1b".into(),
            "…and throughput (host-dependent; inverts on single-core)".into(),
            format!("MP {:.3} vs HP {:.3} Mops/s", mp.mops, hp.mops),
            if mp.mops >= hp.mops { "PASS".into() } else { "host-inverted".into() },
        ]);
    }

    // 2. Under a stall, MP stays bounded while EBR-family waste explodes.
    {
        let p = BenchParams::paper(threads, 5_000, mp_bench::READ_DOMINATED).with_stalled(1);
        let mp = mp_bench::driver::run_avg::<Mp, LinkedList<Mp>>(&p, runs);
        let ebr = mp_bench::driver::run_avg::<Ebr, LinkedList<Ebr>>(&p, runs);
        let ibr = mp_bench::driver::run_avg::<Ibr, LinkedList<Ibr>>(&p, runs);
        let [mp, ebr, ibr] = [mp, ebr, ibr].map(|r| r.telemetry.avg_retired_at_op_start());
        table.row(vec![
            "2".into(),
            "stalled thread: MP waste bounded, EBR/IBR not (list)".into(),
            format!("MP {mp:.0} vs EBR {ebr:.0} / IBR {ibr:.0} avg-retired"),
            verdict(ebr > 10.0 * mp.max(1.0) && ibr > 3.0 * mp.max(1.0)),
        ]);
    }

    // 3. MP wastes less than every EBR-based scheme, no stall injection.
    {
        let p = BenchParams::paper(threads, 500_000, mp_bench::READ_DOMINATED);
        let mp = mp_bench::driver::run_avg::<Mp, NmTree<Mp>>(&p, runs);
        let ebr = mp_bench::driver::run_avg::<Ebr, NmTree<Ebr>>(&p, runs);
        let he = mp_bench::driver::run_avg::<He, NmTree<He>>(&p, runs);
        let ibr = mp_bench::driver::run_avg::<Ibr, NmTree<Ibr>>(&p, runs);
        let [mp, ebr, he, ibr] =
            [mp, ebr, he, ibr].map(|r| r.telemetry.avg_retired_at_op_start());
        table.row(vec![
            "3".into(),
            "MP wastes less than EBR/HE/IBR in practice (BST, read-dom.)".into(),
            format!("MP {mp:.0} vs EBR {ebr:.0} / HE {he:.0} / IBR {ibr:.0}"),
            verdict(mp < ebr.min(he).min(ibr)),
        ]);
    }

    table.emit("takeaways");
}
