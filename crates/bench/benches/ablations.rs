//! Ablation bench for MP's index assignment: **midpoint policy** (§4.1) vs
//! a pred+1 policy, measured by MP's hazard-fallback (collision) rate.

use mp_bench::{BenchParams, Table};
use mp_ds::LinkedList;
use mp_smr::schemes::Mp;
use mp_smr::IndexPolicy;

fn main() {
    let runs = mp_bench::runs();
    let threads = *mp_bench::thread_sweep().last().unwrap_or(&2);
    let mut table = Table::new(
        "Ablation: MP index policy (write-dominated list)",
        &["policy", "Mops/s", "hp-fallback rate", "collision allocs"],
    );
    for (name, policy) in
        [("midpoint", IndexPolicy::Midpoint), ("after-pred", IndexPolicy::AfterPred)]
    {
        let mut p = BenchParams::paper(threads, 5_000, mp_bench::WRITE_DOMINATED);
        p.config = p.config.with_index_policy(policy);
        let r = mp_bench::driver::run_avg::<Mp, LinkedList<Mp>>(&p, runs);
        table.row(vec![
            name.into(),
            format!("{:.3}", r.mops),
            format!("{:.1}%", 100.0 * r.telemetry.hp_fallback_rate()),
            r.telemetry.collision_allocs().to_string(),
        ]);
    }
    table.emit("ablation_index_policy");
}
