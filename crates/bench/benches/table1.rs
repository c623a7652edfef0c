//! Table 1 — comparison of memory reclamation schemes (paper §3).
//!
//! The paper's table is qualitative; we reproduce its rows and back the
//! two quantifiable columns with measurements: per-node overhead (words of
//! SMR header actually allocated) and a run-time overhead proxy (read-only
//! BST throughput normalized to the leaky baseline, plus fences per node).

use mp_bench::{BenchParams, Table};
use mp_ds::NmTree;
use mp_smr::schemes::{Ebr, He, Hp, Ibr, Leaky, Mp};

fn main() {
    let runs = mp_bench::runs();
    let threads = *mp_bench::thread_sweep().last().unwrap_or(&2);
    let p = BenchParams::paper(threads, 500_000, mp_bench::READ_ONLY);

    let base = mp_bench::driver::run_avg::<Leaky, NmTree<Leaky>>(&p, runs);

    let mut table = Table::new(
        "Table 1: comparison of memory reclamation schemes",
        &[
            "scheme",
            "rel-overhead",
            "fences/node",
            "wasted-memory bound",
            "integration effort",
            "hdr-words",
        ],
    );
    // Per-node header: birth epoch, then index and tail length sharing a
    // word — 2 words. The paper's third, the retire epoch, is known only
    // once a node is retired, so it lives in the retired-list record and
    // only while the node is pending. HP/EBR ignore the fields but the
    // unified allocator still reserves them (an implementation
    // simplification).
    let hdr_words = std::mem::size_of::<mp_smr::node::Header>().div_ceil(8);

    macro_rules! row {
        ($s:ty, $name:expr, $bound:expr, $effort:expr) => {{
            let r = mp_bench::driver::run_avg::<$s, NmTree<$s>>(&p, runs);
            table.row(vec![
                $name.to_string(),
                format!("{:.2}x", base.mops / r.mops.max(1e-9)),
                format!("{:.4}", r.telemetry.fences_per_node()),
                $bound.to_string(),
                $effort.to_string(),
                hdr_words.to_string(),
            ]);
        }};
    }

    row!(Hp, "HP", "bounded", "per-reference");
    row!(Ebr, "EBR", "unbounded", "per-operation");
    row!(He, "HE", "robust", "~HP");
    row!(Ibr, "IBR", "robust", "per-operation");
    row!(Mp, "MP", "bounded", "HP + bound hooks");
    table.row(vec![
        "DTA".into(),
        "(list only)".into(),
        "-".into(),
        "robust (frozen leak)".into(),
        "DS-specific freezing".into(),
        hdr_words.to_string(),
    ]);
    table.row(vec![
        "Leaky".into(),
        "1.00x".into(),
        "0.0000".into(),
        "none (never frees)".into(),
        "-".into(),
        hdr_words.to_string(),
    ]);
    table.emit("table1");
}
