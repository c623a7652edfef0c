//! Index-collision analysis (the paper's §5 pointer to [28, §4.6]).
//!
//! MP's efficiency hinges on how often `alloc` finds room between the
//! predecessor's and successor's indices. This analysis measures, per
//! structure / size / insertion order:
//!
//! * the fraction of allocations that collided (stamped `USE_HP`), and
//! * the fraction of reads that took the hazard-pointer fallback.
//!
//! Expected shape (thesis §4.6): random insertion orders keep collisions
//! negligible until the structure size approaches the index-space
//! granularity, while ascending insertion collides after ~32 nodes
//! (binary-halving exhausts a 32-bit range).
//!
//! Measured nuance worth recording: the collision cascade is *total* for
//! the list and skip list (their upper bound is the tail's fixed
//! `max_index`, so once a `USE_HP` node becomes the predecessor the
//! interval stays exhausted forever — Figure 7a's 100%), but the NM tree
//! **self-heals**: a `USE_HP` bound enters the midpoint arithmetic as
//! `0xffff_ffff` (Listing 5 reads `n->index` verbatim), re-widening the
//! interval, so ascending tree inserts stay below ~4% collisions. MP's
//! worst case really is the list, exactly where the paper evaluates it.

use mp_bench::{BenchParams, Prefill, Table};
use mp_ds::{LinkedList, NmTree, SkipList};
use mp_smr::schemes::Mp;

fn measure<D: mp_ds::ConcurrentSet<Mp>>(
    label: &str,
    prefill: usize,
    mode: Prefill,
    table: &mut Table,
) {
    let mut p = BenchParams::new(2, prefill, mp_bench::READ_DOMINATED);
    p.prefill_mode = mode;
    p.duration = std::time::Duration::from_millis(150);
    let res = mp_bench::driver::run::<Mp, D>(&p);
    let collision_rate = if res.telemetry.allocs() == 0 {
        0.0
    } else {
        100.0 * res.telemetry.collision_allocs() as f64 / res.telemetry.allocs() as f64
    };
    table.row(vec![
        label.to_string(),
        prefill.to_string(),
        format!("{mode:?}"),
        format!("{collision_rate:.2}%"),
        format!("{:.2}%", 100.0 * res.telemetry.hp_fallback_rate()),
    ]);
}

fn main() {
    let mut table = Table::new(
        "Index collisions by structure, size, and insertion order (thesis §4.6)",
        &["structure", "S", "prefill order", "collision allocs", "hp-fallback reads"],
    );
    for &prefill in &[1_000usize, 10_000, 50_000] {
        measure::<LinkedList<Mp>>("list", prefill.min(2_000), Prefill::Random, &mut table);
        measure::<SkipList<Mp>>("skiplist", prefill, Prefill::Random, &mut table);
        measure::<NmTree<Mp>>("nmtree", prefill, Prefill::Random, &mut table);
    }
    // The adversarial order (Figure 7a's setup).
    measure::<LinkedList<Mp>>("list", 2_000, Prefill::Ascending, &mut table);
    measure::<SkipList<Mp>>("skiplist", 10_000, Prefill::Ascending, &mut table);
    measure::<NmTree<Mp>>("nmtree", 10_000, Prefill::Ascending, &mut table);
    table.emit("collision_analysis");
}
