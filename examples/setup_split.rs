//! Where a prefill's time goes, per structure and per scheme.
//!
//! The frozen benchmark's `setup_s` times one build of a workload's
//! structure under MP, HE and HP together. This example builds each of
//! the four structures under each of the three schemes on its own, at the
//! benchmark's prefill sizes, with the benchmark's registry size and slot
//! counts and the library's defaults otherwise. It prints what one insert
//! cost: the wall time, and the counters that explain it. Those are hops,
//! announce fences, hazard fences, hazard-fallback reads and collision
//! allocations. The build is single-threaded and seeded, so every counter
//! column is a function of the code alone: two trees that print different
//! counters run different protocols.
//!
//! ```sh
//! cargo run --release --example setup_split                # the benchmark's sizes
//! cargo run --release --example setup_split -- 64          # every prefill ÷ 64
//! cargo run --release --example setup_split -- 1 nmtree    # one structure only
//! ```
//!
//! The optional second argument names one of `list`, `nmtree`, `hashmap`
//! or `skiplist`; only that structure's rows are printed, in the same
//! columns.

use std::sync::Arc;
use std::time::Instant;

use margin_pointers::ds::{nmtree, skiplist, ConcurrentSet, HashMap, LinkedList, NmTree, SkipList};
use margin_pointers::smr::schemes::{He, Hp, Mp};
use margin_pointers::smr::{Counter, Smr, SmrBuilder, Telemetry};
use mp_util::{RngExt, SeedableRng, SmallRng};

/// The benchmark's registry: two workers, the stalled reader, one spare.
const THREADS: usize = 4;
const SEED: u64 = 0x5e70_5011_7000_0001;

/// The counters printed per insert, in column order.
const COUNTED: [Counter; 5] = [
    Counter::NodesTraversed,
    Counter::FencesAnnounce,
    Counter::FencesHpProtect,
    Counter::HpFallbackReads,
    Counter::CollisionAllocs,
];

/// One build: its wall time, its `insert` calls (duplicates included) and
/// the [`COUNTED`] totals of the handle that made them.
struct Build {
    secs: f64,
    inserts: u64,
    counts: [u64; COUNTED.len()],
}

/// Prefills a fresh structure with `keys` distinct keys drawn from
/// `[0, 2·keys)`, as the benchmark does, on one handle.
fn build<S: Smr, D: ConcurrentSet<S>>(slots: usize, keys: u64, new: fn(&Arc<S>) -> D) -> Build {
    let smr = SmrBuilder::new()
        .max_threads(THREADS)
        .slots_per_thread(slots)
        .try_build::<S>()
        .expect("valid config");
    let set = new(&smr);
    let mut h = smr.register();
    let mut rng = SmallRng::seed_from_u64(SEED);
    let (mut inserts, mut added) = (0, 0);
    let start = Instant::now();
    while added < keys {
        inserts += 1;
        if set.insert(&mut h, rng.random_range(0..2 * keys)) {
            added += 1;
        }
    }
    let secs = start.elapsed().as_secs_f64();
    Build { secs, inserts, counts: COUNTED.map(|c| h.counter(c)) }
}

/// Builds one structure under MP, HE and HP and prints a row each, then the
/// sum the benchmark's `setup_s` corresponds to and MP's share of it.
fn structure<D: Family>(name: &str, slots: usize, keys: u64) {
    let rows = [
        ("MP", build::<Mp, _>(slots, keys, D::new::<Mp>)),
        ("HE", build::<He, _>(slots, keys, D::new::<He>)),
        ("HP", build::<Hp, _>(slots, keys, D::new::<Hp>)),
    ];
    for (scheme, b) in &rows {
        let per = |i: usize| b.counts[i] as f64 / b.inserts as f64;
        println!(
            "{name:<10} {scheme:<3} {keys:>8} {:>9.4} {:>8.0} {:>9.3} {:>9.4} {:>9.4} {:>9.4} {:>9.4}",
            b.secs,
            b.secs * 1e9 / b.inserts as f64,
            per(0),
            per(1),
            per(2),
            per(3),
            per(4),
        );
    }
    let total: f64 = rows.iter().map(|(_, b)| b.secs).sum();
    println!(
        "{name:<10} sum {keys:>8} {total:>9.4}   MP {:.0} % of it",
        100.0 * rows[0].1.secs / total
    );
}

/// A structure as the benchmark builds it, for any scheme.
trait Family {
    type Set<S: Smr>: ConcurrentSet<S>;
    fn new<S: Smr>(smr: &Arc<S>) -> Self::Set<S> {
        <Self::Set<S> as ConcurrentSet<S>>::new(smr)
    }
}

struct List;
impl Family for List {
    type Set<S: Smr> = LinkedList<S>;
}

struct Tree;
impl Family for Tree {
    type Set<S: Smr> = NmTree<S>;
}

struct Hash;
impl Family for Hash {
    type Set<S: Smr> = HashMap<S>;
    fn new<S: Smr>(smr: &Arc<S>) -> HashMap<S> {
        HashMap::with_buckets(smr, 4096)
    }
}

struct Skip;
impl Family for Skip {
    type Set<S: Smr> = SkipList<S>;
}

/// The benchmark's workloads in print order: name, slots per thread,
/// prefill size, and the function that builds and prints them.
type Row = (&'static str, usize, u64, fn(&str, usize, u64));
const STRUCTURES: [Row; 4] = [
    ("list", 4, 5_000, structure::<List>),
    ("nmtree", nmtree::SLOTS_NEEDED, 500_000, structure::<Tree>),
    ("hashmap", 4, 16_384, structure::<Hash>),
    ("skiplist", skiplist::SLOTS_NEEDED, 131_072, structure::<Skip>),
];

fn main() {
    const USAGE: &str = "usage: setup_split [prefill divisor] [list|nmtree|hashmap|skiplist]";
    let mut args = std::env::args().skip(1);
    let div: u64 = args.next().map_or(1, |arg| arg.parse().expect(USAGE));
    let only = args.next();
    if let Some(name) = &only {
        assert!(STRUCTURES.iter().any(|&(s, ..)| s == name), "unknown structure {name:?}; {USAGE}");
    }
    println!(
        "{:<10} {:<3} {:>8} {:>9} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "structure",
        "",
        "keys",
        "prefill_s",
        "ns/ins",
        "hops/ins",
        "ann/ins",
        "hpf/ins",
        "hpr/ins",
        "coll/ins"
    );
    for (name, slots, keys, run) in STRUCTURES {
        if only.as_deref().is_none_or(|o| o == name) {
            run(name, slots, keys / div);
        }
    }
}
