//! Where a prefill's time goes, per structure and per scheme.
//!
//! The frozen benchmark's `setup_s` times one build of a workload's
//! structure under MP, HE and HP together. This example builds each of
//! the four structures under each of the three schemes on its own, at the
//! benchmark's prefill sizes, with the benchmark's registry size and slot
//! counts and the library's defaults otherwise. It prints the build's wall
//! time and what one insert cost. The last column, `B/key`, is the memory
//! the build left behind: the pool's live bytes once the building thread
//! has exited, divided by the keys. The build is single-threaded and
//! seeded, so two trees that print different `B/key` lay their nodes out
//! differently. What an insert counts (hops, fences per site, hazard
//! fallbacks, collisions) is in `tests/counter_table.txt`, which tier-1
//! compares byte for byte.
//!
//! ```sh
//! cargo run --release -p mp-bench --example setup_split               # the benchmark's sizes
//! cargo run --release -p mp-bench --example setup_split -- 64         # every prefill ÷ 64
//! cargo run --release -p mp-bench --example setup_split -- 1 nmtree   # one structure only
//! cargo run --release -p mp-bench --example setup_split -- 1 list 31  # margin 2^31
//! ```
//!
//! The optional second argument names one of `list`, `nmtree`, `hashmap`
//! or `skiplist`; only that structure's rows are printed, in the same
//! columns (`all`, the default, prints every structure). The optional
//! third is log2 of MP's margin, in place of the library's default; the
//! other two schemes read no margin. `31` stands for the widest margin
//! the index space allows, [`WIDEST_MARGIN`] ≈ 2.15·10⁹, which covers
//! every key of any structure built here.

use std::sync::Arc;
use std::thread;
use std::time::Instant;

use mp_ds::{nmtree, skiplist, ConcurrentSet, HashMap, LinkedList, NmTree, SkipList};
use mp_smr::node::MAX_INDEX;
use mp_smr::schemes::{He, Hp, Mp};
use mp_smr::{Smr, SmrBuilder};
use mp_util::{RngExt, SeedableRng, SmallRng};

/// The benchmark's registry: two workers, the stalled reader, one spare.
const THREADS: usize = 4;
const SEED: u64 = 0x5e70_5011_7000_0001;

/// The widest margin `Config` accepts: `2 · margin` must stay below
/// `MAX_INDEX`.
const WIDEST_MARGIN: u32 = (MAX_INDEX - 1) / 2;

/// One build: its wall time, its `insert` calls (duplicates included),
/// and the pool bytes the built structure holds.
struct Build {
    secs: f64,
    inserts: u64,
    bytes: usize,
}

/// What one build is given: slots per thread, keys, and log2 of the
/// margin (the library's default if `None`).
#[derive(Clone, Copy)]
struct Setup {
    slots: usize,
    keys: u64,
    margin_log2: Option<u32>,
}

/// Prefills a fresh structure with `keys` distinct keys drawn from
/// `[0, 2·keys)`, as the benchmark does, on one handle. The build runs on
/// a thread of its own, so the pool's live bytes, read once it has exited
/// and its magazines have gone home, are the structure's alone; another
/// thread drops the structure, so none of its blocks stay cached here.
fn build<S: Smr, D: ConcurrentSet<S> + Send>(setup: Setup, new: fn(&Arc<S>) -> D) -> Build {
    let Setup { slots, keys, margin_log2 } = setup;
    let mut builder = SmrBuilder::new().max_threads(THREADS).slots_per_thread(slots);
    if let Some(log2) = margin_log2 {
        builder = builder.margin((1u64 << log2).min(u64::from(WIDEST_MARGIN)) as u32);
    }
    let smr = builder.try_build::<S>().expect("valid config");
    let (set, mut b) = thread::scope(|s| {
        s.spawn(|| {
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
            (set, Build { secs, inserts, bytes: 0 })
        })
        .join()
        .expect("build thread panicked")
    });
    b.bytes = mp_util::pool::stats().live_bytes;
    thread::spawn(move || drop(set)).join().expect("drop thread panicked");
    b
}

/// Builds one structure under MP, HE and HP and prints a row each, then the
/// sum the benchmark's `setup_s` corresponds to and MP's share of it.
fn structure<D: Family>(name: &str, setup: Setup) {
    let keys = setup.keys;
    let rows = [
        ("MP", build::<Mp, _>(setup, D::new::<Mp>)),
        ("HE", build::<He, _>(setup, D::new::<He>)),
        ("HP", build::<Hp, _>(setup, D::new::<Hp>)),
    ];
    for (scheme, b) in &rows {
        println!(
            "{name:<10} {scheme:<3} {keys:>8} {:>9.4} {:>8.0} {:>7.1}",
            b.secs,
            b.secs * 1e9 / b.inserts as f64,
            b.bytes as f64 / keys as f64,
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
    type Set<S: Smr>: ConcurrentSet<S> + Send;
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
type Row = (&'static str, usize, u64, fn(&str, Setup));
const STRUCTURES: [Row; 4] = [
    ("list", 4, 5_000, structure::<List>),
    ("nmtree", nmtree::SLOTS_NEEDED, 500_000, structure::<Tree>),
    ("hashmap", 4, 16_384, structure::<Hash>),
    ("skiplist", skiplist::SLOTS_NEEDED, 131_072, structure::<Skip>),
];

fn main() {
    const USAGE: &str =
        "usage: setup_split [prefill divisor] [list|nmtree|hashmap|skiplist|all] [log2 margin]";
    let mut args = std::env::args().skip(1);
    let div: u64 = args.next().map_or(1, |arg| arg.parse().expect(USAGE));
    let only = args.next().filter(|name| name != "all");
    if let Some(name) = &only {
        assert!(STRUCTURES.iter().any(|&(s, ..)| s == name), "unknown structure {name:?}; {USAGE}");
    }
    let margin_log2: Option<u32> = args.next().map(|arg| arg.parse().expect(USAGE));
    assert!(margin_log2.is_none_or(|log2| log2 < 32), "the margin is a u32; {USAGE}");
    println!(
        "{:<10} {:<3} {:>8} {:>9} {:>8} {:>7}",
        "structure", "", "keys", "prefill_s", "ns/ins", "B/key"
    );
    for (name, slots, keys, run) in STRUCTURES {
        if only.as_deref().is_none_or(|o| o == name) {
            run(name, Setup { slots, keys: keys / div, margin_log2 });
        }
    }
}
