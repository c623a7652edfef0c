//! One exact table of what the protocol counts per operation: Fig 5's
//! fences per traversed node, Fig 7a's hazard fallbacks and the rest, for
//! seeded single-threaded workloads under MP (margins 2^20 and 2^30), HP,
//! HE, EBR, IBR and Leaky, each on one measured handle. The workloads,
//! seeds and `Config`s are those of the fence-budget and skip-list pins
//! this table replaced, plus an NM-tree build.
//!
//! The columns after `ops` are per operation, to five decimals, so a
//! one-count move shows in any row of fewer than [`EXACT_BELOW_OPS`]
//! operations. `fence/hop` is Fig 5's y-axis; `peak` is the longest the
//! retired list grew. On a mismatch with `tests/counter_table.txt` the
//! golden test writes `target/counter_table.actual` and prints the diff: a
//! change that means to move a counter copies that file over the golden
//! one, and the diff is its evidence.

use std::fs;
use std::path::Path;
use std::sync::{Arc, OnceLock};
use std::thread;

use mp_util::{RngExt, SeedableRng, SmallRng};

use margin_pointers::ds::{nmtree, skiplist, ConcurrentSet, HashMap, LinkedList, NmTree, SkipList};
use margin_pointers::smr::schemes::{Ebr, He, Hp, Ibr, Leaky, Mp};
use margin_pointers::smr::{Config, Smr, SmrHandle, Telemetry, TelemetrySnapshot};

/// The workloads, in table order: name and slots per thread.
const WORKLOADS: [(&str, usize); 6] = [
    ("list-read", 8),
    ("list-build", 4),
    ("hash-build", 4),
    ("skip-build", skiplist::SLOTS_NEEDED),
    ("skip-stream", skiplist::SLOTS_NEEDED),
    ("tree-build", nmtree::SLOTS_NEEDED),
];

const EXACT_BELOW_OPS: u64 = 100_000;

const HEADER: &str = "workload     scheme      ops       hops     start       end  announce   \
                      hp_prot fence/hop   hp_fall   collide     scans     frees  peak\n";

/// Deterministic LCG; keys are its high bits.
fn lcg(mut x: u64) -> impl FnMut() -> u64 {
    move || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        x >> 33
    }
}

/// A measured handle and the longest its retired list has been.
struct Meter<S: Smr> {
    h: S::Handle,
    peak: usize,
}

impl<S: Smr> Meter<S> {
    fn new(smr: &Arc<S>) -> Self {
        Meter { h: smr.register(), peak: 0 }
    }

    /// Runs one operation on the handle and returns its result.
    fn op(&mut self, op: impl FnOnce(&mut S::Handle) -> bool) -> bool {
        let done = op(&mut self.h);
        self.peak = self.peak.max(self.h.retired_len());
        done
    }

    /// Inserts until `keys` distinct keys drawn from `[0, 2·keys)` are in.
    fn fill(&mut self, set: &impl ConcurrentSet<S>, keys: u64, mut next: impl FnMut() -> u64) {
        let mut added = 0;
        while added < keys {
            added += u64::from(self.op(|h| set.insert(h, next() % (2 * keys))));
        }
    }
}

/// `list-read`: 90 % lookups, 10 % toggles. The prefill runs on a handle of
/// its own, uncounted.
fn read_list<S: Smr>(smr: &Arc<S>) -> Meter<S> {
    let list = LinkedList::<S>::new(smr);
    let mut next = lcg(0x5eed_f00d_fe4c_e001);
    Meter::new(smr).fill(&list, 100, &mut next);
    let mut m = Meter::new(smr);
    for _ in 0..1_000 {
        let key = next() % 200;
        if !next().is_multiple_of(10) {
            m.op(|h| list.contains(h, key));
        } else if !m.op(|h| list.insert(h, key)) {
            m.op(|h| list.remove(h, key));
        }
    }
    m
}

/// An insert-only build of `keys` keys.
fn build<S: Smr>(smr: &Arc<S>, set: impl ConcurrentSet<S>, keys: u64) -> Meter<S> {
    let mut m = Meter::new(smr);
    m.fill(&set, keys, lcg(0x5eed_f00d_fe4c_e002));
    m
}

/// `skip-stream`. Ascending keys past the end halve the last interval per
/// insert, so under MP every new index collides after ≈ 32 of them.
fn skip_stream<S: Smr>(smr: &Arc<S>) -> Meter<S> {
    let list = SkipList::<S>::new(smr);
    let mut m = Meter::new(smr);
    let mut rng = SmallRng::seed_from_u64(0xd5ea_5eed_0000_0001);
    for _ in 0..6_000 {
        let key = rng.random_range(0..8_192u64);
        match rng.random_range(0..4u8) {
            0 | 1 => m.op(|h| list.insert(h, key)),
            2 => m.op(|h| list.remove(h, key)),
            _ => m.op(|h| list.contains(h, key)),
        };
    }
    for key in 8_192..8_256 {
        m.op(|h| list.insert(h, key));
    }
    m
}

/// A workload under a scheme: the measured handle's counters and peak.
struct Row {
    workload: &'static str,
    scheme: &'static str,
    s: TelemetrySnapshot,
    peak: usize,
}

/// Runs a workload under `scheme`, on a fresh `S` with two registry slots.
fn measure<S: Smr>(w: (&'static str, usize), scheme: &'static str, margin: u32) -> Row {
    let (workload, slots) = w;
    let cfg = Config { max_threads: 2, slots_per_thread: slots, margin, ..Config::default() };
    let smr = S::new(cfg);
    let m = match workload {
        "list-read" => read_list(&smr),
        "list-build" => build(&smr, LinkedList::<S>::new(&smr), 1_000),
        "hash-build" => build(&smr, HashMap::<S>::with_buckets(&smr, 4_096), 16_384),
        "skip-build" => build(&smr, SkipList::<S>::new(&smr), 8_192),
        "skip-stream" => skip_stream(&smr),
        "tree-build" => build(&smr, NmTree::<S>::new(&smr), 8_192),
        _ => unreachable!("unknown workload {workload}"),
    };
    Row { workload, scheme, s: m.h.snapshot(), peak: m.peak }
}

/// Measures every workload under every scheme, workload by workload.
fn measure_all() -> Vec<Row> {
    let margin = Config::default().margin;
    let rows = WORKLOADS.into_iter().flat_map(|w| {
        [
            measure::<Mp>(w, "MP-2^20", 1 << 20),
            measure::<Mp>(w, "MP-2^30", 1 << 30),
            measure::<Hp>(w, "HP", margin),
            measure::<He>(w, "HE", margin),
            measure::<Ebr>(w, "EBR", margin),
            measure::<Ibr>(w, "IBR", margin),
            measure::<Leaky>(w, "Leaky", margin),
        ]
    });
    rows.collect()
}

/// The table measured twice per process, the second time on a thread of
/// its own: the claims read the first, the golden test compares both.
fn tables() -> &'static (Vec<Row>, Vec<Row>) {
    static TABLES: OnceLock<(Vec<Row>, Vec<Row>)> = OnceLock::new();
    TABLES.get_or_init(|| {
        let second = thread::spawn(measure_all);
        (measure_all(), second.join().expect("second measurement panicked"))
    })
}

fn render_row(r: &Row) -> String {
    let s = &r.s;
    let (w, scheme, ops) = (r.workload, r.scheme, s.ops());
    assert!(ops < EXACT_BELOW_OPS, "{w} {scheme}: too many ops for five decimals");
    let per_op = |n: u64| n as f64 / ops as f64;
    let mut line = format!("{w:<12} {scheme:<8} {ops:>6} {:>10.5}", per_op(s.nodes_traversed()));
    let site = [s.fences_start_op(), s.fences_end_op(), s.fences_announce(), s.fences_hp_protect()];
    let rest = [s.hp_fallback_reads(), s.collision_allocs(), s.empties(), s.frees()];
    let fence_per_hop = s.fences_per_node();
    let cells = site.map(per_op).into_iter().chain([fence_per_hop]).chain(rest.map(per_op));
    cells.for_each(|v| line += &format!(" {v:>9.5}"));
    line + &format!(" {:>5}\n", r.peak)
}

fn render(rows: &[Row]) -> String {
    rows.iter().fold(HEADER.to_string(), |out, r| out + &render_row(r))
}

/// Line-by-line diff: the rows come in a fixed order.
fn diff(want: &str, got: &str) -> String {
    let (want, got): (Vec<&str>, Vec<&str>) = (want.lines().collect(), got.lines().collect());
    let line = |lines: &[&str], i: usize| lines.get(i).copied().unwrap_or_default().to_string();
    (0..want.len().max(got.len()))
        .filter(|&i| want.get(i) != got.get(i))
        .map(|i| format!("-{}\n+{}\n", line(&want, i), line(&got, i)))
        .collect()
}

#[test]
fn table_matches_the_checked_in_golden() {
    let (first, second) = (render(&tables().0), render(&tables().1));
    assert!(first == second, "two renders in one process differ:\n{}", diff(&first, &second));
    let golden = include_str!("counter_table.txt");
    if first != golden {
        let actual = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/counter_table.actual");
        fs::create_dir_all(actual.parent().unwrap()).expect("create target/");
        fs::write(&actual, &first).expect("write the actual table");
        panic!(
            "the counter table moved; if the change means to move it, copy {} over \
             tests/counter_table.txt\n{}",
            actual.display(),
            diff(golden, &first)
        );
    }
}

/// The row of `workload` under `scheme`, and its rendering under the header.
fn row(workload: &str, scheme: &str) -> (&'static TelemetrySnapshot, String) {
    let r = tables().0.iter().find(|r| r.workload == workload && r.scheme == scheme);
    let r = r.unwrap_or_else(|| panic!("no row {workload} {scheme}"));
    (&r.s, format!("\n{HEADER}{}", render_row(r)))
}

/// MP's amortised budget: at a margin where a few announcements tile the
/// index space, standing margins and the lazy epoch keep a read-dominated
/// traversal under 2 fences per operation.
#[test]
fn mp_read_dominated_list_stays_under_two_fences_per_op() {
    let (s, shown) = row("list-read", "MP-2^30");
    let per_op = s.fences_per_op();
    assert!(per_op <= 2.0, "MP fence budget blown: {per_op:.3} fences/op{shown}");
}

/// HP fences once per validated hop, plus once per op at `end_op`. Above
/// the band a protect fences more than once per attempt; below it, the
/// comparison in DESIGN.md and EXPERIMENTS.md no longer measures HP.
#[test]
fn hp_pays_about_one_fence_per_hop() {
    let (s, shown) = row("list-read", "HP");
    let per_hop = s.fences_per_node();
    assert!(
        (0.95..=1.15).contains(&per_hop),
        "HP fences/hop = {per_hop:.3}, expected one per validated hop{shown}"
    );
    assert!(
        s.fences_hp_protect() > s.fences() - s.fences_hp_protect(),
        "HP's fences must be dominated by the protect site{shown}"
    );
}

/// A search protects a node only before dereferencing it: the list's
/// `seek` and the skip list's `find` only mark-check the successor of a
/// stopping node or descent point. Single-threaded and insert-only, no
/// validation retries and no marked node: one protect fence per hop.
#[test]
fn hp_build_pays_one_protect_fence_per_node_stepped_onto() {
    let wrong: String = ["list-build", "hash-build", "skip-build", "tree-build"]
        .map(|w| row(w, "HP"))
        .into_iter()
        .filter(|(s, _)| s.fences_hp_protect() != s.nodes_traversed())
        .map(|(_, shown)| shown)
        .collect();
    assert!(wrong.is_empty(), "a search protected what it only mark-checks:{wrong}");
}

/// EBR fences once per operation, at `start_op`, however long the traversal.
#[test]
fn ebr_pays_about_one_fence_per_op() {
    let (s, shown) = row("list-read", "EBR");
    let per_op = s.fences_per_op();
    assert!((0.5..=1.5).contains(&per_op), "EBR fences/op = {per_op:.3}, expected ~1{shown}");
}

/// HE's lazy eras amortise its announcement across operations.
#[test]
fn he_stays_well_under_one_fence_per_op() {
    let (s, shown) = row("list-read", "HE");
    let per_op = s.fences_per_op();
    assert!(per_op <= 0.1, "HE's lazy-era budget regressed: {per_op:.3} fences/op{shown}");
}
