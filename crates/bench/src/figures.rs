//! The figure sweep: every table of the paper's evaluation (§6), plus the
//! collision analysis, the takeaways and the oversubscribed soak, built
//! by the `figures` bench target:
//!
//! ```text
//! cargo bench -p mp-bench --bench figures               # every table
//! cargo bench -p mp-bench --bench figures -- fig5 fig6  # only these
//! ```
//!
//! Tables share points. Figure 6's natural-stall rows are the
//! read-dominated rows of Figures 2–4; Figure 5 and Table 1 read their
//! read-only rows, the takeaways rows of Figures 2 and 6; Figures 7b and
//! 7c are two columns of one margin sweep. The sweep measures each distinct
//! [`Point`] once and hands every table that asks for it the same result,
//! so two tables never disagree about one point.

use std::time::Duration;

use mp_smr::SchemeKind::{self, Dta, Ebr, He, Hp, Ibr, Leaky, Mp};

use crate::driver::{run_point, BenchParams, BenchResult, Point, Prefill, Structure};
use crate::report::Table;
use crate::workload::{Mix, READ_DOMINATED, READ_ONLY, WRITE_DOMINATED};
use crate::{Scale, COMPARISON_SET};

/// Measured points, each run on first request and remembered.
struct Sweep {
    scale: Scale,
    measure: Box<dyn FnMut(&Point) -> BenchResult>,
    memo: Vec<(Point, BenchResult)>,
}

impl Sweep {
    /// A sweep at `scale` that runs each point [`Scale::runs`] times.
    fn new(scale: Scale) -> Sweep {
        let runs = scale.runs();
        Sweep::with_measure(scale, move |point| repeat(point, runs))
    }

    fn with_measure(scale: Scale, measure: impl FnMut(&Point) -> BenchResult + 'static) -> Sweep {
        Sweep { scale, measure: Box::new(measure), memo: Vec::new() }
    }

    /// How many distinct points have been measured.
    fn measured(&self) -> usize {
        self.memo.len()
    }

    /// The result for `scheme` on `structure` at `params`, measured on
    /// the first request.
    fn get(
        &mut self,
        structure: Structure,
        scheme: SchemeKind,
        params: BenchParams,
    ) -> BenchResult {
        let point = Point { structure, scheme, params };
        if let Some((_, r)) = self.memo.iter().find(|(p, _)| *p == point) {
            return r.clone();
        }
        let r = (self.measure)(&point);
        self.memo.push((point, r.clone()));
        r
    }

    /// [`get`](Sweep::get) at the paper's parameters for `paper_s` keys,
    /// scaled.
    fn paper(
        &mut self,
        structure: Structure,
        scheme: SchemeKind,
        threads: usize,
        paper_s: usize,
        mix: Mix,
    ) -> BenchResult {
        self.get(structure, scheme, BenchParams::paper(self.scale, threads, paper_s, mix))
    }
}

/// `runs` repetitions of `point` on consecutive seeds (the paper reports
/// the mean of 10 runs): `mops` is the mean over runs; the telemetry
/// snapshots and latency histograms are merged, so every ratio or
/// quantile read from the result is pooled over all runs' counts rather
/// than a mean of per-run figures; counts are summed and peaks (and
/// `end_pending`) are the max.
fn repeat(point: &Point, runs: usize) -> BenchResult {
    let mut acc = BenchResult::default();
    for i in 0..runs {
        let mut point = point.clone();
        point.params.seed = point.params.seed.wrapping_add(i as u64);
        let r = run_point(&point);
        acc.total_ops += r.total_ops;
        acc.mops += r.mops / runs as f64;
        acc.telemetry.merge(&r.telemetry);
        acc.latency.merge(&r.latency);
        acc.handle_churns += r.handle_churns;
        acc.peak_pending = acc.peak_pending.max(r.peak_pending);
        acc.peak_pending_bytes = acc.peak_pending_bytes.max(r.peak_pending_bytes);
        acc.end_pending = acc.end_pending.max(r.end_pending);
        acc.peak_rss_kb = acc.peak_rss_kb.max(r.peak_rss_kb);
    }
    acc
}

/// Tables keyed by the CSV slug [`Table::emit`] writes them under.
type Tables = Vec<(String, Table)>;

/// Builds one figure's tables.
type Figure = fn(&mut Sweep) -> Tables;

/// Every figure, by the name that selects it on the bench target's
/// command line, in the order the sweep builds them.
const FIGURES: [(&str, Figure); 12] = [
    ("fig2", fig2),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7a", fig7a),
    ("fig7b", fig7b),
    ("fig7c", fig7c),
    ("table1", table1),
    ("collision_analysis", collision_analysis),
    ("takeaways", takeaways),
    ("soak", soak),
];

/// Builds the figures named in `only` (every figure when it is empty) at
/// `scale`, printing each table and writing its CSV. Returns how many
/// distinct points were measured, or an error naming the choices when a
/// name matches no figure.
pub fn emit(scale: Scale, only: &[String]) -> Result<usize, String> {
    let names = FIGURES.map(|(name, _)| name);
    if let Some(bad) = only.iter().find(|n| !names.contains(&n.as_str())) {
        return Err(format!("unknown figure {bad:?} (expected one of: {})", names.join(", ")));
    }
    let mut sweep = Sweep::new(scale);
    for (name, tables) in FIGURES {
        if only.is_empty() || only.iter().any(|n| n == name) {
            for (slug, table) in tables(&mut sweep) {
                table.emit(&slug);
            }
        }
    }
    Ok(sweep.measured())
}

/// The schemes a structure's tables list: the comparison set, plus DTA on
/// the list (§6 evaluates DTA only there).
fn schemes(structure: Structure) -> &'static [SchemeKind] {
    match structure {
        Structure::List => &[Mp, Ibr, He, Hp, Ebr, Dta],
        _ => &COMPARISON_SET,
    }
}

/// The three structures the paper evaluates: label, structure, paper `S`.
const PAPER_STRUCTURES: [(&str, Structure, usize); 3] = [
    ("nmtree", Structure::NmTree, 500_000),
    ("skiplist", Structure::SkipList, 500_000),
    ("list", Structure::List, 5_000),
];

fn fmt_retired(r: &BenchResult) -> String {
    format!("{:.1}", r.telemetry.avg_retired_at_op_start())
}

/// Figures 2–4: throughput and average retired nodes per scheme across
/// the thread sweep, one table per workload.
fn throughput(sweep: &mut Sweep, fig: u8, structure: Structure, paper_s: usize) -> Tables {
    let (label, slug) = match structure {
        Structure::NmTree => ("BST", "bst"),
        Structure::SkipList => ("skip list", "skiplist"),
        _ => ("linked list", "list"),
    };
    let prefill = sweep.scale.prefill(paper_s);
    let mut tables = Tables::new();
    for mix in [READ_DOMINATED, WRITE_DOMINATED, READ_ONLY] {
        let mut table = Table::new(
            &format!("Figure {fig}: {label} (S={prefill}) throughput, {} workload", mix.name),
            &["threads", "scheme", "Mops/s", "avg-retired"],
        );
        for threads in sweep.scale.threads() {
            for &scheme in schemes(structure) {
                let r = sweep.paper(structure, scheme, threads, paper_s, mix);
                table.row(vec![
                    threads.to_string(),
                    scheme.name().to_string(),
                    format!("{:.3}", r.mops),
                    fmt_retired(&r),
                ]);
            }
        }
        tables.push((format!("fig{fig}_{slug}_{}", mix.name), table));
    }
    tables
}

/// Figure 2 — Natarajan–Mittal BST throughput. Paper: in non-read-only
/// workloads MP ≈ IBR ≈ HE while HP trails 1.3–2×; in read-only, MP
/// trails the best EBR-based scheme by ≈20 %; past the hardware-thread
/// count, IBR/HE dip and MP can overtake them.
fn fig2(sweep: &mut Sweep) -> Tables {
    throughput(sweep, 2, Structure::NmTree, 500_000)
}

/// Figure 3 — Fraser skip-list throughput. Paper: as Figure 2, with
/// read-only MP ≈ −30 % against the best EBR-based scheme.
fn fig3(sweep: &mut Sweep) -> Tables {
    throughput(sweep, 3, Structure::SkipList, 500_000)
}

/// Figure 4 — Michael linked-list throughput, DTA included. Paper (S =
/// 5 K, since linear-time operations make larger sizes impractical): IBR
/// leads at high thread counts (2–3× over MP), DTA outperforms MP and HP,
/// and MP's gap to the epoch schemes is widest here — the slower the
/// structure, the more MP's per-dereference work shows.
fn fig4(sweep: &mut Sweep) -> Tables {
    throughput(sweep, 4, Structure::List, 5_000)
}

/// Figure 5 — memory fences per traversed node, MP against HP, read-only.
/// Paper: MP issues ≈2× fewer on every structure, because one margin
/// covers many nearby nodes while HP fences per dereference.
fn fig5(sweep: &mut Sweep) -> Tables {
    let threads = sweep.scale.max_threads();
    let mut table = Table::new(
        "Figure 5: memory fences per traversed node (read-only)",
        &["structure", "scheme", "fences/node", "ratio HP/MP"],
    );
    for (label, structure, paper_s) in PAPER_STRUCTURES {
        let [mp, hp] = [Mp, Hp].map(|scheme| {
            sweep.paper(structure, scheme, threads, paper_s, READ_ONLY).telemetry.fences_per_node()
        });
        table.row(vec![label.into(), "MP".into(), format!("{mp:.4}"), String::new()]);
        table.row(vec![
            label.into(),
            "HP".into(),
            format!("{hp:.4}"),
            format!("{:.2}x", hp / mp.max(1e-12)),
        ]);
    }
    vec![("fig5_fences".into(), table)]
}

/// Figure 6 — wasted memory: average retired-but-unreclaimed nodes at
/// operation start, read-dominated, every structure. Paper: MP and HP
/// stay near zero at every thread count; HE and IBR grow with the thread
/// count, because context-switch stalls pin their epochs and eras. The
/// second table adds an explicitly stalled thread (§1's scenario), under
/// which EBR-family waste grows without bound and MP's stays bounded.
fn fig6(sweep: &mut Sweep) -> Tables {
    let mut tables = Tables::new();
    for (stalled, suffix, slug) in [
        (0, "natural stalls only", "fig6_wasted_memory"),
        (1, "one thread parked mid-operation", "fig6_wasted_memory_stalled"),
    ] {
        let mut table = Table::new(
            &format!("Figure 6: wasted memory, read-dominated ({suffix})"),
            &["structure", "threads", "scheme", "avg-retired", "peak-pending"],
        );
        for threads in sweep.scale.threads() {
            for (label, structure, paper_s) in PAPER_STRUCTURES {
                let params = BenchParams::paper(sweep.scale, threads, paper_s, READ_DOMINATED)
                    .with_stalled(stalled);
                for &scheme in schemes(structure) {
                    let r = sweep.get(structure, scheme, params.clone());
                    table.row(vec![
                        label.to_string(),
                        threads.to_string(),
                        scheme.name().to_string(),
                        fmt_retired(&r),
                        r.peak_pending.to_string(),
                    ]);
                }
            }
        }
        tables.push((slug.into(), table));
    }
    tables
}

/// Figure 7a — the index-collision worst case. A list built by ascending
/// inserts halves the remaining index interval on every insertion, so
/// with 32-bit indices every node past the first ~32 collides and takes
/// the `USE_HP` path. Paper: MP's read-only throughput degrades
/// gracefully *to* HP's, never below it.
fn fig7a(sweep: &mut Sweep) -> Tables {
    let prefill = sweep.scale.prefill(5_000);
    let mut table = Table::new(
        &format!("Figure 7a: ascending-insert list (S={prefill}), read-only throughput"),
        &["threads", "scheme", "Mops/s", "MP hp-fallback rate"],
    );
    for threads in sweep.scale.threads() {
        let mut params = BenchParams::paper(sweep.scale, threads, 5_000, READ_ONLY);
        params.prefill_mode = Prefill::Ascending;
        for scheme in [Mp, Hp] {
            let r = sweep.get(Structure::List, scheme, params.clone());
            let fallback = match scheme {
                Mp => format!("{:.1}%", 100.0 * r.telemetry.hp_fallback_rate()),
                _ => String::new(),
            };
            table.row(vec![
                threads.to_string(),
                scheme.name().into(),
                format!("{:.3}", r.mops),
                fallback,
            ]);
        }
    }
    vec![("fig7a_ascending".into(), table)]
}

/// The margin sweep behind Figures 7b and 7c: MP on the write-dominated
/// BST at margins 2^17..2^26, one result per margin.
fn margin_sweep(sweep: &mut Sweep) -> Vec<(u32, BenchResult)> {
    let threads = sweep.scale.max_threads();
    (17..=26u32)
        .map(|shift| {
            let mut params = BenchParams::paper(sweep.scale, threads, 500_000, WRITE_DOMINATED);
            params.config.margin = 1 << shift;
            (shift, sweep.get(Structure::NmTree, Mp, params))
        })
        .collect()
}

/// Figure 7b — margin sensitivity, throughput. Paper: throughput rises
/// monotonically with the margin (bigger margins, fewer announcements,
/// fewer fences); 2^20 is the largest margin that keeps wasted memory
/// flat (Figure 7c).
fn fig7b(sweep: &mut Sweep) -> Tables {
    let (prefill, threads) = (sweep.scale.prefill(500_000), sweep.scale.max_threads());
    let mut table = Table::new(
        &format!("Figure 7b: margin sensitivity, write-dominated BST (S={prefill}, T={threads})"),
        &["margin", "Mops/s", "fences/node"],
    );
    for (shift, r) in margin_sweep(sweep) {
        table.row(vec![
            format!("2^{shift}"),
            format!("{:.3}", r.mops),
            format!("{:.4}", r.telemetry.fences_per_node()),
        ]);
    }
    vec![("fig7b_margin_throughput".into(), table)]
}

/// Figure 7c — margin sensitivity, wasted memory, on Figure 7b's points.
/// Paper: wasted memory rises monotonically with the margin (bigger
/// margins pin more retired indices per announcement).
fn fig7c(sweep: &mut Sweep) -> Tables {
    let (prefill, threads) = (sweep.scale.prefill(500_000), sweep.scale.max_threads());
    let mut table = Table::new(
        &format!("Figure 7c: margin sensitivity, wasted memory (S={prefill}, T={threads})"),
        &["margin", "avg-retired", "peak-pending"],
    );
    for (shift, r) in margin_sweep(sweep) {
        table.row(vec![format!("2^{shift}"), fmt_retired(&r), r.peak_pending.to_string()]);
    }
    vec![("fig7c_margin_waste".into(), table)]
}

/// Table 1 — the paper's qualitative scheme comparison, with its two
/// quantifiable columns measured: per-node SMR words each scheme's nodes
/// actually carry ([`header_words`]), and a run-time overhead proxy
/// (read-only BST throughput against the leaky baseline, plus fences per
/// node).
fn table1(sweep: &mut Sweep) -> Tables {
    let threads = sweep.scale.max_threads();
    let mut tree = |scheme| sweep.paper(Structure::NmTree, scheme, threads, 500_000, READ_ONLY);
    let base = tree(Leaky);
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
    for (scheme, bound, effort) in [
        (Hp, "bounded", "per-reference"),
        (Ebr, "unbounded", "per-operation"),
        (He, "robust", "~HP"),
        (Ibr, "robust", "per-operation"),
        (Mp, "bounded", "HP + bound hooks"),
    ] {
        let r = tree(scheme);
        table.row(vec![
            scheme.name().into(),
            format!("{:.2}x", base.mops / r.mops.max(1e-9)),
            format!("{:.4}", r.telemetry.fences_per_node()),
            bound.into(),
            effort.into(),
            header_words(scheme).to_string(),
        ]);
    }
    for (scheme, overhead, fences, bound, effort) in [
        (Dta, "(list only)", "-", "robust (frozen leak)", "DS-specific freezing"),
        (Leaky, "1.00x", "0.0000", "none (never frees)", "-"),
    ] {
        let words = header_words(scheme).to_string();
        let cells = [scheme.name(), overhead, fences, bound, effort, &words];
        table.row(cells.map(String::from).to_vec());
    }
    vec![("table1".into(), table)]
}

/// Words of SMR metadata `scheme` puts in each node, read off the
/// allocator: the pool block a payload-less, tail-less node holds once
/// retired. Every node has the one-word header (48-bit stamp, shape,
/// client flag), whose stamp holds the birth epoch under HE, IBR and DTA
/// and the index otherwise; only MP, which reads both, adds a birth word.
/// The paper's retire epoch is in no node: it is known only once a node
/// is retired, so it lives in the retired-list record while the node is
/// pending.
fn header_words(scheme: SchemeKind) -> usize {
    use mp_smr::{Smr, SmrHandle};
    let cfg = mp_smr::Config { max_threads: 1, ..mp_smr::Config::default() };
    let smr = mp_smr::AnySmr::try_with_kind(scheme, cfg).expect("a default config is valid");
    let mut h = smr.try_register().expect("a fresh registry has a slot");
    let mut op = h.pin();
    let node = op.alloc(());
    // SAFETY: [INV-04] never published, retired once.
    unsafe { op.retire(node) };
    drop(op);
    smr.telemetry().pending_bytes() / size_of::<u64>()
}

/// Index collisions by structure, size and insertion order (the paper's
/// §5 pointer to the thesis, §4.6): the share of allocations stamped
/// `USE_HP` and of reads that took the hazard fallback.
///
/// Random orders keep collisions negligible until the size nears the
/// index space's granularity; ascending inserts collide after ~32 nodes.
/// The cascade is total for the list and skip list (their upper bound is
/// the tail's fixed `max_index`, so once a `USE_HP` node is the
/// predecessor the interval stays exhausted — Figure 7a's 100 %), but the
/// NM tree self-heals: a `USE_HP` bound enters the midpoint arithmetic as
/// `0xffff_ffff`, re-widening the interval. MP's worst case really is the
/// list, where the paper evaluates it.
fn collision_analysis(sweep: &mut Sweep) -> Tables {
    let mut table = Table::new(
        "Index collisions by structure, size, and insertion order (thesis §4.6)",
        &["structure", "S", "prefill order", "collision allocs", "hp-fallback reads"],
    );
    let mut cases = Vec::new();
    for (label, structure, _) in PAPER_STRUCTURES {
        let sizes: &[usize] = match structure {
            Structure::List => &[1_000, 2_000],
            _ => &[1_000, 10_000, 50_000],
        };
        cases.extend(sizes.iter().map(|&s| (label, structure, s, Prefill::Random)));
    }
    // The adversarial order (Figure 7a's setup).
    cases.extend([
        ("nmtree", Structure::NmTree, 10_000, Prefill::Ascending),
        ("skiplist", Structure::SkipList, 10_000, Prefill::Ascending),
        ("list", Structure::List, 2_000, Prefill::Ascending),
    ]);
    for (label, structure, prefill, mode) in cases {
        let mut params = BenchParams::new(2, prefill, READ_DOMINATED);
        params.prefill_mode = mode;
        params.duration = sweep.scale.duration();
        let t = sweep.get(structure, Mp, params).telemetry;
        let collisions = 100.0 * t.collision_allocs() as f64 / t.allocs().max(1) as f64;
        table.row(vec![
            label.to_string(),
            prefill.to_string(),
            format!("{mode:?}"),
            format!("{collisions:.2}%"),
            format!("{:.2}%", 100.0 * t.hp_fallback_rate()),
        ]);
    }
    vec![("collision_analysis".into(), table)]
}

/// §6.1's "Evaluation Takeaways" as PASS/FAIL checks, so a regression in
/// the reproduction shows in one table:
///
/// 1. *"MP is the best performer in its category of SMR schemes with
///    bounded wasted memory"* — MP against HP, the only other
///    self-contained bounded scheme. On a host with few cores the
///    throughput comparison can invert (fences are cheap), so the
///    mechanism, fences per traversed node, is checked alongside it.
/// 2. *"MP performs comparably to EBR-based schemes … and can outperform
///    them in the presence of thread stalls"* — with a parked thread,
///    MP's waste stays bounded while EBR-family waste explodes.
/// 3. *"MP wastes less memory than EBR-based schemes, not only in theory
///    but in practice"* — average retired at operation start.
fn takeaways(sweep: &mut Sweep) -> Tables {
    fn verdict(ok: bool) -> String {
        if ok {
            "PASS".into()
        } else {
            "FAIL".into()
        }
    }
    let threads = sweep.scale.max_threads();
    let mut table = Table::new(
        "Evaluation takeaways (§6.1) as measurable claims",
        &["#", "claim (operationalized)", "measured", "verdict"],
    );
    let mut tree =
        |scheme| sweep.paper(Structure::NmTree, scheme, threads, 500_000, READ_DOMINATED);
    let [mp, hp, ebr, he, ibr] = [Mp, Hp, Ebr, He, Ibr].map(&mut tree);

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

    let stalled = BenchParams::paper(sweep.scale, threads, 5_000, READ_DOMINATED).with_stalled(1);
    let [s_mp, s_ebr, s_ibr] = [Mp, Ebr, Ibr].map(|scheme| {
        sweep.get(Structure::List, scheme, stalled.clone()).telemetry.avg_retired_at_op_start()
    });
    table.row(vec![
        "2".into(),
        "stalled thread: MP waste bounded, EBR/IBR not (list)".into(),
        format!("MP {s_mp:.0} vs EBR {s_ebr:.0} / IBR {s_ibr:.0} avg-retired"),
        verdict(s_ebr > 10.0 * s_mp.max(1.0) && s_ibr > 3.0 * s_mp.max(1.0)),
    ]);

    let [mp, ebr, he, ibr] = [mp, ebr, he, ibr].map(|r| r.telemetry.avg_retired_at_op_start());
    table.row(vec![
        "3".into(),
        "MP wastes less than EBR/HE/IBR in practice (BST, read-dom.)".into(),
        format!("MP {mp:.0} vs EBR {ebr:.0} / HE {he:.0} / IBR {ibr:.0}"),
        verdict(mp < ebr.min(he).min(ibr)),
    ]);
    vec![("takeaways".into(), table)]
}

/// The oversubscribed soak, beyond the paper: the comparison set on the
/// hash map with four workers per core, Zipfian(0.99) keys and handle
/// churn ([`BenchParams::soak`]), without and then with one stalled
/// reader (§1's survival scenario). Reports latency quantiles, scan cost,
/// peak and end pending nodes, and peak RSS per scheme.
fn soak(sweep: &mut Sweep) -> Tables {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = (4 * cores).max(2);
    // A real soak wants 20 s per scheme; a smoke run churns often enough
    // to recycle tids within 40 ms.
    let (duration, churn_every) = match sweep.scale {
        Scale::Smoke => (sweep.scale.duration(), 1_000),
        Scale::Ci => (sweep.scale.duration(), 20_000),
        Scale::Paper => (Duration::from_secs(20), 20_000),
    };
    let mut params = BenchParams::soak(threads, sweep.scale.prefill(51_200));
    params.duration = duration;
    params.churn_every = churn_every;
    let mut table = Table::new(
        &format!(
            "Oversubscribed soak (hashmap, {threads} workers on {cores} core(s), {:?} keys, \
             prefill {}, churn every {churn_every} ops, {} ms per scheme)",
            params.dist,
            params.prefill,
            duration.as_millis()
        ),
        &[
            "stalled",
            "scheme",
            "Mops/s",
            "p50-ns",
            "p99-ns",
            "p999-ns",
            "scan-ns/free",
            "churns",
            "tid-recycles",
            "peak-pending",
            "peak-pending-bytes",
            "end-pending",
            "peak-rss-kb",
            "retires",
        ],
    );
    for stalled in [0, 1] {
        for scheme in COMPARISON_SET {
            let r = sweep.get(Structure::HashMap, scheme, params.clone().with_stalled(stalled));
            table.row(vec![
                stalled.to_string(),
                scheme.name().to_string(),
                format!("{:.3}", r.mops),
                r.latency.quantile(0.50).to_string(),
                r.latency.quantile(0.99).to_string(),
                r.latency.quantile(0.999).to_string(),
                format!("{:.1}", r.telemetry.scan_ns_per_free()),
                r.handle_churns.to_string(),
                r.telemetry.tid_recycles().to_string(),
                r.peak_pending.to_string(),
                r.peak_pending_bytes.to_string(),
                r.end_pending.to_string(),
                r.peak_rss_kb.to_string(),
                r.telemetry.retires().to_string(),
            ]);
        }
    }
    vec![("soak".into(), table)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    /// Builds every figure at smoke scale against a stand-in that counts
    /// the points it is asked to run, instead of running them.
    #[test]
    fn the_sweep_measures_each_point_once_and_writes_every_table() {
        let runs = Rc::new(Cell::new(0));
        let counter = Rc::clone(&runs);
        let mut sweep = Sweep::with_measure(Scale::Smoke, move |_| {
            counter.set(counter.get() + 1);
            BenchResult { mops: 1.0, ..BenchResult::default() }
        });
        let tables: Vec<_> = FIGURES.iter().flat_map(|(_, tables)| tables(&mut sweep)).collect();

        let mut slugs: Vec<_> = tables.iter().map(|(slug, _)| slug.as_str()).collect();
        slugs.sort_unstable();
        assert_eq!(
            slugs,
            [
                "collision_analysis",
                "fig2_bst_read-dominated",
                "fig2_bst_read-only",
                "fig2_bst_write-dominated",
                "fig3_skiplist_read-dominated",
                "fig3_skiplist_read-only",
                "fig3_skiplist_write-dominated",
                "fig4_list_read-dominated",
                "fig4_list_read-only",
                "fig4_list_write-dominated",
                "fig5_fences",
                "fig6_wasted_memory",
                "fig6_wasted_memory_stalled",
                "fig7a_ascending",
                "fig7b_margin_throughput",
                "fig7c_margin_waste",
                "soak",
                "table1",
                "takeaways",
            ],
            "one CSV per table, under the names the separate targets wrote"
        );
        // A rendered table is a blank line, its title, header and rule,
        // then one line per row.
        let rows: Vec<usize> = tables.iter().map(|(_, t)| t.render().lines().count() - 4).collect();
        assert!(rows.iter().all(|&n| n > 0), "a table without rows: {rows:?}");

        // Figures 2–4: 3 mixes × 2 thread counts × (5 + 5 + 6 schemes);
        // Figure 6 stalled: 2 × 16; Figure 7a: 2 × 2; the margin sweep 10;
        // Table 1's leaky baseline 1; collisions 11; the soak 2 × 5.
        // Everything else is a point one of those already measured.
        assert_eq!(runs.get(), sweep.measured(), "a point was measured twice");
        assert_eq!(sweep.measured(), 96 + 32 + 4 + 10 + 1 + 11 + 10);
    }

    #[test]
    fn an_unknown_figure_is_refused_before_anything_runs() {
        let err = emit(Scale::Smoke, &["fig8".to_string()]).unwrap_err();
        assert!(err.contains("fig8") && err.contains("fig7c, table1"), "{err}");
    }

    /// Table 1's `hdr-words`: the one-word header for every scheme (plus
    /// the oracle's canary in an armed build), and a birth word for MP
    /// alone, the one scheme that reads both an index and a birth. HE, IBR
    /// and DTA keep their birth in the header's stamp.
    #[test]
    fn a_node_carries_a_birth_word_only_where_its_scheme_reads_one() {
        let bare = size_of::<mp_smr::node::Header>() / size_of::<u64>();
        for scheme in SchemeKind::ALL {
            let birth_word = scheme == Mp;
            assert_eq!(header_words(scheme), bare + usize::from(birth_word), "{}", scheme.name());
        }
    }
}
