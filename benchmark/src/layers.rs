//! The per-layer cost ledger: one thread, public functions only, each figure
//! the median of several timed batches, in nanoseconds per call. Layers are
//! the repo's modules — `packed`, the fence the schemes issue, each scheme's
//! `read` / op bracket / alloc+retire / scan, the registry, the `AnySmr`
//! facade, and armed telemetry.

use std::hint::black_box;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mp_ds::{ConcurrentSet, DtaList, LinkedList};
use mp_smr::schemes::{Dta, Ebr, He, Hp, Ibr, Leaky, Mp};
use mp_smr::{AnySmr, Atomic, SchemeKind, Shared, Smr, SmrBuilder, SmrHandle, Telemetry};

use crate::prng::{label, Rng};
use crate::stats::median;
use crate::workload::build_scheme;

/// Keys in the ledger's list (the paper's list size, as in `list-read`).
const LIST_KEYS: u64 = 5_000;
const LIST_SLOTS: usize = 4;
/// Registry size of the ledger's schemes: what a 2-worker workload uses.
const THREADS: usize = 4;
/// Retirees per timed scan.
const SCAN_NODES: usize = 4_096;
/// A valid MP index far from both ends of the index space.
const INDEX: u32 = 1 << 28;
/// Operations per `pin()` in the alloc+retire loop: amortises the bracket
/// (which has its own row) while letting epochs advance between groups.
const GROUP: u64 = 32;

pub struct LedgerCfg {
    pub seed: u64,
    pub batches: usize,
    /// Calls per batch for the primitive rows.
    pub calls: u64,
    /// Scans per batch for the scan rows (each over [`SCAN_NODES`] nodes).
    pub scan_rounds: usize,
}

impl LedgerCfg {
    pub fn new(seed: u64, smoke: bool) -> LedgerCfg {
        if smoke {
            LedgerCfg {
                seed,
                batches: 2,
                calls: 50_000,
                scan_rounds: 2,
            }
        } else {
            LedgerCfg {
                seed,
                batches: 5,
                calls: 1_000_000,
                scan_rounds: 48,
            }
        }
    }
}

#[derive(Clone)]
pub struct Row {
    pub name: String,
    pub ns: f64,
}

/// Side observations that qualify a row: how many retirees a kept-scan really
/// kept, fences per announcing read.
pub type Notes = Vec<(String, f64)>;

/// Median over batches of `elapsed ÷ calls`; a batch reports both.
fn median_ns(
    cfg: &LedgerCfg,
    mut batch: impl FnMut() -> Result<(Duration, u64), String>,
) -> Result<f64, String> {
    let mut per_call = Vec::with_capacity(cfg.batches);
    for _ in 0..cfg.batches {
        let (elapsed, calls) = batch()?;
        per_call.push(elapsed.as_nanos() as f64 / calls.max(1) as f64);
    }
    Ok(median(&per_call))
}

fn register<S: Smr>(smr: &Arc<S>) -> Result<S::Handle, String> {
    smr.try_register()
        .map_err(|e| format!("{}: register: {e}", S::name()))
}

/// The ledger's list keys: `LIST_KEYS` distinct keys below `2·LIST_KEYS`.
fn list_keys(seed: u64) -> Vec<u64> {
    let mut rng = Rng::new(seed, &[label("ledger-list")]);
    let mut taken = vec![false; 2 * LIST_KEYS as usize];
    let mut keys = Vec::with_capacity(LIST_KEYS as usize);
    while keys.len() < LIST_KEYS as usize {
        let k = rng.below(2 * LIST_KEYS);
        if !std::mem::replace(&mut taken[k as usize], true) {
            keys.push(k);
        }
    }
    keys
}

/// ns per `read` hop: uniform lookups on the list, elapsed ÷ nodes traversed.
fn hop_ns<H: Telemetry>(
    cfg: &LedgerCfg,
    h: &mut H,
    mut contains: impl FnMut(&mut H, u64) -> bool,
) -> Result<f64, String> {
    let mut rng = Rng::new(cfg.seed, &[label("ledger-lookups")]);
    let lookups = (cfg.calls / (LIST_KEYS / 2)).max(1);
    median_ns(cfg, || {
        let hops0 = h.snapshot().nodes_traversed();
        let t0 = Instant::now();
        for _ in 0..lookups {
            black_box(contains(h, rng.below(2 * LIST_KEYS)));
        }
        let elapsed = t0.elapsed();
        Ok((elapsed, h.snapshot().nodes_traversed() - hops0))
    })
}

fn bracket_ns<H: SmrHandle>(cfg: &LedgerCfg, h: &mut H) -> Result<f64, String> {
    median_ns(cfg, || {
        let t0 = Instant::now();
        for _ in 0..cfg.calls {
            drop(h.pin());
        }
        Ok((t0.elapsed(), cfg.calls))
    })
}

/// ns per alloc+retire pair, scans triggered by the scheme's own policy
/// amortised in.
fn alloc_retire_ns<H: SmrHandle>(cfg: &LedgerCfg, h: &mut H) -> Result<f64, String> {
    let out = median_ns(cfg, || {
        let t0 = Instant::now();
        for _ in 0..cfg.calls / GROUP {
            let mut op = h.pin();
            for i in 0..GROUP {
                let node = op.alloc_with_index(i, INDEX);
                // SAFETY: the node was never published, so nothing leads to
                // it, and it is retired exactly once.
                unsafe { op.retire(node) };
            }
        }
        Ok((t0.elapsed(), cfg.calls / GROUP * GROUP))
    });
    h.force_empty();
    out
}

/// A prefilled list under scheme `S` with one registered handle.
struct ListRig<S: Smr> {
    list: LinkedList<S>,
    handle: S::Handle,
}

impl<S: Smr> ListRig<S> {
    fn new(smr: &Arc<S>, keys: &[u64]) -> Result<Self, String> {
        let list = LinkedList::new(smr);
        let mut handle = register(smr)?;
        for &k in keys {
            list.insert(&mut handle, k);
        }
        Ok(ListRig { list, handle })
    }

    fn hop_ns(&mut self, cfg: &LedgerCfg) -> Result<f64, String> {
        let list = &self.list;
        hop_ns(cfg, &mut self.handle, |h, k| list.contains(h, k))
    }
}

/// `read_hop_ns`, `op_bracket_ns` and (for reclaiming schemes) `alloc_retire_ns`
/// of scheme `S`.
fn scheme_rows<S: Smr>(
    cfg: &LedgerCfg,
    tag: &str,
    keys: &[u64],
    reclaims: bool,
    rows: &mut Vec<Row>,
) -> Result<(), String> {
    let smr = build_scheme::<S>(THREADS, LIST_SLOTS)?;
    let mut rig = ListRig::new(&smr, keys)?;
    rows.push(Row {
        name: format!("schemes.{tag}.read_hop_ns"),
        ns: rig.hop_ns(cfg)?,
    });
    rows.push(Row {
        name: format!("schemes.{tag}.op_bracket_ns"),
        ns: bracket_ns(cfg, &mut rig.handle)?,
    });
    if reclaims {
        rows.push(Row {
            name: format!("schemes.{tag}.alloc_retire_ns"),
            ns: alloc_retire_ns(cfg, &mut rig.handle)?,
        });
    }
    Ok(())
}

/// DTA only runs on its own list type, so its rows are spelled out.
fn dta_rows(cfg: &LedgerCfg, keys: &[u64], rows: &mut Vec<Row>) -> Result<(), String> {
    let smr = build_scheme::<Dta>(THREADS, LIST_SLOTS)?;
    let list = DtaList::new(&smr);
    let mut h = register(&smr)?;
    for &k in keys {
        list.insert(&mut h, k);
    }
    let ns = hop_ns(cfg, &mut h, |h, k| list.contains(h, k))?;
    rows.push(Row {
        name: "schemes.dta.read_hop_ns".into(),
        ns,
    });
    rows.push(Row {
        name: "schemes.dta.op_bracket_ns".into(),
        ns: bracket_ns(cfg, &mut h)?,
    });
    rows.push(Row {
        name: "schemes.dta.alloc_retire_ns".into(),
        ns: alloc_retire_ns(cfg, &mut h)?,
    });
    Ok(())
}

/// ns per retired node of a `force_empty()` over [`SCAN_NODES`] retirees,
/// either unprotected (all freed) or — `kept` — each protected by a second
/// pinned handle (all kept). The scheme gets as many slots per thread as
/// there are retirees: that lets HP protect every one of them, and puts the
/// scan watermark (2·T·H) above the batch so no scan runs before the timed
/// one. Returns the cost and the share of retirees the timed scan kept.
fn scan_ns<S: Smr>(cfg: &LedgerCfg, kept: bool) -> Result<(f64, f64), String> {
    let smr = build_scheme::<S>(2, SCAN_NODES)?;
    let mut owner = register(&smr)?;
    let cells: Vec<Atomic<u64>> = (0..SCAN_NODES).map(|_| Atomic::null()).collect();
    let (mut scanned_total, mut kept_total) = (0u64, 0u64);
    let ns = median_ns(cfg, || {
        let mut elapsed = Duration::ZERO;
        let mut scanned = 0u64;
        for _ in 0..cfg.scan_rounds {
            for chunk in cells.chunks(GROUP as usize) {
                let mut op = owner.pin();
                for cell in chunk {
                    cell.store(op.alloc_with_index(0u64, INDEX), Ordering::Release);
                }
            }
            // The protector registers afresh each round: schemes keep eras
            // and margins announced between operations, and only dropping
            // the handle withdraws them.
            let mut protector = if kept { Some(register(&smr)?) } else { None };
            let guard = protector.as_mut().map(|p| {
                let mut op = p.pin();
                for (refno, cell) in cells.iter().enumerate() {
                    black_box(op.read(cell, refno));
                }
                op
            });
            for chunk in cells.chunks(GROUP as usize) {
                let mut op = owner.pin();
                for cell in chunk {
                    let node = cell.load(Ordering::Acquire);
                    cell.store(Shared::null(), Ordering::Release);
                    // SAFETY: the cell held the only shared pointer to the
                    // node and was just cleared; each node is retired once.
                    unsafe { op.retire(node) };
                }
            }
            let before = owner.retired_len();
            let t0 = Instant::now();
            owner.force_empty();
            // Epoch schemes free a node only some advances after its
            // retirement; the repeats are part of what a drain costs them.
            for _ in 0..8 {
                if kept || owner.retired_len() == 0 {
                    break;
                }
                owner.force_empty();
            }
            elapsed += t0.elapsed();
            scanned += before as u64;
            kept_total += owner.retired_len() as u64;
            drop(guard);
            drop(protector);
            if kept {
                owner.force_empty();
            }
        }
        scanned_total += scanned;
        Ok((elapsed, scanned))
    })?;
    Ok((ns, kept_total as f64 / scanned_total.max(1) as f64))
}

/// MP's own layers: a read under a standing margin, a read that must announce
/// a new one, and the search-interval bookkeeping.
fn mp_rows(cfg: &LedgerCfg, rows: &mut Vec<Row>, notes: &mut Notes) -> Result<(), String> {
    let smr = build_scheme::<Mp>(THREADS, LIST_SLOTS)?;
    let mut h = register(&smr)?;
    let mut op = h.pin();
    // Nodes more than a margin (2^20) apart in index space, and more of them
    // than the handle has slots: margins persist across reads, so only a
    // cycle longer than the slot row makes every read announce afresh.
    let nodes: Vec<Atomic<u64>> = (1..=4 * LIST_SLOTS as u32)
        .map(|i| Atomic::new(op.alloc_with_index(0u64, i << 24)))
        .collect();
    let (near, far) = (&nodes[0], &nodes[1]);
    drop(op);

    let covered = median_ns(cfg, || {
        let mut op = h.pin();
        let t0 = Instant::now();
        for _ in 0..cfg.calls {
            black_box(op.read(near, 0));
        }
        Ok((t0.elapsed(), cfg.calls))
    })?;
    rows.push(Row {
        name: "schemes.mp.read_covered_ns".into(),
        ns: covered,
    });

    let fences0 = h.snapshot().fences_announce();
    let announce = median_ns(cfg, || {
        let mut op = h.pin();
        let t0 = Instant::now();
        for _ in 0..cfg.calls / nodes.len() as u64 {
            for node in &nodes {
                black_box(op.read(node, 0));
            }
        }
        Ok((
            t0.elapsed(),
            cfg.calls / nodes.len() as u64 * nodes.len() as u64,
        ))
    })?;
    rows.push(Row {
        name: "schemes.mp.announce_ns".into(),
        ns: announce,
    });
    let announced = (h.snapshot().fences_announce() - fences0) as f64;
    notes.push((
        "schemes.mp.announce_ns.fences_per_call".into(),
        announced
            / (cfg.batches as u64 * (cfg.calls / nodes.len() as u64 * nodes.len() as u64)) as f64,
    ));

    let bound = median_ns(cfg, || {
        let mut op = h.pin();
        let lo = op.read(near, 0);
        let hi = op.read(far, 1);
        let t0 = Instant::now();
        for _ in 0..cfg.calls / 2 {
            op.update_lower_bound(black_box(lo));
            op.update_upper_bound(black_box(hi));
        }
        Ok((t0.elapsed(), cfg.calls / 2 * 2))
    })?;
    rows.push(Row {
        name: "schemes.mp.update_bound_ns".into(),
        ns: bound,
    });

    let mut op = h.pin();
    for cell in &nodes {
        let node = cell.load(Ordering::Acquire);
        cell.store(Shared::null(), Ordering::Release);
        // SAFETY: the cell held the only shared pointer; retired once.
        unsafe { op.retire(node) };
    }
    drop(op);

    let reg = median_ns(cfg, || {
        let calls = (cfg.calls / 10).max(1);
        let t0 = Instant::now();
        for _ in 0..calls {
            drop(black_box(register(&smr)?));
        }
        Ok((t0.elapsed(), calls))
    })?;
    rows.push(Row {
        name: "registry.register_drop_ns".into(),
        ns: reg,
    });
    Ok(())
}

/// A list hop through the `AnySmr` facade, for the named scheme.
fn any_hop_ns(cfg: &LedgerCfg, kind: SchemeKind, keys: &[u64]) -> Result<f64, String> {
    let smr = SmrBuilder::new()
        .max_threads(THREADS)
        .slots_per_thread(LIST_SLOTS)
        .scheme(kind)
        .try_build_any()
        .map_err(|e| format!("building AnySmr({kind}): {e}"))?;
    ListRig::<AnySmr>::new(&smr, keys)?.hop_ns(cfg)
}

/// Looks a finished row up by name.
pub fn row(rows: &[Row], name: &str) -> f64 {
    rows.iter()
        .find(|r| r.name == name)
        .map_or(f64::NAN, |r| r.ns)
}

/// Runs the whole ledger.
pub fn run(cfg: &LedgerCfg) -> Result<(Vec<Row>, Notes), String> {
    let mut rows = Vec::new();
    let mut notes = Vec::new();
    let keys = list_keys(cfg.seed);

    let cell: Atomic<u64> = Atomic::null();
    let load = median_ns(cfg, || {
        let t0 = Instant::now();
        for _ in 0..cfg.calls {
            black_box(black_box(&cell).load(Ordering::Acquire));
        }
        Ok((t0.elapsed(), cfg.calls))
    })?;
    rows.push(Row {
        name: "packed.load_ns".into(),
        ns: load,
    });
    let (clean, marked) = (Shared::null(), Shared::null().with_mark(1));
    let cas = median_ns(cfg, || {
        let t0 = Instant::now();
        for _ in 0..cfg.calls / 2 {
            let _ = black_box(cell.compare_exchange(
                clean,
                marked,
                Ordering::AcqRel,
                Ordering::Acquire,
            ));
            let _ = black_box(cell.compare_exchange(
                marked,
                clean,
                Ordering::AcqRel,
                Ordering::Acquire,
            ));
        }
        Ok((t0.elapsed(), cfg.calls / 2 * 2))
    })?;
    rows.push(Row {
        name: "packed.cas_ns".into(),
        ns: cas,
    });
    // A store then the fence, as every announcement does: bare back-to-back
    // fences are merged by the compiler and measure nothing.
    let announced = AtomicU64::new(0);
    let fence_ns = median_ns(cfg, || {
        let t0 = Instant::now();
        for i in 0..cfg.calls {
            black_box(&announced).store(i, Ordering::Release);
            fence(Ordering::SeqCst);
        }
        Ok((t0.elapsed(), cfg.calls))
    })?;
    rows.push(Row {
        name: "machine.fence_seqcst_ns".into(),
        ns: fence_ns,
    });

    scheme_rows::<Mp>(cfg, "mp", &keys, true, &mut rows)?;
    scheme_rows::<Hp>(cfg, "hp", &keys, true, &mut rows)?;
    scheme_rows::<He>(cfg, "he", &keys, true, &mut rows)?;
    scheme_rows::<Ebr>(cfg, "ebr", &keys, true, &mut rows)?;
    scheme_rows::<Ibr>(cfg, "ibr", &keys, true, &mut rows)?;
    dta_rows(cfg, &keys, &mut rows)?;
    scheme_rows::<Leaky>(cfg, "leaky", &keys, false, &mut rows)?;

    let mut scan = |tag: &str, kept: bool, (ns, kept_share): (f64, f64)| {
        let name = format!(
            "schemes.{tag}.scan{}_ns_per_node",
            if kept { "_kept" } else { "" }
        );
        notes.push((format!("{name}.kept_share"), kept_share));
        rows.push(Row { name, ns });
    };
    scan("mp", false, scan_ns::<Mp>(cfg, false)?);
    scan("hp", false, scan_ns::<Hp>(cfg, false)?);
    scan("he", false, scan_ns::<He>(cfg, false)?);
    scan("ebr", false, scan_ns::<Ebr>(cfg, false)?);
    scan("ibr", false, scan_ns::<Ibr>(cfg, false)?);
    scan("mp", true, scan_ns::<Mp>(cfg, true)?);
    scan("hp", true, scan_ns::<Hp>(cfg, true)?);
    scan("he", true, scan_ns::<He>(cfg, true)?);

    mp_rows(cfg, &mut rows, &mut notes)?;

    let any_mp = any_hop_ns(cfg, SchemeKind::Mp, &keys)?;
    let any_he = any_hop_ns(cfg, SchemeKind::He, &keys)?;
    let overhead = ((any_mp - row(&rows, "schemes.mp.read_hop_ns"))
        + (any_he - row(&rows, "schemes.he.read_hop_ns")))
        / 2.0;
    rows.push(Row {
        name: "any.read_hop_ns.mp".into(),
        ns: any_mp,
    });
    rows.push(Row {
        name: "any.read_hop_ns.he".into(),
        ns: any_he,
    });
    rows.push(Row {
        name: "any.dispatch_overhead_ns".into(),
        ns: overhead,
    });

    // Handles registered while telemetry is armed carry an event ring and
    // time every operation: the cost of watching, as its own layer.
    mp_smr::telemetry::set_armed(true);
    let armed = (|| {
        let smr = build_scheme::<Mp>(THREADS, LIST_SLOTS)?;
        let mut rig = ListRig::new(&smr, &keys)?;
        Ok::<_, String>((rig.hop_ns(cfg)?, alloc_retire_ns(cfg, &mut rig.handle)?))
    })();
    mp_smr::telemetry::set_armed(false);
    let (armed_hop, armed_alloc) = armed?;
    rows.push(Row {
        name: "telemetry.armed_read_hop_ns".into(),
        ns: armed_hop,
    });
    rows.push(Row {
        name: "telemetry.armed_alloc_retire_ns".into(),
        ns: armed_alloc,
    });

    Ok((rows, notes))
}

/// Every row name the ledger produces, in output order.
pub fn row_names() -> Vec<String> {
    const SCHEMES: [&str; 7] = ["mp", "hp", "he", "ebr", "ibr", "dta", "leaky"];
    let mut names: Vec<String> = ["packed.load_ns", "packed.cas_ns", "machine.fence_seqcst_ns"]
        .map(String::from)
        .into();
    for s in SCHEMES {
        names.push(format!("schemes.{s}.read_hop_ns"));
        names.push(format!("schemes.{s}.op_bracket_ns"));
        if s != "leaky" {
            names.push(format!("schemes.{s}.alloc_retire_ns"));
        }
    }
    for s in &SCHEMES[..5] {
        names.push(format!("schemes.{s}.scan_ns_per_node"));
    }
    for s in &SCHEMES[..3] {
        names.push(format!("schemes.{s}.scan_kept_ns_per_node"));
    }
    names.extend(
        [
            "schemes.mp.read_covered_ns",
            "schemes.mp.announce_ns",
            "schemes.mp.update_bound_ns",
            "registry.register_drop_ns",
            "any.read_hop_ns.mp",
            "any.read_hop_ns.he",
            "any.dispatch_overhead_ns",
            "telemetry.armed_read_hop_ns",
            "telemetry.armed_alloc_retire_ns",
        ]
        .map(String::from),
    );
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_produces_exactly_the_named_rows() {
        let cfg = LedgerCfg {
            seed: 1,
            batches: 1,
            calls: 2_000,
            scan_rounds: 1,
        };
        let (rows, notes) = run(&cfg).unwrap();
        let got: Vec<String> = rows.iter().map(|r| r.name.clone()).collect();
        assert_eq!(got, row_names());
        assert_eq!(got.len(), 40);
        for r in &rows {
            assert!(r.ns.is_finite(), "{} is {}", r.name, r.ns);
        }
        // A kept-scan must really keep, and an unprotected one really free.
        for (name, share) in &notes {
            if name.ends_with("scan_kept_ns_per_node.kept_share") {
                assert!(*share > 0.99, "{name} = {share}");
            } else if name.ends_with("scan_ns_per_node.kept_share") {
                assert!(*share < 0.01, "{name} = {share}");
            }
        }
    }
}
