//! One run of one workload: set up, warm up, interleaved measured
//! repetitions, the optional traced repetitions and layer ledger, the
//! correctness checks, and the report.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::fingerprint::{fingerprint, oversubscribed, rss_anon_kib, rss_kib, workers};
use crate::json::{obj, Json};
use crate::layers::{self, LedgerCfg, Row};
use crate::stats::{median, Summary};
use crate::workload::{
    build_subjects, FinishOut, RepCfg, RepOut, Spec, Subject, CHILD_KINDS, KINDS, SCHEMES,
};

pub const DEFAULT_SEED: u64 = 0x5eed_2021;
/// `run_seconds` in `BENCHMARK.json`: measured time per run, shared by the
/// three schemes' repetitions.
pub const DEFAULT_SECONDS: f64 = 15.0;
/// Measured repetitions per scheme; cut to [`FEWER_REPS`] before a repetition
/// is cut below [`MIN_REP_SECONDS`].
const REPS: usize = 5;
const FEWER_REPS: usize = 3;
const MIN_REP_SECONDS: f64 = 1.0;
/// The discarded warm-up repetition each scheme runs first.
const WARMUP_SECONDS: f64 = 1.0;

pub struct RunOpts {
    pub spec: Spec,
    pub seed: u64,
    /// Total measured time; split over schemes × repetitions.
    pub seconds: f64,
    pub trace: bool,
    /// S ÷ 16, 2 repetitions × 0.2 s, small ledger; every check still runs.
    pub smoke: bool,
    /// Ledger rows a caller already measured (`all` runs the ledger once for
    /// its four workloads); a traced run without them measures its own.
    pub ledger: Option<Vec<Row>>,
    /// Where to write the full result record.
    pub out: PathBuf,
}

/// How one run divides its time.
struct Plan {
    /// Timed set-ups; the repetitions run on the last one's structures.
    setups: usize,
    /// One discarded repetition per scheme.
    warmup_s: f64,
    reps: usize,
    rep_s: f64,
}

impl Plan {
    fn new(opts: &RunOpts) -> Plan {
        if opts.smoke {
            return Plan {
                setups: 2,
                warmup_s: 0.2,
                reps: 2,
                rep_s: 0.2,
            };
        }
        let share = opts.seconds / SCHEMES.len() as f64;
        let reps = if share >= REPS as f64 * MIN_REP_SECONDS {
            REPS
        } else {
            FEWER_REPS
        };
        let rep_s = share / reps as f64;
        Plan {
            setups: opts.spec.setups,
            warmup_s: WARMUP_SECONDS.min(rep_s),
            reps,
            rep_s,
        }
    }
}

/// A named, united value; `summary` carries quartiles and raw repetitions
/// when the value is a median over repetitions.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub summary: Option<Summary>,
}

impl Metric {
    fn plain(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            summary: None,
        }
    }

    fn median_of(name: impl Into<String>, raw: Vec<f64>, unit: &'static str) -> Metric {
        let summary = Summary::of(raw);
        Metric {
            name: name.into(),
            value: summary.median,
            unit,
            summary: Some(summary),
        }
    }

    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("value".to_string(), Json::from(self.value)),
            ("unit".to_string(), Json::from(self.unit)),
        ];
        if let Some(s) = &self.summary {
            pairs.push(("q1".into(), Json::from(s.q1)));
            pairs.push(("q3".into(), Json::from(s.q3)));
            pairs.push(("n".into(), Json::from(s.raw.len() as u64)));
            pairs.push(("raw".into(), Json::from(s.raw.clone())));
        }
        Json::Obj(pairs)
    }
}

struct Check {
    name: String,
    ok: bool,
    detail: String,
}

/// Everything a run learned, ready to print and to write.
pub struct Report {
    pub workload: &'static str,
    pub end_to_end: Vec<Metric>,
    /// The traced repetition's rows, and the ledger's when the run measured
    /// it, are there only after a traced run.
    pub per_layer: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    record: Json,
}

fn per_scheme<T>(mut f: impl FnMut(usize) -> T) -> [T; 3] {
    [f(0), f(1), f(2)]
}

/// Runs one repetition of each scheme in turn, `reps` times over, so machine
/// drift lands on all three alike.
fn interleaved(
    subjects: &mut [Box<dyn Subject>],
    reps: usize,
    seconds: f64,
    first_index: u64,
    traced: bool,
) -> Result<[Vec<RepOut>; 3], String> {
    let mut outs = per_scheme(|_| Vec::with_capacity(reps));
    for r in 0..reps {
        for (s, subject) in subjects.iter_mut().enumerate() {
            let cfg = RepCfg {
                seconds,
                index: first_index + r as u64,
                traced,
            };
            outs[s].push(subject.rep(cfg)?);
        }
    }
    Ok(outs)
}

fn column(reps: &[RepOut], f: impl Fn(&RepOut) -> f64) -> Vec<f64> {
    reps.iter().map(f).collect()
}

pub fn run(opts: &RunOpts) -> Result<Report, String> {
    let plan = Plan::new(opts);
    let w = workers();
    // Wall time of each phase, for the record: where a run's minute goes.
    let mut phases: Vec<(&str, f64)> = Vec::new();
    let mut phase_start = Instant::now();
    let mut phase_done = |name: &'static str| {
        phases.push((name, phase_start.elapsed().as_secs_f64()));
        phase_start = Instant::now();
    };
    if let Some(dir) = opts.out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    let mut spec = opts.spec;
    if opts.smoke {
        spec.prefill /= 16;
    }
    if oversubscribed() {
        println!(
            "!! OVERSUBSCRIBED, NOT COMPARABLE: {w} worker(s) on {} core(s) — \
             throughput here says nothing about scaling",
            crate::fingerprint::nproc()
        );
    }

    // Set up several times over — `setup_s` is the median — each set-up
    // dropping the one before it; the repetitions run on the last.
    let mut setup_times = Vec::with_capacity(plan.setups);
    let mut subjects = Vec::new();
    for _ in 0..plan.setups {
        drop(subjects);
        let t0 = Instant::now();
        subjects = build_subjects(spec, opts.seed, w)?;
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    let rss_after_setup = rss_kib().unwrap_or(0);
    let rss_anon_after_setup = rss_anon_kib().unwrap_or(0);
    phase_done("setup");

    // Repetition indices name the key streams: 0 is the warm-up, measured
    // repetitions count from 1, the traced one follows.
    interleaved(&mut subjects, 1, plan.warmup_s, 0, false)?;
    phase_done("warmup");
    let measured = interleaved(&mut subjects, plan.reps, plan.rep_s, 1, false)?;
    phase_done("measured");
    let traced = if opts.trace {
        let traced = interleaved(&mut subjects, 1, plan.rep_s, 1 + plan.reps as u64, true)?;
        phase_done("traced");
        Some(traced.map(|mut one| one.remove(0)))
    } else {
        None
    };
    let finishes = subjects
        .iter_mut()
        .map(|s| s.finish())
        .collect::<Result<Vec<FinishOut>, String>>()?;
    drop(subjects);
    phase_done("sweep");

    let mut checks = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    for (tag, fin) in SCHEMES.iter().zip(&finishes) {
        attempted += fin.sweep_ops;
        failed += fin.mismatched_keys;
        checks.push(Check {
            name: format!("{tag}.ledger_keys"),
            ok: fin.mismatched_keys == 0,
            detail: format!(
                "{} of {} swept keys disagree with the ledger",
                fin.mismatched_keys, fin.sweep_ops
            ),
        });
        // With no key mismatched, a count or sum error means the counters
        // and the parity ledger disagree with each other: one failure.
        let totals_ok = fin.count_error == 0 && fin.sum_ok;
        if !totals_ok && fin.mismatched_keys == 0 {
            failed += 1;
        }
        checks.push(Check {
            name: format!("{tag}.ledger_totals"),
            ok: totals_ok,
            detail: format!(
                "count off by {}, key-sums {}",
                fin.count_error,
                if fin.sum_ok { "equal" } else { "differ" }
            ),
        });
        checks.push(Check {
            name: format!("{tag}.drained"),
            ok: fin.pending_after == 0,
            detail: format!(
                "retired_pending() = {} after the last handle drained",
                fin.pending_after
            ),
        });
    }
    let mut panicked = 0u64;
    for rep in measured.iter().flatten().chain(traced.iter().flatten()) {
        attempted += rep.ops;
        panicked += rep.panicked;
    }
    failed += panicked;
    checks.push(Check {
        name: "workers_survived".into(),
        ok: panicked == 0,
        detail: format!("{panicked} worker(s) panicked"),
    });
    if spec.stall {
        // Bounded waste as seen from outside: under a stalled reader the
        // pending peak of a bounded scheme does not grow from repetition to
        // repetition. The last is held against the highest of those before
        // it, not the first alone: a repetition's peak follows how many
        // operations it completed and differs by half between neighbours.
        for (s, tag) in SCHEMES.iter().enumerate().filter(|(_, t)| **t != "he") {
            let peaks = column(&measured[s], |r| r.waste_peak_bytes as f64);
            let (last, earlier) = peaks.split_last().ok_or("no measured repetition")?;
            let highest = earlier.iter().copied().fold(1.0, f64::max);
            checks.push(Check {
                name: format!("{tag}.waste_does_not_grow"),
                ok: *last <= 1.5 * highest,
                detail: format!(
                    "pending peak {last} B in the last repetition, at most {highest} B before it"
                ),
            });
        }
    }

    // The untraced part of the run only: the traced repetition's spans are
    // the benchmark's memory, not the library's.
    let rss_peak = measured
        .iter()
        .flatten()
        .map(|r| r.rss_peak_kib)
        .fold(rss_after_setup, u64::max);
    // What the set-up cost: the two values this class of machine repeats.
    let end_to_end = vec![
        Metric::median_of("setup_s", setup_times, "s"),
        Metric::plain("setup_rss_anon_kb", rss_anon_after_setup as f64, "KiB"),
    ];

    // Per-layer metrics the untraced repetitions already give, each but the
    // resident-set peak a median over the measured repetitions. The first
    // seven are the headline figures; they carry no bound because this class
    // of machine cannot hold one (see the README's demotions).
    let ops_per_s = per_scheme(|s| column(&measured[s], |r| r.ops_per_s));
    let latency = |s: usize, q: f64| column(&measured[s], |r| r.latency.quantile(q));
    // Floored at one byte for MP, so that a workload that never retires still
    // reads a value a ratio can be taken of.
    let waste =
        |s: usize, floor: u64| column(&measured[s], |r| r.waste_peak_bytes.max(floor) as f64);
    let mut per_layer = Vec::new();
    for (s, tag) in SCHEMES.iter().enumerate() {
        per_layer.push(Metric::median_of(
            format!("{tag}.ops_per_s"),
            ops_per_s[s].clone(),
            "1/s",
        ));
    }
    per_layer.push(Metric::median_of("mp.op_p50_ns", latency(0, 0.5), "ns"));
    per_layer.push(Metric::median_of("mp.op_p99_ns", latency(0, 0.99), "ns"));
    per_layer.push(Metric::median_of(
        "mp.waste_peak_bytes",
        waste(0, 1),
        "bytes",
    ));
    per_layer.push(Metric::plain("rss_peak_kb", rss_peak as f64, "KiB"));
    for (s, tag) in SCHEMES.iter().enumerate().skip(1) {
        per_layer.push(Metric::median_of(
            format!("{tag}.op_p99_ns"),
            latency(s, 0.99),
            "ns",
        ));
    }
    for (s, tag) in SCHEMES.iter().enumerate().skip(1) {
        per_layer.push(Metric::median_of(
            format!("{tag}.waste_peak_bytes"),
            waste(s, 0),
            "bytes",
        ));
    }
    // MP against HE round by round: adjacent repetitions see the same
    // machine, so the ratio within a round is free of its drift.
    per_layer.push(Metric::median_of(
        "mp.over_he_ratio",
        ops_per_s[0]
            .iter()
            .zip(&ops_per_s[1])
            .map(|(mp, he)| mp / he)
            .collect(),
        "ratio",
    ));
    per_layer.push(Metric::median_of(
        "drain_ms",
        column(&measured[0], |r| r.drain_ms),
        "ms",
    ));
    per_layer.push(Metric::plain(
        "reps_iqr_frac",
        Summary::of(ops_per_s[0].clone()).iqr_frac(),
        "ratio",
    ));
    let beyond_p99 = measured[0]
        .iter()
        .map(|r| r.latency.samples_beyond(0.99))
        .min()
        .unwrap_or(0);
    checks.push(Check {
        name: "mp.p99_has_ten_samples_beyond".into(),
        // The sampling rate is sized for repetitions of the default length.
        ok: beyond_p99 >= 10 || plan.rep_s < MIN_REP_SECONDS,
        detail: format!("{beyond_p99} latency samples beyond the p99 of MP's shortest repetition"),
    });

    let mut ledger_notes = Vec::new();
    if let Some(traced) = &traced {
        // The layer ledger: handed in by `all`, which runs it once for its
        // four workloads, or measured here and reported with this workload.
        let rows = match &opts.ledger {
            Some(rows) => rows.clone(),
            None => {
                let (rows, notes) = layers::run(&LedgerCfg::new(opts.seed, opts.smoke))?;
                phase_done("ledger");
                ledger_notes = notes;
                per_layer.extend(
                    rows.iter()
                        .map(|r| Metric::plain(r.name.clone(), r.ns, "ns")),
                );
                rows
            }
        };
        let ledger = |name: &str| layers::row(&rows, name);

        let untraced = per_scheme(|s| median(&ops_per_s[s]));
        for (tag, rep) in SCHEMES.iter().zip(traced) {
            let t = rep
                .trace
                .as_ref()
                .ok_or("a traced repetition left no trace")?;
            let (c, ops) = (&t.counters, rep.ops.max(1) as f64);
            let m = |name: &str, v: f64, unit| Metric::plain(format!("{tag}.{name}"), v, unit);
            per_layer.extend([
                m("hops_per_op", c.nodes_traversed() as f64 / ops, "count"),
                m("fences_per_op", c.fences() as f64 / ops, "count"),
                m("retires_per_op", c.retires() as f64 / ops, "count"),
                m("scans_per_kop", c.empties() as f64 * 1e3 / ops, "count"),
                m("scan_ns_per_free", c.scan_ns_per_free(), "ns"),
                m(
                    "scan_time_frac",
                    c.scan_nanos() as f64 / (t.span_ns as f64).max(1.0),
                    "ratio",
                ),
                m("pool_hit_rate", c.pool_hit_rate(), "ratio"),
                m("waste_avg_nodes", c.avg_retired_at_op_start(), "count"),
            ]);
            for (k, kind) in KINDS.iter().enumerate() {
                per_layer.push(m(
                    &format!("{kind}_p50_ns"),
                    t.kind_hists[k].quantile(0.5),
                    "ns",
                ));
            }
        }
        let mp = &traced[0];
        let c = &mp
            .trace
            .as_ref()
            .ok_or("MP's traced repetition left no trace")?
            .counters;
        let mp_ops = mp.ops.max(1) as f64;
        let announce_per_op = c.fences_announce() as f64 / mp_ops;
        per_layer.extend([
            Metric::plain("mp.fences_announce_per_op", announce_per_op, "count"),
            Metric::plain(
                "mp.fences_hp_protect_per_op",
                c.fences_hp_protect() as f64 / mp_ops,
                "count",
            ),
            Metric::plain(
                "mp.hp_fallback_rate",
                c.hp_fallback_reads() as f64 / c.nodes_traversed().max(1) as f64,
                "ratio",
            ),
            Metric::plain(
                "mp.collision_allocs_per_kop",
                c.collision_allocs() as f64 * 1e3 / mp_ops,
                "count",
            ),
        ]);

        // Reconcile the two halves: layer cost × layer count against the
        // measured mean time of one MP operation (one worker's view).
        let mean_ns = w as f64 * 1e9 / untraced[0];
        let attributed = c.nodes_traversed() as f64 / mp_ops * ledger("schemes.mp.read_hop_ns")
            + ledger("schemes.mp.op_bracket_ns")
            + announce_per_op
                * (ledger("schemes.mp.announce_ns") - ledger("schemes.mp.read_covered_ns"))
            + c.retires() as f64 / mp_ops * ledger("schemes.mp.alloc_retire_ns");
        per_layer.push(Metric::plain(
            "mp.attributed_frac",
            attributed / mean_ns,
            "ratio",
        ));
        per_layer.push(Metric::plain(
            "mp.residual_ns_per_op",
            mean_ns - attributed,
            "ns",
        ));
        per_layer.push(Metric::plain(
            "trace.overhead_frac",
            1.0 - traced.iter().map(|r| r.ops_per_s).sum::<f64>() / untraced.iter().sum::<f64>(),
            "ratio",
        ));
        write_spans(
            &opts
                .out
                .with_file_name(format!("trace-{}.jsonl", spec.name)),
            spec.name,
            traced,
        )
        .map_err(|e| format!("writing spans: {e}"))?;
        phase_done("spans");
    }

    let correct = failed == 0 && checks.iter().all(|c| c.ok);
    let repetitions = obj(SCHEMES.iter().enumerate().map(|(s, tag)| {
        let reps = measured[s].iter().map(|r| {
            obj([
                ("ops", Json::from(r.ops)),
                ("ops_per_s", Json::from(r.ops_per_s)),
                ("op_p50_ns", Json::from(r.latency.quantile(0.5))),
                ("op_p99_ns", Json::from(r.latency.quantile(0.99))),
                ("latency_samples", Json::from(r.latency.count())),
                ("waste_peak_bytes", Json::from(r.waste_peak_bytes)),
                ("drain_ms", Json::from(r.drain_ms)),
                (
                    "sched_wait_share",
                    r.wait_share.map_or(Json::Null, Json::Num),
                ),
            ])
        });
        (*tag, Json::Arr(reps.collect()))
    }));
    let metrics_json = |ms: &[Metric]| obj(ms.iter().map(|m| (m.name.clone(), m.to_json())));
    let record = obj([
        ("schema", Json::from("mp-benchmark/run/v1")),
        ("workload", Json::from(spec.name)),
        ("why", Json::from(spec.why)),
        ("seed", Json::from(opts.seed)),
        ("smoke", Json::from(opts.smoke)),
        ("traced", Json::from(opts.trace)),
        ("prefill", Json::from(spec.prefill)),
        ("setups", Json::from(plan.setups as u64)),
        ("repetitions_per_scheme", Json::from(plan.reps as u64)),
        ("repetition_seconds", Json::from(plan.rep_s)),
        ("warmup_seconds", Json::from(plan.warmup_s)),
        ("fingerprint", fingerprint()),
        (
            "phase_seconds",
            obj(phases.into_iter().map(|(n, t)| (n, Json::from(t)))),
        ),
        ("correct", Json::from(correct)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        (
            "checks",
            Json::Arr(
                checks
                    .iter()
                    .map(|c| {
                        obj([
                            ("name", Json::from(c.name.as_str())),
                            ("ok", Json::from(c.ok)),
                            ("detail", Json::from(c.detail.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("end_to_end", metrics_json(&end_to_end)),
        ("per_layer", metrics_json(&per_layer)),
        (
            "ledger_notes",
            obj(ledger_notes.into_iter().map(|(k, v)| (k, Json::from(v)))),
        ),
        ("measured", repetitions),
    ]);
    for c in checks.iter().filter(|c| !c.ok) {
        println!("!! CHECK FAILED {} {}: {}", spec.name, c.name, c.detail);
    }
    Ok(Report {
        workload: spec.name,
        end_to_end,
        per_layer,
        attempted,
        failed,
        correct,
        record,
    })
}

/// Writes the traced repetition's raw spans, one JSON object per line. The
/// repetition id (`rep`) is the identifier every span of a repetition shares;
/// child spans (`register`, `force_empty`, `drop_handle`) carry the worker
/// they belong to.
fn write_spans(path: &Path, workload: &str, traced: &[RepOut; 3]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (tag, rep) in SCHEMES.iter().zip(traced) {
        let Some(trace) = rep.trace.as_ref() else {
            continue;
        };
        for (worker, spans) in trace.spans.iter().enumerate() {
            for span in spans {
                let kind = span.kind as usize;
                let name = KINDS
                    .get(kind)
                    .unwrap_or_else(|| &CHILD_KINDS[kind - KINDS.len()]);
                writeln!(
                    out,
                    "{{\"rep\":\"{workload}/{tag}\",\"worker\":{worker},\"name\":\"{name}\",\
                     \"ok\":{},\"start_ns\":{},\"end_ns\":{}}}",
                    span.ok, span.start_ns, span.end_ns
                )?;
            }
        }
    }
    out.flush()
}

impl Report {
    /// Prints every metric as `name workload value unit`; ledger rows carry
    /// the workload name `layers`.
    pub fn print(&self) {
        let ledger: Vec<String> = layers::row_names();
        for m in self.end_to_end.iter().chain(&self.per_layer) {
            let workload = if ledger.contains(&m.name) {
                "layers"
            } else {
                self.workload
            };
            println!("{} {} {} {}", m.name, workload, m.value, m.unit);
        }
        println!("ops_attempted {} {} count", self.workload, self.attempted);
        println!("ops_failed {} {} count", self.workload, self.failed);
    }

    /// The driver's result line: the traced run reports the per-layer
    /// metrics, the untraced run the end-to-end ones.
    pub fn result_line(&self, trace: bool) -> String {
        let metrics = if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        obj([
            ("correct", Json::from(self.correct)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            (
                "metrics",
                obj(metrics.iter().map(|m| {
                    (
                        m.name.clone(),
                        obj([("value", Json::from(m.value)), ("unit", Json::from(m.unit))]),
                    )
                })),
            ),
        ])
        .render()
    }

    pub fn write_record(&self, path: &Path) -> Result<(), String> {
        std::fs::write(path, self.record.render() + "\n")
            .map_err(|e| format!("writing {}: {e}", path.display()))
    }
}
