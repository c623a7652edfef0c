//! Oversubscribed Zipfian soak — the scan-path scalability witness.
//!
//! Runs each scheme of the §6 comparison set (MP, IBR, HE, HP, EBR) on
//! the hash map under deliberately hostile conditions: worker threads at
//! a multiple of the host's cores, Zipfian(0.99) key popularity, and
//! periodic handle churn under load. Optionally adds stalled readers and
//! a backpressure byte cap, turning the run into the §1 survival scenario
//! with engagement counts and peak RSS reported per scheme. Emits
//! `BENCH_soak.json` (schema `mp-bench/soak/v3`) under `$MP_BENCH_DIR`
//! (default `target/bench-results/`). Schemes are selected at runtime
//! through the `AnySmr` facade, so the whole sweep is one monomorphization.
//!
//! Knobs: `MP_SOAK_DURATION_MS` (per scheme), `MP_SOAK_OVERSUB`
//! (threads = oversub × cores, default 4), `MP_SOAK_PREFILL`,
//! `MP_SOAK_CHURN` (ops between handle re-registrations),
//! `MP_SOAK_DIST` (`zipf` | `hot` | `uniform`), `MP_SOAK_STALLED`
//! (stalled readers, default 0), `MP_SOAK_BP_BYTES` (backpressure hard
//! cap, default 0 = ladder off).

use std::fmt::Write as _;
use std::time::Duration;

use mp_bench::{json_path, json_str, run_soak_kind, KeyDist, SoakParams, SoakResult, Table};
use mp_ds::HashMap;
use mp_smr::{AnySmr, SchemeKind};

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// One soak row.
struct Row {
    scheme: &'static str,
    res: SoakResult,
}

impl Row {
    fn json(&self, p: &SoakParams, dist: &str) -> String {
        let r = &self.res;
        format!(
            "{{\"scheme\": {}, \"structure\": \"hashmap\", \"threads\": {}, \
             \"duration_ms\": {}, \"dist\": {}, \"total_ops\": {}, \"mops\": {:.4}, \
             \"p50_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}, \
             \"scan_ns_per_free\": {:.2}, \
             \"tid_recycles\": {}, \"handle_churns\": {}, \
             \"peak_pending_nodes\": {}, \"peak_pending_bytes\": {}, \
             \"end_pending_nodes\": {}, \"peak_rss_kb\": {}, \
             \"stalled_readers\": {}, \"bp_help_engagements\": {}, \
             \"bp_throttle_engagements\": {}, \"bp_releases\": {}, \
             \"retires\": {}, \"frees\": {}, \"frees_effective\": {}}}",
            json_str(self.scheme),
            p.threads,
            p.duration.as_millis(),
            json_str(dist),
            r.total_ops,
            r.mops,
            r.p50_ns,
            r.p99_ns,
            r.p999_ns,
            r.telemetry.scan_ns_per_free(),
            r.telemetry.tid_recycles(),
            r.handle_churns,
            r.peak_pending,
            r.peak_pending_bytes,
            r.end_pending,
            r.peak_rss_kb,
            p.stalled_readers,
            r.bp_help_engagements,
            r.bp_throttle_engagements,
            r.bp_releases,
            r.telemetry.retires(),
            r.telemetry.frees(),
            // Net reclamation: Drop-path drain scans free nodes after their
            // handle's telemetry was last readable, so compute frees from
            // the retire count minus the end-of-run pending residue.
            r.telemetry.retires().saturating_sub(r.end_pending as u64),
        )
    }
}

fn main() {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let oversub = env_u64("MP_SOAK_OVERSUB", 4) as usize;
    let threads = (cores * oversub).max(2);
    let duration = Duration::from_millis(env_u64("MP_SOAK_DURATION_MS", 20_000));
    let prefill = env_u64("MP_SOAK_PREFILL", 2_048) as usize;
    let churn = env_u64("MP_SOAK_CHURN", 20_000);
    let stalled = env_u64("MP_SOAK_STALLED", 0) as usize;
    let bp_bytes = env_u64("MP_SOAK_BP_BYTES", 0) as usize;
    let dist_name =
        std::env::var("MP_SOAK_DIST").unwrap_or_else(|_| "zipf".to_string());
    let dist = match dist_name.as_str() {
        "hot" => KeyDist::HotSet { hot_frac: 0.1, hot_prob: 0.9 },
        "uniform" => KeyDist::Uniform,
        _ => KeyDist::Zipfian(0.99),
    };

    let mut p = SoakParams::new(threads, prefill, duration).with_stalled_readers(stalled);
    p.dist = dist;
    p.churn_every = churn;
    p.config = p.config.with_backpressure_bytes(bp_bytes);

    eprintln!(
        "[soak] {} workers on {} core(s) ({}x oversubscribed), {} ms per scheme, \
         dist {}, prefill {}, churn every {} ops, {} stalled reader(s), \
         backpressure cap {} bytes",
        threads,
        cores,
        oversub,
        duration.as_millis(),
        dist_name,
        prefill,
        churn,
        stalled,
        bp_bytes
    );

    // The §6 comparison set, runtime-selected through the facade. DTA is
    // list-specific (degenerates to EBR without its freezer) and skipped.
    let kinds =
        [SchemeKind::Mp, SchemeKind::Ibr, SchemeKind::He, SchemeKind::Hp, SchemeKind::Ebr];
    let mut rows: Vec<Row> = Vec::new();
    for kind in kinds {
        eprintln!("[soak] {} ...", kind.name());
        let res = run_soak_kind::<HashMap<AnySmr>>(kind, &p);
        rows.push(Row { scheme: kind.name(), res });
    }

    let mut table = Table::new(
        "Oversubscribed soak (hashmap, skewed keys, handle churn)",
        &[
            "scheme",
            "Mops/s",
            "p50 us",
            "p99 us",
            "p999 us",
            "scan ns/free",
            "tid-recycle",
            "peak-pending",
            "end-pending",
            "peak-rss MiB",
            "bp-eng",
        ],
    );
    for row in &rows {
        let r = &row.res;
        table.row(vec![
            row.scheme.to_string(),
            format!("{:.3}", r.mops),
            format!("{:.1}", r.p50_ns as f64 / 1e3),
            format!("{:.1}", r.p99_ns as f64 / 1e3),
            format!("{:.1}", r.p999_ns as f64 / 1e3),
            format!("{:.1}", r.telemetry.scan_ns_per_free()),
            r.telemetry.tid_recycles().to_string(),
            r.peak_pending.to_string(),
            r.end_pending.to_string(),
            format!("{:.1}", r.peak_rss_kb as f64 / 1024.0),
            (r.bp_help_engagements + r.bp_throttle_engagements).to_string(),
        ]);
    }
    table.emit("soak");

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"schema\": \"mp-bench/soak/v3\",");
    let _ = writeln!(
        json,
        "  \"config\": {{\"cores\": {}, \"oversub\": {}, \"threads\": {}, \
         \"duration_ms\": {}, \"prefill\": {}, \"churn_every\": {}, \"dist\": {}, \
         \"stalled_readers\": {}, \"bp_cap_bytes\": {}}},",
        cores,
        oversub,
        threads,
        duration.as_millis(),
        prefill,
        churn,
        json_str(&dist_name),
        stalled,
        bp_bytes
    );
    let _ = write!(json, "  \"results\": [");
    for (i, row) in rows.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(json, "{sep}\n    {}", row.json(&p, &dist_name));
    }
    let _ = writeln!(json, "\n  ]\n}}");

    let path = json_path("BENCH_soak");
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&path, json).expect("write BENCH_soak.json");
    eprintln!("[json] {}", path.display());
}
