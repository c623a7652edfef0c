//! Oversubscribed Zipfian soak — the scan-path scalability witness.
//!
//! Runs each scheme of the §6 comparison set (MP, IBR, HE, HP, EBR) on
//! the hash map under deliberately hostile conditions: worker threads at
//! a multiple of the host's cores, Zipfian(0.99) key popularity, and
//! periodic handle churn under load ([`BenchParams::soak`]). Optionally
//! adds stalled readers, turning the run into the §1 survival scenario
//! with peak waste and peak RSS reported per scheme. Schemes are selected
//! at runtime through the `AnySmr` facade, so the whole sweep is one
//! monomorphization.
//!
//! Knobs: `MP_BENCH_DURATION_MS` (per scheme; a real soak wants 20 000),
//! `MP_BENCH_PREFILL`, `MP_SOAK_OVERSUB` (threads = oversub × cores,
//! default 4), `MP_SOAK_CHURN` (ops between handle re-registrations),
//! `MP_SOAK_STALLED` (stalled readers, default 0).

use mp_bench::{run_kind, BenchParams, Table};
use mp_ds::HashMap;
use mp_smr::AnySmr;

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn main() {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let oversub = env_u64("MP_SOAK_OVERSUB", 4) as usize;
    let threads = (cores * oversub).max(2);

    // 2 048 keys at CI scale.
    let mut p = BenchParams::soak(threads, mp_bench::prefill_size(51_200))
        .with_stalled(env_u64("MP_SOAK_STALLED", 0) as usize);
    p.churn_every = env_u64("MP_SOAK_CHURN", p.churn_every);

    eprintln!(
        "[soak] {} workers on {} core(s) ({}x oversubscribed), {} ms per scheme, \
         {:?} keys, prefill {}, churn every {} ops, {} stalled reader(s)",
        threads,
        cores,
        oversub,
        p.duration.as_millis(),
        p.dist,
        p.prefill,
        p.churn_every,
        p.stalled
    );

    let mut table = Table::new(
        &format!("Oversubscribed soak (hashmap, {threads} workers, {} stalled)", p.stalled),
        &[
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
    for kind in mp_bench::COMPARISON_SET {
        eprintln!("[soak] {} ...", kind.name());
        let r = run_kind::<HashMap<AnySmr>>(kind, &p);
        table.row(vec![
            kind.name().to_string(),
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
    table.emit("soak");
}
