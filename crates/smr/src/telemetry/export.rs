//! The one exposition: Prometheus text format.
//!
//! [`prometheus_text`] renders a merged [`TelemetrySnapshot`] together
//! with the scheme's live [`SchemeTelemetry`] gauges as a self-contained
//! string; writing it anywhere is the caller's business.
//! [`validate_prometheus`] checks the syntax hermetically — no external
//! promtool needed.

use std::fmt::Write as _;

use mp_util::hist::{bucket_bound, Histogram};

use super::{Counter, SchemeTelemetry, TelemetrySnapshot};

const METRIC_PREFIX: &str = "mp";

fn push_histogram(
    out: &mut String,
    name: &str,
    scheme: &str,
    unit_help: &str,
    h: &Histogram,
) {
    let _ = writeln!(out, "# HELP {name} {unit_help}");
    let _ = writeln!(out, "# TYPE {name} histogram");
    let mut cum = 0u64;
    for (i, &c) in h.buckets().iter().enumerate() {
        if c == 0 {
            continue;
        }
        cum = cum.saturating_add(c);
        let _ = writeln!(
            out,
            "{name}_bucket{{scheme=\"{scheme}\",le=\"{}\"}} {cum}",
            bucket_bound(i)
        );
    }
    let _ = writeln!(out, "{name}_bucket{{scheme=\"{scheme}\",le=\"+Inf\"}} {}", h.count());
    let _ = writeln!(out, "{name}_sum{{scheme=\"{scheme}\"}} {}", h.sum());
    let _ = writeln!(out, "{name}_count{{scheme=\"{scheme}\"}} {}", h.count());
}

/// Renders the snapshot in Prometheus text exposition format: one
/// `mp_<counter>_total` counter per [`Counter`] (no total that is a sum of
/// them: `fences` is the four `mp_fences_*_total`, `allocs` is
/// `mp_pool_hits_total + mp_pool_misses_total`), both latency histograms
/// with cumulative power-of-two buckets, the scheme's waste gauges as they
/// read now, and the process-wide node-pool gauges (`mp_pool_*`, no
/// `scheme` label: every scheme shares the one pool).
pub fn prometheus_text(scheme: &str, snap: &TelemetrySnapshot, waste: &SchemeTelemetry) -> String {
    let p = METRIC_PREFIX;
    let mut out = String::with_capacity(4096);
    for c in Counter::ALL {
        let name = format!("{p}_{}_total", c.name());
        let _ = writeln!(out, "# HELP {name} SMR per-handle counter `{}`.", c.name());
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name}{{scheme=\"{scheme}\"}} {}", snap.counter(c));
    }
    push_histogram(
        &mut out,
        &format!("{p}_op_latency_nanos"),
        scheme,
        "Latency of pin()-guarded operations in nanoseconds (armed runs only).",
        snap.op_latency(),
    );
    push_histogram(
        &mut out,
        &format!("{p}_scan_latency_nanos"),
        scheme,
        "empty() reclamation-scan latency in nanoseconds (armed runs only).",
        snap.scan_latency(),
    );
    for (gauge, v) in [("wasted_nodes", waste.pending()), ("wasted_bytes", waste.pending_bytes())] {
        let name = format!("{p}_{gauge}");
        let _ = writeln!(out, "# HELP {name} Retired-but-unreclaimed memory, read at render time.");
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name}{{scheme=\"{scheme}\"}} {v}");
    }
    let pool = mp_util::pool::stats();
    for (gauge, help, v) in [
        ("reserved_bytes", "Bytes reserved from the system allocator", pool.reserved_bytes),
        ("blank_chunks", "Chunks with no block out, ready for any size class", pool.blank_chunks),
        ("free_blocks", "Blocks sitting in chunk free lists", pool.free_blocks),
    ] {
        let name = format!("{p}_pool_{gauge}");
        let _ = writeln!(out, "# HELP {name} Node pool, process-wide: {help}.");
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {v}");
    }
    out
}

// ---------------------------------------------------------------------------
// Validator

/// Checks Prometheus text exposition syntax: every non-comment, non-blank
/// line must be `name{labels} value` (or `name value`) with a parseable
/// float value and balanced, quoted labels. Returns the sample count.
pub fn validate_prometheus(text: &str) -> Result<usize, String> {
    let mut samples = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |what: &str| format!("line {}: {what}: {line:?}", lineno + 1);
        let (name_labels, value) =
            line.rsplit_once(' ').ok_or_else(|| err("expected `name value`"))?;
        if value.parse::<f64>().is_err() && value != "+Inf" && value != "-Inf" && value != "NaN" {
            return Err(err("unparseable sample value"));
        }
        let name_part = match name_labels.split_once('{') {
            None => name_labels,
            Some((name, rest)) => {
                let labels =
                    rest.strip_suffix('}').ok_or_else(|| err("unbalanced label braces"))?;
                for pair in labels.split(',') {
                    let (k, v) =
                        pair.split_once('=').ok_or_else(|| err("label missing `=`"))?;
                    if k.is_empty()
                        || !v.starts_with('"')
                        || !v.ends_with('"')
                        || v.len() < 2
                    {
                        return Err(err("label value must be quoted"));
                    }
                }
                name
            }
        };
        if name_part.is_empty()
            || !name_part
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
            || name_part.starts_with(|c: char| c.is_ascii_digit())
        {
            return Err(err("invalid metric name"));
        }
        samples += 1;
    }
    if samples == 0 {
        return Err("no samples in exposition".into());
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::super::FenceSite;
    use super::*;

    fn sample_snapshot() -> TelemetrySnapshot {
        let mut t = TelemetrySnapshot::default();
        t.record_op_start(3);
        t.record_fence(FenceSite::StartOp);
        for c in [Counter::PoolHits, Counter::Retires, Counter::Frees] {
            t.bump(c);
        }
        t.record_op_nanos(1_234);
        t.record_op_nanos(999_999);
        t.add(Counter::ScanNanos, 50_000);
        t
    }

    /// Four nodes retired, two freed: the gauges read (2, 128).
    fn live_waste() -> SchemeTelemetry {
        let w = SchemeTelemetry::default();
        w.add(4, 256);
        w.sub(2, 128);
        w
    }

    #[test]
    fn prometheus_output_is_valid_and_complete() {
        let text = prometheus_text("MP", &sample_snapshot(), &live_waste());
        let samples = validate_prometheus(&text).expect("must validate");
        // Every counter + 2 histograms (≥3 lines each) + 2 waste gauges +
        // 3 pool gauges.
        assert!(samples >= Counter::ALL.len() + 6 + 2 + 3, "got {samples} samples:\n{text}");
        for gauge in ["mp_pool_reserved_bytes", "mp_pool_blank_chunks", "mp_pool_free_blocks"] {
            assert!(text.contains(&format!("# TYPE {gauge} gauge\n{gauge} ")), "{gauge} missing");
        }
        assert!(text.contains("# TYPE mp_ops_total counter"));
        assert!(text.contains("mp_ops_total{scheme=\"MP\"} 1"));
        assert!(text.contains("# TYPE mp_op_latency_nanos histogram"));
        assert!(text.contains("mp_op_latency_nanos_count{scheme=\"MP\"} 2"));
        assert!(text.contains("le=\"+Inf\"} 2"));
        assert!(text.contains("mp_wasted_nodes{scheme=\"MP\"} 2\n"), "live gauge");
        assert!(text.contains("mp_wasted_bytes{scheme=\"MP\"} 128\n"), "live gauge");
    }

    /// Driven by the counter table: every counter exported exactly once,
    /// in `Counter::ALL` order.
    #[test]
    fn every_counter_exported_once_in_table_order() {
        let snap = sample_snapshot();
        let prom = prometheus_text("MP", &snap, &SchemeTelemetry::default());
        let mut at = 0;
        for c in Counter::ALL {
            let sample = format!("\nmp_{}_total{{scheme=\"MP\"}} {}\n", c.name(), snap.counter(c));
            assert_eq!(prom.matches(sample.as_str()).count(), 1, "{sample:?} not exactly once");
            let pos = prom.find(sample.as_str()).unwrap();
            assert!(pos >= at, "{} out of table order", c.name());
            at = pos;
        }
    }

    #[test]
    fn empty_snapshot_still_exports_cleanly() {
        let empty = TelemetrySnapshot::default();
        let text = prometheus_text("HE", &empty, &SchemeTelemetry::default());
        assert!(validate_prometheus(&text).unwrap() >= Counter::ALL.len());
        assert!(text.contains("mp_wasted_nodes{scheme=\"HE\"} 0\n"));
    }

    #[test]
    fn validator_rejects_malformed_input() {
        assert!(validate_prometheus("").is_err());
        assert!(validate_prometheus("1bad_name 3\n").is_err());
        assert!(validate_prometheus("m{scheme=\"x\" 3\n").is_err(), "unbalanced braces");
        assert!(validate_prometheus("m{scheme=x} 3\n").is_err(), "unquoted label");
        assert!(validate_prometheus("m{scheme=\"x\"} notanumber\n").is_err());
    }
}
