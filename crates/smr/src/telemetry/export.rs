//! Telemetry exporters: Prometheus text exposition and JSON.
//!
//! Both renderers take a merged [`TelemetrySnapshot`] plus the scheme's
//! waste time-series and produce a self-contained string; no I/O happens
//! unless the caller asks for it via [`write_artifacts`], which writes
//! `telemetry_<scheme>.prom` / `.json` into the same output directory the
//! bench reports use (`MP_BENCH_DIR`, default `target/bench-results`).
//!
//! The module also ships the validators the CI smoke stage runs
//! ([`validate_prometheus`], [`validate_json`]) so output-format checks
//! stay hermetic — no Python or external promtool needed.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use mp_util::hist::{bucket_bound, Histogram};

use super::{Counter, TelemetrySnapshot, WasteSample};

/// Output directory for exporter artifacts: `MP_BENCH_DIR` if set (the
/// bench-report convention), else `target/bench-results`.
pub fn out_dir() -> PathBuf {
    match std::env::var_os("MP_BENCH_DIR") {
        Some(d) if !d.is_empty() => PathBuf::from(d),
        _ => PathBuf::from("target").join("bench-results"),
    }
}

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
/// `mp_<counter>_total` counter per [`Counter`], both latency histograms
/// with cumulative power-of-two buckets, the waste gauges (latest sample
/// of the series), and the process-wide node-pool gauges (`mp_pool_*`, no
/// `scheme` label: every scheme shares the one pool).
pub fn prometheus_text(scheme: &str, snap: &TelemetrySnapshot, waste: &[WasteSample]) -> String {
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
        "Whole-operation latency in nanoseconds (armed runs only).",
        snap.op_latency(),
    );
    push_histogram(
        &mut out,
        &format!("{p}_scan_latency_nanos"),
        scheme,
        "empty() reclamation-scan latency in nanoseconds (armed runs only).",
        snap.scan_latency(),
    );
    if let Some(last) = waste.last() {
        for (gauge, v) in [
            ("wasted_nodes", last.pending_nodes),
            ("wasted_bytes", last.pending_bytes),
        ] {
            let name = format!("{p}_{gauge}");
            let _ = writeln!(out, "# HELP {name} Retired-but-unreclaimed memory (latest sample).");
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name}{{scheme=\"{scheme}\"}} {v}");
        }
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

fn json_hist(out: &mut String, h: &Histogram) {
    let _ = write!(out, "{{\"count\": {}, \"sum_nanos\": {}, \"buckets\": [", h.count(), h.sum());
    let mut first = true;
    for (i, &c) in h.buckets().iter().enumerate() {
        if c == 0 {
            continue;
        }
        if !first {
            out.push_str(", ");
        }
        first = false;
        let _ = write!(out, "{{\"le\": {}, \"count\": {c}}}", bucket_bound(i));
    }
    out.push_str("]}");
}

/// Renders the snapshot as a self-contained JSON document (schema
/// `mp-telemetry/v3`): counters, derived ratios, both histograms (sparse
/// buckets), the waste time-series, and a `pool` object (the process-wide
/// node pool's [`mp_util::pool::stats`]).
pub fn json(scheme: &str, snap: &TelemetrySnapshot, waste: &[WasteSample]) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\n  \"schema\": \"mp-telemetry/v3\",\n");
    let _ = writeln!(out, "  \"scheme\": \"{scheme}\",");
    out.push_str("  \"counters\": {");
    for (i, c) in Counter::ALL.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\": {}", c.name(), snap.counter(*c));
    }
    out.push_str("},\n  \"derived\": {");
    let _ = write!(
        out,
        "\"fences_per_node\": {:.6}, \"avg_retired_at_op_start\": {:.6}, \
         \"pool_hit_rate\": {:.6}, \"allocs_per_op\": {:.6}",
        snap.fences_per_node(),
        snap.avg_retired_at_op_start(),
        snap.pool_hit_rate(),
        snap.allocs_per_op()
    );
    out.push_str("},\n  \"op_latency\": ");
    json_hist(&mut out, snap.op_latency());
    out.push_str(",\n  \"scan_latency\": ");
    json_hist(&mut out, snap.scan_latency());
    let pool = mp_util::pool::stats();
    let _ = write!(
        out,
        ",\n  \"pool\": {{\"regions\": {}, \"reserved_bytes\": {}, \"chunks_in_use\": {}, \
         \"blank_chunks\": {}, \"free_blocks\": {}, \"live_blocks\": {}}}",
        pool.regions,
        pool.reserved_bytes,
        pool.chunks_in_use,
        pool.blank_chunks,
        pool.free_blocks,
        pool.live_blocks
    );
    out.push_str(",\n  \"waste\": [");
    for (i, s) in waste.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{{\"t_micros\": {}, \"nodes\": {}, \"bytes\": {}}}",
            s.t_micros, s.pending_nodes, s.pending_bytes
        );
    }
    out.push_str("]\n}\n");
    out
}

/// Writes both exposition formats into [`out_dir`] as
/// `telemetry_<scheme>.prom` and `telemetry_<scheme>.json` (scheme name
/// lowercased); returns the two paths.
pub fn write_artifacts(
    scheme: &str,
    snap: &TelemetrySnapshot,
    waste: &[WasteSample],
) -> std::io::Result<(PathBuf, PathBuf)> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let stem = scheme.to_lowercase().replace([' ', '/'], "_");
    let prom_path = dir.join(format!("telemetry_{stem}.prom"));
    let json_path = dir.join(format!("telemetry_{stem}.json"));
    std::fs::write(&prom_path, prometheus_text(scheme, snap, waste))?;
    std::fs::write(&json_path, json(scheme, snap, waste))?;
    Ok((prom_path, json_path))
}

/// Convenience for scripts: validates files produced by
/// [`write_artifacts`]. Returns the number of Prometheus samples parsed.
pub fn validate_artifact_files(prom: &Path, json_file: &Path) -> Result<usize, String> {
    let prom_text = std::fs::read_to_string(prom).map_err(|e| format!("{}: {e}", prom.display()))?;
    let json_text =
        std::fs::read_to_string(json_file).map_err(|e| format!("{}: {e}", json_file.display()))?;
    let samples = validate_prometheus(&prom_text)?;
    validate_json(&json_text)?;
    Ok(samples)
}

// ---------------------------------------------------------------------------
// Validators (used by CI's telemetry smoke stage and the test suite)

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

/// A minimal recursive-descent JSON syntax checker (values are not
/// retained). Accepts exactly the RFC 8259 grammar; enough to prove the
/// exporter emits well-formed JSON without an external parser.
pub fn validate_json(text: &str) -> Result<(), String> {
    let b = text.as_bytes();
    let mut pos = 0usize;
    skip_ws(b, &mut pos);
    parse_value(b, &mut pos)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<(), String> {
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(());
            }
            loop {
                skip_ws(b, pos);
                parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                skip_ws(b, pos);
                parse_value(b, pos)?;
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(());
            }
            loop {
                skip_ws(b, pos);
                parse_value(b, pos)?;
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}")),
                }
            }
        }
        Some(b'"') => parse_string(b, pos),
        Some(b't') => expect_lit(b, pos, b"true"),
        Some(b'f') => expect_lit(b, pos, b"false"),
        Some(b'n') => expect_lit(b, pos, b"null"),
        Some(_) => parse_number(b, pos),
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if b.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {pos}", c as char))
    }
}

fn expect_lit(b: &[u8], pos: &mut usize, lit: &[u8]) -> Result<(), String> {
    if b.len() >= *pos + lit.len() && &b[*pos..*pos + lit.len()] == lit {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    expect(b, pos, b'"')?;
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => return Ok(()),
            b'\\' => {
                match b.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        *pos += 1;
                        for _ in 0..4 {
                            if !b.get(*pos).is_some_and(u8::is_ascii_hexdigit) {
                                return Err(format!("bad \\u escape at byte {pos}"));
                            }
                            *pos += 1;
                        }
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
            }
            0x00..=0x1f => return Err(format!("raw control char in string at byte {pos}")),
            _ => {}
        }
    }
    Err("unterminated string".into())
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let int_start = *pos;
    while b.get(*pos).is_some_and(u8::is_ascii_digit) {
        *pos += 1;
    }
    if *pos == int_start {
        return Err(format!("expected a value at byte {start}"));
    }
    // No leading zeros: "0" alone is fine, "01" is not.
    if b[int_start] == b'0' && *pos - int_start > 1 {
        return Err(format!("leading zero at byte {int_start}"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        let frac_start = *pos;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        if *pos == frac_start {
            return Err(format!("bad fraction at byte {pos}"));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        let exp_start = *pos;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        if *pos == exp_start {
            return Err(format!("bad exponent at byte {pos}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::{FenceSite, HandleTelemetry};
    use super::*;

    fn sample_snapshot() -> TelemetrySnapshot {
        let mut t = HandleTelemetry::new();
        t.record_op_start(3);
        t.record_fence(FenceSite::StartOp);
        for c in [Counter::Allocs, Counter::PoolHits, Counter::Retires, Counter::Frees] {
            t.bump(c);
        }
        t.record_op_nanos(1_234);
        t.record_op_nanos(999_999);
        t.add(Counter::ScanNanos, 50_000);
        t.snapshot()
    }

    fn sample_waste() -> Vec<WasteSample> {
        vec![
            WasteSample { t_micros: 10, pending_nodes: 4, pending_bytes: 256 },
            WasteSample { t_micros: 20, pending_nodes: 2, pending_bytes: 128 },
        ]
    }

    #[test]
    fn prometheus_output_is_valid_and_complete() {
        let text = prometheus_text("MP", &sample_snapshot(), &sample_waste());
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
        assert!(text.contains("mp_wasted_nodes{scheme=\"MP\"} 2"), "latest waste sample");
    }

    /// Driven by the counter table: both formats carry every counter
    /// exactly once, in `Counter::ALL` order.
    #[test]
    fn both_formats_export_every_counter_once_in_table_order() {
        let snap = sample_snapshot();
        let prom = prometheus_text("MP", &snap, &[]);
        let doc = json("MP", &snap, &[]);
        assert!(doc.starts_with("{\n  \"schema\": \"mp-telemetry/v3\",\n"));
        let (mut prom_at, mut json_at) = (0, 0);
        for c in Counter::ALL {
            let sample = format!("\nmp_{}_total{{scheme=\"MP\"}} {}\n", c.name(), snap.counter(c));
            let key = format!("\"{}\": {}", c.name(), snap.counter(c));
            for (text, needle, at) in [(&prom, &sample, &mut prom_at), (&doc, &key, &mut json_at)] {
                assert_eq!(text.matches(needle.as_str()).count(), 1, "{needle:?} not exactly once");
                let pos = text.find(needle.as_str()).unwrap();
                assert!(pos >= *at, "{} out of table order", c.name());
                *at = pos;
            }
        }
    }

    #[test]
    fn json_output_is_valid_and_complete() {
        let doc = json("MP", &sample_snapshot(), &sample_waste());
        validate_json(&doc).expect("must be well-formed JSON");
        assert!(doc.contains("\"schema\": \"mp-telemetry/v3\""));
        assert!(doc.contains("\"scheme\": \"MP\""));
        assert!(doc.contains("\"ops\": 1"));
        assert!(doc.contains("\"t_micros\": 20"));
        // Histogram buckets are cumulative-free sparse counts.
        assert!(doc.contains("\"op_latency\": {\"count\": 2"));
        assert!(doc.contains("\"pool\": {\"regions\": "));
        assert!(doc.contains("\"blank_chunks\": "));
    }

    #[test]
    fn empty_snapshot_still_exports_cleanly() {
        let snap = TelemetrySnapshot::default();
        let text = prometheus_text("HE", &snap, &[]);
        assert!(validate_prometheus(&text).unwrap() >= Counter::ALL.len());
        validate_json(&json("HE", &snap, &[])).unwrap();
    }

    #[test]
    fn validators_reject_malformed_input() {
        assert!(validate_prometheus("").is_err());
        assert!(validate_prometheus("1bad_name 3\n").is_err());
        assert!(validate_prometheus("m{scheme=\"x\" 3\n").is_err(), "unbalanced braces");
        assert!(validate_prometheus("m{scheme=x} 3\n").is_err(), "unquoted label");
        assert!(validate_prometheus("m{scheme=\"x\"} notanumber\n").is_err());
        assert!(validate_json("{").is_err());
        assert!(validate_json("{\"a\": 01}").is_err(), "leading zero");
        assert!(validate_json("{\"a\": 1,}").is_err(), "trailing comma");
        assert!(validate_json("[1, 2] x").is_err(), "trailing garbage");
        assert!(validate_json("{\"a\": [1, {\"b\": -2.5e3}], \"c\": null}").is_ok());
    }

    #[test]
    fn artifacts_written_under_out_dir() {
        let dir = std::env::temp_dir().join(format!("mp-telemetry-test-{}", std::process::id()));
        // Scoped env override: tests in this binary run in threads, so set
        // and restore carefully around the call.
        let prev = std::env::var_os("MP_BENCH_DIR");
        std::env::set_var("MP_BENCH_DIR", &dir);
        let result = write_artifacts("MP", &sample_snapshot(), &sample_waste());
        match prev {
            Some(v) => std::env::set_var("MP_BENCH_DIR", v),
            None => std::env::remove_var("MP_BENCH_DIR"),
        }
        let (prom, json_path) = result.expect("write");
        assert!(prom.starts_with(&dir) && prom.ends_with("telemetry_mp.prom"));
        let n = validate_artifact_files(&prom, &json_path).expect("validate");
        assert!(n > 15);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
