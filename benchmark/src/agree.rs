//! `agree A.json B.json`: do two result files of the same commit agree?
//! Every end-to-end metric on every workload is compared against the bound
//! `BENCHMARK.json` fixes for it; per-layer metrics are listed for the
//! reader and carry no verdict.

use crate::json::Json;

struct Bound {
    name: String,
    bound: f64,
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn names(manifest: &Json, key: &str) -> Result<Vec<String>, String> {
    manifest
        .get(key)
        .and_then(Json::as_arr)
        .ok_or(format!("BENCHMARK.json has no `{key}` list"))?
        .iter()
        .map(|e| {
            e.get("name")
                .and_then(Json::as_str)
                .map(String::from)
                .ok_or(format!("BENCHMARK.json: `{key}` entry without a name"))
        })
        .collect()
}

fn metric<'a>(file: &'a Json, workload: &str, section: &str, name: &str) -> Option<&'a Json> {
    file.get("workloads")?
        .get(workload)?
        .get(section)?
        .get(name)
}

/// How far apart two readings are, as a share of the smaller magnitude: the
/// same answer whichever file is called the parent.
pub fn relative_gap(a: f64, b: f64) -> f64 {
    let base = a.abs().min(b.abs());
    if a == b {
        0.0
    } else if base == 0.0 {
        f64::INFINITY
    } else {
        (a - b).abs() / base
    }
}

fn quartiles(m: &Json) -> String {
    match (
        m.get("q1").and_then(Json::as_f64),
        m.get("q3").and_then(Json::as_f64),
    ) {
        (Some(q1), Some(q3)) => format!("[{q1:.4e} .. {q3:.4e}]"),
        _ => "[single value]".into(),
    }
}

/// Compares the two files; `Ok(true)` when every end-to-end pair is within
/// its bound.
pub fn agree(manifest_path: &str, a_path: &str, b_path: &str) -> Result<bool, String> {
    let manifest = load(manifest_path)?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    let workloads = names(&manifest, "workloads")?;
    let bounds: Vec<Bound> = manifest
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no `end_to_end` list")?
        .iter()
        .map(|e| {
            Some(Bound {
                name: e.get("name")?.as_str()?.to_string(),
                bound: e.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<_>>()
        .ok_or("BENCHMARK.json: malformed `end_to_end` entry")?;
    let layer_names = names(&manifest, "per_layer")?;

    let mut all_within = true;
    println!("# metric workload A B gap bound quartiles(A) quartiles(B) verdict");
    for w in &workloads {
        for bound in &bounds {
            let pair = (
                metric(&a, w, "end_to_end", &bound.name),
                metric(&b, w, "end_to_end", &bound.name),
            );
            let (Some(ma), Some(mb)) = pair else {
                println!(
                    "{} {w} MISSING from {}",
                    bound.name,
                    if pair.0.is_none() { a_path } else { b_path }
                );
                all_within = false;
                continue;
            };
            let (Some(va), Some(vb)) = (
                ma.get("value").and_then(Json::as_f64),
                mb.get("value").and_then(Json::as_f64),
            ) else {
                println!("{} {w} has no numeric value", bound.name);
                all_within = false;
                continue;
            };
            let gap = relative_gap(va, vb);
            let within = gap <= bound.bound;
            all_within &= within;
            println!(
                "{} {w} {va:.6e} {vb:.6e} {:+.2}% bound {:.0}% {} {} {}",
                bound.name,
                gap * 100.0,
                bound.bound * 100.0,
                quartiles(ma),
                quartiles(mb),
                if within { "ok" } else { "OUTSIDE" }
            );
        }
    }
    println!("# per-layer metrics (no bound; for the reader)");
    let listed = |name: &str, w: &str, pair: (Option<f64>, Option<f64>)| {
        if let (Some(va), Some(vb)) = pair {
            println!(
                "{name} {w} {va:.6e} {vb:.6e} {:+.2}%",
                relative_gap(va, vb) * 100.0
            );
        }
    };
    for w in &workloads {
        for name in &layer_names {
            let value = |f| metric(f, w, "per_layer", name)?.get("value")?.as_f64();
            listed(name, w, (value(&a), value(&b)));
        }
    }
    // The ledger is measured once per file, not once per workload.
    for name in &layer_names {
        let row = |f: &Json| f.get("layers")?.get("rows")?.get(name)?.as_f64();
        listed(name, "layers", (row(&a), row(&b)));
    }
    Ok(all_within)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_is_symmetric_and_relative_to_the_smaller_reading() {
        assert_eq!(relative_gap(100.0, 110.0), relative_gap(110.0, 100.0));
        assert!((relative_gap(100.0, 110.0) - 0.10).abs() < 1e-12);
        assert_eq!(relative_gap(5.0, 5.0), 0.0);
        assert_eq!(relative_gap(0.0, 0.0), 0.0);
        assert_eq!(relative_gap(0.0, 1.0), f64::INFINITY);
    }

    #[test]
    fn agree_passes_within_bounds_and_fails_outside() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-agree-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, text: &str| {
            let p = dir.join(name);
            std::fs::write(&p, text).unwrap();
            p.to_str().unwrap().to_string()
        };
        let manifest = write(
            "BENCHMARK.json",
            r#"{"workloads": [{"name": "w", "why": "x"}],
                "end_to_end": [{"name": "m", "unit": "ns", "better": "lower", "bound": 0.1}],
                "per_layer": [{"name": "l", "unit": "ns", "better": "lower"}]}"#,
        );
        let file = |v: f64| {
            format!(
                r#"{{"workloads": {{"w": {{"end_to_end": {{"m": {{"value": {v}, "unit": "ns",
                    "q1": 1, "q3": 2}}}}, "per_layer": {{"l": {{"value": 3, "unit": "ns"}}}}}}}}}}"#
            )
        };
        let a = write("a.json", &file(100.0));
        let near = write("near.json", &file(108.0));
        let far = write("far.json", &file(120.0));
        let missing = write("missing.json", r#"{"workloads": {}}"#);
        assert_eq!(agree(&manifest, &a, &near), Ok(true));
        assert_eq!(agree(&manifest, &a, &far), Ok(false));
        assert_eq!(agree(&manifest, &a, &missing), Ok(false));
        assert!(agree(&manifest, &a, "/nonexistent.json").is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
