//! The repo's benchmark. See `benchmark/README.md` for what is measured and
//! why; `benchmark/run.sh` is the one command that builds and runs it.
//!
//! ```text
//! benchmark run --workload <name> [--seed n] [--seconds t] [--trace 0|1] [--smoke] [--out file] [--ledger file]
//! benchmark all [--seed n] [--seconds t] [--smoke] [--out file]
//! benchmark layers [--seed n] [--smoke]
//! benchmark agree A.json B.json
//! ```

mod agree;
mod fingerprint;
mod json;
mod layers;
mod loghist;
mod prng;
mod run;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use json::{obj, Json};
use run::{RunOpts, DEFAULT_SECONDS, DEFAULT_SEED};

const OUT_DIR: &str = "benchmark/out";

/// Flags shared by the measuring subcommands.
struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
    /// A ledger `all` has already measured, for `run` to read.
    ledger: Option<PathBuf>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        out: None,
        ledger: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            f.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => f.workload = Some(value.clone()),
            "--seed" => f.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                f.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(f.seconds > 0.0 && f.seconds <= 3600.0) {
                    return Err(bad("between 0 and 3600 seconds"));
                }
            }
            "--trace" => {
                f.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => f.out = Some(PathBuf::from(value)),
            "--ledger" => f.ledger = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(f)
}

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let f = parse_flags(args)?;
    let name = f.workload.ok_or("run needs --workload <name>")?;
    let spec = workload::spec(&name).ok_or_else(|| {
        let known: Vec<&str> = workload::SPECS.iter().map(|s| s.name).collect();
        format!("unknown workload {name:?} (known: {})", known.join(", "))
    })?;
    let out = f.out.unwrap_or_else(|| {
        PathBuf::from(OUT_DIR).join(format!("run-{name}-trace{}.json", f.trace as u8))
    });
    let ledger = f.ledger.map(|path| read_ledger(&path)).transpose()?;
    let opts = RunOpts {
        spec,
        seed: f.seed,
        seconds: f.seconds,
        trace: f.trace,
        smoke: f.smoke,
        ledger,
        out,
    };
    let report = run::run(&opts)?;
    report.write_record(&opts.out)?;
    report.print();
    println!("{}", report.result_line(f.trace));
    Ok(report.correct)
}

fn ledger_json(rows: &[layers::Row], notes: &layers::Notes) -> Json {
    let values =
        |pairs: Vec<(String, f64)>| obj(pairs.into_iter().map(|(k, v)| (k, Json::from(v))));
    obj([
        (
            "rows",
            values(rows.iter().map(|r| (r.name.clone(), r.ns)).collect()),
        ),
        ("notes", values(notes.clone())),
    ])
}

fn read_ledger(path: &std::path::Path) -> Result<Vec<layers::Row>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let file = Json::parse(&text)?;
    layers::row_names()
        .into_iter()
        .map(|name| {
            let ns = file
                .get("rows")
                .and_then(|r| r.get(&name))
                .and_then(Json::as_f64);
            let ns = ns.ok_or(format!("{}: no ledger row {name}", path.display()))?;
            Ok(layers::Row { name, ns })
        })
        .collect()
}

/// The layer ledger once, then every workload, each in a process of its own
/// so that one workload's resident set does not show up in the next one's
/// `rss_peak_kb`.
fn cmd_all(args: &[String]) -> Result<bool, String> {
    let f = parse_flags(args)?;
    if f.workload.is_some() {
        return Err("all takes no --workload; use run".into());
    }
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    let (rows, notes) = layers::run(&layers::LedgerCfg::new(f.seed, f.smoke))?;
    print_ledger(&rows, &notes);
    let ledger = ledger_json(&rows, &notes);
    let ledger_path = PathBuf::from(OUT_DIR).join("ledger.json");
    std::fs::write(&ledger_path, ledger.render() + "\n")
        .map_err(|e| format!("writing {}: {e}", ledger_path.display()))?;
    let mut all_correct = true;
    let mut records = Vec::new();
    for spec in &workload::SPECS {
        let out = PathBuf::from(OUT_DIR).join(format!("run-{}-trace1.json", spec.name));
        let mut child = Command::new(&exe);
        child
            .args(["run", "--workload", spec.name, "--trace", "1"])
            .args([
                "--seed",
                &f.seed.to_string(),
                "--seconds",
                &f.seconds.to_string(),
            ])
            .arg("--out")
            .arg(&out)
            .arg("--ledger")
            .arg(&ledger_path);
        if f.smoke {
            child.arg("--smoke");
        }
        let status = child
            .status()
            .map_err(|e| format!("starting {}: {e}", spec.name))?;
        all_correct &= status.success();
        let text = std::fs::read_to_string(&out)
            .map_err(|e| format!("{}: no result record at {}: {e}", spec.name, out.display()))?;
        records.push((spec.name, Json::parse(&text)?));
    }
    let out = f.out.unwrap_or_else(|| {
        let kind = if f.smoke { "smoke" } else { "results" };
        PathBuf::from(OUT_DIR).join(format!("{kind}-seed{}.json", f.seed))
    });
    let file = obj([
        ("schema", Json::from("mp-benchmark/results/v1")),
        ("seed", Json::from(f.seed)),
        ("smoke", Json::from(f.smoke)),
        ("correct", Json::from(all_correct)),
        ("fingerprint", fingerprint::fingerprint()),
        ("layers", ledger),
        ("workloads", obj(records)),
    ]);
    std::fs::write(&out, file.render() + "\n")
        .map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!("# results written to {}", out.display());
    println!(
        "# {}",
        if all_correct {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        }
    );
    Ok(all_correct)
}

fn print_ledger(rows: &[layers::Row], notes: &layers::Notes) {
    for r in rows {
        println!("{} layers {} ns", r.name, r.ns);
    }
    for (name, value) in notes {
        println!("# {name} = {value}");
    }
}

fn cmd_layers(args: &[String]) -> Result<bool, String> {
    let f = parse_flags(args)?;
    let (rows, notes) = layers::run(&layers::LedgerCfg::new(f.seed, f.smoke))?;
    print_ledger(&rows, &notes);
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((cmd, rest)) => (cmd.as_str(), rest),
        None => ("all", &[][..]),
    };
    let outcome = match cmd {
        "run" => cmd_run(rest),
        "all" => cmd_all(rest),
        "layers" => cmd_layers(rest),
        "agree" => match rest {
            [a, b] => agree::agree("BENCHMARK.json", a, b),
            _ => Err("usage: benchmark agree A.json B.json".into()),
        },
        other => Err(format!(
            "unknown command {other:?} (run | all | layers | agree)"
        )),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest_list(manifest: &Json, key: &str) -> Vec<(String, String)> {
        let second = if key == "workloads" { "why" } else { "unit" };
        manifest
            .get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
            .iter()
            .map(|e| {
                let field = |f: &str| e.get(f).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field(second))
            })
            .collect()
    }

    /// A traced smoke run of one workload produces exactly the metrics
    /// `BENCHMARK.json` promises, by name and unit, passes its own checks, and
    /// prints a result line the driver can parse; so does a run cut short by
    /// `--seconds`.
    #[test]
    fn smoke_run_matches_the_manifest() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(root.join("../BENCHMARK.json")).unwrap();
        let manifest = Json::parse(&text).unwrap();

        let specs: Vec<(String, String)> = workload::SPECS
            .iter()
            .map(|s| (s.name.to_string(), s.why.to_string()))
            .collect();
        assert_eq!(manifest_list(&manifest, "workloads"), specs);
        assert_eq!(
            manifest.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );

        // Not `skip-stall`: its waste-growth check compares repetitions, and
        // a debug build sharing two cores with the other tests is no place
        // for that.
        let opts = |smoke: bool, seconds: f64| RunOpts {
            spec: workload::spec("hash-write").unwrap(),
            seed: 7,
            seconds,
            trace: smoke,
            smoke,
            ledger: None,
            out: root.join(format!("out/test-smoke-{}/run.json", std::process::id())),
        };
        let named = |ms: &[run::Metric]| -> Vec<(String, String)> {
            ms.iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect()
        };
        let report = run::run(&opts(true, DEFAULT_SECONDS)).unwrap();
        assert!(report.correct, "smoke run failed its own checks");
        assert_eq!(report.failed, 0);
        assert_eq!(
            named(&report.end_to_end),
            manifest_list(&manifest, "end_to_end")
        );
        assert_eq!(
            named(&report.per_layer),
            manifest_list(&manifest, "per_layer")
        );
        for trace in [false, true] {
            let line = Json::parse(&report.result_line(trace)).unwrap();
            let Json::Obj(keys) = &line else {
                panic!("result line is not an object")
            };
            let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        }

        // A full-size run far shorter than `run_seconds` still measures every
        // repetition it reports: no metric reads zero, no check fails.
        let short = run::run(&opts(false, 0.3)).unwrap();
        assert!(short.correct, "short run failed its own checks");
        for m in &short.end_to_end {
            let raw = m.summary.iter().flat_map(|s| &s.raw);
            assert!(
                m.value > 0.0 && raw.into_iter().all(|v| *v > 0.0),
                "{} reads zero in a short run",
                m.name
            );
        }
        std::fs::remove_dir_all(opts(true, 1.0).out.parent().unwrap()).unwrap();
    }
}
