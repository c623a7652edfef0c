//! CLI for the SMR protocol linter.
//!
//! ```text
//! cargo run -p mp-lint -- crates/ tests/ examples/ src/
//! cargo run -p mp-lint -- --invariants path/to/INVARIANTS.md crates/
//! ```
//!
//! Exits 0 on a clean tree, 1 on any diagnostic, 2 on configuration errors
//! (a missing registry — that must fail the gate loudly, never read as "no
//! findings").

use std::path::PathBuf;
use std::process::ExitCode;

use mp_lint::{lint_paths, LintConfig};

const USAGE: &str = "usage: mp-lint [--invariants <path>] <path>...";

fn main() -> ExitCode {
    let mut cfg = LintConfig::default();
    let mut paths = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--invariants" => match args.next() {
                Some(p) => cfg.invariants = PathBuf::from(p),
                None => return usage_error("--invariants needs a path"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            _ => paths.push(PathBuf::from(a)),
        }
    }
    if paths.is_empty() {
        return usage_error("no input paths");
    }
    let diags = match lint_paths(&paths, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("mp-lint: configuration error: {e}");
            return ExitCode::from(2);
        }
    };
    if diags.is_empty() {
        println!("mp-lint: clean (0 diagnostics)");
        return ExitCode::SUCCESS;
    }
    for d in &diags {
        eprintln!("{d}");
    }
    let mut by_pass: std::collections::BTreeMap<&str, usize> = Default::default();
    for d in &diags {
        *by_pass.entry(d.pass).or_default() += 1;
    }
    let summary = by_pass
        .iter()
        .map(|(p, n)| format!("{p}: {n}"))
        .collect::<Vec<_>>()
        .join(", ");
    eprintln!("mp-lint: {} diagnostic(s) ({summary})", diags.len());
    ExitCode::FAILURE
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("mp-lint: {msg}\n{USAGE}");
    ExitCode::from(2)
}
