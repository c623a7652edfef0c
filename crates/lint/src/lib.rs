//! `mp-lint` — the in-tree SMR protocol linter.
//!
//! The MP paper's correctness argument (§4, Theorem 4.2) rests on protocol
//! invariants the Rust compiler cannot check. Each rule has one checker:
//! rustc and clippy (the workspace `[workspace.lints.clippy]` table and
//! `clippy.toml`) hold what they can, and this crate's passes hold the
//! rest: [`passes::safety`] (every SAFETY comment cites a declared
//! `[INV-xx]`), [`passes::ordering`] (a structured `// ORDERING:` at every
//! protocol `Relaxed`), [`passes::scope`] (`deref()` inside a protection
//! span) and [`passes::cast`] (no pointer-width casts outside `packed.rs`).
//! DESIGN.md ("Static analysis") maps every rule to its checker.
//!
//! Zero dependencies, a hand-rolled lexer (tokens + brace tree, no full
//! parser). Its one whole-tree run is tier-1's `merged_tree_lints_clean`
//! (`cargo test -q --test lint_fixtures`).

pub mod lexer;
pub mod passes;
pub mod registry;

use std::path::{Path, PathBuf};

use passes::ordering::OrderingSite;

pub const PASS_SAFETY: &str = "safety";
pub const PASS_ORDERING: &str = "ordering";
pub const PASS_SCOPE: &str = "scope";
pub const PASS_CAST: &str = "cast";

/// One finding. `file` is the normalized (forward-slash) path as given.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub file: String,
    pub line: u32,
    pub col: u32,
    pub pass: &'static str,
    pub msg: String,
}

impl Diagnostic {
    /// A finding at code position `i` of `f`.
    fn at(file: &str, f: &lexer::LexFile, i: usize, pass: &'static str, msg: String) -> Self {
        Diagnostic { file: file.to_string(), line: f.line_of(i), col: f.col_of(i), pass, msg }
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}: error[{}]: {}",
            self.file, self.line, self.col, self.pass, self.msg
        )
    }
}

/// Directory names never descended into. `fixtures` holds the deliberately
/// failing lint corpus; linting it would make the clean-tree run fail.
const SKIP_DIRS: &[&str] = &["target", "fixtures", ".git"];

/// Recursively collects `.rs` files under each path (files pass through).
pub fn collect_rs_files(paths: &[PathBuf]) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for p in paths {
        walk(p, &mut out)?;
    }
    out.sort();
    out.dedup();
    Ok(out)
}

fn walk(p: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if p.is_dir() {
        if p.file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| SKIP_DIRS.contains(&n))
        {
            return Ok(());
        }
        for entry in std::fs::read_dir(p)? {
            walk(&entry?.path(), out)?;
        }
    } else if p.extension().and_then(|e| e.to_str()) == Some("rs") {
        out.push(p.to_path_buf());
    }
    Ok(())
}

/// Lints one file, including same-file pairing resolution. Separated out so
/// fixture tests can drive single files under a synthetic display path;
/// `pairs =` references must resolve within the file in this mode.
pub fn lint_file(
    path_display: &str,
    src: &str,
    reg: &registry::Registry,
    out: &mut Vec<Diagnostic>,
) {
    let mut sites = Vec::new();
    lint_file_collect(path_display, src, reg, &mut sites, out);
    passes::ordering::resolve(&sites, out);
}

/// Phase 1 of [`lint_file`]: runs the per-file passes and appends the file's
/// ordering sites to `sites` without resolving `pairs` references — the
/// whole-tree walk resolves once over all files.
fn lint_file_collect(
    path_display: &str,
    src: &str,
    reg: &registry::Registry,
    sites: &mut Vec<OrderingSite>,
    out: &mut Vec<Diagnostic>,
) {
    let f = lexer::lex(src);
    let spans = lexer::fn_spans(&f);
    let tspans = lexer::test_spans(&f);
    passes::safety::run(path_display, &f, reg, out);
    passes::ordering::run(path_display, &f, &spans, &tspans, sites, out);
    passes::scope::run(path_display, &f, &spans, out);
    passes::cast::run(path_display, &f, &tspans, out);
}

/// Runs all passes over every `.rs` file under `paths` against the
/// registry at `invariants`, then resolves the `pairs` references over the
/// merged site table. Returns the sorted diagnostics; a configuration error
/// (missing registry) is `Err` — it must fail, not read as a clean run.
pub fn lint_paths(paths: &[PathBuf], invariants: &Path) -> Result<Vec<Diagnostic>, String> {
    let reg = registry::Registry::load(invariants)?;
    let files = collect_rs_files(paths).map_err(|e| format!("walking inputs: {e}"))?;
    if files.is_empty() {
        return Err("no .rs files found under the given paths".to_string());
    }
    let mut out = Vec::new();
    let mut sites = Vec::new();
    for file in &files {
        let src = std::fs::read_to_string(file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        let display = file.display().to_string().replace('\\', "/");
        lint_file_collect(&display, &src, &reg, &mut sites, &mut out);
    }
    passes::ordering::resolve(&sites, &mut out);
    out.sort_by(|a, b| (&a.file, a.line, a.col).cmp(&(&b.file, b.line, b.col)));
    Ok(out)
}
