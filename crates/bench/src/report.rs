//! Plain-text table + CSV output for the figure/table benches.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;

/// A simple aligned text table, also dumpable as CSV under
/// `target/bench-results/` for EXPERIMENTS.md bookkeeping.
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column names.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the aligned table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "\n== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", line(&self.header, &widths));
        let _ = writeln!(out, "{}", "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Prints the table to stdout and writes `<slug>.csv` plus a
    /// machine-readable `<slug>.json` next to the build artifacts.
    pub fn emit(&self, slug: &str) {
        print!("{}", self.render());
        let path = csv_path(slug);
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Ok(mut f) = std::fs::File::create(&path) {
            let _ = writeln!(f, "{}", self.header.join(","));
            for row in &self.rows {
                let _ = writeln!(f, "{}", row.join(","));
            }
            eprintln!("[csv] {}", path.display());
        }
        let jpath = json_path(slug);
        if let Ok(mut f) = std::fs::File::create(&jpath) {
            let _ = f.write_all(self.to_json().as_bytes());
            eprintln!("[json] {}", jpath.display());
        }
    }

    /// Renders the table as a JSON object: header names become row keys.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\n  \"title\": {},\n  \"rows\": [", json_str(&self.title));
        for (i, row) in self.rows.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    {{");
            for (j, (key, cell)) in self.header.iter().zip(row).enumerate() {
                let comma = if j == 0 { "" } else { ", " };
                let _ = write!(out, "{comma}{}: {}", json_str(key), json_str(cell));
            }
            let _ = write!(out, "}}");
        }
        let _ = writeln!(out, "\n  ]\n}}");
        out
    }
}

/// Escapes a string as a JSON string literal (no external deps).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Output directory for bench artifacts: `$MP_BENCH_DIR` when set
/// (`scripts/bench.sh` points it at `target/bench/` or, for smoke runs,
/// `target/bench-smoke/`), otherwise `<workspace>/target/bench-results/`.
pub fn out_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("MP_BENCH_DIR") {
        if !dir.is_empty() {
            return PathBuf::from(dir);
        }
    }
    let root = std::env::var("CARGO_MANIFEST_DIR")
        .map(|m| PathBuf::from(m).join("../.."))
        .unwrap_or_else(|_| PathBuf::from("."));
    root.join("target/bench-results")
}

/// Where a bench's CSV lands (see [`out_dir`]). (`cargo bench` sets the CWD
/// to the package directory, so a relative path would bury the CSVs under
/// `crates/bench/`.)
pub fn csv_path(slug: &str) -> PathBuf {
    out_dir().join(format!("{slug}.csv"))
}

/// Where a bench's JSON twin lands (see [`out_dir`]).
pub fn json_path(slug: &str) -> PathBuf {
    out_dir().join(format!("{slug}.json"))
}

/// Formats a float with 3 significant decimals.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_alignment_and_rows() {
        let mut t = Table::new("demo", &["scheme", "mops"]);
        t.row(vec!["MP".into(), "1.234".into()]);
        t.row(vec!["HP".into(), "0.9".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("scheme"));
        assert!(s.contains("MP"));
        assert!(s.lines().count() >= 5);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }
}
