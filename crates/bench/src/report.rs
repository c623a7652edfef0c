//! Plain-text table + CSV output: the one place a bench result is
//! formatted or written.

use std::fmt::Write as _;
use std::path::PathBuf;

/// A simple aligned text table, also dumped as CSV under [`out_dir`] for
/// EXPERIMENTS.md bookkeeping and scripts.
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

    /// Prints the table to stdout and writes `<slug>.csv` into
    /// [`out_dir`].
    pub fn emit(&self, slug: &str) {
        print!("{}", self.render());
        let dir = out_dir();
        let _ = std::fs::create_dir_all(&dir);
        let csv: String = std::iter::once(&self.header)
            .chain(&self.rows)
            .map(|cells| cells.join(",") + "\n")
            .collect();
        let path = dir.join(format!("{slug}.csv"));
        if std::fs::write(&path, csv).is_ok() {
            eprintln!("[csv] {}", path.display());
        }
    }
}

/// Output directory for bench artifacts: `$MP_BENCH_DIR` when set
/// (`scripts/verify.sh` points its smoke stage at `target/bench-smoke/`),
/// otherwise `<workspace>/target/bench-results/`. (`cargo bench` sets the
/// CWD to the package directory, so a relative default would bury the
/// files under `crates/bench/`.)
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
