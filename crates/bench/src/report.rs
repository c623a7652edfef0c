//! Plain-text table + CSV + JSON output: the one place a bench result is
//! formatted or written.

use std::fmt::Write as _;
use std::path::PathBuf;

use mp_smr::telemetry::export::validate_json;

/// A simple aligned text table, also dumped as CSV and JSON under
/// [`out_dir`] for EXPERIMENTS.md bookkeeping and scripts.
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
    /// machine-readable `<slug>.json` into [`out_dir`].
    pub fn emit(&self, slug: &str) {
        print!("{}", self.render());
        let dir = out_dir();
        let _ = std::fs::create_dir_all(&dir);
        let csv: String = std::iter::once(&self.header)
            .chain(&self.rows)
            .map(|cells| cells.join(",") + "\n")
            .collect();
        for (ext, body) in [("csv", csv), ("json", self.to_json())] {
            let path = dir.join(format!("{slug}.{ext}"));
            if std::fs::write(&path, body).is_ok() {
                eprintln!("[{ext}] {}", path.display());
            }
        }
    }

    /// Renders the table as a JSON object: header names become row keys,
    /// and a cell that is itself a JSON number (`3.590`, `65535`) is
    /// written as one, so a script needs no schema to compare values —
    /// anything else (`MP`, `2^20`, `nan`, `12.5%`) stays a string.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\n  \"title\": {},\n  \"rows\": [", json_str(&self.title));
        for (i, row) in self.rows.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    {{");
            for (j, (key, cell)) in self.header.iter().zip(row).enumerate() {
                let comma = if j == 0 { "" } else { ", " };
                let number = cell.starts_with(|c: char| c == '-' || c.is_ascii_digit())
                    && validate_json(cell).is_ok();
                let value = if number { cell.clone() } else { json_str(cell) };
                let _ = write!(out, "{comma}{}: {value}", json_str(key));
            }
            let _ = write!(out, "}}");
        }
        let _ = writeln!(out, "\n  ]\n}}");
        out
    }
}

/// Escapes a string as a JSON string literal (no external deps).
fn json_str(s: &str) -> String {
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
    fn json_numbers_are_bare_and_everything_else_is_quoted() {
        let mut t = Table::new("demo", &["scheme", "margin", "Mops/s", "peak", "frees", "ratio"]);
        t.row(["MP", "2^20", "3.590", "65535", "0", "nan"].map(String::from).to_vec());
        t.row(["HP", "-", "-0.5", "1e3", "007", "12.5%"].map(String::from).to_vec());
        let json = t.to_json();
        validate_json(&json).expect("well-formed JSON");
        // The same rows, key for key, in header order.
        let rows: Vec<&str> =
            json.lines().map(str::trim).filter(|l| l.starts_with('{') && l.len() > 1).collect();
        assert_eq!(
            rows,
            [
                r#"{"scheme": "MP", "margin": "2^20", "Mops/s": 3.590, "peak": 65535, "frees": 0, "ratio": "nan"},"#,
                r#"{"scheme": "HP", "margin": "-", "Mops/s": -0.5, "peak": 1e3, "frees": "007", "ratio": "12.5%"}"#,
            ]
        );
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }
}
