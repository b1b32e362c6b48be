//! Table/figure output helpers: aligned console tables mirroring the
//! paper's rows, CSV and JSON files under `bench_results/` for plotting,
//! and the markdown rendering EXPERIMENTS.md's measured blocks are
//! generated from.

use serde::Serialize;
use std::fs;
use std::path::PathBuf;

/// A console + CSV table with a fixed column set.
pub struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title and column headers.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the column count).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.columns.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Render to an aligned console string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .zip(widths.iter())
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = format!("\n== {} ==\n", self.title);
        out.push_str(&fmt_row(&self.columns));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Render as a GitHub-flavoured markdown table (what `experiments
    /// --write-docs true` pastes into EXPERIMENTS.md).
    pub fn markdown(&self) -> String {
        let line = |cells: &[String]| format!("| {} |\n", cells.join(" | "));
        let mut out = line(&self.columns);
        out.push_str(&line(&vec!["---".to_string(); self.columns.len()]));
        for row in &self.rows {
            out.push_str(&line(row));
        }
        out
    }

    /// Print to stdout and write `bench_results/<slug>.csv`.
    pub fn emit(&self, slug: &str) {
        println!("{}", self.render());
        let mut csv = self.columns.join(",");
        csv.push('\n');
        for row in &self.rows {
            csv.push_str(&row.join(","));
            csv.push('\n');
        }
        let path = results_dir().join(format!("{slug}.csv"));
        if let Err(e) = fs::write(&path, csv) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            println!("[csv] {}", path.display());
        }
    }
}

/// `bench_results/` next to the workspace root (created on demand).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("KEMF_RESULTS_DIR").unwrap_or_else(|_| "bench_results".into());
    let path = PathBuf::from(dir);
    let _ = fs::create_dir_all(&path);
    path
}

/// Write `records` as pretty JSON to `<results dir>/<file>`: the one way a
/// `bench_*` binary records its sweep.
pub fn write_json<T: Serialize>(file: &str, records: &[T]) {
    let path = results_dir().join(file);
    let json = serde_json::to_string_pretty(&records.iter().collect::<Vec<_>>())
        .expect("records serialize");
    fs::write(&path, json).unwrap_or_else(|e| panic!("could not write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

/// Format a byte count the way the paper's tables do.
pub fn fmt_bytes(bytes: f64) -> String {
    kemf_nn::serialize::format_bytes(bytes)
}

/// Format an accuracy fraction as a percentage.
pub fn fmt_pct(frac: f32) -> String {
    format!("{:.2}%", frac * 100.0)
}

/// Format a speedup factor like the paper ("(2.14 ×)").
pub fn fmt_speedup(factor: f64) -> String {
    format!("({factor:.2} x)")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["a", "bbbb"]);
        t.row(&["x".into(), "1".into()]);
        t.row(&["long".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("demo"));
        assert!(s.contains("a     bbbb") || s.contains("a    bbbb"), "{s}");
    }

    #[test]
    fn table_renders_markdown() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&["x".into(), "1".into()]);
        assert_eq!(t.markdown(), "| a | b |\n| --- | --- |\n| x | 1 |\n");
    }

    #[test]
    #[should_panic]
    fn rejects_ragged_rows() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn json_goes_to_the_results_dir() {
        // The only test of this library that reads the variable.
        let dir = std::env::temp_dir().join(format!("kemf_results_{}", std::process::id()));
        std::env::set_var("KEMF_RESULTS_DIR", &dir);
        write_json("BENCH_demo.json", &[1, 2]);
        std::env::remove_var("KEMF_RESULTS_DIR");
        let written = fs::read_to_string(dir.join("BENCH_demo.json"));
        let _ = fs::remove_dir_all(&dir);
        assert_eq!(written.expect("JSON under KEMF_RESULTS_DIR"), "[\n  1,\n  2\n]");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_pct(0.6495), "64.95%");
        assert_eq!(fmt_speedup(51.08), "(51.08 x)");
        assert_eq!(fmt_bytes(2.1 * 1024.0 * 1024.0), "2.1MB");
    }
}
