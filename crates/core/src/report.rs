//! Table output for the experiment drivers: aligned text, CSV, and the
//! canonical JSON artifact format.
//!
//! The experiment runner ([`crate::experiments::runner`]) prints each
//! figure/table as an aligned text table (the rows the paper reports)
//! and writes a JSON + CSV mirror into the run's artifact directory
//! under `target/experiments/<run-id>/` so results can be re-plotted
//! and diffed. JSON rendering is fully deterministic: the same report
//! always serializes to the same bytes.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// A row whose length does not match the report header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportError {
    /// Title of the report the row was pushed to.
    pub title: String,
    /// Header length.
    pub expected: usize,
    /// Offending row length.
    pub got: usize,
}

impl std::fmt::Display for ReportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "report `{}`: row has {} cells but the header has {}",
            self.title, self.got, self.expected
        )
    }
}

impl std::error::Error for ReportError {}

/// A rectangular report: header plus rows of stringified cells.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Report title (used as the CSV/JSON file stem).
    pub title: String,
    /// Column names.
    pub header: Vec<String>,
    /// Data rows; each must match the header length.
    pub rows: Vec<Vec<String>>,
}

impl Report {
    /// Creates an empty report.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Self {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Errors
    ///
    /// Returns [`ReportError`] when the row length differs from the
    /// header length (a driver bug — the caller should propagate it
    /// into the experiment's failure report rather than panic).
    pub fn push_row(&mut self, row: Vec<String>) -> Result<(), ReportError> {
        if row.len() != self.header.len() {
            return Err(ReportError {
                title: self.title.clone(),
                expected: self.header.len(),
                got: row.len(),
            });
        }
        self.rows.push(row);
        Ok(())
    }

    /// Renders an aligned text table.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("# {}\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (cell, w) in cells.iter().zip(widths) {
                line.push_str(&format!("{cell:>w$}  ", w = w));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders the report as its canonical JSON artifact: title, header
    /// and rows, pretty-printed with stable field order. Two reports
    /// with equal contents serialize to byte-identical JSON.
    pub fn to_json(&self) -> String {
        use crate::json::Json;
        let arr =
            |cells: &[String]| Json::Arr(cells.iter().map(|c| Json::Str(c.clone())).collect());
        Json::Obj(vec![
            ("title".to_string(), Json::Str(self.title.clone())),
            ("header".to_string(), arr(&self.header)),
            (
                "rows".to_string(),
                Json::Arr(self.rows.iter().map(|r| arr(r)).collect()),
            ),
        ])
        .render()
    }

    /// Writes `<dir>/<title>.json`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_json(&self, dir: &Path) -> std::io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.title));
        fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// Writes `<dir>/<title>.csv`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_csv(&self, dir: &Path) -> std::io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.csv", self.title));
        let mut f = fs::File::create(&path)?;
        writeln!(f, "{}", self.header.join(","))?;
        for row in &self.rows {
            writeln!(f, "{}", row.join(","))?;
        }
        Ok(path)
    }
}

/// Formats a float with 3 decimals for table cells.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a percentage with 1 decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_table_is_aligned_and_complete() {
        let mut r = Report::new("demo", &["name", "value"]);
        r.push_row(vec!["a".into(), "1".into()]).unwrap();
        r.push_row(vec!["long-name".into(), "2.5".into()]).unwrap();
        let text = r.to_text();
        assert!(text.contains("# demo"));
        assert!(text.contains("long-name"));
        assert_eq!(text.lines().count(), 5);
    }

    #[test]
    fn mismatched_row_is_an_error_not_a_panic() {
        let mut r = Report::new("demo", &["a", "b"]);
        let err = r.push_row(vec!["only-one".into()]).unwrap_err();
        assert_eq!(err.expected, 2);
        assert_eq!(err.got, 1);
        assert!(err.to_string().contains("demo"));
        assert!(r.rows.is_empty(), "bad row must not be recorded");
    }

    #[test]
    fn csv_round_trip() {
        let mut r = Report::new("csv-demo", &["x", "y"]);
        r.push_row(vec!["1".into(), "2".into()]).unwrap();
        let dir = std::env::temp_dir().join("rfc-net-report-test");
        let path = r.write_csv(&dir).unwrap();
        let content = std::fs::read_to_string(path).unwrap();
        assert_eq!(content, "x,y\n1,2\n");
    }

    #[test]
    fn json_is_deterministic_and_parses_back() {
        let mut r = Report::new("json-demo", &["x", "label"]);
        r.push_row(vec!["1".into(), "a \"quoted\" cell".into()])
            .unwrap();
        let a = r.to_json();
        let b = r.clone().to_json();
        assert_eq!(a, b, "same report must serialize identically");
        let parsed = crate::json::Json::parse(&a).unwrap();
        assert_eq!(
            parsed.get("title").and_then(crate::json::Json::as_str),
            Some("json-demo")
        );
        let rows = parsed
            .get("rows")
            .and_then(crate::json::Json::as_arr)
            .unwrap();
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn formatters() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(pct(0.456), "45.6%");
    }
}
