//! Result containers and CSV emission.
//!
//! Experiments print CSV tables to stdout (and optionally to files) so every
//! figure/table of the paper can be regenerated as a diff-able artifact
//! without a serialization dependency.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// A simple CSV table builder.
#[derive(Debug, Clone)]
pub struct CsvTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl CsvTable {
    /// Creates a table with the given column names.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        let header: Vec<String> = header.into_iter().map(Into::into).collect();
        assert!(!header.is_empty());
        Self { header, rows: Vec::new() }
    }

    /// Appends a row of formatted values; must match the header width.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no data rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the CSV. Cells containing commas, quotes, newlines, or
    /// leading/trailing whitespace are quoted (RFC 4180), so multi-line
    /// scenario descriptions survive a round trip through other parsers.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |cell: &str| -> String {
            let needs_quoting = cell.contains(',')
                || cell.contains('"')
                || cell.contains('\n')
                || cell.contains('\r')
                || cell.trim() != cell;
            if needs_quoting {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let _ =
            writeln!(out, "{}", self.header.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
        }
        out
    }

    /// Renders an aligned text table for terminal output.
    pub fn to_pretty(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells.iter().zip(widths).map(|(c, w)| format!("{c:>w$}")).collect::<Vec<_>>().join("  ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
        let _ = writeln!(
            out,
            "{}",
            widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>().join("  ")
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Writes the CSV to a file.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_csv().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_rendering() {
        let mut t = CsvTable::new(["range_m", "ber"]);
        t.row(["100.0000", "0.0012"]);
        t.row(["300", "1e-3"]);
        let csv = t.to_csv();
        assert!(csv.starts_with("range_m,ber\n"));
        assert!(csv.contains("100.0000,0.0012"));
        assert!(csv.contains("300,1e-3"));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = CsvTable::new(["name", "value"]);
        t.row(["a,b", "say \"hi\""]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn csv_quotes_newlines_and_edge_whitespace() {
        let mut t = CsvTable::new(["scenario", "note"]);
        t.row(["river\n300 m", " padded "]);
        t.row(["tab\tinside", "trailing "]);
        let csv = t.to_csv();
        assert!(csv.contains("\"river\n300 m\""), "newline cell must be quoted: {csv}");
        assert!(csv.contains("\" padded \""), "edge whitespace must be quoted: {csv}");
        assert!(csv.contains("\"trailing \""), "trailing space must be quoted: {csv}");
        assert!(csv.contains("tab\tinside"), "interior tabs need no quoting");
        assert!(!csv.contains("\"tab\tinside\""));
        // The quoted newline must not add a logical record: header + 2 rows
        // = 3 records, but 4 physical lines (one cell spans two).
        assert_eq!(csv.lines().count(), 4);
    }

    #[test]
    fn pretty_alignment() {
        let mut t = CsvTable::new(["x", "long_column"]);
        t.row(["1", "2"]);
        let pretty = t.to_pretty();
        let lines: Vec<&str> = pretty.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn ragged_row_rejected() {
        let mut t = CsvTable::new(["a", "b"]);
        t.row(["only one"]);
    }

    #[test]
    fn file_roundtrip() {
        let mut t = CsvTable::new(["a"]);
        t.row(["1"]);
        let dir = std::env::temp_dir().join("vab_csv_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let p = dir.join("t.csv");
        t.write_csv(&p).expect("write");
        let back = std::fs::read_to_string(&p).expect("read");
        assert_eq!(back, "a\n1\n");
    }
}
