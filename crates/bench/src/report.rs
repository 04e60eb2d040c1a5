//! Plain-text tables for experiment output.
//!
//! Every experiment produces a [`Table`]: a header plus rows of cells. Tables render
//! both as aligned plain text (for the terminal) and as Markdown (for
//! experiment reports).

use std::fmt;

/// A simple rectangular result table.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Table {
    /// Table title (e.g. `"Figure 5: throughput vs. concurrency"`).
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Data rows; each row has one cell per column.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with the given title and column headers.
    pub fn new(title: impl Into<String>, columns: Vec<&str>) -> Self {
        Self {
            title: title.into(),
            columns: columns.into_iter().map(String::from).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the row length does not match the number of columns.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row has {} cells, table has {} columns",
            row.len(),
            self.columns.len()
        );
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Renders the table as Markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("### {}\n\n", self.title);
        out.push_str(&format!("| {} |\n", self.columns.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.columns.iter().map(|_| "---|").collect::<String>()
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }

    fn column_widths(&self) -> Vec<usize> {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        widths
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.title)?;
        let widths = self.column_widths();
        let header: Vec<String> = self
            .columns
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        writeln!(f, "  {}", header.join("  "))?;
        writeln!(
            f,
            "  {}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        )?;
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            writeln!(f, "  {}", cells.join("  "))?;
        }
        Ok(())
    }
}

/// Formats a floating-point value with a sensible number of digits for tables.
pub fn fmt_f64(value: f64) -> String {
    if value == 0.0 {
        "0".to_string()
    } else if value.abs() >= 100.0 {
        format!("{value:.0}")
    } else if value.abs() >= 1.0 {
        format!("{value:.1}")
    } else {
        format!("{value:.3}")
    }
}

/// Formats a duration in milliseconds with three significant decimals.
pub fn fmt_ms(duration: std::time::Duration) -> String {
    format!("{:.3}", duration.as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn table() -> Table {
        let mut t = Table::new("Figure X", vec!["n", "CJOIN", "System X"]);
        t.push_row(vec!["1".into(), "100".into(), "90".into()]);
        t.push_row(vec!["256".into(), "1500".into(), "120".into()]);
        t
    }

    #[test]
    fn display_renders_aligned_columns() {
        let s = table().to_string();
        assert!(s.contains("Figure X"));
        assert!(s.contains("CJOIN"));
        assert!(s.lines().count() >= 5);
    }

    #[test]
    fn markdown_rendering() {
        let md = table().to_markdown();
        assert!(md.starts_with("### Figure X"));
        assert!(md.contains("| n | CJOIN | System X |"));
        assert!(md.contains("| 256 | 1500 | 120 |"));
        assert_eq!(table().num_rows(), 2);
    }

    #[test]
    #[should_panic(expected = "cells")]
    fn mismatched_row_length_panics() {
        let mut t = Table::new("t", vec!["a", "b"]);
        t.push_row(vec!["only-one".into()]);
    }

    #[test]
    fn float_and_duration_formatting() {
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(1234.5678), "1235");
        assert_eq!(fmt_f64(12.345), "12.3");
        assert_eq!(fmt_f64(0.01234), "0.012");
        assert_eq!(fmt_ms(Duration::from_micros(1500)), "1.500");
    }
}
