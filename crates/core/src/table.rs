//! Plain-text table rendering for the experiment harness.

use core::fmt;

/// A simple column-aligned text table with CSV export, used by the
/// table/figure regeneration binaries.
///
/// # Examples
///
/// ```
/// use paraconv::TextTable;
///
/// let mut t = TextTable::new(["benchmark", "time"]);
/// t.push_row(["cat", "4.7"]);
/// let text = t.to_string();
/// assert!(text.contains("benchmark"));
/// assert!(text.contains("cat"));
/// assert_eq!(t.to_csv(), "benchmark,time\ncat,4.7\n");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new<I, S>(headers: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        TextTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; short rows are padded with empty cells, long
    /// rows are truncated to the header width.
    pub fn push_row<I, S>(&mut self, cells: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
    }

    /// Renders RFC-4180-ish CSV (fields containing commas or quotes are
    /// quoted).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let escape = |s: &str| -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_owned()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| escape(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for TextTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            let line = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ");
            writeln!(f, "{}", line.trim_end())
        };
        write_row(f, &self.headers)?;
        let rule: String = widths
            .iter()
            .map(|&w| "-".repeat(w))
            .collect::<Vec<_>>()
            .join("  ");
        writeln!(f, "{rule}")?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_pads_to_widest_cell() {
        let mut t = TextTable::new(["a", "long-header"]);
        t.push_row(["wider-than-header", "x"]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a "));
        assert!(lines[1].starts_with("---"));
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = TextTable::new(["x"]);
        t.push_row(["a,b"]);
        t.push_row(["say \"hi\""]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn short_rows_padded_long_rows_truncated() {
        let mut t = TextTable::new(["a", "b"]);
        t.push_row(["only"]);
        t.push_row(["one", "two", "three"]);
        let csv = t.to_csv();
        assert!(csv.contains("only,\n"));
        assert!(!csv.contains("three"));
    }
}
