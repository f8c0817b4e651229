//! Plain-text table rendering for the experiment binaries.
//!
//! Every experiment prints the rows/series the corresponding paper table or
//! figure reports, so the output can be compared side-by-side with the paper
//! (EXPERIMENTS.md records that comparison). This module keeps the
//! column-aligned rendering in one place.

/// A simple column-aligned text table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Create a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row. Rows shorter than the header are padded with empty
    /// cells; longer rows are truncated.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render the table with aligned columns.
    pub fn render(&self) -> String {
        let columns = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(columns) {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let render_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(cell);
                line.push_str(&" ".repeat(widths[i].saturating_sub(cell.chars().count())));
            }
            line.trim_end().to_string()
        };
        out.push_str(&render_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (columns - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Format a fraction as a percentage with one decimal.
pub fn percent(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

/// Format a `(value, fraction)` CDF series as `value:cumulative` pairs, a
/// compact representation the experiment binaries print for each figure.
pub fn cdf_series(steps: &[(f64, f64)]) -> String {
    steps
        .iter()
        .map(|(value, fraction)| format!("{value:.0}:{fraction:.3}"))
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut table = TextTable::new(["ASN", "# /48"]);
        table.row(["8881", "5149"]);
        table.row(["6799", "3386"]);
        table.row(["Total", "12885"]);
        assert_eq!(table.len(), 3);
        assert!(!table.is_empty());
        let rendered = table.render();
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].starts_with("ASN"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[2].contains("8881"));
        assert!(lines[4].contains("Total"));
        // Columns align: "5149" and "3386" start at the same offset.
        let offset = lines[2].find("5149").unwrap();
        assert_eq!(lines[3].find("3386").unwrap(), offset);
    }

    #[test]
    fn short_and_long_rows_are_normalised() {
        let mut table = TextTable::new(["a", "b", "c"]);
        table.row(["1"]);
        table.row(["1", "2", "3", "4"]);
        let rendered = table.render();
        assert!(rendered.contains('1'));
        assert!(!rendered.contains('4'));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(percent(0.9964), "99.6%");
        assert_eq!(cdf_series(&[(56.0, 0.5), (64.0, 1.0)]), "56:0.500 64:1.000");
        assert_eq!(cdf_series(&[]), "");
    }

    #[test]
    fn empty_table_renders_header_only() {
        let table = TextTable::new(["x", "y"]);
        assert!(table.is_empty());
        let rendered = table.render();
        assert_eq!(rendered.lines().count(), 2);
    }
}
