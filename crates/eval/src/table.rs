//! Paper-style result table formatting.

use crate::stats::mean_std;

/// Formats a `mean (std)` cell the way the paper's tables print them.
pub fn format_cell(values: &[f64]) -> String {
    let (m, s) = mean_std(values);
    format!("{m:.2} ({s:.2})")
}

/// A simple aligned text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<(String, Vec<String>)>,
}

impl Table {
    /// Table with the given column headers (first column is the row label).
    pub fn new(columns: &[&str]) -> Self {
        Self { header: columns.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends a row.
    pub fn add_row(&mut self, label: &str, cells: Vec<String>) {
        assert_eq!(cells.len() + 1, self.header.len(), "row width must match header");
        self.rows.push((label.to_string(), cells));
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for (label, cells) in &self.rows {
            widths[0] = widths[0].max(label.len());
            for (i, c) in cells.iter().enumerate() {
                widths[i + 1] = widths[i + 1].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cols: Vec<&str>, widths: &[usize]| -> String {
            cols.iter()
                .enumerate()
                .map(|(i, c)| format!("{:<w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(self.header.iter().map(String::as_str).collect(), &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for (label, cells) in &self.rows {
            let mut cols = vec![label.as_str()];
            cols.extend(cells.iter().map(String::as_str));
            out.push_str(&fmt_row(cols, &widths));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_formatting() {
        assert_eq!(format_cell(&[0.93, 0.95]), "0.94 (0.01)");
        assert_eq!(format_cell(&[1.0]), "1.00 (0.00)");
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["Dataset", "ER", "FiCSUM"]);
        t.add_row("STAGGER", vec!["0.98 (0.00)".into(), "0.97 (0.02)".into()]);
        t.add_row("RBF", vec!["0.75 (0.04)".into(), "0.73 (0.03)".into()]);
        let r = t.render();
        assert!(r.contains("STAGGER"));
        assert!(r.lines().count() == 4);
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines[2].find("0.98"), lines[3].find("0.75"), "columns align");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new(&["a", "b"]);
        t.add_row("x", vec!["1".into(), "2".into()]);
    }
}
