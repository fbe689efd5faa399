//! Plain-text and CSV rendering of figure series.

use std::fmt::Write as _;

/// A figure rendered as columns: one x column (fault count) and one y column
/// per curve.
#[derive(Clone, Debug, PartialEq)]
pub struct Series {
    /// Figure title (e.g. "Figure 9(a) ...").
    pub title: String,
    /// Name of the x axis.
    pub x_label: String,
    /// Curve names, in column order.
    pub curves: Vec<String>,
    /// Rows: `(x, y values per curve)`.
    pub rows: Vec<(usize, Vec<f64>)>,
}

impl Series {
    /// Creates an empty series with the given labels.
    pub fn new(title: impl Into<String>, x_label: impl Into<String>, curves: Vec<String>) -> Self {
        Series {
            title: title.into(),
            x_label: x_label.into(),
            curves,
            rows: Vec::new(),
        }
    }

    /// Appends one row. Panics if the value count does not match the curves.
    pub fn push_row(&mut self, x: usize, values: Vec<f64>) {
        assert_eq!(values.len(), self.curves.len(), "row width mismatch");
        self.rows.push((x, values));
    }

    /// The values of one curve, in row order.
    pub fn curve(&self, name: &str) -> Option<Vec<f64>> {
        let idx = self.curves.iter().position(|c| c == name)?;
        Some(self.rows.iter().map(|(_, v)| v[idx]).collect())
    }
}

/// Renders a series as an aligned plain-text table (what `paper-figures`
/// prints).
pub fn render_table(series: &Series) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# {}", series.title);
    let width = 14usize;
    let _ = write!(out, "{:>width$}", series.x_label);
    for c in &series.curves {
        let _ = write!(out, "{c:>width$}");
    }
    out.push('\n');
    for (x, values) in &series.rows {
        let _ = write!(out, "{x:>width$}");
        for v in values {
            let _ = write!(out, "{v:>width$.3}");
        }
        out.push('\n');
    }
    out
}

/// Renders a series as CSV (header + rows).
pub fn render_csv(series: &Series) -> String {
    let mut out = String::new();
    let _ = write!(out, "{}", series.x_label);
    for c in &series.curves {
        let _ = write!(out, ",{c}");
    }
    out.push('\n');
    for (x, values) in &series.rows {
        let _ = write!(out, "{x}");
        for v in values {
            let _ = write!(out, ",{v:.6}");
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Series {
        let mut s = Series::new("Figure X", "faults", vec!["FB".into(), "MFP".into()]);
        s.push_row(100, vec![10.0, 1.5]);
        s.push_row(200, vec![25.0, 2.25]);
        s
    }

    #[test]
    fn table_contains_title_headers_and_rows() {
        let text = render_table(&sample());
        assert!(text.contains("# Figure X"));
        assert!(text.contains("FB"));
        assert!(text.contains("MFP"));
        assert!(text.contains("200"));
        assert!(text.contains("25.000"));
    }

    #[test]
    fn csv_round_numbers() {
        let csv = render_csv(&sample());
        let mut lines = csv.lines();
        assert_eq!(lines.next().unwrap(), "faults,FB,MFP");
        assert!(lines.next().unwrap().starts_with("100,10.000000,1.500000"));
    }

    #[test]
    fn curve_extraction() {
        let s = sample();
        assert_eq!(s.curve("FB"), Some(vec![10.0, 25.0]));
        assert_eq!(s.curve("MFP"), Some(vec![1.5, 2.25]));
        assert_eq!(s.curve("nope"), None);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_row_panics() {
        let mut s = sample();
        s.push_row(300, vec![1.0]);
    }
}
