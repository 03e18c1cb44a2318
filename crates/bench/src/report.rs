//! Plain-text report formatting shared by the figure binaries.

use sim_stats::DistributionSummary;
use std::fmt::Write as _;

/// Formats a fraction as a signed percentage (e.g. `+13.2%`).
pub fn format_percent(value: f64) -> String {
    format!("{:+.1}%", value * 100.0)
}

/// Formats a distribution of fractional changes the way the paper quotes
/// them: `mean +13.1% (median +12.0%, min +1.2%, max +30.4%)`.
pub fn format_distribution_row(label: &str, summary: &DistributionSummary) -> String {
    format!(
        "{label:<28} mean {:>7} | median {:>7} | p25 {:>7} | p75 {:>7} | min {:>7} | max {:>7}",
        format_percent(summary.mean),
        format_percent(summary.median),
        format_percent(summary.p25),
        format_percent(summary.p75),
        format_percent(summary.min),
        format_percent(summary.max),
    )
}

/// Formats the engine's cache counters for the end-of-run report of the
/// `figures` driver: hit/miss totals, hit rate and the number of actual
/// simulation runs (a fully warm invocation reports zero).
pub fn format_cache_stats(stats: &crate::engine::CacheStats) -> String {
    format!(
        "result cache: {} requests | {} memo hits | {} store hits | {} simulated | {:.1}% hit rate",
        stats.total(),
        stats.memo_hits,
        stats.store_hits,
        stats.misses,
        stats.hit_rate() * 100.0,
    )
}

/// A minimal fixed-width table writer for the figure binaries.
#[derive(Debug, Default, Clone)]
pub struct TableWriter {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TableWriter {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, header: &[&str]) -> TableWriter {
        TableWriter {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the header.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row width must match the header");
        self.rows.push(cells.to_vec());
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Renders the table as a JSON document (`title`, `header`, `rows`),
    /// so figure output can be consumed by plotting scripts as well as read
    /// from the terminal.
    pub fn to_json(&self) -> serde_json::Value {
        let mut doc = serde_json::Map::new();
        doc.insert("title".to_string(), serde_json::Value::from(self.title.as_str()));
        doc.insert("header".to_string(), serde_json::Value::from(self.header.clone()));
        doc.insert(
            "rows".to_string(),
            serde_json::Value::Array(
                self.rows.iter().map(|r| serde_json::Value::from(r.clone())).collect(),
            ),
        );
        serde_json::Value::Object(doc)
    }
}

/// JSON rendering helpers for figure output.
pub mod json {
    /// Pretty-prints a [`TableWriter`](super::TableWriter) as JSON.
    pub fn render(table: &super::TableWriter) -> String {
        serde_json::to_string_pretty(&table.to_json()).expect("Value rendering is infallible")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_formatting() {
        assert_eq!(format_percent(0.131), "+13.1%");
        assert_eq!(format_percent(-0.07), "-7.0%");
        assert_eq!(format_percent(0.0), "+0.0%");
    }

    #[test]
    fn distribution_row_contains_all_fields() {
        let s = DistributionSummary::from_samples(&[0.1, 0.2, 0.3]);
        let row = format_distribution_row("B-mode 56-136", &s);
        assert!(row.contains("B-mode 56-136"));
        assert!(row.contains("+20.0%"));
        assert!(row.contains("+30.0%"));
    }

    #[test]
    fn table_renders_header_and_rows() {
        let mut t = TableWriter::new("Example", &["name", "value"]);
        t.row(&["foo".to_string(), "1.0".to_string()]);
        t.row(&["bar".to_string(), "2".to_string()]);
        let text = t.render();
        assert!(text.contains("== Example =="));
        assert!(text.contains("foo"));
        assert!(text.contains("bar"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_width_panics() {
        let mut t = TableWriter::new("x", &["a", "b"]);
        t.row(&["only one".to_string()]);
    }

    #[test]
    fn json_rendering_round_trips_title_and_cells() {
        let mut t = TableWriter::new("Figure 0", &["name", "value"]);
        t.row(&["web-search".to_string(), "1.25".to_string()]);
        let text = json::render(&t);
        assert!(text.contains("\"title\": \"Figure 0\""));
        assert!(text.contains("\"web-search\""));
    }
}
