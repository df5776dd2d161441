//! One table, two renderings.
//!
//! An experiment describes each of its tables once — a title, columns
//! of `(markdown header, JSON key)`, and rows of [`Cell`]s — and both
//! the markdown artifact and the JSON artifact are rendered from that
//! one description, so the two can never disagree on row order or
//! content.

use std::fmt::Write as _;

use crate::json::Json;

/// One table cell: its markdown text and its JSON value.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    md: String,
    json: Json,
}

impl Cell {
    /// A cell whose markdown text and JSON value differ in shape (e.g.
    /// `"40 ns (2x)"` rendered from the number `40`).
    pub fn new(md: impl Into<String>, json: Json) -> Cell {
        Cell {
            md: md.into(),
            json,
        }
    }

    /// A string cell, identical in both renderings.
    pub fn text(s: &str) -> Cell {
        Cell::new(s, Json::Str(s.into()))
    }

    /// An integer count.
    pub fn count(n: u64) -> Cell {
        Cell::new(n.to_string(), Json::Num(n as f64))
    }

    /// A real number printed with `digits` decimals in markdown and
    /// kept at full precision in JSON.
    pub fn fixed(v: f64, digits: usize) -> Cell {
        Cell::new(format!("{v:.digits$}"), Json::Num(v))
    }
}

/// A titled table: `(markdown header, JSON key)` columns and rows of
/// cells, in insertion order.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    title: String,
    columns: Vec<(String, String)>,
    rows: Vec<Vec<Cell>>,
}

impl Table {
    /// An empty table with the given `(markdown header, JSON key)`
    /// columns.
    pub fn new(title: impl Into<String>, columns: &[(&str, &str)]) -> Table {
        Table {
            title: title.into(),
            columns: columns
                .iter()
                .map(|&(h, k)| (h.to_string(), k.to_string()))
                .collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row's width differs from the column count.
    pub fn push(&mut self, row: Vec<Cell>) {
        assert_eq!(row.len(), self.columns.len(), "row width != column count");
        self.rows.push(row);
    }

    /// `## title`, a blank line, the header, the `|---|` separator and
    /// one line per row.
    pub fn markdown(&self) -> String {
        let mut md = format!("## {}\n\n|", self.title);
        for (header, _) in &self.columns {
            let _ = write!(md, " {header} |");
        }
        md.push_str("\n|");
        md.push_str(&"---|".repeat(self.columns.len()));
        md.push('\n');
        for row in &self.rows {
            md.push('|');
            for cell in row {
                let _ = write!(md, " {} |", cell.md);
            }
            md.push('\n');
        }
        md
    }

    /// The rows as a JSON array of objects keyed in column order.
    pub fn json_rows(&self) -> Json {
        Json::Arr(
            self.rows
                .iter()
                .map(|row| {
                    Json::obj(
                        self.columns
                            .iter()
                            .zip(row)
                            .map(|((_, key), cell)| (key.clone(), cell.json.clone())),
                    )
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Sample", &[("name", "name"), ("ratio", "relative")]);
        t.push(vec![Cell::text("b"), Cell::fixed(1.5, 2)]);
        t.push(vec![Cell::text("a"), Cell::count(3)]);
        t
    }

    #[test]
    fn markdown_has_header_separator_and_rows_in_order() {
        assert_eq!(
            sample().markdown(),
            "## Sample\n\n| name | ratio |\n|---|---|\n| b | 1.50 |\n| a | 3 |\n"
        );
    }

    #[test]
    fn json_rows_are_keyed_in_column_order() {
        let rows = sample().json_rows();
        assert_eq!(
            rows.render(),
            r#"[{"name":"b","relative":1.5},{"name":"a","relative":3}]"#
        );
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn short_rows_are_rejected() {
        let mut t = sample();
        t.push(vec![Cell::text("c")]);
    }
}
