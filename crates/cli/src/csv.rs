//! Minimal CSV reading/writing for numeric preference data.
//!
//! Deliberately tiny: comma separation, one header line, optional
//! leading identifier column, `f64` cells, no quoting. This covers the
//! tool's contract without pulling a parser dependency into the
//! workspace.

use std::fmt::Write as _;

/// A parsed numeric table: column names, optional row identifiers, and
/// row-major values.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Table {
    /// Names of the numeric columns (identifier column excluded).
    pub columns: Vec<String>,
    /// Row identifiers: the first column if it is non-numeric, else
    /// `row0..rowN` synthesized.
    pub ids: Vec<String>,
    /// Row-major numeric values, `ids.len() × columns.len()`.
    pub values: Vec<f64>,
}

impl Table {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.ids.len()
    }

    /// Borrow row `i`'s numeric values.
    pub fn row(&self, i: usize) -> &[f64] {
        let w = self.columns.len();
        &self.values[i * w..(i + 1) * w]
    }
}

/// Parse CSV text into a [`Table`].
///
/// The first line is the header. If every data row's first cell fails
/// to parse as `f64`, the first column is treated as the identifier
/// column; otherwise identifiers are synthesized.
pub(crate) fn parse(text: &str) -> Result<Table, String> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header: Vec<String> = lines
        .next()
        .ok_or("empty CSV input")?
        .split(',')
        .map(|c| c.trim().to_string())
        .collect();
    if header.is_empty() {
        return Err("CSV header has no columns".into());
    }

    let rows: Vec<Vec<&str>> = lines
        .map(|l| l.split(',').map(str::trim).collect())
        .collect();
    if rows.is_empty() {
        return Err("CSV has a header but no data rows".into());
    }
    for (i, r) in rows.iter().enumerate() {
        if r.len() != header.len() {
            return Err(format!(
                "row {} has {} cells but the header has {} columns",
                i + 1,
                r.len(),
                header.len()
            ));
        }
    }

    let first_col_numeric = rows.iter().all(|r| r[0].parse::<f64>().is_ok());
    let (columns, id_offset): (Vec<String>, usize) = if first_col_numeric {
        (header.clone(), 0)
    } else {
        (header[1..].to_vec(), 1)
    };
    if columns.is_empty() {
        return Err("CSV has no numeric columns".into());
    }

    let mut ids = Vec::with_capacity(rows.len());
    let mut values = Vec::with_capacity(rows.len() * columns.len());
    for (i, r) in rows.iter().enumerate() {
        ids.push(if id_offset == 1 {
            r[0].to_string()
        } else {
            format!("row{i}")
        });
        for (j, cell) in r[id_offset..].iter().enumerate() {
            let v: f64 = cell.parse().map_err(|_| {
                format!(
                    "row {} column '{}': '{}' is not a number",
                    i + 1,
                    columns[j],
                    cell
                )
            })?;
            if !v.is_finite() {
                return Err(format!(
                    "row {} column '{}': non-finite value",
                    i + 1,
                    columns[j]
                ));
            }
            values.push(v);
        }
    }
    Ok(Table {
        columns,
        ids,
        values,
    })
}

/// Serialize rows of `(cells...)` with a header into CSV text.
pub(crate) fn write_rows(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{}", header.join(","));
    for r in rows {
        let _ = writeln!(out, "{}", r.join(","));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_numeric_table_with_synthesized_ids() {
        let t = parse("a,b\n0.1,0.2\n0.3,0.4\n").unwrap();
        assert_eq!(t.columns, vec!["a", "b"]);
        assert_eq!(t.ids, vec!["row0", "row1"]);
        assert_eq!(t.row(1), &[0.3, 0.4]);
    }

    #[test]
    fn detects_identifier_column() {
        let t = parse("name,x,y\nalpha,1,2\nbeta,3,4\n").unwrap();
        assert_eq!(t.columns, vec!["x", "y"]);
        assert_eq!(t.ids, vec!["alpha", "beta"]);
        assert_eq!(t.row(0), &[1.0, 2.0]);
    }

    #[test]
    fn numeric_looking_first_column_stays_data() {
        let t = parse("x,y\n1,2\n3,4\n").unwrap();
        assert_eq!(t.columns.len(), 2);
        assert_eq!(t.row(0), &[1.0, 2.0]);
    }

    #[test]
    fn ragged_rows_are_rejected() {
        let err = parse("a,b\n1,2\n3\n").unwrap_err();
        assert!(err.contains("row 2"), "got: {err}");
    }

    #[test]
    fn garbage_cells_are_rejected() {
        let err = parse("a,b\n1,zebra\n").unwrap_err();
        assert!(err.contains("zebra"), "got: {err}");
    }

    #[test]
    fn empty_inputs_are_rejected() {
        assert!(parse("").is_err());
        assert!(parse("a,b\n").is_err());
    }

    #[test]
    fn round_trip_output() {
        let text = write_rows(
            &["user", "object", "score"],
            &[
                vec!["u1".into(), "o7".into(), "0.93".into()],
                vec!["u2".into(), "o3".into(), "0.88".into()],
            ],
        );
        assert_eq!(text, "user,object,score\nu1,o7,0.93\nu2,o3,0.88\n");
    }
}
