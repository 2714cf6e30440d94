//! The in-memory relational table: an ordered collection of equal-length
//! [`Column`]s.

use std::collections::HashMap;
use std::fmt;

use crate::column::Column;
use crate::error::{Result, TabularError};
use crate::value::Value;

/// A named, ordered collection of equal-length columns.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DataFrame {
    columns: Vec<Column>,
    index: HashMap<String, usize>,
}

impl DataFrame {
    /// Creates an empty frame with no columns and no rows.
    pub fn new() -> Self {
        DataFrame::default()
    }

    /// Creates a frame from columns, validating that all lengths match and
    /// names are unique.
    pub fn from_columns(columns: Vec<Column>) -> Result<Self> {
        let mut df = DataFrame::new();
        for c in columns {
            df.add_column(c)?;
        }
        Ok(df)
    }

    /// Number of rows (0 if the frame has no columns).
    pub fn n_rows(&self) -> usize {
        self.columns.first().map(|c| c.len()).unwrap_or(0)
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    /// Whether the frame has no rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows() == 0
    }

    /// Approximate heap footprint in bytes: the sum of
    /// [`Column::approx_bytes`] over all columns. Used by cache byte
    /// budgets.
    pub fn approx_bytes(&self) -> usize {
        self.columns.iter().map(Column::approx_bytes).sum()
    }

    /// Column names in order.
    pub fn column_names(&self) -> Vec<&str> {
        self.columns.iter().map(|c| c.name()).collect()
    }

    /// Whether a column with this name exists.
    pub fn has_column(&self, name: &str) -> bool {
        self.index.contains_key(name)
    }

    /// Borrows a column by name.
    pub fn column(&self, name: &str) -> Result<&Column> {
        self.index
            .get(name)
            .map(|&i| &self.columns[i])
            .ok_or_else(|| TabularError::ColumnNotFound(name.to_string()))
    }

    /// Mutably borrows a column by name.
    pub fn column_mut(&mut self, name: &str) -> Result<&mut Column> {
        match self.index.get(name) {
            Some(&i) => Ok(&mut self.columns[i]),
            None => Err(TabularError::ColumnNotFound(name.to_string())),
        }
    }

    /// Iterates all columns in order.
    pub fn columns(&self) -> impl Iterator<Item = &Column> {
        self.columns.iter()
    }

    /// Mutably iterates all columns in order. Crate-internal: a caller must
    /// leave every column's name and length as they are, since the name
    /// index and the row count rely on them.
    pub(crate) fn columns_mut(&mut self) -> impl Iterator<Item = &mut Column> {
        self.columns.iter_mut()
    }

    /// Appends a new column. Its length must match the frame (unless the frame
    /// has no columns yet) and its name must be unique.
    pub fn add_column(&mut self, column: Column) -> Result<()> {
        if self.has_column(column.name()) {
            return Err(TabularError::DuplicateColumn(column.name().to_string()));
        }
        if !self.columns.is_empty() && column.len() != self.n_rows() {
            return Err(TabularError::LengthMismatch {
                expected: self.n_rows(),
                got: column.len(),
            });
        }
        self.index
            .insert(column.name().to_string(), self.columns.len());
        self.columns.push(column);
        Ok(())
    }

    /// Replaces an existing column with the same name, or adds it if absent.
    pub fn set_column(&mut self, column: Column) -> Result<()> {
        if !self.columns.is_empty() && column.len() != self.n_rows() {
            return Err(TabularError::LengthMismatch {
                expected: self.n_rows(),
                got: column.len(),
            });
        }
        match self.index.get(column.name()) {
            Some(&i) => {
                self.columns[i] = column;
                Ok(())
            }
            None => self.add_column(column),
        }
    }

    /// Removes and returns a column.
    pub fn drop_column(&mut self, name: &str) -> Result<Column> {
        let i = *self
            .index
            .get(name)
            .ok_or_else(|| TabularError::ColumnNotFound(name.to_string()))?;
        let col = self.columns.remove(i);
        self.rebuild_index();
        Ok(col)
    }

    fn rebuild_index(&mut self) {
        self.index = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| (c.name().to_string(), i))
            .collect();
    }

    /// Returns a new frame containing only the named columns, in the given
    /// order.
    pub fn select(&self, names: &[&str]) -> Result<DataFrame> {
        let mut cols = Vec::with_capacity(names.len());
        for &n in names {
            cols.push(self.column(n)?.clone());
        }
        DataFrame::from_columns(cols)
    }

    /// Returns a new frame with the rows at `indices` (duplicates and
    /// reordering allowed).
    pub fn take(&self, indices: &[usize]) -> DataFrame {
        let columns = self.columns.iter().map(|c| c.take(indices)).collect();
        DataFrame {
            columns,
            index: self.index.clone(),
        }
    }

    /// Returns a new frame keeping rows where `mask` is true.
    pub fn filter_mask(&self, mask: &[bool]) -> Result<DataFrame> {
        if mask.len() != self.n_rows() {
            return Err(TabularError::LengthMismatch {
                expected: self.n_rows(),
                got: mask.len(),
            });
        }
        let indices: Vec<usize> = mask
            .iter()
            .enumerate()
            .filter(|(_, &m)| m)
            .map(|(i, _)| i)
            .collect();
        Ok(self.take(&indices))
    }

    /// Returns the first `n` rows.
    pub fn head(&self, n: usize) -> DataFrame {
        let indices: Vec<usize> = (0..self.n_rows().min(n)).collect();
        self.take(&indices)
    }

    /// Fetches a single cell.
    pub fn get(&self, row: usize, column: &str) -> Result<Value> {
        self.column(column)?.get(row)
    }

    /// Returns one row as `(column name, value)` pairs.
    pub fn row(&self, i: usize) -> Result<Vec<(String, Value)>> {
        if i >= self.n_rows() {
            return Err(TabularError::RowOutOfBounds {
                index: i,
                len: self.n_rows(),
            });
        }
        self.columns
            .iter()
            .map(|c| Ok((c.name().to_string(), c.get(i)?)))
            .collect()
    }

    /// Vertically stacks another frame with the same schema (same column
    /// names, same order not required).
    pub fn vstack(&mut self, other: &DataFrame) -> Result<()> {
        if self.n_cols() != other.n_cols() {
            return Err(TabularError::LengthMismatch {
                expected: self.n_cols(),
                got: other.n_cols(),
            });
        }
        // Validate first so a failure cannot leave the frame partially stacked.
        for col in &self.columns {
            let o = other.column(col.name())?;
            if o.dtype() != col.dtype() {
                return Err(TabularError::TypeMismatch {
                    column: col.name().to_string(),
                    expected: col.dtype().name(),
                    got: o.dtype().name(),
                });
            }
        }
        for col in &mut self.columns {
            let o = other.column(col.name()).expect("validated above");
            col.append(o)?;
        }
        Ok(())
    }

    /// Returns the row indices that sort the frame by the given column
    /// (ascending by [`Value::total_cmp`]: nulls first, NaN after every
    /// number). Ties keep their original order.
    pub fn argsort_by(&self, column: &str) -> Result<Vec<usize>> {
        let col = self.column(column)?;
        let mut idx: Vec<usize> = (0..col.len()).collect();
        idx.sort_by(|&a, &b| {
            let va = col.get(a).expect("in range");
            let vb = col.get(b).expect("in range");
            va.total_cmp(&vb)
        });
        Ok(idx)
    }

    /// Returns a new frame sorted by the given column (ascending).
    pub fn sort_by(&self, column: &str) -> Result<DataFrame> {
        Ok(self.take(&self.argsort_by(column)?))
    }

    /// Renders the frame as an aligned text table; `max_rows` limits output.
    pub fn to_pretty_string(&self, max_rows: usize) -> String {
        let names = self.column_names();
        let shown = self.n_rows().min(max_rows);
        let mut widths: Vec<usize> = names.iter().map(|n| n.len()).collect();
        let mut cells: Vec<Vec<String>> = Vec::with_capacity(shown);
        for i in 0..shown {
            let mut row = Vec::with_capacity(names.len());
            for (j, c) in self.columns.iter().enumerate() {
                let s = c.get(i).map(|v| v.render()).unwrap_or_default();
                widths[j] = widths[j].max(s.len());
                row.push(s);
            }
            cells.push(row);
        }
        let mut out = String::new();
        let header: Vec<String> = names
            .iter()
            .zip(&widths)
            .map(|(n, w)| format!("{n:<w$}", w = *w))
            .collect();
        out.push_str(&header.join(" | "));
        out.push('\n');
        out.push_str(
            &widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("-+-"),
        );
        out.push('\n');
        for row in cells {
            let line: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(s, w)| format!("{s:<w$}", w = *w))
                .collect();
            out.push_str(&line.join(" | "));
            out.push('\n');
        }
        if self.n_rows() > shown {
            out.push_str(&format!("... ({} more rows)\n", self.n_rows() - shown));
        }
        out
    }
}

impl fmt::Display for DataFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_pretty_string(20))
    }
}

/// Convenience macro-free builder used pervasively in tests and examples.
pub struct DataFrameBuilder {
    df: DataFrame,
    error: Option<TabularError>,
}

impl DataFrameBuilder {
    /// Starts an empty builder.
    pub fn new() -> Self {
        DataFrameBuilder {
            df: DataFrame::new(),
            error: None,
        }
    }

    /// Adds an integer column.
    pub fn int(mut self, name: &str, values: Vec<Option<i64>>) -> Self {
        self.push(Column::from_i64(name, values));
        self
    }

    /// Adds a float column.
    pub fn float(mut self, name: &str, values: Vec<Option<f64>>) -> Self {
        self.push(Column::from_f64(name, values));
        self
    }

    /// Adds a categorical column.
    pub fn cat(mut self, name: &str, values: Vec<Option<&str>>) -> Self {
        self.push(Column::from_str_values(name, values));
        self
    }

    /// Adds a boolean column.
    pub fn boolean(mut self, name: &str, values: Vec<Option<bool>>) -> Self {
        self.push(Column::from_bool(name, values));
        self
    }

    /// Adds an already-built column.
    pub fn column(mut self, column: Column) -> Self {
        self.push(column);
        self
    }

    fn push(&mut self, column: Column) {
        if self.error.is_none() {
            if let Err(e) = self.df.add_column(column) {
                self.error = Some(e);
            }
        }
    }

    /// Finishes the builder.
    pub fn build(self) -> Result<DataFrame> {
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.df),
        }
    }
}

impl Default for DataFrameBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorting_by_a_float_column_with_nan_cells_puts_them_last() {
        // 21 cells, every third one NaN and one null: enough rows that a
        // sort by a comparator that is not a total order panics.
        let mut cells: Vec<Option<f64>> = (0..21)
            .map(|i| {
                Some(if i % 3 == 0 {
                    f64::NAN
                } else {
                    f64::from(i * 7 % 11)
                })
            })
            .collect();
        cells[1] = None;
        let df = DataFrameBuilder::new().float("x", cells).build().unwrap();
        let sorted = df.sort_by("x").unwrap().column("x").unwrap().to_f64();
        assert_eq!(sorted[0], None);
        let numbers: Vec<f64> = sorted[1..14].iter().map(|v| v.unwrap()).collect();
        assert!(numbers.windows(2).all(|w| w[0] <= w[1]), "{numbers:?}");
        assert!(sorted[14..].iter().all(|v| v.unwrap().is_nan()));
    }

    fn sample() -> DataFrame {
        DataFrameBuilder::new()
            .cat(
                "country",
                vec![Some("DE"), Some("US"), Some("DE"), Some("FR")],
            )
            .float("salary", vec![Some(60.0), Some(90.0), Some(65.0), None])
            .int("age", vec![Some(30), Some(40), Some(35), Some(28)])
            .build()
            .unwrap()
    }

    #[test]
    fn build_and_shape() {
        let df = sample();
        assert_eq!(df.n_rows(), 4);
        assert_eq!(df.n_cols(), 3);
        assert_eq!(df.column_names(), vec!["country", "salary", "age"]);
        assert!(df.has_column("salary"));
        assert!(!df.has_column("missing"));
    }

    #[test]
    fn duplicate_and_mismatched_columns_rejected() {
        let mut df = sample();
        assert!(matches!(
            df.add_column(Column::from_i64("age", vec![Some(1); 4])),
            Err(TabularError::DuplicateColumn(_))
        ));
        assert!(matches!(
            df.add_column(Column::from_i64("x", vec![Some(1); 3])),
            Err(TabularError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn select_take_filter() {
        let df = sample();
        let s = df.select(&["salary", "country"]).unwrap();
        assert_eq!(s.column_names(), vec!["salary", "country"]);
        assert!(df.select(&["nope"]).is_err());

        let t = df.take(&[2, 0]);
        assert_eq!(t.get(0, "country").unwrap(), Value::Str("DE".into()));
        assert_eq!(t.get(0, "salary").unwrap(), Value::Float(65.0));

        let f = df.filter_mask(&[true, false, false, true]).unwrap();
        assert_eq!(f.n_rows(), 2);
        assert_eq!(f.get(1, "country").unwrap(), Value::Str("FR".into()));
        assert!(df.filter_mask(&[true]).is_err());
    }

    #[test]
    fn drop_and_set_column() {
        let mut df = sample();
        let dropped = df.drop_column("salary").unwrap();
        assert_eq!(dropped.name(), "salary");
        assert_eq!(df.n_cols(), 2);
        assert!(df.column("salary").is_err());
        // index still consistent after removal
        assert_eq!(df.get(3, "age").unwrap(), Value::Int(28));

        df.set_column(Column::from_i64(
            "age",
            vec![Some(1), Some(2), Some(3), Some(4)],
        ))
        .unwrap();
        assert_eq!(df.get(0, "age").unwrap(), Value::Int(1));
        df.set_column(Column::from_f64("new", vec![Some(0.0); 4]))
            .unwrap();
        assert!(df.has_column("new"));
    }

    #[test]
    fn rows_and_cells() {
        let df = sample();
        let row = df.row(1).unwrap();
        assert_eq!(row[0], ("country".to_string(), Value::Str("US".into())));
        assert!(df.row(9).is_err());
        assert_eq!(df.get(3, "salary").unwrap(), Value::Null);
    }

    #[test]
    fn vstack_frames() {
        let mut a = sample();
        let b = sample();
        a.vstack(&b).unwrap();
        assert_eq!(a.n_rows(), 8);
        assert_eq!(a.get(4, "country").unwrap(), Value::Str("DE".into()));

        let mut c = sample();
        let bad = DataFrameBuilder::new()
            .cat("country", vec![Some("X")])
            .build()
            .unwrap();
        assert!(c.vstack(&bad).is_err());
    }

    #[test]
    fn sorting() {
        let df = sample();
        let sorted = df.sort_by("age").unwrap();
        assert_eq!(sorted.get(0, "age").unwrap(), Value::Int(28));
        assert_eq!(sorted.get(3, "age").unwrap(), Value::Int(40));
        // nulls first for salary
        let by_salary = df.sort_by("salary").unwrap();
        assert_eq!(by_salary.get(0, "salary").unwrap(), Value::Null);
    }

    #[test]
    fn head_and_display() {
        let df = sample();
        assert_eq!(df.head(2).n_rows(), 2);
        let text = df.to_pretty_string(2);
        assert!(text.contains("country"));
        assert!(text.contains("more rows"));
        assert!(!format!("{df}").is_empty());
    }

    #[test]
    fn empty_frame() {
        let df = DataFrame::new();
        assert_eq!(df.n_rows(), 0);
        assert!(df.is_empty());
        assert_eq!(df.head(5).n_rows(), 0);
    }
}
