//! Aggregation functions applied to column slices during group-by.

use crate::column::Column;
use crate::error::{Result, TabularError};
use crate::value::cmp_nan_last;

/// An aggregation function over the numeric view of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFn {
    /// Number of non-null values.
    Count,
    /// Sum of values.
    Sum,
    /// Arithmetic mean.
    Mean,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Median (average of the two middle values for even counts).
    Median,
    /// Population standard deviation.
    Std,
}

impl AggFn {
    /// SQL-ish name used when naming output columns (`avg(Salary)`).
    pub fn name(self) -> &'static str {
        match self {
            AggFn::Count => "count",
            AggFn::Sum => "sum",
            AggFn::Mean => "avg",
            AggFn::Min => "min",
            AggFn::Max => "max",
            AggFn::Median => "median",
            AggFn::Std => "std",
        }
    }

    /// Applies the aggregation over the selected rows of a column. Nulls are
    /// ignored. Returns `None` when no non-null value is selected (except
    /// `Count`, which returns 0).
    pub fn apply(self, column: &Column, rows: &[usize]) -> Result<Option<f64>> {
        let numeric = column.to_f64();
        let mut values: Vec<f64> = Vec::with_capacity(rows.len());
        for &i in rows {
            if i >= numeric.len() {
                return Err(TabularError::RowOutOfBounds {
                    index: i,
                    len: numeric.len(),
                });
            }
            if let Some(v) = numeric[i] {
                values.push(v);
            } else if !column.is_null_at(i) {
                // Non-null but non-numeric (categorical): only Count is defined.
                if self != AggFn::Count {
                    return Err(TabularError::TypeMismatch {
                        column: column.name().to_string(),
                        expected: "numeric",
                        got: column.dtype().name(),
                    });
                }
                values.push(0.0);
            }
        }
        Ok(match self {
            AggFn::Count => Some(values.len() as f64),
            AggFn::Sum => {
                if values.is_empty() {
                    None
                } else {
                    Some(values.iter().sum())
                }
            }
            AggFn::Mean => {
                if values.is_empty() {
                    None
                } else {
                    Some(values.iter().sum::<f64>() / values.len() as f64)
                }
            }
            AggFn::Min => values.iter().cloned().fold(None, |acc: Option<f64>, v| {
                Some(acc.map_or(v, |a| a.min(v)))
            }),
            AggFn::Max => values.iter().cloned().fold(None, |acc: Option<f64>, v| {
                Some(acc.map_or(v, |a| a.max(v)))
            }),
            AggFn::Median => {
                if values.is_empty() {
                    None
                } else {
                    values.sort_by(|&a, &b| cmp_nan_last(a, b));
                    let mid = values.len() / 2;
                    Some(if values.len() % 2 == 1 {
                        values[mid]
                    } else {
                        (values[mid - 1] + values[mid]) / 2.0
                    })
                }
            }
            AggFn::Std => {
                if values.is_empty() {
                    None
                } else {
                    let mean = values.iter().sum::<f64>() / values.len() as f64;
                    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>()
                        / values.len() as f64;
                    Some(var.sqrt())
                }
            }
        })
    }

    /// Applies the aggregation over the full column.
    pub fn apply_all(self, column: &Column) -> Result<Option<f64>> {
        let rows: Vec<usize> = (0..column.len()).collect();
        self.apply(column, &rows)
    }
}

impl std::fmt::Display for AggFn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col() -> Column {
        Column::from_f64("x", vec![Some(1.0), Some(3.0), None, Some(2.0), Some(4.0)])
    }

    #[test]
    fn median_sorts_nan_cells_after_every_number() {
        // 14 numbers and 7 NaN cells: the 11th of the 21 sorted values is
        // the 11th smallest number.
        let cells: Vec<Option<f64>> = (0..21)
            .map(|i| {
                Some(if i % 3 == 0 {
                    f64::NAN
                } else {
                    ((i * 7) % 11) as f64
                })
            })
            .collect();
        let mut numbers: Vec<f64> = cells
            .iter()
            .flatten()
            .copied()
            .filter(|v| !v.is_nan())
            .collect();
        numbers.sort_by(f64::total_cmp);
        let col = Column::from_f64("x", cells);
        assert_eq!(AggFn::Median.apply_all(&col).unwrap(), Some(numbers[10]));
    }

    #[test]
    fn count_ignores_nulls() {
        assert_eq!(AggFn::Count.apply_all(&col()).unwrap(), Some(4.0));
    }

    #[test]
    fn sum_mean() {
        assert_eq!(AggFn::Sum.apply_all(&col()).unwrap(), Some(10.0));
        assert_eq!(AggFn::Mean.apply_all(&col()).unwrap(), Some(2.5));
    }

    #[test]
    fn min_max() {
        assert_eq!(AggFn::Min.apply_all(&col()).unwrap(), Some(1.0));
        assert_eq!(AggFn::Max.apply_all(&col()).unwrap(), Some(4.0));
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(AggFn::Median.apply_all(&col()).unwrap(), Some(2.5));
        let odd = Column::from_f64("x", vec![Some(5.0), Some(1.0), Some(3.0)]);
        assert_eq!(AggFn::Median.apply_all(&odd).unwrap(), Some(3.0));
    }

    #[test]
    fn std_population() {
        let c = Column::from_f64("x", vec![Some(2.0), Some(4.0)]);
        assert_eq!(AggFn::Std.apply_all(&c).unwrap(), Some(1.0));
    }

    #[test]
    fn subset_rows() {
        let c = col();
        assert_eq!(AggFn::Mean.apply(&c, &[0, 1]).unwrap(), Some(2.0));
        assert_eq!(AggFn::Sum.apply(&c, &[2]).unwrap(), None);
        assert_eq!(AggFn::Count.apply(&c, &[2]).unwrap(), Some(0.0));
        assert!(AggFn::Mean.apply(&c, &[99]).is_err());
    }

    #[test]
    fn empty_selection() {
        let c = col();
        assert_eq!(AggFn::Mean.apply(&c, &[]).unwrap(), None);
        assert_eq!(AggFn::Count.apply(&c, &[]).unwrap(), Some(0.0));
        assert_eq!(AggFn::Min.apply(&c, &[]).unwrap(), None);
    }

    #[test]
    fn categorical_only_count() {
        let c = Column::from_str_values("c", vec![Some("a"), Some("b"), None]);
        assert_eq!(AggFn::Count.apply_all(&c).unwrap(), Some(2.0));
        assert!(AggFn::Mean.apply_all(&c).is_err());
    }

    #[test]
    fn names() {
        assert_eq!(AggFn::Mean.name(), "avg");
        assert_eq!(AggFn::Mean.to_string(), "avg");
        assert_eq!(AggFn::Std.name(), "std");
    }
}
