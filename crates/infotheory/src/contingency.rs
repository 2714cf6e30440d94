//! Weighted joint count tables over encoded (discrete) columns.
//!
//! Every estimator in this crate reduces to plug-in entropies computed from a
//! joint count table. Rows with a missing value in *any* of the involved
//! columns are dropped (complete-case analysis); Inverse Probability Weighting
//! re-weights the remaining rows, which is why every count is an `f64` weight
//! rather than an integer.
//!
//! Storage is delegated to the [`kernel`] module: small cross
//! products (the overwhelmingly common case after binning) are accumulated
//! into a flat dense vector via mixed-radix code packing; larger ones fall
//! back to the sparse hash-map path.

use tabular::{ColumnView, EncodedColumn, TabularError};

use crate::kernel::{self, JointCounts};

/// A weighted joint distribution over the cross product of a set of encoded
/// columns.
#[derive(Debug, Clone)]
pub struct JointTable {
    /// Weighted count per observed joint key (dense or sparse).
    counts: JointCounts,
    /// Total weight over all observed keys.
    total: f64,
    /// Number of rows that participated (complete cases).
    complete_cases: usize,
    /// Number of dimensions (columns) the table spans.
    n_dims: usize,
}

impl JointTable {
    /// Builds the joint table of `columns` over rows `0..n`, where `n` is the
    /// common length of the columns.
    ///
    /// * Rows with a missing value in any column are skipped.
    /// * `weights`, when given, must have the same length as the columns and
    ///   assigns a non-negative weight to each row (IPW weights). Without
    ///   weights every complete row counts 1. Rows with zero weight are
    ///   skipped.
    ///
    /// # Panics
    /// Panics if the columns (or the weight vector) have inconsistent
    /// lengths, or if any weight is negative or non-finite (NaN / infinite
    /// weights would silently corrupt the counts).
    pub fn build(columns: &[&EncodedColumn], weights: Option<&[f64]>) -> Self {
        let n = columns.first().map(|c| c.len()).unwrap_or(0);
        Self::build_with_threshold(columns, weights, kernel::adaptive_dense_cells(n))
    }

    /// Like [`build`](JointTable::build) but with an explicit dense-cell
    /// threshold: cross products with at most `dense_cells` cells use the
    /// dense kernel, larger ones the sparse hash path. `0` forces sparse.
    pub fn build_with_threshold(
        columns: &[&EncodedColumn],
        weights: Option<&[f64]>,
        dense_cells: usize,
    ) -> Self {
        Self::try_build_with_threshold(columns, weights, dense_cells)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`build`](JointTable::build) with the length/weight contract
    /// surfaced as a structured [`TabularError`] instead of a panic — the
    /// serving-path entry point.
    pub fn try_build(
        columns: &[&EncodedColumn],
        weights: Option<&[f64]>,
    ) -> Result<Self, TabularError> {
        let n = columns.first().map(|c| c.len()).unwrap_or(0);
        Self::try_build_with_threshold(columns, weights, kernel::adaptive_dense_cells(n))
    }

    /// [`build_with_threshold`](JointTable::build_with_threshold), returning
    /// contract violations as [`TabularError::InvalidArgument`].
    pub fn try_build_with_threshold(
        columns: &[&EncodedColumn],
        weights: Option<&[f64]>,
        dense_cells: usize,
    ) -> Result<Self, TabularError> {
        let acc = kernel::try_accumulate(columns, weights, dense_cells)?;
        Ok(JointTable {
            counts: acc.counts,
            total: acc.total,
            complete_cases: acc.complete_cases,
            n_dims: columns.len(),
        })
    }

    /// Builds the joint table over columns in either lifecycle state
    /// (mutable or sealed). Semantics are identical to
    /// [`build`](JointTable::build); sealed columns are folded through the
    /// run-aware kernel paths without decoding, with bit-identical results.
    pub fn build_views(columns: &[ColumnView<'_>], weights: Option<&[f64]>) -> Self {
        let n = columns.first().map(|c| c.len()).unwrap_or(0);
        Self::build_views_with_threshold(columns, weights, kernel::adaptive_dense_cells(n))
    }

    /// Like [`build_views`](JointTable::build_views) with an explicit
    /// dense-cell threshold (see
    /// [`build_with_threshold`](JointTable::build_with_threshold)).
    pub fn build_views_with_threshold(
        columns: &[ColumnView<'_>],
        weights: Option<&[f64]>,
        dense_cells: usize,
    ) -> Self {
        Self::try_build_views_with_threshold(columns, weights, dense_cells)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`build_views`](JointTable::build_views) with contract violations
    /// returned as [`TabularError::InvalidArgument`] instead of panicking.
    pub fn try_build_views(
        columns: &[ColumnView<'_>],
        weights: Option<&[f64]>,
    ) -> Result<Self, TabularError> {
        let n = columns.first().map(|c| c.len()).unwrap_or(0);
        Self::try_build_views_with_threshold(columns, weights, kernel::adaptive_dense_cells(n))
    }

    /// [`build_views_with_threshold`](JointTable::build_views_with_threshold),
    /// returning contract violations as [`TabularError::InvalidArgument`].
    pub fn try_build_views_with_threshold(
        columns: &[ColumnView<'_>],
        weights: Option<&[f64]>,
        dense_cells: usize,
    ) -> Result<Self, TabularError> {
        let acc = kernel::try_accumulate_views(columns, weights, dense_cells)?;
        Ok(JointTable {
            counts: acc.counts,
            total: acc.total,
            complete_cases: acc.complete_cases,
            n_dims: columns.len(),
        })
    }

    /// Whether the table is stored densely.
    pub fn is_dense(&self) -> bool {
        matches!(self.counts, JointCounts::Dense { .. })
    }

    /// Total weight of the table.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Number of complete-case rows that contributed.
    pub fn complete_cases(&self) -> usize {
        self.complete_cases
    }

    /// Number of dimensions: the columns the table was built over, or the
    /// dimensions a [`marginal`](JointTable::marginal) kept.
    pub fn n_dims(&self) -> usize {
        self.n_dims
    }

    /// Number of observed (non-zero) cells.
    pub fn n_cells(&self) -> usize {
        self.counts.n_cells()
    }

    /// Whether no row survived the complete-case filter.
    pub fn is_empty(&self) -> bool {
        self.complete_cases == 0 || self.total <= 0.0
    }

    /// Iterates `(joint key, weighted count)` pairs of the observed cells.
    pub fn iter(&self) -> impl Iterator<Item = (Vec<u32>, f64)> + '_ {
        self.counts.iter_keyed()
    }

    /// Plug-in Shannon entropy (base 2) of the joint distribution.
    pub fn entropy(&self) -> f64 {
        self.counts.entropy(self.total)
    }

    /// Marginalises the table onto a subset of its dimensions (by position).
    pub fn marginal(&self, dims: &[usize]) -> JointTable {
        JointTable {
            counts: self.counts.marginalize(dims),
            total: self.total,
            complete_cases: self.complete_cases,
            n_dims: dims.len(),
        }
    }

    /// The probability of a specific joint key (0 when unobserved).
    pub fn probability(&self, key: &[u32]) -> f64 {
        if self.total <= 0.0 {
            return 0.0;
        }
        self.counts.get(key) / self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabular::Column;

    fn enc(vals: &[Option<&str>]) -> EncodedColumn {
        Column::from_str_values("c", vals.to_vec()).encode()
    }

    #[test]
    fn builds_counts_and_total() {
        let x = enc(&[Some("a"), Some("a"), Some("b"), Some("b")]);
        let y = enc(&[Some("0"), Some("1"), Some("0"), Some("1")]);
        let t = JointTable::build(&[&x, &y], None);
        assert_eq!(t.n_cells(), 4);
        assert_eq!(t.total(), 4.0);
        assert_eq!(t.complete_cases(), 4);
        assert!((t.probability(&[0, 0]) - 0.25).abs() < 1e-12);
        assert_eq!(t.probability(&[9, 9]), 0.0);
    }

    #[test]
    fn missing_rows_are_dropped() {
        let x = enc(&[Some("a"), None, Some("b")]);
        let y = enc(&[Some("0"), Some("1"), None]);
        let t = JointTable::build(&[&x, &y], None);
        assert_eq!(t.complete_cases(), 1);
        assert_eq!(t.total(), 1.0);
    }

    #[test]
    fn weights_scale_counts() {
        let x = enc(&[Some("a"), Some("b")]);
        let t = JointTable::build(&[&x], Some(&[2.0, 6.0]));
        assert_eq!(t.total(), 8.0);
        assert!((t.probability(&[1]) - 0.75).abs() < 1e-12);
        // zero / negative weights are skipped
        let t = JointTable::build(&[&x], Some(&[0.0, 1.0]));
        assert_eq!(t.complete_cases(), 1);
    }

    #[test]
    fn entropy_uniform_and_deterministic() {
        let x = enc(&[Some("a"), Some("b"), Some("c"), Some("d")]);
        let t = JointTable::build(&[&x], None);
        assert!((t.entropy() - 2.0).abs() < 1e-12);
        let y = enc(&[Some("a"), Some("a")]);
        assert_eq!(JointTable::build(&[&y], None).entropy(), 0.0);
        let empty = enc(&[None, None]);
        assert_eq!(JointTable::build(&[&empty], None).entropy(), 0.0);
    }

    #[test]
    fn marginalisation_preserves_total() {
        let x = enc(&[Some("a"), Some("a"), Some("b"), Some("b")]);
        let y = enc(&[Some("0"), Some("1"), Some("0"), Some("1")]);
        let t = JointTable::build(&[&x, &y], None);
        let mx = t.marginal(&[0]);
        assert_eq!(mx.total(), t.total());
        assert_eq!(mx.n_cells(), 2);
        assert!((mx.probability(&[0]) - 0.5).abs() < 1e-12);
        assert!((mx.entropy() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_lengths_panic() {
        let x = enc(&[Some("a")]);
        let y = enc(&[Some("a"), Some("b")]);
        JointTable::build(&[&x, &y], None);
    }

    #[test]
    fn dense_and_sparse_tables_agree() {
        let x = enc(&[Some("a"), Some("a"), Some("b"), None, Some("b"), Some("c")]);
        let y = enc(&[Some("0"), Some("1"), Some("0"), Some("1"), None, Some("1")]);
        let w = [1.0, 2.0, 0.5, 1.0, 1.0, 3.0];
        let dense = JointTable::build(&[&x, &y], Some(&w));
        let sparse = JointTable::build_with_threshold(&[&x, &y], Some(&w), 0);
        assert!(dense.is_dense());
        assert!(!sparse.is_dense());
        assert_eq!(dense.total(), sparse.total());
        assert_eq!(dense.complete_cases(), sparse.complete_cases());
        assert_eq!(dense.n_cells(), sparse.n_cells());
        assert!((dense.entropy() - sparse.entropy()).abs() < 1e-12);
        for dims in [vec![0], vec![1]] {
            let dm = dense.marginal(&dims);
            let sm = sparse.marginal(&dims);
            assert!((dm.entropy() - sm.entropy()).abs() < 1e-12);
            assert_eq!(dm.n_cells(), sm.n_cells());
        }
        assert!((dense.probability(&[0, 1]) - sparse.probability(&[0, 1])).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "invalid IPW weight")]
    fn non_finite_weights_are_rejected() {
        let x = enc(&[Some("a"), Some("b")]);
        JointTable::build(&[&x], Some(&[1.0, f64::INFINITY]));
    }

    #[test]
    #[should_panic(expected = "invalid IPW weight")]
    fn negative_weights_are_rejected() {
        let x = enc(&[Some("a"), Some("b")]);
        JointTable::build(&[&x], Some(&[-1.0, 1.0]));
    }
}
