//! A cache of encoded columns over a [`DataFrame`], exposing the
//! information-theoretic measures by column name.
//!
//! MESA evaluates hundreds of CMI terms against the same frame while running
//! MCIMR; encoding each column once and reusing the codes is what keeps the
//! algorithm fast on the multi-million-row Flights workload.

use std::collections::HashMap;

use tabular::{DataFrame, EncodedColumn, Encoding, Result, TabularError};

use crate::independence::{self, CiTestConfig, CiTestResult};
use crate::measures;

/// The per-column outcome of sealing a frame: which encoding was selected and
/// the byte accounting that drove the selection. Unsealed columns report
/// [`Encoding::Dense`] with equal dense and sealed byte counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnEncodingReport {
    /// Column name.
    pub name: String,
    /// Selected physical encoding.
    pub encoding: Encoding,
    /// Number of distinct codes.
    pub cardinality: usize,
    /// Bytes of the dense code vector.
    pub dense_bytes: usize,
    /// Bytes of the code payload in the selected encoding.
    pub sealed_bytes: usize,
}

/// Encoded view of a frame: one [`EncodedColumn`] per original column, in
/// the dense layout encoding produces until [`seal`](EncodedFrame::seal)
/// re-lays each out. Every measure reads every layout in place, with
/// bit-identical results.
#[derive(Debug, Clone)]
pub struct EncodedFrame {
    columns: HashMap<String, EncodedColumn>,
    n_rows: usize,
}

impl EncodedFrame {
    /// Encodes every column of the frame.
    pub fn from_frame(df: &DataFrame) -> Self {
        let columns = df
            .columns()
            .map(|c| (c.name().to_string(), c.encode()))
            .collect();
        EncodedFrame {
            columns,
            n_rows: df.n_rows(),
        }
    }

    /// Encodes the frame, reusing precomputed encodings where available.
    ///
    /// `precomputed` maps column names to encodings already produced upstream
    /// (the binning pass emits the bin codes of every column it bins); those
    /// columns are not re-encoded. Each precomputed encoding must describe the
    /// frame's column of the same name — same length, same row order. A
    /// precomputed encoding whose length differs from the frame's row count
    /// would silently mis-score every measure, so it is returned as
    /// [`TabularError::InvalidArgument`].
    pub fn from_frame_with(
        df: &DataFrame,
        precomputed: Vec<(String, EncodedColumn)>,
    ) -> Result<Self> {
        let n_rows = df.n_rows();
        let mut pre: HashMap<String, EncodedColumn> = HashMap::with_capacity(precomputed.len());
        for (name, enc) in precomputed {
            if enc.len() != n_rows {
                return Err(TabularError::InvalidArgument(format!(
                    "precomputed encoding for {name:?} has {} rows, frame has {n_rows}",
                    enc.len()
                )));
            }
            pre.insert(name, enc);
        }
        let columns = df
            .columns()
            .map(|c| {
                let enc = pre.remove(c.name()).unwrap_or_else(|| c.encode());
                (c.name().to_string(), enc)
            })
            .collect();
        Ok(EncodedFrame { columns, n_rows })
    }

    /// Encodes only the named columns of the frame.
    pub fn from_frame_columns(df: &DataFrame, names: &[&str]) -> Result<Self> {
        let mut columns = HashMap::with_capacity(names.len());
        for &n in names {
            columns.insert(n.to_string(), df.column(n)?.encode());
        }
        Ok(EncodedFrame {
            columns,
            n_rows: df.n_rows(),
        })
    }

    /// Number of rows in the underlying frame.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Names of the encoded columns (unordered).
    pub fn column_names(&self) -> Vec<&str> {
        self.columns.keys().map(|s| s.as_str()).collect()
    }

    /// Whether a column is present.
    pub fn has_column(&self, name: &str) -> bool {
        self.columns.contains_key(name)
    }

    /// Borrows a column.
    pub fn column(&self, name: &str) -> Result<&EncodedColumn> {
        self.columns
            .get(name)
            .ok_or_else(|| TabularError::ColumnNotFound(name.to_string()))
    }

    /// Seals every column in place, re-laying its codes out in the narrowest
    /// byte-aligned width its cardinality admits (see
    /// [`EncodedColumn::seal`]). Sealed columns are left untouched, so on a
    /// frame that MESA's preparation already sealed this does nothing. Every
    /// measure returns bit-identical results before and after sealing.
    pub fn seal(&mut self) {
        for col in self.columns.values_mut() {
            let dense = std::mem::replace(col, EncodedColumn::from_codes(Vec::new(), Vec::new()));
            *col = dense.seal();
        }
    }

    /// Whether every column is sealed.
    pub fn is_sealed(&self) -> bool {
        self.columns.values().all(EncodedColumn::is_sealed)
    }

    /// The per-column encoding decisions and byte footprints, sorted by
    /// column name. Meaningful after [`seal`](EncodedFrame::seal); unsealed
    /// columns report the dense layout with zero compression.
    pub fn encoding_report(&self) -> Vec<ColumnEncodingReport> {
        let mut report: Vec<ColumnEncodingReport> = self
            .columns
            .iter()
            .map(|(name, col)| {
                let choice = col.choice();
                ColumnEncodingReport {
                    name: name.clone(),
                    encoding: choice.encoding,
                    cardinality: col.cardinality(),
                    dense_bytes: choice.dense_bytes,
                    sealed_bytes: choice.sealed_bytes,
                }
            })
            .collect();
        report.sort_by(|a, b| a.name.cmp(&b.name));
        report
    }

    fn columns_for(&self, names: &[&str]) -> Result<Vec<&EncodedColumn>> {
        names.iter().map(|&n| self.column(n)).collect()
    }

    /// `H(X | Z)` for a set of conditioning columns.
    pub fn conditional_entropy(&self, x: &str, given: &[&str]) -> Result<f64> {
        measures::conditional_entropy(self.column(x)?, &self.columns_for(given)?, None)
    }

    /// `I(X; Y)`, optionally IPW-weighted.
    pub fn mutual_information(&self, x: &str, y: &str, weights: Option<&[f64]>) -> Result<f64> {
        measures::mutual_information(self.column(x)?, self.column(y)?, weights)
    }

    /// `I(X; Y | Z)` for a set of conditioning columns, optionally
    /// IPW-weighted.
    pub fn cmi(&self, x: &str, y: &str, z: &[&str], weights: Option<&[f64]>) -> Result<f64> {
        measures::conditional_mutual_information(
            self.column(x)?,
            self.column(y)?,
            &self.columns_for(z)?,
            weights,
        )
    }

    /// Conditional-independence G-test of `X ⫫ Y | Z`.
    pub fn ci_test(
        &self,
        x: &str,
        y: &str,
        z: &[&str],
        weights: Option<&[f64]>,
        config: CiTestConfig,
    ) -> Result<CiTestResult> {
        independence::ci_test(
            self.column(x)?,
            self.column(y)?,
            &self.columns_for(z)?,
            weights,
            config,
        )
    }

    /// Number of distinct non-null values of a column.
    pub fn cardinality(&self, x: &str) -> Result<usize> {
        Ok(self.column(x)?.cardinality())
    }

    /// Fraction of missing values of a column (from the validity bitmap).
    pub fn missing_fraction(&self, x: &str) -> Result<f64> {
        let col = self.column(x)?;
        if col.is_empty() {
            return Ok(0.0);
        }
        Ok(col.null_count() as f64 / col.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{kernel, JointTable};
    use tabular::{Column, DataFrameBuilder};

    fn df() -> DataFrame {
        DataFrameBuilder::new()
            .cat(
                "t",
                vec![
                    Some("a"),
                    Some("a"),
                    Some("b"),
                    Some("b"),
                    Some("a"),
                    Some("b"),
                ],
            )
            .cat(
                "o",
                vec![
                    Some("hi"),
                    Some("hi"),
                    Some("lo"),
                    Some("lo"),
                    Some("hi"),
                    Some("lo"),
                ],
            )
            .cat(
                "z",
                vec![
                    Some("x"),
                    Some("y"),
                    Some("x"),
                    Some("y"),
                    Some("y"),
                    Some("x"),
                ],
            )
            .float(
                "m",
                vec![Some(1.0), None, Some(3.0), None, Some(5.0), Some(6.0)],
            )
            .build()
            .unwrap()
    }

    fn frame() -> EncodedFrame {
        EncodedFrame::from_frame(&df())
    }

    #[test]
    fn basic_accessors() {
        let ef = frame();
        assert_eq!(ef.n_rows(), 6);
        assert!(ef.has_column("t"));
        assert!(!ef.has_column("nope"));
        assert!(ef.column("nope").is_err());
        assert_eq!(ef.cardinality("t").unwrap(), 2);
        assert!((ef.missing_fraction("m").unwrap() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(ef.missing_fraction("t").unwrap(), 0.0);
        let mut names = ef.column_names();
        names.sort_unstable();
        assert_eq!(names, vec!["m", "o", "t", "z"]);
    }

    #[test]
    fn measures_by_name() {
        let ef = frame();
        // o is a deterministic function of t, so I(t;o) = H(t) = 1 bit and
        // H(o | t) = 0.
        assert!((ef.conditional_entropy("t", &[]).unwrap() - 1.0).abs() < 1e-12);
        assert!((ef.mutual_information("t", "o", None).unwrap() - 1.0).abs() < 1e-12);
        assert!(ef.conditional_entropy("o", &["t"]).unwrap().abs() < 1e-12);
        // conditioning on an unrelated column keeps (most of) the MI
        assert!(ef.cmi("t", "o", &["z"], None).unwrap() > 0.9);
        // conditioning on o itself kills it
        assert!(ef.cmi("t", "o", &["o"], None).unwrap().abs() < 1e-12);
    }

    #[test]
    fn ci_test_by_name() {
        let ef = frame();
        let r = ef
            .ci_test("t", "z", &[], None, CiTestConfig::default())
            .unwrap();
        assert!(r.independent);
        assert!(ef
            .ci_test("t", "missing", &[], None, CiTestConfig::default())
            .is_err());
    }

    #[test]
    fn from_frame_columns_subset() {
        let df = DataFrameBuilder::new()
            .cat("a", vec![Some("x")])
            .cat("b", vec![Some("y")])
            .build()
            .unwrap();
        let ef = EncodedFrame::from_frame_columns(&df, &["a"]).unwrap();
        assert!(ef.has_column("a"));
        assert!(!ef.has_column("b"));
        assert!(EncodedFrame::from_frame_columns(&df, &["zz"]).is_err());
    }

    #[test]
    fn sealing_preserves_measures_bitwise() {
        let ef = frame();
        let mut sealed = ef.clone();
        assert!(!sealed.is_sealed());
        sealed.seal();
        assert!(sealed.is_sealed());
        assert_eq!(
            ef.conditional_entropy("t", &[]).unwrap().to_bits(),
            sealed.conditional_entropy("t", &[]).unwrap().to_bits()
        );
        assert_eq!(
            ef.mutual_information("t", "o", None).unwrap().to_bits(),
            sealed.mutual_information("t", "o", None).unwrap().to_bits()
        );
        assert_eq!(
            ef.cmi("t", "o", &["z"], None).unwrap().to_bits(),
            sealed.cmi("t", "o", &["z"], None).unwrap().to_bits()
        );
        assert_eq!(
            ef.conditional_entropy("o", &["t"]).unwrap().to_bits(),
            sealed.conditional_entropy("o", &["t"]).unwrap().to_bits()
        );
        let a = ef
            .ci_test("t", "z", &[], None, CiTestConfig::default())
            .unwrap();
        let b = sealed
            .ci_test("t", "z", &[], None, CiTestConfig::default())
            .unwrap();
        assert_eq!(a.cmi.to_bits(), b.cmi.to_bits());
        assert_eq!(a.p_value.to_bits(), b.p_value.to_bits());
        assert_eq!(a.independent, b.independent);
        // null bookkeeping is state-independent too
        assert_eq!(
            ef.missing_fraction("m").unwrap(),
            sealed.missing_fraction("m").unwrap()
        );
    }

    #[test]
    fn seal_is_idempotent() {
        let mut ef = frame();
        ef.seal();
        let h = ef.conditional_entropy("t", &[]).unwrap();
        ef.seal();
        assert!(ef.is_sealed());
        assert_eq!(
            ef.conditional_entropy("t", &[]).unwrap().to_bits(),
            h.to_bits()
        );
    }

    /// Every layer returns a violation of the fold's input contract as
    /// `InvalidArgument`: the kernel (production and reference folds), the
    /// joint table, and the frame — its weighted measures, and for unequal
    /// column lengths its construction, which refuses a precomputed encoding
    /// whose length differs from the frame's row count.
    #[test]
    fn contract_violations_are_invalid_argument_at_every_layer() {
        fn assert_invalid<T: std::fmt::Debug>(result: Result<T>, what: &str, layer: &str) {
            assert!(
                matches!(result, Err(TabularError::InvalidArgument(_))),
                "{what} via {layer}: {result:?}"
            );
        }
        let df = df();
        let t = df.column("t").unwrap().encode();
        let o = df.column("o").unwrap().encode();
        let short = Column::from_str_values("s", vec![Some("a")]).encode();
        // Unit weights over the frame's six rows, but for one bad entry.
        let bad = |row: usize, w: f64| {
            let mut weights = vec![1.0; df.n_rows()];
            weights[row] = w;
            weights
        };
        let cases = [
            ("NaN weight", [&t, &o], Some(bad(2, f64::NAN))),
            ("infinite weight", [&t, &o], Some(bad(0, f64::INFINITY))),
            ("negative weight", [&t, &o], Some(bad(4, -0.5))),
            ("wrong-length weights", [&t, &o], Some(vec![1.0; 5])),
            ("unequal column lengths", [&t, &short], None),
        ];
        let ef = EncodedFrame::from_frame(&df);
        let ci = CiTestConfig::default();
        for (what, cols, weights) in &cases {
            let weights = weights.as_deref();
            let cells = kernel::DEFAULT_DENSE_CELLS;
            assert_invalid(kernel::accumulate(cols, weights, cells), what, "kernel");
            assert_invalid(
                kernel::reference_accumulate(cols, weights, cells),
                what,
                "reference",
            );
            assert_invalid(JointTable::build(cols, weights), what, "table");
            if cols[1].len() != ef.n_rows() {
                let precomputed = vec![("o".to_string(), cols[1].clone())];
                let built = EncodedFrame::from_frame_with(&df, precomputed);
                assert_invalid(built, what, "frame");
                continue;
            }
            assert_invalid(ef.mutual_information("t", "o", weights), what, "MI");
            assert_invalid(ef.cmi("t", "o", &["z"], weights), what, "CMI");
            assert_invalid(ef.ci_test("t", "o", &["z"], weights, ci), what, "G-test");
        }
    }

    #[test]
    fn encoding_report_is_sorted_and_accounts_bytes() {
        let mut ef = frame();
        // Before sealing: every column dense, no compression claimed.
        for r in ef.encoding_report() {
            assert_eq!(r.encoding, tabular::Encoding::Dense);
            assert_eq!(r.dense_bytes, r.sealed_bytes);
        }
        ef.seal();
        let report = ef.encoding_report();
        let names: Vec<&str> = report.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["m", "o", "t", "z"]);
        for r in &report {
            assert_eq!(r.dense_bytes, 4 * ef.n_rows());
            assert_eq!(r.encoding, tabular::Encoding::Narrow);
            assert_eq!(r.sealed_bytes, ef.n_rows());
        }
    }
}
