//! Discretisation of numeric columns.
//!
//! The information-theoretic estimators in MESA operate over discrete data, so
//! numeric attributes — outcomes, and extracted properties like GDP — are
//! binned first (the paper: "To handle a numerical exposure, one may bin this
//! attribute"; "For simplicity, numerical attributes are assumed to be
//! binned").
//!
//! A NaN cell is binned as missing, like an empty cell: it takes no part in
//! the bin edges or in the decision whether a column needs binning, and a
//! numeric column that [`bin_frame_encoded`] leaves unbinned has it set to
//! null.

use std::borrow::Cow;

use crate::bitmap::Bitmap;
use crate::column::{Column, ColumnData, EncodedColumn};
use crate::dataframe::DataFrame;
use crate::error::{Result, TabularError};

/// The binning strategy for numeric columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinStrategy {
    /// Bins of equal value width between the column min and max.
    EqualWidth,
    /// Bins holding (approximately) equal numbers of rows (quantile bins).
    EqualFrequency,
}

/// Linear interpolation at fraction `q ∈ [0, 1]` over an ascending-sorted,
/// non-empty slice — the one quantile kernel shared by [`quantile`] and the
/// equal-frequency edge computation.
fn interpolate_sorted(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// The numeric cells of a column as a slice: borrowed straight from the
/// backing storage for float columns (the common case after KG extraction —
/// no copy at all), materialised once for int/bool columns.
fn f64_view(column: &Column) -> Cow<'_, [Option<f64>]> {
    match column.data() {
        ColumnData::Float(v) => Cow::Borrowed(v.as_slice()),
        _ => Cow::Owned(column.to_f64()),
    }
}

/// Bins a numeric column into `n_bins` integer-coded bins (0-based), keeping
/// nulls (and NaN cells) as nulls, and returns it together with its discrete
/// encoding. Non-numeric columns are returned unchanged (they are already
/// discrete), without an encoding.
///
/// The encoding is built from the bin indices while they are assigned (a
/// dense first-appearance remap over at most `n_bins` slots), and is
/// bit-identical to what `binned.encode()` would produce — but without
/// re-rendering every cell to a string and re-hashing it.
pub fn bin_column(
    column: &Column,
    n_bins: usize,
    strategy: BinStrategy,
) -> Result<(Column, Option<EncodedColumn>)> {
    if n_bins == 0 {
        return Err(TabularError::InvalidArgument(
            "n_bins must be positive".into(),
        ));
    }
    if !column.dtype().is_numeric() {
        return Ok((column.clone(), None));
    }
    let values = f64_view(column);
    let n = values.len();
    let edges = match bin_edges(&values, n_bins, strategy) {
        Some(edges) => edges,
        // Entirely missing: every row is null in the binned column too.
        None => {
            let out = Column::from_i64(column.name(), vec![None; n]);
            let encoded =
                EncodedColumn::from_parts(vec![0; n], Bitmap::new_all_unset(n), Vec::new());
            return Ok((out, Some(encoded)));
        }
    };
    // Assign bins and build the first-appearance code remap in one pass,
    // writing the codes and the validity bitmap directly.
    const UNSEEN: u32 = u32::MAX;
    let mut binned: Vec<Option<i64>> = Vec::with_capacity(n);
    let mut codes: Vec<u32> = Vec::with_capacity(n);
    let mut validity = Bitmap::new_all_set(n);
    let mut remap: Vec<u32> = vec![UNSEEN; edges.len() + 1];
    let mut labels: Vec<String> = Vec::new();
    for (row, v) in values.iter().enumerate() {
        match v.filter(|v| !v.is_nan()) {
            None => {
                binned.push(None);
                codes.push(0);
                validity.clear(row);
            }
            Some(v) => {
                let bin = assign_bin(v, &edges);
                binned.push(Some(bin as i64));
                let slot = &mut remap[bin];
                if *slot == UNSEEN {
                    *slot = labels.len() as u32;
                    labels.push(bin.to_string());
                }
                codes.push(*slot);
            }
        }
    }
    let encoded = EncodedColumn::from_parts(codes, validity, labels);
    Ok((Column::from_i64(column.name(), binned), Some(encoded)))
}

/// Computes the interior bin edges (length `≤ n_bins - 1`, sorted ascending)
/// of a numeric view, or `None` when it has no present values. NaN cells
/// count as missing.
///
/// Equal-width edges come from a single borrowed min/max scan (no gather at
/// all); the equal-frequency path gathers and sorts the present values once
/// and interpolates through [`interpolate_sorted`].
fn bin_edges(values: &[Option<f64>], n_bins: usize, strategy: BinStrategy) -> Option<Vec<f64>> {
    match strategy {
        BinStrategy::EqualWidth => {
            let mut min = f64::INFINITY;
            let mut max = f64::NEG_INFINITY;
            let mut any = false;
            for v in present(values) {
                min = min.min(v);
                max = max.max(v);
                any = true;
            }
            if !any {
                return None;
            }
            if min == max {
                return Some(Vec::new());
            }
            let width = (max - min) / n_bins as f64;
            Some((1..n_bins).map(|i| min + width * i as f64).collect())
        }
        BinStrategy::EqualFrequency => {
            let sorted = sorted_present(values)?;
            let mut edges: Vec<f64> = (1..n_bins)
                .map(|i| interpolate_sorted(&sorted, i as f64 / n_bins as f64))
                .collect();
            edges.dedup_by(|a, b| a == b);
            Some(edges)
        }
    }
}

/// The present values of a numeric view: neither null nor NaN.
fn present(values: &[Option<f64>]) -> impl Iterator<Item = f64> + '_ {
    values.iter().flatten().copied().filter(|v| !v.is_nan())
}

/// The present values of a numeric view in ascending order, or `None` when
/// there are none. Without NaN, [`f64::total_cmp`] orders like `<` except
/// that it puts `-0.0` before `0.0`.
fn sorted_present(values: &[Option<f64>]) -> Option<Vec<f64>> {
    let mut sorted: Vec<f64> = present(values).collect();
    if sorted.is_empty() {
        return None;
    }
    sorted.sort_unstable_by(f64::total_cmp);
    Some(sorted)
}

/// Returns the 0-based bin index of a value given interior edges: the number
/// of leading edges it exceeds, as `take_while(|&&e| value > e).count()`
/// would count them, but without a data-dependent branch.
#[inline]
fn assign_bin(value: f64, edges: &[f64]) -> usize {
    let mut bin = 0;
    let mut above = true;
    for &e in edges {
        above &= value > e;
        bin += usize::from(above);
    }
    bin
}

/// Bins every numeric column of the frame it takes, in place, leaving
/// categorical/boolean columns and any column named in `exclude` untouched,
/// and returns a discrete encoding for every *numeric* non-excluded column.
///
/// Columns with at most `n_bins` distinct values are left unbinned —
/// binning them would only lose information. Their encoding is an ordinary
/// [`Column::encode`] pass (cheap at that cardinality); a binned column's is
/// the one [`bin_column`] emits. Callers building an encoded view of the
/// result (MESA's `prepare_query`) reuse these instead of re-encoding from
/// scratch. Each binned column replaces its source at once, so the frame is
/// never copied.
pub fn bin_frame_encoded(
    mut df: DataFrame,
    n_bins: usize,
    strategy: BinStrategy,
    exclude: &[&str],
) -> Result<(DataFrame, Vec<(String, EncodedColumn)>)> {
    let mut encodings: Vec<(String, EncodedColumn)> = Vec::new();
    for col in df.columns_mut() {
        if exclude.contains(&col.name()) || !col.dtype().is_numeric() {
            continue;
        }
        if !distinct_exceeds(col, n_bins) {
            // Domain already fits: the column stays unbinned, with its NaN
            // cells nulled so that they read as missing here too, and its
            // ordinary encoding is exactly its final encoding.
            null_nans(col)?;
            encodings.push((col.name().to_string(), col.encode()));
            continue;
        }
        // The binned column keeps the name and the length, as
        // `columns_mut` requires.
        let (binned, bin_codes) = bin_column(col, n_bins, strategy)?;
        if let Some(bin_codes) = bin_codes {
            encodings.push((col.name().to_string(), bin_codes));
        }
        *col = binned;
    }
    Ok((df, encodings))
}

/// Whether a numeric column has more than `n_bins` distinct present values
/// (neither null nor NaN), keyed as [`Column::encode`] keys them (exact
/// `i64`/`bool` values; floats by canonical bit pattern, `-0.0 ≡ 0.0`) but
/// without rendering a single label — the scan stops as soon as the
/// threshold is exceeded, so high-cardinality columns (the ones that will be
/// binned) never pay for a full dictionary encode just to decide that.
fn distinct_exceeds(column: &Column, n_bins: usize) -> bool {
    fn over<K: std::hash::Hash + Eq, I: Iterator<Item = Option<K>>>(cells: I, n: usize) -> bool {
        let mut seen = std::collections::HashSet::with_capacity(n + 1);
        for cell in cells.flatten() {
            if seen.insert(cell) && seen.len() > n {
                return true;
            }
        }
        false
    }
    match column.data() {
        ColumnData::Int(v) => over(v.iter().copied(), n_bins),
        ColumnData::Bool(v) => over(v.iter().copied(), n_bins),
        ColumnData::Float(v) => over(
            v.iter().map(|x| {
                x.filter(|x| !x.is_nan()).map(|x| {
                    if x == 0.0 {
                        0.0f64.to_bits()
                    } else {
                        x.to_bits()
                    }
                })
            }),
            n_bins,
        ),
        // Non-numeric columns never reach this check.
        ColumnData::Categorical { .. } => false,
    }
}

/// Sets the NaN cells of a float column to null.
fn null_nans(column: &mut Column) -> Result<()> {
    let rows: Vec<usize> = match column.data() {
        ColumnData::Float(v) => (0..v.len())
            .filter(|&i| v[i].is_some_and(f64::is_nan))
            .collect(),
        _ => Vec::new(),
    };
    rows.into_iter().try_for_each(|row| column.set_null(row))
}

/// Quantile helper: the q-quantile (0..=1) of the non-null, non-NaN numeric
/// view of a column, using linear interpolation. Returns `None` when empty.
pub fn quantile(column: &Column, q: f64) -> Option<f64> {
    if !(0.0..=1.0).contains(&q) {
        return None;
    }
    let sorted = sorted_present(&f64_view(column))?;
    Some(interpolate_sorted(&sorted, q))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataframe::DataFrameBuilder;
    use crate::value::{DType, Value};

    #[test]
    fn equal_width_binning() {
        let c = Column::from_f64(
            "x",
            vec![Some(0.0), Some(2.5), Some(5.0), Some(7.5), Some(10.0), None],
        );
        let (b, _) = bin_column(&c, 4, BinStrategy::EqualWidth).unwrap();
        assert_eq!(b.dtype(), DType::Int);
        assert_eq!(b.get(0).unwrap(), Value::Int(0));
        assert_eq!(b.get(2).unwrap(), Value::Int(1)); // 5.0 lands in bin 1 (edge-exclusive on >)
        assert_eq!(b.get(4).unwrap(), Value::Int(3));
        assert!(b.is_null_at(5));
    }

    #[test]
    fn equal_frequency_binning_balances_counts() {
        let vals: Vec<Option<f64>> = (0..100).map(|i| Some(i as f64)).collect();
        let c = Column::from_f64("x", vals);
        let (b, _) = bin_column(&c, 4, BinStrategy::EqualFrequency).unwrap();
        let enc = b.encode();
        assert_eq!(enc.cardinality(), 4);
        // each bin should hold about 25 values
        let mut counts = vec![0usize; 4];
        for code in enc.iter_codes().flatten() {
            counts[code as usize] += 1;
        }
        for c in counts {
            assert!((20..=30).contains(&c), "unbalanced bin: {c}");
        }
    }

    #[test]
    fn constant_column_single_bin() {
        let c = Column::from_f64("x", vec![Some(3.0); 5]);
        let (b, _) = bin_column(&c, 4, BinStrategy::EqualWidth).unwrap();
        assert_eq!(b.n_distinct(), 1);
    }

    #[test]
    fn all_null_column() {
        let c = Column::from_f64("x", vec![None, None]);
        let (b, _) = bin_column(&c, 4, BinStrategy::EqualWidth).unwrap();
        assert_eq!(b.null_count(), 2);
    }

    #[test]
    fn categorical_passthrough_and_zero_bins() {
        let c = Column::from_str_values("c", vec![Some("a"), Some("b")]);
        let (b, _) = bin_column(&c, 4, BinStrategy::EqualWidth).unwrap();
        assert_eq!(b, c);
        assert!(bin_column(&c, 0, BinStrategy::EqualWidth).is_err());
    }

    #[test]
    fn bin_frame_excludes_and_skips_small_domains() {
        let df = DataFrameBuilder::new()
            .float("big", (0..50).map(|i| Some(i as f64)).collect())
            .int("small", (0..50).map(|i| Some(i % 3)).collect())
            .float("keep", (0..50).map(|i| Some(i as f64 * 2.0)).collect())
            .cat("cat", (0..50).map(|_| Some("x")).collect())
            .build()
            .unwrap();
        let (out, _) = bin_frame_encoded(df, 5, BinStrategy::EqualFrequency, &["keep"]).unwrap();
        assert_eq!(out.column("big").unwrap().n_distinct(), 5);
        assert_eq!(out.column("small").unwrap().n_distinct(), 3); // untouched (<= n_bins)
        assert_eq!(out.column("keep").unwrap().n_distinct(), 50); // excluded
        assert_eq!(out.column("cat").unwrap().dtype(), DType::Categorical);
    }

    #[test]
    fn quantiles() {
        let c = Column::from_f64("x", vec![Some(1.0), Some(2.0), Some(3.0), Some(4.0), None]);
        assert_eq!(quantile(&c, 0.0), Some(1.0));
        assert_eq!(quantile(&c, 1.0), Some(4.0));
        assert_eq!(quantile(&c, 0.5), Some(2.5));
        assert_eq!(quantile(&c, 2.0), None);
        let empty = Column::from_f64("x", vec![None]);
        assert_eq!(quantile(&empty, 0.5), None);
    }

    #[test]
    fn bin_codes_match_reencoding_the_binned_column() {
        // The encoding emitted while binning must be bit-identical to
        // encoding the binned column from scratch — labels, codes, validity.
        let vals: Vec<Option<f64>> = (0..200)
            .map(|i| {
                if i % 7 == 0 {
                    None
                } else {
                    Some(((i * 37) % 101) as f64)
                }
            })
            .collect();
        let c = Column::from_f64("x", vals);
        for strategy in [BinStrategy::EqualWidth, BinStrategy::EqualFrequency] {
            let (binned, codes) = bin_column(&c, 5, strategy).unwrap();
            assert_eq!(codes.unwrap(), binned.encode());
        }
        // all-null numeric column
        let empty = Column::from_f64("x", vec![None, None, None]);
        let (binned, codes) = bin_column(&empty, 4, BinStrategy::EqualWidth).unwrap();
        assert_eq!(codes.unwrap(), binned.encode());
        // categorical passthrough emits no encoding
        let cat = Column::from_str_values("c", vec![Some("a")]);
        let (_, codes) = bin_column(&cat, 4, BinStrategy::EqualWidth).unwrap();
        assert!(codes.is_none());
    }

    #[test]
    fn bin_frame_encoded_covers_every_numeric_column() {
        let df = DataFrameBuilder::new()
            .float("big", (0..50).map(|i| Some(i as f64)).collect())
            .int("small", (0..50).map(|i| Some(i % 3)).collect())
            .cat("cat", (0..50).map(|_| Some("x")).collect())
            .build()
            .unwrap();
        let (out, encodings) = bin_frame_encoded(df, 5, BinStrategy::EqualFrequency, &[]).unwrap();
        let names: Vec<&str> = encodings.iter().map(|(n, _)| n.as_str()).collect();
        // both numeric columns get encodings (binned and domain-checked), the
        // categorical one does not
        assert_eq!(names, vec!["big", "small"]);
        for (name, enc) in &encodings {
            assert_eq!(enc, &out.column(name).unwrap().encode(), "{name}");
        }
    }

    #[test]
    fn monotone_binning_property() {
        // larger values never get smaller bin indices
        let vals: Vec<Option<f64>> = vec![Some(1.0), Some(5.0), Some(2.0), Some(9.0), Some(7.0)];
        let c = Column::from_f64("x", vals.clone());
        for strategy in [BinStrategy::EqualWidth, BinStrategy::EqualFrequency] {
            let (b, _) = bin_column(&c, 3, strategy).unwrap();
            let bins: Vec<i64> = (0..b.len())
                .map(|i| b.get(i).unwrap().as_i64().unwrap())
                .collect();
            for i in 0..vals.len() {
                for j in 0..vals.len() {
                    if vals[i].unwrap() <= vals[j].unwrap() {
                        assert!(bins[i] <= bins[j]);
                    }
                }
            }
        }
    }
    /// A small deterministic generator for the tests below (64-bit LCG).
    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    #[test]
    fn by_value_bin_frame_encoded_matches_bin_frame_then_encode() {
        let mut state = 7;
        let n = 300;
        let df = DataFrameBuilder::new()
            .float(
                "f",
                (0..n)
                    .map(|i| (i % 9 != 0).then(|| (lcg(&mut state) % 1000) as f64 / 7.0))
                    .collect(),
            )
            .int(
                "i",
                (0..n)
                    .map(|i| (i % 11 != 3).then(|| (lcg(&mut state) % 500) as i64 - 250))
                    .collect(),
            )
            .int("small", (0..n).map(|i| Some(i as i64 % 3)).collect())
            .float("skip", (0..n).map(|i| Some(i as f64)).collect())
            .float("empty", vec![None; n])
            .boolean("b", (0..n).map(|i| Some(i % 2 == 0)).collect())
            .cat("c", (0..n).map(|i| Some(["x", "y", "z"][i % 3])).collect())
            .build()
            .unwrap();
        for strategy in [BinStrategy::EqualWidth, BinStrategy::EqualFrequency] {
            let (out, encodings) = bin_frame_encoded(df.clone(), 5, strategy, &["skip"]).unwrap();
            // Column order is kept; "empty" (an all-null float column) has
            // no domain to exceed, so it stays unbinned but encoded, and the
            // bool and categorical columns are not numeric.
            let names: Vec<&str> = out.columns().map(|c| c.name()).collect();
            assert_eq!(names, vec!["f", "i", "small", "skip", "empty", "b", "c"]);
            let want: Vec<(String, EncodedColumn)> = ["f", "i", "small", "empty"]
                .iter()
                .map(|&c| (c.to_string(), out.column(c).unwrap().encode()))
                .collect();
            assert_eq!(encodings, want, "{strategy:?}");
            assert_eq!(out.column("f").unwrap().dtype(), DType::Int);
            for untouched in ["small", "skip", "empty", "b", "c"] {
                let (got, input) = (out.column(untouched), df.column(untouched));
                assert_eq!(got.unwrap(), input.unwrap(), "{untouched} {strategy:?}");
            }
        }
    }

    #[test]
    fn assign_bin_counts_the_edges_a_value_exceeds() {
        let inf = f64::INFINITY;
        let edge_sets: [&[f64]; 8] = [
            &[],
            &[1.0],
            &[1.0, 1.0, 2.0],
            &[-0.0, 0.0, 0.0, 3.5],
            &[-inf, 0.0, inf],
            &[-inf, -inf, -1.0, 2.0, 2.0, inf, inf],
            &[0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5, 8.5],
            &[f64::MIN, -1e-300, 1e-300, f64::MAX],
        ];
        let values = [
            -inf,
            f64::MIN,
            -3.0,
            -1.0,
            -1e-300,
            -0.0,
            0.0,
            1e-300,
            0.5,
            1.0,
            1.5,
            2.0,
            3.5,
            8.5,
            9.0,
            f64::MAX,
            inf,
        ];
        for edges in edge_sets {
            for value in values.iter().chain(edges.iter()) {
                let want = edges.iter().take_while(|&&e| *value > e).count();
                assert_eq!(assign_bin(*value, edges), want, "{value} over {edges:?}");
            }
        }
    }

    #[test]
    fn nan_cells_bin_as_missing_wherever_they_sit() {
        // Sorting with a partial order on NaN could panic or depend on where
        // the NaNs sit; every trial must instead bin as if they were nulls.
        let mut state = 42;
        for trial in 0..200 {
            let n = 40 + trial % 60;
            let mut with_nan: Vec<Option<f64>> = Vec::with_capacity(n);
            let mut with_null: Vec<Option<f64>> = Vec::with_capacity(n);
            for _ in 0..n {
                let v = (lcg(&mut state) % 50) as f64 - 10.0;
                match lcg(&mut state) % 6 {
                    0 | 1 => {
                        with_nan.push(Some(f64::NAN));
                        with_null.push(None);
                    }
                    2 => {
                        with_nan.push(None);
                        with_null.push(None);
                    }
                    _ => {
                        with_nan.push(Some(v));
                        with_null.push(Some(v));
                    }
                }
            }
            // A small domain leaves the column unbinned in a frame.
            let small = |cells: &[Option<f64>]| {
                let cells = cells.iter().map(|c| c.map(|v| v.rem_euclid(3.0)));
                Column::from_f64("small", cells.collect())
            };
            let (nan_small, null_small) = (small(&with_nan), small(&with_null));
            let nan_col = Column::from_f64("x", with_nan);
            let null_col = Column::from_f64("x", with_null);
            for strategy in [BinStrategy::EqualWidth, BinStrategy::EqualFrequency] {
                let got = bin_column(&nan_col, 4, strategy).unwrap();
                let want = bin_column(&null_col, 4, strategy).unwrap();
                assert_eq!(got, want, "trial {trial} {strategy:?}");
                let got = bin_frame_encoded(
                    DataFrame::from_columns(vec![nan_col.clone(), nan_small.clone()]).unwrap(),
                    4,
                    strategy,
                    &[],
                )
                .unwrap();
                let want = bin_frame_encoded(
                    DataFrame::from_columns(vec![null_col.clone(), null_small.clone()]).unwrap(),
                    4,
                    strategy,
                    &[],
                )
                .unwrap();
                assert_eq!(got, want, "trial {trial} {strategy:?}");
                assert_eq!(got.0.column("small").unwrap().dtype(), DType::Float);
            }
            assert_eq!(quantile(&nan_col, 0.5), quantile(&null_col, 0.5));
        }
        // A column of NaNs only is entirely missing.
        let all_nan = Column::from_f64("x", vec![Some(f64::NAN); 5]);
        let (b, _) = bin_column(&all_nan, 4, BinStrategy::EqualFrequency).unwrap();
        assert_eq!(b.null_count(), 5);
        assert_eq!(quantile(&all_nan, 0.5), None);
    }
}
