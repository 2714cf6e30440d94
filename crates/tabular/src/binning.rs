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
//!
//! An attribute extracted from a knowledge graph is a function of its
//! entity. [`bin_joined`] bins it once per entity, weighting each entity by
//! the rows that hold it, and writes only the resulting codes per row; the
//! edges are exactly those of the rows, so the output equals gathering the
//! values first. One loop serves both levels: row-level binning
//! ([`bin_column`]) is the case where every row is its own entity.

use std::borrow::Cow;

use crate::bitmap::Bitmap;
use crate::column::{Column, ColumnData};
use crate::dataframe::DataFrame;
use crate::error::{Result, TabularError};
use crate::storage::EncodedColumn;

/// The binning strategy for numeric columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinStrategy {
    /// Bins of equal value width between the column min and max.
    EqualWidth,
    /// Bins holding (approximately) equal numbers of rows (quantile bins).
    EqualFrequency,
}

/// The numeric cells of a column as a slice: borrowed straight from the
/// backing storage for float columns (the common case after KG extraction —
/// no copy at all), materialised once for int columns.
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
/// re-rendering every cell to a string and re-hashing it. This is the
/// row-level case of the binning [`bin_joined`] does per entity: every row
/// is its own entity.
pub fn bin_column(
    column: &Column,
    n_bins: usize,
    strategy: BinStrategy,
) -> Result<(Column, Option<EncodedColumn>)> {
    check_n_bins(n_bins)?;
    if !column.dtype().is_numeric() {
        return Ok((column.clone(), None));
    }
    let rows = (0..column.len()).map(Some);
    let (binned, encoded) = bin_entities(column, None, rows, n_bins, strategy);
    Ok((binned, Some(encoded)))
}

fn check_n_bins(n_bins: usize) -> Result<()> {
    if n_bins == 0 {
        return Err(TabularError::InvalidArgument(
            "n_bins must be positive".into(),
        ));
    }
    Ok(())
}

/// The one binning loop. `column` holds one cell per entity; `rows` yields,
/// for every output row, the entity it holds (`None`: a null row), and
/// `occurrences[e]` counts those rows per entity (`None`: one row each).
///
/// The bin edges are those of the output rows' present values, computed
/// from the entities that occur weighted by their row counts; each entity is
/// then assigned its bin once, and one pass over `rows` writes the binned
/// column, its first-appearance codes, its validity and its labels.
fn bin_entities(
    column: &Column,
    occurrences: Option<&[usize]>,
    rows: impl ExactSizeIterator<Item = Option<usize>>,
    n_bins: usize,
    strategy: BinStrategy,
) -> (Column, EncodedColumn) {
    let values = f64_view(column);
    let n = rows.len();
    let Some(edges) = bin_edges(present_rows(&values, occurrences), n_bins, strategy) else {
        // Entirely missing: every row is null in the binned column too.
        let out = Column::from_i64(column.name(), vec![None; n]);
        let encoded = EncodedColumn::from_parts(vec![0; n], Bitmap::new_all_unset(n), Vec::new());
        return (out, encoded);
    };
    let bins: Vec<Option<usize>> = values
        .iter()
        .map(|v| v.filter(|v| !v.is_nan()).map(|v| assign_bin(v, &edges)))
        .collect();
    let mut binned: Vec<Option<i64>> = Vec::with_capacity(n);
    let encoded = encode_rows(
        &bins,
        edges.len() + 1,
        rows,
        |bin| bin.to_string(),
        |bin| binned.push(bin.map(|bin| bin as i64)),
    );
    (Column::from_i64(column.name(), binned), encoded)
}

/// The encoding of the output rows of an entity-level column: row `i`
/// holds entity `rows[i]` (`None`: a null row), and entity `e` falls in
/// class `classes[e] < n_classes` (`None`: missing). Each class gets the
/// next code on its first row, labelled `label(class)` — the order
/// [`Column::encode`] assigns codes in — and `each` sees every row's class,
/// in row order.
fn encode_rows(
    classes: &[Option<usize>],
    n_classes: usize,
    rows: impl ExactSizeIterator<Item = Option<usize>>,
    mut label: impl FnMut(usize) -> String,
    mut each: impl FnMut(Option<usize>),
) -> EncodedColumn {
    const UNSEEN: u32 = u32::MAX;
    let n = rows.len();
    let mut codes: Vec<u32> = Vec::with_capacity(n);
    let mut validity = Bitmap::new_all_set(n);
    let mut remap: Vec<u32> = vec![UNSEEN; n_classes];
    let mut labels: Vec<String> = Vec::new();
    for (row, entity) in rows.enumerate() {
        let class = entity.and_then(|e| classes[e]);
        each(class);
        match class {
            None => {
                codes.push(0);
                validity.clear(row);
            }
            Some(class) => {
                let slot = &mut remap[class];
                if *slot == UNSEEN {
                    *slot = labels.len() as u32;
                    labels.push(label(class));
                }
                codes.push(*slot);
            }
        }
    }
    EncodedColumn::from_parts(codes, validity, labels)
}

/// The present values (neither null nor NaN) of the entities that occur,
/// each with its number of rows: one row each when `occurrences` is `None`.
fn present_rows(values: &[Option<f64>], occurrences: Option<&[usize]>) -> Vec<(f64, usize)> {
    let present = |v: &Option<f64>| v.filter(|v| !v.is_nan());
    match occurrences {
        None => values.iter().filter_map(present).map(|v| (v, 1)).collect(),
        Some(counts) => values
            .iter()
            .zip(counts)
            .filter(|&(_, &rows)| rows > 0)
            .filter_map(|(v, &rows)| present(v).map(|v| (v, rows)))
            .collect(),
    }
}

/// Computes the interior bin edges (length `≤ n_bins - 1`, sorted ascending)
/// of a multiset of present values given as `(value, rows)` pairs, or `None`
/// when it is empty.
///
/// Equal-width edges come from the min and max; equal-frequency edges
/// interpolate the sorted multiset through [`interpolate_ranked`], which
/// gives exactly the edges of the sorted rows.
fn bin_edges(present: Vec<(f64, usize)>, n_bins: usize, strategy: BinStrategy) -> Option<Vec<f64>> {
    match strategy {
        BinStrategy::EqualWidth => {
            if present.is_empty() {
                return None;
            }
            let mut min = f64::INFINITY;
            let mut max = f64::NEG_INFINITY;
            for &(v, _) in &present {
                min = min.min(v);
                max = max.max(v);
            }
            if min == max {
                return Some(Vec::new());
            }
            let width = (max - min) / n_bins as f64;
            Some((1..n_bins).map(|i| min + width * i as f64).collect())
        }
        BinStrategy::EqualFrequency => {
            let ranked = rank_sorted(present)?;
            let mut edges: Vec<f64> = (1..n_bins)
                .map(|i| interpolate_ranked(&ranked, i as f64 / n_bins as f64))
                .collect();
            edges.dedup_by(|a, b| a == b);
            Some(edges)
        }
    }
}

/// Sorts `(value, rows)` pairs by value and replaces each pair's row count
/// by the rank one past its last row, or returns `None` when there are no
/// pairs. Without NaN, [`f64::total_cmp`] orders like `<` except that it
/// puts `-0.0` before `0.0`.
fn rank_sorted(mut present: Vec<(f64, usize)>) -> Option<Vec<(f64, usize)>> {
    if present.is_empty() {
        return None;
    }
    present.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
    let mut end = 0;
    for pair in &mut present {
        end += pair.1;
        pair.1 = end;
    }
    Some(present)
}

/// Linear interpolation at fraction `q ∈ [0, 1]` over the `N` rows of a
/// non-empty [`rank_sorted`] multiset: the position `q·(N−1)` between the
/// values of ranks `lo = ⌊pos⌋` and `hi = ⌈pos⌉` — the one quantile kernel
/// shared by [`quantile`] and the equal-frequency edges.
fn interpolate_ranked(ranked: &[(f64, usize)], q: f64) -> f64 {
    let n = ranked.last().map_or(0, |&(_, end)| end);
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    let at = |rank: usize| ranked[ranked.partition_point(|&(_, end)| end <= rank)].0;
    at(lo) * (1.0 - frac) + at(hi) * frac
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
/// categorical/boolean columns untouched, and returns a discrete encoding
/// for every numeric column.
///
/// Columns with at most `n_bins` distinct values are left unbinned —
/// binning them would only lose information. Their encoding is an ordinary
/// [`Column::encode`] pass (cheap at that cardinality); a binned column's is
/// the one [`bin_column`] emits. Callers building an encoded view of the
/// result (MESA's `prepare_from_joined`) reuse these instead of re-encoding
/// from scratch. Each binned column replaces its source at once, so the
/// frame is never copied.
pub fn bin_frame_encoded(
    mut df: DataFrame,
    n_bins: usize,
    strategy: BinStrategy,
) -> Result<(DataFrame, Vec<(String, EncodedColumn)>)> {
    let mut encodings: Vec<(String, EncodedColumn)> = Vec::new();
    for col in df.columns_mut() {
        if !col.dtype().is_numeric() {
            continue;
        }
        if !distinct_exceeds(col, None, n_bins) {
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

/// Bins the columns that a left join of the entity table `table` on `key`
/// appends to a frame, without gathering their values first. `rows` is the
/// join's row map ([`crate::join_rows`]): frame row `i` holds table row
/// `rows[i]`, or nulls when it is `None`.
///
/// Returns every column but `key`, in table order and under its table name,
/// each paired with its encoding (`None` for non-numeric columns). The
/// result equals joining with [`crate::join()`] and then binning with
/// [`bin_frame_encoded`], column for column:
///
/// - a numeric column whose entities that occur in at least one row hold
///   more than `n_bins` distinct present values is binned once per entity,
///   from edges that weight each entity by its number of rows, and written
///   through `rows` in one pass;
/// - any other numeric column is a small domain: its entity column, with
///   NaN cells nulled, is encoded once and gathered, and its codes are
///   written through `rows` in order of first appearance;
/// - a non-numeric column is gathered with [`Column::take_opt`].
///
/// # Errors
/// [`TabularError::RowOutOfBounds`] when `rows` names a row past the table,
/// and [`TabularError::InvalidArgument`] when a column needs binning and
/// `n_bins` is zero.
pub fn bin_joined(
    table: &DataFrame,
    key: &str,
    rows: &[Option<usize>],
    n_bins: usize,
    strategy: BinStrategy,
) -> Result<Vec<(Column, Option<EncodedColumn>)>> {
    let len = table.n_rows();
    let mut occurrences = vec![0usize; len];
    for &row in rows.iter().flatten() {
        let count = occurrences
            .get_mut(row)
            .ok_or(TabularError::RowOutOfBounds { index: row, len })?;
        *count += 1;
    }
    let mut out = Vec::with_capacity(table.n_cols());
    for column in table.columns().filter(|c| c.name() != key) {
        if !column.dtype().is_numeric() {
            out.push((column.take_opt(rows), None));
            continue;
        }
        if distinct_exceeds(column, Some(&occurrences), n_bins) {
            check_n_bins(n_bins)?;
            let entities = rows.iter().copied();
            let (binned, codes) =
                bin_entities(column, Some(&occurrences), entities, n_bins, strategy);
            out.push((binned, Some(codes)));
            continue;
        }
        let mut entities = column.clone();
        null_nans(&mut entities)?;
        let encoded = entities.encode();
        let classes: Vec<Option<usize>> = encoded
            .iter_codes()
            .map(|code| code.map(|code| code as usize))
            .collect();
        let codes = encode_rows(
            &classes,
            encoded.cardinality(),
            rows.iter().copied(),
            |code| encoded.labels()[code].clone(),
            |_| {},
        );
        out.push((entities.take_opt(rows), Some(codes)));
    }
    Ok(out)
}

/// Whether a numeric column has more than `n_bins` distinct present values
/// (neither null nor NaN) among the cells whose `occurrences` count is
/// positive (all cells when `None`), keyed as [`Column::encode`] keys them
/// (exact `i64` values; floats by canonical bit pattern, `-0.0 ≡ 0.0`) but
/// without rendering a single label — the scan stops as soon as the
/// threshold is exceeded, so high-cardinality columns (the ones that will be
/// binned) never pay for a full dictionary encode just to decide that.
fn distinct_exceeds(column: &Column, occurrences: Option<&[usize]>, n_bins: usize) -> bool {
    fn over<K, I>(cells: I, occurrences: Option<&[usize]>, n: usize) -> bool
    where
        K: std::hash::Hash + Eq,
        I: Iterator<Item = Option<K>>,
    {
        let mut seen = std::collections::HashSet::with_capacity(n + 1);
        for (i, cell) in cells.enumerate() {
            let Some(cell) = cell else { continue };
            if occurrences.is_some_and(|counts| counts[i] == 0) {
                continue;
            }
            if seen.insert(cell) && seen.len() > n {
                return true;
            }
        }
        false
    }
    match column.data() {
        ColumnData::Int(v) => over(v.iter().copied(), occurrences, n_bins),
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
            occurrences,
            n_bins,
        ),
        // Non-numeric columns never reach this check.
        ColumnData::Bool(_) | ColumnData::Categorical { .. } => false,
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
    let ranked = rank_sorted(present_rows(&f64_view(column), None))?;
    Some(interpolate_ranked(&ranked, q))
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
    fn bin_frame_skips_small_domains() {
        let df = DataFrameBuilder::new()
            .float("big", (0..50).map(|i| Some(i as f64)).collect())
            .int("small", (0..50).map(|i| Some(i % 3)).collect())
            .float("doubled", (0..50).map(|i| Some(i as f64 * 2.0)).collect())
            .cat("cat", (0..50).map(|_| Some("x")).collect())
            .build()
            .unwrap();
        let (out, _) = bin_frame_encoded(df, 5, BinStrategy::EqualFrequency).unwrap();
        assert_eq!(out.column("big").unwrap().n_distinct(), 5);
        assert_eq!(out.column("small").unwrap().n_distinct(), 3); // untouched (<= n_bins)
        assert_eq!(out.column("doubled").unwrap().n_distinct(), 5);
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
        let (out, encodings) = bin_frame_encoded(df, 5, BinStrategy::EqualFrequency).unwrap();
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
            .float("ramp", (0..n).map(|i| Some(i as f64)).collect())
            .float("empty", vec![None; n])
            .boolean("b", (0..n).map(|i| Some(i % 2 == 0)).collect())
            .cat("c", (0..n).map(|i| Some(["x", "y", "z"][i % 3])).collect())
            .build()
            .unwrap();
        for strategy in [BinStrategy::EqualWidth, BinStrategy::EqualFrequency] {
            let (out, encodings) = bin_frame_encoded(df.clone(), 5, strategy).unwrap();
            // Column order is kept; "empty" (an all-null float column) has
            // no domain to exceed, so it stays unbinned but encoded, and the
            // bool and categorical columns are not numeric.
            let names: Vec<&str> = out.columns().map(|c| c.name()).collect();
            assert_eq!(names, vec!["f", "i", "small", "ramp", "empty", "b", "c"]);
            let want: Vec<(String, EncodedColumn)> = ["f", "i", "small", "ramp", "empty"]
                .iter()
                .map(|&c| (c.to_string(), out.column(c).unwrap().encode()))
                .collect();
            assert_eq!(encodings, want, "{strategy:?}");
            for binned in ["f", "ramp"] {
                assert_eq!(out.column(binned).unwrap().dtype(), DType::Int);
            }
            for untouched in ["small", "empty", "b", "c"] {
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
                )
                .unwrap();
                let want = bin_frame_encoded(
                    DataFrame::from_columns(vec![null_col.clone(), null_small.clone()]).unwrap(),
                    4,
                    strategy,
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

    /// An entity table keyed by `k` and a frame whose `key` column names
    /// its entities (some unknown, some null), as a KG join sees them.
    fn entity_case(state: &mut u64) -> (DataFrame, DataFrame) {
        let n_entities = 1 + (lcg(state) % 40) as usize;
        let n_rows = 1 + (lcg(state) % 300) as usize;
        let mut cell = |modulus: u64| lcg(state) % modulus;
        let keys: Vec<String> = (0..n_entities).map(|e| format!("e{e}")).collect();
        let mut floats = Vec::new();
        let mut ints = Vec::new();
        let mut few = Vec::new();
        let mut cats = Vec::new();
        let mut bools = Vec::new();
        for _ in 0..n_entities {
            floats.push(match cell(10) {
                0 => None,
                1 => Some(f64::NAN),
                2 => Some(-0.0),
                3 => Some(0.0),
                _ => Some(cell(30) as f64 / 3.0 - 4.0),
            });
            ints.push((cell(8) != 0).then(|| cell(1000) as i64 - 500));
            few.push((cell(6) != 0).then(|| (cell(4) as f64) * 0.5));
            cats.push((cell(5) != 0).then(|| ["x", "y", "z"][cell(3) as usize]));
            bools.push((cell(5) != 0).then(|| cell(2) == 0));
        }
        let table = DataFrameBuilder::new()
            .cat("k", keys.iter().map(|k| Some(k.as_str())).collect())
            .float("f", floats)
            .int("i", ints)
            .float("few", few)
            .cat("c", cats)
            .boolean("b", bools)
            .build()
            .unwrap();
        let frame_keys: Vec<Option<String>> = (0..n_rows)
            .map(|_| match cell(12) {
                0 => None,
                1 => Some("unknown".to_string()),
                // Skewed towards low entities, so row counts differ.
                _ => Some(format!(
                    "e{}",
                    cell(n_entities as u64).min(cell(n_entities as u64))
                )),
            })
            .collect();
        let frame = DataFrameBuilder::new()
            .cat("key", frame_keys.iter().map(|k| k.as_deref()).collect())
            .build()
            .unwrap();
        (frame, table)
    }

    #[test]
    fn bin_joined_equals_join_then_bin_frame_encoded() {
        use crate::join::{join, join_rows, JoinKind};
        let mut state = 2027;
        for trial in 0..300 {
            let (frame, table) = entity_case(&mut state);
            let n_bins = 1 + (lcg(&mut state) % 7) as usize;
            let rows = join_rows(
                &frame.column("key").unwrap().encode(),
                &table.column("k").unwrap().encode(),
            );
            let joined = join(&frame, &table, "key", "k", JoinKind::Left).unwrap();
            for strategy in [BinStrategy::EqualWidth, BinStrategy::EqualFrequency] {
                let (want, encodings) =
                    bin_frame_encoded(joined.clone(), n_bins, strategy).unwrap();
                let got = bin_joined(&table, "k", &rows, n_bins, strategy).unwrap();
                let names: Vec<&str> = got.iter().map(|(c, _)| c.name()).collect();
                assert_eq!(names, vec!["f", "i", "few", "c", "b"]);
                for (column, encoding) in &got {
                    let name = column.name();
                    let what = format!("trial {trial} {name} {n_bins} bins {strategy:?}");
                    assert_eq!(column, want.column(name).unwrap(), "{what}");
                    let want_encoding = encodings.iter().find(|(n, _)| n == name);
                    assert_eq!(encoding.as_ref(), want_encoding.map(|(_, e)| e), "{what}");
                }
            }
        }
    }

    #[test]
    fn bin_joined_bins_by_the_entities_that_occur() {
        // Ten entities with ten values, but the frame names only two of
        // them: the column has a small domain there and is gathered as is.
        let table = DataFrameBuilder::new()
            .int("k", (0..10).map(Some).collect())
            .float("v", (0..10).map(|v| Some(v as f64)).collect())
            .build()
            .unwrap();
        let rows = vec![Some(3), None, Some(7), Some(3)];
        let got = bin_joined(&table, "k", &rows, 4, BinStrategy::EqualFrequency).unwrap();
        let (column, encoding) = &got[0];
        assert_eq!(column.dtype(), DType::Float);
        assert_eq!(column.to_f64(), vec![Some(3.0), None, Some(7.0), Some(3.0)]);
        assert_eq!(encoding.as_ref(), Some(&column.encode()));
        // Every entity occurring: ten values into four bins, weighted by
        // rows, so entity 0 (seven rows) fills the first two quantiles.
        let mut rows: Vec<Option<usize>> = (0..10).map(Some).collect();
        rows.extend([Some(0); 6]);
        let got = bin_joined(&table, "k", &rows, 4, BinStrategy::EqualFrequency).unwrap();
        let want = bin_column(
            &table.column("v").unwrap().take_opt(&rows),
            4,
            BinStrategy::EqualFrequency,
        )
        .unwrap();
        assert_eq!(got[0].0.dtype(), DType::Int);
        assert_eq!((got[0].0.clone(), got[0].1.clone()), want);
        // A row past the table is an error, not a panic.
        let err = bin_joined(&table, "k", &[Some(10)], 4, BinStrategy::EqualWidth).unwrap_err();
        assert!(
            matches!(err, TabularError::RowOutOfBounds { index: 10, len: 10 }),
            "{err:?}"
        );
    }
}
