//! The columnar counting kernel behind every estimator in this crate.
//!
//! [`accumulate`] is the one production entry point: it takes
//! [`EncodedColumn`]s in any layout, checks the input contract (equal
//! lengths, finite non-negative weights), folds the rows in 64-row blocks
//! and returns a `Result`. [`reference_accumulate`], a row-at-a-time fold
//! over decoded codes, is the oracle that tests and the fuzzer hold it to,
//! bit for bit.
//!
//! A joint count table over encoded columns can be stored two ways:
//!
//! * **Dense**: when the cross-product cardinality of the involved columns is
//!   at most [`DEFAULT_DENSE_CELLS`], counts live in a flat `Vec<f64>`
//!   indexed by mixed-radix packing of the per-column codes
//!   (`idx = c_0 + r_0·(c_1 + r_1·(c_2 + …))`, radix `r_i` = cardinality of
//!   column `i`). Accumulation is then one multiply-add per column per
//!   complete row — no hashing, no per-row key allocation — and marginals
//!   are dense folds.
//! * **Sparse**: above the threshold the kernel falls back to the hash-map
//!   representation (`Vec<u32>` joint key → weight), which handles
//!   pathological cardinalities without allocating the cross product.
//!
//! The complete-case mask (rows non-null in *every* involved column) is fused
//! into one word-wise bitmap `AND` over the columns' validity bitmaps instead
//! of a per-row `continue` chain.
//!
//! The sparse map uses a **fixed-state hasher** ([`FixedState`]), not the
//! standard library's per-process-randomised `RandomState`: entropy and
//! marginalisation fold the cells in map iteration order, and with a random
//! seed that order — and therefore the floating-point summation order —
//! changed from run to run, injecting ~1e-15 noise into CMI values that
//! flipped exactly-tied subset choices in the Brute-Force/MESA⁻ baselines.
//! With a fixed hasher the iteration order is a pure function of the
//! insertion sequence (row order), so every fold is bit-stable across runs.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use tabular::{Bitmap, Codes, EncodedColumn, TabularError};

/// A deterministic FxHash-style hasher: multiply-xor folding with fixed
/// constants and no per-process seed. Quality is more than sufficient for
/// `Vec<u32>` joint keys, and determinism is the point — see the module docs.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    /// 2^64 / φ, the multiplicative constant used by FxHash.
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn fold(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.fold(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.fold(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.fold(i as u64);
    }
}

/// The deterministic `BuildHasher` behind every sparse joint-count map.
pub type FixedState = BuildHasherDefault<FxHasher>;

/// The sparse joint-count map: joint code vector → accumulated weight, with
/// run-to-run deterministic iteration order.
pub type SparseCounts = HashMap<Vec<u32>, f64, FixedState>;

/// Hard maximum number of dense cells (8 MiB of `f64` counts). Cross
/// products larger than this fall back to the sparse hash path.
pub const DEFAULT_DENSE_CELLS: usize = 1 << 20;

/// Dense head-room per participating row in the dense/sparse crossover.
///
/// A dense table pays to allocate, zero, and (for every entropy or marginal)
/// scan *every* cell of the cross product, whether observed or not, while the
/// sparse map only pays per observed cell — but each observed cell costs a
/// hash, a probe, and a `Vec<u32>` key instead of one multiply-add. Since at
/// most `rows` cells can be observed, a cross product more than a small
/// multiple of `rows` is mostly zeros and the dense scan is wasted work; up
/// to that multiple the dense path's branch-free accumulation wins. Eight
/// cells of slack per row keeps the dense path through moderately sparse
/// tables (e.g. a 50×50 product over 400 rows) where hashing would dominate.
pub const DENSE_CELLS_PER_ROW: usize = 8;

/// Additive floor of the dense/sparse crossover: tables this small are always
/// cheaper dense, regardless of how few rows feed them — 1024 cells is one
/// 8 KiB allocation, below any measurable hashing break-even.
pub const DENSE_CELLS_FLOOR: usize = 1024;

/// The row-aware dense threshold used by default builds:
/// `min(DEFAULT_DENSE_CELLS, DENSE_CELLS_PER_ROW · n_rows + DENSE_CELLS_FLOOR)`.
///
/// See [`DENSE_CELLS_PER_ROW`] and [`DENSE_CELLS_FLOOR`] for the crossover
/// rationale and [`DEFAULT_DENSE_CELLS`] for the hard cap. With it the
/// table layout depends on the row count and the cardinalities only, not
/// on how the columns are stored.
pub fn adaptive_dense_cells(n_rows: usize) -> usize {
    n_rows
        .saturating_mul(DENSE_CELLS_PER_ROW)
        .saturating_add(DENSE_CELLS_FLOOR)
        .min(DEFAULT_DENSE_CELLS)
}

/// The complete-case mask of a set of columns over `n_rows` rows: bit `i` is
/// set iff row `i` is non-null in every column. Callers validate lengths.
fn complete_case_mask(columns: &[&EncodedColumn], n_rows: usize) -> Bitmap {
    let mut mask = Bitmap::new_all_set(n_rows);
    for c in columns {
        mask.intersect_with(c.validity());
    }
    mask
}

/// Number of cells of the dense cross product, or `None` when it exceeds
/// `threshold` (or overflows `usize`). Columns with cardinality 0 (entirely
/// missing) contribute a radix of 1 so the product stays well-defined.
fn dense_cell_count(columns: &[&EncodedColumn], threshold: usize) -> Option<usize> {
    let mut cells: usize = 1;
    for c in columns {
        cells = cells.checked_mul(c.cardinality().max(1))?;
        if cells > threshold {
            return None;
        }
    }
    Some(cells)
}

/// Joint counts in either storage layout.
#[derive(Debug, Clone)]
pub enum JointCounts {
    /// Flat mixed-radix counts; `radices[i]` is the cardinality of dimension
    /// `i` and `counts.len()` is the product of all radices.
    Dense {
        /// Weighted count per cell of the cross product.
        counts: Vec<f64>,
        /// Per-dimension radix (column cardinality, at least 1).
        radices: Vec<usize>,
    },
    /// Hash-map counts keyed by the joint code vector (fixed-state hasher,
    /// deterministic iteration order).
    Sparse {
        /// Weighted count per observed joint key.
        counts: SparseCounts,
    },
}

/// What the kernel accumulated for one set of columns.
#[derive(Debug, Clone)]
pub struct Accumulated {
    /// The joint counts.
    pub counts: JointCounts,
    /// Total weight over all cells.
    pub total: f64,
    /// Number of rows that participated (complete cases with positive
    /// weight).
    pub complete_cases: usize,
}

/// Checks the fold's input contract and returns the common row count: every
/// column length equal, and — when weights are given — one finite,
/// non-negative weight per row (NaN or infinite weights would silently
/// corrupt every downstream entropy).
fn validate(
    lens: impl IntoIterator<Item = usize>,
    weights: Option<&[f64]>,
) -> Result<usize, TabularError> {
    let mut lens = lens.into_iter();
    let n = lens.next().unwrap_or(0);
    for len in lens {
        if len != n {
            return Err(TabularError::InvalidArgument(format!(
                "all columns must have equal length (expected {n}, got {len})"
            )));
        }
    }
    let Some(w) = weights else { return Ok(n) };
    if w.len() != n {
        return Err(TabularError::InvalidArgument(format!(
            "weights must have one entry per row (expected {n}, got {})",
            w.len()
        )));
    }
    for (i, &wi) in w.iter().enumerate() {
        if !(wi.is_finite() && wi >= 0.0) {
            return Err(TabularError::InvalidArgument(format!(
                "invalid IPW weight {wi} at row {i}: weights must be finite and non-negative"
            )));
        }
    }
    Ok(n)
}

/// Accumulates the weighted joint counts of `columns`, choosing the dense
/// layout when the cross product has at most `dense_cells` cells. This is
/// the one production fold: every table and measure in the crate reaches
/// the rows through it.
///
/// Rows with a missing value in any column are dropped (complete-case
/// analysis); rows with zero weight are dropped from the counts and the
/// complete-case tally. Inconsistent lengths and negative or non-finite
/// weights are returned as [`TabularError::InvalidArgument`].
///
/// Columns in every layout are read in place, in **64-row blocks** aligned
/// to the words of the complete-case mask: all-null words are skipped
/// wholesale, and each column — dense or narrow — adds its block of `u32`,
/// `u16` or `u8` codes to the rows' joint indices in one loop, generic over
/// the code width.
///
/// The fold visits surviving rows in ascending row order and performs the
/// identical floating-point operations per row as [`reference_accumulate`]
/// (a fully observed unweighted block adds `1.0` per row and `64.0` to the
/// total, exact for integer counts), so results are **bit-identical** to
/// the reference — an equality the test suite asserts, not approximates.
pub fn accumulate(
    columns: &[&EncodedColumn],
    weights: Option<&[f64]>,
    dense_cells: usize,
) -> Result<Accumulated, TabularError> {
    let n = validate(columns.iter().map(|c| c.len()), weights)?;
    parallel::fault_point!("infotheory.kernel.accumulate");
    let mask = complete_case_mask(columns, n);
    let cells = dense_cell_count(columns, dense_cells);
    let radices: Vec<usize> = columns.iter().map(|c| c.cardinality().max(1)).collect();
    let mults = dense_mults(&radices, cells.is_some());
    let row_cols: Vec<RowCol<'_>> = columns
        .iter()
        .zip(mults)
        .map(|(c, mult)| RowCol {
            codes: c.access(),
            mult,
        })
        .collect();
    let (counts, total, complete_cases) = fold_blocks(&row_cols, weights, &mask, cells, radices, n);
    Ok(Accumulated {
        counts,
        total,
        complete_cases,
    })
}

/// The reference fold: one row at a time over each column's decoded
/// [`codes`](EncodedColumn::codes), in the dense or sparse layout by the
/// same `dense_cells` rule as [`accumulate`], with the same input contract.
/// It shares no access path with the production fold, which makes it its
/// independent oracle; only tests and the fuzzer call it.
pub fn reference_accumulate(
    columns: &[&EncodedColumn],
    weights: Option<&[f64]>,
    dense_cells: usize,
) -> Result<Accumulated, TabularError> {
    let n = validate(columns.iter().map(|c| c.len()), weights)?;
    let codes: Vec<_> = columns.iter().map(|c| c.codes()).collect();
    let mask = complete_case_mask(columns, n);
    let mut total = 0.0;
    let mut complete_cases = 0usize;
    let counts = match dense_cell_count(columns, dense_cells) {
        Some(cells) => {
            let mut counts = vec![0.0f64; cells];
            let radices: Vec<usize> = columns.iter().map(|c| c.cardinality().max(1)).collect();
            for row in mask.iter_set() {
                let w = weights.map(|w| w[row]).unwrap_or(1.0);
                if w == 0.0 {
                    continue;
                }
                let mut idx = 0usize;
                let mut mult = 1usize;
                for (c, &radix) in codes.iter().zip(&radices) {
                    idx += c[row] as usize * mult;
                    mult *= radix;
                }
                counts[idx] += w;
                total += w;
                complete_cases += 1;
            }
            JointCounts::Dense { counts, radices }
        }
        None => {
            let mut counts = SparseCounts::default();
            for row in mask.iter_set() {
                let w = weights.map(|w| w[row]).unwrap_or(1.0);
                if w == 0.0 {
                    continue;
                }
                let key: Vec<u32> = codes.iter().map(|c| c[row]).collect();
                *counts.entry(key).or_insert(0.0) += w;
                total += w;
                complete_cases += 1;
            }
            JointCounts::Sparse { counts }
        }
    };
    Ok(Accumulated {
        counts,
        total,
        complete_cases,
    })
}

/// Mixed-radix multipliers for the dense layout (`mults[i]` = product of the
/// radices before dimension `i`), or zeros when the sparse layout is in use.
fn dense_mults(radices: &[usize], dense: bool) -> Vec<usize> {
    if !dense {
        return vec![0; radices.len()];
    }
    let mut mults = Vec::with_capacity(radices.len());
    let mut acc = 1usize;
    for &r in radices {
        mults.push(acc);
        acc *= r;
    }
    mults
}

/// A column read from its code slice by the block fold, with its
/// mixed-radix multiplier (0 for the sparse layout).
struct RowCol<'a> {
    codes: Codes<'a>,
    mult: usize,
}

/// Adds `code · mult` to the joint index of each row of one block, where
/// `idxs` covers the block's rows from `start` on: the one loop, generic
/// over the code width, that every column runs per block.
fn add_block_codes(codes: Codes<'_>, start: usize, mult: usize, idxs: &mut [usize]) {
    fn add<T: Copy + Into<u32>>(codes: &[T], mult: usize, idxs: &mut [usize]) {
        for (acc, &c) in idxs.iter_mut().zip(codes) {
            *acc += Into::<u32>::into(c) as usize * mult;
        }
    }
    let rows = start..start + idxs.len();
    match codes {
        Codes::U8(c) => add(&c[rows], mult, idxs),
        Codes::U16(c) => add(&c[rows], mult, idxs),
        Codes::U32(c) => add(&c[rows], mult, idxs),
    }
}

/// The 64-row block fold over the columns' code slices.
fn fold_blocks(
    row_cols: &[RowCol<'_>],
    weights: Option<&[f64]>,
    mask: &Bitmap,
    cells: Option<usize>,
    radices: Vec<usize>,
    n: usize,
) -> (JointCounts, f64, usize) {
    let mut total = 0.0f64;
    let mut complete_cases = 0usize;
    let counts = match cells {
        Some(cells) => {
            let mut counts = vec![0.0f64; cells];
            // Joint index of every row in the current block, accumulated
            // column-major: one tight multiply-add pass per column keeps the
            // width dispatch out of the per-row loop and lets the compiler
            // vectorise the mixed-radix packing.
            let mut idxs = [0usize; 64];
            // mesa-lint: hot-loop -- word-at-a-time fold over the mask bitmap; polls the cooperative deadline every 64 words
            for (wi, &word) in mask.words().iter().enumerate() {
                if wi % 64 == 0 {
                    parallel::checkpoint();
                }
                if word == 0 {
                    continue;
                }
                let start = wi << 6;
                let block_len = (n - start).min(64);
                idxs[..block_len].fill(0);
                for rc in row_cols {
                    add_block_codes(rc.codes, start, rc.mult, &mut idxs[..block_len]);
                }
                if word == u64::MAX && block_len == 64 && weights.is_none() {
                    // Fully observed block, unit weights: no bit scan needed.
                    for &idx in &idxs {
                        counts[idx] += 1.0;
                    }
                    total += 64.0;
                    complete_cases += 64;
                    continue;
                }
                let mut bits = word;
                while bits != 0 {
                    let bit = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let w = weights.map(|w| w[start + bit]).unwrap_or(1.0);
                    if w == 0.0 {
                        continue;
                    }
                    counts[idxs[bit]] += w;
                    total += w;
                    complete_cases += 1;
                }
            }
            JointCounts::Dense { counts, radices }
        }
        None => {
            let mut counts = SparseCounts::default();
            let mut key: Vec<u32> = vec![0; row_cols.len()];
            // mesa-lint: hot-loop -- word-at-a-time fold over the mask bitmap; polls the cooperative deadline every 64 words
            for (wi, &word) in mask.words().iter().enumerate() {
                if wi % 64 == 0 {
                    parallel::checkpoint();
                }
                let start = wi << 6;
                let mut bits = word;
                while bits != 0 {
                    let bit = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let row = start + bit;
                    let w = weights.map(|w| w[row]).unwrap_or(1.0);
                    if w == 0.0 {
                        continue;
                    }
                    for (k, rc) in key.iter_mut().zip(row_cols) {
                        *k = rc.codes.get(row);
                    }
                    *counts.entry(key.clone()).or_insert(0.0) += w;
                    total += w;
                    complete_cases += 1;
                }
            }
            JointCounts::Sparse { counts }
        }
    };
    (counts, total, complete_cases)
}

impl JointCounts {
    /// Number of observed (non-zero) cells.
    pub fn n_cells(&self) -> usize {
        match self {
            JointCounts::Dense { counts, .. } => counts.iter().filter(|&&c| c > 0.0).count(),
            JointCounts::Sparse { counts } => counts.len(),
        }
    }

    /// Plug-in Shannon entropy (base 2) of the counts normalised by `total`.
    /// Returns 0 for an empty table.
    pub fn entropy(&self, total: f64) -> f64 {
        if total <= 0.0 {
            return 0.0;
        }
        let mut h = 0.0;
        match self {
            JointCounts::Dense { counts, .. } => {
                for &count in counts {
                    if count > 0.0 {
                        let p = count / total;
                        h -= p * p.log2();
                    }
                }
            }
            JointCounts::Sparse { counts } => {
                for &count in counts.values() {
                    if count > 0.0 {
                        let p = count / total;
                        h -= p * p.log2();
                    }
                }
            }
        }
        // Clamp tiny negative values arising from floating point error.
        h.max(0.0)
    }

    /// The count of one joint key (0 when unobserved or out of range).
    pub fn get(&self, key: &[u32]) -> f64 {
        match self {
            JointCounts::Dense { counts, radices } => {
                if key.len() != radices.len() {
                    return 0.0;
                }
                let mut idx = 0usize;
                let mut mult = 1usize;
                for (&code, &radix) in key.iter().zip(radices) {
                    if code as usize >= radix {
                        return 0.0;
                    }
                    idx += code as usize * mult;
                    mult *= radix;
                }
                counts[idx]
            }
            JointCounts::Sparse { counts } => counts.get(key).copied().unwrap_or(0.0),
        }
    }

    /// Folds the counts onto a subset of the dimensions (by position). The
    /// result keeps the storage layout of the source.
    pub fn marginalize(&self, dims: &[usize]) -> JointCounts {
        match self {
            JointCounts::Dense { counts, radices } => {
                // Stride of each source dimension in the flat index.
                let mut strides = Vec::with_capacity(radices.len());
                let mut mult = 1usize;
                for &r in radices {
                    strides.push(mult);
                    mult *= r;
                }
                let out_radices: Vec<usize> = dims.iter().map(|&d| radices[d]).collect();
                let out_cells: usize = out_radices.iter().product::<usize>().max(1);
                let mut out = vec![0.0f64; out_cells];
                for (idx, &count) in counts.iter().enumerate() {
                    if count == 0.0 {
                        continue;
                    }
                    let mut oidx = 0usize;
                    let mut omult = 1usize;
                    for (&d, &out_radix) in dims.iter().zip(&out_radices) {
                        let code = (idx / strides[d]) % radices[d];
                        oidx += code * omult;
                        omult *= out_radix;
                    }
                    out[oidx] += count;
                }
                JointCounts::Dense {
                    counts: out,
                    radices: out_radices,
                }
            }
            JointCounts::Sparse { counts } => {
                let mut out = SparseCounts::default();
                for (key, &count) in counts {
                    let sub: Vec<u32> = dims.iter().map(|&d| key[d]).collect();
                    *out.entry(sub).or_insert(0.0) += count;
                }
                JointCounts::Sparse { counts: out }
            }
        }
    }

    /// Iterates `(joint key, weighted count)` pairs of the observed cells
    /// (keys are materialised; dense cells with zero count are skipped).
    pub fn iter_keyed(&self) -> Box<dyn Iterator<Item = (Vec<u32>, f64)> + '_> {
        match self {
            JointCounts::Dense { counts, radices } => {
                Box::new(counts.iter().enumerate().filter_map(move |(idx, &count)| {
                    if count <= 0.0 {
                        return None;
                    }
                    let mut key = Vec::with_capacity(radices.len());
                    let mut rest = idx;
                    for &r in radices {
                        key.push((rest % r) as u32);
                        rest /= r;
                    }
                    Some((key, count))
                }))
            }
            JointCounts::Sparse { counts } => Box::new(counts.iter().map(|(k, &v)| (k.clone(), v))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabular::Column;

    fn enc(vals: &[Option<&str>]) -> EncodedColumn {
        Column::from_str_values("c", vals.to_vec()).encode()
    }

    /// The production fold.
    fn fold(cols: &[&EncodedColumn], weights: Option<&[f64]>, dense_cells: usize) -> Accumulated {
        accumulate(cols, weights, dense_cells).unwrap()
    }

    #[test]
    fn mask_is_intersection_of_validities() {
        let x = enc(&[Some("a"), None, Some("b"), Some("a")]);
        let y = enc(&[Some("0"), Some("1"), None, Some("0")]);
        let mask = complete_case_mask(&[&x, &y], 4);
        let rows: Vec<usize> = mask.iter_set().collect();
        assert_eq!(rows, vec![0, 3]);
    }

    #[test]
    fn cell_count_respects_threshold_and_overflow() {
        let x = enc(&[Some("a"), Some("b"), Some("c")]);
        let y = enc(&[Some("0"), Some("1"), Some("0")]);
        assert_eq!(dense_cell_count(&[&x, &y], 100), Some(6));
        assert_eq!(dense_cell_count(&[&x, &y], 5), None);
        assert_eq!(dense_cell_count(&[], 1), Some(1));
        // all-missing column contributes radix 1
        let empty = enc(&[None, None, None]);
        assert_eq!(dense_cell_count(&[&x, &empty], 100), Some(3));
    }

    #[test]
    fn dense_and_sparse_accumulate_identically() {
        let x = enc(&[Some("a"), Some("a"), Some("b"), None, Some("b")]);
        let y = enc(&[Some("0"), Some("1"), Some("0"), Some("1"), None]);
        let dense = fold(&[&x, &y], None, DEFAULT_DENSE_CELLS);
        let sparse = fold(&[&x, &y], None, 0);
        assert!(matches!(dense.counts, JointCounts::Dense { .. }));
        assert!(matches!(sparse.counts, JointCounts::Sparse { .. }));
        assert_eq!(dense.total, sparse.total);
        assert_eq!(dense.complete_cases, sparse.complete_cases);
        assert_eq!(dense.counts.n_cells(), sparse.counts.n_cells());
        let mut d: Vec<(Vec<u32>, f64)> = dense.counts.iter_keyed().collect();
        let mut s: Vec<(Vec<u32>, f64)> = sparse.counts.iter_keyed().collect();
        d.sort_by(|a, b| a.0.cmp(&b.0));
        s.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(
            d.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
            s.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>()
        );
        for ((_, dc), (_, sc)) in d.iter().zip(&s) {
            assert!((dc - sc).abs() < 1e-12);
        }
        assert!(
            (dense.counts.entropy(dense.total) - sparse.counts.entropy(sparse.total)).abs() < 1e-12
        );
    }

    #[test]
    fn marginalize_matches_between_layouts() {
        let x = enc(&[Some("a"), Some("a"), Some("b"), Some("b"), Some("a")]);
        let y = enc(&[Some("0"), Some("1"), Some("0"), Some("1"), Some("1")]);
        let dense = fold(&[&x, &y], None, DEFAULT_DENSE_CELLS);
        let sparse = fold(&[&x, &y], None, 0);
        for dims in [vec![0], vec![1], vec![1, 0], vec![0, 1]] {
            let dm = dense.counts.marginalize(&dims);
            let sm = sparse.counts.marginalize(&dims);
            let mut d: Vec<(Vec<u32>, f64)> = dm.iter_keyed().collect();
            let mut s: Vec<(Vec<u32>, f64)> = sm.iter_keyed().collect();
            d.sort_by(|a, b| a.0.cmp(&b.0));
            s.sort_by(|a, b| a.0.cmp(&b.0));
            assert_eq!(d.len(), s.len(), "dims {dims:?}");
            for ((dk, dc), (sk, sc)) in d.iter().zip(&s) {
                assert_eq!(dk, sk);
                assert!((dc - sc).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn get_handles_out_of_range_keys() {
        let x = enc(&[Some("a"), Some("b")]);
        let acc = fold(&[&x], None, DEFAULT_DENSE_CELLS);
        assert_eq!(acc.counts.get(&[0]), 1.0);
        assert_eq!(acc.counts.get(&[7]), 0.0);
        assert_eq!(acc.counts.get(&[0, 0]), 0.0);
    }

    #[test]
    fn sparse_accumulation_is_deterministic() {
        // Two independent sparse builds over the same rows must produce the
        // same iteration order (fixed-state hasher) and therefore bitwise
        // identical entropies — this is the regression guard for the
        // Brute-Force tie-break flakiness.
        let cells: Vec<Option<&str>> = (0..200)
            .map(|i| {
                if i % 13 == 0 {
                    None
                } else {
                    Some(["a", "b", "c", "d", "e", "f", "g"][(i * 31) % 7])
                }
            })
            .collect();
        let x = enc(&cells);
        let y = enc(&cells.iter().rev().copied().collect::<Vec<_>>());
        let first = fold(&[&x, &y], None, 0);
        let second = fold(&[&x, &y], None, 0);
        let a: Vec<(Vec<u32>, f64)> = first.counts.iter_keyed().collect();
        let b: Vec<(Vec<u32>, f64)> = second.counts.iter_keyed().collect();
        assert_eq!(a, b, "iteration order must match between builds");
        assert_eq!(
            first.counts.entropy(first.total).to_bits(),
            second.counts.entropy(second.total).to_bits()
        );
    }

    #[test]
    fn fx_hasher_is_seedless_and_stable() {
        use std::hash::BuildHasher;
        let key = vec![3u32, 1, 4, 1, 5];
        let h1 = FixedState::default().hash_one(&key);
        let h2 = FixedState::default().hash_one(&key);
        assert_eq!(h1, h2, "two fresh states must hash identically");
    }

    /// Asserts that `got` is bit-identical to `oracle`: totals, tallies, cell
    /// keys in iteration order (sparse order included), counts and entropy.
    fn assert_bitwise_equal(got: &Accumulated, oracle: &Accumulated) {
        assert_eq!(got.total.to_bits(), oracle.total.to_bits());
        assert_eq!(got.complete_cases, oracle.complete_cases);
        let a: Vec<(Vec<u32>, f64)> = got.counts.iter_keyed().collect();
        let b: Vec<(Vec<u32>, f64)> = oracle.counts.iter_keyed().collect();
        assert_eq!(a.len(), b.len());
        for ((ka, va), (kb, vb)) in a.iter().zip(&b) {
            assert_eq!(ka, kb, "cell keys (and sparse order) must match");
            assert_eq!(va.to_bits(), vb.to_bits(), "cell {ka:?}");
        }
        assert_eq!(
            got.counts.entropy(got.total).to_bits(),
            oracle.counts.entropy(oracle.total).to_bits()
        );
    }

    /// Asserts that the production fold over the sealed columns, and over
    /// the dense ones, is bit-identical to the reference fold, in both
    /// table layouts.
    fn assert_sealed_match_oracle(cols: &[&EncodedColumn], weights: Option<&[f64]>) {
        let sealed: Vec<EncodedColumn> = cols.iter().map(|&c| c.clone().seal()).collect();
        let sealed: Vec<&EncodedColumn> = sealed.iter().collect();
        for dense_cells in [DEFAULT_DENSE_CELLS, 0] {
            let oracle = reference_accumulate(cols, weights, dense_cells).unwrap();
            let got = accumulate(&sealed, weights, dense_cells).unwrap();
            assert_bitwise_equal(&got, &oracle);
            assert_bitwise_equal(&fold(cols, weights, dense_cells), &oracle);
        }
    }

    #[test]
    fn sealed_runny_columns_match_oracle() {
        // Long runs with interleaved nulls, partly observed blocks.
        let x: Vec<Option<&str>> = (0..300)
            .map(|i| {
                if i % 37 == 0 {
                    None
                } else {
                    Some(["a", "b"][i / 100 % 2])
                }
            })
            .collect();
        let y: Vec<Option<&str>> = (0..300)
            .map(|i| {
                if i % 41 == 0 {
                    None
                } else {
                    Some(["p", "q", "r"][i / 30 % 3])
                }
            })
            .collect();
        let (x, y) = (enc(&x), enc(&y));
        assert_sealed_match_oracle(&[&x, &y], None);
        let w: Vec<f64> = (0..300).map(|i| (i % 7) as f64 * 0.25).collect();
        assert_sealed_match_oracle(&[&x, &y], Some(&w));
    }

    #[test]
    fn sealed_shuffled_columns_match_oracle() {
        // Shuffled low-cardinality streams seal to u8 narrow codes.
        let x: Vec<Option<&str>> = (0..500)
            .map(|i| {
                if i % 53 == 0 {
                    None
                } else {
                    Some(["a", "b", "c", "d", "e"][(i * 17) % 5])
                }
            })
            .collect();
        let y: Vec<Option<&str>> = (0..500)
            .map(|i| Some(["0", "1", "2", "3", "4", "5", "6"][(i * 31) % 7]))
            .collect();
        let (x, y) = (enc(&x), enc(&y));
        assert_sealed_match_oracle(&[&x, &y], None);
        let w: Vec<f64> = (0..500).map(|i| 0.5 + (i % 5) as f64).collect();
        assert_sealed_match_oracle(&[&x, &y], Some(&w));
    }

    #[test]
    fn mixed_run_and_narrow_columns_match_oracle() {
        // A runny and a shuffled column, both narrow once sealed.
        let runny: Vec<Option<&str>> = (0..400).map(|i| Some(["u", "v"][i / 80 % 2])).collect();
        let shuffled: Vec<Option<&str>> = (0..400)
            .map(|i| Some(["a", "b", "c", "d", "e", "f"][(i * 13) % 6]))
            .collect();
        let (r, s) = (enc(&runny), enc(&shuffled));
        assert_sealed_match_oracle(&[&r, &s], None);
        // Mixed layouts too: sealed runny column alongside a dense column.
        let oracle = reference_accumulate(&[&r, &s], None, DEFAULT_DENSE_CELLS).unwrap();
        let sealed_r = r.clone().seal();
        let got = accumulate(&[&sealed_r, &s], None, DEFAULT_DENSE_CELLS).unwrap();
        assert_bitwise_equal(&got, &oracle);
    }

    #[test]
    fn all_dense_columns_match_oracle() {
        let x = enc(&[Some("a"), Some("b"), None, Some("a")]);
        let oracle = reference_accumulate(&[&x], None, DEFAULT_DENSE_CELLS).unwrap();
        assert_bitwise_equal(&fold(&[&x], None, DEFAULT_DENSE_CELLS), &oracle);
    }

    #[test]
    fn sealed_empty_and_all_null_columns() {
        let sealed = enc(&[]).seal();
        let got = accumulate(&[&sealed], None, DEFAULT_DENSE_CELLS).unwrap();
        assert_eq!(got.complete_cases, 0);
        assert_eq!(got.total, 0.0);
        let sealed = enc(&[None, None, None]).seal();
        let got = accumulate(&[&sealed], None, DEFAULT_DENSE_CELLS).unwrap();
        assert_eq!(got.complete_cases, 0);
    }

    #[test]
    fn sealed_zero_weights_are_skipped() {
        let sealed = enc(&[Some("a"), Some("a"), Some("b"), Some("b")]).seal();
        let got = accumulate(&[&sealed], Some(&[1.0, 0.0, 2.0, 0.0]), DEFAULT_DENSE_CELLS).unwrap();
        assert_eq!(got.complete_cases, 2);
        assert_eq!(got.total, 3.0);
    }
}
