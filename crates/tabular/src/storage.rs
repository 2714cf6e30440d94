//! Compressed, immutable ("sealed") column storage.
//!
//! The column layer has a two-state lifecycle:
//!
//! * **Mutable** — [`EncodedColumn`]: dense `Vec<u32>` codes plus a validity
//!   bitmap. Cheap to build incrementally and to index; this is the state
//!   every encoding and binning pass produces.
//! * **Sealed** — [`SealedColumn`]: the same logical content re-encoded into
//!   the smallest of several physical layouts, chosen per column by
//!   [`EncodedColumn::seal`]. A sealed column is immutable, usually several
//!   times smaller, and exposes its codes through [`Access`]: as a slice of
//!   `u8`, `u16` or `u32` codes, or as a [run iterator](RunIter). The
//!   counting kernel folds both without decoding.
//!
//! Every layout is one the kernel reads as it is stored; none packs codes
//! below a byte, so no fold unpacks bits (compress only in forms execution
//! can run on, as column stores do):
//!
//! * [`Encoding::RunLength`] — `(value, cumulative end)` run pairs; wins on
//!   sorted or grouped code streams whose runs are long enough to pay 8
//!   bytes each.
//! * [`Encoding::Delta`] — first value plus one `u8` or `u16` delta per row;
//!   wins on sorted keys with more than 256 codes, where consecutive codes
//!   are close even though the codes themselves are wide. Only applicable
//!   to fully observed, non-decreasing code streams.
//! * [`Encoding::Narrow`] — one byte-aligned code per row: a `u8` when the
//!   column has at most 256 codes, a `u16` when it has at most 65,536;
//!   wins on shuffled streams, where runs are short but 32 bits per code is
//!   overkill.
//! * [`Encoding::Dense`] — the mutable layout kept verbatim; the fallback
//!   when nothing else is smaller.
//!
//! The selection rule is "smallest encoded payload", with a deterministic
//! tie-break in the order above (RLE, delta, narrow, dense): run-iterable
//! layouts first, since the kernel folds a whole run at once. The decision
//! and the byte counts are recorded per column in [`EncodingChoice`] so
//! compression ratios are measurable, not anecdotal.

use std::borrow::Cow;

use crate::bitmap::Bitmap;
use crate::column::EncodedColumn;

/// The physical layout of a sealed column's codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    /// Dense `Vec<u32>`, one slot per row (the mutable layout, kept when
    /// nothing smaller applies).
    Dense,
    /// Run-length encoding: `(value, cumulative exclusive end)` pairs.
    RunLength,
    /// One `u8` or `u16` code per row.
    Narrow,
    /// First value plus one `u8` or `u16` delta per row (sorted, fully
    /// observed streams).
    Delta,
}

impl Encoding {
    /// Stable lower-case name, used in reports and bench output.
    pub fn name(self) -> &'static str {
        match self {
            Encoding::Dense => "dense",
            Encoding::RunLength => "rle",
            Encoding::Narrow => "narrow",
            Encoding::Delta => "delta",
        }
    }
}

/// Why a sealed column looks the way it does: the chosen encoding and the
/// byte counts that drove the choice. Byte counts cover the code payload only
/// (the validity bitmap and the label dictionary are identical in both
/// states and excluded from the comparison).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodingChoice {
    /// The encoding the heuristic selected.
    pub encoding: Encoding,
    /// Bytes of the dense (mutable) code vector: `4 · rows`.
    pub dense_bytes: usize,
    /// Bytes of the selected encoding's code payload.
    pub sealed_bytes: usize,
    /// Number of maximal equal-code runs in the stream (the RLE cost driver).
    pub n_runs: usize,
}

/// Per-row codes as one slice of `u8`, `u16` or `u32`: a sealed narrow
/// column's stored width, or the four-byte codes of a dense column.
#[derive(Debug, Clone, Copy)]
pub enum Codes<'a> {
    /// One byte per row (sealed narrow columns of at most 256 codes).
    U8(&'a [u8]),
    /// Two bytes per row (sealed narrow columns of at most 65,536 codes).
    U16(&'a [u16]),
    /// Four bytes per row (mutable and sealed-dense columns).
    U32(&'a [u32]),
}

impl Codes<'_> {
    fn len(&self) -> usize {
        match self {
            Codes::U8(c) => c.len(),
            Codes::U16(c) => c.len(),
            Codes::U32(c) => c.len(),
        }
    }

    /// The code of row `i`, widened to `u32`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        match self {
            Codes::U8(c) => u32::from(c[i]),
            Codes::U16(c) => u32::from(c[i]),
            Codes::U32(c) => c[i],
        }
    }

    /// The first row at or after `from` whose code is not `value` (`len`
    /// when there is none).
    fn end_of_run(&self, from: usize, value: u32) -> usize {
        fn scan<T: Copy + Into<u32>>(codes: &[T], from: usize, value: u32) -> usize {
            codes[from..]
                .iter()
                .position(|&c| c.into() != value)
                .map_or(codes.len(), |p| from + p)
        }
        match self {
            Codes::U8(c) => scan(c, from, value),
            Codes::U16(c) => scan(c, from, value),
            Codes::U32(c) => scan(c, from, value),
        }
    }
}

/// Bytes per value of the narrowest layout that holds values up to `max`:
/// 1 or 2, or `None` when `max` needs more than 16 bits.
fn narrow_width(max: u32) -> Option<usize> {
    if max <= u32::from(u8::MAX) {
        Some(1)
    } else if max <= u32::from(u16::MAX) {
        Some(2)
    } else {
        None
    }
}

/// Owned byte-aligned values: the payload of narrow and delta columns.
#[derive(Debug, Clone, PartialEq, Eq)]
enum NarrowInts {
    U8(Vec<u8>),
    U16(Vec<u16>),
}

impl NarrowInts {
    /// Stores `values`, none above `max`, one per byte when `max` fits a
    /// byte and in two bytes otherwise. The sealer only calls it when
    /// [`narrow_width`] of `max` is `Some`.
    fn pack(values: impl Iterator<Item = u32>, max: u32) -> NarrowInts {
        // The casts are exact: no value exceeds `max`, which fits the type.
        if max <= u32::from(u8::MAX) {
            NarrowInts::U8(values.map(|v| v as u8).collect())
        } else {
            assert!(max <= u32::from(u16::MAX), "{max} needs more than 16 bits");
            NarrowInts::U16(values.map(|v| v as u16).collect())
        }
    }

    fn len(&self) -> usize {
        self.codes().len()
    }

    fn codes(&self) -> Codes<'_> {
        match self {
            NarrowInts::U8(v) => Codes::U8(v),
            NarrowInts::U16(v) => Codes::U16(v),
        }
    }
}

/// The physical code storage of a [`SealedColumn`].
#[derive(Debug, Clone, PartialEq, Eq)]
enum SealedCodes {
    /// Dense codes kept verbatim.
    Dense(Vec<u32>),
    /// Run-length pairs: `values[k]` repeats over rows
    /// `ends[k-1]..ends[k]` (with `ends[-1]` = 0).
    Rle { values: Vec<u32>, ends: Vec<u32> },
    /// One byte-aligned code per row.
    Narrow(NarrowInts),
    /// `first` plus byte-aligned `deltas`, where `deltas[i]` (for `i >= 1`)
    /// is `code[i] - code[i-1]` and `deltas[0]` is 0.
    Delta { first: u32, deltas: NarrowInts },
}

/// One maximal run of equal codes: `value` over rows `start..end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// The code repeated across the run.
    pub value: u32,
    /// First row of the run.
    pub start: usize,
    /// One past the last row of the run.
    pub end: usize,
}

enum RunIterInner<'a> {
    Slice {
        codes: Codes<'a>,
        pos: usize,
    },
    Rle {
        values: &'a [u32],
        ends: &'a [u32],
        idx: usize,
    },
    Delta {
        deltas: Codes<'a>,
        value: u32,
        pos: usize,
    },
}

/// Iterator over the maximal equal-code runs of a column, in row order. The
/// runs partition `0..len` (null slots carry code 0 and merge into their
/// neighbouring runs).
pub struct RunIter<'a> {
    inner: RunIterInner<'a>,
}

impl Iterator for RunIter<'_> {
    type Item = Run;

    fn next(&mut self) -> Option<Run> {
        match &mut self.inner {
            RunIterInner::Slice { codes, pos } => {
                if *pos >= codes.len() {
                    return None;
                }
                let start = *pos;
                let value = codes.get(start);
                *pos = codes.end_of_run(start + 1, value);
                Some(Run {
                    value,
                    start,
                    end: *pos,
                })
            }
            RunIterInner::Rle { values, ends, idx } => {
                if *idx >= values.len() {
                    return None;
                }
                let start = if *idx == 0 {
                    0
                } else {
                    ends[*idx - 1] as usize
                };
                let run = Run {
                    value: values[*idx],
                    start,
                    end: ends[*idx] as usize,
                };
                *idx += 1;
                Some(run)
            }
            RunIterInner::Delta { deltas, value, pos } => {
                if *pos >= deltas.len() {
                    return None;
                }
                let start = *pos;
                let v = *value;
                // The run ends at the next non-zero delta.
                *pos = deltas.end_of_run(start + 1, 0);
                if *pos < deltas.len() {
                    *value = v.wrapping_add(deltas.get(*pos));
                }
                Some(Run {
                    value: v,
                    start,
                    end: *pos,
                })
            }
        }
    }
}

/// How the counting kernel reads a column: the access path that is free for
/// the column's physical layout.
pub enum Access<'a> {
    /// Per-row codes are available as a slice (mutable columns and sealed
    /// dense and narrow columns).
    Codes(Codes<'a>),
    /// The column is cheapest to read run-at-a-time (sealed RLE and delta
    /// columns).
    Runs(RunIter<'a>),
}

/// An immutable, compressed encoded column: the sealed state of the
/// mutable → sealed lifecycle. Produced by [`EncodedColumn::seal`]; logically
/// identical to the column it was sealed from ([`SealedColumn::decode`]
/// round-trips exactly), physically stored in the per-column
/// [`Encoding`] the selection heuristic picked.
#[derive(Debug, Clone, PartialEq)]
pub struct SealedColumn {
    codes: SealedCodes,
    validity: Bitmap,
    labels: Vec<String>,
    choice: EncodingChoice,
}

impl EncodedColumn {
    /// Seals the column: re-encodes the codes into the smallest applicable
    /// physical layout and freezes the result. See the [module
    /// docs](crate::storage) for the encodings and the selection heuristic.
    ///
    /// The validity bitmap and the label dictionary are carried over
    /// unchanged; [`SealedColumn::decode`] reproduces a column equal to
    /// `self`.
    pub fn seal(&self) -> SealedColumn {
        let codes = self.codes();
        let n = codes.len();
        let max_code = u32::try_from(self.cardinality().saturating_sub(1)).unwrap_or(u32::MAX);

        // One pass over adjacent pairs: the run count (the RLE cost driver),
        // and whether the stream is sorted with its largest step (the delta
        // cost driver; the step is garbage unless the stream is sorted).
        let mut n_runs = usize::from(n > 0);
        let mut sorted = true;
        let mut max_delta = 0u32;
        for w in codes.windows(2) {
            n_runs += usize::from(w[0] != w[1]);
            sorted &= w[0] <= w[1];
            max_delta = max_delta.max(w[1].wrapping_sub(w[0]));
        }

        let dense_bytes = 4 * n;
        let rle_bytes = 8 * n_runs;
        let narrow_bytes = narrow_width(max_code).map_or(usize::MAX, |w| n * w);
        // Delta requires a fully observed (word-level `all_set` check),
        // non-decreasing stream whose steps fit 16 bits; the payload is the
        // narrow deltas plus the first value.
        let delta_bytes = if n > 0 && sorted && self.validity().all_set() {
            narrow_width(max_delta).map_or(usize::MAX, |w| 4 + n * w)
        } else {
            usize::MAX
        };

        // Smallest payload wins; ties prefer run-iterable encodings (RLE,
        // then delta), then narrow codes, with dense as the fallback — the
        // kernel folds runs fastest, so at equal size the runnier layout is
        // the better pick. The candidate order below is the documented
        // tie-break: the first candidate achieving the minimum is chosen.
        let candidates = [
            (Encoding::RunLength, rle_bytes),
            (Encoding::Delta, delta_bytes),
            (Encoding::Narrow, narrow_bytes),
            (Encoding::Dense, dense_bytes),
        ];
        let min_bytes = candidates.iter().map(|&(_, b)| b).min().expect("non-empty");
        let best = *candidates
            .iter()
            .find(|&&(_, b)| b == min_bytes)
            .expect("minimum exists");

        let sealed_codes = match best.0 {
            Encoding::Dense => SealedCodes::Dense(codes.to_vec()),
            Encoding::RunLength => {
                assert!(n <= u32::MAX as usize, "RLE run ends must fit in u32");
                let mut values = Vec::with_capacity(n_runs);
                let mut ends = Vec::with_capacity(n_runs);
                let mut prev: Option<u32> = None;
                for (i, &c) in codes.iter().enumerate() {
                    if prev != Some(c) {
                        if prev.is_some() {
                            ends.push(i as u32);
                        }
                        values.push(c);
                        prev = Some(c);
                    }
                }
                if prev.is_some() {
                    ends.push(n as u32);
                }
                SealedCodes::Rle { values, ends }
            }
            Encoding::Narrow => {
                SealedCodes::Narrow(NarrowInts::pack(codes.iter().copied(), max_code))
            }
            Encoding::Delta => SealedCodes::Delta {
                first: codes[0],
                deltas: NarrowInts::pack(
                    std::iter::once(0).chain(codes.windows(2).map(|w| w[1] - w[0])),
                    max_delta,
                ),
            },
        };

        SealedColumn {
            codes: sealed_codes,
            validity: self.validity().clone(),
            labels: self.labels().to_vec(),
            choice: EncodingChoice {
                encoding: best.0,
                dense_bytes,
                sealed_bytes: best.1,
                n_runs,
            },
        }
    }
}

impl SealedColumn {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match &self.codes {
            SealedCodes::Dense(v) => v.len(),
            SealedCodes::Rle { ends, .. } => ends.last().map_or(0, |&e| e as usize),
            SealedCodes::Narrow(v) => v.len(),
            SealedCodes::Delta { deltas, .. } => deltas.len(),
        }
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of distinct codes (equal to the number of labels).
    pub fn cardinality(&self) -> usize {
        self.labels.len()
    }

    /// Human-readable label for each code, indexed by code.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// The label of one code.
    ///
    /// # Panics
    /// Panics if `code >= cardinality`.
    pub fn label(&self, code: u32) -> &str {
        &self.labels[code as usize]
    }

    /// The validity bitmap: bit `i` set ⇔ row `i` is non-null.
    pub fn validity(&self) -> &Bitmap {
        &self.validity
    }

    /// Whether row `i` is non-null.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn is_present(&self, i: usize) -> bool {
        self.validity.get(i)
    }

    /// Number of null rows.
    pub fn null_count(&self) -> usize {
        self.validity.count_unset()
    }

    /// Number of non-null rows.
    pub fn n_present(&self) -> usize {
        self.validity.count_set()
    }

    /// The physical encoding the sealer selected.
    pub fn encoding(&self) -> Encoding {
        self.choice.encoding
    }

    /// The recorded selection decision and byte accounting.
    pub fn choice(&self) -> &EncodingChoice {
        &self.choice
    }

    /// Bytes of the code payload in the sealed layout.
    pub fn code_bytes(&self) -> usize {
        self.choice.sealed_bytes
    }

    /// The code of row `i`, or `None` when the row is null.
    ///
    /// Random access costs depend on the layout: O(1) for dense and narrow,
    /// O(log runs) for RLE, O(i) for delta (sequential prefix sum) —
    /// consumers that walk many rows should use
    /// [`access`](SealedColumn::access) or [`runs`](SealedColumn::runs)
    /// instead.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn code_at(&self, i: usize) -> Option<u32> {
        if !self.validity.get(i) {
            return None;
        }
        Some(self.raw_code_at(i))
    }

    /// The stored code of row `i`, ignoring validity (null slots hold 0).
    fn raw_code_at(&self, i: usize) -> u32 {
        match &self.codes {
            SealedCodes::Dense(v) => v[i],
            SealedCodes::Rle { values, ends } => {
                let k = ends.partition_point(|&e| e as usize <= i);
                values[k]
            }
            SealedCodes::Narrow(v) => v.codes().get(i),
            SealedCodes::Delta { first, deltas } => {
                let deltas = deltas.codes();
                (1..=i).fold(*first, |v, j| v.wrapping_add(deltas.get(j)))
            }
        }
    }

    /// Iterates the maximal equal-code runs of the column, in row order.
    /// Available for every layout (dense and narrow columns group equal
    /// adjacent codes on the fly; RLE and delta read their stored runs).
    pub fn runs(&self) -> RunIter<'_> {
        let inner = match &self.codes {
            SealedCodes::Dense(v) => RunIterInner::Slice {
                codes: Codes::U32(v),
                pos: 0,
            },
            SealedCodes::Rle { values, ends } => RunIterInner::Rle {
                values,
                ends,
                idx: 0,
            },
            SealedCodes::Narrow(v) => RunIterInner::Slice {
                codes: v.codes(),
                pos: 0,
            },
            SealedCodes::Delta { first, deltas } => RunIterInner::Delta {
                deltas: deltas.codes(),
                value: *first,
                pos: 0,
            },
        };
        RunIter { inner }
    }

    /// How the counting kernel should read this column (see [`Access`]).
    pub fn access(&self) -> Access<'_> {
        match &self.codes {
            SealedCodes::Dense(v) => Access::Codes(Codes::U32(v)),
            SealedCodes::Narrow(v) => Access::Codes(v.codes()),
            SealedCodes::Rle { .. } | SealedCodes::Delta { .. } => Access::Runs(self.runs()),
        }
    }

    /// Decodes the full per-row code vector (null slots hold 0, as in the
    /// mutable layout).
    pub fn decode_codes(&self) -> Vec<u32> {
        match &self.codes {
            SealedCodes::Dense(v) => v.clone(),
            SealedCodes::Rle { values, ends } => {
                let mut out = Vec::with_capacity(self.len());
                for (&v, &e) in values.iter().zip(ends) {
                    out.resize(e as usize, v);
                }
                out
            }
            SealedCodes::Narrow(NarrowInts::U8(v)) => v.iter().map(|&c| u32::from(c)).collect(),
            SealedCodes::Narrow(NarrowInts::U16(v)) => v.iter().map(|&c| u32::from(c)).collect(),
            SealedCodes::Delta { first, deltas } => {
                // `deltas[0]` is 0, so the running sum starts at `first`.
                let deltas = deltas.codes();
                let mut v = *first;
                (0..deltas.len())
                    .map(|i| {
                        v = v.wrapping_add(deltas.get(i));
                        v
                    })
                    .collect()
            }
        }
    }

    /// Unseals the column back to the mutable state. The result is equal
    /// (by `==`) to the column [`seal`](EncodedColumn::seal) was called on.
    pub fn decode(&self) -> EncodedColumn {
        EncodedColumn::from_parts(
            self.decode_codes(),
            self.validity.clone(),
            self.labels.clone(),
        )
    }
}

/// A borrowed view over a column in either lifecycle state — the unified
/// currency consumers (the counting kernel, the frame-level measures, the
/// IPW machinery) accept so they work identically on mutable and sealed
/// columns.
#[derive(Clone, Copy)]
pub enum ColumnView<'a> {
    /// A mutable (dense) column.
    Plain(&'a EncodedColumn),
    /// A sealed (compressed) column.
    Sealed(&'a SealedColumn),
}

impl<'a> From<&'a EncodedColumn> for ColumnView<'a> {
    fn from(c: &'a EncodedColumn) -> Self {
        ColumnView::Plain(c)
    }
}

impl<'a> From<&'a SealedColumn> for ColumnView<'a> {
    fn from(c: &'a SealedColumn) -> Self {
        ColumnView::Sealed(c)
    }
}

impl<'a> ColumnView<'a> {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnView::Plain(c) => c.len(),
            ColumnView::Sealed(c) => c.len(),
        }
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of distinct codes (equal to the number of labels).
    pub fn cardinality(&self) -> usize {
        match self {
            ColumnView::Plain(c) => c.cardinality(),
            ColumnView::Sealed(c) => c.cardinality(),
        }
    }

    /// Human-readable label for each code, indexed by code.
    pub fn labels(&self) -> &'a [String] {
        match self {
            ColumnView::Plain(c) => c.labels(),
            ColumnView::Sealed(c) => c.labels(),
        }
    }

    /// The label of one code.
    ///
    /// # Panics
    /// Panics if `code >= cardinality`.
    pub fn label(&self, code: u32) -> &'a str {
        &self.labels()[code as usize]
    }

    /// The validity bitmap: bit `i` set ⇔ row `i` is non-null.
    pub fn validity(&self) -> &'a Bitmap {
        match self {
            ColumnView::Plain(c) => c.validity(),
            ColumnView::Sealed(c) => c.validity(),
        }
    }

    /// Whether row `i` is non-null.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn is_present(&self, i: usize) -> bool {
        self.validity().get(i)
    }

    /// The code of row `i`, or `None` when the row is null. See
    /// [`SealedColumn::code_at`] for per-layout costs.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn code_at(&self, i: usize) -> Option<u32> {
        match self {
            ColumnView::Plain(c) => c.code_at(i),
            ColumnView::Sealed(c) => c.code_at(i),
        }
    }

    /// Number of null rows.
    pub fn null_count(&self) -> usize {
        self.validity().count_unset()
    }

    /// Number of non-null rows.
    pub fn n_present(&self) -> usize {
        self.validity().count_set()
    }

    /// Whether the underlying column is sealed.
    pub fn is_sealed(&self) -> bool {
        matches!(self, ColumnView::Sealed(_))
    }

    /// The physical encoding (mutable columns report [`Encoding::Dense`]).
    pub fn encoding(&self) -> Encoding {
        match self {
            ColumnView::Plain(_) => Encoding::Dense,
            ColumnView::Sealed(c) => c.encoding(),
        }
    }

    /// The per-row codes: zero-copy for mutable and sealed-dense columns, a
    /// one-shot decode (narrow codes widened) for every other layout. Null
    /// slots hold 0.
    pub fn codes(&self) -> Cow<'a, [u32]> {
        match self {
            ColumnView::Plain(c) => Cow::Borrowed(c.codes()),
            ColumnView::Sealed(c) => match &c.codes {
                SealedCodes::Dense(v) => Cow::Borrowed(v.as_slice()),
                _ => Cow::Owned(c.decode_codes()),
            },
        }
    }

    /// Iterates the maximal equal-code runs of the column, in row order
    /// (mutable columns group equal adjacent codes on the fly).
    pub fn runs(&self) -> RunIter<'a> {
        match self {
            ColumnView::Plain(c) => RunIter {
                inner: RunIterInner::Slice {
                    codes: Codes::U32(c.codes()),
                    pos: 0,
                },
            },
            ColumnView::Sealed(c) => c.runs(),
        }
    }

    /// How the counting kernel should read this column (see [`Access`]).
    pub fn access(&self) -> Access<'a> {
        match self {
            ColumnView::Plain(c) => Access::Codes(Codes::U32(c.codes())),
            ColumnView::Sealed(c) => c.access(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;

    fn enc(vals: &[Option<&str>]) -> EncodedColumn {
        Column::from_str_values("c", vals.to_vec()).encode()
    }

    #[test]
    fn seal_constant_column_is_rle() {
        let c = enc(&[Some("x"); 500]);
        let s = c.seal();
        assert_eq!(s.encoding(), Encoding::RunLength);
        assert_eq!(s.choice().n_runs, 1);
        assert_eq!(s.choice().dense_bytes, 2000);
        assert_eq!(s.choice().sealed_bytes, 8);
        assert_eq!(s.decode(), c);
        let runs: Vec<Run> = s.runs().collect();
        assert_eq!(
            runs,
            vec![Run {
                value: 0,
                start: 0,
                end: 500
            }]
        );
    }

    #[test]
    fn seal_shuffled_low_cardinality_is_narrow() {
        let vals: Vec<Option<String>> = (0..1000)
            .map(|i| Some(format!("v{}", (i * 7) % 6)))
            .collect();
        let c = Column::from_str_values("c", vals.iter().map(|v| v.as_deref()).collect()).encode();
        let s = c.seal();
        assert_eq!(s.encoding(), Encoding::Narrow);
        // 6 distinct values -> one byte per code, a quarter of dense
        assert_eq!(s.choice().sealed_bytes, 1000);
        assert_eq!(s.choice().sealed_bytes * 4, s.choice().dense_bytes);
        assert!(matches!(s.access(), Access::Codes(Codes::U8(_))));
        assert_eq!(s.decode(), c);
    }

    #[test]
    fn seal_sorted_keys_is_delta() {
        // A sorted integer key with 1000 distinct codes: narrow codes need
        // two bytes per row, deltas one.
        let codes: Vec<u32> = (0..1000).collect();
        let labels: Vec<String> = codes.iter().map(|c| c.to_string()).collect();
        let c = EncodedColumn::from_codes(codes, labels);
        let s = c.seal();
        assert_eq!(s.encoding(), Encoding::Delta);
        assert_eq!(s.choice().sealed_bytes, 4 + 1000);
        assert_eq!(s.decode(), c);
        assert_eq!(s.runs().count(), 1000);
        assert_eq!(s.code_at(423), Some(423));
    }

    #[test]
    fn seal_wide_shuffled_column_stays_dense() {
        // 65,537 distinct codes in shuffled order: narrow codes cannot hold
        // them, delta needs a sorted stream and RLE pays 8 bytes per row, so
        // the dense fallback is the minimum.
        const N: u32 = 65_537;
        let codes: Vec<u32> = (0..N).map(|i| (i * 7919) % N).collect();
        let labels: Vec<String> = (0..N).map(|c| c.to_string()).collect();
        let c = EncodedColumn::from_codes(codes, labels);
        let s = c.seal();
        assert_eq!(s.encoding(), Encoding::Dense);
        assert_eq!(s.choice().dense_bytes, 4 * N as usize);
        assert_eq!(s.choice().sealed_bytes, 4 * N as usize);
        assert!(matches!(s.access(), Access::Codes(Codes::U32(_))));
        assert_eq!(s.decode(), c);
    }

    #[test]
    fn tie_break_prefers_run_iterable() {
        // Two runs of eight rows: RLE (two 8-byte runs) ties one byte per
        // row of narrow codes; the documented tie-break picks the
        // run-iterable layout.
        let vals: Vec<Option<&str>> = (0..16).map(|i| Some(["x", "y"][i / 8])).collect();
        let c = enc(&vals);
        let s = c.seal();
        assert_eq!(s.choice().sealed_bytes, 16);
        assert_eq!(s.encoding(), Encoding::RunLength);
        assert_eq!(s.decode(), c);
        // Four sorted codes out of 300: delta (4 + one byte per row) ties
        // two bytes per row of narrow codes, and delta comes first.
        let labels: Vec<String> = (0..300).map(|c| c.to_string()).collect();
        let c = EncodedColumn::from_codes(vec![0, 1, 2, 3], labels);
        let s = c.seal();
        assert_eq!(s.choice().sealed_bytes, 8);
        assert_eq!(s.encoding(), Encoding::Delta);
        assert_eq!(s.decode(), c);
    }

    #[test]
    fn seal_round_trips_with_nulls() {
        let c = enc(&[
            Some("a"),
            None,
            Some("a"),
            Some("b"),
            None,
            None,
            Some("b"),
            Some("b"),
        ]);
        let s = c.seal();
        assert_eq!(s.decode(), c);
        assert_eq!(s.null_count(), 3);
        assert_eq!(s.n_present(), 5);
        assert_eq!(s.code_at(1), None);
        assert_eq!(s.code_at(3), Some(1));
    }

    #[test]
    fn empty_column_seals() {
        let c = enc(&[]);
        let s = c.seal();
        assert_eq!(s.len(), 0);
        assert!(s.is_empty());
        assert_eq!(s.decode(), c);
        assert_eq!(s.runs().count(), 0);
    }

    #[test]
    fn rle_random_access_binary_search() {
        // Three runs of 100 rows each: 24 RLE bytes vs 1200 dense, so RLE
        // wins and `code_at` goes through the binary search.
        let vals: Vec<Option<&str>> = (0..300).map(|i| Some(["a", "b", "c"][i / 100])).collect();
        let c = enc(&vals);
        let s = c.seal();
        assert_eq!(s.encoding(), Encoding::RunLength);
        for i in (0..c.len()).step_by(7) {
            assert_eq!(s.code_at(i), c.code_at(i), "row {i}");
        }
        assert_eq!(s.code_at(99), Some(0));
        assert_eq!(s.code_at(100), Some(1));
        assert_eq!(s.code_at(299), Some(2));
    }

    #[test]
    fn access_exposes_slices_or_runs() {
        let narrow = enc(&[Some("a"), Some("b"), Some("a")]).seal();
        assert!(matches!(narrow.access(), Access::Codes(Codes::U8(_))));
        let labels: Vec<String> = (0..257).map(|c| c.to_string()).collect();
        let wide = EncodedColumn::from_codes(vec![256, 0, 256], labels).seal();
        match wide.access() {
            Access::Codes(Codes::U16(codes)) => assert_eq!(codes, [256, 0, 256]),
            _ => panic!("257 codes must seal to u16 narrow codes"),
        }
        let plain = enc(&[Some("a")]);
        assert!(matches!(
            ColumnView::from(&plain).access(),
            Access::Codes(Codes::U32(_))
        ));
        let rle = enc(&[Some("a"); 100]).seal();
        match rle.access() {
            Access::Runs(mut runs) => {
                assert_eq!(
                    runs.next(),
                    Some(Run {
                        value: 0,
                        start: 0,
                        end: 100
                    })
                );
                assert_eq!(runs.next(), None);
            }
            Access::Codes(_) => panic!("RLE column must expose runs"),
        }
    }

    #[test]
    fn column_view_uniform_over_states() {
        let c = enc(&[Some("a"), Some("a"), None, Some("b"), Some("b"), Some("b")]);
        let s = c.seal();
        let pv = ColumnView::from(&c);
        let sv = ColumnView::from(&s);
        assert_eq!(pv.len(), sv.len());
        assert_eq!(pv.cardinality(), sv.cardinality());
        assert_eq!(pv.labels(), sv.labels());
        assert_eq!(pv.null_count(), sv.null_count());
        assert_eq!(pv.codes(), sv.codes());
        assert!(!pv.is_sealed() && sv.is_sealed());
        for i in 0..c.len() {
            assert_eq!(pv.code_at(i), sv.code_at(i));
        }
        let pr: Vec<Run> = pv.runs().collect();
        let sr: Vec<Run> = sv.runs().collect();
        assert_eq!(pr, sr);
        // runs partition 0..len
        assert_eq!(pr.first().map(|r| r.start), Some(0));
        assert_eq!(pr.last().map(|r| r.end), Some(c.len()));
        for w in pr.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn encoding_names_are_stable() {
        assert_eq!(Encoding::Dense.name(), "dense");
        assert_eq!(Encoding::RunLength.name(), "rle");
        assert_eq!(Encoding::Narrow.name(), "narrow");
        assert_eq!(Encoding::Delta.name(), "delta");
    }
}
