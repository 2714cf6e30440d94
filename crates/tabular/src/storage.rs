//! Encoded columns and their compressed ("sealed") layouts.
//!
//! [`EncodedColumn`] is the one discrete column type: a validity bitmap, a
//! label per code, and the per-row codes in one of several physical
//! layouts. Encoding and binning produce the dense layout, one `u32` slot
//! per row, which is cheap to build and to index.
//! [`EncodedColumn::seal`] re-lays the codes out in the smallest layout the
//! column admits and records the decision; the column keeps its type, its
//! validity and its labels, so every consumer takes `&EncodedColumn`
//! whatever its layout. The counting kernel reads the codes through
//! [`Access`]: as a slice of `u8`, `u16` or `u32` codes, or as a [run
//! iterator](RunIter), without decoding.
//!
//! Every layout is one the kernel reads as it is stored; none packs codes
//! below a byte, so no fold unpacks bits (compress only in forms execution
//! can run on, as column stores do):
//!
//! * [`Encoding::RunLength`] — `(value, cumulative end)` run pairs; wins on
//!   sorted or grouped code streams whose runs are long enough to pay 8
//!   bytes each.
//! * [`Encoding::Narrow`] — one byte-aligned code per row: a `u8` when the
//!   column has at most 256 codes, a `u16` when it has at most 65,536;
//!   wins on shuffled streams, where runs are short but 32 bits per code is
//!   overkill.
//! * [`Encoding::Dense`] — the layout encoding produces, kept verbatim; the
//!   fallback when nothing else is smaller.
//!
//! The selection rule is "smallest encoded payload", with a deterministic
//! tie-break in the order above (RLE, narrow, dense): the run-iterable
//! layout first, since the kernel folds a whole run at once. The decision
//! and the byte counts are recorded per column in [`EncodingChoice`] so
//! compression ratios are measurable, not anecdotal.

use std::borrow::Cow;

use crate::bitmap::Bitmap;

/// The physical layout of a column's codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    /// Dense `Vec<u32>`, one slot per row (the layout encoding produces,
    /// kept by sealing when nothing smaller applies).
    Dense,
    /// Run-length encoding: `(value, cumulative exclusive end)` pairs.
    RunLength,
    /// One `u8` or `u16` code per row.
    Narrow,
}

impl Encoding {
    /// Stable lower-case name, used in reports and bench output.
    pub fn name(self) -> &'static str {
        match self {
            Encoding::Dense => "dense",
            Encoding::RunLength => "rle",
            Encoding::Narrow => "narrow",
        }
    }
}

/// Why a column's codes are laid out the way they are: the chosen encoding
/// and the byte counts that drove the choice. Byte counts cover the code
/// payload only (the validity bitmap and the label dictionary do not change
/// with the layout and are excluded from the comparison).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodingChoice {
    /// The encoding the heuristic selected.
    pub encoding: Encoding,
    /// Bytes of the dense code vector: `4 · rows`.
    pub dense_bytes: usize,
    /// Bytes of the selected encoding's code payload.
    pub sealed_bytes: usize,
    /// Number of maximal equal-code runs in the stream (RLE pays 8 bytes
    /// per run); 0 for a column that was never sealed.
    pub n_runs: usize,
}

/// Per-row codes as one slice of `u8`, `u16` or `u32`: a narrow column's
/// stored width, or the four-byte codes of a dense column.
#[derive(Debug, Clone, Copy)]
pub enum Codes<'a> {
    /// One byte per row (narrow columns of at most 256 codes).
    U8(&'a [u8]),
    /// Two bytes per row (narrow columns of at most 65,536 codes).
    U16(&'a [u16]),
    /// Four bytes per row (dense columns).
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

/// The physical storage of a column's codes.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Layout {
    /// One `u32` code per row.
    Dense(Vec<u32>),
    /// One byte per row.
    U8(Vec<u8>),
    /// Two bytes per row.
    U16(Vec<u16>),
    /// Run-length pairs: `values[k]` repeats over rows
    /// `ends[k-1]..ends[k]` (with `ends[-1]` = 0).
    Rle { values: Vec<u32>, ends: Vec<u32> },
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
        }
    }
}

/// How the counting kernel reads a column: the access path that is free for
/// the column's layout.
pub enum Access<'a> {
    /// Per-row codes are available as a slice (dense and narrow layouts).
    Codes(Codes<'a>),
    /// The column is cheapest to read run-at-a-time (the RLE layout).
    Runs(RunIter<'a>),
}

/// The discrete encoding of a column: per-row codes, a validity bitmap
/// marking which rows are non-null, and the label of each code.
///
/// The validity lives in a separate [`Bitmap`] instead of `Option` per
/// cell, which lets the information-theoretic kernel compute the
/// complete-case mask of a multi-column build with one word-wise bitmap
/// `AND` per column. The codes are laid out densely (`u32` per row) until
/// [`seal`](EncodedColumn::seal) picks a smaller layout (see the [module
/// docs](crate::storage)); [`access`](EncodedColumn::access) and
/// [`runs`](EncodedColumn::runs) read any layout in place. Code slots at
/// invalid positions hold `0` and carry no meaning; use
/// [`code_at`](EncodedColumn::code_at) or consult
/// [`validity`](EncodedColumn::validity) before touching
/// [`codes`](EncodedColumn::codes).
///
/// Invariant: every code at a valid position is `< cardinality`, where the
/// cardinality (number of distinct non-null values present) always equals
/// `labels.len()`.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedColumn {
    layout: Layout,
    validity: Bitmap,
    labels: Vec<String>,
    /// The sealing decision; `None` until [`seal`](EncodedColumn::seal) ran.
    choice: Option<EncodingChoice>,
}

impl EncodedColumn {
    /// A dense, unsealed column from parts that already hold the invariant:
    /// one code per validity bit, `0` in every invalid slot, every valid code
    /// below `labels.len()`. [`Column::encode`](crate::Column::encode)
    /// builds its output this way, without [`from_parts`]'s checks.
    ///
    /// [`from_parts`]: EncodedColumn::from_parts
    pub(crate) fn from_dense(codes: Vec<u32>, validity: Bitmap, labels: Vec<String>) -> Self {
        debug_assert_eq!(codes.len(), validity.len());
        EncodedColumn {
            layout: Layout::Dense(codes),
            validity,
            labels,
            choice: None,
        }
    }

    /// Builds an encoding from packed parts: one code slot per row and a
    /// validity bitmap of the same length. Slots at invalid positions are
    /// normalised to `0` so that equal encodings compare equal regardless of
    /// what the caller left in the dead slots.
    ///
    /// # Panics
    /// Panics if the bitmap length differs from the code count, or if a valid
    /// slot holds a code `>= labels.len()`.
    pub fn from_parts(mut codes: Vec<u32>, validity: Bitmap, labels: Vec<String>) -> Self {
        assert_eq!(
            codes.len(),
            validity.len(),
            "validity bitmap must have one bit per code slot"
        );
        let card = labels.len() as u32;
        // One validity word per 64 rows: a fully observed block needs only
        // its largest code checked; any other block is walked bit by bit.
        for (w, (block, &word)) in codes.chunks_mut(64).zip(validity.words()).enumerate() {
            if word == u64::MAX && block.iter().fold(0, |m, &c| m.max(c)) < card {
                continue;
            }
            for (bit, code) in block.iter_mut().enumerate() {
                if word >> bit & 1 == 0 {
                    *code = 0;
                } else {
                    assert!(
                        *code < card,
                        "code {code} at row {} exceeds cardinality {card}",
                        w * 64 + bit
                    );
                }
            }
        }
        EncodedColumn::from_dense(codes, validity, labels)
    }

    /// Compatibility constructor from per-row optional codes (`None` =
    /// missing). Call sites that used to fill `Vec<Option<u32>>` migrate here
    /// mechanically.
    ///
    /// # Panics
    /// Panics if a present code is `>= labels.len()`.
    pub fn from_option_codes<I>(codes: I, labels: Vec<String>) -> Self
    where
        I: IntoIterator<Item = Option<u32>>,
    {
        let iter = codes.into_iter();
        let hint = iter.size_hint().0;
        let mut packed = Vec::with_capacity(hint);
        let mut validity = Bitmap::with_capacity(hint);
        for code in iter {
            packed.push(code.unwrap_or(0));
            validity.push(code.is_some());
        }
        EncodedColumn::from_parts(packed, validity, labels)
    }

    /// Builds a fully observed encoding (no missing rows).
    ///
    /// # Panics
    /// Panics if a code is `>= labels.len()`.
    pub fn from_codes(codes: Vec<u32>, labels: Vec<String>) -> Self {
        let validity = Bitmap::new_all_set(codes.len());
        EncodedColumn::from_parts(codes, validity, labels)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.validity.len()
    }

    /// Whether the encoding has no rows.
    pub fn is_empty(&self) -> bool {
        self.validity.is_empty()
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

    /// The code of row `i`, or `None` when the row is null.
    ///
    /// O(1) for the dense and narrow layouts, O(log runs) for RLE;
    /// consumers that walk many rows should use
    /// [`access`](EncodedColumn::access) or [`runs`](EncodedColumn::runs)
    /// instead.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn code_at(&self, i: usize) -> Option<u32> {
        if !self.validity.get(i) {
            return None;
        }
        Some(match &self.layout {
            Layout::Dense(codes) => codes[i],
            Layout::U8(codes) => u32::from(codes[i]),
            Layout::U16(codes) => u32::from(codes[i]),
            Layout::Rle { values, ends } => values[ends.partition_point(|&e| e as usize <= i)],
        })
    }

    /// Iterates all rows as optional codes, in row order.
    pub fn iter_codes(&self) -> impl Iterator<Item = Option<u32>> + '_ {
        (0..self.len()).map(move |i| self.code_at(i))
    }

    /// The per-row codes: zero-copy for the dense layout, a one-shot decode
    /// (narrow codes widened, runs expanded) for every other. Null slots
    /// hold 0.
    pub fn codes(&self) -> Cow<'_, [u32]> {
        match &self.layout {
            Layout::Dense(codes) => Cow::Borrowed(codes),
            Layout::U8(codes) => Cow::Owned(codes.iter().map(|&c| u32::from(c)).collect()),
            Layout::U16(codes) => Cow::Owned(codes.iter().map(|&c| u32::from(c)).collect()),
            Layout::Rle { values, ends } => {
                let mut out = Vec::with_capacity(self.len());
                for (&v, &e) in values.iter().zip(ends) {
                    out.resize(e as usize, v);
                }
                Cow::Owned(out)
            }
        }
    }

    /// How the counting kernel should read this column (see [`Access`]).
    pub fn access(&self) -> Access<'_> {
        match &self.layout {
            Layout::Dense(codes) => Access::Codes(Codes::U32(codes)),
            Layout::U8(codes) => Access::Codes(Codes::U8(codes)),
            Layout::U16(codes) => Access::Codes(Codes::U16(codes)),
            Layout::Rle { values, ends } => Access::Runs(RunIter {
                inner: RunIterInner::Rle {
                    values,
                    ends,
                    idx: 0,
                },
            }),
        }
    }

    /// Iterates the maximal equal-code runs of the column, in row order.
    /// Available for every layout (slice layouts group equal adjacent codes
    /// on the fly; RLE reads its stored runs).
    pub fn runs(&self) -> RunIter<'_> {
        match self.access() {
            Access::Codes(codes) => RunIter {
                inner: RunIterInner::Slice { codes, pos: 0 },
            },
            Access::Runs(runs) => runs,
        }
    }

    /// Whether [`seal`](EncodedColumn::seal) has chosen this column's
    /// layout.
    pub fn is_sealed(&self) -> bool {
        self.choice.is_some()
    }

    /// The layout of the codes ([`Encoding::Dense`] until sealed).
    pub fn encoding(&self) -> Encoding {
        self.choice().encoding
    }

    /// The recorded sealing decision and byte accounting. A column that was
    /// never sealed reports the dense layout, no compression and no runs
    /// counted.
    pub fn choice(&self) -> EncodingChoice {
        self.choice.unwrap_or(EncodingChoice {
            encoding: Encoding::Dense,
            dense_bytes: 4 * self.len(),
            sealed_bytes: 4 * self.len(),
            n_runs: 0,
        })
    }

    /// Seals the column: re-lays its codes out in the smallest applicable
    /// layout and records the decision. See the [module docs](crate::storage)
    /// for the encodings and the selection heuristic. Sealing a sealed
    /// column returns it unchanged.
    ///
    /// The validity bitmap and the label dictionary move over unchanged;
    /// [`decode`](EncodedColumn::decode) reproduces a column equal to
    /// `self`.
    pub fn seal(self) -> EncodedColumn {
        // An unsealed column is always dense; a sealed one keeps its layout.
        let (Layout::Dense(codes), None) = (&self.layout, self.choice) else {
            return self;
        };
        let n = codes.len();
        let max_code = u32::try_from(self.cardinality().saturating_sub(1)).unwrap_or(u32::MAX);
        let n_runs = usize::from(n > 0) + codes.windows(2).filter(|w| w[0] != w[1]).count();
        let dense_bytes = 4 * n;
        let narrow_bytes = if max_code <= u32::from(u8::MAX) {
            n
        } else if max_code <= u32::from(u16::MAX) {
            2 * n
        } else {
            usize::MAX
        };

        // Smallest payload wins; ties prefer RLE, then narrow codes, with
        // dense as the fallback — the kernel folds runs fastest, so at equal
        // size the runnier layout is the better pick. The candidate order is
        // the documented tie-break: `min_by_key` keeps the first minimum.
        let (encoding, sealed_bytes) = [
            (Encoding::RunLength, 8 * n_runs),
            (Encoding::Narrow, narrow_bytes),
            (Encoding::Dense, dense_bytes),
        ]
        .into_iter()
        .min_by_key(|&(_, bytes)| bytes)
        .unwrap_or((Encoding::Dense, dense_bytes));

        // The narrow casts are exact: every slot holds at most `max_code`.
        let layout = match encoding {
            Encoding::RunLength => {
                assert!(n <= u32::MAX as usize, "RLE run ends must fit in u32");
                let mut values = Vec::with_capacity(n_runs);
                let mut ends = Vec::with_capacity(n_runs);
                for (i, w) in codes.windows(2).enumerate() {
                    if w[0] != w[1] {
                        values.push(w[0]);
                        ends.push(i as u32 + 1);
                    }
                }
                if let Some(&last) = codes.last() {
                    values.push(last);
                    ends.push(n as u32);
                }
                Layout::Rle { values, ends }
            }
            Encoding::Narrow if max_code <= u32::from(u8::MAX) => {
                Layout::U8(codes.iter().map(|&c| c as u8).collect())
            }
            Encoding::Narrow => Layout::U16(codes.iter().map(|&c| c as u16).collect()),
            Encoding::Dense => self.layout,
        };
        EncodedColumn {
            layout,
            choice: Some(EncodingChoice {
                encoding,
                dense_bytes,
                sealed_bytes,
                n_runs,
            }),
            ..self
        }
    }

    /// The dense, unsealed column with the same content: equal (by `==`) to
    /// the column [`seal`](EncodedColumn::seal) was called on.
    pub fn decode(&self) -> EncodedColumn {
        EncodedColumn::from_dense(
            self.codes().into_owned(),
            self.validity.clone(),
            self.labels.clone(),
        )
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
    fn constructors_agree() {
        let labels = vec!["a".to_string(), "b".to_string()];
        let from_opts =
            EncodedColumn::from_option_codes(vec![Some(0), None, Some(1), Some(0)], labels.clone());
        let from_parts = EncodedColumn::from_parts(
            vec![0, 0, 1, 0],
            [true, false, true, true].into_iter().collect(),
            labels.clone(),
        );
        assert_eq!(from_opts, from_parts);
        assert_eq!(from_opts.cardinality(), 2);
        let full = EncodedColumn::from_codes(vec![0, 1, 1], labels);
        assert_eq!(full.null_count(), 0);
        assert_eq!(full.code_at(2), Some(1));
        assert!(!full.is_sealed());
        assert_eq!(full.encoding(), Encoding::Dense);
    }

    #[test]
    #[should_panic(expected = "exceeds cardinality")]
    fn rejects_out_of_range_codes() {
        EncodedColumn::from_codes(vec![0, 2], vec!["only".to_string()]);
    }

    #[test]
    #[should_panic(expected = "one bit per code slot")]
    fn rejects_length_mismatch() {
        EncodedColumn::from_parts(vec![0], Bitmap::new_all_set(2), vec!["a".to_string()]);
    }

    #[test]
    fn seal_constant_column_is_rle() {
        let c = enc(&[Some("x"); 500]);
        let s = c.clone().seal();
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
        let s = c.clone().seal();
        assert_eq!(s.encoding(), Encoding::Narrow);
        // 6 distinct values -> one byte per code, a quarter of dense
        assert_eq!(s.choice().sealed_bytes, 1000);
        assert_eq!(s.choice().sealed_bytes * 4, s.choice().dense_bytes);
        assert!(matches!(s.access(), Access::Codes(Codes::U8(_))));
        assert_eq!(s.decode(), c);
    }

    #[test]
    fn seal_sorted_keys_is_narrow() {
        // A sorted integer key with 1000 distinct codes: every run is one
        // row long, so two bytes per row of narrow codes beat RLE's eight.
        let codes: Vec<u32> = (0..1000).collect();
        let labels: Vec<String> = codes.iter().map(|c| c.to_string()).collect();
        let c = EncodedColumn::from_codes(codes, labels);
        let s = c.clone().seal();
        assert_eq!(s.encoding(), Encoding::Narrow);
        assert_eq!(s.choice().sealed_bytes, 2000);
        assert!(matches!(s.access(), Access::Codes(Codes::U16(_))));
        assert_eq!(s.decode(), c);
        assert_eq!(s.runs().count(), 1000);
        assert_eq!(s.code_at(423), Some(423));
    }

    #[test]
    fn seal_wide_shuffled_column_stays_dense() {
        // 65,537 distinct codes in shuffled order: narrow codes cannot hold
        // them and RLE pays 8 bytes per row, so the dense fallback is the
        // minimum.
        const N: u32 = 65_537;
        let codes: Vec<u32> = (0..N).map(|i| (i * 7919) % N).collect();
        let labels: Vec<String> = (0..N).map(|c| c.to_string()).collect();
        let c = EncodedColumn::from_codes(codes, labels);
        let s = c.clone().seal();
        assert_eq!(s.encoding(), Encoding::Dense);
        assert!(s.is_sealed());
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
        let s = c.clone().seal();
        assert_eq!(s.choice().sealed_bytes, 16);
        assert_eq!(s.encoding(), Encoding::RunLength);
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
        let s = c.clone().seal();
        assert_eq!(s.decode(), c);
        assert_eq!(s.null_count(), 3);
        assert_eq!(s.n_present(), 5);
        assert_eq!(s.code_at(1), None);
        assert_eq!(s.code_at(3), Some(1));
    }

    #[test]
    fn seal_is_idempotent() {
        let s = enc(&[Some("a"), Some("b"), Some("a")]).seal();
        assert!(s.is_sealed());
        assert_eq!(s.clone().seal(), s);
    }

    #[test]
    fn empty_column_seals() {
        let c = enc(&[]);
        let s = c.clone().seal();
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
        let s = c.clone().seal();
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
        assert!(matches!(plain.access(), Access::Codes(Codes::U32(_))));
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
    fn encoding_names_are_stable() {
        assert_eq!(Encoding::Dense.name(), "dense");
        assert_eq!(Encoding::RunLength.name(), "rle");
        assert_eq!(Encoding::Narrow.name(), "narrow");
    }
}
