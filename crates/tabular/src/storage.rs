//! Encoded columns and their sealed layouts.
//!
//! [`EncodedColumn`] is the one discrete column type: a validity bitmap, a
//! label per code, and the per-row codes in one of three physical layouts.
//! Encoding and binning produce the dense layout, one `u32` slot per row,
//! which is cheap to build and to index. [`EncodedColumn::seal`] re-lays
//! the codes out in the narrowest byte-aligned width the column's
//! cardinality admits and records the decision; the column keeps its type,
//! its validity and its labels, so every consumer takes `&EncodedColumn`
//! whatever its layout. The counting kernel reads the codes in place
//! through [`EncodedColumn::access`], as a slice of `u8`, `u16` or `u32`
//! codes.
//!
//! No layout packs codes below a byte or groups them into runs, so every
//! fold reads one code per row from a slice and none decodes (compress only
//! in forms execution can run on, as column stores do):
//!
//! * [`Encoding::Narrow`] — one byte-aligned code per row: a `u8` when the
//!   column has at most 256 codes, a `u16` when it has at most 65,536.
//! * [`Encoding::Dense`] — the layout encoding produces, kept verbatim for
//!   columns of more than 65,536 codes.
//!
//! The decision and the byte counts are recorded per column in
//! [`EncodingChoice`] so compression ratios are measurable, not anecdotal.

use std::borrow::Cow;

use crate::bitmap::Bitmap;

/// The physical layout of a column's codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    /// Dense `Vec<u32>`, one slot per row (the layout encoding produces,
    /// kept by sealing when the codes do not fit two bytes).
    Dense,
    /// One `u8` or `u16` code per row.
    Narrow,
}

impl Encoding {
    /// Stable lower-case name, used in reports and bench output.
    pub fn name(self) -> &'static str {
        match self {
            Encoding::Dense => "dense",
            Encoding::Narrow => "narrow",
        }
    }
}

/// Why a column's codes are laid out the way they are: the chosen encoding
/// and its byte counts. Byte counts cover the code payload only (the
/// validity bitmap and the label dictionary do not change with the layout
/// and are excluded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodingChoice {
    /// The encoding sealing selected.
    pub encoding: Encoding,
    /// Bytes of the dense code vector: `4 · rows`.
    pub dense_bytes: usize,
    /// Bytes of the selected encoding's code payload.
    pub sealed_bytes: usize,
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
}

/// The discrete encoding of a column: per-row codes, a validity bitmap
/// marking which rows are non-null, and the label of each code.
///
/// The validity lives in a separate [`Bitmap`] instead of `Option` per
/// cell, which lets the information-theoretic kernel compute the
/// complete-case mask of a multi-column build with one word-wise bitmap
/// `AND` per column. The codes are laid out densely (`u32` per row) until
/// [`seal`](EncodedColumn::seal) picks a narrower layout (see the [module
/// docs](crate::storage)); [`access`](EncodedColumn::access) reads any
/// layout in place. Code slots at invalid positions hold `0` and carry no
/// meaning; use [`code_at`](EncodedColumn::code_at) or consult
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
    /// Consumers that walk many rows should read the code slice of
    /// [`access`](EncodedColumn::access) instead.
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
        })
    }

    /// Iterates all rows as optional codes, in row order.
    pub fn iter_codes(&self) -> impl Iterator<Item = Option<u32>> + '_ {
        (0..self.len()).map(move |i| self.code_at(i))
    }

    /// The per-row codes: zero-copy for the dense layout, narrow codes
    /// widened in a one-shot decode. Null slots hold 0.
    pub fn codes(&self) -> Cow<'_, [u32]> {
        match &self.layout {
            Layout::Dense(codes) => Cow::Borrowed(codes),
            Layout::U8(codes) => Cow::Owned(codes.iter().map(|&c| u32::from(c)).collect()),
            Layout::U16(codes) => Cow::Owned(codes.iter().map(|&c| u32::from(c)).collect()),
        }
    }

    /// The per-row codes in place, at the layout's width: how the counting
    /// kernel reads the column.
    pub fn access(&self) -> Codes<'_> {
        match &self.layout {
            Layout::Dense(codes) => Codes::U32(codes),
            Layout::U8(codes) => Codes::U8(codes),
            Layout::U16(codes) => Codes::U16(codes),
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
    /// never sealed reports the dense layout and no compression.
    pub fn choice(&self) -> EncodingChoice {
        self.choice.unwrap_or(EncodingChoice {
            encoding: Encoding::Dense,
            dense_bytes: 4 * self.len(),
            sealed_bytes: 4 * self.len(),
        })
    }

    /// Seals the column: re-lays its codes out in the narrowest byte-aligned
    /// width its cardinality admits (see the [module docs](crate::storage))
    /// and records the decision. Sealing a sealed column returns it
    /// unchanged.
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
        // The narrow casts are exact: every slot holds a code below the
        // cardinality (or 0 under a null).
        let (encoding, width, layout) = match self.cardinality() {
            0..=256 => (
                Encoding::Narrow,
                1,
                Layout::U8(codes.iter().map(|&c| c as u8).collect()),
            ),
            257..=65_536 => (
                Encoding::Narrow,
                2,
                Layout::U16(codes.iter().map(|&c| c as u16).collect()),
            ),
            _ => (Encoding::Dense, 4, self.layout),
        };
        EncodedColumn {
            layout,
            choice: Some(EncodingChoice {
                encoding,
                dense_bytes: 4 * n,
                sealed_bytes: width * n,
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
    fn seal_constant_column_is_narrow() {
        let c = enc(&[Some("x"); 500]);
        let s = c.clone().seal();
        assert_eq!(s.encoding(), Encoding::Narrow);
        assert_eq!(s.choice().dense_bytes, 2000);
        assert_eq!(s.choice().sealed_bytes, 500);
        match s.access() {
            Codes::U8(codes) => assert_eq!(codes, [0; 500]),
            _ => panic!("a one-code column must seal to u8 codes"),
        }
        assert_eq!(s.decode(), c);
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
        assert!(matches!(s.access(), Codes::U8(_)));
        assert_eq!(s.decode(), c);
    }

    #[test]
    fn seal_sorted_keys_is_narrow() {
        // A sorted integer key with 1000 distinct codes: two bytes per row.
        let codes: Vec<u32> = (0..1000).collect();
        let labels: Vec<String> = codes.iter().map(|c| c.to_string()).collect();
        let c = EncodedColumn::from_codes(codes, labels);
        let s = c.clone().seal();
        assert_eq!(s.encoding(), Encoding::Narrow);
        assert_eq!(s.choice().sealed_bytes, 2000);
        assert!(matches!(s.access(), Codes::U16(_)));
        assert_eq!(s.decode(), c);
        assert_eq!(s.code_at(423), Some(423));
    }

    #[test]
    fn seal_wide_shuffled_column_stays_dense() {
        // 65,537 distinct codes: two bytes cannot hold them, so the column
        // keeps its dense layout.
        const N: u32 = 65_537;
        let codes: Vec<u32> = (0..N).map(|i| (i * 7919) % N).collect();
        let labels: Vec<String> = (0..N).map(|c| c.to_string()).collect();
        let c = EncodedColumn::from_codes(codes, labels);
        let s = c.clone().seal();
        assert_eq!(s.encoding(), Encoding::Dense);
        assert!(s.is_sealed());
        assert_eq!(s.choice().dense_bytes, 4 * N as usize);
        assert_eq!(s.choice().sealed_bytes, 4 * N as usize);
        assert!(matches!(s.access(), Codes::U32(_)));
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
        assert_eq!(s.encoding(), Encoding::Narrow);
        assert_eq!(s.choice().sealed_bytes, 0);
    }

    #[test]
    fn access_exposes_code_slices() {
        let narrow = enc(&[Some("a"), Some("b"), Some("a")]).seal();
        match narrow.access() {
            Codes::U8(codes) => assert_eq!(codes, [0, 1, 0]),
            _ => panic!("2 codes must seal to u8 narrow codes"),
        }
        let labels: Vec<String> = (0..257).map(|c| c.to_string()).collect();
        let wide = EncodedColumn::from_codes(vec![256, 0, 256], labels).seal();
        match wide.access() {
            Codes::U16(codes) => assert_eq!(codes, [256, 0, 256]),
            _ => panic!("257 codes must seal to u16 narrow codes"),
        }
        let plain = enc(&[Some("a")]);
        match plain.access() {
            Codes::U32(codes) => assert_eq!(codes, [0]),
            _ => panic!("an unsealed column must expose its dense codes"),
        }
        assert_eq!(wide.access().get(0), 256);
    }

    #[test]
    fn encoding_names_are_stable() {
        assert_eq!(Encoding::Dense.name(), "dense");
        assert_eq!(Encoding::Narrow.name(), "narrow");
    }
}
