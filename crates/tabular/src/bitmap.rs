//! Validity bitmaps: one bit per row, packed into `u64` words.
//!
//! [`EncodedColumn`](crate::EncodedColumn) stores its per-row null mask as a
//! [`Bitmap`] so that multi-column complete-case analysis reduces to a word-wise
//! `AND` over the columns' masks instead of a per-row branch chain, and so the
//! codes themselves can live in a packed `Vec<u32>` with no `Option` overhead.

/// A fixed-length bitmap. Bit `i` lives in word `i / 64` at position `i % 64`.
///
/// Invariant: bits at positions `>= len` in the last word are always zero, so
/// popcounts and set-bit iteration never need edge handling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

#[inline]
fn n_words(len: usize) -> usize {
    len.div_ceil(64)
}

impl Bitmap {
    /// A bitmap of `len` bits, all set (all rows valid).
    pub fn new_all_set(len: usize) -> Self {
        let mut words = vec![u64::MAX; n_words(len)];
        if let Some(last) = words.last_mut() {
            let tail = len % 64;
            if tail != 0 {
                *last = (1u64 << tail) - 1;
            }
        }
        Bitmap { words, len }
    }

    /// A bitmap of `len` bits, all unset (all rows missing).
    pub fn new_all_unset(len: usize) -> Self {
        Bitmap {
            words: vec![0; n_words(len)],
            len,
        }
    }

    /// An empty bitmap that bits can be [`push`](Bitmap::push)ed onto.
    pub fn with_capacity(bits: usize) -> Self {
        Bitmap {
            words: Vec::with_capacity(n_words(bits)),
            len: 0,
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap has zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one bit.
    pub fn push(&mut self, bit: bool) {
        let word = self.len / 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        if bit {
            self.words[word] |= 1u64 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range ({})", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of range ({})", self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Clears bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn clear(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of range ({})", self.len);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Number of set bits.
    pub fn count_set(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of unset bits.
    pub fn count_unset(&self) -> usize {
        self.len - self.count_set()
    }

    /// In-place word-wise `AND` with another bitmap of the same length.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn intersect_with(&mut self, other: &Bitmap) {
        assert_eq!(
            self.len, other.len,
            "bitmap length mismatch in intersection"
        );
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// The backing words. Bits beyond `len` in the last word are zero.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Iterates the indices of the set bits in increasing order, a word at
    /// a time (each word is drained by clearing its lowest set bit).
    pub fn iter_set(&self) -> SetBits<'_> {
        SetBits {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Iterates the maximal runs of consecutive set bits as half-open
    /// `(start, end)` ranges, in increasing order.
    ///
    /// Word-level: zero words are skipped whole, and run boundaries are found
    /// with `trailing_zeros` on the word (or its complement) instead of
    /// testing bits one by one.
    pub fn iter_runs(&self) -> SetRuns<'_> {
        SetRuns {
            bitmap: self,
            pos: 0,
        }
    }

    /// Index of the first set bit at or after `from`, or `None`.
    fn next_set_bit(&self, from: usize) -> Option<usize> {
        if from >= self.len {
            return None;
        }
        let mut wi = from / 64;
        let mut word = self.words[wi] & (u64::MAX << (from % 64));
        loop {
            if word != 0 {
                return Some(wi * 64 + word.trailing_zeros() as usize);
            }
            wi += 1;
            if wi >= self.words.len() {
                return None;
            }
            word = self.words[wi];
        }
    }

    /// Index of the first *unset* bit at or after `from`, clamped to `len`.
    fn next_unset_bit(&self, from: usize) -> usize {
        if from >= self.len {
            return self.len;
        }
        let mut wi = from / 64;
        // Invert so unset bits become set; mask off bits below `from`.
        let mut word = !self.words[wi] & (u64::MAX << (from % 64));
        loop {
            if word != 0 {
                return (wi * 64 + word.trailing_zeros() as usize).min(self.len);
            }
            wi += 1;
            if wi >= self.words.len() {
                return self.len;
            }
            word = !self.words[wi];
        }
    }
}

/// Iterator over the set-bit indices of a [`Bitmap`]. See
/// [`Bitmap::iter_set`].
pub struct SetBits<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for SetBits<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1; // drop lowest set bit
        Some(self.word_idx * 64 + bit)
    }
}

/// Iterator over the maximal set-bit runs of a [`Bitmap`] as half-open
/// `(start, end)` ranges. See [`Bitmap::iter_runs`].
pub struct SetRuns<'a> {
    bitmap: &'a Bitmap,
    pos: usize,
}

impl Iterator for SetRuns<'_> {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        let start = self.bitmap.next_set_bit(self.pos)?;
        let end = self.bitmap.next_unset_bit(start);
        self.pos = end;
        Some((start, end))
    }
}

impl FromIterator<bool> for Bitmap {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut bm = Bitmap::with_capacity(iter.size_hint().0);
        for bit in iter {
            bm.push(bit);
        }
        bm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_set_masks_tail_word() {
        let bm = Bitmap::new_all_set(70);
        assert_eq!(bm.len(), 70);
        assert_eq!(bm.count_set(), 70);
        assert_eq!(bm.words().len(), 2);
        assert_eq!(bm.words()[1], (1u64 << 6) - 1);
        let exact = Bitmap::new_all_set(64);
        assert_eq!(exact.words()[0], u64::MAX);
        assert_eq!(exact.count_set(), 64);
        assert!(Bitmap::new_all_set(0).is_empty());
    }

    #[test]
    fn push_get_set_clear() {
        let mut bm = Bitmap::with_capacity(3);
        bm.push(true);
        bm.push(false);
        bm.push(true);
        assert_eq!(bm.len(), 3);
        assert!(bm.get(0) && !bm.get(1) && bm.get(2));
        bm.set(1);
        bm.clear(0);
        assert!(!bm.get(0) && bm.get(1));
        assert_eq!(bm.count_set(), 2);
        assert_eq!(bm.count_unset(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        Bitmap::new_all_set(2).get(2);
    }

    #[test]
    fn intersection_is_word_wise_and() {
        let mut a: Bitmap = (0..130).map(|i| i % 2 == 0).collect();
        let b: Bitmap = (0..130).map(|i| i % 3 == 0).collect();
        a.intersect_with(&b);
        for i in 0..130 {
            assert_eq!(a.get(i), i % 6 == 0, "bit {i}");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn intersection_length_mismatch_panics() {
        Bitmap::new_all_set(3).intersect_with(&Bitmap::new_all_set(4));
    }

    #[test]
    fn set_bit_iteration_crosses_words() {
        let bm: Bitmap = (0..200).map(|i| i % 63 == 0).collect();
        let got: Vec<usize> = bm.iter_set().collect();
        assert_eq!(got, vec![0, 63, 126, 189]);
        assert!(Bitmap::new_all_unset(100).iter_set().next().is_none());
        assert_eq!(Bitmap::new_all_set(65).iter_set().count(), 65);
    }

    #[test]
    fn set_runs_match_naive_grouping() {
        let patterns: Vec<Vec<bool>> = vec![
            vec![],
            vec![true],
            vec![false],
            (0..200).map(|i| i % 3 != 0).collect(),
            (0..70).map(|_| true).collect(),
            (0..70).map(|_| false).collect(),
            (0..256).map(|i| (i / 64) % 2 == 0).collect(),
            (0..130).map(|i| (60..90).contains(&i)).collect(),
        ];
        for bits in patterns {
            let bm: Bitmap = bits.iter().copied().collect();
            // naive run grouping
            let mut naive = Vec::new();
            let mut i = 0;
            while i < bits.len() {
                if bits[i] {
                    let start = i;
                    while i < bits.len() && bits[i] {
                        i += 1;
                    }
                    naive.push((start, i));
                } else {
                    i += 1;
                }
            }
            let got: Vec<(usize, usize)> = bm.iter_runs().collect();
            assert_eq!(got, naive, "pattern of {} bits", bits.len());
        }
    }

    #[test]
    fn from_iterator_round_trip() {
        let bits = [true, false, true, true, false];
        let bm: Bitmap = bits.iter().copied().collect();
        let back: Vec<bool> = (0..bm.len()).map(|i| bm.get(i)).collect();
        assert_eq!(back, bits);
    }
}
