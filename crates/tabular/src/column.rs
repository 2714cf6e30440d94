//! Typed, null-aware columns.
//!
//! Columns store data in typed vectors. Categorical data is
//! dictionary-encoded: the column holds a dictionary of distinct strings and a
//! vector of `u32` codes, which keeps memory compact for the multi-million row
//! datasets used in the paper's Flights experiments and makes the
//! information-theoretic estimators (which work over discrete codes) cheap.

use std::collections::HashMap;

use crate::bitmap::Bitmap;
use crate::error::{Result, TabularError};
use crate::storage::EncodedColumn;
use crate::value::{DType, Value};

/// The physical storage backing a [`Column`].
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// 64-bit integers with per-cell nullability.
    Int(Vec<Option<i64>>),
    /// 64-bit floats with per-cell nullability.
    Float(Vec<Option<f64>>),
    /// Booleans with per-cell nullability.
    Bool(Vec<Option<bool>>),
    /// Dictionary-encoded strings: `codes[i]` indexes into `dict`.
    Categorical {
        /// The dictionary of distinct string values.
        dict: Vec<String>,
        /// Per-row dictionary codes (`None` = null).
        codes: Vec<Option<u32>>,
    },
}

/// A named, typed, null-aware column.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    name: String,
    data: ColumnData,
}

impl Column {
    /// Builds an integer column.
    pub fn from_i64(name: impl Into<String>, values: Vec<Option<i64>>) -> Self {
        Column {
            name: name.into(),
            data: ColumnData::Int(values),
        }
    }

    /// Builds a float column.
    pub fn from_f64(name: impl Into<String>, values: Vec<Option<f64>>) -> Self {
        Column {
            name: name.into(),
            data: ColumnData::Float(values),
        }
    }

    /// Builds a boolean column.
    pub fn from_bool(name: impl Into<String>, values: Vec<Option<bool>>) -> Self {
        Column {
            name: name.into(),
            data: ColumnData::Bool(values),
        }
    }

    /// Builds a categorical column from string values, dictionary-encoding
    /// them in order of first appearance.
    pub fn from_str_values<S: AsRef<str>>(name: impl Into<String>, values: Vec<Option<S>>) -> Self {
        let mut dict: Vec<String> = Vec::new();
        let mut index: HashMap<String, u32> = HashMap::new();
        let mut codes = Vec::with_capacity(values.len());
        for v in values {
            match v {
                None => codes.push(None),
                Some(s) => {
                    let s = s.as_ref();
                    let code = match index.get(s) {
                        Some(&c) => c,
                        None => {
                            let c = dict.len() as u32;
                            dict.push(s.to_string());
                            index.insert(s.to_string(), c);
                            c
                        }
                    };
                    codes.push(Some(code));
                }
            }
        }
        Column {
            name: name.into(),
            data: ColumnData::Categorical { dict, codes },
        }
    }

    /// Builds a column from dynamically typed values, inferring the type from
    /// the first non-null value. Mixed int/float columns are promoted to
    /// float; anything else mixed becomes categorical (via rendering).
    pub fn from_values(name: impl Into<String>, values: Vec<Value>) -> Self {
        let name = name.into();
        let mut dtype: Option<DType> = None;
        for v in &values {
            match (dtype, v.dtype()) {
                (None, Some(d)) => dtype = Some(d),
                (Some(DType::Int), Some(DType::Float)) | (Some(DType::Float), Some(DType::Int)) => {
                    dtype = Some(DType::Float)
                }
                (Some(a), Some(b)) if a != b => {
                    dtype = Some(DType::Categorical);
                    break;
                }
                _ => {}
            }
        }
        match dtype.unwrap_or(DType::Categorical) {
            DType::Int => Column::from_i64(name, values.iter().map(|v| v.as_i64()).collect()),
            DType::Float => Column::from_f64(name, values.iter().map(|v| v.as_f64()).collect()),
            DType::Bool => Column::from_bool(name, values.iter().map(|v| v.as_bool()).collect()),
            DType::Categorical => Column::from_str_values(
                name,
                values
                    .iter()
                    .map(|v| if v.is_null() { None } else { Some(v.render()) })
                    .collect(),
            ),
        }
    }

    /// Builds a constant column of the given length.
    pub fn constant(name: impl Into<String>, value: Value, len: usize) -> Self {
        Column::from_values(name.into(), vec![value; len])
    }

    /// The column name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the column in place.
    pub fn rename(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Returns a copy of the column with a new name.
    pub fn with_name(&self, name: impl Into<String>) -> Self {
        Column {
            name: name.into(),
            data: self.data.clone(),
        }
    }

    /// The logical type of the column.
    pub fn dtype(&self) -> DType {
        match &self.data {
            ColumnData::Int(_) => DType::Int,
            ColumnData::Float(_) => DType::Float,
            ColumnData::Bool(_) => DType::Bool,
            ColumnData::Categorical { .. } => DType::Categorical,
        }
    }

    /// Borrow the physical storage.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// Number of rows (including nulls).
    pub fn len(&self) -> usize {
        match &self.data {
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
            ColumnData::Categorical { codes, .. } => codes.len(),
        }
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate heap footprint in bytes (cell storage plus, for
    /// categorical columns, the dictionary strings). Used by cache byte
    /// budgets; an estimate, not an allocator-accurate measurement.
    pub fn approx_bytes(&self) -> usize {
        let cells = match &self.data {
            ColumnData::Int(v) => v.len() * std::mem::size_of::<Option<i64>>(),
            ColumnData::Float(v) => v.len() * std::mem::size_of::<Option<f64>>(),
            ColumnData::Bool(v) => v.len() * std::mem::size_of::<Option<bool>>(),
            ColumnData::Categorical { dict, codes } => {
                codes.len() * std::mem::size_of::<Option<u32>>()
                    + dict
                        .iter()
                        .map(|s| s.len() + std::mem::size_of::<String>())
                        .sum::<usize>()
            }
        };
        cells + self.name.len()
    }

    /// Number of null (missing) cells.
    pub fn null_count(&self) -> usize {
        match &self.data {
            ColumnData::Int(v) => v.iter().filter(|x| x.is_none()).count(),
            ColumnData::Float(v) => v.iter().filter(|x| x.is_none()).count(),
            ColumnData::Bool(v) => v.iter().filter(|x| x.is_none()).count(),
            ColumnData::Categorical { codes, .. } => codes.iter().filter(|x| x.is_none()).count(),
        }
    }

    /// Fraction of null cells in `[0, 1]`; 0 for an empty column.
    pub fn null_fraction(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.null_count() as f64 / self.len() as f64
        }
    }

    /// Returns `true` if the i-th cell is missing.
    pub fn is_null_at(&self, i: usize) -> bool {
        match &self.data {
            ColumnData::Int(v) => v[i].is_none(),
            ColumnData::Float(v) => v[i].is_none(),
            ColumnData::Bool(v) => v[i].is_none(),
            ColumnData::Categorical { codes, .. } => codes[i].is_none(),
        }
    }

    /// Fetches the i-th cell as a dynamic value.
    pub fn get(&self, i: usize) -> Result<Value> {
        if i >= self.len() {
            return Err(TabularError::RowOutOfBounds {
                index: i,
                len: self.len(),
            });
        }
        Ok(match &self.data {
            ColumnData::Int(v) => v[i].map(Value::Int).unwrap_or(Value::Null),
            ColumnData::Float(v) => v[i].map(Value::Float).unwrap_or(Value::Null),
            ColumnData::Bool(v) => v[i].map(Value::Bool).unwrap_or(Value::Null),
            ColumnData::Categorical { dict, codes } => codes[i]
                .map(|c| Value::Str(dict[c as usize].clone()))
                .unwrap_or(Value::Null),
        })
    }

    /// Iterates all cells as dynamic values (materialising strings).
    pub fn iter_values(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(move |i| self.get(i).expect("index in range"))
    }

    /// Numeric view of the column: every cell as `Option<f64>`.
    /// Categorical cells map to `None`. Binning and the quantile helpers
    /// avoid this copy for float columns by borrowing the backing slice
    /// directly (see `f64_view` in the binning module).
    pub fn to_f64(&self) -> Vec<Option<f64>> {
        match &self.data {
            ColumnData::Int(v) => v.iter().map(|x| x.map(|x| x as f64)).collect(),
            ColumnData::Float(v) => v.clone(),
            ColumnData::Bool(v) => v
                .iter()
                .map(|x| x.map(|b| if b { 1.0 } else { 0.0 }))
                .collect(),
            ColumnData::Categorical { codes, .. } => codes.iter().map(|_| None).collect(),
        }
    }

    /// Selects the rows at `indices`, producing a new column.
    pub fn take(&self, indices: &[usize]) -> Column {
        let data = match &self.data {
            ColumnData::Int(v) => ColumnData::Int(indices.iter().map(|&i| v[i]).collect()),
            ColumnData::Float(v) => ColumnData::Float(indices.iter().map(|&i| v[i]).collect()),
            ColumnData::Bool(v) => ColumnData::Bool(indices.iter().map(|&i| v[i]).collect()),
            ColumnData::Categorical { dict, codes } => ColumnData::Categorical {
                dict: dict.clone(),
                codes: indices.iter().map(|&i| codes[i]).collect(),
            },
        };
        Column {
            name: self.name.clone(),
            data,
        }
    }

    /// Gathers rows through an optional row map: `rows[i] = Some(r)` takes row
    /// `r`, `None` produces a null. The physical dtype (and, for categorical
    /// columns, the dictionary) is preserved exactly — this is the typed
    /// per-column gather kernel behind the code-based join, replacing the
    /// boxed-`Value`-per-cell path.
    ///
    /// # Panics
    /// Panics if any `Some(r)` is out of range.
    pub fn take_opt(&self, rows: &[Option<usize>]) -> Column {
        let data = match &self.data {
            ColumnData::Int(v) => {
                ColumnData::Int(rows.iter().map(|r| r.and_then(|i| v[i])).collect())
            }
            ColumnData::Float(v) => {
                ColumnData::Float(rows.iter().map(|r| r.and_then(|i| v[i])).collect())
            }
            ColumnData::Bool(v) => {
                ColumnData::Bool(rows.iter().map(|r| r.and_then(|i| v[i])).collect())
            }
            ColumnData::Categorical { dict, codes } => ColumnData::Categorical {
                dict: dict.clone(),
                codes: rows.iter().map(|r| r.and_then(|i| codes[i])).collect(),
            },
        };
        Column {
            name: self.name.clone(),
            data,
        }
    }

    /// Keeps only rows where `mask[i]` is true. The mask length must equal the
    /// column length.
    pub fn filter(&self, mask: &[bool]) -> Result<Column> {
        if mask.len() != self.len() {
            return Err(TabularError::LengthMismatch {
                expected: self.len(),
                got: mask.len(),
            });
        }
        let indices: Vec<usize> = mask
            .iter()
            .enumerate()
            .filter(|(_, &m)| m)
            .map(|(i, _)| i)
            .collect();
        Ok(self.take(&indices))
    }

    /// Appends all rows of another column of the same logical type.
    pub fn append(&mut self, other: &Column) -> Result<()> {
        if self.dtype() != other.dtype() {
            return Err(TabularError::TypeMismatch {
                column: self.name.clone(),
                expected: self.dtype().name(),
                got: other.dtype().name(),
            });
        }
        match (&mut self.data, &other.data) {
            (ColumnData::Int(a), ColumnData::Int(b)) => a.extend_from_slice(b),
            (ColumnData::Float(a), ColumnData::Float(b)) => a.extend_from_slice(b),
            (ColumnData::Bool(a), ColumnData::Bool(b)) => a.extend_from_slice(b),
            (
                ColumnData::Categorical { dict, codes },
                ColumnData::Categorical {
                    dict: odict,
                    codes: ocodes,
                },
            ) => {
                // Re-map the other dictionary into ours.
                let mut index: HashMap<String, u32> = dict
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (s.clone(), i as u32))
                    .collect();
                let mut remap = Vec::with_capacity(odict.len());
                for s in odict {
                    let code = match index.get(s.as_str()) {
                        Some(&c) => c,
                        None => {
                            let c = dict.len() as u32;
                            dict.push(s.clone());
                            index.insert(s.clone(), c);
                            c
                        }
                    };
                    remap.push(code);
                }
                codes.extend(ocodes.iter().map(|c| c.map(|c| remap[c as usize])));
            }
            _ => unreachable!("dtype equality checked above"),
        }
        Ok(())
    }

    /// Sets the i-th cell to null (used by missing-data injectors).
    pub fn set_null(&mut self, i: usize) -> Result<()> {
        if i >= self.len() {
            return Err(TabularError::RowOutOfBounds {
                index: i,
                len: self.len(),
            });
        }
        match &mut self.data {
            ColumnData::Int(v) => v[i] = None,
            ColumnData::Float(v) => v[i] = None,
            ColumnData::Bool(v) => v[i] = None,
            ColumnData::Categorical { codes, .. } => codes[i] = None,
        }
        Ok(())
    }

    /// Overwrites the i-th cell with a new value of a compatible type.
    pub fn set(&mut self, i: usize, value: Value) -> Result<()> {
        if i >= self.len() {
            return Err(TabularError::RowOutOfBounds {
                index: i,
                len: self.len(),
            });
        }
        if value.is_null() {
            return self.set_null(i);
        }
        match &mut self.data {
            ColumnData::Int(v) => {
                let x = value
                    .as_f64()
                    .ok_or_else(|| TabularError::InvalidValue(value.render()))?;
                v[i] = Some(x.round() as i64);
            }
            ColumnData::Float(v) => {
                v[i] = Some(
                    value
                        .as_f64()
                        .ok_or_else(|| TabularError::InvalidValue(value.render()))?,
                )
            }
            ColumnData::Bool(v) => {
                v[i] = Some(
                    value
                        .as_bool()
                        .ok_or_else(|| TabularError::InvalidValue(value.render()))?,
                )
            }
            ColumnData::Categorical { dict, codes } => {
                let s = value.render();
                let code = match dict.iter().position(|d| d == &s) {
                    Some(p) => p as u32,
                    None => {
                        dict.push(s);
                        (dict.len() - 1) as u32
                    }
                };
                codes[i] = Some(code);
            }
        }
        Ok(())
    }

    /// Number of distinct non-null values.
    pub fn n_distinct(&self) -> usize {
        self.encode().cardinality()
    }

    /// Mean of the numeric view (ignores nulls and non-numeric cells).
    pub fn mean(&self) -> Option<f64> {
        let vals = self.to_f64();
        let (mut sum, mut n) = (0.0, 0usize);
        for v in vals.into_iter().flatten() {
            sum += v;
            n += 1;
        }
        if n == 0 {
            None
        } else {
            Some(sum / n as f64)
        }
    }

    /// Discrete encoding of the column: every distinct non-null value becomes
    /// a code in `0..cardinality`. This is the representation consumed by the
    /// information-theoretic estimators.
    pub fn encode(&self) -> EncodedColumn {
        /// Shared encoding loop: dictionary-encodes the distinct keys of the
        /// cells in order of first appearance, writing packed codes and the
        /// validity bitmap in one pass.
        fn encode_cells<K, L, I>(n: usize, cells: I, mut render: L) -> EncodedColumn
        where
            K: std::hash::Hash + Eq + Copy,
            L: FnMut(K) -> String,
            I: Iterator<Item = Option<K>>,
        {
            let mut index: HashMap<K, u32> = HashMap::new();
            let mut labels = Vec::new();
            let mut codes = Vec::with_capacity(n);
            let mut validity = Bitmap::with_capacity(n);
            for cell in cells {
                match cell {
                    None => {
                        codes.push(0);
                        validity.push(false);
                    }
                    Some(key) => {
                        let next = index.len() as u32;
                        let code = *index.entry(key).or_insert_with(|| {
                            labels.push(render(key));
                            next
                        });
                        codes.push(code);
                        validity.push(true);
                    }
                }
            }
            EncodedColumn::from_dense(codes, validity, labels)
        }

        let n = self.len();
        match &self.data {
            // Already dictionary-encoded: remap the existing codes through a
            // dense `Vec` lookup (no hashing at all) so only the codes
            // actually present get a slot — cardinality reflects the data,
            // not the dictionary (which may contain stale entries after
            // filtering or a gather join).
            ColumnData::Categorical { dict, codes } => {
                let mut remap: Vec<Option<u32>> = vec![None; dict.len()];
                let mut labels = Vec::new();
                let mut packed = Vec::with_capacity(n);
                let mut validity = Bitmap::with_capacity(n);
                for cell in codes {
                    match cell {
                        None => {
                            packed.push(0);
                            validity.push(false);
                        }
                        Some(c) => {
                            let slot = &mut remap[*c as usize];
                            let code = match *slot {
                                Some(code) => code,
                                None => {
                                    let code = labels.len() as u32;
                                    labels.push(dict[*c as usize].clone());
                                    *slot = Some(code);
                                    code
                                }
                            };
                            packed.push(code);
                            validity.push(true);
                        }
                    }
                }
                EncodedColumn::from_dense(packed, validity, labels)
            }
            ColumnData::Int(v) => encode_cells(n, v.iter().copied(), |x| x.to_string()),
            ColumnData::Bool(v) => encode_cells(n, v.iter().copied(), |x| x.to_string()),
            // Floats are encoded by bit pattern of their canonical form.
            // Typically callers bin numeric columns before encoding, but
            // exact encoding keeps small domains (like per-group means)
            // usable directly.
            ColumnData::Float(v) => encode_cells(
                n,
                v.iter().map(|x| {
                    x.map(|x| {
                        if x == 0.0 {
                            0.0f64.to_bits()
                        } else {
                            x.to_bits()
                        }
                    })
                }),
                |bits| format!("{}", f64::from_bits(bits)),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cat(vals: &[Option<&str>]) -> Column {
        Column::from_str_values("c", vals.to_vec())
    }

    #[test]
    fn build_and_basic_accessors() {
        let c = Column::from_i64("age", vec![Some(30), None, Some(40)]);
        assert_eq!(c.name(), "age");
        assert_eq!(c.len(), 3);
        assert_eq!(c.null_count(), 1);
        assert_eq!(c.dtype(), DType::Int);
        assert_eq!(c.get(0).unwrap(), Value::Int(30));
        assert_eq!(c.get(1).unwrap(), Value::Null);
        assert!(c.get(5).is_err());
        assert!((c.null_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn categorical_dictionary_encoding() {
        let c = cat(&[Some("DE"), Some("US"), Some("DE"), None]);
        assert_eq!(c.dtype(), DType::Categorical);
        assert_eq!(c.get(2).unwrap(), Value::Str("DE".into()));
        assert!(c.is_null_at(3));
        let enc = c.encode();
        assert_eq!(enc.cardinality(), 2);
        assert_eq!(
            enc.iter_codes().collect::<Vec<_>>(),
            vec![Some(0), Some(1), Some(0), None]
        );
        assert_eq!(enc.labels(), &["DE".to_string(), "US".to_string()]);
        assert_eq!(enc.null_count(), 1);
        assert_eq!(enc.n_present(), 3);
        assert_eq!(enc.code_at(1), Some(1));
        assert_eq!(enc.code_at(3), None);
        assert!(!enc.is_present(3));
        assert_eq!(enc.label(0), "DE");
    }

    #[test]
    fn from_values_type_inference() {
        let c = Column::from_values("x", vec![Value::Int(1), Value::Null, Value::Int(3)]);
        assert_eq!(c.dtype(), DType::Int);
        let c = Column::from_values("x", vec![Value::Int(1), Value::Float(2.5)]);
        assert_eq!(c.dtype(), DType::Float);
        assert_eq!(c.get(0).unwrap(), Value::Float(1.0));
        let c = Column::from_values("x", vec![Value::Str("a".into()), Value::Int(1)]);
        assert_eq!(c.dtype(), DType::Categorical);
        let c = Column::from_values("x", vec![Value::Null, Value::Null]);
        assert_eq!(c.dtype(), DType::Categorical);
        assert_eq!(c.null_count(), 2);
    }

    #[test]
    fn take_and_filter() {
        let c = Column::from_f64("x", vec![Some(1.0), Some(2.0), None, Some(4.0)]);
        let t = c.take(&[3, 0]);
        assert_eq!(t.get(0).unwrap(), Value::Float(4.0));
        assert_eq!(t.get(1).unwrap(), Value::Float(1.0));
        let f = c.filter(&[true, false, true, false]).unwrap();
        assert_eq!(f.len(), 2);
        assert!(f.is_null_at(1));
        assert!(c.filter(&[true]).is_err());
    }

    #[test]
    fn append_categorical_remaps_dictionary() {
        let mut a = cat(&[Some("x"), Some("y")]);
        let b = cat(&[Some("y"), Some("z"), None]);
        a.append(&b).unwrap();
        assert_eq!(a.len(), 5);
        assert_eq!(a.get(2).unwrap(), Value::Str("y".into()));
        assert_eq!(a.get(3).unwrap(), Value::Str("z".into()));
        assert!(a.is_null_at(4));
        assert_eq!(a.encode().cardinality(), 3);
    }

    #[test]
    fn append_type_mismatch() {
        let mut a = Column::from_i64("x", vec![Some(1)]);
        let b = Column::from_f64("x", vec![Some(1.0)]);
        assert!(a.append(&b).is_err());
    }

    #[test]
    fn set_and_set_null() {
        let mut c = Column::from_i64("x", vec![Some(1), Some(2)]);
        c.set_null(0).unwrap();
        assert!(c.is_null_at(0));
        c.set(1, Value::Int(9)).unwrap();
        assert_eq!(c.get(1).unwrap(), Value::Int(9));
        let mut s = cat(&[Some("a")]);
        s.set(0, Value::Str("b".into())).unwrap();
        assert_eq!(s.get(0).unwrap(), Value::Str("b".into()));
    }

    #[test]
    fn encode_after_filter_has_tight_cardinality() {
        let c = cat(&[Some("a"), Some("b"), Some("c"), Some("a")]);
        let f = c.filter(&[true, false, false, true]).unwrap();
        // dictionary still contains b and c, but only "a" is present
        assert_eq!(f.encode().cardinality(), 1);
    }

    #[test]
    fn numeric_views_and_mean() {
        let c = Column::from_i64("x", vec![Some(1), Some(3), None]);
        assert_eq!(c.to_f64(), vec![Some(1.0), Some(3.0), None]);
        assert_eq!(c.mean(), Some(2.0));
        let empty = Column::from_f64("y", vec![None, None]);
        assert_eq!(empty.mean(), None);
        let b = Column::from_bool("b", vec![Some(true), Some(false)]);
        assert_eq!(b.to_f64(), vec![Some(1.0), Some(0.0)]);
    }

    #[test]
    fn n_distinct_counts_non_null() {
        let c = Column::from_i64("x", vec![Some(1), Some(1), Some(2), None]);
        assert_eq!(c.n_distinct(), 2);
        let f = Column::from_f64("x", vec![Some(0.0), Some(-0.0), Some(1.0)]);
        assert_eq!(f.n_distinct(), 2); // 0.0 and -0.0 canonicalised
    }

    #[test]
    fn constant_column() {
        let c = Column::constant("k", Value::Str("same".into()), 4);
        assert_eq!(c.len(), 4);
        assert_eq!(c.n_distinct(), 1);
    }

    #[test]
    fn with_name_and_rename() {
        let mut c = Column::from_i64("a", vec![Some(1)]);
        let d = c.with_name("b");
        assert_eq!(d.name(), "b");
        c.rename("z");
        assert_eq!(c.name(), "z");
    }
}
