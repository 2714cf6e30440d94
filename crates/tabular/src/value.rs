//! Dynamically typed scalar values and data types.
//!
//! A [`Value`] is the unit exchanged at cell granularity: row accessors,
//! predicates, and CSV parsing all speak `Value`. Columns themselves are
//! stored in typed vectors (see [`crate::column`]), so `Value` is only
//! materialised at the boundaries.

use std::cmp::Ordering;
use std::fmt;

/// The logical type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    /// 64-bit signed integers.
    Int,
    /// 64-bit floating point numbers.
    Float,
    /// Booleans.
    Bool,
    /// Dictionary-encoded strings (categorical data).
    Categorical,
}

impl DType {
    /// Human-readable name, used in error messages.
    pub fn name(self) -> &'static str {
        match self {
            DType::Int => "int",
            DType::Float => "float",
            DType::Bool => "bool",
            DType::Categorical => "categorical",
        }
    }

    /// Whether the type is numeric (int or float).
    pub fn is_numeric(self) -> bool {
        matches!(self, DType::Int | DType::Float)
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A dynamically typed scalar cell value.
///
/// `Null` represents a missing value regardless of the column's type.
#[derive(Debug, Clone)]
pub enum Value {
    /// Missing value.
    Null,
    /// Integer value.
    Int(i64),
    /// Floating point value.
    Float(f64),
    /// Boolean value.
    Bool(bool),
    /// String / categorical value.
    Str(String),
}

impl Value {
    /// Returns `true` if the value is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The dynamic type of the value, or `None` for nulls.
    pub fn dtype(&self) -> Option<DType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DType::Int),
            Value::Float(_) => Some(DType::Float),
            Value::Bool(_) => Some(DType::Bool),
            Value::Str(_) => Some(DType::Categorical),
        }
    }

    /// Numeric view of the value: ints and floats convert, booleans map to
    /// 0/1, everything else (including null) is `None`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// Integer view of the value, if it is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// String view of the value, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Boolean view of the value, if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// A total order over the cells of one column, for sorting: nulls
    /// first, as [`PartialOrd`] orders them, and floats by
    /// [`f64::total_cmp`] with every NaN after every number.
    pub fn total_cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Float(a), Value::Float(b)) => cmp_nan_last(*a, *b),
            _ => self.partial_cmp(other).unwrap_or(Ordering::Equal),
        }
    }

    /// Renders the value the way it appears in CSV output and reports.
    /// Nulls render as the empty string.
    pub fn render(&self) -> String {
        match self {
            Value::Null => String::new(),
            Value::Int(v) => v.to_string(),
            Value::Float(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    format!("{v:.1}")
                } else {
                    format!("{v}")
                }
            }
            Value::Bool(b) => b.to_string(),
            Value::Str(s) => s.clone(),
        }
    }
}

/// [`f64::total_cmp`] with every NaN, whatever its sign, after every number.
pub(crate) fn cmp_nan_last(a: f64, b: f64) -> Ordering {
    a.is_nan().cmp(&b.is_nan()).then(a.total_cmp(&b))
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            _ => f.write_str(&self.render()),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a == b || (a.is_nan() && b.is_nan()),
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            // Cross numeric comparisons: 3 == 3.0
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => *a as f64 == *b,
            _ => false,
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, Value::Null) => Some(Ordering::Equal),
            // Nulls sort first so they group together deterministically.
            (Value::Null, _) => Some(Ordering::Less),
            (_, Value::Null) => Some(Ordering::Greater),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            _ => {
                let a = self.as_f64()?;
                let b = other.as_f64()?;
                a.partial_cmp(&b)
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        match v {
            Some(v) => v.into(),
            None => Value::Null,
        }
    }
}

/// Parses a raw textual token (e.g. a CSV field) into the most specific
/// [`Value`]: empty → null, then int, float, bool, finally string.
pub fn parse_token(token: &str) -> Value {
    let trimmed = token.trim();
    if trimmed.is_empty() {
        return Value::Null;
    }
    if let Ok(v) = trimmed.parse::<i64>() {
        return Value::Int(v);
    }
    if let Ok(v) = trimmed.parse::<f64>() {
        return Value::Float(v);
    }
    match trimmed {
        "true" | "True" | "TRUE" => Value::Bool(true),
        "false" | "False" | "FALSE" => Value::Bool(false),
        _ => Value::Str(trimmed.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtype_names() {
        assert_eq!(DType::Int.name(), "int");
        assert_eq!(DType::Categorical.to_string(), "categorical");
        assert!(DType::Float.is_numeric());
        assert!(!DType::Bool.is_numeric());
    }

    #[test]
    fn value_null_checks() {
        assert!(Value::Null.is_null());
        assert!(!Value::Int(3).is_null());
        assert_eq!(Value::Null.dtype(), None);
        assert_eq!(Value::Float(1.0).dtype(), Some(DType::Float));
    }

    #[test]
    fn value_numeric_views() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Bool(true).as_f64(), Some(1.0));
        assert_eq!(Value::Str("x".into()).as_f64(), None);
        assert_eq!(Value::Null.as_f64(), None);
        assert_eq!(Value::Int(7).as_i64(), Some(7));
        assert_eq!(Value::Str("abc".into()).as_str(), Some("abc"));
        assert_eq!(Value::Bool(false).as_bool(), Some(false));
    }

    #[test]
    fn value_equality_cross_type() {
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert_ne!(Value::Int(3), Value::Float(3.5));
        assert_eq!(Value::Str("a".into()), Value::Str("a".into()));
        assert_ne!(Value::Null, Value::Int(0));
        assert_eq!(Value::Null, Value::Null);
    }

    #[test]
    fn value_ordering() {
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::Float(1.5) < Value::Int(2));
        assert!(Value::Str("a".into()) < Value::Str("b".into()));
        assert!(Value::Null < Value::Int(-100));
        assert_eq!(Value::Str("a".into()).partial_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn parse_tokens() {
        assert_eq!(parse_token(""), Value::Null);
        assert_eq!(parse_token("  "), Value::Null);
        assert_eq!(parse_token("42"), Value::Int(42));
        assert_eq!(parse_token("3.25"), Value::Float(3.25));
        assert_eq!(parse_token("true"), Value::Bool(true));
        assert_eq!(parse_token("Germany"), Value::Str("Germany".into()));
    }

    #[test]
    fn render_values() {
        assert_eq!(Value::Null.render(), "");
        assert_eq!(Value::Int(5).render(), "5");
        assert_eq!(Value::Float(2.0).render(), "2.0");
        assert_eq!(Value::Str("x".into()).render(), "x");
        assert_eq!(Value::Bool(true).render(), "true");
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from(2.5f64), Value::Float(2.5));
        assert_eq!(Value::from("hi"), Value::Str("hi".into()));
        assert_eq!(Value::from(Some(1i64)), Value::Int(1));
        assert_eq!(Value::from(Option::<i64>::None), Value::Null);
    }
}
