//! Hash joins between frames.
//!
//! MESA joins the input table `T` with the table of extracted KG attributes
//! `E` on the entity column (e.g. `Country`). The extracted table has at most
//! one row per entity, so the join used throughout is a left equi-join. Its
//! preparation calls only [`join_rows`], the matching rule, and bins each
//! extracted attribute per entity through the resulting row map
//! ([`crate::bin_joined`]) instead of gathering its values; [`join`] is the
//! same rule plus the gathers.

use std::collections::HashMap;

use crate::column::Column;
use crate::dataframe::DataFrame;
use crate::error::Result;
use crate::storage::EncodedColumn;
use crate::value::Value;

/// Join flavours.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// Keep only rows with a match on both sides.
    Inner,
    /// Keep every left row; unmatched right columns become null.
    Left,
}

/// Joins `left` and `right` on `left_on = right_on`.
///
/// Right columns whose names collide with a left column are suffixed with
/// `"_right"` (then `"_right2"`, … — see [`join_name`]). When several right
/// rows match a left row, the first match wins (the extracted-attribute
/// tables MESA builds are keyed by entity, so duplicates indicate a
/// malformed extraction and are not multiplied out).
///
/// This is [`join_rows`] over the dictionary encodings of both keys, plus
/// typed per-dtype gathers ([`Column::take_opt`]) that preserve the
/// physical dtype instead of boxing every cell as a [`Value`]. Keys compare
/// by encoding label, not rendered string; for string, int, and bool keys
/// the two are identical, while float keys canonicalise `-0.0` to `0.0` and
/// print without a forced `.0` suffix (so integral float keys match equal
/// int keys and no longer match the string `"2.0"`) — the only observable
/// divergences from the reference join, and only for float-keyed joins,
/// which the MESA pipeline never performs.
pub fn join(
    left: &DataFrame,
    right: &DataFrame,
    left_on: &str,
    right_on: &str,
    kind: JoinKind,
) -> Result<DataFrame> {
    let left_key = left.column(left_on)?.encode();
    let right_key = right.column(right_on)?.encode();
    let mut right_rows = join_rows(&left_key, &right_key);
    let mut out = match kind {
        JoinKind::Left => left.clone(),
        JoinKind::Inner => {
            let left_rows: Vec<usize> = (0..right_rows.len())
                .filter(|&row| right_rows[row].is_some())
                .collect();
            right_rows.retain(Option::is_some);
            left.take(&left_rows)
        }
    };
    for col in right.columns() {
        if col.name() == right_on {
            continue;
        }
        let mut gathered = col.take_opt(&right_rows);
        gathered.rename(join_name(col.name(), |name| out.has_column(name)));
        out.add_column(gathered)?;
    }
    Ok(out)
}

/// The row map of a left join on two encoded keys: for every row of
/// `left_key`, the first row of `right_key` with the same label, or `None`
/// when the left key is null or has no match. Null right keys never match.
///
/// Keys match by the labels [`Column::encode`] gives them. Each distinct
/// left label is probed once; the per-row loop is then an array lookup.
pub fn join_rows(left_key: &EncodedColumn, right_key: &EncodedColumn) -> Vec<Option<usize>> {
    // First right row per distinct right key. Codes are assigned in order of
    // first appearance, so scanning rows once fills each slot with the first
    // matching row.
    let mut first_right_row: Vec<Option<usize>> = vec![None; right_key.cardinality()];
    for (row, code) in right_key.iter_codes().enumerate() {
        if let Some(code) = code {
            first_right_row[code as usize].get_or_insert(row);
        }
    }
    let right_index: HashMap<&str, usize> = right_key
        .labels()
        .iter()
        .enumerate()
        .map(|(code, label)| (label.as_str(), code))
        .collect();
    let left_code_to_right_row: Vec<Option<usize>> = left_key
        .labels()
        .iter()
        .map(|label| {
            right_index
                .get(label.as_str())
                .and_then(|&code| first_right_row[code])
        })
        .collect();
    left_key
        .iter_codes()
        .map(|code| code.and_then(|c| left_code_to_right_row[c as usize]))
        .collect()
}

/// The rendered-string reference join: hashes `Value::render()` of every key
/// cell and gathers right columns cell by cell through boxed [`Value`]s.
///
/// The behavioural reference (oracle) for [`join`]: no production path
/// calls it. `tests/join_equivalence.rs` and the fuzzer's join-equivalence
/// family run both implementations over the same inputs; it stays public
/// because the fuzzer is a crate of its own.
pub fn join_rendered(
    left: &DataFrame,
    right: &DataFrame,
    left_on: &str,
    right_on: &str,
    kind: JoinKind,
) -> Result<DataFrame> {
    let left_key = left.column(left_on)?;
    let right_key = right.column(right_on)?;

    // Build a hash index over the right key (rendered value -> first row).
    let mut index: HashMap<String, usize> = HashMap::new();
    for i in 0..right_key.len() {
        let v = right_key.get(i)?;
        if v.is_null() {
            continue;
        }
        index.entry(v.render()).or_insert(i);
    }

    let mut left_rows: Vec<usize> = Vec::new();
    let mut right_rows: Vec<Option<usize>> = Vec::new();
    for i in 0..left_key.len() {
        let v = left_key.get(i)?;
        let matched = if v.is_null() {
            None
        } else {
            index.get(&v.render()).copied()
        };
        match (kind, matched) {
            (JoinKind::Inner, Some(r)) => {
                left_rows.push(i);
                right_rows.push(Some(r));
            }
            (JoinKind::Inner, None) => {}
            (JoinKind::Left, m) => {
                left_rows.push(i);
                right_rows.push(m);
            }
        }
    }

    let mut out = left.take(&left_rows);
    for col in right.columns() {
        if col.name() == right_on {
            continue;
        }
        let name = join_name(col.name(), |name| out.has_column(name));
        let values: Vec<Value> = right_rows
            .iter()
            .map(|r| match r {
                Some(r) => col.get(*r).unwrap_or(Value::Null),
                None => Value::Null,
            })
            .collect();
        out.add_column(Column::from_values(name, values))?;
    }
    Ok(out)
}

/// The name a right column takes in a join output whose columns so far
/// `taken` reports: unchanged when free, otherwise `"<name>_right"`, then
/// `"<name>_right2"`, `"<name>_right3"`, … until unique — deterministic,
/// never a late `DuplicateColumn` error. Callers that append a join's
/// columns themselves (MESA's preparation) name them through this rule.
pub fn join_name(name: &str, taken: impl Fn(&str) -> bool) -> String {
    if !taken(name) {
        return name.to_string();
    }
    let mut candidate = format!("{name}_right");
    let mut k = 2usize;
    while taken(&candidate) {
        candidate = format!("{name}_right{k}");
        k += 1;
    }
    candidate
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataframe::DataFrameBuilder;

    fn left() -> DataFrame {
        DataFrameBuilder::new()
            .cat("country", vec![Some("DE"), Some("US"), Some("XX"), None])
            .float(
                "salary",
                vec![Some(60.0), Some(90.0), Some(10.0), Some(20.0)],
            )
            .build()
            .unwrap()
    }

    fn right() -> DataFrame {
        DataFrameBuilder::new()
            .cat("entity", vec![Some("DE"), Some("US"), Some("FR")])
            .float("gdp", vec![Some(4.0), Some(21.0), Some(2.9)])
            .float("salary", vec![Some(1.0), Some(2.0), Some(3.0)])
            .build()
            .unwrap()
    }

    #[test]
    fn left_join_keeps_unmatched() {
        let out = join(&left(), &right(), "country", "entity", JoinKind::Left).unwrap();
        assert_eq!(out.n_rows(), 4);
        assert_eq!(out.get(0, "gdp").unwrap(), Value::Float(4.0));
        assert_eq!(out.get(2, "gdp").unwrap(), Value::Null); // XX unmatched
        assert_eq!(out.get(3, "gdp").unwrap(), Value::Null); // null key unmatched
                                                             // name collision suffixed
        assert!(out.has_column("salary_right"));
        assert_eq!(out.get(1, "salary_right").unwrap(), Value::Float(2.0));
    }

    #[test]
    fn inner_join_drops_unmatched() {
        let out = join(&left(), &right(), "country", "entity", JoinKind::Inner).unwrap();
        assert_eq!(out.n_rows(), 2);
        assert_eq!(out.get(1, "country").unwrap(), Value::Str("US".into()));
    }

    #[test]
    fn join_missing_key_errors() {
        assert!(join(&left(), &right(), "nope", "entity", JoinKind::Left).is_err());
        assert!(join(&left(), &right(), "country", "nope", JoinKind::Left).is_err());
    }

    #[test]
    fn duplicate_right_keys_use_first_match() {
        let dup = DataFrameBuilder::new()
            .cat("entity", vec![Some("DE"), Some("DE")])
            .float("hdi", vec![Some(0.9), Some(0.1)])
            .build()
            .unwrap();
        let out = join(&left(), &dup, "country", "entity", JoinKind::Left).unwrap();
        assert_eq!(out.get(0, "hdi").unwrap(), Value::Float(0.9));
    }

    #[test]
    fn join_key_column_not_duplicated() {
        let out = join(&left(), &right(), "country", "entity", JoinKind::Left).unwrap();
        assert!(!out.has_column("entity"));
    }

    #[test]
    fn existing_right_suffix_gets_deterministic_rename() {
        // The left frame already holds both `salary` and `salary_right`, so
        // the right `salary` needs a second-level rename instead of the old
        // late `DuplicateColumn` error.
        let mut l = left();
        l.add_column(Column::from_f64(
            "salary_right",
            vec![Some(0.0), Some(0.0), Some(0.0), Some(0.0)],
        ))
        .unwrap();
        for jf in [join, join_rendered] {
            let out = jf(&l, &right(), "country", "entity", JoinKind::Left).unwrap();
            assert!(out.has_column("salary_right2"), "{:?}", out.column_names());
            assert_eq!(out.get(1, "salary_right2").unwrap(), Value::Float(2.0));
        }
    }

    #[test]
    fn gather_preserves_dtypes_and_nulls() {
        use crate::value::DType;
        let r = DataFrameBuilder::new()
            .cat("entity", vec![Some("DE"), Some("US")])
            .int("ints", vec![Some(7), None])
            .float("floats", vec![Some(1.5), Some(2.5)])
            .boolean("bools", vec![Some(true), Some(false)])
            .cat("cats", vec![Some("x"), Some("y")])
            .build()
            .unwrap();
        let out = join(&left(), &r, "country", "entity", JoinKind::Left).unwrap();
        assert_eq!(out.column("ints").unwrap().dtype(), DType::Int);
        assert_eq!(out.column("floats").unwrap().dtype(), DType::Float);
        assert_eq!(out.column("bools").unwrap().dtype(), DType::Bool);
        assert_eq!(out.column("cats").unwrap().dtype(), DType::Categorical);
        assert_eq!(out.get(0, "ints").unwrap(), Value::Int(7));
        assert_eq!(out.get(1, "ints").unwrap(), Value::Null); // null cell matched
        assert_eq!(out.get(2, "floats").unwrap(), Value::Null); // unmatched key
        assert_eq!(out.get(3, "cats").unwrap(), Value::Null); // null key
        assert_eq!(out.get(1, "bools").unwrap(), Value::Bool(false));
        assert_eq!(out.get(0, "cats").unwrap(), Value::Str("x".into()));
    }

    #[test]
    fn null_keys_on_both_sides_never_match() {
        let l = DataFrameBuilder::new()
            .cat("k", vec![None, Some("a"), None])
            .build()
            .unwrap();
        let r = DataFrameBuilder::new()
            .cat("k2", vec![None, Some("a")])
            .int("v", vec![Some(1), Some(2)])
            .build()
            .unwrap();
        let out = join(&l, &r, "k", "k2", JoinKind::Left).unwrap();
        assert_eq!(out.get(0, "v").unwrap(), Value::Null);
        assert_eq!(out.get(1, "v").unwrap(), Value::Int(2));
        assert_eq!(out.get(2, "v").unwrap(), Value::Null);
        let inner = join(&l, &r, "k", "k2", JoinKind::Inner).unwrap();
        assert_eq!(inner.n_rows(), 1);
    }

    #[test]
    fn join_rows_maps_every_left_row_to_its_first_match() {
        let l = left();
        let r = DataFrameBuilder::new()
            .cat("entity", vec![None, Some("US"), Some("DE"), Some("US")])
            .build()
            .unwrap();
        let rows = join_rows(
            &l.column("country").unwrap().encode(),
            &r.column("entity").unwrap().encode(),
        );
        // DE, US (first of two), XX unmatched, null key unmatched.
        assert_eq!(rows, vec![Some(2), Some(1), None, None]);
    }

    #[test]
    fn int_keys_match_like_the_reference_join() {
        let l = DataFrameBuilder::new()
            .int("id", vec![Some(1), Some(2), Some(3), None])
            .build()
            .unwrap();
        let r = DataFrameBuilder::new()
            .int("id", vec![Some(3), Some(1)])
            .cat("tag", vec![Some("three"), Some("one")])
            .build()
            .unwrap();
        let a = join(&l, &r, "id", "id", JoinKind::Left).unwrap();
        let b = join_rendered(&l, &r, "id", "id", JoinKind::Left).unwrap();
        for row in 0..a.n_rows() {
            assert_eq!(a.get(row, "tag").unwrap(), b.get(row, "tag").unwrap());
        }
        assert_eq!(a.get(0, "tag").unwrap(), Value::Str("one".into()));
        assert_eq!(a.get(1, "tag").unwrap(), Value::Null);
    }
}
