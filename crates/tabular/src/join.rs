//! Hash joins between frames.
//!
//! MESA joins the input table `T` with the table of extracted KG attributes
//! `E` on the entity column (e.g. `Country`). The extracted table has at most
//! one row per entity, so the join used throughout is a left equi-join.

use std::collections::HashMap;

use crate::column::Column;
use crate::dataframe::DataFrame;
use crate::error::Result;
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
/// `"_right"` (then `"_right2"`, … — see [`join_rendered`] for the shared
/// rename rule). When several right rows match a left row, the first match
/// wins (the extracted-attribute tables MESA builds are keyed by entity, so
/// duplicates indicate a malformed extraction and are not multiplied out).
///
/// This is the columnar code-based implementation: both key columns are
/// dictionary-encoded once, key matching happens per *distinct* key label
/// (one hash probe per distinct left code, then a flat array lookup per row),
/// and right columns are gathered through typed per-dtype kernels
/// ([`Column::take_opt`]) that preserve the physical dtype instead of boxing
/// every cell as a [`Value`]. Keys compare by encoding label, not rendered
/// string; for string, int, and bool keys the two are identical, while float
/// keys canonicalise `-0.0` to `0.0` and print without a forced `.0` suffix
/// (so integral float keys match equal int keys and no longer match the
/// string `"2.0"`) — the only observable divergences from the reference
/// join, and only for float-keyed joins, which the MESA pipeline never
/// performs.
pub fn join(
    left: &DataFrame,
    right: &DataFrame,
    left_on: &str,
    right_on: &str,
    kind: JoinKind,
) -> Result<DataFrame> {
    let left_key = left.column(left_on)?.encode();
    let right_key = right.column(right_on)?.encode();

    // First right row per distinct right key. Codes are assigned in order of
    // first appearance, so scanning rows once fills each slot with the first
    // matching row — the same "first match wins" rule as the reference join.
    let mut first_right_row: Vec<usize> = vec![usize::MAX; right_key.cardinality()];
    for (row, code) in right_key.iter_codes().enumerate() {
        if let Some(code) = code {
            let slot = &mut first_right_row[code as usize];
            if *slot == usize::MAX {
                *slot = row;
            }
        }
    }

    // Match on dictionary codes: resolve each distinct *left* label to its
    // right row once, then the per-row loop is a plain array lookup.
    let right_index: HashMap<&str, u32> = right_key
        .labels()
        .iter()
        .enumerate()
        .map(|(code, label)| (label.as_str(), code as u32))
        .collect();
    let left_code_to_right_row: Vec<Option<usize>> = left_key
        .labels()
        .iter()
        .map(|label| {
            right_index
                .get(label.as_str())
                .map(|&code| first_right_row[code as usize])
                .filter(|&row| row != usize::MAX)
        })
        .collect();

    // The row map: for every surviving left row, the right row to gather
    // (`None` = unmatched, gathers nulls).
    let mut right_rows: Vec<Option<usize>> = Vec::with_capacity(left_key.len());
    let mut left_rows: Vec<usize> = Vec::new();
    let all_left_rows = match kind {
        JoinKind::Left => {
            for code in left_key.iter_codes() {
                right_rows.push(code.and_then(|c| left_code_to_right_row[c as usize]));
            }
            true
        }
        JoinKind::Inner => {
            for (row, code) in left_key.iter_codes().enumerate() {
                if let Some(r) = code.and_then(|c| left_code_to_right_row[c as usize]) {
                    left_rows.push(row);
                    right_rows.push(Some(r));
                }
            }
            false
        }
    };

    let mut out = if all_left_rows {
        left.clone()
    } else {
        left.take(&left_rows)
    };
    for col in right.columns() {
        if col.name() == right_on {
            continue;
        }
        let name = disambiguate(&out, col.name());
        let mut gathered = col.take_opt(&right_rows);
        gathered.rename(name);
        out.add_column(gathered)?;
    }
    Ok(out)
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
        let name = disambiguate(&out, col.name());
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

/// The name a right column takes in the join output: unchanged when free,
/// otherwise `"<name>_right"`, then `"<name>_right2"`, `"<name>_right3"`, …
/// until unique — deterministic, never a late `DuplicateColumn` error.
fn disambiguate(out: &DataFrame, name: &str) -> String {
    if !out.has_column(name) {
        return name.to_string();
    }
    let mut candidate = format!("{name}_right");
    let mut k = 2usize;
    while out.has_column(&candidate) {
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
