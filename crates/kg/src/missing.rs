//! Missing-value injection used by the robustness experiments (Figure 3).
//!
//! The paper evaluates robustness by removing values from the most relevant
//! extracted attributes in two ways: *missing at random* and *biased removal*
//! (the top-x highest values are removed — a textbook source of selection
//! bias). Both injectors operate in place on a cloned frame.

use rand::seq::SliceRandom;
use rand::Rng;

use tabular::{DataFrame, Result, Value};

/// Removes (sets to null) a `fraction` of the currently non-null cells of
/// `column`, chosen uniformly at random.
pub fn remove_at_random<R: Rng>(
    df: &DataFrame,
    column: &str,
    fraction: f64,
    rng: &mut R,
) -> Result<DataFrame> {
    let fraction = fraction.clamp(0.0, 1.0);
    let mut out = df.clone();
    let col = out.column(column)?;
    let mut present: Vec<usize> = (0..col.len()).filter(|&i| !col.is_null_at(i)).collect();
    present.shuffle(rng);
    let n_remove = (present.len() as f64 * fraction).round() as usize;
    let col = out.column_mut(column)?;
    for &i in present.iter().take(n_remove) {
        col.set_null(i)?;
    }
    Ok(out)
}

/// Removes (sets to null) the cells holding the top-`fraction` *highest*
/// values of `column` — biased removal, which makes the remaining complete
/// cases systematically unrepresentative.
///
/// For categorical columns the "highest" values are the lexicographically
/// largest, which is still a deterministic, value-dependent (hence biased)
/// removal rule. NaN cells count as missing, as binning treats them: they
/// are neither removed nor counted in the fraction.
pub fn remove_biased(df: &DataFrame, column: &str, fraction: f64) -> Result<DataFrame> {
    let fraction = fraction.clamp(0.0, 1.0);
    let mut out = df.clone();
    let col = out.column(column)?;
    let mut present: Vec<(usize, Value)> = col
        .iter_values()
        .enumerate()
        .filter(|(_, v)| !v.is_null() && !v.as_f64().is_some_and(f64::is_nan))
        .collect();
    // Sort descending by value; equal values keep row order.
    present.sort_by(|(_, a), (_, b)| b.total_cmp(a));
    let n_remove = (present.len() as f64 * fraction).round() as usize;
    let col = out.column_mut(column)?;
    for &(i, _) in present.iter().take(n_remove) {
        col.set_null(i)?;
    }
    Ok(out)
}

/// Imputes missing numeric cells of `column` with the mean of the observed
/// cells (the "common mean imputation technique" the paper compares against).
/// Categorical columns are imputed with the most frequent value.
pub fn impute_mean(df: &DataFrame, column: &str) -> Result<DataFrame> {
    let mut out = df.clone();
    let col = out.column(column)?;
    if col.dtype().is_numeric() {
        let mean = match col.mean() {
            Some(m) => m,
            None => return Ok(out),
        };
        let nulls: Vec<usize> = (0..col.len()).filter(|&i| col.is_null_at(i)).collect();
        let col = out.column_mut(column)?;
        for i in nulls {
            col.set(i, tabular::Value::Float(mean))?;
        }
    } else {
        // Mode imputation for discrete columns.
        let enc = col.encode();
        let mut counts = vec![0usize; enc.cardinality()];
        for c in enc.iter_codes().flatten() {
            counts[c as usize] += 1;
        }
        let mode = counts
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .map(|(i, _)| enc.label(i as u32).to_string());
        let mode = match mode {
            Some(m) => m,
            None => return Ok(out),
        };
        let nulls: Vec<usize> = (0..col.len()).filter(|&i| col.is_null_at(i)).collect();
        let col = out.column_mut(column)?;
        for i in nulls {
            col.set(i, tabular::Value::Str(mode.clone()))?;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tabular::DataFrameBuilder;

    fn df() -> DataFrame {
        DataFrameBuilder::new()
            .float("hdi", (0..100).map(|i| Some(i as f64)).collect())
            .cat(
                "cat",
                (0..100)
                    .map(|i| Some(if i % 3 == 0 { "a" } else { "b" }))
                    .collect(),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn random_removal_hits_target_fraction() {
        let mut rng = StdRng::seed_from_u64(7);
        let out = remove_at_random(&df(), "hdi", 0.3, &mut rng).unwrap();
        assert_eq!(out.column("hdi").unwrap().null_count(), 30);
        // original untouched
        assert_eq!(df().column("hdi").unwrap().null_count(), 0);
    }

    #[test]
    fn random_removal_extremes() {
        let mut rng = StdRng::seed_from_u64(7);
        assert_eq!(
            remove_at_random(&df(), "hdi", 0.0, &mut rng)
                .unwrap()
                .column("hdi")
                .unwrap()
                .null_count(),
            0
        );
        assert_eq!(
            remove_at_random(&df(), "hdi", 1.0, &mut rng)
                .unwrap()
                .column("hdi")
                .unwrap()
                .null_count(),
            100
        );
        assert!(remove_at_random(&df(), "nope", 0.5, &mut rng).is_err());
    }

    #[test]
    fn biased_removal_takes_highest() {
        let out = remove_biased(&df(), "hdi", 0.2).unwrap();
        let col = out.column("hdi").unwrap();
        assert_eq!(col.null_count(), 20);
        // the 20 highest values (80..99) are gone
        for i in 80..100 {
            assert!(col.is_null_at(i), "row {i} should be removed");
        }
        for i in 0..80 {
            assert!(!col.is_null_at(i));
        }
    }

    #[test]
    fn biased_removal_leaves_nan_cells_and_does_not_count_them() {
        // Every third of 21 cells is NaN; the other 14 hold their row index.
        let cells: Vec<Option<f64>> = (0..21)
            .map(|i| Some(if i % 3 == 0 { f64::NAN } else { i as f64 }))
            .collect();
        let base = DataFrameBuilder::new().float("x", cells).build().unwrap();
        let out = remove_biased(&base, "x", 0.5).unwrap();
        let col = out.column("x").unwrap();
        // half of the 14 numbers: rows 11, 13, 14, 16, 17, 19 and 20
        assert_eq!(col.null_count(), 7);
        for i in 0..21 {
            let removed = i > 10 && i % 3 != 0;
            assert_eq!(col.is_null_at(i), removed, "row {i}");
        }
    }

    #[test]
    fn mean_imputation_fills_numeric() {
        let base = DataFrameBuilder::new()
            .float("x", vec![Some(1.0), None, Some(3.0), None])
            .build()
            .unwrap();
        let out = impute_mean(&base, "x").unwrap();
        assert_eq!(out.column("x").unwrap().null_count(), 0);
        assert_eq!(out.get(1, "x").unwrap(), tabular::Value::Float(2.0));
    }

    #[test]
    fn mode_imputation_fills_categorical() {
        let base = DataFrameBuilder::new()
            .cat("c", vec![Some("a"), Some("a"), Some("b"), None])
            .build()
            .unwrap();
        let out = impute_mean(&base, "c").unwrap();
        assert_eq!(out.get(3, "c").unwrap(), tabular::Value::Str("a".into()));
    }

    #[test]
    fn imputation_of_all_null_column_is_noop() {
        let base = DataFrameBuilder::new()
            .float("x", vec![None, None])
            .build()
            .unwrap();
        let out = impute_mean(&base, "x").unwrap();
        assert_eq!(out.column("x").unwrap().null_count(), 2);
    }
}
