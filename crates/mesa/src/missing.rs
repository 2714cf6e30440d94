//! Missing-data handling (Section 3.2): selection-bias detection and Inverse
//! Probability Weighting.
//!
//! Extracted attributes contain missing values (failed links, sparse KG). The
//! estimators in `infotheory` use complete-case analysis, which is unbiased
//! only when the recoverability conditions of Propositions 3.1/3.2 hold —
//! essentially, when missingness carries no information about the outcome (or
//! the partner attribute) once the observed variables are taken into account.
//!
//! For each candidate attribute `E` we therefore:
//!
//! 1. build its *selection indicator* `R_E` (1 = observed, 0 = missing);
//! 2. test whether `R_E` is independent of the outcome `O` and of the
//!    exposure `T` (given the context, which the prepared frame already
//!    encodes). If both independencies hold, complete cases are a
//!    representative sample and no correction is needed;
//! 3. otherwise fit a logistic regression `P(R_E = 1 | X)` on fully observed
//!    attributes of the input dataset and weight each complete case by
//!    `P(R_E = 1) / P(R_E = 1 | x_i)` — the IPW estimator the paper adopts.
//!
//! The features `X` are chosen by a canonical rule: the outcome first, then
//! the rest by name, each with 2–8 levels and one-hot encoded in label
//! order, while their cross product stays within 256 cells. The model is
//! fitted over the occupied cells with binomial weights, so a fit costs one
//! pass over the rows plus IRLS over at most 256 design rows, and the
//! weights do not depend on the order of the rows or columns or on how
//! their codes were assigned.
//!
//! The features do not depend on `E`: a fitted candidate has missing
//! values, so it is never one of its own fully observed features.
//! [`analyze_candidates`] therefore selects the features and builds the
//! model's design once, on the first fit it needs, and every candidate's
//! fit reads that one design.

use std::collections::HashMap;
use std::sync::OnceLock;

use infotheory::{CiTestConfig, EncodedFrame};
use stats::{irls, Design};
use tabular::{Column, EncodedColumn};

use crate::error::{MesaError, Result};

/// How MESA treats missing values in candidate attributes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissingPolicy {
    /// Complete-case analysis with no correction.
    CompleteCase,
    /// Detect selection bias per attribute and re-weight complete cases
    /// (Inverse Probability Weighting) where it is detected. The paper's
    /// default.
    Ipw,
}

/// Result of the selection-bias analysis for one attribute.
#[derive(Debug, Clone)]
pub struct SelectionBiasInfo {
    /// The attribute name.
    pub attribute: String,
    /// Fraction of missing values.
    pub missing_fraction: f64,
    /// Whether selection bias was detected (missingness associated with the
    /// outcome or the exposure).
    pub biased: bool,
    /// IPW weights for every row (1.0 where no correction applies). `None`
    /// when no correction is needed or possible.
    pub weights: Option<Vec<f64>>,
}

/// Builds the selection indicator `R_E` for an attribute as an encoded
/// column: code 1 = observed, code 0 = missing. Reads only the validity, so
/// the column's layout does not matter.
pub fn selection_indicator(column: &EncodedColumn) -> EncodedColumn {
    // The indicator is the validity bitmap re-expressed as codes; walking
    // set-bit runs word-by-word fills it in O(words + runs) instead of one
    // branch per row.
    let mut codes = vec![0u32; column.len()];
    for (start, end) in column.validity().iter_runs() {
        codes[start..end].fill(1);
    }
    EncodedColumn::from_codes(codes, vec!["missing".into(), "observed".into()])
}

/// Most levels a feature of the selection-probability model may have.
const MAX_LEVELS: usize = 8;

/// Most cells — feature combinations — the selection-probability model may
/// span. A cell index therefore fits in a byte.
const MAX_CELLS: usize = 256;

/// The design of the selection-probability model, shared by every fit of
/// one [`analyze_candidates`] call: one row `[1, one-hot…]` per occupied
/// cell, in cell order.
struct SelectionDesign {
    design: Design,
    groups: Groups,
}

/// The features are discrete, so rows in the same cell are
/// interchangeable: IRLS runs over the occupied cells with binomial
/// weights — the row-level fit's optimum, over at most [`MAX_CELLS`] rows.
struct Groups {
    /// Design row (occupied cell) of every frame row.
    of_row: Vec<u8>,
    /// Frame rows per design row, the binomial weights.
    rows: Vec<f64>,
}

impl SelectionDesign {
    /// Selects the model's features and builds the design. The pool is
    /// taken in name order, with the outcome first when it is in the pool:
    /// a fit runs only once `R ⫫ O` or `R ⫫ T` was rejected, and a model
    /// without `O` cannot re-weight a dependence on it. A column is taken
    /// when it has no nulls and 2 to [`MAX_LEVELS`] levels, the cross
    /// product stays within [`MAX_CELLS`], and at least as many cells are
    /// occupied as the design has columns; otherwise the next one is tried.
    ///
    /// Each feature is one-hot encoded with its levels ranked by label (bin
    /// labels are bin indices, so binned numerics rank in value order), and
    /// cells are numbered by mixed radix over the ranks, the first feature
    /// varying fastest. Any permutation of the frame's rows or columns, and
    /// any relabelling of its codes, therefore gives the same design.
    /// `None` when the frame has no rows.
    fn build(
        encoded: &EncodedFrame,
        feature_columns: &[String],
        outcome: &str,
    ) -> Result<Option<SelectionDesign>> {
        let mut pool: Vec<&str> = feature_columns.iter().map(String::as_str).collect();
        pool.sort_unstable();
        if let Some(at) = pool.iter().position(|&f| f == outcome) {
            pool[..=at].rotate_right(1);
        }
        let mut cell_of_row = vec![0u8; encoded.n_rows()];
        let mut levels: Vec<usize> = Vec::new();
        let (mut cells, mut params) = (1, 1);
        for name in pool {
            let col = encoded.column(name)?;
            let k = col.cardinality();
            if col.null_count() > 0 || !(2..=MAX_LEVELS).contains(&k) || cells * k > MAX_CELLS {
                continue;
            }
            let labels = col.labels();
            let mut by_label: Vec<usize> = (0..k).collect();
            by_label.sort_unstable_by_key(|&code| &labels[code]);
            let mut rank = [0u8; MAX_LEVELS];
            for (r, &code) in by_label.iter().enumerate() {
                rank[code] = r as u8;
            }
            let mut next = cell_of_row.clone();
            let mut occupied = [false; MAX_CELLS];
            let codes = col.access();
            for (row, cell) in next.iter_mut().enumerate() {
                // Below `cells · k ≤ MAX_CELLS`, so the sum fits in a byte.
                *cell += rank[codes.get(row) as usize] * cells as u8;
                occupied[usize::from(*cell)] = true;
            }
            if occupied.iter().filter(|&&o| o).count() < params + k - 1 {
                continue;
            }
            cell_of_row = next;
            levels.push(k);
            cells *= k;
            params += k - 1;
        }
        let mut rows_in_cell = [0.0f64; MAX_CELLS];
        for &cell in &cell_of_row {
            rows_in_cell[usize::from(cell)] += 1.0;
        }
        let mut design_row = [0u8; MAX_CELLS];
        let mut rows = Vec::new();
        let mut columns: Vec<Vec<f64>> = vec![Vec::new(); params - 1];
        for (cell, &count) in rows_in_cell.iter().enumerate() {
            if count == 0.0 {
                continue;
            }
            design_row[cell] = rows.len() as u8;
            rows.push(count);
            let (mut rest, mut dummies) = (cell, columns.iter_mut());
            for &k in &levels {
                for (level, dummy) in (1..k).zip(dummies.by_ref()) {
                    dummy.push(f64::from(u8::from(rest % k == level)));
                }
                rest /= k;
            }
        }
        let of_row = cell_of_row
            .iter()
            .map(|&cell| design_row[usize::from(cell)])
            .collect();
        let columns: Vec<&[f64]> = columns.iter().map(Vec::as_slice).collect();
        let design = Design::from_columns(rows.len(), &columns).ok();
        Ok(design.map(|design| SelectionDesign {
            design,
            groups: Groups { of_row, rows },
        }))
    }

    /// IPW weights `P(R = 1) / P(R = 1 | x_i)` of the observed rows (1.0
    /// elsewhere) for the selection indicator's codes `r` (1 = observed),
    /// or `None` when the fit fails.
    fn weights(&self, r: &[u32]) -> Option<Vec<f64>> {
        let Groups { of_row, rows } = &self.groups;
        let mut observed = vec![0.0f64; rows.len()];
        for (&g, &ri) in of_row.iter().zip(r) {
            observed[usize::from(g)] += f64::from(ri);
        }
        let marginal = observed.iter().sum::<f64>() / r.len() as f64;
        let share: Vec<f64> = observed.iter().zip(rows).map(|(o, n)| o / n).collect();
        let model = irls(&self.design, &share, Some(rows)).ok()?;
        let weight: Vec<f64> = self
            .design
            .rows()
            .map(|x| marginal / model.predict_row(x).clamp(0.05, 1.0))
            .collect();
        // Weights only matter for complete cases; incomplete rows are
        // dropped by the estimators regardless of their weight.
        Some(
            of_row
                .iter()
                .zip(r)
                .map(|(&g, &ri)| if ri == 1 { weight[usize::from(g)] } else { 1.0 })
                .collect(),
        )
    }
}

/// A [`SelectionDesign`] built on first use: only a candidate with selection
/// bias needs it, and concurrent candidates wait for the one build.
struct LazyDesign<'a> {
    encoded: &'a EncodedFrame,
    feature_columns: &'a [String],
    outcome: &'a str,
    cell: OnceLock<Result<Option<SelectionDesign>>>,
}

impl<'a> LazyDesign<'a> {
    fn new(encoded: &'a EncodedFrame, feature_columns: &'a [String], outcome: &'a str) -> Self {
        LazyDesign {
            encoded,
            feature_columns,
            outcome,
            cell: OnceLock::new(),
        }
    }

    fn get(&self) -> Result<Option<&SelectionDesign>> {
        let built = self.cell.get_or_init(|| {
            SelectionDesign::build(self.encoded, self.feature_columns, self.outcome)
        });
        match built {
            Ok(design) => Ok(design.as_ref()),
            Err(e) => Err(e.clone()),
        }
    }
}

/// Analyses one candidate attribute for selection bias and, when detected,
/// estimates IPW weights.
///
/// * `feature_columns` — the pool of fully observed attributes of the input
///   dataset from which the selection-probability model takes its features:
///   the outcome first, then the rest by name, each with 2–8 levels, one-hot
///   encoded in label order, while the cross product stays within 256 cells.
pub fn analyze_attribute(
    encoded: &EncodedFrame,
    attribute: &str,
    outcome: &str,
    exposure: &str,
    feature_columns: &[String],
    ci: CiTestConfig,
) -> Result<SelectionBiasInfo> {
    let design = LazyDesign::new(encoded, feature_columns, outcome);
    analyze_with(encoded, attribute, outcome, exposure, &design, ci)
}

/// [`analyze_attribute`] over a design shared with the other candidates of
/// one call.
fn analyze_with(
    encoded: &EncodedFrame,
    attribute: &str,
    outcome: &str,
    exposure: &str,
    design: &LazyDesign<'_>,
    ci: CiTestConfig,
) -> Result<SelectionBiasInfo> {
    let col = encoded.column(attribute)?;
    let missing_fraction = encoded.missing_fraction(attribute)?;
    if missing_fraction <= 0.0 || missing_fraction >= 1.0 {
        return Ok(SelectionBiasInfo {
            attribute: attribute.to_string(),
            missing_fraction,
            biased: false,
            weights: None,
        });
    }
    let r = selection_indicator(col);
    // Independence of the selection indicator from outcome and exposure.
    let o = encoded.column(outcome)?;
    let t = encoded.column(exposure)?;
    let r_vs_o = infotheory::ci_test(&r, o, &[], None, ci)?;
    let r_vs_t = infotheory::ci_test(&r, t, &[], None, ci)?;
    let biased = !r_vs_o.independent || !r_vs_t.independent;
    if !biased {
        return Ok(SelectionBiasInfo {
            attribute: attribute.to_string(),
            missing_fraction,
            biased,
            weights: None,
        });
    }

    // Fit P(R_E = 1 | X) on fully observed features. The indicator is fully
    // observed, so its raw codes are all meaningful.
    let weights = design.get()?.and_then(|design| design.weights(&r.codes()));
    Ok(SelectionBiasInfo {
        attribute: attribute.to_string(),
        missing_fraction,
        biased,
        weights,
    })
}

/// Selection-bias analysis for a whole candidate set. Returns a map from
/// attribute name to its analysis, including weights where needed.
pub fn analyze_candidates(
    encoded: &EncodedFrame,
    candidates: &[String],
    outcome: &str,
    exposure: &str,
    feature_columns: &[String],
    policy: MissingPolicy,
    ci: CiTestConfig,
) -> Result<HashMap<String, SelectionBiasInfo>> {
    let mut out = HashMap::with_capacity(candidates.len());
    if policy == MissingPolicy::CompleteCase {
        return Ok(out);
    }
    // Each attribute's analysis is independent read-only work over the
    // encoded frame and the shared design — fan it out over the persistent
    // pool (adaptive grain: attributes with expensive IPW fits don't strand
    // the cheap ones). Each fit's sums stay on one thread, in cell order.
    let design = LazyDesign::new(encoded, feature_columns, outcome);
    let analyses = crate::parallel::parallel_map(candidates, |_, c| {
        analyze_with(encoded, c, outcome, exposure, &design, ci)
    });
    for (c, info) in candidates.iter().zip(analyses) {
        let info = info?;
        if info.biased {
            out.insert(c.clone(), info);
        }
    }
    Ok(out)
}

/// Combines the IPW weights of several attributes into a single per-row
/// weight vector (element-wise product), used when scoring a multi-attribute
/// explanation. Returns `None` when no attribute carries weights.
pub fn combine_weights(
    attributes: &[String],
    analyses: &HashMap<String, SelectionBiasInfo>,
    n_rows: usize,
) -> Option<Vec<f64>> {
    let mut combined: Option<Vec<f64>> = None;
    for a in attributes {
        if let Some(info) = analyses.get(a) {
            if let Some(w) = &info.weights {
                let acc = combined.get_or_insert_with(|| vec![1.0; n_rows]);
                for (c, &wi) in acc.iter_mut().zip(w) {
                    *c *= wi;
                }
            }
        }
    }
    combined
}

/// Mean-imputes every candidate attribute of a frame (the imputation baseline
/// of Figure 3). Returns a new frame.
pub fn impute_candidates(
    frame: &tabular::DataFrame,
    candidates: &[String],
) -> Result<tabular::DataFrame> {
    let mut out = frame.clone();
    for c in candidates {
        out = kg::impute_mean(&out, c).map_err(MesaError::from)?;
    }
    Ok(out)
}

/// Helper: the column names of a frame that have no missing values (the
/// feature pool for the selection-probability model).
pub fn fully_observed_columns(frame: &tabular::DataFrame) -> Vec<String> {
    frame
        .columns()
        .filter(|c| c.null_count() == 0)
        .map(|c: &Column| c.name().to_string())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabular::DataFrameBuilder;

    /// Frame where the `hdi` attribute is missing exactly for high-salary
    /// rows — blatant selection bias.
    fn biased_frame() -> tabular::DataFrame {
        let n = 240;
        let mut country = Vec::new();
        let mut salary = Vec::new();
        let mut hdi = Vec::new();
        let mut mar = Vec::new();
        for i in 0..n {
            let c = ["DE", "IT", "NG", "KE"][i % 4];
            let high = i % 4 < 2;
            country.push(Some(c));
            salary.push(Some(if high { "high" } else { "low" }));
            // hdi observed mostly for low-salary countries
            hdi.push(if high && i % 3 != 0 {
                None
            } else {
                Some(if high { "big" } else { "small" })
            });
            // missing-at-random attribute
            mar.push(if i % 5 == 0 {
                None
            } else {
                Some(if i % 2 == 0 { "x" } else { "y" })
            });
        }
        DataFrameBuilder::new()
            .cat("Country", country)
            .cat("Salary", salary)
            .cat("HDI", hdi)
            .cat("MAR", mar)
            .build()
            .unwrap()
    }

    /// Two biased attributes over five fully observed features. The model
    /// must skip three of them: Country, which determines Salary and so
    /// adds fewer occupied cells than coefficients, and two wide integers.
    fn wide_biased_frame() -> tabular::DataFrame {
        let n = 480;
        let mut country = Vec::new();
        let mut salary = Vec::new();
        let mut shift = Vec::new();
        let mut hdi = Vec::new();
        let mut gini = Vec::new();
        for i in 0..n {
            let high = i % 4 < 2;
            country.push(Some(["DE", "IT", "NG", "KE"][i % 4]));
            salary.push(Some(if high { "high" } else { "low" }));
            shift.push(Some(["night", "early", "late"][i % 7 % 3]));
            hdi.push((!high || i % 3 == 0).then_some(if high { "big" } else { "small" }));
            gini.push((i % 4 != 3 || i % 5 == 0).then_some(if i % 7 < 3 { "a" } else { "b" }));
        }
        DataFrameBuilder::new()
            .cat("Country", country)
            .cat("Salary", salary)
            .int("Id97", (0..n).map(|i| Some((i % 97) as i64)).collect())
            .int("Id53", (0..n).map(|i| Some((i * 7 % 53) as i64)).collect())
            .cat("Shift", shift)
            .cat("HDI", hdi)
            .cat("Gini", gini)
            .build()
            .unwrap()
    }

    fn ipw(
        encoded: &EncodedFrame,
        candidates: &[String],
        features: &[String],
    ) -> HashMap<String, SelectionBiasInfo> {
        let ci = CiTestConfig::default();
        let policy = MissingPolicy::Ipw;
        analyze_candidates(
            encoded, candidates, "Salary", "Country", features, policy, ci,
        )
        .unwrap()
    }

    fn bits(w: &[f64]) -> Vec<u64> {
        w.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn cell_fits_match_the_row_level_fit() {
        let df = wide_biased_frame();
        let encoded = EncodedFrame::from_frame(&df);
        let features = fully_observed_columns(&df);
        let n = df.n_rows();
        let candidates = vec!["HDI".to_string(), "Gini".to_string()];
        let shared = ipw(&encoded, &candidates, &features);
        // The reference: one design row per frame row, over the one-hot
        // columns of the features the rule keeps (Salary, then Shift), each
        // level against the first by label.
        let one_hot = |name: &str, level: &str| -> Vec<f64> {
            let column = df.column(name).unwrap();
            let value = tabular::Value::Str(level.into());
            column
                .iter_values()
                .map(|v| f64::from(u8::from(v == value)))
                .collect()
        };
        let dummies = [
            one_hot("Salary", "low"),
            one_hot("Shift", "late"),
            one_hot("Shift", "night"),
        ];
        let columns: Vec<&[f64]> = dummies.iter().map(Vec::as_slice).collect();
        let design = Design::from_columns(n, &columns).unwrap();
        for name in &candidates {
            let weights = shared[name].weights.as_deref().expect("weighted");
            let ci = CiTestConfig::default();
            let alone = analyze_attribute(&encoded, name, "Salary", "Country", &features, ci)
                .unwrap()
                .weights
                .expect("weighted");
            assert_eq!(bits(weights), bits(&alone), "{name}");

            let r: Vec<f64> = selection_indicator(encoded.column(name).unwrap())
                .codes()
                .iter()
                .map(|&c| f64::from(c))
                .collect();
            let model = irls(&design, &r, None).unwrap();
            let marginal = r.iter().sum::<f64>() / n as f64;
            for (i, (x, &ri)) in design.rows().zip(&r).enumerate() {
                let want = if ri > 0.5 {
                    marginal / model.predict_row(x).clamp(0.05, 1.0)
                } else {
                    1.0
                };
                assert!((weights[i] - want).abs() < 1e-9, "{name} row {i}");
            }
            assert!(weights.iter().any(|&w| w > 1.01), "{name}");
        }
    }

    #[test]
    fn weights_follow_the_rows_and_ignore_column_order() {
        let df = wide_biased_frame();
        let features = fully_observed_columns(&df);
        let candidates = vec!["HDI".to_string(), "Gini".to_string()];
        let base = ipw(&EncodedFrame::from_frame(&df), &candidates, &features);
        let n = df.n_rows();
        // A fixed shuffle: 7 is coprime to 480.
        let perm: Vec<usize> = (0..n).map(|i| (i * 7 + 3) % n).collect();
        let shuffled = ipw(
            &EncodedFrame::from_frame(&df.take(&perm)),
            &candidates,
            &features,
        );
        let reversed: Vec<String> = features.iter().rev().cloned().collect();
        let reordered = ipw(&EncodedFrame::from_frame(&df), &candidates, &reversed);
        for name in &candidates {
            let weights = base[name].weights.as_deref().expect("weighted");
            let permuted: Vec<f64> = perm.iter().map(|&i| weights[i]).collect();
            let got = shuffled[name].weights.as_deref().expect("weighted");
            assert_eq!(bits(got), bits(&permuted), "{name}");
            let got = reordered[name].weights.as_deref().expect("weighted");
            assert_eq!(bits(got), bits(weights), "{name}");
        }
    }

    #[test]
    fn selection_indicator_is_binary() {
        let col = tabular::Column::from_str_values("x", vec![Some("a"), None, Some("b")]).encode();
        let r = selection_indicator(&col);
        assert_eq!(
            r.iter_codes().collect::<Vec<_>>(),
            vec![Some(1), Some(0), Some(1)]
        );
        assert_eq!(r.cardinality(), 2);
    }

    #[test]
    fn detects_bias_only_where_present() {
        let df = biased_frame();
        let encoded = EncodedFrame::from_frame(&df);
        let features = fully_observed_columns(&df);
        let biased = analyze_attribute(
            &encoded,
            "HDI",
            "Salary",
            "Country",
            &features,
            CiTestConfig::default(),
        )
        .unwrap();
        assert!(biased.biased, "HDI missingness depends on salary");
        assert!(biased.missing_fraction > 0.2);
        assert!(biased.weights.is_some());
        let w = biased.weights.unwrap();
        assert_eq!(w.len(), df.n_rows());
        assert!(w.iter().all(|&x| x.is_finite() && x > 0.0));
        // complete cases in the under-represented (high-salary) group get up-weighted
        assert!(w.iter().any(|&x| x > 1.01));

        let mar = analyze_attribute(
            &encoded,
            "MAR",
            "Salary",
            "Country",
            &features,
            CiTestConfig::default(),
        )
        .unwrap();
        assert!(
            !mar.biased,
            "MAR attribute should not trigger the correction"
        );
        assert!(mar.weights.is_none());
    }

    #[test]
    fn fully_observed_attribute_is_unbiased() {
        let df = biased_frame();
        let encoded = EncodedFrame::from_frame(&df);
        let info = analyze_attribute(
            &encoded,
            "Country",
            "Salary",
            "Country",
            &[],
            CiTestConfig::default(),
        )
        .unwrap();
        assert_eq!(info.missing_fraction, 0.0);
        assert!(!info.biased);
    }

    #[test]
    fn analyze_candidates_respects_policy() {
        let df = biased_frame();
        let encoded = EncodedFrame::from_frame(&df);
        let features = fully_observed_columns(&df);
        let candidates = vec!["HDI".to_string(), "MAR".to_string()];
        let none = analyze_candidates(
            &encoded,
            &candidates,
            "Salary",
            "Country",
            &features,
            MissingPolicy::CompleteCase,
            CiTestConfig::default(),
        )
        .unwrap();
        assert!(none.is_empty());
        let ipw = analyze_candidates(
            &encoded,
            &candidates,
            "Salary",
            "Country",
            &features,
            MissingPolicy::Ipw,
            CiTestConfig::default(),
        )
        .unwrap();
        assert!(ipw.contains_key("HDI"));
        assert!(!ipw.contains_key("MAR"));
    }

    #[test]
    fn weight_combination() {
        let mut analyses = HashMap::new();
        analyses.insert(
            "a".to_string(),
            SelectionBiasInfo {
                attribute: "a".into(),
                missing_fraction: 0.1,
                biased: true,
                weights: Some(vec![2.0, 1.0, 1.0]),
            },
        );
        analyses.insert(
            "b".to_string(),
            SelectionBiasInfo {
                attribute: "b".into(),
                missing_fraction: 0.1,
                biased: true,
                weights: Some(vec![1.0, 3.0, 1.0]),
            },
        );
        let combined = combine_weights(&["a".to_string(), "b".to_string()], &analyses, 3).unwrap();
        assert_eq!(combined, vec![2.0, 3.0, 1.0]);
        assert!(combine_weights(&["c".to_string()], &analyses, 3).is_none());
        assert!(combine_weights(&[], &analyses, 3).is_none());
    }

    #[test]
    fn ipw_corrects_complete_case_bias() {
        // Ground truth: HDI ("big"/"small") fully explains Salary given Country.
        // Biased missingness makes the naive complete-case CMI estimate of
        // I(Salary; Country | HDI) deviate; IPW should move it back towards
        // the unbiased (fully observed) value.
        let df = biased_frame();
        let encoded = EncodedFrame::from_frame(&df);
        let features = fully_observed_columns(&df);
        let info = analyze_attribute(
            &encoded,
            "HDI",
            "Salary",
            "Country",
            &features,
            CiTestConfig::default(),
        )
        .unwrap();
        let w = info.weights.unwrap();
        let naive = encoded.cmi("Salary", "Country", &["HDI"], None).unwrap();
        let weighted = encoded
            .cmi("Salary", "Country", &["HDI"], Some(&w))
            .unwrap();
        // both should be small (HDI explains most of it), and the weighted
        // estimate must stay finite and non-negative
        assert!(naive >= 0.0 && weighted >= 0.0);
        assert!(weighted.is_finite());
    }

    #[test]
    fn impute_candidates_fills_all() {
        let df = biased_frame();
        let out = impute_candidates(&df, &["HDI".to_string(), "MAR".to_string()]).unwrap();
        assert_eq!(out.column("HDI").unwrap().null_count(), 0);
        assert_eq!(out.column("MAR").unwrap().null_count(), 0);
    }

    #[test]
    fn fully_observed_columns_lists_complete_ones() {
        let df = biased_frame();
        let cols = fully_observed_columns(&df);
        assert!(cols.contains(&"Country".to_string()));
        assert!(cols.contains(&"Salary".to_string()));
        assert!(!cols.contains(&"HDI".to_string()));
    }
}
