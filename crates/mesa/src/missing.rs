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
//! The model's features `X` do not depend on `E`: a fitted candidate has
//! missing values, so it is never one of its own fully observed features.
//! [`analyze_candidates`] therefore selects the features and builds the
//! model's design once, on the first fit it needs, and every candidate's
//! fit reads that one design.

use std::collections::HashMap;
use std::sync::OnceLock;

use infotheory::{CiTestConfig, EncodedFrame};
use stats::{irls, Design, LogisticConfig};
use tabular::{Column, ColumnView, EncodedColumn};

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
/// column: code 1 = observed, code 0 = missing. Accepts the column in either
/// lifecycle state (`&EncodedColumn` or [`ColumnView`]).
pub fn selection_indicator<'a>(column: impl Into<ColumnView<'a>>) -> EncodedColumn {
    let column = column.into();
    // The indicator is the validity bitmap re-expressed as codes; walking
    // set-bit runs word-by-word fills it in O(words + runs) instead of one
    // branch per row.
    let mut codes = vec![0u32; column.len()];
    for (start, end) in column.validity().iter_runs() {
        codes[start..end].fill(1);
    }
    EncodedColumn::from_codes(codes, vec!["missing".into(), "observed".into()])
}

/// Most features the selection-probability model takes: it only supplies
/// weights, so it stays small.
const MAX_FEATURES: usize = 6;

/// The design of the selection-probability model, shared by every fit of
/// one [`analyze_candidates`] call.
struct SelectionDesign {
    /// `[1, x₁ … x_m]` per frame row, or per distinct feature combination
    /// when `groups` is set.
    design: Design,
    groups: Option<Groups>,
}

/// The grouped form of the fit. The features are discrete codes, so rows
/// with the same feature combination are interchangeable: IRLS runs over
/// the distinct combinations with binomial weights — same optimum, far
/// fewer rows. It applies when the features' cross product fits the entropy
/// kernel's dense-table bound; features with 100+ levels exceed it.
struct Groups {
    /// Design row (combination) of every frame row.
    of_row: Vec<usize>,
    /// Frame rows per combination, the binomial weights.
    rows: Vec<f64>,
}

impl SelectionDesign {
    /// Selects the model's features — the first [`MAX_FEATURES`] of
    /// `feature_columns` that are fully observed and not constant, whose
    /// discrete codes are used as numeric features (what "the values of the
    /// attributes in D" amounts to after binning) — and builds the design.
    /// `None` when the design has fewer rows than coefficients.
    fn build(
        encoded: &EncodedFrame,
        feature_columns: &[String],
    ) -> Result<Option<SelectionDesign>> {
        let mut features: Vec<ColumnView<'_>> = Vec::new();
        for f in feature_columns {
            let fc = encoded.column(f)?;
            if fc.null_count() == 0 && fc.cardinality() > 1 {
                features.push(fc);
                if features.len() >= MAX_FEATURES {
                    break;
                }
            }
        }
        let n = encoded.n_rows();
        // Decoded once: a sealed column's `codes()` allocates.
        let codes: Vec<_> = features.iter().map(|c| c.codes()).collect();
        let dense_cap = infotheory::adaptive_dense_cells(n);
        let cells = features.iter().try_fold(1usize, |acc, c| {
            let next = acc.checked_mul(c.cardinality())?;
            (next <= dense_cap).then_some(next)
        });
        let Some(cells) = cells else {
            let columns: Vec<&[u32]> = codes.iter().map(|c| c.as_ref()).collect();
            let design = Design::from_columns(n, &columns).ok();
            return Ok(design.map(|design| SelectionDesign {
                design,
                groups: None,
            }));
        };
        // Mixed-radix code packing (the entropy kernel's trick) numbers the
        // combinations; design rows follow that numbering.
        let mut cell_of_row = vec![0usize; n];
        let mut mult = 1usize;
        for (c, codes) in features.iter().zip(&codes) {
            for (cell, &code) in cell_of_row.iter_mut().zip(codes.iter()) {
                *cell += code as usize * mult;
            }
            mult *= c.cardinality();
        }
        let mut rows_in_cell = vec![0.0f64; cells];
        for &cell in &cell_of_row {
            rows_in_cell[cell] += 1.0;
        }
        let mut group_of_cell = vec![0usize; cells];
        let mut rows = Vec::new();
        let mut columns: Vec<Vec<f64>> = vec![Vec::new(); features.len()];
        for (cell, &count) in rows_in_cell.iter().enumerate() {
            if count == 0.0 {
                continue;
            }
            group_of_cell[cell] = rows.len();
            rows.push(count);
            let mut rest = cell;
            for (c, values) in features.iter().zip(columns.iter_mut()) {
                values.push((rest % c.cardinality()) as f64);
                rest /= c.cardinality();
            }
        }
        let of_row = cell_of_row
            .iter()
            .map(|&cell| group_of_cell[cell])
            .collect();
        let columns: Vec<&[f64]> = columns.iter().map(Vec::as_slice).collect();
        let design = Design::from_columns(rows.len(), &columns).ok();
        Ok(design.map(|design| SelectionDesign {
            design,
            groups: Some(Groups { of_row, rows }),
        }))
    }

    /// IPW weights `P(R = 1) / P(R = 1 | x_i)` of the observed rows (1.0
    /// elsewhere) for the selection indicator `r` (1.0 = observed), or
    /// `None` when the fit fails.
    fn weights(&self, r: &[f64]) -> Option<Vec<f64>> {
        let marginal = r.iter().sum::<f64>() / r.len() as f64;
        // Weights only matter for complete cases; incomplete rows are
        // dropped by the estimators regardless of their weight.
        let weight = |p: f64| marginal / p.clamp(0.05, 1.0);
        let config = LogisticConfig::default();
        let Some(groups) = &self.groups else {
            let model = irls(&self.design, r, None, config).ok()?;
            let rows = self.design.rows().zip(r);
            return Some(
                rows.map(|(x, &ri)| {
                    if ri > 0.5 {
                        weight(model.predict_row(x))
                    } else {
                        1.0
                    }
                })
                .collect(),
            );
        };
        let mut observed = vec![0.0f64; groups.rows.len()];
        for (&g, &ri) in groups.of_row.iter().zip(r) {
            observed[g] += ri;
        }
        let share: Vec<f64> = observed
            .iter()
            .zip(&groups.rows)
            .map(|(o, n)| o / n)
            .collect();
        let model = irls(&self.design, &share, Some(&groups.rows), config).ok()?;
        let p: Vec<f64> = self.design.rows().map(|x| model.predict_row(x)).collect();
        Some(
            groups
                .of_row
                .iter()
                .zip(r)
                .map(|(&g, &ri)| if ri > 0.5 { weight(p[g]) } else { 1.0 })
                .collect(),
        )
    }
}

/// A [`SelectionDesign`] built on first use: only a candidate with selection
/// bias needs it, and concurrent candidates wait for the one build.
struct LazyDesign<'a> {
    encoded: &'a EncodedFrame,
    feature_columns: &'a [String],
    cell: OnceLock<Result<Option<SelectionDesign>>>,
}

impl<'a> LazyDesign<'a> {
    fn new(encoded: &'a EncodedFrame, feature_columns: &'a [String]) -> Self {
        LazyDesign {
            encoded,
            feature_columns,
            cell: OnceLock::new(),
        }
    }

    fn get(&self) -> Result<Option<&SelectionDesign>> {
        let built = self
            .cell
            .get_or_init(|| SelectionDesign::build(self.encoded, self.feature_columns));
        match built {
            Ok(design) => Ok(design.as_ref()),
            Err(e) => Err(e.clone()),
        }
    }
}

/// Analyses one candidate attribute for selection bias and, when detected,
/// estimates IPW weights.
///
/// * `feature_columns` — fully observed attributes of the input dataset used
///   as predictors of the selection probability (their discrete codes are
///   used as numeric features, which is what "the values of the attributes in
///   D" amounts to after binning).
pub fn analyze_attribute(
    encoded: &EncodedFrame,
    attribute: &str,
    outcome: &str,
    exposure: &str,
    feature_columns: &[String],
    ci: CiTestConfig,
) -> Result<SelectionBiasInfo> {
    let design = LazyDesign::new(encoded, feature_columns);
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
    let r_vs_o = infotheory::ci_test((&r).into(), o, &[], None, ci)?;
    let r_vs_t = infotheory::ci_test((&r).into(), t, &[], None, ci)?;
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
    let r: Vec<f64> = r.codes().iter().map(|&c| f64::from(c)).collect();
    let weights = design.get()?.and_then(|design| design.weights(&r));
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
    // the cheap ones). Each fit's sums stay on one thread, in row order.
    let design = LazyDesign::new(encoded, feature_columns);
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

    /// Two biased attributes over four fully observed features, two of them
    /// wide integers: the features' cross product (4·2·97·53 cells) exceeds
    /// the dense-table bound for 480 rows, so the selection model is fitted
    /// row by row.
    fn wide_biased_frame() -> tabular::DataFrame {
        let n = 480;
        let mut country = Vec::new();
        let mut salary = Vec::new();
        let mut hdi = Vec::new();
        let mut gini = Vec::new();
        for i in 0..n {
            let high = i % 4 < 2;
            country.push(Some(["DE", "IT", "NG", "KE"][i % 4]));
            salary.push(Some(if high { "high" } else { "low" }));
            hdi.push((!high || i % 3 == 0).then_some(if high { "big" } else { "small" }));
            gini.push((i % 4 != 3 || i % 5 == 0).then_some(if i % 7 < 3 { "a" } else { "b" }));
        }
        DataFrameBuilder::new()
            .cat("Country", country)
            .cat("Salary", salary)
            .int("Id97", (0..n).map(|i| Some((i % 97) as i64)).collect())
            .int("Id53", (0..n).map(|i| Some((i * 7 % 53) as i64)).collect())
            .cat("HDI", hdi)
            .cat("Gini", gini)
            .build()
            .unwrap()
    }

    #[test]
    fn row_level_fits_share_one_design_and_match_the_textbook_fit() {
        let df = wide_biased_frame();
        let encoded = EncodedFrame::from_frame(&df);
        let features = fully_observed_columns(&df);
        let n = df.n_rows();
        let cells: usize = features
            .iter()
            .map(|f| encoded.cardinality(f).unwrap())
            .product();
        assert!(
            cells > infotheory::adaptive_dense_cells(n),
            "the fixture must take the row-level path"
        );
        let ci = CiTestConfig::default();
        let candidates = vec!["HDI".to_string(), "Gini".to_string()];
        let shared = analyze_candidates(
            &encoded,
            &candidates,
            "Salary",
            "Country",
            &features,
            MissingPolicy::Ipw,
            ci,
        )
        .unwrap();
        let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for name in &candidates {
            let weights = shared[name].weights.as_deref().expect("weighted");
            let alone = analyze_attribute(&encoded, name, "Salary", "Country", &features, ci)
                .unwrap()
                .weights
                .expect("weighted");
            assert_eq!(bits(weights), bits(&alone), "{name}");

            // The fit as written before the design was shared: predictor
            // columns, `logistic_fit`, and a fresh feature vector per row.
            let r: Vec<f64> = selection_indicator(encoded.column(name).unwrap())
                .codes()
                .iter()
                .map(|&c| f64::from(c))
                .collect();
            let predictors: Vec<(String, Vec<f64>)> = features
                .iter()
                .map(|f| {
                    let codes = encoded.column(f).unwrap().codes();
                    (f.clone(), codes.iter().map(|&c| f64::from(c)).collect())
                })
                .collect();
            let model = stats::logistic_fit(&r, &predictors, LogisticConfig::default()).unwrap();
            let marginal = r.iter().sum::<f64>() / n as f64;
            let textbook: Vec<f64> = (0..n)
                .map(|i| {
                    let x: Vec<f64> = predictors.iter().map(|(_, v)| v[i]).collect();
                    let p = model.predict_proba(&x).clamp(0.05, 1.0);
                    if r[i] > 0.5 {
                        marginal / p
                    } else {
                        1.0
                    }
                })
                .collect();
            assert_eq!(bits(weights), bits(&textbook), "{name}");
            assert!(weights.iter().any(|&w| w > 1.01), "{name}");
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
