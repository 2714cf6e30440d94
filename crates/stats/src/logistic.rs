//! Binary logistic regression fitted by iteratively re-weighted least squares
//! (Newton–Raphson).
//!
//! MESA uses logistic regression at pre-processing time to estimate the
//! selection probability `P(R_E = 1 | X)` of each extracted attribute from the
//! fully observed attributes of the input dataset; the inverse of that
//! probability becomes the IPW weight of each complete case (Section 3.2).
//!
//! Every fit runs one IRLS kernel, [`irls`], over a borrowed [`Design`]. A
//! caller that fits several outcomes over the same features builds the
//! design once and shares it.

use crate::matrix::{Matrix, MatrixError};
use crate::ols::FitError;

/// A model fitted by [`irls`]: the coefficients of the design's columns.
#[derive(Debug, Clone, PartialEq)]
pub struct IrlsFit {
    /// Intercept followed by one coefficient per feature column.
    pub coefficients: Vec<f64>,
    /// Number of Newton iterations performed.
    pub iterations: usize,
    /// Whether the optimiser converged before the iteration cap.
    pub converged: bool,
}

impl IrlsFit {
    /// Predicted probability `P(y = 1 | x)` for one row `[1, x₁ … x_m]` of
    /// the design the model was fitted on: `sigmoid(β₀ + Σ βⱼ xⱼ)`, summed
    /// in feature order.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        let features = row.get(1..).unwrap_or_default();
        debug_assert_eq!(features.len() + 1, self.coefficients.len());
        let mut z = self.coefficients[0];
        for (b, f) in self.coefficients[1..].iter().zip(features) {
            z += b * f;
        }
        sigmoid(z)
    }
}

/// The design matrix of a logistic regression: one row `[1, x₁ … x_m]` per
/// observation, stored row-major, with at least as many rows as columns,
/// and the columns of each row's non-zero entries.
#[derive(Debug, Clone, PartialEq)]
pub struct Design {
    data: Vec<f64>,
    cols: usize,
    /// Each row's non-zero columns in ascending order, row after row.
    nonzero: Vec<usize>,
    /// Row `i`'s non-zero columns end at `nonzero_ends[i]` in `nonzero`.
    nonzero_ends: Vec<usize>,
}

impl Design {
    /// Builds the design of `n_rows` observations from `m` feature columns.
    ///
    /// Fails with [`FitError::TooFewRows`] when `n_rows < m + 1`, since the
    /// coefficients are then not identified, and with
    /// [`FitError::ShapeMismatch`] when a column does not hold `n_rows`
    /// values.
    pub fn from_columns(n_rows: usize, columns: &[&[f64]]) -> Result<Design, FitError> {
        let cols = columns.len() + 1;
        if n_rows < cols {
            return Err(FitError::TooFewRows {
                rows: n_rows,
                params: cols,
            });
        }
        for (j, col) in columns.iter().enumerate() {
            if col.len() != n_rows {
                return Err(FitError::ShapeMismatch(format!(
                    "feature column {j} has {} rows, the design has {n_rows}",
                    col.len()
                )));
            }
        }
        let mut data = vec![1.0; n_rows * cols];
        let mut nonzero = Vec::new();
        let mut nonzero_ends = Vec::with_capacity(n_rows);
        for (i, row) in data.chunks_exact_mut(cols).enumerate() {
            for (x, col) in row[1..].iter_mut().zip(columns) {
                *x = col[i];
            }
            nonzero.extend((0..cols).filter(|&j| row[j] != 0.0));
            nonzero_ends.push(nonzero.len());
        }
        Ok(Design {
            data,
            cols,
            nonzero,
            nonzero_ends,
        })
    }

    fn n_rows(&self) -> usize {
        self.data.len() / self.cols
    }

    /// The rows, each `[1, x₁ … x_m]`.
    pub fn rows(&self) -> std::slice::ChunksExact<'_, f64> {
        self.data.chunks_exact(self.cols)
    }

    /// The rows, each with the columns of its non-zero entries.
    fn sparse_rows(&self) -> impl Iterator<Item = (&[f64], &[usize])> {
        let starts = std::iter::once(0).chain(self.nonzero_ends.iter().copied());
        self.rows()
            .zip(starts.zip(&self.nonzero_ends))
            .map(|(row, (start, &end))| (row, &self.nonzero[start..end]))
    }
}

fn sigmoid(z: f64) -> f64 {
    // `exp(-|z|)` is `exp(-z)` for z ≥ 0 and `exp(z)` otherwise, and never
    // overflows; selecting the numerator instead of branching keeps the
    // IRLS row loop free of a data-dependent branch.
    let e = (-z.abs()).exp();
    let numerator = if z >= 0.0 { 1.0 } else { e };
    numerator / (1.0 + e)
}

/// Newton iterations an [`irls`] fit runs at most.
const MAX_ITER: usize = 50;
/// Convergence tolerance on the largest absolute coefficient update.
const TOL: f64 = 1e-8;
/// L2 ridge penalty on every coefficient except the intercept; a small
/// positive value keeps the Hessian invertible under separation.
const RIDGE: f64 = 1e-6;

/// Fits `P(y = 1 | x) = sigmoid(β · x)` over the rows `x` of `design` by
/// Newton–Raphson (IRLS): the one IRLS loop behind every logistic fit.
///
/// `y` holds one success proportion in `[0, 1]` per design row, and
/// `row_weights`, when given, the non-negative weight behind each row: the
/// number of observations a grouped row stands for. Collapsing rows with
/// identical discrete feature vectors into one weighted binomial row reaches
/// the same optimum while running over the distinct combinations instead of
/// the rows. The design is only read, so fits of several outcomes can share
/// it.
pub fn irls(design: &Design, y: &[f64], row_weights: Option<&[f64]>) -> Result<IrlsFit, FitError> {
    let n = design.n_rows();
    if y.len() != n {
        return Err(FitError::ShapeMismatch(format!(
            "outcome has {} values, the design has {n} rows",
            y.len()
        )));
    }
    for &v in y {
        if !(0.0..=1.0).contains(&v) {
            return Err(FitError::ShapeMismatch(format!(
                "outcome value {v} is not a proportion in [0, 1]"
            )));
        }
    }
    if let Some(w) = row_weights {
        if w.len() != n {
            return Err(FitError::ShapeMismatch(format!(
                "row weights have {} entries, outcome has {n}",
                w.len()
            )));
        }
        for &v in w {
            if !v.is_finite() || v < 0.0 {
                return Err(FitError::ShapeMismatch(format!(
                    "row weight {v} is not finite and non-negative"
                )));
            }
        }
    }

    let p = design.cols;
    let mut beta = vec![0.0; p];
    let mut converged = false;
    let mut iterations = 0;
    let mut grad = vec![0.0f64; p];
    let mut upper = vec![0.0f64; p * (p + 1) / 2];
    for iter in 0..MAX_ITER {
        iterations = iter + 1;
        accumulate(design, y, row_weights, &beta, &mut grad, &mut upper);
        // Symmetrise into a matrix and add the ridge term (not on the
        // intercept).
        let mut hess = Matrix::zeros(p, p);
        let mut t = 0;
        for j in 0..p {
            for k in j..p {
                hess[(j, k)] = upper[t];
                hess[(k, j)] = upper[t];
                t += 1;
            }
        }
        for j in 1..p {
            hess[(j, j)] += RIDGE;
            grad[j] -= RIDGE * beta[j];
        }
        let step = match hess.solve(&Matrix::column_vector(grad.clone())) {
            Ok(s) => s,
            Err(MatrixError::Singular) => return Err(FitError::Singular),
            Err(MatrixError::ShapeMismatch(m)) => return Err(FitError::ShapeMismatch(m)),
        };
        // Damp the step while preserving its direction: a hard element-wise
        // clamp would distort the Newton direction under quasi-separation.
        let step_norm: f64 = (0..p).map(|j| step[(j, 0)].abs()).fold(0.0, f64::max);
        let scale = if step_norm > 5.0 {
            5.0 / step_norm
        } else {
            1.0
        };
        let mut max_update: f64 = 0.0;
        for j in 0..p {
            let delta = step[(j, 0)] * scale;
            beta[j] += delta;
            max_update = max_update.max(delta.abs());
        }
        if max_update < TOL {
            converged = true;
            break;
        }
    }
    Ok(IrlsFit {
        coefficients: beta,
        iterations,
        converged,
    })
}

/// Overwrites `grad` and `upper` (the Hessian's upper triangle, packed row
/// by row) with the log-likelihood's gradient and negated Hessian at `beta`.
/// Per row, with `z = 0 + x₀β₀ + x₁β₁ + …` and `μ = sigmoid(z)`, it adds
/// `xⱼ·((yᵢ − μ)·wᵢ)` to the gradient and `(xⱼ·xₖ)·(max(μ(1−μ), 1e−10)·wᵢ)`
/// to the triangle: the textbook loop's operations, in its order, over the
/// row's non-zero entries only. Every term skipped is a ±0 (the factors are
/// finite) added to an accumulator that starts at +0 and so never holds −0,
/// which leaves the accumulator unchanged: the sums are bit-identical to
/// the dense loop's, at the cost of the non-zeros instead of all `p` and
/// `p(p+1)/2` entries (a one-hot row has one per feature).
fn accumulate(
    design: &Design,
    y: &[f64],
    row_weights: Option<&[f64]>,
    beta: &[f64],
    grad: &mut [f64],
    upper: &mut [f64],
) {
    grad.fill(0.0);
    upper.fill(0.0);
    let p = design.cols;
    for (i, ((row, nonzero), &yi)) in design.sparse_rows().zip(y).enumerate() {
        let wi = row_weights.map_or(1.0, |w| w[i]);
        let mut z = 0.0;
        for &j in nonzero {
            z += row[j] * beta[j];
        }
        let mu = sigmoid(z);
        let w = (mu * (1.0 - mu)).max(1e-10) * wi;
        let resid = (yi - mu) * wi;
        for (a, &j) in nonzero.iter().enumerate() {
            let xj = row[j];
            grad[j] += xj * resid;
            // Entry (j, k) of the triangle sits at `row_j + k`: row j starts
            // after the p + (p − 1) + … + (p − j + 1) entries of rows 0..j.
            let row_j = j * (2 * p + 1 - j) / 2 - j;
            for &k in &nonzero[a..] {
                upper[row_j + k] += xj * row[k] * w;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fits `y` over the given feature columns.
    fn try_fit(
        y: &[f64],
        columns: &[&[f64]],
        row_weights: Option<&[f64]>,
    ) -> Result<IrlsFit, FitError> {
        let design = Design::from_columns(y.len(), columns)?;
        irls(&design, y, row_weights)
    }

    fn fit(y: &[f64], columns: &[&[f64]]) -> IrlsFit {
        try_fit(y, columns, None).unwrap()
    }

    /// `P(y = 1 | x)` for one feature vector (without the intercept term).
    fn predict(model: &IrlsFit, features: &[f64]) -> f64 {
        let row: Vec<f64> = std::iter::once(1.0)
            .chain(features.iter().copied())
            .collect();
        model.predict_row(&row)
    }

    /// Fits `y` over `columns` and returns the (weighted) log-likelihood at
    /// the fitted coefficients; the constant binomial coefficients of the
    /// grouped form are omitted.
    fn log_likelihood(y: &[f64], columns: &[&[f64]], row_weights: Option<&[f64]>) -> f64 {
        let design = Design::from_columns(y.len(), columns).unwrap();
        let model = irls(&design, y, row_weights).unwrap();
        let mut ll = 0.0;
        for (i, (row, &yi)) in design.rows().zip(y).enumerate() {
            let wi = row_weights.map_or(1.0, |w| w[i]);
            let mu = model.predict_row(row).clamp(1e-12, 1.0 - 1e-12);
            ll += wi * (yi * mu.ln() + (1.0 - yi) * (1.0 - mu).ln());
        }
        ll
    }

    #[test]
    fn sigmoid_bounds() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(50.0) > 0.999999);
        assert!(sigmoid(-50.0) < 1e-6);
    }

    #[test]
    fn recovers_known_relationship() {
        // y = 1 when x > 0.5 with a smooth boundary
        let x: Vec<f64> = (0..200).map(|i| i as f64 / 200.0).collect();
        let y: Vec<f64> = x.iter().map(|&x| if x > 0.5 { 1.0 } else { 0.0 }).collect();
        let model = fit(&y, &[&x]);
        assert!(model.coefficients[1] > 0.0, "slope should be positive");
        assert!(predict(&model, &[0.9]) > 0.9);
        assert!(predict(&model, &[0.1]) < 0.1);
        assert!(predict(&model, &[0.5]) > 0.2 && predict(&model, &[0.5]) < 0.8);
    }

    #[test]
    fn intercept_only_matches_base_rate() {
        let y = vec![1.0, 1.0, 1.0, 0.0];
        let model = fit(&y, &[]);
        assert!((predict(&model, &[]) - 0.75).abs() < 1e-4);
        assert!(model.converged);
    }

    #[test]
    fn balanced_noise_gives_half() {
        let y: Vec<f64> = (0..100).map(|i| (i % 2) as f64).collect();
        let x: Vec<f64> = (0..100).map(|i| ((i * 7) % 13) as f64).collect();
        let model = fit(&y, &[&x]);
        let p = predict(&model, &[6.0]);
        assert!(p > 0.3 && p < 0.7);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(matches!(
            try_fit(&[0.0, 2.0], &[], None),
            Err(FitError::ShapeMismatch(_))
        ));
        assert!(matches!(
            try_fit(&[0.0], &[&[1.0, 2.0]], None),
            Err(FitError::TooFewRows { .. })
        ));
        assert!(matches!(
            try_fit(&[0.0, 1.0, 1.0], &[&[1.0, 2.0]], None),
            Err(FitError::ShapeMismatch(_))
        ));
    }

    #[test]
    fn separable_data_stays_finite() {
        // Perfectly separable: without ridge/step capping this diverges.
        let x: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|&x| if x >= 25.0 { 1.0 } else { 0.0 })
            .collect();
        let model = fit(&y, &[&x]);
        assert!(model.coefficients.iter().all(|c| c.is_finite()));
        assert!(predict(&model, &[49.0]) > 0.9);
        assert!(predict(&model, &[0.0]) < 0.1);
    }

    #[test]
    fn grouped_fit_matches_ungrouped() {
        // 300 rows over 3 distinct feature values, collapsed to 3 weighted
        // binomial rows: same optimum.
        let x: Vec<f64> = (0..300).map(|i| (i % 3) as f64).collect();
        let y: Vec<f64> = (0..300)
            .map(|i| {
                if (i % 3) as f64 + ((i / 3) % 4) as f64 > 2.5 {
                    1.0
                } else {
                    0.0
                }
            })
            .collect();
        let full = fit(&y, &[&x]);
        let mut tallies = [(0.0f64, 0.0f64); 3];
        for (xi, yi) in x.iter().zip(&y) {
            tallies[*xi as usize].0 += 1.0;
            tallies[*xi as usize].1 += yi;
        }
        let gx: Vec<f64> = vec![0.0, 1.0, 2.0];
        let gy: Vec<f64> = tallies.iter().map(|(n, k)| k / n).collect();
        let gw: Vec<f64> = tallies.iter().map(|(n, _)| *n).collect();
        let grouped = try_fit(&gy, &[&gx], Some(&gw)).unwrap();
        for (a, b) in full.coefficients.iter().zip(&grouped.coefficients) {
            assert!((a - b).abs() < 1e-6, "coefficients diverge: {a} vs {b}");
        }
        let full_ll = log_likelihood(&y, &[&x], None);
        let grouped_ll = log_likelihood(&gy, &[&gx], Some(&gw));
        assert!((full_ll - grouped_ll).abs() < 1e-6);
    }

    #[test]
    fn weighted_rejects_bad_inputs() {
        let y = [0.5, 0.25];
        let x: &[f64] = &[0.0, 1.0];
        assert!(try_fit(&y, &[x], Some(&[1.0])).is_err());
        assert!(try_fit(&y, &[x], Some(&[1.0, f64::NAN])).is_err());
        assert!(try_fit(&[1.5, 0.0], &[x], None).is_err());
        // proportions are accepted
        assert!(try_fit(&y, &[x], Some(&[4.0, 4.0])).is_ok());
    }

    #[test]
    fn log_likelihood_improves_over_null() {
        let x: Vec<f64> = (0..100).map(|i| (i % 10) as f64).collect();
        let y: Vec<f64> = x.iter().map(|&x| if x > 4.0 { 1.0 } else { 0.0 }).collect();
        assert!(log_likelihood(&y, &[&x], None) > log_likelihood(&y, &[], None));
    }

    #[test]
    fn design_rejects_bad_shapes_and_predicts_like_the_fit() {
        let x = [0.0, 1.0, 2.0, 3.0];
        assert!(matches!(
            Design::from_columns(1, &[&x[..1]]),
            Err(FitError::TooFewRows { rows: 1, params: 2 })
        ));
        assert!(matches!(
            Design::from_columns(3, &[&x[..]]),
            Err(FitError::ShapeMismatch(_))
        ));
        let design = Design::from_columns(4, &[&x[..]]).unwrap();
        assert!(matches!(
            irls(&design, &[0.0, 1.0], None),
            Err(FitError::ShapeMismatch(_))
        ));
        let y = [0.0, 1.0, 0.0, 1.0];
        let kernel = irls(&design, &y, None).unwrap();
        let (b0, b1) = (kernel.coefficients[0], kernel.coefficients[1]);
        for (row, xi) in design.rows().zip(x) {
            assert_eq!(row, [1.0, xi]);
            assert_eq!(kernel.predict_row(row), sigmoid(b0 + b1 * xi));
        }
    }

    /// Textbook IRLS: per row, the feature vector `[1, x₁ …]`; per
    /// iteration, a fresh `p × p` Hessian filled by the nested `j ≤ k` loop.
    /// [`irls`] must reproduce it bit for bit.
    fn textbook_irls(
        y: &[f64],
        columns: &[Vec<f64>],
        row_weights: Option<&[f64]>,
    ) -> Result<IrlsFit, FitError> {
        let p = columns.len() + 1;
        let mut beta = vec![0.0; p];
        let mut converged = false;
        let mut iterations = 0;
        for iter in 0..MAX_ITER {
            iterations = iter + 1;
            let mut grad = vec![0.0; p];
            let mut hess = Matrix::zeros(p, p);
            for (i, &yi) in y.iter().enumerate() {
                let x: Vec<f64> = std::iter::once(1.0)
                    .chain(columns.iter().map(|c| c[i]))
                    .collect();
                let mut z = 0.0;
                for (xj, bj) in x.iter().zip(&beta) {
                    z += xj * bj;
                }
                let wi = row_weights.map_or(1.0, |w| w[i]);
                let mu = sigmoid(z);
                let w = (mu * (1.0 - mu)).max(1e-10) * wi;
                let resid = (yi - mu) * wi;
                for j in 0..p {
                    grad[j] += x[j] * resid;
                    for k in j..p {
                        hess[(j, k)] += x[j] * x[k] * w;
                    }
                }
            }
            for j in 0..p {
                for k in 0..j {
                    hess[(j, k)] = hess[(k, j)];
                }
            }
            for j in 1..p {
                hess[(j, j)] += RIDGE;
                grad[j] -= RIDGE * beta[j];
            }
            let step = hess
                .solve(&Matrix::column_vector(grad))
                .map_err(|e| match e {
                    MatrixError::Singular => FitError::Singular,
                    MatrixError::ShapeMismatch(m) => FitError::ShapeMismatch(m),
                })?;
            let step_norm = (0..p).map(|j| step[(j, 0)].abs()).fold(0.0, f64::max);
            let scale = if step_norm > 5.0 {
                5.0 / step_norm
            } else {
                1.0
            };
            let mut max_update: f64 = 0.0;
            for j in 0..p {
                let delta = step[(j, 0)] * scale;
                beta[j] += delta;
                max_update = max_update.max(delta.abs());
            }
            if max_update < TOL {
                converged = true;
                break;
            }
        }
        Ok(IrlsFit {
            coefficients: beta,
            iterations,
            converged,
        })
    }

    /// Coefficient bits, iteration count and convergence, or the error.
    fn outcome(fit: Result<IrlsFit, FitError>) -> Result<(Vec<u64>, usize, bool), FitError> {
        fit.map(|f| {
            let bits = f.coefficients.iter().map(|c| c.to_bits()).collect();
            (bits, f.iterations, f.converged)
        })
    }

    const MAX_FEATURES: usize = 8;
    const MAX_ROWS: usize = 160;

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// Designs of 1 to 9 columns against the textbook loop, on 12 to
        /// 160 rows of five kinds: unweighted 0/1 outcomes over integer
        /// codes, weighted proportions over real features, separable
        /// outcomes, all-zero weights, whose Hessian is singular, and
        /// binomial proportions over 0/1 dummies of four three-level
        /// features (the grouped selection model's one-hot design).
        #[test]
        fn kernel_matches_the_textbook_loop_bit_for_bit(
            n in 12usize..=MAX_ROWS,
            values in proptest::collection::vec(-3.0f64..3.0, MAX_FEATURES * MAX_ROWS),
            labels in proptest::collection::vec(0u32..=1, MAX_ROWS),
            weights in proptest::collection::vec(0.0f64..4.0, MAX_ROWS),
            kind in 0u32..5,
        ) {
            let feature = |j: usize| -> Vec<f64> {
                let col = &values[j * MAX_ROWS..j * MAX_ROWS + n];
                match kind {
                    0 => col.iter().map(|v| v.round()).collect(),
                    4 => {
                        // Dummy `j % 2 + 1` of feature `j / 2`, whose level
                        // in 0..3 comes from that feature's value block.
                        let levels = &values[(j / 2) * MAX_ROWS..(j / 2) * MAX_ROWS + n];
                        let dummy = (j % 2 + 1) as f64;
                        levels
                            .iter()
                            .map(|v| f64::from(u8::from(((v + 3.0) / 2.0).floor() == dummy)))
                            .collect()
                    }
                    _ => col.to_vec(),
                }
            };
            // Rows a grouped design row stands for, 1 to 4.
            let trials: Vec<f64> = weights[..n].iter().map(|w| w.floor() + 1.0).collect();
            let columns: Vec<Vec<f64>> = (0..MAX_FEATURES).map(feature).collect();
            let y: Vec<f64> = match kind {
                1 => values[..n].iter().map(|v| (v + 3.0) / 6.0).collect(),
                4 => values[n..2 * n]
                    .iter()
                    .zip(&trials)
                    .map(|(v, t)| ((v + 3.0) / 6.0 * t).floor() / t)
                    .collect(),
                2 => columns[0].iter().map(|&x| f64::from(u8::from(x > 0.0))).collect(),
                _ => labels[..n].iter().map(|&l| f64::from(l)).collect(),
            };
            let row_weights: Option<Vec<f64>> = match kind {
                1 => Some(weights[..n].to_vec()),
                3 => Some(vec![0.0; n]),
                4 => Some(trials.clone()),
                _ => None,
            };
            for m in 0..=MAX_FEATURES {
                let cols: Vec<&[f64]> = columns[..m].iter().map(Vec::as_slice).collect();
                let design = Design::from_columns(n, &cols).unwrap();
                let got = outcome(irls(&design, &y, row_weights.as_deref()));
                let want = outcome(textbook_irls(&y, &columns[..m], row_weights.as_deref()));
                if kind == 3 {
                    proptest::prop_assert_eq!(&got, &Err(FitError::Singular));
                }
                proptest::prop_assert_eq!(got, want, "{} feature(s), kind {}", m, kind);
            }
        }
    }
}
