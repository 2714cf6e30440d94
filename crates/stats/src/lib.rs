//! # stats
//!
//! The small statistics substrate the MESA reproduction needs beyond
//! information theory:
//!
//! * [`Matrix`] — dense matrices with solve/inverse, backing the regressions.
//! * [`ols_fit`] — multiple linear regression with t statistics and p-values
//!   (the paper's LR baseline).
//! * [`irls`] — logistic regression via IRLS over a [`Design`] that several
//!   fits can share, used to estimate the selection probabilities behind the
//!   Inverse Probability Weighting scheme.
//! * [`pearson`] / [`spearman`] — classical correlation measures.
//!
//! ```
//! use stats::ols_fit;
//! let x: Vec<f64> = (0..50).map(|i| i as f64).collect();
//! let y: Vec<f64> = x.iter().map(|x| 1.0 + 2.0 * x).collect();
//! let fit = ols_fit(&y, &[("x".to_string(), x)]).unwrap();
//! assert!((fit.coefficient("x").unwrap().estimate - 2.0).abs() < 1e-8);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod correlation;
pub mod logistic;
pub mod matrix;
pub mod ols;
pub mod special;

pub use correlation::{mean, pearson, spearman, std_dev, variance};
pub use logistic::{irls, Design, IrlsFit, LogisticConfig};
pub use matrix::{Matrix, MatrixError};
pub use ols::{ols_fit, Coefficient, FitError, OlsFit};
pub use special::{beta_inc, erf, ln_gamma, normal_cdf, student_t_sf};
