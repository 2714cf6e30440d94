//! # infotheory
//!
//! Weighted plug-in estimators for the information-theoretic quantities the
//! MESA system is built on: entropy, conditional entropy, mutual information,
//! conditional mutual information (the paper's partial-correlation measure)
//! and the G-test of conditional independence.
//!
//! All estimators take discrete columns as [`tabular::ColumnView`]s — plain
//! [`tabular::EncodedColumn`]s or sealed [`tabular::SealedColumn`]s, with
//! bit-identical results (numeric attributes are binned first, see
//! [`tabular::bin_frame_encoded`]). They use complete-case analysis over the
//! involved columns, accept optional per-row weights so that Inverse
//! Probability Weighting can correct selection bias (Section 3.2 of the
//! paper), and return invalid input as a [`tabular::TabularError`]. Each
//! reaches the rows through one fold, [`kernel::accumulate`].
//!
//! ```
//! use tabular::DataFrameBuilder;
//! use infotheory::EncodedFrame;
//!
//! let df = DataFrameBuilder::new()
//!     .cat("country", vec![Some("DE"), Some("DE"), Some("US"), Some("US")])
//!     .cat("salary", vec![Some("high"), Some("high"), Some("low"), Some("low")])
//!     .cat("gdp", vec![Some("big"), Some("big"), Some("small"), Some("small")])
//!     .build()
//!     .unwrap();
//! let ef = EncodedFrame::from_frame(&df);
//! // Salary and country are perfectly correlated ...
//! assert!(ef.mutual_information("country", "salary", None).unwrap() > 0.9);
//! // ... but conditioning on GDP explains the correlation away.
//! assert!(ef.cmi("country", "salary", &["gdp"], None).unwrap() < 1e-9);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod contingency;
pub mod frame;
pub mod independence;
pub mod kernel;
pub mod measures;
pub mod special;

pub use contingency::JointTable;
pub use frame::{ColumnEncodingReport, EncodedFrame};
pub use independence::{ci_test, ci_test_table, CiTestConfig, CiTestResult};
pub use kernel::{
    adaptive_dense_cells, FixedState, SparseCounts, DEFAULT_DENSE_CELLS, DENSE_CELLS_FLOOR,
    DENSE_CELLS_PER_ROW,
};
pub use measures::{
    conditional_entropy, conditional_entropy_of_table, conditional_mutual_information, entropy,
    joint_entropy, mutual_information,
};
pub use special::{chi2_sf, gamma_p, ln_gamma};
