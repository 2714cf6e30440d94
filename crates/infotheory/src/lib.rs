//! # infotheory
//!
//! Weighted plug-in estimators for the information-theoretic quantities the
//! MESA system is built on: entropy, conditional entropy, mutual information,
//! conditional mutual information (the paper's partial-correlation measure),
//! interaction information, conditional-independence tests, and approximate
//! functional dependencies.
//!
//! All estimators operate on the discrete [`tabular::EncodedColumn`]
//! representation (numeric attributes are binned first, see
//! [`tabular::bin_frame`]), use complete-case analysis over the involved
//! columns, and accept optional per-row weights so that Inverse Probability
//! Weighting can correct selection bias (Section 3.2 of the paper).
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
pub use independence::{
    approx_functional_dependency, ci_test, ci_test_table, ci_test_views,
    is_conditionally_independent, logically_equivalent, CiTestConfig, CiTestResult,
};
pub use kernel::{
    accumulate_views, adaptive_dense_cells, complete_case_mask, complete_case_mask_views,
    dense_cell_count, dense_cell_count_views, FixedState, SparseCounts, DEFAULT_DENSE_CELLS,
    DENSE_CELLS_FLOOR, DENSE_CELLS_PER_ROW,
};
pub use measures::{
    conditional_entropy, conditional_entropy_of_table, conditional_entropy_views,
    conditional_mutual_information, conditional_mutual_information_views, entropy, entropy_view,
    interaction_information, interaction_information_views, joint_entropy, joint_entropy_views,
    mutual_information, mutual_information_views, normalized_mutual_information,
    normalized_mutual_information_views,
};
pub use special::{chi2_sf, gamma_p, ln_gamma};
