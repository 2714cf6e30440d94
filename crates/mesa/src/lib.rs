//! # mesa
//!
//! A from-scratch reproduction of **MESA**, the system of *"On Explaining
//! Confounding Bias"* (ICDE 2023): given an aggregate group-by query whose
//! result shows a surprising correlation between a grouping attribute (the
//! *exposure* `T`) and an aggregated attribute (the *outcome* `O`), MESA
//! finds a small set of confounding attributes — mined from the input table
//! and from an external knowledge graph — that explains the correlation away.
//!
//! Pipeline (each stage is its own module):
//!
//! 1. [`problem`] — apply the query context, join attributes extracted from
//!    the knowledge graph, bin and encode (`prepare_query`).
//! 2. [`pruning`] — offline and online pruning of the candidate attributes
//!    (Section 4.2 of the paper).
//! 3. [`missing`] — selection-bias detection and Inverse Probability
//!    Weighting for attributes with missing values (Section 3.2).
//! 4. [`mod@mcimr`] — the MCIMR greedy selection algorithm with the
//!    responsibility-test stopping rule (Algorithm 1).
//! 5. [`responsibility`] — degrees of responsibility (Definition 2.2).
//! 6. [`subgroups`] — top-k unexplained data subgroups (Algorithm 2).
//! 7. [`baselines`] — Brute-Force, Top-K, Linear Regression, and HypDB.
//!
//! The [`Mesa`] facade in [`system`] wires the stages together for one-shot
//! runs; [`session`] keeps a dataset's extraction cache and report memo
//! alive across queries (and batches them with [`Session::explain_many`]);
//! [`report`] renders results for humans.
//!
//! ## Serving-grade hardening
//!
//! [`session`] is built for long-lived serving: its cache tiers are
//! [`cache::BoundedCache`]s (LRU budgets via [`SessionLimits`], in-flight
//! miss deduplication), pipeline panics are contained at the session
//! boundary as [`MesaError::Internal`], and per-request wall-clock budgets
//! ([`Session::explain_with_deadline`]) surface as
//! [`MesaError::DeadlineExceeded`]. With the `fault-injection` feature the
//! deterministic fault harness (`mesa::faults`, re-exported from the
//! `parallel` crate) can arm panics, latency, or allocation failures at
//! named pipeline points for testing.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod baselines;
pub mod cache;
pub mod error;
pub mod mcimr;
pub mod missing;
pub mod parallel;
pub mod problem;
pub mod pruning;
pub mod report;
pub mod responsibility;
pub mod session;
pub mod subgroups;
pub mod system;

pub use cache::{BoundedCache, CacheBudget, CacheStats};
pub use error::{MesaError, Result};
pub use mcimr::{mcimr, McimrConfig, McimrTrace};
pub use missing::{
    analyze_attribute, analyze_candidates, combine_weights, fully_observed_columns,
    impute_candidates, selection_indicator, MissingPolicy, SelectionBiasInfo,
};
pub use parallel::parallel_map;
pub use problem::{
    apply_query_context, extract_and_join, extract_and_join_with, prepare_from_joined,
    prepare_query, ColumnExtraction, Explanation, ExtractionJoin, PrepareConfig, PreparedQuery,
};
pub use pruning::{prune, prune_offline, prune_online, PruneReason, PruningConfig, PruningReport};
pub use report::{explanation_details, explanation_line, report_summary, subgroup_table};
pub use responsibility::responsibilities;
pub use session::{ExtractionCache, Session, SessionCacheStats, SessionLimits};
pub use subgroups::{unexplained_subgroups, Subgroup, SubgroupConfig};
pub use system::{Mesa, MesaConfig, MesaReport};

/// The deterministic fault-injection registry (re-exported from the
/// `parallel` runtime crate): arm named pipeline points with panics,
/// latency, or simulated allocation failure. Only present with the
/// `fault-injection` feature.
#[cfg(feature = "fault-injection")]
pub use ::parallel::faults;
