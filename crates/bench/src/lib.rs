//! Shared harness code for the experiment binaries in `src/bin/`.
//!
//! Every binary regenerates one table or figure of the paper's evaluation,
//! or one appendix experiment, and writes its timings to a
//! `BENCH_<name>.json` record through [`BenchReport`] (the README's
//! "Reproducing the benchmarks" section lists them). The harness keeps the
//! experiment setup — world generation, dataset sizes, method roster, the
//! simulated judge — in one place so every experiment runs against the same
//! synthetic world.
//!
//! Run an experiment with, e.g.:
//!
//! ```text
//! cargo run --release -p bench --bin table2_explanations
//! MESA_SCALE=paper cargo run --release -p bench --bin fig5_scaling_rows
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod ground_truth;
pub mod judge;
pub mod methods;
pub mod report;
pub mod setup;

pub use ground_truth::ground_truth_for;
pub use judge::{judge_explanation, GroundTruth, JudgeScore};
pub use methods::{run_all_methods, run_method, Method, MethodResult};
pub use report::{median_ms, BenchEntry, BenchReport, DEFAULT_REPS};
pub use setup::{
    experiment_world, prepare_workload, scaled_rows, DatasetSessions, ExperimentData, Scale,
};
