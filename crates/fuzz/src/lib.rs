//! # fuzz
//!
//! Differential scenario fuzzer for the MESA workspace: adversarial schemas
//! crossed with pipeline-invariant oracles.
//!
//! Every layer of the system carries a byte-identity or equivalence
//! invariant — warm ≡ cold ≡ batched sessions, `join` ≡ `join_rendered`,
//! per-entity KG binning ≡ gathering then binning (prepare equivalence),
//! sealed ≡ plain ≡ reference-fold kernel counts in both table layouts,
//! thread caps 1/2/4 byte-identical,
//! fault-injected-then-recovered ≡ fresh, and fingerprint non-aliasing.
//! Historically those were locked only over the three fixed paper datasets;
//! this crate asserts them over *generated* scenarios instead:
//!
//! - [`scenario`] materializes a random [`Scenario`] (table + knowledge
//!   graph + queries + config crossing) from a single `u64` seed, using the
//!   adversarial generators in `datagen::adversarial`.
//! - [`harness`] runs one scenario through the full
//!   prepare → extract → kernel → MCIMR → session pipeline under every
//!   oracle family and reports the first violated invariant.
//! - [`minimize()`] greedily shrinks a failing scenario (drop queries, halve
//!   rows, drop columns, truncate the graph) while the same oracle family
//!   keeps failing, so regressions are committed at their minimal size.
//!
//! The `fuzz` binary (`cargo run -p fuzz -- --seed 0xMESA --scenarios 200`)
//! drives all three and records throughput to `BENCH_fuzz.json`. A
//! deliberately broken oracle (`--sabotage sealed`) demonstrates end-to-end
//! that violations are caught and shrunk.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod harness;
pub mod minimize;
pub mod scenario;

pub use harness::{
    check, check_family, prepare_matches_join_then_bin, OracleFailure, Sabotage, ORACLE_FAMILIES,
};
pub use minimize::{minimize, MinimizeOutcome};
pub use scenario::{scenario_seed, HandCase, Scenario};
