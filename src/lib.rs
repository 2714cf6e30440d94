//! # mesa-repro
//!
//! A from-scratch Rust reproduction of **MESA**, the system of *"On
//! Explaining Confounding Bias"* (ICDE 2023): given an aggregate group-by
//! query whose result shows a surprising correlation between the grouping
//! attribute (the *exposure* `T`) and the aggregated attribute (the
//! *outcome* `O`), MESA mines a small set of confounding attributes — from
//! the input table and from an external knowledge graph — that explains the
//! correlation away.
//!
//! This umbrella crate re-exports every workspace crate so examples,
//! integration tests, and downstream users reach the whole system through
//! one dependency. `cargo doc --open` on this crate is the intended entry
//! point for reading the workspace.
//!
//! ## Map: paper section → crate / module
//!
//! | Paper | What it is | Where it lives |
//! |---|---|---|
//! | §2 problem setup | Aggregate queries `SELECT T, agg(O) … GROUP BY T`, predicates, binning | [`tabular`] ([`tabular::AggregateQuery`], [`tabular::Predicate`], [`tabular::bin_frame_encoded`]) |
//! | §2.1 Def. 2.1–2.2 | The Correlation-Explanation problem, explanations, responsibility | [`mesa::problem`], [`mesa::responsibility`] |
//! | §3.1 extraction | Triple store, entity linking (NED), multi-hop attribute extraction | [`kg`] ([`kg::KnowledgeGraph`], [`kg::extract_attributes`]) |
//! | §3.2 missing data | Selection-bias detection, Inverse Probability Weighting | [`mesa::missing`], [`stats`] (logistic IRLS) |
//! | §4.1 Algorithm 1 | MCIMR greedy selection + responsibility-test stopping rule | [`mod@mesa::mcimr`] |
//! | §4.2 pruning | Offline / online candidate pruning | [`mesa::pruning`] |
//! | §4.3 Algorithm 2 | Top-k unexplained data subgroups | [`mesa::subgroups`] |
//! | §5 evaluation | Synthetic world, the four datasets, the 14-query workload | [`datagen`]; experiment binaries in `crates/bench/src/bin` |
//! | §5 baselines | Brute-Force, Top-K, Linear Regression, HypDB | [`mesa::baselines`] |
//! | (infrastructure) | Entropy / CMI estimators and the G-test over plain or sealed columns, all reaching the rows through one fallible fold | [`infotheory`] ([`infotheory::EncodedFrame`], [`infotheory::kernel::accumulate`]) |
//! | (infrastructure) | Persistent work-sharing pool (nested fan-outs, `MESA_THREADS`) shared by extraction, scoring, sessions | `parallel` (re-exported as [`mesa::parallel_map`], controls under [`mesa::parallel`]) |
//!
//! ## Two ways to run the system
//!
//! **One-shot:** [`mesa::Mesa::explain`] runs the full pipeline — context →
//! KG extraction → join → bin → encode → prune → MCIMR → responsibilities —
//! and returns a [`mesa::MesaReport`].
//!
//! **As a service:** [`mesa::Session`] is constructed once per dataset and
//! amortises the pipeline across queries: KG extraction is cached by
//! `(column, hops, one-to-many policy, distinct values)`, finished reports
//! are memoized by the canonical
//! [`tabular::AggregateQuery::fingerprint`], and independent queries batch
//! through [`mesa::Session::explain_many`]. The one-shot path is a thin
//! wrapper over a transient session, so both produce byte-identical output
//! (locked by `tests/session.rs`).
//!
//! ```
//! use mesa_repro::kg::{KnowledgeGraph, Object};
//! use mesa_repro::mesa::Mesa;
//! use mesa_repro::tabular::{AggregateQuery, DataFrameBuilder};
//!
//! // A table where salary tracks each country's wealth — but wealth itself
//! // lives only in the knowledge graph.
//! let df = DataFrameBuilder::new()
//!     .cat("Country", (0..160).map(|i| Some(["DE", "IT", "NG", "KE"][i % 4])).collect())
//!     .cat("City", (0..160).map(|i| Some(if i % 8 < 4 { "Capital" } else { "Port" })).collect())
//!     .float("Salary", (0..160).map(|i| {
//!         Some(if i % 4 < 2 { 80.0 } else { 30.0 } + (i % 5) as f64)
//!     }).collect())
//!     .build()
//!     .unwrap();
//! let mut graph = KnowledgeGraph::new();
//! // Two GDP levels across four countries: informative about salary, but
//! // not logically equivalent to the exposure (which pruning would drop).
//! for (country, gdp) in [("DE", 50.0), ("IT", 50.0), ("NG", 6.0), ("KE", 6.0)] {
//!     graph.add_fact(country, "GDP per capita", Object::number(gdp));
//! }
//!
//! // One session serves the dataset; the analyst asks several queries.
//! let mesa = Mesa::new();
//! let session = mesa.session(&df, Some(&graph), &["Country"]);
//! let by_country = AggregateQuery::avg("Country", "Salary");
//! let by_city = AggregateQuery::avg("City", "Salary");
//!
//! // Batched: independent queries fan out and share the cached extraction.
//! let reports = session.explain_many(&[by_country.clone(), by_city]);
//! let report = reports[0].as_ref().unwrap();
//! assert!(report
//!     .explanation
//!     .attributes
//!     .contains(&"GDP per capita".to_string()));
//!
//! // Asking again is a memo lookup, byte-identical to the first answer.
//! let again = session.explain(&by_country).unwrap();
//! assert_eq!(again.explanation, report.explanation);
//! assert!(session.cache_stats().reports.hits >= 1);
//!
//! // The one-shot facade runs the same staged pipeline underneath.
//! let one_shot = mesa.explain(&df, &by_country, Some(&graph), &["Country"]).unwrap();
//! assert_eq!(one_shot.explanation, report.explanation);
//! ```
//!
//! ## Where to go next
//!
//! * `examples/` — runnable scenarios: `quickstart`, `covid_deaths`,
//!   `so_salaries` (subgroups), `flight_delays` (batched sessions),
//!   `forbes_celebrities`, `missing_data_robustness` (IPW).
//! * `crates/bench/src/bin` — one binary per table / figure of the paper's
//!   evaluation, plus appendix experiments; each emits a machine-readable
//!   `BENCH_<name>.json` (see the README's "Reproducing the benchmarks").
//! * `ROADMAP.md` — the production-scale north star and open items;
//!   `CHANGES.md` — what each PR did.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub use datagen;
pub use fuzz;
pub use infotheory;
pub use kg;
pub use mesa;
pub use stats;
pub use tabular;
