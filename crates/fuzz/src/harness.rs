//! The differential harness: runs one [`Scenario`] through the full
//! prepare → extract → kernel → MCIMR → session pipeline under crossed
//! configurations and asserts the workspace's seven standing oracle
//! families.
//!
//! Every oracle compares *renderings* (human summary + `Debug` of the full
//! explanation, which prints every `f64` bit-exactly) or canonicalized joint
//! counts compared bitwise, so "equivalent" always means byte-identical.
//! Deterministic pipeline **errors** are rendered too: an adversarial
//! scenario is allowed to fail a query, but it must fail it with the same
//! error on every path.

use std::borrow::Borrow;

use infotheory::kernel::{accumulate, reference_accumulate, Accumulated};
use infotheory::EncodedFrame;
use kg::KnowledgeGraph;
use mesa::{report_summary, Mesa, MesaError, MesaReport, PrepareConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tabular::{
    bin_frame_encoded, join, join_rendered, AggregateQuery, DType, DataFrame, EncodedColumn,
    JoinKind, Predicate,
};

use crate::scenario::Scenario;

/// The seven oracle families, in the order [`check`] runs them.
pub const ORACLE_FAMILIES: [&str; 7] = [
    "session-identity",
    "join-equivalence",
    "prepare-equivalence",
    "kernel-equivalence",
    "thread-identity",
    "fault-recovery",
    "fingerprint",
];

/// A deliberate oracle break, used to prove the harness catches violations
/// and the minimizer shrinks them (`fuzz --sabotage …` and the in-crate
/// self-tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sabotage {
    /// No sabotage: the production configuration.
    None,
    /// Perturb the sealed-path joint counts by one before comparison,
    /// simulating a broken sealed kernel (the "skip sealing" break from the
    /// acceptance criteria).
    Sealed,
    /// Truncate query fingerprints to 6 bytes before comparison, simulating
    /// a lossy cache key.
    Fingerprint,
}

/// A violated invariant: which family, and a bounded human-readable detail.
#[derive(Debug, Clone)]
pub struct OracleFailure {
    /// The violated family (one of [`ORACLE_FAMILIES`]).
    pub family: &'static str,
    /// What differed, truncated to a sane length.
    pub detail: String,
}

impl std::fmt::Display for OracleFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.family, self.detail)
    }
}

fn fail(family: &'static str, detail: String) -> OracleFailure {
    const MAX: usize = 600;
    let detail = if detail.len() > MAX {
        let cut = (0..=MAX)
            .rev()
            .find(|&i| detail.is_char_boundary(i))
            .unwrap_or(0);
        format!("{}… ({} bytes)", &detail[..cut], detail.len())
    } else {
        detail
    };
    OracleFailure { family, detail }
}

/// Exact rendering of everything a caller can observe about a pipeline
/// outcome: the human summary plus the full-precision explanation, or the
/// structured error.
fn render_outcome<T: Borrow<MesaReport>>(r: &Result<T, MesaError>) -> String {
    match r {
        Ok(rep) => {
            let rep = rep.borrow();
            format!("{}\n{:?}", report_summary(rep), rep.explanation)
        }
        Err(e) => format!("error: {e:?}"),
    }
}

/// Runs every oracle family over `scenario`, returning the families that
/// actually executed, or the first violation.
pub fn check(scenario: &Scenario, sabotage: Sabotage) -> Result<Vec<&'static str>, OracleFailure> {
    // The fault registry is process-global: serialize whole checks so a
    // point armed by one thread's fault-recovery family cannot fire inside
    // another thread's pipeline run (test binaries run checks in parallel).
    #[cfg(feature = "fault-injection")]
    let _guard = fault_lock();

    let mut ran = Vec::new();
    for family in ORACLE_FAMILIES {
        if check_family_inner(scenario, sabotage, family)? {
            ran.push(family);
        }
    }
    Ok(ran)
}

/// Runs a single oracle family (used by the minimizer, which only needs to
/// know whether the *same* family still fails). Returns `Ok(false)` when the
/// family is compiled out or not applicable to this scenario.
pub fn check_family(
    scenario: &Scenario,
    sabotage: Sabotage,
    family: &str,
) -> Result<bool, OracleFailure> {
    #[cfg(feature = "fault-injection")]
    let _guard = fault_lock();
    check_family_inner(scenario, sabotage, family)
}

#[cfg(feature = "fault-injection")]
fn fault_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn check_family_inner(
    scenario: &Scenario,
    sabotage: Sabotage,
    family: &str,
) -> Result<bool, OracleFailure> {
    match family {
        "session-identity" => session_identity(scenario).map(|()| true),
        "join-equivalence" => join_equivalence(scenario).map(|()| true),
        "prepare-equivalence" => prepare_equivalence(scenario).map(|()| true),
        "kernel-equivalence" => kernel_equivalence(scenario, sabotage).map(|()| true),
        "thread-identity" => thread_identity(scenario).map(|()| true),
        "fault-recovery" => fault_recovery(scenario),
        "fingerprint" => fingerprint_non_aliasing(scenario, sabotage).map(|()| true),
        other => Err(fail(
            "fingerprint",
            format!("unknown oracle family {other:?}"),
        )),
    }
}

fn extraction_cols(scenario: &Scenario) -> Vec<&str> {
    scenario
        .extraction_columns
        .iter()
        .map(String::as_str)
        .collect()
}

/// Oracle 1: warm ≡ cold ≡ batched. A fresh one-shot pipeline per query, the
/// first and second session serve of the same query, and `explain_many` over
/// the whole workload must all render byte-identically.
fn session_identity(scenario: &Scenario) -> Result<(), OracleFailure> {
    const FAMILY: &str = "session-identity";
    let mesa = Mesa::with_config(scenario.config);
    let cols = extraction_cols(scenario);
    let graph = Some(&scenario.graph);

    let cold: Vec<String> = scenario
        .queries
        .iter()
        .map(|q| render_outcome(&mesa.explain(&scenario.df, q, graph, &cols)))
        .collect();

    let session = mesa.session(&scenario.df, graph, &cols);
    for (i, q) in scenario.queries.iter().enumerate() {
        let first = render_outcome(&session.explain(q));
        if first != cold[i] {
            return Err(fail(
                FAMILY,
                format!(
                    "query {i} session-first != cold\n--- cold ---\n{}\n--- session ---\n{first}",
                    cold[i]
                ),
            ));
        }
        let warm = render_outcome(&session.explain(q));
        if warm != first {
            return Err(fail(
                FAMILY,
                format!("query {i} warm != first\n--- first ---\n{first}\n--- warm ---\n{warm}"),
            ));
        }
    }

    let batch_session = mesa.session(&scenario.df, graph, &cols);
    let batched = batch_session.explain_many(&scenario.queries);
    for (i, outcome) in batched.iter().enumerate() {
        let rendered = render_outcome(outcome);
        if rendered != cold[i] {
            return Err(fail(
                FAMILY,
                format!(
                    "query {i} batched != cold\n--- cold ---\n{}\n--- batched ---\n{rendered}",
                    cold[i]
                ),
            ));
        }
    }
    Ok(())
}

/// Oracle 2: `join` ≡ `join_rendered` (the reference implementation), for
/// both join kinds, over the frame joined against the KG-extracted attribute
/// table and against a slice of itself keyed by a non-float column. Float
/// keys are excluded: their divergence is documented in `tabular::join`.
fn join_equivalence(scenario: &Scenario) -> Result<(), OracleFailure> {
    const FAMILY: &str = "join-equivalence";
    let mut pairs: Vec<(tabular::DataFrame, String, String)> = Vec::new();

    if let Some(key) = scenario.extraction_columns.first() {
        if let Ok(col) = scenario.df.column(key) {
            let values: Vec<String> = col.encode().labels().to_vec();
            if let Ok(extracted) = kg::extract_attributes(
                &scenario.graph,
                &values,
                "__fuzz_key",
                scenario.config.prepare.extraction,
            ) {
                pairs.push((extracted.table, key.clone(), extracted.key_column));
            }
        }
    }

    // Self-derived right table: the first non-float column as key plus a
    // row-index marker, so gathered right rows are distinguishable.
    if let Some(col) = scenario.df.columns().find(|c| c.dtype() != DType::Float) {
        let marker = tabular::Column::from_i64(
            "__fuzz_marker",
            (0..col.len()).map(|i| Some(i as i64)).collect(),
        );
        let right =
            tabular::DataFrame::from_columns(vec![col.with_name("__fuzz_right_key"), marker])
                .expect("right table columns share one length");
        pairs.push((right, col.name().to_string(), "__fuzz_right_key".into()));
    }

    for (right, left_on, right_on) in &pairs {
        for kind in [JoinKind::Left, JoinKind::Inner] {
            let fast = join(&scenario.df, right, left_on, right_on, kind);
            let reference = join_rendered(&scenario.df, right, left_on, right_on, kind);
            match (&fast, &reference) {
                (Ok(a), Ok(b)) if a == b => {}
                (Err(ea), Err(eb)) if format!("{ea:?}") == format!("{eb:?}") => {}
                _ => {
                    return Err(fail(
                        FAMILY,
                        format!(
                            "{kind:?} join on {left_on:?}={right_on:?} diverged: fast={:?} reference={:?}",
                            fast.as_ref().map(|f| (f.n_rows(), f.n_cols())),
                            reference.as_ref().map(|f| (f.n_rows(), f.n_cols())),
                        ),
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Oracle 3: the prepare path ≡ the gather-then-bin composition it
/// replaced, for every scenario query the prepare path accepts (see
/// [`prepare_matches_join_then_bin`]).
fn prepare_equivalence(scenario: &Scenario) -> Result<(), OracleFailure> {
    let cols = extraction_cols(scenario);
    let config = scenario.config.prepare;
    for (i, query) in scenario.queries.iter().enumerate() {
        prepare_matches_join_then_bin(&scenario.df, &scenario.graph, &cols, query, config)
            .map_err(|detail| fail("prepare-equivalence", format!("query {i}: {detail}")))?;
    }
    Ok(())
}

/// Prepares `query` as the pipeline does — [`mesa::prepare_from_joined`]
/// over [`mesa::extract_and_join`]'s tables and row maps — and compares
/// the result with the composition that gathers the KG attributes first:
/// [`tabular::join()`] of each extraction table onto the context-filtered
/// frame, then [`bin_frame_encoded`], [`EncodedFrame::from_frame_with`] and
/// sealing. The frames must be equal, and every column must have the same
/// codes, labels and validity.
///
/// Returns `Ok(false)` when the pipeline rejects the query (nothing to
/// compare), `Ok(true)` when both sides agree, and what differed otherwise.
pub fn prepare_matches_join_then_bin(
    df: &DataFrame,
    graph: &KnowledgeGraph,
    columns: &[&str],
    query: &AggregateQuery,
    config: PrepareConfig,
) -> Result<bool, String> {
    let Ok(filtered) = mesa::apply_query_context(df, query) else {
        return Ok(false);
    };
    let Ok((joined, joins)) = mesa::extract_and_join(&filtered, graph, columns, config.extraction)
    else {
        return Ok(false);
    };
    let Ok(prepared) = mesa::prepare_from_joined(query, joined, joins.clone(), config) else {
        return Ok(false);
    };

    let mut gathered = filtered;
    for ej in &joins {
        gathered = join(&gathered, &ej.table, &ej.column, &ej.key, JoinKind::Left)
            .map_err(|e| format!("reference join on {:?} failed: {e:?}", ej.column))?;
    }
    let (frame, encodings) = bin_frame_encoded(gathered, config.n_bins, config.bin_strategy)
        .map_err(|e| format!("reference binning failed: {e:?}"))?;
    let mut encoded = EncodedFrame::from_frame_with(&frame, encodings)
        .map_err(|e| format!("reference encoding failed: {e:?}"))?;
    encoded.seal();

    if prepared.frame != frame {
        let differs: Vec<&str> = frame
            .columns()
            .filter(|c| prepared.frame.column(c.name()).ok() != Some(*c))
            .map(|c| c.name())
            .collect();
        return Err(format!(
            "frames differ: columns {:?} vs {:?}; unequal: {differs:?}",
            prepared.frame.column_names(),
            frame.column_names(),
        ));
    }
    let mut names = encoded.column_names();
    let mut got_names = prepared.encoded.column_names();
    names.sort_unstable();
    got_names.sort_unstable();
    if names != got_names {
        return Err(format!(
            "encoded columns differ: {got_names:?} vs {names:?}"
        ));
    }
    for name in names {
        let (got, want) = match (prepared.encoded.column(name), encoded.column(name)) {
            (Ok(got), Ok(want)) => (got, want),
            _ => return Err(format!("encoded column {name:?} is missing")),
        };
        if got.codes() != want.codes() {
            return Err(format!("codes of {name:?} differ"));
        }
        if got.labels() != want.labels() {
            return Err(format!(
                "labels of {name:?} differ: {:?} vs {:?}",
                got.labels(),
                want.labels()
            ));
        }
        if got.validity() != want.validity() {
            return Err(format!("validity of {name:?} differs"));
        }
    }
    Ok(true)
}

/// Canonical form of accumulated joint counts: observed cells sorted by key
/// with bit-exact weights, plus total weight bits and complete-case count.
fn canonical(acc: &Accumulated) -> (Vec<(Vec<u32>, u64)>, u64, usize) {
    let mut cells: Vec<(Vec<u32>, u64)> = acc
        .counts
        .iter_keyed()
        .map(|(k, w)| (k, w.to_bits()))
        .collect();
    cells.sort();
    (cells, acc.total.to_bits(), acc.complete_cases)
}

/// Oracle 4: sealed ≡ plain ≡ reference kernel counts, bitwise, in both
/// layouts. Samples a few 2–3 column tuples from the frame and, under the
/// dense (huge cell budget) and sparse (zero budget) layouts, folds each
/// through the reference fold and through the production block fold over
/// the sealed (narrow) columns and over the plain (dense) ones, unweighted
/// and — for a seed-chosen half of the scenarios — with a zero-containing
/// weight vector.
fn kernel_equivalence(scenario: &Scenario, sabotage: Sabotage) -> Result<(), OracleFailure> {
    const FAMILY: &str = "kernel-equivalence";
    let encoded: Vec<EncodedColumn> = scenario.df.columns().map(|c| c.encode()).collect();
    if encoded.len() < 2 {
        return Ok(());
    }
    let mut rng = StdRng::seed_from_u64(scenario.seed ^ 0x6B65_726E);
    let n_rows = scenario.df.n_rows();
    let weights: Option<Vec<f64>> = rng
        .gen_bool(0.5)
        .then(|| (0..n_rows).map(|i| (i % 4) as f64).collect());

    let n_tuples = 3.min(encoded.len());
    for _ in 0..n_tuples {
        let size = if encoded.len() >= 3 && rng.gen_bool(0.4) {
            3
        } else {
            2
        };
        let mut idx: Vec<usize> = Vec::new();
        while idx.len() < size {
            let i = rng.gen_range(0..encoded.len());
            if !idx.contains(&i) {
                idx.push(i);
            }
        }
        let refs: Vec<&EncodedColumn> = idx.iter().map(|&i| &encoded[i]).collect();
        let sealed: Vec<EncodedColumn> = refs.iter().map(|&e| e.clone().seal()).collect();
        let sealed: Vec<&EncodedColumn> = sealed.iter().collect();

        for (budget_name, budget) in [("dense", 1usize << 22), ("sparse", 0usize)] {
            let fold = |name: &str, result: Result<Accumulated, tabular::TabularError>| {
                result.map(|acc| canonical(&acc)).map_err(|e| {
                    fail(
                        FAMILY,
                        format!("{name} fold ({budget_name}) rejected valid input: {e:?}"),
                    )
                })
            };
            let w = weights.as_deref();
            let reference = fold("reference", reference_accumulate(&refs, w, budget))?;
            let via_plain = fold("plain", accumulate(&refs, w, budget))?;
            let mut via_sealed = fold("sealed", accumulate(&sealed, w, budget))?;
            if sabotage == Sabotage::Sealed {
                match via_sealed.0.first_mut() {
                    Some(cell) => cell.1 = f64::from_bits(cell.1).mul_add(1.0, 1.0).to_bits(),
                    None => via_sealed.0.push((vec![0; size], 1.0f64.to_bits())),
                }
            }
            for (path, got) in [("plain", via_plain), ("sealed", via_sealed)] {
                if got != reference {
                    return Err(fail(
                        FAMILY,
                        format!(
                            "{path} != reference ({budget_name}) for columns {idx:?} (weights: {}): {} vs {} cells, totals {:x} vs {:x}",
                            weights.is_some(),
                            got.0.len(),
                            reference.0.len(),
                            got.1,
                            reference.1,
                        ),
                    ));
                }
            }
        }

        // Dense and sparse budgets of the reference must agree with each
        // other too (the crossover itself must be invisible).
        let dense = canonical(&reference_accumulate(&refs, weights.as_deref(), 1 << 22).unwrap());
        let sparse = canonical(&reference_accumulate(&refs, weights.as_deref(), 0).unwrap());
        if dense != sparse {
            return Err(fail(
                FAMILY,
                format!(
                    "dense != sparse for columns {idx:?}: {} vs {} cells",
                    dense.0.len(),
                    sparse.0.len()
                ),
            ));
        }
    }
    Ok(())
}

/// Oracle 5: thread caps 1/2/4 render byte-identically. The whole session
/// workload (per-query explains plus `explain_many`) is rendered under each
/// cap; caps above the actual pool size are skipped (CI is single-core).
fn thread_identity(scenario: &Scenario) -> Result<(), OracleFailure> {
    const FAMILY: &str = "thread-identity";
    let pool = mesa::parallel::set_threads(4);
    let render_all = || {
        let mesa = Mesa::with_config(scenario.config);
        let cols = extraction_cols(scenario);
        let session = mesa.session(&scenario.df, Some(&scenario.graph), &cols);
        let mut out = String::new();
        for q in &scenario.queries {
            out.push_str(&render_outcome(&session.explain(q)));
            out.push('\n');
        }
        for outcome in session.explain_many(&scenario.queries) {
            out.push_str(&render_outcome(&outcome));
            out.push('\n');
        }
        out
    };
    let reference = mesa::parallel::with_thread_cap(1, render_all);
    for cap in [2usize, 4] {
        if cap > pool {
            continue;
        }
        let at_cap = mesa::parallel::with_thread_cap(cap, render_all);
        if at_cap != reference {
            return Err(fail(
                FAMILY,
                format!(
                    "cap {cap} != cap 1\n--- cap 1 ---\n{reference}\n--- cap {cap} ---\n{at_cap}"
                ),
            ));
        }
    }
    Ok(())
}

/// Oracle 6 (requires the `fault-injection` feature): a session that
/// suffered an injected panic mid-pipeline and was then reset must serve the
/// whole workload byte-identically to a fresh cold session. Returns
/// `Ok(false)` when compiled out.
#[cfg(feature = "fault-injection")]
fn fault_recovery(scenario: &Scenario) -> Result<bool, OracleFailure> {
    const FAMILY: &str = "fault-recovery";
    use mesa::faults::{self, FaultKind, NAMED_POINTS};

    let point = NAMED_POINTS[(scenario.seed as usize) % NAMED_POINTS.len()];
    let mesa = Mesa::with_config(scenario.config);
    let cols = extraction_cols(scenario);

    faults::reset();
    faults::arm(point, FaultKind::Panic, 1);
    let wounded = mesa.session(&scenario.df, Some(&scenario.graph), &cols);
    // May hit the armed point (contained as MesaError::Internal) or miss it
    // entirely when this scenario never reaches that pipeline stage — both
    // are fine; the invariant is about what happens *after* recovery.
    let during = render_outcome(&wounded.explain(&scenario.queries[0]));
    faults::reset();

    let fresh = mesa.session(&scenario.df, Some(&scenario.graph), &cols);
    for (i, q) in scenario.queries.iter().enumerate() {
        let recovered = render_outcome(&wounded.explain(q));
        let cold = render_outcome(&fresh.explain(q));
        if recovered != cold {
            return Err(fail(
                FAMILY,
                format!(
                    "point {point:?}: recovered query {i} != fresh (during-fault outcome was {})\n--- fresh ---\n{cold}\n--- recovered ---\n{recovered}",
                    during.lines().next().unwrap_or(""),
                ),
            ));
        }
    }
    Ok(true)
}

#[cfg(not(feature = "fault-injection"))]
fn fault_recovery(_scenario: &Scenario) -> Result<bool, OracleFailure> {
    Ok(false)
}

/// Oracle 7: fingerprint non-aliasing. Structurally distinct queries (the
/// scenario's own plus systematic mutants: every aggregate function, the
/// stripped context, the swapped exposure/outcome) must have pairwise
/// distinct fingerprints, and clones must fingerprint identically.
fn fingerprint_non_aliasing(scenario: &Scenario, sabotage: Sabotage) -> Result<(), OracleFailure> {
    const FAMILY: &str = "fingerprint";
    use tabular::AggFn;

    let mut queries: Vec<tabular::AggregateQuery> = Vec::new();
    for q in &scenario.queries {
        queries.push(q.clone());
        for agg in [
            AggFn::Count,
            AggFn::Sum,
            AggFn::Mean,
            AggFn::Min,
            AggFn::Max,
            AggFn::Median,
            AggFn::Std,
        ] {
            queries.push(q.clone().with_agg(agg));
        }
        if q.context != Predicate::True {
            queries.push(q.clone().with_context(Predicate::True));
        }
        let mut swapped = q.clone();
        std::mem::swap(&mut swapped.exposure, &mut swapped.outcome);
        queries.push(swapped);
    }

    let fp = |q: &tabular::AggregateQuery| -> String {
        let full = q.fingerprint();
        match sabotage {
            Sabotage::Fingerprint => full.chars().take(6).collect(),
            _ => full,
        }
    };

    for (i, a) in queries.iter().enumerate() {
        let clone_fp = fp(&a.clone());
        if clone_fp != fp(a) {
            return Err(fail(
                FAMILY,
                format!("clone of query {i} changed fingerprint"),
            ));
        }
        for (j, b) in queries.iter().enumerate().skip(i + 1) {
            if a != b && fp(a) == fp(b) {
                return Err(fail(
                    FAMILY,
                    format!(
                        "distinct queries alias: #{i} {:?}/{:?}/{:?} vs #{j} {:?}/{:?}/{:?} -> {}",
                        a.exposure,
                        a.outcome,
                        a.agg,
                        b.exposure,
                        b.outcome,
                        b.agg,
                        fp(a),
                    ),
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{HandCase, Scenario};

    #[test]
    fn hand_cases_pass_all_families() {
        for case in [
            HandCase::AllNullColumn,
            HandCase::CardinalityOneKey,
            HandCase::FiveHopChain,
        ] {
            let s = Scenario::hand(case);
            let ran = check(&s, Sabotage::None).unwrap_or_else(|f| {
                panic!("{case:?} violated {f}\n{}", s.describe());
            });
            assert!(ran.len() >= 6, "{case:?} only ran {ran:?}");
        }
    }

    #[test]
    fn a_generated_scenario_passes() {
        let s = Scenario::from_seed(7);
        check(&s, Sabotage::None)
            .unwrap_or_else(|f| panic!("seed 7 violated {f}\n{}", s.describe()));
    }

    #[test]
    fn sealed_sabotage_is_caught() {
        let s = Scenario::hand(HandCase::CardinalityOneKey);
        let failure = check(&s, Sabotage::Sealed).expect_err("sabotage must be caught");
        assert_eq!(failure.family, "kernel-equivalence");
    }

    #[test]
    fn fingerprint_sabotage_is_caught() {
        let s = Scenario::hand(HandCase::FiveHopChain);
        let failure = check(&s, Sabotage::Fingerprint).expect_err("sabotage must be caught");
        assert_eq!(failure.family, "fingerprint");
    }

    #[test]
    fn failure_details_are_bounded() {
        let f = fail("fingerprint", "x".repeat(10_000));
        assert!(f.detail.len() < 700, "detail was {} bytes", f.detail.len());
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn fault_recovery_family_runs_under_feature() {
        let s = Scenario::hand(HandCase::AllNullColumn);
        let ran = check(&s, Sabotage::None).unwrap();
        assert!(ran.contains(&"fault-recovery"));
    }
}
