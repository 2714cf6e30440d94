//! Serving-grade robustness of the session layer: per-request deadlines,
//! panic containment at the session boundary, in-flight miss deduplication,
//! cache consistency under LRU eviction storms, and — with the
//! `fault-injection` feature — deterministic faults at every named pipeline
//! point, after each of which the session must stay fully usable and serve
//! results byte-identical to a fresh cold session.
//!
//! The fault-injection registry is process-global, so every test that
//! touches it (or that runs a session while another test might be arming
//! faults) serialises on one lock and resets the registry on scope exit.

use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use mesa_repro::datagen::{
    build_kg, generate_covid, representative_queries_for, Dataset, KgConfig, World, WorldConfig,
};
use mesa_repro::kg::KnowledgeGraph;
use mesa_repro::mesa::{
    report_summary, CacheBudget, MesaConfig, MesaError, MesaReport, Session, SessionLimits,
};
use mesa_repro::tabular::{AggregateQuery, DataFrame};

/// Every named injection point the pipeline declares, outermost first.
#[allow(dead_code)]
const FAULT_POINTS: &[&str] = &[
    "mesa.session.fill_report",
    "mesa.session.fill_prepared",
    "mesa.session.fill_extraction",
    "mesa.join",
    "kg.extract.expand",
    "infotheory.kernel.accumulate",
];

/// The coverage list above must track the documented registry verbatim —
/// same points, same order. `mesa-lint`'s fault-point-registry rule checks
/// the same invariant statically (plus the call sites); this runtime mirror
/// catches it even in builds that never run the lint.
#[cfg(feature = "fault-injection")]
#[test]
fn fault_points_match_the_documented_registry() {
    use mesa_repro::mesa::faults;
    assert_eq!(FAULT_POINTS, faults::NAMED_POINTS);
}

static SERIAL: Mutex<()> = Mutex::new(());

/// Serialises tests sharing the process-global fault registry. Poisoning is
/// ignorable: a previous test's failed assertion leaves no shared state
/// behind beyond the registry, which every scope resets.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(feature = "fault-injection")]
mod scope {
    use super::*;
    use mesa_repro::mesa::faults;

    /// Holds the serial lock and guarantees a disarmed registry on both
    /// entry and exit (even when the test panics mid-way).
    pub struct FaultScope(#[allow(dead_code)] MutexGuard<'static, ()>);

    impl Drop for FaultScope {
        fn drop(&mut self) {
            faults::reset();
        }
    }

    pub fn fault_scope() -> FaultScope {
        let guard = serial();
        faults::reset();
        FaultScope(guard)
    }
}

/// Shared small fixture (the `tests/session.rs` world): generated once per
/// process, borrowed by every session in this suite.
fn fixture() -> &'static (DataFrame, KnowledgeGraph) {
    static FIXTURE: OnceLock<(DataFrame, KnowledgeGraph)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let world = World::generate(WorldConfig {
            n_countries: 60,
            n_cities: 25,
            n_airlines: 6,
            n_celebrities: 80,
            seed: 23,
        });
        let graph = build_kg(&world, KgConfig::default());
        let covid = generate_covid(&world, 3).unwrap();
        (covid, graph)
    })
}

fn covid_session() -> Session<'static> {
    let (covid, graph) = fixture();
    Session::new(covid, Some(graph), &["Country"], MesaConfig::default())
}

fn covid_queries() -> Vec<AggregateQuery> {
    representative_queries_for(Dataset::Covid)
        .into_iter()
        .map(|wq| wq.query)
        .collect()
}

/// Exact observable content of a report: summary plus full-precision floats.
fn render(report: &MesaReport) -> String {
    format!("{}\n{:?}", report_summary(report), report.explanation)
}

#[test]
fn ten_ms_deadline_on_flights_returns_deadline_exceeded_without_hanging() {
    let _guard = serial();
    let world = World::generate(WorldConfig {
        n_countries: 60,
        n_cities: 25,
        n_airlines: 6,
        n_celebrities: 80,
        seed: 23,
    });
    let graph = build_kg(&world, KgConfig::default());
    let flights = Dataset::Flights.generate(&world, 20_000, 1234).unwrap();
    let session = Session::new(
        &flights,
        Some(&graph),
        Dataset::Flights.extraction_columns(),
        MesaConfig::default(),
    );
    let q = representative_queries_for(Dataset::Flights)[0]
        .query
        .clone();

    let t0 = Instant::now();
    let result = session.explain_with_deadline(&q, Duration::from_millis(10));
    let elapsed = t0.elapsed();
    assert_eq!(
        result.unwrap_err(),
        MesaError::DeadlineExceeded,
        "a 10 ms budget cannot cover a cold 20k-row explain"
    );
    assert!(
        elapsed < Duration::from_secs(30),
        "cancellation must be prompt, took {elapsed:?}"
    );

    // The failed attempt left nothing behind: the session still serves, and
    // its answer is byte-identical to a session that never saw a deadline.
    let report = session.explain(&q).unwrap();
    let fresh = Session::new(
        &flights,
        Some(&graph),
        Dataset::Flights.extraction_columns(),
        MesaConfig::default(),
    );
    assert_eq!(render(&report), render(&fresh.explain(&q).unwrap()));

    // A memoised result is served even under an already-expired budget.
    let warm = session
        .explain_with_deadline(&q, Duration::from_millis(0))
        .unwrap();
    assert!(Arc::ptr_eq(&report, &warm));
}

#[test]
fn concurrent_same_fingerprint_misses_run_the_cold_pipeline_once() {
    let _guard = serial();
    let session = covid_session();
    let q = &covid_queries()[0];
    let reports: Vec<Arc<MesaReport>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| s.spawn(|| session.explain(q).unwrap()))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for r in &reports[1..] {
        assert!(Arc::ptr_eq(&reports[0], r), "all callers share one report");
    }
    let stats = session.cache_stats();
    assert_eq!(stats.reports.misses, 1, "cold pipeline ran exactly once");
    assert_eq!(stats.prepared.misses, 1);
    assert_eq!(
        stats.reports.hits + stats.reports.coalesced,
        7,
        "the other seven callers were served without recomputing"
    );
}

#[test]
fn eviction_storm_keeps_results_byte_identical() {
    let _guard = serial();
    let (covid, graph) = fixture();
    let tight = SessionLimits {
        reports: CacheBudget::entries(1),
        extraction: CacheBudget::entries(1),
    };
    let bounded = Session::with_limits(
        covid,
        Some(graph),
        &["Country"],
        MesaConfig::default(),
        tight,
    );
    let reference = covid_session();
    let queries = covid_queries();
    // Four rounds over the workload: every explain on the bounded session
    // after the first query is a re-computation of an evicted entry.
    for round in 0..4 {
        for q in &queries {
            let evicted = bounded.explain(q).unwrap();
            let kept = reference.explain(q).unwrap();
            assert_eq!(
                render(&evicted),
                render(&kept),
                "round {round}: rewarmed result diverged for {q}"
            );
        }
    }
    let stats = bounded.cache_stats();
    assert!(stats.reports.evictions > 0, "the storm must actually evict");
    assert!(stats.reports.entries <= 1);
    assert_eq!(reference.cache_stats().reports.evictions, 0);
}

#[cfg(feature = "fault-injection")]
mod faults_suite {
    use super::scope::fault_scope;
    use super::*;
    use mesa_repro::mesa::faults::{self, FaultKind};
    use proptest::prelude::*;

    /// The clean answer for query `i`, from a session that never faulted.
    fn clean_render(i: usize) -> String {
        let session = covid_session();
        render(&session.explain(&covid_queries()[i]).unwrap())
    }

    #[test]
    fn a_panic_at_every_named_point_is_contained_and_the_session_recovers() {
        let _scope = fault_scope();
        let q = &covid_queries()[0];
        let clean = clean_render(0);
        for point in FAULT_POINTS {
            faults::reset();
            let session = covid_session();
            faults::arm(point, FaultKind::Panic, 1);
            let err = session.explain(q).unwrap_err();
            match &err {
                MesaError::Internal(msg) => assert!(
                    msg.contains(point),
                    "{point}: payload message lost, got {msg:?}"
                ),
                other => panic!("{point}: expected Internal, got {other:?}"),
            }
            assert!(
                faults::hits(point) >= 1,
                "{point}: the armed point was never reached"
            );
            // Nothing poisoned: the same session serves the query cold again
            // and matches a session that never faulted, byte for byte.
            let recovered = session.explain(q).unwrap();
            assert_eq!(render(&recovered), clean, "{point}: recovery diverged");
            let stats = session.cache_stats();
            assert_eq!(stats.reports.entries, 1, "{point}: failed fill was cached");
        }
    }

    #[test]
    fn oom_shaped_allocation_failures_are_contained() {
        let _scope = fault_scope();
        let q = &covid_queries()[0];
        let session = covid_session();
        faults::arm("mesa.session.fill_prepared", FaultKind::AllocFail, 1);
        let err = session.explain(q).unwrap_err();
        match &err {
            MesaError::Internal(msg) => {
                assert!(msg.contains("allocation of"), "got {msg:?}");
            }
            other => panic!("expected Internal, got {other:?}"),
        }
        assert_eq!(render(&session.explain(q).unwrap()), clean_render(0));
    }

    #[test]
    fn latency_faults_change_timing_but_never_results() {
        let _scope = fault_scope();
        let q = &covid_queries()[0];
        let session = covid_session();
        faults::arm(
            "mesa.join",
            FaultKind::Latency(Duration::from_millis(20)),
            1,
        );
        let t0 = Instant::now();
        let slow = session.explain(q).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(20));
        assert_eq!(render(&slow), clean_render(0));
    }

    #[test]
    fn a_faulted_fill_never_breaks_the_pool_for_later_batches() {
        let _scope = fault_scope();
        let queries = covid_queries();
        let session = covid_session();
        faults::arm("infotheory.kernel.accumulate", FaultKind::Panic, 1);
        let first = session.explain_many(&queries);
        // At least the faulted query failed; the batch itself completed.
        assert_eq!(first.len(), queries.len());
        assert!(first.iter().any(|r| r.is_err()));
        faults::reset();
        // The same session immediately serves the whole batch, matching a
        // fault-free session.
        let reference = covid_session();
        let again = session.explain_many(&queries);
        for (i, (r, q)) in again.iter().zip(&queries).enumerate() {
            let clean = reference.explain(q).unwrap();
            assert_eq!(
                render(r.as_ref().unwrap()),
                render(&clean),
                "query {i} diverged after the faulted batch"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Cache consistency under faults: whatever single fault fires (any
        /// point, any of the first few hits, panic or OOM-shaped), every
        /// subsequent explain is byte-identical to a fresh cold session.
        #[test]
        fn explains_after_any_single_fault_match_a_cold_session(
            point_idx in 0usize..FAULT_POINTS.len(),
            nth in 1u64..4,
            oom in 0u8..2,
            query_idx in 0usize..2,
        ) {
            let _scope = fault_scope();
            let point = FAULT_POINTS[point_idx];
            let queries = covid_queries();
            let q = &queries[query_idx];
            let session = covid_session();
            let kind = if oom == 1 { FaultKind::AllocFail } else { FaultKind::Panic };
            faults::arm(point, kind, nth);
            // The faulted attempt may fail (the nth hit was reached) or
            // succeed (it wasn't); both are legal. What is not legal is any
            // divergence afterwards.
            let _ = session.explain(q);
            faults::reset();
            let warm = session.explain(q).unwrap();
            let cold = covid_session();
            prop_assert_eq!(render(&warm), render(&cold.explain(q).unwrap()));
            // And the *other* query, computed entirely post-fault, matches too.
            let other = &queries[1 - query_idx];
            prop_assert_eq!(
                render(&session.explain(other).unwrap()),
                render(&cold.explain(other).unwrap())
            );
        }
    }
}
