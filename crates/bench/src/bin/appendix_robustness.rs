//! Appendix experiment: the cost of serving-grade hardening.
//!
//! Emits `BENCH_robustness.json`; the committed copy is the canonical
//! record that the robustness machinery is (nearly) free:
//!
//! * `deadline/workload_without` vs `deadline/workload_with` — the 14-query
//!   representative workload on fresh sessions, without any deadline and
//!   under a generous (never-expiring) one. The difference is the whole
//!   cost of cooperative cancellation: deadline inheritance at pool claim
//!   boundaries plus the checkpoint polls in the kernel fold loops and the
//!   extraction BFS. `deadline/overhead_pct` records the relative overhead;
//!   the acceptance bar is ≤ 2%.
//! * `eviction/*` — warm re-explains through an unbounded session vs one
//!   whose tiers hold a single entry (every query evicts and re-warms), plus
//!   the observed eviction counts. This is the worst-case price of running
//!   with tight [`mesa::SessionLimits`]; the default budgets never evict on
//!   this workload.
//! * `dedup/*` — eight threads cold-missing the same fingerprint at once:
//!   the report memo's in-flight slot coalesces them onto one fill, so the
//!   cold pipeline runs exactly once (asserted, then recorded).

use std::sync::Arc;
use std::time::Duration;

use bench::report::BenchReport;
use bench::{DatasetSessions, ExperimentData, Scale};
use datagen::{representative_queries, Dataset};
use mesa::{CacheBudget, MesaConfig, MesaReport, Session, SessionLimits};

fn main() {
    let data = ExperimentData::generate(Scale::Quick);
    let queries = representative_queries();
    let total_rows: usize = data.frames.iter().map(|(_, f)| f.n_rows()).sum();
    let mut report = BenchReport::new("robustness");
    println!("== Appendix: serving-grade hardening (deadlines, eviction, dedup) ==\n");

    // -- Deadline overhead ------------------------------------------------
    // Fresh sessions per repetition so every query pays the full pipeline —
    // the regime where checkpoint polls could plausibly cost something. The
    // two variants are interleaved (after a discarded warm-up pass) so
    // allocator/cache warm-up drift hits both equally.
    let generous = Duration::from_secs(3600);
    let run_without = || {
        let fresh = DatasetSessions::new(&data);
        for wq in &queries {
            let _ = std::hint::black_box(fresh.explain(wq));
        }
    };
    let run_with = || {
        let fresh = DatasetSessions::new(&data);
        for wq in &queries {
            let _ = std::hint::black_box(
                fresh
                    .session(wq.dataset)
                    .explain_with_deadline(&wq.query, generous),
            );
        }
    };
    run_without(); // warm-up, discarded
    run_with();
    let mut without_samples = Vec::new();
    let mut with_samples = Vec::new();
    for _ in 0..7 {
        let t0 = std::time::Instant::now();
        run_without();
        without_samples.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = std::time::Instant::now();
        run_with();
        with_samples.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let without_ms = report.record("deadline/workload_without", total_rows, &without_samples);
    let with_ms = report.record("deadline/workload_with", total_rows, &with_samples);
    let overhead_pct = (with_ms - without_ms) / without_ms.max(1e-9) * 100.0;
    report.record("deadline/overhead_pct", total_rows, &[overhead_pct]);
    println!("14-query workload, fresh sessions (median over 7 reps):");
    println!("  without deadline           {without_ms:>10.3} ms");
    println!("  with 1 h deadline          {with_ms:>10.3} ms");
    println!("  cancellation overhead      {overhead_pct:>10.2} %\n");

    // -- Eviction: tight budgets vs unbounded -----------------------------
    let covid = data.frame(Dataset::Covid);
    let covid_queries: Vec<_> = queries
        .iter()
        .filter(|wq| wq.dataset == Dataset::Covid)
        .map(|wq| wq.query.clone())
        .collect();
    let config = MesaConfig::default();
    let unbounded = Session::with_limits(
        covid,
        Some(&data.graph),
        Dataset::Covid.extraction_columns(),
        config,
        SessionLimits::unbounded(),
    );
    let tight = SessionLimits {
        reports: CacheBudget::entries(1),
        extraction: CacheBudget::entries(1),
    };
    let bounded = Session::with_limits(
        covid,
        Some(&data.graph),
        Dataset::Covid.extraction_columns(),
        config,
        tight,
    );
    for q in &covid_queries {
        let a = unbounded.explain(q).expect("covid query explains");
        let b = bounded.explain(q).expect("covid query explains");
        assert_eq!(
            a.explanation, b.explanation,
            "budgets must not change results"
        );
    }
    let covid_rows = covid.n_rows();
    let warm_unbounded_ms = report.time("eviction/warm_unbounded", covid_rows, 30, || {
        for q in &covid_queries {
            let _ = std::hint::black_box(unbounded.explain(q));
        }
    });
    let warm_bounded_ms = report.time("eviction/warm_bounded_1_entry", covid_rows, 5, || {
        for q in &covid_queries {
            let _ = std::hint::black_box(bounded.explain(q));
        }
    });
    let bounded_stats = bounded.cache_stats();
    let unbounded_stats = unbounded.cache_stats();
    assert!(
        bounded_stats.reports.evictions > 0,
        "tight budget must evict"
    );
    assert_eq!(unbounded_stats.reports.evictions, 0);
    report.record(
        "eviction/bounded_evictions",
        covid_rows,
        &[bounded_stats.reports.evictions as f64],
    );
    report.record(
        "eviction/unbounded_warm_hits",
        covid_rows,
        &[unbounded_stats.reports.hits as f64],
    );
    println!(
        "covid workload ({} queries) warm pass:",
        covid_queries.len()
    );
    println!("  unbounded session          {warm_unbounded_ms:>10.3} ms   (pure memo hits)");
    println!(
        "  1-entry budgets            {warm_bounded_ms:>10.3} ms   ({} evictions so far)",
        bounded_stats.reports.evictions
    );
    println!(
        "  unbounded resident         {:>10} B reports\n",
        unbounded_stats.reports.resident_bytes
    );

    // -- In-flight dedup of concurrent identical misses -------------------
    let dedup = Session::new(
        covid,
        Some(&data.graph),
        Dataset::Covid.extraction_columns(),
        config,
    );
    let q = &covid_queries[0];
    let reports: Vec<Arc<MesaReport>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| s.spawn(|| dedup.explain(q).expect("explain succeeds")))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for r in &reports[1..] {
        assert!(Arc::ptr_eq(&reports[0], r), "all callers share one report");
    }
    let dedup_stats = dedup.cache_stats();
    assert_eq!(
        dedup_stats.reports.misses, 1,
        "8 concurrent identical misses must run the cold pipeline exactly once"
    );
    report.record(
        "dedup/cold_pipeline_runs",
        covid_rows,
        &[dedup_stats.reports.misses as f64],
    );
    report.record(
        "dedup/coalesced_waiters",
        covid_rows,
        &[dedup_stats.reports.coalesced as f64],
    );
    println!("8 concurrent cold misses of one fingerprint:");
    println!(
        "  cold pipeline runs         {:>10}   ({} coalesced, {} served warm)",
        dedup_stats.reports.misses, dedup_stats.reports.coalesced, dedup_stats.reports.hits
    );

    report.write_or_warn();
}
