//! Appendix experiment: the session layer — cross-query caching and batched
//! explanation — on the 14-query representative workload.
//!
//! Emits `BENCH_session.json`; the committed copy is the canonical record of
//! the serving-path speedups. Four regimes are timed over the same queries:
//!
//! * `workload/cold_explain` — the one-shot path: every query pays context,
//!   KG extraction, join, binning, encoding, and the explanation search.
//! * `workload/session_first` — a fresh [`DatasetSessions`] per repetition:
//!   first contact with each query, but same-dataset queries share the
//!   extraction cache within the pass.
//! * `workload/warm_explain` — the same sessions asked again: every report
//!   is served from the fingerprint memo.
//! * `workload/batched_cold` / `workload/batched_warm` — the same two
//!   regimes through `Session::explain_many`, batching each dataset's
//!   queries in one call.
//!
//! Before timing, the binary verifies that the warm and batched reports are
//! byte-identical to the cold ones (the committed equivalence test lives in
//! `tests/session.rs`; this is the same check at the workload's scale).

use bench::report::BenchReport;
use bench::{DatasetSessions, ExperimentData, Scale};
use datagen::{representative_queries, Dataset, WorkloadQuery};
use mesa::{report_summary, Mesa, MesaReport};

/// Full-precision observable content of a report (summary + exact floats).
fn render(report: &MesaReport) -> String {
    format!("{}\n{:?}", report_summary(report), report.explanation)
}

/// The workload grouped per dataset, in workload order.
fn grouped(queries: &[WorkloadQuery]) -> Vec<(Dataset, Vec<tabular::AggregateQuery>)> {
    let mut groups: Vec<(Dataset, Vec<tabular::AggregateQuery>)> = Vec::new();
    for wq in queries {
        match groups.iter_mut().find(|(d, _)| *d == wq.dataset) {
            Some((_, qs)) => qs.push(wq.query.clone()),
            None => groups.push((wq.dataset, vec![wq.query.clone()])),
        }
    }
    groups
}

fn main() {
    // Always measured at quick scale so the committed record stays comparable
    // across machines and commits.
    let data = ExperimentData::generate(Scale::Quick);
    let queries = representative_queries();
    let groups = grouped(&queries);
    let total_rows: usize = data.frames.iter().map(|(_, f)| f.n_rows()).sum();
    let mut report = BenchReport::new("session");
    println!("== Appendix: explanation sessions (cold / warm / batched) ==\n");

    // Correctness first: cold one-shot reports vs the session's warm and
    // batched paths, byte for byte.
    let mesa = Mesa::new();
    let cold_reports: Vec<Option<String>> = queries
        .iter()
        .map(|wq| {
            mesa.explain(
                data.frame(wq.dataset),
                &wq.query,
                Some(&data.graph),
                wq.dataset.extraction_columns(),
            )
            .ok()
            .map(|r| render(&r))
        })
        .collect();
    let sessions = DatasetSessions::new(&data);
    let mut verified = 0;
    for (wq, cold) in queries.iter().zip(&cold_reports) {
        let warm = sessions.explain(wq).ok().map(|r| render(&r));
        assert_eq!(&warm, cold, "{}: warm differs from cold", wq.id);
        let batched = sessions
            .session(wq.dataset)
            .explain_many(std::slice::from_ref(&wq.query));
        let batched = batched[0].as_ref().ok().map(|r| render(r));
        assert_eq!(&batched, cold, "{}: batched differs from cold", wq.id);
        if cold.is_some() {
            verified += 1;
        }
    }
    println!("warm + batched reports byte-identical to cold on {verified}/14 queries\n");

    // Cold: the one-shot path, per query.
    let cold_ms = report.time("workload/cold_explain", total_rows, 3, || {
        for wq in &queries {
            let _ = std::hint::black_box(mesa.explain(
                data.frame(wq.dataset),
                &wq.query,
                Some(&data.graph),
                wq.dataset.extraction_columns(),
            ));
        }
    });

    // First pass over fresh sessions: extraction shared within the pass.
    let first_ms = report.time("workload/session_first", total_rows, 3, || {
        let fresh = DatasetSessions::new(&data);
        for wq in &queries {
            let _ = std::hint::black_box(fresh.explain(wq));
        }
    });

    // Warm: the primed sessions from the verification pass above.
    let warm_ms = report.time("workload/warm_explain", total_rows, 200, || {
        for wq in &queries {
            let _ = std::hint::black_box(sessions.explain(wq));
        }
    });

    // Batched: explain_many per dataset, cold sessions then warm ones.
    let batched_cold_ms = report.time("workload/batched_cold", total_rows, 3, || {
        let fresh = DatasetSessions::new(&data);
        for (dataset, qs) in &groups {
            let _ = std::hint::black_box(fresh.session(*dataset).explain_many(qs));
        }
    });
    let batched_warm_ms = report.time("workload/batched_warm", total_rows, 200, || {
        for (dataset, qs) in &groups {
            let _ = std::hint::black_box(sessions.session(*dataset).explain_many(qs));
        }
    });

    println!("14-query workload (median over reps):");
    println!("  cold one-shot explain      {cold_ms:>10.3} ms");
    println!(
        "  session first pass         {first_ms:>10.3} ms   ({:.2}x vs cold)",
        cold_ms / first_ms.max(1e-9)
    );
    println!(
        "  warm (memoized) explain    {warm_ms:>10.3} ms   ({:.0}x vs cold)",
        cold_ms / warm_ms.max(1e-9)
    );
    println!(
        "  batched cold explain_many  {batched_cold_ms:>10.3} ms   ({:.2}x vs cold)",
        cold_ms / batched_cold_ms.max(1e-9)
    );
    println!(
        "  batched warm explain_many  {batched_warm_ms:>10.3} ms   (sequential warm {warm_ms:.3} ms)"
    );

    // Cache accounting for the primed session set.
    println!("\nsession cache stats after the workload:");
    for (dataset, _) in &groups {
        let stats = sessions.session(*dataset).cache_stats();
        let extraction = stats.extraction.unwrap_or_default();
        println!(
            "  {:<14} extraction {} entries ({} hits / {} misses), {} preparations, reports {} memoized",
            dataset.name(),
            extraction.entries,
            extraction.hits,
            extraction.misses,
            stats.prepared.misses,
            stats.reports.misses,
        );
    }

    report.write_or_warn();
}
