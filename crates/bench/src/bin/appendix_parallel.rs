//! Appendix experiment: the work-sharing runtime — a thread-scaling sweep
//! over the reproduction's parallel hot paths, plus a synthetic
//! microbenchmark of the pool itself.
//!
//! Emits `BENCH_parallel.json`; the committed copy is the canonical
//! baseline for the persistent-pool runtime. Each entry records the
//! effective thread count it ran at (`threads` field), so the sweep is
//! self-describing; the pool only speeds work up as far as the host has
//! cores, so read the committed record against the host it names in
//! README. The sweep caps fan-out concurrency at 1/2/4/8 via
//! `with_thread_cap` inside one process; the pool itself is sized by
//! `MESA_THREADS` (default here: 8 via `set_threads`).
//!
//! Three end-to-end workloads run per thread count:
//!
//! * `extraction/…` — the `table1_workload`: KG attribute extraction over
//!   every dataset's extraction columns (per-distinct-entity fan-out).
//! * `mcimr/…` — the explanation search on a prepared Flights query
//!   (per-candidate CMI scoring fan-out inside the greedy rounds).
//! * `explain_many/…` — the 14-query representative workload batched
//!   through fresh sessions (batch-level fan-out with the pipelines' own
//!   fan-outs nested beneath it — the composition case).
//!
//! The `micro/uniform/pool/t*` and `micro/skewed/pool/t*` entries time
//! [`parallel::parallel_map`] over synthetic uniform items and over items
//! where one is 100× the rest, isolating the runtime's scheduling from the
//! pipelines' own work.

use bench::report::BenchReport;
use bench::{prepare_workload, DatasetSessions, ExperimentData, Scale};
use datagen::{representative_queries, Dataset};
use mesa::Mesa;
use parallel::{effective_threads, parallel_map, set_threads, with_thread_cap};

/// One synthetic work item: a short deterministic spin whose cost scales
/// with `weight` (black-boxed so the whole loop cannot fold away).
fn spin(weight: u64) -> u64 {
    let mut acc = 0u64;
    for i in 0..weight * 2_000 {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
    }
    std::hint::black_box(acc)
}

fn main() {
    // Pool size: MESA_THREADS wins; otherwise ask for 8 so the sweep's caps
    // all bind even on hosts reporting fewer cores.
    let pool_threads = set_threads(8);
    let data = ExperimentData::generate(Scale::Quick);
    let queries = representative_queries();
    let mut report = BenchReport::new("parallel");
    println!("== Appendix: work-sharing runtime (thread-scaling sweep) ==");
    println!("pool size: {pool_threads} threads\n");

    let caps: Vec<usize> = [1usize, 2, 4, 8]
        .into_iter()
        .filter(|&c| c <= pool_threads)
        .collect();

    // -- Microbenchmark: the pool on synthetic items ----------------------
    let uniform: Vec<u64> = vec![1; 512];
    let mut skewed: Vec<u64> = vec![1; 512];
    skewed[0] = 100; // one item is 100× the rest — the static-chunk killer
    for &cap in &caps {
        with_thread_cap(cap, || {
            let t = effective_threads();
            report.time(
                &format!("micro/uniform/pool/t{t}"),
                uniform.len(),
                5,
                || {
                    std::hint::black_box(parallel_map(&uniform, |_, &w| spin(w)));
                },
            );
            report.time(&format!("micro/skewed/pool/t{t}"), skewed.len(), 5, || {
                std::hint::black_box(parallel_map(&skewed, |_, &w| spin(w)));
            });
        });
    }

    // -- Extraction workload (table1: all datasets, 1 hop) ---------------
    for &cap in &caps {
        with_thread_cap(cap, || {
            let t = effective_threads();
            report.time(&format!("extraction/t{t}"), 0, 5, || {
                for (dataset, frame) in &data.frames {
                    for col in dataset.extraction_columns() {
                        let values = frame.column(col).expect("column exists").encode();
                        let res = kg::extract_attributes(
                            &data.graph,
                            values.labels(),
                            "key",
                            kg::ExtractionConfig::default(),
                        )
                        .expect("extraction");
                        std::hint::black_box(res.stats.n_attributes);
                    }
                }
            });
        });
    }

    // -- MCIMR candidate scoring (explain a prepared Flights query) ------
    let flights_query = queries
        .iter()
        .find(|wq| wq.dataset == Dataset::Flights)
        .expect("workload has a Flights query");
    let prepared = prepare_workload(&data, flights_query).expect("prepare");
    let mesa = Mesa::new();
    for &cap in &caps {
        with_thread_cap(cap, || {
            let t = effective_threads();
            report.time(&format!("mcimr/t{t}"), prepared.frame.n_rows(), 5, || {
                std::hint::black_box(mesa.explain_prepared(&prepared).expect("explain"));
            });
        });
    }

    // -- Batched explain_many over the 14-query workload -----------------
    // Fresh sessions per repetition and one batch per dataset: every query
    // is a miss, so the batch-level fan-out runs with the per-query
    // pipelines' own fan-outs nested beneath it.
    let mut groups: Vec<(Dataset, Vec<tabular::AggregateQuery>)> = Vec::new();
    for wq in &queries {
        match groups.iter_mut().find(|(d, _)| *d == wq.dataset) {
            Some((_, qs)) => qs.push(wq.query.clone()),
            None => groups.push((wq.dataset, vec![wq.query.clone()])),
        }
    }
    for &cap in &caps {
        with_thread_cap(cap, || {
            let t = effective_threads();
            report.time(&format!("explain_many/t{t}"), queries.len(), 3, || {
                let sessions = DatasetSessions::new(&data);
                for (dataset, batch) in &groups {
                    let results = sessions.session(*dataset).explain_many(batch);
                    std::hint::black_box(results.len());
                }
            });
        });
    }

    println!("{:<32} {:>8} {:>12}", "entry", "threads", "median ms");
    for e in report.entries() {
        println!("{:<32} {:>8} {:>12.3}", e.label, e.threads, e.median_ms);
    }
    report.write_or_warn();
}
