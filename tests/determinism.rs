//! Regression tests for the sparse-kernel determinism fix: sparse joint
//! tables fold their cells with a fixed-state hasher, so every entropy/CMI is
//! bit-stable across independent builds, and exact CMI ties in the
//! Brute-Force / MCIMR searches break by candidate name instead of by
//! whatever 1e-15 noise the old per-process-seeded hash map injected.

use std::collections::HashMap;

use mesa_repro::infotheory::{conditional_mutual_information, EncodedFrame, JointTable};
use mesa_repro::mesa::baselines::brute_force;
use mesa_repro::mesa::{mcimr, prepare_query, McimrConfig, PrepareConfig, PreparedQuery};
use mesa_repro::tabular::{AggregateQuery, Column, DataFrameBuilder};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A high-cardinality column over rows inserted in shuffled order, so the
/// sparse map sees keys in a scrambled sequence (the regime where the old
/// random-state hasher scrambled the summation order run to run).
fn shuffled_column(name: &str, cardinality: u32, rows: usize, seed: u64) -> Column {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut values: Vec<Option<String>> = (0..rows)
        .map(|i| {
            if i % 17 == 0 {
                None
            } else {
                Some(format!("{name}-{}", rng.gen_range(0..cardinality)))
            }
        })
        .collect();
    values.shuffle(&mut rng);
    Column::from_str_values(name, values.iter().map(|v| v.as_deref()).collect())
}

#[test]
fn sparse_entropy_is_bit_stable_across_independent_builds() {
    let x = shuffled_column("x", 60, 500, 7).encode();
    let y = shuffled_column("y", 60, 500, 8).encode();
    // Threshold 0 forces the sparse hash path.
    let columns = [&x, &y];
    let reference = JointTable::build_with_threshold(&columns, None, 0).unwrap();
    assert!(!reference.is_dense());
    for _ in 0..5 {
        let rebuilt = JointTable::build_with_threshold(&columns, None, 0).unwrap();
        assert_eq!(
            reference.entropy().to_bits(),
            rebuilt.entropy().to_bits(),
            "sparse entropy must be bit-identical across builds"
        );
        for dims in [vec![0], vec![1]] {
            assert_eq!(
                reference.marginal(&dims).entropy().to_bits(),
                rebuilt.marginal(&dims).entropy().to_bits()
            );
        }
        // The cell iteration order itself is deterministic (fixed hasher).
        let a: Vec<(Vec<u32>, f64)> = reference.iter().collect();
        let b: Vec<(Vec<u32>, f64)> = rebuilt.iter().collect();
        assert_eq!(a, b);
    }
}

#[test]
fn sparse_cmi_is_bit_stable_across_independent_builds() {
    // Cardinalities chosen so the cross product (80 × 80) exceeds the
    // adaptive dense threshold for 400 rows (8·400 + 1024), exercising the
    // sparse path through the public measures.
    let x = shuffled_column("x", 80, 400, 21).encode();
    let y = shuffled_column("y", 80, 400, 22).encode();
    let z = shuffled_column("z", 4, 400, 23).encode();
    let cmi = || conditional_mutual_information(&x, &y, &[&z], None).unwrap();
    let first = cmi();
    for _ in 0..5 {
        let again = cmi();
        assert_eq!(first.to_bits(), again.to_bits());
    }
}

/// A prepared query whose candidate columns `Zed` and `Alpha` are exact
/// duplicates: every subset score involving one ties bitwise with the other,
/// so the searches must fall back to the name tie-break.
fn tied_prepared() -> PreparedQuery {
    let n = 240;
    let mut country = Vec::new();
    let mut dup_a = Vec::new();
    let mut dup_b = Vec::new();
    let mut salary = Vec::new();
    for i in 0..n {
        let cid = i % 4;
        country.push(Some(["A", "B", "C", "D"][cid]));
        let level = if cid < 2 { "hi" } else { "lo" };
        dup_a.push(Some(level));
        dup_b.push(Some(level));
        salary.push(Some(if cid < 2 { 80.0 } else { 30.0 } + (i % 5) as f64));
    }
    let df = DataFrameBuilder::new()
        .cat("Country", country)
        // Deliberately ordered so the *later* name sorts lexicographically
        // first: a positional tie-break would pick Zed, the name tie-break
        // picks Alpha.
        .cat("Zed", dup_b)
        .cat("Alpha", dup_a)
        .float("Salary", salary)
        .build()
        .unwrap();
    prepare_query(
        &df,
        &AggregateQuery::avg("Country", "Salary"),
        None,
        &[],
        PrepareConfig::default(),
    )
    .unwrap()
}

#[test]
fn brute_force_breaks_exact_ties_by_name_and_is_stable() {
    let p = tied_prepared();
    let cands: Vec<String> = vec!["Zed".to_string(), "Alpha".to_string()];
    let first = brute_force(&p, &cands, 2).unwrap();
    let second = brute_force(&p, &cands, 2).unwrap();
    assert_eq!(first.attributes, second.attributes);
    assert_eq!(
        first.attributes,
        vec!["Alpha".to_string()],
        "exact ties must resolve to the lexicographically smaller subset"
    );
}

#[test]
fn mcimr_breaks_exact_ties_by_name_and_is_stable() {
    let p = tied_prepared();
    let cands: Vec<String> = vec!["Zed".to_string(), "Alpha".to_string()];
    let (first, _) = mcimr(&p, &cands, &HashMap::new(), McimrConfig::default()).unwrap();
    let (second, _) = mcimr(&p, &cands, &HashMap::new(), McimrConfig::default()).unwrap();
    assert_eq!(first.attributes, second.attributes);
    assert_eq!(
        first.attributes.first().map(String::as_str),
        Some("Alpha"),
        "the greedy round must prefer the lexicographically smaller name on an exact tie"
    );
}

#[test]
fn sparse_and_dense_paths_agree_on_the_shuffled_table() {
    // Sanity companion to the bit-stability tests: forcing sparse storage
    // does not change the estimate relative to the dense layout beyond
    // floating-point reassociation.
    let x = shuffled_column("x", 12, 600, 31).encode();
    let y = shuffled_column("y", 9, 600, 32).encode();
    let columns = [&x, &y];
    let dense = JointTable::build_with_threshold(&columns, None, 1 << 20).unwrap();
    let sparse = JointTable::build_with_threshold(&columns, None, 0).unwrap();
    assert!(dense.is_dense() && !sparse.is_dense());
    assert!((dense.entropy() - sparse.entropy()).abs() < 1e-12);
}

/// A representative explain + `explain_many` workload rendered to exact
/// bytes (summary + full-precision `Debug` floats), run entirely under one
/// thread cap.
fn render_workload_at(cap: usize) -> String {
    use mesa_repro::datagen::{
        build_kg, generate_covid, representative_queries_for, Dataset, KgConfig, World, WorldConfig,
    };
    use mesa_repro::mesa::{parallel, report_summary, Mesa};

    parallel::with_thread_cap(cap, || {
        let world = World::generate(WorldConfig {
            n_countries: 60,
            n_cities: 25,
            n_airlines: 6,
            n_celebrities: 80,
            seed: 23,
        });
        let graph = build_kg(&world, KgConfig::default());
        let covid = generate_covid(&world, 3).unwrap();
        let queries: Vec<AggregateQuery> = representative_queries_for(Dataset::Covid)
            .into_iter()
            .map(|wq| wq.query)
            .collect();
        let mesa = Mesa::new();
        let mut out = String::new();
        // Cold one-shot explains: candidate scoring and extraction fan out
        // inside each call.
        let session = mesa.session(&covid, Some(&graph), &["Country"]);
        for q in &queries {
            let report = session.explain(q).unwrap();
            out.push_str(&report_summary(&report));
            out.push_str(&format!("\n{:?}\n", report.explanation));
        }
        // Batched misses on a fresh session: the batch-level fan-out nests
        // the per-query pipelines' fan-outs on the same pool.
        let batched = mesa.session(&covid, Some(&graph), &["Country"]);
        for result in batched.explain_many(&queries) {
            let report = result.unwrap();
            out.push_str(&report_summary(&report));
            out.push_str(&format!("\n{:?}\n", report.explanation));
        }
        out
    })
}

#[test]
fn reports_are_byte_identical_across_thread_counts() {
    // Force a 4-thread pool even on a single-core host so caps 2 and 4
    // genuinely schedule across workers (`MESA_THREADS`, when set, takes
    // precedence; CI additionally runs the whole suite at MESA_THREADS=4).
    let pool = mesa_repro::mesa::parallel::set_threads(4);
    let reference = render_workload_at(1);
    assert!(!reference.is_empty());
    for cap in [2usize, 4] {
        if cap > pool {
            continue; // MESA_THREADS forced a smaller pool for the process
        }
        assert_eq!(
            render_workload_at(cap),
            reference,
            "workload output must be byte-identical at {cap} threads vs serial"
        );
    }
}

/// The covid workload through a session whose every cache tier holds a
/// single entry, so each query after the first evicts and re-warms — the
/// regime where a non-deterministic rebuild would show up as byte drift.
fn render_evict_rewarm_at(cap: usize) -> String {
    use mesa_repro::datagen::{
        build_kg, generate_covid, representative_queries_for, Dataset, KgConfig, World, WorldConfig,
    };
    use mesa_repro::mesa::{
        parallel, report_summary, CacheBudget, MesaConfig, Session, SessionLimits,
    };

    parallel::with_thread_cap(cap, || {
        let world = World::generate(WorldConfig {
            n_countries: 60,
            n_cities: 25,
            n_airlines: 6,
            n_celebrities: 80,
            seed: 23,
        });
        let graph = build_kg(&world, KgConfig::default());
        let covid = generate_covid(&world, 3).unwrap();
        let limits = SessionLimits {
            reports: CacheBudget::entries(1),
            extraction: CacheBudget::entries(1),
        };
        let session = Session::with_limits(
            &covid,
            Some(&graph),
            &["Country"],
            MesaConfig::default(),
            limits,
        );
        let queries: Vec<AggregateQuery> = representative_queries_for(Dataset::Covid)
            .into_iter()
            .map(|wq| wq.query)
            .collect();
        let mut out = String::new();
        for round in 0..3 {
            for q in &queries {
                let report = session.explain(q).unwrap();
                out.push_str(&report_summary(&report));
                out.push_str(&format!("\n{round} {:?}\n", report.explanation));
            }
        }
        assert!(
            session.cache_stats().reports.evictions > 0,
            "the 1-entry budget must actually evict"
        );
        out
    })
}

#[test]
fn evict_then_rewarm_is_byte_identical_across_thread_counts() {
    let pool = mesa_repro::mesa::parallel::set_threads(4);
    let reference = render_evict_rewarm_at(1);
    assert!(!reference.is_empty());
    for cap in [2usize, 4] {
        if cap > pool {
            continue; // MESA_THREADS forced a smaller pool for the process
        }
        assert_eq!(
            render_evict_rewarm_at(cap),
            reference,
            "evict/rewarm workload must be byte-identical at {cap} threads vs serial"
        );
    }
}

#[test]
fn encoded_frame_cmi_is_reproducible_via_prepare() {
    // End-to-end: the prepared query's scores are bit-stable across two
    // independent prepare + score passes over the same frame.
    let p1 = tied_prepared();
    let p2 = tied_prepared();
    assert_eq!(p1.baseline_cmi().to_bits(), p2.baseline_cmi().to_bits());
    let e1 = p1.explanation_cmi(&["Alpha".to_string()], None).unwrap();
    let e2 = p2.explanation_cmi(&["Alpha".to_string()], None).unwrap();
    assert_eq!(e1.to_bits(), e2.to_bits());
    let _ = EncodedFrame::from_frame(&p1.frame); // exercised for coverage
}
