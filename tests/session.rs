//! Session cache semantics over the generated datasets: the warm (cached)
//! and batched paths must be byte-identical to the cold one-shot path, and
//! cache keys must never alias across hops / one-to-many policies / queries.

use std::sync::Arc;

use mesa_repro::datagen::{
    build_kg, generate_covid, generate_so, representative_queries_for, Dataset, KgConfig, World,
    WorldConfig,
};
use mesa_repro::kg::{KnowledgeGraph, OneToManyAgg};
use mesa_repro::mesa::{report_summary, Mesa, MesaConfig, MesaReport, PrepareConfig};
use mesa_repro::tabular::{AggregateQuery, DataFrame, Predicate};

fn fixture() -> (DataFrame, DataFrame, KnowledgeGraph) {
    let world = World::generate(WorldConfig {
        n_countries: 60,
        n_cities: 25,
        n_airlines: 6,
        n_celebrities: 80,
        seed: 23,
    });
    let graph = build_kg(&world, KgConfig::default());
    let covid = generate_covid(&world, 3).unwrap();
    let so = generate_so(&world, 2_500, 3).unwrap();
    (covid, so, graph)
}

/// Exact rendering of everything a caller can observe about a report: the
/// human summary plus the full-precision explanation (Debug renders every
/// f64 bit-exactly).
fn render(report: &MesaReport) -> String {
    format!("{}\n{:?}", report_summary(report), report.explanation)
}

#[test]
fn warm_explain_is_byte_identical_to_cold() {
    let (covid, so, graph) = fixture();
    let mesa = Mesa::new();
    let covid_queries: Vec<AggregateQuery> = representative_queries_for(Dataset::Covid)
        .into_iter()
        .map(|wq| wq.query)
        .collect();
    let so_queries = vec![
        AggregateQuery::avg("Country", "Salary"),
        AggregateQuery::avg("Continent", "Salary"),
        AggregateQuery::avg("Country", "Salary").with_context(Predicate::eq("Continent", "Europe")),
    ];
    for (df, cols, queries) in [
        (&covid, &["Country"][..], &covid_queries),
        (&so, &["Country", "Continent"][..], &so_queries),
    ] {
        let session = mesa.session(df, Some(&graph), cols);
        for q in queries {
            // cold: a fresh one-shot pipeline per call
            let cold = mesa.explain(df, q, Some(&graph), cols).unwrap();
            // session-cold: first time this session sees the query (the
            // extraction cache may already be warm from earlier queries)
            let first = session.explain(q).unwrap();
            // warm: served from the report memo
            let warm = session.explain(q).unwrap();
            assert_eq!(render(&cold), render(&first), "session-cold differs: {q}");
            assert_eq!(render(&first), render(&warm), "warm differs: {q}");
            assert_eq!(cold.explanation, first.explanation, "{q}");
        }
        // the SO workload shares extraction across its trivial-context
        // queries, so at least one lookup must have been served from cache
        let stats = session.cache_stats();
        assert_eq!(stats.reports.misses, queries.len());
        assert_eq!(stats.reports.hits, queries.len());
    }
}

#[test]
fn explain_many_is_byte_identical_to_sequential_explain() {
    let (covid, _, graph) = fixture();
    let queries: Vec<AggregateQuery> = representative_queries_for(Dataset::Covid)
        .into_iter()
        .map(|wq| wq.query)
        .collect();
    let mesa = Mesa::new();

    // sequential on one session
    let sequential = mesa.session(&covid, Some(&graph), &["Country"]);
    let seq: Vec<Arc<MesaReport>> = queries
        .iter()
        .map(|q| sequential.explain(q).unwrap())
        .collect();

    // batched on a fresh (cold) session
    let batched_session = mesa.session(&covid, Some(&graph), &["Country"]);
    let batched = batched_session.explain_many(&queries);
    for (s, b) in seq.iter().zip(&batched) {
        let b = b.as_ref().unwrap();
        assert_eq!(render(s), render(b));
    }

    // batched again on the now-warm session: every report comes from the memo
    let warm = batched_session.explain_many(&queries);
    for (b, w) in batched.iter().zip(&warm) {
        assert!(Arc::ptr_eq(b.as_ref().unwrap(), w.as_ref().unwrap()));
    }
    assert_eq!(batched_session.cache_stats().reports.misses, queries.len());
}

#[test]
fn cache_keys_do_not_alias_across_hops_policy_or_query() {
    let (covid, _, graph) = fixture();
    let q = AggregateQuery::avg("Country", "Deaths_per_100_cases");

    let config_for = |hops: usize, agg: OneToManyAgg| MesaConfig {
        prepare: PrepareConfig {
            extraction: mesa_repro::kg::ExtractionConfig {
                hops,
                one_to_many: agg,
            },
            ..PrepareConfig::default()
        },
        ..MesaConfig::default()
    };

    // Each configuration must reproduce its own cold path exactly — a session
    // warmed under one config can never leak another config's extraction.
    for (hops, agg) in [
        (1, OneToManyAgg::Mean),
        (2, OneToManyAgg::Mean),
        (2, OneToManyAgg::Count),
    ] {
        let config = config_for(hops, agg);
        let mesa = Mesa::with_config(config);
        let session = mesa.session(&covid, Some(&graph), &["Country"]);
        let warm_prep = session.prepare(&q).unwrap();
        let cold_prep = mesa
            .prepare(&covid, &q, Some(&graph), &["Country"])
            .unwrap();
        assert_eq!(
            warm_prep.candidates, cold_prep.candidates,
            "hops={hops} agg={agg:?}"
        );
        assert_eq!(warm_prep.extracted, cold_prep.extracted);
        let warm = session.explain(&q).unwrap();
        let cold = mesa
            .explain(&covid, &q, Some(&graph), &["Country"])
            .unwrap();
        assert_eq!(render(&warm), render(&cold), "hops={hops} agg={agg:?}");
    }

    // Multi-hop extraction sees strictly more attributes than single-hop —
    // if the keys aliased, the two would collapse to whichever ran first.
    let one_hop = Mesa::with_config(config_for(1, OneToManyAgg::Mean));
    let two_hop = Mesa::with_config(config_for(2, OneToManyAgg::Mean));
    let s1 = one_hop.session(&covid, Some(&graph), &["Country"]);
    let s2 = two_hop.session(&covid, Some(&graph), &["Country"]);
    let p1 = s1.prepare(&q).unwrap();
    let p2 = s2.prepare(&q).unwrap();
    assert!(
        p2.extracted.len() > p1.extracted.len(),
        "2-hop ({}) should extract more than 1-hop ({})",
        p2.extracted.len(),
        p1.extracted.len()
    );

    // Distinct queries over one session stay distinct entries in the memo.
    let mesa = Mesa::new();
    let session = mesa.session(&covid, Some(&graph), &["Country"]);
    let q_europe = q
        .clone()
        .with_context(Predicate::eq("WHO-Region", "Europe"));
    let all = session.explain(&q).unwrap();
    let europe = session.explain(&q_europe).unwrap();
    assert_ne!(render(&all), render(&europe));
    let stats = session.cache_stats();
    assert_eq!(stats.reports.misses, 2);
    assert_eq!(stats.reports.hits, 0);
}
