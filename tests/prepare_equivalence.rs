//! Preparation bins each KG attribute once per entity and writes its frame
//! column through the join's row map. That must equal what it replaced:
//! gathering the attribute's values with `tabular::join`, then binning,
//! encoding and sealing the joined frame. Table 2's 14 queries replay both
//! on the fixture world `tests/layout_invariance.rs` builds, under both
//! binning strategies; a hand-built frame covers the join's renames and an
//! extraction column that names an extracted attribute.

use mesa_repro::datagen::{
    build_kg, representative_queries, Dataset, KgConfig, World, WorldConfig,
};
use mesa_repro::fuzz::prepare_matches_join_then_bin;
use mesa_repro::kg::{KnowledgeGraph, Object};
use mesa_repro::mesa::{prepare_query, PrepareConfig};
use mesa_repro::tabular::{AggregateQuery, BinStrategy, DataFrame, DataFrameBuilder};

/// Rows per dataset; Covid keeps its one row per country.
const ROWS: usize = 1000;

fn configs() -> [PrepareConfig; 2] {
    [BinStrategy::EqualFrequency, BinStrategy::EqualWidth].map(|bin_strategy| PrepareConfig {
        bin_strategy,
        ..PrepareConfig::default()
    })
}

#[test]
fn table2_queries_prepare_like_join_then_bin() {
    let world = World::generate(WorldConfig::default());
    let graph = build_kg(&world, KgConfig::default());
    let frames: Vec<(Dataset, DataFrame)> = Dataset::all()
        .into_iter()
        .map(|d| (d, d.generate(&world, ROWS, 1234).unwrap()))
        .collect();
    let queries = representative_queries();
    assert_eq!(queries.len(), 14);
    for config in configs() {
        for wq in &queries {
            let df = &frames.iter().find(|(d, _)| *d == wq.dataset).unwrap().1;
            let columns = wq.dataset.extraction_columns();
            let compared = prepare_matches_join_then_bin(df, &graph, columns, &wq.query, config);
            assert_eq!(compared, Ok(true), "{} {:?}", wq.id, config.bin_strategy);
        }
    }
}

#[test]
fn renamed_and_chained_attributes_prepare_like_join_then_bin() {
    let countries = [
        "Germany", "Italy", "Nigeria", "Kenya", "Peru", "Chile", "Japan", "Laos",
    ];
    let capitals = [
        "Berlin",
        "Rome",
        "Abuja",
        "Nairobi",
        "Lima",
        "Santiago",
        "Tokyo",
        "Vientiane",
    ];
    let n = 200;
    let df = DataFrameBuilder::new()
        .cat(
            "Country",
            (0..n).map(|i| Some(countries[i * i % 8])).collect(),
        )
        .float("GDP", (0..n).map(|i| Some((i % 17) as f64)).collect())
        .int(
            "GDP (Country)",
            (0..n).map(|i| Some(i as i64 % 3)).collect(),
        )
        .float(
            "Salary",
            (0..n).map(|i| Some((i % 23) as f64 * 1.5)).collect(),
        )
        .build()
        .unwrap();
    let mut graph = KnowledgeGraph::new();
    for (i, (country, capital)) in countries.into_iter().zip(capitals).enumerate() {
        // `GDP` collides with a frame column, and so does its rename.
        graph.add_fact(country, "GDP", Object::number(10.0 + i as f64));
        graph.add_fact(country, "Capital", Object::text(capital));
        if i != 3 {
            graph.add_fact(capital, "Population", Object::number((i * i) as f64));
        }
    }
    let query = AggregateQuery::avg("Country", "Salary");
    let columns = ["Country", "Capital"];
    for config in configs() {
        let compared = prepare_matches_join_then_bin(&df, &graph, &columns, &query, config);
        assert_eq!(compared, Ok(true), "{:?}", config.bin_strategy);
        let prepared = prepare_query(&df, &query, Some(&graph), &columns, config).unwrap();
        for name in ["GDP (Country)_right", "Capital", "Population"] {
            assert!(
                prepared.frame.has_column(name),
                "{:?}",
                prepared.frame.column_names()
            );
        }
    }
}
