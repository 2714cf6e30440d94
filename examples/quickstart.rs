//! Quickstart: explain a confounded correlation in a hand-built table using a
//! hand-built knowledge graph.
//!
//! Run with `cargo run --example quickstart`.

use mesa_repro::kg::{KnowledgeGraph, Object};
use mesa_repro::mesa::{report_summary, Mesa};
use mesa_repro::tabular::{AggregateQuery, Column, DataFrame, Value};

fn main() {
    // A small developer-survey-style table: country and salary. The salary is
    // driven by each country's economy, which is *not* in the table.
    let countries = ["Germany", "Italy", "Nigeria", "Kenya"];
    let wealth = [80.0, 65.0, 25.0, 20.0];
    let n = 400;
    let mut country_col = Vec::with_capacity(n);
    let mut gender_col = Vec::with_capacity(n);
    let mut salary_col = Vec::with_capacity(n);
    for i in 0..n {
        let c = i % countries.len();
        let male = (i / countries.len()).is_multiple_of(2);
        country_col.push(Value::from(countries[c]));
        gender_col.push(Value::from(if male { "Man" } else { "Woman" }));
        salary_col.push(Value::Float(
            wealth[c] * 1000.0 + if male { 4000.0 } else { 0.0 } + (i % 7) as f64 * 500.0,
        ));
    }
    let df = DataFrame::from_columns(vec![
        Column::from_values("Country", country_col),
        Column::from_values("Gender", gender_col),
        Column::from_values("Salary", salary_col),
    ])
    .expect("valid frame");

    // The analyst's query: average salary per country.
    let query = AggregateQuery::avg("Country", "Salary");
    println!("{}\n", query.to_sql("Developers"));
    println!(
        "{}\n",
        query.run(&df).expect("query runs").to_pretty_string(10)
    );

    // A tiny knowledge graph with country-level economic facts (the role
    // DBpedia plays in the paper).
    let mut graph = KnowledgeGraph::new();
    for (c, w) in countries.iter().zip([0.95, 0.89, 0.55, 0.52]) {
        graph.add_fact(*c, "HDI", Object::number(w));
    }
    for (c, g) in countries.iter().zip([4.2, 2.1, 0.5, 0.3]) {
        graph.add_fact(*c, "GDP", Object::number(if g > 1.0 { 3.0 } else { 0.4 }));
    }
    graph.add_fact("Germany", "wikiID", Object::integer(1));
    graph.add_fact("Italy", "wikiID", Object::integer(2));

    // Ask MESA why the correlation between Country and Salary is so strong.
    // A `Session` caches the KG extraction and the finished report, so
    // asking again — as an interactive analyst would — is a hash lookup.
    let mesa = Mesa::new();
    let session = mesa.session(&df, Some(&graph), &["Country"]);
    let report = session.explain(&query).expect("explanation");
    println!("== MESA explanation ==\n{}", report_summary(&report));

    let again = session.explain(&query).expect("cached explanation");
    assert_eq!(again.explanation, report.explanation);
    println!(
        "(asked again: served from the session cache, {} hit(s))",
        session.cache_stats().reports.hits
    );
}
