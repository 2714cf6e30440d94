//! The Stack Overflow scenario (Example 2.1): explain the differences in
//! average developer salary per country, find the responsibility of each
//! selected attribute, and identify subgroups where the explanation fails
//! (Example 4.1 / Table 4).
//!
//! Run with `cargo run --release --example so_salaries`.

use mesa_repro::datagen::{build_kg, generate_so, KgConfig, World, WorldConfig};
use mesa_repro::mesa::{explanation_details, subgroup_table, Mesa, SubgroupConfig};
use mesa_repro::tabular::{AggregateQuery, Predicate};

fn main() {
    let world = World::generate(WorldConfig::default());
    let graph = build_kg(&world, KgConfig::default());
    let so = generate_so(&world, 12_000, 7).expect("SO data");

    // One session serves every SO query: extractions and reports are cached
    // across the calls below.
    let mesa = Mesa::new();
    let session = mesa.session(&so, Some(&graph), &["Country", "Continent"]);

    // SO Q1: average salary per country.
    let q1 = AggregateQuery::avg("Country", "Salary");
    let report = session.explain(&q1).expect("explain");
    println!("== SO Q1: average salary per country ==\n");
    println!("{}", explanation_details(&report.explanation));

    // Which parts of the data does this explanation fail to cover? The
    // session prepares Q1 again (it keeps no preparation) and reuses Q1's
    // memoised explanation.
    let groups = session
        .unexplained_subgroups(
            &q1,
            &SubgroupConfig {
                top_k: 5,
                tau: 0.2,
                ..Default::default()
            },
        )
        .expect("subgroups");
    println!("== Unexplained subgroups (needs a different explanation) ==\n");
    println!("{}", subgroup_table(&groups));

    // SO Q3: the refined query restricted to Europe gets its own explanation.
    let q3 =
        AggregateQuery::avg("Country", "Salary").with_context(Predicate::eq("Continent", "Europe"));
    let report_eu = session.explain(&q3).expect("explanation for Europe");
    println!("== SO Q3: average salary per country in Europe ==\n");
    println!("{}", explanation_details(&report_eu.explanation));

    let stats = session.cache_stats();
    println!(
        "(session served {} queries: {} prepared, {} report cache hits)",
        stats.reports.hits + stats.reports.misses,
        stats.prepared.misses,
        stats.reports.hits
    );
}
