//! An explanation depends on the data, not on how it is laid out: shuffling
//! the input's rows or reversing its column order must leave Table 2's 14
//! queries with the same selected attributes and, up to floating-point
//! summation order, the same explainability. The world and knowledge graph
//! are the experiments' defaults, so the graph's biased dropout makes the
//! IPW correction fire.

use mesa_repro::datagen::{
    build_kg, representative_queries, Dataset, KgConfig, World, WorldConfig,
};
use mesa_repro::mesa::{Mesa, MesaConfig, MesaReport, MissingPolicy};
use mesa_repro::tabular::DataFrame;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Rows per dataset; Covid keeps its one row per country.
const ROWS: usize = 1000;

/// The largest explainability drift allowed between two layouts.
const TOLERANCE: f64 = 1e-9;

struct Fixture {
    graph: mesa_repro::kg::KnowledgeGraph,
    frames: Vec<(Dataset, DataFrame)>,
}

impl Fixture {
    fn new() -> Fixture {
        let world = World::generate(WorldConfig::default());
        let graph = build_kg(&world, KgConfig::default());
        let frames = Dataset::all()
            .into_iter()
            .map(|d| (d, d.generate(&world, ROWS, 1234).unwrap()))
            .collect();
        Fixture { graph, frames }
    }

    /// The report of every workload query over its dataset's frame, after
    /// `layout` has rearranged that frame.
    fn explain_all(
        &self,
        policy: MissingPolicy,
        layout: impl Fn(&DataFrame) -> DataFrame,
    ) -> Vec<(String, MesaReport)> {
        let mesa = Mesa::with_config(MesaConfig {
            missing: policy,
            ..MesaConfig::default()
        });
        let frames: Vec<(Dataset, DataFrame)> =
            self.frames.iter().map(|(d, df)| (*d, layout(df))).collect();
        representative_queries()
            .into_iter()
            .map(|wq| {
                let df = &frames.iter().find(|(d, _)| *d == wq.dataset).unwrap().1;
                let columns = wq.dataset.extraction_columns();
                let report = mesa.explain(df, &wq.query, Some(&self.graph), columns);
                (wq.id, report.unwrap())
            })
            .collect()
    }
}

fn shuffle_rows(seed: u64) -> impl Fn(&DataFrame) -> DataFrame {
    move |df| {
        let mut rows: Vec<usize> = (0..df.n_rows()).collect();
        rows.shuffle(&mut StdRng::seed_from_u64(seed));
        df.take(&rows)
    }
}

fn reverse_columns(df: &DataFrame) -> DataFrame {
    let names: Vec<&str> = df.column_names().into_iter().rev().collect();
    df.select(&names).unwrap()
}

fn assert_same(base: &[(String, MesaReport)], other: &[(String, MesaReport)], what: &str) {
    for ((id, a), (_, b)) in base.iter().zip(other) {
        let (a, b) = (&a.explanation, &b.explanation);
        assert_eq!(a.attributes, b.attributes, "{id} under {what}");
        let drift = (a.explainability - b.explainability).abs();
        assert!(drift <= TOLERANCE, "{id} under {what}: drift {drift:e}");
    }
}

#[test]
fn ipw_explanations_do_not_depend_on_row_or_column_order() {
    let fixture = Fixture::new();
    let base = fixture.explain_all(MissingPolicy::Ipw, DataFrame::clone);
    assert_eq!(base.len(), 14);
    let weighted = |(_, report): &(String, MesaReport)| {
        report
            .selection_bias
            .values()
            .any(|info| info.weights.is_some())
    };
    assert!(
        base.iter().any(weighted),
        "the fixture must carry IPW weights"
    );
    for seed in [1, 2] {
        let shuffled = fixture.explain_all(MissingPolicy::Ipw, shuffle_rows(seed));
        assert_same(&base, &shuffled, &format!("row shuffle {seed}"));
    }
    let reversed = fixture.explain_all(MissingPolicy::Ipw, reverse_columns);
    assert_same(&base, &reversed, "column reversal");
}

#[test]
fn complete_case_explanations_do_not_depend_on_row_order() {
    let fixture = Fixture::new();
    let base = fixture.explain_all(MissingPolicy::CompleteCase, DataFrame::clone);
    let shuffled = fixture.explain_all(MissingPolicy::CompleteCase, shuffle_rows(1));
    assert_same(&base, &shuffled, "row shuffle 1");
}
