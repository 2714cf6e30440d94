//! Appendix experiment: the effect of extracting attributes from more than
//! one hop in the knowledge graph — explanation stability, candidate growth,
//! and running time.

use std::time::Instant;

use bench::{ExperimentData, Scale};
use datagen::Dataset;
use kg::ExtractionConfig;
use mesa::{explanation_line, Mesa, MesaConfig, PrepareConfig};
use tabular::AggregateQuery;

fn main() {
    let data = ExperimentData::generate(Scale::from_env());
    println!("== Appendix: 1-hop vs 2-hop extraction ==\n");
    let query = AggregateQuery::avg("Country", "Deaths_per_100_cases");
    let covid = data.frame(Dataset::Covid);
    for hops in [1usize, 2] {
        let config = MesaConfig {
            prepare: PrepareConfig {
                extraction: ExtractionConfig {
                    hops,
                    ..Default::default()
                },
                ..Default::default()
            },
            ..Default::default()
        };
        let mesa = Mesa::with_config(config);
        let start = Instant::now();
        let prepared = mesa
            .prepare(
                covid,
                &query,
                Some(&data.graph),
                Dataset::Covid.extraction_columns(),
            )
            .expect("prepare");
        let report = mesa.explain_prepared(&prepared).expect("explain");
        let elapsed = start.elapsed();
        println!(
            "hops = {hops}: {} candidate attributes ({} extracted), explanation = [{}], {:?}",
            prepared.candidates.len(),
            prepared.extracted.len(),
            explanation_line(&report.explanation),
            elapsed
        );
    }
    println!(
        "\n(paper: explanations are essentially unchanged by 2-hop extraction while the candidate\n\
         count grows ~145% and running times increase — most relevant information is one hop away)"
    );
}
