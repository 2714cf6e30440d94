//! Appendix experiment: the prepare pipeline (context → KG join → binning →
//! encoding) stage by stage and end to end, per dataset, plus the full
//! 14-query workload of `table2_explanations`/`table3_scores`.
//!
//! Emits `BENCH_prepare.json`, the canonical record of the prepare path:
//! `<dataset>/join` times `extract_and_join_with` over tables fetched
//! beforehand (collision renames and key matching, extraction excluded),
//! `<dataset>/bin_encode` times `prepare_from_joined` (binning the base
//! frame, binning the KG attributes per entity, encoding and sealing), and
//! `<dataset>/prepare` the whole stage.

use bench::report::BenchReport;
use bench::{prepare_workload, ExperimentData, Scale};
use datagen::representative_queries;
use kg::extract_attributes;
use mesa::{
    apply_query_context, extract_and_join_with, prepare_from_joined, ColumnExtraction,
    ExtractionJoin, MesaError, PrepareConfig,
};
use tabular::DataFrame;

/// Repetitions of the `bin_encode` entry (at least [`bench::DEFAULT_REPS`],
/// which is what `BenchReport::time` runs).
const BIN_ENCODE_REPS: usize = 5;

/// The join stage's inputs for a dataset's first representative query: the
/// context-filtered frame and the tables extraction fetched for it, in fetch
/// order and before collision renames.
struct JoinStage {
    filtered: DataFrame,
    columns: &'static [&'static str],
    fetched: Vec<ColumnExtraction>,
}

fn join_stage_inputs(data: &ExperimentData, wq: &datagen::WorkloadQuery) -> JoinStage {
    let extraction = PrepareConfig::default().extraction;
    let filtered = apply_query_context(data.frame(wq.dataset), &wq.query).expect("context applies");
    let columns = wq.dataset.extraction_columns();
    let mut fetched = Vec::new();
    extract_and_join_with(&filtered, columns, |_, values, key| {
        let table = extract_attributes(&data.graph, values, key, extraction)?;
        let table = ColumnExtraction::from_result(table);
        fetched.push(table.clone());
        Ok(table)
    })
    .expect("extraction stage");
    JoinStage {
        filtered,
        columns,
        fetched,
    }
}

/// The join stage as the pipeline runs it, with every table served from
/// `stage.fetched` the way a session's extraction cache serves it.
fn replay_join(stage: &JoinStage) -> (DataFrame, Vec<ExtractionJoin>) {
    let mut fetched = stage.fetched.iter();
    extract_and_join_with(&stage.filtered, stage.columns, |column, _, _| {
        let missing = || MesaError::InvalidInput(format!("no table fetched for {column}"));
        fetched.next().cloned().ok_or_else(missing)
    })
    .expect("join stage")
}

fn main() {
    // Always measured at quick scale so the committed record stays comparable
    // across machines and commits.
    let data = ExperimentData::generate(Scale::Quick);
    let mut report = BenchReport::new("prepare");
    println!("== Appendix: prepare pipeline (context → join → bin → encode) ==\n");

    let queries = representative_queries();
    for (dataset, _) in &data.frames {
        let wq = match queries.iter().find(|q| q.dataset == *dataset) {
            Some(wq) => wq,
            None => continue,
        };
        let name = dataset.name();
        let stage = join_stage_inputs(&data, wq);
        let rows = stage.filtered.n_rows();

        let join_ms = report.time(&format!("{name}/join"), rows, 5, || {
            std::hint::black_box(replay_join(&stage));
        });

        // The shipping pipeline's discretisation, encoding and sealing.
        // `prepare_from_joined` consumes its inputs, so every repetition
        // gets its own join output, made before the clock starts.
        let config = PrepareConfig::default();
        let mut inputs: Vec<_> = (0..BIN_ENCODE_REPS).map(|_| replay_join(&stage)).collect();
        let bin_encode_ms =
            report.time(&format!("{name}/bin_encode"), rows, BIN_ENCODE_REPS, || {
                let (frame, joins) = inputs.pop().expect("one input per repetition");
                let prepared = prepare_from_joined(&wq.query, frame, joins, config);
                std::hint::black_box(prepared.expect("prepare"));
            });
        let prepare_ms = report.time(&format!("{name}/prepare"), rows, 5, || {
            std::hint::black_box(prepare_workload(&data, wq).expect("prepare"));
        });
        println!(
            "{name:<12} {rows:>6} rows  join {join_ms:>8.3} ms  \
             bin+encode {bin_encode_ms:>8.3} ms  prepare {prepare_ms:>8.3} ms"
        );
    }

    // The full quick-scale prepare workload behind table2/table3: all 14
    // representative queries end to end.
    let all_ms = report.time("all_queries/prepare", 0, 5, || {
        for wq in &queries {
            if let Ok(p) = prepare_workload(&data, wq) {
                std::hint::black_box(p.candidates.len());
            }
        }
    });
    println!("\nall 14 representative queries prepare: {all_ms:.3} ms");

    report.write_or_warn();
}
