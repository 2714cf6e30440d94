//! Appendix experiment: the prepare pipeline (context → KG join → binning →
//! encoding) stage by stage and end to end, per dataset, plus the full
//! 14-query workload of `table2_explanations`/`table3_scores`.
//!
//! Emits `BENCH_prepare.json`, the canonical record of the columnar prepare
//! path: `<dataset>/join` times the code-based gather join,
//! `<dataset>/bin_encode` the `bin_frame_encoded` → `from_frame_with` path
//! that `prepare_query` runs, and `<dataset>/prepare` the whole stage.

use bench::report::BenchReport;
use bench::{prepare_workload, ExperimentData, Scale};
use datagen::representative_queries;
use infotheory::EncodedFrame;
use mesa::{extract_and_join, ExtractionJoin, PrepareConfig};
use tabular::{bin_frame_encoded, join, DataFrame, JoinKind};

/// Repetitions of the `bin_encode` entry (at least [`bench::DEFAULT_REPS`],
/// which is what `BenchReport::time` runs).
const BIN_ENCODE_REPS: usize = 5;

/// The extraction tables a dataset's first representative query joins in —
/// produced by the same [`mesa::extract_and_join`] stage `prepare_query`
/// runs, so the stage timings below replay exactly the real work.
struct JoinStage {
    filtered: DataFrame,
    tables: Vec<ExtractionJoin>,
}

fn join_stage_inputs(data: &ExperimentData, wq: &datagen::WorkloadQuery) -> JoinStage {
    let config = PrepareConfig::default();
    let frame = data.frame(wq.dataset);
    let filtered = wq.query.apply_context(frame).expect("context applies");
    let (_, tables) = extract_and_join(
        &filtered,
        &data.graph,
        wq.dataset.extraction_columns(),
        config.extraction,
    )
    .expect("extraction stage");
    JoinStage { filtered, tables }
}

/// Left-joins the stage's extraction tables onto the filtered frame, in
/// order, as `prepare_query` does.
fn replay_joins(stage: &JoinStage) -> DataFrame {
    let mut joined = stage.filtered.clone();
    for ej in &stage.tables {
        joined = join(&joined, &ej.table, &ej.column, &ej.key, JoinKind::Left).expect("join");
    }
    joined
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
            std::hint::black_box(replay_joins(&stage));
        });

        let joined = replay_joins(&stage);
        let config = PrepareConfig::default();
        // The shipping pipeline's discretisation: binning that emits codes,
        // threaded into the encoded frame (what prepare_query runs). Binning
        // consumes its frame, so every repetition gets a copy made before
        // the clock starts.
        let mut copies: Vec<DataFrame> = (0..BIN_ENCODE_REPS).map(|_| joined.clone()).collect();
        let bin_encode_ms =
            report.time(&format!("{name}/bin_encode"), rows, BIN_ENCODE_REPS, || {
                let frame = copies.pop().expect("one copy per repetition");
                let (binned, encodings) =
                    bin_frame_encoded(frame, config.n_bins, config.bin_strategy, &[])
                        .expect("binning");
                std::hint::black_box(EncodedFrame::from_frame_with(&binned, encodings));
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
