//! Appendix experiment: the prepare pipeline (context → KG join → binning →
//! encoding) stage by stage and end to end, per dataset, plus the full
//! 14-query workload of `table2_explanations`/`table3_scores`.
//!
//! Emits `BENCH_prepare.json`; the committed copy is the canonical record of
//! the columnar prepare path (code-based gather join, borrowed-slice binning,
//! reused bin codes). Two kinds of reference entries ride along so the file
//! carries its own before/after comparison on any machine: the
//! `<dataset>/join_rendered` entries time the retained rendered-string
//! reference join ([`tabular::join_rendered`]) over the same inputs, and the
//! `<dataset>/bin` + `<dataset>/encode_rehash` pair times the standalone
//! bin-then-re-encode decomposition, versus `<dataset>/bin_encode` which is
//! the shipping `bin_frame_encoded` → `from_frame_with` path that
//! `prepare_query` actually runs.

use bench::report::BenchReport;
use bench::{prepare_workload, ExperimentData, Scale};
use datagen::representative_queries;
use infotheory::EncodedFrame;
use mesa::{extract_and_join, ExtractionJoin, PrepareConfig};
use tabular::{bin_frame, bin_frame_encoded, DataFrame, JoinKind};

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

fn replay_joins<F>(stage: &JoinStage, join_fn: F) -> DataFrame
where
    F: Fn(&DataFrame, &DataFrame, &str, &str) -> tabular::Result<DataFrame>,
{
    let mut joined = stage.filtered.clone();
    for ej in &stage.tables {
        joined = join_fn(&joined, &ej.table, &ej.column, &ej.key).expect("join");
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
            std::hint::black_box(replay_joins(&stage, |l, r, on, key| {
                tabular::join(l, r, on, key, JoinKind::Left)
            }));
        });
        let rendered_ms = report.time(&format!("{name}/join_rendered"), rows, 5, || {
            std::hint::black_box(replay_joins(&stage, |l, r, on, key| {
                tabular::join_rendered(l, r, on, key, JoinKind::Left)
            }));
        });

        let joined = replay_joins(&stage, |l, r, on, key| {
            tabular::join(l, r, on, key, JoinKind::Left)
        });
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
        // Reference decomposition of the same work on the standalone APIs:
        // bin without code emission, then re-encode every column from
        // scratch (the pre-columnar shape of the encode step).
        let bin_ms = report.time(&format!("{name}/bin"), rows, 5, || {
            std::hint::black_box(
                bin_frame(&joined, config.n_bins, config.bin_strategy, &[]).expect("binning"),
            );
        });
        let binned = bin_frame(&joined, config.n_bins, config.bin_strategy, &[]).expect("binning");
        let encode_ms = report.time(&format!("{name}/encode_rehash"), rows, 5, || {
            std::hint::black_box(EncodedFrame::from_frame(&binned));
        });
        let prepare_ms = report.time(&format!("{name}/prepare"), rows, 5, || {
            std::hint::black_box(prepare_workload(&data, wq).expect("prepare"));
        });
        println!(
            "{name:<12} {rows:>6} rows  join {join_ms:>8.3} ms (rendered {rendered_ms:>8.3})  \
             bin+encode {bin_encode_ms:>8.3} ms (split {bin_ms:>8.3} + {encode_ms:>8.3})  \
             prepare {prepare_ms:>8.3} ms"
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
