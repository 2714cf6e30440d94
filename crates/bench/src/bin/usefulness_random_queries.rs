//! Section 5.1's usefulness statistic: the fraction of random aggregate
//! queries (10 per dataset) for which MESA's explanation (a) lowers the
//! partial correlation below the original correlation and (b) contains at
//! least one attribute extracted from the knowledge graph. The paper reports
//! 72.5%.

use bench::{DatasetSessions, ExperimentData, Scale};
use datagen::{random_queries, Dataset};
use mesa::Mesa;

fn main() {
    let data = ExperimentData::generate(Scale::from_env());
    // Random queries share each dataset's session: overlapping contexts land
    // on the same distinct-value sets and reuse the cached extraction.
    let sessions = DatasetSessions::new(&data);
    let mesa = Mesa::new();
    let mut useful = 0usize;
    let mut total = 0usize;
    println!("== Usefulness over random aggregate queries (Section 5.1) ==\n");
    for dataset in Dataset::all() {
        let frame = data.frame(dataset);
        let queries = random_queries(dataset, frame, 10, 2023).expect("random queries");
        for wq in queries {
            total += 1;
            let prepared = match sessions.prepare(&wq) {
                Ok(p) => p,
                Err(_) => continue,
            };
            let report = match mesa.explain_prepared(&prepared) {
                Ok(r) => r,
                Err(_) => continue,
            };
            let lowers = report.explanation.explainability < report.explanation.baseline_cmi - 1e-6;
            let uses_kg = report
                .explanation
                .attributes
                .iter()
                .any(|a| prepared.extracted.contains(a));
            let ok = lowers && uses_kg;
            useful += ok as usize;
            println!(
                "{:<14} {:<40} useful={} (ΔI = {:.3}, kg attrs = {})",
                wq.id,
                wq.description,
                ok,
                report.explanation.baseline_cmi - report.explanation.explainability,
                uses_kg
            );
        }
    }
    println!(
        "\nuseful in {useful}/{total} = {:.1}% of random queries (paper: 72.5%)",
        useful as f64 / total.max(1) as f64 * 100.0
    );
}
