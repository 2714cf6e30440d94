//! Figure 4: running time as a function of the number of candidate
//! attributes, for No-Pruning, Offline-Pruning, and full MCIMR. Timings are
//! medians over [`bench::DEFAULT_REPS`] repetitions, also written to
//! `BENCH_fig4.json`.

use bench::{BenchReport, DatasetSessions, ExperimentData, Scale, DEFAULT_REPS};
use datagen::{representative_queries_for, Dataset};
use mesa::{Mesa, MesaConfig, PruningConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn variant(name: &str) -> MesaConfig {
    match name {
        "No Pruning" => MesaConfig {
            pruning: PruningConfig::disabled(),
            ..Default::default()
        },
        "Offline Pruning" => MesaConfig {
            pruning: PruningConfig::offline_only(),
            ..Default::default()
        },
        _ => MesaConfig::default(),
    }
}

fn main() {
    let data = ExperimentData::generate(Scale::from_env());
    let sessions = DatasetSessions::new(&data);
    let mut report = BenchReport::new("fig4");
    println!("== Figure 4: running time vs number of candidate attributes ==\n");
    for dataset in [Dataset::StackOverflow, Dataset::Flights, Dataset::Forbes] {
        let queries = representative_queries_for(dataset);
        let wq = &queries[0];
        let prepared = match sessions.prepare(wq) {
            Ok(p) => p,
            Err(e) => {
                println!("({}: preparation failed: {e})", dataset.name());
                continue;
            }
        };
        println!("--- {} ({}) ---", dataset.name(), wq.id);
        println!(
            "{:>8} {:>14} {:>18} {:>12}",
            "|A|", "No Pruning", "Offline Pruning", "MCIMR"
        );
        let max = prepared.candidates.len();
        let steps: Vec<usize> = [50usize, 150, 250, 350, 450, 550, 650, 750]
            .iter()
            .copied()
            .filter(|s| *s <= max)
            .chain([max])
            .collect();
        let mut rng = StdRng::seed_from_u64(99);
        for n_attrs in steps {
            // Random subset of the candidate attributes, as in the paper.
            let mut cands = prepared.candidates.clone();
            cands.shuffle(&mut rng);
            cands.truncate(n_attrs);
            let mut sub = prepared.clone();
            sub.candidates = cands;
            let mut times = Vec::new();
            for name in ["No Pruning", "Offline Pruning", "MCIMR"] {
                let system = Mesa::with_config(variant(name));
                let label = format!("{}/{}/{}attrs", dataset.name(), name, n_attrs);
                let median = report.time(&label, sub.frame.n_rows(), DEFAULT_REPS, || {
                    let _ = system.explain_prepared(&sub).expect("explain");
                });
                times.push(median / 1e3);
            }
            println!(
                "{:>8} {:>13.3}s {:>17.3}s {:>11.3}s",
                n_attrs, times[0], times[1], times[2]
            );
        }
        println!();
    }
    println!("(expected shape: near-linear growth in |A|; No Pruning slowest, MCIMR fastest on large datasets)");
    report.write_or_warn();
}
