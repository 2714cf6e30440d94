//! Table 4: the top-5 largest unexplained data subgroups for SO Q1
//! (τ > 0.2), plus the average running time of Algorithm 2 over all
//! representative queries.

use std::time::Instant;

use bench::{DatasetSessions, ExperimentData, Scale};
use datagen::representative_queries;
use mesa::{subgroup_table, unexplained_subgroups, Mesa, SubgroupConfig};

fn main() {
    let data = ExperimentData::generate(Scale::from_env());
    let sessions = DatasetSessions::new(&data);
    let queries = representative_queries();
    let so_q1 = queries
        .iter()
        .find(|q| q.id == "SO Q1")
        .expect("SO Q1 exists");

    let report = sessions.explain(so_q1).expect("explain SO Q1");
    println!("== Table 4: top-5 unexplained groups for SO Q1 ==\n");
    println!(
        "explanation for the full data: {}\n",
        mesa::explanation_line(&report.explanation)
    );
    let config = SubgroupConfig {
        top_k: 5,
        tau: 0.2,
        ..Default::default()
    };
    let groups = sessions
        .session(so_q1.dataset)
        .unexplained_subgroups(&so_q1.query, &config)
        .expect("subgroups");
    println!("{}", subgroup_table(&groups));

    // Average running time across all representative queries (the paper
    // reports 4.4 s on its hardware). Each query is prepared and explained
    // before the timer starts; only Algorithm 2 is timed.
    let mesa = Mesa::new();
    let mut total = 0.0;
    let mut count = 0usize;
    for wq in &queries {
        let Ok(prepared) = sessions.prepare(wq) else {
            continue;
        };
        let Ok(report) = mesa.explain_prepared(&prepared) else {
            continue;
        };
        let start = Instant::now();
        let _ = unexplained_subgroups(&prepared, &report.explanation.attributes, &config);
        total += start.elapsed().as_secs_f64();
        count += 1;
    }
    println!(
        "average Algorithm 2 running time over {count} queries: {:.2}s",
        total / count.max(1) as f64
    );
}
