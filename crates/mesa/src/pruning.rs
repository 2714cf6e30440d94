//! Pruning optimisations (Section 4.2).
//!
//! Two phases reduce the candidate set `A` before MCIMR runs:
//!
//! * **Offline (pre-processing, query-independent)** — drop attributes with a
//!   constant value, attributes with more than 90% missing values, and
//!   key-like attributes whose entropy is (almost) maximal because nearly
//!   every tuple has a unique value (`wikiID`).
//! * **Online (query-specific)** — drop attributes logically equivalent to
//!   the exposure or the outcome (approximate functional dependencies in both
//!   directions, e.g. `CountryCode ⇔ Country`; conditioning on them would
//!   mechanically zero the CMI, Lemma A.2), and attributes with low
//!   individual relevance (`O ⫫ E | C` and `O ⫫ E | T, C`), which the paper's
//!   key assumption says cannot participate in a good explanation.
//!
//! The online phase judges each candidate `E` from at most three joint
//! tables, each folded once over the rows, in this order:
//!
//! 1. `[T, E]` gives `H(T | E)`; at most `fd_epsilon` drops `E`.
//! 2. `[O, E]` gives `H(O | E)`, which drops `E` the same way, and then the
//!    marginal G-test `O ⫫ E`. A dependent `E` is kept without a third fold,
//!    since it is relevant whatever the conditional test says.
//! 3. `[O, E, T]` gives the conditional G-test `O ⫫ E | T`; independence
//!    under both tests drops `E` as irrelevant.
//!
//! Candidates are judged independently, so they fan out over the persistent
//! pool; verdicts are collected in input order.

use infotheory::{
    ci_test_table, conditional_entropy_of_table, CiTestConfig, EncodedFrame, JointTable,
};

use crate::error::Result;
use crate::parallel::parallel_map;

/// Why an attribute was pruned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneReason {
    /// Constant value across all (non-null) rows.
    Constant,
    /// More than the allowed fraction of missing values.
    TooManyMissing,
    /// Key-like attribute: (almost) unique value per tuple.
    HighEntropy,
    /// Approximate functional dependency with the exposure or outcome.
    LogicalDependency,
    /// Individually irrelevant to the outcome.
    LowRelevance,
}

impl PruneReason {
    /// Whether the reason belongs to the offline (pre-processing) phase.
    pub fn is_offline(self) -> bool {
        matches!(
            self,
            PruneReason::Constant | PruneReason::TooManyMissing | PruneReason::HighEntropy
        )
    }
}

/// Configuration of the pruning thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PruningConfig {
    /// Enable the offline phase.
    pub offline: bool,
    /// Enable the online phase.
    pub online: bool,
    /// Missing-value fraction above which an attribute is dropped (paper: 0.9).
    pub max_missing_fraction: f64,
    /// Distinct-value ratio above which an attribute counts as key-like.
    pub max_distinct_ratio: f64,
    /// Entropy tolerance (bits) for the approximate functional-dependency test.
    pub fd_epsilon: f64,
    /// CI-test configuration for the low-relevance test.
    pub ci: CiTestConfig,
}

impl Default for PruningConfig {
    fn default() -> Self {
        PruningConfig {
            offline: true,
            online: true,
            max_missing_fraction: 0.9,
            max_distinct_ratio: 0.9,
            fd_epsilon: 0.05,
            ci: CiTestConfig::default(),
        }
    }
}

impl PruningConfig {
    /// A configuration with all pruning disabled (the MESA⁻ / No-Pruning
    /// baselines).
    pub fn disabled() -> Self {
        PruningConfig {
            offline: false,
            online: false,
            ..Default::default()
        }
    }

    /// Offline pruning only (the "Offline Pruning" baseline of Figure 4).
    pub fn offline_only() -> Self {
        PruningConfig {
            offline: true,
            online: false,
            ..Default::default()
        }
    }
}

/// The outcome of pruning: surviving candidates plus the per-attribute drop
/// reasons (used by the appendix pruning-impact experiment).
#[derive(Debug, Clone, Default)]
pub struct PruningReport {
    /// Candidates that survived, in input order.
    pub kept: Vec<String>,
    /// `(attribute, reason)` for every dropped candidate.
    pub dropped: Vec<(String, PruneReason)>,
}

impl PruningReport {
    /// Number of attributes dropped by the offline phase.
    pub fn n_offline_dropped(&self) -> usize {
        self.dropped.iter().filter(|(_, r)| r.is_offline()).count()
    }

    /// Number of attributes dropped by the online phase.
    pub fn n_online_dropped(&self) -> usize {
        self.dropped.iter().filter(|(_, r)| !r.is_offline()).count()
    }

    /// Fraction of the input candidates that was dropped.
    pub fn dropped_fraction(&self) -> f64 {
        let total = self.kept.len() + self.dropped.len();
        if total == 0 {
            0.0
        } else {
            self.dropped.len() as f64 / total as f64
        }
    }
}

/// Runs the offline pruning phase over `candidates`.
pub fn prune_offline(
    encoded: &EncodedFrame,
    candidates: &[String],
    config: &PruningConfig,
) -> Result<PruningReport> {
    let mut report = PruningReport::default();
    if !config.offline {
        report.kept = candidates.to_vec();
        return Ok(report);
    }
    let n_rows = encoded.n_rows().max(1);
    for name in candidates {
        let cardinality = encoded.cardinality(name)?;
        let missing = encoded.missing_fraction(name)?;
        if missing >= 1.0 || cardinality <= 1 {
            report.dropped.push((name.clone(), PruneReason::Constant));
        } else if missing > config.max_missing_fraction {
            report
                .dropped
                .push((name.clone(), PruneReason::TooManyMissing));
        } else {
            let present = ((1.0 - missing) * n_rows as f64).max(1.0);
            if cardinality as f64 / present > config.max_distinct_ratio && cardinality > 4 {
                report
                    .dropped
                    .push((name.clone(), PruneReason::HighEntropy));
            } else {
                report.kept.push(name.clone());
            }
        }
    }
    Ok(report)
}

/// Runs the online (query-specific) pruning phase over `candidates`.
///
/// Kept and dropped candidates keep their input order. When a column is
/// missing, the error is the one the first failing candidate (in input
/// order) meets, looking up the exposure, the candidate and the outcome in
/// that order.
pub fn prune_online(
    encoded: &EncodedFrame,
    candidates: &[String],
    exposure: &str,
    outcome: &str,
    config: &PruningConfig,
) -> Result<PruningReport> {
    let mut report = PruningReport::default();
    if !config.online {
        report.kept = candidates.to_vec();
        return Ok(report);
    }
    let verdicts = parallel_map(candidates, |_, name| {
        online_verdict(encoded, name, exposure, outcome, config)
    });
    for (name, verdict) in candidates.iter().zip(verdicts) {
        match verdict? {
            Some(reason) => report.dropped.push((name.clone(), reason)),
            None => report.kept.push(name.clone()),
        }
    }
    Ok(report)
}

/// The online verdict on one candidate: the reason to drop it, or `None` to
/// keep it. Folds the tables of the module docs' plan, stopping at the
/// first that decides.
fn online_verdict(
    encoded: &EncodedFrame,
    name: &str,
    exposure: &str,
    outcome: &str,
    config: &PruningConfig,
) -> Result<Option<PruneReason>> {
    let t = encoded.column(exposure)?;
    let e = encoded.column(name)?;
    let o = encoded.column(outcome)?;
    // Logical dependency: the candidate (approximately) functionally
    // determines the exposure or the outcome. Conditioning on such an
    // attribute drives the CMI to zero mechanically (Lemma A.2 — e.g.
    // CountryCode ⇒ Country, or Country ⇒ Continent when the exposure is
    // the continent), so it is discarded.
    let eps = config.fd_epsilon;
    if conditional_entropy_of_table(&JointTable::build_views(&[t, e], None)) <= eps {
        return Ok(Some(PruneReason::LogicalDependency));
    }
    let oe = JointTable::build_views(&[o, e], None);
    if conditional_entropy_of_table(&oe) <= eps {
        return Ok(Some(PruneReason::LogicalDependency));
    }
    // Low relevance: O ⫫ E | C and O ⫫ E | T, C. The context C is already
    // baked into the prepared frame.
    if !ci_test_table(&oe, config.ci).independent {
        return Ok(None);
    }
    let oet = JointTable::build_views(&[o, e, t], None);
    Ok(ci_test_table(&oet, config.ci)
        .independent
        .then_some(PruneReason::LowRelevance))
}

/// Runs both phases and merges the reports.
pub fn prune(
    encoded: &EncodedFrame,
    candidates: &[String],
    exposure: &str,
    outcome: &str,
    config: &PruningConfig,
) -> Result<PruningReport> {
    let offline = prune_offline(encoded, candidates, config)?;
    let online = prune_online(encoded, &offline.kept, exposure, outcome, config)?;
    let mut dropped = offline.dropped;
    dropped.extend(online.dropped);
    Ok(PruningReport {
        kept: online.kept,
        dropped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabular::DataFrameBuilder;

    /// A frame with one attribute of every kind the pruner must handle.
    fn frame() -> (EncodedFrame, Vec<String>) {
        let n = 200;
        let mut country = Vec::new();
        let mut code = Vec::new();
        let mut salary_band = Vec::new();
        let mut gdp = Vec::new();
        let mut constant = Vec::new();
        let mut key = Vec::new();
        let mut mostly_missing = Vec::new();
        let mut noise = Vec::new();
        for i in 0..n {
            let c = ["DE", "IT", "NG", "KE"][i % 4];
            country.push(Some(c.to_string()));
            code.push(Some(format!("code-{c}")));
            // salary driven by country wealth plus an independent factor, so
            // it is *correlated* with GDP but not logically equivalent to it
            let rich = i % 4 < 2;
            let lucky = (i / 4) % 2 == 0;
            salary_band.push(Some(
                match (rich, lucky) {
                    (true, true) => "very high",
                    (true, false) => "high",
                    (false, true) => "low",
                    (false, false) => "very low",
                }
                .to_string(),
            ));
            gdp.push(Some(if rich { "big" } else { "small" }.to_string()));
            constant.push(Some("Country".to_string()));
            key.push(Some(format!("id-{i}")));
            mostly_missing.push(if i % 25 == 0 {
                Some("x".to_string())
            } else {
                None
            });
            noise.push(Some(format!("n{}", (i * 13) % 2)));
        }
        let to_opt = |v: Vec<Option<String>>| v.into_iter().collect::<Vec<_>>();
        let df = DataFrameBuilder::new()
            .cat(
                "Country",
                to_opt(country).iter().map(|x| x.as_deref()).collect(),
            )
            .cat(
                "CountryCode",
                to_opt(code).iter().map(|x| x.as_deref()).collect(),
            )
            .cat(
                "Salary",
                to_opt(salary_band).iter().map(|x| x.as_deref()).collect(),
            )
            .cat("GDP", to_opt(gdp).iter().map(|x| x.as_deref()).collect())
            .cat(
                "type",
                to_opt(constant).iter().map(|x| x.as_deref()).collect(),
            )
            .cat("wikiID", to_opt(key).iter().map(|x| x.as_deref()).collect())
            .cat(
                "sparse",
                to_opt(mostly_missing)
                    .iter()
                    .map(|x| x.as_deref())
                    .collect(),
            )
            .cat(
                "noise",
                to_opt(noise).iter().map(|x| x.as_deref()).collect(),
            )
            .build()
            .unwrap();
        let encoded = EncodedFrame::from_frame(&df);
        let candidates: Vec<String> = ["CountryCode", "GDP", "type", "wikiID", "sparse", "noise"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        (encoded, candidates)
    }

    #[test]
    fn offline_drops_constant_key_and_sparse() {
        let (encoded, candidates) = frame();
        let report = prune_offline(&encoded, &candidates, &PruningConfig::default()).unwrap();
        let dropped: Vec<&str> = report.dropped.iter().map(|(n, _)| n.as_str()).collect();
        assert!(dropped.contains(&"type"));
        assert!(dropped.contains(&"wikiID"));
        assert!(dropped.contains(&"sparse"));
        assert!(report.kept.contains(&"GDP".to_string()));
        assert!(report.kept.contains(&"CountryCode".to_string()));
        assert_eq!(report.n_offline_dropped(), report.dropped.len());
    }

    #[test]
    fn online_drops_fd_and_irrelevant() {
        let (encoded, candidates) = frame();
        let offline = prune_offline(&encoded, &candidates, &PruningConfig::default()).unwrap();
        let report = prune_online(
            &encoded,
            &offline.kept,
            "Country",
            "Salary",
            &PruningConfig::default(),
        )
        .unwrap();
        let dropped: Vec<(&str, PruneReason)> = report
            .dropped
            .iter()
            .map(|(n, r)| (n.as_str(), *r))
            .collect();
        assert!(dropped.contains(&("CountryCode", PruneReason::LogicalDependency)));
        assert!(dropped.contains(&("noise", PruneReason::LowRelevance)));
        assert_eq!(report.kept, vec!["GDP".to_string()]);
    }

    #[test]
    fn combined_prune_and_report_counts() {
        let (encoded, candidates) = frame();
        let report = prune(
            &encoded,
            &candidates,
            "Country",
            "Salary",
            &PruningConfig::default(),
        )
        .unwrap();
        assert_eq!(report.kept, vec!["GDP".to_string()]);
        assert_eq!(report.kept.len() + report.dropped.len(), candidates.len());
        assert!(report.n_offline_dropped() >= 3);
        assert!(report.n_online_dropped() >= 2);
        assert!(report.dropped_fraction() > 0.5);
    }

    #[test]
    fn disabled_config_keeps_everything() {
        let (encoded, candidates) = frame();
        let report = prune(
            &encoded,
            &candidates,
            "Country",
            "Salary",
            &PruningConfig::disabled(),
        )
        .unwrap();
        assert_eq!(report.kept, candidates);
        assert!(report.dropped.is_empty());
        assert_eq!(report.dropped_fraction(), 0.0);
    }

    #[test]
    fn offline_only_config() {
        let (encoded, candidates) = frame();
        let report = prune(
            &encoded,
            &candidates,
            "Country",
            "Salary",
            &PruningConfig::offline_only(),
        )
        .unwrap();
        // FD attribute survives because the online phase is off
        assert!(report.kept.contains(&"CountryCode".to_string()));
        assert!(!report.kept.contains(&"wikiID".to_string()));
    }

    #[test]
    fn prune_reason_phases() {
        assert!(PruneReason::Constant.is_offline());
        assert!(PruneReason::HighEntropy.is_offline());
        assert!(!PruneReason::LogicalDependency.is_offline());
        assert!(!PruneReason::LowRelevance.is_offline());
    }

    #[test]
    fn empty_candidates() {
        let (encoded, _) = frame();
        let report = prune(
            &encoded,
            &[],
            "Country",
            "Salary",
            &PruningConfig::default(),
        )
        .unwrap();
        assert!(report.kept.is_empty());
        assert_eq!(report.dropped_fraction(), 0.0);
    }

    /// The online phase as the sequential loop it replaced: both conditional
    /// entropies and both G-tests for every candidate, through the frame's
    /// by-name measures. The fold-once, fanned-out phase must reproduce it.
    fn reference_prune_online(
        encoded: &EncodedFrame,
        candidates: &[String],
        exposure: &str,
        outcome: &str,
        config: &PruningConfig,
    ) -> Result<PruningReport> {
        let mut report = PruningReport::default();
        for name in candidates {
            let ht_e = encoded.conditional_entropy(exposure, &[name])?;
            let ho_e = encoded.conditional_entropy(outcome, &[name])?;
            let eps = config.fd_epsilon;
            if ht_e <= eps || ho_e <= eps {
                report
                    .dropped
                    .push((name.clone(), PruneReason::LogicalDependency));
                continue;
            }
            let marginal = encoded.ci_test(outcome, name, &[], None, config.ci)?;
            let given_t = encoded.ci_test(outcome, name, &[exposure], None, config.ci)?;
            if marginal.independent && given_t.independent {
                report
                    .dropped
                    .push((name.clone(), PruneReason::LowRelevance));
                continue;
            }
            report.kept.push(name.clone());
        }
        Ok(report)
    }

    /// Twelve online candidates over `Country` (exposure) and `Salary`
    /// (outcome), one or more per branch of the online phase, some with
    /// nulls so the three tables' complete-case sets differ.
    fn online_frame() -> (EncodedFrame, Vec<String>) {
        let n = 400;
        let mut cols: Vec<(&str, Vec<Option<String>>)> = [
            "Country",
            "Salary",
            "CountryCode",
            "SalaryCode",
            "GDP",
            "GDPPartial",
            "Lucky",
            "Twist",
            "Parity",
            "Noise",
            "NoisePartial",
            "wikiID",
            "TwistPartial",
            "Region",
        ]
        .iter()
        .map(|&name| (name, Vec::with_capacity(n)))
        .collect();
        for i in 0..n {
            let country = i % 4;
            let rich = country < 2;
            let lucky = (i / 4) % 2 == 0;
            // Independent of country and luck: a third, slower cycle.
            let noise = (i / 8) % 3;
            // Marginally independent of the outcome, but given the country
            // it reveals the luck that the outcome depends on.
            let twist = lucky ^ (country % 2 == 0);
            let cells = [
                Some(["DE", "IT", "NG", "KE"][country].to_string()),
                Some(format!("{rich}-{lucky}")),
                Some(format!("code-{country}")),
                Some(format!("band-{rich}-{lucky}")),
                Some(if rich { "big" } else { "small" }.to_string()),
                (i % 7 != 0).then(|| if rich { "big" } else { "small" }.to_string()),
                Some(lucky.to_string()),
                Some(twist.to_string()),
                Some((i % 2).to_string()),
                Some(format!("n{noise}")),
                (i % 5 != 0).then(|| format!("n{noise}")),
                Some(format!("id-{i}")),
                (i % 16 >= 8).then(|| twist.to_string()),
                Some(if country % 2 == 0 { "north" } else { "south" }.to_string()),
            ];
            for ((_, col), cell) in cols.iter_mut().zip(cells) {
                col.push(cell);
            }
        }
        let mut builder = DataFrameBuilder::new();
        for (name, col) in &cols {
            builder = builder.cat(name, col.iter().map(|c| c.as_deref()).collect());
        }
        let encoded = EncodedFrame::from_frame(&builder.build().unwrap());
        let candidates = cols[2..].iter().map(|(n, _)| n.to_string()).collect();
        (encoded, candidates)
    }

    #[test]
    fn online_phase_matches_the_six_fold_loop_at_every_thread_count() {
        crate::parallel::set_threads(4);
        let (mut encoded, candidates) = online_frame();
        let config = PruningConfig::default();
        let reference =
            reference_prune_online(&encoded, &candidates, "Country", "Salary", &config).unwrap();
        // Every branch of the online phase is exercised.
        let reason = |name: &str| {
            reference
                .dropped
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, r)| *r)
        };
        // FD on the exposure, and on the outcome only.
        assert_eq!(reason("CountryCode"), Some(PruneReason::LogicalDependency));
        assert_eq!(reason("SalaryCode"), Some(PruneReason::LogicalDependency));
        assert!(
            encoded
                .conditional_entropy("Country", &["SalaryCode"])
                .unwrap()
                > 0.5
        );
        assert_eq!(reason("Noise"), Some(PruneReason::LowRelevance));
        assert_eq!(reason("Parity"), Some(PruneReason::LowRelevance));
        // Kept by marginal dependence, and only by conditional dependence.
        assert!(reference.kept.contains(&"GDP".to_string()));
        assert!(reference.kept.contains(&"Twist".to_string()));
        let ci = config.ci;
        assert!(
            encoded
                .ci_test("Salary", "Twist", &[], None, ci)
                .unwrap()
                .independent
        );
        assert!(
            !encoded
                .ci_test("Salary", "Twist", &["Country"], None, ci)
                .unwrap()
                .independent
        );
        assert_eq!(
            reference.kept.len() + reference.dropped.len(),
            candidates.len()
        );

        for sealed in [false, true] {
            if sealed {
                encoded.seal();
            }
            for cap in [1, 2, 4] {
                let report = crate::parallel::with_thread_cap(cap, || {
                    prune_online(&encoded, &candidates, "Country", "Salary", &config)
                })
                .unwrap();
                assert_eq!(report.kept, reference.kept, "cap {cap}, sealed {sealed}");
                assert_eq!(
                    report.dropped, reference.dropped,
                    "cap {cap}, sealed {sealed}"
                );
            }
        }
    }

    #[test]
    fn online_phase_reports_the_same_missing_column_error() {
        crate::parallel::set_threads(4);
        let (encoded, mut candidates) = online_frame();
        let config = PruningConfig::default();
        candidates.insert(5, "nope".to_string());
        candidates.push("gone".to_string());
        let cases = [
            ("Country", "Salary"),
            ("NoSuchExposure", "Salary"),
            ("Country", "NoSuchOutcome"),
        ];
        for (exposure, outcome) in cases {
            let want = reference_prune_online(&encoded, &candidates, exposure, outcome, &config)
                .unwrap_err();
            for cap in [1, 2, 4] {
                let got = crate::parallel::with_thread_cap(cap, || {
                    prune_online(&encoded, &candidates, exposure, outcome, &config)
                })
                .unwrap_err();
                assert_eq!(got, want, "{exposure}/{outcome} at cap {cap}");
            }
        }
    }
}
