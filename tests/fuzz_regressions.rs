//! Permanent tier-1 replay of fuzzer-surfaced and hand-built scenarios.
//!
//! Every seed here runs the full differential harness — all seven oracle
//! families over the complete prepare → extract → kernel → MCIMR → session
//! pipeline. The hand cases pin known-nasty shapes (an all-null column, a
//! cardinality-1 join key, a 5-hop extraction chain); the fixed seeds pin a
//! spread of generated scenarios so oracle regressions surface in `cargo
//! test` without running the fuzz binary. When the fuzzer finds a new
//! counterexample, append its minimized seed to `REGRESSION_SEEDS` with a
//! comment saying what it caught.

use mesa_repro::fuzz::{check, HandCase, Sabotage, Scenario, ORACLE_FAMILIES};

/// Generated-scenario seeds replayed forever. The first three are the fixed
/// smoke spread from PR 10; none has ever failed — they are here so any
/// future oracle break on these shapes is caught at tier 1.
const REGRESSION_SEEDS: [u64; 5] = [
    0xECA1_1071_3326_69D7, // scenario 0 of the canonical --seed 0xMESA run
    0xDEAD_BEEF,           // minimizer acceptance scenario (sealed sabotage)
    0x0000_0000_0000_0007, // small smoke seed used by the harness unit tests
    0x5EED_CAFE_F00D_0001, // mixed dtype spread
    0x5EED_CAFE_F00D_0002, // mixed dtype spread
];

fn assert_scenario_clean(s: &Scenario) {
    match check(s, Sabotage::None) {
        Ok(families) => {
            // Every family except fault-recovery must have actually run;
            // fault-recovery needs the feature flag.
            for family in ORACLE_FAMILIES {
                if family == "fault-recovery" && !cfg!(feature = "fault-injection") {
                    continue;
                }
                assert!(
                    families.contains(&family),
                    "{}: family {family} did not run",
                    s.label
                );
            }
        }
        Err(failure) => panic!(
            "{failure}\nreplay: cargo run --release -p fuzz -- --seed {:#x} --scenarios 1\n{}",
            s.seed,
            s.describe()
        ),
    }
}

#[test]
fn hand_case_all_null_column_passes_every_oracle() {
    assert_scenario_clean(&Scenario::hand(HandCase::AllNullColumn));
}

#[test]
fn hand_case_cardinality_one_key_passes_every_oracle() {
    assert_scenario_clean(&Scenario::hand(HandCase::CardinalityOneKey));
}

#[test]
fn hand_case_five_hop_chain_passes_every_oracle() {
    assert_scenario_clean(&Scenario::hand(HandCase::FiveHopChain));
}

#[test]
fn regression_seeds_pass_every_oracle() {
    for seed in REGRESSION_SEEDS {
        assert_scenario_clean(&Scenario::from_seed(seed));
    }
}

#[test]
fn regression_seeds_replay_identically() {
    // The whole file is meaningless unless seeds reproduce bit-identical
    // scenarios across runs and processes.
    for seed in REGRESSION_SEEDS {
        let a = Scenario::from_seed(seed);
        let b = Scenario::from_seed(seed);
        assert_eq!(a.df, b.df, "seed {seed:#x} dataframe not deterministic");
        assert_eq!(
            a.queries, b.queries,
            "seed {seed:#x} queries not deterministic"
        );
        assert_eq!(
            a.graph.n_triples(),
            b.graph.n_triples(),
            "seed {seed:#x} graph not deterministic"
        );
    }
}
