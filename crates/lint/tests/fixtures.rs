//! Exact-diagnostics tests over the known-bad fixture workspace in
//! `tests/fixtures/ws`. Every rule has at least one firing case, the two
//! literal patterns the old CI grep matched (`.unwrap()`, `panic!(`) appear
//! as serving-path cases, as does an `assert!` outside tests (the
//! `debug_assert!` beside it and an `assert_eq!` under `#[cfg(test)]` stay
//! exempt), and the suppression machinery is exercised in both the honored
//! (reasoned) and ignored (reasonless) direction.

use std::path::PathBuf;

fn fixture_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws")
}

/// `(rule, file, line, col)` of every diagnostic the fixture tree must
/// produce — nothing more, nothing less, in driver (sorted) order.
const EXPECTED: &[(&str, &str, u32, u32)] = &[
    ("bench-schema", "BENCH_bad_fields.json", 4, 1),
    ("bench-schema", "BENCH_bad_fields.json", 5, 1),
    ("bench-schema", "BENCH_bad_fields.json", 6, 1),
    ("bench-schema", "BENCH_bad_fields.json", 6, 1),
    ("bench-schema", "BENCH_broken.json", 6, 1),
    ("fault-point-registry", "crates/kg/src/extraction.rs", 5, 28),
    ("checkpoint-coverage", "crates/kg/src/extraction.rs", 9, 5),
    ("checkpoint-coverage", "crates/kg/src/extraction.rs", 18, 5),
    ("checkpoint-coverage", "crates/kg/src/extraction.rs", 22, 5),
    ("crate-hygiene", "crates/kg/src/extraction.rs", 23, 5),
    ("crate-hygiene", "crates/kg/src/extraction.rs", 24, 5),
    ("crate-hygiene", "crates/kg/src/lib.rs", 1, 1),
    ("forbid-unsafe", "crates/kg/src/lib.rs", 1, 1),
    ("lint-directive", "crates/mesa/src/cache.rs", 6, 5),
    ("serving-panic-free", "crates/mesa/src/cache.rs", 7, 16),
    ("lint-directive", "crates/mesa/src/cache.rs", 11, 5),
    ("lint-directive", "crates/mesa/src/cache.rs", 16, 5),
    ("serving-panic-free", "crates/mesa/src/session.rs", 7, 27),
    ("serving-panic-free", "crates/mesa/src/session.rs", 8, 26),
    ("serving-panic-free", "crates/mesa/src/session.rs", 10, 9),
    ("serving-index", "crates/mesa/src/session.rs", 12, 21),
    ("serving-panic-free", "crates/mesa/src/session.rs", 21, 5),
    (
        "fault-point-registry",
        "crates/parallel/src/faults.rs",
        8,
        5,
    ),
    (
        "fault-point-registry",
        "crates/parallel/src/faults.rs",
        9,
        5,
    ),
    ("safety-comment", "crates/parallel/src/pool.rs", 19, 5),
    ("fault-point-registry", "tests/robustness.rs", 7, 5),
];

#[test]
fn fixture_tree_produces_exactly_the_expected_diagnostics() {
    let diags = lint::run_check(&fixture_root()).expect("fixture tree readable");
    let got: Vec<(&str, String, u32, u32)> = diags
        .iter()
        .map(|d| (d.rule, d.file.to_string_lossy().into_owned(), d.line, d.col))
        .collect();
    let want: Vec<(&str, String, u32, u32)> = EXPECTED
        .iter()
        .map(|&(rule, file, line, col)| (rule, file.to_string(), line, col))
        .collect();
    assert_eq!(got, want, "fixture diagnostics drifted");
}

#[test]
fn every_rule_id_fires_in_the_fixture_tree() {
    // `serving-index` and `safety-comment` etc. must all be represented so
    // a rule cannot silently stop matching.
    for rule in lint::rules::KNOWN_RULES {
        assert!(
            EXPECTED.iter().any(|(r, ..)| r == rule),
            "rule `{rule}` has no fixture case"
        );
    }
}

#[test]
fn diagnostics_render_rule_id_and_location() {
    let diags = lint::run_check(&fixture_root()).expect("fixture tree readable");
    let first = diags.first().expect("fixture tree is known-bad");
    let rendered = first.to_string();
    assert!(rendered.contains("error[bench-schema]"), "got: {rendered}");
    assert!(
        rendered.contains("BENCH_bad_fields.json:4:1"),
        "got: {rendered}"
    );
    assert!(rendered.contains("help:"), "got: {rendered}");
}

#[test]
fn fault_point_report_names_the_fixture_registry() {
    let report = lint::run_fault_points(&fixture_root()).expect("fixture tree readable");
    assert_eq!(
        report.named,
        ["fixture.good", "fixture.ghost", "fixture.untested"]
    );
    assert_eq!(
        report.tested,
        ["fixture.good", "fixture.ghost", "fixture.rogue"]
    );
    assert!(report.sites.contains_key("fixture.rogue"));
    assert!(
        !report.diags.is_empty(),
        "fixture registry drift must be reported"
    );
}

#[test]
fn cli_exits_nonzero_on_fixtures_and_zero_on_rules() {
    let bin = env!("CARGO_BIN_EXE_lint");
    let check = std::process::Command::new(bin)
        .args(["--root"])
        .arg(fixture_root())
        .arg("check")
        .output()
        .expect("lint binary runs");
    assert!(!check.status.success(), "fixture tree must fail the CLI");
    let stderr = String::from_utf8_lossy(&check.stderr);
    assert!(
        stderr.contains("error[serving-panic-free]"),
        "got: {stderr}"
    );

    let rules = std::process::Command::new(bin)
        .arg("rules")
        .output()
        .expect("lint binary runs");
    assert!(rules.status.success());
    let stdout = String::from_utf8_lossy(&rules.stdout);
    for rule in lint::rules::KNOWN_RULES {
        assert!(stdout.contains(rule), "rules listing is missing `{rule}`");
    }
}
