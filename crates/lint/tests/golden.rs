//! Golden fixtures: one seeded violation per rule, caught at the exact
//! span, with the human and JSON reports matching committed expectations
//! byte for byte.
//!
//! The fixture sources live under `tests/fixtures/` (a directory the
//! analyzer itself never descends into) and are mounted at in-scope
//! virtual paths via [`Workspace::from_sources`].

use std::path::PathBuf;

use fremont_lint::{analyze, report, Analysis, Config, Severity, Workspace};

fn fixture_workspace() -> Workspace {
    Workspace::from_sources(&[
        (
            "crates/explorers/src/fixture.rs",
            include_str!("fixtures/determinism.rs"),
        ),
        (
            "crates/journal/src/fixture_schema.rs",
            include_str!("fixtures/wal_schema.rs"),
        ),
    ])
}

fn fixture_config() -> Config {
    // Root at the tests directory so the schema rule finds the fixture
    // golden rather than the workspace one.
    let mut cfg = Config::for_root(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests"));
    cfg.golden_path = "fixtures/wal_schema.golden".to_owned();
    cfg
}

/// With `FREMONT_LINT_BLESS=1`, rewrites the committed expectation
/// files from the current run (the next run then asserts against them).
fn maybe_bless(name: &str, rendered: &str) {
    if std::env::var_os("FREMONT_LINT_BLESS").is_some() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures")
            .join(name);
        std::fs::write(path, rendered).expect("bless write");
    }
}

fn run() -> Analysis {
    let (analysis, golden) = analyze(&fixture_workspace(), &fixture_config(), false);
    assert!(golden.is_none(), "not in write mode");
    analysis
}

/// (rule, path, line, col, severity, message fragment) for each seeded
/// violation, in report order.
const EXPECTED: [(&str, &str, u32, u32, Severity, &str); 2] = [
    (
        "determinism",
        "crates/explorers/src/fixture.rs",
        4,
        24,
        Severity::Error,
        "non-deterministic clock `SystemTime`",
    ),
    (
        "wal-schema",
        "crates/journal/src/fixture_schema.rs",
        8,
        1,
        Severity::Error,
        "variant 1 changed from `Named ( u32 )` to `Named ( String )`",
    ),
];

#[test]
fn each_rule_catches_its_seeded_fixture_at_the_exact_span() {
    let analysis = run();
    assert_eq!(
        analysis.violations.len(),
        EXPECTED.len(),
        "exactly one finding per fixture: {:#?}",
        analysis.violations
    );
    for (v, (rule, path, line, col, severity, fragment)) in
        analysis.violations.iter().zip(EXPECTED.iter())
    {
        assert_eq!(v.rule, *rule);
        assert_eq!(v.path, *path, "{rule}");
        assert_eq!((v.line, v.col), (*line, *col), "{rule} span");
        assert_eq!(v.severity, *severity, "{rule}");
        assert!(v.message.contains(fragment), "{rule}: {}", v.message);
    }
}

#[test]
fn human_report_matches_committed_expectation() {
    let rendered = report::human(&run());
    maybe_bless("expected_human.txt", &rendered);
    assert_eq!(rendered, include_str!("fixtures/expected_human.txt"));
}

#[test]
fn json_report_matches_committed_expectation() {
    let rendered = report::json(&run());
    maybe_bless("expected.json", &rendered);
    assert_eq!(rendered, include_str!("fixtures/expected.json"));
}
