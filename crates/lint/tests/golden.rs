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
            "crates/storage/src/fixture.rs",
            include_str!("fixtures/panic.rs"),
        ),
        (
            "crates/core/src/fixture.rs",
            include_str!("fixtures/ignored_io.rs"),
        ),
        (
            "crates/journal/src/fixture.rs",
            include_str!("fixtures/lock_order.rs"),
        ),
        (
            "crates/journal/src/fixture_schema.rs",
            include_str!("fixtures/wal_schema.rs"),
        ),
        (
            "crates/telemetry/src/fixture_metrics.rs",
            include_str!("fixtures/metric_registry.rs"),
        ),
    ])
}

fn fixture_config() -> Config {
    // Root at the tests directory so the golden rules find the fixture
    // goldens rather than the workspace ones.
    let mut cfg = Config::for_root(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests"));
    cfg.golden_path = "fixtures/wal_schema.golden".to_owned();
    cfg.metrics_golden_path = "fixtures/metrics.golden".to_owned();
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

fn run() -> (Analysis, Config) {
    let cfg = fixture_config();
    let (analysis, golden) = analyze(&fixture_workspace(), &cfg, false);
    assert!(golden.is_none(), "not in write mode");
    (analysis, cfg)
}

/// (rule, path, line, col, severity, message fragment) for each seeded
/// violation, in report order.
const EXPECTED: [(&str, &str, u32, u32, Severity, &str); 7] = [
    (
        "ignored-io",
        "crates/core/src/fixture.rs",
        4,
        5,
        Severity::Error,
        "discards the result of `flush`",
    ),
    (
        "determinism",
        "crates/explorers/src/fixture.rs",
        4,
        24,
        Severity::Error,
        "non-deterministic clock `SystemTime`",
    ),
    (
        "lock-order",
        "crates/journal/src/fixture.rs",
        10,
        32,
        Severity::Error,
        "held across file IO",
    ),
    (
        "wal-schema",
        "crates/journal/src/fixture_schema.rs",
        8,
        1,
        Severity::Error,
        "variant 1 changed from `Named ( u32 )` to `Named ( String )`",
    ),
    (
        "panic",
        "crates/storage/src/fixture.rs",
        4,
        48,
        Severity::Error,
        "`.unwrap()` in a hot/IO path",
    ),
    (
        "metric-registry",
        "crates/telemetry/src/fixture_metrics.rs",
        8,
        17,
        Severity::Warning,
        "new metric `fremont_fixture_appended_total`",
    ),
    (
        "metric-registry",
        "fixtures/metrics.golden",
        0,
        0,
        Severity::Error,
        "metric `fremont_fixture_renamed_total` was removed or renamed",
    ),
];

#[test]
fn each_rule_catches_its_seeded_fixture_at_the_exact_span() {
    let (analysis, _) = run();
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
    let (analysis, cfg) = run();
    let rendered = report::human(&analysis, cfg.max_suppressions);
    maybe_bless("expected_human.txt", &rendered);
    assert_eq!(rendered, include_str!("fixtures/expected_human.txt"));
}

#[test]
fn json_report_matches_committed_expectation() {
    let (analysis, cfg) = run();
    let rendered = report::json(&analysis, cfg.max_suppressions);
    maybe_bless("expected.json", &rendered);
    assert_eq!(rendered, include_str!("fixtures/expected.json"));
}

#[test]
fn a_suppression_silences_exactly_its_rule_and_is_counted() {
    let cfg = fixture_config();
    let suppressed = format!(
        "// fremont-lint: allow(determinism) -- fixture exercises the suppression path\n{}",
        include_str!("fixtures/determinism.rs")
    );
    // The annotation sits on the line above the doc comment, two lines
    // above the finding — too far, so nothing changes…
    let ws = Workspace::from_sources(&[("crates/explorers/src/fixture.rs", &suppressed)]);
    let (analysis, _) = analyze(&ws, &cfg, false);
    assert!(
        analysis.violations.iter().any(|v| v.rule == "determinism"),
        "annotation out of range does not suppress"
    );
    // …while one directly above the offending line does.
    let adjacent = include_str!("fixtures/determinism.rs").replace(
        "    let t = std::time::SystemTime::now();",
        "    // fremont-lint: allow(determinism) -- fixture exercises the suppression path\n    let t = std::time::SystemTime::now();",
    );
    let ws = Workspace::from_sources(&[("crates/explorers/src/fixture.rs", &adjacent)]);
    let (analysis, _) = analyze(&ws, &cfg, false);
    assert!(
        !analysis.violations.iter().any(|v| v.rule == "determinism"),
        "{:#?}",
        analysis.violations
    );
    assert_eq!(
        (analysis.suppressions_used, analysis.suppressions_total),
        (1, 1)
    );
}
