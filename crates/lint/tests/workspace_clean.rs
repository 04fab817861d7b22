//! The analyzer's verdict on the real workspace: zero errors within the
//! suppression budget, and the acceptance property that mutating an
//! existing WAL variant fails the build.

use std::path::Path;

use fremont_lint::{analyze, find_workspace_root, Config, Severity, SourceFile, Workspace};

fn real_workspace() -> (Workspace, Config) {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("lint crate lives inside the workspace");
    let ws = Workspace::load(&root).expect("workspace sources readable");
    let cfg = Config::for_root(root);
    (ws, cfg)
}

#[test]
fn workspace_is_clean_within_the_suppression_budget() {
    let (ws, cfg) = real_workspace();
    let (analysis, golden) = analyze(&ws, &cfg, false);
    assert!(golden.is_none());
    let errors: Vec<_> = analysis
        .violations
        .iter()
        .filter(|v| v.severity == Severity::Error)
        .collect();
    assert!(errors.is_empty(), "{errors:#?}");
    assert!(
        analysis.suppressions_total <= cfg.max_suppressions,
        "{} suppressions exceed the budget of {}",
        analysis.suppressions_total,
        cfg.max_suppressions
    );
    // Hygiene: every committed suppression still earns its keep.
    assert_eq!(analysis.suppressions_used, analysis.suppressions_total);
}

#[test]
fn mutating_an_existing_wal_variant_fails_the_build() {
    let (mut ws, cfg) = real_workspace();
    let path = "crates/journal/src/observation.rs";
    let idx = ws
        .files
        .iter()
        .position(|f| f.path == path)
        .expect("observation.rs is part of the schema scope");
    let content = std::fs::read_to_string(cfg.root.join(path)).expect("observation.rs readable");
    let mutated = content.replace("mask_assumed: bool", "mask_assumed: u8");
    assert_ne!(content, mutated, "the guarded field exists");
    ws.files[idx] = SourceFile::new(path.to_owned(), &mutated);

    let (analysis, _) = analyze(&ws, &cfg, false);
    assert!(
        analysis.violations.iter().any(|v| v.rule == "wal-schema"
            && v.severity == Severity::Error
            && v.message.contains("variant")),
        "mutated Fact variant must be an error: {:#?}",
        analysis.violations
    );
}

#[test]
fn an_inverted_lock_acquisition_fails_the_build() {
    // The static half of the acceptance criterion: seed a WAL-after-
    // store inversion into the real store and the `lock-order` rule
    // must reject the cycle it closes with the durable write path's
    // WAL-then-store order (the sanitizer half lives in
    // crates/journal/tests/lock_sanitizer.rs).
    let (mut ws, cfg) = real_workspace();
    let path = "crates/journal/src/store/mod.rs";
    let idx = ws
        .files
        .iter()
        .position(|f| f.path == path)
        .expect("the store is in the workspace");
    let content = std::fs::read_to_string(cfg.root.join(path)).expect("store readable");
    let mutated = format!(
        "{content}\nimpl Journal {{\n    fn lint_probe_inverted(&self) -> u64 {{\n        \
         let st = self.store.read();\n        let w = self.wal.lock();\n        \
         w.next_seq + st.mod_seq\n    }}\n}}\n"
    );
    ws.files[idx] = SourceFile::new(path.to_owned(), &mutated);

    let (analysis, _) = analyze(&ws, &cfg, false);
    assert!(
        analysis.violations.iter().any(|v| v.rule == "lock-order"
            && v.severity == Severity::Error
            && v.message
                .contains("potential lock cycle between `store` and `wal`")),
        "inverted acquisition must be an error: {:#?}",
        analysis.violations
    );
}

#[test]
fn renaming_a_metric_fails_the_build() {
    let (mut ws, cfg) = real_workspace();
    let path = "crates/journal/src/server.rs";
    let idx = ws
        .files
        .iter()
        .position(|f| f.path == path)
        .expect("server.rs is in the workspace");
    let content = std::fs::read_to_string(cfg.root.join(path)).expect("server.rs readable");
    let mutated = content.replace(
        "fremont_journal_connections_total",
        "fremont_journal_sessions_total",
    );
    assert_ne!(content, mutated, "the guarded metric exists");
    ws.files[idx] = SourceFile::new(path.to_owned(), &mutated);

    let (analysis, _) = analyze(&ws, &cfg, false);
    assert!(
        analysis
            .violations
            .iter()
            .any(|v| v.rule == "metric-registry"
                && v.severity == Severity::Error
                && v.message.contains("fremont_journal_connections_total")),
        "renamed metric must be an error: {:#?}",
        analysis.violations
    );
    assert!(
        analysis
            .violations
            .iter()
            .any(|v| v.rule == "metric-registry"
                && v.severity == Severity::Warning
                && v.message.contains("fremont_journal_sessions_total")),
        "the new name stays a warning until registered: {:#?}",
        analysis.violations
    );
}

#[test]
fn appending_a_wal_variant_is_only_a_warning() {
    let (mut ws, cfg) = real_workspace();
    let path = "crates/journal/src/observation.rs";
    let idx = ws
        .files
        .iter()
        .position(|f| f.path == path)
        .expect("observation.rs is part of the schema scope");
    let content = std::fs::read_to_string(cfg.root.join(path)).expect("observation.rs readable");
    // Append a new variant after Fact's last (RipSource ends the enum).
    let marker = "        promiscuous: bool,\n    },\n}";
    assert!(content.contains(marker), "Fact ends with RipSource");
    let mutated = content.replacen(
        marker,
        "        promiscuous: bool,\n    },\n    FixtureAppended { tag: u32 },\n}",
        1,
    );
    ws.files[idx] = SourceFile::new(path.to_owned(), &mutated);

    let (analysis, _) = analyze(&ws, &cfg, false);
    let schema: Vec<_> = analysis
        .violations
        .iter()
        .filter(|v| v.rule == "wal-schema")
        .collect();
    assert!(!schema.is_empty(), "append is visible");
    assert!(
        schema.iter().all(|v| v.severity == Severity::Warning),
        "append stays a warning until the golden is refreshed: {schema:#?}"
    );
}
