//! The analyzer's verdict on the real workspace: zero errors within the
//! suppression budget, and the acceptance property that mutating an
//! existing WAL variant fails the build.

use std::path::Path;

use fremont_lint::{
    analyze, find_workspace_root, Analysis, Config, Severity, SourceFile, Workspace,
};

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

/// The real workspace with `append` added to the end of the file at
/// `path`, analyzed.
fn analyze_with_appended(path: &str, append: &str) -> Analysis {
    let (mut ws, cfg) = real_workspace();
    let idx = ws
        .files
        .iter()
        .position(|f| f.path == path)
        .expect("the mutated file is in the workspace");
    let content = std::fs::read_to_string(cfg.root.join(path)).expect("source readable");
    ws.files[idx] = SourceFile::new(path.to_owned(), &format!("{content}\n{append}"));
    analyze(&ws, &cfg, false).0
}

fn lock_order_errors(analysis: &Analysis) -> Vec<&str> {
    analysis
        .violations
        .iter()
        .filter(|v| v.rule == "lock-order" && v.severity == Severity::Error)
        .map(|v| v.message.as_str())
        .collect()
}

#[test]
fn an_inverted_lock_acquisition_fails_the_build() {
    // Seed a WAL-after-store inversion into the real store: the rule
    // must reject the cycle it closes with the durable write path's
    // WAL-then-store order.
    let analysis = analyze_with_appended(
        "crates/journal/src/store/mod.rs",
        "impl Journal {\n    fn lint_probe_inverted(&self) -> u64 {\n        \
         let st = self.store.read();\n        let w = self.wal.lock();\n        \
         w.next_seq + st.mod_seq\n    }\n}\n",
    );
    let errors = lock_order_errors(&analysis);
    assert!(
        errors
            .iter()
            .any(|m| m.contains("potential lock cycle between `store` and `wal`")),
        "inverted acquisition must be an error: {errors:#?}"
    );
}

#[test]
fn reentering_the_store_lock_fails_the_build() {
    // A query that calls another query with the read guard still held
    // deadlocks behind any waiting writer; the rule follows the call.
    let analysis = analyze_with_appended(
        "crates/journal/src/store/mod.rs",
        "impl Journal {\n    fn lint_probe_reentrant(&self) -> usize {\n        \
         let st = self.store.read();\n        \
         self.get_gateways().len() + st.mod_seq as usize\n    }\n}\n",
    );
    let errors = lock_order_errors(&analysis);
    assert!(
        errors
            .iter()
            .any(|m| m.contains("lock `store` re-acquired while already held")),
        "re-entry must be an error: {errors:#?}"
    );
}

#[test]
fn io_inside_a_shared_journal_closure_is_not_a_held_lock() {
    // `SharedJournal::read` hands the closure the journal and takes no
    // lock, so file IO inside it with nothing else held is clean.
    let analysis = analyze_with_appended(
        "crates/storage/src/durable.rs",
        "impl DurableJournal {\n    fn lint_probe_unlocked_io(&self) -> io::Result<()> {\n        \
         self.shared.read(|j| std::fs::write(\"probe\", j.stats().interfaces.to_string()))\n    \
         }\n}\n",
    );
    let errors = lock_order_errors(&analysis);
    assert!(errors.is_empty(), "no lock is held: {errors:#?}");
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
