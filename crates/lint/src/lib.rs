//! `fremont-lint`: in-tree static analysis for Fremont's whole-codebase
//! invariants.
//!
//! The Journal's value is cross-correlating timestamped observations,
//! which only holds if discovery runs are replayable and the durable WAL
//! never silently changes format or panics mid-append. Those are
//! properties no unit test can guard — one `SystemTime::now()` added to
//! an explorer breaks replay everywhere — so this crate walks every
//! `.rs` file in the workspace with its own token-level lexer
//! ([`lexer`]), builds a cross-crate symbol table and call graph
//! ([`callgraph`]), and enforces six rules:
//!
//! | rule               | invariant |
//! |--------------------|-----------|
//! | `determinism`      | no wall-clock / unseeded RNG outside the clock module |
//! | `panic`            | no `unwrap`/`expect`/`panic!` reachable from hot/IO paths |
//! | `ignored-io`       | no `let _ =` discarding a (transitive) flush/sync result |
//! | `lock-order`       | no lock cycles; no lock held across file IO |
//! | `metric-registry`  | `fremont_*` metric names are append-only vs a golden |
//! | `wal-schema`       | serialized record types are append-only vs a golden |
//!
//! `panic`, `ignored-io`, and `lock-order` follow call chains across
//! crate boundaries (resolved through `use` imports and qualified
//! paths, with a one-definition precision guard per resolved crate).
//!
//! Findings can be suppressed inline with
//! `// fremont-lint: allow(<rule>) -- <reason>` on the offending line or
//! the line above; suppressions are counted against a workspace budget
//! and unused or reasonless ones are themselves violations.

pub mod callgraph;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod suppress;

use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};

use lexer::{lex, Tok, TokKind};
use suppress::Suppression;

/// All rule names, in reporting order.
pub const RULES: [&str; 6] = [
    "determinism",
    "panic",
    "ignored-io",
    "lock-order",
    "metric-registry",
    "wal-schema",
];

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory (does not affect the exit code): e.g. an appended WAL
    /// variant awaiting a golden refresh.
    Warning,
    /// An invariant violation: fails the build.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One finding.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which rule fired (one of [`RULES`], or `suppression`).
    pub rule: &'static str,
    /// Workspace-relative path (unix separators).
    pub path: String,
    /// 1-based source line (0 when the finding is file-level).
    pub line: u32,
    /// 1-based source column (0 when unknown).
    pub col: u32,
    pub severity: Severity,
    pub message: String,
}

/// Analyzer configuration: which paths each rule covers.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workspace root (where `Cargo.toml` with `[workspace]` lives).
    pub root: PathBuf,
    /// Path prefixes where wall-clock/RNG use is allowed (the clock
    /// module; `vendor/` and test code are always exempt).
    pub clock_allowlist: Vec<String>,
    /// Path prefixes the panic-freedom rule covers (hot/IO paths).
    pub panic_scope: Vec<String>,
    /// Path prefixes whose serialized types are schema-fingerprinted.
    pub schema_scope: Vec<String>,
    /// Workspace-relative path of the committed schema golden.
    pub golden_path: String,
    /// Workspace-relative path of the committed metric-name golden.
    pub metrics_golden_path: String,
    /// Path prefixes excluded from metric collection (the lint crate's
    /// own fixtures and matchers).
    pub metric_exclude: Vec<String>,
    /// Maximum `fremont-lint: allow` annotations tolerated workspace-wide.
    pub max_suppressions: usize,
}

impl Config {
    /// The Fremont workspace defaults.
    pub fn for_root(root: PathBuf) -> Self {
        Config {
            root,
            clock_allowlist: vec!["crates/journal/src/time.rs".to_owned()],
            panic_scope: vec![
                "crates/storage/".to_owned(),
                "crates/explorers/".to_owned(),
                "crates/core/src/driver.rs".to_owned(),
                "crates/telemetry/".to_owned(),
                "crates/journal/src/store/".to_owned(),
                "crates/netsim/src/faults.rs".to_owned(),
                "crates/netsim/src/sched.rs".to_owned(),
                "crates/mc/".to_owned(),
            ],
            schema_scope: vec![
                "crates/journal/src/".to_owned(),
                "crates/storage/src/".to_owned(),
                "crates/netsim/src/faults.rs".to_owned(),
            ],
            golden_path: "crates/lint/wal-schema.golden".to_owned(),
            metrics_golden_path: "crates/lint/metrics.golden".to_owned(),
            metric_exclude: vec!["crates/lint/".to_owned()],
            max_suppressions: 8,
        }
    }
}

/// One lexed source file.
pub struct SourceFile {
    /// Workspace-relative path, unix separators.
    pub path: String,
    /// Code tokens (comments stripped).
    pub code: Vec<Tok>,
    /// Suppression annotations parsed from comments.
    pub suppressions: Vec<Suppression>,
    /// Line ranges (inclusive) belonging to `#[cfg(test)]` / `#[test]`
    /// items; rules skip them.
    test_spans: Vec<(u32, u32)>,
    /// True when the whole file is test-only code: its out-of-line
    /// `mod` declaration in the parent module is `#[cfg(test)]`-gated.
    all_test: bool,
}

impl SourceFile {
    /// Lexes `content` as the file at `path`.
    pub fn new(path: String, content: &str) -> Self {
        let toks = lex(content);
        let code: Vec<Tok> = toks
            .iter()
            .filter(|t| t.kind != TokKind::Comment)
            .cloned()
            .collect();
        let suppressions = suppress::parse(&toks);
        let test_spans = find_test_spans(&code);
        SourceFile {
            path,
            code,
            suppressions,
            test_spans,
            all_test: false,
        }
    }

    /// True when `line` is inside test-only code.
    pub fn in_test(&self, line: u32) -> bool {
        self.all_test || self.test_spans.iter().any(|&(a, b)| a <= line && line <= b)
    }

    /// True when the path starts with any of the given prefixes.
    pub fn in_scope(&self, prefixes: &[String]) -> bool {
        prefixes.iter().any(|p| self.path.starts_with(p.as_str()))
    }
}

/// Finds line spans of items annotated `#[cfg(test)]` or `#[test]`
/// (attribute through the end of the item's `{…}` block or `;`).
fn find_test_spans(code: &[Tok]) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < code.len() {
        if !(code[i].is_punct('#') && code.get(i + 1).is_some_and(|t| t.is_punct('['))) {
            i += 1;
            continue;
        }
        let attr_line = code[i].line;
        let (attr_end, is_test) = scan_attr(code, i + 1);
        if !is_test {
            i = attr_end;
            continue;
        }
        // Skip any further attributes on the same item.
        let mut j = attr_end;
        while j < code.len()
            && code[j].is_punct('#')
            && code.get(j + 1).is_some_and(|t| t.is_punct('['))
        {
            let (e, _) = scan_attr(code, j + 1);
            j = e;
        }
        // The item runs to its first top-level `{…}` block or `;`.
        let mut depth = 0i32;
        let mut end_line = code.get(j).map_or(attr_line, |t| t.line);
        while j < code.len() {
            let t = &code[j];
            end_line = t.line;
            match t.text.as_str() {
                "{" if t.kind == TokKind::Punct => depth += 1,
                "}" if t.kind == TokKind::Punct => {
                    depth -= 1;
                    if depth <= 0 {
                        break;
                    }
                }
                ";" if t.kind == TokKind::Punct && depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        spans.push((attr_line, end_line));
        i = j + 1;
    }
    spans
}

/// Scans an attribute starting at its `[` index; returns (index after
/// the closing `]`, whether it marks test-only code).
fn scan_attr(code: &[Tok], open: usize) -> (usize, bool) {
    let mut depth = 0i32;
    let mut has_test = false;
    let mut has_not = false;
    let mut j = open;
    while j < code.len() {
        let t = &code[j];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        return (j + 1, has_test && !has_not);
                    }
                }
                _ => {}
            }
        } else if t.kind == TokKind::Ident {
            match t.text.as_str() {
                "test" => has_test = true,
                "not" => has_not = true,
                _ => {}
            }
        }
        j += 1;
    }
    (code.len(), false)
}

/// The loaded workspace: every analyzable `.rs` file.
pub struct Workspace {
    pub files: Vec<SourceFile>,
}

/// Directory names never descended into. `tests/`, `benches/`,
/// `examples/`, and `fixtures/` hold test-only code (the same exemption
/// as `#[cfg(test)]` modules); `vendor/` is third-party.
const SKIP_DIRS: [&str; 7] = [
    "vendor", "target", "tests", "benches", "examples", "fixtures", ".git",
];

impl Workspace {
    /// Walks `root` collecting `.rs` files, skipping [`SKIP_DIRS`].
    pub fn load(root: &Path) -> std::io::Result<Workspace> {
        let mut rel_paths = Vec::new();
        collect(root, root, &mut rel_paths)?;
        rel_paths.sort();
        let mut files = Vec::with_capacity(rel_paths.len());
        for rel in rel_paths {
            let content = std::fs::read_to_string(root.join(&rel))?;
            files.push(SourceFile::new(rel, &content));
        }
        mark_cfg_test_modules(&mut files);
        Ok(Workspace { files })
    }

    /// Builds a workspace from in-memory (path, content) pairs — the
    /// unit-test entry point.
    pub fn from_sources(sources: &[(&str, &str)]) -> Workspace {
        let mut files: Vec<SourceFile> = sources
            .iter()
            .map(|(p, c)| SourceFile::new((*p).to_owned(), c))
            .collect();
        mark_cfg_test_modules(&mut files);
        Workspace { files }
    }
}

/// The directory an out-of-line `mod foo;` in `path` resolves against:
/// `lib.rs`/`main.rs`/`mod.rs` own their directory, `bar.rs` owns `bar/`.
fn parent_module_dir(path: &str) -> String {
    let (dir, file) = match path.rsplit_once('/') {
        Some((d, f)) => (format!("{d}/"), f),
        None => (String::new(), path),
    };
    if matches!(file, "lib.rs" | "main.rs" | "mod.rs") {
        dir
    } else {
        format!("{dir}{}/", file.trim_end_matches(".rs"))
    }
}

/// Marks files test-only when their out-of-line `mod` declaration is
/// `#[cfg(test)]`-gated (e.g. `#[cfg(test)] mod testutil;`), iterating
/// so modules of test-only modules are covered too. `#[cfg(test)]` only
/// applies across files through this declaration, which per-file
/// `test_spans` cannot see.
fn mark_cfg_test_modules(files: &mut [SourceFile]) {
    loop {
        let mut test_files: BTreeSet<String> = BTreeSet::new();
        for f in files.iter() {
            for (i, t) in f.code.iter().enumerate() {
                if !(t.is_ident("mod")
                    && f.code.get(i + 1).is_some_and(|n| n.kind == TokKind::Ident)
                    && f.code.get(i + 2).is_some_and(|n| n.is_punct(';'))
                    && f.in_test(t.line))
                {
                    continue;
                }
                let dir = parent_module_dir(&f.path);
                let name = &f.code[i + 1].text;
                test_files.insert(format!("{dir}{name}.rs"));
                test_files.insert(format!("{dir}{name}/mod.rs"));
            }
        }
        let mut changed = false;
        for f in files.iter_mut() {
            if !f.all_test && test_files.contains(&f.path) {
                f.all_test = true;
                changed = true;
            }
        }
        if !changed {
            return;
        }
    }
}

fn collect(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    Ok(())
}

/// The full result of one analyzer run.
pub struct Analysis {
    /// Findings that survived suppression, sorted by position.
    pub violations: Vec<Violation>,
    /// Findings silenced by a matching suppression, sorted by position
    /// (surfaced in `--json` output so tooling can audit what the
    /// annotations are hiding).
    pub suppressed: Vec<Violation>,
    /// Suppression annotations that matched a finding.
    pub suppressions_used: usize,
    /// All suppression annotations seen.
    pub suppressions_total: usize,
    /// Files scanned.
    pub files: usize,
}

impl Analysis {
    /// Error-severity findings.
    pub fn errors(&self) -> usize {
        self.violations
            .iter()
            .filter(|v| v.severity == Severity::Error)
            .count()
    }

    /// Warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.violations
            .iter()
            .filter(|v| v.severity == Severity::Warning)
            .count()
    }
}

/// The two committed goldens, re-rendered. Returned from [`analyze`]
/// when `write_golden` is set, for the caller to persist.
pub struct Goldens {
    /// New content for `Config::golden_path` (WAL record fingerprints).
    pub wal_schema: String,
    /// New content for `Config::metrics_golden_path` (metric names).
    pub metrics: String,
}

/// Runs every rule over the workspace and applies suppressions.
///
/// `write_golden` regenerates the two committed goldens (WAL schema,
/// metric registry) instead of checking against them; the returned
/// [`Goldens`] holds the new contents for the caller to persist.
pub fn analyze(ws: &Workspace, cfg: &Config, write_golden: bool) -> (Analysis, Option<Goldens>) {
    let cg = callgraph::CallGraph::build(ws);
    let mut raw: Vec<Violation> = Vec::new();
    raw.extend(rules::determinism::check(ws, cfg));
    raw.extend(rules::panics::check(ws, cfg, &cg));
    raw.extend(rules::ignored_io::check(ws, cfg, &cg));
    raw.extend(rules::lock_order::check(ws, &cg));
    let (metric_violations, metrics_golden) = rules::metric_registry::check(ws, cfg, write_golden);
    raw.extend(metric_violations);
    let (schema_violations, wal_golden) = rules::schema::check(ws, cfg, write_golden);
    raw.extend(schema_violations);

    let goldens = write_golden.then(|| Goldens {
        wal_schema: wal_golden.unwrap_or_default(),
        metrics: metrics_golden.unwrap_or_default(),
    });

    // Apply suppressions: an annotation covers its own line and the
    // next line, for its listed rules only.
    let mut violations = Vec::new();
    let mut suppressed_out = Vec::new();
    for v in raw {
        let suppressed = ws
            .files
            .iter()
            .find(|f| f.path == v.path)
            .map(|f| {
                f.suppressions.iter().any(|s| {
                    s.covers(v.rule, v.line) && {
                        s.mark_used();
                        true
                    }
                })
            })
            .unwrap_or(false);
        if suppressed {
            suppressed_out.push(v);
        } else {
            violations.push(v);
        }
    }

    // Suppression hygiene: a reason is mandatory; unused annotations rot.
    let mut used = 0usize;
    let mut total = 0usize;
    for f in &ws.files {
        for s in &f.suppressions {
            total += 1;
            if s.used() {
                used += 1;
            }
            if let Some(problem) = s.problem() {
                violations.push(Violation {
                    rule: "suppression",
                    path: f.path.clone(),
                    line: s.line,
                    col: 1,
                    severity: Severity::Error,
                    message: problem,
                });
            } else if !s.used() {
                violations.push(Violation {
                    rule: "suppression",
                    path: f.path.clone(),
                    line: s.line,
                    col: 1,
                    severity: Severity::Warning,
                    message: format!(
                        "unused suppression for `{}` — the finding it silenced is gone; remove it",
                        s.rules.join(", ")
                    ),
                });
            }
        }
    }
    if total > cfg.max_suppressions {
        violations.push(Violation {
            rule: "suppression",
            path: String::new(),
            line: 0,
            col: 0,
            severity: Severity::Error,
            message: format!(
                "{total} suppression annotations exceed the workspace budget of {} — fix findings instead of silencing them",
                cfg.max_suppressions
            ),
        });
    }

    let by_pos = |a: &Violation, b: &Violation| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    };
    violations.sort_by(by_pos);
    suppressed_out.sort_by(by_pos);
    (
        Analysis {
            violations,
            suppressed: suppressed_out,
            suppressions_used: used,
            suppressions_total: total,
            files: ws.files.len(),
        },
        goldens,
    )
}

/// Locates the workspace root: walks up from `start` looking for a
/// `Cargo.toml` containing `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_mod_declarations_mark_the_whole_child_file() {
        let ws = Workspace::from_sources(&[
            (
                "crates/explorers/src/lib.rs",
                "#[cfg(test)]\nmod testutil;\nmod ping;\n",
            ),
            ("crates/explorers/src/testutil.rs", "pub fn topo() {}\n"),
            ("crates/explorers/src/ping.rs", "pub fn run() {}\n"),
        ]);
        let by_path = |p: &str| ws.files.iter().find(|f| f.path == p).unwrap();
        assert!(by_path("crates/explorers/src/testutil.rs").in_test(1));
        assert!(!by_path("crates/explorers/src/ping.rs").in_test(1));
    }

    #[test]
    fn test_only_marking_is_transitive_through_mod_rs() {
        let ws = Workspace::from_sources(&[
            ("src/lib.rs", "#[cfg(test)]\nmod harness;\n"),
            ("src/harness/mod.rs", "mod fixtures;\n"),
            ("src/harness/fixtures.rs", "pub fn all() {}\n"),
        ]);
        let fixtures = ws
            .files
            .iter()
            .find(|f| f.path == "src/harness/fixtures.rs")
            .unwrap();
        assert!(fixtures.in_test(1));
    }

    #[test]
    fn module_dirs_resolve_like_rustc() {
        assert_eq!(parent_module_dir("crates/x/src/lib.rs"), "crates/x/src/");
        assert_eq!(
            parent_module_dir("crates/x/src/a/mod.rs"),
            "crates/x/src/a/"
        );
        assert_eq!(parent_module_dir("crates/x/src/a.rs"), "crates/x/src/a/");
        assert_eq!(parent_module_dir("main.rs"), "");
    }
}
