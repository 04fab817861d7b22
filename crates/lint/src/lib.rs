//! `fremont-lint`: a token-level view of the workspace's Rust sources,
//! kept as support for the tests that read program code as a whole.
//!
//! [`Workspace::load`] lexes every `.rs` file outside `vendor/`,
//! `target/`, `tests/`, `benches/` and `examples/` with this crate's own
//! lexer ([`lexer`]) and marks the lines that are test-only code. Two
//! tests in `tests/workspace_clean.rs` read it:
//!
//! - `workspace_is_clean`: program code reads no wall clock and no
//!   ambient entropy, so a discovery run replays from its seed.
//! - `the_four_locks_keep_their_one_order`: the structure that makes
//!   lock order a fact rather than a rule, reading function extents from
//!   [`callgraph`] (DESIGN.md § 6, "Four locks, one order").
//!
//! Panics and discarded `Result`s on the discovery, Journal and WAL paths
//! are the compiler's to catch: the workspace denies clippy's
//! `unwrap_used`, `expect_used`, `panic`, `todo`, `unimplemented`,
//! `unreachable` and `let_underscore_must_use` there (DESIGN.md § 6).
//! The Journal's formats are pinned by committed bytes that must decode
//! and re-encode unchanged (`tests/wal_parent.rs`).

pub mod callgraph;
pub mod lexer;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use lexer::{lex, Tok, TokKind};

/// One lexed source file.
pub struct SourceFile {
    /// Workspace-relative path, unix separators.
    pub path: String,
    /// Code tokens (comments stripped).
    pub code: Vec<Tok>,
    /// Line ranges (inclusive) belonging to `#[cfg(test)]` / `#[test]`
    /// items; the checks skip them.
    test_spans: Vec<(u32, u32)>,
    /// True when the whole file is test-only code: its out-of-line
    /// `mod` declaration in the parent module is `#[cfg(test)]`-gated.
    all_test: bool,
}

impl SourceFile {
    /// Lexes `content` as the file at `path`.
    pub fn new(path: String, content: &str) -> Self {
        let code: Vec<Tok> = lex(content)
            .into_iter()
            .filter(|t| t.kind != TokKind::Comment)
            .collect();
        let test_spans = find_test_spans(&code);
        SourceFile {
            path,
            code,
            test_spans,
            all_test: false,
        }
    }

    /// True when `line` is inside test-only code.
    pub fn in_test(&self, line: u32) -> bool {
        self.all_test || self.test_spans.iter().any(|&(a, b)| a <= line && line <= b)
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
