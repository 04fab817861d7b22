//! Cross-crate symbol table and call graph.
//!
//! `fremont-lint`'s two interprocedural rules (`panic`, `ignored-io`)
//! follow call chains like `DiscoveryDriver::run_for →
//! Journal::apply_batch → WalWriter::append_batch` that cross crate
//! boundaries, and the lock-structure check in
//! `tests/workspace_clean.rs` reads function extents. This module
//! builds the workspace-wide view they share:
//!
//! * a **symbol table** of every `fn` definition with its body's token
//!   extent, keyed by `(crate, name)` for the non-test ones;
//! * per-file **import maps** from `use fremont_*::…` statements
//!   (including `as` renames and `{…}` groups; globs are ignored);
//! * **call sites** with their path qualifier head, so
//!   `fremont_journal::store::f()` and `Journal::apply_batch()` (with
//!   `Journal` imported) resolve into the defining crate.
//!
//! Resolution keeps the one-definition precision guard *per resolved
//! crate*: a callee links only when its name has exactly one non-test
//! definition in the crate the qualifier/import selects (or, for bare
//! names, in the caller's own crate — falling back to a
//! workspace-unique definition). Ambiguous names — trait methods with
//! several impls, std lookalikes (`new`, `insert`, `get`) — never link:
//! a wrong edge would manufacture findings that force untrue
//! suppressions, while a missing edge at worst loses a chain the
//! direct-scan rules usually catch anyway.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{Tok, TokKind};
use crate::rules::matching_close;
use crate::Workspace;

/// Keywords never treated as function calls.
pub(crate) const KEYWORDS: [&str; 14] = [
    "if", "else", "while", "for", "loop", "match", "return", "let", "fn", "move", "in", "as",
    "where", "unsafe",
];

/// Path heads that never select a workspace crate.
const PATH_KEYWORDS: [&str; 3] = ["self", "crate", "super"];

/// One `fn` definition (token extent of its body).
pub struct FnDef {
    pub name: String,
    /// Index into `Workspace::files`.
    pub file: usize,
    /// First token index inside the body `{…}`.
    pub body_start: usize,
    /// Token index of the body's closing `}`.
    pub body_end: usize,
    /// Line of the `fn` name token.
    pub line: u32,
    /// Defined inside `#[cfg(test)]` / `#[test]` code.
    pub in_test: bool,
}

/// One call site inside a function body.
pub struct CallSite {
    /// The called name (last path segment).
    pub name: String,
    /// Head segment of a `::` path qualifier, if any:
    /// `fremont_journal::store::f()` → `fremont_journal`,
    /// `Journal::apply_batch()` → `Journal`; `None` for bare calls and
    /// method calls.
    pub qual: Option<String>,
    pub line: u32,
    pub col: u32,
}

/// The workspace-wide symbol table + resolved call graph.
pub struct CallGraph {
    /// Every `fn` found, test or not, in workspace file order.
    pub fns: Vec<FnDef>,
    /// Resolved call edges: `crate::name` → set of callee `crate::name`s
    /// (non-test functions only).
    pub calls: BTreeMap<String, BTreeSet<String>>,
    file_crate: Vec<String>,
    imports: Vec<BTreeMap<String, String>>,
    extern_to_key: BTreeMap<String, String>,
    def_count: BTreeMap<(String, String), usize>,
    /// name → (workspace-wide non-test definition count, sole crate).
    global: BTreeMap<String, (usize, String)>,
}

/// The crate a workspace-relative path belongs to (`crates/net/src/…` →
/// `net`; anything else is keyed by its top-level directory, so the root
/// `fremont` facade is `src`).
pub fn crate_of(path: &str) -> String {
    let mut parts = path.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(name)) => name.to_owned(),
        (Some(top), _) => top.to_owned(),
        _ => String::new(),
    }
}

impl CallGraph {
    /// Builds the symbol table, import maps, and resolved call edges.
    pub fn build(ws: &Workspace) -> CallGraph {
        let file_crate: Vec<String> = ws.files.iter().map(|f| crate_of(&f.path)).collect();

        // Extern crate names: `crates/net` is `use fremont_net::…`; the
        // root facade package is `fremont` itself.
        let mut extern_to_key: BTreeMap<String, String> = BTreeMap::new();
        for key in file_crate.iter().collect::<BTreeSet<_>>() {
            let ext = if key == "src" {
                "fremont".to_owned()
            } else {
                format!("fremont_{}", key.replace('-', "_"))
            };
            extern_to_key.insert(ext, key.clone());
        }

        let mut fns = Vec::new();
        for (fi, file) in ws.files.iter().enumerate() {
            collect_functions(fi, &file.code, &mut fns);
        }
        for f in &mut fns {
            f.in_test = ws.files[f.file].in_test(f.line);
        }

        let mut def_count: BTreeMap<(String, String), usize> = BTreeMap::new();
        let mut global: BTreeMap<String, (usize, String)> = BTreeMap::new();
        for f in fns.iter().filter(|f| !f.in_test) {
            let krate = file_crate[f.file].clone();
            *def_count
                .entry((krate.clone(), f.name.clone()))
                .or_insert(0) += 1;
            let g = global.entry(f.name.clone()).or_insert((0, krate.clone()));
            g.0 += 1;
            g.1 = krate;
        }
        // `global` must point at a *sole* crate: names defined once each
        // in two crates are ambiguous, so spoil their entry.
        let mut per_crate_names: BTreeMap<&String, BTreeSet<&String>> = BTreeMap::new();
        for (krate, name) in def_count.keys() {
            per_crate_names.entry(name).or_default().insert(krate);
        }
        for (name, krates) in per_crate_names {
            if krates.len() > 1 {
                if let Some(g) = global.get_mut(name) {
                    g.0 = usize::MAX; // never equal to 1
                }
            }
        }

        let imports: Vec<BTreeMap<String, String>> = ws
            .files
            .iter()
            .map(|f| parse_imports(&f.code, &extern_to_key))
            .collect();

        let mut cg = CallGraph {
            fns,
            calls: BTreeMap::new(),
            file_crate,
            imports,
            extern_to_key,
            def_count,
            global,
        };

        let mut calls: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for f in cg.fns.iter().filter(|f| !f.in_test) {
            let Some(qname) = cg.qname_of(f) else {
                continue;
            };
            let code = &ws.files[f.file].code;
            let callees = calls.entry(qname).or_default();
            for site in calls_in_range(code, f.body_start, f.body_end) {
                if let Some(q) = cg.resolve(f.file, &site) {
                    callees.insert(q);
                }
            }
        }
        cg.calls = calls;
        cg
    }

    /// The qualified name a definition contributes to the call graph,
    /// when its bare name is unambiguous in its own crate.
    pub fn qname_of(&self, f: &FnDef) -> Option<String> {
        if f.in_test {
            return None;
        }
        self.unique_in(&self.file_crate[f.file], &f.name)
    }

    /// Resolves a call site from `caller_file` to a defining
    /// `crate::name`, or `None` when ambiguous (see module docs).
    pub fn resolve(&self, caller_file: usize, site: &CallSite) -> Option<String> {
        if let Some(q) = &site.qual {
            if let Some(key) = self.extern_to_key.get(q) {
                return self.unique_in(key, &site.name);
            }
            if let Some(key) = self.imports[caller_file].get(q) {
                return self.unique_in(key, &site.name);
            }
            // `crate::`, `self::`, local module or type paths.
            return self.unique_in(&self.file_crate[caller_file], &site.name);
        }
        let home = &self.file_crate[caller_file];
        match self.count(home, &site.name) {
            1 => Some(format!("{home}::{}", site.name)),
            0 => {
                // A directly imported free function, else the workspace
                // fallback: exactly one definition anywhere.
                if let Some(key) = self.imports[caller_file].get(&site.name) {
                    return self.unique_in(key, &site.name);
                }
                match self.global.get(&site.name) {
                    Some((1, krate)) => Some(format!("{krate}::{}", site.name)),
                    _ => None,
                }
            }
            _ => None,
        }
    }

    fn count(&self, krate: &str, name: &str) -> usize {
        self.def_count
            .get(&(krate.to_owned(), name.to_owned()))
            .copied()
            .unwrap_or(0)
    }

    fn unique_in(&self, krate: &str, name: &str) -> Option<String> {
        if self.count(krate, name) == 1 {
            Some(format!("{krate}::{name}"))
        } else {
            None
        }
    }
}

/// Finds `fn name … { body }` items (test flag filled in later).
fn collect_functions(file: usize, code: &[Tok], out: &mut Vec<FnDef>) {
    let mut i = 0usize;
    while i < code.len() {
        if !code[i].is_ident("fn") {
            i += 1;
            continue;
        }
        let Some(name_tok) = code.get(i + 1) else {
            break;
        };
        if name_tok.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        // Parameter list.
        let mut j = i + 2;
        while j < code.len() && !code[j].is_punct('(') {
            j += 1;
        }
        if j >= code.len() {
            break;
        }
        let params_close = matching_close(code, j);
        // Body `{` or declaration `;`.
        let mut k = params_close + 1;
        while k < code.len() && !code[k].is_punct('{') && !code[k].is_punct(';') {
            k += 1;
        }
        if k >= code.len() || code[k].is_punct(';') {
            i = k.max(i + 1);
            continue;
        }
        let body_end = matching_close(code, k);
        out.push(FnDef {
            name: name_tok.text.clone(),
            file,
            body_start: k + 1,
            body_end,
            line: name_tok.line,
            in_test: false,
        });
        // Continue *inside* the body so nested fns are found too; their
        // calls are attributed to both, which only over-reports.
        i = k + 1;
    }
}

/// Parses `use fremont_*::…` statements into an imported-name → crate
/// map. Handles simple paths, `{…}` groups (nested), and `as` renames;
/// `*` globs and `self` re-exports record nothing.
fn parse_imports(
    code: &[Tok],
    extern_to_key: &BTreeMap<String, String>,
) -> BTreeMap<String, String> {
    let mut imports = BTreeMap::new();
    let mut i = 0usize;
    while i < code.len() {
        if !code[i].is_ident("use") {
            i += 1;
            continue;
        }
        let stmt_ok = i == 0
            || code[i - 1].is_punct(';')
            || code[i - 1].is_punct('{')
            || code[i - 1].is_punct('}')
            || code[i - 1].is_ident("pub");
        let Some(head) = code.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
            i += 1;
            continue;
        };
        let Some(key) = extern_to_key.get(&head.text).filter(|_| stmt_ok) else {
            // Not a workspace crate: skip to the statement's `;`.
            while i < code.len() && !code[i].is_punct(';') {
                i += 1;
            }
            continue;
        };
        // Walk to `;`, recording each leaf name (an ident followed by
        // `,`, `}`, `;`) or `as` alias.
        let mut last: Option<String> = None;
        let mut t = i + 2;
        while t < code.len() && !code[t].is_punct(';') {
            let tok = &code[t];
            if tok.kind == TokKind::Ident {
                if tok.text == "as" {
                    if let Some(alias) = code.get(t + 1).filter(|a| a.kind == TokKind::Ident) {
                        imports.insert(alias.text.clone(), key.clone());
                        last = None;
                        t += 2;
                        continue;
                    }
                } else if PATH_KEYWORDS.contains(&tok.text.as_str()) {
                    last = None;
                } else {
                    last = Some(tok.text.clone());
                }
            } else if tok.is_punct(',') || tok.is_punct('}') {
                if let Some(l) = last.take() {
                    imports.insert(l, key.clone());
                }
            } else if tok.is_punct('{') || tok.is_punct('*') {
                last = None;
            }
            t += 1;
        }
        if let Some(l) = last {
            imports.insert(l, key.clone());
        }
        i = t;
    }
    imports
}

/// Function/method calls in `[start, end)` — an identifier directly
/// followed by `(`, excluding keywords, macros (`name!`), and
/// `lock`/`read`/`write`: nearly every such call is a guard acquisition
/// or std IO, and linking it by bare name to one of the workspace's few
/// same-named functions (`SharedJournal::read`, `Recorder::lock`) would
/// invent chains. Path qualifiers are walked back to their head segment.
pub fn calls_in_range(code: &[Tok], start: usize, end: usize) -> Vec<CallSite> {
    let mut out = Vec::new();
    for i in start..end.min(code.len()) {
        let t = &code[i];
        if t.kind != TokKind::Ident
            || KEYWORDS.contains(&t.text.as_str())
            || matches!(t.text.as_str(), "lock" | "read" | "write")
        {
            continue;
        }
        if i > 0 && code[i - 1].is_punct('!') {
            continue;
        }
        if !code.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        // Walk back over `head :: … ::` to the path's first segment.
        let mut qual = None;
        let mut j = i;
        while j >= 3
            && code[j - 1].is_punct(':')
            && code[j - 2].is_punct(':')
            && code[j - 3].kind == TokKind::Ident
        {
            qual = Some(code[j - 3].text.clone());
            j -= 3;
        }
        out.push(CallSite {
            name: t.text.clone(),
            qual,
            line: t.line,
            col: t.col,
        });
    }
    out
}

/// Propagates witness strings backwards: a function inherits the first
/// (in iteration order) witness among its callees, prefixed with the
/// call step, so findings can print the chain to the offending site.
pub(crate) fn reach_witness(
    calls: &BTreeMap<String, BTreeSet<String>>,
    seed: &BTreeMap<String, String>,
) -> BTreeMap<String, String> {
    let mut w = seed.clone();
    loop {
        let mut grew = false;
        let mut add: Vec<(String, String)> = Vec::new();
        for (name, callees) in calls {
            if w.contains_key(name) {
                continue;
            }
            if let Some(c) = callees.iter().find(|c| w.contains_key(*c)) {
                let tail = &w[c];
                let step = if tail.len() > 160 {
                    format!("via `{c}` (…)")
                } else {
                    format!("via `{c}` {tail}")
                };
                add.push((name.clone(), step));
            }
        }
        for (k, v) in add {
            w.insert(k, v);
            grew = true;
        }
        if !grew {
            return w;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(sources: &[(&str, &str)]) -> (Workspace, CallGraph) {
        let ws = Workspace::from_sources(sources);
        let cg = CallGraph::build(&ws);
        (ws, cg)
    }

    fn resolve_first_call(ws: &Workspace, cg: &CallGraph, file: usize) -> Option<String> {
        let f = cg
            .fns
            .iter()
            .find(|f| f.file == file && f.name == "caller")
            .expect("caller fn");
        let sites = calls_in_range(&ws.files[file].code, f.body_start, f.body_end);
        sites.iter().find_map(|s| cg.resolve(file, s))
    }

    #[test]
    fn same_crate_unique_name_links() {
        let (ws, cg) = graph(&[(
            "crates/a/src/l.rs",
            "fn caller() { helper(); }\nfn helper() {}",
        )]);
        assert_eq!(
            resolve_first_call(&ws, &cg, 0).as_deref(),
            Some("a::helper")
        );
    }

    #[test]
    fn workspace_unique_name_links_across_crates() {
        let (ws, cg) = graph(&[
            ("crates/a/src/l.rs", "fn caller() { helper(); }"),
            ("crates/b/src/m.rs", "fn helper() {}"),
        ]);
        assert_eq!(
            resolve_first_call(&ws, &cg, 0).as_deref(),
            Some("b::helper")
        );
    }

    #[test]
    fn name_defined_in_two_crates_is_ambiguous() {
        let (ws, cg) = graph(&[
            ("crates/a/src/l.rs", "fn caller() { helper(); }"),
            ("crates/b/src/m.rs", "fn helper() {}"),
            ("crates/c/src/n.rs", "fn helper() {}"),
        ]);
        assert_eq!(resolve_first_call(&ws, &cg, 0), None);
    }

    #[test]
    fn qualified_path_selects_the_crate() {
        // `helper` also exists in the caller's crate, but the
        // fully-qualified path overrides the bare-name rule.
        let (ws, cg) = graph(&[
            (
                "crates/a/src/l.rs",
                "fn caller() { fremont_b::util::helper(); }\nfn helper() {}",
            ),
            ("crates/b/src/m.rs", "fn helper() {}"),
        ]);
        assert_eq!(
            resolve_first_call(&ws, &cg, 0).as_deref(),
            Some("b::helper")
        );
    }

    #[test]
    fn imported_type_method_selects_the_crate() {
        let (ws, cg) = graph(&[
            (
                "crates/a/src/l.rs",
                "use fremont_b::store::Journal;\nfn caller() { Journal::flush_all(); }",
            ),
            ("crates/b/src/m.rs", "fn flush_all() {}"),
            ("crates/c/src/n.rs", "fn flush_all() {}"),
        ]);
        assert_eq!(
            resolve_first_call(&ws, &cg, 0).as_deref(),
            Some("b::flush_all")
        );
    }

    #[test]
    fn import_groups_and_renames() {
        let (ws, cg) = graph(&[
            (
                "crates/a/src/l.rs",
                "use fremont_b::{store::{Journal as J, other}, x::Y};\nfn caller() { J::flush_all(); }",
            ),
            ("crates/b/src/m.rs", "fn flush_all() {}"),
            ("crates/c/src/n.rs", "fn flush_all() {}"),
        ]);
        assert_eq!(
            resolve_first_call(&ws, &cg, 0).as_deref(),
            Some("b::flush_all")
        );
    }

    #[test]
    fn ambiguous_in_selected_crate_does_not_link() {
        let (ws, cg) = graph(&[
            ("crates/a/src/l.rs", "fn caller() { fremont_b::helper(); }"),
            (
                "crates/b/src/m.rs",
                "fn helper() {}\nmod x { fn helper() {} }",
            ),
        ]);
        assert_eq!(resolve_first_call(&ws, &cg, 0), None);
    }

    #[test]
    fn test_definitions_do_not_pollute_the_table() {
        // The test-only `helper` must not make the real one ambiguous.
        let (ws, cg) = graph(&[
            ("crates/a/src/l.rs", "fn caller() { helper(); }"),
            ("crates/b/src/m.rs", "fn helper() {}"),
            (
                "crates/c/src/t.rs",
                "#[cfg(test)]\nmod tests { fn helper() {} }",
            ),
        ]);
        assert_eq!(
            resolve_first_call(&ws, &cg, 0).as_deref(),
            Some("b::helper")
        );
    }

    #[test]
    fn call_edges_cross_crates() {
        let (_ws, cg) = graph(&[
            (
                "crates/a/src/l.rs",
                "pub fn run_for() { fremont_b::store::apply_batch(); }",
            ),
            (
                "crates/b/src/m.rs",
                "pub fn apply_batch() { fremont_c::wal::append_batch(); }",
            ),
            ("crates/c/src/n.rs", "pub fn append_batch() {}"),
        ]);
        assert!(cg.calls["a::run_for"].contains("b::apply_batch"));
        assert!(cg.calls["b::apply_batch"].contains("c::append_batch"));
    }

    #[test]
    fn self_and_crate_paths_resolve_same_crate() {
        let (ws, cg) = graph(&[
            (
                "crates/a/src/l.rs",
                "fn caller() { crate::util::helper(); }\nfn helper() {}",
            ),
            ("crates/b/src/m.rs", "fn helper() {}"),
        ]);
        assert_eq!(
            resolve_first_call(&ws, &cg, 0).as_deref(),
            Some("a::helper")
        );
    }

    #[test]
    fn glob_imports_record_nothing() {
        let (ws, cg) = graph(&[
            (
                "crates/a/src/l.rs",
                "use fremont_b::util::*;\nfn caller() { helper(); }",
            ),
            ("crates/b/src/m.rs", "fn helper() {}"),
            ("crates/c/src/n.rs", "fn helper() {}"),
        ]);
        // Two crates define it and the glob gives no preference.
        assert_eq!(resolve_first_call(&ws, &cg, 0), None);
    }
}
