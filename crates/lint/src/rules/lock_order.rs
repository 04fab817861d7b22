//! Rule `lock-order`: no lock cycles, no locks held across file IO.
//!
//! The analyzer extracts every `parking_lot`-style acquisition site
//! (`.lock()`, zero-arg `.read()` / `.write()`), computes each guard's
//! token extent (binding until `drop(guard)` or end of the enclosing
//! block; temporaries until the end of the statement), and then:
//!
//! 1. builds the inter-function *acquired-while-held* graph over lock
//!    labels — nested acquisitions plus, transitively through the
//!    cross-crate call graph ([`crate::callgraph`]), locks taken inside
//!    called functions — and flags every cycle (including re-acquiring
//!    the same label, which self-deadlocks with non-reentrant
//!    `parking_lot` locks);
//! 2. flags any guard whose extent reaches file IO (directly, or via a
//!    call chain to a function that does file IO) — holding the journal
//!    lock across an fsync turns every reader into a disk-latency
//!    victim, so the sites that do it on purpose (the WAL serialization
//!    point) must say so with a suppression.
//!
//! Calls resolve through `use` imports and fully-qualified paths across
//! crates, with the one-definition precision guard per resolved crate
//! (see the call-graph module docs).

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{self, CallGraph};
use crate::lexer::{Tok, TokKind};
use crate::rules::statement_end;
use crate::{Severity, Violation, Workspace};

/// Method names performing file IO directly.
const IO_METHODS: [&str; 10] = [
    "sync_all",
    "sync_data",
    "sync_now",
    "flush",
    "write_all",
    "read_to_end",
    "read_exact",
    "set_len",
    "seek",
    "rename",
];

/// Path heads whose associated functions are file IO (`fs::…`,
/// `File::…`, `OpenOptions::…`).
const IO_PATHS: [&str; 3] = ["fs", "File", "OpenOptions"];

/// One lock acquisition with its guard extent (token index range).
pub(crate) struct Acq {
    /// Graph label: receiver chain with a leading `self.` stripped;
    /// indexed receivers keep their index expression
    /// (`self.shards[idx].read()` → `shards[idx]`).
    pub(crate) label: String,
    pub(crate) line: u32,
    pub(crate) col: u32,
    /// First token index inside the guard's live range.
    pub(crate) start: usize,
    /// Token index one past the guard's live range.
    pub(crate) end: usize,
}

/// Per-function acquisitions.
fn acquisitions_of(ws: &Workspace, cg: &CallGraph) -> Vec<(usize /* fn index */, Vec<Acq>)> {
    let mut out = Vec::new();
    for (i, f) in cg.fns.iter().enumerate() {
        let file = &ws.files[f.file];
        let mut acqs = Vec::new();
        find_acquisitions(&file.code, f.body_start, f.body_end, &mut acqs);
        acqs.retain(|a| !file.in_test(a.line));
        if !acqs.is_empty() {
            out.push((i, acqs));
        }
    }
    out
}

pub fn check(ws: &Workspace, cg: &CallGraph) -> Vec<Violation> {
    let fn_acqs = acquisitions_of(ws, cg);

    // Crate-qualified summaries over the shared call graph.
    let mut io_seed: BTreeSet<String> = BTreeSet::new();
    let mut own_locks: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for f in &cg.fns {
        let Some(qname) = cg.qname_of(f) else {
            continue;
        };
        let code = &ws.files[f.file].code;
        if scan_range_for_io(code, f.body_start, f.body_end).is_some() {
            io_seed.insert(qname.clone());
        }
    }
    for (fi, acqs) in &fn_acqs {
        let f = &cg.fns[*fi];
        let Some(qname) = cg.qname_of(f) else {
            continue;
        };
        let locks = own_locks.entry(qname).or_default();
        for a in acqs {
            locks.insert(a.label.clone());
        }
    }
    // Fixpoint: IO-reachability and lock-reachability through calls.
    let io_fns = callgraph::reach_flag(&cg.calls, &io_seed);
    let reach_locks = callgraph::reach_sets(&cg.calls, &own_locks);

    let mut out = Vec::new();
    // Edges of the acquired-while-held graph, with a witness site.
    let mut edges: BTreeMap<(String, String), (usize, u32, u32, String)> = BTreeMap::new();

    for (fi, acqs) in &fn_acqs {
        let f = &cg.fns[*fi];
        let code = &ws.files[f.file].code;
        for a in acqs {
            // (2) IO while the guard is live — direct, or via a callee.
            let io_site = scan_range_for_io(code, a.start, a.end).or_else(|| {
                callgraph::calls_in_range(code, a.start, a.end)
                    .into_iter()
                    .find(|site| {
                        cg.resolve(f.file, site)
                            .is_some_and(|q| io_fns.contains(&q))
                    })
                    .map(|site| (site.name, site.line))
            });
            if let Some((callee, line)) = io_site {
                out.push(Violation {
                    rule: "lock-order",
                    path: ws.files[f.file].path.clone(),
                    line: a.line,
                    col: a.col,
                    severity: Severity::Error,
                    message: format!(
                        "lock `{}` held across file IO (`{}` at line {line}) — \
                         readers stall on disk latency; move the IO out or \
                         document the serialization point with a suppression",
                        a.label, callee
                    ),
                });
            }
            // (1) Locks acquired while this guard is live.
            for b in acqs {
                if b.start > a.start && b.start < a.end {
                    edges.entry((a.label.clone(), b.label.clone())).or_insert((
                        f.file,
                        a.line,
                        a.col,
                        format!("`{}` then `{}` in `{}`", a.label, b.label, f.name),
                    ));
                }
            }
            for site in callgraph::calls_in_range(code, a.start, a.end) {
                let Some(q) = cg.resolve(f.file, &site) else {
                    continue;
                };
                if let Some(locks) = reach_locks.get(&q) {
                    for l in locks {
                        edges.entry((a.label.clone(), l.clone())).or_insert((
                            f.file,
                            a.line,
                            a.col,
                            format!("`{}` held while `{}` locks `{}`", a.label, site.name, l),
                        ));
                    }
                }
            }
        }
    }

    // Cycle detection over the label graph.
    let graph: BTreeMap<&String, Vec<&String>> = {
        let mut g: BTreeMap<&String, Vec<&String>> = BTreeMap::new();
        for (a, b) in edges.keys() {
            g.entry(a).or_default().push(b);
        }
        g
    };
    let mut reported: BTreeSet<String> = BTreeSet::new();
    for ((a, b), (file, line, col, via)) in &edges {
        let cyclic = a == b || reaches(&graph, b, a);
        if !cyclic {
            continue;
        }
        let key = if a <= b {
            format!("{a}\u{0}{b}")
        } else {
            format!("{b}\u{0}{a}")
        };
        if !reported.insert(key) {
            continue;
        }
        let message = if a == b {
            format!(
                "lock `{a}` re-acquired while already held ({via}) — \
                 parking_lot locks are not reentrant; this self-deadlocks"
            )
        } else {
            format!(
                "potential lock cycle between `{a}` and `{b}` ({via}, and a \
                 path back from `{b}` to `{a}`) — pick one acquisition order"
            )
        };
        out.push(Violation {
            rule: "lock-order",
            path: ws.files[*file].path.clone(),
            line: *line,
            col: *col,
            severity: Severity::Error,
            message,
        });
    }
    out
}

/// DFS reachability over the label graph.
fn reaches(graph: &BTreeMap<&String, Vec<&String>>, from: &String, to: &String) -> bool {
    let mut stack = vec![from];
    let mut seen: BTreeSet<&String> = BTreeSet::new();
    while let Some(n) = stack.pop() {
        if n == to {
            return true;
        }
        if !seen.insert(n) {
            continue;
        }
        if let Some(next) = graph.get(n) {
            stack.extend(next.iter().copied());
        }
    }
    false
}

/// Scans `[start, end)` for lock acquisitions and computes guard extents.
pub(crate) fn find_acquisitions(code: &[Tok], start: usize, end: usize, out: &mut Vec<Acq>) {
    for i in start..end {
        if !code[i].is_punct('.') {
            continue;
        }
        let Some(m) = code.get(i + 1) else { continue };
        if !(m.is_ident("lock") || m.is_ident("read") || m.is_ident("write")) {
            continue;
        }
        // Zero-arg calls only: `file.read(buf)` is IO, not a lock.
        if !(code.get(i + 2).is_some_and(|t| t.is_punct('('))
            && code.get(i + 3).is_some_and(|t| t.is_punct(')')))
        {
            continue;
        }
        let (ext_start, ext_end) = guard_extent(code, i, end);
        out.push(Acq {
            label: receiver_label(code, i),
            line: m.line,
            col: m.col,
            start: ext_start,
            end: ext_end,
        });
    }
}

/// Walks the receiver chain backwards from the `.` at `dot`:
/// `self . wal . lock` → `wal`; `journal . inner . read` →
/// `journal.inner`; indexed receivers keep the index expression, so
/// `self . shards [ idx ] . read` → `shards[idx]`.
pub(crate) fn receiver_label(code: &[Tok], dot: usize) -> String {
    let mut parts: Vec<String> = Vec::new();
    let mut i = dot;
    loop {
        if i == 0 {
            break;
        }
        let prev = &code[i - 1];
        if prev.kind == TokKind::Ident {
            parts.push(prev.text.clone());
            if i >= 2 && code[i - 2].is_punct('.') {
                i -= 2;
                continue;
            }
        } else if prev.is_punct(']') {
            // Indexing: match back to the `[`, then the indexed name.
            let mut depth = 1i64;
            let mut q = i - 1;
            while q > 0 && depth > 0 {
                q -= 1;
                if code[q].is_punct(']') {
                    depth += 1;
                } else if code[q].is_punct('[') {
                    depth -= 1;
                }
            }
            if depth == 0 && q > 0 && code[q - 1].kind == TokKind::Ident {
                let idx: String = code[q + 1..i - 1]
                    .iter()
                    .map(|t| t.text.as_str())
                    .collect::<Vec<_>>()
                    .join("");
                parts.push(format!("{}[{idx}]", code[q - 1].text));
                if q >= 2 && code[q - 2].is_punct('.') {
                    i = q - 1;
                    continue;
                }
            }
        }
        break;
    }
    parts.reverse();
    if parts.first().is_some_and(|p| p == "self") {
        parts.remove(0);
    }
    if parts.is_empty() {
        "<expr>".to_owned()
    } else {
        parts.join(".")
    }
}

/// Extent of an acquisition's guard.
///
/// `let g = x.lock();` → until `drop(g)` or the enclosing block closes;
/// a temporary (`x.lock().field…`) → until the statement's `;`.
fn guard_extent(code: &[Tok], dot: usize, fn_end: usize) -> (usize, usize) {
    // Find the binding: statement start is after the previous `;`/`{`/`}`.
    let mut s = dot;
    while s > 0 {
        let t = &code[s - 1];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        s -= 1;
    }
    let bound_name = if code.get(s).is_some_and(|t| t.is_ident("let")) {
        let mut n = s + 1;
        if code.get(n).is_some_and(|t| t.is_ident("mut")) {
            n += 1;
        }
        match code.get(n) {
            Some(t)
                if t.kind == TokKind::Ident && code.get(n + 1).is_some_and(|e| e.is_punct('=')) =>
            {
                Some(t.text.clone())
            }
            _ => None,
        }
    } else {
        None
    };
    let acq_end = dot + 4; // past `. name ( )`
    match bound_name {
        None => (acq_end, statement_end(code, acq_end).min(fn_end) + 1),
        Some(name) => {
            // Until `drop ( name )` or the enclosing block closes.
            let mut depth = 0i64;
            let mut i = acq_end;
            while i < fn_end {
                let t = &code[i];
                if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
                    depth -= 1;
                    if depth < 0 {
                        return (acq_end, i);
                    }
                } else if t.is_ident("drop")
                    && code.get(i + 1).is_some_and(|p| p.is_punct('('))
                    && code.get(i + 2).is_some_and(|n| n.is_ident(&name))
                    && code.get(i + 3).is_some_and(|p| p.is_punct(')'))
                {
                    return (acq_end, i);
                }
                i += 1;
            }
            (acq_end, fn_end)
        }
    }
}

/// Direct file-IO tokens in `[start, end)`: returns the first as
/// `(name, line)`.
fn scan_range_for_io(code: &[Tok], start: usize, end: usize) -> Option<(String, u32)> {
    for i in start..end.min(code.len()) {
        let t = &code[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let name = t.text.as_str();
        let called = code.get(i + 1).is_some_and(|n| n.is_punct('('));
        let pathy = code.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && code.get(i + 2).is_some_and(|n| n.is_punct(':'));
        if (IO_METHODS.contains(&name) && called) || (IO_PATHS.contains(&name) && pathy) {
            return Some((t.text.clone(), t.line));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workspace;

    fn check_ws(ws: &Workspace) -> Vec<Violation> {
        check(ws, &CallGraph::build(ws))
    }

    fn run(src: &str) -> Vec<Violation> {
        check_ws(&Workspace::from_sources(&[("crates/x/src/a.rs", src)]))
    }

    #[test]
    fn lock_held_across_direct_io() {
        let v = run("fn f(&self) { let g = self.state.lock(); self.file.sync_all(); }");
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("held across file IO"));
        assert!(v[0].message.contains("state"));
    }

    #[test]
    fn drop_releases_the_guard() {
        assert!(run(
            "fn f(&self) { let g = self.state.lock(); use_it(&g); drop(g); self.file.sync_all(); }"
        )
        .is_empty());
    }

    #[test]
    fn io_through_call_chain() {
        let v = run(
            "fn f(&self) { let g = self.state.lock(); step(); }\nfn step() { inner(); }\nfn inner() { file.write_all(buf); }",
        );
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn cycle_between_two_locks() {
        let v = run(
            "fn f(&self) { let a = self.a.lock(); let b = self.b.lock(); }\nfn g(&self) { let b = self.b.lock(); let a = self.a.lock(); }",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("cycle"), "{v:?}");
    }

    #[test]
    fn self_reacquire_flags() {
        let v = run("fn f(&self) { let a = self.m.lock(); helper(); }\nfn helper(&self) { let b = self.m.lock(); }");
        assert!(v.iter().any(|v| v.message.contains("re-acquired")), "{v:?}");
    }

    #[test]
    fn consistent_order_is_fine() {
        assert!(run(
            "fn f(&self) { let a = self.a.lock(); let b = self.b.lock(); }\nfn g(&self) { let a = self.a.lock(); let b = self.b.lock(); }"
        )
        .is_empty());
    }

    #[test]
    fn io_read_write_with_args_is_not_a_lock() {
        assert!(run("fn f(file: &mut File) { file.write(buf); r.read(buf); }").is_empty());
    }

    #[test]
    fn indexed_receivers_keep_their_index() {
        let ws = Workspace::from_sources(&[(
            "crates/x/src/a.rs",
            "fn f(&self) { let g = self.shards[idx].read(); self.file.sync_all(); }",
        )]);
        let v = check_ws(&ws);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("`shards[idx]`"), "{v:?}");
    }

    #[test]
    fn ambiguous_callee_names_are_not_linked() {
        // Two `stats` definitions (a trait with two impls): holding a
        // lock while calling `stats()` must not inherit either body.
        let ws = Workspace::from_sources(&[
            (
                "crates/x/src/a.rs",
                "fn caller(&self) { let g = self.inner.lock(); self.j.stats(); }\nfn stats(&self) -> S { S::pure() }",
            ),
            ("crates/x/src/b.rs", "fn stats(&self) -> S { self.file.sync_all() }"),
        ]);
        assert!(check_ws(&ws).is_empty());
    }

    #[test]
    fn unique_cross_crate_names_link() {
        // `helper` has exactly one definition anywhere in the workspace,
        // so the chain crosses the crate boundary.
        let ws = Workspace::from_sources(&[
            (
                "crates/a/src/l.rs",
                "fn caller(&self) { let g = self.inner.lock(); helper(); }",
            ),
            ("crates/b/src/m.rs", "fn helper() { fs::write(p, d); }"),
        ]);
        let v = check_ws(&ws);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("held across file IO"), "{v:?}");
    }

    #[test]
    fn ambiguous_cross_crate_names_are_not_linked() {
        let ws = Workspace::from_sources(&[
            (
                "crates/a/src/l.rs",
                "fn caller(&self) { let g = self.inner.lock(); helper(); }",
            ),
            ("crates/b/src/m.rs", "fn helper() { fs::write(p, d); }"),
            ("crates/c/src/n.rs", "fn helper() {}"),
        ]);
        assert!(check_ws(&ws).is_empty());
    }

    #[test]
    fn qualified_cross_crate_call_links() {
        // A clean same-crate `helper` exists, but the fully-qualified
        // path selects crate `b`'s IO-doing one.
        let ws = Workspace::from_sources(&[
            (
                "crates/a/src/l.rs",
                "fn caller(&self) { let g = self.inner.lock(); fremont_b::util::helper(); }\nfn helper() {}",
            ),
            ("crates/b/src/m.rs", "fn helper() { fs::write(p, d); }"),
        ]);
        let v = check_ws(&ws);
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn imported_name_selects_its_crate() {
        // Without the import, `helper` (two crates define it) would be
        // ambiguous; the `use` pins it to crate `b`.
        let ws = Workspace::from_sources(&[
            (
                "crates/a/src/l.rs",
                "use fremont_b::util::helper;\nfn caller(&self) { let g = self.inner.lock(); helper(); }",
            ),
            ("crates/b/src/m.rs", "fn helper() { fs::write(p, d); }"),
            ("crates/c/src/n.rs", "fn helper() {}"),
        ]);
        let v = check_ws(&ws);
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn cross_crate_lock_cycle_is_found() {
        let ws = Workspace::from_sources(&[
            (
                "crates/a/src/l.rs",
                "fn f(&self) { let a = self.alpha.lock(); fremont_b::take_beta(); }",
            ),
            (
                "crates/b/src/m.rs",
                "pub fn take_beta() { let b = BETA.lock(); fremont_a::take_alpha(); }",
            ),
            (
                "crates/a/src/n.rs",
                "pub fn take_alpha() { let a2 = ALPHA2.lock(); }",
            ),
        ]);
        // a holds `alpha` then b locks `BETA`… the edge set crosses
        // crates; no cycle here, so only assert the chain linked by
        // checking the io-free run stays violation-free.
        assert!(check_ws(&ws).is_empty());
        // Now a genuine cycle: b re-enters alpha.
        let ws = Workspace::from_sources(&[
            (
                "crates/a/src/l.rs",
                "fn f(&self) { let a = self.alpha.lock(); fremont_b::take_beta(); }\npub fn take_alpha() { let g = self.beta.lock(); let a = self.alpha.lock(); }",
            ),
            (
                "crates/b/src/m.rs",
                "pub fn take_beta() { let b = self.beta.lock(); }",
            ),
        ]);
        let v = check_ws(&ws);
        assert!(v.iter().any(|v| v.message.contains("cycle")), "{v:?}");
    }
}
