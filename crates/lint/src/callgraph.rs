//! The workspace's function extents.
//!
//! The lock-structure check in `tests/workspace_clean.rs` asks which
//! function a token sits in, and reads the body of every store function
//! that takes the store guard. This module answers both from the lexed
//! workspace: a table of every `fn` definition with its body's token
//! extent ([`CallGraph::fns`]).

use crate::lexer::{matching_close, Tok, TokKind};
use crate::Workspace;

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

/// Every function definition in the workspace.
pub struct CallGraph {
    /// Every `fn` found, test or not, in workspace file order.
    pub fns: Vec<FnDef>,
}

impl CallGraph {
    /// Collects every function definition and marks the test ones.
    pub fn build(ws: &Workspace) -> CallGraph {
        let mut fns = Vec::new();
        for (fi, file) in ws.files.iter().enumerate() {
            collect_functions(fi, &file.code, &mut fns);
        }
        for f in &mut fns {
            f.in_test = ws.files[f.file].in_test(f.line);
        }
        CallGraph { fns }
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
        // Continue *inside* the body so nested fns are found too; a
        // token in one lies inside both extents.
        i = k + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_definitions_do_not_pollute_the_table() {
        // A test-only `helper` is in the table, marked, beside the real one.
        let ws = Workspace::from_sources(&[
            ("crates/a/src/l.rs", "fn caller() { helper(); }"),
            ("crates/b/src/m.rs", "fn helper() {}"),
            (
                "crates/c/src/t.rs",
                "#[cfg(test)]\nmod tests { fn helper() {} }",
            ),
        ]);
        let cg = CallGraph::build(&ws);
        let table: Vec<(&str, usize, bool)> = cg
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.file, f.in_test))
            .collect();
        assert_eq!(
            table,
            [
                ("caller", 0, false),
                ("helper", 1, false),
                ("helper", 2, true)
            ]
        );
    }
}
