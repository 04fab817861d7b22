//! The six Fremont invariant rules.

pub mod determinism;
pub mod ignored_io;
pub mod lock_order;
pub mod metric_registry;
pub mod panics;
pub mod schema;

use crate::lexer::{Tok, TokKind};

/// True when `code[i]` opens any bracket.
fn opens(t: &Tok) -> bool {
    t.kind == TokKind::Punct && matches!(t.text.as_str(), "(" | "[" | "{")
}

/// True when `code[i]` closes any bracket.
fn closes(t: &Tok) -> bool {
    t.kind == TokKind::Punct && matches!(t.text.as_str(), ")" | "]" | "}")
}

/// Index of the token matching the opening bracket at `open` (or the
/// end of the stream when unbalanced).
pub(crate) fn matching_close(code: &[Tok], open: usize) -> usize {
    let mut depth = 0i64;
    let mut i = open;
    while i < code.len() {
        if opens(&code[i]) {
            depth += 1;
        } else if closes(&code[i]) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    code.len().saturating_sub(1)
}

/// Index of the `;` ending the statement containing `start` (brackets
/// respected), or the index where the enclosing block closes.
pub(crate) fn statement_end(code: &[Tok], start: usize) -> usize {
    let mut depth = 0i64;
    let mut i = start;
    while i < code.len() {
        let t = &code[i];
        if opens(t) {
            depth += 1;
        } else if closes(t) {
            depth -= 1;
            if depth < 0 {
                return i;
            }
        } else if depth == 0 && t.is_punct(';') {
            return i;
        }
        i += 1;
    }
    code.len().saturating_sub(1)
}
