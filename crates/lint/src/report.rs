//! Rendering an [`Analysis`] for humans and for machines.
//!
//! The JSON emitter is hand-rolled (this crate is dependency-free by
//! design — it must build even when the analyzer itself has found the
//! workspace wanting) and emits a stable, versioned shape — schema 3:
//!
//! ```json
//! {
//!   "schema": 3,
//!   "files": 110,
//!   "violations": [
//!     {"rule": "determinism", "severity": "error",
//!      "path": "crates/explorers/src/seqping.rs",
//!      "span": {"line": 65, "col": 24}, "message": "…"}
//!   ],
//!   "errors": 1, "warnings": 0
//! }
//! ```
//!
//! Contract, byte-for-byte pinned by `tests/golden.rs`:
//! - `schema` bumps on any key change; consumers must check it.
//! - `violations` is sorted by (path, line, col, rule).
//! - `span.line`/`span.col` are 1-based; 0 means file-level (the
//!   whole-golden findings) or unknown.

use std::fmt::Write as _;

use crate::{Analysis, Severity};

/// The current `--json` schema version.
pub const JSON_SCHEMA: u32 = 3;

/// `file:line:col: severity[rule]: message` lines plus a summary —
/// the shape editors and CI log scrapers already understand.
pub fn human(a: &Analysis) -> String {
    let mut s = String::new();
    for v in &a.violations {
        if v.path.is_empty() {
            let _ = writeln!(s, "{}[{}]: {}", v.severity, v.rule, v.message);
        } else {
            let _ = writeln!(
                s,
                "{}:{}:{}: {}[{}]: {}",
                v.path, v.line, v.col, v.severity, v.rule, v.message
            );
        }
    }
    let _ = writeln!(
        s,
        "fremont-lint: {} files, {} error(s), {} warning(s)",
        a.files,
        a.errors(),
        a.warnings()
    );
    s
}

/// Machine-readable report (see module docs for the schema contract).
pub fn json(a: &Analysis) -> String {
    let mut s = String::from("{\n");
    let _ = write!(
        s,
        "  \"schema\": {JSON_SCHEMA},\n  \"files\": {},\n  \"violations\": [",
        a.files
    );
    for (i, v) in a.violations.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let _ = write!(
            s,
            "{sep}    {{\"rule\": {}, \"severity\": {}, \"path\": {}, \
             \"span\": {{\"line\": {}, \"col\": {}}}, \"message\": {}}}",
            quote(v.rule),
            quote(match v.severity {
                Severity::Warning => "warning",
                Severity::Error => "error",
            }),
            quote(&v.path),
            v.line,
            v.col,
            quote(&v.message)
        );
    }
    if !a.violations.is_empty() {
        s.push_str("\n  ");
    }
    let _ = write!(
        s,
        "],\n  \"errors\": {},\n  \"warnings\": {}\n}}\n",
        a.errors(),
        a.warnings()
    );
    s
}

/// JSON string escaping per RFC 8259 (quotes, backslashes, control chars).
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Analysis, Severity, Violation};

    fn sample() -> Analysis {
        Analysis {
            violations: vec![Violation {
                rule: "determinism",
                path: "crates/explorers/src/seqping.rs".to_owned(),
                line: 65,
                col: 24,
                severity: Severity::Error,
                message: "`SystemTime` says \"boom\"".to_owned(),
            }],
            files: 3,
        }
    }

    #[test]
    fn human_has_grep_able_lines() {
        let out = human(&sample());
        assert!(out.contains("crates/explorers/src/seqping.rs:65:24: error[determinism]:"));
        assert!(
            out.ends_with("3 files, 1 error(s), 0 warning(s)\n"),
            "{out}"
        );
    }

    #[test]
    fn json_escapes_and_counts() {
        let out = json(&sample());
        assert!(out.contains("\\\"boom\\\""), "{out}");
        assert!(out.contains("\"schema\": 3"), "{out}");
        assert!(out.contains("\"errors\": 1"));
        assert!(
            out.contains("\"span\": {\"line\": 65, \"col\": 24}"),
            "{out}"
        );
    }

    #[test]
    fn empty_violations_render_empty_array() {
        let a = Analysis {
            violations: vec![],
            files: 0,
        };
        assert!(json(&a).contains("\"violations\": []"));
    }
}
