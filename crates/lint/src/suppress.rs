//! Inline suppression annotations.
//!
//! The contract (documented in DESIGN.md §Static invariants): a finding
//! may be silenced with a comment on the offending line or the line
//! directly above it, naming the rule(s) and giving a reason:
//!
//! ```text
//! // fremont-lint: allow(ignored-io) -- Drop cannot propagate; callers wanting the error use sync() first
//! let _ = self.writer.sync_now();
//! ```
//!
//! A missing reason or an annotation that no longer matches anything is
//! itself reported, and the total count is checked against a
//! workspace-wide budget — suppressions are meant to document deliberate
//! exceptions, not to hide debt.

use std::cell::Cell;

use crate::lexer::{Tok, TokKind};

/// One parsed `fremont-lint:` annotation.
pub struct Suppression {
    /// Line the comment sits on.
    pub line: u32,
    /// Rule names listed in `allow(…)`.
    pub rules: Vec<String>,
    /// Justification after `--` (may be empty when malformed).
    pub reason: String,
    /// Parse problem, if the annotation is malformed.
    malformed: Option<String>,
    used: Cell<bool>,
}

impl Suppression {
    /// Whether this annotation silences `rule` at `line`.
    pub fn covers(&self, rule: &str, line: u32) -> bool {
        self.malformed.is_none()
            && (line == self.line || line == self.line + 1)
            && self.rules.iter().any(|r| r == rule)
    }

    /// Marks the annotation as having matched a finding.
    pub fn mark_used(&self) {
        self.used.set(true);
    }

    /// True once a finding matched.
    pub fn used(&self) -> bool {
        self.used.get()
    }

    /// A description of why the annotation is malformed, if it is.
    pub fn problem(&self) -> Option<String> {
        self.malformed.clone()
    }
}

/// Extracts annotations from a file's token stream (comments included).
///
/// Only plain `//` comments carry annotations — doc comments (`///`,
/// `//!`) and block comments are documentation, so the contract can be
/// *described* there (as this module does) without being parsed.
pub fn parse(toks: &[Tok]) -> Vec<Suppression> {
    toks.iter()
        .filter(|t| t.kind == TokKind::Comment)
        .filter(|t| {
            t.text.starts_with("//") && !t.text.starts_with("///") && !t.text.starts_with("//!")
        })
        .filter_map(|t| {
            let idx = t.text.find("fremont-lint:")?;
            Some(parse_one(
                t.line,
                t.text[idx + "fremont-lint:".len()..].trim(),
            ))
        })
        .collect()
}

fn parse_one(line: u32, body: &str) -> Suppression {
    let mut sup = Suppression {
        line,
        rules: Vec::new(),
        reason: String::new(),
        malformed: None,
        used: Cell::new(false),
    };
    let rest = match body.strip_prefix("allow") {
        Some(r) => r.trim_start(),
        None => {
            sup.malformed = Some(
                "malformed suppression: expected `fremont-lint: allow(<rule>) -- <reason>`"
                    .to_owned(),
            );
            return sup;
        }
    };
    let Some(close) = rest.find(')') else {
        sup.malformed = Some("malformed suppression: unclosed `allow(`".to_owned());
        return sup;
    };
    let inside = rest
        .strip_prefix('(')
        .map(|r| &r[..close - 1])
        .unwrap_or("");
    sup.rules = inside
        .split(',')
        .map(|r| r.trim().to_owned())
        .filter(|r| !r.is_empty())
        .collect();
    if sup.rules.is_empty() {
        sup.malformed = Some("malformed suppression: no rule named in `allow(…)`".to_owned());
        return sup;
    }
    for r in &sup.rules {
        if !crate::RULES.contains(&r.as_str()) {
            sup.malformed = Some(format!(
                "unknown rule `{r}` in suppression (known: {})",
                crate::RULES.join(", ")
            ));
            return sup;
        }
    }
    match rest[close + 1..].trim().strip_prefix("--") {
        Some(reason) if !reason.trim().is_empty() => sup.reason = reason.trim().to_owned(),
        _ => {
            sup.malformed =
                Some("suppression without a reason: append ` -- <why this is sound>`".to_owned());
        }
    }
    sup
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn one(src: &str) -> Suppression {
        let mut v = parse(&lex(src));
        assert_eq!(v.len(), 1, "{src}");
        v.remove(0)
    }

    #[test]
    fn well_formed() {
        let s = one("// fremont-lint: allow(ignored-io) -- Drop cannot propagate\nx();");
        assert!(s.problem().is_none());
        assert_eq!(s.rules, vec!["ignored-io"]);
        assert_eq!(s.reason, "Drop cannot propagate");
        assert!(s.covers("ignored-io", 1));
        assert!(s.covers("ignored-io", 2), "covers the next line");
        assert!(!s.covers("ignored-io", 3));
        assert!(!s.covers("panic", 2), "other rules stay live");
    }

    #[test]
    fn multiple_rules() {
        let s = one("// fremont-lint: allow(panic, ignored-io) -- last-gasp drop path");
        assert!(s.problem().is_none());
        assert_eq!(s.rules, vec!["panic", "ignored-io"]);
    }

    #[test]
    fn missing_reason_is_malformed() {
        let s = one("// fremont-lint: allow(panic)");
        assert!(s.problem().unwrap().contains("without a reason"));
        assert!(
            !s.covers("panic", 1),
            "malformed annotations silence nothing"
        );
    }

    #[test]
    fn unknown_rule_is_malformed() {
        let s = one("// fremont-lint: allow(speling) -- oops");
        assert!(s.problem().unwrap().contains("unknown rule"));
    }

    #[test]
    fn non_annotation_comments_ignored() {
        assert!(parse(&lex("// plain comment\n/* block */\ncode();")).is_empty());
    }
}
