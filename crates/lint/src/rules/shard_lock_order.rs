//! Rule `shard-lock-order`: the sharded Journal store's lock discipline.
//!
//! `crates/journal/src/store/` partitions interface records into
//! id-hashed shards, each behind its own `RwLock`, with a `meta` RwLock
//! gating the global slabs and sequences. The documented discipline
//! (DESIGN.md § 3.3) that keeps writers deadlock-free while queries run
//! concurrently is:
//!
//! 1. the `meta` write gate is acquired **before** any shard lock —
//!    never while a shard guard is live (directly or through a call
//!    chain);
//! 2. shard locks — reads *and* writes — are taken in **ascending index
//!    order** when more than one is held. A write transaction
//!    (`Journal::begin_write` in `store/mod.rs`) acquires every shard's
//!    write lock ascending under the meta gate and holds them for its
//!    whole duration; any ascending multi-write acquisition is
//!    sanctioned, a descending or same-index one is flagged;
//! 3. shard **write** locks are acquired in **exactly one function** of
//!    the scope. The store has one write path — every mutation runs
//!    inside that transaction — and a second function taking a shard
//!    write lock is how a second path starts, so it is an error naming
//!    both sites.
//!
//! The rule fires on the scope `cfg.shard_lock_scope`, using the same
//! acquisition extraction as `lock-order` (so `self.shards[idx].read()`
//! labels as `shards[idx]`) and the cross-crate call graph for
//! transitive meta acquisitions. Violations here are exactly the ones
//! the runtime sanitizer (`parking_lot` `tracked` feature) would panic
//! on, with the shard ranks carrying the ascending-index requirement.

use std::collections::BTreeSet;

use crate::callgraph::{self, CallGraph};
use crate::rules::lock_order::{acquisitions_of, Acq};
use crate::{Config, Severity, Violation, Workspace};

/// What a shard-scope acquisition is.
enum Kind<'a> {
    /// The `meta` gate.
    Meta,
    /// A shard lock with its index expression text. Reads and writes
    /// follow the same ascending-index discipline, so the access mode
    /// does not matter here.
    Shard {
        index: &'a str,
    },
    Other,
}

fn classify(a: &Acq) -> Kind<'_> {
    if a.label == "meta" {
        return Kind::Meta;
    }
    if let Some(rest) = a.label.strip_prefix("shards[") {
        if let Some(index) = rest.strip_suffix(']') {
            return Kind::Shard { index };
        }
    }
    Kind::Other
}

/// The report: violations plus the label edges the golden exporter
/// needs (`meta` before `shards[…]` is the sanctioned direction).
pub struct ShardReport {
    pub violations: Vec<Violation>,
    pub edges: BTreeSet<(String, String)>,
}

pub fn check(
    ws: &Workspace,
    cfg: &Config,
    cg: &CallGraph,
    reach_locks: &std::collections::BTreeMap<String, BTreeSet<String>>,
) -> ShardReport {
    let mut out = Vec::new();
    let mut edges = BTreeSet::new();
    // First shard write acquisition of each in-scope function: (path,
    // line, col, fn name, label), for discipline 3.
    let mut writers: Vec<(&str, u32, u32, &str, String)> = Vec::new();
    for (fi, acqs) in acquisitions_of(ws, cg) {
        let f = &cg.fns[fi];
        let file = &ws.files[f.file];
        if !file.in_scope(&cfg.shard_lock_scope) {
            continue;
        }
        if let Some(w) = acqs
            .iter()
            .find(|a| a.write && matches!(classify(a), Kind::Shard { .. }))
        {
            writers.push((&file.path, w.line, w.col, &f.name, w.label.clone()));
        }
        for a in &acqs {
            let Kind::Shard { index: a_idx } = classify(a) else {
                continue;
            };
            // Overlapping acquisitions while this shard guard is live.
            for b in &acqs {
                if !(b.start > a.start && b.start < a.end) {
                    continue;
                }
                match classify(b) {
                    Kind::Meta => {
                        edges.insert((a.label.clone(), b.label.clone()));
                        out.push(Violation {
                            rule: "shard-lock-order",
                            path: file.path.clone(),
                            line: b.line,
                            col: b.col,
                            severity: Severity::Error,
                            message: format!(
                                "`meta` acquired while shard lock `{}` is held (in `{}`) — \
                                 the meta write gate must come before any shard lock",
                                a.label, f.name
                            ),
                        });
                    }
                    Kind::Shard { index: b_idx, .. } => {
                        edges.insert((a.label.clone(), b.label.clone()));
                        if let (Ok(ai), Ok(bi)) = (a_idx.parse::<u64>(), b_idx.parse::<u64>()) {
                            if bi <= ai {
                                out.push(Violation {
                                    rule: "shard-lock-order",
                                    path: file.path.clone(),
                                    line: b.line,
                                    col: b.col,
                                    severity: Severity::Error,
                                    message: format!(
                                        "shard lock `{}` acquired while `{}` is held (in `{}`) — \
                                         shard locks must be taken in ascending index order",
                                        b.label, a.label, f.name
                                    ),
                                });
                            }
                        } else if a_idx == b_idx {
                            out.push(Violation {
                                rule: "shard-lock-order",
                                path: file.path.clone(),
                                line: b.line,
                                col: b.col,
                                severity: Severity::Error,
                                message: format!(
                                    "shard `{}` re-acquired while already held (in `{}`) — \
                                     parking_lot locks are not reentrant; this self-deadlocks",
                                    a.label, f.name
                                ),
                            });
                        }
                    }
                    Kind::Other => {}
                }
            }
            // Transitive: a callee that (eventually) takes the meta gate
            // while this shard guard is live inverts the discipline.
            for site in callgraph::calls_in_range(&file.code, a.start, a.end) {
                let Some(q) = cg.resolve(f.file, &site) else {
                    continue;
                };
                if reach_locks.get(&q).is_some_and(|ls| ls.contains("meta")) {
                    out.push(Violation {
                        rule: "shard-lock-order",
                        path: file.path.clone(),
                        line: site.line,
                        col: site.col,
                        severity: Severity::Error,
                        message: format!(
                            "shard lock `{}` held while calling `{}`, which acquires the \
                             `meta` gate — the meta write gate must come first",
                            a.label, site.name
                        ),
                    });
                }
            }
        }
    }
    // One write path: the first writer (in path/line order) is the
    // transaction; every other function is a second path.
    writers.sort();
    if let Some((first_path, first_line, _, first_fn, _)) = writers.first().cloned() {
        for (path, line, col, name, label) in writers.into_iter().skip(1) {
            out.push(Violation {
                rule: "shard-lock-order",
                path: path.to_owned(),
                line,
                col,
                severity: Severity::Error,
                message: format!(
                    "shard write lock `{label}` acquired in `{name}`, but `{first_fn}` \
                     ({first_path}:{first_line}) already acquires shard write locks — the \
                     store has one write path; run the mutation inside that transaction"
                ),
            });
        }
    }
    ShardReport {
        violations: out,
        edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::lock_order;
    use crate::Workspace;
    use std::path::PathBuf;

    fn run(src: &str) -> Vec<Violation> {
        let ws = Workspace::from_sources(&[("crates/journal/src/store/x.rs", src)]);
        let cfg = Config::for_root(PathBuf::from("."));
        let cg = CallGraph::build(&ws);
        let lock = lock_order::check(&ws, &cfg, &cg);
        check(&ws, &cfg, &cg, &lock.reach_locks).violations
    }

    #[test]
    fn meta_after_shard_is_inverted() {
        let v = run("fn f(&self) { let s = self.shards[0].read(); let m = self.meta.write(); }");
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("meta write gate"), "{v:?}");
    }

    #[test]
    fn meta_before_shard_is_sanctioned() {
        assert!(
            run("fn f(&self) { let m = self.meta.write(); let s = self.shards[0].write(); }")
                .is_empty()
        );
    }

    #[test]
    fn ascending_shard_writes_are_sanctioned() {
        // A write transaction's acquisition shape (`begin_write`):
        // every shard's write lock, ascending, under the meta gate.
        assert!(run(
            "fn f(&self) { let m = self.meta.write(); let a = self.shards[0].write(); let b = self.shards[1].write(); }"
        )
        .is_empty());
    }

    #[test]
    fn a_second_shard_writer_function_flags_naming_both_sites() {
        let v = run(
            "fn begin_write(&self) { let m = self.meta.write(); let a = self.shards[0].write(); }\n\
             fn patch(&self, i: usize) { let s = self.shards[i].write(); }\n\
             fn peek(&self, i: usize) { let s = self.shards[i].read(); }",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 2, "{v:?}");
        assert!(v[0].message.contains("acquired in `patch`"), "{v:?}");
        assert!(v[0].message.contains("`begin_write` ("), "{v:?}");
        assert!(v[0].message.contains("x.rs:1)"), "{v:?}");
    }

    #[test]
    fn descending_shard_writes_flag() {
        let v =
            run("fn f(&self) { let a = self.shards[1].write(); let b = self.shards[0].write(); }");
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("ascending index order"), "{v:?}");
    }

    #[test]
    fn descending_shard_reads_flag() {
        let v =
            run("fn f(&self) { let a = self.shards[2].read(); let b = self.shards[1].read(); }");
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("ascending index order"), "{v:?}");
    }

    #[test]
    fn ascending_shard_reads_are_fine() {
        assert!(run(
            "fn f(&self) { let a = self.shards[0].read(); let b = self.shards[1].read(); }"
        )
        .is_empty());
    }

    #[test]
    fn dynamic_same_index_reacquire_flags() {
        let v = run("fn f(&self, i: usize) { let a = self.shards[i].read(); let b = self.shards[i].read(); }");
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("re-acquired"), "{v:?}");
    }

    #[test]
    fn transitive_meta_while_shard_held_flags() {
        let v = run(
            "fn f(&self) { let s = self.shards[0].read(); tally(); }\nfn tally(&self) { let m = self.meta.read(); }",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("which acquires the"), "{v:?}");
    }

    #[test]
    fn out_of_scope_files_are_ignored() {
        let ws = Workspace::from_sources(&[(
            "crates/storage/src/x.rs",
            "fn f(&self) { let s = self.shards[0].read(); let m = self.meta.write(); }",
        )]);
        let cfg = Config::for_root(PathBuf::from("."));
        let cg = CallGraph::build(&ws);
        let lock = lock_order::check(&ws, &cfg, &cg);
        assert!(check(&ws, &cfg, &cg, &lock.reach_locks)
            .violations
            .is_empty());
    }
}
