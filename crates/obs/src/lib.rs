//! # fremont-obs
//!
//! Observability tooling over the telemetry crate's trace stream:
//!
//! * [`stitch`] — merges per-process JSONL traces (driver + Journal
//!   Server) into one causal tree, resolving the `trace_id` /
//!   `remote_parent` links that rode inside request frames;
//! * folded-stack profiles — re-exported from
//!   [`fremont_telemetry::profile`];
//! * structural validation — re-exported from
//!   [`fremont_telemetry::trace::validate`].
//!
//! ## The stitching contract
//!
//! Each process writes its own trace (its span ids are only unique
//! locally). A file *owns* a distributed trace `T` when it contains a
//! `span_start` with `trace_id == T` and `remote_parent == 0` — that
//! is the client-side RPC span whose id travelled in the frame. A span
//! with `remote_parent == S` attaches under span `S` of the owning
//! file. The stitched output is a canonical depth-first rendering
//! under one synthetic root: span ids are renumbered sequentially (so
//! [`validate`] accepts the result), siblings are ordered by
//! `(start timestamp, file index, original position)`, and the
//! `trace_id`/`remote_parent` fields are cleared — the causality they
//! encoded is now structural. Because every input is deterministic for
//! a fixed seed, the stitched bytes are too.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::HashMap;

pub use fremont_telemetry::profile::fold_events;
pub use fremont_telemetry::trace::{parse_jsonl, render_jsonl, validate, TraceSummary};
pub use fremont_telemetry::TraceEvent;

/// Where a span's parent lives before links are resolved.
enum ParentRef {
    /// Top-level in its own file: a child of the synthetic root.
    Root,
    /// A span earlier in the same file.
    Local(usize),
    /// A span in the file owning `trace_id`, by original span id.
    Remote { trace_id: u64, remote_parent: u64 },
}

/// One span reassembled from a `span_start`/`span_end` pair.
struct Node {
    start: TraceEvent,
    end: Option<TraceEvent>,
    file: usize,
    pos: usize,
    /// `work`/`event` records attached to the span, original order.
    items: Vec<TraceEvent>,
    children: Vec<usize>,
}

/// Merges per-process traces into one causal tree (see the module
/// docs for the contract). `files` is ordered — by convention the
/// trace-owning process (the driver) first — and the order only
/// breaks timestamp ties. Returns the stitched event stream, which
/// always passes [`validate`].
pub fn stitch(files: &[Vec<TraceEvent>]) -> Result<Vec<TraceEvent>, String> {
    // Pass 1: which file owns each distributed trace id.
    let mut owners: HashMap<u64, usize> = HashMap::new();
    for (fi, events) in files.iter().enumerate() {
        for ev in events {
            if ev.kind == "span_start" && ev.trace_id != 0 && ev.remote_parent == 0 {
                match owners.insert(ev.trace_id, fi) {
                    Some(prev) if prev != fi => {
                        return Err(format!(
                            "trace {} owned by both file {prev} and file {fi}",
                            ev.trace_id
                        ));
                    }
                    _ => {}
                }
            }
        }
    }

    // Pass 2: rebuild each file's spans and attachment requests.
    let mut nodes: Vec<Node> = Vec::new();
    let mut by_file_id: Vec<HashMap<u64, usize>> = vec![HashMap::new(); files.len()];
    let mut parents: Vec<ParentRef> = Vec::new();
    // Top-level `work`/`event` records (no open span), with sort keys.
    let mut loose: Vec<(u64, usize, usize, TraceEvent)> = Vec::new();
    for (fi, events) in files.iter().enumerate() {
        for (pos, ev) in events.iter().enumerate() {
            match ev.kind.as_str() {
                "span_start" => {
                    let parent = if ev.remote_parent != 0 {
                        ParentRef::Remote {
                            trace_id: ev.trace_id,
                            remote_parent: ev.remote_parent,
                        }
                    } else if ev.parent != 0 {
                        let idx = *by_file_id[fi].get(&ev.parent).ok_or_else(|| {
                            format!(
                                "file {fi} record {pos}: span {} starts under unknown parent {}",
                                ev.id, ev.parent
                            )
                        })?;
                        ParentRef::Local(idx)
                    } else {
                        ParentRef::Root
                    };
                    let idx = nodes.len();
                    nodes.push(Node {
                        start: ev.clone(),
                        end: None,
                        file: fi,
                        pos,
                        items: Vec::new(),
                        children: Vec::new(),
                    });
                    parents.push(parent);
                    by_file_id[fi].insert(ev.id, idx);
                }
                "span_end" => {
                    let idx = *by_file_id[fi].get(&ev.id).ok_or_else(|| {
                        format!(
                            "file {fi} record {pos}: span_end for unknown span {}",
                            ev.id
                        )
                    })?;
                    if nodes[idx].end.is_some() {
                        return Err(format!(
                            "file {fi} record {pos}: span {} ended twice",
                            ev.id
                        ));
                    }
                    nodes[idx].end = Some(ev.clone());
                }
                "work" => match by_file_id[fi].get(&ev.id) {
                    Some(&idx) if ev.id != 0 => nodes[idx].items.push(ev.clone()),
                    _ if ev.id == 0 => loose.push((ev.at, fi, pos, ev.clone())),
                    _ => {
                        return Err(format!(
                            "file {fi} record {pos}: work {:?} references unknown span {}",
                            ev.name, ev.id
                        ));
                    }
                },
                "event" => match by_file_id[fi].get(&ev.parent) {
                    Some(&idx) if ev.parent != 0 => nodes[idx].items.push(ev.clone()),
                    _ if ev.parent == 0 => loose.push((ev.at, fi, pos, ev.clone())),
                    _ => {
                        return Err(format!(
                            "file {fi} record {pos}: event {:?} references unknown span {}",
                            ev.name, ev.parent
                        ));
                    }
                },
                other => {
                    return Err(format!("file {fi} record {pos}: unknown kind {other:?}"));
                }
            }
        }
    }

    // Pass 3: resolve links into child lists; collect roots.
    let mut roots: Vec<usize> = Vec::new();
    for idx in 0..nodes.len() {
        match parents[idx] {
            ParentRef::Root => roots.push(idx),
            ParentRef::Local(p) => nodes[p].children.push(idx),
            ParentRef::Remote {
                trace_id,
                remote_parent,
            } => {
                let owner = *owners.get(&trace_id).ok_or_else(|| {
                    format!(
                        "span {:?} references unowned trace {trace_id}",
                        nodes[idx].start.name
                    )
                })?;
                let p = *by_file_id[owner].get(&remote_parent).ok_or_else(|| {
                    format!(
                        "span {:?} references span {remote_parent} missing from \
                         trace {trace_id}'s owning file {owner}",
                        nodes[idx].start.name
                    )
                })?;
                nodes[p].children.push(idx);
            }
        }
    }
    for (idx, node) in nodes.iter().enumerate() {
        if node.end.is_none() {
            return Err(format!(
                "file {} span {} ({:?}) never ends",
                node.file, node.start.id, node.start.name
            ));
        }
        let _ = idx;
    }

    // Canonical sibling order, then a deterministic DFS renumbering.
    let key = |nodes: &[Node], i: usize| (nodes[i].start.at, nodes[i].file, nodes[i].pos);
    for i in 0..nodes.len() {
        let mut kids = std::mem::take(&mut nodes[i].children);
        kids.sort_by_key(|&k| key(&nodes, k));
        nodes[i].children = kids;
    }
    roots.sort_by_key(|&k| key(&nodes, k));
    loose.sort_by_key(|a| (a.0, a.1, a.2));

    let lo = files
        .iter()
        .flatten()
        .map(|e| e.at)
        .min()
        .unwrap_or_default();
    let hi = files
        .iter()
        .flatten()
        .map(|e| e.at)
        .max()
        .unwrap_or_default();
    let mut out = Vec::new();
    let root_id = 1u64;
    out.push(TraceEvent {
        at: lo,
        kind: "span_start".into(),
        id: root_id,
        parent: 0,
        name: "stitch".into(),
        detail: format!("files={}", files.len()),
        trace_id: 0,
        remote_parent: 0,
    });
    for (_, _, _, ev) in &loose {
        let mut ev = ev.clone();
        if ev.kind == "event" {
            ev.parent = root_id;
        }
        out.push(ev);
    }
    let mut next_id = root_id + 1;
    for &r in &roots {
        emit(&nodes, r, root_id, &mut next_id, &mut out);
    }
    out.push(TraceEvent {
        at: hi,
        kind: "span_end".into(),
        id: root_id,
        parent: 0,
        name: "stitch".into(),
        detail: format!("spans={}", next_id - 2),
        trace_id: 0,
        remote_parent: 0,
    });
    Ok(out)
}

/// Depth-first canonical emission with fresh sequential span ids.
fn emit(nodes: &[Node], idx: usize, parent_id: u64, next_id: &mut u64, out: &mut Vec<TraceEvent>) {
    let node = &nodes[idx];
    let id = *next_id;
    *next_id += 1;
    out.push(TraceEvent {
        at: node.start.at,
        kind: "span_start".into(),
        id,
        parent: parent_id,
        name: node.start.name.clone(),
        detail: node.start.detail.clone(),
        trace_id: 0,
        remote_parent: 0,
    });
    for item in &node.items {
        let mut item = item.clone();
        if item.kind == "work" {
            item.id = id;
        } else {
            item.parent = id;
        }
        item.trace_id = 0;
        item.remote_parent = 0;
        out.push(item);
    }
    for &child in &node.children {
        emit(nodes, child, id, next_id, out);
    }
    let end = node.end.as_ref().map(|e| (e.at, e.detail.clone()));
    let (at, detail) = end.unwrap_or((node.start.at, String::new()));
    out.push(TraceEvent {
        at,
        kind: "span_end".into(),
        id,
        parent: parent_id,
        name: node.start.name.clone(),
        detail,
        trace_id: 0,
        remote_parent: 0,
    });
}

/// Parses, stitches, and re-renders: the `fremont-obs stitch` core.
pub fn stitch_jsonl(texts: &[String]) -> Result<String, String> {
    let mut files = Vec::with_capacity(texts.len());
    for (i, text) in texts.iter().enumerate() {
        files.push(parse_jsonl(text).map_err(|e| format!("input {}: {e}", i + 1))?);
    }
    let events = stitch(&files)?;
    validate(&events).map_err(|e| format!("stitched trace invalid: {e}"))?;
    Ok(render_jsonl(&events))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        kind: &str,
        id: u64,
        parent: u64,
        name: &str,
        tid: u64,
        rp: u64,
        at: u64,
    ) -> TraceEvent {
        TraceEvent {
            at,
            kind: kind.into(),
            id,
            parent,
            name: name.into(),
            detail: String::new(),
            trace_id: tid,
            remote_parent: rp,
        }
    }

    fn work(id: u64, unit: &str, amount: u64) -> TraceEvent {
        TraceEvent {
            at: 1,
            kind: "work".into(),
            id,
            parent: 0,
            name: unit.into(),
            detail: amount.to_string(),
            trace_id: 0,
            remote_parent: 0,
        }
    }

    /// driver: pump > store_batch (owns trace 7); server: rpc > apply,
    /// rpc hangs off the client span via remote_parent.
    fn two_files() -> Vec<Vec<TraceEvent>> {
        let driver = vec![
            span("span_start", 1, 0, "driver.pump", 0, 0, 10),
            span("span_start", 2, 1, "client.store_batch", 7, 0, 10),
            work(2, "observations", 3),
            span("span_end", 2, 1, "client.store_batch", 0, 0, 10),
            span("span_end", 1, 0, "driver.pump", 0, 0, 10),
        ];
        let server = vec![
            span("span_start", 1, 0, "server.rpc", 7, 2, 10),
            span("span_start", 2, 1, "server.apply", 0, 0, 10),
            span("span_end", 2, 1, "server.apply", 0, 0, 10),
            span("span_end", 1, 0, "server.rpc", 0, 0, 10),
        ];
        vec![driver, server]
    }

    #[test]
    fn stitches_server_rpc_under_client_span() {
        let stitched = stitch(&two_files()).unwrap();
        validate(&stitched).unwrap();
        let names: Vec<(&str, &str)> = stitched
            .iter()
            .map(|e| (e.kind.as_str(), e.name.as_str()))
            .collect();
        assert_eq!(
            names,
            [
                ("span_start", "stitch"),
                ("span_start", "driver.pump"),
                ("span_start", "client.store_batch"),
                ("work", "observations"),
                ("span_start", "server.rpc"),
                ("span_start", "server.apply"),
                ("span_end", "server.apply"),
                ("span_end", "server.rpc"),
                ("span_end", "client.store_batch"),
                ("span_end", "driver.pump"),
                ("span_end", "stitch"),
            ]
        );
        // The server.rpc span's parent is the renumbered client span.
        let client = stitched
            .iter()
            .find(|e| e.kind == "span_start" && e.name == "client.store_batch")
            .unwrap();
        let rpc = stitched
            .iter()
            .find(|e| e.kind == "span_start" && e.name == "server.rpc")
            .unwrap();
        assert_eq!(rpc.parent, client.id);
        assert!(stitched
            .iter()
            .all(|e| e.trace_id == 0 && e.remote_parent == 0));
    }

    #[test]
    fn stitch_is_deterministic() {
        let a = render_jsonl(&stitch(&two_files()).unwrap());
        let b = render_jsonl(&stitch(&two_files()).unwrap());
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn unowned_trace_is_an_error() {
        let server = vec![
            span("span_start", 1, 0, "server.rpc", 9, 4, 10),
            span("span_end", 1, 0, "server.rpc", 0, 0, 10),
        ];
        let err = stitch(&[server]).unwrap_err();
        assert!(err.contains("unowned trace 9"), "{err}");
    }

    #[test]
    fn unfinished_span_is_an_error() {
        let f = vec![span("span_start", 1, 0, "x", 0, 0, 1)];
        let err = stitch(&[f]).unwrap_err();
        assert!(err.contains("never ends"), "{err}");
    }

    #[test]
    fn stitched_trace_folds() {
        let stitched = stitch(&two_files()).unwrap();
        let folded = fold_events(&stitched);
        assert_eq!(
            folded,
            "observations;stitch;driver.pump;client.store_batch 3\n"
        );
    }
}
