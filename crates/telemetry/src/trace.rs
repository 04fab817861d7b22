//! Span/event tracing: a bounded ring buffer of [`TraceEvent`]s with
//! a JSONL exporter, a structural validity checker, and [`stitch`],
//! which merges per-process traces (driver + Journal Server) into one
//! causal tree.
//!
//! Events carry sim-derived timestamps and sequential span ids, so a
//! trace is byte-replayable: the same seed produces the same JSONL.
//!
//! # The stitching contract
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

use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};

use crate::{SpanId, TelTime};

/// Default ring capacity (events) before the oldest are dropped.
pub const DEFAULT_CAPACITY: usize = 65_536;

/// One trace record. `kind` is `"span_start"`, `"span_end"`,
/// `"event"`, or `"work"`; `id`/`parent` are span ids with 0 meaning
/// "none".
///
/// `trace_id`/`remote_parent` carry cross-process causality: a span
/// that *owns* a distributed trace records its `trace_id` with
/// `remote_parent == 0`; a span opened on behalf of a remote caller
/// records the caller's `trace_id` and the caller-side span id in
/// `remote_parent`. Both are 0 for purely local spans.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Timestamp in microseconds of simulated/journal time.
    pub at: u64,
    /// Record kind: `span_start`, `span_end`, `event`, or `work`.
    pub kind: String,
    /// Span id this record belongs to (0 for plain events).
    pub id: u64,
    /// Enclosing span id (0 when top-level).
    pub parent: u64,
    /// Metric-style name, e.g. `driver.pump`; for `work` records this
    /// is the unit (`observations`, `bytes`, ...).
    pub name: String,
    /// Free-form detail (span label, result summary, event payload);
    /// for `work` records, the decimal amount.
    pub detail: String,
    /// Distributed trace id this span belongs to (0 = local only).
    pub trace_id: u64,
    /// Span id in the *remote* process that caused this span
    /// (0 = no remote cause; this process owns the trace).
    pub remote_parent: u64,
}

/// A bounded, drop-oldest buffer of trace events.
#[derive(Debug)]
pub struct TraceBuffer {
    events: VecDeque<TraceEvent>,
    cap: usize,
    dropped: u64,
    next_span: u64,
}

impl Default for TraceBuffer {
    fn default() -> Self {
        TraceBuffer::with_capacity(DEFAULT_CAPACITY)
    }
}

impl TraceBuffer {
    /// A buffer holding at most `cap` events (minimum 1).
    pub fn with_capacity(cap: usize) -> Self {
        TraceBuffer {
            events: VecDeque::new(),
            cap: cap.max(1),
            dropped: 0,
            next_span: 1,
        }
    }

    /// Allocates the next sequential span id.
    pub fn next_span_id(&mut self) -> u64 {
        let id = self.next_span;
        self.next_span += 1;
        id
    }

    /// Appends an event, evicting the oldest when full.
    pub fn push(&mut self, ev: TraceEvent) {
        if self.events.len() == self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }

    /// Records a `span_start` under a freshly allocated span id.
    pub(crate) fn span_start(
        &mut self,
        name: &str,
        label: &str,
        parent: SpanId,
        trace_id: u64,
        remote_parent: u64,
        at: TelTime,
    ) -> SpanId {
        let id = self.next_span_id();
        self.push(TraceEvent {
            at: at.0,
            kind: "span_start".to_string(),
            id,
            parent: parent.0,
            name: name.to_string(),
            detail: label.to_string(),
            trace_id,
            remote_parent,
        });
        SpanId(id)
    }

    /// Records the `span_end` of `span`.
    pub(crate) fn span_end(&mut self, span: SpanId, detail: &str, at: TelTime) {
        self.push(TraceEvent {
            at: at.0,
            kind: "span_end".to_string(),
            id: span.0,
            parent: 0,
            name: String::new(),
            detail: detail.to_string(),
            trace_id: 0,
            remote_parent: 0,
        });
    }

    /// Records a point `event`.
    pub(crate) fn event(&mut self, name: &str, detail: &str, parent: SpanId, at: TelTime) {
        self.push(TraceEvent {
            at: at.0,
            kind: "event".to_string(),
            id: 0,
            parent: parent.0,
            name: name.to_string(),
            detail: detail.to_string(),
            trace_id: 0,
            remote_parent: 0,
        });
    }

    /// Records `amount` units of `work` on `span`.
    pub(crate) fn work(&mut self, span: SpanId, unit: &str, amount: u64, at: TelTime) {
        self.push(TraceEvent {
            at: at.0,
            kind: "work".to_string(),
            id: span.0,
            parent: 0,
            name: unit.to_string(),
            detail: amount.to_string(),
            trace_id: 0,
            remote_parent: 0,
        });
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the buffer holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// How many events were evicted to respect the capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates the buffered events oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// The most recent `n` events, oldest-first.
    pub fn tail(&self, n: usize) -> Vec<TraceEvent> {
        let skip = self.events.len().saturating_sub(n);
        self.events.iter().skip(skip).cloned().collect()
    }

    /// Serialises the buffer as JSON Lines, oldest-first, one event
    /// per line ([`render_jsonl`]).
    pub fn to_jsonl(&self) -> String {
        render_jsonl(&self.events)
    }
}

/// Renders events as JSON Lines, one event per line, in the order
/// given. Serialisation of these flat records cannot fail, so
/// unencodable events are skipped defensively rather than panic.
pub fn render_jsonl<'a>(events: impl IntoIterator<Item = &'a TraceEvent>) -> String {
    let mut out = String::new();
    for ev in events {
        if let Ok(line) = serde_json::to_string(ev) {
            out.push_str(&line);
            out.push('\n');
        }
    }
    out
}

/// What [`validate`] measured about a structurally sound trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceSummary {
    /// Total records examined.
    pub events: usize,
    /// Spans opened (and, since validation passed, closed).
    pub spans: usize,
    /// Deepest nesting level observed (a root span has depth 1).
    pub max_depth: usize,
}

/// Checks the structural invariants every well-formed trace obeys:
///
/// * every `span_start` carries a fresh id, strictly greater than any
///   id started before it;
/// * a span's parent (when non-zero) is open at the time it starts;
/// * every `span_end` matches an open span whose children have all
///   closed already (parents close after children);
/// * `event`/`work` records reference an open span or none;
/// * no span is left open at the end of the stream.
///
/// Returns the first violation as a human-readable message, keyed by
/// the 0-based record index.
pub fn validate<'a, I>(events: I) -> Result<TraceSummary, String>
where
    I: IntoIterator<Item = &'a TraceEvent>,
{
    // id -> (parent, open child count, depth)
    let mut open: HashMap<u64, (u64, usize, usize)> = HashMap::new();
    let mut last_id = 0u64;
    let mut summary = TraceSummary::default();
    for (idx, ev) in events.into_iter().enumerate() {
        summary.events += 1;
        match ev.kind.as_str() {
            "span_start" => {
                if ev.id == 0 {
                    return Err(format!("record {idx}: span_start with id 0"));
                }
                if ev.id <= last_id {
                    return Err(format!(
                        "record {idx}: span id {} not greater than prior id {last_id}",
                        ev.id
                    ));
                }
                last_id = ev.id;
                let depth = if ev.parent == 0 {
                    1
                } else {
                    match open.get_mut(&ev.parent) {
                        Some(p) => {
                            p.1 += 1;
                            p.2 + 1
                        }
                        None => {
                            return Err(format!(
                                "record {idx}: span {} starts under parent {} which is not open",
                                ev.id, ev.parent
                            ));
                        }
                    }
                };
                summary.max_depth = summary.max_depth.max(depth);
                summary.spans += 1;
                open.insert(ev.id, (ev.parent, 0, depth));
            }
            "span_end" => {
                let (parent, kids, _) = match open.get(&ev.id) {
                    Some(s) => *s,
                    None => {
                        return Err(format!(
                            "record {idx}: span_end for span {} which is not open",
                            ev.id
                        ));
                    }
                };
                if kids != 0 {
                    return Err(format!(
                        "record {idx}: span {} ends with {kids} child span(s) still open",
                        ev.id
                    ));
                }
                open.remove(&ev.id);
                if parent != 0 {
                    if let Some(p) = open.get_mut(&parent) {
                        p.1 = p.1.saturating_sub(1);
                    }
                }
            }
            "event" => {
                if ev.parent != 0 && !open.contains_key(&ev.parent) {
                    return Err(format!(
                        "record {idx}: event {:?} references parent {} which is not open",
                        ev.name, ev.parent
                    ));
                }
            }
            "work" => {
                if ev.id != 0 && !open.contains_key(&ev.id) {
                    return Err(format!(
                        "record {idx}: work {:?} references span {} which is not open",
                        ev.name, ev.id
                    ));
                }
            }
            other => {
                return Err(format!("record {idx}: unknown record kind {other:?}"));
            }
        }
    }
    if !open.is_empty() {
        let mut ids: Vec<u64> = open.keys().copied().collect();
        ids.sort_unstable();
        return Err(format!(
            "{} span(s) left open at end of trace: {ids:?}",
            ids.len()
        ));
    }
    Ok(summary)
}

/// Parses a JSONL trace export back into events. Lines that do not
/// decode are reported with their 1-based line number.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceEvent>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match serde_json::from_str::<TraceEvent>(line) {
            Ok(ev) => out.push(ev),
            Err(e) => return Err(format!("line {}: {e}", i + 1)),
        }
    }
    Ok(out)
}

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
    for node in &nodes {
        if node.end.is_none() {
            return Err(format!(
                "file {} span {} ({:?}) never ends",
                node.file, node.start.id, node.start.name
            ));
        }
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

/// Parses, stitches, validates and re-renders: `fremont-obs stitch`.
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

    fn ev(at: u64, name: &str) -> TraceEvent {
        TraceEvent {
            at,
            kind: "event".into(),
            id: 0,
            parent: 0,
            name: name.into(),
            detail: String::new(),
            trace_id: 0,
            remote_parent: 0,
        }
    }

    fn rec(kind: &str, id: u64, parent: u64) -> TraceEvent {
        TraceEvent {
            at: 1,
            kind: kind.into(),
            id,
            parent,
            name: "s".into(),
            detail: String::new(),
            trace_id: 0,
            remote_parent: 0,
        }
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut b = TraceBuffer::with_capacity(2);
        b.push(ev(1, "a"));
        b.push(ev(2, "b"));
        b.push(ev(3, "c"));
        assert_eq!(b.len(), 2);
        assert_eq!(b.dropped(), 1);
        let names: Vec<_> = b.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["b", "c"]);
    }

    #[test]
    fn span_ids_are_sequential_from_one() {
        let mut b = TraceBuffer::default();
        assert_eq!(b.next_span_id(), 1);
        assert_eq!(b.next_span_id(), 2);
        assert_eq!(b.next_span_id(), 3);
    }

    #[test]
    fn jsonl_round_trips() {
        let mut b = TraceBuffer::default();
        b.push(ev(7, "node.up"));
        let text = b.to_jsonl();
        assert_eq!(text.lines().count(), 1);
        let back: TraceEvent = serde_json::from_str(text.trim()).unwrap();
        assert_eq!(back, ev(7, "node.up"));
    }

    #[test]
    fn capacity_zero_clamps_to_one() {
        let mut b = TraceBuffer::with_capacity(0);
        b.push(ev(1, "a"));
        b.push(ev(2, "b"));
        assert_eq!(b.len(), 1);
        assert_eq!(b.dropped(), 1);
    }

    #[test]
    fn tail_returns_most_recent() {
        let mut b = TraceBuffer::default();
        b.push(ev(1, "a"));
        b.push(ev(2, "b"));
        b.push(ev(3, "c"));
        let t = b.tail(2);
        let names: Vec<_> = t.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["b", "c"]);
        assert_eq!(b.tail(10).len(), 3);
    }

    #[test]
    fn validate_accepts_nested_balanced_trace() {
        let trace = [
            rec("span_start", 1, 0),
            rec("span_start", 2, 1),
            rec("work", 2, 0),
            rec("span_end", 2, 0),
            rec("event", 0, 1),
            rec("span_end", 1, 0),
        ];
        let s = validate(trace.iter()).unwrap();
        assert_eq!(s.spans, 2);
        assert_eq!(s.max_depth, 2);
        assert_eq!(s.events, 6);
    }

    #[test]
    fn validate_rejects_parent_closing_before_child() {
        let trace = [
            rec("span_start", 1, 0),
            rec("span_start", 2, 1),
            rec("span_end", 1, 0),
        ];
        let err = validate(trace.iter()).unwrap_err();
        assert!(err.contains("still open"), "{err}");
    }

    #[test]
    fn validate_rejects_nonmonotonic_ids_and_unknown_spans() {
        let trace = [rec("span_start", 2, 0), rec("span_start", 1, 0)];
        assert!(validate(trace.iter()).unwrap_err().contains("not greater"));
        let trace = [rec("span_end", 5, 0)];
        assert!(validate(trace.iter()).unwrap_err().contains("not open"));
        let trace = [rec("span_start", 1, 0)];
        assert!(validate(trace.iter()).unwrap_err().contains("left open"));
    }

    #[test]
    fn parse_jsonl_reports_bad_lines() {
        let good = "{\"at\":1,\"kind\":\"event\",\"id\":0,\"parent\":0,\"name\":\"x\",\
                    \"detail\":\"\",\"trace_id\":0,\"remote_parent\":0}\n";
        assert_eq!(parse_jsonl(good).unwrap().len(), 1);
        assert!(parse_jsonl("not json\n").unwrap_err().starts_with("line 1"));
    }
}
