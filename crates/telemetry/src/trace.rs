//! Span/event tracing: a bounded ring buffer of [`TraceEvent`]s with
//! a JSONL exporter and a structural validity checker.
//!
//! Events carry sim-derived timestamps and sequential span ids, so a
//! trace is byte-replayable: the same seed produces the same JSONL.

use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};

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
