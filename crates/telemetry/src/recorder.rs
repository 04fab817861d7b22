//! The in-memory recorder: a [`Registry`] plus a [`TraceBuffer`] behind
//! one mutex. Instrumented code reaches it through a
//! [`crate::Telemetry`] handle, which documents the recording methods.

use std::sync::{Mutex, MutexGuard};

use crate::metrics::{self, Counter, Gauge, Histogram, Registry};
use crate::trace::{TraceBuffer, TraceEvent};
use crate::{SpanId, TelTime};

struct Inner {
    registry: Registry,
    trace: TraceBuffer,
}

/// Records metrics and trace events in memory for later export.
///
/// Shared across threads behind an `Arc` (the sim loop and the
/// Journal Server's connection threads may feed the same recorder);
/// a poisoned lock is recovered rather than propagated, since the
/// registry and ring stay structurally valid after any panic.
pub struct Recorder {
    inner: Mutex<Inner>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// A recorder with the default trace ring capacity.
    pub fn new() -> Self {
        Recorder::with_capacity(crate::trace::DEFAULT_CAPACITY)
    }

    /// A recorder whose trace ring holds at most `cap` events.
    pub fn with_capacity(cap: usize) -> Self {
        Recorder {
            inner: Mutex::new(Inner {
                registry: Registry::new(),
                trace: TraceBuffer::with_capacity(cap),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Renders the metrics as Prometheus-style text exposition.
    ///
    /// Trace-ring losses are folded in at render time as the
    /// `fremont_trace_dropped_total` counter, so overflow is visible
    /// wherever the metrics go without a hot-path publish.
    pub fn expose(&self) -> String {
        let mut inner = self.lock();
        let dropped = inner.trace.dropped();
        inner
            .registry
            .counter_set(metrics::TRACE_DROPPED_TOTAL, "", dropped);
        inner.registry.expose()
    }

    /// Folds the buffered trace's `work` records into folded-stack
    /// profile text (see [`crate::profile`]).
    pub fn folded_profile(&self) -> String {
        crate::profile::fold_events(self.lock().trace.iter())
    }

    /// Exports the trace ring as JSON Lines, oldest-first.
    pub fn trace_jsonl(&self) -> String {
        self.lock().trace.to_jsonl()
    }

    /// Current value of a counter series (0 when absent).
    pub fn counter(&self, name: &str, label: &str) -> u64 {
        self.lock().registry.counter(name, label)
    }

    /// A counter's total over every label.
    pub fn counter_sum(&self, c: Counter) -> u64 {
        self.lock().registry.counter_sum(c)
    }

    /// Number of buffered trace events.
    pub fn trace_len(&self) -> usize {
        self.lock().trace.len()
    }

    /// Events evicted from the trace ring so far.
    pub fn trace_dropped(&self) -> u64 {
        self.lock().trace.dropped()
    }

    /// Runs `f` over the buffered events (oldest-first) under the
    /// lock — for assertions without cloning the whole ring.
    pub fn with_trace<R>(&self, f: impl FnOnce(&TraceBuffer) -> R) -> R {
        f(&self.lock().trace)
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("Recorder")
            .field("trace_len", &inner.trace.len())
            .field("trace_dropped", &inner.trace.dropped())
            .finish()
    }
}

/// The recording half of every [`crate::Telemetry`] method.
impl Recorder {
    pub(crate) fn counter_add(&self, c: Counter, label: &str, delta: u64) {
        self.lock().registry.counter_add(c, label, delta);
    }

    pub(crate) fn counter_set(&self, c: Counter, label: &str, value: u64) {
        self.lock().registry.counter_set(c, label, value);
    }

    pub(crate) fn gauge_set(&self, g: Gauge, label: &str, value: u64) {
        self.lock().registry.gauge_set(g, label, value);
    }

    pub(crate) fn gauge_max(&self, g: Gauge, label: &str, value: u64) {
        self.lock().registry.gauge_max(g, label, value);
    }

    pub(crate) fn observe(&self, h: Histogram, label: &str, value: u64) {
        self.lock().registry.observe(h, label, value);
    }

    pub(crate) fn span_start_remote(
        &self,
        name: &'static str,
        label: &str,
        parent: SpanId,
        trace_id: u64,
        remote_parent: u64,
        at: TelTime,
    ) -> SpanId {
        let mut inner = self.lock();
        let id = inner.trace.next_span_id();
        inner.trace.push(TraceEvent {
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

    pub(crate) fn span_end(&self, span: SpanId, detail: &str, at: TelTime) {
        if !span.is_real() {
            return;
        }
        self.lock().trace.push(TraceEvent {
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

    pub(crate) fn event(&self, name: &'static str, detail: &str, parent: SpanId, at: TelTime) {
        self.lock().trace.push(TraceEvent {
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

    pub(crate) fn work(&self, span: SpanId, unit: &'static str, amount: u64, at: TelTime) {
        if amount == 0 {
            return;
        }
        self.lock().trace.push(TraceEvent {
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

    pub(crate) fn trace_tail(&self, n: usize) -> (Vec<TraceEvent>, u64) {
        let inner = self.lock();
        (inner.trace.tail(n), inner.trace.dropped())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn records_spans_with_nesting() {
        let (t, rec) = crate::Telemetry::recording();
        let root = t.span_start("driver.pump", "cycle=1", SpanId::NONE, TelTime(10));
        let child = t.span_start("driver.correlate", "", root, TelTime(11));
        t.span_end(child, "links=2", TelTime(12));
        t.span_end(root, "ok", TelTime(13));
        rec.with_trace(|t| {
            let evs: Vec<_> = t.iter().cloned().collect();
            assert_eq!(evs.len(), 4);
            assert_eq!(evs[0].kind, "span_start");
            assert_eq!(evs[1].parent, evs[0].id);
            assert_eq!(evs[2].detail, "links=2");
        });
    }

    #[test]
    fn span_end_on_null_span_is_ignored() {
        let rec = Recorder::new();
        rec.span_end(SpanId::NONE, "x", TelTime(1));
        assert_eq!(rec.trace_len(), 0);
    }

    #[test]
    fn concurrent_counting_is_lossless() {
        let rec = Arc::new(Recorder::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let r = rec.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    r.counter_add(metrics::WAL_APPENDS_TOTAL, "", 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(rec.counter("fremont_wal_appends_total", ""), 400);
    }

    #[test]
    fn overflowed_ring_surfaces_dropped_counter_in_exposition() {
        let rec = Recorder::with_capacity(2);
        for i in 0..5 {
            rec.event("e", "", SpanId::NONE, TelTime(i));
        }
        assert_eq!(rec.trace_dropped(), 3);
        let expo = rec.expose();
        assert!(
            expo.contains("fremont_trace_dropped_total 3"),
            "missing dropped counter in:\n{expo}"
        );
        // And an un-overflowed ring still exposes the series at zero.
        let quiet = Recorder::new();
        assert!(quiet.expose().contains("fremont_trace_dropped_total 0"));
    }

    #[test]
    fn remote_spans_carry_trace_linkage() {
        let rec = Recorder::new();
        let s = rec.span_start_remote("server.rpc", "rpc=store", SpanId::NONE, 7, 42, TelTime(3));
        rec.work(s, "observations", 5, TelTime(3));
        rec.span_end(s, "ok", TelTime(4));
        rec.with_trace(|t| {
            let evs: Vec<_> = t.iter().cloned().collect();
            assert_eq!(evs[0].trace_id, 7);
            assert_eq!(evs[0].remote_parent, 42);
            assert_eq!(evs[1].kind, "work");
            assert_eq!(evs[1].id, evs[0].id);
            assert_eq!(evs[1].detail, "5");
        });
    }

    #[test]
    fn trace_tail_and_exposition_through_the_handle() {
        let (t, _rec) = crate::Telemetry::recording();
        t.counter_add(metrics::WAL_APPENDS_TOTAL, "", 1);
        t.event("a", "", SpanId::NONE, TelTime(1));
        t.event("b", "", SpanId::NONE, TelTime(2));
        let (tail, dropped) = t.trace_tail(1).unwrap();
        assert_eq!(dropped, 0);
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].name, "b");
        assert!(t
            .exposition()
            .unwrap()
            .contains("fremont_wal_appends_total 1"));
        let off = crate::Telemetry::noop();
        assert!(off.trace_tail(1).is_none() && off.exposition().is_none());
    }

    #[test]
    fn folded_profile_from_ring() {
        let (t, rec) = crate::Telemetry::recording();
        let s = t.span_start("driver.pump", "", SpanId::NONE, TelTime(1));
        t.work(s, "observations", 4, TelTime(2));
        t.span_end(s, "", TelTime(3));
        assert_eq!(rec.folded_profile(), "observations;driver.pump 4\n");
    }

    #[test]
    fn histogram_totals_surface() {
        let rec = Recorder::new();
        let h = metrics::JOURNAL_STORE_BATCH_OBSERVATIONS;
        assert!(!rec
            .expose()
            .contains("fremont_journal_store_batch_observations"));
        rec.observe(h, "", 3);
        rec.observe(h, "", 5);
        let expo = rec.expose();
        assert!(
            expo.contains("fremont_journal_store_batch_observations_sum 8\n"),
            "{expo}"
        );
        assert!(
            expo.contains("fremont_journal_store_batch_observations_count 2\n"),
            "{expo}"
        );
    }
}
