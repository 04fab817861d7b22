//! The in-memory recorder: a [`Registry`] plus a [`TraceBuffer`] behind
//! one mutex. Instrumented code records through a [`crate::Telemetry`]
//! handle, whose methods take the lock and write the registry or the
//! ring themselves; the recorder is the read side.

use std::sync::{Mutex, MutexGuard};

use crate::metrics::{self, Counter, Registry};
use crate::trace::TraceBuffer;

pub(crate) struct Inner {
    pub(crate) registry: Registry,
    pub(crate) trace: TraceBuffer,
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

    pub(crate) fn lock(&self) -> MutexGuard<'_, Inner> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SpanId, TelTime, Telemetry};
    use std::sync::Arc;

    /// A recording handle over `rec`.
    fn handle(rec: Recorder) -> (Telemetry, Arc<Recorder>) {
        let rec = Arc::new(rec);
        (
            Telemetry {
                rec: Some(rec.clone()),
            },
            rec,
        )
    }

    #[test]
    fn records_spans_with_nesting() {
        let (t, rec) = Telemetry::recording();
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
        let (t, rec) = Telemetry::recording();
        t.span_end(SpanId::NONE, "x", TelTime(1));
        assert_eq!(rec.trace_len(), 0);
    }

    #[test]
    fn concurrent_counting_is_lossless() {
        let (t, rec) = Telemetry::recording();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let t = t.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    t.counter_add(metrics::WAL_APPENDS_TOTAL, "", 1);
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
        let (t, rec) = handle(Recorder::with_capacity(2));
        for i in 0..5 {
            t.event("e", "", SpanId::NONE, TelTime(i));
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
        let (t, rec) = Telemetry::recording();
        let s = t.span_start_remote("server.rpc", "rpc=store", SpanId::NONE, 7, 42, TelTime(3));
        t.work(s, "observations", 5, TelTime(3));
        t.work(s, "bytes", 0, TelTime(3));
        t.span_end(s, "ok", TelTime(4));
        rec.with_trace(|t| {
            let evs: Vec<_> = t.iter().cloned().collect();
            assert_eq!(evs[0].trace_id, 7);
            assert_eq!(evs[0].remote_parent, 42);
            assert_eq!(evs[1].kind, "work");
            assert_eq!(evs[1].id, evs[0].id);
            assert_eq!(evs[1].detail, "5");
            assert_eq!(evs[2].kind, "span_end");
        });
    }

    #[test]
    fn trace_tail_and_exposition_through_the_handle() {
        let (t, _rec) = Telemetry::recording();
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
        let off = Telemetry::noop();
        assert!(off.trace_tail(1).is_none() && off.exposition().is_none());
    }

    #[test]
    fn folded_profile_from_ring() {
        let (t, rec) = Telemetry::recording();
        let s = t.span_start("driver.pump", "", SpanId::NONE, TelTime(1));
        t.work(s, "observations", 4, TelTime(2));
        t.span_end(s, "", TelTime(3));
        assert_eq!(rec.folded_profile(), "observations;driver.pump 4\n");
    }

    #[test]
    fn histogram_totals_surface() {
        let (t, rec) = Telemetry::recording();
        let h = metrics::JOURNAL_STORE_BATCH_OBSERVATIONS;
        assert!(!rec
            .expose()
            .contains("fremont_journal_store_batch_observations"));
        t.observe(h, "", 3);
        t.observe(h, "", 5);
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
