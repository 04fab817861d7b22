//! Deterministic observability for the Fremont reproduction.
//!
//! The paper evaluates Fremont by its operational footprint (Table 4:
//! per-module network load and completion time), and §5 diagnoses
//! problems by correlating timestamped observations. This crate is the
//! measurement substrate for that: a metrics registry (counters,
//! gauges, fixed-bound histograms), a span/event tracer, and the
//! stitcher that merges per-process traces into one causal tree.
//!
//! # Determinism contract
//!
//! Nothing in this crate reads a wall clock or an entropy source;
//! `workspace_is_clean` in `crates/lint/tests/workspace_clean.rs`
//! checks that at the token level.
//! Every timestamp is a [`TelTime`] passed in by the caller, derived
//! from `SimTime` (microseconds) or `JTime` (seconds). Latencies are
//! therefore expressed in *simulated* time or in logical work units
//! (e.g. observations merged per store call), never host time. Span
//! ids are sequential per recorder. The result: two runs with the same
//! seed produce byte-identical trace exports and metric dumps.
//!
//! # Usage
//!
//! Instrumented components hold a cheap [`Telemetry`] handle (a
//! cloneable `Option<Arc<Recorder>>`). The default handle is a no-op —
//! one branch per call, no allocation — so uninstrumented runs pay
//! nothing. [`Telemetry::recording`] attaches a [`Recorder`]
//! that keeps a ring buffer of trace events (JSONL export) and a
//! metrics registry (Prometheus-style text exposition).
//!
//! A metric is named by its handle from the table in [`metrics`], where
//! each one is declared once:
//!
//! ```
//! use fremont_telemetry::{metrics, Telemetry};
//!
//! let (tel, rec) = Telemetry::recording();
//! tel.counter_add(metrics::JOURNAL_RPC_TOTAL, "rpc=\"stats\"", 1);
//! assert_eq!(rec.counter("fremont_journal_rpc_total", "rpc=\"stats\""), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod metrics;
pub mod profile;
pub mod recorder;
pub mod trace;

pub use metrics::{parse_exposition, Registry};
pub use recorder::Recorder;
pub use trace::{TraceBuffer, TraceEvent};

use std::fmt;
use std::sync::Arc;

use metrics::{Counter, Gauge, Histogram};

/// A telemetry timestamp: microseconds of simulated (or journal) time.
///
/// Callers derive this from `SimTime::as_micros()` or from
/// `JTime * 1_000_000`; it is never a wall-clock reading.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default, Hash)]
pub struct TelTime(pub u64);

impl TelTime {
    /// A timestamp from whole seconds (journal time).
    pub fn from_secs(secs: u64) -> Self {
        TelTime(secs.saturating_mul(1_000_000))
    }

    /// The raw microsecond count.
    pub fn as_micros(self) -> u64 {
        self.0
    }
}

impl fmt::Display for TelTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.0)
    }
}

/// Identifier of an open span. `SpanId(0)` is the null span (a
/// disabled handle returns it, and it is the "no parent" marker).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The null span: returned by a disabled handle, used as "no parent".
    pub const NONE: SpanId = SpanId(0);

    /// Whether this is a real (recorded) span.
    pub fn is_real(self) -> bool {
        self.0 != 0
    }
}

/// A cheap, cloneable handle instrumented components hold.
///
/// Default ([`Telemetry::noop`]) carries no recorder: each call is a
/// single `Option` branch. [`Telemetry::recording`] attaches a
/// [`Recorder`] and returns it for later export.
///
/// The `label` argument of the metric methods is a single rendered
/// Prometheus-style pair such as `module="ARPwatch"` — or `""` for an
/// unlabelled series.
#[derive(Clone, Default)]
pub struct Telemetry {
    rec: Option<Arc<Recorder>>,
}

impl Telemetry {
    /// A disabled handle (the default).
    pub fn noop() -> Self {
        Telemetry { rec: None }
    }

    /// A handle recording into a fresh [`Recorder`] (default trace
    /// ring capacity), returned alongside for export.
    pub fn recording() -> (Self, Arc<Recorder>) {
        let rec = Arc::new(Recorder::new());
        let handle = Telemetry {
            rec: Some(rec.clone()),
        };
        (handle, rec)
    }

    /// Whether a recorder is attached. Guard allocation-heavy detail
    /// formatting behind this.
    pub fn enabled(&self) -> bool {
        self.rec.is_some()
    }

    /// Adds `delta` to a monotonic counter.
    pub fn counter_add(&self, c: Counter, label: &str, delta: u64) {
        if let Some(r) = &self.rec {
            r.lock().registry.counter_add(c, label, delta);
        }
    }

    /// Sets a counter to an absolute value (for publishing totals
    /// accumulated elsewhere, e.g. the sim's event count).
    pub fn counter_set(&self, c: Counter, label: &str, value: u64) {
        if let Some(r) = &self.rec {
            r.lock().registry.counter_set(c, label, value);
        }
    }

    /// Sets a gauge.
    pub fn gauge_set(&self, g: Gauge, label: &str, value: u64) {
        if let Some(r) = &self.rec {
            r.lock().registry.gauge_set(g, label, value);
        }
    }

    /// Raises a gauge to `value` if it is below it (high-water marks).
    pub fn gauge_max(&self, g: Gauge, label: &str, value: u64) {
        if let Some(r) = &self.rec {
            r.lock().registry.gauge_max(g, label, value);
        }
    }

    /// Records `value` into a histogram, in the buckets its table row
    /// declares.
    pub fn observe(&self, h: Histogram, label: &str, value: u64) {
        if let Some(r) = &self.rec {
            r.lock().registry.observe(h, label, value);
        }
    }

    /// Opens a span at `at`; returns its id ([`SpanId::NONE`] when
    /// disabled). `parent` nests it under an open span.
    pub fn span_start(
        &self,
        name: &'static str,
        label: &str,
        parent: SpanId,
        at: TelTime,
    ) -> SpanId {
        self.span_start_remote(name, label, parent, 0, 0, at)
    }

    /// Opens a span that participates in a *distributed* trace.
    ///
    /// `trace_id` names the trace; `remote_parent` is the span id in
    /// the remote process that caused this one (0 when this process
    /// owns the trace — e.g. a client-side RPC span). `parent` still
    /// nests the span locally.
    pub fn span_start_remote(
        &self,
        name: &'static str,
        label: &str,
        parent: SpanId,
        trace_id: u64,
        remote_parent: u64,
        at: TelTime,
    ) -> SpanId {
        match &self.rec {
            Some(r) => r
                .lock()
                .trace
                .span_start(name, label, parent, trace_id, remote_parent, at),
            None => SpanId::NONE,
        }
    }

    /// Closes a span at `at`, attaching a free-form result `detail`.
    /// Closing the null span records nothing.
    pub fn span_end(&self, span: SpanId, detail: &str, at: TelTime) {
        if let Some(r) = self.rec.as_ref().filter(|_| span.is_real()) {
            r.lock().trace.span_end(span, detail, at);
        }
    }

    /// Records a point event at `at`, optionally parented to a span.
    pub fn event(&self, name: &'static str, detail: &str, parent: SpanId, at: TelTime) {
        if let Some(r) = &self.rec {
            r.lock().trace.event(name, detail, parent, at);
        }
    }

    /// Attributes `amount` units of logical work (observations,
    /// bytes, sim events, ...) to an open span. This is the
    /// profiler's raw material: folded stacks sum `work` records by
    /// the span path they landed on. Zero amounts are elided: they
    /// carry no cost information and would only bloat the trace.
    pub fn work(&self, span: SpanId, unit: &'static str, amount: u64, at: TelTime) {
        if let Some(r) = self.rec.as_ref().filter(|_| amount > 0) {
            r.lock().trace.work(span, unit, amount, at);
        }
    }

    /// A counter's total over every label (`None` when disabled).
    pub fn counter_sum(&self, c: Counter) -> Option<u64> {
        self.rec.as_ref().map(|r| r.counter_sum(c))
    }

    /// A point-in-time metrics exposition (`None` when disabled).
    pub fn exposition(&self) -> Option<String> {
        self.rec.as_ref().map(|r| r.expose())
    }

    /// The most recent `n` trace events plus the ring's drop count
    /// (`None` when disabled).
    pub fn trace_tail(&self, n: usize) -> Option<(Vec<TraceEvent>, u64)> {
        self.rec.as_ref().map(|r| {
            let inner = r.lock();
            (inner.trace.tail(n), inner.trace.dropped())
        })
    }
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::fold_events;
    use crate::trace::{render_jsonl, stitch, validate};

    #[test]
    fn noop_handle_is_inert() {
        let t = Telemetry::noop();
        assert!(!t.enabled());
        t.counter_add(metrics::WAL_APPENDS_TOTAL, "", 3);
        assert_eq!(t.counter_sum(metrics::WAL_APPENDS_TOTAL), None);
        let span = t.span_start("s", "", SpanId::NONE, TelTime(5));
        assert!(!span.is_real());
        t.span_end(span, "done", TelTime(9));
        t.event("e", "", span, TelTime(9));
    }

    #[test]
    fn recording_handle_round_trips() {
        let (t, rec) = Telemetry::recording();
        assert!(t.enabled());
        t.counter_add(metrics::WAL_APPENDS_TOTAL, "", 2);
        t.counter_add(metrics::WAL_APPENDS_TOTAL, "", 3);
        assert_eq!(rec.counter("fremont_wal_appends_total", ""), 5);
        assert_eq!(t.counter_sum(metrics::WAL_APPENDS_TOTAL), Some(5));
        let s = t.span_start("phase", "", SpanId::NONE, TelTime(1));
        assert!(s.is_real());
        t.span_end(s, "ok", TelTime(2));
        assert_eq!(rec.trace_len(), 2);
    }

    #[test]
    fn teltime_from_secs_scales() {
        assert_eq!(TelTime::from_secs(3).as_micros(), 3_000_000);
        assert_eq!(TelTime::from_secs(u64::MAX).as_micros(), u64::MAX);
    }

    #[test]
    fn debug_impl_reports_state_not_recorder() {
        let t = Telemetry::noop();
        assert_eq!(format!("{t:?}"), "Telemetry { enabled: false }");
    }

    // `trace::stitch`

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
