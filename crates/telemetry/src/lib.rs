//! Deterministic observability for the Fremont reproduction.
//!
//! The paper evaluates Fremont by its operational footprint (Table 4:
//! per-module network load and completion time), and §5 diagnoses
//! problems by correlating timestamped observations. This crate is the
//! measurement substrate for that: a metrics registry (counters,
//! gauges, fixed-bound histograms) and a span/event tracer.
//!
//! # Determinism contract
//!
//! Nothing in this crate reads a wall clock or an entropy source; the
//! workspace lint (`fremont-lint`) enforces that at the token level.
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

/// Histogram bucket boundary presets. Bounds are `'static` so the
/// registry can validate that repeated observations agree on shape.
pub mod bounds {
    /// Power-of-two logical work units (batch sizes, merge op counts).
    pub const WORK_UNITS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096];

    /// Simulated durations in microseconds, 1ms .. 1h.
    pub const SIM_MICROS: &[u64] = &[
        1_000,
        10_000,
        100_000,
        1_000_000,
        10_000_000,
        60_000_000,
        600_000_000,
        3_600_000_000,
    ];

    /// Frame/record sizes in bytes.
    pub const BYTES: &[u64] = &[64, 256, 1024, 4096, 16_384, 65_536, 262_144, 1_048_576];
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
    pub fn counter_add(&self, name: &'static str, label: &str, delta: u64) {
        if let Some(r) = &self.rec {
            r.counter_add(name, label, delta);
        }
    }

    /// Sets a counter to an absolute value (for publishing totals
    /// accumulated elsewhere, e.g. the sim's event count).
    pub fn counter_set(&self, name: &'static str, label: &str, value: u64) {
        if let Some(r) = &self.rec {
            r.counter_set(name, label, value);
        }
    }

    /// Sets a gauge.
    pub fn gauge_set(&self, name: &'static str, label: &str, value: u64) {
        if let Some(r) = &self.rec {
            r.gauge_set(name, label, value);
        }
    }

    /// Raises a gauge to `value` if it is below it (high-water marks).
    pub fn gauge_max(&self, name: &'static str, label: &str, value: u64) {
        if let Some(r) = &self.rec {
            r.gauge_max(name, label, value);
        }
    }

    /// Records `value` into a histogram with fixed bucket `bounds`.
    pub fn observe(&self, name: &'static str, label: &str, bounds: &'static [u64], value: u64) {
        if let Some(r) = &self.rec {
            r.observe(name, label, bounds, value);
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
            Some(r) => r.span_start_remote(name, label, parent, trace_id, remote_parent, at),
            None => SpanId::NONE,
        }
    }

    /// Closes a span at `at`, attaching a free-form result `detail`.
    pub fn span_end(&self, span: SpanId, detail: &str, at: TelTime) {
        if let Some(r) = &self.rec {
            r.span_end(span, detail, at);
        }
    }

    /// Records a point event at `at`, optionally parented to a span.
    pub fn event(&self, name: &'static str, detail: &str, parent: SpanId, at: TelTime) {
        if let Some(r) = &self.rec {
            r.event(name, detail, parent, at);
        }
    }

    /// Attributes `amount` units of logical work (observations,
    /// bytes, sim events, ...) to an open span. This is the
    /// profiler's raw material: folded stacks sum `work` records by
    /// the span path they landed on. Zero amounts are elided: they
    /// carry no cost information and would only bloat the trace.
    pub fn work(&self, span: SpanId, unit: &'static str, amount: u64, at: TelTime) {
        if let Some(r) = &self.rec {
            r.work(span, unit, amount, at);
        }
    }

    /// A point-in-time metrics exposition (`None` when disabled).
    pub fn exposition(&self) -> Option<String> {
        self.rec.as_ref().map(|r| r.expose())
    }

    /// The most recent `n` trace events plus the ring's drop count
    /// (`None` when disabled).
    pub fn trace_tail(&self, n: usize) -> Option<(Vec<TraceEvent>, u64)> {
        self.rec.as_ref().map(|r| r.trace_tail(n))
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

    #[test]
    fn noop_handle_is_inert() {
        let t = Telemetry::noop();
        assert!(!t.enabled());
        t.counter_add("x_total", "", 3);
        let span = t.span_start("s", "", SpanId::NONE, TelTime(5));
        assert!(!span.is_real());
        t.span_end(span, "done", TelTime(9));
        t.event("e", "", span, TelTime(9));
    }

    #[test]
    fn recording_handle_round_trips() {
        let (t, rec) = Telemetry::recording();
        assert!(t.enabled());
        t.counter_add("fremont_test_total", "", 2);
        t.counter_add("fremont_test_total", "", 3);
        assert_eq!(rec.counter("fremont_test_total", ""), 5);
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
}
