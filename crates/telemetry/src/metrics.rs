//! Metrics: the table that declares every metric, the registry that
//! holds their series, and a Prometheus-style text exposition (plus a
//! validating parser for it).
//!
//! Every metric is one row of the table below, declared once as a
//! `pub const` handle: a [`Counter`], [`Gauge`] or [`Histogram`] whose
//! field is private to this crate. A write site names its metric by
//! handle, so a name no row declares does not compile. Rows are sorted
//! by name, and `crates/telemetry/metrics.golden` freezes the names:
//! dashboards, the `.prom` goldens and EXPERIMENTS.md recipes grep for
//! them, and a unit test fails on a renamed or removed row.
//!
//! The [`Registry`] keeps one label → value `BTreeMap` per row, so the
//! exposition — rows in table order, labels in map order — is
//! deterministic.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A monotonic counter: one row of the metric table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counter(usize);

impl Counter {
    /// The exposed name.
    pub fn name(self) -> &'static str {
        TABLE[self.0].name
    }
}

/// A gauge: one row of the metric table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gauge(usize);

/// A histogram with the bucket bounds its row declares: one row of the
/// metric table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram(usize);

/// What a row is; a histogram row carries its upper bucket bounds
/// (inclusive, ascending; an implicit `+Inf` bucket follows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram(&'static [u64]),
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
struct Row {
    name: &'static str,
    kind: Kind,
}

/// Power-of-two logical work units (batch sizes, merge op counts).
const WORK_UNITS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096];

/// Declares the table: each `HANDLE: Kind = "name";` line becomes a row
/// of `TABLE` and a `pub const` handle holding that row's index.
macro_rules! table {
    ($($handle:ident: $kind:ident $(($bounds:expr))? = $name:literal;)*) => {
        /// Row indices, in table order.
        #[allow(non_camel_case_types)]
        enum Index {
            $($handle,)*
        }

        /// Every metric, sorted by name.
        const TABLE: &[Row] = &[$(Row { name: $name, kind: Kind::$kind $(($bounds))? },)*];

        $(
            #[doc = concat!("`", $name, "`")]
            pub const $handle: $kind = $kind(Index::$handle as usize);
        )*
    };
}

table! {
    ANALYSIS_FINDINGS: Gauge = "fremont_analysis_findings";
    DRIVER_REMOTE_ERRORS_TOTAL: Counter = "fremont_driver_remote_errors_total";
    EXPLORER_SEND_ERRORS_TOTAL: Counter = "fremont_explorer_send_errors_total";
    JOURNAL_BYTES_READ_TOTAL: Counter = "fremont_journal_bytes_read_total";
    JOURNAL_BYTES_WRITTEN_TOTAL: Counter = "fremont_journal_bytes_written_total";
    JOURNAL_CONNECTION_ERRORS_TOTAL: Counter = "fremont_journal_connection_errors_total";
    JOURNAL_CONNECTIONS_SEVERED_TOTAL: Counter = "fremont_journal_connections_severed_total";
    JOURNAL_CONNECTIONS_TOTAL: Counter = "fremont_journal_connections_total";
    JOURNAL_GATEWAYS: Gauge = "fremont_journal_gateways";
    JOURNAL_INTERFACES: Gauge = "fremont_journal_interfaces";
    JOURNAL_OBSERVATIONS_APPLIED: Gauge = "fremont_journal_observations_applied";
    JOURNAL_RPC_ABORTED_TOTAL: Counter = "fremont_journal_rpc_aborted_total";
    JOURNAL_RPC_ERRORS_TOTAL: Counter = "fremont_journal_rpc_errors_total";
    JOURNAL_RPC_TOTAL: Counter = "fremont_journal_rpc_total";
    JOURNAL_SHARD_BATCH_GROUPS_TOTAL: Counter = "fremont_journal_shard_batch_groups_total";
    JOURNAL_SHARD_READ_LOCKS_TOTAL: Counter = "fremont_journal_shard_read_locks_total";
    JOURNAL_SHARD_RECORDS: Gauge = "fremont_journal_shard_records";
    JOURNAL_SHARD_WRITE_LOCKS_TOTAL: Counter = "fremont_journal_shard_write_locks_total";
    JOURNAL_SNAPSHOT_ERRORS_TOTAL: Counter = "fremont_journal_snapshot_errors_total";
    JOURNAL_STORE_BATCH_OBSERVATIONS: Histogram(WORK_UNITS) = "fremont_journal_store_batch_observations";
    JOURNAL_STORE_BATCHED_OBSERVATIONS_TOTAL: Counter = "fremont_journal_store_batched_observations_total";
    JOURNAL_STORE_BATCHES_TOTAL: Counter = "fremont_journal_store_batches_total";
    JOURNAL_STORE_LARGEST_BATCH: Gauge = "fremont_journal_store_largest_batch";
    JOURNAL_STORE_MERGE_OPS: Histogram(WORK_UNITS) = "fremont_journal_store_merge_ops";
    JOURNAL_SUBNETS: Gauge = "fremont_journal_subnets";
    MC_STATES_EXPLORED_TOTAL: Counter = "fremont_mc_states_explored_total";
    MC_STATES_PRUNED_TOTAL: Counter = "fremont_mc_states_pruned_total";
    MC_VIOLATIONS_TOTAL: Counter = "fremont_mc_violations_total";
    MODULE_FRAMES_TAPPED_TOTAL: Counter = "fremont_module_frames_tapped_total";
    MODULE_PACKETS_RECEIVED_TOTAL: Counter = "fremont_module_packets_received_total";
    MODULE_PACKETS_SENT_TOTAL: Counter = "fremont_module_packets_sent_total";
    MODULE_RUNS_TOTAL: Counter = "fremont_module_runs_total";
    MODULE_TIMEOUTS_TOTAL: Counter = "fremont_module_timeouts_total";
    SIM_ARP_FRAMES_TOTAL: Counter = "fremont_sim_arp_frames_total";
    SIM_ARP_REQUESTS_TOTAL: Counter = "fremont_sim_arp_requests_total";
    SIM_BROADCAST_FRAMES_TOTAL: Counter = "fremont_sim_broadcast_frames_total";
    SIM_EVENTS_PROCESSED_TOTAL: Counter = "fremont_sim_events_processed_total";
    SIM_FAULT_EVENTS_TOTAL: Counter = "fremont_sim_fault_events_total";
    SIM_FAULT_PARTITION_FRAMES_DROPPED_TOTAL: Counter = "fremont_sim_fault_partition_frames_dropped_total";
    SIM_FAULT_UNRESOLVED_TOTAL: Counter = "fremont_sim_fault_unresolved_total";
    SIM_FRAME_BYTES_TOTAL: Counter = "fremont_sim_frame_bytes_total";
    SIM_FRAME_DELIVERIES_TOTAL: Counter = "fremont_sim_frame_deliveries_total";
    SIM_FRAMES_LOST_TOTAL: Counter = "fremont_sim_frames_lost_total";
    SIM_FRAMES_SENT_TOTAL: Counter = "fremont_sim_frames_sent_total";
    SIM_ICMP_ERRORS_TOTAL: Counter = "fremont_sim_icmp_errors_total";
    SIM_PACKETS_FORWARDED_TOTAL: Counter = "fremont_sim_packets_forwarded_total";
    SIM_PACKETS_ORIGINATED_TOTAL: Counter = "fremont_sim_packets_originated_total";
    SIM_QUEUE_DEPTH_HWM: Gauge = "fremont_sim_queue_depth_hwm";
    TRACE_DROPPED_TOTAL: Counter = "fremont_trace_dropped_total";
    WAL_APPENDS_TOTAL: Counter = "fremont_wal_appends_total";
    WAL_FSYNCS_TOTAL: Counter = "fremont_wal_fsyncs_total";
    WAL_RECOVERY_RECORDS_REPLAYED: Counter = "fremont_wal_recovery_records_replayed";
    WAL_RECOVERY_RECORDS_SKIPPED: Counter = "fremont_wal_recovery_records_skipped";
    WAL_RECOVERY_SEGMENTS_SCANNED: Counter = "fremont_wal_recovery_segments_scanned";
    WAL_RECOVERY_SNAPSHOT_LOADED: Gauge = "fremont_wal_recovery_snapshot_loaded";
    WAL_RECOVERY_TORN_BYTES_DROPPED: Counter = "fremont_wal_recovery_torn_bytes_dropped";
    WAL_RECOVERY_WATERMARK: Gauge = "fremont_wal_recovery_watermark";
    WAL_SEGMENT_ROTATIONS_TOTAL: Counter = "fremont_wal_segment_rotations_total";
}

/// One histogram series: a count per bucket of its row's bounds.
#[derive(Debug, Clone)]
struct Buckets {
    /// One count per bound plus the `+Inf` overflow bucket.
    counts: Vec<u64>,
    sum: u64,
    count: u64,
}

/// Applies `f` to the series at `label`, first inserting `init()` if
/// there is none. The lookup comes first, so an existing series costs
/// no allocation.
fn update<V>(
    series: &mut BTreeMap<String, V>,
    label: &str,
    init: impl FnOnce() -> V,
    f: impl FnOnce(&mut V),
) {
    match series.get_mut(label) {
        Some(v) => f(v),
        None => {
            let mut v = init();
            f(&mut v);
            series.insert(label.to_owned(), v);
        }
    }
}

/// The metrics store behind a recording sink: one label → value map
/// per table row, indexed by the row's handle.
#[derive(Debug)]
pub struct Registry {
    /// Counter and gauge rows' series (empty for histogram rows).
    values: Vec<BTreeMap<String, u64>>,
    /// Histogram rows' series (empty for the other rows).
    histograms: Vec<BTreeMap<String, Buckets>>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry {
            values: vec![BTreeMap::new(); TABLE.len()],
            histograms: vec![BTreeMap::new(); TABLE.len()],
        }
    }

    /// Adds `delta` to a counter, creating it at zero first.
    pub fn counter_add(&mut self, c: Counter, label: &str, delta: u64) {
        update(
            &mut self.values[c.0],
            label,
            || 0,
            |v| *v = v.saturating_add(delta),
        );
    }

    /// Sets a counter to an absolute value.
    pub fn counter_set(&mut self, c: Counter, label: &str, value: u64) {
        update(&mut self.values[c.0], label, || 0, |v| *v = value);
    }

    /// Sets a gauge.
    pub fn gauge_set(&mut self, g: Gauge, label: &str, value: u64) {
        update(&mut self.values[g.0], label, || 0, |v| *v = value);
    }

    /// Raises a gauge to `value` if currently below it.
    pub fn gauge_max(&mut self, g: Gauge, label: &str, value: u64) {
        update(&mut self.values[g.0], label, || 0, |v| *v = (*v).max(value));
    }

    /// Records `value` into a histogram series.
    pub fn observe(&mut self, h: Histogram, label: &str, value: u64) {
        // Only the table makes handles: a `Histogram` is a histogram row.
        let Kind::Histogram(bounds) = TABLE[h.0].kind else {
            return;
        };
        let init = || Buckets {
            counts: vec![0; bounds.len() + 1],
            sum: 0,
            count: 0,
        };
        update(&mut self.histograms[h.0], label, init, |b| {
            let idx = bounds
                .iter()
                .position(|&bound| value <= bound)
                .unwrap_or(bounds.len());
            b.counts[idx] += 1;
            b.sum = b.sum.saturating_add(value);
            b.count += 1;
        });
    }

    /// Current value of the counter series `name{label}` (0 when no
    /// counter has that name or the series does not exist).
    pub fn counter(&self, name: &str, label: &str) -> u64 {
        TABLE
            .binary_search_by(|row| row.name.cmp(name))
            .ok()
            .filter(|&i| TABLE[i].kind == Kind::Counter)
            .and_then(|i| self.values[i].get(label).copied())
            .unwrap_or(0)
    }

    /// The sum of a counter's series over every label.
    pub fn counter_sum(&self, c: Counter) -> u64 {
        self.values[c.0].values().sum()
    }

    /// Renders the whole registry as Prometheus-style text exposition.
    ///
    /// Counters come first, then gauges, then histograms, each in table
    /// order, with one `# TYPE` header per metric and its series in
    /// label order. Counters and gauges are one sample line per series;
    /// histograms expand to cumulative `_bucket{le=...}` lines plus
    /// `_sum` and `_count`.
    pub fn expose(&self) -> String {
        let mut out = String::new();
        for (kind, type_name) in [(Kind::Counter, "counter"), (Kind::Gauge, "gauge")] {
            for (row, series) in TABLE.iter().zip(&self.values) {
                if row.kind != kind || series.is_empty() {
                    continue;
                }
                let name = row.name;
                writeln!(out, "# TYPE {name} {type_name}").ok();
                for (label, value) in series {
                    writeln!(out, "{name}{} {value}", braced(label)).ok();
                }
            }
        }
        for (row, series) in TABLE.iter().zip(&self.histograms) {
            let Kind::Histogram(bounds) = row.kind else {
                continue;
            };
            if series.is_empty() {
                continue;
            }
            let name = row.name;
            writeln!(out, "# TYPE {name} histogram").ok();
            for (label, h) in series {
                let mut cum = 0u64;
                for (i, bound) in bounds.iter().enumerate() {
                    cum += h.counts[i];
                    let le = format!("le=\"{bound}\"");
                    writeln!(out, "{name}_bucket{} {cum}", braced(&join(label, &le))).ok();
                }
                cum += h.counts[bounds.len()];
                let inf = "le=\"+Inf\"".to_string();
                writeln!(out, "{name}_bucket{} {cum}", braced(&join(label, &inf))).ok();
                writeln!(out, "{name}_sum{} {}", braced(label), h.sum).ok();
                writeln!(out, "{name}_count{} {}", braced(label), h.count).ok();
            }
        }
        out
    }
}

fn braced(label: &str) -> String {
    if label.is_empty() {
        String::new()
    } else {
        format!("{{{label}}}")
    }
}

fn join(label: &str, extra: &str) -> String {
    if label.is_empty() {
        extra.to_string()
    } else {
        format!("{label},{extra}")
    }
}

/// Validates Prometheus-style exposition text produced by
/// [`Registry::expose`] (or anything shaped like it). Returns the
/// number of sample lines on success, or a description of the first
/// malformed line.
pub fn parse_exposition(text: &str) -> Result<usize, String> {
    let mut samples = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        parse_sample(line).map_err(|e| format!("line {}: {e}: {line:?}", lineno + 1))?;
        samples += 1;
    }
    Ok(samples)
}

fn parse_sample(line: &str) -> Result<(), String> {
    let (series, value) = line
        .rsplit_once(' ')
        .ok_or_else(|| "missing value".to_string())?;
    value
        .parse::<f64>()
        .map_err(|_| format!("bad value {value:?}"))?;
    let name = match series.split_once('{') {
        Some((name, rest)) => {
            let labels = rest
                .strip_suffix('}')
                .ok_or_else(|| "unclosed label braces".to_string())?;
            for pair in labels.split(',') {
                let (k, v) = pair
                    .split_once('=')
                    .ok_or_else(|| format!("label {pair:?} missing '='"))?;
                if !is_valid_name(k) {
                    return Err(format!("bad label name {k:?}"));
                }
                if !(v.starts_with('"') && v.ends_with('"') && v.len() >= 2) {
                    return Err(format!("label value {v:?} not quoted"));
                }
            }
            name
        }
        None => series,
    };
    if !is_valid_name(name) {
        return Err(format!("bad metric name {name:?}"));
    }
    Ok(())
}

fn is_valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::collections::BTreeSet;

    /// The committed name list, which outlives any one version of the
    /// table.
    const GOLDEN: &str = include_str!("../metrics.golden");

    const GOLDEN_HEADER: &str = "\
# fremont-telemetry metric names, one per row of the table in src/metrics.rs.
# A renamed or removed row fails `metrics::tests`; a new row adds its name here.
";

    /// `metrics.golden` as `rows` render it.
    fn render(rows: &[Row]) -> String {
        let mut out = GOLDEN_HEADER.to_owned();
        for row in rows {
            out.push_str(row.name);
            out.push('\n');
        }
        out
    }

    /// Checks `rows` against the golden; on a mismatch, lists each line
    /// the golden has and the rows lack (`-`: a renamed or removed
    /// metric) and each they add (`+`).
    fn check_golden(rows: &[Row]) -> Result<(), String> {
        let rendered = render(rows);
        if rendered == GOLDEN {
            return Ok(());
        }
        let old: BTreeSet<&str> = GOLDEN.lines().collect();
        let new: BTreeSet<&str> = rendered.lines().collect();
        let mut diff: Vec<String> = old.difference(&new).map(|l| format!("-{l}")).collect();
        diff.extend(new.difference(&old).map(|l| format!("+{l}")));
        if diff.is_empty() {
            diff.push("(the same lines in another order)".to_owned());
        }
        Err(format!(
            "the metric table no longer renders crates/telemetry/metrics.golden. \
             Dashboards, the .prom goldens and CI byte-diffs grep for these names: \
             restore a renamed one; add a new one to the golden too.\n{}",
            diff.join("\n")
        ))
    }

    fn gauge(r: &Registry, g: Gauge, label: &str) -> u64 {
        r.values[g.0].get(label).copied().unwrap_or(0)
    }

    #[test]
    fn the_table_renders_metrics_golden() {
        if let Err(diff) = check_golden(TABLE) {
            panic!("{diff}");
        }
    }

    #[test]
    fn renaming_a_metric_fails_the_build() {
        let mut rows = TABLE.to_vec();
        let row = rows
            .iter_mut()
            .find(|r| r.name == "fremont_journal_connections_total")
            .expect("the guarded metric exists");
        row.name = "fremont_journal_sessions_total";
        let diff = check_golden(&rows).expect_err("a renamed metric must fail");
        assert!(
            diff.contains("-fremont_journal_connections_total")
                && diff.contains("+fremont_journal_sessions_total"),
            "the diff names the old and the new metric: {diff}"
        );
    }

    #[test]
    fn the_table_is_sorted_unique_and_well_named() {
        for pair in TABLE.windows(2) {
            assert!(
                pair[0].name < pair[1].name,
                "rows sorted by name, no duplicate: {} then {}",
                pair[0].name,
                pair[1].name
            );
        }
        for row in TABLE {
            let name = row.name;
            assert!(
                is_valid_name(name)
                    && name.starts_with("fremont_")
                    && !name.bytes().any(|b| b.is_ascii_uppercase()),
                "{name} is a lowercase `fremont_` Prometheus name"
            );
        }
    }

    #[test]
    fn counters_accumulate_and_set() {
        let mut r = Registry::new();
        r.counter_add(WAL_APPENDS_TOTAL, "", 2);
        r.counter_add(WAL_APPENDS_TOTAL, "", 3);
        assert_eq!(r.counter("fremont_wal_appends_total", ""), 5);
        r.counter_set(WAL_APPENDS_TOTAL, "", 1);
        assert_eq!(r.counter("fremont_wal_appends_total", ""), 1);
        assert_eq!(r.counter("missing", ""), 0);
        r.gauge_set(JOURNAL_GATEWAYS, "", 4);
        assert_eq!(
            r.counter("fremont_journal_gateways", ""),
            0,
            "not a counter"
        );
    }

    #[test]
    fn labels_separate_series() {
        let mut r = Registry::new();
        r.counter_add(JOURNAL_RPC_TOTAL, "rpc=\"stats\"", 7);
        r.counter_add(JOURNAL_RPC_TOTAL, "rpc=\"flush\"", 1);
        assert_eq!(r.counter("fremont_journal_rpc_total", "rpc=\"stats\""), 7);
        assert_eq!(r.counter("fremont_journal_rpc_total", "rpc=\"flush\""), 1);
        assert_eq!(r.counter("fremont_journal_rpc_total", ""), 0);
        assert_eq!(r.counter_sum(JOURNAL_RPC_TOTAL), 8);
        assert_eq!(r.counter_sum(JOURNAL_RPC_ERRORS_TOTAL), 0);
    }

    #[test]
    fn gauge_max_is_high_water_mark() {
        let mut r = Registry::new();
        r.gauge_max(SIM_QUEUE_DEPTH_HWM, "", 4);
        r.gauge_max(SIM_QUEUE_DEPTH_HWM, "", 2);
        assert_eq!(gauge(&r, SIM_QUEUE_DEPTH_HWM, ""), 4);
        r.gauge_set(SIM_QUEUE_DEPTH_HWM, "", 1);
        assert_eq!(gauge(&r, SIM_QUEUE_DEPTH_HWM, ""), 1);
    }

    #[test]
    fn histogram_buckets_are_cumulative_in_exposition() {
        let mut r = Registry::new();
        for v in [1, 50, 5000] {
            r.observe(JOURNAL_STORE_MERGE_OPS, "", v);
        }
        let text = r.expose();
        let name = "fremont_journal_store_merge_ops";
        assert!(
            text.contains(&format!("{name}_bucket{{le=\"1\"}} 1")),
            "{text}"
        );
        assert!(
            text.contains(&format!("{name}_bucket{{le=\"32\"}} 1")),
            "{text}"
        );
        assert!(
            text.contains(&format!("{name}_bucket{{le=\"64\"}} 2")),
            "{text}"
        );
        assert!(
            text.contains(&format!("{name}_bucket{{le=\"4096\"}} 2")),
            "{text}"
        );
        assert!(
            text.contains(&format!("{name}_bucket{{le=\"+Inf\"}} 3")),
            "{text}"
        );
        assert!(text.contains(&format!("{name}_sum 5051")), "{text}");
        assert!(text.contains(&format!("{name}_count 3")), "{text}");
    }

    #[test]
    fn exposition_round_trips_through_parser() {
        let mut r = Registry::new();
        r.counter_add(JOURNAL_RPC_TOTAL, "rpc=\"store_batch\"", 9);
        r.gauge_set(JOURNAL_SUBNETS, "", 3);
        r.observe(JOURNAL_STORE_BATCH_OBSERVATIONS, "", 4);
        let text = r.expose();
        let n = parse_exposition(&text).expect("own exposition parses");
        // 1 counter + 1 gauge + (13 buckets + Inf + sum + count).
        assert_eq!(n, 18);
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_exposition("ok_total 1\n").is_ok());
        assert!(parse_exposition("no_value\n").is_err());
        assert!(parse_exposition("bad name 1\n").is_err());
        assert!(parse_exposition("x{unquoted=v} 1\n").is_err());
        assert!(parse_exposition("x{open=\"v\" 1\n").is_err());
        assert!(parse_exposition("x 12abc\n").is_err());
        assert!(parse_exposition("# comment only\n\n").unwrap() == 0);
    }

    #[test]
    fn expose_is_deterministic_across_insert_orders() {
        let mut a = Registry::new();
        a.counter_add(WAL_FSYNCS_TOTAL, "", 1);
        a.gauge_set(JOURNAL_SUBNETS, "", 2);
        a.counter_add(WAL_APPENDS_TOTAL, "kind=\"b\"", 1);
        a.counter_add(WAL_APPENDS_TOTAL, "kind=\"a\"", 1);
        let mut b = Registry::new();
        b.counter_add(WAL_APPENDS_TOTAL, "kind=\"a\"", 1);
        b.counter_add(WAL_APPENDS_TOTAL, "kind=\"b\"", 1);
        b.gauge_set(JOURNAL_SUBNETS, "", 2);
        b.counter_add(WAL_FSYNCS_TOTAL, "", 1);
        assert_eq!(a.expose(), b.expose());
        assert_eq!(
            a.expose(),
            "# TYPE fremont_wal_appends_total counter\n\
             fremont_wal_appends_total{kind=\"a\"} 1\n\
             fremont_wal_appends_total{kind=\"b\"} 1\n\
             # TYPE fremont_wal_fsyncs_total counter\n\
             fremont_wal_fsyncs_total 1\n\
             # TYPE fremont_journal_subnets gauge\n\
             fremont_journal_subnets 2\n"
        );
    }
}
