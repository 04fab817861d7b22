//! Telemetry experiment: the driver-integrated Table 4 plus the
//! observability smoke check.
//!
//! Where [`crate::exp_runtime`] measures each module in isolation on a
//! quiet campus, this experiment runs the whole Discovery Manager with a
//! recording [`Telemetry`] sink attached and reports what the
//! *telemetry layer itself* saw: per-module packet counters, the
//! driver's [`ModuleLoadReport`] beside the paper's Table 4 columns,
//! and the Prometheus exposition — all keyed to simulated time, so two
//! same-seed runs produce byte-identical output.

use fremont_core::load::ModuleLoadReport;
use fremont_core::Fremont;
use fremont_netsim::campus::CampusConfig;
use fremont_netsim::time::SimDuration;
use fremont_telemetry::{parse_exposition, Recorder, Telemetry};

use crate::tables::Table;

/// Output of one instrumented exploration.
pub struct TelemetryRun {
    /// The driver's measured per-module load.
    pub report: ModuleLoadReport,
    /// Prometheus text exposition of every metric the run produced.
    pub exposition: String,
    /// The span/event trace as JSONL.
    pub trace_jsonl: String,
    /// Span/event records captured (after ring-buffer eviction).
    pub trace_len: usize,
}

/// Explores `cfg` for `hours` simulated hours with a recording sink.
pub fn instrumented_run(cfg: &CampusConfig, hours: u64) -> TelemetryRun {
    let (telemetry, recorder): (Telemetry, std::sync::Arc<Recorder>) = Telemetry::recording();
    let mut system = Fremont::over_campus_with_telemetry(cfg, telemetry);
    system
        .explore(SimDuration::from_hours(hours))
        .expect("in-memory explore cannot fail to flush");
    system.driver.publish_metrics();
    TelemetryRun {
        report: system.load_report(),
        exposition: recorder.expose(),
        trace_jsonl: recorder.trace_jsonl(),
        trace_len: recorder.trace_len(),
    }
}

/// Renders the driver-integrated Table 4: measured counters from the
/// telemetry layer beside the paper's published characteristics.
pub fn table4_telemetry(cfg: &CampusConfig, hours: u64) -> Table {
    let run = instrumented_run(cfg, hours);
    let samples = parse_exposition(&run.exposition).expect("exposition must parse");
    let mut t = Table::new(
        "Table 4 (driver-integrated): module load as seen by telemetry",
        &[
            "Module",
            "Runs",
            "Sent",
            "Recv",
            "Tapped",
            "Pkts/sec",
            "Paper load",
            "Paper time",
        ],
    );
    for row in &run.report.rows {
        t.row(&[
            row.source.name().to_owned(),
            row.runs.to_string(),
            row.load.packets_sent.to_string(),
            row.load.packets_received.to_string(),
            row.load.frames_tapped.to_string(),
            format!("{:.2}", row.load.pkts_per_sec()),
            row.paper_network_load.to_owned(),
            row.paper_completion.to_owned(),
        ]);
    }
    t.note(&format!(
        "{samples} exposition samples; {} trace records; all timestamps are simulated time",
        run.trace_len
    ));
    t
}
