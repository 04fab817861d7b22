//! End-to-end determinism contract for the telemetry layer.
//!
//! The whole value of sim-time-keyed observability is replayability:
//! two explorations with the same seed must emit byte-identical traces
//! and metric expositions, the exposition must be valid Prometheus
//! text, and the per-module load report must show the fleet actually
//! ran. CI also runs this file in release mode; `golden_16h` holds the
//! byte-identity over 16 simulated hours of the full campus.

#![allow(clippy::unwrap_used)]

use fremont::core::Fremont;
use fremont::netsim::campus::CampusConfig;
use fremont::netsim::time::SimDuration;
use fremont::telemetry::{parse_exposition, Telemetry, TraceEvent};

fn instrumented(cfg: &CampusConfig, hours: u64) -> (String, String, usize) {
    let (telemetry, rec) = Telemetry::recording();
    let mut system = Fremont::over_campus_with_telemetry(cfg, telemetry);
    system.explore(SimDuration::from_hours(hours)).unwrap();
    system.driver.publish_metrics();
    let active = system
        .load_report()
        .rows
        .iter()
        .filter(|r| r.load.active())
        .count();
    (rec.trace_jsonl(), rec.expose(), active)
}

#[test]
fn same_seed_runs_are_byte_identical() {
    let mut cfg = CampusConfig::small();
    cfg.cs_traffic = true;
    let (trace_a, expo_a, active_a) = instrumented(&cfg, 3);
    let (trace_b, expo_b, active_b) = instrumented(&cfg, 3);

    assert!(!trace_a.is_empty(), "instrumented run must emit a trace");
    assert_eq!(trace_a, trace_b, "same-seed traces must be byte-identical");
    assert_eq!(
        expo_a, expo_b,
        "same-seed expositions must be byte-identical"
    );
    assert_eq!(active_a, active_b);
    assert!(
        active_a >= 6,
        "most of the module fleet must show activity, got {active_a}/8"
    );

    let samples = parse_exposition(&expo_a).expect("exposition must be valid Prometheus text");
    assert!(
        samples > 20,
        "expected a substantial exposition, got {samples} samples"
    );
    for required in [
        "fremont_sim_events_processed_total",
        "fremont_sim_frame_deliveries_total",
        "fremont_module_packets_sent_total",
        "fremont_journal_observations_applied",
        "fremont_sim_queue_depth_hwm",
    ] {
        assert!(expo_a.contains(required), "exposition missing {required}");
    }
}

#[test]
fn trace_is_wellformed_jsonl_keyed_to_sim_time() {
    let mut cfg = CampusConfig::small();
    cfg.cs_traffic = true;
    let (trace, _, _) = instrumented(&cfg, 1);
    let mut spans = 0usize;
    let mut last_at = 0u64;
    let mut work_units = std::collections::BTreeSet::new();
    for line in trace.lines() {
        let ev: TraceEvent = serde_json::from_str(line).expect("each line parses");
        assert!(ev.at >= last_at, "trace timestamps are monotone sim time");
        last_at = ev.at;
        if ev.kind == "span_start" {
            spans += 1;
        }
        if ev.kind == "work" {
            work_units.insert(ev.name);
        }
    }
    assert!(spans > 0, "driver pumps must open spans");
    // Simulator work is attributed per layer, not only per event.
    for unit in [
        "sim_events",
        "frames",
        "link_deliveries",
        "arp_packets",
        "ip_packets",
        "rip_packets",
    ] {
        assert!(work_units.contains(unit), "no {unit} work in the trace");
    }
}
