//! End-to-end causal tracing across the process boundary.
//!
//! A Discovery Driver writes through to a durable Journal Server over
//! TCP; each side records its own trace ring. Stitching the two JSONL
//! files must reassemble one rooted causal tree — a driver
//! `client.store_batch` span, one per draining `driver.pump`, parenting
//! the server's per-RPC decode/apply/reply children, with WAL
//! append/fsync spans nested under apply — and because every timestamp
//! is the driver's sim clock, two same-seed runs must produce
//! byte-identical stitched traces and folded-stack profiles.

use std::collections::HashMap;
use std::path::Path;

use fremont::core::{DiscoveryDriver, DriverConfig};
use fremont::journal::JournalServer;
use fremont::netsim::builder::TopologyBuilder;
use fremont::netsim::time::SimDuration;
use fremont::storage::{DurableJournal, WalConfig};
use fremont::telemetry::profile::fold_events;
use fremont::telemetry::trace::{parse_jsonl, stitch_jsonl, validate};
use fremont::telemetry::Telemetry;
use fremont::telemetry::TraceEvent;

/// Runs a driver writing through to an in-process durable Journal
/// Server and returns the stitched trace of both processes.
fn traced_run(seed: u64, dir: &Path) -> String {
    let _ = std::fs::remove_dir_all(dir);
    let (driver_tel, driver_rec) = Telemetry::recording();
    let (server_tel, server_rec) = Telemetry::recording();
    let (durable, _report) =
        DurableJournal::open_with_telemetry(WalConfig::new(dir), server_tel.clone()).unwrap();
    let server =
        JournalServer::start_with_telemetry(durable, "127.0.0.1:0", None, server_tel).unwrap();

    let mut b = TopologyBuilder::new();
    let a = b.segment("net-a", "10.5.1.0/26");
    let c = b.segment("net-c", "10.5.2.0/26");
    b.host("probe", a, 10);
    b.host("other", a, 11);
    b.host("far", c, 10);
    b.router("gw", &[(a, 1), (c, 1)]);
    let (sim, topo) = b.build(seed);
    let home = topo.nodes_by_name["probe"];

    let mut cfg = DriverConfig::full("10.5.0.0/16".parse().unwrap(), None);
    cfg.telemetry = driver_tel;
    cfg.remote_journal = Some(server.addr().to_string());
    cfg.trace_id = 7;
    let mut driver = DiscoveryDriver::open(sim, home, cfg).unwrap();
    driver.run_for(SimDuration::from_mins(10)).unwrap();
    drop(driver); // clean EOF, not an aborted RPC
    server.shutdown();

    let _ = std::fs::remove_dir_all(dir);
    stitch_jsonl(&[driver_rec.trace_jsonl(), server_rec.trace_jsonl()]).expect("stitch")
}

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("fremont-stitch-{name}"))
}

/// Index span_start events by id.
fn starts(events: &[TraceEvent]) -> HashMap<u64, &TraceEvent> {
    events
        .iter()
        .filter(|e| e.kind == "span_start")
        .map(|e| (e.id, e))
        .collect()
}

#[test]
fn stitched_deployment_trace_is_one_causal_tree() {
    let stitched = traced_run(1993, &tmp("tree"));
    let events = parse_jsonl(&stitched).expect("stitched trace parses");
    let summary = validate(&events).expect("stitched trace validates");
    assert!(summary.spans > 10, "expected a real run, got {summary:?}");

    let by_id = starts(&events);
    // Exactly one root: the synthetic stitch span.
    let roots: Vec<_> = by_id.values().filter(|e| e.parent == 0).collect();
    assert_eq!(roots.len(), 1, "one rooted tree");
    assert_eq!(roots[0].name, "stitch");

    // No cross-process plumbing survives into the stitched output.
    for e in &events {
        assert_eq!(e.trace_id, 0, "stitched events carry no trace_id: {e:?}");
        assert_eq!(e.remote_parent, 0, "no remote_parent survives: {e:?}");
    }

    // A driver-side client.store_batch span parents the server's RPC
    // span, which parents decode/apply/reply; WAL work nests under
    // apply. Check the first store RPC end to end.
    let rpc = by_id
        .values()
        .find(|e| e.name == "server.rpc")
        .expect("server.rpc span in stitched trace");
    let client = &by_id[&rpc.parent];
    assert_eq!(client.name, "client.store_batch");

    let children: Vec<&str> = events
        .iter()
        .filter(|e| e.kind == "span_start" && e.parent == rpc.id)
        .map(|e| e.name.as_str())
        .collect();
    assert_eq!(children, ["server.decode", "server.apply", "server.reply"]);

    let apply = by_id
        .values()
        .find(|e| e.name == "server.apply" && e.parent == rpc.id)
        .unwrap();
    let wal_children: Vec<&str> = events
        .iter()
        .filter(|e| e.kind == "span_start" && e.parent == apply.id)
        .map(|e| e.name.as_str())
        .collect();
    assert!(
        wal_children.contains(&"wal.append"),
        "WAL append must nest under server.apply, got {wal_children:?}"
    );

    // A pump ships its writes in one round trip: every store RPC hangs
    // directly from a `driver.pump`, and no pump has two.
    let mut per_pump: HashMap<u64, usize> = HashMap::new();
    for e in by_id.values().filter(|e| e.name == "client.store_batch") {
        assert_eq!(by_id[&e.parent].name, "driver.pump", "{e:?}");
        *per_pump.entry(e.parent).or_default() += 1;
    }
    assert!(per_pump.len() >= 3, "{per_pump:?}");
    assert!(per_pump.values().all(|&n| n == 1), "{per_pump:?}");
}

#[test]
fn same_seed_runs_stitch_and_fold_byte_identically() {
    let stitched_a = traced_run(20717, &tmp("det-a"));
    let stitched_b = traced_run(20717, &tmp("det-b"));
    assert!(!stitched_a.is_empty());
    assert_eq!(
        stitched_a, stitched_b,
        "same-seed stitched traces must be byte-identical"
    );

    let events = parse_jsonl(&stitched_a).unwrap();
    let folded_a = fold_events(&events);
    let folded_b = fold_events(&parse_jsonl(&stitched_b).unwrap());
    assert_eq!(folded_a, folded_b, "folded profiles must be byte-identical");
    // The profile is keyed by logical work, and the write path shows up.
    assert!(folded_a.contains("bytes;stitch;"), "{folded_a}");
    assert!(
        folded_a.contains("client.store_batch;server.rpc;server.apply;wal.append"),
        "profile must show the cross-process write path:\n{folded_a}"
    );
}
