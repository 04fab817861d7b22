//! Traced distributed deployment: a Discovery Driver writing through
//! to a durable Journal Server over TCP, with end-to-end causal
//! tracing across the process boundary.
//!
//! ```sh
//! cargo run --release --example traced_deployment -- --out-dir traces
//! ```
//!
//! The driver and server each record their own span/event trace into
//! their own ring. Every `StoreBatch` frame carries a `TraceContext`
//! (trace id + parent span + driver clock), so the server's per-RPC
//! spans — decode, apply (with nested WAL append/fsync), reply — are
//! children of the driver's `client.store_batch` span. After the run
//! the example writes both raw traces, stitches them into one causal
//! tree (`stitched.jsonl`), and folds the tree into a
//! flamegraph-compatible work profile (`profile.folded`):
//!
//! ```sh
//! flamegraph.pl traces/profile.folded > profile.svg   # optional
//! ```
//!
//! All timestamps are simulated micros and the server spans are
//! stamped with the driver's clock, so two runs with the same seed
//! produce byte-identical stitched traces and profiles — CI diffs
//! them.

#![allow(
    clippy::expect_used,
    clippy::let_underscore_must_use,
    reason = "a demo: a setup step that fails ends the run with its message, and the \
              data directory it clears first may not exist"
)]

use std::path::PathBuf;

use fremont::core::driver::{DiscoveryDriver, DriverConfig};
use fremont::journal::{JournalAccess, JournalServer};
use fremont::netsim::builder::TopologyBuilder;
use fremont::netsim::time::SimDuration;
use fremont::storage::{DurableJournal, WalConfig};
use fremont::telemetry::profile::fold_events;
use fremont::telemetry::trace::{parse_jsonl, stitch_jsonl};
use fremont::telemetry::Telemetry;

fn main() {
    let mut out_dir = PathBuf::from("traces");
    let mut seed: u64 = 1993;
    let mut mins: u64 = 30;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out-dir" => {
                out_dir = args.next().map(PathBuf::from).unwrap_or_else(|| {
                    eprintln!("error: --out-dir needs a directory argument");
                    std::process::exit(2);
                })
            }
            "--seed" => {
                seed = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("error: --seed needs an integer argument");
                    std::process::exit(2);
                })
            }
            "--mins" => {
                mins = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("error: --mins needs an integer argument");
                    std::process::exit(2);
                })
            }
            other => {
                eprintln!("error: unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
    std::fs::create_dir_all(&out_dir).expect("create out dir");

    // Two processes' worth of telemetry: the driver's ring and the
    // server's ring, exactly as a real two-host deployment records.
    let (driver_tel, driver_rec) = Telemetry::recording();
    let (server_tel, server_rec) = Telemetry::recording();

    // Durable server over a fresh WAL directory.
    let data_dir = out_dir.join("journal-data");
    let _ = std::fs::remove_dir_all(&data_dir);
    let (durable, _report) =
        DurableJournal::open_with_telemetry(WalConfig::new(&data_dir), server_tel.clone())
            .expect("open journal dir");
    let server = JournalServer::start_with_telemetry(durable, "127.0.0.1:0", None, server_tel)
        .expect("start journal server");
    println!("journal server listening on {}", server.addr());

    // A small world for the driver to explore.
    let mut b = TopologyBuilder::new();
    let a = b.segment("net-a", "10.5.1.0/26");
    let c = b.segment("net-c", "10.5.2.0/26");
    b.host("probe", a, 10);
    b.host("other", a, 11);
    b.host("far", c, 10);
    b.router("gw", &[(a, 1), (c, 1)]);
    let (sim, topo) = b.build(seed);
    let home = topo.nodes_by_name["probe"];

    let mut cfg = DriverConfig::full("10.5.0.0/16".parse().expect("subnet"), None);
    cfg.telemetry = driver_tel;
    cfg.remote_journal = Some(server.addr().to_string());
    let mut driver = DiscoveryDriver::open(sim, home, cfg).expect("connect driver");

    println!("exploring for {mins} simulated minutes (seed {seed})...");
    driver.run_for(SimDuration::from_mins(mins)).expect("run");
    let stats = driver.journal.stats().expect("stats");
    println!(
        "driver replica: {} interfaces, {} gateways, {} subnets ({} observations)",
        stats.interfaces, stats.gateways, stats.subnets, stats.observations_applied
    );
    drop(driver); // clean EOF on the server's connection
    server.shutdown();

    // Write both raw traces, then stitch and fold.
    let driver_trace = driver_rec.trace_jsonl();
    let server_trace = server_rec.trace_jsonl();
    write(&out_dir, "driver.jsonl", &driver_trace);
    write(&out_dir, "server.jsonl", &server_trace);

    let stitched = stitch_jsonl(&[driver_trace, server_trace]).unwrap_or_else(|e| {
        eprintln!("error: stitch failed: {e}");
        std::process::exit(1);
    });
    write(&out_dir, "stitched.jsonl", &stitched);

    let events = parse_jsonl(&stitched).expect("stitched trace parses");
    write(&out_dir, "profile.folded", &fold_events(&events));
    println!(
        "stitched {} events into one causal tree; profile folded",
        events.len()
    );
}

fn write(dir: &std::path::Path, name: &str, text: &str) {
    let path = dir.join(name);
    std::fs::write(&path, text).expect("write output");
    println!("wrote {}", path.display());
}
