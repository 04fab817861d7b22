//! Run a standalone Journal Server, populate it over TCP from a simulated
//! exploration, then query it back — the paper's distributed deployment
//! ("we are making our software freely available, and encouraging people
//! to set up Journal Servers throughout the Internet").
//!
//! ```sh
//! cargo run --example journal_server [addr] [snapshot.json] [hold-seconds]
//! cargo run --example journal_server [addr] --data-dir journal-data [hold-seconds]
//! cargo run --example journal_server [addr] --metrics-file metrics.prom
//! cargo run --example journal_server [addr] 30 --status-interval 5
//! ```
//!
//! With `--data-dir` the server runs on the `fremont-storage` engine:
//! observations are write-ahead logged before they are applied, and a
//! restart over the same directory recovers them (snapshot + WAL
//! replay) — rerun the command and watch the record counts carry over.
//! With a trailing hold argument the server stays up that many seconds
//! after the demo, so external clients (other Fremont sites) can connect.
//! With `--metrics-file` the server records per-RPC telemetry and writes
//! Prometheus text exposition to the given path at shutdown.
//! With `--status-interval <secs>` the server prints a self-report every
//! interval while holding open — the same snapshot the `Introspect` RPC
//! answers (health verdict, record counts, WAL segment state), built
//! without any extra locking.

use std::path::PathBuf;

use fremont::explorers::SeqPing;
use fremont::journal::client::RemoteJournal;
use fremont::journal::{
    build_introspection, InterfaceQuery, JournalAccess, JournalServer, SharedJournal,
};
use fremont::net::IpRange;
use fremont::netsim::builder::TopologyBuilder;
use fremont::netsim::time::SimDuration;
use fremont::storage::{DurableJournal, WalConfig};
use fremont::telemetry::Telemetry;

fn main() {
    let mut args = std::env::args().skip(1);
    let addr = args.next().unwrap_or_else(|| "127.0.0.1:0".to_owned());
    let mut snapshot: Option<PathBuf> = None;
    let mut data_dir: Option<PathBuf> = None;
    let mut metrics_file: Option<PathBuf> = None;
    let mut hold: Option<u64> = None;
    let mut status_interval: Option<u64> = None;
    while let Some(arg) = args.next() {
        if arg == "--data-dir" {
            data_dir = args.next().map(PathBuf::from);
            if data_dir.is_none() {
                eprintln!("error: --data-dir needs a directory argument");
                std::process::exit(2);
            }
        } else if arg == "--status-interval" {
            status_interval = args.next().and_then(|v| v.parse().ok());
            if status_interval.is_none() {
                eprintln!("error: --status-interval needs a seconds argument");
                std::process::exit(2);
            }
        } else if arg == "--metrics-file" {
            metrics_file = args.next().map(PathBuf::from);
            if metrics_file.is_none() {
                eprintln!("error: --metrics-file needs a path argument");
                std::process::exit(2);
            }
        } else if let Ok(secs) = arg.parse::<u64>() {
            hold = Some(secs);
        } else {
            snapshot = Some(PathBuf::from(arg));
        }
    }
    let (telemetry, recorder) = if metrics_file.is_some() {
        let (t, r) = Telemetry::recording();
        (t, Some(r))
    } else {
        (Telemetry::noop(), None)
    };

    match data_dir {
        Some(dir) => {
            // Durable mode: WAL + crash recovery + compaction.
            let opened =
                DurableJournal::open_with_telemetry(WalConfig::new(&dir), telemetry.clone());
            let (journal, report) = match opened {
                Ok(v) => v,
                Err(e) => {
                    eprintln!("error: cannot open journal dir {}: {e}", dir.display());
                    std::process::exit(2);
                }
            };
            println!(
                "recovered {} from {}: snapshot watermark {}, {} WAL records replayed{}",
                if report.snapshot_loaded || report.records_replayed > 0 {
                    "journal"
                } else {
                    "empty journal"
                },
                dir.display(),
                report.watermark,
                report.records_replayed,
                if report.torn_bytes_dropped > 0 {
                    format!(" ({} torn tail bytes dropped)", report.torn_bytes_dropped)
                } else {
                    String::new()
                },
            );
            print_counts("after recovery", &journal);
            let server = start_server(journal.clone(), &addr, None, telemetry.clone());
            run_demo(&server.addr().to_string());
            print_counts("at shutdown", &journal);
            hold_open(hold, status_interval, || print_status(&journal, &telemetry));
            server.shutdown();
        }
        None => {
            let journal = SharedJournal::new();
            let server = start_server(journal.clone(), &addr, snapshot.clone(), telemetry.clone());
            if let Some(p) = &snapshot {
                println!("snapshot path: {}", p.display());
            }
            run_demo(&server.addr().to_string());
            if let Some(p) = &snapshot {
                RemoteJournal::connect(&server.addr().to_string())
                    .and_then(|c| RemoteJournal::flush(&c))
                    .expect("flush snapshot");
                println!("snapshot written to {}", p.display());
            }
            hold_open(hold, status_interval, || print_status(&journal, &telemetry));
            server.shutdown();
        }
    }
    if let (Some(rec), Some(path)) = (recorder, metrics_file) {
        std::fs::write(&path, rec.expose()).expect("write metrics file");
        println!("metrics exposition written to {}", path.display());
    }
    println!("server shut down cleanly");
}

fn start_server<J: JournalAccess + Clone + Send + Sync + 'static>(
    journal: J,
    addr: &str,
    snapshot: Option<PathBuf>,
    telemetry: Telemetry,
) -> JournalServer<J> {
    match JournalServer::start_with_telemetry(journal, addr, snapshot, telemetry) {
        Ok(s) => {
            println!("journal server listening on {}", s.addr());
            s
        }
        Err(e) => {
            eprintln!("error: cannot bind journal server on {addr}: {e}");
            std::process::exit(2);
        }
    }
}

/// The paper's roles over one socket each: an "explorer host" elsewhere
/// on the Internet ships a simulated sweep in, a presentation program
/// reads it back.
fn run_demo(addr: &str) {
    let mut b = TopologyBuilder::new();
    let lan = b.segment("lab", "192.168.10.0/24");
    for i in 0..8 {
        b.host(&format!("lab{i}"), lan, 10 + i);
    }
    let (mut sim, topo) = b.build(2026);
    let range = IpRange::new(
        "192.168.10.1".parse().expect("ip"),
        "192.168.10.30".parse().expect("ip"),
    );
    sim.spawn(topo.hosts[0], Box::new(SeqPing::new(range)));
    sim.run_for(SimDuration::from_mins(5));

    let module_conn = RemoteJournal::connect(addr).expect("connect");
    let mut stored = 0;
    for (_, at, obs) in sim.drain_observations() {
        let s = module_conn
            .store(at.to_jtime(), std::slice::from_ref(&obs))
            .expect("store over tcp");
        stored += s.created + s.updated + s.verified;
    }
    println!("explorer module stored {stored} observations over TCP");

    let viewer = RemoteJournal::connect(addr).expect("connect");
    let recs = viewer.interfaces(&InterfaceQuery::all()).expect("query");
    println!("viewer sees {} interface records:", recs.len());
    for r in &recs {
        println!(
            "  {}  first seen {}",
            r.ip_addr().map(|i| i.to_string()).unwrap_or_default(),
            r.discovered
        );
    }
}

fn print_counts(when: &str, journal: &impl JournalAccess) {
    let stats = journal.stats().expect("stats");
    println!(
        "journal {when}: {} interfaces, {} gateways, {} subnets ({} observations applied)",
        stats.interfaces, stats.gateways, stats.subnets, stats.observations_applied
    );
}

/// Prints the same self-description the `Introspect` RPC answers.
fn print_status(journal: &impl JournalAccess, telemetry: &Telemetry) {
    let report = build_introspection(journal, telemetry, 0);
    let mut line = format!(
        "status: health={} interfaces={} gateways={} subnets={} observations={} trace_dropped={}",
        report.health,
        report.stats.interfaces,
        report.stats.gateways,
        report.stats.subnets,
        report.stats.observations_applied,
        report.trace_dropped
    );
    if let Some(wal) = report.wal {
        line.push_str(&format!(
            " wal_segment={} wal_bytes={} sync={}",
            wal.segment_first_seq, wal.segment_bytes, wal.sync_policy
        ));
    }
    println!("{line}");
}

/// Holds the server open, emitting a status report up front and then
/// every `interval` seconds when `--status-interval` was given.
fn hold_open(hold: Option<u64>, interval: Option<u64>, status: impl Fn()) {
    if interval.is_some() {
        status();
    }
    let Some(hold) = hold else { return };
    println!("holding the server open for {hold}s (connect with RemoteJournal)...");
    let mut remaining = hold;
    while remaining > 0 {
        let step = interval.unwrap_or(remaining).clamp(1, remaining);
        std::thread::sleep(std::time::Duration::from_secs(step));
        remaining -= step;
        if interval.is_some() {
            status();
        }
    }
}
