//! Campus survey: the paper's full-scale evaluation scenario.
//!
//! Generates the 111-connected-subnet campus, runs all eight Explorer
//! Modules under the Discovery Manager for a simulated day, and prints
//! discovery effectiveness against ground truth — the live version of
//! Tables 5 and 6 (the bench harness regenerates the exact tables) —
//! plus the measured per-module load beside the paper's Table 4.
//!
//! ```sh
//! cargo run --release --example campus_survey
//! cargo run --release --example campus_survey -- --hours 6 \
//!     --metrics-file metrics.prom --trace-jsonl trace.jsonl
//! ```
//!
//! `--metrics-file` writes Prometheus text exposition at exit;
//! `--trace-jsonl` writes the driver's span/event trace;
//! `--profile-folded` writes the run's flamegraph-compatible folded
//! work profile. All are keyed to simulated time, so two runs with
//! the same seed produce byte-identical output. `--faults
//! scenarios/<name>.json` loads a committed fault-plan fixture and
//! injects it into the campus run:
//!
//! ```sh
//! cargo run --release --example campus_survey -- --hours 48 \
//!     --faults scenarios/gateway_death.json
//! ```
//!
//! `--watch` slices the exploration hour by hour and, after each
//! slice, polls a live in-process Journal Server over the Introspect
//! RPC — printing findings counts, module load, and store stats as
//! they evolve. The watch surface reads the same telemetry
//! the run records anyway; a no-watch run's outputs are untouched.

use std::path::PathBuf;

use fremont::core::analysis::publish_findings;
use fremont::core::Fremont;
use fremont::journal::client::RemoteJournal;
use fremont::journal::{JournalAccess, JournalServer, SubnetQuery};
use fremont::netsim::campus::{CampusConfig, DNS_COVERAGE};
use fremont::netsim::faults::FaultPlan;
use fremont::netsim::time::SimDuration;
use fremont::telemetry::Telemetry;

fn main() {
    run(std::env::args().skip(1));
}

/// The whole example, over explicit arguments: `tests/golden_16h.rs`
/// includes this file and calls it, so the goldens are checked against
/// this code path itself (the exposition counts the read locks the
/// queries below take), not a copy of it.
pub fn run(args: impl IntoIterator<Item = String>) {
    let mut metrics_file: Option<PathBuf> = None;
    let mut trace_file: Option<PathBuf> = None;
    let mut faults_file: Option<PathBuf> = None;
    let mut profile_file: Option<PathBuf> = None;
    let mut watch = false;
    let mut hours: u64 = 24;
    let mut seed: Option<u64> = None;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--metrics-file" => metrics_file = args.next().map(PathBuf::from),
            "--trace-jsonl" => trace_file = args.next().map(PathBuf::from),
            "--profile-folded" => profile_file = args.next().map(PathBuf::from),
            "--watch" => watch = true,
            "--faults" => faults_file = args.next().map(PathBuf::from),
            "--hours" => {
                hours = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("error: --hours needs an integer argument");
                    std::process::exit(2);
                })
            }
            "--seed" => {
                seed = Some(args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("error: --seed needs an integer argument");
                    std::process::exit(2);
                }))
            }
            other => {
                eprintln!("error: unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
    let record = metrics_file.is_some() || trace_file.is_some() || profile_file.is_some() || watch;

    let mut cfg = CampusConfig::default();
    if let Some(seed) = seed {
        cfg.seed = seed;
    }
    if let Some(path) = &faults_file {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: cannot read {}: {e}", path.display());
            std::process::exit(2);
        });
        cfg.fault_plan = FaultPlan::from_json(&text).unwrap_or_else(|e| {
            eprintln!("error: bad fault plan in {}: {e}", path.display());
            std::process::exit(2);
        });
        println!(
            "Loaded fault plan from {}: {} scheduled event(s).",
            path.display(),
            cfg.fault_plan.len()
        );
    }
    println!(
        "Generating campus: {} assigned subnets, {} connected, DNS coverage {:.0}%...",
        cfg.subnets_assigned,
        cfg.subnets_connected,
        DNS_COVERAGE * 100.0
    );
    let (telemetry, recorder) = if record {
        let (t, r) = Telemetry::recording();
        (t, Some(r))
    } else {
        (Telemetry::noop(), None)
    };
    let mut system = Fremont::over_campus_with_telemetry(&cfg, telemetry.clone());
    println!(
        "Ground truth: {} gateways, {} interfaces on the CS subnet ({} in DNS), {} broken routers.",
        system.truth.gateways.len(),
        system.truth.cs_interfaces.len(),
        system.truth.cs_dns_count,
        system.truth.broken_routers.len()
    );

    println!("\nExploring for {hours} simulated hours (this runs a few seconds of real time)...");
    if watch {
        watch_loop(&mut system, &telemetry, hours);
    } else {
        system
            .explore(SimDuration::from_hours(hours))
            .expect("flush");
    }

    let stats = system.stats();
    println!(
        "\nJournal: {} interfaces, {} gateways, {} subnets ({} observations).",
        stats.interfaces, stats.gateways, stats.subnets, stats.observations_applied
    );

    // Subnet discovery vs ground truth (Table 6 shape).
    let discovered = system
        .journal
        .subnets(&SubnetQuery {
            within: Some(cfg.network),
            ..Default::default()
        })
        .unwrap();
    let truth_count = system.truth.connected_subnets.len();
    let found = discovered
        .iter()
        .filter(|s| system.truth.connected_subnets.contains(&s.subnet))
        .count();
    println!(
        "Subnets discovered: {found}/{truth_count} ({:.0}%)",
        100.0 * found as f64 / truth_count as f64
    );
    let with_gw = discovered.iter().filter(|s| !s.gateways.is_empty()).count();
    println!("Subnets with an attributed gateway: {with_gw}");

    // Interface discovery on the CS subnet (Table 5 shape).
    let cs = system.truth.cs_subnet;
    let cs_found = system
        .journal
        .interfaces(&fremont::journal::InterfaceQuery::in_subnet(cs))
        .unwrap()
        .len();
    println!(
        "Interfaces known on {cs}: {cs_found} (DNS lists {}, {} real machines exist)",
        system.truth.cs_dns_count,
        system.truth.cs_interfaces.len()
    );

    // Measured per-module load beside the paper's Table 4.
    println!("\nModule load (measured vs paper Table 4):");
    print!("{}", system.load_report().render());

    // The topology map (Figure 2), in SunNet Manager dump form (head).
    let sunnet = system.topology().to_sunnet();
    println!("\nSunNet Manager dump (first 12 lines):");
    for line in sunnet.lines().take(12) {
        println!("  {line}");
    }
    println!("  ...");

    // Only fault runs print the fault ledger — the no-fault output is a
    // byte-stable baseline that determinism checks diff against.
    if faults_file.is_some() {
        let f = system.driver.sim.fault_stats;
        println!(
            "\nFaults injected: {} applied ({} crashes, {} reboots, {} gateway deaths, \
             {} partitions, {} heals, {} degrades), {} unresolved, {} frames dropped.",
            f.total(),
            f.applied("node_crash"),
            f.applied("node_reboot"),
            f.applied("gateway_death"),
            f.applied("partition"),
            f.applied("heal"),
            f.applied("degrade"),
            f.unresolved,
            f.frames_dropped
        );
    }

    if let Some(rec) = recorder {
        system.driver.publish_metrics();
        if let Some(path) = metrics_file {
            std::fs::write(&path, rec.expose()).expect("write metrics file");
            println!("metrics exposition written to {}", path.display());
        }
        if let Some(path) = trace_file {
            std::fs::write(&path, rec.trace_jsonl()).expect("write trace file");
            println!(
                "trace written to {} ({} events, {} dropped)",
                path.display(),
                rec.trace_len(),
                rec.trace_dropped()
            );
        }
        if let Some(path) = profile_file {
            std::fs::write(&path, rec.folded_profile()).expect("write folded profile");
            println!("folded profile written to {}", path.display());
        }
    }
}

/// The `--watch` path: explore in hourly slices, and after each slice
/// poll a live in-process Journal Server over the Introspect RPC. One
/// deterministic line per hour — same seed, same lines.
fn watch_loop(system: &mut Fremont, telemetry: &Telemetry, hours: u64) {
    let server = JournalServer::start_with_telemetry(
        system.journal.clone(),
        "127.0.0.1:0",
        None,
        telemetry.clone(),
    )
    .expect("start introspection server");
    let client = RemoteJournal::connect(&server.addr().to_string()).expect("connect introspection");
    for h in 1..=hours {
        system.explore(SimDuration::from_hours(1)).expect("flush");
        system.driver.publish_metrics();
        let problems = system.problems(86_400, 3_600);
        publish_findings(telemetry, &problems);
        let report = client.introspect(0).expect("introspect");
        let module_runs = sum_series(&report.metrics, "fremont_module_runs_total");
        println!(
            "watch t={h}h interfaces={} gateways={} subnets={} observations={} \
             findings={} module_runs={module_runs} health={}",
            report.stats.interfaces,
            report.stats.gateways,
            report.stats.subnets,
            report.stats.observations_applied,
            problems.total(),
            report.health
        );
    }
    server.shutdown();
}

/// Sums every series of a counter family in a Prometheus text
/// exposition (`name{...} value` or `name value` lines).
fn sum_series(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .filter(|l| {
            l.strip_prefix(name)
                .is_some_and(|rest| rest.starts_with('{') || rest.starts_with(' '))
        })
        .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
        .sum()
}
