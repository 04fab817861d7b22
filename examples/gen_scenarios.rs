//! Regenerates the committed fault-plan fixtures under `scenarios/`.
//!
//! Each fixture targets one problem class from the paper (Section 5)
//! and is written through `FaultPlan::to_json`, so a fixture on disk is
//! always parseable by `--faults` and by the chaos CI job. Re-run after
//! changing the plan schema:
//!
//! ```sh
//! cargo run --example gen_scenarios
//! ```

#![allow(
    clippy::expect_used,
    reason = "a demo: a setup step that fails ends the run with its message"
)]

use fremont::netsim::faults::{FaultKind, FaultPlan};
use fremont::netsim::time::{SimDuration, SimTime};

fn hours(h: u64) -> SimTime {
    SimTime(h * 3_600_000_000)
}

fn main() {
    // The targets are campus fixtures, not seed-dependent names: the CS
    // subnet is always 128.138.243.0/24, its router is always "cs-gw",
    // and "piper"/"bruno" are always CS hosts ("piper" never churns,
    // which makes it the clean chaos target; "bruno" runs the explorers).
    let scenarios: Vec<(&str, FaultPlan)> = vec![
        (
            "gateway_death",
            FaultPlan::new().at(
                hours(6),
                FaultKind::GatewayDeath {
                    gateway: "cs-gw".to_owned(),
                },
            ),
        ),
        (
            "partition",
            FaultPlan::new().at(
                hours(18),
                FaultKind::Partition {
                    segment: "cs-net".to_owned(),
                },
            ),
        ),
        (
            "partition_healed",
            FaultPlan::new().partition_between("cs-net", hours(18), SimDuration::from_hours(6)),
        ),
        (
            "duplicate_ip",
            FaultPlan::new().at(
                hours(2),
                FaultKind::DuplicateIp {
                    node: "piper".to_owned(),
                    ip: "128.138.243.10".parse().expect("ip literal"),
                },
            ),
        ),
        (
            "wrong_mask",
            // Must precede the first SubnetMasks sweep: the module only
            // queries interfaces that are still missing a mask.
            FaultPlan::new().at(
                SimTime(1_000_000),
                FaultKind::WrongMask {
                    node: "piper".to_owned(),
                    prefix_len: 16,
                },
            ),
        ),
        (
            "clock_skew",
            FaultPlan::new().at(
                hours(6),
                FaultKind::ClockSkew {
                    node: "bruno".to_owned(),
                    skew_micros: 48 * 3_600_000_000,
                },
            ),
        ),
        (
            "host_crash",
            FaultPlan::new().crash_between("piper", hours(4), SimDuration::from_hours(2)),
        ),
        (
            "degraded_segment",
            FaultPlan::new().degrade_window(
                "cs-net",
                hours(2),
                SimDuration::from_hours(6),
                0.30,
                SimDuration::from_millis(25),
            ),
        ),
    ];

    std::fs::create_dir_all("scenarios").expect("create scenarios/");
    for (name, plan) in scenarios {
        let path = format!("scenarios/{name}.json");
        let json = plan.to_json();
        let round = FaultPlan::from_json(&json).expect("fixture must round-trip");
        assert_eq!(round, plan, "fixture {name} does not round-trip");
        std::fs::write(&path, json).expect("write fixture");
        println!("wrote {path} ({} event(s))", plan.len());
    }
}
