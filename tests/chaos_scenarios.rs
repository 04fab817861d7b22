//! Chaos suite: every `FaultKind` the simulator can inject must be
//! *rediscovered* by the analysis layer — the injected ground truth comes
//! back out as the corresponding Journal problem finding (Table 8 and §5
//! of the paper). A no-fault control run closes the loop: a quiet campus
//! must stay quiet through the same detectors.
//!
//! Scenarios install a [`FaultPlan`] either through
//! [`CampusConfig::fault_plan`] (fixture-style, scheduled from t=0) or
//! mid-run via [`Sim::install_fault_plan`] once ground truth has been
//! inspected (e.g. which leaf subnet has enough live hosts to report
//! silence for).

use std::net::Ipv4Addr;

use fremont::core::analysis::AddressConflict;
use fremont::core::Fremont;
use fremont::journal::{InterfaceQuery, JournalAccess};
use fremont::netsim::campus::CampusConfig;
use fremont::netsim::faults::{FaultKind, FaultPlan};
use fremont::netsim::time::{SimDuration, SimTime};
use fremont::telemetry::trace::{parse_jsonl, validate};
use fremont::telemetry::Telemetry;

#[test]
fn faulted_run_trace_stays_structurally_valid() {
    // Faults kill nodes and gateways mid-exploration — module runs are
    // forcibly retired, stores fail, probes time out. None of that may
    // unbalance the span stream: every span that opens still closes,
    // ids stay strictly increasing, parents outlive children.
    let mut cfg = CampusConfig::quiet_small(7);
    cfg.fault_plan = FaultPlan::new()
        .at(
            SimTime::from_hours(1),
            FaultKind::GatewayDeath {
                gateway: "cs-gw".to_owned(),
            },
        )
        .at(
            SimTime::from_hours(2),
            FaultKind::NodeCrash {
                node: "piper".to_owned(),
            },
        );
    let (telemetry, rec) = Telemetry::recording();
    let mut system = Fremont::over_campus_with_telemetry(&cfg, telemetry);
    system
        .driver
        .set_max_module_runtime(Some(SimDuration::from_hours(1)));
    system.explore(SimDuration::from_hours(4)).unwrap();
    assert!(system.driver.sim.fault_stats.total() >= 2);

    let events = parse_jsonl(&rec.trace_jsonl()).expect("trace parses");
    let summary = validate(&events).expect("faulted run's trace must validate");
    assert!(summary.spans > 0, "driver pumps must open spans");
}

#[test]
fn control_run_with_empty_plan_reports_nothing() {
    let mut cfg = CampusConfig::quiet_small(99);
    cfg.fault_plan = FaultPlan::default(); // explicit: the no-fault control
    let mut system = Fremont::over_campus(&cfg);
    system.explore(SimDuration::from_hours(12)).unwrap();
    let report = system.problems(4 * 86400, 3600);
    assert!(report.duplicates.is_empty(), "{report}");
    assert!(report.mask_conflicts.is_empty(), "{report}");
    assert!(report.promiscuous.is_empty(), "{report}");
    assert!(report.hardware_changes.is_empty(), "{report}");
    assert!(report.stale_routes.is_empty(), "{report}");
    assert!(report.silent_subnets.is_empty(), "{report}");
    assert!(report.clock_skew.is_empty(), "{report}");
    // An empty plan must not even count as fault activity.
    let stats = system.driver.sim.fault_stats;
    assert_eq!(stats.total(), 0);
    assert_eq!(stats.unresolved, 0);
    assert_eq!(stats.frames_dropped, 0);
}

/// Clones piper onto bruno's address two hours into a 14 h survey of
/// `quiet_small(seed)` and returns the address conflicts that name the
/// cloned address together with *both* stations' MACs, as `(duplicates,
/// hardware changes)`.
fn cloned_address_conflicts(seed: u64) -> (usize, usize) {
    let cloned: Ipv4Addr = "128.138.243.10".parse().unwrap();
    let mut cfg = CampusConfig::quiet_small(seed);
    // "piper" never churns and participates in CS traffic; two hours in,
    // it is cloned onto bruno's address.
    cfg.fault_plan = FaultPlan::new().at(
        SimTime::from_hours(2),
        FaultKind::DuplicateIp {
            node: "piper".to_owned(),
            ip: cloned,
        },
    );
    let mut system = Fremont::over_campus(&cfg);
    let sim = &system.driver.sim;
    let mac_of = |name: &str| sim.nodes[sim.node_by_name(name).unwrap().0].ifaces[0].mac;
    let both = [mac_of("bruno"), mac_of("piper")];
    system.explore(SimDuration::from_hours(14)).unwrap();
    assert_eq!(system.driver.sim.fault_stats.applied("duplicate_ip"), 1);
    let report = system.problems(4 * 86400, 3600);
    let naming_both = |found: &[AddressConflict]| {
        let hit = |c: &&AddressConflict| c.ip == cloned && both.iter().all(|m| c.macs.contains(m));
        found.iter().filter(hit).count()
    };
    (
        naming_both(&report.duplicates),
        naming_both(&report.hardware_changes),
    )
}

/// A seed on which the clone is classified as a duplicate assignment.
const DUPLICATE_EXAMPLE_SEED: u64 = 43;

#[test]
fn injected_duplicate_ip_is_rediscovered() {
    // An example, not the rule: on this seed bruno happens to be seen
    // alive an hour after the clone appears, which is what the overlap
    // test needs to call two MACs on one address a *duplicate*. See
    // `injected_duplicate_ip_surfaces_on_every_seed` for what holds on
    // every seed and ROADMAP item 3 for why this does not.
    assert_eq!(cloned_address_conflicts(DUPLICATE_EXAMPLE_SEED), (1, 0));
}

#[test]
fn injected_duplicate_ip_surfaces_on_every_seed() {
    // Whatever the seed, the Journal remembers both MACs for the cloned
    // address and the report names them together. *How* it classifies
    // them depends on luck: bruno is quiet, so after the clone appears
    // the only module that can see bruno alive again is ARPwatch, and on
    // most seeds it does not within the hour the overlap test asks for —
    // the same two MACs then read as a hardware change (a detection gap,
    // ROADMAP item 3).
    let mut as_duplicate = Vec::new();
    for seed in 40..=59 {
        let (duplicates, hardware_changes) = cloned_address_conflicts(seed);
        assert_eq!(
            duplicates + hardware_changes,
            1,
            "seed {seed}: one conflict names both MACs ({duplicates} duplicate, \
             {hardware_changes} hardware change)"
        );
        if duplicates == 1 {
            as_duplicate.push(seed);
        }
    }
    assert!(
        as_duplicate.contains(&DUPLICATE_EXAMPLE_SEED),
        "the example seed no longer classifies as a duplicate; the ones that do: {as_duplicate:?}"
    );
}

#[test]
fn dead_gateway_becomes_a_stale_route() {
    let mut cfg = CampusConfig::quiet_small(7);
    // Six healthy hours to discover and live-verify the CS gateway, then
    // it dies and stays dead.
    cfg.fault_plan = FaultPlan::new().at(
        SimTime::from_hours(6),
        FaultKind::GatewayDeath {
            gateway: "cs-gw".to_owned(),
        },
    );
    let mut system = Fremont::over_campus(&cfg);
    // Bound module runs: with the only uplink dead, probes of the wider
    // campus can only time out — discovery must degrade, not wedge.
    system
        .driver
        .set_max_module_runtime(Some(SimDuration::from_hours(2)));
    system.explore(SimDuration::from_hours(54)).unwrap();
    assert_eq!(system.driver.sim.fault_stats.applied("gateway_death"), 1);
    let report = system.problems(86400, 3600);
    let cs_gw_ip: std::net::Ipv4Addr = "128.138.243.1".parse().unwrap();
    assert!(
        report
            .stale_routes
            .iter()
            .any(|r| r.gateway_ips.contains(&cs_gw_ip)),
        "cs-gw flagged as a stale route: {report}"
    );
}

#[test]
fn partitioned_segment_goes_silent() {
    let mut cfg = CampusConfig::quiet_small(5);
    // Eighteen healthy hours verify the well-populated departmental
    // wire, then its cable is cut for good: every interface there stops
    // verifying at once, which is exactly the whole-subnet-silence
    // signature the detector looks for.
    cfg.fault_plan = FaultPlan::new().at(
        SimTime::from_hours(18),
        FaultKind::Partition {
            segment: "cs-net".to_owned(),
        },
    );
    let mut system = Fremont::over_campus(&cfg);
    // With its own wire dead, every probe a module sends is swallowed —
    // bound the runs so the schedule keeps cycling instead of wedging.
    system
        .driver
        .set_max_module_runtime(Some(SimDuration::from_hours(2)));
    system.explore(SimDuration::from_hours(48)).unwrap();

    let stats = system.driver.sim.fault_stats;
    assert_eq!(stats.applied("partition"), 1);
    assert!(stats.frames_dropped > 0, "the cut wire swallowed frames");

    let report = system.problems(86400, 3600);
    assert!(
        report
            .silent_subnets
            .iter()
            .any(|s| s.subnet == system.truth.cs_subnet && s.once_live >= 3),
        "the partitioned CS wire reported silent: {report}"
    );
}

#[test]
fn healed_partition_recovers_and_is_not_silent() {
    let mut cfg = CampusConfig::quiet_small(5);
    // Same cut, but the cable is spliced six hours later: the local
    // sweeps re-verify the wire well inside the reporting window.
    cfg.fault_plan = FaultPlan::new().partition_between(
        "cs-net",
        SimTime::from_hours(18),
        SimDuration::from_hours(6),
    );
    let mut system = Fremont::over_campus(&cfg);
    system
        .driver
        .set_max_module_runtime(Some(SimDuration::from_hours(2)));
    system.explore(SimDuration::from_hours(48)).unwrap();

    let stats = system.driver.sim.fault_stats;
    assert_eq!(stats.applied("partition"), 1);
    assert_eq!(stats.applied("heal"), 1);

    let report = system.problems(86400, 3600);
    assert!(
        !report
            .silent_subnets
            .iter()
            .any(|s| s.subnet == system.truth.cs_subnet),
        "the healed CS wire re-verified, not silent: {report}"
    );
}

#[test]
fn injected_wrong_mask_is_rediscovered() {
    let mut cfg = CampusConfig::quiet_small(42);
    // Fires one simulated second in — before the first SubnetMasks
    // sweep, which only ever queries interfaces the Journal is missing
    // a mask for (a host whose mask goes wrong *after* it answered once
    // is never re-asked; the paper's module had the same blind spot).
    cfg.fault_plan = FaultPlan::new().at(
        SimTime(1_000_000),
        FaultKind::WrongMask {
            node: "piper".to_owned(),
            prefix_len: 16,
        },
    );
    let mut system = Fremont::over_campus(&cfg);
    system.explore(SimDuration::from_hours(14)).unwrap();
    assert_eq!(system.driver.sim.fault_stats.applied("wrong_mask"), 1);
    let report = system.problems(4 * 86400, 3600);
    assert!(
        report
            .mask_conflicts
            .iter()
            .any(|c| c.subnet == system.truth.cs_subnet),
        "mask conflict anchored at the CS wire: {report}"
    );
}

#[test]
fn clock_skewed_reporter_poisons_the_journal_and_is_flagged() {
    let mut cfg = CampusConfig::quiet_small(42);
    // The explorer host itself runs two days fast: everything it reports
    // from hour six onward carries future timestamps.
    cfg.fault_plan = FaultPlan::new().at(
        SimTime::from_hours(6),
        FaultKind::ClockSkew {
            node: "bruno".to_owned(),
            skew_micros: 48 * 3_600_000_000,
        },
    );
    let mut system = Fremont::over_campus(&cfg);
    system.explore(SimDuration::from_hours(12)).unwrap();
    assert_eq!(system.driver.sim.fault_stats.applied("clock_skew"), 1);
    let report = system.problems(4 * 86400, 3600);
    assert!(
        !report.clock_skew.is_empty(),
        "future-stamped records flagged: {report}"
    );
    // The skew is visible in the findings: records sit far ahead of now.
    assert!(
        report.clock_skew.iter().any(|s| s.ahead_secs > 86400),
        "{report}"
    );
}

#[test]
fn crashed_host_goes_stale() {
    let mut cfg = CampusConfig::quiet_small(42);
    // "piper" is DNS-registered, never churns, and crashes for good four
    // hours in: past the reporting horizon it is an address no longer in
    // use that was once seen alive.
    cfg.fault_plan = FaultPlan::new().at(
        SimTime::from_hours(4),
        FaultKind::NodeCrash {
            node: "piper".to_owned(),
        },
    );
    let mut system = Fremont::over_campus(&cfg);
    system.explore(SimDuration::from_hours(36)).unwrap();
    assert_eq!(system.driver.sim.fault_stats.applied("node_crash"), 1);
    let report = system.problems(8 * 3600, 3600);
    let piper = report
        .stale
        .iter()
        .find(|s| s.name.as_deref() == Some("piper.colorado.edu"));
    match piper {
        Some(s) => assert!(
            s.last_live.is_some(),
            "piper was seen alive before the crash: {report}"
        ),
        None => panic!("piper reported stale after crashing: {report}"),
    }
}

#[test]
fn rebooted_host_recovers_and_is_not_stale() {
    let mut cfg = CampusConfig::quiet_small(42);
    // Same crash, but the machine is rebooted two hours later (cold
    // boot, empty ARP cache) — re-verification must clear it.
    cfg.fault_plan =
        FaultPlan::new().crash_between("piper", SimTime::from_hours(4), SimDuration::from_hours(2));
    let mut system = Fremont::over_campus(&cfg);
    system.explore(SimDuration::from_hours(36)).unwrap();
    let stats = system.driver.sim.fault_stats;
    assert_eq!(stats.applied("node_crash"), 1);
    assert_eq!(stats.applied("node_reboot"), 1);
    let report = system.problems(8 * 3600, 3600);
    assert!(
        !report
            .stale
            .iter()
            .any(|s| s.name.as_deref() == Some("piper.colorado.edu")),
        "rebooted piper re-verified: {report}"
    );
}

#[test]
fn degraded_segment_slows_discovery_but_never_wedges_it() {
    let mut cfg = CampusConfig::quiet_small(42);
    // A six-hour window of heavy loss and added latency on the CS wire.
    cfg.fault_plan = FaultPlan::new().degrade_window(
        "cs-net",
        SimTime::from_hours(2),
        SimDuration::from_hours(6),
        0.30,
        SimDuration::from_millis(25),
    );
    let mut system = Fremont::over_campus(&cfg);
    system
        .driver
        .set_max_module_runtime(Some(SimDuration::from_hours(2)));
    system.explore(SimDuration::from_hours(24)).unwrap();
    let stats = system.driver.sim.fault_stats;
    assert_eq!(stats.applied("degrade"), 1);
    assert_eq!(stats.applied("clear_degrade"), 1);
    // Discovery still produced a healthy map of the CS subnet...
    let cs = system
        .journal
        .interfaces(&InterfaceQuery::in_subnet(system.truth.cs_subnet))
        .unwrap();
    assert!(
        cs.len() >= system.truth.cs_interfaces.len() / 2,
        "{} of {} CS interfaces despite the lossy window",
        cs.len(),
        system.truth.cs_interfaces.len()
    );
    // ...and the lossy window produced no false problem findings.
    let report = system.problems(4 * 86400, 3600);
    assert!(report.duplicates.is_empty(), "{report}");
    assert!(report.mask_conflicts.is_empty(), "{report}");
    assert!(report.clock_skew.is_empty(), "{report}");
}

#[test]
fn unknown_fault_targets_are_counted_not_fatal() {
    let mut cfg = CampusConfig::quiet_small(42);
    cfg.fault_plan = FaultPlan::new()
        .at(
            SimTime::from_hours(1),
            FaultKind::NodeCrash {
                node: "no-such-host".to_owned(),
            },
        )
        .at(
            SimTime::from_hours(1),
            FaultKind::Partition {
                segment: "no-such-wire".to_owned(),
            },
        )
        .at(
            SimTime::from_hours(1),
            FaultKind::ClockSkew {
                node: "still-missing".to_owned(),
                skew_micros: 1,
            },
        );
    let mut system = Fremont::over_campus(&cfg);
    system.explore(SimDuration::from_hours(3)).unwrap();
    let stats = system.driver.sim.fault_stats;
    assert_eq!(stats.unresolved, 3, "every bogus target counted");
    assert_eq!(stats.total(), 0, "nothing was actually applied");
}

#[test]
fn fault_inside_skipped_idle_window_fires_at_exact_micros() {
    // The scheduler jumps the clock over provably idle gaps. A fault
    // scheduled at an arbitrary odd microsecond *inside* such a gap must
    // still fire at exactly that instant — never rounded to a slot edge,
    // a tick boundary, or the skip's landing point.
    use fremont::netsim::builder::TopologyBuilder;
    let mut b = TopologyBuilder::new();
    let lan = b.segment("lan", "10.7.0.0/24");
    b.host("alpha", lan, 10);
    b.host("beta", lan, 11);
    let (mut sim, topo) = b.build(5);
    let beta = topo.hosts[1];
    let fault_at = SimTime(17 * 60_000_000 + 123_457); // odd µs, mid-gap
    sim.install_fault_plan(&FaultPlan::new().at(
        fault_at,
        FaultKind::NodeCrash {
            node: "beta".to_owned(),
        },
    ));
    sim.run_until(SimTime(fault_at.as_micros() - 1));
    assert!(
        sim.nodes[beta.0].up,
        "fault must not fire a microsecond early"
    );
    assert!(
        sim.stats.idle_skipped_micros > 0,
        "a quiet LAN's 17 minutes must be crossed by skip-ahead, not stepped"
    );
    sim.run_until(fault_at);
    assert!(
        !sim.nodes[beta.0].up,
        "crash fires at exactly its scheduled microsecond"
    );
    assert_eq!(sim.now(), fault_at);
    assert_eq!(sim.fault_stats.total(), 1);
}
