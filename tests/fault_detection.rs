//! Integration: the Table 8 fault inventory is detected end-to-end on a
//! small campus (the scaled-down version of the `table8_problems`
//! experiment, fast enough for CI).

use fremont::core::Fremont;
use fremont::netsim::campus::CampusConfig;
use fremont::netsim::time::SimDuration;

#[test]
fn all_five_problem_classes_detected() {
    let mut cfg = CampusConfig::small();
    cfg.seed = 77;
    let mut system = Fremont::over_campus(&cfg);
    let faults = system.truth.faults.clone();

    // Healthy start.
    system.explore(SimDuration::from_hours(6)).unwrap();

    // Activate the mid-life faults, which the campus must carry.
    {
        let sim = &system.driver.sim;
        let (_, clone) = faults.duplicate_ip_pair.clone().expect("injected");
        sim.node_by_name(&clone).expect("exists");
        let (old, new) = faults.hardware_change.clone().expect("injected");
        sim.node_by_name(&old).expect("exists");
        sim.node_by_name(&new).expect("exists");
    }
    system.activate_midlife_faults();

    // Keep exploring long enough for re-sweeps.
    system.explore(SimDuration::from_days(3)).unwrap();

    let report = system.problems(2 * 86400, 3600);

    // 1. Duplicate address (bruno + rogue-clone share one IP).
    assert!(
        !report.duplicates.is_empty(),
        "duplicate assignment detected: {report}"
    );
    assert!(report.duplicates.iter().all(|c| c.macs.len() >= 2));

    // 2. Hardware change (piper replaced by piper-new).
    assert!(
        !report.hardware_changes.is_empty(),
        "hardware change detected: {report}"
    );

    // 3. Inconsistent masks (badmask claims /16 on the /24 wire).
    assert_eq!(report.mask_conflicts.len(), 1, "{report}");
    assert_eq!(
        report.mask_conflicts[0].subnet, system.truth.cs_subnet,
        "conflict anchored at the right wire"
    );

    // 4. Promiscuous RIP host (chatty).
    assert!(!report.promiscuous.is_empty(), "promiscuous host flagged");

    // 5. Stale address (ghostly exists only in the DNS).
    let ghost_fqdn = format!(
        "{}.colorado.edu",
        faults.removed_host.clone().expect("injected")
    );
    assert!(
        report
            .stale
            .iter()
            .any(|s| s.name.as_deref() == Some(&ghost_fqdn)),
        "ghost flagged among: {:?}",
        report.stale
    );
    // And the ghost was never seen on the wire.
    let ghost = report
        .stale
        .iter()
        .find(|s| s.name.as_deref() == Some(&ghost_fqdn))
        .expect("present");
    assert!(ghost.last_live.is_none());
}

#[test]
fn healthy_network_reports_almost_nothing() {
    let mut cfg = CampusConfig::small();
    cfg.inject_faults = false;
    cfg.cs_ghost_entries = 0;
    cfg.seed = 99;
    let mut system = Fremont::over_campus(&cfg);
    system.explore(SimDuration::from_hours(8)).unwrap();
    let report = system.problems(4 * 86400, 3600);
    assert!(report.duplicates.is_empty(), "{report}");
    assert!(report.mask_conflicts.is_empty(), "{report}");
    assert!(report.promiscuous.is_empty(), "{report}");
    assert!(report.hardware_changes.is_empty(), "{report}");
    // No host that was ever seen alive may be reported as removed (the
    // 4-day horizon has not elapsed). Hosts that only ever appeared in
    // the DNS and have not been probed yet MAY legitimately show up as
    // "never seen alive" — that is information, not a false positive.
    assert!(
        report.stale.iter().all(|s| s.last_live.is_none()),
        "{report}"
    );
}
