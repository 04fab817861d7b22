//! Address auditing: run the analysis programs over a campus with the
//! paper's Table 8 fault inventory injected, and watch each problem class
//! get caught.
//!
//! ```sh
//! cargo run --example address_audit
//! ```

#![allow(
    clippy::expect_used,
    reason = "a demo: a setup step that fails ends the run with its message"
)]

use fremont::core::Fremont;
use fremont::journal::Source;
use fremont::netsim::campus::CampusConfig;
use fremont::netsim::time::SimDuration;

fn main() {
    let cfg = CampusConfig::small();
    let mut system = Fremont::over_campus(&cfg);
    let faults = system.truth.faults.clone();
    println!("Injected faults:");
    println!("  duplicate IP pair:  {:?}", faults.duplicate_ip_pair);
    println!("  wrong-mask host:    {:?}", faults.wrong_mask_host);
    println!("  promiscuous RIP:    {:?}", faults.promiscuous_rip_host);
    println!("  removed host (DNS): {:?}", faults.removed_host);
    println!("  hardware change:    {:?}", faults.hardware_change);

    // Day 1: learn the healthy network.
    println!("\nDay 1: baseline exploration...");
    system.explore(SimDuration::from_hours(4)).expect("flush");

    // Then the trouble starts: the duplicate-address clone is powered on,
    // and `piper` dies and is replaced by new hardware with the same IP.
    println!("Day 2: the clone boots; piper's hardware is replaced...");
    let sim = &mut system.driver.sim;
    if let Some((_, clone)) = &faults.duplicate_ip_pair {
        let id = sim.node_by_name(clone).expect("exists");
        sim.set_node_up(id, true);
    }
    if let Some((old, new)) = &faults.hardware_change {
        let old_id = sim.node_by_name(old).expect("exists");
        let new_id = sim.node_by_name(new).expect("exists");
        sim.set_node_up(old_id, false);
        sim.set_node_up(new_id, true);
    }
    system.explore(SimDuration::from_hours(8)).expect("flush");

    // A re-sweep is due only after the module intervals elapse; force the
    // sweep modules to run again by advancing well past their minimums.
    println!("Day 3-5: continued monitoring...");
    system.explore(SimDuration::from_days(3)).expect("flush");

    // Run the analysis programs.
    let report = system.problems(2 * 86400, 3600);
    println!("\n{report}");

    // Show the cross-correlation bonus: which sources contributed.
    let stats = system.stats();
    println!(
        "Journal: {} interfaces / {} gateways / {} subnets",
        stats.interfaces, stats.gateways, stats.subnets
    );
    let contributions: Vec<String> = Source::EXPLORERS
        .iter()
        .map(|s| {
            let runs = system
                .driver
                .manager
                .schedule(*s)
                .map(|sch| sch.runs)
                .unwrap_or(0);
            format!("{} ran {} time(s)", s.name(), runs)
        })
        .collect();
    println!("{}", contributions.join("; "));
}
