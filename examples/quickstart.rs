//! Quickstart: explore a small campus and print what Fremont found.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

#![allow(
    clippy::expect_used,
    reason = "a demo: a setup step that fails ends the run with its message"
)]

use fremont::core::{present, Fremont};
use fremont::journal::{InterfaceQuery, JournalAccess};
use fremont::netsim::campus::CampusConfig;
use fremont::netsim::time::SimDuration;

fn main() {
    // A ten-subnet campus with a departmental LAN, a name server, RIP
    // routers, and the paper's fault inventory baked in.
    let cfg = CampusConfig::small();
    let mut system = Fremont::over_campus(&cfg);

    println!(
        "Exploring a {}-subnet campus for 2 simulated hours...",
        cfg.subnets_connected
    );
    system.explore(SimDuration::from_hours(2)).expect("flush");

    let stats = system.stats();
    println!(
        "\nJournal now holds {} interfaces, {} gateways, {} subnets \
         ({} observations applied).\n",
        stats.interfaces, stats.gateways, stats.subnets, stats.observations_applied
    );

    // Presentation program, level 1: every interface in the network.
    let now = system.now();
    let view = system
        .driver
        .journal
        .read(|j| present::level1_network(j, cfg.network, now));
    println!("{view}");

    // Level 2 for the departmental subnet: MACs, vendors, RIP, gateways.
    let view = system
        .driver
        .journal
        .read(|j| present::level2_subnet(j, system.truth.cs_subnet, now));
    println!("{view}");

    // Level 3: full detail for one record.
    if let Ok(recs) = system
        .driver
        .journal
        .interfaces(&InterfaceQuery::in_subnet(system.truth.cs_subnet))
    {
        if let Some(r) = recs.first() {
            let view = system
                .driver
                .journal
                .read(|j| present::level3_interface(j, r.id, now));
            println!("{view}");
        }
    }

    // The discovered topology (Figure 2's data), as ASCII.
    println!("{}", system.topology().to_ascii());
}
