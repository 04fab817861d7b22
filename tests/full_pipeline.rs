//! End-to-end integration: the whole Fremont stack over a synthetic
//! campus — Discovery Manager scheduling, all eight Explorer Modules, the
//! Journal's merge rules, cross-correlation, and topology extraction —
//! cross-checked against the generator's ground truth.

#![allow(clippy::unwrap_used)]

use fremont::core::Fremont;
use fremont::journal::{InterfaceQuery, JournalAccess, Source, SubnetQuery};
use fremont::netsim::campus::CampusConfig;
use fremont::netsim::time::SimDuration;

fn explored_small() -> Fremont {
    let mut cfg = CampusConfig::small();
    cfg.seed = 404;
    let mut system = Fremont::over_campus(&cfg);
    system.explore(SimDuration::from_hours(2)).unwrap();
    system
}

#[test]
fn discovers_most_of_the_ground_truth() {
    let system = explored_small();
    let truth = &system.truth;

    // Every connected subnet discovered.
    let subs = system
        .driver
        .journal
        .subnets(&SubnetQuery::all())
        .expect("journal reachable");
    let found_connected = truth
        .connected_subnets
        .iter()
        .filter(|s| subs.iter().any(|r| r.subnet == **s))
        .count();
    assert_eq!(
        found_connected,
        truth.connected_subnets.len(),
        "RIP + traceroute + DNS cover every connected subnet"
    );

    // Most CS interfaces are in the journal with MACs.
    let cs_recs = system
        .driver
        .journal
        .interfaces(&InterfaceQuery::in_subnet(truth.cs_subnet))
        .expect("journal reachable");
    assert!(
        cs_recs.len() as f64 >= truth.cs_interfaces.len() as f64 * 0.6,
        "{} of {} CS interfaces",
        cs_recs.len(),
        truth.cs_interfaces.len()
    );
    let with_mac = cs_recs.iter().filter(|r| r.mac.is_some()).count();
    assert!(
        with_mac >= cs_recs.len() / 2,
        "ARP evidence on most records"
    );

    // The CS gateway is known, with both interfaces merged into one record.
    let gws = system.driver.journal.gateways().expect("journal reachable");
    assert!(!gws.is_empty());
    let cs_gw_subnets: Vec<_> = gws
        .iter()
        .filter(|g| g.subnets.contains(&truth.cs_subnet))
        .collect();
    assert!(
        !cs_gw_subnets.is_empty(),
        "cs subnet attributed to a gateway"
    );

    // Internal consistency after thousands of merges.
    system
        .driver
        .journal
        .read(|j| j.check_invariants())
        .expect("journal invariants hold");
}

#[test]
fn every_module_contributed() {
    let system = explored_small();
    let recs = system
        .driver
        .journal
        .interfaces(&InterfaceQuery::all())
        .expect("journal reachable");
    let subs = system
        .driver
        .journal
        .subnets(&SubnetQuery::all())
        .expect("journal reachable");

    let iface_sources = |s: Source| recs.iter().filter(|r| r.sources.contains(s)).count();
    let subnet_sources = |s: Source| subs.iter().filter(|r| r.sources.contains(s)).count();

    assert!(iface_sources(Source::ArpWatch) > 0, "ARPwatch contributed");
    assert!(
        iface_sources(Source::EtherHostProbe) > 0,
        "EtherHostProbe contributed"
    );
    assert!(iface_sources(Source::SeqPing) > 0, "SeqPing contributed");
    assert!(
        iface_sources(Source::BrdcastPing) > 0,
        "BrdcastPing contributed"
    );
    assert!(
        iface_sources(Source::SubnetMasks) > 0,
        "SubnetMasks contributed"
    );
    assert!(iface_sources(Source::Dns) > 0, "DNS contributed");
    assert!(subnet_sources(Source::RipWatch) > 0, "RIPwatch contributed");
    assert!(
        subnet_sources(Source::Traceroute) > 0,
        "Traceroute contributed"
    );

    // Cross-correlation: at least one record was touched by 4+ modules.
    let best = recs.iter().map(|r| r.sources.len()).max().unwrap_or(0);
    assert!(best >= 4, "cross-correlated record with {best} sources");
}

#[test]
fn topology_matches_truth_shape() {
    let system = explored_small();
    let graph = system.topology();
    // Every router in truth corresponds to at least one discovered gateway
    // touching its subnets.
    let truth = &system.truth;
    for (name, ips) in &truth.gateways {
        let backbone_ip = ips[0];
        let subnet24 = fremont::net::Subnet::containing(
            backbone_ip,
            fremont::net::SubnetMask::from_prefix_len(24).expect("valid"),
        );
        let covered = graph
            .gateways
            .iter()
            .any(|(_, _, subs)| subs.contains(&subnet24));
        assert!(covered, "router {name} invisible in the topology graph");
    }
    // The SunNet dump round-trips the same counts.
    let sunnet = graph.to_sunnet();
    let element_count = sunnet.matches("element {").count();
    assert_eq!(element_count, graph.subnets.len() + graph.gateways.len());
}

#[test]
fn schedule_adapts_over_repeated_runs() {
    let mut cfg = CampusConfig::small();
    cfg.cs_traffic = false;
    let mut system = Fremont::over_campus(&cfg);
    // A week of simulated exploration: early eager runs back off as the
    // journal saturates.
    system.explore(SimDuration::from_days(7)).unwrap();
    let m = &system.driver.manager;
    let rip = m.schedule(Source::RipWatch).expect("scheduled");
    assert!(rip.runs >= 2, "RIPwatch re-ran over the week: {}", rip.runs);
    // A module that keeps finding nothing new has backed off beyond its
    // minimum interval.
    let min = fremont::core::registry::info_for(Source::RipWatch)
        .expect("registry entry")
        .min_interval
        .as_secs();
    assert!(
        rip.interval > min,
        "fruitless re-runs back off: {} vs min {min}",
        rip.interval
    );
}
