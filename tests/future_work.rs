//! Integration tests for the paper's Future Work items that this
//! reproduction implements:
//!
//! 1. **RIP Poll directed probes** — routed whole-table requests reaching
//!    routers on non-local subnets;
//! 2. **Traceroute from multiple points** — "Running this module from
//!    multiple locations in the network will acquire more complete
//!    information about the router interface addresses";
//! 3. **Initial-TTL optimization** — starting traces past the known
//!    shared prefix of the path.

use fremont::explorers::{RipProbe, Traceroute};
use fremont::journal::{JournalAccess, SharedJournal, Source, SubnetQuery};
use fremont::netsim::builder::TopologyBuilder;
use fremont::netsim::time::SimDuration;

/// Four subnets in a line so the two vantage points see different "near
/// sides" of the middle routers.
fn line4() -> (
    fremont::netsim::engine::Sim,
    fremont::netsim::builder::Topology,
) {
    let mut b = TopologyBuilder::new();
    let a = b.segment("net-a", "10.2.1.0/24");
    let m1 = b.segment("net-m1", "10.2.2.0/24");
    let m2 = b.segment("net-m2", "10.2.3.0/24");
    let d = b.segment("net-d", "10.2.4.0/24");
    b.host("west", a, 10);
    b.host("east", d, 10);
    b.router("r1", &[(a, 1), (m1, 1)]);
    b.router("r2", &[(m1, 2), (m2, 1)]);
    b.router("r3", &[(m2, 2), (d, 1)]);
    b.build(0x4AC3)
}

#[test]
fn multi_vantage_traceroute_sees_both_interface_halves() {
    let (mut sim, topo) = line4();
    let west = topo.nodes_by_name["west"];
    let east = topo.nodes_by_name["east"];

    // One run each, from opposite ends, toward the middle subnets.
    let targets = vec![
        "10.2.2.0/24".parse().unwrap(),
        "10.2.3.0/24".parse().unwrap(),
    ];
    let boundary = "10.0.0.0/8".parse().unwrap();
    let hw = sim.spawn(west, Box::new(Traceroute::new(targets.clone(), boundary)));
    let he = sim.spawn(east, Box::new(Traceroute::new(targets, boundary)));
    sim.run_for(SimDuration::from_mins(10));

    // Both runs' observations flow into one shared Journal.
    let journal = SharedJournal::new();
    for (_, at, o) in sim.drain_observations() {
        journal
            .store(at.to_jtime(), std::slice::from_ref(&o))
            .expect("store");
    }
    let _ = (hw, he);

    // r2 has interfaces 10.2.2.2 (west-facing) and 10.2.3.1 (east-facing).
    // A single vantage sees only its near side; together, both halves.
    let all: Vec<_> = journal
        .interfaces(&fremont::journal::InterfaceQuery::all())
        .expect("query")
        .iter()
        .filter_map(|r| r.ip_addr())
        .collect();
    assert!(
        all.contains(&"10.2.2.2".parse().unwrap()),
        "west vantage found r2's west side: {all:?}"
    );
    assert!(
        all.contains(&"10.2.3.1".parse().unwrap()),
        "east vantage found r2's east side: {all:?}"
    );
}

#[test]
fn rip_poll_reaches_across_routers_and_feeds_the_journal() {
    let (mut sim, topo) = line4();
    let west = topo.nodes_by_name["west"];
    // Poll r3 — three hops away — by its far-side attachment address.
    let h = sim.spawn(
        west,
        Box::new(RipProbe::new(vec!["10.2.3.2".parse().unwrap()])),
    );
    sim.run_for(SimDuration::from_mins(2));
    assert!(sim.process_done(h));

    let journal = SharedJournal::new();
    for (_, at, o) in sim.drain_observations() {
        journal
            .store(at.to_jtime(), std::slice::from_ref(&o))
            .expect("store");
    }
    // One routed poll learned every subnet r3 can reach.
    let subs = journal.subnets(&SubnetQuery::all()).expect("query");
    assert!(subs.len() >= 4, "r3's full table arrived: {}", subs.len());
    // The responder is flagged as a RIP source.
    let q = fremont::journal::InterfaceQuery {
        rip_source: Some(true),
        ..Default::default()
    };
    let sources = journal.interfaces(&q).expect("query");
    assert_eq!(sources.len(), 1);
    assert!(sources[0].sources.contains(Source::RipWatch));
}

#[test]
fn initial_ttl_optimization_halves_probe_cost() {
    // Both configurations reach the far subnet; the optimized one skips
    // re-tracing the shared 2-hop prefix.
    let count_probes = |start_ttl: u8| {
        let (mut sim, topo) = line4();
        let west = topo.nodes_by_name["west"];
        let traceroute = Traceroute::new(
            vec!["10.2.4.0/24".parse().unwrap()],
            "10.0.0.0/8".parse().unwrap(),
        );
        let h = sim.spawn(west, Box::new(traceroute.with_start_ttl(start_ttl)));
        sim.run_for(SimDuration::from_mins(10));
        assert!(sim.process_done(h));
        let p = sim.process_mut::<Traceroute>(h).expect("alive");
        assert!(
            !p.reached_subnets().is_empty(),
            "ttl {start_ttl} still reaches"
        );
        sim.proc_stats(h).packets_sent
    };
    let naive = count_probes(1);
    let optimized = count_probes(3);
    assert!(
        optimized < naive,
        "H+1 start saves probes: {optimized} vs {naive}"
    );
}
