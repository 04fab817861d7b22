//! The paper's opening scenario: "she couldn't get to the Ancient History
//! server in the Classics department ... the connection was via a Sun
//! workstation / gateway in the Athletics department" — and the coach had
//! unplugged it.
//!
//! We build that exact situation: the Classics subnet hangs off a
//! workstation-turned-gateway on the Athletics subnet. Fremont maps the
//! route while everything works; when the gateway is unplugged, the
//! Journal still knows what the route *was supposed to be*, which is what
//! lets the operator make the phone call.
//!
//! ```sh
//! cargo run --example troubleshoot
//! ```

#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "a demo: a setup step that fails ends the run with its message"
)]

use fremont::core::{DiscoveryDriver, DriverConfig, TopologyGraph};
use fremont::journal::{JournalAccess, SharedJournal, SubnetQuery};
use fremont::netsim::builder::TopologyBuilder;
use fremont::netsim::time::SimDuration;

fn main() {
    // Campus core: backbone + CS (where we run Fremont) + Athletics.
    // Classics is reachable ONLY through "coach-sun", a Sun workstation
    // on the Athletics subnet doubling as a gateway.
    let mut b = TopologyBuilder::new();
    let backbone = b.segment("backbone", "128.138.1.0/24");
    let cs = b.segment("cs-net", "128.138.243.0/24");
    let athletics = b.segment("athletics", "128.138.60.0/24");
    let classics = b.segment("classics", "128.138.61.0/24");

    b.host("bruno", cs, 10); // Fremont runs here.
    b.host("history-server", classics, 10); // The Ancient History server.
    b.host("jock1", athletics, 20);
    b.router("cs-gw", &[(backbone, 2), (cs, 1)]);
    b.router("main-gw", &[(backbone, 3), (athletics, 1)]);
    // The accidental gateway: a multi-homed Sun workstation.
    b.router("coach-sun", &[(athletics, 77), (classics, 1)]);

    let (sim, topo) = b.build(42);
    let home = topo.nodes_by_name["bruno"];
    let journal = SharedJournal::new();
    let mut driver = DiscoveryDriver::new(
        sim,
        journal.clone(),
        home,
        DriverConfig::full("128.138.0.0/16".parse().unwrap(), None),
    );

    println!("Phase 1: normal operation — Fremont maps the campus.\n");
    driver.run_for(SimDuration::from_mins(45)).expect("flush");

    let graph = journal.read(TopologyGraph::from_journal);
    println!("{}", graph.to_ascii());

    // What is the route to the Classics subnet supposed to be?
    let classics_subnet = "128.138.61.0/24".parse().unwrap();
    let recs = journal
        .subnets(&SubnetQuery {
            within: Some(classics_subnet),
            ..Default::default()
        })
        .unwrap();
    match recs.first() {
        Some(rec) if !rec.gateways.is_empty() => {
            println!(
                "The Journal knows the Classics subnet ({}) is served by {} gateway(s).",
                rec.subnet,
                rec.gateways.len()
            );
        }
        _ => println!("Classics subnet not yet attributed to a gateway."),
    }

    println!("\nPhase 2: the coach unplugs the workstation.\n");
    let coach = driver.sim.node_by_name("coach-sun").expect("exists");
    driver.sim.set_node_up(coach, false);
    driver.run_for(SimDuration::from_mins(10)).expect("flush");

    // The live network can no longer reach the history server...
    // ...but the Journal remembers the topology, including which gateway
    // interface (on the Athletics subnet!) carries the Classics traffic.
    let graph = journal.read(TopologyGraph::from_journal);
    let classics_row = graph
        .to_ascii()
        .lines()
        .find(|l| l.contains("128.138.61.0/24"))
        .map(str::to_owned)
        .unwrap_or_default();
    println!("Journal's memory of the broken path: {classics_row}");
    println!(
        "\n→ The gateway to Classics lives at 128.138.60.77 — an address on the\n\
         Athletics subnet. Time to call the coach and ask him to plug the Sun\n\
         workstation back in."
    );
}
