//! Integration: the distributed-architecture claims.
//!
//! "Because all modules communicate via BSD sockets, there are no
//! restrictions about the physical location of individual modules.
//! Moreover, the system can be replicated at multiple sites, exploring
//! different networks, and sharing information among the replicated
//! components."

use std::net::Ipv4Addr;

use fremont::core::correlate::correlate;
use fremont::explorers::{ArpWatch, SeqPing};
use fremont::journal::client::RemoteJournal;
use fremont::journal::{InterfaceQuery, JournalAccess, JournalServer, SharedJournal, Source};
use fremont::net::{IpRange, MacAddr, SubnetMask};
use fremont::netsim::builder::TopologyBuilder;
use fremont::netsim::node::{Iface, Node, NodeKind};
use fremont::netsim::time::SimDuration;
use fremont::netsim::traffic::{Flow, TrafficModel};

/// Explorer observations travel to the Journal Server over real TCP, and
/// queries from a "presentation program" connection see them.
#[test]
fn modules_report_through_the_tcp_journal_server() {
    let shared = SharedJournal::new();
    let server = JournalServer::start(shared, "127.0.0.1:0", None).expect("bind");
    let module_conn = RemoteJournal::connect(&server.addr().to_string()).expect("connect");
    let viewer_conn = RemoteJournal::connect(&server.addr().to_string()).expect("connect");

    // A small LAN swept by SeqPing.
    let mut b = TopologyBuilder::new();
    let lan = b.segment("lan", "10.50.0.0/24");
    for i in 0..5 {
        b.host(&format!("h{i}"), lan, 10 + i);
    }
    let (mut sim, topo) = b.build(3);
    let range = IpRange::new(
        "10.50.0.10".parse().expect("ip"),
        "10.50.0.14".parse().expect("ip"),
    );
    sim.spawn(topo.hosts[0], Box::new(SeqPing::new(range)));
    sim.run_for(SimDuration::from_mins(3));

    // Forward the module's observations over the socket, stamped with the
    // simulation clock — the Journal Server serializes and records them.
    for (_, at, obs) in sim.drain_observations() {
        module_conn
            .store(at.to_jtime(), std::slice::from_ref(&obs))
            .expect("store over tcp");
    }

    let seen = viewer_conn
        .interfaces(&InterfaceQuery::all())
        .expect("query over tcp");
    assert_eq!(seen.len(), 4, "four live neighbors recorded");
    assert!(seen.iter().all(|r| r.sources.contains(Source::SeqPing)));
    server.shutdown();
}

/// Two ARPwatch vantage points on different subnets, one shared Journal:
/// a DECnet-style box that uses the same MAC on both its interfaces is
/// only recognizable as a gateway once both watchers' records meet in the
/// Journal.
#[test]
fn replicated_watchers_discover_a_gateway_together() {
    let mut b = TopologyBuilder::new();
    let net_a = b.segment("net-a", "10.60.1.0/24");
    let net_b = b.segment("net-b", "10.60.2.0/24");
    b.host("watcher-a", net_a, 10);
    b.host("watcher-b", net_b, 10);
    b.host("talker-a", net_a, 20);
    b.host("talker-b", net_b, 20);
    let (mut sim, topo) = b.build(8);

    // The multi-homed box: one MAC, two interfaces (as DECnet hosts and
    // some bridging gear genuinely did).
    let shared_mac = MacAddr::new([0xaa, 0x00, 0x04, 0x00, 0x12, 0x34]);
    let mask = SubnetMask::from_prefix_len(24).expect("valid");
    let mut gw = Node::new(
        "decbox",
        NodeKind::Router,
        vec![
            Iface {
                mac: shared_mac,
                ip: "10.60.1.1".parse().expect("ip"),
                mask,
                segment: sim.nodes[topo.hosts[0].0].ifaces[0].segment,
            },
            Iface {
                mac: shared_mac,
                ip: "10.60.2.1".parse().expect("ip"),
                mask,
                segment: sim.nodes[topo.hosts[1].0].ifaces[0].segment,
            },
        ],
    );
    gw.routes.add(fremont::netsim::routing::Route {
        dest: "10.60.1.0/24".parse().expect("subnet"),
        gateway: None,
        iface: 0,
        metric: 0,
    });
    gw.routes.add(fremont::netsim::routing::Route {
        dest: "10.60.2.0/24".parse().expect("subnet"),
        gateway: None,
        iface: 1,
        metric: 0,
    });
    sim.add_node(gw);

    // Watchers on both segments; talkers ping the gateway so it ARPs.
    let wa = sim.spawn(topo.nodes_by_name["watcher-a"], Box::new(ArpWatch::new()));
    let wb = sim.spawn(topo.nodes_by_name["watcher-b"], Box::new(ArpWatch::new()));
    let _ = (wa, wb);
    sim.set_traffic(TrafficModel::new(
        vec![
            Flow {
                src: topo.nodes_by_name["talker-a"],
                dst: "10.60.1.1".parse().expect("ip"),
                weight: 1.0,
            },
            Flow {
                src: topo.nodes_by_name["talker-b"],
                dst: "10.60.2.1".parse().expect("ip"),
                weight: 1.0,
            },
        ],
        SimDuration::from_secs(10),
        1,
    ));
    sim.run_for(SimDuration::from_mins(5));

    // Both watchers' observations land in ONE shared journal. Each watcher
    // also needs the mask knowledge (normally from the mask module).
    let journal = SharedJournal::new();
    let obs: Vec<_> = sim.drain_observations();
    assert!(
        obs.iter()
            .any(|(h, _, _)| h.node == topo.nodes_by_name["watcher-a"]),
        "watcher A reported"
    );
    assert!(
        obs.iter()
            .any(|(h, _, _)| h.node == topo.nodes_by_name["watcher-b"]),
        "watcher B reported"
    );
    for (_, at, o) in &obs {
        journal
            .store(at.to_jtime(), std::slice::from_ref(o))
            .expect("store");
    }
    for ip in ["10.60.1.1", "10.60.2.1"] {
        journal
            .store(
                fremont::journal::JTime(400),
                &[fremont::journal::Observation::mask(
                    Source::SubnetMasks,
                    ip.parse::<Ipv4Addr>().expect("ip"),
                    mask,
                )],
            )
            .expect("store");
    }

    // Before correlation: no gateway. After: the shared MAC gives it away.
    assert!(journal.gateways().expect("query").is_empty());
    let derived = journal.read(correlate);
    assert!(
        !derived.is_empty(),
        "same MAC on two subnets must correlate into a gateway"
    );
    journal
        .store(fremont::journal::JTime(500), &derived)
        .expect("store");
    let gws = journal.gateways().expect("query");
    assert_eq!(gws.len(), 1);
    assert_eq!(gws[0].subnets.len(), 2);
    assert_eq!(gws[0].interfaces.len(), 2);
}
