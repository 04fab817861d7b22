//! Integration: the distributed-architecture claims.
//!
//! "Because all modules communicate via BSD sockets, there are no
//! restrictions about the physical location of individual modules.
//! Moreover, the system can be replicated at multiple sites, exploring
//! different networks, and sharing information among the replicated
//! components."

#![allow(clippy::expect_used)]

use std::net::Ipv4Addr;

use fremont::core::correlate::correlate;
use fremont::core::{DiscoveryDriver, DriverConfig};
use fremont::explorers::{ArpWatch, SeqPing};
use fremont::journal::client::RemoteJournal;
use fremont::journal::{InterfaceQuery, JournalAccess, JournalServer, SharedJournal, Source};
use fremont::net::{IpRange, MacAddr, SubnetMask};
use fremont::netsim::builder::TopologyBuilder;
use fremont::netsim::campus::{generate, CampusConfig};
use fremont::netsim::node::{Iface, Node, NodeKind};
use fremont::netsim::time::SimDuration;
use fremont::netsim::traffic::{Flow, TrafficModel};
use fremont::telemetry::Telemetry;

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

/// The driver's pump interval: `DiscoveryDriver::run_for` pumps after
/// every slice this long.
const PUMP_INTERVAL: SimDuration = SimDuration::from_secs(30);

/// Pumps in 20 simulated minutes, the one at time zero included.
const PUMPS: u32 = 41;

/// A driver over the quiet small campus, writing through to `remote`
/// when one is given.
fn campus_driver(remote: Option<String>, telemetry: Telemetry) -> DiscoveryDriver {
    let campus = CampusConfig::quiet_small(1993);
    let (sim, truth) = generate(&campus);
    let home = sim
        .node_by_name(&truth.explorer_host)
        .expect("explorer host");
    let mut cfg = DriverConfig::full(campus.network, Some(truth.dns_server));
    cfg.telemetry = telemetry;
    cfg.remote_journal = remote;
    DiscoveryDriver::open(sim, home, cfg).expect("connect driver")
}

fn applied(journal: &SharedJournal) -> u64 {
    journal.stats().map_or(0, |s| s.observations_applied)
}

/// Pump `i` of a run: after a pump interval unless it is the first.
/// True when the pump drained something, so its replica applied it.
fn pump(driver: &mut DiscoveryDriver, i: u32) -> bool {
    if i > 0 {
        driver.sim.run_for(PUMP_INTERVAL);
    }
    let before = applied(&driver.journal);
    driver.pump();
    applied(&driver.journal) > before
}

/// A write-through driver pays for the socket once per pump that drained
/// something: its groups and its correlation travel as one `StoreBatch`,
/// a pump that drained nothing sends nothing, and the server applies
/// what the replica applied, in its order, so the two journals are one.
#[test]
fn a_draining_pump_ships_one_store_batch_and_the_server_holds_the_replica() {
    let served = SharedJournal::new();
    let (server_tel, server_rec) = Telemetry::recording();
    let server =
        JournalServer::start_with_telemetry(served.clone(), "127.0.0.1:0", None, server_tel)
            .expect("bind");
    let mut driver = campus_driver(Some(server.addr().to_string()), Telemetry::noop());
    let store_rpcs = || server_rec.counter("fremont_journal_rpc_total", "rpc=\"store_batch\"");

    let (mut draining, mut idle) = (0, 0);
    for i in 0..PUMPS {
        let before = store_rpcs();
        let drained = pump(&mut driver, i);
        assert_eq!(store_rpcs() - before, u64::from(drained), "pump {i}");
        if drained {
            draining += 1;
        } else {
            idle += 1;
        }
    }
    assert_eq!(store_rpcs(), draining);
    assert!(
        draining >= 5 && idle >= 1,
        "{draining} draining, {idle} idle"
    );
    assert_eq!(applied(&served), applied(&driver.journal));
    assert_eq!(
        served.read(|j| j.fingerprint()),
        driver.journal.read(|j| j.fingerprint()),
        "the server holds the replica"
    );
    drop(driver);
    server.shutdown();
}

/// A server that goes away mid-run costs the driver its shipments, not
/// its survey: every later draining pump fails to ship once and is
/// counted once, and the replica still fingerprints as an in-memory
/// driver's journal does.
#[test]
fn a_driver_whose_server_stops_keeps_surveying_and_counts_each_lost_shipment() {
    let server = JournalServer::start(SharedJournal::new(), "127.0.0.1:0", None).expect("bind");
    let (driver_tel, driver_rec) = Telemetry::recording();
    let mut remote = campus_driver(Some(server.addr().to_string()), driver_tel);
    let mut reference = campus_driver(None, Telemetry::noop());
    let errors = || driver_rec.counter("fremont_driver_remote_errors_total", "");

    let mut server = Some(server);
    let mut draining_after = 0;
    for i in 0..PUMPS {
        if i == PUMPS / 2 {
            if let Some(server) = server.take() {
                server.shutdown();
            }
        }
        let drained = pump(&mut remote, i);
        pump(&mut reference, i);
        if server.is_some() {
            assert_eq!(errors(), 0, "pump {i}: the server is up");
        } else if drained {
            draining_after += 1;
        }
    }
    assert!(draining_after >= 3, "{draining_after} draining pumps");
    assert_eq!(errors(), draining_after);
    assert_eq!(
        remote.journal.read(|j| j.fingerprint()),
        reference.journal.read(|j| j.fingerprint()),
        "the replica is the in-memory survey"
    );
    assert!(remote.flush().is_err(), "nothing left to flush to");
}

/// Starts a server at the address a stopped one vacated. The stopped
/// server's sockets may hold the port for a moment, so it retries.
fn restart_at(journal: &SharedJournal, addr: &str) -> Option<JournalServer> {
    (0..100).find_map(|_| {
        let server = JournalServer::start(journal.clone(), addr, None).ok();
        if server.is_none() {
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        server
    })
}

/// A server that comes back at the same address gets the driver's
/// shipments again: a failed shipment drops the driver's connection, the
/// next one connects afresh, so the first draining pump after the
/// server listens ships and the lost-shipment count stops growing.
#[test]
fn a_driver_whose_server_returns_ships_again() {
    let server = JournalServer::start(SharedJournal::new(), "127.0.0.1:0", None).expect("bind");
    let addr = server.addr().to_string();
    let (driver_tel, driver_rec) = Telemetry::recording();
    let mut driver = campus_driver(Some(addr.clone()), driver_tel);
    let errors = || driver_rec.counter("fremont_driver_remote_errors_total", "");

    let (down, back) = (PUMPS / 3, 2 * PUMPS / 3);
    let returned = SharedJournal::new();
    let mut server = Some(server);
    let (mut lost, mut shipped) = (0, 0);
    for i in 0..PUMPS {
        if i == down {
            if let Some(server) = server.take() {
                server.shutdown();
            }
        }
        if i == back {
            server = Some(restart_at(&returned, &addr).expect("rebind the address"));
        }
        let before = errors();
        let drained = pump(&mut driver, i);
        if (down..back).contains(&i) {
            lost += u64::from(drained);
        } else {
            assert_eq!(errors(), before, "pump {i}: a server listens");
            if i >= back && drained {
                shipped += 1;
            }
        }
    }
    assert!(lost >= 2 && shipped >= 2, "{lost} lost, {shipped} shipped");
    assert_eq!(errors(), lost, "each draining pump without a server");
    assert!(applied(&returned) > 0, "the returned server got shipments");
    if let Some(server) = server {
        server.shutdown();
    }
}
