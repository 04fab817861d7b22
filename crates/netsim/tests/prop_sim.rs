//! Property tests over the simulator: determinism, routing completeness,
//! and conservation-style invariants.

// Test code: a failed unwrap or expect is a failed test.
#![allow(clippy::expect_used)]

use std::net::Ipv4Addr;
use std::path::Path;

use proptest::prelude::*;

use fremont_net::udp::RIP_PORT;
use fremont_net::{
    EtherType, EthernetFrame, Ipv4Packet, MacAddr, RipCommand, RipPacket, UdpDatagram,
};
use fremont_netsim::builder::TopologyBuilder;
use fremont_netsim::campus::{generate, CampusConfig};
use fremont_netsim::engine::Sim;
use fremont_netsim::faults::{FaultKind, FaultPlan};
use fremont_netsim::node::{Node, NodeKind};
use fremont_netsim::process::{ProcCtx, ProcHandle, Process};
use fremont_netsim::segment::NodeId;
use fremont_netsim::stats::SegmentStats;
use fremont_netsim::time::{SimDuration, SimTime};
use fremont_netsim::traffic::{Flow, TrafficModel};

/// A random small topology: `n_subnets` in a star around a backbone, with
/// a couple of hosts each.
fn star(
    n_subnets: usize,
    hosts_per: usize,
    seed: u64,
) -> (
    fremont_netsim::engine::Sim,
    fremont_netsim::builder::Topology,
) {
    let mut b = TopologyBuilder::new();
    let bb = b.segment("bb", "10.9.0.0/24");
    let mut segs = Vec::new();
    for i in 0..n_subnets {
        segs.push(b.segment(&format!("n{i}"), &format!("10.9.{}.0/24", i + 1)));
    }
    for (i, seg) in segs.iter().enumerate() {
        b.router(&format!("r{i}"), &[(bb, 2 + i as u32), (*seg, 1)]);
        for h in 0..hosts_per {
            b.host(&format!("h{i}x{h}"), *seg, 10 + h as u32);
        }
    }
    b.build(seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Identical seeds produce byte-identical event streams.
    #[test]
    fn same_seed_same_world(n in 1usize..5, hosts in 1usize..4, seed in any::<u64>()) {
        let run = || {
            let (mut sim, topo) = star(n, hosts, seed);
            // Drive some traffic between the first and last hosts.
            if topo.hosts.len() >= 2 {
                let dst = sim.nodes[topo.hosts[topo.hosts.len() - 1].0].ifaces[0].ip;
                sim.set_traffic(TrafficModel::new(
                    vec![Flow { src: topo.hosts[0], dst, weight: 1.0 }],
                    SimDuration::from_secs(5),
                    1,
                ));
            }
            sim.run_for(SimDuration::from_mins(10));
            (
                sim.stats.events_processed,
                sim.stats.packets_originated,
                sim.stats.packets_forwarded,
                sim.stats.arp_requests,
                sim.now(),
            )
        };
        prop_assert_eq!(run(), run());
    }

    /// Every router in a random star can route to every subnet.
    #[test]
    fn routing_is_complete(n in 1usize..6, hosts in 1usize..3, seed in any::<u64>()) {
        let (sim, topo) = star(n, hosts, seed);
        for r in &topo.routers {
            for (_, subnet, _) in &topo.segments {
                let probe = subnet.nth(77).expect("fits /24");
                prop_assert!(
                    sim.nodes[r.0].routes.lookup(probe).is_some(),
                    "router {} has no route to {}",
                    sim.nodes[r.0].name,
                    subnet
                );
            }
        }
    }

    /// Hosts' default routes point at a router attached to their segment.
    #[test]
    fn host_default_routes_are_local(n in 1usize..5, seed in any::<u64>()) {
        let (sim, topo) = star(n, 2, seed);
        for h in &topo.hosts {
            let host = &sim.nodes[h.0];
            let via = host
                .routes
                .lookup("192.0.2.1".parse().expect("ip"))
                .and_then(|r| r.gateway);
            if let Some(gw) = via {
                let my_subnet = host.ifaces[0].subnet();
                prop_assert!(my_subnet.contains(gw), "gateway {gw} not on {my_subnet}");
            }
        }
    }

    /// The campus generator always produces the configured shape, for any
    /// seed.
    #[test]
    fn campus_shape_for_any_seed(seed in any::<u64>()) {
        let cfg = CampusConfig {
            seed,
            subnets_assigned: 20,
            subnets_connected: 17,
            cs_hosts: 10,
            cs_traffic: false,
            ..Default::default()
        };
        let (sim, truth) = generate(&cfg);
        prop_assert_eq!(truth.assigned_subnets.len(), 20);
        prop_assert_eq!(truth.connected_subnets.len(), 17);
        prop_assert!(truth.topology.routers.len() >= 5);
        // The name server exists and serves zones.
        let ns = sim.node_by_name("ns").expect("ns exists");
        prop_assert!(sim.nodes[ns.0].dns.as_ref().expect("dns").zone_count() > 0);
        // No two interfaces share a MAC.
        let mut macs: Vec<_> = sim
            .nodes
            .iter()
            .flat_map(|n| n.ifaces.iter().map(|i| i.mac))
            .collect();
        let total = macs.len();
        macs.sort();
        macs.dedup();
        prop_assert_eq!(macs.len(), total);
    }

    /// Time never runs backwards, whatever happens.
    #[test]
    fn time_is_monotone(seed in any::<u64>(), minutes in 1u64..30) {
        let (mut sim, _) = star(2, 2, seed);
        let mut last = sim.now();
        for _ in 0..minutes {
            sim.run_for(SimDuration::from_mins(1));
            prop_assert!(sim.now() >= last);
            last = sim.now();
        }
    }
}

/// A process that does nothing. Spawned on a node, it only makes that
/// node one that runs something, so its segments' audiences walk it
/// through the stack instead of counting it.
struct Deaf;

impl Process for Deaf {}

/// Records the RIP responses its station's primary segment carries,
/// from `tap_from` on: a tap is read when a frame arrives, so each is
/// stamped with its arrival instant.
#[derive(Default)]
struct RipArrivals {
    tap_from: SimTime,
    seen: Vec<(SimTime, MacAddr)>,
}

impl Process for RipArrivals {
    fn on_start(&mut self, ctx: &mut ProcCtx<'_>) {
        let wait = self.tap_from.since(ctx.now());
        ctx.set_timer(wait, 0);
    }

    fn on_timer(&mut self, _token: u64, ctx: &mut ProcCtx<'_>) {
        ctx.enable_tap(true);
    }

    fn on_tap(&mut self, frame: &EthernetFrame, ctx: &mut ProcCtx<'_>) {
        let rip = Some(frame)
            .filter(|f| f.ethertype == EtherType::Ipv4)
            .and_then(|f| Ipv4Packet::decode(&f.payload).ok())
            .and_then(|p| UdpDatagram::decode(&p.payload).ok())
            .filter(|d| d.dst_port == RIP_PORT)
            .and_then(|d| RipPacket::decode(&d.payload).ok());
        if rip.is_some_and(|r| r.command == RipCommand::Response) {
            self.seen.push((ctx.now(), frame.src));
        }
    }
}

/// What a run leaves behind that a RIP arrival could touch.
struct Outcome {
    /// `frame_deliveries`, `arp_packets`, `ip_packets`, `rip_packets`,
    /// `packets_originated`, `packets_forwarded`, `icmp_errors`.
    counters: [u64; 7],
    segments: Vec<SegmentStats>,
    fingerprint: u64,
    rip_learned: Vec<Vec<(Ipv4Addr, u32)>>,
    /// Frames tapped by the first process of each node, the only one a
    /// case ever gives a tap.
    tapped: Vec<u64>,
    rng_probe: u64,
}

/// Something a case does to the simulator at the start of every
/// simulated hour and at each of its other stops (the instant is its
/// argument).
type Script = Box<dyn FnMut(&mut Sim, SimTime)>;

/// One input of the differential: a campus, how many hours it runs, and
/// what happens to it meanwhile.
struct Case {
    name: String,
    cfg: CampusConfig,
    hours: u64,
    /// Instants besides the hour marks at which the script runs.
    stops: Vec<SimTime>,
    script: Box<dyn Fn() -> Script>,
}

impl Case {
    fn plain(name: &str, cfg: CampusConfig, hours: u64) -> Self {
        Self::scripted(name, cfg, hours, || Box::new(|_, _| {}))
    }

    fn scripted(
        name: &str,
        cfg: CampusConfig,
        hours: u64,
        script: impl Fn() -> Script + 'static,
    ) -> Self {
        Case {
            name: name.to_owned(),
            cfg,
            hours,
            stops: Vec::new(),
            script: Box::new(script),
        }
    }

    /// Runs the case, with a [`Deaf`] on every node (a node added
    /// mid-run included) if `deaf`; returns the outcome and the events
    /// dispatched.
    fn run(&self, deaf: bool) -> (Outcome, u64) {
        let (mut sim, _) = generate(&self.cfg);
        let mut script = (self.script)();
        let mut stops: Vec<SimTime> = (0..self.hours).map(SimTime::from_hours).collect();
        stops.extend(&self.stops);
        stops.sort();
        let mut deafened = 0;
        for at in stops {
            sim.run_until(at);
            script(&mut sim, at);
            while deaf && deafened < sim.nodes.len() {
                sim.spawn(NodeId(deafened), Box::new(Deaf));
                deafened += 1;
            }
        }
        sim.run_until(SimTime::from_hours(self.hours));
        assert_eq!(
            sim.fault_stats.unresolved, 0,
            "{}: a fault missed",
            self.name
        );
        let s = sim.stats;
        let outcome = Outcome {
            counters: [
                s.frame_deliveries,
                s.arp_packets,
                s.ip_packets,
                s.rip_packets,
                s.packets_originated,
                s.packets_forwarded,
                s.icmp_errors,
            ],
            segments: sim.segments.iter().map(|seg| seg.stats.clone()).collect(),
            fingerprint: sim.state_fingerprint(),
            rip_learned: sim.nodes.iter().map(|n| n.rip_learned.clone()).collect(),
            tapped: (0..sim.nodes.len())
                .map(|n| {
                    let first = ProcHandle {
                        node: NodeId(n),
                        idx: 0,
                    };
                    sim.proc_stats(first).frames_tapped
                })
                .collect(),
            rng_probe: sim.rng_position_probe(),
        };
        (outcome, s.events_processed)
    }
}

/// `piper` is a CS host that never churns and runs nothing.
fn piper(sim: &Sim) -> NodeId {
    sim.node_by_name("piper").expect("piper is on every campus")
}

/// A [`Deaf`] spawned on `piper` at `spawn` and killed at `kill`.
fn spawn_then_kill(spawn: SimTime, kill: SimTime) -> Script {
    let mut handle = None;
    Box::new(move |sim, at| {
        if at == spawn {
            handle = Some(sim.spawn(piper(sim), Box::new(Deaf)));
        } else if at == kill {
            sim.kill_process(handle.take().expect("spawned"));
        }
    })
}

/// A quiet host plugged into `piper`'s segment after an hour.
fn add_a_node() -> Script {
    Box::new(|sim, at| {
        if at == SimTime::from_hours(1) {
            let mut iface = sim.nodes[piper(sim).0].ifaces[0].clone();
            iface.mac = MacAddr::new([0x08, 0, 0x20, 0xfe, 0xfe, 0xfe]);
            iface.ip = iface.subnet().nth(250).expect("a /24");
            sim.add_node(Node::new("latecomer", NodeKind::Host, vec![iface]));
        }
    })
}

/// The fault plans committed under `scenarios/`, in name order, each
/// with the hours it needs to play out plus one.
fn scenario_cases() -> Vec<Case> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("scenarios/")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no fault plan under {}", dir.display());
    paths
        .into_iter()
        .map(|path| {
            let text = std::fs::read_to_string(&path).expect("fixture");
            let plan = FaultPlan::from_json(&text).expect("a fault plan");
            let last = plan.events.iter().map(|e| e.at_micros).max().unwrap_or(0);
            let hours = last / 3_600_000_000 + 2;
            let name = path.file_stem().expect("name").to_string_lossy();
            let mut cfg = CampusConfig::quiet_small(7);
            cfg.fault_plan = plan;
            Case::plain(&name, cfg, hours)
        })
        .collect()
}

/// A station that runs nothing reads nothing: counting a RIP response
/// for every station its segment's audience does not walk is
/// indistinguishable from walking it through the whole stack. A `Deaf`
/// on every node, routers included, empties every audience's count, and
/// nothing but the `Start` events it costs may change. The inputs cover
/// everything an audience is built from: the default campus has the
/// promiscuous `chatty` host and the wrong-mask host and churns hosts up
/// and down; each `scenarios/*.json` plan crashes, reboots, re-addresses
/// or re-masks a station mid-run; and on the quiet small campus a
/// process comes and goes on a quiet host, and a node is added.
#[test]
fn a_station_that_runs_nothing_reads_nothing() {
    let mut cases = vec![
        Case::plain("default", CampusConfig::default(), 2),
        Case::plain(
            "default",
            CampusConfig {
                seed: 20717,
                ..Default::default()
            },
            2,
        ),
    ];
    cases.extend([1, 7, 42].map(|seed| Case::plain("micro", CampusConfig::micro(seed), 2)));
    cases.extend(scenario_cases());
    // Those fixtures re-mask or re-address `piper` before its segment's
    // first advertisement, or amid churn that rebuilds the audience
    // anyway. On the churn-free micro campus the same faults land on an
    // audience already built.
    let node = "piper".to_owned();
    let foreign = Ipv4Addr::new(128, 138, 9, 9);
    for (name, kind) in [
        (
            "wrong_mask_at_1h",
            FaultKind::WrongMask {
                node: node.clone(),
                prefix_len: 16,
            },
        ),
        (
            "foreign_ip_at_1h",
            FaultKind::DuplicateIp { node, ip: foreign },
        ),
    ] {
        let mut cfg = CampusConfig::micro(7);
        cfg.fault_plan = FaultPlan::new().at(SimTime(3_600_000_000), kind);
        cases.push(Case::plain(name, cfg, 2));
    }
    let (first, second) = (SimTime::from_hours(1), SimTime::from_hours(2));
    cases.push(Case::scripted(
        "spawn_then_kill",
        CampusConfig::quiet_small(1993),
        3,
        move || spawn_then_kill(first, second),
    ));
    cases.push(Case::scripted(
        "add_a_node",
        CampusConfig::quiet_small(1993),
        3,
        add_a_node,
    ));
    cases.extend(hooks_in_flight());
    for case in &cases {
        let at = format!("{} seed {}", case.name, case.cfg.seed);
        let (quiet, quiet_events) = case.run(false);
        let (deaf, deaf_events) = case.run(true);
        assert!(quiet.counters[3] > 0, "{at}: no RIP heard");
        assert_eq!(quiet.counters, deaf.counters, "{at}: SimStats");
        assert!(quiet.segments == deaf.segments, "{at}: segments");
        assert_eq!(quiet.fingerprint, deaf.fingerprint, "{at}");
        assert!(quiet.rip_learned == deaf.rip_learned, "{at}: learned");
        assert_eq!(quiet.tapped, deaf.tapped, "{at}: tapped");
        assert_eq!(quiet.rng_probe, deaf.rng_probe, "{at}: RNG");
        let spawns = deaf.rip_learned.len() as u64;
        assert_eq!(deaf_events - quiet_events, spawns, "{at}");
    }
}

/// The cases of [`a_station_that_runs_nothing_reads_nothing`] whose
/// hooks land while a RIP response is on the wire. Where every station
/// only counts it, that response is held off the event queue; each hook
/// must land it first, so it arrives to what it would have found on the
/// queue. The instants are read off a probe run of the churn-free micro
/// campus: one microsecond before a response from `cs-gw` arrives, which
/// is after it was sent as long as the segment's latency exceeds that.
fn hooks_in_flight() -> Vec<Case> {
    let cfg = CampusConfig::micro(7);
    let (mut sim, _) = generate(&cfg);
    let gw = sim
        .node_by_name("cs-gw")
        .expect("the micro campus's gateway");
    let probes = [piper(&sim), gw].map(|node| {
        let seg = sim.nodes[node.0].ifaces[0].segment;
        let latency = sim.segments[seg.0].cfg.latency;
        assert!(latency > SimDuration::from_micros(1), "{latency:?}");
        let mac = sim.nodes[gw.0].ifaces.iter().find(|i| i.segment == seg);
        let mac = mac.expect("cs-gw is on the segment").mac;
        (sim.spawn(node, Box::<RipArrivals>::default()), mac)
    });
    sim.run_for(SimDuration::from_hours(2));
    let [cs, backbone] = probes.map(|(handle, mac)| {
        let seen = &sim.process_mut::<RipArrivals>(handle).expect("alive").seen;
        let late = seen
            .iter()
            .filter(|&&(at, src)| src == mac && at > SimTime::from_hours(1));
        late.map(|&(at, _)| SimTime(at.as_micros() - 1))
            .collect::<Vec<_>>()
    });
    assert!(cs.len() >= 2 && !backbone.is_empty(), "{cs:?} {backbone:?}");
    let (off, on) = (cs[0], cs[1]);
    let tap_from = backbone[0];

    // A fault lands inside `run_until`, with the response in flight; a
    // script runs between two calls, after the first has filed it.
    let mut power = cfg.clone();
    let node = "piper".to_owned();
    power.fault_plan = FaultPlan::new()
        .at(off, FaultKind::NodeCrash { node: node.clone() })
        .at(on, FaultKind::NodeReboot { node: node.clone() });
    let power = Case::plain("power_off_and_on_in_flight", power, 2);
    let mut spawn = Case::scripted("spawn_and_kill_in_flight", cfg.clone(), 2, move || {
        spawn_then_kill(off, on)
    });
    spawn.stops = vec![off, on];
    // The first process on `cs-gw` opens its tap on the backbone while
    // the gateway's own response is on it: the audience walks nobody but
    // the sender, so that response was held until the tap opened.
    let tap = Case::scripted("enable_tap_in_flight", cfg.clone(), 2, move || {
        Box::new(move |sim, at| {
            if at == SimTime::ZERO {
                let gw = sim.node_by_name("cs-gw").expect("gateway");
                let tap = RipArrivals {
                    tap_from,
                    seen: Vec::new(),
                };
                sim.spawn(gw, Box::new(tap));
            }
        })
    });
    let mut mask = cfg;
    let wrong_mask = FaultKind::WrongMask {
        node,
        prefix_len: 16,
    };
    mask.fault_plan = FaultPlan::new().at(off, wrong_mask);
    let mask = Case::plain("wrong_mask_in_flight", mask, 2);
    vec![power, spawn, tap, mask]
}
