//! Property tests over the simulator: determinism, routing completeness,
//! and conservation-style invariants.

use std::net::Ipv4Addr;

use proptest::prelude::*;

use fremont_netsim::builder::TopologyBuilder;
use fremont_netsim::campus::{generate, CampusConfig};
use fremont_netsim::process::Process;
use fremont_netsim::segment::NodeId;
use fremont_netsim::stats::SegmentStats;
use fremont_netsim::time::SimDuration;
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
/// node one that runs something, so its stack walks a RIP response all
/// the way to `handle_rip` instead of counting it at IP input.
struct Deaf;

impl Process for Deaf {}

/// What two simulated hours leave behind that a RIP arrival could touch.
struct Outcome {
    /// `frame_deliveries`, `arp_packets`, `ip_packets`, `rip_packets`,
    /// `packets_originated`, `packets_forwarded`, `icmp_errors`.
    counters: [u64; 7],
    segments: Vec<SegmentStats>,
    fingerprint: u64,
    rip_learned: Vec<Vec<(Ipv4Addr, u32)>>,
    rng_probe: u64,
}

/// Runs `cfg` for two hours, with a [`Deaf`] on every node if `deaf`;
/// returns the outcome and the events dispatched.
fn two_hours(cfg: &CampusConfig, deaf: bool) -> (Outcome, u64) {
    let (mut sim, _) = generate(cfg);
    if deaf {
        for n in 0..sim.nodes.len() {
            sim.spawn(NodeId(n), Box::new(Deaf));
        }
    }
    sim.run_for(SimDuration::from_hours(2));
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
        rng_probe: sim.rng_position_probe(),
    };
    (outcome, s.events_processed)
}

/// A station that runs nothing reads nothing: counting a RIP response at
/// IP input, where a node runs no process and does not rebroadcast, is
/// indistinguishable from walking it through the whole stack. A `Deaf`
/// on every node, routers included, turns that shortcut off everywhere,
/// and nothing but the `Start` events it costs may change. The default
/// campus has the promiscuous `chatty` host and the wrong-mask host.
#[test]
fn a_station_that_runs_nothing_reads_nothing() {
    let mut cfgs = vec![
        CampusConfig::default(),
        CampusConfig {
            seed: 20717,
            ..Default::default()
        },
    ];
    cfgs.extend([1, 7, 42].map(CampusConfig::micro));
    for cfg in &cfgs {
        let seed = cfg.seed;
        let (quiet, quiet_events) = two_hours(cfg, false);
        let (deaf, deaf_events) = two_hours(cfg, true);
        assert!(quiet.counters[3] > 0, "seed {seed}: no RIP heard");
        assert_eq!(quiet.counters, deaf.counters, "seed {seed}: SimStats");
        assert!(quiet.segments == deaf.segments, "seed {seed}: segments");
        assert_eq!(quiet.fingerprint, deaf.fingerprint, "seed {seed}");
        assert!(
            quiet.rip_learned == deaf.rip_learned,
            "seed {seed}: learned"
        );
        assert_eq!(quiet.rng_probe, deaf.rng_probe, "seed {seed}: RNG");
        let spawns = deaf.rip_learned.len() as u64;
        assert_eq!(deaf_events - quiet_events, spawns, "seed {seed}");
    }
}
