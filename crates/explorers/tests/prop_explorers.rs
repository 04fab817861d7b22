//! Property tests over explorer modules on randomized LANs.

// Test code: a failed unwrap or expect is a failed test.
#![allow(clippy::expect_used)]

use proptest::prelude::*;
use std::collections::HashSet;
use std::net::Ipv4Addr;

use fremont_explorers::{BrdcastPing, EtherHostProbe, SeqPing, SubnetMasks};
use fremont_journal::observation::{Fact, Observation};
use fremont_net::{IpRange, Subnet};
use fremont_netsim::builder::TopologyBuilder;
use fremont_netsim::process::Process;
use fremont_netsim::time::SimDuration;

/// The distinct addresses of the `Interface` facts in `obs`.
fn interface_ips(obs: &[Observation]) -> HashSet<Ipv4Addr> {
    obs.iter().filter_map(|o| o.fact.interface_ip()).collect()
}

/// A LAN with `n` hosts, of which the subset `down` is powered off.
fn lan_with_down(
    n: usize,
    down: &[usize],
    seed: u64,
) -> (
    fremont_netsim::engine::Sim,
    fremont_netsim::builder::Topology,
) {
    let mut b = TopologyBuilder::new();
    let lan = b.segment("lan", "10.77.0.0/24");
    for i in 0..n {
        b.host(&format!("h{i}"), lan, 10 + i as u32);
    }
    let (mut sim, topo) = b.build(seed);
    for &d in down {
        if d < topo.hosts.len() {
            sim.set_node_up(topo.hosts[d], false);
        }
    }
    (sim, topo)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// SeqPing finds exactly the up hosts in range (minus the prober's own
    /// address, which cannot answer itself).
    #[test]
    fn seqping_finds_exactly_the_up_hosts(
        n in 3usize..10,
        down_bits in any::<u16>(),
        seed in any::<u64>(),
    ) {
        let down: Vec<usize> = (1..n).filter(|i| down_bits & (1 << i) != 0).collect();
        let (mut sim, topo) = lan_with_down(n, &down, seed);
        let range = IpRange::new(
            "10.77.0.10".parse().expect("ip"),
            format!("10.77.0.{}", 9 + n).parse().expect("ip"),
        );
        let h = sim.spawn(
            topo.hosts[0],
            Box::new(SeqPing::new(range)),
        );
        sim.run_for(SimDuration::from_mins(5));
        let got = interface_ips(&sim.drain_observations_of(h));
        let expect: HashSet<std::net::Ipv4Addr> = (1..n)
            .filter(|i| !down.contains(i))
            .map(|i| format!("10.77.0.{}", 10 + i).parse().expect("ip"))
            .collect();
        prop_assert_eq!(got, expect);
    }

    /// EtherHostProbe's harvested MACs agree with the builder's ground
    /// truth for every up host.
    #[test]
    fn etherhostprobe_macs_match_ground_truth(n in 3usize..8, seed in any::<u64>()) {
        let (mut sim, topo) = lan_with_down(n, &[], seed);
        let range = IpRange::new(
            "10.77.0.10".parse().expect("ip"),
            format!("10.77.0.{}", 9 + n).parse().expect("ip"),
        );
        let h = sim.spawn(
            topo.hosts[0],
            Box::new(EtherHostProbe::new(range)),
        );
        sim.run_for(SimDuration::from_mins(3));
        let found: Vec<_> = sim.drain_observations_of(h)
            .into_iter()
            .filter_map(|o| match o.fact {
                Fact::Interface { ip: Some(ip), mac: Some(mac), .. } => Some((ip, mac)),
                _ => None,
            })
            .collect();
        for (ip, mac) in &found {
            let owner = topo
                .hosts
                .iter()
                .find(|id| sim.nodes[id.0].ifaces[0].ip == *ip)
                .expect("found ip exists in topology");
            prop_assert_eq!(sim.nodes[owner.0].ifaces[0].mac, *mac);
        }
        prop_assert_eq!(found.len(), n - 1, "all neighbors harvested");
    }

    /// SubnetMasks reports exactly the configured mask of each responder,
    /// and the derived subnet observation matches.
    #[test]
    fn subnetmasks_reflect_configuration(n in 2usize..6, seed in any::<u64>()) {
        let (mut sim, topo) = lan_with_down(n, &[], seed);
        let targets: Vec<std::net::Ipv4Addr> = (1..n)
            .map(|i| format!("10.77.0.{}", 10 + i).parse().expect("ip"))
            .collect();
        let h = sim.spawn(
            topo.hosts[0],
            Box::new(SubnetMasks::new(targets)),
        );
        sim.run_for(SimDuration::from_mins(2));
        let obs = sim.drain_observations_of(h);
        let masks: Vec<_> = obs
            .iter()
            .filter_map(|o| match o.fact {
                Fact::Interface { mask: Some(mask), .. } => Some(mask),
                _ => None,
            })
            .collect();
        prop_assert_eq!(masks.len(), n - 1);
        for mask in masks {
            prop_assert_eq!(mask.prefix_len(), 24);
        }
        let subnet: Subnet = "10.77.0.0/24".parse().expect("subnet");
        let confirmed_subnet = obs.iter().any(|o| {
            matches!(
                &o.fact,
                Fact::Subnet { subnet: s, mask_assumed: false } if *s == subnet
            )
        });
        prop_assert!(confirmed_subnet, "confirmed subnet observation emitted");
    }
}

/// Runs `module` from the first of 12 hosts on a LAN spanning `subnet`
/// until it finishes. Returns the simulated seconds it took and how many
/// addresses answered.
fn run_on_sparse_lan<P: Process>(subnet: Subnet, module: P) -> (u64, usize) {
    let mut b = TopologyBuilder::new();
    let lan = b.segment("lan", &subnet.to_string());
    for i in 0..12 {
        b.host(&format!("h{i}"), lan, 10 + i);
    }
    let (mut sim, topo) = b.build(9);
    let start = sim.now();
    let h = sim.spawn(topo.hosts[0], Box::new(module));
    while !sim.process_done(h) {
        sim.run_for(SimDuration::from_secs(1));
    }
    let secs = (sim.now() - start).as_secs();
    (secs, interface_ips(&sim.drain_observations_of(h)).len())
}

/// The paper's crossover, in simulated time: broadcast ping wins "if the
/// address space is large but there are not very many hosts on the
/// individual subnets". SeqPing pays 2 s per address of the range;
/// BrdcastPing pays one listening window whatever the prefix.
#[test]
fn broadcast_beats_sequential_on_large_sparse_subnets() {
    let mut seq_secs = Vec::new();
    let mut brd_secs = Vec::new();
    for prefix_len in [26u8, 24, 22] {
        let subnet: Subnet = format!("10.40.0.0/{prefix_len}").parse().expect("subnet");
        let addresses = subnet.host_range().iter().count() as u64;
        let (seq, seq_found) = run_on_sparse_lan(subnet, SeqPing::new(subnet.host_range()));
        let (brd, brd_found) = run_on_sparse_lan(subnet, BrdcastPing::new(vec![subnet]));
        assert_eq!(
            seq_found, 11,
            "/{prefix_len}: SeqPing hears every other host"
        );
        assert_eq!(
            brd_found, 11,
            "/{prefix_len}: BrdcastPing hears every other host"
        );
        assert!(
            seq >= 2 * addresses,
            "/{prefix_len}: {seq} s for {addresses} addresses"
        );
        assert!(
            brd < seq,
            "/{prefix_len}: broadcast {brd} s vs sequential {seq} s"
        );
        seq_secs.push(seq);
        brd_secs.push(brd);
    }
    assert!(
        seq_secs.windows(2).all(|w| w[1] > 3 * w[0]),
        "sequential cost grows with the address space: {seq_secs:?}"
    );
    assert!(
        brd_secs.iter().all(|&b| b == brd_secs[0]),
        "broadcast cost is flat: {brd_secs:?}"
    );
}
