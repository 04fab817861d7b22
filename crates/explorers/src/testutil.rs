//! Shared test fixtures for the explorer-module unit tests.

use std::net::Ipv4Addr;

use fremont_journal::observation::{Fact, Observation};
use fremont_net::Subnet;
use fremont_netsim::builder::{Topology, TopologyBuilder};
use fremont_netsim::engine::Sim;

/// A single /24 LAN (`10.7.7.0/24`) with `n` hosts at `.10`, `.11`, ...
/// and a router at `.1` uplinking to a stub backbone.
pub fn lan(n: usize) -> (Sim, Topology) {
    let mut b = TopologyBuilder::new();
    let lan = b.segment("lan", "10.7.7.0/24");
    let bb = b.segment("bb", "10.7.0.0/24");
    for i in 0..n {
        b.host(&format!("host{i}"), lan, 10 + i as u32);
    }
    b.router("gw", &[(lan, 1), (bb, 1)]);
    b.build(0xF0E)
}

/// Three subnets in a line with hosts on each end:
/// `10.1.1.0/24 --r1-- 10.1.2.0/24 --r2-- 10.1.3.0/24`.
pub fn line3() -> (Sim, Topology) {
    let mut b = TopologyBuilder::new();
    let a = b.segment("net-a", "10.1.1.0/24");
    let m = b.segment("net-m", "10.1.2.0/24");
    let c = b.segment("net-c", "10.1.3.0/24");
    b.host("left", a, 10);
    b.host("right", c, 10);
    b.router("r1", &[(a, 1), (m, 1)]);
    b.router("r2", &[(m, 2), (c, 1)]);
    b.build(0x11E3)
}

/// The distinct addresses of the `Interface` facts in `obs`, ascending.
pub fn interface_ips(obs: &[Observation]) -> Vec<Ipv4Addr> {
    let mut ips: Vec<Ipv4Addr> = obs.iter().filter_map(|o| o.fact.interface_ip()).collect();
    ips.sort();
    ips.dedup();
    ips
}

/// The subnets of the `Subnet` facts in `obs`, in emission order.
pub fn subnets(obs: &[Observation]) -> Vec<Subnet> {
    obs.iter()
        .filter_map(|o| match o.fact {
            Fact::Subnet { subnet, .. } => Some(subnet),
            _ => None,
        })
        .collect()
}
