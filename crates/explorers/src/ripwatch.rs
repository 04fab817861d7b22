//! The RIPwatch Explorer Module.
//!
//! "The RIP module monitors RIP advertisements on shared subnets, building
//! a list of hosts, subnets, and networks as they are seen in the
//! advertisements. ... Like the ARPwatch module, the RIPwatch module uses
//! the Sun NIT with a packet filter to watch the RIP packets on the shared
//! subnets." It also "attempts to identify those RIP sources that appear
//! to be operating in this erroneous (promiscuous) manner".

use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;

use fremont_journal::observation::{Fact, Observation, Source};
use fremont_net::rip::{classify_route, RipCommand, RipPacket, RouteKind};
use fremont_net::udp::RIP_PORT;
use fremont_net::{EtherType, EthernetFrame, IpProtocol, Ipv4Packet, MacAddr, Subnet, UdpDatagram};
use fremont_netsim::engine::ProcCtx;
use fremont_netsim::process::Process;
use fremont_netsim::time::SimDuration;

/// How long to monitor before finishing (paper Table 4: 2 minutes —
/// enough for every router's 30-second advertisement cycle).
const DURATION: SimDuration = SimDuration::from_mins(2);

/// What one RIP source advertised.
#[derive(Debug, Clone, Default)]
pub struct RipSourceInfo {
    /// MAC the advertisements came from.
    pub mac: Option<MacAddr>,
    /// Advertised destinations with the lowest metric heard for each.
    pub routes: HashMap<Ipv4Addr, u32>,
    /// `true` when the source advertised a route to the very subnet it is
    /// attached to — one promiscuous-rebroadcast signature.
    pub advertises_local_subnet: bool,
}

/// The passive RIP monitor.
#[derive(Default)]
pub struct RipWatch {
    local_subnet: Option<Subnet>,
    sources: HashMap<Ipv4Addr, RipSourceInfo>,
    subnets: HashSet<Subnet>,
    hosts: HashSet<Ipv4Addr>,
    emitted_subnets: HashSet<Subnet>,
    finished: bool,
}

impl RipWatch {
    /// Creates the module; it takes no input (paper Table 3).
    pub fn new() -> Self {
        Self::default()
    }

    /// Subnet routes heard (within the local classful network).
    pub fn subnets(&self) -> Vec<Subnet> {
        let mut v: Vec<_> = self.subnets.iter().copied().collect();
        v.sort();
        v
    }

    /// Advertisement sources and what they said.
    pub fn sources(&self) -> &HashMap<Ipv4Addr, RipSourceInfo> {
        &self.sources
    }

    /// Sources flagged as promiscuous rebroadcasters.
    ///
    /// Two signatures, either suffices: (a) the source advertises the very
    /// subnet it broadcasts onto (a real router's split horizon suppresses
    /// that); (b) nearly everything it advertises duplicates another
    /// source on the segment at an equal-or-better metric — it is merely
    /// echoing "learned routing information without regard to the subnet
    /// from which that information was learned".
    pub fn promiscuous_sources(&self) -> Vec<Ipv4Addr> {
        let mut v: Vec<Ipv4Addr> = self
            .sources
            .iter()
            .filter(|(ip, info)| info.advertises_local_subnet || self.is_echoer(**ip, info))
            .map(|(ip, _)| *ip)
            .collect();
        v.sort_by_key(|ip| u32::from(*ip));
        v
    }

    fn is_echoer(&self, ip: Ipv4Addr, info: &RipSourceInfo) -> bool {
        if info.routes.len() < 3 {
            return false;
        }
        let covered = info
            .routes
            .iter()
            .filter(|(dest, metric)| {
                self.sources.iter().any(|(other_ip, other)| {
                    *other_ip != ip && other.routes.get(dest).map(|m| m <= metric).unwrap_or(false)
                })
            })
            .count();
        covered * 10 >= info.routes.len() * 8
    }
}

impl Process for RipWatch {
    fn on_start(&mut self, ctx: &mut ProcCtx<'_>) {
        let iface = ctx.primary_iface();
        let local = iface.subnet();
        self.local_subnet = Some(local);
        ctx.enable_tap(true);
        ctx.set_timer(DURATION, 1);
        // The watcher knows its own attached subnet (from its interface
        // configuration) — that is how the paper's module reaches 111/111:
        // 110 advertised plus the one it sits on.
        self.subnets.insert(local);
        ctx.emit(Observation::subnet(Source::RipWatch, local, false));
        self.emitted_subnets.insert(local);
    }

    fn on_timer(&mut self, _token: u64, ctx: &mut ProcCtx<'_>) {
        // Final report: sources (with promiscuity judgment).
        let flagged = self.promiscuous_sources();
        let sources: Vec<(Ipv4Addr, RipSourceInfo)> = self
            .sources
            .iter()
            .map(|(ip, info)| (*ip, info.clone()))
            .collect();
        for (ip, info) in sources {
            ctx.emit(Observation::new(
                Source::RipWatch,
                Fact::RipSource {
                    ip,
                    mac: info.mac,
                    advertised_routes: info.routes.len() as u32,
                    promiscuous: flagged.contains(&ip),
                },
            ));
        }
        ctx.enable_tap(false);
        self.finished = true;
    }

    fn on_tap(&mut self, frame: &EthernetFrame, ctx: &mut ProcCtx<'_>) {
        if self.finished || frame.ethertype != EtherType::Ipv4 {
            return;
        }
        let Ok(pkt) = Ipv4Packet::decode(&frame.payload) else {
            return;
        };
        if pkt.protocol != IpProtocol::Udp {
            return;
        }
        let Ok(dgram) = UdpDatagram::decode(&pkt.payload) else {
            return;
        };
        if dgram.dst_port != RIP_PORT {
            return;
        }
        let Ok(rip) = RipPacket::decode(&dgram.payload) else {
            return;
        };
        if rip.command != RipCommand::Response {
            return;
        }
        let Some(local) = self.local_subnet else {
            return; // No packet can precede on_start setting this.
        };

        let entry = self.sources.entry(pkt.src).or_default();
        entry.mac = Some(frame.src);
        for e in &rip.entries {
            entry
                .routes
                .entry(e.addr)
                .and_modify(|m| *m = (*m).min(e.metric))
                .or_insert(e.metric);
            if e.addr == local.network() {
                // Advertising the segment's own subnet onto that segment:
                // either a missing split horizon or a promiscuous host.
                entry.advertises_local_subnet = true;
            }
        }

        // Classify and emit the learned destinations.
        for e in &rip.entries {
            if e.metric >= fremont_net::rip::METRIC_INFINITY {
                continue;
            }
            match classify_route(e.addr, local) {
                RouteKind::SubnetRoute(s) => {
                    self.subnets.insert(s);
                    if self.emitted_subnets.insert(s) {
                        ctx.emit(Observation::subnet(Source::RipWatch, s, true));
                    }
                }
                RouteKind::Network(n) => {
                    if self.emitted_subnets.insert(n) {
                        ctx.emit(Observation::subnet(Source::RipWatch, n, true));
                    }
                }
                RouteKind::Host(h) => {
                    if self.hosts.insert(h) {
                        ctx.emit(Observation::ip_alive(Source::RipWatch, h));
                    }
                }
                RouteKind::Default => {}
            }
        }
    }

    fn done(&self) -> bool {
        self.finished
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::line3;
    use fremont_netsim::node::RipConfig;

    #[test]
    fn hears_advertised_subnets() {
        let (mut sim, topo) = line3();
        let left = topo.nodes_by_name["left"];
        let h = sim.spawn(left, Box::new(RipWatch::new()));
        sim.run_for(SimDuration::from_mins(3));
        let w = sim.process_mut::<RipWatch>(h).unwrap();
        assert!(w.done());
        let subnets = w.subnets();
        // r1 advertises 10.1.2/24 and 10.1.3/24 onto net-a (split horizon
        // hides 10.1.1/24); the watcher adds its own subnet.
        assert!(
            subnets.contains(&"10.1.1.0/24".parse().unwrap()),
            "{subnets:?}"
        );
        assert!(
            subnets.contains(&"10.1.2.0/24".parse().unwrap()),
            "{subnets:?}"
        );
        assert!(
            subnets.contains(&"10.1.3.0/24".parse().unwrap()),
            "{subnets:?}"
        );
        // The advertising source was recorded with its MAC.
        assert_eq!(w.sources().len(), 1);
        let info = w.sources().values().next().unwrap();
        assert!(info.mac.is_some());
        // A split-horizon router is not promiscuous.
        assert!(w.promiscuous_sources().is_empty());
    }

    #[test]
    fn flags_promiscuous_host() {
        let (mut sim, topo) = line3();
        let left = topo.nodes_by_name["left"];
        let right_ip: Ipv4Addr = "10.1.1.99".parse().unwrap();
        // Add a promiscuous host on net-a that learned routes from r1 and
        // rebroadcasts them — including net-a's own route.
        let seg = sim.nodes[left.0].ifaces[0].segment;
        let mut node = fremont_netsim::node::Node::new(
            "promisc",
            fremont_netsim::node::NodeKind::Host,
            vec![fremont_netsim::node::Iface {
                mac: MacAddr::new([0, 0, 0xc0, 9, 9, 9]),
                ip: right_ip,
                mask: fremont_net::SubnetMask::from_prefix_len(24).unwrap(),
                segment: seg,
            }],
        );
        node.behavior.rip = Some(RipConfig {
            promiscuous: true,
            split_horizon: false,
            ..Default::default()
        });
        // Pretend it already learned the local subnet route.
        node.rip_learned.push(("10.1.1.0".parse().unwrap(), 1));
        node.rip_learned.push(("10.1.3.0".parse().unwrap(), 2));
        node.rip_learned.push(("10.1.2.0".parse().unwrap(), 1));
        let promisc = sim.add_node(node);

        let h = sim.spawn(left, Box::new(RipWatch::new()));
        sim.run_for(SimDuration::from_mins(3));
        let w = sim.process_mut::<RipWatch>(h).unwrap();
        assert_eq!(w.promiscuous_sources(), vec![right_ip]);
        // The rebroadcast is everything learned — the pre-seeded list
        // min-merged with what r1 advertised meanwhile — one hop further.
        let routes = |w: &RipWatch| {
            let mut v: Vec<(String, u32)> = w.sources()[&right_ip]
                .routes
                .iter()
                .map(|(dest, metric)| (dest.to_string(), *metric))
                .collect();
            v.sort();
            v
        };
        let route = |dest: &str, metric: u32| (dest.to_owned(), metric);
        assert_eq!(
            routes(w),
            [
                route("10.1.1.0", 2),
                route("10.1.2.0", 2),
                route("10.1.3.0", 3)
            ]
        );
        // The observation stream carries the flag.
        let obs = sim.drain_observations();
        let flagged = obs.iter().any(|(_, _, o)| {
            matches!(
                &o.fact,
                Fact::RipSource { ip, promiscuous: true, .. } if *ip == right_ip
            )
        });
        assert!(flagged, "promiscuous source observation emitted");

        // A crash forgets everything learned; after the reboot the host
        // re-learns from r1 alone (whose split horizon withholds net-a)
        // and rebroadcasts exactly that.
        sim.set_node_up(promisc, false);
        sim.run_for(SimDuration::from_mins(1));
        assert!(sim.nodes[promisc.0].rip_learned.is_empty());
        sim.set_node_up(promisc, true);
        let h = sim.spawn(left, Box::new(RipWatch::new()));
        sim.run_for(SimDuration::from_mins(3));
        let w = sim.process_mut::<RipWatch>(h).unwrap();
        assert_eq!(routes(w), [route("10.1.2.0", 2), route("10.1.3.0", 3)]);
    }

    #[test]
    fn finishes_after_configured_duration() {
        let (mut sim, topo) = line3();
        let left = topo.nodes_by_name["left"];
        let h = sim.spawn(left, Box::new(RipWatch::new()));
        sim.run_for(SimDuration::from_secs(115));
        assert!(!sim.process_done(h));
        sim.run_for(SimDuration::from_secs(10));
        assert!(sim.process_done(h));
    }
}
