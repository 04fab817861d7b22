//! The RIP Probe Explorer Module — the paper's future-work extension.
//!
//! "Beyond monitoring RIP advertisements, we plan to use directed probes
//! to discover routing information, via the RIP Request and RIP Poll
//! queries. The major advantage of doing so is that these requests and
//! replies can be routed through a network, thus providing access to
//! routing information on subnets other than just the local subnet. A
//! problem, however, is that not all routers use RIP or respond properly
//! to RIP Request or RIP Poll queries."
//!
//! The module sends a RIP Poll (whole-table request) to each candidate
//! gateway address — which can be many hops away — and classifies the
//! routes in the unicast replies exactly as RIPwatch classifies broadcast
//! advertisements.

use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;

use bytes::Bytes;
use fremont_journal::observation::{Fact, Observation, Source};
use fremont_net::rip::{classify_route, RipCommand, RipPacket, RouteKind};
use fremont_net::udp::RIP_PORT;
use fremont_net::{IpProtocol, Ipv4Packet, Subnet, UdpDatagram};
use fremont_netsim::engine::ProcCtx;
use fremont_netsim::process::Process;
use fremont_netsim::time::SimDuration;

/// Gap between polls.
const INTERVAL: SimDuration = SimDuration::from_secs(2);
/// How long to wait for stragglers after the last poll.
const DRAIN: SimDuration = SimDuration::from_secs(10);
/// Source port identifying this module's replies.
const SRC_PORT: u16 = 2520;

/// The directed RIP prober.
pub struct RipProbe {
    targets: Vec<Ipv4Addr>,
    next: usize,
    /// Routes learned per responding gateway.
    responders: HashMap<Ipv4Addr, Vec<(Ipv4Addr, u32)>>,
    emitted_subnets: HashSet<Subnet>,
    local: Option<Subnet>,
    finished: bool,
}

const TIMER_NEXT: u64 = 1;
const TIMER_DRAIN: u64 = 2;

impl RipProbe {
    /// Creates the module over its input: candidate gateway addresses
    /// (from the Journal: RIP sources and traceroute hops).
    pub fn new(targets: Vec<Ipv4Addr>) -> Self {
        RipProbe {
            targets,
            next: 0,
            responders: HashMap::new(),
            emitted_subnets: HashSet::new(),
            local: None,
            finished: false,
        }
    }
}

impl Process for RipProbe {
    fn on_start(&mut self, ctx: &mut ProcCtx<'_>) {
        self.local = Some(ctx.primary_iface().subnet());
        ctx.set_timer(SimDuration::ZERO, TIMER_NEXT);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut ProcCtx<'_>) {
        match token {
            TIMER_NEXT => {
                if self.next >= self.targets.len() {
                    ctx.set_timer(DRAIN, TIMER_DRAIN);
                    return;
                }
                let target = self.targets[self.next];
                self.next += 1;
                let poll = RipPacket::poll_request();
                // A poll the stack refuses (host down, no route) never
                // left: `ProcStats` counts it, and the next one goes now.
                let pace =
                    match ctx.send_udp(target, SRC_PORT, RIP_PORT, Bytes::from(poll.encode())) {
                        Ok(()) => INTERVAL,
                        Err(_) => SimDuration::ZERO,
                    };
                ctx.set_timer(pace, TIMER_NEXT);
            }
            TIMER_DRAIN => self.finished = true,
            _ => {}
        }
    }

    fn on_ip(&mut self, pkt: &Ipv4Packet, ctx: &mut ProcCtx<'_>) {
        if self.finished || pkt.protocol != IpProtocol::Udp {
            return;
        }
        let Ok(dgram) = UdpDatagram::decode(&pkt.payload) else {
            return;
        };
        // Replies come back unicast to our poll's source port.
        if dgram.dst_port != SRC_PORT || dgram.src_port != RIP_PORT {
            return;
        }
        let Ok(rip) = RipPacket::decode(&dgram.payload) else {
            return;
        };
        if rip.command != RipCommand::Response {
            return;
        }
        let Some(local) = self.local else {
            return; // No reply can precede on_start setting this.
        };
        let routes = self.responders.entry(pkt.src).or_insert_with(|| {
            // First reply from this gateway: it is a live router interface.
            Vec::new()
        });
        let newly = routes.is_empty();
        for e in &rip.entries {
            if e.metric >= fremont_net::rip::METRIC_INFINITY {
                continue;
            }
            if !routes.iter().any(|(a, _)| *a == e.addr) {
                routes.push((e.addr, e.metric));
            }
        }
        if newly {
            ctx.emit(Observation::new(
                Source::RipWatch,
                Fact::RipSource {
                    ip: pkt.src,
                    mac: None,
                    advertised_routes: rip.entries.len() as u32,
                    promiscuous: false,
                },
            ));
        }
        // Classify and emit the learned destinations, like RIPwatch.
        for e in &rip.entries {
            if e.metric >= fremont_net::rip::METRIC_INFINITY {
                continue;
            }
            match classify_route(e.addr, local) {
                RouteKind::SubnetRoute(s) | RouteKind::Network(s) => {
                    if self.emitted_subnets.insert(s) {
                        ctx.emit(Observation::subnet(Source::RipWatch, s, true));
                    }
                }
                RouteKind::Host(h) => {
                    ctx.emit(Observation::ip_alive(Source::RipWatch, h));
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
    use crate::testutil::{line3, subnets};

    /// The RIP sources `obs` reports: the gateways that answered a poll.
    fn responders(obs: &[Observation]) -> Vec<Ipv4Addr> {
        obs.iter()
            .filter_map(|o| match o.fact {
                Fact::RipSource { ip, .. } => Some(ip),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn polls_remote_router_through_the_network() {
        let (mut sim, topo) = line3();
        let left = topo.nodes_by_name["left"];
        // Poll r2's FAR interface (10.1.2.2) — two hops away, reachable
        // only because RIP requests route (unlike broadcasts).
        let h = sim.spawn(
            left,
            Box::new(RipProbe::new(vec!["10.1.2.2".parse().unwrap()])),
        );
        sim.run_for(SimDuration::from_mins(2));
        assert!(sim.process_done(h));
        let obs = sim.drain_observations_of(h);
        assert_eq!(
            responders(&obs),
            ["10.1.2.2".parse::<Ipv4Addr>().unwrap()],
            "remote router answered the poll"
        );
        // r2 knows all three subnets; the prober learns them all, including
        // 10.1.3/24 which local RIPwatch could also hear, AND the full set
        // from a single poll.
        let learned = subnets(&obs);
        assert!(
            learned.contains(&"10.1.1.0/24".parse().unwrap()),
            "{learned:?}"
        );
        assert!(
            learned.contains(&"10.1.2.0/24".parse().unwrap()),
            "{learned:?}"
        );
        assert!(
            learned.contains(&"10.1.3.0/24".parse().unwrap()),
            "{learned:?}"
        );
    }

    #[test]
    fn non_rip_hosts_do_not_answer() {
        let (mut sim, topo) = line3();
        let left = topo.nodes_by_name["left"];
        // Poll the plain host "right": hosts don't speak RIP.
        let h = sim.spawn(
            left,
            Box::new(RipProbe::new(vec!["10.1.3.10".parse().unwrap()])),
        );
        sim.run_for(SimDuration::from_mins(2));
        assert!(sim.process_done(h));
        assert!(sim.drain_observations_of(h).is_empty());
    }

    #[test]
    fn silent_routers_are_tolerated() {
        let (mut sim, topo) = line3();
        // r1 stops speaking RIP ("not all routers use RIP").
        let r1 = topo.nodes_by_name["r1"];
        sim.nodes[r1.0].behavior.rip = None;
        let left = topo.nodes_by_name["left"];
        let h = sim.spawn(
            left,
            Box::new(RipProbe::new(vec![
                "10.1.1.1".parse().unwrap(),
                "10.1.2.2".parse().unwrap(),
            ])),
        );
        sim.run_for(SimDuration::from_mins(2));
        assert!(sim.process_done(h));
        assert_eq!(
            responders(&sim.drain_observations_of(h)),
            ["10.1.2.2".parse::<Ipv4Addr>().unwrap()],
            "only r2 answers"
        );
    }

    #[test]
    fn observations_feed_the_journal_vocabulary() {
        let (mut sim, topo) = line3();
        let left = topo.nodes_by_name["left"];
        let h = sim.spawn(
            left,
            Box::new(RipProbe::new(vec!["10.1.1.1".parse().unwrap()])),
        );
        sim.run_for(SimDuration::from_mins(2));
        let obs = sim.drain_observations_of(h);
        assert!(!responders(&obs).is_empty());
        assert!(!subnets(&obs).is_empty());
    }
}
