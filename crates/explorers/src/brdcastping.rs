//! The Broadcast Ping Explorer Module.
//!
//! "This module sends an ICMP Echo Request to the broadcast address of the
//! subnet being probed. These directed broadcasts tend to be less
//! successful than sequential pings on a subnet with many hosts, because
//! closely spaced replies can cause many collisions. However, if used
//! carefully, broadcast ping can be an effective interface discovery tool
//! for large subnets ... the broadcast ping Explorer Module sends packets
//! with minimal time-to-live values (determined dynamically, in a fashion
//! similar to the sequential increase mechanism used by traceroute)."

use std::collections::HashSet;
use std::net::Ipv4Addr;

use fremont_journal::observation::{Observation, Source};
use fremont_net::{IcmpMessage, IpProtocol, Ipv4Packet, Subnet};
use fremont_netsim::engine::ProcCtx;
use fremont_netsim::process::Process;
use fremont_netsim::time::SimDuration;

/// Listening window per subnet: the module "completes in 20 seconds on a
/// directly attached network".
const WINDOW: SimDuration = SimDuration::from_secs(20);
/// Highest TTL tried during the minimal-TTL search.
const MAX_TTL: u8 = 8;
/// ICMP identifier marking this module's echoes.
const IDENT: u16 = 0xBCA5;

/// Module state.
pub struct BrdcastPing {
    subnets: Vec<Subnet>,
    current: usize,
    ttl: u8,
    responders: HashSet<Ipv4Addr>,
    got_reply_this_subnet: bool,
    finished: bool,
}

const TIMER_TTL_STEP: u64 = 1;
const TIMER_SUBNET_DONE: u64 = 2;

impl BrdcastPing {
    /// Creates the module over its Table 3 input, the subnets to probe
    /// in order.
    pub fn new(subnets: Vec<Subnet>) -> Self {
        BrdcastPing {
            subnets,
            current: 0,
            ttl: 1,
            responders: HashSet::new(),
            got_reply_this_subnet: false,
            finished: false,
        }
    }

    fn current_subnet(&self) -> Option<Subnet> {
        self.subnets.get(self.current).copied()
    }

    fn probe(&mut self, ctx: &mut ProcCtx<'_>) {
        let Some(subnet) = self.current_subnet() else {
            self.finished = true;
            return;
        };
        let msg = IcmpMessage::EchoRequest {
            ident: IDENT,
            seq: u16::from(self.ttl),
            payload: vec![0u8; 8],
        };
        // Minimal TTL: start at 1 and climb only until replies arrive —
        // a low TTL bounds the damage if a broadcast storm starts.
        let sent = ctx.send_ip(
            subnet.directed_broadcast(),
            IpProtocol::Icmp,
            bytes::Bytes::from(msg.encode()),
            Some(self.ttl),
            None,
        );
        match sent {
            Ok(()) => ctx.set_timer(SimDuration::from_secs(2), TIMER_TTL_STEP),
            // The stack refused the probe (host down, no route), and a
            // higher TTL would not change that: `ProcStats` counts it, and
            // the subnet is done now.
            Err(_) => ctx.set_timer(SimDuration::ZERO, TIMER_SUBNET_DONE),
        }
    }

    fn finish_subnet(&mut self, ctx: &mut ProcCtx<'_>) {
        if let Some(subnet) = self.current_subnet() {
            if self.responders.iter().any(|ip| subnet.contains(*ip)) {
                ctx.emit(Observation::subnet(Source::BrdcastPing, subnet, false));
            }
        }
        self.current += 1;
        self.ttl = 1;
        self.got_reply_this_subnet = false;
        if self.current >= self.subnets.len() {
            self.finished = true;
        } else {
            self.probe(ctx);
        }
    }
}

impl Process for BrdcastPing {
    fn on_start(&mut self, ctx: &mut ProcCtx<'_>) {
        self.probe(ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut ProcCtx<'_>) {
        if self.finished {
            return;
        }
        match token {
            TIMER_TTL_STEP => {
                if self.got_reply_this_subnet {
                    // Minimal TTL found; just let the window run out.
                    ctx.set_timer(WINDOW, TIMER_SUBNET_DONE);
                } else if self.ttl >= MAX_TTL {
                    // Nothing reachable (e.g. gateways refuse directed
                    // broadcasts): give up on this subnet.
                    self.finish_subnet(ctx);
                } else {
                    self.ttl += 1;
                    self.probe(ctx);
                }
            }
            TIMER_SUBNET_DONE => self.finish_subnet(ctx),
            _ => {}
        }
    }

    fn on_ip(&mut self, pkt: &Ipv4Packet, ctx: &mut ProcCtx<'_>) {
        if pkt.protocol != IpProtocol::Icmp {
            return;
        }
        let Ok(IcmpMessage::EchoReply { ident, .. }) = IcmpMessage::decode(&pkt.payload) else {
            return;
        };
        if ident != IDENT {
            return;
        }
        let Some(subnet) = self.current_subnet() else {
            return;
        };
        if subnet.contains(pkt.src) {
            self.got_reply_this_subnet = true;
            if self.responders.insert(pkt.src) {
                ctx.emit(Observation::ip_alive(Source::BrdcastPing, pkt.src));
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
    use crate::testutil::{interface_ips, lan, line3, subnets};

    #[test]
    fn local_subnet_discovered_in_one_window() {
        let (mut sim, topo) = lan(6);
        let h = sim.spawn(
            topo.hosts[0],
            Box::new(BrdcastPing::new(vec!["10.7.7.0/24".parse().unwrap()])),
        );
        sim.run_for(SimDuration::from_secs(60));
        assert!(sim.process_done(h));
        let obs = sim.drain_observations_of(h);
        // 5 other hosts + gateway; small bursts rarely collide.
        let n = interface_ips(&obs).len();
        assert!((5..=6).contains(&n), "responders: {obs:?}");
        assert_eq!(subnets(&obs), ["10.7.7.0/24".parse().unwrap()]);
    }

    #[test]
    fn remote_subnet_blocked_by_default_gateway_policy() {
        // Routers default to NOT forwarding directed broadcasts.
        let (mut sim, topo) = line3();
        let left = topo.nodes_by_name["left"];
        let h = sim.spawn(
            left,
            Box::new(BrdcastPing::new(vec!["10.1.3.0/24".parse().unwrap()])),
        );
        sim.run_for(SimDuration::from_mins(2));
        assert!(sim.process_done(h));
        assert!(
            sim.drain_observations_of(h).is_empty(),
            "directed broadcast blocked"
        );
    }

    #[test]
    fn remote_subnet_works_when_routers_forward() {
        let (mut sim, topo) = line3();
        for r in &topo.routers {
            sim.nodes[r.0].behavior.forward_directed_broadcast = true;
        }
        let left = topo.nodes_by_name["left"];
        let h = sim.spawn(
            left,
            Box::new(BrdcastPing::new(vec!["10.1.3.0/24".parse().unwrap()])),
        );
        sim.run_for(SimDuration::from_mins(3));
        assert!(sim.process_done(h));
        // "right" (10.1.3.10) and r2's interface (10.1.3.1) respond.
        let responders = interface_ips(&sim.drain_observations_of(h));
        assert!(
            !responders.is_empty(),
            "directed broadcast should reach the remote subnet"
        );
        assert!(responders
            .iter()
            .all(|ip| "10.1.3.0/24".parse::<Subnet>().unwrap().contains(*ip)));
    }

    #[test]
    fn heavily_populated_subnet_loses_replies_to_collisions() {
        // 120 hosts on one segment: the reply burst must collide.
        let mut b = fremont_netsim::builder::TopologyBuilder::new();
        let seg = b.segment("big", "10.9.9.0/24");
        for i in 0..120 {
            b.host(&format!("h{i}"), seg, 10 + i);
        }
        let (mut sim, topo) = b.build(3);
        let h = sim.spawn(
            topo.hosts[0],
            Box::new(BrdcastPing::new(vec!["10.9.9.0/24".parse().unwrap()])),
        );
        sim.run_for(SimDuration::from_mins(2));
        let n = interface_ips(&sim.drain_observations_of(h)).len();
        assert!(
            n < 110,
            "a 119-responder burst must lose many replies, got {n}"
        );
        assert!(n >= 15, "but a good number should get through, got {n}");
    }
}
