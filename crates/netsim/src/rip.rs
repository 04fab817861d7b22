//! RIP: periodic advertisements, poll replies, and the learned-route
//! list of a promiscuous rebroadcaster.
//!
//! On the idle campus nine frame deliveries in ten are one advertisement
//! arriving at one interface, so a receiver does nothing with a response
//! unless it is such a rebroadcaster (a Table 8 problem RIPwatch flags) —
//! nobody else's learned list is ever read.

use std::rc::Rc;

use bytes::Bytes;
use rand::Rng;

use fremont_net::rip::{split_into_packets, RipEntry, RipPacket, METRIC_INFINITY};
use fremont_net::udp::RIP_PORT;
use fremont_net::{IpProtocol, Ipv4Packet, MacAddr, RipCommand, UdpDatagram};

use crate::engine::{Event, Sim};
use crate::link::FrameRecord;
use crate::node::{Node, NodeKind, RipConfig};
use crate::segment::NodeId;
use crate::time::SimDuration;

/// Cached encoding of one interface's periodic RIP advertisement.
pub(crate) struct RipAdvertTemplate {
    /// Route-state version the template was built from.
    version: u64,
    /// One entry per RIP packet the table splits into: the decoded packet
    /// and its encoded UDP datagram (the IPv4 payload), shared across
    /// ticks.
    packets: Rc<[(Rc<RipPacket>, Bytes)]>,
}

/// The entry a speaker advertises for a route it holds at `metric`.
fn advertised(addr: std::net::Ipv4Addr, metric: u32) -> RipEntry {
    RipEntry {
        addr,
        metric: (metric + 1).min(METRIC_INFINITY),
    }
}

impl Node {
    /// The routing table as RIP entries, minus routes out of `skip_iface`
    /// (split horizon).
    fn route_entries(&self, skip_iface: Option<usize>) -> Vec<RipEntry> {
        self.routes
            .routes()
            .iter()
            .filter(|r| skip_iface != Some(r.iface))
            .map(|r| advertised(r.dest.network(), r.metric))
            .collect()
    }

    /// Min-merges a heard response into `rip_learned`, in arrival order.
    fn learn_rip(&mut self, rip: &RipPacket) {
        let mut changed = false;
        for e in rip.entries.iter().filter(|e| e.metric < METRIC_INFINITY) {
            match self.rip_learned.iter_mut().find(|(a, _)| *a == e.addr) {
                Some((_, m)) if *m <= e.metric => {}
                Some((_, m)) => {
                    *m = e.metric;
                    changed = true;
                }
                None => {
                    self.rip_learned.push((e.addr, e.metric));
                    changed = true;
                }
            }
        }
        if changed {
            self.rip_version += 1;
        }
    }

    /// Forgets all learned routes (the node went down), so a fresh boot
    /// re-learns from scratch.
    pub(crate) fn clear_rip_state(&mut self) {
        self.rip_learned.clear();
        self.rip_version += 1;
    }
}

impl Sim {
    pub(crate) fn handle_rip(
        &mut self,
        node: NodeId,
        iface: usize,
        pkt: &Ipv4Packet,
        dgram: &UdpDatagram,
        rip: &RipPacket,
    ) {
        self.stats.rip_packets += 1;
        let n = &mut self.nodes[node.0];
        match rip.command {
            RipCommand::Response => {
                // Only a rebroadcaster ever reads what it learned.
                if n.behavior.rip.as_ref().is_some_and(|c| c.promiscuous) {
                    n.learn_rip(rip);
                }
            }
            RipCommand::Request => {
                // RFC 1058 §3.4.1: a whole-table request ("RIP Poll") gets
                // the full routing table back, unicast to the requester.
                // Only RIP speakers answer; "not all routers use RIP or
                // respond properly to RIP Request or RIP Poll queries".
                let is_poll = rip.entries.len() == 1
                    && rip.entries[0].addr.is_unspecified()
                    && rip.entries[0].metric >= METRIC_INFINITY;
                if !is_poll || n.behavior.rip.is_none() || n.kind != NodeKind::Router {
                    return;
                }
                for packet in split_into_packets(&n.route_entries(None)) {
                    let reply =
                        UdpDatagram::new(RIP_PORT, dgram.src_port, Bytes::from(packet.encode()));
                    self.reply_from(node, iface, pkt.src, IpProtocol::Udp, reply.encode());
                }
            }
        }
    }

    pub(crate) fn rip_tick(&mut self, node: NodeId) {
        let n = &self.nodes[node.0];
        let Some(cfg) = n.behavior.rip.clone() else {
            return;
        };
        if n.up {
            self.send_rip_advertisements(node, &cfg);
        }
        // Reschedule with small jitter (RFC 1058 recommends it).
        let jitter = SimDuration::from_micros(self.rng.gen_range(0..2_000_000));
        self.schedule(cfg.interval + jitter, Event::RipTick { node });
    }

    fn send_rip_advertisements(&mut self, node: NodeId, cfg: &RipConfig) {
        for ifc in 0..self.nodes[node.0].ifaces.len() {
            // A tick's advertisement content is a pure function of the
            // node's route state: the static table for normal speakers,
            // the learned-route list for promiscuous rebroadcasters.
            // Both carry a monotone version, so the split + UDP encode is
            // cached per interface and only the IP identification (and
            // therefore the frame bytes) is stamped fresh per tick.
            let n = &self.nodes[node.0];
            let version = if cfg.promiscuous {
                n.rip_version
            } else {
                n.routes.version()
            };
            let cached = self.rip_advert_cache.get(&(node.0, ifc));
            let packets = match cached.filter(|t| t.version == version) {
                Some(t) => Rc::clone(&t.packets),
                None => {
                    let entries: Vec<RipEntry> = if cfg.promiscuous {
                        // Everything learned, regardless of origin — the
                        // misbehavior RIPwatch flags.
                        let learned = n.rip_learned.iter();
                        learned.map(|(a, m)| advertised(*a, *m)).collect()
                    } else {
                        n.route_entries(cfg.split_horizon.then_some(ifc))
                    };
                    let packets: Rc<[_]> = split_into_packets(&entries)
                        .into_iter()
                        .map(|p| {
                            let dgram =
                                UdpDatagram::new(RIP_PORT, RIP_PORT, Bytes::from(p.encode()));
                            (Rc::new(p), Bytes::from(dgram.encode()))
                        })
                        .collect();
                    let template = RipAdvertTemplate {
                        version,
                        packets: Rc::clone(&packets),
                    };
                    self.rip_advert_cache.insert((node.0, ifc), template);
                    packets
                }
            };
            let my = &self.nodes[node.0].ifaces[ifc];
            let (src_ip, bcast) = (my.ip, my.subnet().directed_broadcast());
            for (rip, udp_bytes) in packets.iter() {
                let id = self.next_ip_id();
                let out = Ipv4Packet::new(src_ip, bcast, IpProtocol::Udp, udp_bytes.clone())
                    .with_ttl(1)
                    .with_id(id);
                // The decoded packet rides pre-filled on the frame record,
                // so no receiver re-parses the UDP payload.
                let rec = FrameRecord::new(self.ip_frame(node, ifc, MacAddr::BROADCAST, &out));
                let _ = rec.rip.set(Some(Rc::clone(rip)));
                self.transmit_frame_rec(node, ifc, rec);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TopologyBuilder;

    #[test]
    fn only_a_rebroadcaster_keeps_what_it_hears() {
        let mut b = TopologyBuilder::new();
        let a = b.segment("net-a", "10.1.1.0/24");
        let m = b.segment("net-m", "10.1.2.0/24");
        b.host("quiet", a, 10);
        let chatty = b.host("chatty", a, 11);
        b.host_mut(chatty).behavior.rip = Some(RipConfig {
            promiscuous: true,
            split_horizon: false,
            ..Default::default()
        });
        b.router("r1", &[(a, 1), (m, 1)]);
        b.router("r2", &[(m, 2)]);
        let (mut sim, topo) = b.build(7);
        // An hour of 30 s ticks: every node on net-a hears over 100
        // advertisements from r1 (and, once it has learned, from chatty).
        sim.run_for(SimDuration::from_hours(1));
        let adverts = sim.segments[topo.segments[a].0 .0].stats.broadcasts;
        assert!(adverts >= 100, "only {adverts} broadcasts on net-a");
        for silent in ["quiet", "r1", "r2"] {
            let n = &sim.nodes[topo.nodes_by_name[silent].0];
            assert!(n.rip_learned.is_empty(), "{silent} folded what it heard");
            assert_eq!(n.rip_version, 0, "{silent}");
        }
        // The rebroadcaster learned r1's routes once, in arrival order,
        // and hearing them again changed nothing.
        let n = &sim.nodes[topo.nodes_by_name["chatty"].0];
        let learned: Vec<String> = n.rip_learned.iter().map(|(a, _)| a.to_string()).collect();
        assert_eq!(learned, ["10.1.2.0"]);
        assert_eq!(n.rip_version, 1, "repeat advertisements bumped the version");
    }
}
