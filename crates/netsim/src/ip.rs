//! IP: origination, forwarding with TTL and ICMP errors, and local
//! delivery — the ICMP echo/mask services and the UDP port demux. A RIP
//! response broadcast reaches IP input only at the stations its segment's
//! audience walks (rip.rs); the others were counted by the link.

use std::net::Ipv4Addr;
use std::rc::Rc;

use bytes::Bytes;
use rand::Rng;

use fremont_net::icmp::{time_exceeded_for, unreachable_for};
use fremont_net::rip::RipPacket;
use fremont_net::udp::{DNS_PORT, ECHO_PORT, RIP_PORT};
use fremont_net::{IcmpMessage, IpProtocol, Ipv4Packet, MacAddr, UdpDatagram, UnreachableCode};

use crate::engine::{Event, Sim};
use crate::link::FrameRecord;
use crate::node::{NodeKind, TracerouteBug};
use crate::segment::NodeId;
use crate::time::SimDuration;

/// An error sending a packet from a process or the stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SendError {
    /// No route to the destination.
    NoRoute(Ipv4Addr),
    /// Payload exceeds the segment MTU.
    TooBig {
        /// Bytes attempted.
        len: usize,
        /// The MTU that was exceeded.
        mtu: usize,
    },
    /// The node is down.
    NodeDown,
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::NoRoute(d) => write!(f, "no route to {d}"),
            SendError::TooBig { len, mtu } => write!(f, "packet of {len} bytes exceeds MTU {mtu}"),
            SendError::NodeDown => write!(f, "node is down"),
        }
    }
}

impl std::error::Error for SendError {}

impl Sim {
    pub(crate) fn next_ip_id(&mut self) -> u16 {
        self.ip_id = self.ip_id.wrapping_add(1);
        self.ip_id
    }

    /// Sends a stack-originated reply/error packet with a fresh IP id.
    pub(crate) fn send_reply(
        &mut self,
        node: NodeId,
        src_ip: Ipv4Addr,
        dst: Ipv4Addr,
        protocol: IpProtocol,
        payload: Vec<u8>,
        ttl: Option<u8>,
    ) {
        let id = self.next_ip_id();
        let mut pkt = Ipv4Packet::new(src_ip, dst, protocol, Bytes::from(payload)).with_id(id);
        if let Some(t) = ttl {
            pkt.ttl = t;
        }
        let _ = self.node_send_ip(node, pkt);
    }

    /// [`Sim::send_reply`] from `iface`'s own address, at the default TTL.
    pub(crate) fn reply_from(
        &mut self,
        node: NodeId,
        iface: usize,
        dst: Ipv4Addr,
        protocol: IpProtocol,
        payload: Vec<u8>,
    ) {
        let src_ip = self.nodes[node.0].ifaces[iface].ip;
        self.send_reply(node, src_ip, dst, protocol, payload, None);
    }

    /// The "gateway software problem" packet filter: `true` when this node
    /// silently discards UDP to the traceroute port range — applied to
    /// transit and locally-addressed traffic alike.
    pub(crate) fn filters_probe(&self, node: NodeId, dst_port: u16) -> bool {
        self.nodes[node.0].behavior.filter_udp_probes
            && dst_port >= fremont_net::udp::TRACEROUTE_BASE_PORT
    }

    /// Sends an IP packet from a node through its routing table and ARP.
    pub fn node_send_ip(&mut self, node: NodeId, pkt: Ipv4Packet) -> Result<(), SendError> {
        if !self.nodes[node.0].up {
            return Err(SendError::NodeDown);
        }
        self.stats.packets_originated += 1;
        let dst = pkt.dst;

        // Limited broadcast: out of every interface, never routed.
        if dst == Ipv4Addr::BROADCAST {
            let ifaces = self.nodes[node.0].ifaces.len();
            for i in 0..ifaces {
                self.link_broadcast(node, i, pkt.clone());
            }
            return Ok(());
        }

        // Directed broadcast of a *connected* subnet: link broadcast there.
        if let Some(i) = self.connected_broadcast_iface(node, dst) {
            self.link_broadcast(node, i, pkt);
            return Ok(());
        }

        let route = self.nodes[node.0]
            .routes
            .lookup(dst)
            .ok_or(SendError::NoRoute(dst))?;
        let next_hop = route.gateway.unwrap_or(dst);
        self.check_mtu(node, route.iface, &pkt)?;
        self.unicast_output(node, route.iface, next_hop, pkt);
        Ok(())
    }

    fn check_mtu(&self, node: NodeId, iface: usize, pkt: &Ipv4Packet) -> Result<(), SendError> {
        // The simulated-TCP reliable channel is exempt (see DESIGN.md).
        if pkt.protocol == IpProtocol::Tcp {
            return Ok(());
        }
        let seg = self.nodes[node.0].ifaces[iface].segment;
        let mtu = self.segments[seg.0].cfg.mtu;
        let len = fremont_net::ipv4::HEADER_LEN + pkt.payload.len();
        if len > mtu {
            Err(SendError::TooBig { len, mtu })
        } else {
            Ok(())
        }
    }

    /// Interface index whose *connected subnet's* directed broadcast is
    /// `dst`, if any.
    fn connected_broadcast_iface(&self, node: NodeId, dst: Ipv4Addr) -> Option<usize> {
        self.nodes[node.0]
            .ifaces
            .iter()
            .position(|i| i.subnet().directed_broadcast() == dst)
    }

    /// `pkt` framed for `dst_mac`, sourced from one of the node's
    /// interfaces.
    pub(crate) fn ip_frame(
        &self,
        node: NodeId,
        iface: usize,
        dst_mac: MacAddr,
        pkt: Ipv4Packet,
    ) -> FrameRecord {
        FrameRecord::ip(dst_mac, self.nodes[node.0].ifaces[iface].mac, pkt)
    }

    /// Link-broadcasts an IP packet on one interface.
    fn link_broadcast(&mut self, node: NodeId, iface: usize, pkt: Ipv4Packet) {
        let rec = self.ip_frame(node, iface, MacAddr::BROADCAST, pkt);
        self.transmit(node, iface, rec);
    }

    pub(crate) fn handle_ip(
        &mut self,
        node: NodeId,
        iface: usize,
        pkt: &Ipv4Packet,
        rec: &FrameRecord,
    ) {
        self.stats.ip_packets += 1;
        let local = self.nodes[node.0].is_local_dst(pkt.dst, iface);
        if local {
            self.local_input(node, iface, pkt, rec);
        } else if self.nodes[node.0].kind == NodeKind::Router {
            // Forwarding mutates the TTL, so the router works on its own
            // copy (cheap: the payload is refcounted `Bytes`).
            self.forward_ip(node, iface, pkt.clone());
        }
        // Hosts silently discard transit packets.
    }

    fn forward_ip(&mut self, node: NodeId, in_iface: usize, mut pkt: Ipv4Packet) {
        // TTL check.
        if pkt.ttl <= 1 {
            self.stats.icmp_errors += 1;
            let bug = self.nodes[node.0].behavior.traceroute_bug;
            match bug {
                TracerouteBug::SilentDrop => {}
                TracerouteBug::None | TracerouteBug::TtlFromReceived => {
                    let src_ip = self.nodes[node.0].ifaces[in_iface].ip;
                    let msg = time_exceeded_for(&pkt);
                    let reply_ttl = match bug {
                        // The broken implementations reuse the received TTL,
                        // so the error dies unless the prober is adjacent.
                        TracerouteBug::TtlFromReceived => pkt.ttl,
                        _ => fremont_net::ipv4::DEFAULT_TTL,
                    };
                    self.send_reply(
                        node,
                        src_ip,
                        pkt.src,
                        IpProtocol::Icmp,
                        msg.encode(),
                        Some(reply_ttl),
                    );
                }
            }
            return;
        }
        // Probe-filtering gateways drop high-port UDP transit traffic.
        if pkt.protocol == IpProtocol::Udp
            && UdpDatagram::decode(&pkt.payload)
                .map(|d| self.filters_probe(node, d.dst_port))
                .unwrap_or(false)
        {
            return;
        }
        pkt.ttl -= 1;
        self.stats.packets_forwarded += 1;

        // Directed broadcast onto a connected subnet?
        if let Some(out_iface) = self.connected_broadcast_iface(node, pkt.dst) {
            if self.nodes[node.0].behavior.forward_directed_broadcast {
                self.link_broadcast(node, out_iface, pkt);
            }
            return;
        }

        match self.nodes[node.0].routes.lookup(pkt.dst) {
            Some(route) => {
                // No fragmentation is modeled: an oversize packet is
                // dropped at the forwarding hop, like a DF packet without
                // Path-MTU discovery.
                if self.check_mtu(node, route.iface, &pkt).is_err() {
                    return;
                }
                let next_hop = route.gateway.unwrap_or(pkt.dst);
                self.unicast_output(node, route.iface, next_hop, pkt);
            }
            None => {
                self.stats.icmp_errors += 1;
                let msg = unreachable_for(UnreachableCode::Net, &pkt);
                self.reply_from(node, in_iface, pkt.src, IpProtocol::Icmp, msg.encode());
            }
        }
    }

    fn local_input(&mut self, node: NodeId, iface: usize, pkt: &Ipv4Packet, rec: &FrameRecord) {
        // Raw-socket view: every locally-delivered packet reaches processes.
        self.deliver_ip_to_procs(node, pkt);

        let is_broadcast = self.nodes[node.0].dst_is_broadcast(pkt.dst, iface);
        match pkt.protocol {
            IpProtocol::Icmp => {
                if let Ok(msg) = IcmpMessage::decode(&pkt.payload) {
                    self.handle_icmp(node, iface, pkt, msg, is_broadcast);
                }
            }
            IpProtocol::Udp => {
                let dgram = rec
                    .udp
                    .get_or_init(|| UdpDatagram::decode(&pkt.payload).ok());
                if let Some(dgram) = dgram {
                    self.handle_udp(node, iface, pkt, dgram, rec, is_broadcast);
                }
            }
            IpProtocol::Tcp => {
                // Reliable-channel stand-in, used only for DNS AXFR.
                self.handle_dns_tcp(node, pkt);
            }
            IpProtocol::Other(_) => {}
        }
    }

    fn handle_icmp(
        &mut self,
        node: NodeId,
        iface: usize,
        pkt: &Ipv4Packet,
        msg: IcmpMessage,
        is_broadcast: bool,
    ) {
        match msg {
            IcmpMessage::EchoRequest {
                ident,
                seq,
                payload,
            } => {
                let b = &self.nodes[node.0].behavior;
                if !b.echo_reply || (is_broadcast && !b.broadcast_echo_reply) {
                    return;
                }
                let reply = IcmpMessage::EchoReply {
                    ident,
                    seq,
                    payload,
                };
                let src_ip = self.nodes[node.0].ifaces[iface].ip;
                let id = self.next_ip_id();
                let out = Ipv4Packet::new(
                    src_ip,
                    pkt.src,
                    IpProtocol::Icmp,
                    Bytes::from(reply.encode()),
                )
                .with_id(id);
                if is_broadcast {
                    // Replies to a broadcast ping bunch up within a short
                    // window — the collision-loss mechanism of Table 5. The
                    // spread reflects 1993-era interrupt/processing skew.
                    let delay = SimDuration::from_micros(self.rng.gen_range(0..30_000));
                    self.schedule(delay, Event::DelayedSend { node, pkt: out });
                } else {
                    let _ = self.node_send_ip(node, out);
                }
            }
            IcmpMessage::MaskRequest { ident, seq } => {
                if !self.nodes[node.0].behavior.mask_reply || is_broadcast {
                    return;
                }
                let mask = self.nodes[node.0].ifaces[iface].mask.as_addr();
                let reply = IcmpMessage::MaskReply { ident, seq, mask };
                self.reply_from(node, iface, pkt.src, IpProtocol::Icmp, reply.encode());
            }
            // Replies and errors are consumed by processes (already
            // delivered via the raw view).
            _ => {}
        }
    }

    fn handle_udp(
        &mut self,
        node: NodeId,
        iface: usize,
        pkt: &Ipv4Packet,
        dgram: &UdpDatagram,
        rec: &FrameRecord,
        is_broadcast: bool,
    ) {
        match dgram.dst_port {
            ECHO_PORT => {
                if self.nodes[node.0].behavior.udp_echo && !is_broadcast {
                    let reply = dgram.echo_reply().encode();
                    self.reply_from(node, iface, pkt.src, IpProtocol::Udp, reply);
                }
            }
            RIP_PORT => {
                let rip = rec
                    .rip
                    .get_or_init(|| RipPacket::decode(&dgram.payload).ok().map(Rc::new));
                if let Some(rip) = rip {
                    self.handle_rip(node, iface, pkt, dgram, rip);
                }
            }
            DNS_PORT => self.handle_dns_udp(node, iface, pkt, dgram),
            _ => {
                // A probe-filtering gateway discards high-port UDP junk
                // inbound as well as in transit: no error, no reply. This
                // is what hides whole subnets from traceroute in Table 6.
                if self.filters_probe(node, dgram.dst_port) {
                    return;
                }
                // Closed port: Port Unreachable (traceroute's arrival
                // signal). Processes receive every packet anyway and
                // claim no ports, so every remaining port is closed.
                if self.nodes[node.0].behavior.port_unreachable && !is_broadcast {
                    self.stats.icmp_errors += 1;
                    let msg = unreachable_for(UnreachableCode::Port, pkt);
                    self.reply_from(node, iface, pkt.src, IpProtocol::Icmp, msg.encode());
                }
            }
        }
    }
}
