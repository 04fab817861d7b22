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

/// Largest IP packet a segment carries (Ethernet).
const MTU: usize = 1500;

fn check_mtu(pkt: &Ipv4Packet) -> Result<(), SendError> {
    // The simulated-TCP reliable channel is exempt (see DESIGN.md).
    if pkt.protocol == IpProtocol::Tcp {
        return Ok(());
    }
    let len = fremont_net::ipv4::HEADER_LEN + pkt.payload.len();
    if len > MTU {
        Err(SendError::TooBig { len, mtu: MTU })
    } else {
        Ok(())
    }
}

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
    ) {
        let id = self.next_ip_id();
        let pkt = Ipv4Packet::new(src_ip, dst, protocol, Bytes::from(payload)).with_id(id);
        self.send_best_effort(node, pkt);
    }

    /// Sends a packet the stack originates on its own account — a reply,
    /// a delayed broadcast-ping reply, background traffic. Nothing waits
    /// on it, so a packet the node cannot send is lost, as on a real host.
    pub(crate) fn send_best_effort(&mut self, node: NodeId, pkt: Ipv4Packet) {
        #[expect(
            clippy::let_underscore_must_use,
            reason = "no process waits on the stack's own replies and background traffic: \
                      a down node or a missing route loses the packet, as on the wire"
        )]
        let _ = self.node_send_ip(node, pkt);
    }

    /// [`Sim::send_reply`] from `iface`'s own address.
    pub(crate) fn reply_from(
        &mut self,
        node: NodeId,
        iface: usize,
        dst: Ipv4Addr,
        protocol: IpProtocol,
        payload: Vec<u8>,
    ) {
        let src_ip = self.nodes[node.0].ifaces[iface].ip;
        self.send_reply(node, src_ip, dst, protocol, payload);
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
        check_mtu(&pkt)?;
        self.unicast_output(node, route.iface, next_hop, pkt);
        Ok(())
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
            if self.nodes[node.0].behavior.traceroute_bug == TracerouteBug::None {
                let msg = time_exceeded_for(&pkt);
                self.reply_from(node, in_iface, pkt.src, IpProtocol::Icmp, msg.encode());
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
                if check_mtu(&pkt).is_err() {
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
                if !self.nodes[node.0].behavior.echo_reply {
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
                    self.send_best_effort(node, out);
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
                if !is_broadcast {
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
                if !is_broadcast {
                    self.stats.icmp_errors += 1;
                    let msg = unreachable_for(UnreachableCode::Port, pkt);
                    self.reply_from(node, iface, pkt.src, IpProtocol::Icmp, msg.encode());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::net::Ipv4Addr;

    use bytes::Bytes;
    use fremont_net::rip::{RipCommand, RipPacket};
    use fremont_net::udp::{ECHO_PORT, RIP_PORT};
    use fremont_net::{IcmpMessage, Ipv4Packet, UdpDatagram, UnreachableCode};

    use crate::builder::TopologyBuilder;
    use crate::node::RipConfig;
    use crate::process::{ProcCtx, Process};
    use crate::time::SimDuration;

    const CLOSED_PORT: u16 = 4000;
    const IDENT: u16 = 77;

    /// Keeps every packet its host's raw IP view hands it and, given a
    /// target, probes it and its subnet's broadcast address one second
    /// apart: UDP echo, a closed UDP port, the same port broadcast, and
    /// a broadcast ICMP echo.
    #[derive(Default)]
    struct Prober {
        target: Option<(Ipv4Addr, Ipv4Addr)>,
        heard: Vec<Ipv4Packet>,
    }

    impl Process for Prober {
        fn on_start(&mut self, ctx: &mut ProcCtx<'_>) {
            if self.target.is_some() {
                for token in 1..=4 {
                    ctx.set_timer(SimDuration::from_secs(token), token);
                }
            }
        }

        fn on_timer(&mut self, token: u64, ctx: &mut ProcCtx<'_>) {
            let Some((target, bcast)) = self.target else {
                return;
            };
            let payload = Bytes::from_static(b"ping");
            let sent = match token {
                1 => ctx.send_udp(target, 1111, ECHO_PORT, payload),
                2 => ctx.send_udp(target, 1111, CLOSED_PORT, payload),
                3 => ctx.send_udp(bcast, 1111, CLOSED_PORT, payload),
                _ => {
                    let ping = IcmpMessage::EchoRequest {
                        ident: IDENT,
                        seq: 1,
                        payload: payload.to_vec(),
                    };
                    ctx.send_icmp(bcast, &ping)
                }
            };
            assert_eq!(sent, Ok(()), "probe {token}");
        }

        fn on_ip(&mut self, pkt: &Ipv4Packet, _ctx: &mut ProcCtx<'_>) {
            self.heard.push(pkt.clone());
        }
    }

    fn udp(pkt: &Ipv4Packet) -> Option<UdpDatagram> {
        UdpDatagram::decode(&pkt.payload).ok()
    }

    fn rip_response(pkt: &Ipv4Packet) -> Option<RipPacket> {
        let dgram = udp(pkt).filter(|d| d.dst_port == RIP_PORT)?;
        RipPacket::decode(&dgram.payload)
            .ok()
            .filter(|r| r.command == RipCommand::Response)
    }

    #[test]
    fn every_stack_echoes_reports_closed_ports_and_splits_its_horizon() {
        let mut b = TopologyBuilder::new();
        let a = b.segment("net-a", "10.1.1.0/24");
        let m = b.segment("net-m", "10.1.2.0/24");
        let far = b.segment("net-b", "10.1.3.0/24");
        b.host("prober", a, 10);
        b.host("target", a, 11);
        let chatty = b.host("chatty", a, 12);
        b.host_mut(chatty)
            .behavior
            .rip
            .insert(RipConfig::default())
            .promiscuous = true;
        b.host("listener", m, 10);
        b.router("r1", &[(a, 1), (m, 1)]);
        b.router("r2", &[(m, 2), (far, 1)]);
        let (mut sim, topo) = b.build(7);
        let node = |name: &str| topo.nodes_by_name[name];
        let target: Ipv4Addr = "10.1.1.11".parse().expect("literal");
        let bcast: Ipv4Addr = "10.1.1.255".parse().expect("literal");
        let prober = Prober {
            target: Some((target, bcast)),
            ..Prober::default()
        };
        let on_a = sim.spawn(node("prober"), Box::new(prober));
        let on_m = sim.spawn(node("listener"), Box::<Prober>::default());
        sim.run_for(SimDuration::from_mins(3));

        let heard = std::mem::take(&mut sim.process_mut::<Prober>(on_a).expect("alive").heard);
        // Unicast UDP to port 7 comes back from port 7, payload intact.
        assert!(heard.iter().any(|p| p.src == target
            && udp(p).is_some_and(|d| d.src_port == ECHO_PORT
                && d.dst_port == 1111
                && &d.payload[..] == b"ping")));
        // One Port Unreachable, from the unicast probe's target: the
        // broadcast to the same closed port draws nothing from anyone.
        let unreachable: Vec<Ipv4Addr> = heard
            .iter()
            .filter(|p| {
                matches!(
                    IcmpMessage::decode(&p.payload),
                    Ok(IcmpMessage::DestinationUnreachable {
                        code: UnreachableCode::Port,
                        ..
                    })
                )
            })
            .map(|p| p.src)
            .collect();
        assert_eq!(unreachable, [target]);
        // A broadcast ICMP echo is answered.
        assert!(heard.iter().any(|p| p.src == target
            && matches!(
                IcmpMessage::decode(&p.payload),
                Ok(IcmpMessage::EchoReply { ident: IDENT, .. })
            )));

        // A router advertises on each interface no route that leaves by
        // that interface.
        let listened = std::mem::take(&mut sim.process_mut::<Prober>(on_m).expect("alive").heard);
        let mut checked = 0;
        for pkt in heard.iter().chain(&listened) {
            let Some(rip) = rip_response(pkt) else {
                continue;
            };
            let Some(&speaker) = topo.interfaces.iter().find(|(ip, _)| *ip == pkt.src) else {
                continue;
            };
            let n = &sim.nodes[speaker.1 .0];
            let Some(out) = n.iface_with_ip(pkt.src) else {
                continue;
            };
            if n.behavior.rip.as_ref().is_some_and(|c| c.promiscuous) {
                continue;
            }
            for e in &rip.entries {
                let route = n.routes.lookup(e.addr).expect("advertised route");
                assert_ne!(
                    route.iface, out,
                    "{} advertised {} back out",
                    n.name, e.addr
                );
                checked += 1;
            }
        }
        assert!(checked >= 8, "only {checked} router entries heard");

        // The rebroadcaster re-advertises everything it learned, the
        // routes it heard on its one interface included.
        let learned: Vec<Ipv4Addr> = sim.nodes[node("chatty").0]
            .rip_learned
            .iter()
            .map(|(addr, _)| *addr)
            .collect();
        assert!(learned.contains(&"10.1.2.0".parse().expect("literal")));
        let chatty_ip: Ipv4Addr = "10.1.1.12".parse().expect("literal");
        let last = heard
            .iter()
            .rev()
            .filter(|p| p.src == chatty_ip)
            .find_map(rip_response)
            .expect("chatty advertised");
        let readvertised: Vec<Ipv4Addr> = last.entries.iter().map(|e| e.addr).collect();
        assert_eq!(readvertised, learned);
    }
}
