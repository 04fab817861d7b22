//! Link layer: frames in flight on a shared segment.
//!
//! A segment is a broadcast medium, so a transmission is **one** event:
//! the frame rolls the segment's loss/collision dice once, draws one
//! wire delay, and is scheduled once, owning its [`FrameRecord`]. Who
//! hears it is decided when it arrives ([`Sim::deliver`]): every attached
//! interface whose MAC matches (all of them for a broadcast) except the
//! sender's, in attachment order, then the segment's taps. A station
//! that is down at that instant hears nothing; one that came up, or a
//! tap enabled while the frame was in flight, does. For a broadcast the
//! link asks the segment's audience first (`rip.rs`): stations that would
//! only count the frame are counted there in one step, and only the rest
//! are walked. The link does not know what makes a station quiet.
//!
//! The wire's bookkeeping for a frame leaving a station — the up check,
//! a cut wire, the loss roll, the segment's counters and the jitter draw
//! — is one function, [`Sim::put_on_wire`]. [`Sim::transmit`] schedules
//! what survives it; `rip.rs` calls it directly for an advertisement it
//! has already decided only counters will hear, and builds no frame.
//!
//! A record holds the ARP or IPv4 packet its sender built, not its bytes:
//! receivers read that packet (`decode(encode(p)) == p` for every packet
//! the stack builds), and the Ethernet bytes exist only once a tap reads
//! the frame.

use std::cell::OnceCell;
use std::rc::Rc;

use bytes::Bytes;
use rand::Rng;

use fremont_net::rip::RipPacket;
use fremont_net::{arp, ethernet, ipv4};
use fremont_net::{ArpPacket, EtherType, EthernetFrame, Ipv4Packet, MacAddr, UdpDatagram};

use crate::engine::{Event, Sim};
use crate::process::ProcHandle;
use crate::segment::{NodeId, SegmentId};
use crate::time::SimDuration;

/// The packet inside a frame, as its sender built it.
pub(crate) enum Packet {
    Arp(ArpPacket),
    Ipv4(Ipv4Packet),
}

/// One frame in flight on a segment, owned by its single delivery event
/// and lent to every receiver in turn. The cells are filled lazily, at
/// most once per frame — a broadcast RIP advertisement heard by six
/// interfaces has its UDP datagram parsed once, not six times.
pub(crate) struct FrameRecord {
    dst: MacAddr,
    src: MacAddr,
    packet: Packet,
    frame: OnceCell<EthernetFrame>,
    pub(crate) udp: OnceCell<Option<UdpDatagram>>,
    pub(crate) rip: OnceCell<Option<Rc<RipPacket>>>,
}

impl FrameRecord {
    fn new(dst: MacAddr, src: MacAddr, packet: Packet) -> Self {
        FrameRecord {
            dst,
            src,
            packet,
            frame: OnceCell::new(),
            udp: OnceCell::new(),
            rip: OnceCell::new(),
        }
    }

    pub(crate) fn arp(dst: MacAddr, src: MacAddr, arp: ArpPacket) -> Self {
        Self::new(dst, src, Packet::Arp(arp))
    }

    pub(crate) fn ip(dst: MacAddr, src: MacAddr, pkt: Ipv4Packet) -> Self {
        Self::new(dst, src, Packet::Ipv4(pkt))
    }

    /// The Ethernet frame as a tap reads it, encoded on first call.
    pub(crate) fn frame(&self) -> &EthernetFrame {
        self.frame.get_or_init(|| {
            let (ethertype, payload) = match &self.packet {
                Packet::Arp(arp) => (EtherType::Arp, arp.encode()),
                Packet::Ipv4(pkt) => (EtherType::Ipv4, pkt.encode()),
            };
            EthernetFrame::new(self.dst, self.src, ethertype, Bytes::from(payload))
        })
    }

    /// The IPv4 packet of a link-layer broadcast; `None` for a unicast
    /// or ARP frame.
    pub(crate) fn broadcast_ipv4(&self) -> Option<&Ipv4Packet> {
        match &self.packet {
            Packet::Ipv4(pkt) if self.dst.is_broadcast() => Some(pkt),
            _ => None,
        }
    }

    /// Length of the encoded frame, padding included, without encoding it.
    pub(crate) fn wire_len(&self) -> usize {
        wire_len(match &self.packet {
            Packet::Arp(_) => arp::PACKET_LEN,
            Packet::Ipv4(pkt) => ipv4::HEADER_LEN + pkt.payload.len(),
        })
    }
}

/// Length of an Ethernet frame carrying `body` bytes, padding included.
pub(crate) fn wire_len(body: usize) -> usize {
    ethernet::HEADER_LEN + body.max(ethernet::MIN_PAYLOAD)
}

impl Sim {
    /// Puts a frame on a node's segment: one delivery event for the
    /// whole segment, however many stations will hear it.
    pub(crate) fn transmit(&mut self, node: NodeId, iface: usize, rec: FrameRecord) {
        let is_arp = matches!(rec.packet, Packet::Arp(_));
        let (len, broadcast) = (rec.wire_len(), rec.dst.is_broadcast());
        if let Some(delay) = self.put_on_wire(node, iface, len, broadcast, is_arp) {
            let seg = self.nodes[node.0].ifaces[iface].segment;
            let (from, frame) = ((node, iface), rec);
            self.schedule(delay, Event::FrameRx { seg, from, frame });
        }
    }

    /// The wire's bookkeeping for a frame of `len` bytes leaving `node`
    /// on `iface`: the up check, a cut wire, the collision window and
    /// loss roll, the segment's counters and the frame's one jitter draw
    /// (none on a jitter-free segment). Returns the delay to its arrival
    /// when the frame survives; the caller decides what arrives.
    pub(crate) fn put_on_wire(
        &mut self,
        node: NodeId,
        iface: usize,
        len: usize,
        broadcast: bool,
        is_arp: bool,
    ) -> Option<SimDuration> {
        if !self.nodes[node.0].up {
            return None;
        }
        let seg_id = self.nodes[node.0].ifaces[iface].segment;
        let now = self.now();
        let seg = &mut self.segments[seg_id.0];
        // A partitioned (cut) wire swallows every frame before any loss
        // roll, so no RNG is consumed for it.
        if seg.partitioned {
            seg.stats.record_loss();
            self.fault_stats.frames_dropped += 1;
            return None;
        }
        let loss = seg.loss_probability(now);
        if loss > 0.0 && self.rng.gen::<f64>() < loss {
            seg.stats.record_loss();
            return None;
        }
        seg.stats.record_frame(now, len, broadcast, is_arp);

        let latency = seg.cfg.latency + seg.fault_latency;
        let jitter_bound = seg.cfg.jitter.as_micros();
        let jitter = if jitter_bound > 0 {
            SimDuration::from_micros(self.rng.gen_range(0..jitter_bound))
        } else {
            SimDuration::ZERO
        };
        Some(latency + jitter)
    }

    /// A frame reaches the far end of its segment: receivers first, in
    /// attachment order, then taps, in `taps` order. A broadcast that
    /// only some stations read ([`Sim::quiet_audience`]) counts the rest
    /// at once and walks the readers. Taps are read live, so a handler
    /// that enables or drops a tap is honoured.
    pub(crate) fn deliver(&mut self, seg: SegmentId, from: (NodeId, usize), rec: &FrameRecord) {
        let broadcast = rec.dst.is_broadcast();
        if let Some(audience) = self.quiet_audience(seg, from, rec) {
            for &(node, iface) in audience.walk.iter().filter(|&&at| at != from) {
                self.stats.frame_deliveries += 1;
                self.handle_frame(node, iface, rec);
            }
        } else {
            let mut i = 0;
            while let Some(&(node, iface)) = self.segments[seg.0].attached.get(i) {
                i += 1;
                if (node, iface) == from {
                    continue; // No self-reception.
                }
                if broadcast || rec.dst == self.nodes[node.0].ifaces[iface].mac {
                    self.stats.frame_deliveries += 1;
                    self.handle_frame(node, iface, rec);
                }
            }
        }
        // Taps see every surviving frame on the segment.
        let mut i = 0;
        while let Some(&(tap_seg, handle)) = self.taps.get(i) {
            i += 1;
            if tap_seg == seg {
                self.deliver_tap(handle, rec);
            }
        }
    }

    /// A frame arrives at one interface: its packet goes to ARP or IP.
    fn handle_frame(&mut self, node: NodeId, iface: usize, rec: &FrameRecord) {
        if !self.nodes[node.0].up {
            return;
        }
        match &rec.packet {
            Packet::Arp(arp) => self.handle_arp(node, iface, arp),
            Packet::Ipv4(pkt) => self.handle_ip(node, iface, pkt, rec),
        }
    }

    fn deliver_tap(&mut self, handle: ProcHandle, rec: &FrameRecord) {
        if self.nodes[handle.node.0].procs[handle.idx].is_some() {
            self.proc_stats_mut(handle).frames_tapped += 1;
        }
        self.with_proc(handle, |p, ctx| p.on_tap(rec.frame(), ctx));
    }
}

#[cfg(test)]
mod tests {
    use std::net::Ipv4Addr;

    use fremont_net::{ArpOp, IpProtocol};

    use super::*;
    use crate::builder::TopologyBuilder;
    use crate::process::{ProcCtx, Process};

    /// `n` hosts and no router on one default Ethernet (200 µs latency,
    /// 0–300 µs jitter): nothing ever happens unless a test transmits.
    fn lan(n: u32) -> (Sim, Vec<NodeId>) {
        let mut b = TopologyBuilder::new();
        let seg = b.segment("lan", "10.9.0.0/24");
        for i in 1..=n {
            b.host(&format!("h{i}"), seg, i);
        }
        let (sim, topo) = b.build(7);
        (sim, topo.hosts)
    }

    /// Transmits an ARP "is-at" announcement from `from` to link address
    /// `dst`; every station that hears it caches `from`'s address.
    fn announce(sim: &mut Sim, from: NodeId, dst: MacAddr) {
        let my = &sim.nodes[from.0].ifaces[0];
        let arp = ArpPacket {
            op: ArpOp::Reply,
            sender_mac: my.mac,
            sender_ip: my.ip,
            target_mac: dst,
            target_ip: Ipv4Addr::BROADCAST,
        };
        let rec = FrameRecord::arp(dst, my.mac, arp);
        sim.transmit(from, 0, rec);
    }

    fn heard(sim: &Sim, listener: NodeId, speaker: NodeId) -> bool {
        let ip = sim.nodes[speaker.0].ifaces[0].ip;
        sim.nodes[listener.0].arp.lookup(ip, sim.now()).is_some()
    }

    /// Records every tapped frame and how many stations had been handed
    /// a frame by then.
    #[derive(Default)]
    struct Tap {
        frames: Vec<EthernetFrame>,
        deliveries_at_tap: Vec<u64>,
    }

    impl Process for Tap {
        fn on_tap(&mut self, frame: &EthernetFrame, ctx: &mut ProcCtx<'_>) {
            self.frames.push(frame.clone());
            self.deliveries_at_tap.push(ctx.sim.stats.frame_deliveries);
        }
    }

    #[test]
    fn broadcast_is_one_event_and_n_minus_one_deliveries() {
        let (mut sim, hosts) = lan(6);
        let pending = sim.core.pending();
        announce(&mut sim, hosts[0], MacAddr::BROADCAST);
        assert_eq!(sim.core.pending(), pending + 1, "one scheduled event");
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(sim.stats.events_processed, 1);
        assert_eq!(sim.stats.frame_deliveries, 5);
        assert_eq!(sim.stats.arp_packets, 5);
        assert!(hosts[1..].iter().all(|h| heard(&sim, *h, hosts[0])));
        assert!(!heard(&sim, hosts[0], hosts[0]), "no self-reception");
        assert_eq!(sim.segments[0].stats.frames_sent, 1);
    }

    #[test]
    fn unicast_reaches_only_its_mac_and_the_taps() {
        let (mut sim, hosts) = lan(4);
        let tap = sim.spawn(hosts[3], Box::new(Tap::default()));
        sim.with_proc(tap, |_, ctx| ctx.enable_tap(true));
        let dst = sim.nodes[hosts[1].0].ifaces[0].mac;
        announce(&mut sim, hosts[0], dst);
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(sim.stats.frame_deliveries, 1);
        assert!(heard(&sim, hosts[1], hosts[0]));
        assert!(!heard(&sim, hosts[2], hosts[0]));
        assert!(!heard(&sim, hosts[3], hosts[0]), "a tap is not a receiver");
        assert_eq!(sim.proc_stats(tap).frames_tapped, 1);
    }

    #[test]
    fn who_hears_is_decided_on_arrival() {
        let (mut sim, hosts) = lan(4);
        sim.set_node_up(hosts[2], false);
        announce(&mut sim, hosts[0], MacAddr::BROADCAST);
        // While the frame is in flight h2 goes down and h3 comes up.
        sim.set_node_up(hosts[1], false);
        sim.set_node_up(hosts[2], true);
        sim.run_for(SimDuration::from_secs(1));
        assert!(!heard(&sim, hosts[1], hosts[0]), "down on arrival");
        assert!(heard(&sim, hosts[2], hosts[0]), "up on arrival");
        assert!(heard(&sim, hosts[3], hosts[0]));
        assert_eq!(sim.stats.arp_packets, 2);
    }

    #[test]
    fn tap_enabled_in_flight_sees_the_frame_after_the_receivers() {
        let (mut sim, hosts) = lan(5);
        let tap = sim.spawn(hosts[4], Box::new(Tap::default()));
        announce(&mut sim, hosts[0], MacAddr::BROADCAST);
        sim.with_proc(tap, |_, ctx| ctx.enable_tap(true));
        sim.run_for(SimDuration::from_secs(1));
        let seen = &sim.process_mut::<Tap>(tap).unwrap().deliveries_at_tap;
        assert_eq!(seen, &[4], "all four receivers ran before the one tap call");
    }

    #[test]
    fn a_frame_costs_at_most_one_draw() {
        // Same seed, same topology: equal probes ⇔ equal draw counts.
        let probe_after = |act: fn(&mut Sim, &[NodeId])| {
            let (mut sim, hosts) = lan(6);
            act(&mut sim, &hosts);
            sim.run_for(SimDuration::from_secs(1));
            sim.rng_position_probe()
        };
        let untouched = probe_after(|_, _| {});
        let one_draw = probe_after(|sim, _| {
            let _ = sim.rng.gen_range(0..300u64);
        });
        assert_ne!(untouched, one_draw);
        let partitioned = probe_after(|sim, hosts| {
            sim.segments[0].partitioned = true;
            announce(sim, hosts[0], MacAddr::BROADCAST);
        });
        assert_eq!(partitioned, untouched, "a cut wire draws nothing");
        let jitter_free = probe_after(|sim, hosts| {
            sim.segments[0].cfg.jitter = SimDuration::ZERO;
            announce(sim, hosts[0], MacAddr::BROADCAST);
        });
        assert_eq!(jitter_free, untouched, "no jitter, no draw");
        let broadcast = probe_after(|sim, hosts| announce(sim, hosts[0], MacAddr::BROADCAST));
        assert_eq!(broadcast, one_draw, "five receivers, one jitter draw");
    }

    #[test]
    fn a_tap_reads_the_bytes_of_the_packet_the_sender_built() {
        let (mut sim, hosts) = lan(3);
        let tap = sim.spawn(hosts[2], Box::new(Tap::default()));
        sim.with_proc(tap, |_, ctx| ctx.enable_tap(true));
        let my = &sim.nodes[hosts[0].0].ifaces[0];
        let (mac, ip) = (my.mac, my.ip);
        // Nobody owns 10.9.0.99, so no receiver answers and the tap sees
        // exactly the three frames sent.
        let nobody = Ipv4Addr::new(10, 9, 0, 99);
        let ip_pkt = |len: usize| {
            Ipv4Packet::new(ip, nobody, IpProtocol::Udp, Bytes::from(vec![0xa5; len])).with_id(7)
        };
        let arp = ArpPacket::request(mac, ip, nobody);
        let small = ip_pkt(10); // padded up to the 46-byte minimum
        let large = ip_pkt(1400 - ipv4::HEADER_LEN);
        let bcast = MacAddr::BROADCAST;
        let expected: Vec<Vec<u8>> = [
            (EtherType::Arp, arp.encode()),
            (EtherType::Ipv4, small.encode()),
            (EtherType::Ipv4, large.encode()),
        ]
        .into_iter()
        .map(|(ty, body)| EthernetFrame::new(bcast, mac, ty, Bytes::from(body)).encode())
        .collect();
        let sent = [
            FrameRecord::arp(bcast, mac, arp),
            FrameRecord::ip(bcast, mac, small),
            FrameRecord::ip(bcast, mac, large),
        ];
        for rec in sent {
            sim.transmit(hosts[0], 0, rec);
            sim.run_for(SimDuration::from_secs(1));
        }
        let seen = &sim.process_mut::<Tap>(tap).unwrap().frames;
        let seen: Vec<Vec<u8>> = seen.iter().map(EthernetFrame::encode).collect();
        assert_eq!(seen, expected);
        let bytes: usize = expected.iter().map(Vec::len).sum();
        assert_eq!(sim.segments[0].stats.bytes_sent, bytes as u64);
    }

    #[test]
    fn wire_len_is_the_encoded_length() {
        let (bcast, mac) = (MacAddr::BROADCAST, MacAddr::new([8, 0, 0x20, 0, 0, 1]));
        let (src, dst) = (Ipv4Addr::new(10, 9, 0, 1), Ipv4Addr::new(10, 9, 0, 2));
        let arp = FrameRecord::arp(bcast, mac, ArpPacket::request(mac, src, dst));
        assert_eq!(arp.wire_len(), arp.frame().encode().len());
        for len in 0..=1480 {
            let pkt = Ipv4Packet::new(src, dst, IpProtocol::Udp, Bytes::from(vec![0; len]));
            let rec = FrameRecord::ip(bcast, mac, pkt);
            assert_eq!(
                rec.wire_len(),
                rec.frame().encode().len(),
                "{len}-byte payload"
            );
        }
    }
}
