//! Link layer: frames in flight on a shared segment.
//!
//! A segment is a broadcast medium, so a transmission is **one** event:
//! the frame rolls the segment's loss/collision dice once, draws one
//! wire delay, and is scheduled once, owning its [`FrameRecord`]. Who
//! hears it is decided when it arrives ([`Sim::deliver`]): every attached
//! interface whose MAC matches (all of them for a broadcast) except the
//! sender's, in attachment order, then the segment's taps. A station
//! that is down at that instant hears nothing; one that came up, or a
//! tap enabled while the frame was in flight, does.

use std::cell::OnceCell;
use std::rc::Rc;

use rand::Rng;

use fremont_net::rip::RipPacket;
use fremont_net::{ArpPacket, EtherType, EthernetFrame, Ipv4Packet, UdpDatagram};

use crate::engine::{Event, Sim};
use crate::process::ProcHandle;
use crate::segment::{NodeId, SegmentId};
use crate::time::SimDuration;

/// One frame in flight on a segment, owned by its single delivery event
/// and lent to every receiver in turn. The decode cells are filled
/// lazily, at most once per frame — a broadcast RIP advertisement heard
/// by six interfaces is parsed once, not six times.
pub(crate) struct FrameRecord {
    pub(crate) frame: EthernetFrame,
    arp: OnceCell<Option<ArpPacket>>,
    ipv4: OnceCell<Option<Ipv4Packet>>,
    pub(crate) udp: OnceCell<Option<UdpDatagram>>,
    pub(crate) rip: OnceCell<Option<Rc<RipPacket>>>,
}

impl FrameRecord {
    pub(crate) fn new(frame: EthernetFrame) -> Self {
        FrameRecord {
            frame,
            arp: OnceCell::new(),
            ipv4: OnceCell::new(),
            udp: OnceCell::new(),
            rip: OnceCell::new(),
        }
    }
}

impl Sim {
    /// Puts a frame on a node's segment: loss/collision roll, then one
    /// delivery event for the whole segment.
    pub(crate) fn transmit_frame(&mut self, node: NodeId, iface: usize, frame: EthernetFrame) {
        self.transmit_frame_rec(node, iface, FrameRecord::new(frame));
    }

    /// [`Sim::transmit_frame`] with a caller-prepared record (the RIP
    /// advertisement path pre-fills the decode cache). A surviving frame
    /// costs one jitter draw (none on a jitter-free segment) and one
    /// scheduled event, however many stations will hear it.
    pub(crate) fn transmit_frame_rec(&mut self, node: NodeId, iface: usize, rec: FrameRecord) {
        if !self.nodes[node.0].up {
            return;
        }
        let frame = &rec.frame;
        let seg_id = self.nodes[node.0].ifaces[iface].segment;
        let now = self.now();
        let seg = &mut self.segments[seg_id.0];
        // A partitioned (cut) wire swallows every frame before any loss
        // roll, so no RNG is consumed for it.
        if seg.partitioned {
            seg.stats.record_loss();
            self.fault_stats.frames_dropped += 1;
            return;
        }
        let loss = seg.loss_probability(now);
        if loss > 0.0 && self.rng.gen::<f64>() < loss {
            seg.stats.record_loss();
            return;
        }
        let is_arp = frame.ethertype == EtherType::Arp;
        seg.stats
            .record_frame(now, frame.wire_len(), frame.is_broadcast(), is_arp);

        let latency = seg.cfg.latency + seg.fault_latency;
        let jitter_bound = seg.cfg.jitter.as_micros();
        let jitter = if jitter_bound > 0 {
            SimDuration::from_micros(self.rng.gen_range(0..jitter_bound))
        } else {
            SimDuration::ZERO
        };
        let event = Event::FrameRx {
            seg: seg_id,
            from: (node, iface),
            frame: rec,
        };
        self.schedule(latency + jitter, event);
    }

    /// A frame reaches the far end of its segment: receivers first, in
    /// attachment order, then taps, in `taps` order. Both lists are read
    /// live, so a handler that enables or drops a tap is honoured.
    pub(crate) fn deliver(&mut self, seg: SegmentId, from: (NodeId, usize), rec: &FrameRecord) {
        let broadcast = rec.frame.is_broadcast();
        let mut i = 0;
        while let Some(&(node, iface)) = self.segments[seg.0].attached.get(i) {
            i += 1;
            if (node, iface) == from {
                continue; // No self-reception.
            }
            if broadcast || rec.frame.dst == self.nodes[node.0].ifaces[iface].mac {
                self.stats.frame_deliveries += 1;
                self.handle_frame(node, iface, rec);
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

    /// A frame arrives at one interface: decode (once per frame) and hand
    /// it to ARP or IP.
    fn handle_frame(&mut self, node: NodeId, iface: usize, rec: &FrameRecord) {
        if !self.nodes[node.0].up {
            return;
        }
        match rec.frame.ethertype {
            EtherType::Arp => {
                let arp = rec
                    .arp
                    .get_or_init(|| ArpPacket::decode(&rec.frame.payload).ok());
                if let Some(arp) = arp {
                    self.handle_arp(node, iface, arp);
                }
            }
            EtherType::Ipv4 => {
                let pkt = rec
                    .ipv4
                    .get_or_init(|| Ipv4Packet::decode(&rec.frame.payload).ok());
                if let Some(pkt) = pkt {
                    self.handle_ip(node, iface, pkt, rec);
                }
            }
            EtherType::Other(_) => {}
        }
    }

    fn deliver_tap(&mut self, handle: ProcHandle, rec: &FrameRecord) {
        if self.nodes[handle.node.0].procs[handle.idx].is_some() {
            self.proc_stats_mut(handle).frames_tapped += 1;
        }
        self.with_proc(handle, |p, ctx| p.on_tap(&rec.frame, ctx));
    }
}

#[cfg(test)]
mod tests {
    use std::net::Ipv4Addr;

    use bytes::Bytes;
    use fremont_net::{ArpOp, MacAddr};

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
        let payload = Bytes::from(arp.encode());
        let frame = EthernetFrame::new(dst, my.mac, EtherType::Arp, payload);
        sim.transmit_frame(from, 0, frame);
    }

    fn heard(sim: &Sim, listener: NodeId, speaker: NodeId) -> bool {
        let ip = sim.nodes[speaker.0].ifaces[0].ip;
        sim.nodes[listener.0].arp.lookup(ip, sim.now()).is_some()
    }

    /// Records, per tapped frame, how many stations had been handed a
    /// frame by then.
    #[derive(Default)]
    struct Tap {
        deliveries_at_tap: Vec<u64>,
    }

    impl Process for Tap {
        fn on_tap(&mut self, _frame: &EthernetFrame, ctx: &mut ProcCtx<'_>) {
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
}
