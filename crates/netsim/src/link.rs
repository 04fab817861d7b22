//! Link layer: frames in flight on a shared segment.
//!
//! A transmitted frame rolls the segment's loss/collision dice once,
//! then becomes one delivery event per matching receiver plus one per
//! tap — all sharing a single [`FrameRecord`].

use std::cell::OnceCell;
use std::rc::Rc;

use rand::Rng;

use fremont_net::rip::RipPacket;
use fremont_net::{ArpPacket, EtherType, EthernetFrame, Ipv4Packet, UdpDatagram};

use crate::engine::{Event, Sim};
use crate::process::ProcHandle;
use crate::segment::NodeId;
use crate::time::SimDuration;

/// One frame in flight on a segment, shared (`Rc`) by every receiver's
/// delivery event instead of cloned per receiver. The decode cells are
/// filled lazily, at most once per frame — a broadcast RIP advertisement
/// heard by six interfaces is parsed once, not six times. Single
/// ownership of the simulation makes the single-threaded `Rc`/`OnceCell`
/// pair safe here.
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
    /// Puts a frame on a node's segment: loss/collision roll, then
    /// per-receiver delivery events plus tap copies.
    pub(crate) fn transmit_frame(&mut self, node: NodeId, iface: usize, frame: EthernetFrame) {
        self.transmit_frame_rec(node, iface, FrameRecord::new(frame));
    }

    /// [`Sim::transmit_frame`] with a caller-prepared record (the RIP
    /// advertisement path pre-fills the decode cache). One event record
    /// is still scheduled per matching receiver — event counts, RNG draw
    /// order, and queue-depth telemetry are identical to per-receiver
    /// cloning — but all of them share one frame allocation and decode.
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
        let broadcast = frame.is_broadcast();
        let dst = frame.dst;
        let rec = Rc::new(rec);
        // Borrow dance: take the attachment list out of the segment so we
        // can schedule deliveries (which needs `&mut self`) without cloning
        // it on every frame. Nothing below touches segment state.
        let attached = std::mem::take(&mut self.segments[seg_id.0].attached);
        for &(dst_node, dst_iface) in &attached {
            if dst_node == node && dst_iface == iface {
                continue; // No self-reception.
            }
            let dst_mac = self.nodes[dst_node.0].ifaces[dst_iface].mac;
            if broadcast || dst == dst_mac {
                let jitter = if jitter_bound > 0 {
                    SimDuration::from_micros(self.rng.gen_range(0..jitter_bound))
                } else {
                    SimDuration::ZERO
                };
                self.schedule(
                    latency + jitter,
                    Event::FrameRx {
                        node: dst_node,
                        iface: dst_iface,
                        frame: Rc::clone(&rec),
                    },
                );
            }
        }
        self.segments[seg_id.0].attached = attached;
        // Taps see every surviving frame on the segment.
        for i in 0..self.taps.len() {
            let (tap_seg, handle) = self.taps[i];
            if tap_seg == seg_id {
                let frame = Rc::clone(&rec);
                self.schedule(latency, Event::Tap { handle, frame });
            }
        }
    }

    /// A frame arrives at one interface: decode (once per frame) and hand
    /// it to ARP or IP.
    pub(crate) fn handle_frame(&mut self, node: NodeId, iface: usize, rec: &FrameRecord) {
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

    pub(crate) fn deliver_tap(&mut self, handle: ProcHandle, rec: &FrameRecord) {
        if self.nodes[handle.node.0].procs[handle.idx].is_some() {
            self.proc_stats_mut(handle).frames_tapped += 1;
        }
        self.with_proc(handle, |p, ctx| p.on_tap(&rec.frame, ctx));
    }
}
