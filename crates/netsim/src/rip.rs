//! RIP: periodic advertisements, poll replies, the learned-route list of
//! a promiscuous rebroadcaster, and which stations on a segment read an
//! advertisement at all.
//!
//! On the idle campus nine frame deliveries in ten are one advertisement
//! arriving at one interface. A receiver does nothing with a response
//! unless it is such a rebroadcaster (a Table 8 problem RIPwatch flags):
//! nobody else's learned list is ever read. So **a station that runs
//! nothing reads nothing**, and nobody need walk it: each segment keeps an
//! [`Audience`], the stations a RIP response broadcast there must be
//! walked through plus how many only count it. The link asks
//! [`Sim::quiet_audience`] when a broadcast arrives. The audience is built
//! from [`Sim::reads_nothing_of`] on first use and dropped by
//! [`Sim::drop_audiences`] whenever an attached station's processes, `up`
//! flag or addressing change.
//!
//! An advertisement whose audience walks nobody but its sender, on a
//! segment no tap reads, is **counted, not queued**, and never built.
//! [`Sim::send_rip_advertisements`] decides that once per interface,
//! before any packet exists ([`Sim::quiet_send`]). A quiet packet takes
//! its IP id, puts its length on the wire ([`Sim::put_on_wire`]: the
//! same draws a frame makes) and is held off the event queue as a
//! [`QuietFlight`] under the place `(at, seq)` the queue would have
//! given it: the template it came from, its index there, its IP id and
//! what its arrival adds. [`Sim::land_quiet_flights`] counts it once
//! the clock has passed that place — at the end of `run_until`, or at a
//! hook that is about to change what an arrival would do — and builds
//! and files its frame, to be walked as usual, when the clock has not.

use std::cell::OnceCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

use bytes::Bytes;
use rand::Rng;

use fremont_net::rip::{split_into_packets, RipEntry, RipPacket, METRIC_INFINITY};
use fremont_net::udp::RIP_PORT;
use fremont_net::{ipv4, IpProtocol, Ipv4Packet, MacAddr, RipCommand, UdpDatagram};

use crate::engine::{Event, Sim};
use crate::link::{wire_len, FrameRecord};
use crate::node::{Node, NodeKind, RipConfig};
use crate::segment::{NodeId, SegmentId};
use crate::stats::SimStats;
use crate::time::{SimDuration, SimTime};

/// Interval between a speaker's advertisements (RFC 1058), before the
/// tick's jitter.
const RIP_INTERVAL: SimDuration = SimDuration::from_secs(30);

/// One packet of an advertisement: the decoded RIP packet and its
/// encoded UDP datagram (the IPv4 payload).
type AdvertPacket = (Rc<RipPacket>, Bytes);

/// Cached encoding of one interface's periodic RIP advertisement.
pub(crate) struct RipAdvertTemplate {
    /// Route-state version the template was built from.
    version: u64,
    /// One entry per RIP packet the table splits into, shared across
    /// ticks and with the advertisements held in flight.
    packets: Rc<[AdvertPacket]>,
}

/// One segment's stations, split by what a RIP response broadcast to
/// `bcast` does to them.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Audience {
    /// The IP destination the stations were classified against.
    bcast: Ipv4Addr,
    /// Stations that must be walked through the stack, in attachment
    /// order: a process runs there, it rebroadcasts, or it does not hold
    /// `bcast` local (a wrong mask; a router takes its TTL path).
    pub(crate) walk: Vec<(NodeId, usize)>,
    /// Stations that only count the response: one frame delivery each,
    /// powered off or not ...
    counted: u64,
    /// ... and, for those that are up, one IP and one RIP packet.
    counted_up: u64,
}

/// What one RIP response adds for the stations that only count it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct QuietCounts {
    /// One frame delivery per station, powered off or not ...
    deliveries: u64,
    /// ... and one IP and one RIP packet per station that is up.
    up: u64,
}

impl QuietCounts {
    fn add_to(self, stats: &mut SimStats) {
        stats.frame_deliveries += self.deliveries;
        stats.ip_packets += self.up;
        stats.rip_packets += self.up;
    }
}

/// An advertisement on the wire that only counters will hear, held off
/// the event queue at the place the queue would have given it. It keeps
/// no frame: one is built from the template and the sender's addressing
/// only if a hook files it on the queue.
pub(crate) struct QuietFlight {
    at: SimTime,
    seq: u64,
    from: (NodeId, usize),
    packets: Rc<[AdvertPacket]>,
    packet: usize,
    ip_id: u16,
    counts: QuietCounts,
}

/// The broadcast IP destination of a frame whose RIP cell holds a
/// `Response`; `None` for any other frame.
fn response_bcast(rec: &FrameRecord) -> Option<Ipv4Addr> {
    let pkt = rec.broadcast_ipv4()?;
    let response = matches!(rec.rip.get(), Some(Some(rip)) if rip.command == RipCommand::Response);
    response.then_some(pkt.dst)
}

/// The entry a speaker advertises for a route it holds at `metric`.
fn advertised(addr: Ipv4Addr, metric: u32) -> RipEntry {
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
    /// `true` when `node` only counts a RIP response to `dst` arriving on
    /// `iface`: it runs no live process, does not rebroadcast, and holds
    /// `dst` local there.
    pub(crate) fn reads_nothing_of(&self, node: NodeId, iface: usize, dst: Ipv4Addr) -> bool {
        let n = &self.nodes[node.0];
        n.procs.iter().all(Option::is_none)
            && !n.behavior.rip.as_ref().is_some_and(|c| c.promiscuous)
            && n.is_local_dst(dst, iface)
    }

    fn build_audience(&self, seg: SegmentId, bcast: Ipv4Addr) -> Audience {
        let mut audience = Audience {
            bcast,
            walk: Vec::new(),
            counted: 0,
            counted_up: 0,
        };
        for &(node, iface) in &self.segments[seg.0].attached {
            if self.reads_nothing_of(node, iface, bcast) {
                audience.counted += 1;
                audience.counted_up += u64::from(self.nodes[node.0].up);
            } else {
                audience.walk.push((node, iface));
            }
        }
        audience
    }

    /// `seg`'s audience for a response to `bcast`, from the cache when
    /// it was built for that destination.
    fn audience(&mut self, seg: SegmentId, bcast: Ipv4Addr) -> Rc<Audience> {
        match &self.segments[seg.0].audience {
            Some(cached) if cached.bcast == bcast => {
                // `Sim::nodes` is public: a write there that bypassed
                // `drop_audiences` shows up here in every debug test.
                debug_assert_eq!(**cached, self.build_audience(seg, bcast), "stale audience");
                Rc::clone(cached)
            }
            _ => {
                let built = Rc::new(self.build_audience(seg, bcast));
                self.segments[seg.0].audience = Some(Rc::clone(&built));
                built
            }
        }
    }

    /// What a response to `bcast` from `from` adds on arriving at the
    /// stations of `seg` that only count it, beside their audience.
    fn quiet_counts(
        &mut self,
        seg: SegmentId,
        from: (NodeId, usize),
        bcast: Ipv4Addr,
    ) -> (Rc<Audience>, QuietCounts) {
        let audience = self.audience(seg, bcast);
        // The sender is attached to `seg`, so it is counted unless walked.
        let sender = !audience.walk.contains(&from);
        let sender_up = sender && self.nodes[from.0 .0].up;
        let counts = QuietCounts {
            deliveries: audience.counted - u64::from(sender),
            up: audience.counted_up - u64::from(sender_up),
        };
        (audience, counts)
    }

    /// For a frame broadcast on `seg`: when its RIP cell holds a
    /// `Response`, adds what the stations that only count it would have
    /// added (the sender excepted) and returns the audience whose `walk`
    /// is still to be delivered; `None` for any other frame.
    pub(crate) fn quiet_audience(
        &mut self,
        seg: SegmentId,
        from: (NodeId, usize),
        rec: &FrameRecord,
    ) -> Option<Rc<Audience>> {
        let bcast = response_bcast(rec)?;
        let (audience, counts) = self.quiet_counts(seg, from, bcast);
        counts.add_to(&mut self.stats);
        Some(audience)
    }

    fn tapped(&self, seg: SegmentId) -> bool {
        self.taps.iter().any(|&(tapped, _)| tapped == seg)
    }

    /// What an advertisement from `from` adds where it lands, when only
    /// counters will hear it: no tap reads its segment, and the segment's
    /// audience for its directed broadcast walks nobody but the sender.
    /// `None` when it must be built and delivered.
    fn quiet_send(&mut self, from: (NodeId, usize)) -> Option<QuietCounts> {
        let my = &self.nodes[from.0 .0].ifaces[from.1];
        let (seg, bcast) = (my.segment, my.subnet().directed_broadcast());
        if self.tapped(seg) {
            return None;
        }
        let (audience, counts) = self.quiet_counts(seg, from, bcast);
        let walked = audience.walk.iter().any(|&at| at != from);
        (!walked).then_some(counts)
    }

    /// The frame of one advertisement packet leaving `from` under IP id
    /// `id`, addressed from the interface to its directed broadcast. The
    /// RIP packet rides pre-filled on the record, so no receiver parses
    /// it.
    fn advert_frame(&self, from: (NodeId, usize), packet: &AdvertPacket, id: u16) -> FrameRecord {
        let (rip, udp_bytes) = packet;
        let my = &self.nodes[from.0 .0].ifaces[from.1];
        let bcast = my.subnet().directed_broadcast();
        let out = Ipv4Packet::new(my.ip, bcast, IpProtocol::Udp, udp_bytes.clone())
            .with_ttl(1)
            .with_id(id);
        let mut rec = FrameRecord::ip(MacAddr::BROADCAST, my.mac, out);
        rec.rip = OnceCell::from(Some(Rc::clone(rip)));
        rec
    }

    /// Counts every held advertisement the clock has passed — one event
    /// and the counts [`Sim::quiet_audience`] would add, as its arrival
    /// would have — and builds and files the rest on the queue under
    /// their own places, to be delivered as any frame is. With `count`
    /// false a passed one stays held for a later landing instead: a
    /// process enabling a tap is out of its slot while it runs, so its
    /// own station cannot be classified then.
    pub(crate) fn land_quiet_flights(&mut self, count: bool) {
        if self.quiet_flights.is_empty() {
            return;
        }
        let mut flights = std::mem::take(&mut self.quiet_flights);
        for flight in flights.drain(..) {
            if self.core.has_passed(flight.at, flight.seq) {
                if count {
                    self.count_landed(&flight);
                } else {
                    self.quiet_flights.push(flight);
                }
                continue;
            }
            // Every change of the sender's addressing lands the held
            // advertisements first, so this is the frame it sent.
            let from = flight.from;
            let frame = self.advert_frame(from, &flight.packets[flight.packet], flight.ip_id);
            let seg = self.nodes[from.0 .0].ifaces[from.1].segment;
            let event = Event::FrameRx { seg, from, frame };
            let filed = self.core.schedule_at(flight.at, flight.seq, event);
            debug_assert!(filed.is_ok(), "an open place refused");
        }
        if self.quiet_flights.is_empty() {
            self.quiet_flights = flights;
        }
        let depth = self.core.pending();
        self.stats.queue_depth_hwm = self.stats.queue_depth_hwm.max(depth);
    }

    /// A held advertisement has arrived: one event, and the counts taken
    /// when it was sent. Nothing they were taken from can have changed
    /// since, as every change lands the held advertisements first; debug
    /// builds take them again to check.
    fn count_landed(&mut self, flight: &QuietFlight) {
        self.stats.events_processed += 1;
        flight.counts.add_to(&mut self.stats);
        debug_assert_eq!(
            self.quiet_send(flight.from),
            Some(flight.counts),
            "a held advertisement changed"
        );
    }

    /// Lands the held frames ([`Sim::land_quiet_flights`]), then forgets
    /// the audience of every segment `node` is attached to; the next RIP
    /// response there rebuilds it. Called just before an input of
    /// [`Sim::reads_nothing_of`] or a station's `up` flag changes, so a
    /// frame that arrived before the change counts what it found and
    /// one still in flight is walked through what it will find.
    pub(crate) fn drop_audiences(&mut self, node: NodeId) {
        self.land_quiet_flights(true);
        for iface in &self.nodes[node.0].ifaces {
            self.segments[iface.segment.0].audience = None;
        }
    }

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
        self.schedule(RIP_INTERVAL + jitter, Event::RipTick { node });
    }

    /// The advertisement packets `node` sends out of `ifc`, from the
    /// interface's template when it was built from the current route
    /// state.
    fn advert_packets(&mut self, node: NodeId, ifc: usize, cfg: &RipConfig) -> Rc<[AdvertPacket]> {
        // A tick's advertisement content is a pure function of the
        // node's route state: the static table for normal speakers, the
        // learned-route list for promiscuous rebroadcasters. Both carry a
        // monotone version, so the split + UDP encode is cached per
        // interface and only the IP identification is stamped fresh per
        // tick.
        let n = &mut self.nodes[node.0];
        let version = if cfg.promiscuous {
            n.rip_version
        } else {
            n.routes.version()
        };
        if let Some(Some(t)) = n.rip_adverts.get(ifc) {
            if t.version == version {
                return Rc::clone(&t.packets);
            }
        }
        let entries: Vec<RipEntry> = if cfg.promiscuous {
            // Everything learned, regardless of origin — the misbehavior
            // RIPwatch flags.
            let learned = n.rip_learned.iter();
            learned.map(|(a, m)| advertised(*a, *m)).collect()
        } else {
            // Split horizon.
            n.route_entries(Some(ifc))
        };
        let packets: Rc<[_]> = split_into_packets(&entries)
            .into_iter()
            .map(|p| {
                let dgram = UdpDatagram::new(RIP_PORT, RIP_PORT, Bytes::from(p.encode()));
                (Rc::new(p), Bytes::from(dgram.encode()))
            })
            .collect();
        if n.rip_adverts.len() <= ifc {
            n.rip_adverts.resize_with(ifc + 1, || None);
        }
        n.rip_adverts[ifc] = Some(RipAdvertTemplate {
            version,
            packets: Rc::clone(&packets),
        });
        packets
    }

    fn send_rip_advertisements(&mut self, node: NodeId, cfg: &RipConfig) {
        for ifc in 0..self.nodes[node.0].ifaces.len() {
            let packets = self.advert_packets(node, ifc, cfg);
            let from = (node, ifc);
            // Decided once per interface, before any packet is built.
            let Some(counts) = self.quiet_send(from) else {
                for packet in packets.iter() {
                    let id = self.next_ip_id();
                    let rec = self.advert_frame(from, packet, id);
                    self.transmit(node, ifc, rec);
                }
                continue;
            };
            // Only counters will hear these: each takes its IP id and the
            // wire's draws, as a frame would, and is held, not built.
            for (packet, (_, udp_bytes)) in packets.iter().enumerate() {
                let ip_id = self.next_ip_id();
                let len = wire_len(ipv4::HEADER_LEN + udp_bytes.len());
                let Some(delay) = self.put_on_wire(node, ifc, len, true, false) else {
                    continue;
                };
                let (at, seq) = (self.now() + delay, self.core.reserve());
                self.quiet_flights.push(QuietFlight {
                    at,
                    seq,
                    from,
                    packets: Rc::clone(&packets),
                    packet,
                    ip_id,
                    counts,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use fremont_net::{EtherType, EthernetFrame, SubnetMask};

    use super::*;
    use crate::builder::TopologyBuilder;
    use crate::faults::FaultKind;
    use crate::process::{ProcCtx, ProcHandle, Process};
    use crate::routing::Route;

    #[test]
    fn only_a_rebroadcaster_keeps_what_it_hears() {
        let mut b = TopologyBuilder::new();
        let a = b.segment("net-a", "10.1.1.0/24");
        let m = b.segment("net-m", "10.1.2.0/24");
        b.host("quiet", a, 10);
        let chatty = b.host("chatty", a, 11);
        b.host_mut(chatty).behavior.rip = Some(RipConfig { promiscuous: true });
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

    /// Counts the RIP responses its host's raw IP view hands it.
    #[derive(Default)]
    struct RipCounter {
        responses: u32,
    }

    impl Process for RipCounter {
        fn on_ip(&mut self, pkt: &Ipv4Packet, _ctx: &mut ProcCtx<'_>) {
            let rip = UdpDatagram::decode(&pkt.payload)
                .ok()
                .filter(|d| d.dst_port == RIP_PORT)
                .and_then(|d| RipPacket::decode(&d.payload).ok());
            if rip.is_some_and(|r| r.command == RipCommand::Response) {
                self.responses += 1;
            }
        }
    }

    /// `(frame_deliveries, ip_packets, rip_packets)` added by one
    /// advertisement from `speaker`: one frame, so one event, on each of
    /// its interfaces, and nothing else happening meanwhile.
    fn advertise(sim: &mut Sim, speaker: NodeId) -> (u64, u64, u64) {
        advertise_then(sim, speaker, |_| {})
    }

    /// [`advertise`], with `in_flight` done to the simulator while the
    /// frames are on the wire.
    fn advertise_then(
        sim: &mut Sim,
        speaker: NodeId,
        in_flight: impl FnOnce(&mut Sim),
    ) -> (u64, u64, u64) {
        let before = sim.stats;
        let cfg = sim.nodes[speaker.0]
            .behavior
            .rip
            .clone()
            .expect("a speaker");
        sim.send_rip_advertisements(speaker, &cfg);
        in_flight(sim);
        sim.run_for(SimDuration::from_millis(10));
        let frames = sim.nodes[speaker.0].ifaces.len() as u64;
        assert_eq!(sim.stats.events_processed - before.events_processed, frames);
        (
            sim.stats.frame_deliveries - before.frame_deliveries,
            sim.stats.ip_packets - before.ip_packets,
            sim.stats.rip_packets - before.rip_packets,
        )
    }

    #[test]
    fn a_station_that_runs_nothing_reads_nothing() {
        let mut b = TopologyBuilder::new();
        let a = b.segment("net-a", "10.1.1.0/24");
        let m = b.segment("net-m", "10.1.2.0/24");
        b.host("quiet", a, 10);
        let badmask = b.host("badmask", a, 11);
        b.host_mut(badmask).mask = SubnetMask::from_prefix_len(16).expect("/16");
        b.host("counter", a, 12);
        let chatty = b.host("chatty", a, 13);
        b.host_mut(chatty).behavior.rip = Some(RipConfig { promiscuous: true });
        b.router("r1", &[(a, 1), (m, 1)]);
        let (mut sim, topo) = b.build(7);
        let node = |name: &str| topo.nodes_by_name[name];
        let counter = sim.spawn(node("counter"), Box::<RipCounter>::default());
        sim.run_for(SimDuration::from_millis(10)); // its Start event
        let responses = |sim: &mut Sim, h: ProcHandle| {
            sim.process_mut::<RipCounter>(h).expect("alive").responses
        };

        // Four stations hear r1 on net-a (nobody else is on net-m); the
        // /16 host holds 10.1.1.255 as transit and drops it; quiet,
        // counter and chatty each count one RIP packet.
        let r1 = node("r1");
        assert_eq!(advertise(&mut sim, r1), (4, 4, 3));
        assert_eq!(responses(&mut sim, counter), 1);
        let learned = |sim: &Sim, name: &str| sim.nodes[node(name).0].rip_learned.clone();
        assert_eq!(learned(&sim, "chatty"), [(Ipv4Addr::new(10, 1, 2, 0), 1)]);
        assert!(learned(&sim, "quiet").is_empty());

        // A process spawned between ticks sees the next advertisement.
        let late = sim.spawn(node("quiet"), Box::<RipCounter>::default());
        sim.run_for(SimDuration::from_millis(10));
        assert_eq!(advertise(&mut sim, r1), (4, 4, 3));
        assert_eq!(responses(&mut sim, late), 1);
        assert_eq!(responses(&mut sim, counter), 2);

        // Killed, it leaves the host quiet again; the counts do not move.
        let seen = sim.proc_stats(late).packets_received;
        sim.kill_process(late);
        assert_eq!(advertise(&mut sim, r1), (4, 4, 3));
        assert_eq!(sim.proc_stats(late).packets_received, seen);
        assert_eq!(responses(&mut sim, counter), 3);
        assert_eq!(learned(&sim, "chatty"), [(Ipv4Addr::new(10, 1, 2, 0), 1)]);

        // The classifier: no live process, no rebroadcast, 10.1.1.255
        // local. Quiet and r1, the sender, are counted; the rest walked.
        let bcast = Ipv4Addr::new(10, 1, 1, 255);
        let reads_nothing = |sim: &Sim, name: &str| sim.reads_nothing_of(node(name), 0, bcast);
        assert!(reads_nothing(&sim, "quiet") && reads_nothing(&sim, "r1"));
        for name in ["badmask", "counter", "chatty"] {
            assert!(!reads_nothing(&sim, name), "{name}");
        }
        let seg = topo.segments[a].0;
        let walked = |sim: &Sim| -> Vec<String> {
            let audience = sim.segments[seg.0].audience.as_ref().expect("built");
            let names = audience
                .walk
                .iter()
                .map(|(n, _)| sim.nodes[n.0].name.clone());
            names.collect()
        };
        assert_eq!(walked(&sim), ["badmask", "counter", "chatty"]);

        // Only a filled Response cell takes the counted path.
        let my = &sim.nodes[r1.0].ifaces[0];
        let (mac, ip) = (my.mac, my.ip);
        let pkt = Ipv4Packet::new(ip, bcast, IpProtocol::Udp, Bytes::new());
        let record = |rip: Option<RipPacket>| {
            let mut rec = FrameRecord::ip(MacAddr::BROADCAST, mac, pkt.clone());
            if let Some(rip) = rip {
                rec.rip = OnceCell::from(Some(Rc::new(rip)));
            }
            rec
        };
        let from = (r1, 0);
        assert!(
            sim.quiet_audience(seg, from, &record(None)).is_none(),
            "an empty cell is never decoded"
        );
        let poll = RipPacket {
            command: RipCommand::Request,
            entries: vec![],
        };
        assert!(sim.quiet_audience(seg, from, &record(Some(poll))).is_none());

        // Powered off, the quiet host still takes the frame off the wire
        // but counts no IP and no RIP.
        sim.set_node_up(node("quiet"), false);
        assert_eq!(advertise(&mut sim, r1), (4, 3, 2));
        sim.set_node_up(node("quiet"), true);
        assert_eq!(advertise(&mut sim, r1), (4, 4, 3));

        // A wrong mask applied mid-run: 10.1.1.255 is transit for a /16,
        // so the host is walked and counts IP but no longer RIP.
        sim.apply_fault(FaultKind::WrongMask {
            node: "quiet".to_owned(),
            prefix_len: 16,
        });
        assert_eq!(advertise(&mut sim, r1), (4, 4, 2));
        assert_eq!(walked(&sim), ["quiet", "badmask", "counter", "chatty"]);

        // A quiet host joins net-m, where r1 is the only other station:
        // r1's response there walks nobody, so it is held off the queue
        // and counted once the clock passes its arrival.
        let mut iface = sim.nodes[r1.0].ifaces[1].clone();
        iface.mac = MacAddr::new([8, 0, 0x20, 0, 2, 20]);
        iface.ip = Ipv4Addr::new(10, 1, 2, 20);
        let late = sim.add_node(Node::new("late", NodeKind::Host, vec![iface]));
        let pending = sim.core.pending();
        let held = |sim: &mut Sim| {
            assert_eq!(sim.quiet_flights.len(), 1, "net-m's frame is held");
            assert_eq!(sim.core.pending(), pending + 1, "net-a's rides the queue");
        };
        assert_eq!(advertise_then(&mut sim, r1, held), (5, 5, 3));
        assert!(sim.quiet_flights.is_empty(), "landed by run_until");

        // Powered off in flight: the hook files the held frame on the
        // queue first, and it arrives to find the host down.
        let off_in_flight = |sim: &mut Sim| {
            held(sim);
            sim.set_node_up(late, false);
            assert!(sim.quiet_flights.is_empty(), "filed by the hook");
            assert_eq!(sim.core.pending(), pending + 2);
        };
        assert_eq!(advertise_then(&mut sim, r1, off_in_flight), (5, 4, 2));
        assert_eq!(advertise(&mut sim, r1), (5, 4, 2));
        sim.set_node_up(late, true);
        assert_eq!(advertise(&mut sim, r1), (5, 5, 3));
    }

    /// Keeps every frame its tap reads.
    #[derive(Default)]
    struct Tapper {
        frames: Vec<EthernetFrame>,
    }

    impl Process for Tapper {
        fn on_tap(&mut self, frame: &EthernetFrame, _ctx: &mut ProcCtx<'_>) {
            self.frames.push(frame.clone());
        }
    }

    /// How one advertisement from r1 onto net-m reaches the end of the
    /// test.
    #[derive(Clone, Copy, Debug)]
    enum Path {
        /// A tap is open when it is sent: built and scheduled.
        Scheduled,
        /// Held, then built and filed when a tap opens in flight.
        Filed,
        /// Held and counted; nobody taps it.
        Counted,
    }

    /// r1, whose first interface is on net-m, where only a quiet host
    /// listens: its advertisement there is held unless a tap is open.
    fn r1_on_net_m() -> (Sim, NodeId) {
        let mut b = TopologyBuilder::new();
        let m = b.segment("net-m", "10.1.2.0/24");
        let a = b.segment("net-a", "10.1.1.0/24");
        b.host("quiet", m, 10);
        b.host("other", a, 10);
        b.router("r1", &[(m, 1), (a, 1)]);
        let (sim, topo) = b.build(7);
        (sim, topo.nodes_by_name["r1"])
    }

    /// Sends one advertisement from r1 onto net-m along `path`, with a
    /// route added to r1 while it is in flight. Returns the frames the
    /// tap on net-m read, the IP id the advertisement took, and the RNG
    /// position afterwards.
    fn advertise_along(path: Path) -> (Vec<Vec<u8>>, u16, u64) {
        let (mut sim, r1) = r1_on_net_m();
        // The tap is r1's own process: a sender is never walked.
        let tap = sim.spawn(r1, Box::<Tapper>::default());
        sim.run_for(SimDuration::from_millis(10)); // its Start event
        let open_tap = |sim: &mut Sim| sim.with_proc(tap, |_, ctx| ctx.enable_tap(true));
        if matches!(path, Path::Scheduled) {
            open_tap(&mut sim);
        }
        let cfg = sim.nodes[r1.0].behavior.rip.clone().expect("a speaker");
        let id = sim.ip_id.wrapping_add(1);
        sim.send_rip_advertisements(r1, &cfg);
        // net-a's advertisement is held on every path.
        let held = 1 + usize::from(!matches!(path, Path::Scheduled));
        assert_eq!(sim.quiet_flights.len(), held, "{path:?}");
        // The route state moves in flight: the template is rebuilt at
        // the next tick, not for what is already on the wire.
        let route = Route {
            dest: "10.1.9.0/24".parse().expect("subnet"),
            gateway: Some(Ipv4Addr::new(10, 1, 1, 2)),
            iface: 1,
            metric: 1,
        };
        sim.nodes[r1.0].routes.add(route);
        if matches!(path, Path::Filed) {
            open_tap(&mut sim);
            assert!(sim.quiet_flights.is_empty(), "filed by enable_tap");
        }
        sim.run_for(SimDuration::from_millis(10));
        let frames = sim.process_mut::<Tapper>(tap).expect("alive").frames.iter();
        let frames = frames.map(EthernetFrame::encode).collect();
        (frames, id, sim.rng_position_probe())
    }

    #[test]
    fn a_held_advertisement_is_the_one_built_directly() {
        let (scheduled, id, probe) = advertise_along(Path::Scheduled);
        // r1's response on net-m: its one route out of net-a (split
        // horizon), from 10.1.2.1 to the directed broadcast, TTL 1.
        let rip = RipPacket::response(vec![advertised(Ipv4Addr::new(10, 1, 1, 0), 0)]);
        let udp = UdpDatagram::new(RIP_PORT, RIP_PORT, Bytes::from(rip.encode()));
        let (src, bcast) = (Ipv4Addr::new(10, 1, 2, 1), Ipv4Addr::new(10, 1, 2, 255));
        let ip = Ipv4Packet::new(src, bcast, IpProtocol::Udp, Bytes::from(udp.encode()))
            .with_ttl(1)
            .with_id(id);
        let (sim, r1) = r1_on_net_m();
        let mac = sim.nodes[r1.0].ifaces[0].mac;
        let ip = Bytes::from(ip.encode());
        let expected = EthernetFrame::new(MacAddr::BROADCAST, mac, EtherType::Ipv4, ip);
        assert_eq!(scheduled, [expected.encode()]);

        // Held, then filed in flight: the same bytes, IP id included,
        // and the same draws.
        assert_eq!(advertise_along(Path::Filed), (scheduled, id, probe));
        // Held and counted: nothing tapped, the same draws.
        assert_eq!(advertise_along(Path::Counted), (vec![], id, probe));
    }
}
