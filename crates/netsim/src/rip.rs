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
//! A response whose audience walks nobody but its sender, on a segment
//! no tap reads, is **counted, not queued**: the link hands it to
//! [`Sim::hold_quiet_flight`], which keeps it off the event queue under
//! the place `(at, seq)` the queue would have given it.
//! [`Sim::land_quiet_flights`] counts it once the clock has passed that
//! place — at the end of `run_until`, or at a hook that is about to
//! change what an arrival would do — and files it on the queue, to be
//! walked as usual, when the clock has not.

use std::net::Ipv4Addr;
use std::rc::Rc;

use bytes::Bytes;
use rand::Rng;

use fremont_net::rip::{split_into_packets, RipEntry, RipPacket, METRIC_INFINITY};
use fremont_net::udp::RIP_PORT;
use fremont_net::{IpProtocol, Ipv4Packet, MacAddr, RipCommand, UdpDatagram};

use crate::engine::{Event, Sim};
use crate::link::FrameRecord;
use crate::node::{Node, NodeKind, RipConfig};
use crate::segment::{NodeId, SegmentId};
use crate::stats::SimStats;
use crate::time::{SimDuration, SimTime};

/// Interval between a speaker's advertisements (RFC 1058), before the
/// tick's jitter.
const RIP_INTERVAL: SimDuration = SimDuration::from_secs(30);

/// Cached encoding of one interface's periodic RIP advertisement.
pub(crate) struct RipAdvertTemplate {
    /// Route-state version the template was built from.
    version: u64,
    /// One entry per RIP packet the table splits into: the decoded packet
    /// and its encoded UDP datagram (the IPv4 payload), shared across
    /// ticks.
    packets: Rc<[(Rc<RipPacket>, Bytes)]>,
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

/// A RIP response on the wire that only counters will hear, held off
/// the event queue at the place the queue would have given it.
pub(crate) struct QuietFlight {
    at: SimTime,
    seq: u64,
    seg: SegmentId,
    from: (NodeId, usize),
    frame: FrameRecord,
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

    /// Holds a frame leaving `from` on `seg`, due `delay` from now, off
    /// the event queue when its arrival would only be counted: a RIP
    /// response on an untapped segment whose audience walks nobody but
    /// the sender. Hands the frame back when it must be scheduled.
    pub(crate) fn hold_quiet_flight(
        &mut self,
        seg: SegmentId,
        from: (NodeId, usize),
        frame: FrameRecord,
        delay: SimDuration,
    ) -> Option<FrameRecord> {
        let Some(bcast) = response_bcast(&frame) else {
            return Some(frame);
        };
        if self.tapped(seg) {
            return Some(frame);
        }
        let (audience, counts) = self.quiet_counts(seg, from, bcast);
        if audience.walk.iter().any(|&at| at != from) {
            return Some(frame);
        }
        let at = self.now() + delay;
        let seq = self.core.reserve();
        let flight = QuietFlight {
            at,
            seq,
            seg,
            from,
            frame,
            counts,
        };
        self.quiet_flights.push(flight);
        None
    }

    /// Counts every held frame the clock has passed — one event and the
    /// counts [`Sim::quiet_audience`] would add, as its arrival would
    /// have — and files the rest on the queue under their own places, to
    /// be delivered as any frame is. With `count` false a passed frame
    /// stays held for a later landing instead: a process enabling a tap
    /// is out of its slot while it runs, so its own station cannot be
    /// classified then.
    pub(crate) fn land_quiet_flights(&mut self, count: bool) {
        if self.quiet_flights.is_empty() {
            return;
        }
        let now = self.now();
        let mut flights = std::mem::take(&mut self.quiet_flights);
        if count {
            // What was due before `now` has landed: count it where it
            // lies, without moving it again.
            flights.retain(|flight| {
                let landed = flight.at < now;
                if landed {
                    self.count_landed(flight);
                }
                !landed
            });
        }
        for flight in flights.drain(..) {
            let Some(landed) = self.file_quiet_flight(flight) else {
                continue;
            };
            if count {
                self.count_landed(&landed);
            } else {
                self.quiet_flights.push(landed);
            }
        }
        if self.quiet_flights.is_empty() {
            self.quiet_flights = flights;
        }
        let depth = self.core.pending();
        self.stats.queue_depth_hwm = self.stats.queue_depth_hwm.max(depth);
    }

    /// Files a held frame on the queue at its place; hands it back when
    /// the clock has passed that place.
    fn file_quiet_flight(&mut self, flight: QuietFlight) -> Option<QuietFlight> {
        let QuietFlight {
            at,
            seq,
            seg,
            from,
            frame,
            counts,
        } = flight;
        let event = Event::FrameRx { seg, from, frame };
        let Err(Event::FrameRx { seg, from, frame }) = self.core.schedule_at(at, seq, event) else {
            return None;
        };
        Some(QuietFlight {
            at,
            seq,
            seg,
            from,
            frame,
            counts,
        })
    }

    /// A held frame has arrived: one event, and the counts taken when it
    /// was sent. Nothing they were taken from can have changed since, as
    /// every change lands the held frames first; debug builds take them
    /// again to check.
    fn count_landed(&mut self, flight: &QuietFlight) {
        self.stats.events_processed += 1;
        flight.counts.add_to(&mut self.stats);
        if cfg!(debug_assertions) {
            let (seg, from) = (flight.seg, flight.from);
            let again = response_bcast(&flight.frame).map(|bcast| {
                let (audience, counts) = self.quiet_counts(seg, from, bcast);
                (audience.walk.iter().any(|&at| at != from), counts)
            });
            debug_assert_eq!(again, Some((false, flight.counts)), "a held frame changed");
            debug_assert!(!self.tapped(seg), "a held frame on a tapped segment");
        }
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

    fn send_rip_advertisements(&mut self, node: NodeId, cfg: &RipConfig) {
        for ifc in 0..self.nodes[node.0].ifaces.len() {
            // A tick's advertisement content is a pure function of the
            // node's route state: the static table for normal speakers,
            // the learned-route list for promiscuous rebroadcasters.
            // Both carry a monotone version, so the split + UDP encode is
            // cached per interface and only the IP identification is
            // stamped fresh per tick.
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
                        // Split horizon.
                        n.route_entries(Some(ifc))
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
                // The RIP packet rides pre-filled on the frame record, so
                // no receiver parses it.
                let rec = self.ip_frame(node, ifc, MacAddr::BROADCAST, out);
                let _ = rec.rip.set(Some(Rc::clone(rip)));
                self.transmit(node, ifc, rec);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use fremont_net::SubnetMask;

    use super::*;
    use crate::builder::TopologyBuilder;
    use crate::faults::FaultKind;
    use crate::process::{ProcCtx, ProcHandle, Process};

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
            let rec = FrameRecord::ip(MacAddr::BROADCAST, mac, pkt.clone());
            if let Some(rip) = rip {
                let _ = rec.rip.set(Some(Rc::new(rip)));
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
}
