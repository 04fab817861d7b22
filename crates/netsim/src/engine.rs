//! The simulated network, on top of the event core.
//!
//! Deterministic (seeded RNG, total event order), packet-level, and
//! protocol-faithful: every ARP exchange, TTL decrement, ICMP error, RIP
//! broadcast, and DNS reply is a wire-format packet in an Ethernet frame
//! on a shared segment, so the Explorer Modules exercise exactly the
//! code paths the paper's modules did on the Colorado campus.
//!
//! [`Sim`] is the campus — nodes, segments, processes, one RNG — and the
//! loop that pops events off [`EventCore`] and dispatches them. What an
//! event *does* lives in sibling modules of plain `impl Sim` blocks, one
//! per layer (see the crate docs; why not a context: DESIGN.md §5f).

use std::any::Any;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fremont_journal::observation::Observation;
use fremont_net::Ipv4Packet;
use fremont_telemetry::{SpanId, TelTime, Telemetry};

use crate::faults::{FaultKind, FaultStats};
use crate::link::FrameRecord;
use crate::node::Node;
use crate::process::{ProcHandle, Process};
use crate::rip::QuietFlight;
use crate::sched::EventCore;
use crate::segment::{NodeId, Segment, SegmentCfg, SegmentId};
use crate::stats::{ProcStats, SimStats};
use crate::time::{SimDuration, SimTime};
use crate::traffic::TrafficModel;
use crate::uptime::UptimeModel;

pub use crate::ip::SendError;
pub use crate::process::ProcCtx;

pub(crate) enum Event {
    /// One frame reaching the far end of `seg`; who hears it is decided
    /// on arrival ([`Sim::deliver`]).
    FrameRx {
        seg: SegmentId,
        from: (NodeId, usize),
        frame: FrameRecord,
    },
    Start {
        handle: ProcHandle,
    },
    Timer {
        handle: ProcHandle,
        token: u64,
    },
    SetNodeUp {
        node: NodeId,
        up: bool,
    },
    RipTick {
        node: NodeId,
    },
    ArpGc {
        node: NodeId,
    },
    DelayedSend {
        node: NodeId,
        pkt: Ipv4Packet,
    },
    TrafficTick,
    Fault {
        kind: FaultKind,
    },
}

/// The simulator.
pub struct Sim {
    /// Clock and pending events; the only place time lives.
    pub(crate) core: EventCore<Event>,
    /// All nodes; index = `NodeId`. Once the simulation has run, change a
    /// node's interface addressing, `up` flag and processes only through
    /// `Sim` methods ([`Sim::set_node_up`], [`Sim::spawn`],
    /// [`Sim::kill_process`], faults): each segment caches which stations
    /// a RIP broadcast must walk, and those methods drop the cache (debug
    /// builds check it on every advertisement).
    pub nodes: Vec<Node>,
    /// All segments; index = `SegmentId`.
    pub segments: Vec<Segment>,
    pub(crate) taps: Vec<(SegmentId, ProcHandle)>,
    pub(crate) rng: StdRng,
    /// Engine-wide counters.
    pub stats: SimStats,
    pub(crate) outbox: Vec<(ProcHandle, SimTime, Observation)>,
    pub(crate) ip_id: u16,
    pub(crate) traffic: Option<TrafficModel>,
    uptime: Vec<Option<UptimeModel>>,
    pub(crate) telemetry: Telemetry,
    /// Per-process packet counters, keyed by `(node, slot)`.
    pub(crate) proc_stats: BTreeMap<(usize, usize), ProcStats>,
    /// Counters of applied fault events and partition frame drops.
    pub fault_stats: FaultStats,
    /// True once a non-empty [`crate::faults::FaultPlan`] was installed;
    /// gates the `fremont_sim_fault_*` metric family so fault-free
    /// expositions stay byte-identical.
    pub(crate) faults_installed: bool,
    /// RIP responses on the wire that no station walks and no tap reads,
    /// held off the event queue until counted (`rip.rs`).
    pub(crate) quiet_flights: Vec<QuietFlight>,
}

impl Sim {
    /// Creates an empty simulation with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        Sim {
            core: EventCore::new(),
            nodes: Vec::new(),
            segments: Vec::new(),
            taps: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            stats: SimStats::default(),
            outbox: Vec::new(),
            ip_id: 1,
            traffic: None,
            uptime: Vec::new(),
            telemetry: Telemetry::noop(),
            proc_stats: BTreeMap::new(),
            fault_stats: FaultStats::default(),
            faults_installed: false,
            quiet_flights: Vec::new(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now()
    }

    /// Attaches a telemetry handle; node up/down transitions become
    /// trace events and [`Sim::publish_metrics`] exports counters.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Packet counters for one process (zeroes if it never sent).
    pub fn proc_stats(&self, h: ProcHandle) -> ProcStats {
        self.proc_stats
            .get(&(h.node.0, h.idx))
            .copied()
            .unwrap_or_default()
    }

    // ------------------------------------------------------------------
    // Topology construction
    // ------------------------------------------------------------------

    /// Adds a segment.
    pub fn add_segment(&mut self, cfg: SegmentCfg) -> SegmentId {
        let id = SegmentId(self.segments.len());
        self.segments.push(Segment::new(cfg));
        id
    }

    /// Adds a node, attaching its interfaces to their segments. Nodes with
    /// a RIP configuration get their advertisement timer started.
    pub fn add_node(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.nodes.len());
        let has_rip = node.behavior.rip.is_some();
        self.nodes.push(node);
        self.drop_audiences(id);
        for (idx, iface) in self.nodes[id.0].ifaces.iter().enumerate() {
            self.segments[iface.segment.0].attached.push((id, idx));
        }
        self.uptime.push(None);
        if has_rip {
            // Stagger first advertisements to avoid global synchrony.
            let jitter = SimDuration::from_micros(self.rng.gen_range(0..30_000_000));
            self.schedule(jitter, Event::RipTick { node: id });
        }
        id
    }

    /// Installs the background traffic model and starts its clock.
    pub fn set_traffic(&mut self, model: TrafficModel) {
        self.traffic = Some(model);
        self.schedule(SimDuration::ZERO, Event::TrafficTick);
    }

    /// Installs an up/down model for a node and starts its clock.
    pub fn set_uptime(&mut self, node: NodeId, model: UptimeModel) {
        let first = model.initial_event(&mut self.rng);
        self.uptime[node.0] = Some(model);
        if let Some((delay, up)) = first {
            self.schedule(delay, Event::SetNodeUp { node, up });
        }
    }

    /// Finds a node id by name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.nodes.iter().position(|n| n.name == name).map(NodeId)
    }

    /// Finds a segment id by name.
    pub fn segment_by_name(&self, name: &str) -> Option<SegmentId> {
        self.segments
            .iter()
            .position(|s| s.cfg.name == name)
            .map(SegmentId)
    }

    /// Names of every node, in slab order. Schedule enumerators use
    /// this to validate fault targets against the live topology.
    pub fn node_names(&self) -> Vec<&str> {
        self.nodes.iter().map(|n| n.name.as_str()).collect()
    }

    /// Names of every segment, in slab order.
    pub fn segment_names(&self) -> Vec<&str> {
        self.segments.iter().map(|s| s.cfg.name.as_str()).collect()
    }

    /// Primary IPv4 address of every node with an interface, in slab
    /// order. Taken before fault injection this is the pristine address
    /// map — a `DuplicateIp` fault rewrites the live interface address.
    pub fn node_ips(&self) -> Vec<(&str, Ipv4Addr)> {
        self.nodes
            .iter()
            .filter(|n| !n.ifaces.is_empty())
            .map(|n| (n.name.as_str(), n.ifaces[0].ip))
            .collect()
    }

    /// A stable FNV-1a fingerprint of the simulator's *ground* state:
    /// per-node name, up/down, clock skew, and interface addressing,
    /// plus per-segment partition/degradation status. Deliberately an
    /// abstraction — transient state (ARP caches, the event queue, RNG
    /// position) and bookkeeping (fault-stats counters) are omitted,
    /// which is what lets the model checker identify interleavings that
    /// converge to the same network condition (e.g. a `Heal` with no
    /// prior partition leaves the ground state untouched). See
    /// DESIGN.md §5e for the soundness argument.
    pub fn state_fingerprint(&self) -> u64 {
        let mut h = fremont_net::Fnv1a::new();
        for n in &self.nodes {
            h.write(n.name.as_bytes());
            h.write(&[u8::from(n.up)]);
            h.write_u64(n.clock_skew as u64);
            for i in &n.ifaces {
                h.write(&i.ip.octets());
                h.write_u64(u64::from(i.mask.bits()));
            }
        }
        for s in &self.segments {
            h.write(s.cfg.name.as_bytes());
            h.write(&[u8::from(s.partitioned)]);
            h.write_u64(s.fault_loss.to_bits());
            h.write_u64(s.fault_latency.as_micros());
        }
        h.finish()
    }

    /// Draws and returns one value from the simulation RNG — a *probe*
    /// of the stream position for determinism tests: two same-seed runs
    /// that consumed the same number of draws probe equal, and any extra
    /// hidden draw in one of them makes every later probe diverge. This
    /// advances the stream; only call it where the simulation's own
    /// draw sequence no longer matters (end of a test).
    pub fn rng_position_probe(&mut self) -> u64 {
        self.rng.gen()
    }

    // ------------------------------------------------------------------
    // Processes
    // ------------------------------------------------------------------

    /// Spawns a process on a node; it starts at the current time.
    pub fn spawn(&mut self, node: NodeId, proc_: Box<dyn Process>) -> ProcHandle {
        self.drop_audiences(node);
        let idx = self.nodes[node.0].procs.len();
        self.nodes[node.0].procs.push(Some(proc_));
        let handle = ProcHandle { node, idx };
        self.schedule(SimDuration::ZERO, Event::Start { handle });
        handle
    }

    /// Mutable, downcast access to a process (driver-side result reads).
    pub fn process_mut<T: Process>(&mut self, h: ProcHandle) -> Option<&mut T> {
        let proc_: &mut dyn Any = self.nodes[h.node.0].procs[h.idx].as_deref_mut()?;
        proc_.downcast_mut::<T>()
    }

    /// Returns `true` when the process reports itself finished.
    pub fn process_done(&self, h: ProcHandle) -> bool {
        let p = &self.nodes[h.node.0].procs[h.idx];
        p.as_ref().is_none_or(|p| p.done())
    }

    /// Removes a process (stops future event delivery to it).
    pub fn kill_process(&mut self, h: ProcHandle) {
        self.drop_audiences(h.node);
        self.nodes[h.node.0].procs[h.idx] = None;
        self.taps.retain(|(_, t)| *t != h);
    }

    /// Drains observations emitted by all processes since the last drain.
    pub fn drain_observations(&mut self) -> Vec<(ProcHandle, SimTime, Observation)> {
        std::mem::take(&mut self.outbox)
    }

    /// Drains as [`Sim::drain_observations`] does and keeps what process
    /// `h` emitted, in emission order: a module's one output. The other
    /// processes' observations are dropped.
    pub fn drain_observations_of(&mut self, h: ProcHandle) -> Vec<Observation> {
        let drained = std::mem::take(&mut self.outbox).into_iter();
        drained
            .filter(|(p, _, _)| *p == h)
            .map(|(_, _, o)| o)
            .collect()
    }

    // ------------------------------------------------------------------
    // Event loop
    // ------------------------------------------------------------------

    pub(crate) fn schedule(&mut self, delay: SimDuration, event: Event) {
        self.core.schedule(delay, event);
        self.stats.queue_depth_hwm = self.stats.queue_depth_hwm.max(self.core.pending());
    }

    /// Runs until the queue drains or `deadline` passes. The clock ends at
    /// exactly `deadline` if it was reached.
    ///
    /// With a telemetry sink attached, each call is wrapped in a
    /// `sim.run` span attributing the slice's logical work (events
    /// dispatched, frames put on the wire, per-station deliveries and
    /// per-layer arrivals) to the profiler's folded stacks. The span
    /// opens at the slice's start; its work and close are stamped with
    /// the slice's end, so interior events (faults, node up/down) keep
    /// the trace stream monotone.
    pub fn run_until(&mut self, deadline: SimTime) {
        let traced = self.telemetry.enabled();
        let span = if traced {
            let at = TelTime(self.now().as_micros());
            self.telemetry.span_start("sim.run", "", SpanId::NONE, at)
        } else {
            SpanId::NONE
        };
        let before = self.stats;
        let frames_before = self.segment_total(|s| s.frames_sent);
        while let Some((gap, event)) = self.core.pop_due(deadline) {
            self.stats.idle_skipped_micros += gap.as_micros();
            self.stats.events_processed += 1;
            self.dispatch(event);
        }
        self.stats.idle_skipped_micros += self.core.advance_to(deadline).as_micros();
        self.land_quiet_flights(true);
        if traced {
            let at = TelTime(self.now().as_micros());
            let since = |counter: fn(&SimStats) -> u64| counter(&self.stats) - counter(&before);
            let events = since(|s| s.events_processed);
            let frames = self.segment_total(|s| s.frames_sent) - frames_before;
            for (unit, amount) in [
                ("sim_events", events),
                ("frames", frames),
                ("link_deliveries", since(|s| s.frame_deliveries)),
                ("arp_packets", since(|s| s.arp_packets)),
                ("ip_packets", since(|s| s.ip_packets)),
                ("rip_packets", since(|s| s.rip_packets)),
            ] {
                self.telemetry.work(span, unit, amount, at);
            }
            self.telemetry
                .span_end(span, &format!("events={events} frames={frames}"), at);
        }
    }

    /// Runs for a span of simulated time.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.now() + d;
        self.run_until(deadline);
    }

    fn dispatch(&mut self, event: Event) {
        match event {
            Event::FrameRx { seg, from, frame } => self.deliver(seg, from, &frame),
            Event::Start { handle } => self.with_proc(handle, |p, ctx| p.on_start(ctx)),
            Event::Timer { handle, token } => {
                self.with_proc(handle, |p, ctx| p.on_timer(token, ctx))
            }
            Event::SetNodeUp { node, up } => {
                self.set_node_up(node, up);
                // Chain the next toggle from the uptime model.
                if let Some(model) = &self.uptime[node.0] {
                    if let Some((delay, next_up)) = model.next_event(up, &mut self.rng) {
                        self.schedule(delay, Event::SetNodeUp { node, up: next_up });
                    }
                }
            }
            Event::RipTick { node } => self.rip_tick(node),
            Event::ArpGc { node } => self.arp_gc(node),
            Event::DelayedSend { node, pkt } => self.send_best_effort(node, pkt),
            Event::TrafficTick => self.traffic_tick(),
            Event::Fault { kind } => self.apply_fault(kind),
        }
    }

    /// Marks a node up or down immediately.
    pub fn set_node_up(&mut self, node: NodeId, up: bool) {
        self.drop_audiences(node);
        let n = &mut self.nodes[node.0];
        n.up = up;
        if !up {
            // Power-off loses volatile state.
            n.arp.clear();
            n.arp_pending.clear();
            n.clear_rip_state();
        }
        if self.telemetry.enabled() {
            let name = if up { "node.up" } else { "node.down" };
            let at = TelTime(self.now().as_micros());
            self.telemetry
                .event(name, &self.nodes[node.0].name, SpanId::NONE, at);
        }
    }

    pub(crate) fn with_proc(
        &mut self,
        handle: ProcHandle,
        f: impl FnOnce(&mut dyn Process, &mut ProcCtx),
    ) {
        let Some(mut p) = self.nodes[handle.node.0].procs[handle.idx].take() else {
            return;
        };
        {
            let mut ctx = ProcCtx { sim: self, handle };
            f(p.as_mut(), &mut ctx);
        }
        self.nodes[handle.node.0].procs[handle.idx] = Some(p);
    }

    pub(crate) fn deliver_ip_to_procs(&mut self, node: NodeId, pkt: &Ipv4Packet) {
        let count = self.nodes[node.0].procs.len();
        for idx in 0..count {
            let handle = ProcHandle { node, idx };
            if self.nodes[node.0].procs[idx].is_some() {
                self.proc_stats_mut(handle).packets_received += 1;
            }
            self.with_proc(handle, |p, ctx| p.on_ip(pkt, ctx));
        }
    }

    pub(crate) fn proc_stats_mut(&mut self, handle: ProcHandle) -> &mut ProcStats {
        self.proc_stats
            .entry((handle.node.0, handle.idx))
            .or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Iface, NodeKind};
    use fremont_net::{IcmpMessage, IpProtocol, MacAddr, SubnetMask};

    fn mac(b: u8) -> MacAddr {
        MacAddr::new([8, 0, 0x20, 0, 0, b])
    }

    fn two_host_sim() -> (Sim, NodeId, NodeId) {
        let mut sim = Sim::new(7);
        let seg = sim.add_segment(SegmentCfg::default());
        let mk = |name: &str, b: u8| {
            Node::new(
                name,
                NodeKind::Host,
                vec![Iface {
                    mac: mac(b),
                    ip: Ipv4Addr::new(10, 0, 0, b),
                    mask: SubnetMask::from_prefix_len(24).unwrap(),
                    segment: seg,
                }],
            )
        };
        let mut a = mk("a", 1);
        a.routes.add(crate::routing::Route {
            dest: "10.0.0.0/24".parse().unwrap(),
            gateway: None,
            iface: 0,
            metric: 0,
        });
        let mut b = mk("b", 2);
        b.routes.add(crate::routing::Route {
            dest: "10.0.0.0/24".parse().unwrap(),
            gateway: None,
            iface: 0,
            metric: 0,
        });
        let a = sim.add_node(a);
        let b = sim.add_node(b);
        (sim, a, b)
    }

    /// A probe process used by engine unit tests.
    struct Pinger {
        target: Ipv4Addr,
        replies: Vec<Ipv4Addr>,
    }

    impl Process for Pinger {
        fn on_start(&mut self, ctx: &mut ProcCtx<'_>) {
            let msg = IcmpMessage::EchoRequest {
                ident: 9,
                seq: 1,
                payload: vec![1, 2, 3],
            };
            ctx.send_icmp(self.target, &msg).unwrap();
        }

        fn on_ip(&mut self, pkt: &Ipv4Packet, _ctx: &mut ProcCtx<'_>) {
            if pkt.protocol == IpProtocol::Icmp {
                if let Ok(IcmpMessage::EchoReply { ident: 9, .. }) =
                    IcmpMessage::decode(&pkt.payload)
                {
                    self.replies.push(pkt.src);
                }
            }
        }
    }

    #[test]
    fn ping_round_trip_through_arp() {
        let (mut sim, a, _b) = two_host_sim();
        let h = sim.spawn(
            a,
            Box::new(Pinger {
                target: Ipv4Addr::new(10, 0, 0, 2),
                replies: vec![],
            }),
        );
        sim.run_for(SimDuration::from_secs(2));
        let p = sim.process_mut::<Pinger>(h).unwrap();
        assert_eq!(p.replies, vec![Ipv4Addr::new(10, 0, 0, 2)]);
        // The exchange also populated both ARP caches.
        assert!(sim.nodes[a.0]
            .arp
            .lookup(Ipv4Addr::new(10, 0, 0, 2), sim.now())
            .is_some());
        assert!(sim.stats.arp_requests >= 1);
    }

    #[test]
    fn ping_down_host_gets_no_reply() {
        let (mut sim, a, b) = two_host_sim();
        sim.set_node_up(b, false);
        let h = sim.spawn(
            a,
            Box::new(Pinger {
                target: Ipv4Addr::new(10, 0, 0, 2),
                replies: vec![],
            }),
        );
        sim.run_for(SimDuration::from_secs(5));
        assert!(sim.process_mut::<Pinger>(h).unwrap().replies.is_empty());
    }

    #[test]
    fn no_echo_reply_when_disabled() {
        let (mut sim, a, b) = two_host_sim();
        sim.nodes[b.0].behavior.echo_reply = false;
        let h = sim.spawn(
            a,
            Box::new(Pinger {
                target: Ipv4Addr::new(10, 0, 0, 2),
                replies: vec![],
            }),
        );
        sim.run_for(SimDuration::from_secs(2));
        assert!(sim.process_mut::<Pinger>(h).unwrap().replies.is_empty());
    }

    #[test]
    fn broadcast_ping_collects_multiple_replies() {
        let (mut sim, a, _b) = two_host_sim();
        let h = sim.spawn(
            a,
            Box::new(Pinger {
                target: Ipv4Addr::new(10, 0, 0, 255),
                replies: vec![],
            }),
        );
        sim.run_for(SimDuration::from_secs(2));
        let p = sim.process_mut::<Pinger>(h).unwrap();
        assert_eq!(p.replies, vec![Ipv4Addr::new(10, 0, 0, 2)]);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed| {
            let (mut sim, a, _b) = two_host_sim();
            let _ = seed; // topology fixed; vary engine seed below
            let mut sim2 = std::mem::replace(&mut sim, Sim::new(0));
            let h = sim2.spawn(
                a,
                Box::new(Pinger {
                    target: Ipv4Addr::new(10, 0, 0, 255),
                    replies: vec![],
                }),
            );
            sim2.run_for(SimDuration::from_secs(1));
            (
                sim2.stats.events_processed,
                sim2.process_mut::<Pinger>(h).unwrap().replies.clone(),
            )
        };
        assert_eq!(run(1), run(1));
    }
}
