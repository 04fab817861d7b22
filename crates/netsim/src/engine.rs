//! The discrete-event simulation engine.
//!
//! Deterministic (seeded RNG, total event order), packet-level, and
//! protocol-faithful: every ARP exchange, TTL decrement, ICMP error, RIP
//! broadcast, and DNS reply travels as encoded bytes inside Ethernet
//! frames on shared segments, so the Explorer Modules exercise exactly the
//! code paths the paper's modules did on the Colorado campus.

use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::rc::Rc;

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fremont_journal::observation::Observation;
use fremont_net::icmp::{time_exceeded_for, unreachable_for};
use fremont_net::rip::{RipEntry, RipPacket};
use fremont_net::udp::{DNS_PORT, ECHO_PORT, RIP_PORT};
use fremont_net::{
    ArpOp, ArpPacket, DnsMessage, EtherType, EthernetFrame, IcmpMessage, IpProtocol, Ipv4Packet,
    MacAddr, UdpDatagram, UnreachableCode,
};

use fremont_telemetry::{SpanId, TelTime, Telemetry};

use crate::faults::{FaultKind, FaultPlan, FaultStats};
use crate::node::{Node, NodeKind, TracerouteBug};
use crate::process::{IfaceInfo, ProcHandle, Process};
use crate::segment::{NodeId, Segment, SegmentCfg, SegmentId};
use crate::stats::{ProcStats, SimStats};
use crate::time::{SimDuration, SimTime};

/// How long a packet waits in the ARP pending queue before being dropped.
const ARP_PENDING_TIMEOUT: SimDuration = SimDuration(3_000_000);

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

/// One frame in flight on a segment, shared (`Rc`) by every receiver's
/// delivery event instead of cloned per receiver. The decode cells are
/// filled lazily, at most once per frame — a broadcast RIP advertisement
/// heard by six interfaces is parsed once, not six times. Single
/// ownership of the simulation makes the single-threaded `Rc`/`OnceCell`
/// pair safe here.
struct FrameRecord {
    frame: EthernetFrame,
    arp: OnceCell<Option<ArpPacket>>,
    ipv4: OnceCell<Option<Ipv4Packet>>,
    udp: OnceCell<Option<UdpDatagram>>,
    rip: OnceCell<Option<Rc<RipPacket>>>,
    /// Interned identity of a cached RIP advertisement payload (see
    /// `Sim::send_rip_advertisements`); `None` for all other frames and
    /// for promiscuous adverts whose content varies per tick.
    absorb_key: Option<u32>,
}

impl FrameRecord {
    fn new(frame: EthernetFrame) -> Self {
        FrameRecord {
            frame,
            arp: OnceCell::new(),
            ipv4: OnceCell::new(),
            udp: OnceCell::new(),
            rip: OnceCell::new(),
            absorb_key: None,
        }
    }
}

enum Event {
    FrameRx {
        node: NodeId,
        iface: usize,
        frame: Rc<FrameRecord>,
    },
    Tap {
        handle: ProcHandle,
        frame: Rc<FrameRecord>,
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
    now: SimTime,
    seq: u64,
    queue: crate::sched::TimerWheel<Event>,
    /// All nodes; index = `NodeId`.
    pub nodes: Vec<Node>,
    /// All segments; index = `SegmentId`.
    pub segments: Vec<Segment>,
    taps: Vec<(SegmentId, ProcHandle)>,
    rng: StdRng,
    /// Engine-wide counters.
    pub stats: SimStats,
    outbox: Vec<(ProcHandle, SimTime, Observation)>,
    ip_id: u16,
    traffic: Option<crate::traffic::TrafficModel>,
    uptime: Vec<Option<crate::uptime::UptimeModel>>,
    telemetry: Telemetry,
    /// Per-process packet counters, keyed by `(node, slot)`.
    proc_stats: BTreeMap<(usize, usize), ProcStats>,
    /// Counters of applied fault events and partition frame drops.
    pub fault_stats: FaultStats,
    /// True once a non-empty [`FaultPlan`] was installed; gates the
    /// `fremont_sim_fault_*` metric family so fault-free expositions
    /// stay byte-identical.
    faults_installed: bool,
    /// Cached per-`(node, iface)` RIP advertisement templates, keyed on
    /// the node's routing-table version — rebuilt only when the table
    /// changes, which on the static campus is never after build.
    rip_advert_cache: BTreeMap<(usize, usize), RipAdvertTemplate>,
    /// Next absorb key to intern (see [`FrameRecord::absorb_key`]).
    next_absorb_key: u32,
    /// The background-traffic datagram is the same 32-zero-byte NFS-ish
    /// burst every time; encode it once instead of per packet.
    traffic_payload: Bytes,
}

/// Cached encoding of one interface's periodic RIP advertisement.
struct RipAdvertTemplate {
    /// Routing-table version the template was built from.
    version: u64,
    /// One entry per RIP packet the table splits into.
    packets: Vec<RipAdvertPacket>,
}

struct RipAdvertPacket {
    rip: Rc<RipPacket>,
    /// The encoded UDP datagram (the IPv4 payload), shared across ticks.
    udp_bytes: Bytes,
    absorb_key: u32,
}

impl Sim {
    /// Creates an empty simulation with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        Sim {
            now: SimTime::ZERO,
            seq: 0,
            queue: crate::sched::TimerWheel::new(),
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
            rip_advert_cache: BTreeMap::new(),
            next_absorb_key: 0,
            traffic_payload: Bytes::from(
                UdpDatagram::new(2049, 2049, Bytes::from_static(&[0u8; 32])).encode(),
            ),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Attaches a telemetry handle; node up/down transitions become
    /// trace events and [`Sim::publish_metrics`] exports counters.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The attached telemetry handle (no-op by default).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Packet counters for one process (zeroes if it never sent).
    pub fn proc_stats(&self, h: ProcHandle) -> ProcStats {
        self.proc_stats
            .get(&(h.node.0, h.idx))
            .copied()
            .unwrap_or_default()
    }

    /// Publishes engine-wide counters into the telemetry sink. Called
    /// at sync points (driver pump, end of run) rather than per event
    /// so the hot loop stays allocation-free.
    pub fn publish_metrics(&self) {
        let t = &self.telemetry;
        if !t.enabled() {
            return;
        }
        t.counter_set(
            "fremont_sim_events_processed_total",
            "",
            self.stats.events_processed,
        );
        t.counter_set(
            "fremont_sim_packets_originated_total",
            "",
            self.stats.packets_originated,
        );
        t.counter_set(
            "fremont_sim_packets_forwarded_total",
            "",
            self.stats.packets_forwarded,
        );
        t.counter_set("fremont_sim_icmp_errors_total", "", self.stats.icmp_errors);
        t.counter_set(
            "fremont_sim_arp_requests_total",
            "",
            self.stats.arp_requests,
        );
        t.gauge_max(
            "fremont_sim_queue_depth_hwm",
            "",
            self.stats.queue_depth_hwm,
        );
        let (mut frames, mut bytes, mut lost, mut bcast, mut arp) = (0u64, 0u64, 0u64, 0u64, 0u64);
        for seg in &self.segments {
            frames += seg.stats.frames_sent;
            bytes += seg.stats.bytes_sent;
            lost += seg.stats.frames_lost;
            bcast += seg.stats.broadcasts;
            arp += seg.stats.arp_frames;
        }
        t.counter_set("fremont_sim_frames_sent_total", "", frames);
        t.counter_set("fremont_sim_frame_bytes_total", "", bytes);
        t.counter_set("fremont_sim_frames_lost_total", "", lost);
        t.counter_set("fremont_sim_broadcast_frames_total", "", bcast);
        t.counter_set("fremont_sim_arp_frames_total", "", arp);
        // The fault family appears only once a non-empty plan is
        // installed: a fault-free exposition must stay byte-identical.
        if self.faults_installed {
            let f = &self.fault_stats;
            t.counter_set("fremont_sim_fault_events_total", "", f.total());
            t.counter_set(
                "fremont_sim_fault_events_total",
                "kind=\"node_crash\"",
                f.node_crashes,
            );
            t.counter_set(
                "fremont_sim_fault_events_total",
                "kind=\"node_reboot\"",
                f.node_reboots,
            );
            t.counter_set(
                "fremont_sim_fault_events_total",
                "kind=\"gateway_death\"",
                f.gateway_deaths,
            );
            t.counter_set(
                "fremont_sim_fault_events_total",
                "kind=\"partition\"",
                f.partitions,
            );
            t.counter_set("fremont_sim_fault_events_total", "kind=\"heal\"", f.heals);
            t.counter_set(
                "fremont_sim_fault_events_total",
                "kind=\"degrade\"",
                f.degrades,
            );
            t.counter_set(
                "fremont_sim_fault_events_total",
                "kind=\"clear_degrade\"",
                f.degrade_clears,
            );
            t.counter_set(
                "fremont_sim_fault_events_total",
                "kind=\"duplicate_ip\"",
                f.duplicate_ips,
            );
            t.counter_set(
                "fremont_sim_fault_events_total",
                "kind=\"wrong_mask\"",
                f.wrong_masks,
            );
            t.counter_set(
                "fremont_sim_fault_events_total",
                "kind=\"clock_skew\"",
                f.clock_skews,
            );
            t.counter_set("fremont_sim_fault_unresolved_total", "", f.unresolved);
            t.counter_set(
                "fremont_sim_fault_partition_frames_dropped_total",
                "",
                f.frames_dropped,
            );
        }
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
        for (idx, iface) in node.ifaces.iter().enumerate() {
            self.segments[iface.segment.0].attached.push((id, idx));
        }
        let has_rip = node.behavior.rip.is_some();
        self.nodes.push(node);
        self.uptime.push(None);
        if has_rip {
            // Stagger first advertisements to avoid global synchrony.
            let jitter = SimDuration::from_micros(self.rng.gen_range(0..30_000_000));
            self.schedule(jitter, Event::RipTick { node: id });
        }
        id
    }

    /// Installs the background traffic model and starts its clock.
    pub fn set_traffic(&mut self, model: crate::traffic::TrafficModel) {
        self.traffic = Some(model);
        self.schedule(SimDuration::ZERO, Event::TrafficTick);
    }

    /// Installs an up/down model for a node and starts its clock.
    pub fn set_uptime(&mut self, node: NodeId, model: crate::uptime::UptimeModel) {
        let first = model.initial_event(&mut self.rng);
        self.uptime[node.0] = Some(model);
        if let Some((delay, up)) = first {
            self.schedule(delay, Event::SetNodeUp { node, up });
        }
    }

    /// Marks a node up or down immediately.
    pub fn set_node_up(&mut self, node: NodeId, up: bool) {
        self.apply_node_up(node, up);
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
    // Fault injection
    // ------------------------------------------------------------------

    /// Schedules every event of a [`FaultPlan`] on the ordinary event
    /// queue. Events whose time is already past fire "now" (still in
    /// deterministic queue order).
    ///
    /// Installing an *empty* plan is a guaranteed no-op: it schedules
    /// nothing, draws nothing from the RNG, and leaves the telemetry
    /// exposition untouched, so a fault-free run with an empty plan is
    /// byte-identical to one without this call.
    pub fn install_fault_plan(&mut self, plan: &FaultPlan) {
        if plan.is_empty() {
            return;
        }
        self.faults_installed = true;
        for ev in &plan.events {
            let delay = ev.at().since(self.now); // saturates to ZERO if past
            self.schedule(
                delay,
                Event::Fault {
                    kind: ev.kind.clone(),
                },
            );
        }
    }

    /// Applies one fault event. Unknown node/segment names are counted
    /// and traced rather than panicking, so a plan written for one
    /// topology degrades loudly-but-safely on another.
    fn apply_fault(&mut self, kind: FaultKind) {
        let resolved = match &kind {
            FaultKind::NodeCrash { node } | FaultKind::GatewayDeath { gateway: node } => {
                match self.node_by_name(node) {
                    Some(id) => {
                        self.apply_node_up(id, false);
                        true
                    }
                    None => false,
                }
            }
            FaultKind::NodeReboot { node } => match self.node_by_name(node) {
                Some(id) => {
                    self.apply_node_up(id, true);
                    true
                }
                None => false,
            },
            FaultKind::Partition { segment } => match self.segment_by_name(segment) {
                Some(id) => {
                    self.segments[id.0].partitioned = true;
                    true
                }
                None => false,
            },
            FaultKind::Heal { segment } => match self.segment_by_name(segment) {
                Some(id) => {
                    self.segments[id.0].partitioned = false;
                    true
                }
                None => false,
            },
            FaultKind::Degrade {
                segment,
                extra_loss,
                extra_latency_micros,
            } => match self.segment_by_name(segment) {
                Some(id) => {
                    let seg = &mut self.segments[id.0];
                    seg.fault_loss = extra_loss.clamp(0.0, 1.0);
                    seg.fault_latency = SimDuration::from_micros(*extra_latency_micros);
                    true
                }
                None => false,
            },
            FaultKind::ClearDegrade { segment } => match self.segment_by_name(segment) {
                Some(id) => {
                    let seg = &mut self.segments[id.0];
                    seg.fault_loss = 0.0;
                    seg.fault_latency = SimDuration::ZERO;
                    true
                }
                None => false,
            },
            FaultKind::DuplicateIp { node, ip } => match self.node_by_name(node) {
                Some(id) if !self.nodes[id.0].ifaces.is_empty() => {
                    self.nodes[id.0].ifaces[0].ip = *ip;
                    true
                }
                _ => false,
            },
            FaultKind::WrongMask { node, prefix_len } => {
                match (
                    self.node_by_name(node),
                    fremont_net::SubnetMask::from_prefix_len(*prefix_len),
                ) {
                    (Some(id), Ok(mask)) if !self.nodes[id.0].ifaces.is_empty() => {
                        // Routes are deliberately left alone: the host now
                        // *answers mask requests* with the wrong mask, which
                        // is the observable symptom the paper reports.
                        self.nodes[id.0].ifaces[0].mask = mask;
                        true
                    }
                    _ => false,
                }
            }
            FaultKind::ClockSkew { node, skew_micros } => match self.node_by_name(node) {
                Some(id) => {
                    self.nodes[id.0].clock_skew = *skew_micros;
                    true
                }
                None => false,
            },
        };
        if resolved {
            self.fault_stats.record(&kind);
        } else {
            self.fault_stats.unresolved += 1;
        }
        if self.telemetry.enabled() {
            let name = if resolved {
                kind.trace_name()
            } else {
                "fault.unresolved"
            };
            self.telemetry.event(
                name,
                kind.target(),
                SpanId::NONE,
                TelTime(self.now.as_micros()),
            );
        }
    }

    // ------------------------------------------------------------------
    // Processes
    // ------------------------------------------------------------------

    /// Spawns a process on a node; it starts at the current time.
    pub fn spawn(&mut self, node: NodeId, proc_: Box<dyn Process>) -> ProcHandle {
        let idx = self.nodes[node.0].procs.len();
        self.nodes[node.0].procs.push(Some(proc_));
        let handle = ProcHandle { node, idx };
        self.schedule(SimDuration::ZERO, Event::Start { handle });
        handle
    }

    /// Mutable, downcast access to a process (driver-side result reads).
    pub fn process_mut<T: Process>(&mut self, h: ProcHandle) -> Option<&mut T> {
        self.nodes[h.node.0].procs[h.idx]
            .as_mut()?
            .as_any_mut()
            .downcast_mut::<T>()
    }

    /// Returns `true` when the process reports itself finished.
    pub fn process_done(&self, h: ProcHandle) -> bool {
        self.nodes[h.node.0].procs[h.idx]
            .as_ref()
            .map(|p| p.done())
            .unwrap_or(true)
    }

    /// Removes a process (stops future event delivery to it).
    pub fn kill_process(&mut self, h: ProcHandle) {
        self.nodes[h.node.0].procs[h.idx] = None;
        self.taps.retain(|(_, t)| *t != h);
    }

    /// Drains observations emitted by all processes since the last drain.
    pub fn drain_observations(&mut self) -> Vec<(ProcHandle, SimTime, Observation)> {
        std::mem::take(&mut self.outbox)
    }

    // ------------------------------------------------------------------
    // Event loop
    // ------------------------------------------------------------------

    fn schedule(&mut self, delay: SimDuration, event: Event) {
        self.seq += 1;
        self.queue
            .insert((self.now + delay).as_micros(), self.seq, event);
        let depth = self.queue.len();
        if depth > self.stats.queue_depth_hwm {
            self.stats.queue_depth_hwm = depth;
        }
    }

    /// Processes one event; returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        self.step_due(u64::MAX)
    }

    /// Pops and dispatches the earliest event if it is due by
    /// `deadline`; advances the clock over any idle gap before it.
    fn step_due(&mut self, deadline: u64) -> bool {
        let Some((at, _seq, event)) = self.queue.pop_due(deadline) else {
            return false;
        };
        let at = SimTime(at);
        debug_assert!(at >= self.now, "time moves forward");
        if at > self.now {
            self.stats.idle_skipped_micros += at.since(self.now).as_micros();
            self.now = at;
        }
        self.stats.events_processed += 1;
        self.dispatch(event);
        true
    }

    /// Runs until the queue drains or `deadline` passes. The clock ends at
    /// exactly `deadline` if it was reached.
    ///
    /// With a telemetry sink attached, each call is wrapped in a
    /// `sim.run` span attributing the slice's logical work (events
    /// dispatched, frames put on the wire) to the profiler's folded
    /// stacks. The span opens at the slice's start; its work and close
    /// are stamped with the slice's end, so interior events (faults,
    /// node up/down) keep the trace stream monotone.
    pub fn run_until(&mut self, deadline: SimTime) {
        let traced = self.telemetry.enabled();
        let span = if traced {
            let at = TelTime(self.now.as_micros());
            self.telemetry.span_start("sim.run", "", SpanId::NONE, at)
        } else {
            SpanId::NONE
        };
        let events_before = self.stats.events_processed;
        let frames_before = self.frames_sent_total();
        let due = deadline.as_micros();
        while self.step_due(due) {}
        if self.now < deadline {
            // Nothing left before the deadline: the wheel's occupancy
            // bitmaps bounded the next firing past it, so the whole
            // remaining gap is provably idle and jumped in one move.
            self.stats.idle_skipped_micros += deadline.since(self.now).as_micros();
            self.now = deadline;
        }
        if traced {
            let at = TelTime(self.now.as_micros());
            let events = self.stats.events_processed - events_before;
            let frames = self.frames_sent_total() - frames_before;
            self.telemetry.work(span, "sim_events", events, at);
            self.telemetry.work(span, "frames", frames, at);
            self.telemetry
                .span_end(span, &format!("events={events} frames={frames}"), at);
        }
    }

    /// Sum of frames sent across all segments (for work attribution).
    fn frames_sent_total(&self) -> u64 {
        self.segments.iter().map(|s| s.stats.frames_sent).sum()
    }

    /// Runs for a span of simulated time.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.now + d;
        self.run_until(deadline);
    }

    fn dispatch(&mut self, event: Event) {
        match event {
            Event::FrameRx { node, iface, frame } => self.handle_frame(node, iface, &frame),
            Event::Tap { handle, frame } => self.deliver_tap(handle, &frame),
            Event::Start { handle } => self.with_proc(handle, |p, ctx| p.on_start(ctx)),
            Event::Timer { handle, token } => {
                self.with_proc(handle, |p, ctx| p.on_timer(token, ctx))
            }
            Event::SetNodeUp { node, up } => {
                self.apply_node_up(node, up);
                // Chain the next toggle from the uptime model.
                if let Some(model) = &self.uptime[node.0] {
                    if let Some((delay, next_up)) = model.next_event(up, &mut self.rng) {
                        self.schedule(delay, Event::SetNodeUp { node, up: next_up });
                    }
                }
            }
            Event::RipTick { node } => self.rip_tick(node),
            Event::ArpGc { node } => self.arp_gc(node),
            Event::DelayedSend { node, pkt } => {
                let _ = self.node_send_ip(node, pkt);
            }
            Event::TrafficTick => self.traffic_tick(),
            Event::Fault { kind } => self.apply_fault(kind),
        }
    }

    /// Expires stale ARP-pending packets. A router that fails to resolve
    /// a next hop on a connected subnet reports ICMP Host Unreachable to
    /// the packet source (RFC 1812 behavior; this is the final-hop signal
    /// traceroute sees when probing a nonexistent address on a reached
    /// subnet).
    fn arp_gc(&mut self, node: NodeId) {
        let now = self.now;
        let mut failed: Vec<(usize, Vec<u8>)> = Vec::new();
        {
            let n = &mut self.nodes[node.0];
            n.arp_pending.retain(|(_, ifc, bytes, at)| {
                if now.since(*at) < ARP_PENDING_TIMEOUT {
                    true
                } else {
                    failed.push((*ifc, bytes.clone()));
                    false
                }
            });
            n.arp.sweep(now);
        }
        if self.nodes[node.0].kind == NodeKind::Router && self.nodes[node.0].up {
            for (ifc, bytes) in failed {
                let Ok(orig) = Ipv4Packet::decode(&bytes) else {
                    continue;
                };
                // Never answer errors with errors, and skip broadcasts.
                if orig.protocol == IpProtocol::Icmp {
                    if let Ok(msg) = IcmpMessage::decode(&orig.payload) {
                        if msg.is_error() {
                            continue;
                        }
                    }
                }
                self.stats.icmp_errors += 1;
                let src_ip = self.nodes[node.0].ifaces[ifc].ip;
                let msg = unreachable_for(UnreachableCode::Host, &orig);
                self.send_reply(node, src_ip, orig.src, IpProtocol::Icmp, msg.encode(), None);
            }
        }
    }

    fn apply_node_up(&mut self, node: NodeId, up: bool) {
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
            let detail = self.nodes[node.0].name.clone();
            self.telemetry
                .event(name, &detail, SpanId::NONE, TelTime(self.now.as_micros()));
        }
    }

    fn traffic_tick(&mut self) {
        let Some(model) = &mut self.traffic else {
            return;
        };
        let (flows, next) = model.next_burst(&mut self.rng);
        for (src, dst) in flows {
            // Background chatter: a few UDP packets from src to dst.
            if !self.nodes[src.0].up {
                continue;
            }
            let src_ip = self.nodes[src.0].ifaces[0].ip;
            let pkt = Ipv4Packet::new(src_ip, dst, IpProtocol::Udp, self.traffic_payload.clone())
                .with_id(self.next_ip_id());
            let _ = self.node_send_ip(src, pkt);
        }
        if let Some(delay) = next {
            self.schedule(delay, Event::TrafficTick);
        }
    }

    fn with_proc(&mut self, handle: ProcHandle, f: impl FnOnce(&mut dyn Process, &mut ProcCtx)) {
        let Some(mut p) = self.nodes[handle.node.0].procs[handle.idx].take() else {
            return;
        };
        {
            let mut ctx = ProcCtx { sim: self, handle };
            f(p.as_mut(), &mut ctx);
        }
        self.nodes[handle.node.0].procs[handle.idx] = Some(p);
    }

    fn deliver_tap(&mut self, handle: ProcHandle, rec: &FrameRecord) {
        if self.nodes[handle.node.0].procs[handle.idx].is_some() {
            self.proc_stats_mut(handle).frames_tapped += 1;
        }
        self.with_proc(handle, |p, ctx| p.on_tap(&rec.frame, ctx));
    }

    fn deliver_ip_to_procs(&mut self, node: NodeId, pkt: &Ipv4Packet) {
        let count = self.nodes[node.0].procs.len();
        for idx in 0..count {
            let handle = ProcHandle { node, idx };
            if self.nodes[node.0].procs[idx].is_some() {
                self.proc_stats_mut(handle).packets_received += 1;
            }
            self.with_proc(handle, |p, ctx| p.on_ip(pkt, ctx));
        }
    }

    fn proc_stats_mut(&mut self, handle: ProcHandle) -> &mut ProcStats {
        self.proc_stats
            .entry((handle.node.0, handle.idx))
            .or_default()
    }

    // ------------------------------------------------------------------
    // Frame transmission
    // ------------------------------------------------------------------

    fn next_ip_id(&mut self) -> u16 {
        self.ip_id = self.ip_id.wrapping_add(1);
        self.ip_id
    }

    /// Sends a stack-originated reply/error packet with a fresh IP id.
    fn send_reply(
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

    /// The "gateway software problem" packet filter: `true` when this node
    /// silently discards UDP to the traceroute port range — applied to
    /// transit and locally-addressed traffic alike.
    fn filters_probe(&self, node: NodeId, dst_port: u16) -> bool {
        self.nodes[node.0].behavior.filter_udp_probes
            && dst_port >= fremont_net::udp::TRACEROUTE_BASE_PORT
    }

    /// Puts a frame on a node's segment: loss/collision roll, then
    /// per-receiver delivery events plus tap copies.
    fn transmit_frame(&mut self, node: NodeId, iface: usize, frame: EthernetFrame) {
        self.transmit_frame_rec(node, iface, FrameRecord::new(frame));
    }

    /// [`Sim::transmit_frame`] with a caller-prepared record (the RIP
    /// advertisement path pre-fills the decode cache and absorb key).
    /// One event record is still scheduled per matching receiver —
    /// event counts, RNG draw order, and queue-depth telemetry are
    /// identical to per-receiver cloning — but all of them share one
    /// frame allocation and decode.
    fn transmit_frame_rec(&mut self, node: NodeId, iface: usize, rec: FrameRecord) {
        if !self.nodes[node.0].up {
            return;
        }
        let frame = &rec.frame;
        let seg_id = self.nodes[node.0].ifaces[iface].segment;
        let now = self.now;
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
        let taps: Vec<ProcHandle> = self
            .taps
            .iter()
            .filter(|(s, _)| *s == seg_id)
            .map(|(_, h)| *h)
            .collect();
        for handle in taps {
            self.schedule(
                latency,
                Event::Tap {
                    handle,
                    frame: Rc::clone(&rec),
                },
            );
        }
    }

    // ------------------------------------------------------------------
    // IP output path
    // ------------------------------------------------------------------

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
                self.link_output(node, i, None, &pkt);
            }
            return Ok(());
        }

        // Directed broadcast of a *connected* subnet: link broadcast there.
        if let Some(i) = self.connected_broadcast_iface(node, dst) {
            self.link_output(node, i, None, &pkt);
            return Ok(());
        }

        let route = self.nodes[node.0]
            .routes
            .lookup(dst)
            .ok_or(SendError::NoRoute(dst))?;
        let next_hop = route.gateway.unwrap_or(dst);
        self.check_mtu(node, route.iface, &pkt)?;
        self.unicast_output(node, route.iface, next_hop, &pkt);
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

    /// Emits an IP packet on a specific interface: `next_hop = None` means
    /// link broadcast.
    fn link_output(
        &mut self,
        node: NodeId,
        iface: usize,
        next_hop: Option<Ipv4Addr>,
        pkt: &Ipv4Packet,
    ) {
        let src_mac = self.nodes[node.0].ifaces[iface].mac;
        match next_hop {
            None => {
                let frame = EthernetFrame::new(
                    MacAddr::BROADCAST,
                    src_mac,
                    EtherType::Ipv4,
                    Bytes::from(pkt.encode()),
                );
                self.transmit_frame(node, iface, frame);
            }
            Some(nh) => self.unicast_output(node, iface, nh, pkt),
        }
    }

    fn unicast_output(&mut self, node: NodeId, iface: usize, next_hop: Ipv4Addr, pkt: &Ipv4Packet) {
        let now = self.now;
        let cached = self.nodes[node.0].arp.lookup(next_hop, now);
        match cached {
            Some(dst_mac) => {
                let src_mac = self.nodes[node.0].ifaces[iface].mac;
                let frame = EthernetFrame::new(
                    dst_mac,
                    src_mac,
                    EtherType::Ipv4,
                    Bytes::from(pkt.encode()),
                );
                self.transmit_frame(node, iface, frame);
            }
            None => {
                // Queue and resolve.
                let encoded = pkt.encode();
                self.nodes[node.0]
                    .arp_pending
                    .push((next_hop, iface, encoded, now));
                self.schedule(ARP_PENDING_TIMEOUT, Event::ArpGc { node });
                self.send_arp_request(node, iface, next_hop);
            }
        }
    }

    fn send_arp_request(&mut self, node: NodeId, iface: usize, target: Ipv4Addr) {
        self.stats.arp_requests += 1;
        let my = &self.nodes[node.0].ifaces[iface];
        let req = ArpPacket::request(my.mac, my.ip, target);
        let frame = EthernetFrame::new(
            MacAddr::BROADCAST,
            my.mac,
            EtherType::Arp,
            Bytes::from(req.encode()),
        );
        self.transmit_frame(node, iface, frame);
    }

    // ------------------------------------------------------------------
    // Receive path
    // ------------------------------------------------------------------

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

    fn handle_arp(&mut self, node: NodeId, iface: usize, arp: &ArpPacket) {
        match arp.op {
            ArpOp::Request => {
                let my_ip = self.nodes[node.0].ifaces[iface].ip;
                let my_mac = self.nodes[node.0].ifaces[iface].mac;
                let for_me = arp.target_ip == my_ip;
                let proxy = !for_me && self.should_proxy_arp(node, iface, arp.target_ip);
                if for_me || proxy {
                    if for_me {
                        // Standard optimization: learn the requester.
                        let now = self.now;
                        self.nodes[node.0]
                            .arp
                            .insert(arp.sender_ip, arp.sender_mac, now);
                    }
                    let reply = ArpPacket {
                        op: ArpOp::Reply,
                        sender_mac: my_mac,
                        sender_ip: arp.target_ip,
                        target_mac: arp.sender_mac,
                        target_ip: arp.sender_ip,
                    };
                    let frame = EthernetFrame::new(
                        arp.sender_mac,
                        my_mac,
                        EtherType::Arp,
                        Bytes::from(reply.encode()),
                    );
                    self.transmit_frame(node, iface, frame);
                }
            }
            ArpOp::Reply => {
                let now = self.now;
                self.nodes[node.0]
                    .arp
                    .insert(arp.sender_ip, arp.sender_mac, now);
                // Flush pending packets for the resolved address.
                let ready: Vec<(usize, Vec<u8>)> = {
                    let n = &mut self.nodes[node.0];
                    let mut out = Vec::new();
                    n.arp_pending.retain(|(nh, ifc, bytes, _)| {
                        if *nh == arp.sender_ip {
                            out.push((*ifc, bytes.clone()));
                            false
                        } else {
                            true
                        }
                    });
                    out
                };
                for (ifc, bytes) in ready {
                    if let Ok(pkt) = Ipv4Packet::decode(&bytes) {
                        self.unicast_output(node, ifc, arp.sender_ip, &pkt);
                    }
                }
            }
        }
    }

    /// Proxy-ARP policy: routers configured with `proxy_arp_for` answer for
    /// addresses in those subnets when the real owner is elsewhere.
    fn should_proxy_arp(&self, node: NodeId, iface: usize, target: Ipv4Addr) -> bool {
        let n = &self.nodes[node.0];
        if n.kind != NodeKind::Router {
            return false;
        }
        n.behavior.proxy_arp_for.iter().any(|s| s.contains(target))
            && n.routes
                .lookup(target)
                .map(|r| r.iface != iface)
                .unwrap_or(false)
    }

    fn handle_ip(&mut self, node: NodeId, iface: usize, pkt: &Ipv4Packet, rec: &FrameRecord) {
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
                self.link_output(node, out_iface, None, &pkt);
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
                self.unicast_output(node, route.iface, next_hop, &pkt);
            }
            None => {
                self.stats.icmp_errors += 1;
                let src_ip = self.nodes[node.0].ifaces[in_iface].ip;
                let msg = unreachable_for(UnreachableCode::Net, &pkt);
                self.send_reply(node, src_ip, pkt.src, IpProtocol::Icmp, msg.encode(), None);
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
                let my = &self.nodes[node.0].ifaces[iface];
                let reply = IcmpMessage::MaskReply {
                    ident,
                    seq,
                    mask: my.mask.as_addr(),
                };
                let src_ip = my.ip;
                self.send_reply(
                    node,
                    src_ip,
                    pkt.src,
                    IpProtocol::Icmp,
                    reply.encode(),
                    None,
                );
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
                    let reply = dgram.echo_reply();
                    let src_ip = self.nodes[node.0].ifaces[iface].ip;
                    self.send_reply(node, src_ip, pkt.src, IpProtocol::Udp, reply.encode(), None);
                }
            }
            RIP_PORT => {
                let rip = rec
                    .rip
                    .get_or_init(|| RipPacket::decode(&dgram.payload).ok().map(Rc::new));
                if let Some(rip) = rip {
                    let rip = Rc::clone(rip);
                    self.handle_rip(node, iface, pkt, dgram, &rip, rec.absorb_key);
                }
            }
            DNS_PORT => {
                if self.nodes[node.0].dns.is_some() {
                    if let Ok(query) = DnsMessage::decode(&dgram.payload) {
                        let answer = self.nodes[node.0]
                            .dns
                            .as_ref()
                            .expect("checked")
                            .answer(&query);
                        let reply = UdpDatagram::new(
                            DNS_PORT,
                            dgram.src_port,
                            Bytes::from(answer.encode()),
                        );
                        let src_ip = self.nodes[node.0].ifaces[iface].ip;
                        self.send_reply(
                            node,
                            src_ip,
                            pkt.src,
                            IpProtocol::Udp,
                            reply.encode(),
                            None,
                        );
                    }
                }
            }
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
                    let src_ip = self.nodes[node.0].ifaces[iface].ip;
                    self.send_reply(node, src_ip, pkt.src, IpProtocol::Icmp, msg.encode(), None);
                }
            }
        }
    }

    fn handle_rip(
        &mut self,
        node: NodeId,
        iface: usize,
        pkt: &Ipv4Packet,
        dgram: &UdpDatagram,
        rip: &Rc<RipPacket>,
        absorb_key: Option<u32>,
    ) {
        match rip.command {
            fremont_net::RipCommand::Response => {
                // Hosts remember learned routes (feeds promiscuous
                // rebroadcast). The fold into `rip_learned` is deferred:
                // queue the shared packet and compact lazily. A keyed
                // advertisement (a cached template whose bytes cannot
                // have changed) is skipped outright on repeat receipt —
                // re-applying it would be a no-op min-merge anyway.
                let n = &mut self.nodes[node.0];
                if let Some(key) = absorb_key {
                    if n.rip_absorb_test_and_set(key) {
                        return;
                    }
                }
                n.rip_pending.push(Rc::clone(rip));
                if n.rip_pending.len() >= 64 {
                    n.compact_rip_learned();
                }
            }
            fremont_net::RipCommand::Request => {
                // RFC 1058 §3.4.1: a whole-table request ("RIP Poll") gets
                // the full routing table back, unicast to the requester.
                // Only RIP speakers answer; "not all routers use RIP or
                // respond properly to RIP Request or RIP Poll queries".
                let is_poll = rip.entries.len() == 1
                    && rip.entries[0].addr.is_unspecified()
                    && rip.entries[0].metric >= fremont_net::rip::METRIC_INFINITY;
                let speaks_rip = self.nodes[node.0].behavior.rip.is_some();
                if !is_poll || !speaks_rip || self.nodes[node.0].kind != NodeKind::Router {
                    return;
                }
                let entries: Vec<RipEntry> = self.nodes[node.0]
                    .routes
                    .routes()
                    .iter()
                    .map(|r| RipEntry {
                        addr: r.dest.network(),
                        metric: (r.metric + 1).min(fremont_net::rip::METRIC_INFINITY),
                    })
                    .collect();
                let src_ip = self.nodes[node.0].ifaces[iface].ip;
                for packet in fremont_net::rip::split_into_packets(&entries) {
                    let reply =
                        UdpDatagram::new(RIP_PORT, dgram.src_port, Bytes::from(packet.encode()));
                    self.send_reply(node, src_ip, pkt.src, IpProtocol::Udp, reply.encode(), None);
                }
            }
        }
    }

    fn handle_dns_tcp(&mut self, node: NodeId, pkt: &Ipv4Packet) {
        let Some(dns) = self.nodes[node.0].dns.as_ref() else {
            return;
        };
        let Ok(query) = DnsMessage::decode(&pkt.payload) else {
            return;
        };
        if query.is_response {
            return; // Our own reply echoed back; processes already saw it.
        }
        let answer = dns.answer(&query);
        // Answer only queries addressed to one of our interfaces: a zone
        // transfer aimed at a broadcast or host-zero address is dropped.
        let Some(my_iface) = self.nodes[node.0].iface_with_ip(pkt.dst) else {
            return;
        };
        let src_ip = self.nodes[node.0].ifaces[my_iface].ip;
        self.send_reply(
            node,
            src_ip,
            pkt.src,
            IpProtocol::Tcp,
            answer.encode(),
            None,
        );
    }

    fn rip_tick(&mut self, node: NodeId) {
        let (up, cfg) = {
            let n = &self.nodes[node.0];
            match &n.behavior.rip {
                Some(cfg) => (n.up, cfg.clone()),
                None => return,
            }
        };
        if up {
            self.send_rip_advertisements(node, &cfg);
        }
        // Reschedule with small jitter (RFC 1058 recommends it).
        let jitter = SimDuration::from_micros(self.rng.gen_range(0..2_000_000));
        self.schedule(cfg.interval + jitter, Event::RipTick { node });
    }

    fn send_rip_advertisements(&mut self, node: NodeId, cfg: &crate::node::RipConfig) {
        let iface_count = self.nodes[node.0].ifaces.len();
        if cfg.promiscuous {
            // The learned-route list is about to be read: fold in
            // everything heard since the last compaction.
            self.nodes[node.0].compact_rip_learned();
        }
        for ifc in 0..iface_count {
            // A tick's advertisement content is a pure function of the
            // node's route state: the static table for normal speakers,
            // the learned-route list for promiscuous rebroadcasters.
            // Both carry a monotone version, so the split + UDP encode is
            // cached per interface and only the IP identification (and
            // therefore the frame bytes) is stamped fresh per tick. Each
            // cached packet gets an absorb key — receivers fold a given
            // identity once and skip byte-identical repeats.
            let version = if cfg.promiscuous {
                self.nodes[node.0].rip_version
            } else {
                self.nodes[node.0].routes.version()
            };
            let stale = match self.rip_advert_cache.get(&(node.0, ifc)) {
                Some(t) => t.version != version,
                None => true,
            };
            if stale {
                let n = &self.nodes[node.0];
                let entries: Vec<RipEntry> = if cfg.promiscuous {
                    // Everything learned, regardless of origin — the
                    // misbehavior RIPwatch flags.
                    n.rip_learned
                        .iter()
                        .map(|(a, m)| RipEntry {
                            addr: *a,
                            metric: (m + 1).min(fremont_net::rip::METRIC_INFINITY),
                        })
                        .collect()
                } else {
                    n.routes
                        .routes()
                        .iter()
                        .filter(|r| !cfg.split_horizon || r.iface != ifc)
                        .map(|r| RipEntry {
                            addr: r.dest.network(),
                            metric: (r.metric + 1).min(fremont_net::rip::METRIC_INFINITY),
                        })
                        .collect()
                };
                let packets = fremont_net::rip::split_into_packets(&entries)
                    .into_iter()
                    .map(|p| {
                        let dgram = UdpDatagram::new(RIP_PORT, RIP_PORT, Bytes::from(p.encode()));
                        let absorb_key = self.next_absorb_key;
                        self.next_absorb_key += 1;
                        RipAdvertPacket {
                            rip: Rc::new(p),
                            udp_bytes: Bytes::from(dgram.encode()),
                            absorb_key,
                        }
                    })
                    .collect();
                self.rip_advert_cache
                    .insert((node.0, ifc), RipAdvertTemplate { version, packets });
            }
            let tmpl = &self.rip_advert_cache[&(node.0, ifc)];
            let packets: Vec<(Rc<RipPacket>, Bytes, u32)> = tmpl
                .packets
                .iter()
                .map(|p| (Rc::clone(&p.rip), p.udp_bytes.clone(), p.absorb_key))
                .collect();
            if packets.is_empty() {
                continue;
            }
            let src_ip = self.nodes[node.0].ifaces[ifc].ip;
            let bcast = self.nodes[node.0].ifaces[ifc].subnet().directed_broadcast();
            for (rip, udp_bytes, key) in packets {
                let id = self.next_ip_id();
                let out = Ipv4Packet::new(src_ip, bcast, IpProtocol::Udp, udp_bytes)
                    .with_ttl(1)
                    .with_id(id);
                self.broadcast_rip(node, ifc, &out, rip, Some(key));
            }
        }
    }

    /// Broadcasts a RIP advertisement with the decoded packet pre-filled
    /// on the frame record, so no receiver re-parses the UDP payload.
    fn broadcast_rip(
        &mut self,
        node: NodeId,
        iface: usize,
        pkt: &Ipv4Packet,
        rip: Rc<RipPacket>,
        absorb_key: Option<u32>,
    ) {
        let src_mac = self.nodes[node.0].ifaces[iface].mac;
        let frame = EthernetFrame::new(
            MacAddr::BROADCAST,
            src_mac,
            EtherType::Ipv4,
            Bytes::from(pkt.encode()),
        );
        let mut rec = FrameRecord::new(frame);
        let _ = rec.rip.set(Some(rip));
        rec.absorb_key = absorb_key;
        self.transmit_frame_rec(node, iface, rec);
    }
}

/// The capability surface a process sees (its "kernel interface").
pub struct ProcCtx<'a> {
    pub(crate) sim: &'a mut Sim,
    pub(crate) handle: ProcHandle,
}

impl ProcCtx<'_> {
    /// Current time *as this node's clock reads it*. On a healthy host
    /// this is true simulated time; under a
    /// [`crate::faults::FaultKind::ClockSkew`] fault it is shifted by
    /// the node's offset — processes timestamp their observations with
    /// this clock, which is exactly how a real host with a broken clock
    /// poisons a journal.
    pub fn now(&self) -> SimTime {
        let skew = self.sim.nodes[self.handle.node.0].clock_skew;
        if skew == 0 {
            return self.sim.now;
        }
        let shifted = (self.sim.now.as_micros() as i64).saturating_add(skew);
        SimTime(shifted.max(0) as u64)
    }

    /// The hosting node's interfaces.
    pub fn ifaces(&self) -> Vec<IfaceInfo> {
        self.sim.nodes[self.handle.node.0]
            .ifaces
            .iter()
            .enumerate()
            .map(|(index, i)| IfaceInfo {
                index,
                mac: i.mac,
                ip: i.ip,
                mask: i.mask,
            })
            .collect()
    }

    /// The primary interface (index 0).
    pub fn primary_iface(&self) -> IfaceInfo {
        self.ifaces()[0]
    }

    /// Sets a timer; `token` is returned in
    /// [`crate::process::Process::on_timer`].
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        let handle = self.handle;
        self.sim.schedule(delay, Event::Timer { handle, token });
    }

    /// Sends a UDP datagram (routed through the host stack).
    pub fn send_udp(
        &mut self,
        dst: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        payload: Bytes,
    ) -> Result<(), SendError> {
        let dgram = UdpDatagram::new(src_port, dst_port, payload);
        self.send_ip(
            dst,
            IpProtocol::Udp,
            Bytes::from(dgram.encode()),
            None,
            None,
        )
    }

    /// Sends an ICMP message.
    pub fn send_icmp(&mut self, dst: Ipv4Addr, msg: &IcmpMessage) -> Result<(), SendError> {
        self.send_ip(dst, IpProtocol::Icmp, Bytes::from(msg.encode()), None, None)
    }

    /// Sends a raw IP packet with optional TTL and identification.
    pub fn send_ip(
        &mut self,
        dst: Ipv4Addr,
        protocol: IpProtocol,
        payload: Bytes,
        ttl: Option<u8>,
        id: Option<u16>,
    ) -> Result<(), SendError> {
        let node = self.handle.node;
        let src = self.source_ip_for(dst);
        let assigned_id = id.unwrap_or_else(|| self.sim.next_ip_id());
        let mut pkt = Ipv4Packet::new(src, dst, protocol, payload).with_id(assigned_id);
        if let Some(t) = ttl {
            pkt.ttl = t;
        }
        let handle = self.handle;
        let res = self.sim.node_send_ip(node, pkt);
        if res.is_ok() {
            self.sim.proc_stats_mut(handle).packets_sent += 1;
        }
        res
    }

    fn source_ip_for(&self, dst: Ipv4Addr) -> Ipv4Addr {
        let n = &self.sim.nodes[self.handle.node.0];
        n.routes
            .lookup(dst)
            .map(|r| n.ifaces[r.iface].ip)
            .unwrap_or(n.ifaces[0].ip)
    }

    /// Snapshot of the host's ARP cache (EtherHostProbe's readback).
    pub fn arp_snapshot(&self) -> Vec<(Ipv4Addr, MacAddr)> {
        let node = &self.sim.nodes[self.handle.node.0];
        node.arp.snapshot(self.sim.now)
    }

    /// Enables/disables the promiscuous tap on the primary interface's
    /// segment (the SunOS NIT; "this module must be run with system
    /// privileges").
    pub fn enable_tap(&mut self, on: bool) {
        let seg = self.sim.nodes[self.handle.node.0].ifaces[0].segment;
        let handle = self.handle;
        if on {
            if !self.sim.taps.contains(&(seg, handle)) {
                self.sim.taps.push((seg, handle));
            }
        } else {
            self.sim.taps.retain(|(s, h)| !(*s == seg && *h == handle));
        }
    }

    /// Emits a discovered fact toward the Journal.
    pub fn emit(&mut self, obs: Observation) {
        // Observations carry the *node's* clock, so a clock-skewed host
        // stamps its reports wrongly (see `ProcCtx::now`). Kernel timers
        // (`set_timer`) stay on true simulated time.
        let at = self.now();
        let handle = self.handle;
        self.sim.outbox.push((handle, at, obs));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Iface;
    use fremont_net::SubnetMask;

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

        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
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
