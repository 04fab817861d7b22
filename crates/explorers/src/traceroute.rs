//! The Traceroute Explorer Module.
//!
//! "Fremont's Traceroute Explorer Module uses this mechanism to determine
//! the structure of the network surrounding the host on which the module
//! is running ... by using the traceroute scheme to identify gateways and
//! the subnets to which those gateways are connected."
//!
//! Faithful to the paper's description:
//! * probes **three addresses per target subnet** — host zero, `.1`, and
//!   `.2` — to maximize the chance of both a reply from the subnet and a
//!   final Time Exceeded from its gateway;
//! * runs destinations **in parallel**, limited to 8 packets/second and at
//!   most 80 outstanding probes, with a 10-second probe timeout;
//! * **stops on routing loops** and at a boundary (the "national
//!   backbone" stop list);
//! * tolerates the broken-router modes (silent drops, TTL-reflected
//!   errors) by giving up on a destination after repeated timeouts;
//! * sees only the **near-side interface** of each transit router, so a
//!   single run discovers "half the interfaces traversed".

use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;

use bytes::Bytes;
use fremont_journal::observation::{Fact, Observation, Source};
use fremont_net::icmp::UnreachableCode;
use fremont_net::udp::TRACEROUTE_BASE_PORT;
use fremont_net::{IcmpMessage, IpProtocol, Ipv4Packet, Subnet, SubnetMask, UdpDatagram};
use fremont_netsim::engine::ProcCtx;
use fremont_netsim::process::Process;
use fremont_netsim::time::{SimDuration, SimTime};

/// Highest TTL tried per destination.
const MAX_TTL: u8 = 30;
/// Probe timeout (paper: ten seconds).
const PROBE_TIMEOUT: SimDuration = SimDuration::from_secs(10);
/// Gap between transmissions (paper: ≤ 8 packets/second).
const SEND_INTERVAL: SimDuration = SimDuration::from_millis(125);
/// Maximum outstanding probes (paper: up to 80).
const MAX_OUTSTANDING: usize = 80;
/// Mask assumed when grouping hop addresses into subnets (the real module
/// took masks from the Journal; /24 matches the campus).
const MASK_HINT: SubnetMask = SubnetMask::CLASS_C;
/// Consecutive probe timeouts on one destination before giving up.
const MAX_TIMEOUTS: u8 = 2;

/// Terminal status of one traced destination.
#[derive(Clone, Copy, PartialEq, Eq)]
enum TraceStatus {
    /// Still being probed.
    Active,
    /// A final (Port/Host/Protocol Unreachable) reply arrived from this
    /// address.
    Reached(Ipv4Addr),
    /// The same hop appeared twice: routing loop.
    Loop,
    /// A hop fell outside the configured boundary.
    Boundary,
    /// Too many timeouts or TTL exhausted.
    GaveUp,
    /// A transit router reported the network unreachable.
    Unreachable,
}

/// Per-destination trace state.
struct Trace {
    /// Probed destination address.
    dest: Ipv4Addr,
    /// The target subnet this destination belongs to.
    subnet: Subnet,
    /// Hop addresses by TTL (index 0 = TTL 1); `None` = timeout at that
    /// TTL.
    hops: Vec<Option<Ipv4Addr>>,
    /// Terminal status.
    status: TraceStatus,
    ttl: u8,
    awaiting: Option<u16>,
    timeouts: u8,
}

/// The traceroute module.
pub struct Traceroute {
    boundary: Subnet,
    traces: Vec<Trace>,
    /// Outstanding probes: destination port → (trace idx, ttl, sent at).
    outstanding: HashMap<u16, (usize, u8, SimTime)>,
    next_port: u16,
    cursor: usize,
    finished: bool,
}

const TIMER_TICK: u64 = 1;

impl Traceroute {
    /// Creates the module over its Table 3 input, the subnets to trace
    /// toward: three destinations per target subnet. A trace stops once a
    /// hop falls outside `boundary`, the paper's stop list: it "stops
    /// tracing towards a particular destination if that trace reaches any
    /// of several national backbone networks".
    pub fn new(targets: Vec<Subnet>, boundary: Subnet) -> Self {
        let mut traces = Vec::with_capacity(targets.len() * 3);
        for subnet in targets {
            // Host zero plus the two lowest host numbers: "although one of
            // those addresses may actually be the interface address of the
            // gateway ... the other address will not be that same gateway".
            for n in 0..3u32 {
                if let Some(dest) = subnet.nth(n) {
                    traces.push(Trace {
                        dest,
                        subnet,
                        hops: Vec::new(),
                        status: TraceStatus::Active,
                        ttl: 1,
                        awaiting: None,
                        timeouts: 0,
                    });
                }
            }
        }
        Traceroute {
            boundary,
            traces,
            outstanding: HashMap::new(),
            next_port: TRACEROUTE_BASE_PORT,
            cursor: 0,
            finished: false,
        }
    }

    /// Starts every trace at `ttl` instead of 1. The paper's future-work
    /// optimization: "if the network to be traced is only reachable
    /// through node G, and if G is exactly and always H hops away ... all
    /// traces can start with a TTL of H+1 rather than 1, because every
    /// packet will follow the same path for the first H hops."
    pub fn with_start_ttl(mut self, ttl: u8) -> Self {
        for t in &mut self.traces {
            t.ttl = ttl.max(1);
        }
        self
    }

    /// Target subnets confirmed reachable (a final reply arrived for at
    /// least one of their three destinations).
    pub fn reached_subnets(&self) -> Vec<Subnet> {
        let mut v: Vec<Subnet> = self
            .traces
            .iter()
            .filter(|t| matches!(t.status, TraceStatus::Reached(_)))
            .map(|t| t.subnet)
            .collect();
        v.sort();
        v.dedup();
        v
    }

    fn tick(&mut self, ctx: &mut ProcCtx<'_>) {
        if self.finished {
            return;
        }
        self.expire(ctx.now());
        self.fill_pipeline(ctx);
        if self.all_terminal() && self.outstanding.is_empty() {
            self.finalize(ctx);
            return;
        }
        ctx.set_timer(SEND_INTERVAL, TIMER_TICK);
    }

    fn expire(&mut self, now: SimTime) {
        let expired: Vec<u16> = self
            .outstanding
            .iter()
            .filter(|(_, (_, _, at))| now.since(*at) >= PROBE_TIMEOUT)
            .map(|(p, _)| *p)
            .collect();
        for port in expired {
            let Some((idx, ttl, _)) = self.outstanding.remove(&port) else {
                continue;
            };
            let t = &mut self.traces[idx];
            if t.awaiting != Some(port) {
                continue; // A stale reply for a superseded probe.
            }
            t.awaiting = None;
            record_hop(t, ttl, None);
            t.timeouts += 1;
            if t.timeouts >= MAX_TIMEOUTS || t.ttl >= MAX_TTL {
                t.status = TraceStatus::GaveUp;
            } else {
                t.ttl += 1;
            }
        }
    }

    /// Sends at most one probe per tick ("ensures that no more than eight
    /// packets per second appear on the network").
    fn fill_pipeline(&mut self, ctx: &mut ProcCtx<'_>) {
        if self.outstanding.len() >= MAX_OUTSTANDING {
            return;
        }
        let n = self.traces.len();
        for _ in 0..n {
            let idx = self.cursor % n.max(1);
            self.cursor += 1;
            let t = &mut self.traces[idx];
            if t.status != TraceStatus::Active || t.awaiting.is_some() {
                continue;
            }
            // Allocate a fresh improbable port.
            self.next_port = self.next_port.wrapping_add(1);
            if self.next_port < TRACEROUTE_BASE_PORT {
                self.next_port = TRACEROUTE_BASE_PORT;
            }
            let port = self.next_port;
            let dgram = UdpDatagram::new(40000, port, Bytes::from_static(&[0u8; 12]));
            let dest = t.dest;
            let ttl = t.ttl;
            t.awaiting = Some(port);
            self.outstanding.insert(port, (idx, ttl, ctx.now()));
            if ctx
                .send_ip(
                    dest,
                    IpProtocol::Udp,
                    Bytes::from(dgram.encode()),
                    Some(ttl),
                    None,
                )
                .is_err()
            {
                // The stack refused the probe (no route): don't wait out
                // the full timeout for a packet that never left.
                self.outstanding.remove(&port);
                let t = &mut self.traces[idx];
                t.awaiting = None;
                t.status = TraceStatus::Unreachable;
            }
            return;
        }
    }

    fn all_terminal(&self) -> bool {
        self.traces.iter().all(|t| t.status != TraceStatus::Active)
    }

    /// Emits Journal observations synthesized from the collected traces.
    ///
    /// For a path `h1, h2, ..., hk` toward subnet `T`: hop `h_i` is the
    /// near-side interface of gateway `i`, which is also attached to the
    /// subnet containing `h_(i+1)` (it forwarded the probe onto it). If a
    /// final reply arrived from `f`, the last gateway connects its hop
    /// subnet and `T` — even when `f` itself is the only evidence and "the
    /// address of the interface on that subnet" is unknown.
    fn finalize(&mut self, ctx: &mut ProcCtx<'_>) {
        let sub_of = |ip: Ipv4Addr| Subnet::containing(ip, MASK_HINT);
        let mut emitted_gateways: HashSet<(Ipv4Addr, Subnet)> = HashSet::new();
        let mut emitted_subnets: HashSet<Subnet> = HashSet::new();
        let mut observations: Vec<Observation> = Vec::new();

        for t in &self.traces {
            // Keep TTL positions: a gateway may only be linked to the next
            // hop's subnet when that hop answered at the *adjacent* TTL —
            // a silent router in between means the two visible hops do NOT
            // share a wire.
            let hops: Vec<(usize, Ipv4Addr)> = t
                .hops
                .iter()
                .enumerate()
                .filter_map(|(i, h)| h.map(|a| (i, a)))
                .collect();
            for (k, &(ttl_i, h)) in hops.iter().enumerate() {
                let mut subnets = vec![sub_of(h)];
                if let Some(&(ttl_j, next)) = hops.get(k + 1) {
                    if ttl_j == ttl_i + 1 && sub_of(next) != sub_of(h) {
                        subnets.push(sub_of(next));
                    }
                }
                let is_last_recorded = ttl_i + 1 == t.hops.len();
                if let (true, true, TraceStatus::Reached(f)) =
                    (k + 1 == hops.len(), is_last_recorded, t.status)
                {
                    // Last transit gateway also touches the final subnet —
                    // but only when the reply came right after this hop
                    // (no timed-out TTLs in between).
                    if sub_of(f) != sub_of(h) {
                        subnets.push(sub_of(f));
                    }
                }
                let key_new = subnets.iter().any(|s| emitted_gateways.insert((h, *s)));
                if key_new {
                    observations.push(Observation::new(
                        Source::Traceroute,
                        Fact::Gateway {
                            interface_ips: vec![h],
                            interface_names: vec![],
                            subnets: subnets.clone(),
                        },
                    ));
                }
                for s in subnets {
                    if emitted_subnets.insert(s) {
                        observations.push(Observation::subnet(Source::Traceroute, s, true));
                    }
                }
            }
            if let TraceStatus::Reached(f) = t.status {
                // The target subnet exists; the responder is an interface.
                if emitted_subnets.insert(t.subnet) {
                    observations.push(Observation::subnet(Source::Traceroute, t.subnet, true));
                }
                observations.push(Observation::ip_alive(Source::Traceroute, f));
                // A final responder answering for a different target
                // address from within the subnet is a gateway interface on
                // that subnet.
                if f != t.dest && t.subnet.contains(f) && emitted_gateways.insert((f, t.subnet)) {
                    observations.push(Observation::new(
                        Source::Traceroute,
                        Fact::Gateway {
                            interface_ips: vec![f],
                            interface_names: vec![],
                            subnets: vec![t.subnet],
                        },
                    ));
                }
            }
        }
        for o in observations {
            ctx.emit(o);
        }
        self.finished = true;
    }

    fn on_icmp(&mut self, pkt: &Ipv4Packet, msg: &IcmpMessage) {
        let Some(embedded) = msg.embedded_packet() else {
            return;
        };
        let Some((_, dst_port)) = embedded.udp_ports() else {
            return;
        };
        let Some((idx, ttl, _)) = self.outstanding.remove(&dst_port) else {
            return;
        };
        let t = &mut self.traces[idx];
        if t.awaiting == Some(dst_port) {
            t.awaiting = None;
        }
        if t.status != TraceStatus::Active {
            return;
        }
        match msg {
            IcmpMessage::TimeExceeded { .. } => {
                // Routing-loop guard: the same router answering at two
                // TTLs means the probe is circling.
                if t.hops.iter().flatten().any(|h| *h == pkt.src) {
                    t.status = TraceStatus::Loop;
                    return;
                }
                record_hop(t, ttl, Some(pkt.src));
                t.timeouts = 0;
                if !self.boundary.contains(pkt.src) {
                    t.status = TraceStatus::Boundary;
                    return;
                }
                if t.ttl >= MAX_TTL {
                    t.status = TraceStatus::GaveUp;
                } else {
                    t.ttl += 1;
                }
            }
            IcmpMessage::DestinationUnreachable { code, .. } => match code {
                UnreachableCode::Port | UnreachableCode::Protocol | UnreachableCode::Host => {
                    t.status = TraceStatus::Reached(pkt.src);
                }
                _ => {
                    t.status = TraceStatus::Unreachable;
                }
            },
            _ => {}
        }
    }
}

fn record_hop(t: &mut Trace, ttl: u8, addr: Option<Ipv4Addr>) {
    let i = usize::from(ttl).saturating_sub(1);
    if t.hops.len() <= i {
        t.hops.resize(i + 1, None);
    }
    t.hops[i] = addr;
}

impl Process for Traceroute {
    fn on_start(&mut self, ctx: &mut ProcCtx<'_>) {
        if self.traces.is_empty() {
            self.finished = true;
            return;
        }
        self.tick(ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut ProcCtx<'_>) {
        if token == TIMER_TICK {
            self.tick(ctx);
        }
    }

    fn on_ip(&mut self, pkt: &Ipv4Packet, _ctx: &mut ProcCtx<'_>) {
        if pkt.protocol != IpProtocol::Icmp {
            return;
        }
        let Ok(msg) = IcmpMessage::decode(&pkt.payload) else {
            return;
        };
        if msg.is_error() {
            self.on_icmp(pkt, &msg);
        }
    }

    fn done(&self) -> bool {
        self.finished
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{line3, subnets};
    use fremont_netsim::node::TracerouteBug;

    fn subnet(s: &str) -> Subnet {
        s.parse().unwrap()
    }

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    /// What one finished run reported.
    struct Run {
        obs: Vec<Observation>,
        reached: Vec<Subnet>,
        sent: u64,
    }

    impl Run {
        /// The distinct addresses of the `Gateway` facts, ascending.
        fn gateways(&self) -> Vec<Ipv4Addr> {
            let mut v: Vec<Ipv4Addr> = self
                .obs
                .iter()
                .flat_map(|o| match &o.fact {
                    Fact::Gateway { interface_ips, .. } => interface_ips.clone(),
                    _ => Vec::new(),
                })
                .collect();
            v.sort();
            v.dedup();
            v
        }

        fn claims_subnet(&self, s: Subnet) -> bool {
            subnets(&self.obs).contains(&s)
        }
    }

    /// Runs `tr` from "left" on `line3` (after `mutate`) until it
    /// finishes.
    fn run_with(
        mutate: impl FnOnce(&mut fremont_netsim::engine::Sim, &fremont_netsim::builder::Topology),
        tr: Traceroute,
    ) -> Run {
        let (mut sim, topo) = line3();
        mutate(&mut sim, &topo);
        let left = topo.nodes_by_name["left"];
        let h = sim.spawn(left, Box::new(tr));
        sim.run_for(SimDuration::from_mins(10));
        assert!(sim.process_done(h), "traceroute must finish");
        let reached = sim.process_mut::<Traceroute>(h).unwrap().reached_subnets();
        Run {
            obs: sim.drain_observations_of(h),
            reached,
            sent: sim.proc_stats(h).packets_sent,
        }
    }

    fn run_trace(
        mutate: impl FnOnce(&mut fremont_netsim::engine::Sim, &fremont_netsim::builder::Topology),
        targets: Vec<Subnet>,
    ) -> Run {
        run_with(mutate, Traceroute::new(targets, subnet("10.0.0.0/8")))
    }

    #[test]
    fn traces_two_hops_to_far_subnet() {
        let run = run_trace(|_, _| {}, vec![subnet("10.1.3.0/24")]);
        // Three destinations: `.0` and `.1` end at r2 after two probes,
        // `.2` takes a third.
        assert_eq!(run.sent, 7, "three destinations per subnet");
        // At least one destination reached a final reply.
        assert_eq!(run.reached, [subnet("10.1.3.0/24")]);
        // Hops are the near-side router interfaces: r1 @ 10.1.1.1, r2 @ 10.1.2.2.
        let gws = run.gateways();
        assert!(gws.contains(&ip("10.1.1.1")), "{gws:?}");
        assert!(gws.contains(&ip("10.1.2.2")), "{gws:?}");
        // Far-side transit interfaces (10.1.2.1) are NOT seen as hops —
        // "the Traceroute module will only discover half the interfaces".
        assert!(!gws.contains(&ip("10.1.2.1")), "{gws:?}");
        // Gateway observations link hop subnets: r1 connects 10.1.1/24
        // and 10.1.2/24.
        let obs = &run.obs;
        let r1_links = obs.iter().any(|o| {
            matches!(&o.fact, Fact::Gateway { interface_ips, subnets, .. }
                if interface_ips.contains(&ip("10.1.1.1"))
                && subnets.contains(&subnet("10.1.1.0/24"))
                && subnets.contains(&subnet("10.1.2.0/24")))
        });
        assert!(r1_links, "r1 linked to both its subnets: {obs:#?}");
        // And the target subnet is reported to exist.
        assert!(run.claims_subnet(subnet("10.1.3.0/24")));
    }

    #[test]
    fn local_subnet_needs_no_hops() {
        let run = run_trace(|_, _| {}, vec![subnet("10.1.1.0/24")]);
        assert_eq!(run.reached, [subnet("10.1.1.0/24")]);
        // No transit router involved: no hop, so no gateway, recorded.
        assert!(run.gateways().is_empty(), "{:?}", run.obs);
    }

    #[test]
    fn silent_drop_router_hides_itself_but_probe_still_arrives() {
        let run = run_trace(
            |sim, topo| {
                let r2 = topo.nodes_by_name["r2"];
                sim.nodes[r2.0].behavior.traceroute_bug = TracerouteBug::SilentDrop;
            },
            vec![subnet("10.1.3.0/24")],
        );
        // r2 never sends Time Exceeded, so its interface is unseen...
        let gws = run.gateways();
        assert!(!gws.contains(&ip("10.1.2.2")), "{gws:?}");
        // ...but after the timeout the TTL grows past it and the probes
        // still reach the target subnet.
        assert_eq!(run.reached, [subnet("10.1.3.0/24")]);
    }

    #[test]
    fn probe_filtering_router_blocks_discovery() {
        let run = run_trace(
            |sim, topo| {
                let r2 = topo.nodes_by_name["r2"];
                sim.nodes[r2.0].behavior.filter_udp_probes = true;
            },
            vec![subnet("10.1.3.0/24")],
        );
        // All probes die at the filtering gateway: each destination gives
        // up after two timeouts, `.0` and `.1` past r1's hop (3 probes
        // each), `.2` past r2's Time Exceeded too (4).
        assert!(run.reached.is_empty());
        assert_eq!(run.sent, 10, "{:?}", run.obs);
        assert_eq!(run.gateways(), [ip("10.1.1.1"), ip("10.1.2.2")]);
        // The target subnet must NOT be claimed to exist.
        assert!(!run.claims_subnet(subnet("10.1.3.0/24")));
    }

    #[test]
    fn boundary_stops_traces() {
        // A boundary excluding everything beyond 10.1.1/24.
        let tr = Traceroute::new(vec![subnet("10.1.3.0/24")], subnet("10.1.1.0/24"));
        let run = run_with(|_, _| {}, tr);
        // `.0` and `.1` probes are *delivered* at r2 (host-zero / its own
        // interface) and come back Reached before any boundary test, but
        // the `.2` probe expires at r2 — whose address 10.1.2.2 is outside
        // the boundary — and stops: one probe fewer than unbounded.
        assert_eq!(run.sent, 6, "{:?}", run.obs);
        let gws = run.gateways();
        assert!(gws.contains(&ip("10.1.1.1")));
        // No hop beyond the out-of-boundary router was ever recorded.
        assert!(
            gws.iter()
                .all(|g| *g == ip("10.1.1.1") || *g == ip("10.1.2.2")),
            "{gws:?}"
        );
    }

    #[test]
    fn respects_packet_rate() {
        let (mut sim, topo) = line3();
        let left = topo.nodes_by_name["left"];
        let targets = vec![subnet("10.1.2.0/24"), subnet("10.1.3.0/24")];
        let h = sim.spawn(
            left,
            Box::new(Traceroute::new(targets, subnet("10.0.0.0/8"))),
        );
        sim.run_for(SimDuration::from_secs(2));
        let sent = sim.proc_stats(h).packets_sent;
        assert!(sent <= 17, "≤8 probes/sec budget, sent {sent} in 2s");
    }

    #[test]
    fn start_ttl_skips_known_initial_hops() {
        // The paper's future-work optimization: every destination is
        // behind r1 (1 hop away), so start tracing at TTL 2 and skip
        // re-tracing the shared first hop.
        let tr = Traceroute::new(vec![subnet("10.1.3.0/24")], subnet("10.0.0.0/8"));
        let run = run_with(|_, _| {}, tr.with_start_ttl(2));
        // r1's near side (hop 1) was never probed...
        let gws = run.gateways();
        assert!(!gws.contains(&ip("10.1.1.1")), "{gws:?}");
        // ...and the target is still reached (with fewer probes).
        assert_eq!(run.reached, [subnet("10.1.3.0/24")]);
        assert!(run.sent <= 6, "skipping hop 1 saves probes: {}", run.sent);
    }

    #[test]
    fn empty_target_list_finishes() {
        let (mut sim, topo) = line3();
        let left = topo.nodes_by_name["left"];
        let h = sim.spawn(
            left,
            Box::new(Traceroute::new(vec![], subnet("10.0.0.0/8"))),
        );
        sim.run_for(SimDuration::from_secs(1));
        assert!(sim.process_done(h));
    }
}
