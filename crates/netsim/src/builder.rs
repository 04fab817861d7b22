//! Declarative topology construction.
//!
//! Experiments describe a campus as segments (each with a true subnet),
//! hosts, and routers; the builder assigns MAC addresses, derives every
//! routing table by shortest path over the segment/router graph (hop
//! metrics, as RIP would converge to), and returns the built [`Sim`] plus
//! a [`Topology`] "ground truth" that experiments compare discovery
//! results against (the "% of Total" columns of Tables 5 and 6).

use std::collections::HashMap;
use std::net::Ipv4Addr;

use fremont_net::{MacAddr, Subnet, SubnetMask};

use crate::engine::Sim;
use crate::faults::FaultPlan;
use crate::node::{Behavior, Iface, Node, NodeKind, RipConfig};
use crate::routing::Route;
use crate::segment::{NodeId, SegmentCfg, SegmentId};

/// Builder-side segment description.
pub struct SegmentSpec {
    /// Runtime configuration.
    pub cfg: SegmentCfg,
    /// The true subnet of the segment.
    pub subnet: Subnet,
}

/// Builder-side host description.
pub struct HostSpec {
    /// Node name.
    pub name: String,
    /// Attachment segment (builder index).
    pub segment: usize,
    /// Full IP address.
    pub ip: Ipv4Addr,
    /// Configured mask (defaults to the segment's true mask; set another
    /// value to model a misconfigured host).
    pub mask: SubnetMask,
    /// Behavior knobs.
    pub behavior: Behavior,
    /// Forced MAC (defaults to an auto-assigned vendor MAC). Set two hosts
    /// to the same *IP* (not MAC) to model duplicate addresses.
    pub mac: Option<MacAddr>,
}

/// Builder-side router description.
pub struct RouterSpec {
    /// Node name.
    pub name: String,
    /// `(segment index, ip)` attachments.
    pub attachments: Vec<(usize, Ipv4Addr)>,
    /// Behavior knobs (RIP defaults to on for routers).
    pub behavior: Behavior,
}

/// Handle to a host spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostIdx(pub usize);

/// Handle to a router spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterIdx(pub usize);

/// The ground-truth picture of a built topology.
pub struct Topology {
    /// Node ids by name.
    pub nodes_by_name: HashMap<String, NodeId>,
    /// `(segment id, true subnet, name)` for every segment.
    pub segments: Vec<(SegmentId, Subnet, String)>,
    /// Host node ids in builder order.
    pub hosts: Vec<NodeId>,
    /// Router node ids in builder order.
    pub routers: Vec<NodeId>,
    /// Every interface IP that exists, with its owning node.
    pub interfaces: Vec<(Ipv4Addr, NodeId)>,
}

impl Topology {
    /// Number of interfaces whose address lies in `subnet`.
    pub fn interfaces_in(&self, subnet: Subnet) -> usize {
        self.interfaces
            .iter()
            .filter(|(ip, _)| subnet.contains(*ip))
            .count()
    }
}

/// Declarative topology builder.
pub struct TopologyBuilder {
    segments: Vec<SegmentSpec>,
    hosts: Vec<HostSpec>,
    routers: Vec<RouterSpec>,
    mac_counter: u32,
    fault_plan: FaultPlan,
}

impl Default for TopologyBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl TopologyBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        TopologyBuilder {
            segments: Vec::new(),
            hosts: Vec::new(),
            routers: Vec::new(),
            mac_counter: 0,
            fault_plan: FaultPlan::default(),
        }
    }

    /// Installs a fault plan that [`TopologyBuilder::build`] schedules
    /// on the finished simulator. The default (empty) plan is a strict
    /// no-op: see [`Sim::install_fault_plan`].
    pub fn faults(&mut self, plan: FaultPlan) -> &mut Self {
        self.fault_plan = plan;
        self
    }

    /// Adds a segment with its true subnet.
    pub fn segment(&mut self, name: &str, subnet: &str) -> usize {
        self.segment_net(name, subnet.parse().expect("valid subnet literal"))
    }

    /// Adds a segment with an already-constructed subnet (no literal
    /// parsing — the campus generator builds hundreds of these).
    pub fn segment_net(&mut self, name: &str, subnet: Subnet) -> usize {
        self.segments.push(SegmentSpec {
            cfg: SegmentCfg::named(name),
            subnet,
        });
        self.segments.len() - 1
    }

    /// Adds a host at host-number `n` on a segment.
    pub fn host(&mut self, name: &str, segment: usize, n: u32) -> HostIdx {
        let subnet = self.segments[segment].subnet;
        let ip = subnet.nth(n).expect("host number fits subnet");
        self.host_at(name, segment, ip)
    }

    /// Adds a host with an explicit IP address.
    pub fn host_at(&mut self, name: &str, segment: usize, ip: Ipv4Addr) -> HostIdx {
        let mask = self.segments[segment].subnet.mask();
        self.hosts.push(HostSpec {
            name: name.to_owned(),
            segment,
            ip,
            mask,
            behavior: Behavior::default(),
            mac: None,
        });
        HostIdx(self.hosts.len() - 1)
    }

    /// Mutable access to a host spec.
    pub fn host_mut(&mut self, h: HostIdx) -> &mut HostSpec {
        &mut self.hosts[h.0]
    }

    /// Adds a router attached at host-number `n` on each listed segment.
    pub fn router(&mut self, name: &str, attachments: &[(usize, u32)]) -> RouterIdx {
        let attachments: Vec<(usize, Ipv4Addr)> = attachments
            .iter()
            .map(|&(seg, n)| {
                let ip = self.segments[seg]
                    .subnet
                    .nth(n)
                    .expect("attachment number fits subnet");
                (seg, ip)
            })
            .collect();
        let behavior = Behavior {
            rip: Some(RipConfig::default()),
            ..Behavior::default()
        };
        self.routers.push(RouterSpec {
            name: name.to_owned(),
            attachments,
            behavior,
        });
        RouterIdx(self.routers.len() - 1)
    }

    /// Mutable access to a router spec.
    pub fn router_mut(&mut self, r: RouterIdx) -> &mut RouterSpec {
        &mut self.routers[r.0]
    }

    fn next_mac(&mut self, router: bool) -> MacAddr {
        // Hosts draw from workstation vendors; routers look like Cisco or
        // Proteon boxes — so `MacAddr::vendor` reports plausibly.
        const HOST_OUIS: [[u8; 3]; 4] = [
            [0x08, 0x00, 0x20], // Sun
            [0x08, 0x00, 0x2b], // DEC
            [0x08, 0x00, 0x09], // HP
            [0x00, 0x60, 0x8c], // 3Com
        ];
        const ROUTER_OUIS: [[u8; 3]; 2] = [
            [0x00, 0x00, 0x0c], // Cisco
            [0x00, 0x00, 0x93], // Proteon
        ];
        let n = self.mac_counter;
        self.mac_counter += 1;
        let oui = if router {
            ROUTER_OUIS[(n as usize) % ROUTER_OUIS.len()]
        } else {
            HOST_OUIS[(n as usize) % HOST_OUIS.len()]
        };
        MacAddr::new([
            oui[0],
            oui[1],
            oui[2],
            (n >> 16) as u8,
            (n >> 8) as u8,
            n as u8,
        ])
    }

    /// Builds the simulator and ground truth.
    ///
    /// # Panics
    ///
    /// Panics when two interfaces share a MAC (a builder bug), but NOT on
    /// duplicate IPs — those are a legitimate fault to model.
    pub fn build(mut self, seed: u64) -> (Sim, Topology) {
        let mut sim = Sim::new(seed);

        // Segments.
        let segment_specs = std::mem::take(&mut self.segments);
        let mut seg_ids = Vec::with_capacity(segment_specs.len());
        let mut seg_meta = Vec::with_capacity(segment_specs.len());
        for spec in segment_specs {
            let name = spec.cfg.name.clone();
            let id = sim.add_segment(spec.cfg);
            seg_ids.push(id);
            seg_meta.push((id, spec.subnet, name));
        }
        let seg_subnets: Vec<Subnet> = seg_meta.iter().map(|(_, s, _)| *s).collect();

        // Distance from every segment to every segment through routers.
        let dist = segment_distances(seg_subnets.len(), &self.routers);

        let router_specs = std::mem::take(&mut self.routers);
        let total_ifaces: usize = router_specs
            .iter()
            .map(|r| r.attachments.len())
            .sum::<usize>()
            + self.hosts.len();
        let mut nodes_by_name = HashMap::with_capacity(router_specs.len() + self.hosts.len());
        let mut interfaces = Vec::with_capacity(total_ifaces);

        // Routers first (hosts need their addresses for default routes).
        let mut router_ids = Vec::with_capacity(router_specs.len());
        // Router-by-segment map (with the attachment address) for
        // next-hop resolution.
        let mut routers_on_seg: Vec<Vec<(usize, Ipv4Addr)>> = vec![Vec::new(); seg_subnets.len()];
        for (ri, spec) in router_specs.iter().enumerate() {
            for (seg, ip) in &spec.attachments {
                routers_on_seg[*seg].push((ri, *ip));
            }
        }
        // Each router's best distance to each segment over any of its
        // attachments, shared by every `router_routes` call below.
        let router_min_dist: Vec<Vec<u32>> = router_specs
            .iter()
            .map(|r| {
                (0..seg_subnets.len())
                    .map(|t| {
                        r.attachments
                            .iter()
                            .map(|(s, _)| dist[*s][t])
                            .min()
                            .unwrap_or(u32::MAX)
                    })
                    .collect()
            })
            .collect();
        let next_hop = next_hop_candidates(&routers_on_seg, &router_min_dist, seg_subnets.len());
        for (ri, spec) in router_specs.iter().enumerate() {
            let ifaces: Vec<Iface> = spec
                .attachments
                .iter()
                .map(|&(seg, ip)| Iface {
                    mac: self.next_mac(true),
                    ip,
                    mask: seg_subnets[seg].mask(),
                    segment: seg_ids[seg],
                })
                .collect();
            let mut node = Node::new(&spec.name, NodeKind::Router, ifaces);
            node.behavior = spec.behavior.clone();
            node.routes = router_routes(ri, spec, &dist, &seg_subnets, &next_hop);
            for (i, (_, ip)) in spec.attachments.iter().enumerate() {
                let _ = i;
                interfaces.push((*ip, NodeId(sim.nodes.len())));
            }
            let id = sim.add_node(node);
            nodes_by_name.insert(spec.name.clone(), id);
            router_ids.push(id);
        }

        // Hosts.
        let host_specs = std::mem::take(&mut self.hosts);
        let mut host_ids = Vec::with_capacity(host_specs.len());
        let default_dest: Subnet = "0.0.0.0/0".parse().expect("default route literal");
        for spec in &host_specs {
            let mac = spec.mac.unwrap_or_else(|| self.next_mac(false));
            let iface = Iface {
                mac,
                ip: spec.ip,
                mask: spec.mask,
                segment: seg_ids[spec.segment],
            };
            let mut node = Node::new(&spec.name, NodeKind::Host, vec![iface]);
            node.behavior = spec.behavior.clone();
            // Connected route (per the *configured* mask: a host with a
            // wrong mask really does route wrongly).
            node.routes.add(Route {
                dest: Subnet::containing(spec.ip, spec.mask),
                gateway: None,
                iface: 0,
                metric: 0,
            });
            // Default route through the first router on the segment.
            if let Some(&(_, gw_ip)) = routers_on_seg[spec.segment].first() {
                node.routes.add(Route {
                    dest: default_dest,
                    gateway: Some(gw_ip),
                    iface: 0,
                    metric: 1,
                });
            }
            interfaces.push((spec.ip, NodeId(sim.nodes.len())));
            let id = sim.add_node(node);
            nodes_by_name.insert(spec.name.clone(), id);
            host_ids.push(id);
        }

        // MAC uniqueness sanity check.
        let mut macs: Vec<MacAddr> = Vec::with_capacity(total_ifaces);
        macs.extend(
            sim.nodes
                .iter()
                .flat_map(|n| n.ifaces.iter().map(|i| i.mac)),
        );
        macs.sort();
        macs.dedup();
        let total: usize = sim.nodes.iter().map(|n| n.ifaces.len()).sum();
        assert_eq!(macs.len(), total, "duplicate MAC assigned by builder");

        let topo = Topology {
            nodes_by_name,
            segments: seg_meta,
            hosts: host_ids,
            routers: router_ids,
            interfaces,
        };
        // Installed last: all node/segment names the plan addresses exist.
        let plan = std::mem::take(&mut self.fault_plan);
        sim.install_fault_plan(&plan);
        (sim, topo)
    }
}

/// BFS distances between segments through routers: `dist[a][b]` = number
/// of routers crossed going from segment `a` to segment `b`.
fn segment_distances(n_segments: usize, routers: &[RouterSpec]) -> Vec<Vec<u32>> {
    const INF: u32 = u32::MAX;
    // Segment adjacency first: two segments co-attached to one router are
    // one hop apart. BFS over this list instead of rescanning every
    // router's attachments per frontier segment per source.
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n_segments];
    for r in routers {
        for (i, (a, _)) in r.attachments.iter().enumerate() {
            for (j, (b, _)) in r.attachments.iter().enumerate() {
                if i != j {
                    adj[*a].push(*b);
                }
            }
        }
    }
    for list in &mut adj {
        list.sort_unstable();
        list.dedup();
    }
    let mut dist = vec![vec![INF; n_segments]; n_segments];
    for target in 0..n_segments {
        // BFS from `target` outward.
        let mut d = vec![INF; n_segments];
        d[target] = 0;
        let mut frontier = vec![target];
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for &seg in &frontier {
                for &other in &adj[seg] {
                    if d[other] == INF {
                        d[other] = d[seg] + 1;
                        next.push(other);
                    }
                }
            }
            frontier = next;
        }
        for s in 0..n_segments {
            dist[s][target] = d[s];
        }
    }
    dist
}

/// A next-hop candidate: `(router index, its best distance to the
/// target, its address on the shared segment)`.
type HopCand = Option<(usize, u32, Ipv4Addr)>;

/// For every `(segment, target)` pair, the first-minimal next-hop
/// candidate on that segment (in `routers_on_seg` order — exactly what a
/// `min_by_key` scan would keep) plus the first-minimal among candidates
/// from a *different* router. Together these answer "best candidate
/// strictly closer than me, excluding myself" for any asking router: if
/// the overall winner is someone else it is also the winner with the
/// asker excluded (removing later or equal-keyed earlier entries cannot
/// change a first minimum), and if the winner is the asker itself the
/// runner-up is by construction the winner among everyone else.
fn next_hop_candidates(
    routers_on_seg: &[Vec<(usize, Ipv4Addr)>],
    router_min_dist: &[Vec<u32>],
    n_segments: usize,
) -> Vec<Vec<(HopCand, HopCand)>> {
    let mut out = vec![vec![(None, None); n_segments]; n_segments];
    for (seg, cands) in routers_on_seg.iter().enumerate() {
        if cands.is_empty() {
            continue;
        }
        for target in 0..n_segments {
            let mut first: HopCand = None;
            for &(ri, ip) in cands {
                let od = router_min_dist[ri][target];
                if first.map(|(_, b, _)| od < b).unwrap_or(true) {
                    first = Some((ri, od, ip));
                }
            }
            let winner = first.map(|(r, _, _)| r);
            let mut second: HopCand = None;
            for &(ri, ip) in cands {
                if Some(ri) == winner {
                    continue;
                }
                let od = router_min_dist[ri][target];
                if second.map(|(_, b, _)| od < b).unwrap_or(true) {
                    second = Some((ri, od, ip));
                }
            }
            out[seg][target] = (first, second);
        }
    }
    out
}

/// Computes a router's full routing table toward every segment, using
/// the precomputed [`next_hop_candidates`] answers. Route contents and
/// tie-breaks are identical to the direct per-router scan this replaces.
fn router_routes(
    ri: usize,
    me: &RouterSpec,
    dist: &[Vec<u32>],
    seg_subnets: &[Subnet],
    next_hop: &[Vec<(HopCand, HopCand)>],
) -> crate::routing::RoutingTable {
    const INF: u32 = u32::MAX;
    let mut table = crate::routing::RoutingTable::new();
    table.reserve(seg_subnets.len());
    for (target, &subnet) in seg_subnets.iter().enumerate() {
        // Directly connected?
        if let Some(pos) = me.attachments.iter().position(|(s, _)| *s == target) {
            table.add_distinct(Route {
                dest: subnet,
                gateway: None,
                iface: pos,
                metric: 0,
            });
            continue;
        }
        // Choose the attachment minimizing distance to the target.
        let mut best: Option<(usize, u32, usize)> = None; // (iface pos, dist, via seg)
        for (pos, (seg, _)) in me.attachments.iter().enumerate() {
            let d = dist[*seg][target];
            if d != INF && best.map(|(_, bd, _)| d < bd).unwrap_or(true) {
                best = Some((pos, d, *seg));
            }
        }
        let Some((pos, d, via_seg)) = best else {
            continue; // Unreachable segment: no route (ICMP net unreachable).
        };
        // Next hop: a router on `via_seg` strictly closer to the target.
        let (first, second) = next_hop[via_seg][target];
        let cand = match first {
            Some((r1, od, ip)) if r1 != ri => Some((od, ip)),
            _ => second.map(|(_, od, ip)| (od, ip)),
        };
        if let Some((_, gw)) = cand.filter(|&(od, _)| od < d) {
            table.add_distinct(Route {
                dest: subnet,
                gateway: Some(gw),
                iface: pos,
                metric: d,
            });
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three segments in a line: A --r1-- B --r2-- C.
    fn line_topology() -> (Sim, Topology) {
        let mut b = TopologyBuilder::new();
        let a = b.segment("net-a", "10.0.1.0/24");
        let bb = b.segment("net-b", "10.0.2.0/24");
        let c = b.segment("net-c", "10.0.3.0/24");
        b.host("ha", a, 10);
        b.host("hc", c, 10);
        b.router("r1", &[(a, 1), (bb, 1)]);
        b.router("r2", &[(bb, 2), (c, 1)]);
        b.build(42)
    }

    #[test]
    fn routing_tables_cover_reachable_segments() {
        let (sim, topo) = line_topology();
        let r1 = topo.nodes_by_name["r1"];
        let table = &sim.nodes[r1.0].routes;
        // r1 reaches all three subnets.
        assert!(table.lookup("10.0.1.5".parse().unwrap()).is_some());
        assert!(table.lookup("10.0.2.5".parse().unwrap()).is_some());
        let to_c = table.lookup("10.0.3.5".parse().unwrap()).unwrap();
        assert_eq!(to_c.gateway, Some("10.0.2.2".parse().unwrap()), "via r2");
        assert_eq!(to_c.metric, 1);
    }

    #[test]
    fn hosts_get_default_route() {
        let (sim, topo) = line_topology();
        let ha = topo.nodes_by_name["ha"];
        let table = &sim.nodes[ha.0].routes;
        let r = table.lookup("10.0.3.10".parse().unwrap()).unwrap();
        assert_eq!(r.gateway, Some("10.0.1.1".parse().unwrap()));
    }

    #[test]
    fn ground_truth_counts() {
        let (_, topo) = line_topology();
        assert_eq!(topo.hosts.len(), 2);
        assert_eq!(topo.routers.len(), 2);
        assert_eq!(topo.interfaces.len(), 6);
        assert_eq!(topo.interfaces_in("10.0.2.0/24".parse().unwrap()), 2);
    }

    #[test]
    fn end_to_end_ping_across_two_routers() {
        use crate::engine::ProcCtx;
        use crate::process::Process;
        use fremont_net::{IcmpMessage, IpProtocol, Ipv4Packet};

        struct P {
            got: bool,
        }
        impl Process for P {
            fn on_start(&mut self, ctx: &mut ProcCtx<'_>) {
                let m = IcmpMessage::EchoRequest {
                    ident: 1,
                    seq: 1,
                    payload: vec![],
                };
                ctx.send_icmp("10.0.3.10".parse().unwrap(), &m).unwrap();
            }
            fn on_ip(&mut self, pkt: &Ipv4Packet, _: &mut ProcCtx<'_>) {
                if pkt.protocol == IpProtocol::Icmp
                    && pkt.src == "10.0.3.10".parse::<std::net::Ipv4Addr>().unwrap()
                {
                    if let Ok(IcmpMessage::EchoReply { .. }) = IcmpMessage::decode(&pkt.payload) {
                        self.got = true;
                    }
                }
            }
        }

        let (mut sim, topo) = line_topology();
        let ha = topo.nodes_by_name["ha"];
        let h = sim.spawn(ha, Box::new(P { got: false }));
        sim.run_for(crate::time::SimDuration::from_secs(5));
        assert!(
            sim.process_mut::<P>(h).unwrap().got,
            "ping must cross two routers and return"
        );
        assert!(sim.stats.packets_forwarded >= 4);
    }

    #[test]
    fn ttl_1_dies_at_first_router() {
        use crate::engine::ProcCtx;
        use crate::process::Process;
        use bytes::Bytes;
        use fremont_net::{IcmpMessage, IpProtocol, Ipv4Packet, UdpDatagram};

        struct P {
            te_from: Option<std::net::Ipv4Addr>,
        }
        impl Process for P {
            fn on_start(&mut self, ctx: &mut ProcCtx<'_>) {
                let d = UdpDatagram::new(40000, 33434, Bytes::new());
                ctx.send_ip(
                    "10.0.3.10".parse().unwrap(),
                    IpProtocol::Udp,
                    Bytes::from(d.encode()),
                    Some(1),
                    Some(77),
                )
                .unwrap();
            }
            fn on_ip(&mut self, pkt: &Ipv4Packet, _: &mut ProcCtx<'_>) {
                if let Ok(IcmpMessage::TimeExceeded { .. }) = IcmpMessage::decode(&pkt.payload) {
                    self.te_from = Some(pkt.src);
                }
            }
        }

        let (mut sim, topo) = line_topology();
        let ha = topo.nodes_by_name["ha"];
        let h = sim.spawn(ha, Box::new(P { te_from: None }));
        sim.run_for(crate::time::SimDuration::from_secs(5));
        assert_eq!(
            sim.process_mut::<P>(h).unwrap().te_from,
            Some("10.0.1.1".parse().unwrap()),
            "Time Exceeded comes from r1's near-side interface"
        );
    }
}
