//! The Domain Naming System Explorer Module.
//!
//! "Fremont's DNS Explorer Module searches the appropriate subtree for all
//! addresses in a specified network. The primary purpose of this module is
//! to discover network topology by identifying gateways. ... The DNS
//! module retrieves the set of all address-to-name mappings from a domain,
//! using 'zone transfers' ... by descending recursively into the DNS tree
//! starting from a specific point."
//!
//! Gateway heuristics, as in the paper: "The most obvious case is when
//! multiple IP addresses correspond to the same machine name. The DNS
//! module also looks for multiple names for the same address ... It
//! further looks for names which differ only by `-gw` or similar naming
//! conventions." It bootstraps a subnet mask with an ICMP Mask Request to
//! "one of the first hosts discovered", and records "the number of hosts
//! on each subnet and the highest and lowest addresses assigned".

use std::collections::HashMap;
use std::net::Ipv4Addr;

use bytes::Bytes;
use fremont_journal::observation::{Fact, Observation, Source};
use fremont_net::dns::{DnsMessage, DnsName, RData, Rcode, RecordType};
use fremont_net::{IcmpMessage, IpProtocol, Ipv4Packet, Subnet, SubnetMask};
use fremont_netsim::engine::ProcCtx;
use fremont_netsim::process::Process;
use fremont_netsim::time::SimDuration;

/// Gap between successive zone transfers (the module's "10 pkts/sec"
/// load comes from this phase).
const PACE: SimDuration = SimDuration::from_millis(200);
/// Name suffixes taken as gateway naming conventions: "names which differ
/// only by `-gw` or similar naming conventions".
const GW_SUFFIXES: [&str; 3] = ["-gw", "-gate", "gw"];

#[derive(Debug, PartialEq)]
enum Phase {
    ParentTransfer,
    ChildTransfers,
    MaskProbe,
    Done,
}

/// The DNS zone-walking module.
pub struct DnsExplorer {
    network: Subnet,
    server: Ipv4Addr,
    phase: Phase,
    pending_zones: Vec<DnsName>,
    query_id: u16,
    awaiting_id: Option<u16>,
    pairs: Vec<(Ipv4Addr, DnsName)>,
    mask: Option<SubnetMask>,
    finished: bool,
}

/// Timer token of the pace timer. Every other token is a timeout, and is
/// the id of the query it guards.
const TIMER_NEXT: u64 = 1 << 16;
/// How long a zone transfer may take to answer.
const AXFR_TIMEOUT: SimDuration = SimDuration::from_secs(10);
/// How long the mask probe may take to answer.
const MASK_TIMEOUT: SimDuration = SimDuration::from_secs(8);

/// The timeout for a query the stack took, or none for one it refused
/// (host down, no route): that query never left, `ProcStats` counts it,
/// and waiting for its answer would only stall the walk.
fn timeout_after<E>(sent: Result<(), E>, timeout: SimDuration) -> SimDuration {
    match sent {
        Ok(()) => timeout,
        Err(_) => SimDuration::ZERO,
    }
}

impl DnsExplorer {
    /// Creates the module over its Table 3 input: the network to examine
    /// (e.g. the campus class B) and a name server authoritative for its
    /// zones.
    pub fn new(network: Subnet, server: Ipv4Addr) -> Self {
        DnsExplorer {
            network,
            server,
            phase: Phase::ParentTransfer,
            pending_zones: Vec::new(),
            query_id: 0x0D25,
            awaiting_id: None,
            pairs: Vec::new(),
            mask: None,
            finished: false,
        }
    }

    fn effective_mask(&self) -> SubnetMask {
        self.mask.unwrap_or(SubnetMask::CLASS_C)
    }

    /// The reverse-tree zone name for the examined network.
    fn parent_zone(&self) -> DnsName {
        DnsName::reverse_zone_for(self.network.network(), self.network.prefix_len())
    }

    /// Allocates the next query id and awaits it.
    fn next_id(&mut self) -> u16 {
        self.query_id = self.query_id.wrapping_add(1);
        self.awaiting_id = Some(self.query_id);
        self.query_id
    }

    fn send_axfr(&mut self, zone: DnsName, ctx: &mut ProcCtx<'_>) {
        let id = self.next_id();
        let q = DnsMessage::query(id, zone, RecordType::Axfr);
        // Zone transfers ride the reliable (TCP) channel, as real AXFR does.
        let sent = ctx.send_ip(
            self.server,
            IpProtocol::Tcp,
            Bytes::from(q.encode()),
            None,
            None,
        );
        ctx.set_timer(timeout_after(sent, AXFR_TIMEOUT), u64::from(id));
    }

    fn absorb_records(&mut self, msg: &DnsMessage) {
        for rr in &msg.answers {
            match (&rr.rtype, &rr.rdata) {
                (RecordType::Ptr, RData::Ptr(target)) => {
                    if let Some(ip) = rr.name.reverse_to_addr() {
                        if self.network.contains(ip)
                            && !self.pairs.iter().any(|(i, n)| *i == ip && n == target)
                        {
                            self.pairs.push((ip, target.clone()));
                        }
                    }
                }
                (RecordType::Ns, RData::Ns(_))
                    // A delegation inside the reverse tree: descend into it.
                    if rr.name.ends_with(&self.parent_zone())
                        && rr.name != self.parent_zone()
                        && !self.pending_zones.contains(&rr.name)
                    => {
                        self.pending_zones.push(rr.name.clone());
                    }
                (RecordType::A, RData::A(ip))
                    if self.network.contains(*ip)
                        && !self.pairs.iter().any(|(i, n)| i == ip && *n == rr.name)
                    => {
                        self.pairs.push((*ip, rr.name.clone()));
                    }
                _ => {}
            }
        }
    }

    fn next_step(&mut self, ctx: &mut ProcCtx<'_>) {
        match self.phase {
            Phase::ParentTransfer => {
                let zone = self.parent_zone();
                self.phase = Phase::ChildTransfers;
                self.send_axfr(zone, ctx);
            }
            Phase::ChildTransfers => {
                if let Some(zone) = self.pending_zones.pop() {
                    self.send_axfr(zone, ctx);
                } else {
                    self.phase = Phase::MaskProbe;
                    self.send_mask_probe(ctx);
                }
            }
            Phase::MaskProbe => {
                self.analyze_and_emit(ctx);
            }
            Phase::Done => {}
        }
    }

    fn send_mask_probe(&mut self, ctx: &mut ProcCtx<'_>) {
        // "The DNS module also uses ICMP Mask Requests to retrieve the
        // subnet mask from one of the first hosts discovered ... usually
        // one of the name servers."
        let target = if self.network.contains(self.server) {
            Some(self.server)
        } else {
            self.pairs.first().map(|(ip, _)| *ip)
        };
        match target {
            Some(t) => {
                let msg = IcmpMessage::MaskRequest {
                    ident: 0x0D25,
                    seq: 0,
                };
                let sent = ctx.send_icmp(t, &msg);
                let id = self.next_id();
                ctx.set_timer(timeout_after(sent, MASK_TIMEOUT), u64::from(id));
            }
            None => self.analyze_and_emit(ctx),
        }
    }

    /// Phase two: "the module searches the collected information for
    /// gateways. This is CPU intensive."
    fn analyze_and_emit(&mut self, ctx: &mut ProcCtx<'_>) {
        self.phase = Phase::Done;
        let mask = self.effective_mask();

        // Group addresses by name.
        let mut by_name: HashMap<DnsName, Vec<Ipv4Addr>> = HashMap::new();
        for (ip, name) in &self.pairs {
            let v = by_name.entry(name.clone()).or_default();
            if !v.contains(ip) {
                v.push(*ip);
            }
        }

        // Heuristic 1: multiple addresses under one name.
        let mut gw_names: Vec<(DnsName, Vec<Ipv4Addr>)> = Vec::new();
        for (name, ips) in &by_name {
            if ips.len() >= 2 {
                gw_names.push((name.clone(), ips.clone()));
            }
        }
        // Heuristic 2: naming conventions (-gw etc.), even single-address.
        for (name, ips) in &by_name {
            let leaf = name.leaf().unwrap_or("");
            let conventional = GW_SUFFIXES
                .iter()
                .any(|suf| leaf.ends_with(suf) && leaf.len() > suf.len());
            if conventional && !gw_names.iter().any(|(n, _)| n == name) {
                gw_names.push((name.clone(), ips.clone()));
            }
        }
        gw_names.sort_by(|a, b| a.0.cmp(&b.0));

        for (name, mut ips) in gw_names {
            ips.sort_by_key(|ip| u32::from(*ip));
            let subnets: Vec<Subnet> = {
                let mut v: Vec<Subnet> =
                    ips.iter().map(|ip| Subnet::containing(*ip, mask)).collect();
                v.sort();
                v.dedup();
                v
            };
            ctx.emit(Observation::new(
                Source::Dns,
                Fact::Gateway {
                    interface_ips: ips,
                    interface_names: vec![name.to_string()],
                    subnets,
                },
            ));
        }

        // Interface pairs, every one: the paper's prototype skipped pairs
        // that were the only knowledge about an interface (they are
        // "readily available from the DNS"); recording them lets the
        // stale-address analysis see DNS-only ghosts.
        for (ip, name) in &self.pairs {
            ctx.emit(Observation::named_ip(Source::Dns, *ip, &name.to_string()));
        }

        // Subnet statistics: host count and lowest/highest assigned.
        let mut per_subnet: HashMap<Subnet, Vec<Ipv4Addr>> = HashMap::new();
        for (ip, _) in &self.pairs {
            per_subnet
                .entry(Subnet::containing(*ip, mask))
                .or_default()
                .push(*ip);
        }
        let mut subnets: Vec<_> = per_subnet.into_iter().collect();
        subnets.sort_by_key(|(s, _)| *s);
        for (subnet, mut ips) in subnets {
            ips.sort_by_key(|ip| u32::from(*ip));
            ips.dedup();
            let (Some(&lowest), Some(&highest)) = (ips.first(), ips.last()) else {
                continue;
            };
            ctx.emit(Observation::new(
                Source::Dns,
                Fact::SubnetStats {
                    subnet,
                    host_count: ips.len() as u32,
                    lowest,
                    highest,
                },
            ));
        }
        self.finished = true;
    }
}

impl Process for DnsExplorer {
    fn on_start(&mut self, ctx: &mut ProcCtx<'_>) {
        self.next_step(ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut ProcCtx<'_>) {
        if self.finished {
            return;
        }
        match token {
            TIMER_NEXT => self.next_step(ctx),
            id if self.awaiting_id.map(u64::from) == Some(id) => {
                // The query this timer guards is still unanswered: give up
                // on it and move on.
                self.awaiting_id = None;
                self.next_step(ctx);
            }
            _ => {} // Its query was answered; a later one may be in flight.
        }
    }

    fn on_ip(&mut self, pkt: &Ipv4Packet, ctx: &mut ProcCtx<'_>) {
        if self.finished {
            return;
        }
        match pkt.protocol {
            IpProtocol::Tcp => {
                let Ok(msg) = DnsMessage::decode(&pkt.payload) else {
                    return;
                };
                if !msg.is_response || Some(msg.id) != self.awaiting_id {
                    return;
                }
                self.awaiting_id = None;
                if msg.rcode == Rcode::NoError {
                    self.absorb_records(&msg);
                }
                ctx.set_timer(PACE, TIMER_NEXT);
            }
            IpProtocol::Icmp => {
                if self.phase != Phase::MaskProbe {
                    return;
                }
                if let Ok(IcmpMessage::MaskReply { mask, .. }) = IcmpMessage::decode(&pkt.payload) {
                    if let Ok(m) = SubnetMask::from_addr(mask) {
                        self.mask = Some(m);
                    }
                    self.analyze_and_emit(ctx);
                }
            }
            _ => {}
        }
    }

    fn done(&self) -> bool {
        self.finished
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::interface_ips;
    use fremont_netsim::builder::TopologyBuilder;
    use fremont_netsim::dns_server::{DnsServerState, Zone};

    /// A LAN with a name server holding a two-level reverse tree plus a
    /// forward zone with one multi-A gateway and one conventional name.
    fn dns_world() -> (
        fremont_netsim::engine::Sim,
        fremont_netsim::builder::Topology,
    ) {
        let mut b = TopologyBuilder::new();
        let lan = b.segment("lan", "128.200.5.0/24");
        b.host("prober", lan, 10);
        b.host("ns", lan, 53);
        b.host("alpha", lan, 20);
        b.router("gw", &[(lan, 1)]);
        let (mut sim, topo) = b.build(5);

        let mut server = DnsServerState::new();
        let mut fwd = Zone::new("example.edu".parse().unwrap());
        fwd.add_a(
            "alpha.example.edu".parse().unwrap(),
            "128.200.5.20".parse().unwrap(),
        );
        fwd.add_a(
            "ns.example.edu".parse().unwrap(),
            "128.200.5.53".parse().unwrap(),
        );
        fwd.add_a(
            "big-gw.example.edu".parse().unwrap(),
            "128.200.5.1".parse().unwrap(),
        );
        fwd.add_a(
            "big-gw.example.edu".parse().unwrap(),
            "128.200.9.1".parse().unwrap(),
        );
        fwd.add_a(
            "lone-gw.example.edu".parse().unwrap(),
            "128.200.7.1".parse().unwrap(),
        );
        let mut parent = Zone::new("200.128.in-addr.arpa".parse().unwrap());
        let mut child5 = Zone::new("5.200.128.in-addr.arpa".parse().unwrap());
        for (name, ip) in [
            ("alpha.example.edu", "128.200.5.20"),
            ("ns.example.edu", "128.200.5.53"),
            ("big-gw.example.edu", "128.200.5.1"),
        ] {
            child5.add_ptr(
                DnsName::reverse_for(ip.parse().unwrap()),
                name.parse().unwrap(),
            );
        }
        let mut child9 = Zone::new("9.200.128.in-addr.arpa".parse().unwrap());
        child9.add_ptr(
            DnsName::reverse_for("128.200.9.1".parse().unwrap()),
            "big-gw.example.edu".parse().unwrap(),
        );
        let mut child7 = Zone::new("7.200.128.in-addr.arpa".parse().unwrap());
        child7.add_ptr(
            DnsName::reverse_for("128.200.7.1".parse().unwrap()),
            "lone-gw.example.edu".parse().unwrap(),
        );
        parent.delegations.push(child5.origin.clone());
        parent.delegations.push(child9.origin.clone());
        parent.delegations.push(child7.origin.clone());
        server.add_zone(fwd);
        server.add_zone(parent);
        server.add_zone(child5);
        server.add_zone(child9);
        server.add_zone(child7);
        let ns = topo.nodes_by_name["ns"];
        sim.nodes[ns.0].dns = Some(server);
        (sim, topo)
    }

    fn network() -> Subnet {
        "128.200.0.0/16".parse().unwrap()
    }

    fn name_server() -> Ipv4Addr {
        "128.200.5.53".parse().unwrap()
    }

    /// Runs one walk from "prober" and returns what it emitted (its only
    /// `Interface` facts are `named_ip` pairs) and the packets it sent:
    /// one per zone transfer asked for, plus the mask probe.
    fn explore_in(
        mut sim: fremont_netsim::engine::Sim,
        topo: fremont_netsim::builder::Topology,
    ) -> (Vec<Observation>, u64) {
        let prober = topo.nodes_by_name["prober"];
        let h = sim.spawn(prober, Box::new(DnsExplorer::new(network(), name_server())));
        sim.run_for(SimDuration::from_mins(5));
        assert!(sim.process_done(h), "explorer finished");
        (sim.drain_observations_of(h), sim.proc_stats(h).packets_sent)
    }

    fn explore() -> (Vec<Observation>, u64) {
        let (sim, topo) = dns_world();
        explore_in(sim, topo)
    }

    /// The `Gateway` fact emitted for `name`, as its addresses and subnets.
    fn gateway(obs: &[Observation], name: &str) -> Option<(Vec<Ipv4Addr>, Vec<Subnet>)> {
        obs.iter().find_map(|o| match &o.fact {
            Fact::Gateway {
                interface_ips,
                interface_names,
                subnets,
            } if interface_names == &[name] => Some((interface_ips.clone(), subnets.clone())),
            _ => None,
        })
    }

    /// The subnets of the `SubnetStats` facts in `obs`.
    fn stats_subnets(obs: &[Observation]) -> Vec<Subnet> {
        obs.iter()
            .filter_map(|o| match o.fact {
                Fact::SubnetStats { subnet, .. } => Some(subnet),
                _ => None,
            })
            .collect()
    }

    /// Every interface registered in the three reverse child zones.
    fn registered() -> Vec<Ipv4Addr> {
        [
            "128.200.5.1",
            "128.200.5.20",
            "128.200.5.53",
            "128.200.7.1",
            "128.200.9.1",
        ]
        .iter()
        .map(|ip| ip.parse().unwrap())
        .collect()
    }

    #[test]
    fn walks_reverse_tree_via_delegations() {
        let (obs, sent) = explore();
        // Parent + three children transferred, then the mask probe.
        assert_eq!(sent, 5);
        assert_eq!(interface_ips(&obs), registered(), "pairs: {obs:?}");
    }

    #[test]
    fn slow_link_walk_keeps_every_zone() {
        // A second of latency per hop: a transfer's 10 s timeout fires
        // while a later transfer is in flight, and must leave it alone.
        let (mut sim, topo) = dns_world();
        for seg in &mut sim.segments {
            seg.cfg.latency = SimDuration::from_secs(1);
        }
        let (obs, sent) = explore_in(sim, topo);
        assert_eq!(sent, 5, "parent + three children + mask probe");
        assert_eq!(interface_ips(&obs), registered(), "pairs: {obs:?}");
    }

    #[test]
    fn bootstraps_mask_from_name_server() {
        let (obs, _) = explore();
        let subnets = stats_subnets(&obs);
        assert_eq!(subnets.len(), 3, "{subnets:?}");
        assert!(subnets.iter().all(|s| s.prefix_len() == 24), "{subnets:?}");
        // A name server answering /22 regroups the same five interfaces
        // into two subnets: the mask came from its reply, not the /24
        // default.
        let (mut sim, topo) = dns_world();
        let ns = topo.nodes_by_name["ns"];
        sim.nodes[ns.0].ifaces[0].mask = SubnetMask::from_prefix_len(22).unwrap();
        let (obs, _) = explore_in(sim, topo);
        let subnets = stats_subnets(&obs);
        let expect: Vec<Subnet> = vec![
            "128.200.4.0/22".parse().unwrap(),
            "128.200.8.0/22".parse().unwrap(),
        ];
        assert_eq!(subnets, expect);
    }

    #[test]
    fn finds_multi_address_gateway() {
        let (obs, _) = explore();
        let (ips, subnets) = gateway(&obs, "big-gw.example.edu").expect("big-gw found");
        assert_eq!(ips.len(), 2);
        // The gateway observation carries both subnets.
        assert_eq!(subnets.len(), 2);
    }

    #[test]
    fn finds_naming_convention_gateway() {
        let (obs, _) = explore();
        let (ips, _) = gateway(&obs, "lone-gw.example.edu").expect("lone-gw found");
        assert_eq!(ips, ["128.200.7.1".parse::<Ipv4Addr>().unwrap()]);
        // Neither heuristic picks a plain single-address host.
        assert!(gateway(&obs, "alpha.example.edu").is_none());
    }

    #[test]
    fn emits_subnet_stats() {
        let (obs, _) = explore();
        let stats: Vec<_> = obs
            .iter()
            .filter_map(|o| match &o.fact {
                Fact::SubnetStats {
                    subnet,
                    host_count,
                    lowest,
                    highest,
                } => Some((*subnet, *host_count, *lowest, *highest)),
                _ => None,
            })
            .collect();
        assert_eq!(stats.len(), 3);
        let five = stats
            .iter()
            .find(|(s, _, _, _)| *s == "128.200.5.0/24".parse().unwrap())
            .unwrap();
        assert_eq!(five.1, 3);
        assert_eq!(five.2, "128.200.5.1".parse::<Ipv4Addr>().unwrap());
        assert_eq!(five.3, "128.200.5.53".parse::<Ipv4Addr>().unwrap());
    }

    #[test]
    fn records_name_address_pairs() {
        let (obs, _) = explore();
        let named = obs
            .iter()
            .filter(|o| {
                matches!(
                    &o.fact,
                    Fact::Interface {
                        name: Some(_),
                        ip: Some(_),
                        ..
                    }
                )
            })
            .count();
        assert_eq!(named, 5);
    }

    #[test]
    fn refused_axfr_is_tolerated() {
        let (mut sim, topo) = dns_world();
        // Forbid transfers of one child zone.
        let ns = topo.nodes_by_name["ns"];
        // Zones: fwd, parent, child5, child9, child7 — index 2 is child5.
        // (Private field access via a fresh server rebuild.)
        let mut server = DnsServerState::new();
        let mut z = Zone::new("200.128.in-addr.arpa".parse().unwrap());
        z.delegations
            .push("5.200.128.in-addr.arpa".parse().unwrap());
        server.add_zone(z);
        let mut z5 = Zone::new("5.200.128.in-addr.arpa".parse().unwrap());
        z5.allow_axfr = false;
        z5.add_ptr(
            DnsName::reverse_for("128.200.5.20".parse().unwrap()),
            "alpha.example.edu".parse().unwrap(),
        );
        server.add_zone(z5);
        sim.nodes[ns.0].dns = Some(server);

        // The refusal answers at once: parent, the refused child and the
        // mask probe, and the walk finishes with no pairs well inside one
        // AXFR_TIMEOUT, which a refusal waited out would need.
        let prober = topo.nodes_by_name["prober"];
        let h = sim.spawn(prober, Box::new(DnsExplorer::new(network(), name_server())));
        sim.run_for(SimDuration::from_secs(5));
        assert!(sim.process_done(h), "the refusal was taken as an answer");
        assert_eq!(sim.proc_stats(h).packets_sent, 3);
        let obs = sim.drain_observations_of(h);
        assert!(
            interface_ips(&obs).is_empty(),
            "refused zone yields no pairs"
        );
    }
}
