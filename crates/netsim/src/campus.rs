//! The synthetic campus: a University-of-Colorado-scale internetwork.
//!
//! The paper evaluated Fremont against the CU campus network: a class B
//! (128.138/16) with "about 114" assigned subnets, 111 of them connected,
//! explored from a Computer Science department subnet of 56 DNS-registered
//! interfaces. This module generates a topology with the same shape and
//! the same pathologies:
//!
//! * ~114 assigned /24 subnets, 3 unused, the rest joined by multi-homed
//!   routers to a backbone;
//! * partial DNS coverage (~84% of connected subnets registered);
//! * gateway naming conventions (`-gw` names with one A record per
//!   interface) for a subset of routers — what the DNS module can find;
//! * routers with "gateway software problems" that defeat traceroute;
//! * a departmental subnet with host up/down churn, background traffic,
//!   two stale DNS entries, and the Table 8 faults (duplicate IP, wrong
//!   mask, promiscuous RIP host, silent hardware change, removed host).

#![allow(
    clippy::expect_used,
    reason = "topology setup: the generator's fixed address plan cannot fail \
              for any seed, and a failure is a broken generator, caught before \
              the simulation starts"
)]

use std::collections::HashSet;
use std::net::Ipv4Addr;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fremont_net::dns::DnsName;
use fremont_net::{Subnet, SubnetMask};

use crate::builder::{HostIdx, Topology, TopologyBuilder};
use crate::dns_server::{DnsServerState, Zone};
use crate::engine::Sim;
use crate::faults::FaultPlan;
use crate::node::RipConfig;
use crate::segment::NodeId;
use crate::time::SimDuration;
use crate::traffic::{Flow, TrafficModel};
use crate::uptime::UptimeModel;

/// Configuration of the synthetic campus.
#[derive(Debug, Clone)]
pub struct CampusConfig {
    /// RNG seed (topology layout and runtime randomness).
    pub seed: u64,
    /// The campus class-B network.
    pub network: Subnet,
    /// Subnets assigned in the campus plan.
    pub subnets_assigned: usize,
    /// Subnets actually connected (rest are unused).
    pub subnets_connected: usize,
    /// Fraction of connected subnets registered in the DNS.
    pub dns_coverage: f64,
    /// Fraction of routers following the `-gw` DNS naming convention.
    pub gateway_naming: f64,
    /// How many interfaces (beyond the backbone one) a named gateway has
    /// registered under its `-gw` name: uniform in `min..=max`. Real
    /// admins rarely registered every interface, which is why the paper's
    /// DNS module attributed only 48 of 111 subnets to gateways.
    pub gateway_dns_leaves: (usize, usize),
    /// Fraction of routers that filter traceroute probes.
    pub broken_router_frac: f64,
    /// Hosts per ordinary leaf subnet: uniform in `min..=max`.
    pub hosts_per_subnet: (usize, usize),
    /// Number of *real* hosts on the departmental (CS) subnet.
    pub cs_hosts: usize,
    /// Stale DNS entries on the CS subnet (registered, no real machine).
    pub cs_ghost_entries: usize,
    /// Long-run availability of ordinary CS hosts.
    pub availability: f64,
    /// Mean up+down cycle for host churn.
    pub churn_cycle: SimDuration,
    /// Inject the Table 8 fault inventory.
    pub inject_faults: bool,
    /// Attach background traffic on the CS subnet (drives ARPwatch).
    pub cs_traffic: bool,
    /// Scheduled mid-run faults, installed on the finished simulator.
    /// The default (empty) plan is a strict no-op — see
    /// [`Sim::install_fault_plan`] — so existing campus runs are
    /// unchanged.
    pub fault_plan: FaultPlan,
}

impl Default for CampusConfig {
    fn default() -> Self {
        CampusConfig {
            seed: 1993,
            network: "128.138.0.0/16".parse().expect("class B literal"),
            subnets_assigned: 114,
            subnets_connected: 111,
            dns_coverage: 0.84,
            gateway_naming: 0.80,
            gateway_dns_leaves: (2, 2),
            broken_router_frac: 0.18,
            hosts_per_subnet: (2, 6),
            cs_hosts: 54,
            cs_ghost_entries: 2,
            availability: 0.80,
            churn_cycle: SimDuration::from_hours(8),
            inject_faults: true,
            cs_traffic: true,
            fault_plan: FaultPlan::default(),
        }
    }
}

impl CampusConfig {
    /// A smaller campus for fast tests (same structure, fewer subnets).
    pub fn small() -> Self {
        CampusConfig {
            subnets_assigned: 12,
            subnets_connected: 10,
            cs_hosts: 12,
            cs_ghost_entries: 1,
            ..Default::default()
        }
    }

    /// The small campus with the injected problem inventory switched
    /// off: no Table 8 faults, no ghost DNS entries. Chaos tests start
    /// from this quiet baseline so that every finding is attributable
    /// to an explicitly scheduled [`FaultPlan`]. Ordinary availability
    /// churn stays on — scenarios that need a fully static population
    /// (like the model checker) pin `availability` themselves.
    pub fn quiet_small(seed: u64) -> Self {
        CampusConfig {
            seed,
            inject_faults: false,
            cs_ghost_entries: 0,
            ..CampusConfig::small()
        }
    }

    /// The micro campus the model checker enumerates over: two subnets
    /// (backbone + departmental), one gateway, six fully available CS
    /// hosts, quiet baseline. Small enough that a single 16-hour
    /// discovery run takes milliseconds, so thousands of fault
    /// interleavings are affordable, and free of availability churn so
    /// the differential invariants see a stable baseline.
    pub fn micro(seed: u64) -> Self {
        CampusConfig {
            subnets_assigned: 2,
            subnets_connected: 2,
            cs_hosts: 6,
            availability: 1.0,
            ..CampusConfig::quiet_small(seed)
        }
    }
}

/// The Table 8 fault inventory, by node name.
#[derive(Debug, Clone, Default)]
pub struct FaultInventory {
    /// Two hosts configured with the same IP address.
    pub duplicate_ip_pair: Option<(String, String)>,
    /// Host configured with the wrong subnet mask.
    pub wrong_mask_host: Option<String>,
    /// Host that promiscuously rebroadcasts RIP.
    pub promiscuous_rip_host: Option<String>,
    /// Host that is permanently gone (still in the DNS).
    pub removed_host: Option<String>,
    /// `(old, new)` hosts modeling a hardware change: same IP, different
    /// MAC; `old` dies when `new` appears.
    pub hardware_change: Option<(String, String)>,
}

/// Ground truth about the generated campus.
pub struct CampusTruth {
    /// The built topology map.
    pub topology: Topology,
    /// Every subnet in the campus plan (assigned).
    pub assigned_subnets: Vec<Subnet>,
    /// Subnets actually connected.
    pub connected_subnets: Vec<Subnet>,
    /// Subnets registered in the DNS.
    pub dns_subnets: Vec<Subnet>,
    /// True gateway composition: `(router name, interface ips)`.
    pub gateways: Vec<(String, Vec<Ipv4Addr>)>,
    /// Routers whose names follow the `-gw` convention in the DNS.
    pub named_gateways: Vec<String>,
    /// The departmental subnet the Table 5 run explores.
    pub cs_subnet: Subnet,
    /// Real interfaces on the CS subnet (IP, node).
    pub cs_interfaces: Vec<(Ipv4Addr, NodeId)>,
    /// DNS-registered interface count on the CS subnet (incl. ghosts).
    pub cs_dns_count: usize,
    /// The campus name server's address.
    pub dns_server: Ipv4Addr,
    /// Name of the always-up CS host the Explorer Modules run from.
    pub explorer_host: String,
    /// Names of routers that filter traceroute probes.
    pub broken_routers: Vec<String>,
    /// Injected faults.
    pub faults: FaultInventory,
    /// The backbone subnet.
    pub backbone: Subnet,
}

/// Generates the campus. Returns the running simulator and ground truth.
pub fn generate(cfg: &CampusConfig) -> (Sim, CampusTruth) {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xCA_3F_05);
    let mut b = TopologyBuilder::new();

    let octets = cfg.network.network().octets();
    let third_subnet = |n: u8| -> Subnet {
        Subnet::containing(
            Ipv4Addr::new(octets[0], octets[1], n, 0),
            SubnetMask::from_prefix_len(24).expect("valid prefix"),
        )
    };

    // --- Subnet plan -----------------------------------------------------
    // Third octets spread over the space; 1 = backbone, 243 forced for CS
    // (the paper's department). Unused subnets occupy the top of the plan.
    let backbone_subnet: Subnet = third_subnet(1);
    let cs_third: u8 = 243;
    let mut assigned_thirds: Vec<u8> = Vec::with_capacity(cfg.subnets_assigned + 1);
    let mut seen_thirds = [false; 256];
    let mut t = 1u16;
    while assigned_thirds.len() < cfg.subnets_assigned {
        if !seen_thirds[t as usize] {
            seen_thirds[t as usize] = true;
            assigned_thirds.push(t as u8);
        }
        t += 2;
        if t >= 250 {
            t = 2;
        }
    }
    if !seen_thirds[cs_third as usize] {
        assigned_thirds.pop();
        assigned_thirds.push(cs_third);
    }
    assigned_thirds.sort_unstable();
    assigned_thirds.dedup();
    let assigned_subnets: Vec<Subnet> = assigned_thirds.iter().map(|&n| third_subnet(n)).collect();

    // Connected = backbone + CS + the first (connected-2) others.
    let mut connected_thirds: Vec<u8> = vec![1, cs_third];
    for &n in &assigned_thirds {
        if connected_thirds.len() >= cfg.subnets_connected {
            break;
        }
        if n != 1 && n != cs_third {
            connected_thirds.push(n);
        }
    }
    connected_thirds.sort_unstable();
    let connected_subnets: Vec<Subnet> =
        connected_thirds.iter().map(|&n| third_subnet(n)).collect();

    // --- Segments ---------------------------------------------------------
    let backbone_seg = b.segment_net("backbone", third_subnet(1));
    let mut leaf_segs: Vec<(u8, usize)> = Vec::new(); // (third octet, builder idx)
    for &n in &connected_thirds {
        if n == 1 {
            continue;
        }
        let name = if n == cs_third {
            "cs-net".to_owned()
        } else {
            format!("net-{n}")
        };
        let idx = b.segment_net(&name, third_subnet(n));
        leaf_segs.push((n, idx));
    }

    // --- Routers ----------------------------------------------------------
    // Each router uplinks 2-4 leaf subnets to the backbone. CS gets its own
    // dedicated router (the paper's department gateway).
    let dept_names = [
        "engr", "phys", "chem", "geol", "math", "biol", "hist", "musi", "arts", "law", "admin",
        "dorm", "med", "astr", "ecol", "econ", "socy", "psych", "ling", "aero", "civil", "mech",
        "elect", "comp", "stat", "atmo", "ocean", "geog", "anthro", "class", "phil", "thtr",
        "dance", "jour", "libr", "regis", "house", "athl", "alum", "ops",
    ];
    let mut gateways: Vec<(String, Vec<Ipv4Addr>)> = Vec::new();
    let mut broken_routers = Vec::new();
    let mut named_gateways = Vec::new();
    let mut backbone_attach = 2u32;

    // CS router first: backbone .2 + cs-net .1.
    let cs_seg_idx = leaf_segs
        .iter()
        .find(|(n, _)| *n == cs_third)
        .map(|(_, i)| *i)
        .expect("cs segment exists");
    {
        b.router("cs-gw", &[(backbone_seg, backbone_attach), (cs_seg_idx, 1)]);
        let ips = vec![
            backbone_subnet.nth(backbone_attach).expect("fits"),
            Ipv4Addr::new(octets[0], octets[1], cs_third, 1),
        ];
        gateways.push(("cs-gw".to_owned(), ips));
        named_gateways.push("cs-gw".to_owned());
        backbone_attach += 1;
    }

    // Remaining leaves in groups of 2-4 per router.
    let mut remaining: Vec<(u8, usize)> = leaf_segs
        .iter()
        .copied()
        .filter(|(n, _)| *n != cs_third)
        .collect();
    let mut dept_i = 0usize;
    while !remaining.is_empty() {
        let take = rng.gen_range(2..=4usize).min(remaining.len());
        let group: Vec<(u8, usize)> = remaining.drain(..take).collect();
        let name = if dept_i < dept_names.len() {
            format!("{}-gw", dept_names[dept_i])
        } else {
            format!("{}2-gw", dept_names[dept_i % dept_names.len()])
        };
        dept_i += 1;
        let mut attach: Vec<(usize, u32)> = vec![(backbone_seg, backbone_attach)];
        backbone_attach += 1;
        for (_, seg_idx) in &group {
            attach.push((*seg_idx, 1));
        }
        let r = b.router(&name, &attach);
        let mut ips = vec![backbone_subnet.nth(attach[0].1).expect("fits")];
        for (n, _) in &group {
            ips.push(Ipv4Addr::new(octets[0], octets[1], *n, 1));
        }
        // Some routers have the probe-filtering bug.
        if rng.gen::<f64>() < cfg.broken_router_frac {
            b.router_mut(r).behavior.filter_udp_probes = true;
            broken_routers.push(name.clone());
        }
        // Some follow the -gw DNS naming convention.
        if rng.gen::<f64>() < cfg.gateway_naming {
            named_gateways.push(name.clone());
        }
        gateways.push((name, ips));
    }

    // --- CS subnet hosts ---------------------------------------------------
    let host_names = [
        "bruno",
        "piper",
        "anchor",
        "spot",
        "tigger",
        "eeyore",
        "pooh",
        "owl",
        "kanga",
        "roo",
        "latour",
        "lafite",
        "margaux",
        "palmer",
        "pichon",
        "lynch",
        "talbot",
        "gloria",
        "figeac",
        "petrus",
        "ausone",
        "cheval",
        "yquem",
        "climens",
        "coutet",
        "guiraud",
        "rieussec",
        "fargues",
        "raymond",
        "lamothe",
        "filhot",
        "malle",
        "arche",
        "broustet",
        "nairac",
        "caillou",
        "suau",
        "myrat",
        "doisy",
        "vedrines",
        "boulder",
        "nederland",
        "lyons",
        "louisville",
        "lafayette",
        "superior",
        "erie",
        "niwot",
        "hygiene",
        "ward",
        "jamestown",
        "allenspark",
        "gunbarrel",
        "eldora",
        "marshall",
        "valmont",
        "sunshine",
        "salina",
        "crisman",
        "rowena",
        "sugarloaf",
    ];
    let cs_subnet: Subnet = third_subnet(cs_third);
    let mut cs_host_idxs: Vec<HostIdx> = Vec::new();
    let mut used_names: HashSet<String> = HashSet::new();
    let mut cs_dns_names: Vec<(String, Ipv4Addr)> = Vec::new();
    for i in 0..cfg.cs_hosts {
        let base = host_names[i % host_names.len()];
        let name = if used_names.contains(base) {
            format!("{base}{i}")
        } else {
            base.to_owned()
        };
        used_names.insert(name.clone());
        let n = (i as u32) + 10;
        let h = b.host(&name, cs_seg_idx, n);
        cs_host_idxs.push(h);
        let ip = cs_subnet.nth(n).expect("fits");
        cs_dns_names.push((name, ip));
    }

    // --- Fault injection ----------------------------------------------------
    let mut faults = FaultInventory::default();
    if cfg.inject_faults {
        // Duplicate IP: a lab machine cloned with bruno's address.
        let dup_ip = cs_subnet.nth(10).expect("fits");
        let h = b.host_at("rogue-clone", cs_seg_idx, dup_ip);
        cs_host_idxs.push(h);
        faults.duplicate_ip_pair = Some(("bruno".to_owned(), "rogue-clone".to_owned()));

        // Wrong mask: thinks the class B is unsubnetted.
        let wm = b.host("badmask", cs_seg_idx, 200);
        b.host_mut(wm).mask = SubnetMask::from_prefix_len(16).expect("valid");
        cs_host_idxs.push(wm);
        cs_dns_names.push(("badmask".to_owned(), cs_subnet.nth(200).expect("fits")));
        faults.wrong_mask_host = Some("badmask".to_owned());

        // Promiscuous RIP host.
        let pr = b.host("chatty", cs_seg_idx, 201);
        b.host_mut(pr).behavior.rip = Some(RipConfig {
            promiscuous: true,
            split_horizon: false,
            ..Default::default()
        });
        cs_host_idxs.push(pr);
        cs_dns_names.push(("chatty".to_owned(), cs_subnet.nth(201).expect("fits")));
        faults.promiscuous_rip_host = Some("chatty".to_owned());

        // Hardware change: "piper" is later replaced by "piper-new" (same
        // IP, new adapter). The driver flips them with set_node_up.
        let hw_ip = cs_subnet.nth(11).expect("fits");
        let hn = b.host_at("piper-new", cs_seg_idx, hw_ip);
        cs_host_idxs.push(hn);
        faults.hardware_change = Some(("piper".to_owned(), "piper-new".to_owned()));

        // Removed host: registered in DNS, machine long gone.
        cs_dns_names.push(("ghostly".to_owned(), cs_subnet.nth(222).expect("fits")));
        faults.removed_host = Some("ghostly".to_owned());
    }

    // Ghost DNS entries beyond the removed-host fault.
    for g in 0..cfg.cs_ghost_entries.saturating_sub(1) {
        cs_dns_names.push((
            format!("stale{g}"),
            cs_subnet.nth(230 + g as u32).expect("fits"),
        ));
    }

    // --- Other leaf hosts ----------------------------------------------------
    let mut other_dns: Vec<(String, Ipv4Addr)> = Vec::new();
    for (n, seg_idx) in &leaf_segs {
        if *n == cs_third {
            continue;
        }
        let count = rng.gen_range(cfg.hosts_per_subnet.0..=cfg.hosts_per_subnet.1);
        for i in 0..count {
            let name = format!("h{n}x{i}");
            let hostnum = (i as u32) + 10;
            b.host(&name, *seg_idx, hostnum);
            let ip = Ipv4Addr::new(octets[0], octets[1], *n, hostnum as u8);
            other_dns.push((name, ip));
        }
    }

    // --- Name server ----------------------------------------------------------
    let ns_ip = backbone_subnet.nth(53).expect("fits");
    b.host_at("ns", backbone_seg, ns_ip);

    // --- Build -----------------------------------------------------------------
    let (mut sim, topology) = b.build(cfg.seed);

    // Decide which connected subnets are registered in the DNS: backbone,
    // CS, and a dns_coverage fraction of the rest.
    let mut dns_covered: Vec<u8> = vec![1, cs_third];
    {
        let mut candidates: Vec<u8> = connected_thirds
            .iter()
            .copied()
            .filter(|n| *n != 1 && *n != cs_third)
            .collect();
        let want = ((connected_thirds.len() as f64) * cfg.dns_coverage).round() as usize;
        while dns_covered.len() < want && !candidates.is_empty() {
            let i = rng.gen_range(0..candidates.len());
            dns_covered.push(candidates.swap_remove(i));
        }
        dns_covered.sort_unstable();
    }

    let domain: DnsName = "colorado.edu".parse().expect("name literal");
    let rev_parent_name: DnsName = format!("{}.{}.in-addr.arpa", octets[1], octets[0])
        .parse()
        .expect("name literal");
    let mut server = DnsServerState::new();
    let mut forward = Zone::new(domain.clone());
    let mut rev_parent = Zone::new(rev_parent_name.clone());
    let mut child_zones: Vec<Zone> = Vec::with_capacity(dns_covered.len());

    // Direct-indexed coverage test and third-octet → child-zone index, so
    // each record costs a couple of array lookups instead of a linear
    // zone scan and a reverse-zone name parse.
    let mut covered_arr = [false; 256];
    for &n in &dns_covered {
        covered_arr[n as usize] = true;
    }
    let mut zone_idx = [usize::MAX; 256];

    let add_pair = |fwd: &mut Zone,
                    children: &mut Vec<Zone>,
                    zone_idx: &mut [usize; 256],
                    name: &str,
                    ip: Ipv4Addr| {
        let t3 = ip.octets()[2];
        if !covered_arr[t3 as usize] {
            return;
        }
        let fqdn = domain.child(name).expect("label fits");
        fwd.add_a(fqdn.clone(), ip);
        let z = if zone_idx[t3 as usize] != usize::MAX {
            &mut children[zone_idx[t3 as usize]]
        } else {
            let zone_name: DnsName = format!("{t3}.{}.{}.in-addr.arpa", octets[1], octets[0])
                .parse()
                .expect("name literal");
            zone_idx[t3 as usize] = children.len();
            children.push(Zone::new(zone_name));
            children.last_mut().expect("just pushed")
        };
        z.add_ptr(DnsName::reverse_for(ip), fqdn);
    };

    // Host records.
    for (name, ip) in &cs_dns_names {
        add_pair(&mut forward, &mut child_zones, &mut zone_idx, name, *ip);
    }
    for (name, ip) in &other_dns {
        add_pair(&mut forward, &mut child_zones, &mut zone_idx, name, *ip);
    }
    add_pair(&mut forward, &mut child_zones, &mut zone_idx, "ns", ns_ip);
    // Gateway records: named gateways get an A record for the backbone
    // interface plus a couple of leaf interfaces under the -gw name (few
    // admins registered them all); unnamed routers get unrelated
    // per-interface names.
    for (gname, ips) in &gateways {
        let is_named = named_gateways.contains(gname);
        let exposed_leaves = rng.gen_range(cfg.gateway_dns_leaves.0..=cfg.gateway_dns_leaves.1);
        for (k, ip) in ips.iter().enumerate() {
            if is_named {
                if k == 0 || k <= exposed_leaves {
                    add_pair(&mut forward, &mut child_zones, &mut zone_idx, gname, *ip);
                }
            } else {
                // Unnamed routers get unrelated per-interface names, so no
                // DNS heuristic can group them (that is the point: these
                // are the gateways the DNS module cannot identify).
                let stem = gname.trim_end_matches("-gw");
                let anon = format!("{stem}-e{k}");
                add_pair(&mut forward, &mut child_zones, &mut zone_idx, &anon, *ip);
            }
        }
    }

    for z in &child_zones {
        rev_parent.delegations.push(z.origin.clone());
    }
    server.add_zone(forward);
    server.add_zone(rev_parent);
    for z in child_zones {
        server.add_zone(z);
    }
    let ns_node = topology.nodes_by_name["ns"];
    sim.nodes[ns_node.0].dns = Some(server);

    // --- Runtime models ---------------------------------------------------------
    // Uptime churn for ordinary CS hosts — but not the fault-controlled
    // ones, and never "bruno": that is the workstation the Explorer
    // Modules run from, and the paper's module host was obviously up.
    let controlled: HashSet<&str> = ["bruno", "rogue-clone", "piper-new", "badmask", "chatty"]
        .into_iter()
        .collect();
    // "piper" additionally stays out of the churn model (an experiment
    // kills it permanently to model the hardware change), but unlike the
    // controlled set it still participates in background traffic.
    for node in &topology.hosts {
        let name = sim.nodes[node.0].name.clone();
        let ip = sim.nodes[node.0].ifaces[0].ip;
        let on_cs = ip != ns_ip && cs_subnet.contains(ip);
        if on_cs && !controlled.contains(name.as_str()) && name != "piper" {
            sim.set_uptime(
                *node,
                UptimeModel::with_availability(cfg.availability, cfg.churn_cycle),
            );
        }
    }
    // The fault pair starts consistent: clone and replacement are off.
    if cfg.inject_faults {
        for n in ["rogue-clone", "piper-new"] {
            if let Some(id) = sim.node_by_name(n) {
                sim.set_node_up(id, false);
            }
        }
    }

    // Background traffic on the CS subnet: weighted, server-heavy flows so
    // ARPwatch discovery ramps like Table 5.
    if cfg.cs_traffic {
        let cs_nodes: Vec<NodeId> = topology
            .hosts
            .iter()
            .copied()
            .filter(|id| {
                let ip = sim.nodes[id.0].ifaces[0].ip;
                cs_subnet.contains(ip) && !controlled.contains(sim.nodes[id.0].name.as_str())
            })
            .collect();
        let mut flows = Vec::new();
        for (i, &src) in cs_nodes.iter().enumerate() {
            // Zipf-ish weights: early hosts (servers) talk much more.
            let weight = 12.0 / (1.0 + i as f64);
            let dst_node = cs_nodes[(i * 7 + 3) % cs_nodes.len()];
            let dst = sim.nodes[dst_node.0].ifaces[0].ip;
            flows.push(Flow { src, dst, weight });
            // And everyone occasionally talks off-subnet (through the gw).
            flows.push(Flow {
                src,
                dst: ns_ip,
                weight: weight / 4.0,
            });
        }
        sim.set_traffic(TrafficModel::new(flows, SimDuration::from_secs(22), 1));
    }

    // Collect CS ground truth (real machines only: includes faulty ones,
    // excludes DNS ghosts) plus the CS-side router interface.
    let mut cs_interfaces: Vec<(Ipv4Addr, NodeId)> = Vec::new();
    for id in &topology.hosts {
        let ip = sim.nodes[id.0].ifaces[0].ip;
        if cs_subnet.contains(ip) {
            cs_interfaces.push((ip, *id));
        }
    }
    let cs_gw = topology.nodes_by_name["cs-gw"];
    for iface in &sim.nodes[cs_gw.0].ifaces {
        if cs_subnet.contains(iface.ip) {
            cs_interfaces.push((iface.ip, cs_gw));
        }
    }

    let dns_subnets: Vec<Subnet> = dns_covered.iter().map(|&n| third_subnet(n)).collect();
    // cs-gw's CS-side interface is registered under the -gw name only
    // when named gateways expose at least one leaf interface.
    let cs_gw_registered = usize::from(cfg.gateway_dns_leaves.1 >= 1);
    let cs_dns_count = cs_dns_names
        .iter()
        .filter(|(_, ip)| cs_subnet.contains(*ip))
        .count()
        + cs_gw_registered;

    // Scheduled mid-run faults, last: every name they address now exists.
    sim.install_fault_plan(&cfg.fault_plan);

    let truth = CampusTruth {
        topology,
        assigned_subnets,
        connected_subnets,
        dns_subnets,
        gateways,
        named_gateways,
        cs_subnet,
        cs_interfaces,
        cs_dns_count,
        dns_server: ns_ip,
        explorer_host: "bruno".to_owned(),
        broken_routers,
        faults,
        backbone: backbone_subnet,
    };
    (sim, truth)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_campus_shape_matches_paper() {
        let cfg = CampusConfig::default();
        let (sim, truth) = generate(&cfg);
        assert_eq!(truth.assigned_subnets.len(), 114);
        assert_eq!(truth.connected_subnets.len(), 111);
        // DNS coverage ~84%.
        let cov = truth.dns_subnets.len() as f64 / truth.connected_subnets.len() as f64;
        assert!((0.78..=0.90).contains(&cov), "coverage {cov}");
        // ~30-48 gateways.
        assert!(
            (28..=48).contains(&truth.gateways.len()),
            "gateways {}",
            truth.gateways.len()
        );
        // Some routers broken, most named.
        assert!(!truth.broken_routers.is_empty());
        assert!(truth.named_gateways.len() >= truth.gateways.len() / 2);
        // CS subnet truth.
        assert!(truth.cs_interfaces.len() >= cfg.cs_hosts);
        assert_eq!(truth.cs_subnet.to_string(), "128.138.243.0/24");
        // The name server answers for a parent zone plus children.
        let ns = sim.node_by_name("ns").unwrap();
        let dns = sim.nodes[ns.0].dns.as_ref().unwrap();
        assert!(dns.zone_count() > 80, "zones: {}", dns.zone_count());
        assert!(dns.record_count() > 200);
    }

    #[test]
    fn campus_is_fully_routable() {
        let (sim, truth) = generate(&CampusConfig::small());
        for r in &truth.topology.routers {
            for s in &truth.connected_subnets {
                assert!(
                    sim.nodes[r.0].routes.lookup(s.nth(5).unwrap()).is_some(),
                    "router {} cannot reach {s}",
                    sim.nodes[r.0].name
                );
            }
        }
    }

    #[test]
    fn faults_are_injected() {
        let (sim, truth) = generate(&CampusConfig::small());
        let f = &truth.faults;
        assert!(f.duplicate_ip_pair.is_some());
        assert!(f.wrong_mask_host.is_some());
        assert!(f.promiscuous_rip_host.is_some());
        assert!(f.removed_host.is_some());
        let (a, bname) = f.duplicate_ip_pair.clone().unwrap();
        let ida = sim.node_by_name(&a).unwrap();
        let idb = sim.node_by_name(&bname).unwrap();
        assert_eq!(
            sim.nodes[ida.0].ifaces[0].ip, sim.nodes[idb.0].ifaces[0].ip,
            "duplicate pair shares an IP"
        );
        assert_ne!(
            sim.nodes[ida.0].ifaces[0].mac,
            sim.nodes[idb.0].ifaces[0].mac
        );
        // Clone starts down (consistent world until the experiment flips it).
        assert!(!sim.nodes[idb.0].up);
    }

    #[test]
    fn generation_is_deterministic() {
        let (_, t1) = generate(&CampusConfig::default());
        let (_, t2) = generate(&CampusConfig::default());
        assert_eq!(t1.connected_subnets, t2.connected_subnets);
        assert_eq!(t1.broken_routers, t2.broken_routers);
        assert_eq!(t1.cs_interfaces.len(), t2.cs_interfaces.len());
        let (_, t3) = generate(&CampusConfig {
            seed: 7,
            ..Default::default()
        });
        assert_ne!(t1.broken_routers, t3.broken_routers, "seed matters");
    }

    #[test]
    fn cs_dns_count_near_56() {
        let (_, truth) = generate(&CampusConfig::default());
        assert!(
            (54..=62).contains(&truth.cs_dns_count),
            "cs dns count {}",
            truth.cs_dns_count
        );
    }
}
