//! The paper's discovery-effectiveness experiments: Table 5 (interfaces
//! on one subnet) and Table 6 (subnets of the campus).
//!
//! Each module runs once on a freshly generated campus (same seed, so the
//! same ground truth), starting at a module-specific warm-up offset so
//! host up/down churn puts each run in a different availability snapshot —
//! the "Not all hosts up when run" effect of Table 5.

use std::collections::HashSet;
use std::net::Ipv4Addr;

use fremont_explorers::{
    ArpWatch, BrdcastPing, DnsExplorer, EtherHostProbe, RipWatch, SeqPing, Traceroute,
};
use fremont_net::Subnet;
use fremont_netsim::campus::{generate, CampusConfig, CampusTruth};
use fremont_netsim::engine::Sim;
use fremont_netsim::process::Process;
use fremont_netsim::segment::NodeId;
use fremont_netsim::time::SimDuration;

use crate::tables::{pct, Table};

fn fresh(cfg: &CampusConfig, warmup: SimDuration) -> (Sim, CampusTruth, NodeId) {
    let (mut sim, truth) = generate(cfg);
    let home = sim
        .node_by_name(&truth.explorer_host)
        .expect("campus has its explorer host");
    sim.run_for(warmup);
    (sim, truth, home)
}

/// Result row for Table 5.
#[derive(Debug, Clone)]
pub struct InterfaceDiscovery {
    /// Module label (matching the paper's rows).
    pub module: String,
    /// Distinct CS-subnet interfaces the module found.
    pub found: usize,
    /// The paper's count for comparison.
    pub paper: usize,
    /// The paper's loss explanation.
    pub reason: &'static str,
}

/// Runs the Table 5 experiment.
pub fn table5_runs(cfg: &CampusConfig) -> (Vec<InterfaceDiscovery>, usize) {
    let mut rows = Vec::new();

    // --- ARPwatch: passive, measured at 30 minutes and 24 hours --------
    {
        let (mut sim, truth, home) = fresh(cfg, SimDuration::from_mins(1));
        let cs = truth.cs_subnet;
        let h = sim.spawn(home, Box::new(ArpWatch::new()));
        sim.run_for(SimDuration::from_mins(30));
        let at_30 = count_cs(sim.process_mut::<ArpWatch>(h).expect("alive").pairs(), cs);
        sim.run_for(SimDuration::from_hours(24) - SimDuration::from_mins(30));
        let at_24h = count_cs(sim.process_mut::<ArpWatch>(h).expect("alive").pairs(), cs);
        rows.push(InterfaceDiscovery {
            module: "ARPwatch (30 min)".to_owned(),
            found: at_30,
            paper: 34,
            reason: "Run for 30 min",
        });
        rows.push(InterfaceDiscovery {
            module: "ARPwatch (24 hours)".to_owned(),
            found: at_24h,
            paper: 50,
            reason: "Run for 24 hours",
        });
    }

    // --- EtherHostProbe -------------------------------------------------
    {
        let (mut sim, truth, home) = fresh(cfg, SimDuration::from_hours(3));
        let cs = truth.cs_subnet;
        let h = sim.spawn(home, Box::new(EtherHostProbe::new(cs.host_range())));
        sim.run_for(SimDuration::from_mins(10));
        let found = count_cs(
            sim.process_mut::<EtherHostProbe>(h)
                .expect("alive")
                .found()
                .to_vec(),
            cs,
        );
        rows.push(InterfaceDiscovery {
            module: "EtherHostProbe".to_owned(),
            found,
            paper: 48,
            reason: "Not all hosts up when run",
        });
    }

    // --- BrdcastPing ----------------------------------------------------
    {
        let (mut sim, truth, home) = fresh(cfg, SimDuration::from_hours(5));
        let cs = truth.cs_subnet;
        let h = sim.spawn(home, Box::new(BrdcastPing::new(vec![cs])));
        sim.run_for(SimDuration::from_mins(5));
        let found = sim
            .process_mut::<BrdcastPing>(h)
            .expect("alive")
            .responders()
            .into_iter()
            .filter(|ip| cs.contains(*ip))
            .count();
        rows.push(InterfaceDiscovery {
            module: "BrdcastPing".to_owned(),
            found,
            paper: 42,
            reason: "Collisions",
        });
    }

    // --- SeqPing ----------------------------------------------------------
    {
        let (mut sim, truth, home) = fresh(cfg, SimDuration::from_hours(8));
        let cs = truth.cs_subnet;
        let h = sim.spawn(home, Box::new(SeqPing::new(cs.host_range())));
        sim.run_for(SimDuration::from_mins(40));
        let found = sim
            .process_mut::<SeqPing>(h)
            .expect("alive")
            .responders()
            .into_iter()
            .filter(|ip| cs.contains(*ip))
            .count();
        rows.push(InterfaceDiscovery {
            module: "SeqPing".to_owned(),
            found,
            paper: 38,
            reason: "Not all hosts up when run",
        });
    }

    // --- DNS ------------------------------------------------------------
    let total;
    {
        let (mut sim, truth, home) = fresh(cfg, SimDuration::from_mins(2));
        let cs = truth.cs_subnet;
        let h = sim.spawn(
            home,
            Box::new(DnsExplorer::new(cfg.network, truth.dns_server)),
        );
        sim.run_for(SimDuration::from_mins(20));
        let p = sim.process_mut::<DnsExplorer>(h).expect("alive");
        assert!(p.done(), "DNS walk finished");
        let found = p
            .pairs()
            .iter()
            .filter(|(ip, _)| cs.contains(*ip))
            .map(|(ip, _)| *ip)
            .collect::<HashSet<_>>()
            .len();
        total = found.max(truth.cs_dns_count);
        rows.push(InterfaceDiscovery {
            module: "DNS".to_owned(),
            found,
            paper: 56,
            reason: "Not necessarily current",
        });
    }
    (rows, total)
}

fn count_cs(pairs: Vec<(Ipv4Addr, fremont_net::MacAddr)>, cs: Subnet) -> usize {
    pairs
        .into_iter()
        .filter(|(ip, _)| cs.contains(*ip))
        .map(|(ip, _)| ip)
        .collect::<HashSet<_>>()
        .len()
}

/// Table 5, rendered against the paper's numbers.
pub fn table5(cfg: &CampusConfig) -> Table {
    let (rows, total) = table5_runs(cfg);
    let mut t = Table::new(
        "Table 5: Discovering Interfaces on a Subnet (1 run of each active module)",
        &[
            "Module",
            "Interfaces",
            "% of Total",
            "Paper",
            "Paper %",
            "Reason for loss",
        ],
    );
    for r in &rows {
        t.row(&[
            r.module.clone(),
            r.found.to_string(),
            pct(r.found, total),
            r.paper.to_string(),
            pct(r.paper, 56),
            r.reason.to_owned(),
        ]);
    }
    t.note(&format!(
        "totals: this run {total} DNS-registered interfaces; the paper's subnet had 56"
    ));
    t.note("percentages presume the DNS data are an accurate reflection of the network");
    t
}

/// Result row for Table 6.
#[derive(Debug, Clone)]
pub struct SubnetDiscovery {
    /// Module label.
    pub module: String,
    /// Subnets the module found.
    pub found: usize,
    /// Paper's count.
    pub paper: usize,
    /// Comment (paper's wording).
    pub comment: &'static str,
}

/// Runs the Table 6 experiment. Returns `(rows, connected_total)`.
pub fn table6_runs(cfg: &CampusConfig) -> (Vec<SubnetDiscovery>, usize) {
    let mut rows = Vec::new();
    let total;

    // --- Traceroute -------------------------------------------------------
    {
        let (mut sim, truth, home) = fresh(cfg, SimDuration::from_mins(1));
        total = truth.connected_subnets.len();
        let tr = Traceroute::new(truth.assigned_subnets.clone(), cfg.network);
        let h = sim.spawn(home, Box::new(tr));
        sim.run_for(SimDuration::from_mins(45));
        let p = sim.process_mut::<Traceroute>(h).expect("alive");
        assert!(p.done(), "traceroute finished");
        let found = p
            .reached_subnets()
            .into_iter()
            .filter(|s| truth.connected_subnets.contains(s))
            .count();
        rows.push(SubnetDiscovery {
            module: "Traceroute".to_owned(),
            found,
            paper: 86,
            comment: "Gateway software problems",
        });
    }

    // --- RIPwatch ----------------------------------------------------------
    {
        let (mut sim, truth, home) = fresh(cfg, SimDuration::from_mins(1));
        let h = sim.spawn(home, Box::new(RipWatch::new()));
        sim.run_for(SimDuration::from_mins(3));
        let p = sim.process_mut::<RipWatch>(h).expect("alive");
        let found = p
            .subnets()
            .into_iter()
            .filter(|s| truth.connected_subnets.contains(s))
            .count();
        rows.push(SubnetDiscovery {
            module: "RIPwatch".to_owned(),
            found,
            paper: 111,
            comment: "Nearly all subnets advertised",
        });
    }

    // --- DNS: subnets + gateway attribution --------------------------------
    {
        let (mut sim, truth, home) = fresh(cfg, SimDuration::from_mins(1));
        let h = sim.spawn(
            home,
            Box::new(DnsExplorer::new(cfg.network, truth.dns_server)),
        );
        sim.run_for(SimDuration::from_mins(30));
        let p = sim.process_mut::<DnsExplorer>(h).expect("alive");
        assert!(p.done(), "DNS walk finished");
        let found = p
            .registered_subnets()
            .into_iter()
            .filter(|s| truth.connected_subnets.contains(s))
            .count();
        rows.push(SubnetDiscovery {
            module: "DNS".to_owned(),
            found,
            paper: 93,
            comment: "Not all hosts name served",
        });
        // Gateways identified, and the distinct subnets they attribute
        // (grouped by the bootstrapped /24 mask).
        let gws = p.gateways();
        let gw_count = gws.len();
        let mask24 = fremont_net::SubnetMask::from_prefix_len(24).expect("valid");
        let mut gw_subnets: Vec<Subnet> = gws
            .iter()
            .flat_map(|g| g.ips.iter().map(|ip| Subnet::containing(*ip, mask24)))
            .collect();
        gw_subnets.sort();
        gw_subnets.dedup();
        rows.push(SubnetDiscovery {
            module: format!("DNS ({gw_count} gateways identified)"),
            found: gw_subnets.len(),
            paper: 48,
            comment: "Subnets with gateways identified",
        });
    }
    (rows, total)
}

/// Table 6, rendered against the paper's numbers.
pub fn table6(cfg: &CampusConfig) -> Table {
    let (rows, total) = table6_runs(cfg);
    let mut t = Table::new(
        "Table 6: Discovering Subnets (1 run of each active module)",
        &[
            "Module",
            "Subnets",
            "% of Total",
            "Paper",
            "Paper %",
            "Comments",
        ],
    );
    for r in &rows {
        t.row(&[
            r.module.clone(),
            r.found.to_string(),
            pct(r.found, total),
            r.paper.to_string(),
            pct(r.paper, 111),
            r.comment.to_owned(),
        ]);
    }
    t.note(&format!(
        "this campus: {total} connected subnets (paper: 111); RIPwatch's count is \
         treated as exact, as in the paper"
    ));
    t
}
