//! The paper's discovery-effectiveness experiments: Table 5 (interfaces
//! on one subnet) and Table 6 (subnets of the campus).
//!
//! Each module runs once on a freshly generated campus (same seed, so the
//! same ground truth), starting at a module-specific warm-up offset so
//! host up/down churn puts each run in a different availability snapshot —
//! the "Not all hosts up when run" effect of Table 5.
//!
//! A module is counted by what it emitted, as the Journal would store it;
//! only Traceroute's reached targets are read from the module, since no
//! observation states that a target answered.

use std::collections::HashSet;

use fremont_explorers::{
    ArpWatch, BrdcastPing, DnsExplorer, EtherHostProbe, RipWatch, SeqPing, Traceroute,
};
use fremont_journal::observation::{Fact, Observation};
use fremont_net::Subnet;
use fremont_netsim::campus::{generate, CampusConfig, CampusTruth};
use fremont_netsim::engine::Sim;
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

/// Distinct `cs` addresses among the `Interface` facts: ARP pairs,
/// `ip_alive` and DNS `named_ip` alike.
fn count_cs(obs: &[Observation], cs: Subnet) -> usize {
    let ips = obs.iter().filter_map(|o| o.fact.interface_ip());
    ips.filter(|ip| cs.contains(*ip))
        .collect::<HashSet<_>>()
        .len()
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
        let mut pairs = sim.drain_observations_of(h);
        let at_30 = count_cs(&pairs, cs);
        sim.run_for(SimDuration::from_hours(24) - SimDuration::from_mins(30));
        pairs.extend(sim.drain_observations_of(h));
        let at_24h = count_cs(&pairs, cs);
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
        let found = count_cs(&sim.drain_observations_of(h), cs);
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
        let found = count_cs(&sim.drain_observations_of(h), cs);
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
        let found = count_cs(&sim.drain_observations_of(h), cs);
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
        assert!(sim.process_done(h), "DNS walk finished");
        let found = count_cs(&sim.drain_observations_of(h), cs);
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
        assert!(sim.process_done(h), "traceroute finished");
        let found = sim
            .process_mut::<Traceroute>(h)
            .expect("alive")
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
        let found = sim
            .drain_observations_of(h)
            .into_iter()
            .filter_map(|o| match o.fact {
                Fact::Subnet { subnet, .. } => Some(subnet),
                _ => None,
            })
            .filter(|s| truth.connected_subnets.contains(s))
            .collect::<HashSet<_>>()
            .len();
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
        assert!(sim.process_done(h), "DNS walk finished");
        let obs = sim.drain_observations_of(h);
        let found = obs
            .iter()
            .filter(|o| {
                matches!(&o.fact, Fact::SubnetStats { subnet, .. }
                if truth.connected_subnets.contains(subnet))
            })
            .count();
        rows.push(SubnetDiscovery {
            module: "DNS".to_owned(),
            found,
            paper: 93,
            comment: "Not all hosts name served",
        });
        // Gateways identified, and the distinct subnets they attribute
        // (grouped by the bootstrapped /24 mask).
        let mask24 = fremont_net::SubnetMask::from_prefix_len(24).expect("valid");
        let gws: Vec<&Vec<_>> = obs
            .iter()
            .filter_map(|o| match &o.fact {
                Fact::Gateway { interface_ips, .. } => Some(interface_ips),
                _ => None,
            })
            .collect();
        let gw_count = gws.len();
        let gw_subnets: HashSet<Subnet> = gws
            .iter()
            .flat_map(|ips| ips.iter().map(|ip| Subnet::containing(*ip, mask24)))
            .collect();
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
