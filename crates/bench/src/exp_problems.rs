//! Tables 7 and 8, and Figure 2: what a full Fremont campaign discovers,
//! the problems it uncovers, and the topology map it can draw.

use fremont_core::{Fremont, ProblemReport, TopologyGraph};
use fremont_journal::query::{InterfaceQuery, SubnetQuery};
use fremont_journal::server::JournalAccess;
use fremont_netsim::campus::CampusConfig;
use fremont_netsim::time::SimDuration;

use crate::tables::Table;

/// Runs a full campaign: explore, inject the mid-life faults, keep
/// exploring. Returns the deployment for further inspection.
pub fn full_campaign(cfg: &CampusConfig, days: u64) -> Fremont {
    let mut system = Fremont::over_campus(cfg);
    let faults = system.truth.faults.clone();
    // First day: healthy network. (In-memory journal: flush cannot fail.)
    system
        .explore(SimDuration::from_hours(6))
        .expect("in-memory flush");
    // Then the faults activate (duplicate clone boots; hardware replaced).
    let sim = &mut system.driver.sim;
    if let Some((_, clone)) = &faults.duplicate_ip_pair {
        if let Some(id) = sim.node_by_name(clone) {
            sim.set_node_up(id, true);
        }
    }
    if let Some((old, new)) = &faults.hardware_change {
        let old_id = sim.node_by_name(old);
        let new_id = sim.node_by_name(new);
        if let (Some(o), Some(n)) = (old_id, new_id) {
            sim.set_node_up(o, false);
            sim.set_node_up(n, true);
        }
    }
    system
        .explore(SimDuration::from_days(days.max(1)) - SimDuration::from_hours(6))
        .expect("in-memory flush");
    system
}

/// Table 7: characteristics discovered by the prototype.
pub fn table7(system: &Fremont) -> Table {
    let journal = &system.driver.journal;
    let ifaces = journal
        .interfaces(&InterfaceQuery::all())
        .unwrap_or_default();
    let with = |f: &dyn Fn(&fremont_journal::InterfaceRecord) -> bool| {
        ifaces.iter().filter(|r| f(r)).count()
    };
    let gws = journal.gateways().unwrap_or_default();
    let subs = journal.subnets(&SubnetQuery::all()).unwrap_or_default();

    let mut t = Table::new(
        "Table 7: Characteristics Discovered by Prototype",
        &["Record", "Characteristic", "Populated"],
    );
    t.row(&[
        "Interfaces".to_owned(),
        "Ethernet Address".to_owned(),
        with(&|r| r.mac.is_some()).to_string(),
    ]);
    t.row(&[
        "".to_owned(),
        "IP Address".to_owned(),
        with(&|r| r.ip.is_some()).to_string(),
    ]);
    t.row(&[
        "".to_owned(),
        "Name".to_owned(),
        with(&|r| r.name.is_some()).to_string(),
    ]);
    t.row(&[
        "".to_owned(),
        "Subnet Mask".to_owned(),
        with(&|r| r.mask.is_some()).to_string(),
    ]);
    t.row(&[
        "".to_owned(),
        "Gateway Membership".to_owned(),
        with(&|r| r.gateway.is_some()).to_string(),
    ]);
    t.row(&[
        "Gateways".to_owned(),
        "Interfaces on GW".to_owned(),
        gws.iter()
            .filter(|g| !g.interfaces.is_empty())
            .count()
            .to_string(),
    ]);
    t.row(&[
        "".to_owned(),
        "Subnets connected (topology)".to_owned(),
        gws.iter()
            .filter(|g| !g.subnets.is_empty())
            .count()
            .to_string(),
    ]);
    t.row(&[
        "Subnets".to_owned(),
        "Gateways on Subnet".to_owned(),
        subs.iter()
            .filter(|s| !s.gateways.is_empty())
            .count()
            .to_string(),
    ]);
    t.note(&format!(
        "journal totals: {} interfaces, {} gateways, {} subnets",
        ifaces.len(),
        gws.len(),
        subs.len()
    ));
    t
}

/// Table 8: problems uncovered, against the injected fault inventory.
pub fn table8(system: &Fremont) -> (Table, ProblemReport) {
    // Stale horizon: two days without live verification; minimum overlap
    // for duplicates: one hour of coexistence.
    let report = system.problems(2 * 86400, 3600);
    let f = &system.truth.faults;
    let mut t = Table::new(
        "Table 8: Problems Uncovered by Prototype",
        &["Problem", "Findings", "Injected", "Caught?"],
    );
    let dup_found = !report.duplicates.is_empty() && f.duplicate_ip_pair.is_some();
    let removed_fqdn = f.removed_host.clone().map(|h| format!("{h}.colorado.edu"));
    let stale_found = report.stale.iter().any(|s| s.name == removed_fqdn);
    let hw_found = !report.hardware_changes.is_empty();
    let mask_found = !report.mask_conflicts.is_empty();
    let prom_found = !report.promiscuous.is_empty();
    t.row(&[
        "IP Addresses No Longer in Use".to_owned(),
        report.stale.len().to_string(),
        f.removed_host.clone().unwrap_or_else(|| "-".into()),
        yesno(stale_found),
    ]);
    t.row(&[
        "Hardware Changes".to_owned(),
        report.hardware_changes.len().to_string(),
        f.hardware_change
            .clone()
            .map(|(a, b)| format!("{a}→{b}"))
            .unwrap_or_else(|| "-".into()),
        yesno(hw_found),
    ]);
    t.row(&[
        "Inconsistent Network Masks".to_owned(),
        report.mask_conflicts.len().to_string(),
        f.wrong_mask_host.clone().unwrap_or_else(|| "-".into()),
        yesno(mask_found),
    ]);
    t.row(&[
        "Duplicate Address Assignments".to_owned(),
        report.duplicates.len().to_string(),
        f.duplicate_ip_pair
            .clone()
            .map(|(a, b)| format!("{a}+{b}"))
            .unwrap_or_else(|| "-".into()),
        yesno(dup_found),
    ]);
    t.row(&[
        "Promiscuous RIP Hosts".to_owned(),
        report.promiscuous.len().to_string(),
        f.promiscuous_rip_host.clone().unwrap_or_else(|| "-".into()),
        yesno(prom_found),
    ]);
    (t, report)
}

fn yesno(b: bool) -> String {
    (if b { "yes" } else { "NO" }).to_owned()
}

/// Figure 2: the discovered topology in its three renderings.
pub fn figure2(system: &Fremont) -> (TopologyGraph, String, String, String) {
    let graph = system.topology();
    let sunnet = graph.to_sunnet();
    let dot = graph.to_dot();
    let ascii = graph.to_ascii();
    (graph, sunnet, dot, ascii)
}
