//! Topology export: regenerating Figure 2.
//!
//! "The third program provides an X window display of the network
//! structure, as represented in the Journal. This is built from the
//! gateway and subnet records ... The program retrieves the network and
//! gateway entries from the Journal, and dumps the data in the format
//! expected by SunNet Manager." We emit three renderings of the same
//! gateway/subnet graph: a SunNet-Manager-style record dump, Graphviz
//! `dot`, and an ASCII adjacency map. The graph is built from one
//! snapshot of the Journal — one read of the store — so gateways, their
//! labels and the subnets all come from the same state.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use fremont_journal::records::GatewayId;
use fremont_journal::store::Journal;
use fremont_net::Subnet;

/// The extracted topology graph: gateways and the subnets they join.
#[derive(Debug, Clone, Default)]
pub struct TopologyGraph {
    /// `(gateway id, label, attached subnets)`.
    pub gateways: Vec<(GatewayId, String, Vec<Subnet>)>,
    /// Every subnet in the journal (attached or isolated).
    pub subnets: Vec<Subnet>,
}

impl TopologyGraph {
    /// Builds the graph from one snapshot of the Journal's records.
    pub fn from_journal(journal: &Journal) -> Self {
        let snap = journal.to_snapshot();
        let mut gateways = Vec::new();
        for g in &snap.gateways {
            // Label: the first member interface's name or address.
            let members = || g.interfaces.iter().filter_map(|i| snap.interface_by_id(*i));
            let label = members()
                .find_map(|r| r.dns_name().map(str::to_owned))
                .or_else(|| members().find_map(|r| r.ip_addr().map(|ip| ip.to_string())))
                .unwrap_or_else(|| format!("gw{}", g.id.0));
            let mut subnets = g.subnets.clone();
            subnets.sort();
            gateways.push((g.id, label, subnets));
        }
        gateways.sort_by_key(|(id, _, _)| *id);
        let subnets = snap.subnets.iter().map(|s| s.subnet).collect();
        TopologyGraph { gateways, subnets }
    }

    /// Number of subnets attached to at least one gateway.
    pub fn connected_subnets(&self) -> usize {
        let mut set: Vec<Subnet> = self
            .gateways
            .iter()
            .flat_map(|(_, _, subs)| subs.iter().copied())
            .collect();
        set.sort();
        set.dedup();
        set.len()
    }

    /// SunNet-Manager-style element records (the format Fremont dumped for
    /// display; schematic reproduction of the `snm` element syntax).
    pub fn to_sunnet(&self) -> String {
        let mut out = String::new();
        writeln!(out, "# SunNet Manager elements generated by Fremont").ok();
        for s in &self.subnets {
            writeln!(
                out,
                "element {{ name \"{s}\" type \"bus\" glyph \"subnet.icon\" }}"
            )
            .ok();
        }
        for (_, label, subs) in &self.gateways {
            writeln!(
                out,
                "element {{ name \"{label}\" type \"component\" glyph \"router.icon\" }}"
            )
            .ok();
            for s in subs {
                writeln!(out, "connection {{ from \"{label}\" to \"{s}\" }}").ok();
            }
        }
        out
    }

    /// Graphviz rendering (routers as boxes, subnets as ellipses).
    pub fn to_dot(&self) -> String {
        let mut out = String::new();
        writeln!(out, "graph fremont {{").ok();
        writeln!(out, "  layout=neato; overlap=false; splines=true;").ok();
        for s in &self.subnets {
            writeln!(out, "  \"{s}\" [shape=ellipse];").ok();
        }
        for (_, label, subs) in &self.gateways {
            writeln!(out, "  \"{label}\" [shape=box, style=filled];").ok();
            for s in subs {
                writeln!(out, "  \"{label}\" -- \"{s}\";").ok();
            }
        }
        writeln!(out, "}}").ok();
        out
    }

    /// ASCII adjacency rendering (subnet-centric, like Figure 2's star).
    pub fn to_ascii(&self) -> String {
        let mut by_subnet: BTreeMap<Subnet, Vec<&str>> = BTreeMap::new();
        for s in &self.subnets {
            by_subnet.entry(*s).or_default();
        }
        for (_, label, subs) in &self.gateways {
            for s in subs {
                by_subnet.entry(*s).or_default().push(label);
            }
        }
        let mut out = String::new();
        writeln!(
            out,
            "Discovered topology: {} subnets, {} gateways",
            by_subnet.len(),
            self.gateways.len()
        )
        .ok();
        for (s, gws) in by_subnet {
            if gws.is_empty() {
                writeln!(out, "  {s:<20} (no gateway known)").ok();
            } else {
                writeln!(out, "  {s:<20} via {}", gws.join(", ")).ok();
            }
        }
        out
    }
}

#[cfg(test)]
pub(crate) mod per_read_oracle {
    //! `from_journal` as it was when it read the store once per gateway
    //! member (twice for an unnamed gateway) on top of `get_gateways`
    //! and `get_subnets`, kept verbatim as the reference the
    //! differential tests in `analysis.rs` compare against.

    use fremont_journal::query::SubnetQuery;
    use fremont_journal::store::Journal;

    use super::TopologyGraph;

    /// Builds the graph from Journal records.
    pub fn from_journal(journal: &Journal) -> TopologyGraph {
        let mut gateways = Vec::new();
        for g in journal.get_gateways() {
            // Label: the first member interface's name or address.
            let label = g
                .interfaces
                .iter()
                .filter_map(|i| journal.interface(*i))
                .find_map(|r| r.dns_name().map(str::to_owned))
                .or_else(|| {
                    g.interfaces
                        .iter()
                        .filter_map(|i| journal.interface(*i))
                        .find_map(|r| r.ip_addr().map(|ip| ip.to_string()))
                })
                .unwrap_or_else(|| format!("gw{}", g.id.0));
            let mut subnets = g.subnets.clone();
            subnets.sort();
            gateways.push((g.id, label, subnets));
        }
        gateways.sort_by_key(|(id, _, _)| *id);
        let subnets = journal
            .get_subnets(&SubnetQuery::all())
            .into_iter()
            .map(|s| s.subnet)
            .collect();
        TopologyGraph { gateways, subnets }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fremont_journal::observation::{Fact, Observation, Source};
    use fremont_journal::time::JTime;
    use std::net::Ipv4Addr;

    fn journal_with_topology() -> Journal {
        let j = Journal::new();
        j.apply(
            &Observation::new(
                Source::Traceroute,
                Fact::Gateway {
                    interface_ips: vec![Ipv4Addr::new(10, 1, 0, 1)],
                    interface_names: vec![],
                    subnets: vec![
                        "10.1.0.0/24".parse().unwrap(),
                        "10.2.0.0/24".parse().unwrap(),
                    ],
                },
            ),
            JTime(1),
        );
        j.apply(
            &Observation::named_ip(Source::Dns, Ipv4Addr::new(10, 1, 0, 1), "cs-gw"),
            JTime(2),
        );
        j.apply(
            &Observation::subnet(Source::RipWatch, "10.3.0.0/24".parse().unwrap(), true),
            JTime(3),
        );
        j
    }

    #[test]
    fn graph_extraction() {
        let j = journal_with_topology();
        let g = TopologyGraph::from_journal(&j);
        assert_eq!(g.gateways.len(), 1);
        assert_eq!(g.gateways[0].1, "cs-gw", "label prefers the DNS name");
        assert_eq!(g.gateways[0].2.len(), 2);
        assert_eq!(g.subnets.len(), 3);
        assert_eq!(g.connected_subnets(), 2);
    }

    #[test]
    fn sunnet_format() {
        let g = TopologyGraph::from_journal(&journal_with_topology());
        let s = g.to_sunnet();
        assert!(s.contains("element { name \"cs-gw\" type \"component\""));
        assert!(s.contains("connection { from \"cs-gw\" to \"10.1.0.0/24\" }"));
        assert!(s.contains("element { name \"10.3.0.0/24\" type \"bus\""));
    }

    #[test]
    fn dot_format_is_wellformed() {
        let g = TopologyGraph::from_journal(&journal_with_topology());
        let d = g.to_dot();
        assert!(d.starts_with("graph fremont {"));
        assert!(d.trim_end().ends_with('}'));
        assert_eq!(d.matches(" -- ").count(), 2);
    }

    #[test]
    fn ascii_lists_unattached_subnets() {
        let g = TopologyGraph::from_journal(&journal_with_topology());
        let a = g.to_ascii();
        assert!(a.contains("3 subnets, 1 gateways"));
        assert!(a.contains("10.3.0.0/24"));
        assert!(a.contains("(no gateway known)"));
        assert!(a.contains("via cs-gw"));
    }

    #[test]
    fn one_export_reads_the_store_once() {
        let j = journal_with_topology();
        let read_locks = |j: &Journal| j.sharding_metrics().shards[0].read_locks;
        let before = read_locks(&j);
        TopologyGraph::from_journal(&j);
        // The other lock counted is the closing `sharding_metrics`' own.
        assert_eq!(read_locks(&j), before + 1 + 1);
    }

    #[test]
    fn empty_journal_renders_empty_graph() {
        let j = Journal::new();
        let g = TopologyGraph::from_journal(&j);
        assert!(g.gateways.is_empty());
        assert!(g.to_dot().contains("graph fremont"));
        assert!(g.to_ascii().contains("0 subnets, 0 gateways"));
    }
}
