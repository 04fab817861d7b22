//! Cross-correlation over the Journal.
//!
//! "The Discovery Manager interrogates the Journal, and compares
//! information discovered from the various Explorer Modules to determine a
//! more complete picture of network characteristics (such as topology)."
//! The flagship example: "the fact that the same Ethernet address is
//! observed by two ARP modules running on different subnets is not
//! significant until that information is written into the Journal. Only
//! then ... can that gateway be discovered."

use std::collections::HashMap;

use fremont_journal::observation::{Fact, Observation, Source};
use fremont_journal::query::InterfaceQuery;
use fremont_journal::store::Journal;
use fremont_net::{MacAddr, Subnet};

/// One derived (cross-correlated) conclusion, ready to store back into the
/// Journal under [`Source::Manager`].
pub fn correlate(journal: &Journal) -> Vec<Observation> {
    let mut out = Vec::new();
    out.extend(gateways_from_shared_macs(journal));
    out.extend(gateways_from_name_groups(journal));
    out
}

/// Same MAC with interfaces on different subnets ⇒ one gateway.
fn gateways_from_shared_macs(journal: &Journal) -> Vec<Observation> {
    let mut by_mac: HashMap<MacAddr, Vec<(std::net::Ipv4Addr, Option<Subnet>)>> = HashMap::new();
    for r in journal.get_interfaces(&InterfaceQuery::all()) {
        if let (Some(mac), Some(ip)) = (r.mac_addr(), r.ip_addr()) {
            by_mac.entry(mac).or_default().push((ip, r.subnet()));
        }
    }
    let mut macs: Vec<MacAddr> = by_mac.keys().copied().collect();
    macs.sort();
    let mut out = Vec::new();
    for mac in macs {
        let entries = &by_mac[&mac];
        if entries.len() < 2 {
            continue;
        }
        // Distinct known subnets among the MAC's addresses. One adapter
        // answering on several *subnets* is a gateway (or proxy-ARP for
        // them, which is still a gateway function); several addresses on
        // one subnet is more likely a reconfiguration and is left to the
        // analysis programs.
        let mut subnets: Vec<Subnet> = entries.iter().filter_map(|(_, s)| *s).collect();
        subnets.sort();
        subnets.dedup();
        if subnets.len() < 2 {
            continue;
        }
        let ips: Vec<std::net::Ipv4Addr> = entries.iter().map(|(ip, _)| *ip).collect();
        out.push(Observation::new(
            Source::Manager,
            Fact::Gateway {
                interface_ips: ips,
                interface_names: vec![],
                subnets,
            },
        ));
    }
    out
}

/// Interfaces sharing a DNS name across subnets ⇒ one gateway (covers the
/// case where the DNS module itself was never run but names arrived from
/// elsewhere).
fn gateways_from_name_groups(journal: &Journal) -> Vec<Observation> {
    let mut by_name: HashMap<String, Vec<(std::net::Ipv4Addr, Option<Subnet>)>> = HashMap::new();
    for r in journal.get_interfaces(&InterfaceQuery::all()) {
        if let (Some(name), Some(ip)) = (r.dns_name(), r.ip_addr()) {
            by_name
                .entry(name.to_owned())
                .or_default()
                .push((ip, r.subnet()));
        }
    }
    let mut names: Vec<String> = by_name.keys().cloned().collect();
    names.sort();
    let mut out = Vec::new();
    for name in names {
        let entries = &by_name[&name];
        let mut ips: Vec<std::net::Ipv4Addr> = entries.iter().map(|(ip, _)| *ip).collect();
        ips.sort_by_key(|ip| u32::from(*ip));
        ips.dedup();
        if ips.len() < 2 {
            continue;
        }
        let mut subnets: Vec<Subnet> = entries.iter().filter_map(|(_, s)| *s).collect();
        subnets.sort();
        subnets.dedup();
        out.push(Observation::new(
            Source::Manager,
            Fact::Gateway {
                interface_ips: ips,
                interface_names: vec![name],
                subnets,
            },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fremont_journal::time::JTime;
    use fremont_net::SubnetMask;
    use std::net::Ipv4Addr;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn mac(s: &str) -> MacAddr {
        s.parse().unwrap()
    }

    #[test]
    fn shared_mac_across_subnets_becomes_gateway() {
        let j = Journal::new();
        let m = mac("00:00:0c:01:02:03");
        let mask = SubnetMask::from_prefix_len(24).unwrap();
        // Two ARP watchers on different subnets saw the same adapter.
        j.apply(
            &Observation::arp_pair(Source::ArpWatch, ip("10.1.0.1"), m),
            JTime(1),
        );
        j.apply(
            &Observation::arp_pair(Source::ArpWatch, ip("10.2.0.1"), m),
            JTime(2),
        );
        j.apply(
            &Observation::mask(Source::SubnetMasks, ip("10.1.0.1"), mask),
            JTime(3),
        );
        j.apply(
            &Observation::mask(Source::SubnetMasks, ip("10.2.0.1"), mask),
            JTime(3),
        );

        assert!(j.get_gateways().is_empty(), "not yet correlated");
        let derived = correlate(&j);
        assert_eq!(derived.len(), 1);
        let now = JTime(10);
        j.apply_batch(derived.iter().map(|o| (o, now)));
        let gws = j.get_gateways();
        assert_eq!(gws.len(), 1);
        assert_eq!(gws[0].interfaces.len(), 2);
        assert_eq!(gws[0].subnets.len(), 2);
        j.check_invariants().unwrap();
    }

    #[test]
    fn shared_mac_same_subnet_is_not_a_gateway() {
        let j = Journal::new();
        let m = mac("08:00:20:01:02:03");
        let mask = SubnetMask::from_prefix_len(24).unwrap();
        j.apply(
            &Observation::arp_pair(Source::ArpWatch, ip("10.1.0.5"), m),
            JTime(1),
        );
        j.apply(
            &Observation::arp_pair(Source::ArpWatch, ip("10.1.0.6"), m),
            JTime(2),
        );
        j.apply(
            &Observation::mask(Source::SubnetMasks, ip("10.1.0.5"), mask),
            JTime(3),
        );
        j.apply(
            &Observation::mask(Source::SubnetMasks, ip("10.1.0.6"), mask),
            JTime(3),
        );
        assert!(
            correlate(&j).is_empty(),
            "a renumbered host is not a gateway"
        );
    }

    #[test]
    fn mask_needed_for_mac_correlation() {
        let j = Journal::new();
        let m = mac("00:00:0c:01:02:03");
        j.apply(
            &Observation::arp_pair(Source::ArpWatch, ip("10.1.0.1"), m),
            JTime(1),
        );
        j.apply(
            &Observation::arp_pair(Source::ArpWatch, ip("10.2.0.1"), m),
            JTime(2),
        );
        // Without masks, subnet membership is unknown — no conclusion.
        assert!(correlate(&j).is_empty());
    }

    #[test]
    fn shared_name_becomes_gateway() {
        let j = Journal::new();
        j.apply(
            &Observation::named_ip(Source::Dns, ip("10.1.0.1"), "engr-gw"),
            JTime(1),
        );
        j.apply(
            &Observation::named_ip(Source::Dns, ip("10.2.0.1"), "engr-gw"),
            JTime(1),
        );
        let derived = correlate(&j);
        assert_eq!(derived.len(), 1);
        match &derived[0].fact {
            Fact::Gateway {
                interface_ips,
                interface_names,
                ..
            } => {
                assert_eq!(interface_ips.len(), 2);
                assert_eq!(interface_names, &vec!["engr-gw".to_owned()]);
            }
            other => panic!("wrong fact {other:?}"),
        }
    }

    #[test]
    fn correlation_is_idempotent() {
        let j = Journal::new();
        let m = mac("00:00:0c:01:02:03");
        let mask = SubnetMask::from_prefix_len(24).unwrap();
        j.apply(
            &Observation::arp_pair(Source::ArpWatch, ip("10.1.0.1"), m),
            JTime(1),
        );
        j.apply(
            &Observation::arp_pair(Source::ArpWatch, ip("10.2.0.1"), m),
            JTime(2),
        );
        j.apply(
            &Observation::mask(Source::SubnetMasks, ip("10.1.0.1"), mask),
            JTime(3),
        );
        j.apply(
            &Observation::mask(Source::SubnetMasks, ip("10.2.0.1"), mask),
            JTime(3),
        );
        let d1 = correlate(&j);
        j.apply_batch(d1.iter().map(|o| (o, JTime(4))));
        let d2 = correlate(&j);
        j.apply_batch(d2.iter().map(|o| (o, JTime(5))));
        assert_eq!(j.get_gateways().len(), 1, "re-running never duplicates");
        j.check_invariants().unwrap();
    }
}
