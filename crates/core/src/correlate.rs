//! Cross-correlation over the Journal.
//!
//! "The Discovery Manager interrogates the Journal, and compares
//! information discovered from the various Explorer Modules to determine a
//! more complete picture of network characteristics (such as topology)."
//! The flagship example: "the fact that the same Ethernet address is
//! observed by two ARP modules running on different subnets is not
//! significant until that information is written into the Journal. Only
//! then ... can that gateway be discovered."
//!
//! The Journal indexes its records by Ethernet address and by DNS name,
//! so "which of these are shared?" is one query,
//! [`Journal::shared_keys`], answered under one read guard: both halves
//! below reason about a single state of the store, and no record is
//! copied out to be regrouped here.
//!
//! The answer depends on that query's answer and nothing else
//! (`derive`), so the driver need not ask it again while the answer
//! cannot have changed. The store counts the writes `shared_keys` can
//! see (a record created, deleted, or given a new IP, MAC, name or
//! mask), and `DiscoveryDriver::pump` keeps its last facts with the
//! version they were derived at: while
//! [`Journal::shared_keys_since`] reports that version unmoved, the
//! same facts are stored again, in the same order, and nothing is
//! derived. In a 2-hour survey that is 68 of the 109 pumps that drain
//! something; in 16 hours, 682 of 729 (seed 1993).
//!
//! Ordering contract — the facts are stored back in this order, so it
//! reaches record ids and the 16 h goldens. MAC-derived gateways come
//! first, in ascending MAC order, then name-derived ones in ascending
//! name order. A MAC group lists `interface_ips` in ascending record-id
//! order, not deduplicated; a name group sorts them numerically and
//! deduplicates. `subnets` is sorted and deduplicated in both.

use std::net::Ipv4Addr;

use fremont_journal::observation::{Fact, Observation, Source};
use fremont_journal::store::{Journal, SharedKeys, SharedMember};
use fremont_net::Subnet;

/// The derived (cross-correlated) conclusions, ready to store back into
/// the Journal under [`Source::Manager`].
pub fn correlate(journal: &Journal) -> Vec<Observation> {
    derive(journal.shared_keys())
}

/// [`correlate`]'s conclusions from the store's answer: they depend on
/// `shared` and nothing else, which is what lets the driver keep them
/// while the journal's [`KeysVersion`] stands.
///
/// [`KeysVersion`]: fremont_journal::store::KeysVersion
pub(crate) fn derive(shared: SharedKeys) -> Vec<Observation> {
    let mut out = Vec::new();
    // Same MAC with interfaces on different subnets ⇒ one gateway. One
    // adapter answering on several *subnets* is a gateway (or proxy-ARP
    // for them, which is still a gateway function); several addresses on
    // one subnet is more likely a reconfiguration and is left to the
    // analysis programs.
    for (_, members) in &shared.by_mac {
        let subnets = known_subnets(members);
        // (Two known subnets imply two members that have an address.)
        if subnets.len() >= 2 {
            let ips = members.iter().filter_map(|m| m.ip).collect();
            out.push(gateway(ips, vec![], subnets));
        }
    }
    // Interfaces sharing a DNS name ⇒ one gateway (covers the case where
    // the DNS module itself was never run but names arrived from
    // elsewhere).
    for (name, members) in shared.by_name {
        let mut ips: Vec<Ipv4Addr> = members.iter().filter_map(|m| m.ip).collect();
        ips.sort();
        ips.dedup();
        if ips.len() >= 2 {
            out.push(gateway(ips, vec![name], known_subnets(&members)));
        }
    }
    out
}

/// The distinct known subnets of a group's members, sorted.
fn known_subnets(members: &[SharedMember]) -> Vec<Subnet> {
    let mut subnets: Vec<Subnet> = members.iter().filter_map(|m| m.subnet).collect();
    subnets.sort();
    subnets.dedup();
    subnets
}

fn gateway(ips: Vec<Ipv4Addr>, names: Vec<String>, subnets: Vec<Subnet>) -> Observation {
    Observation::new(
        Source::Manager,
        Fact::Gateway {
            interface_ips: ips,
            interface_names: names,
            subnets,
        },
    )
}

#[cfg(test)]
mod cloning_oracle {
    //! The implementation this file had before the store answered the
    //! question itself, kept verbatim as the reference the differential
    //! tests compare against: two `get_interfaces(all)` clones regrouped
    //! through hash maps.

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
        let mut by_mac: HashMap<MacAddr, Vec<(std::net::Ipv4Addr, Option<Subnet>)>> =
            HashMap::new();
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
        let mut by_name: HashMap<String, Vec<(std::net::Ipv4Addr, Option<Subnet>)>> =
            HashMap::new();
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use fremont_journal::time::JTime;
    use fremont_net::{MacAddr, SubnetMask};
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

#[cfg(test)]
mod differential {
    //! `correlate` against [`cloning_oracle`], order included.

    use super::{cloning_oracle, correlate};
    use fremont_journal::observation::{Fact, Observation, Source};
    use fremont_journal::query::InterfaceQuery;
    use fremont_journal::store::Journal;
    use fremont_journal::time::JTime;
    use fremont_net::{MacAddr, SubnetMask};
    use fremont_netsim::campus::CampusConfig;
    use fremont_netsim::time::SimDuration;
    use proptest::prelude::*;
    use std::net::Ipv4Addr;

    /// One step of a journal's history.
    #[derive(Debug, Clone)]
    enum Op {
        Apply(Observation),
        /// Delete the record at this position (modulo the count) of the
        /// id-ordered listing.
        Delete(usize),
    }

    // Small pools, so keys are shared: 12 addresses over 4 /24s (one
    // subnet under the /16 mask), 4 MACs, 3 names.
    fn arb_ip() -> impl Strategy<Value = Ipv4Addr> {
        (0u8..4, 1u8..4).prop_map(|(s, h)| Ipv4Addr::new(10, 0, s, h))
    }

    fn arb_mac() -> impl Strategy<Value = MacAddr> {
        (0u8..4).prop_map(|b| MacAddr::new([8, 0, 0x20, 0, 0, b]))
    }

    fn arb_name() -> impl Strategy<Value = String> {
        (0u8..3).prop_map(|n| format!("gw-{n}"))
    }

    fn apply(o: Observation) -> Vec<Op> {
        vec![Op::Apply(o)]
    }

    /// Single observations, deletes, and three short scripts for the
    /// cases a uniform draw reaches rarely.
    fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
        prop_oneof![
            arb_ip().prop_map(|ip| apply(Observation::ip_alive(Source::SeqPing, ip))),
            (arb_ip(), arb_mac()).prop_map(|(ip, m)| apply(Observation::arp_pair(
                Source::ArpWatch,
                ip,
                m
            ))),
            (arb_ip(), arb_name()).prop_map(|(ip, n)| apply(Observation::named_ip(
                Source::Dns,
                ip,
                &n
            ))),
            (arb_ip(), 0u8..2).prop_map(|(ip, wide)| {
                let len = if wide == 0 { 24 } else { 16 };
                let mask = SubnetMask::from_prefix_len(len).unwrap();
                apply(Observation::mask(Source::SubnetMasks, ip, mask))
            }),
            // Records that never get an IP: nothing but another
            // address-less observation resolves to them.
            (proptest::option::of(arb_mac()), arb_name()).prop_map(|(mac, n)| {
                let fact = Fact::Interface {
                    ip: None,
                    mac,
                    name: Some(n),
                    mask: None,
                };
                apply(Observation::new(Source::Dns, fact))
            }),
            (0usize..64).prop_map(|k| vec![Op::Delete(k)]),
            // A record created by a ping gains a MAC that a higher-id
            // record already holds: its id joins the MAC's postings
            // after a higher one did.
            (arb_ip(), arb_ip(), arb_mac()).prop_map(|(a, b, m)| {
                vec![
                    Op::Apply(Observation::ip_alive(Source::SeqPing, a)),
                    Op::Apply(Observation::arp_pair(Source::ArpWatch, b, m)),
                    Op::Apply(Observation::arp_pair(Source::ArpWatch, a, m)),
                ]
            }),
            // One name on one IP twice: two adapters claim the address
            // and the name lands on whichever owns it at the time.
            (arb_ip(), arb_name()).prop_map(|(ip, n)| {
                let [m1, m2] = [0x10, 0x11].map(|b| MacAddr::new([0, 0, 0x0c, 0, 0, b]));
                vec![
                    Op::Apply(Observation::arp_pair(Source::ArpWatch, ip, m1)),
                    Op::Apply(Observation::named_ip(Source::Dns, ip, &n)),
                    Op::Apply(Observation::arp_pair(Source::ArpWatch, ip, m2)),
                    Op::Apply(Observation::named_ip(Source::Dns, ip, &n)),
                ]
            }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn matches_the_cloning_oracle(history in proptest::collection::vec(arb_ops(), 1..40)) {
            let j = Journal::new();
            for (t, op) in history.iter().flatten().enumerate() {
                match op {
                    Op::Apply(o) => {
                        j.apply(o, JTime(t as u64));
                    }
                    Op::Delete(k) => {
                        let all = j.get_interfaces(&InterfaceQuery::all());
                        if !all.is_empty() {
                            j.delete_interface(all[k % all.len()].id);
                        }
                    }
                }
                prop_assert_eq!(correlate(&j), cloning_oracle::correlate(&j));
            }
            // And once more with the derived facts stored back, as a pump does.
            let derived = correlate(&j);
            j.apply_batch(derived.iter().map(|o| (o, JTime(1_000))));
            prop_assert_eq!(correlate(&j), cloning_oracle::correlate(&j));
            j.check_invariants().unwrap();
        }
    }

    #[test]
    fn matches_the_cloning_oracle_through_a_campus_survey() {
        let mut f = crate::fremont::Fremont::over_campus(&CampusConfig::default());
        let mut derived = 0;
        for _ in 0..4 {
            f.explore(SimDuration::from_mins(30)).unwrap();
            derived = f.driver.journal.read(|j| {
                let got = correlate(j);
                assert_eq!(got, cloning_oracle::correlate(j));
                got.len()
            });
        }
        assert!(derived >= 20, "only {derived} gateways derived after 2 h");
    }

    #[test]
    fn one_correlation_reads_the_store_once() {
        let j = Journal::new();
        let read_locks = |j: &Journal| j.sharding_metrics().shards[0].read_locks;
        let before = read_locks(&j);
        correlate(&j);
        // The other lock counted is the closing `sharding_metrics`' own.
        assert_eq!(read_locks(&j), before + 1 + 1);
    }
}
