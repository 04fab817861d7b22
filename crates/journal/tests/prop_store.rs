//! Property tests over the Journal store's merge semantics.

use proptest::prelude::*;
use std::net::Ipv4Addr;

use fremont_journal::observation::{Observation, Source};
use fremont_journal::query::InterfaceQuery;
use fremont_journal::store::Journal;
use fremont_journal::time::JTime;
use fremont_net::MacAddr;

fn arb_source() -> impl Strategy<Value = Source> {
    prop_oneof![
        Just(Source::ArpWatch),
        Just(Source::EtherHostProbe),
        Just(Source::SeqPing),
        Just(Source::BrdcastPing),
        Just(Source::SubnetMasks),
        Just(Source::Traceroute),
        Just(Source::RipWatch),
        Just(Source::Dns),
    ]
}

/// Small pools so observations collide and exercise merging.
fn arb_ip() -> impl Strategy<Value = Ipv4Addr> {
    (0u8..16).prop_map(|h| Ipv4Addr::new(10, 0, 0, h))
}

fn arb_mac() -> impl Strategy<Value = Option<MacAddr>> {
    proptest::option::of((0u8..8).prop_map(|b| MacAddr::new([8, 0, 0x20, 0, 0, b])))
}

fn arb_obs() -> impl Strategy<Value = Observation> {
    (arb_source(), arb_ip(), arb_mac()).prop_map(|(src, ip, mac)| match mac {
        Some(m) => Observation::arp_pair(src, ip, m),
        None => Observation::ip_alive(src, ip),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn indexes_stay_consistent(obs in proptest::collection::vec(arb_obs(), 0..200)) {
        let j = Journal::new();
        for (i, o) in obs.iter().enumerate() {
            j.apply(o, JTime(i as u64));
        }
        j.check_invariants().unwrap();
    }

    #[test]
    fn apply_is_idempotent_on_content(obs in proptest::collection::vec(arb_obs(), 1..50)) {
        let j = Journal::new();
        for o in &obs {
            j.apply(o, JTime(1));
        }
        let count = j.stats().interfaces;
        // Replaying the same batch at a later time creates nothing new.
        for o in &obs {
            j.apply(o, JTime(2));
        }
        prop_assert_eq!(j.stats().interfaces, count);
        j.check_invariants().unwrap();
    }

    #[test]
    fn every_observed_ip_is_queryable(obs in proptest::collection::vec(arb_obs(), 1..100)) {
        let j = Journal::new();
        for o in &obs {
            j.apply(o, JTime(0));
        }
        for o in &obs {
            if let fremont_journal::observation::Fact::Interface { ip: Some(ip), .. } = &o.fact {
                let found = j.get_interfaces(&InterfaceQuery::by_ip(*ip));
                prop_assert!(!found.is_empty(), "observed ip {} not found", ip);
            }
        }
    }

    #[test]
    fn timestamps_are_monotone(obs in proptest::collection::vec(arb_obs(), 1..100)) {
        let j = Journal::new();
        for (i, o) in obs.iter().enumerate() {
            j.apply(o, JTime(i as u64));
        }
        for r in j.get_interfaces(&InterfaceQuery::all()) {
            prop_assert!(r.discovered <= r.changed);
            prop_assert!(r.changed <= r.verified);
        }
    }

    #[test]
    fn snapshot_restore_preserves_everything(obs in proptest::collection::vec(arb_obs(), 0..100)) {
        let j = Journal::new();
        for (i, o) in obs.iter().enumerate() {
            j.apply(o, JTime(i as u64));
        }
        let snap = j.to_snapshot();
        let j2 = Journal::from_snapshot(&snap);
        j2.check_invariants().unwrap();
        prop_assert_eq!(j2.stats(), j.stats());
        let mut a = j.get_interfaces(&InterfaceQuery::all());
        let mut b = j2.get_interfaces(&InterfaceQuery::all());
        a.sort_by_key(|r| r.id);
        b.sort_by_key(|r| r.id);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn deletion_removes_from_queries(obs in proptest::collection::vec(arb_obs(), 1..60)) {
        let j = Journal::new();
        for o in &obs {
            j.apply(o, JTime(0));
        }
        let all = j.get_interfaces(&InterfaceQuery::all());
        for r in &all {
            prop_assert!(j.delete_interface(r.id));
        }
        prop_assert_eq!(j.stats().interfaces, 0);
        j.check_invariants().unwrap();
        for r in &all {
            if let Some(ip) = r.ip_addr() {
                prop_assert!(j.get_interfaces(&InterfaceQuery::by_ip(ip)).is_empty());
            }
        }
    }
}
