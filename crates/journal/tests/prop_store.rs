//! Property tests over the Journal store's merge semantics.

// Test code: a failed unwrap or expect is a failed test.
#![allow(clippy::unwrap_used)]

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use fremont_journal::observation::{Fact, Observation, Source};
use fremont_journal::query::{InterfaceQuery, SubnetQuery};
use fremont_journal::store::{Journal, SharedMember, StoreSummary};
use fremont_journal::time::JTime;
use fremont_net::{MacAddr, Subnet, SubnetMask};

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

/// Mixed vocabulary for the batching property: interfaces plus names,
/// subnets, gateways and RIP sources, so a batch crosses every merge
/// rule — gateway members resolved by address, subnet masks folding
/// into interface records.
fn arb_mixed_obs() -> impl Strategy<Value = Observation> {
    prop_oneof![
        arb_obs(),
        (arb_source(), arb_ip()).prop_map(|(src, ip)| {
            Observation::named_ip(src, ip, &format!("host-{}", ip.octets()[3] % 8))
        }),
        (arb_source(), 0u8..4, 0u8..2).prop_map(|(src, s, assumed)| {
            Observation::subnet(src, format!("10.0.{s}.0/24").parse().unwrap(), assumed == 0)
        }),
        (arb_source(), arb_ip(), arb_ip(), 0u8..4).prop_map(|(src, a, b, s)| {
            Observation::new(
                src,
                Fact::Gateway {
                    interface_ips: vec![a, b],
                    interface_names: vec![],
                    subnets: vec![format!("10.0.{s}.0/24").parse().unwrap()],
                },
            )
        }),
        (arb_source(), arb_ip(), arb_mac(), 1u32..30).prop_map(|(src, ip, mac, n)| {
            Observation::new(
                src,
                Fact::RipSource {
                    ip,
                    mac,
                    advertised_routes: n,
                    promiscuous: n > 25,
                },
            )
        }),
    ]
}

/// One step of a history.
#[derive(Debug, Clone)]
enum Step {
    Apply(Observation),
    /// Delete the record at this position (modulo the count) of the
    /// id-ordered listing.
    Delete(usize),
}

/// The mixed vocabulary, plus masks (so members have subnets), interface
/// facts with any mix of identifying fields (so names move between
/// records, and MAC-only and name-only records exist) and deletes.
fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        arb_mixed_obs().prop_map(Step::Apply),
        (arb_ip(), 0u8..2).prop_map(|(ip, wide)| {
            let mask = SubnetMask::from_prefix_len(if wide == 0 { 30 } else { 24 }).unwrap();
            Step::Apply(Observation::mask(Source::SubnetMasks, ip, mask))
        }),
        (
            arb_source(),
            proptest::option::of(arb_ip()),
            arb_mac(),
            proptest::option::of(0u8..4)
        )
            .prop_map(|(src, ip, mac, n)| {
                let fact = Fact::Interface {
                    ip,
                    mac,
                    name: n.map(|n| format!("host-{n}")),
                    mask: None,
                };
                Step::Apply(Observation::new(src, fact))
            }),
        (0usize..64).prop_map(Step::Delete),
    ]
}

/// Runs one step at time `i`.
fn run_step(j: &Journal, i: usize, step: &Step) {
    match step {
        Step::Apply(o) => {
            j.apply(o, JTime(i as u64));
        }
        Step::Delete(k) => {
            let all = j.get_interfaces(&InterfaceQuery::all());
            if !all.is_empty() {
                assert!(j.delete_interface(all[k % all.len()].id));
            }
        }
    }
}

/// Range-query bounds over the address pool and just past it; about
/// half are inverted (`lo > hi`), which a client may send.
fn arb_bounds() -> impl Strategy<Value = (Ipv4Addr, Ipv4Addr)> {
    (0u8..20, 0u8..20).prop_map(|(a, b)| (Ipv4Addr::new(10, 0, 0, a), Ipv4Addr::new(10, 0, 0, b)))
}

/// Subnets from a single address to the whole pool's /24.
fn arb_subnet() -> impl Strategy<Value = Subnet> {
    (
        0u8..20,
        prop_oneof![Just(24u8), Just(28), Just(30), Just(32)],
    )
        .prop_map(|(h, len)| {
            Subnet::containing(
                Ipv4Addr::new(10, 0, 0, h),
                SubnetMask::from_prefix_len(len).unwrap(),
            )
        })
}

/// A query as a reader sends one: at most one key an index can answer
/// (or none, so the slab is walked) and at most one filter, over the
/// pools the histories draw from.
fn arb_query() -> impl Strategy<Value = InterfaceQuery> {
    let key = prop_oneof![
        Just(InterfaceQuery::all()),
        arb_ip().prop_map(InterfaceQuery::by_ip),
        (0u8..8).prop_map(|b| InterfaceQuery::by_mac(MacAddr::new([8, 0, 0x20, 0, 0, b]))),
        (0u8..4).prop_map(|n| InterfaceQuery {
            name: Some(format!("host-{n}")),
            ..Default::default()
        }),
        arb_subnet().prop_map(InterfaceQuery::in_subnet),
        arb_bounds().prop_map(|range| InterfaceQuery {
            ip_range: Some(range),
            ..Default::default()
        }),
    ];
    (key, 0u8..7, 0u64..100, any::<bool>()).prop_map(|(mut q, filter, t, want)| {
        match filter {
            0 => q.modified_since = Some(JTime(t)),
            1 => q.verified_before = Some(JTime(t)),
            2 => q.live_verified_before = Some(JTime(t)),
            3 => q.rip_source = Some(want),
            4 => q.is_gateway_member = Some(want),
            5 => q.missing_mask = Some(want),
            _ => {}
        }
        q
    })
}

/// The ids `q` answers with, and the ids of the full listing `q`
/// matches, as sorted lists.
fn answer_and_filtered_ids(j: &Journal, q: &InterfaceQuery) -> (Vec<u64>, Vec<u64>) {
    let mut got: Vec<u64> = j.get_interfaces(q).iter().map(|r| r.id.0).collect();
    got.sort_unstable();
    let want = j
        .get_interfaces(&InterfaceQuery::all())
        .iter()
        .filter(|r| q.matches(r))
        .map(|r| r.id.0)
        .collect();
    (got, want)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `shared_keys` is the full listing grouped by MAC and by name with
    /// the groups of two or more kept — keys ascending, members in id
    /// order — after every step of every history.
    #[test]
    fn shared_keys_equal_grouping_the_full_listing(
        steps in proptest::collection::vec(arb_step(), 1..100),
    ) {
        let j = Journal::new();
        for (i, step) in steps.iter().enumerate() {
            run_step(&j, i, step);
            let mut by_mac: BTreeMap<MacAddr, Vec<SharedMember>> = BTreeMap::new();
            let mut by_name: BTreeMap<String, Vec<SharedMember>> = BTreeMap::new();
            for r in j.get_interfaces(&InterfaceQuery::all()) {
                let member = SharedMember { id: r.id, ip: r.ip_addr(), subnet: r.subnet() };
                if let Some(mac) = r.mac_addr() {
                    by_mac.entry(mac).or_default().push(member);
                }
                if let Some(name) = r.dns_name() {
                    by_name.entry(name.to_owned()).or_default().push(member);
                }
            }
            by_mac.retain(|_, members| members.len() >= 2);
            by_name.retain(|_, members| members.len() >= 2);
            let shared = j.shared_keys();
            prop_assert_eq!(shared.by_mac, by_mac.into_iter().collect::<Vec<_>>());
            prop_assert_eq!(shared.by_name, by_name.into_iter().collect::<Vec<_>>());
            j.check_invariants().unwrap();
        }
    }

    /// An operation that leaves the keys version where it was leaves
    /// `shared_keys` as it was, and `shared_keys_since` answers with the
    /// keys exactly when the version moved. The driver re-stores its
    /// last correlation on the strength of this.
    #[test]
    fn an_unmoved_keys_version_leaves_the_shared_keys(
        steps in proptest::collection::vec(arb_step(), 1..100),
    ) {
        let j = Journal::new();
        let (mut version, keys) = j.shared_keys_since(None);
        let mut keys = keys.unwrap();
        for (i, step) in steps.iter().enumerate() {
            run_step(&j, i, step);
            let (now, fresh) = j.shared_keys_since(Some(version));
            let current = j.shared_keys();
            prop_assert_eq!(fresh.is_none(), now == version);
            match fresh {
                None => prop_assert_eq!(&current, &keys, "step {}: {:?}", i, step),
                Some(fresh) => {
                    prop_assert_eq!(&fresh, &current);
                    keys = fresh;
                }
            }
            version = now;
        }
    }

    /// The batched write path is equivalent to one-at-a-time applies:
    /// the same observations, chunked arbitrarily and applied through
    /// `apply_batch`, land the store in the same state, and every
    /// batch's summary is the sum of the single-apply summaries for the
    /// same observations. Observation order is pinned end to end: the
    /// fingerprint, the order of keyed answers and
    /// `interfaces_by_modification` must all agree.
    #[test]
    fn batched_applies_equal_sequential_applies(
        obs in proptest::collection::vec(arb_mixed_obs(), 1..120),
        chunk in 1usize..16,
    ) {
        let single = Journal::new();
        let batched = Journal::new();
        let mut next = 0u64;
        for run in obs.chunks(chunk) {
            let stamped: Vec<(&Observation, JTime)> = run
                .iter()
                .map(|o| {
                    let t = JTime(next);
                    next += 1;
                    (o, t)
                })
                .collect();
            let mut expected = StoreSummary::default();
            for &(o, t) in &stamped {
                expected.absorb(single.apply(o, t));
            }
            let got = batched.apply_batch(stamped.iter().copied());
            prop_assert_eq!(expected, got, "per-batch summaries must agree");
        }
        single.check_invariants().unwrap();
        batched.check_invariants().unwrap();
        prop_assert_eq!(single.stats(), batched.stats());
        prop_assert_eq!(single.fingerprint(), batched.fingerprint());
        prop_assert_eq!(
            single.interfaces_by_modification(),
            batched.interfaces_by_modification()
        );
        prop_assert_eq!(
            single.get_subnets(&SubnetQuery::all()),
            batched.get_subnets(&SubnetQuery::all())
        );
        // Keyed lookups over the whole (small) IP pool, hit or miss.
        for h in 0..16u8 {
            let q = InterfaceQuery::by_ip(Ipv4Addr::new(10, 0, 0, h));
            prop_assert_eq!(single.get_interfaces(&q), batched.get_interfaces(&q));
        }
    }

    /// Every index agrees with the records after every step, names
    /// included: the history moves names between records, re-touches
    /// records and deletes them.
    #[test]
    fn indexes_stay_consistent(steps in proptest::collection::vec(arb_step(), 0..200)) {
        let j = Journal::new();
        for (i, step) in steps.iter().enumerate() {
            run_step(&j, i, step);
            j.check_invariants().unwrap();
        }
    }

    /// The `ip_range` and `in_subnet` index scans answer with exactly the
    /// records of the full listing that the query matches, after every
    /// step; an inverted range answers nothing rather than panicking.
    #[test]
    fn range_scans_equal_filtering_the_full_listing(
        steps in proptest::collection::vec((arb_step(), arb_bounds(), arb_subnet()), 1..100),
    ) {
        let j = Journal::new();
        for (i, (step, range, subnet)) in steps.iter().enumerate() {
            run_step(&j, i, step);
            let by_range = InterfaceQuery { ip_range: Some(*range), ..Default::default() };
            let (got, want) = answer_and_filtered_ids(&j, &by_range);
            prop_assert_eq!(got, want, "ip_range {:?}", range);
            let (got, want) = answer_and_filtered_ids(&j, &InterfaceQuery::in_subnet(*subnet));
            prop_assert_eq!(got, want, "in_subnet {}", subnet);
        }
    }

    /// Every listing a read hands out is a copy of the same records,
    /// shared names and all. After every step of a history that
    /// renames and deletes: `interfaces(all)` equals the snapshot's
    /// listing, a restored journal's and that of a journal that took
    /// the same steps one transaction at a time while this one took
    /// them in batches; and every other query answers with that listing
    /// filtered by `q.matches`: in the same order when the slab or one
    /// key's postings are walked (both are in id order), and by
    /// (address, id) for a range, which is the same records.
    #[test]
    fn every_listing_is_the_full_listing_filtered(
        steps in proptest::collection::vec(arb_step(), 1..100),
        queries in proptest::collection::vec(arb_query(), 4),
        chunk in 1usize..4,
    ) {
        let sequential = Journal::new();
        let batched = Journal::new();
        for (c, run) in steps.chunks(chunk).enumerate() {
            let mut pending: Vec<(&Observation, JTime)> = Vec::new();
            for (at, step) in (c * chunk..).zip(run) {
                run_step(&sequential, at, step);
                match step {
                    Step::Apply(o) => pending.push((o, JTime(at as u64))),
                    Step::Delete(_) => {
                        batched.apply_batch(pending.drain(..));
                        run_step(&batched, at, step);
                    }
                }
            }
            batched.apply_batch(pending.drain(..));

            let all = batched.get_interfaces(&InterfaceQuery::all());
            prop_assert_eq!(&all, &sequential.get_interfaces(&InterfaceQuery::all()));
            let snap = batched.to_snapshot();
            prop_assert_eq!(&all, &snap.interfaces);
            let restored = Journal::from_snapshot(&snap);
            prop_assert_eq!(&all, &restored.get_interfaces(&InterfaceQuery::all()));
            for q in &queries {
                let want: Vec<_> = all.iter().filter(|r| q.matches(r)).cloned().collect();
                let mut got = batched.get_interfaces(q);
                if q.in_subnet.is_some() || q.ip_range.is_some() {
                    got.sort_by_key(|r| r.id);
                }
                prop_assert_eq!(got, want, "{:?}", q);
            }
        }
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

    /// The sibling over every merge rule: a batch of names, subnets,
    /// gateways and RIP sources as well as ARP and ping facts, stored
    /// again at the same time, creates and updates nothing and leaves
    /// the snapshot as it was but for its observation count.
    ///
    /// It does not hold yet, and is run with `--ignored`; at 64 cases it
    /// shrinks to the first of three failures. Two RIP sources for one
    /// address and MAC that disagree on `promiscuous` flip the flag
    /// twice on every pass (2 updated). A RIP source with no MAC flags
    /// every claimant of its address, so on the second pass it also
    /// flags one a later fact of the batch created. And an address-only
    /// fact credits the claimant verified alive last, which on the
    /// second pass can be one a later ARP fact of the batch created.
    /// Ties of equal times no longer fail it: they go to the lowest id.
    #[test]
    #[ignore = "replaying a batch is not idempotent yet: RIP flags move, a later claimant owns"]
    fn every_merge_rule_is_idempotent_on_content(
        obs in proptest::collection::vec(arb_mixed_obs(), 1..50)
    ) {
        let j = Journal::new();
        j.apply_batch(obs.iter().map(|o| (o, JTime(1))));
        let first = j.to_snapshot();
        let again = j.apply_batch(obs.iter().map(|o| (o, JTime(1))));
        prop_assert_eq!((again.created, again.updated), (0, 0), "{:?}", again);
        let mut second = j.to_snapshot();
        prop_assert_eq!(
            second.observations_applied,
            first.observations_applied + obs.len() as u64
        );
        second.observations_applied = first.observations_applied;
        prop_assert_eq!(second, first);
        j.check_invariants().unwrap();
    }

    /// A journal restored from a snapshot is the journal that wrote it.
    /// After the same later facts, both hold equal snapshots, gateway
    /// ids and id counters included. Every query answers both with the
    /// same records in the same order.
    #[test]
    fn a_restored_journal_answers_as_the_live_one(
        prefix in proptest::collection::vec(arb_mixed_obs(), 0..60),
        suffix in proptest::collection::vec(arb_mixed_obs(), 1..30),
        queries in proptest::collection::vec(arb_query(), 4),
    ) {
        // Three observations per time, so records tie on their times.
        let at = |i: usize| JTime(i as u64 / 3);
        let live = Journal::new();
        for (i, o) in prefix.iter().enumerate() {
            live.apply(o, at(i));
        }
        let restored = Journal::from_snapshot(&live.to_snapshot());
        for (i, o) in (prefix.len().next_multiple_of(3)..).zip(&suffix) {
            live.apply(o, at(i));
            restored.apply(o, at(i));
        }
        restored.check_invariants().unwrap();
        prop_assert_eq!(live.to_snapshot(), restored.to_snapshot());
        let ids = |j: &Journal, q| -> Vec<u64> {
            j.get_interfaces(q).iter().map(|r| r.id.0).collect()
        };
        for q in &queries {
            prop_assert_eq!(ids(&live, q), ids(&restored, q), "{:?}", q);
        }
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
        prop_assert_eq!(j2.interfaces_by_modification(), j.interfaces_by_modification());
    }

    /// Delete-heavy histories leave holes in the id space: records are
    /// created, most of them deleted, the same observations re-create
    /// them under new ids, and the journal goes through a snapshot round
    /// trip. The record count, the full listing's ascending id order and
    /// the fingerprint must agree with a journal that applied the same
    /// history one observation at a time and was never restored.
    #[test]
    fn delete_heavy_histories_survive_a_snapshot_round_trip(
        obs in proptest::collection::vec(arb_mixed_obs(), 1..60),
        deletes in proptest::collection::vec(0usize..64, 1..60),
    ) {
        let sequential = Journal::new();
        let batched = Journal::new();
        for round in 0..2u64 {
            // Round 0 creates; round 1 re-creates what was deleted.
            let stamped: Vec<(&Observation, JTime)> = obs
                .iter()
                .enumerate()
                .map(|(i, o)| (o, JTime(round * 1_000 + i as u64)))
                .collect();
            for &(o, t) in &stamped {
                sequential.apply(o, t);
            }
            batched.apply_batch(stamped.iter().copied());
            if round == 0 {
                for &k in &deletes {
                    run_step(&sequential, 0, &Step::Delete(k));
                    run_step(&batched, 0, &Step::Delete(k));
                }
            }
            batched.check_invariants().unwrap();
        }
        let restored = Journal::from_snapshot(&batched.to_snapshot());
        restored.check_invariants().unwrap();
        let all = restored.get_interfaces(&InterfaceQuery::all());
        prop_assert_eq!(restored.stats().interfaces, all.len());
        prop_assert_eq!(restored.stats(), sequential.stats());
        prop_assert!(
            all.windows(2).all(|w| w[0].id < w[1].id),
            "listing not in ascending id order: {:?}",
            all.iter().map(|r| r.id.0).collect::<Vec<_>>()
        );
        prop_assert_eq!(restored.fingerprint(), sequential.fingerprint());
        prop_assert_eq!(all, sequential.get_interfaces(&InterfaceQuery::all()));
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
