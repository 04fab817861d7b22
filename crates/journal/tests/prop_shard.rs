//! Property tests proving the sharded store is observationally
//! equivalent to a single-shard reference.
//!
//! The reference model is `Journal::with_shards(1)` — one shard means
//! one record map and one set of indexes, i.e. the pre-sharding store.
//! Every store/query/delete sequence must produce identical results at
//! any shard count, and the batched write path must be equivalent to
//! applying the same observations one at a time.

use proptest::prelude::*;
use std::net::Ipv4Addr;

use fremont_journal::observation::{Fact, Observation, Source};
use fremont_journal::query::{InterfaceQuery, SubnetQuery};
use fremont_journal::store::{Journal, StoreSummary};
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
    (0u8..4, 0u8..8).prop_map(|(s, h)| Ipv4Addr::new(10, 0, s, h))
}

fn arb_mac() -> impl Strategy<Value = Option<MacAddr>> {
    proptest::option::of((0u8..8).prop_map(|b| MacAddr::new([8, 0, 0x20, 0, 0, b])))
}

/// Mixed observation vocabulary: interfaces (the sharded part), plus
/// subnets, gateways, and RIP sources (the meta part), so the test
/// exercises the cross-partition paths — gateway members living in
/// shards, subnet masks folding into interface records.
fn arb_obs() -> impl Strategy<Value = Observation> {
    prop_oneof![
        (arb_source(), arb_ip(), arb_mac()).prop_map(|(src, ip, mac)| match mac {
            Some(m) => Observation::arp_pair(src, ip, m),
            None => Observation::ip_alive(src, ip),
        }),
        (arb_source(), arb_ip()).prop_map(|(src, ip)| {
            Observation::named_ip(src, ip, &format!("host-{}", ip.octets()[3]))
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

/// Asserts every externally observable surface of the two journals
/// agrees: stats, full and keyed interface queries, modification
/// order, gateways, subnets, and the structural invariants.
fn assert_equivalent(reference: &Journal, sharded: &Journal) {
    reference.check_invariants().unwrap();
    sharded.check_invariants().unwrap();
    assert_eq!(reference.stats(), sharded.stats());
    assert_eq!(
        reference.get_interfaces(&InterfaceQuery::all()),
        sharded.get_interfaces(&InterfaceQuery::all())
    );
    assert_eq!(
        reference.interfaces_by_modification(),
        sharded.interfaces_by_modification()
    );
    assert_eq!(reference.get_gateways(), sharded.get_gateways());
    assert_eq!(
        reference.get_subnets(&SubnetQuery::all()),
        sharded.get_subnets(&SubnetQuery::all())
    );
    // Keyed lookups over the whole (small) IP pool, hit or miss.
    for s in 0..4u8 {
        for h in 0..8u8 {
            let q = InterfaceQuery::by_ip(Ipv4Addr::new(10, 0, s, h));
            assert_eq!(reference.get_interfaces(&q), sharded.get_interfaces(&q));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole equivalence property: any shard count, any
    /// observation sequence, identical observable state.
    #[test]
    fn sharded_equals_single_shard_reference(
        obs in proptest::collection::vec(arb_obs(), 0..120),
        shards in prop_oneof![Just(2usize), Just(4), Just(7), Just(8)],
    ) {
        let reference = Journal::with_shards(1);
        let sharded = Journal::with_shards(shards);
        for (i, o) in obs.iter().enumerate() {
            reference.apply(o, JTime(i as u64));
            sharded.apply(o, JTime(i as u64));
        }
        assert_equivalent(&reference, &sharded);
    }

    /// The batched write path is equivalent to one-at-a-time applies:
    /// the same observations, chunked arbitrarily and applied through
    /// `apply_batch` at 1/2/4/8 shards, land the store in the reference
    /// state, and every batch's summary is the sum of the reference's
    /// single-apply summaries for the same observations.
    /// `assert_equivalent` pins observation order end to end:
    /// posting-list order inside keyed queries (idx sequence
    /// assignment) and `interfaces_by_modification` (mod sequence
    /// assignment) must all agree with the reference.
    #[test]
    fn batched_applies_equal_sequential_applies(
        obs in proptest::collection::vec(arb_obs(), 1..120),
        chunk in 1usize..16,
        shards in prop_oneof![Just(1usize), Just(2), Just(4), Just(8)],
    ) {
        let reference = Journal::with_shards(1);
        let sharded = Journal::with_shards(shards);
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
                expected.absorb(reference.apply(o, t));
            }
            let got = sharded.apply_batch(stamped.iter().copied());
            prop_assert_eq!(expected, got, "per-batch summaries must agree");
        }
        assert_equivalent(&reference, &sharded);
    }

    /// The canonical-snapshot fingerprint the model checker prunes on
    /// is shard-count independent: the same observations land on the
    /// same fingerprint however the interface records are partitioned.
    #[test]
    fn fingerprint_is_shard_count_independent(
        obs in proptest::collection::vec(arb_obs(), 0..120),
        shards in prop_oneof![Just(2usize), Just(4), Just(7), Just(8)],
    ) {
        let reference = Journal::with_shards(1);
        let sharded = Journal::with_shards(shards);
        for (i, o) in obs.iter().enumerate() {
            reference.apply(o, JTime(i as u64));
            sharded.apply(o, JTime(i as u64));
        }
        prop_assert_eq!(reference.fingerprint(), sharded.fingerprint());
    }

    /// Deleting the same records from both stores keeps them equal —
    /// index removal and gateway back-pointer cleanup agree per shard.
    #[test]
    fn deletion_preserves_equivalence(
        obs in proptest::collection::vec(arb_obs(), 1..80),
        shards in prop_oneof![Just(2usize), Just(4), Just(8)],
        nth in 1usize..4,
    ) {
        let reference = Journal::with_shards(1);
        let sharded = Journal::with_shards(shards);
        for (i, o) in obs.iter().enumerate() {
            reference.apply(o, JTime(i as u64));
            sharded.apply(o, JTime(i as u64));
        }
        // Identical apply order assigns identical interface ids.
        let victims: Vec<_> = reference
            .get_interfaces(&InterfaceQuery::all())
            .iter()
            .step_by(nth)
            .map(|r| r.id)
            .collect();
        for id in victims {
            prop_assert_eq!(reference.delete_interface(id), sharded.delete_interface(id));
        }
        assert_equivalent(&reference, &sharded);
    }
}
