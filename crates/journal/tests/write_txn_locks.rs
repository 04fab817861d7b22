//! Lock-traffic pin for the store's single write path: a write
//! transaction takes every shard's write lock exactly once and no shard
//! read lock, whatever facts it carries — gateway and RIP-source facts
//! in the middle of a batch included.

use std::net::Ipv4Addr;

use fremont_journal::observation::{Fact, Observation, Source};
use fremont_journal::query::InterfaceQuery;
use fremont_journal::store::{Journal, ShardMetrics};
use fremont_journal::time::JTime;
use fremont_net::MacAddr;

fn ip(i: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, i / 16, i)
}

/// 64 observations: ARP pairs with a gateway fact (existing and fresh
/// member addresses, so it resolves, creates and attaches across
/// shards) and a RIP-source fact in the middle.
fn mixed_batch() -> Vec<Observation> {
    let mut obs: Vec<Observation> = (0..62u8)
        .map(|i| {
            Observation::arp_pair(Source::ArpWatch, ip(i), MacAddr::new([8, 0, 0x20, 0, 0, i]))
        })
        .collect();
    obs.insert(
        20,
        Observation::new(
            Source::Traceroute,
            Fact::Gateway {
                interface_ips: vec![ip(3), ip(200)],
                interface_names: vec![],
                subnets: vec!["10.0.0.0/24".parse().unwrap()],
            },
        ),
    );
    obs.insert(
        40,
        Observation::new(
            Source::RipWatch,
            Fact::RipSource {
                ip: ip(5),
                mac: None,
                advertised_routes: 12,
                promiscuous: false,
            },
        ),
    );
    obs
}

fn locks(j: &Journal) -> Vec<ShardMetrics> {
    j.sharding_metrics().shards
}

#[test]
fn a_write_transaction_costs_one_write_lock_per_shard_and_no_read_locks() {
    let j = Journal::with_shards(8);
    let obs = mixed_batch();
    assert_eq!(obs.len(), 64);

    let before = locks(&j);
    let sum = j.apply_batch(obs.iter().map(|o| (o, JTime(1))));
    assert_eq!(
        sum.created,
        62 + 1 + 1 + 1,
        "62 hosts, one fresh member, the gateway and its subnet"
    );
    let after_batch = locks(&j);

    let victim = j.get_interfaces(&InterfaceQuery::by_ip(ip(3)))[0].id;
    let before_delete = locks(&j);
    assert!(j.delete_interface(victim));
    let after_delete = locks(&j);

    for (from, to) in [(&before, &after_batch), (&before_delete, &after_delete)] {
        for (a, b) in from.iter().zip(to) {
            assert_eq!(b.write_locks - a.write_locks, 1, "shard {}", a.shard);
            // `sharding_metrics` reads each shard's record count under
            // its read lock, so the closing snapshot itself accounts
            // for exactly one; the transaction for none.
            assert_eq!(b.read_locks - a.read_locks, 1, "shard {}", a.shard);
        }
    }
    j.check_invariants().unwrap();
}
