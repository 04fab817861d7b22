//! Writes the `tests/golden/wal_parent/` fixture. Run at the commit
//! *before* the streaming serializer landed (51f5dca); see that
//! directory's README.
use std::net::Ipv4Addr;

use fremont::journal::observation::{Fact, Observation, Source};
use fremont::journal::server::JournalAccess;
use fremont::journal::time::JTime;
use fremont::net::{MacAddr, Subnet, SubnetMask};
use fremont::storage::{DurableJournal, WalConfig};

fn ip(net: u8, host: u8) -> Ipv4Addr {
    Ipv4Addr::new(128, 138, net, host)
}

fn mac(net: u8, host: u8) -> MacAddr {
    MacAddr::new([8, 0, 0x20, 1, net, host])
}

fn subnet(net: u8) -> Subnet {
    Subnet::containing(ip(net, 0), SubnetMask::from_prefix_len(24).expect("mask"))
}

/// Observation `i` of the stream: the five `Fact` variants in rotation,
/// with the optional fields, empty lists and awkward names each can
/// carry.
fn observation(i: u8) -> Observation {
    let net = 200 + i % 3;
    match i % 8 {
        0 => Observation::arp_pair(Source::ArpWatch, ip(net, i), mac(net, i)),
        1 => Observation::named_ip(
            Source::Dns,
            ip(net, i),
            ["tab\there.cs.colorado.edu", "quote\"back\\slash", "caf\u{e9}-\u{1F600}.edu", "bell\u{7}nl\n"][usize::from(i / 8) % 4],
        ),
        2 => Observation::mask(
            Source::SubnetMasks,
            ip(net, i),
            SubnetMask::from_prefix_len(20 + i % 8).expect("mask"),
        ),
        3 => Observation::subnet(Source::RipWatch, subnet(net), i % 16 == 3),
        4 => Observation::new(
            Source::Dns,
            Fact::SubnetStats {
                subnet: subnet(net),
                host_count: u32::from(i) * 3,
                lowest: ip(net, 1),
                highest: ip(net, 254),
            },
        ),
        5 => Observation::new(
            Source::Traceroute,
            Fact::Gateway {
                interface_ips: vec![ip(net, 1), ip(net + 1, 1)],
                interface_names: if i % 16 == 5 {
                    vec![]
                } else {
                    vec![format!("gw-{net}.colorado.edu"), "engr-gw".to_owned()]
                },
                subnets: vec![subnet(net), subnet(net + 1)],
            },
        ),
        6 => Observation::new(
            Source::RipWatch,
            Fact::RipSource {
                ip: ip(net, 1),
                mac: (i % 16 == 6).then(|| mac(net, 1)),
                advertised_routes: u32::from(i) + 25,
                promiscuous: i % 16 != 6,
            },
        ),
        _ => Observation::ip_alive(Source::SeqPing, ip(net, i)),
    }
}

fn main() {
    let dir = std::env::args().nth(1).expect("usage: make_wal_parent <dir>");
    let _ = std::fs::remove_dir_all(&dir);
    let (dj, _) = DurableJournal::open(WalConfig::new(&dir)).expect("open");
    // Twelve observations folded into the snapshot ...
    for i in 0..12u8 {
        dj.store(JTime(1000 + u64::from(i)), &[observation(i)]).expect("store");
    }
    dj.compact().expect("compact");
    // ... and forty left in the log above its watermark: singly, then
    // as batches with two timestamps.
    for i in 12..20u8 {
        dj.store(JTime(2000 + u64::from(i)), &[observation(i)]).expect("store");
    }
    let rest: Vec<Observation> = (20..52u8).map(observation).collect();
    dj.store(JTime(3000), &rest[..16]).expect("store");
    dj.store(JTime(4000), &rest[16..]).expect("store");
    let snap = dj.capture_snapshot().expect("snapshot");
    println!("observations_applied {}", snap.observations_applied);
    println!("fingerprint {:#018x}", snap.fingerprint());
    // Dropped without compaction, as a crash would leave it.
}
