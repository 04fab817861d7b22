//! Writes the `tests/golden/wire/` fixture: one file per `Request` and
//! `Response` variant, each holding that variant's frames as
//! `proto::write_frame` writes them. See that directory's README.
use std::net::Ipv4Addr;
use std::sync::Arc;

use fremont::journal::observation::{Fact, Observation, Source};
use fremont::journal::proto::{
    write_frame, IntrospectReport, Request, RequestEnvelope, Response, StoreBatchItem,
    TraceContext, WalStateReport,
};
use fremont::journal::query::{InterfaceQuery, SubnetQuery};
use fremont::journal::records::{
    GatewayId, GatewayRecord, InterfaceId, InterfaceRecord, SubnetRecord,
};
use fremont::journal::store::{JournalStats, ShardMetrics, ShardingMetrics, StoreSummary};
use fremont::journal::time::{JTime, Timestamped};
use fremont::journal::SourceSet;
use fremont::net::{MacAddr, Subnet, SubnetMask};
use fremont::telemetry::TraceEvent;

/// A `u64` or `usize` value no `u32` holds. Every 64-bit field holds
/// one in some frame, so a field narrowed to 32 bits no longer decodes.
fn wide(n: u64) -> u64 {
    (1 << 32) + n
}

/// A `u32` value no `u16` holds, for the same reason.
fn wide32(n: u32) -> u32 {
    (1 << 16) + n
}

fn ip(host: u8) -> Ipv4Addr {
    Ipv4Addr::new(128, 138, 243, host)
}

fn mac(host: u8) -> MacAddr {
    MacAddr::new([8, 0, 0x20, 1, 243, host])
}

fn mask() -> SubnetMask {
    SubnetMask::from_prefix_len(24).expect("mask")
}

fn subnet() -> Subnet {
    Subnet::containing(ip(0), mask())
}

fn sources(of: &[Source]) -> SourceSet {
    let mut set = SourceSet::EMPTY;
    for s in of {
        set.insert(*s);
    }
    set
}

fn stamped<T>(value: T) -> Timestamped<T> {
    let mut t = Timestamped::new(value, JTime(wide(1_000)));
    t.changed = JTime(wide(2_000));
    t.verified = JTime(wide(3_000));
    t
}

fn traced() -> TraceContext {
    TraceContext {
        trace_id: wide(7),
        parent_span: wide(42),
        at_micros: wide(3_600_000_000),
    }
}

/// Every `Fact` variant, every `Option` in one once `Some` and once
/// `None`, and every `Source`.
fn observations() -> Vec<Observation> {
    vec![
        Observation::new(
            Source::ArpWatch,
            Fact::Interface {
                ip: Some(ip(10)),
                mac: Some(mac(10)),
                name: Some("piper.cs.colorado.edu\t\"caf\u{e9}\"\u{1F600}".to_owned()),
                mask: Some(mask()),
            },
        ),
        Observation::new(
            Source::EtherHostProbe,
            Fact::Interface {
                ip: None,
                mac: None,
                name: None,
                mask: None,
            },
        ),
        Observation::ip_alive(Source::SeqPing, ip(11)),
        Observation::ip_alive(Source::BrdcastPing, ip(12)),
        Observation::mask(Source::SubnetMasks, ip(12), mask()),
        Observation::new(
            Source::Traceroute,
            Fact::Gateway {
                interface_ips: vec![ip(1), Ipv4Addr::new(128, 138, 204, 1)],
                interface_names: vec!["cs-gw.colorado.edu".to_owned()],
                subnets: vec![subnet()],
            },
        ),
        Observation::new(
            Source::Traceroute,
            Fact::Gateway {
                interface_ips: vec![],
                interface_names: vec![],
                subnets: vec![],
            },
        ),
        Observation::subnet(Source::RipWatch, subnet(), true),
        Observation::new(
            Source::RipWatch,
            Fact::RipSource {
                ip: ip(1),
                mac: Some(mac(1)),
                advertised_routes: wide32(111),
                promiscuous: false,
            },
        ),
        Observation::new(
            Source::RipWatch,
            Fact::RipSource {
                ip: ip(2),
                mac: None,
                advertised_routes: 0,
                promiscuous: true,
            },
        ),
        Observation::new(
            Source::Dns,
            Fact::SubnetStats {
                subnet: subnet(),
                host_count: wide32(84),
                lowest: ip(2),
                highest: ip(250),
            },
        ),
        Observation::subnet(Source::Manager, subnet(), false),
    ]
}

fn requests() -> Vec<(&'static str, Vec<Request>)> {
    let query = InterfaceQuery {
        ip: Some(ip(10)),
        mac: Some(mac(10)),
        name: Some("piper".to_owned()),
        in_subnet: Some(subnet()),
        ip_range: Some((ip(1), ip(254))),
        modified_since: Some(JTime(wide(1_000))),
        verified_before: Some(JTime(wide(2_000))),
        live_verified_before: Some(JTime(wide(3_000))),
        rip_source: Some(true),
        is_gateway_member: Some(false),
        missing_mask: Some(true),
    };
    let subnets = SubnetQuery {
        within: Some(Subnet::containing(
            ip(0),
            SubnetMask::from_prefix_len(16).expect("mask"),
        )),
        has_gateway: Some(true),
        verified_since: Some(JTime(wide(1_000))),
    };
    let observations = observations();
    vec![
        (
            "GetInterfaces",
            vec![
                Request::GetInterfaces(query),
                Request::GetInterfaces(InterfaceQuery::default()),
            ],
        ),
        ("GetGateways", vec![Request::GetGateways]),
        (
            "GetSubnets",
            vec![
                Request::GetSubnets(subnets),
                Request::GetSubnets(SubnetQuery::default()),
            ],
        ),
        ("Delete", vec![Request::Delete(InterfaceId(wide(17)))]),
        ("Stats", vec![Request::Stats]),
        ("Flush", vec![Request::Flush]),
        (
            "StoreBatch",
            vec![Request::StoreBatch {
                batches: vec![
                    StoreBatchItem {
                        now: JTime(wide(1_000)),
                        observations: observations[..6].to_vec(),
                    },
                    StoreBatchItem {
                        now: JTime(wide(2_000)),
                        observations: observations[6..].to_vec(),
                    },
                ],
            }],
        ),
        (
            "Introspect",
            vec![Request::Introspect {
                trace_tail: wide(16),
            }],
        ),
    ]
}

fn responses() -> Vec<(&'static str, Vec<Response>)> {
    let full = InterfaceRecord {
        id: InterfaceId(wide(3)),
        mac: Some(stamped(mac(10))),
        ip: Some(stamped(ip(10))),
        name: Some(stamped(Arc::from("piper.cs.colorado.edu"))),
        mask: Some(stamped(mask())),
        gateway: Some(GatewayId(wide(1))),
        rip_source: true,
        rip_promiscuous: true,
        sources: sources(&[Source::ArpWatch, Source::Dns, Source::Manager]),
        discovered: JTime(wide(1_000)),
        changed: JTime(wide(2_000)),
        verified: JTime(wide(3_000)),
        live_verified: Some(JTime(wide(3_000))),
    };
    let gateway = GatewayRecord {
        id: GatewayId(wide(1)),
        interfaces: vec![InterfaceId(wide(3)), InterfaceId(4)],
        subnets: vec![subnet()],
        sources: sources(&[Source::Traceroute, Source::RipWatch]),
        discovered: JTime(wide(1_000)),
        changed: JTime(wide(2_000)),
        verified: JTime(wide(3_000)),
    };
    let stats_subnet = SubnetRecord {
        subnet: subnet(),
        mask_assumed: false,
        gateways: vec![GatewayId(wide(1))],
        host_count: Some(stamped(wide32(84))),
        lowest: Some(ip(2)),
        highest: Some(ip(250)),
        sources: sources(&[Source::Dns, Source::SubnetMasks]),
        discovered: JTime(wide(1_000)),
        changed: JTime(wide(2_000)),
        verified: JTime(wide(3_000)),
    };
    let stats = JournalStats {
        interfaces: wide(2) as usize,
        gateways: wide(1) as usize,
        subnets: wide(2) as usize,
        observations_applied: wide(12),
    };
    let report = IntrospectReport {
        stats,
        shards: Some(ShardingMetrics {
            shards: vec![ShardMetrics {
                shard: wide(0) as usize,
                records: wide(5) as usize,
                read_locks: wide(9),
                write_locks: wide(4),
            }],
            fanout_queries: wide(0),
            batches: wide(4),
            batch_observations: wide(12),
            largest_batch: wide(6),
        }),
        wal: Some(WalStateReport {
            segment_first_seq: wide(13),
            next_seq: wide(25),
            segment_bytes: wide(2_048),
            sync_policy: "every 8 records".to_owned(),
        }),
        metrics: "# TYPE fremont_journal_records gauge\nfremont_journal_records 5\n".to_owned(),
        trace_tail: vec![TraceEvent {
            at: wide(3_600_000_000),
            kind: "span_start".to_owned(),
            id: wide(43),
            parent: wide(0),
            name: "server.store_batch".to_owned(),
            detail: "2 batches".to_owned(),
            trace_id: wide(7),
            remote_parent: wide(42),
        }],
        trace_dropped: wide(3),
        health: "ok".to_owned(),
    };
    let bare_report = IntrospectReport {
        stats: JournalStats::default(),
        shards: None,
        wal: None,
        metrics: String::new(),
        trace_tail: vec![],
        trace_dropped: 0,
        health: "unknown".to_owned(),
    };
    vec![
        (
            "Stored",
            vec![Response::Stored(StoreSummary {
                created: wide(3) as usize,
                updated: wide(2) as usize,
                verified: wide(7) as usize,
            })],
        ),
        (
            "Interfaces",
            vec![Response::Interfaces(vec![
                full,
                InterfaceRecord::new(InterfaceId(4), JTime(1_000)),
            ])],
        ),
        ("Gateways", vec![Response::Gateways(vec![gateway])]),
        (
            "Subnets",
            vec![Response::Subnets(vec![
                stats_subnet,
                SubnetRecord::new(subnet(), true, JTime(1_000)),
            ])],
        ),
        ("Deleted", vec![Response::Deleted(true)]),
        ("Stats", vec![Response::Stats(stats)]),
        ("Flushed", vec![Response::Flushed]),
        (
            "Introspection",
            vec![
                Response::Introspection(Box::new(report)),
                Response::Introspection(Box::new(bare_report)),
            ],
        ),
        (
            "Error",
            vec![Response::Error("unknown interface 17".to_owned())],
        ),
    ]
}

fn write(path: String, frames: &[impl serde::Serialize]) {
    let mut bytes = Vec::new();
    for frame in frames {
        write_frame(&mut bytes, frame).expect("encode");
    }
    std::fs::write(&path, &bytes).expect("write");
    println!("{path}: {} frame(s), {} bytes", frames.len(), bytes.len());
}

fn main() {
    let dir = std::env::args().nth(1).expect("usage: make_wire <dir>");
    std::fs::create_dir_all(&dir).expect("mkdir");
    for (variant, reqs) in requests() {
        // The first frame of each file is traced, the rest untraced.
        let envelopes: Vec<RequestEnvelope> = reqs
            .into_iter()
            .enumerate()
            .map(|(i, req)| RequestEnvelope {
                ctx: if i == 0 { traced() } else { TraceContext::NONE },
                req,
            })
            .collect();
        write(format!("{dir}/request-{variant}.frames"), &envelopes);
    }
    for (variant, resps) in responses() {
        write(format!("{dir}/response-{variant}.frames"), &resps);
    }
}
