//! The streaming JSON serializer against the tree it replaced, and the
//! slice-by-8 checksum against the bytewise one.
//!
//! Until PR 16 every `serde_json::to_*` call built a `Value` tree and
//! rendered that. The tree survives as a data type (`to_value`,
//! `json!`), so it is the oracle: for any value, streaming it must give
//! the bytes that building its tree and rendering the tree gives — both
//! through today's `to_vec(&tree)` and through [`reference`], the old
//! renderer kept here verbatim — compact and pretty alike.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use fremont::journal::observation::{Fact, Observation, Source};
use fremont::journal::proto::{
    IntrospectReport, Request, RequestEnvelope, Response, StoreBatchItem, TraceContext,
    WalStateReport,
};
use fremont::journal::query::{InterfaceQuery, SubnetQuery};
use fremont::journal::records::InterfaceId;
use fremont::journal::store::Journal;
use fremont::journal::time::JTime;
use fremont::net::{MacAddr, Subnet, SubnetMask};
use fremont::netsim::faults::{FaultEvent, FaultKind, FaultPlan};
use fremont::storage::crc32::crc32;
use fremont::storage::WalRecord;
use fremont::telemetry::TraceEvent;
use proptest::prelude::*;
use serde::Serialize;

/// The renderer `vendor/serde_json/src/write.rs` held before the
/// streaming serializer replaced it.
mod reference {
    use serde_json::Value;

    pub fn render(value: &Value, pretty: bool) -> Vec<u8> {
        let mut out = String::new();
        emit(value, pretty.then_some(0), &mut out);
        out.into_bytes()
    }

    fn emit(value: &Value, indent: Option<usize>, out: &mut String) {
        match value {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Int(v) => out.push_str(&v.to_string()),
            Value::UInt(v) => out.push_str(&v.to_string()),
            Value::Float(v) => {
                if v.is_finite() {
                    let s = v.to_string();
                    out.push_str(&s);
                    if !s.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => emit_string(s, out),
            Value::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if let Some(level) = indent {
                        newline_indent(level + 1, out);
                        emit(item, Some(level + 1), out);
                    } else {
                        emit(item, None, out);
                    }
                }
                if let Some(level) = indent {
                    newline_indent(level, out);
                }
                out.push(']');
            }
            Value::Object(entries) => {
                if entries.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, val)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if let Some(level) = indent {
                        newline_indent(level + 1, out);
                        emit_string(key, out);
                        out.push_str(": ");
                        emit(val, Some(level + 1), out);
                    } else {
                        emit_string(key, out);
                        out.push(':');
                        emit(val, None, out);
                    }
                }
                if let Some(level) = indent {
                    newline_indent(level, out);
                }
                out.push('}');
            }
        }
    }

    fn newline_indent(level: usize, out: &mut String) {
        out.push('\n');
        for _ in 0..level {
            out.push_str("  ");
        }
    }

    fn emit_string(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                '\u{8}' => out.push_str("\\b"),
                '\u{c}' => out.push_str("\\f"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

/// Streams `x` and renders its tree, compact and pretty; all must agree.
fn check<T: Serialize>(x: &T) -> Result<(), TestCaseError> {
    let tree = serde_json::to_value(x).expect("to_value");
    for (pretty, streamed, tree_streamed) in [
        (
            false,
            serde_json::to_vec(x).expect("to_vec"),
            serde_json::to_vec(&tree).expect("to_vec(tree)"),
        ),
        (
            true,
            serde_json::to_vec_pretty(x).expect("to_vec_pretty"),
            serde_json::to_vec_pretty(&tree).expect("to_vec_pretty(tree)"),
        ),
    ] {
        let streamed = String::from_utf8(streamed).expect("UTF-8");
        prop_assert_eq!(
            &streamed,
            &String::from_utf8(tree_streamed).expect("UTF-8"),
            "streamed value != streamed tree (pretty: {pretty})"
        );
        prop_assert_eq!(
            &streamed,
            &String::from_utf8(reference::render(&tree, pretty)).expect("UTF-8"),
            "streamed value != tree rendered by the old emitter (pretty: {pretty})"
        );
    }
    prop_assert_eq!(
        serde_json::to_string(x).expect("to_string").into_bytes(),
        serde_json::to_vec(x).expect("to_vec")
    );
    Ok(())
}

// ---------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------

/// Text with everything a JSON string has to escape or pass through:
/// quote, backslash, the short escapes, other control characters, DEL,
/// non-ASCII and astral code points.
fn arb_text() -> impl Strategy<Value = String> {
    const POOL: [char; 24] = [
        'a', 'Z', '0', '-', '.', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{8}', '\u{c}', '\u{0}',
        '\u{1}', '\u{1f}', '\u{7f}', 'é', 'ß', '日', '\u{2028}', '😀', '𝄞',
    ];
    proptest::collection::vec(0..POOL.len(), 0..12)
        .prop_map(|picks| picks.into_iter().map(|i| POOL[i]).collect())
}

fn arb_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(1.0),
        Just(-0.0),
        Just(0.1),
        Just(1e300),
        Just(5e-324),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        any::<f64>(),
        any::<i32>().prop_map(f64::from),
    ]
}

fn arb_i64() -> impl Strategy<Value = i64> {
    prop_oneof![
        Just(i64::MIN),
        Just(i64::MAX),
        Just(0),
        Just(-1),
        any::<i64>()
    ]
}

fn arb_u64() -> impl Strategy<Value = u64> {
    prop_oneof![Just(u64::MAX), Just(0), any::<u64>()]
}

fn arb_source() -> impl Strategy<Value = Source> {
    (0..Source::EXPLORERS.len()).prop_map(|i| Source::EXPLORERS[i])
}

fn arb_ip() -> impl Strategy<Value = Ipv4Addr> {
    prop_oneof![
        (0u8..16).prop_map(|h| Ipv4Addr::new(10, 0, 0, h)),
        any::<u32>().prop_map(Ipv4Addr::from),
    ]
}

fn arb_mac() -> impl Strategy<Value = MacAddr> {
    any::<[u8; 6]>().prop_map(MacAddr::new)
}

fn arb_mask() -> impl Strategy<Value = SubnetMask> {
    (0u8..=32).prop_map(|len| SubnetMask::from_prefix_len(len).expect("prefix length"))
}

fn arb_subnet() -> impl Strategy<Value = Subnet> {
    (arb_ip(), arb_mask()).prop_map(|(ip, mask)| Subnet::containing(ip, mask))
}

/// All five `Fact` variants, every optional field both ways, lists from
/// empty up.
fn arb_obs() -> impl Strategy<Value = Observation> {
    let fact = prop_oneof![
        (
            proptest::option::of(arb_ip()),
            proptest::option::of(arb_mac()),
            proptest::option::of(arb_text()),
            proptest::option::of(arb_mask()),
        )
            .prop_map(|(ip, mac, name, mask)| Fact::Interface {
                ip,
                mac,
                name,
                mask
            }),
        (arb_subnet(), any::<bool>()).prop_map(|(subnet, mask_assumed)| Fact::Subnet {
            subnet,
            mask_assumed
        }),
        (arb_subnet(), any::<u32>(), arb_ip(), arb_ip()).prop_map(
            |(subnet, host_count, lowest, highest)| Fact::SubnetStats {
                subnet,
                host_count,
                lowest,
                highest
            }
        ),
        (
            proptest::collection::vec(arb_ip(), 0..4),
            proptest::collection::vec(arb_text(), 0..3),
            proptest::collection::vec(arb_subnet(), 0..3),
        )
            .prop_map(|(interface_ips, interface_names, subnets)| Fact::Gateway {
                interface_ips,
                interface_names,
                subnets
            }),
        (
            arb_ip(),
            proptest::option::of(arb_mac()),
            any::<u32>(),
            any::<bool>()
        )
            .prop_map(
                |(ip, mac, advertised_routes, promiscuous)| Fact::RipSource {
                    ip,
                    mac,
                    advertised_routes,
                    promiscuous
                }
            ),
    ];
    (arb_source(), fact).prop_map(|(source, fact)| Observation::new(source, fact))
}

fn arb_batches() -> impl Strategy<Value = Vec<StoreBatchItem>> {
    proptest::collection::vec(
        (arb_u64(), proptest::collection::vec(arb_obs(), 0..6)).prop_map(|(now, observations)| {
            StoreBatchItem {
                now: JTime(now),
                observations,
            }
        }),
        0..4,
    )
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (arb_u64(), proptest::collection::vec(arb_obs(), 0..6)).prop_map(|(now, observations)| {
            Request::Store {
                now: JTime(now),
                observations,
            }
        }),
        (
            proptest::option::of(arb_ip()),
            proptest::option::of(arb_text()),
            proptest::option::of((arb_ip(), arb_ip())),
            proptest::option::of(any::<bool>()),
        )
            .prop_map(|(ip, name, ip_range, rip_source)| {
                Request::GetInterfaces(InterfaceQuery {
                    ip,
                    name,
                    ip_range,
                    rip_source,
                    ..InterfaceQuery::all()
                })
            }),
        Just(Request::GetGateways),
        Just(Request::GetSubnets(SubnetQuery::all())),
        arb_u64().prop_map(|id| Request::Delete(InterfaceId(id))),
        Just(Request::Stats),
        Just(Request::Flush),
        arb_batches().prop_map(|batches| Request::StoreBatch { batches }),
        arb_u64().prop_map(|trace_tail| Request::Introspect { trace_tail }),
    ]
}

/// A journal holding `obs`, for the record types only the store builds.
fn journal_of(obs: &[Observation]) -> Journal {
    let journal = Journal::new();
    journal.apply_batch(obs.iter().zip(1u64..).map(|(o, t)| (o, JTime(t))));
    journal
}

fn arb_fault_plan() -> impl Strategy<Value = FaultPlan> {
    let kind = prop_oneof![
        arb_text().prop_map(|node| FaultKind::NodeCrash { node }),
        arb_text().prop_map(|segment| FaultKind::Heal { segment }),
        (arb_text(), arb_f64(), arb_u64()).prop_map(
            |(segment, extra_loss, extra_latency_micros)| {
                FaultKind::Degrade {
                    segment,
                    extra_loss,
                    extra_latency_micros,
                }
            }
        ),
        (arb_text(), arb_ip()).prop_map(|(node, ip)| FaultKind::DuplicateIp { node, ip }),
        (arb_text(), any::<u8>())
            .prop_map(|(node, prefix_len)| FaultKind::WrongMask { node, prefix_len }),
        (arb_text(), arb_i64())
            .prop_map(|(node, skew_micros)| FaultKind::ClockSkew { node, skew_micros }),
    ];
    proptest::collection::vec(
        (arb_u64(), kind).prop_map(|(at_micros, kind)| FaultEvent { at_micros, kind }),
        0..6,
    )
    .prop_map(|events| FaultPlan { events })
}

// Shapes the workspace's own types do not cover: a unit struct, a
// tuple struct, a generic struct with a skipped field, one enum with a
// variant of each kind, tuples, a char and a map.

#[derive(Serialize)]
struct Marker;

#[derive(Serialize)]
struct Meters(f64);

#[derive(Serialize)]
struct Span(i64, u64);

#[derive(Serialize)]
struct Tagged<T> {
    label: String,
    #[serde(skip)]
    #[allow(dead_code)]
    scratch: u8,
    marker: Marker,
    inner: T,
}

#[derive(Serialize)]
enum Shape {
    Unit,
    Newtype(Meters),
    Tuple(i64, Option<u64>, char),
    Struct {
        by_name: BTreeMap<String, Vec<f64>>,
        span: Span,
        pair: (u8, bool),
        rest: Vec<Shape>,
    },
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    let leaf = || {
        prop_oneof![
            Just(()).prop_map(|()| Shape::Unit),
            arb_f64().prop_map(|v| Shape::Newtype(Meters(v))),
            (arb_i64(), proptest::option::of(arb_u64()), any::<char>())
                .prop_map(|(a, b, c)| Shape::Tuple(a, b, c)),
        ]
    };
    (
        proptest::collection::vec(
            (arb_text(), proptest::collection::vec(arb_f64(), 0..3)),
            0..4,
        ),
        arb_i64(),
        arb_u64(),
        any::<u8>(),
        proptest::collection::vec(leaf(), 0..4),
    )
        .prop_map(|(entries, a, b, c, rest)| Shape::Struct {
            by_name: entries.into_iter().collect(),
            span: Span(a, b),
            pair: (c, c % 2 == 0),
            rest,
        })
}

// ---------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn observations_and_wal_records(obs in arb_obs(), seq in arb_u64(), at in arb_u64()) {
        check(&obs)?;
        check(&WalRecord { seq, at: JTime(at), obs })?;
    }

    #[test]
    fn requests(req in arb_request(), trace_id in arb_u64()) {
        check(&req)?;
        check(&RequestEnvelope {
            ctx: TraceContext { trace_id, parent_span: trace_id / 2, at_micros: 7 },
            req,
        })?;
    }

    #[test]
    fn responses_and_snapshots(
        obs in proptest::collection::vec(arb_obs(), 0..24),
        text in arb_text(),
        n in arb_u64(),
    ) {
        let journal = journal_of(&obs);
        let summary = journal.apply_batch(obs.iter().map(|o| (o, JTime(n / 2))));
        check(&Response::Stored(summary))?;
        check(&Response::Interfaces(journal.get_interfaces(&InterfaceQuery::all())))?;
        check(&Response::Gateways(journal.get_gateways()))?;
        check(&Response::Subnets(journal.get_subnets(&SubnetQuery::all())))?;
        check(&Response::Deleted(n % 2 == 0))?;
        check(&Response::Stats(journal.stats()))?;
        check(&Response::Flushed)?;
        check(&Response::Error(text.clone()))?;
        check(&Response::Introspection(Box::new(IntrospectReport {
            stats: journal.stats(),
            shards: (n % 3 != 0).then(|| journal.sharding_metrics()),
            wal: (n % 2 == 0).then(|| WalStateReport {
                segment_first_seq: 1,
                next_seq: n,
                segment_bytes: n / 3,
                sync_policy: text.clone(),
            }),
            metrics: text.clone(),
            trace_tail: (0..n % 3)
                .map(|i| TraceEvent {
                    at: i,
                    kind: "span_start".to_owned(),
                    id: n,
                    parent: 0,
                    name: text.clone(),
                    detail: text.clone(),
                    trace_id: n,
                    remote_parent: i,
                })
                .collect(),
            trace_dropped: n,
            health: text,
        })))?;
        check(&journal.to_snapshot())?;
    }

    #[test]
    fn fault_plans(plan in arb_fault_plan()) {
        check(&plan)?;
    }

    #[test]
    fn every_shape_and_scalar(
        shape in arb_shape(),
        label in arb_text(),
        f in arb_f64(),
        i in arb_i64(),
        u in arb_u64(),
    ) {
        check(&shape)?;
        check(&Tagged { label: label.clone(), scratch: 9, marker: Marker, inner: (f, i, u) })?;
        check(&Tagged { label, scratch: 9, marker: Marker, inner: Vec::<Option<Shape>>::new() })?;
        check(&f)?;
        check(&i)?;
        check(&u)?;
        check(&[Some(f as f32), None])?;
        check(&serde_json::json!({
            "list": serde_json::json!([i, u, f]),
            "none": serde_json::Value::Null,
            "empty": serde_json::Value::Object(Vec::new()),
        }))?;
    }
}

#[test]
fn known_renderings() {
    assert_eq!(serde_json::to_string(&1.0f64).unwrap(), "1.0");
    assert_eq!(serde_json::to_string(&f64::NAN).unwrap(), "null");
    assert_eq!(
        serde_json::to_string(&i64::MIN).unwrap(),
        "-9223372036854775808"
    );
    assert_eq!(
        serde_json::to_string(&u64::MAX).unwrap(),
        "18446744073709551615"
    );
    assert_eq!(
        serde_json::to_string("a\"b\\c\u{1}\n😀").unwrap(),
        "\"a\\\"b\\\\c\\u0001\\n😀\""
    );
    assert_eq!(
        serde_json::to_string(&Shape::Tuple(-1, None, 'é')).unwrap(),
        "{\"Tuple\":[-1,null,\"é\"]}"
    );
    assert_eq!(
        serde_json::to_string_pretty(&Shape::Newtype(Meters(2.5))).unwrap(),
        "{\n  \"Newtype\": 2.5\n}"
    );
}

/// The checksum one byte at a time, as `crc32.rs` computed it before
/// slice-by-8.
fn crc32_bytewise(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    crc ^ 0xFFFF_FFFF
}

#[test]
fn crc32_matches_bytewise_at_every_length_and_alignment() {
    // 72 bytes of a fixed LCG stream: every start offset 0..8 can take
    // every length 0..=64.
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let data: Vec<u8> = (0..72)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 56) as u8
        })
        .collect();
    for offset in 0..8 {
        for len in 0..=64 {
            let slice = &data[offset..offset + len];
            assert_eq!(
                crc32(slice),
                crc32_bytewise(slice),
                "offset {offset} length {len}"
            );
        }
    }
    assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
}
