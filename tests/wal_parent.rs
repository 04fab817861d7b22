//! Committed bytes that the current code must decode and write again
//! byte for byte, so that what an older build left on disk or on the
//! wire still reads:
//!
//! - a journal directory written by the commit before the streaming
//!   serializer (`tests/golden/wal_parent/`, see its README): the
//!   encoder, the in-place framing and the slice-by-8 checksum changed
//!   how the bytes are made, not the bytes;
//! - one file of frames per `Request` and `Response` variant
//!   (`tests/golden/wire/`, see its README);
//! - the fault plans under `scenarios/`.

#![allow(clippy::expect_used, clippy::let_underscore_must_use, clippy::panic)]

use std::fmt;
use std::path::{Path, PathBuf};

use serde::de::{DeserializeOwned, Deserializer, Visitor};
use serde::Serialize;

use fremont::journal::observation::{Fact, Source};
use fremont::journal::proto::{read_frame, write_frame, Request, RequestEnvelope, Response};
use fremont::journal::server::JournalAccess;
use fremont::journal::snapshot::JournalSnapshot;
use fremont::netsim::faults::{FaultKind, FaultPlan};
use fremont::storage::wal::{scan_segment, SyncPolicy, TailStatus, WalWriter};
use fremont::storage::{DurableJournal, WalConfig};

const SEGMENT: &str = "wal-0000000000000013.log";

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn golden() -> PathBuf {
    root().join("tests/golden/wal_parent")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("fremont-wal-parent").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

#[test]
fn parent_directory_recovers() {
    // Recovery compacts the directory it opens, so work on a copy.
    let dir = scratch("recover");
    for file in ["snapshot.json", SEGMENT] {
        std::fs::copy(golden().join(file), dir.join(file)).expect("copy fixture");
    }
    let (journal, report) = DurableJournal::open(WalConfig::new(&dir)).expect("recover");
    assert!(report.snapshot_loaded);
    assert_eq!(report.watermark, 12);
    assert_eq!(report.records_replayed, 40);
    assert_eq!(report.records_skipped, 0);
    assert_eq!(report.torn_bytes_dropped, 0);
    let snap = journal.capture_snapshot().expect("snapshot");
    assert_eq!(snap.observations_applied, 52);
    assert_eq!(snap.fingerprint(), 0xa5ba_b899_9fdd_29d9);
}

#[test]
fn parent_segment_is_reproduced_byte_for_byte() {
    let committed = std::fs::read(golden().join(SEGMENT)).expect("read fixture");
    let scan = scan_segment(&golden().join(SEGMENT)).expect("scan");
    assert_eq!(scan.tail, TailStatus::Clean);
    assert_eq!(scan.records.len(), 40);
    assert_eq!(scan.records[0].seq, 13);

    let dir = scratch("reappend");
    let mut batched = WalWriter::create(&dir, 13, SyncPolicy::Always).expect("create");
    batched.append_batch(&scan.records).expect("append_batch");
    assert_eq!(std::fs::read(batched.path()).expect("read"), committed);

    let mut single = WalWriter::create(&dir, 13, SyncPolicy::Always).expect("create");
    for record in &scan.records {
        single
            .append_batch(std::slice::from_ref(record))
            .expect("append_batch");
    }
    assert_eq!(std::fs::read(single.path()).expect("read"), committed);
}

/// The provided `JournalAccess::store` — a batch of one — logs what
/// the parent's one-record stores logged: storing the segment's records
/// one at a time on top of the parent's snapshot rewrites its bytes.
#[test]
fn one_record_stores_rewrite_the_parent_segment() {
    let committed = std::fs::read(golden().join(SEGMENT)).expect("read fixture");
    let scan = scan_segment(&golden().join(SEGMENT)).expect("scan");
    let dir = scratch("restore");
    std::fs::copy(golden().join("snapshot.json"), dir.join("snapshot.json")).expect("copy");
    let (journal, report) = DurableJournal::open(WalConfig::new(&dir)).expect("open");
    assert_eq!(report.watermark, 12);
    for record in &scan.records {
        journal
            .store(record.at, std::slice::from_ref(&record.obs))
            .expect("store");
    }
    assert_eq!(std::fs::read(dir.join(SEGMENT)).expect("read"), committed);
    let snap = journal.capture_snapshot().expect("snapshot");
    assert_eq!(snap.fingerprint(), 0xa5ba_b899_9fdd_29d9);
}

#[test]
fn parent_snapshot_is_reproduced_byte_for_byte() {
    let path = golden().join("snapshot.json");
    let snap = JournalSnapshot::load(&path).expect("load");
    assert_eq!(snap.observations_applied, 12);
    assert_eq!(
        serde_json::to_vec_pretty(&snap).expect("encode"),
        std::fs::read(&path).expect("read fixture")
    );
}

/// Every frame in `bytes`, decoded as `T`, and the bytes `write_frame`
/// makes of them again.
fn reframe<T: Serialize + DeserializeOwned>(name: &str, mut bytes: &[u8]) -> (Vec<T>, Vec<u8>) {
    let mut values = Vec::new();
    while let Some(value) = read_frame(&mut bytes).unwrap_or_else(|e| panic!("{name}: {e}")) {
        values.push(value);
    }
    let mut again = Vec::new();
    for value in &values {
        write_frame(&mut again, value).expect("encode");
    }
    (values, again)
}

// No `_` arm in these five: a removed variant does not compile, and a new
// one must be named here, after which the test fails until a committed
// fixture holds it.

fn request_variant(req: &Request) -> &'static str {
    match req {
        Request::GetInterfaces(_) => "GetInterfaces",
        Request::GetGateways => "GetGateways",
        Request::GetSubnets(_) => "GetSubnets",
        Request::Delete(_) => "Delete",
        Request::Stats => "Stats",
        Request::Flush => "Flush",
        Request::StoreBatch { .. } => "StoreBatch",
        Request::Introspect { .. } => "Introspect",
    }
}

fn response_variant(resp: &Response) -> &'static str {
    match resp {
        Response::Stored(_) => "Stored",
        Response::Interfaces(_) => "Interfaces",
        Response::Gateways(_) => "Gateways",
        Response::Subnets(_) => "Subnets",
        Response::Deleted(_) => "Deleted",
        Response::Stats(_) => "Stats",
        Response::Flushed => "Flushed",
        Response::Introspection(_) => "Introspection",
        Response::Error(_) => "Error",
    }
}

fn fact_variant(fact: &Fact) -> &'static str {
    match fact {
        Fact::Interface { .. } => "Interface",
        Fact::Subnet { .. } => "Subnet",
        Fact::SubnetStats { .. } => "SubnetStats",
        Fact::Gateway { .. } => "Gateway",
        Fact::RipSource { .. } => "RipSource",
    }
}

fn fault_variant(kind: &FaultKind) -> &'static str {
    match kind {
        FaultKind::NodeCrash { .. } => "NodeCrash",
        FaultKind::NodeReboot { .. } => "NodeReboot",
        FaultKind::GatewayDeath { .. } => "GatewayDeath",
        FaultKind::Partition { .. } => "Partition",
        FaultKind::Heal { .. } => "Heal",
        FaultKind::Degrade { .. } => "Degrade",
        FaultKind::ClearDegrade { .. } => "ClearDegrade",
        FaultKind::DuplicateIp { .. } => "DuplicateIp",
        FaultKind::WrongMask { .. } => "WrongMask",
        FaultKind::ClockSkew { .. } => "ClockSkew",
    }
}

fn source_variant(source: Source) -> &'static str {
    match source {
        Source::ArpWatch => "ArpWatch",
        Source::EtherHostProbe => "EtherHostProbe",
        Source::SeqPing => "SeqPing",
        Source::BrdcastPing => "BrdcastPing",
        Source::SubnetMasks => "SubnetMasks",
        Source::Traceroute => "Traceroute",
        Source::RipWatch => "RipWatch",
        Source::Dns => "Dns",
        Source::Manager => "Manager",
    }
}

/// The variant names `T`'s derived `Deserialize` knows, in declaration
/// order: the derive hands them to `deserialize_enum`, which this
/// deserializer answers by keeping them.
fn derived_variants<T: DeserializeOwned>() -> Vec<&'static str> {
    #[derive(Debug)]
    struct Stop;
    impl fmt::Display for Stop {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("only the variant names are read")
        }
    }
    impl std::error::Error for Stop {}
    impl serde::de::Error for Stop {
        fn custom<M: fmt::Display>(_: M) -> Self {
            Stop
        }
    }
    struct Names<'a>(&'a mut Vec<&'static str>);
    impl<'de> Deserializer<'de> for Names<'_> {
        type Error = Stop;
        fn deserialize_any<V: Visitor<'de>>(self, _: V) -> Result<V::Value, Stop> {
            Err(Stop)
        }
        fn deserialize_enum<V: Visitor<'de>>(
            self,
            _name: &'static str,
            variants: &'static [&'static str],
            _: V,
        ) -> Result<V::Value, Stop> {
            self.0.extend_from_slice(variants);
            Err(Stop)
        }
    }
    let mut names = Vec::new();
    assert!(T::deserialize(Names(&mut names)).is_err());
    names
}

/// Asserts that `seen` names every variant of `T`.
fn assert_covers<T: DeserializeOwned>(what: &str, seen: &[&str]) {
    let missing: Vec<_> = derived_variants::<T>()
        .into_iter()
        .filter(|v| !seen.contains(v))
        .collect();
    assert!(
        missing.is_empty(),
        "no committed fixture holds {what} {missing:?}; add one"
    );
}

/// The Journal's wire format holds: every committed frame decodes and is
/// written again byte for byte, and between them the frames, the WAL and
/// the snapshot hold every `Request`, `Response`, `Fact` and `Source`
/// variant. The tests above pin the WAL's and the snapshot's bytes the
/// same way. A retyped field no longer decodes; a renamed field decodes
/// (an absent `Option` reads as `None`) but is written under its new
/// name. `Source`'s bit positions are pinned where `SourceSet` is defined.
#[test]
fn mutating_an_existing_wal_variant_fails_the_build() {
    let wire = root().join("tests/golden/wire");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&wire)
        .expect("read tests/golden/wire")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "frames"))
        .collect();
    files.sort();

    let (mut requests, mut responses, mut facts, mut sources) = (vec![], vec![], vec![], vec![]);
    for path in &files {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .expect("utf-8 name");
        let bytes = std::fs::read(path).expect("read frames");
        let (kind, variant) = name
            .trim_end_matches(".frames")
            .split_once('-')
            .expect("request-<Variant>.frames or response-<Variant>.frames");
        let (names, again) = match kind {
            "request" => {
                let (envelopes, again) = reframe::<RequestEnvelope>(name, &bytes);
                for env in &envelopes {
                    if let Request::StoreBatch { batches } = &env.req {
                        for obs in batches.iter().flat_map(|b| &b.observations) {
                            facts.push(fact_variant(&obs.fact));
                            sources.push(obs.source);
                        }
                    }
                }
                let names: Vec<_> = envelopes.iter().map(|e| request_variant(&e.req)).collect();
                requests.extend(&names);
                (names, again)
            }
            "response" => {
                let (resps, again) = reframe::<Response>(name, &bytes);
                let names: Vec<_> = resps.iter().map(response_variant).collect();
                responses.extend(&names);
                (names, again)
            }
            other => panic!("{name}: unknown frame kind {other:?}"),
        };
        assert!(!names.is_empty(), "{name} holds no frame");
        assert!(
            names.iter().all(|n| *n == variant),
            "{name} holds {names:?}"
        );
        assert!(again == bytes, "{name} is not written again byte for byte");
    }

    let scan = scan_segment(&golden().join(SEGMENT)).expect("scan");
    for record in &scan.records {
        facts.push(fact_variant(&record.obs.fact));
        sources.push(record.obs.source);
    }
    let snapshot = JournalSnapshot::load(&golden().join("snapshot.json")).expect("load");
    for iface in &snapshot.interfaces {
        sources.extend(iface.sources.iter());
    }
    let sources: Vec<&str> = sources.iter().map(|s| source_variant(*s)).collect();

    assert_covers::<Request>("the Request variants", &requests);
    assert_covers::<Response>("the Response variants", &responses);
    assert_covers::<Fact>("the Fact variants", &facts);
    assert_covers::<Source>("the Source variants", &sources);
}

/// Every committed fault plan decodes and is written again as
/// `examples/gen_scenarios.rs` writes it, and between them the plans
/// hold every `FaultKind`.
#[test]
fn every_scenario_fixture_is_written_again_byte_for_byte() {
    let mut kinds = Vec::new();
    let mut read = 0;
    for entry in std::fs::read_dir(root().join("scenarios")).expect("read scenarios/") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_none_or(|x| x != "json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("read plan");
        let plan =
            FaultPlan::from_json(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(plan.to_json(), text, "{}", path.display());
        kinds.extend(plan.events.iter().map(|e| fault_variant(&e.kind)));
        read += 1;
    }
    assert!(read > 0, "scenarios/ holds no plan");
    assert_covers::<FaultKind>("the FaultKind variants", &kinds);
}
