//! One write path: `JournalAccess::store_batch_traced` is the only write
//! a backend implements, and `store` (a batch of one) and `store_batch`
//! (no parent span) are provided on top of it. So one observation
//! stream, driven through any of the three entry points on any of the
//! three backends — in memory, WAL-backed and reopened, or over TCP —
//! must give one summed `StoreSummary` and one journal fingerprint.

// Test code is exempt from the workspace's panic and discard lints: a
// failed `unwrap` is a failed test, and a scratch directory that is
// already gone needs no removing.
#![allow(clippy::unwrap_used, clippy::let_underscore_must_use)]

use std::net::Ipv4Addr;
use std::path::PathBuf;

use fremont_journal::client::RemoteJournal;
use fremont_journal::observation::{Fact, Observation, Source};
use fremont_journal::proto::StoreBatchItem;
use fremont_journal::server::{JournalAccess, JournalServer, SharedJournal};
use fremont_journal::store::{Journal, StoreSummary};
use fremont_journal::time::JTime;
use fremont_storage::{DurableJournal, SyncPolicy, WalConfig};
use fremont_telemetry::{Recorder, SpanId, TelTime, Telemetry};

/// How a stream reaches the backend.
#[derive(Debug, Clone, Copy)]
enum Entry {
    /// One `store` call per batch.
    Store,
    /// `store_batch` calls of two batches each.
    StoreBatch,
    /// The whole stream as one `store_batch_traced` call under a real
    /// parent span.
    StoreBatchTraced,
}

const ENTRIES: [Entry; 3] = [Entry::Store, Entry::StoreBatch, Entry::StoreBatchTraced];

fn ip(host: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 1, 0, host)
}

fn mac(host: u8) -> fremont_net::MacAddr {
    format!("08:00:20:00:00:{host:02x}").parse().unwrap()
}

/// A stream that creates, verifies, changes and renames records, with
/// subnet, gateway and empty batches among them.
fn stream() -> Vec<StoreBatchItem> {
    let subnet = "10.1.0.0/24".parse().unwrap();
    let mask = "255.255.255.0".parse().unwrap();
    let batch = |secs: u64, observations: Vec<Observation>| StoreBatchItem {
        now: JTime::from_secs(secs),
        observations,
    };
    vec![
        batch(
            100,
            (1..=8)
                .map(|h| Observation::arp_pair(Source::ArpWatch, ip(h), mac(h)))
                .chain([Observation::subnet(Source::RipWatch, subnet, true)])
                .collect(),
        ),
        batch(
            200,
            (1..=8)
                .map(|h| Observation::ip_alive(Source::SeqPing, ip(h)))
                .chain([
                    Observation::named_ip(Source::Dns, ip(2), "alpha.example.edu"),
                    Observation::mask(Source::SubnetMasks, ip(3), mask),
                ])
                .collect(),
        ),
        batch(250, vec![]),
        batch(
            300,
            vec![
                Observation::arp_pair(Source::ArpWatch, ip(4), mac(0x44)),
                Observation::named_ip(Source::Dns, ip(2), "beta.example.edu"),
                Observation::new(
                    Source::Traceroute,
                    Fact::Gateway {
                        interface_ips: vec![ip(1), Ipv4Addr::new(10, 2, 0, 1)],
                        interface_names: vec![],
                        subnets: vec![subnet],
                    },
                ),
                Observation::ip_alive(Source::SeqPing, ip(9)),
            ],
        ),
        batch(
            400,
            (1..=9)
                .map(|h| Observation::ip_alive(Source::BrdcastPing, ip(h)))
                .collect(),
        ),
    ]
}

/// Drives the stream through one entry point; returns the summed
/// summary. `tel` is the backend's sink, so a traced call has a real
/// parent span to hang its children on.
fn drive(journal: &impl JournalAccess, entry: Entry, tel: &Telemetry) -> StoreSummary {
    let batches = stream();
    let mut sum = StoreSummary::default();
    match entry {
        Entry::Store => {
            for b in &batches {
                sum.absorb(journal.store(b.now, &b.observations).unwrap());
            }
        }
        Entry::StoreBatch => {
            for pair in batches.chunks(2) {
                sum.absorb(journal.store_batch(pair).unwrap());
            }
        }
        Entry::StoreBatchTraced => {
            let at = TelTime(1);
            let parent = tel.span_start("test.drive", "", SpanId::NONE, at);
            assert!(parent.is_real());
            sum.absorb(journal.store_batch_traced(&batches, parent, at).unwrap());
            tel.span_end(parent, "ok", at);
        }
    }
    sum
}

/// Spans named `name` opened in `rec`'s trace.
fn span_starts(rec: &Recorder, name: &str) -> usize {
    rec.with_trace(|t| {
        t.iter()
            .filter(|e| e.kind == "span_start" && e.name == name)
            .count()
    })
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("fremont-one-write").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// (backend, entry point, summed summary, fingerprint, observations applied)
type Run = (&'static str, Entry, StoreSummary, u64, u64);

fn shared_run(entry: Entry) -> Run {
    let (tel, _rec) = Telemetry::recording();
    let journal = SharedJournal::new();
    let sum = drive(&journal, entry, &tel);
    let (fp, applied) = journal.read(|j| (j.fingerprint(), j.stats().observations_applied));
    ("shared", entry, sum, fp, applied)
}

fn durable_run(entry: Entry) -> Run {
    let (tel, rec) = Telemetry::recording();
    let dir = tmp(&format!("durable-{entry:?}"));
    let cfg = WalConfig {
        sync: SyncPolicy::EveryN(4),
        // Small enough that the stream rotates segments mid-way.
        max_segment_bytes: 2048,
        ..WalConfig::new(&dir)
    };
    let (journal, _) = DurableJournal::open_with_telemetry(cfg.clone(), tel.clone()).unwrap();
    let sum = drive(&journal, entry, &tel);
    // Only a call under a real parent span emits the storage leg.
    let traced = matches!(entry, Entry::StoreBatchTraced);
    assert_eq!(span_starts(&rec, "wal.append") > 0, traced, "{entry:?}");
    drop(journal);
    let (reopened, report) = DurableJournal::open(cfg).unwrap();
    assert!(report.snapshot_loaded);
    let (fp, applied) = reopened
        .shared()
        .read(|j| (j.fingerprint(), j.stats().observations_applied));
    ("durable", entry, sum, fp, applied)
}

fn remote_run(entry: Entry) -> Run {
    let (tel, rec) = Telemetry::recording();
    let shared = SharedJournal::new();
    let server = JournalServer::start(shared.clone(), "127.0.0.1:0", None).unwrap();
    let client = RemoteJournal::connect_traced(&server.addr().to_string(), tel.clone(), 7).unwrap();
    let sum = drive(&client, entry, &tel);
    // Only a call under a real parent span opens the client's RPC span.
    let traced = matches!(entry, Entry::StoreBatchTraced);
    assert_eq!(
        span_starts(&rec, "client.store_batch"),
        usize::from(traced),
        "{entry:?}"
    );
    drop(client);
    server.shutdown();
    let (fp, applied) = shared.read(|j| (j.fingerprint(), j.stats().observations_applied));
    ("remote", entry, sum, fp, applied)
}

#[test]
fn every_backend_and_entry_point_give_one_journal() {
    let runs: Vec<Run> = ENTRIES
        .iter()
        .flat_map(|&e| [shared_run(e), durable_run(e), remote_run(e)])
        .collect();
    assert_eq!(runs.len(), 9);
    let (_, _, sum, fp, applied) = runs[0];
    // The stream exercises every merge outcome.
    assert!(
        sum.created > 0 && sum.updated > 0 && sum.verified > 0,
        "{sum:?}"
    );
    assert_eq!(
        applied,
        stream().iter().map(|b| b.observations.len() as u64).sum()
    );
    let sequential = Journal::new();
    for b in stream() {
        for o in &b.observations {
            sequential.apply(o, b.now);
        }
    }
    assert_eq!(fp, sequential.fingerprint());
    for run in &runs {
        assert_eq!(
            (run.2, run.3, run.4),
            (sum, fp, applied),
            "{} via {:?}",
            run.0,
            run.1
        );
    }
}
