//! A journal directory written by the commit before the streaming
//! serializer (`tests/golden/wal_parent/`, see its README) is recovered
//! by the current code and reproduced byte for byte: the encoder, the
//! in-place framing and the slice-by-8 checksum changed how the bytes
//! are made, not the bytes.

use std::path::{Path, PathBuf};

use fremont::journal::server::JournalAccess;
use fremont::journal::snapshot::JournalSnapshot;
use fremont::storage::wal::{scan_segment, SyncPolicy, TailStatus, WalWriter};
use fremont::storage::{DurableJournal, WalConfig};

const SEGMENT: &str = "wal-0000000000000013.log";

fn golden() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/wal_parent")
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
    let mut batched = WalWriter::create(&dir, 13, SyncPolicy::Never).expect("create");
    batched.append_batch(&scan.records).expect("append_batch");
    assert_eq!(std::fs::read(batched.path()).expect("read"), committed);

    let mut single = WalWriter::create(&dir, 13, SyncPolicy::Never).expect("create");
    for record in &scan.records {
        single.append(record).expect("append");
    }
    assert_eq!(std::fs::read(single.path()).expect("read"), committed);
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
