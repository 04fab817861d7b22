//! Fault-injection: kill the WAL at an arbitrary byte and assert that
//! recovery yields *exactly a prefix* of the pre-crash history.
//!
//! The durability contract of `fremont-storage` is prefix semantics:
//! whatever a crash (truncation) or media fault (bit flip) does to the
//! log, recovery must reconstruct the journal produced by applying the
//! first `k` observations for some `k`, never a state that mixes in
//! later or corrupted records. Because every frame is CRC32-framed and
//! sequence-numbered, `k` is exactly the number of frames lying fully
//! below the damaged byte.

use std::net::Ipv4Addr;
use std::path::PathBuf;

use fremont::journal::observation::{Observation, Source};
use fremont::journal::server::JournalAccess;
use fremont::journal::snapshot::JournalSnapshot;
use fremont::journal::store::Journal;
use fremont::journal::time::JTime;
use fremont::net::MacAddr;
use fremont::storage::wal::list_segments;
use fremont::storage::{DurableJournal, WalConfig};
use proptest::prelude::*;

/// A deterministic, varied observation stream: alternating liveness
/// reports and ARP sightings over distinct addresses.
fn observation(i: usize) -> Observation {
    let ip = Ipv4Addr::new(10, 9, (i / 200) as u8, (i % 200) as u8 + 1);
    if i.is_multiple_of(2) {
        Observation::ip_alive(Source::SeqPing, ip)
    } else {
        Observation::arp_pair(
            Source::ArpWatch,
            ip,
            MacAddr::new([8, 0, 0x20, 9, (i / 200) as u8, (i % 200) as u8]),
        )
    }
}

/// The journal state after applying the first `k` observations.
fn reference_state(k: usize) -> JournalSnapshot {
    let j = Journal::new();
    for i in 0..k {
        j.apply(&observation(i), JTime(i as u64 + 1));
    }
    j.to_snapshot()
}

/// Writes `n` observations through a fresh `DurableJournal`, then
/// "crashes" it and returns the WAL segment's bytes + path.
fn build_wal(dir: &PathBuf, n: usize) -> (PathBuf, Vec<u8>) {
    let _ = std::fs::remove_dir_all(dir);
    // Group commit keeps the many proptest cases fast; WalState's Drop
    // still syncs, so the "crash" leaves the full log on disk.
    let (dj, _) = DurableJournal::open(WalConfig::grouped(dir, 1_000_000)).expect("open");
    for i in 0..n {
        dj.store(JTime(i as u64 + 1), &[observation(i)])
            .expect("store");
    }
    drop(dj); // crash: no shutdown compaction
    let segs = list_segments(dir).expect("segments");
    assert_eq!(segs.len(), 1, "all records fit one segment");
    let bytes = std::fs::read(&segs[0].path).expect("read segment");
    (segs[0].path.clone(), bytes)
}

/// Byte offsets at which each frame of the segment ends.
fn frame_ends(bytes: &[u8]) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut pos = 0usize;
    while pos + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 8 + len;
        assert!(pos <= bytes.len(), "writer produced a torn frame");
        ends.push(pos);
    }
    ends
}

/// Recovery after damage at `offset` must equal the reference prefix of
/// exactly the frames below `offset`, and the directory must reopen to
/// the same state again (idempotence).
fn assert_prefix_recovery(dir: &PathBuf, offset: usize, ends: &[usize]) {
    let expected_k = ends.iter().filter(|&&e| e <= offset).count();
    let (dj, report) = DurableJournal::open(WalConfig::new(dir)).expect("recover");
    assert_eq!(
        report.records_replayed, expected_k as u64,
        "replayed record count != frames below the damage"
    );
    let recovered = dj.capture_snapshot().expect("capture");
    assert_eq!(
        recovered,
        reference_state(expected_k),
        "recovered state is not the {expected_k}-observation prefix"
    );
    dj.shared()
        .read(|j| j.check_invariants())
        .expect("invariants");
    drop(dj);
    let (dj2, report2) = DurableJournal::open(WalConfig::new(dir)).expect("re-recover");
    assert_eq!(
        report2.records_replayed, 0,
        "recovery compaction absorbed the tail"
    );
    assert_eq!(
        dj2.capture_snapshot().expect("capture"),
        reference_state(expected_k)
    );
}

proptest! {
    /// Crash mid-write: the file ends at an arbitrary byte.
    #[test]
    fn truncation_recovers_exact_prefix(n in 1usize..24, cut in 0u32..10_000) {
        let dir = std::env::temp_dir()
            .join("fremont-crash-tests")
            .join(format!("trunc-{n}-{cut}"));
        let (path, bytes) = build_wal(&dir, n);
        let ends = frame_ends(&bytes);
        let offset = (cut as usize * bytes.len()) / 10_000;
        std::fs::write(&path, &bytes[..offset]).expect("truncate");
        assert_prefix_recovery(&dir, offset, &ends);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Media fault: a single bit flips at an arbitrary byte. CRC32
    /// detects every single-bit error, so the damaged frame and all
    /// frames after it fall off; frames fully before it survive.
    #[test]
    fn bit_flip_recovers_exact_prefix(n in 1usize..24, at in 0u32..10_000, bit in 0u8..8) {
        let dir = std::env::temp_dir()
            .join("fremont-crash-tests")
            .join(format!("flip-{n}-{at}-{bit}"));
        let (path, mut bytes) = build_wal(&dir, n);
        let ends = frame_ends(&bytes);
        let offset = (at as usize * (bytes.len() - 1)) / 9_999;
        bytes[offset] ^= 1 << bit;
        std::fs::write(&path, &bytes).expect("corrupt");
        assert_prefix_recovery(&dir, offset, &ends);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
