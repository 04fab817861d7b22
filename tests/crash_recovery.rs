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

use fremont::journal::observation::{Fact, Observation, Source};
use fremont::journal::proto::StoreBatchItem;
use fremont::journal::query::InterfaceQuery;
use fremont::journal::records::GatewayId;
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
    // One call, so one fsync per case: the same frames as `n` one-
    // observation stores at times 1..=n.
    let (dj, _) = DurableJournal::open(WalConfig::new(dir)).expect("open");
    let batches: Vec<StoreBatchItem> = (0..n)
        .map(|i| StoreBatchItem {
            now: JTime(i as u64 + 1),
            observations: vec![observation(i)],
        })
        .collect();
    dj.store_batch(&batches).expect("store_batch");
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

/// Ids survive a crash after the newest record is deleted. The delete
/// compacts, so recovery starts from a snapshot whose newest live id is
/// below the one the live journal would hand out next; the records
/// stored after the delete are replayed from the WAL and must get the
/// ids the live journal answered with, not reuse the deleted one.
#[test]
fn recovery_after_deleting_the_newest_record_keeps_every_id() {
    let dir = std::env::temp_dir()
        .join("fremont-crash-tests")
        .join("delete-newest");
    let _ = std::fs::remove_dir_all(&dir);
    let (dj, _) = DurableJournal::open(WalConfig::new(&dir)).expect("open");
    for i in 0..6 {
        dj.store(JTime(i as u64 + 1), &[observation(i)])
            .expect("store");
    }
    let listing = |dj: &DurableJournal| dj.interfaces(&InterfaceQuery::all()).expect("read");
    let newest = listing(&dj).last().expect("records").id;
    assert!(dj.delete(newest).expect("delete"));
    for i in 6..10 {
        dj.store(JTime(i as u64 + 1), &[observation(i)])
            .expect("store");
    }
    let before = listing(&dj);
    assert!(
        before.iter().all(|r| r.id != newest),
        "a live journal moves on"
    );
    drop(dj); // crash: no shutdown compaction

    let (dj, report) = DurableJournal::open(WalConfig::new(&dir)).expect("recover");
    assert_eq!(report.records_replayed, 4, "the stores after the delete");
    assert_eq!(listing(&dj), before, "every id unchanged");
    dj.store(JTime(11), &[observation(10)]).expect("store");
    let after = listing(&dj);
    assert_eq!(after.len(), before.len() + 1);
    assert!(after.last().expect("records").id > before.last().expect("records").id);
    drop(dj);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Gateway ids survive a restart too. Two gateway facts make gateways
/// 0 and 1, and a third bridges them, so 1 is merged into 0. A journal
/// restarted from its snapshot must then hand out gateway 2 to the next
/// new gateway, as a journal that never closed does, not 1 again.
#[test]
fn recovery_after_a_gateway_merge_keeps_every_gateway_id() {
    let dir = std::env::temp_dir()
        .join("fremont-crash-tests")
        .join("gateway-merge");
    let _ = std::fs::remove_dir_all(&dir);
    let gateway = |nets: &[u8]| {
        Observation::new(
            Source::Traceroute,
            Fact::Gateway {
                interface_ips: nets.iter().map(|&n| Ipv4Addr::new(10, 9, n, 1)).collect(),
                interface_names: vec![],
                subnets: vec![],
            },
        )
    };
    let live = Journal::new();
    let (dj, _) = DurableJournal::open(WalConfig::new(&dir)).expect("open");
    for (t, obs) in [gateway(&[1]), gateway(&[2]), gateway(&[1, 2])]
        .into_iter()
        .enumerate()
    {
        live.apply(&obs, JTime(t as u64 + 1));
        dj.store(JTime(t as u64 + 1), &[obs]).expect("store");
    }
    assert_eq!(live.get_gateways().len(), 1, "merged");
    dj.compact().expect("compact");
    drop(dj);

    let (dj, report) = DurableJournal::open(WalConfig::new(&dir)).expect("reopen");
    assert!(report.snapshot_loaded);
    assert_eq!(
        report.records_replayed, 0,
        "restored from the snapshot alone"
    );
    let next = gateway(&[3]);
    live.apply(&next, JTime(4));
    dj.store(JTime(4), &[next]).expect("store");
    let ids: Vec<GatewayId> = live.get_gateways().iter().map(|g| g.id).collect();
    assert_eq!(ids, vec![GatewayId(0), GatewayId(2)]);
    assert_eq!(dj.capture_snapshot().expect("capture"), live.to_snapshot());
    drop(dj);
    let _ = std::fs::remove_dir_all(&dir);
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
