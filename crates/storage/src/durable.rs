//! [`DurableJournal`]: a crash-safe journal backend.
//!
//! Wraps a [`SharedJournal`] and mirrors every stored observation into
//! a write-ahead log before applying it, so the in-memory state can
//! always be rebuilt: load the latest snapshot, then replay the WAL
//! tail above the snapshot's observation watermark.
//!
//! ## Recovery algorithm
//!
//! 1. Load `snapshot.json` if present; its `observations_applied`
//!    counter is the watermark `W`.
//! 2. Scan segments in ascending first-seq order. Apply records with
//!    `seq == next expected` (starting at `W + 1`); skip records at or
//!    below `W` (already folded into the snapshot). Stop at the first
//!    torn/corrupt frame or sequence gap — everything after it is an
//!    unusable suffix.
//! 3. Compact: write a fresh durable snapshot of the recovered state,
//!    open a new segment, delete the old ones. This makes recovery
//!    idempotent — a crash at *any* point leaves a directory that
//!    recovers to the same state.

use std::io;
use std::path::PathBuf;
use std::sync::Arc;

use fremont_telemetry::{SpanId, TelTime, Telemetry};
use parking_lot::Mutex;

use fremont_journal::observation::Observation;
use fremont_journal::proto::{ProtoError, StoreBatchItem, WalStateReport};
use fremont_journal::query::{InterfaceQuery, SubnetQuery};
use fremont_journal::records::{GatewayRecord, InterfaceId, InterfaceRecord, SubnetRecord};
use fremont_journal::server::{JournalAccess, SharedJournal};
use fremont_journal::snapshot::JournalSnapshot;
use fremont_journal::store::{Journal, JournalStats, StoreSummary};
use fremont_journal::time::JTime;

use crate::wal::{
    list_segments, scan_segment, sync_dir, SyncPolicy, TailStatus, WalRecord, WalWriter,
};

/// Configuration of a WAL-backed journal directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalConfig {
    /// Directory holding `snapshot.json` and `wal-*.log` segments.
    pub dir: PathBuf,
    /// fsync cadence for appends.
    pub sync: SyncPolicy,
    /// Segment size that triggers rotation + compaction.
    pub max_segment_bytes: u64,
}

impl WalConfig {
    /// Durable defaults: fsync every append, 4 MiB segments.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        WalConfig {
            dir: dir.into(),
            sync: SyncPolicy::Always,
            max_segment_bytes: 4 * 1024 * 1024,
        }
    }

    /// Group-commit variant (fsync once per `n` appends).
    pub fn grouped(dir: impl Into<PathBuf>, n: usize) -> Self {
        WalConfig {
            sync: SyncPolicy::EveryN(n),
            ..WalConfig::new(dir)
        }
    }

    fn snapshot_path(&self) -> PathBuf {
        self.dir.join("snapshot.json")
    }
}

/// What recovery found in a journal directory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// A snapshot existed and was loaded.
    pub snapshot_loaded: bool,
    /// Observation counter covered by the snapshot.
    pub watermark: u64,
    /// Segment files scanned.
    pub segments_scanned: usize,
    /// WAL records re-applied on top of the snapshot.
    pub records_replayed: u64,
    /// Records skipped because the snapshot already covered them.
    pub records_skipped: u64,
    /// Bytes dropped from torn/corrupt segment tails.
    pub torn_bytes_dropped: u64,
}

/// Publishes a [`RecoveryReport`] into a telemetry sink: one counter
/// per field plus a `storage.recovery` trace event (at time zero —
/// recovery happens before the exploration clock starts).
fn publish_recovery(telemetry: &Telemetry, report: &RecoveryReport) {
    if !telemetry.enabled() {
        return;
    }
    telemetry.gauge_set(
        "fremont_wal_recovery_snapshot_loaded",
        "",
        u64::from(report.snapshot_loaded),
    );
    telemetry.gauge_set("fremont_wal_recovery_watermark", "", report.watermark);
    telemetry.counter_set(
        "fremont_wal_recovery_segments_scanned",
        "",
        report.segments_scanned as u64,
    );
    telemetry.counter_set(
        "fremont_wal_recovery_records_replayed",
        "",
        report.records_replayed,
    );
    telemetry.counter_set(
        "fremont_wal_recovery_records_skipped",
        "",
        report.records_skipped,
    );
    telemetry.counter_set(
        "fremont_wal_recovery_torn_bytes_dropped",
        "",
        report.torn_bytes_dropped,
    );
    let detail = format!(
        "snapshot_loaded={} watermark={} segments={} replayed={} skipped={} torn_bytes={}",
        report.snapshot_loaded,
        report.watermark,
        report.segments_scanned,
        report.records_replayed,
        report.records_skipped,
        report.torn_bytes_dropped,
    );
    telemetry.event("storage.recovery", &detail, SpanId::NONE, TelTime(0));
}

struct WalState {
    cfg: WalConfig,
    writer: WalWriter,
}

impl Drop for WalState {
    fn drop(&mut self) {
        // Last-gasp durability for group-commit/never policies.
        // fremont-lint: allow(ignored-io) -- Drop cannot propagate; callers wanting the error use sync() first
        let _ = self.writer.sync_now();
    }
}

/// A cheaply-cloneable handle to a WAL-backed journal.
///
/// All mutations ([`JournalAccess::store`], [`JournalAccess::delete`])
/// are serialized through the WAL lock; reads go straight to the
/// underlying [`SharedJournal`].
#[derive(Clone)]
pub struct DurableJournal {
    shared: SharedJournal,
    wal: Arc<Mutex<WalState>>,
    telemetry: Telemetry,
}

impl DurableJournal {
    /// Opens (creating if needed) a journal directory, running crash
    /// recovery and an initial compaction.
    pub fn open(cfg: WalConfig) -> io::Result<(DurableJournal, RecoveryReport)> {
        Self::open_with_telemetry(cfg, Telemetry::noop())
    }

    /// Like [`DurableJournal::open`], with a telemetry handle: the
    /// recovery report is published at startup and WAL activity
    /// (appends, fsyncs, rotations) is counted from then on.
    pub fn open_with_telemetry(
        cfg: WalConfig,
        telemetry: Telemetry,
    ) -> io::Result<(DurableJournal, RecoveryReport)> {
        std::fs::create_dir_all(&cfg.dir)?;
        let (journal, report) = recover(&cfg)?;
        publish_recovery(&telemetry, &report);
        let shared = SharedJournal::from_journal(journal);
        // Compact immediately: snapshot the recovered state and start a
        // fresh segment, so stale segments can't accumulate and a
        // half-written pre-crash directory is normalized. Nothing else
        // holds `shared` yet, so no write can slip between the capture
        // and the segment switch.
        let writer = shared.read(|j| write_snapshot_and_rotate(&cfg, j))?;
        let durable = DurableJournal {
            shared,
            wal: Arc::new(Mutex::new(WalState { cfg, writer })),
            telemetry,
        };
        Ok((durable, report))
    }

    /// The in-process journal handle (for read paths and correlation).
    pub fn shared(&self) -> &SharedJournal {
        &self.shared
    }

    /// Forces buffered WAL appends to disk (group-commit flush point).
    pub fn sync(&self) -> io::Result<()> {
        // fremont-lint: allow(lock-order) -- the WAL mutex exists to serialize exactly this fsync against appends
        if self.wal.lock().writer.sync_now()? {
            self.telemetry
                .counter_add("fremont_wal_fsyncs_total", "", 1);
        }
        Ok(())
    }

    /// Writes a durable snapshot, rotates to a fresh segment, and
    /// deletes segments the snapshot made obsolete.
    pub fn compact(&self) -> io::Result<()> {
        // fremont-lint: allow(lock-order) -- compaction must hold the WAL lock across its IO to keep appends out of the rotating segment
        let mut wal = self.wal.lock();
        self.compact_locked(&mut wal)
    }

    fn compact_locked(&self, wal: &mut WalState) -> io::Result<()> {
        if wal.writer.sync_now()? {
            self.telemetry
                .counter_add("fremont_wal_fsyncs_total", "", 1);
        }
        // The caller's WAL guard keeps every `DurableJournal` write out
        // between the snapshot capture and the segment switch.
        wal.writer = self
            .shared
            .read(|j| write_snapshot_and_rotate(&wal.cfg, j))?;
        self.telemetry
            .counter_add("fremont_wal_segment_rotations_total", "", 1);
        Ok(())
    }
}

/// Phase 1 + 2 of recovery: snapshot load and WAL replay.
fn recover(cfg: &WalConfig) -> io::Result<(Journal, RecoveryReport)> {
    let mut report = RecoveryReport::default();
    let snap_path = cfg.snapshot_path();
    let journal = if snap_path.exists() {
        let snap = JournalSnapshot::load(&snap_path)?;
        report.snapshot_loaded = true;
        report.watermark = snap.observations_applied;
        snap.restore()
    } else {
        Journal::new()
    };

    let mut expected = report.watermark + 1;
    'segments: for seg in list_segments(&cfg.dir)? {
        report.segments_scanned += 1;
        let scan = scan_segment(&seg.path)?;
        if let TailStatus::Torn { dropped_bytes } = scan.tail {
            report.torn_bytes_dropped += dropped_bytes;
        }
        for rec in scan.records {
            if rec.seq < expected {
                report.records_skipped += 1;
                continue;
            }
            if rec.seq > expected {
                // Sequence gap: a lost middle. Nothing after it can be
                // trusted to produce the pre-crash state.
                break 'segments;
            }
            journal.apply(&rec.obs, rec.at);
            report.records_replayed += 1;
            expected += 1;
        }
        if scan.tail != TailStatus::Clean {
            // A torn segment ends the trustworthy prefix even if later
            // segments exist (they would open a gap anyway).
            break;
        }
    }

    debug_assert_eq!(
        journal.stats().observations_applied,
        expected - 1,
        "replay must land the observation counter on the last applied seq"
    );
    debug_assert!(journal.check_invariants().is_ok());
    Ok((journal, report))
}

/// Phase 3 of recovery, also the rotation path: durable snapshot, new
/// segment, prune. Returns the writer for the fresh segment.
fn write_snapshot_and_rotate(cfg: &WalConfig, journal: &Journal) -> io::Result<WalWriter> {
    let snap = journal.to_snapshot();
    let next_seq = snap.observations_applied + 1;
    snap.save(&cfg.snapshot_path())?;
    let writer = WalWriter::create(&cfg.dir, next_seq, cfg.sync)?;
    for seg in list_segments(&cfg.dir)? {
        if seg.path != writer.path() {
            std::fs::remove_file(&seg.path)?;
        }
    }
    sync_dir(&cfg.dir)?;
    Ok(writer)
}

fn io_err(e: io::Error) -> ProtoError {
    ProtoError::Io(e)
}

impl DurableJournal {
    /// The one write path: logs every observation in `runs` ahead of
    /// applying it, as a single group — one WAL lock acquisition, one
    /// buffered segment write, and at most one fsync for the whole
    /// call (the sync policy is applied once, after the group).
    ///
    /// With a real `parent` span and an enabled sink, the call also
    /// emits the storage leg of the causal trace: a `wal.append` child
    /// span attributing appended bytes and observations, plus a
    /// `wal.fsync` child when the sync policy fired. Both are logical
    /// (same `at` for start and end) and are pushed only after the WAL
    /// lock is released.
    fn store_runs(
        &self,
        runs: &[(JTime, &[Observation])],
        parent: SpanId,
        at: TelTime,
    ) -> Result<StoreSummary, ProtoError> {
        let total: usize = runs.iter().map(|(_, obs)| obs.len()).sum();
        if total == 0 {
            return Ok(StoreSummary::default());
        }
        // fremont-lint: allow(lock-order) -- WAL-before-journal is the crate's one lock order; store/compact/delete all follow it
        let mut wal = self.wal.lock();
        let bytes_before = wal.writer.bytes();
        let mut fsyncs = 0u64;
        let summary = self
            .shared
            .read(|j| -> io::Result<StoreSummary> {
                // Log ahead of apply: each record carries the seq the
                // counter will reach once that observation is applied.
                // `shared.read` takes no lock; it is the WAL mutex held
                // above that makes counter read, append and apply one
                // step (the store's own write lock is taken only inside
                // `apply_batch`).
                let mut seq = j.stats().observations_applied;
                let mut records = Vec::with_capacity(total);
                for (now, observations) in runs {
                    for obs in *observations {
                        seq += 1;
                        records.push(WalRecord {
                            seq,
                            at: *now,
                            obs: obs.clone(),
                        });
                    }
                }
                let synced = wal.writer.append_batch(&records)?;
                fsyncs += u64::from(synced);
                Ok(j.apply_batch(
                    runs.iter()
                        .flat_map(|(now, observations)| observations.iter().map(|o| (o, *now))),
                ))
            })
            .map_err(io_err)?;
        // Captured before the rotation check: rotation resets bytes().
        let appended = wal.writer.bytes().saturating_sub(bytes_before);
        self.telemetry
            .counter_add("fremont_wal_appends_total", "", total as u64);
        if fsyncs > 0 {
            self.telemetry
                .counter_add("fremont_wal_fsyncs_total", "", fsyncs);
        }
        if wal.writer.bytes() >= wal.cfg.max_segment_bytes {
            self.compact_locked(&mut wal).map_err(io_err)?;
        }
        drop(wal);
        if parent.is_real() && self.telemetry.enabled() {
            let span = self.telemetry.span_start("wal.append", "", parent, at);
            self.telemetry.work(span, "bytes", appended, at);
            self.telemetry.work(span, "observations", total as u64, at);
            self.telemetry
                .span_end(span, &format!("records={total} bytes={appended}"), at);
            if fsyncs > 0 {
                let span = self.telemetry.span_start("wal.fsync", "", parent, at);
                self.telemetry.work(span, "fsyncs", fsyncs, at);
                self.telemetry.span_end(span, "synced", at);
            }
        }
        Ok(summary)
    }
}

impl JournalAccess for DurableJournal {
    fn store(&self, now: JTime, observations: &[Observation]) -> Result<StoreSummary, ProtoError> {
        self.store_runs(&[(now, observations)], SpanId::NONE, TelTime(0))
    }

    fn store_batch(&self, batches: &[StoreBatchItem]) -> Result<StoreSummary, ProtoError> {
        self.store_batch_traced(batches, SpanId::NONE, TelTime(0))
    }

    fn store_batch_traced(
        &self,
        batches: &[StoreBatchItem],
        parent: SpanId,
        at: TelTime,
    ) -> Result<StoreSummary, ProtoError> {
        let runs: Vec<(JTime, &[Observation])> = batches
            .iter()
            .map(|b| (b.now, b.observations.as_slice()))
            .collect();
        self.store_runs(&runs, parent, at)
    }

    fn wal_state(&self) -> Option<WalStateReport> {
        let (segment_first_seq, segment_bytes, sync_policy) = {
            let wal = self.wal.lock();
            (
                wal.writer.first_seq(),
                wal.writer.bytes(),
                format!("{:?}", wal.cfg.sync),
            )
        };
        let next_seq = self.shared.stats().ok()?.observations_applied + 1;
        Some(WalStateReport {
            segment_first_seq,
            next_seq,
            segment_bytes,
            sync_policy,
        })
    }

    fn interfaces(&self, q: &InterfaceQuery) -> Result<Vec<InterfaceRecord>, ProtoError> {
        self.shared.interfaces(q)
    }

    fn gateways(&self) -> Result<Vec<GatewayRecord>, ProtoError> {
        self.shared.gateways()
    }

    fn subnets(&self, q: &SubnetQuery) -> Result<Vec<SubnetRecord>, ProtoError> {
        self.shared.subnets(q)
    }

    fn delete(&self, id: InterfaceId) -> Result<bool, ProtoError> {
        // Deletions are not observations, so they can't ride the WAL;
        // persist them by snapshotting the post-delete state.
        // fremont-lint: allow(lock-order) -- same WAL-before-journal order as store(); held across the compaction IO
        let mut wal = self.wal.lock();
        let existed = self.shared.read(|j| j.delete_interface(id));
        if existed {
            self.compact_locked(&mut wal).map_err(io_err)?;
        }
        Ok(existed)
    }

    fn stats(&self) -> Result<JournalStats, ProtoError> {
        self.shared.stats()
    }

    fn capture_snapshot(&self) -> Result<JournalSnapshot, ProtoError> {
        self.shared.capture_snapshot()
    }

    fn flush(&self) -> Result<bool, ProtoError> {
        self.compact().map_err(io_err)?;
        Ok(true)
    }

    fn batch_groups_total(&self) -> Option<u64> {
        self.shared.batch_groups_total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fremont_journal::observation::Source;
    use std::net::Ipv4Addr;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("fremont-durable-tests")
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn obs(i: u8) -> Observation {
        Observation::arp_pair(
            Source::ArpWatch,
            Ipv4Addr::new(10, 1, 0, i),
            fremont_net::MacAddr::new([8, 0, 0x20, 0, 1, i]),
        )
    }

    #[test]
    fn fresh_dir_round_trips_across_reopen() {
        let dir = tmp("reopen");
        let cfg = WalConfig::new(&dir);
        {
            let (dj, report) = DurableJournal::open(cfg.clone()).unwrap();
            assert!(!report.snapshot_loaded);
            for i in 1..=10 {
                dj.store(JTime(i as u64), &[obs(i)]).unwrap();
            }
            assert_eq!(dj.stats().unwrap().interfaces, 10);
            // No shutdown snapshot: drop without compacting.
        }
        let (dj, report) = DurableJournal::open(cfg).unwrap();
        assert_eq!(report.records_replayed, 10);
        assert_eq!(dj.stats().unwrap().interfaces, 10);
        assert_eq!(dj.stats().unwrap().observations_applied, 10);
        dj.shared().read(|j| j.check_invariants()).unwrap();
    }

    #[test]
    fn rotation_compacts_and_prunes() {
        let dir = tmp("rotate");
        let mut cfg = WalConfig::new(&dir);
        cfg.max_segment_bytes = 512; // force frequent rotation
        let (dj, _) = DurableJournal::open(cfg.clone()).unwrap();
        for i in 1..=40 {
            dj.store(JTime(i as u64), &[obs((i % 200) as u8)]).unwrap();
        }
        // Rotation keeps exactly one (current) segment alive.
        let segs = list_segments(&dir).unwrap();
        assert_eq!(segs.len(), 1, "{segs:?}");
        assert!(cfg.snapshot_path().exists());
        // And the snapshot+tail still reproduces the full state.
        drop(dj);
        let (dj, _) = DurableJournal::open(cfg).unwrap();
        assert_eq!(dj.stats().unwrap().observations_applied, 40);
    }

    #[test]
    fn torn_tail_loses_only_the_tail() {
        let dir = tmp("torn");
        let cfg = WalConfig::new(&dir);
        {
            let (dj, _) = DurableJournal::open(cfg.clone()).unwrap();
            for i in 1..=6 {
                dj.store(JTime(i as u64), &[obs(i)]).unwrap();
            }
        }
        // Crash simulation: truncate the live segment mid-record.
        let seg = &list_segments(&dir).unwrap()[0];
        let data = std::fs::read(&seg.path).unwrap();
        std::fs::write(&seg.path, &data[..data.len() - 11]).unwrap();
        let (dj, report) = DurableJournal::open(cfg).unwrap();
        assert_eq!(report.records_replayed, 5);
        assert!(report.torn_bytes_dropped > 0);
        assert_eq!(dj.stats().unwrap().interfaces, 5);
        dj.shared().read(|j| j.check_invariants()).unwrap();
    }

    #[test]
    fn delete_survives_restart() {
        let dir = tmp("delete");
        let cfg = WalConfig::new(&dir);
        {
            let (dj, _) = DurableJournal::open(cfg.clone()).unwrap();
            for i in 1..=4 {
                dj.store(JTime(i as u64), &[obs(i)]).unwrap();
            }
            let recs = dj.interfaces(&InterfaceQuery::all()).unwrap();
            assert!(dj.delete(recs[0].id).unwrap());
            assert_eq!(dj.stats().unwrap().interfaces, 3);
        }
        let (dj, _) = DurableJournal::open(cfg).unwrap();
        assert_eq!(dj.stats().unwrap().interfaces, 3, "deletion resurrected");
    }

    #[test]
    fn store_batch_costs_one_fsync_and_survives_restart() {
        let dir = tmp("batch-fsync");
        let (tel, rec) = fremont_telemetry::Telemetry::recording();
        let cfg = WalConfig::grouped(&dir, 8);
        {
            let (dj, _) = DurableJournal::open_with_telemetry(cfg.clone(), tel).unwrap();
            // 64 observations across 4 timestamped items, group commit
            // every 8 appends: the batched path pays ONE fsync where
            // the one-at-a-time path would have paid 8.
            let batches: Vec<StoreBatchItem> = (0..4)
                .map(|b| StoreBatchItem {
                    now: JTime(b + 1),
                    observations: (0..16).map(|h| obs((b * 16 + h) as u8 + 1)).collect(),
                })
                .collect();
            let summary = dj.store_batch(&batches).unwrap();
            assert_eq!(summary.created, 64);
            assert_eq!(rec.counter("fremont_wal_appends_total", ""), 64);
            assert_eq!(
                rec.counter("fremont_wal_fsyncs_total", ""),
                1,
                "one group, one fsync"
            );
            assert_eq!(dj.stats().unwrap().observations_applied, 64);
        }
        // Every observation of the batch was logged ahead of apply.
        let (dj, report) = DurableJournal::open(cfg).unwrap();
        assert!(report.records_replayed + report.watermark >= 64);
        assert_eq!(dj.stats().unwrap().observations_applied, 64);
        dj.shared().read(|j| j.check_invariants()).unwrap();
    }

    #[test]
    fn flush_makes_group_commit_durable() {
        let dir = tmp("flush");
        let cfg = WalConfig::grouped(&dir, 64);
        {
            let (dj, _) = DurableJournal::open(cfg.clone()).unwrap();
            for i in 1..=5 {
                dj.store(JTime(i as u64), &[obs(i)]).unwrap();
            }
            assert!(dj.flush().unwrap());
        }
        let (dj, report) = DurableJournal::open(cfg).unwrap();
        assert!(report.snapshot_loaded);
        assert_eq!(dj.stats().unwrap().interfaces, 5);
    }

    #[test]
    fn traced_store_emits_balanced_wal_spans() {
        let dir = tmp("traced-spans");
        let (tel, rec) = fremont_telemetry::Telemetry::recording();
        let (dj, _) =
            DurableJournal::open_with_telemetry(WalConfig::new(&dir), tel.clone()).unwrap();
        let parent = tel.span_start("driver.drain", "", SpanId::NONE, TelTime(5));
        let batches = vec![StoreBatchItem {
            now: JTime(1),
            observations: vec![obs(1), obs(2)],
        }];
        dj.store_batch_traced(&batches, parent, TelTime(5)).unwrap();
        tel.span_end(parent, "", TelTime(5));
        let events = fremont_telemetry::trace::parse_jsonl(&rec.trace_jsonl()).unwrap();
        fremont_telemetry::trace::validate(&events).unwrap();
        let append = events
            .iter()
            .find(|e| e.kind == "span_start" && e.name == "wal.append")
            .expect("wal.append span");
        assert_eq!(append.parent, parent.0);
        let fsync = events
            .iter()
            .find(|e| e.kind == "span_start" && e.name == "wal.fsync")
            .expect("wal.fsync span (SyncPolicy::Always)");
        assert_eq!(fsync.parent, parent.0);
        let bytes = events
            .iter()
            .find(|e| e.kind == "work" && e.name == "bytes" && e.id == append.id)
            .expect("bytes work attribution");
        assert!(bytes.detail.parse::<u64>().unwrap() > 0);
        let observations = events
            .iter()
            .find(|e| e.kind == "work" && e.name == "observations" && e.id == append.id)
            .expect("observations work attribution");
        assert_eq!(observations.detail, "2");
    }

    #[test]
    fn untraced_store_emits_no_spans() {
        let dir = tmp("untraced");
        let (tel, rec) = fremont_telemetry::Telemetry::recording();
        let (dj, _) = DurableJournal::open_with_telemetry(WalConfig::new(&dir), tel).unwrap();
        let after_open = rec.trace_len(); // recovery emits one event
        dj.store(JTime(1), &[obs(1)]).unwrap();
        assert_eq!(
            rec.trace_len(),
            after_open,
            "untraced writes stay span-free"
        );
        assert_eq!(rec.counter("fremont_wal_appends_total", ""), 1);
    }

    #[test]
    fn wal_state_reflects_segment_and_seq() {
        let dir = tmp("wal-state");
        let (dj, _) = DurableJournal::open(WalConfig::new(&dir)).unwrap();
        let st = dj.wal_state().unwrap();
        assert_eq!(st.segment_first_seq, 1);
        assert_eq!(st.next_seq, 1);
        assert_eq!(st.segment_bytes, 0);
        assert_eq!(st.sync_policy, "Always");
        for i in 1..=3 {
            dj.store(JTime(i), &[obs(i as u8)]).unwrap();
        }
        let st = dj.wal_state().unwrap();
        assert_eq!(st.segment_first_seq, 1);
        assert_eq!(st.next_seq, 4);
        assert!(st.segment_bytes > 0);
        dj.compact().unwrap();
        let st = dj.wal_state().unwrap();
        assert_eq!(st.segment_first_seq, 4, "rotation starts a fresh segment");
        assert_eq!(st.segment_bytes, 0);
    }

    #[test]
    fn snapshot_watermark_skips_replayed_records() {
        let dir = tmp("watermark");
        let cfg = WalConfig::new(&dir);
        {
            let (dj, _) = DurableJournal::open(cfg.clone()).unwrap();
            for i in 1..=3 {
                dj.store(JTime(i as u64), &[obs(i)]).unwrap();
            }
            dj.compact().unwrap(); // snapshot covers 1..=3
            for i in 4..=6 {
                dj.store(JTime(i as u64), &[obs(i)]).unwrap();
            }
        }
        let (dj, report) = DurableJournal::open(cfg).unwrap();
        assert!(report.snapshot_loaded);
        assert_eq!(report.watermark, 3);
        assert_eq!(report.records_replayed, 3);
        assert_eq!(dj.stats().unwrap().observations_applied, 6);
    }
}
