//! The write-ahead log: record framing, segment files, and scanning.
//!
//! ## On-disk format
//!
//! A WAL directory holds numbered segment files plus a snapshot:
//!
//! ```text
//! journal-dir/
//!   snapshot.json            durable JournalSnapshot (compaction floor)
//!   wal-0000000000000042.log segment whose first record has seq 42
//!   wal-0000000000017311.log current (open) segment
//! ```
//!
//! Each segment is a sequence of frames:
//!
//! ```text
//! +----------------+----------------+----------------------+
//! | len: u32 LE    | crc: u32 LE    | payload (len bytes)  |
//! +----------------+----------------+----------------------+
//! ```
//!
//! `crc` is the CRC-32 (IEEE) of the payload; the payload is the JSON
//! encoding of a [`WalRecord`]. A record is valid only if the frame is
//! complete, the CRC matches, and the JSON parses — anything else ends
//! the valid prefix of the segment (a *torn tail*, expected after a
//! crash mid-append).
//!
//! ## Writing
//!
//! There is one framing path, [`encode_frames`]: a group of records is
//! framed in place into one buffer — each record serialized by the
//! streaming JSON serializer directly behind its 8-byte header, which
//! is patched once the payload's length and checksum (slice-by-8, see
//! [`crate::crc32`]) are known — and [`WalWriter::append_batch`] hands
//! that buffer to one `write`. A single record is a group of one.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use fremont_journal::observation::Observation;
use fremont_journal::time::JTime;

use crate::crc32::crc32;

/// Upper bound on a single record's payload; larger lengths in a frame
/// header are treated as corruption.
pub const MAX_RECORD_BYTES: u32 = 1 << 20;

/// Bytes of framing overhead per record (length + checksum).
pub const FRAME_HEADER_BYTES: u64 = 8;

/// Buffer reserved per record of a group before encoding it. Frames of
/// a recorded survey average 172 bytes, so one reservation usually
/// holds the whole group.
const FRAME_BYTES_HINT: usize = 256;

/// One logged journal mutation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WalRecord {
    /// Value of the journal's observation counter once this record is
    /// applied; recovery replays records with `seq` above the snapshot
    /// watermark.
    pub seq: u64,
    /// Journal timestamp the observation was stored at.
    pub at: JTime,
    /// The observation itself.
    pub obs: Observation,
}

/// When appended records reach the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// fsync after every append: no acknowledged record is ever lost.
    Always,
    /// Group commit: fsync once per `n` appends (and on rotation or
    /// shutdown). A crash can lose up to the last `n - 1` records.
    EveryN(usize),
    /// Never fsync explicitly; the OS flushes when it pleases. Fastest,
    /// loses an unbounded tail on power failure. Still torn-tail-safe.
    Never,
}

/// Builds a segment file name from its first sequence number.
pub fn segment_file_name(first_seq: u64) -> String {
    format!("wal-{first_seq:016}.log")
}

/// Parses a segment file name back to its first sequence number.
pub fn parse_segment_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    if digits.len() != 16 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// A discovered segment file.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Sequence number of the first record the segment was opened for.
    pub first_seq: u64,
    pub path: PathBuf,
}

/// Lists the WAL segments in `dir`, ordered by first sequence number.
pub fn list_segments(dir: &Path) -> io::Result<Vec<Segment>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(first_seq) = entry.file_name().to_str().and_then(parse_segment_name) {
            out.push(Segment {
                first_seq,
                path: entry.path(),
            });
        }
    }
    out.sort_by_key(|s| s.first_seq);
    Ok(out)
}

/// Opens `dir` itself and fsyncs it, persisting entry creation/removal.
pub fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Appends the frames of `records` to `out`, reserving once for the
/// run. Each record is serialized straight into `out` behind an 8-byte
/// hole that is then patched with its length and checksum — no
/// per-record payload buffer, no copy. Fails on the first record over
/// [`MAX_RECORD_BYTES`].
pub fn encode_frames(records: &[WalRecord], out: &mut Vec<u8>) -> io::Result<()> {
    out.reserve(records.len() * FRAME_BYTES_HINT);
    for record in records {
        let header = out.len();
        out.extend_from_slice(&[0; FRAME_HEADER_BYTES as usize]);
        let start = out.len();
        serde_json::to_writer(&mut *out, record)?;
        let len = out.len() - start;
        if len > MAX_RECORD_BYTES as usize {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("WAL record of {len} bytes exceeds limit"),
            ));
        }
        let crc = crc32(&out[start..]);
        // `len` fits: it is at most MAX_RECORD_BYTES.
        out[header..header + 4].copy_from_slice(&(len as u32).to_le_bytes());
        out[header + 4..start].copy_from_slice(&crc.to_le_bytes());
    }
    Ok(())
}

/// Appends framed records to one segment file.
pub struct WalWriter {
    file: File,
    path: PathBuf,
    first_seq: u64,
    bytes: u64,
    sync: SyncPolicy,
    /// Appends not yet covered by an fsync.
    unsynced: usize,
}

impl WalWriter {
    /// Creates (or truncates) the segment for `first_seq` in `dir` and
    /// fsyncs the directory so the new entry survives a crash.
    pub fn create(dir: &Path, first_seq: u64, sync: SyncPolicy) -> io::Result<WalWriter> {
        let path = dir.join(segment_file_name(first_seq));
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        file.sync_all()?;
        sync_dir(dir)?;
        Ok(WalWriter {
            file,
            path,
            first_seq,
            bytes: 0,
            sync,
            unsynced: 0,
        })
    }

    /// Appends a run of records as one group: every frame is assembled
    /// into a single buffer, written with one `write` call, and the sync
    /// policy is applied once at the end — so the group costs at most
    /// one fsync regardless of its length. Returns whether that fsync
    /// happened.
    ///
    /// The group is framed by [`encode_frames`] first, so a record over
    /// [`MAX_RECORD_BYTES`] fails the whole group before any byte
    /// reaches the file.
    ///
    /// Under [`SyncPolicy::Always`] the group is synced once after the
    /// write (the policy guarantees acknowledged records are on disk,
    /// and the whole group is acknowledged together). Under
    /// [`SyncPolicy::EveryN`] the group counts as `records.len()`
    /// pending appends.
    pub fn append_batch(&mut self, records: &[WalRecord]) -> io::Result<bool> {
        if records.is_empty() {
            return Ok(false);
        }
        let mut frames = Vec::new();
        encode_frames(records, &mut frames)?;
        self.file.write_all(&frames)?;
        self.bytes += frames.len() as u64;
        self.unsynced += records.len();
        let synced = match self.sync {
            SyncPolicy::Always => self.sync_now()?,
            SyncPolicy::EveryN(n) => {
                if self.unsynced >= n.max(1) {
                    self.sync_now()?
                } else {
                    false
                }
            }
            SyncPolicy::Never => false,
        };
        Ok(synced)
    }

    /// Forces everything appended so far onto disk. Returns whether an
    /// fsync was actually issued (`false` when nothing was pending).
    pub fn sync_now(&mut self) -> io::Result<bool> {
        if self.unsynced > 0 {
            self.file.sync_data()?;
            self.unsynced = 0;
            return Ok(true);
        }
        Ok(false)
    }

    /// Bytes written to this segment (including framing).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Sequence number the segment was opened for.
    pub fn first_seq(&self) -> u64 {
        self.first_seq
    }

    /// The segment file being appended to.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

// ---------------------------------------------------------------------
// Scanner
// ---------------------------------------------------------------------

/// How a segment scan ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailStatus {
    /// Every byte belonged to a valid frame.
    Clean,
    /// The valid prefix ended early (truncated frame, bad CRC, or
    /// unparseable payload); `dropped_bytes` did not decode.
    Torn { dropped_bytes: u64 },
}

/// Result of scanning one segment file.
#[derive(Debug)]
pub struct SegmentScan {
    /// Records of the valid prefix, in file order.
    pub records: Vec<WalRecord>,
    /// Byte length of the valid prefix.
    pub valid_bytes: u64,
    pub tail: TailStatus,
}

/// Reads a little-endian `u32` at `offset`, if all four bytes exist.
fn le_u32(data: &[u8], offset: usize) -> Option<u32> {
    let bytes: [u8; 4] = data.get(offset..offset + 4)?.try_into().ok()?;
    Some(u32::from_le_bytes(bytes))
}

/// Reads the valid prefix of the segment at `path`.
///
/// Never fails on corruption — corruption just ends the prefix. An
/// `Err` means the file could not be read at all.
pub fn scan_segment(path: &Path) -> io::Result<SegmentScan> {
    let mut data = Vec::new();
    File::open(path)?.read_to_end(&mut data)?;
    let mut records = Vec::new();
    let mut offset = 0usize;
    loop {
        let remaining = data.len() - offset;
        if remaining == 0 {
            return Ok(SegmentScan {
                records,
                valid_bytes: offset as u64,
                tail: TailStatus::Clean,
            });
        }
        if remaining < FRAME_HEADER_BYTES as usize {
            break; // torn header
        }
        let (Some(len), Some(crc)) = (le_u32(&data, offset), le_u32(&data, offset + 4)) else {
            break; // torn header (length checked above; belt and braces)
        };
        if len > MAX_RECORD_BYTES {
            break; // corrupt length field
        }
        let start = offset + FRAME_HEADER_BYTES as usize;
        let end = start + len as usize;
        if end > data.len() {
            break; // torn payload
        }
        let payload = &data[start..end];
        if crc32(payload) != crc {
            break; // bit rot or torn overwrite
        }
        match serde_json::from_slice::<WalRecord>(payload) {
            Ok(rec) => records.push(rec),
            Err(_) => break, // CRC matched but the payload is foreign
        }
        offset = end;
    }
    Ok(SegmentScan {
        records,
        valid_bytes: offset as u64,
        tail: TailStatus::Torn {
            dropped_bytes: (data.len() - offset) as u64,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fremont_journal::observation::Source;
    use std::net::Ipv4Addr;

    fn rec(seq: u64) -> WalRecord {
        WalRecord {
            seq,
            at: JTime(seq * 10),
            obs: Observation::ip_alive(Source::SeqPing, Ipv4Addr::new(10, 0, 0, seq as u8)),
        }
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("fremont-wal-tests").join(name);
        if dir.exists() {
            fs::remove_dir_all(&dir).unwrap();
        }
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_scan_roundtrip() {
        let dir = tmp_dir("roundtrip");
        let mut w = WalWriter::create(&dir, 1, SyncPolicy::Always).unwrap();
        for seq in 1..=5 {
            w.append_batch(&[rec(seq)]).unwrap();
        }
        let scan = scan_segment(w.path()).unwrap();
        assert_eq!(scan.tail, TailStatus::Clean);
        assert_eq!(scan.records.len(), 5);
        assert_eq!(scan.records[4], rec(5));
        assert_eq!(scan.valid_bytes, w.bytes());
    }

    #[test]
    fn torn_tail_is_dropped() {
        let dir = tmp_dir("torn");
        let mut w = WalWriter::create(&dir, 1, SyncPolicy::Always).unwrap();
        for seq in 1..=3 {
            w.append_batch(&[rec(seq)]).unwrap();
        }
        let path = w.path().to_path_buf();
        let full = w.bytes();
        drop(w);
        // Simulate a crash mid-append: chop the last record in half.
        let data = fs::read(&path).unwrap();
        fs::write(&path, &data[..data.len() - 20]).unwrap();
        let scan = scan_segment(&path).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert!(matches!(scan.tail, TailStatus::Torn { dropped_bytes } if dropped_bytes > 0));
        assert!(scan.valid_bytes < full);
    }

    #[test]
    fn bit_flip_ends_prefix() {
        let dir = tmp_dir("bitflip");
        let mut w = WalWriter::create(&dir, 1, SyncPolicy::Always).unwrap();
        for seq in 1..=4 {
            w.append_batch(&[rec(seq)]).unwrap();
        }
        let path = w.path().to_path_buf();
        drop(w);
        let mut data = fs::read(&path).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0x10;
        fs::write(&path, &data).unwrap();
        let scan = scan_segment(&path).unwrap();
        assert!(scan.records.len() < 4, "flip at byte {mid} undetected");
        // Whatever survived is a strict prefix with consecutive seqs.
        for (i, r) in scan.records.iter().enumerate() {
            assert_eq!(r.seq, i as u64 + 1);
        }
    }

    #[test]
    fn segment_names_sort_and_parse() {
        assert_eq!(segment_file_name(42), "wal-0000000000000042.log");
        assert_eq!(parse_segment_name("wal-0000000000000042.log"), Some(42));
        assert_eq!(parse_segment_name("wal-42.log"), None);
        assert_eq!(parse_segment_name("snapshot.json"), None);
        let dir = tmp_dir("listing");
        for seq in [30u64, 2, 117] {
            WalWriter::create(&dir, seq, SyncPolicy::Never).unwrap();
        }
        let segs = list_segments(&dir).unwrap();
        assert_eq!(
            segs.iter().map(|s| s.first_seq).collect::<Vec<_>>(),
            vec![2, 30, 117]
        );
    }

    #[test]
    fn append_batch_writes_once_and_scans_back() {
        let dir = tmp_dir("batch");
        let mut w = WalWriter::create(&dir, 1, SyncPolicy::EveryN(4)).unwrap();
        let records: Vec<WalRecord> = (1..=10).map(rec).collect();
        // Ten records, policy EveryN(4): the batch still costs at most
        // one fsync because the policy is applied once at the end.
        let synced = w.append_batch(&records).unwrap();
        assert!(synced);
        assert_eq!(w.unsynced, 0);
        // An under-threshold batch defers entirely.
        let synced = w.append_batch(&records[..2]).unwrap();
        assert!(!synced);
        assert_eq!(w.unsynced, 2);
        let scan = scan_segment(w.path()).unwrap();
        assert_eq!(scan.tail, TailStatus::Clean);
        assert_eq!(scan.records.len(), 12);
        assert_eq!(scan.records[9], rec(10));
        // Batched frames are byte-identical to one-at-a-time frames.
        let mut one = WalWriter::create(&dir, 100, SyncPolicy::Never).unwrap();
        for r in &records {
            one.append_batch(std::slice::from_ref(r)).unwrap();
        }
        assert_eq!(one.bytes(), {
            let mut b = WalWriter::create(&dir, 200, SyncPolicy::Never).unwrap();
            b.append_batch(&records).unwrap();
            b.bytes()
        });
    }

    #[test]
    fn oversized_record_fails_the_whole_batch_before_any_write() {
        let dir = tmp_dir("batch-oversized");
        let mut w = WalWriter::create(&dir, 1, SyncPolicy::Always).unwrap();
        let mut huge = rec(2);
        huge.obs = Observation::named_ip(
            Source::Dns,
            Ipv4Addr::new(10, 0, 0, 2),
            &"x".repeat(MAX_RECORD_BYTES as usize),
        );
        let err = w.append_batch(&[rec(1), huge, rec(3)]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(w.bytes(), 0);
        assert_eq!(w.unsynced, 0);
        assert_eq!(fs::metadata(w.path()).unwrap().len(), 0);
        // The writer is still usable.
        w.append_batch(&[rec(1)]).unwrap();
        assert_eq!(scan_segment(w.path()).unwrap().records, vec![rec(1)]);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let dir = tmp_dir("batch-empty");
        let mut w = WalWriter::create(&dir, 1, SyncPolicy::Always).unwrap();
        assert!(!w.append_batch(&[]).unwrap());
        assert_eq!(w.bytes(), 0);
    }

    #[test]
    fn group_commit_defers_sync() {
        let dir = tmp_dir("group");
        let mut w = WalWriter::create(&dir, 1, SyncPolicy::EveryN(8)).unwrap();
        for seq in 1..=20 {
            w.append_batch(&[rec(seq)]).unwrap();
        }
        // 20 appends with n=8: syncs at 8 and 16, leaving 4 pending.
        assert_eq!(w.unsynced, 4);
        w.sync_now().unwrap();
        assert_eq!(w.unsynced, 0);
    }
}
