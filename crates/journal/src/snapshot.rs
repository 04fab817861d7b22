//! Journal snapshots: periodic and at-termination disk persistence.
//!
//! "The Journal Server maintains an in-memory representation of the
//! Journal data, which it writes to disk periodically and at termination."
//! A snapshot is the flat record set; indexes are rebuilt on load.
//!
//! It is also how a whole-picture reader sees the Journal: the analysis
//! programs, the topology export, the raw dump, the fingerprint and the
//! save all take one [`Journal::to_snapshot`] — one read of the store,
//! owned plain data, one state. The order it emits is a contract, not a
//! courtesy: interfaces ascending by id (so the fingerprint is
//! canonical, groupings see records in a fixed order and
//! [`JournalSnapshot::interface_by_id`] can search), gateways ascending
//! by id, subnets in address order.

use std::fs;
use std::io;
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::records::{GatewayRecord, InterfaceId, InterfaceRecord, SubnetRecord};
use crate::store::Journal;

/// A serializable image of the Journal's records.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalSnapshot {
    /// Format version, for forward compatibility.
    pub version: u32,
    /// All live interface records, ascending by id.
    pub interfaces: Vec<InterfaceRecord>,
    /// All live gateway records, ascending by id.
    pub gateways: Vec<GatewayRecord>,
    /// All subnet records, in address order.
    pub subnets: Vec<SubnetRecord>,
    /// Observation counter, preserved across restarts.
    pub observations_applied: u64,
}

/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 1;

impl JournalSnapshot {
    /// The interface record with this id, if it is live — how a reader
    /// follows a gateway's member list. Binary search: relies on
    /// `interfaces` being in id order.
    pub fn interface_by_id(&self, id: InterfaceId) -> Option<&InterfaceRecord> {
        let at = self.interfaces.binary_search_by_key(&id, |r| r.id).ok()?;
        Some(&self.interfaces[at])
    }

    /// Restores a journal (rebuilding all indexes).
    pub fn restore(&self) -> Journal {
        let j = Journal::from_snapshot(self);
        debug_assert!(
            j.check_invariants().is_ok(),
            "snapshot restored to an inconsistent journal"
        );
        j
    }

    /// A stable FNV-1a fingerprint of the snapshot's canonical JSON
    /// encoding. [`Journal::to_snapshot`] is canonical — records are
    /// emitted in id order — so two journals holding the same facts
    /// fingerprint identically however the observations were batched
    /// (property-tested in the store). The
    /// model checker uses this to recognize fault interleavings that
    /// leave the Journal in the same state.
    pub fn fingerprint(&self) -> u64 {
        /// Hashes what is written to it, so the encoding is never held.
        struct Hashing(fremont_net::Fnv1a);
        impl io::Write for Hashing {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.write(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut hasher = Hashing(fremont_net::Fnv1a::new());
        match serde_json::to_writer(&mut hasher, self) {
            Ok(()) => hasher.0.finish(),
            // Plain-data snapshots always serialize; keep a stable
            // sentinel rather than a panic path if that ever changes.
            Err(_) => fremont_net::fnv1a_64(b"fremont-journal:unserializable"),
        }
    }

    /// Writes the snapshot as JSON, atomically and durably: the temp
    /// file is fsync'd before the rename, and the parent directory is
    /// fsync'd after it, so a crash at any point leaves either the old
    /// or the new snapshot — never a torn one.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let tmp = path.with_extension("tmp");
        {
            let mut f = io::BufWriter::new(fs::File::create(&tmp)?);
            serde_json::to_writer_pretty(&mut f, self)?;
            let f = f.into_inner().map_err(io::IntoInnerError::into_error)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, path)?;
        // Persist the rename itself (the directory entry).
        if let Some(parent) = path.parent() {
            let dir = if parent.as_os_str().is_empty() {
                Path::new(".")
            } else {
                parent
            };
            fs::File::open(dir)?.sync_all()?;
        }
        Ok(())
    }

    /// Loads a snapshot from JSON. Rejects snapshots written by a newer
    /// format version rather than misinterpreting them.
    pub fn load(path: &Path) -> io::Result<Self> {
        let body = fs::read(path)?;
        let snap: JournalSnapshot = serde_json::from_slice(&body)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        if snap.version > SNAPSHOT_VERSION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "snapshot {} has format version {} but this build only understands \
                     versions up to {}; refusing to load",
                    path.display(),
                    snap.version,
                    SNAPSHOT_VERSION
                ),
            ));
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::{Fact, Observation, Source};
    use crate::query::{InterfaceQuery, SubnetQuery};
    use crate::time::JTime;
    use std::net::Ipv4Addr;

    fn populated() -> Journal {
        let j = Journal::new();
        j.apply(
            &Observation::arp_pair(
                Source::ArpWatch,
                Ipv4Addr::new(10, 0, 0, 1),
                "08:00:20:00:00:01".parse().unwrap(),
            ),
            JTime(1),
        );
        j.apply(
            &Observation::new(
                Source::Traceroute,
                Fact::Gateway {
                    interface_ips: vec![Ipv4Addr::new(10, 0, 0, 254)],
                    interface_names: vec![],
                    subnets: vec![
                        "10.0.0.0/24".parse().unwrap(),
                        "10.0.1.0/24".parse().unwrap(),
                    ],
                },
            ),
            JTime(2),
        );
        j
    }

    #[test]
    fn snapshot_roundtrip_preserves_queries() {
        let j = populated();
        let snap = j.to_snapshot();
        assert_eq!(snap.version, SNAPSHOT_VERSION);
        let j2 = snap.restore();
        j2.check_invariants().unwrap();
        assert_eq!(j2.stats().interfaces, j.stats().interfaces);
        assert_eq!(j2.stats().gateways, 1);
        assert_eq!(j2.stats().subnets, 2);
        assert_eq!(
            j2.get_interfaces(&InterfaceQuery::by_ip(Ipv4Addr::new(10, 0, 0, 1)))
                .len(),
            1
        );
        assert_eq!(j2.get_subnets(&SubnetQuery::all()).len(), 2);
        // Applying to the restored journal keeps working (ids intact).
        let j3 = snap.restore();
        j3.apply(
            &Observation::ip_alive(Source::SeqPing, Ipv4Addr::new(10, 0, 0, 1)),
            JTime(5),
        );
        assert_eq!(j3.stats().interfaces, j.stats().interfaces);
        j3.check_invariants().unwrap();
    }

    #[test]
    fn interface_by_id_finds_live_records_only() {
        let j = populated();
        let all = j.get_interfaces(&InterfaceQuery::all());
        assert!(all.len() >= 2);
        j.delete_interface(all[0].id);
        let snap = j.to_snapshot();
        assert!(snap.interfaces.windows(2).all(|w| w[0].id < w[1].id));
        assert_eq!(snap.interface_by_id(all[0].id), None);
        for r in &all[1..] {
            assert_eq!(snap.interface_by_id(r.id), Some(r));
        }
    }

    #[test]
    fn snapshot_file_roundtrip() {
        let j = populated();
        let snap = j.to_snapshot();
        let dir = std::env::temp_dir().join("fremont-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.json");
        snap.save(&path).unwrap();
        let loaded = JournalSnapshot::load(&path).unwrap();
        assert_eq!(loaded, snap);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fingerprint_and_save_stream_the_same_bytes_to_vec_renders() {
        let snap = populated().to_snapshot();
        assert_eq!(
            snap.fingerprint(),
            fremont_net::fnv1a_64(&serde_json::to_vec(&snap).unwrap())
        );
        let dir = std::env::temp_dir().join("fremont-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("streamed.json");
        snap.save(&path).unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            serde_json::to_vec_pretty(&snap).unwrap()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_newer_version() {
        let j = populated();
        let mut snap = j.to_snapshot();
        snap.version = SNAPSHOT_VERSION + 1;
        let dir = std::env::temp_dir().join("fremont-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("future.json");
        snap.save(&path).unwrap();
        let err = JournalSnapshot::load(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(
            msg.contains("format version") && msg.contains("refusing to load"),
            "unhelpful error message: {msg}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_garbage() {
        let dir = std::env::temp_dir().join("fremont-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.json");
        std::fs::write(&path, b"not json at all").unwrap();
        assert!(JournalSnapshot::load(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
