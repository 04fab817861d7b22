//! fremont-storage: durable persistence for the Fremont Journal.
//!
//! The paper's Journal Server "maintains an in-memory representation of
//! the Journal data, which it writes to disk periodically and at
//! termination" — a scheme that loses everything since the last write
//! on a crash. This crate upgrades that story with a storage engine:
//!
//! * a binary **write-ahead log** of observations ([`wal`]): CRC32-framed
//!   records; under the shipped [`SyncPolicy::Always`] a batch is
//!   acknowledged once fsync'd, and a failed append's frames are deleted;
//! * **crash recovery** ([`DurableJournal::open`]): load the latest
//!   snapshot, replay the WAL tail above its watermark, tolerate a torn
//!   final record;
//! * **segment rotation + compaction**: when the live segment passes a
//!   size threshold it is sealed, a fresh [`JournalSnapshot`] is written
//!   durably, and obsolete segments are deleted.
//!
//! [`DurableJournal`] implements the journal's `JournalAccess` trait, so
//! it drops into the Journal Server wherever a `SharedJournal` is used:
//! as in the paper, the server persists the Journal, and a discovery
//! driver that wants durability writes through to a
//! `JournalServer<DurableJournal>`.
//!
//! [`JournalSnapshot`]: fremont_journal::snapshot::JournalSnapshot

pub mod crc32;
pub mod durable;
pub mod wal;

pub use durable::{DurableJournal, RecoveryReport, WalConfig};
pub use wal::{SyncPolicy, WalRecord};
