//! Summary and statistics types plus the store's instrumentation counters.
//!
//! The store is one partition behind one lock; the "shard" in
//! [`ShardMetrics`], [`ShardingMetrics`], `sharding_metrics()`,
//! `batch_groups_total()` and the `fremont_journal_shard_*` metric
//! names is vestigial, kept only because `wal-schema.golden`,
//! `metrics.golden` and `crates/e2e` freeze those names. The partition
//! reports as shard 0.

use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

/// Summary of applying a batch of observations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreSummary {
    /// Records newly created.
    pub created: usize,
    /// Records whose fields changed.
    pub updated: usize,
    /// Records merely re-verified.
    pub verified: usize,
}

impl StoreSummary {
    /// Adds another summary's counters into this one.
    pub fn absorb(&mut self, other: StoreSummary) {
        self.created += other.created;
        self.updated += other.updated;
        self.verified += other.verified;
    }
}

/// Journal-wide statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalStats {
    /// Number of interface records.
    pub interfaces: usize,
    /// Number of gateway records.
    pub gateways: usize,
    /// Number of subnet records.
    pub subnets: usize,
    /// Total observations applied.
    pub observations_applied: u64,
}

/// Store-wide activity counters.
///
/// Plain relaxed atomics: increments are deterministic for single-threaded
/// callers (the driver), merely monotone for concurrent ones (the server).
#[derive(Default)]
pub(super) struct StoreCounters {
    /// Read-lock acquisitions: one per query.
    pub read_locks: AtomicU64,
    /// Write-lock acquisitions: one per write transaction (batch, single
    /// apply, delete). Also what `batch_groups_total()` reports.
    pub write_locks: AtomicU64,
    /// Write batches applied via `apply_batch`.
    pub batches: AtomicU64,
    /// Observations carried by those batches.
    pub batch_observations: AtomicU64,
    /// Largest single batch seen.
    pub largest_batch: AtomicU64,
}

impl StoreCounters {
    /// Records one applied batch of `n` observations.
    pub fn note_batch(&self, n: u64) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batch_observations.fetch_add(n, Ordering::Relaxed);
        self.largest_batch.fetch_max(n, Ordering::Relaxed);
    }
}

/// Point-in-time view of the partition's lock activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardMetrics {
    /// Always 0.
    pub shard: usize,
    /// Interface records currently held.
    pub records: usize,
    /// Read-lock acquisitions since creation.
    pub read_locks: u64,
    /// Write-lock acquisitions since creation.
    pub write_locks: u64,
}

/// Point-in-time view of the store's activity.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardingMetrics {
    /// The one partition's counters.
    pub shards: Vec<ShardMetrics>,
    /// Always 0: no query fans out.
    pub fanout_queries: u64,
    /// Write batches applied.
    pub batches: u64,
    /// Observations carried by those batches.
    pub batch_observations: u64,
    /// Largest single batch seen.
    pub largest_batch: u64,
}
