//! Summary and statistics types plus per-shard instrumentation counters.

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

/// Lock-acquisition counters for one shard.
///
/// Plain relaxed atomics: increments are deterministic for single-threaded
/// callers (the driver), merely monotone for concurrent ones (the server).
#[derive(Default)]
pub(super) struct ShardCounters {
    /// Read-lock acquisitions on this shard.
    pub read_locks: AtomicU64,
    /// Write-lock acquisitions on this shard.
    pub write_locks: AtomicU64,
}

/// Store-wide activity counters.
#[derive(Default)]
pub(super) struct StoreCounters {
    /// Queries that had to visit every shard and merge the results.
    pub fanout_queries: AtomicU64,
    /// Write batches applied via `apply_batch`.
    pub batches: AtomicU64,
    /// Observations carried by those batches.
    pub batch_observations: AtomicU64,
    /// Largest single batch seen.
    pub largest_batch: AtomicU64,
    /// Shard write-lock acquisitions made by write transactions: every
    /// transaction (batch, single apply, delete, snapshot restore) takes
    /// each shard's write lock exactly once, so this grows by the shard
    /// count per transaction. (The name predates the single write path;
    /// the metric it feeds is frozen by `metrics.golden`.)
    pub batch_groups: AtomicU64,
}

impl StoreCounters {
    /// Records one applied batch of `n` observations.
    pub fn note_batch(&self, n: u64) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batch_observations.fetch_add(n, Ordering::Relaxed);
        self.largest_batch.fetch_max(n, Ordering::Relaxed);
    }

    /// Records the `shards` write locks one write transaction took.
    pub fn note_txn_locks(&self, shards: u64) {
        self.batch_groups.fetch_add(shards, Ordering::Relaxed);
    }
}

/// Point-in-time view of one shard's activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardMetrics {
    /// Shard index.
    pub shard: usize,
    /// Interface records currently owned by the shard.
    pub records: usize,
    /// Read-lock acquisitions since creation.
    pub read_locks: u64,
    /// Write-lock acquisitions since creation.
    pub write_locks: u64,
}

/// Point-in-time view of the sharded store's activity.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardingMetrics {
    /// Per-shard counters, indexed by shard.
    pub shards: Vec<ShardMetrics>,
    /// Queries that fanned out across every shard.
    pub fanout_queries: u64,
    /// Write batches applied.
    pub batches: u64,
    /// Observations carried by those batches.
    pub batch_observations: u64,
    /// Largest single batch seen.
    pub largest_batch: u64,
}
