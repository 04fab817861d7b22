//! A benchmark-side [`JournalAccess`] wrapper around the backend handed
//! to `JournalServer::start`: it times every call the server makes into
//! the backend (the server's "apply" leg, seen from outside), counts
//! calls and errors, and can drop one batch on purpose so the
//! correctness gates can be shown to fire.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use fremont_journal::observation::Observation;
use fremont_journal::proto::{ProtoError, StoreBatchItem, WalStateReport};
use fremont_journal::records::{GatewayRecord, InterfaceId, InterfaceRecord, SubnetRecord};
use fremont_journal::snapshot::JournalSnapshot;
use fremont_journal::store::{JournalStats, ShardingMetrics, StoreSummary};
use fremont_journal::time::JTime;
use fremont_journal::{InterfaceQuery, JournalAccess, SubnetQuery};
use fremont_telemetry::{SpanId, TelTime};

use crate::harness::{micros, Tracer};

/// State shared by the clones the server hands to its workers.
pub struct ProbeState {
    tracer: Arc<Tracer>,
    /// Span of the client call that is waiting on a store (closed loop,
    /// one writer): the parent of the server-side store spans.
    pub store_parent: AtomicU64,
    /// Same for the reading connection.
    pub read_parent: AtomicU64,
    /// Microseconds per store call, in arrival order.
    pub store_us: Mutex<Vec<f64>>,
    /// Microseconds per read call, in arrival order.
    pub read_us: Mutex<Vec<f64>>,
    pub calls: AtomicU64,
    pub errors: AtomicU64,
    /// The backend's WAL state after the latest store of a traced phase
    /// (the driver's final flush compacts, so it must be read before).
    pub last_wal: Mutex<Option<WalStateReport>>,
    /// 1-based index of a store call to swallow (0 = none).
    drop_store: u64,
    stores_seen: AtomicU64,
}

#[derive(Clone)]
pub struct Probe<J> {
    inner: J,
    pub state: Arc<ProbeState>,
}

impl<J: JournalAccess> Probe<J> {
    pub fn new(inner: J, tracer: Arc<Tracer>, drop_store: u64) -> Self {
        Probe {
            inner,
            state: Arc::new(ProbeState {
                tracer,
                store_parent: AtomicU64::new(0),
                read_parent: AtomicU64::new(0),
                store_us: Mutex::new(Vec::new()),
                read_us: Mutex::new(Vec::new()),
                calls: AtomicU64::new(0),
                errors: AtomicU64::new(0),
                last_wal: Mutex::new(None),
                drop_store,
                stores_seen: AtomicU64::new(0),
            }),
        }
    }

    fn timed<R>(
        &self,
        op: &'static str,
        is_store: bool,
        f: impl FnOnce(&J) -> Result<R, ProtoError>,
    ) -> Result<R, ProtoError> {
        let st = &self.state;
        let parent = if is_store {
            &st.store_parent
        } else {
            &st.read_parent
        }
        .load(Ordering::SeqCst);
        let (res, took) = st
            .tracer
            .time("journal.server.apply", op, parent, |_| f(&self.inner));
        st.calls.fetch_add(1, Ordering::Relaxed);
        if res.is_err() {
            st.errors.fetch_add(1, Ordering::Relaxed);
        }
        let samples = if is_store { &st.store_us } else { &st.read_us };
        samples.lock().expect("probe samples").push(micros(took));
        if is_store && st.tracer.is_recording() {
            *st.last_wal.lock().expect("probe wal state") = self.inner.wal_state();
        }
        res
    }

    /// True when this store call is the one to swallow.
    fn swallow(&self) -> bool {
        let n = self.state.stores_seen.fetch_add(1, Ordering::SeqCst) + 1;
        n == self.state.drop_store
    }
}

impl<J: JournalAccess> JournalAccess for Probe<J> {
    fn store(&self, now: JTime, observations: &[Observation]) -> Result<StoreSummary, ProtoError> {
        if self.swallow() {
            return Ok(StoreSummary::default());
        }
        self.timed("store", true, |j| j.store(now, observations))
    }

    fn store_batch(&self, batches: &[StoreBatchItem]) -> Result<StoreSummary, ProtoError> {
        if self.swallow() {
            return Ok(StoreSummary::default());
        }
        self.timed("store_batch", true, |j| j.store_batch(batches))
    }

    fn store_batch_traced(
        &self,
        batches: &[StoreBatchItem],
        parent: SpanId,
        at: TelTime,
    ) -> Result<StoreSummary, ProtoError> {
        if self.swallow() {
            return Ok(StoreSummary::default());
        }
        self.timed("store_batch", true, |j| {
            j.store_batch_traced(batches, parent, at)
        })
    }

    fn interfaces(&self, q: &InterfaceQuery) -> Result<Vec<InterfaceRecord>, ProtoError> {
        self.timed("interfaces", false, |j| j.interfaces(q))
    }

    fn gateways(&self) -> Result<Vec<GatewayRecord>, ProtoError> {
        self.timed("gateways", false, |j| j.gateways())
    }

    fn subnets(&self, q: &SubnetQuery) -> Result<Vec<SubnetRecord>, ProtoError> {
        self.timed("subnets", false, |j| j.subnets(q))
    }

    fn delete(&self, id: InterfaceId) -> Result<bool, ProtoError> {
        self.inner.delete(id)
    }

    fn stats(&self) -> Result<JournalStats, ProtoError> {
        self.inner.stats()
    }

    fn capture_snapshot(&self) -> Result<JournalSnapshot, ProtoError> {
        self.inner.capture_snapshot()
    }

    fn flush(&self) -> Result<bool, ProtoError> {
        self.inner.flush()
    }

    fn sharding_metrics(&self) -> Option<ShardingMetrics> {
        self.inner.sharding_metrics()
    }

    fn batch_groups_total(&self) -> Option<u64> {
        self.inner.batch_groups_total()
    }

    fn wal_state(&self) -> Option<WalStateReport> {
        self.inner.wal_state()
    }
}
