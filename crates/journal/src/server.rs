//! The Journal Server and the common access library.
//!
//! "This Journal is managed by the Journal Server, which serializes
//! updates, time-stamps and records the data, and answers queries from
//! programs that wish to interrogate the Journal." Because all Fremont
//! modules "communicate via BSD sockets, there are no restrictions about
//! the physical location of individual modules" — so the same
//! [`JournalAccess`] trait is implemented both by an in-process handle and
//! by a TCP client ([`crate::client::RemoteJournal`]).
//!
//! # Connections
//!
//! One blocking thread per connection: the accept thread blocks in
//! `accept`, and each accepted socket gets a thread that runs *read
//! frame → respond → write reply* over a `BufReader` until the peer
//! closes at a frame boundary or an error ends the connection. So
//! requests queued on one socket are answered in arrival order (clients
//! may pipeline); a peer that stops reading its replies blocks its own
//! thread in `write_all`, one reply held and its further requests
//! waiting in the kernel's buffers; and a parked client is a thread
//! blocked in `read` — a stack and no CPU. DESIGN § 3 has the
//! measurements against the nonblocking pool this replaced and against
//! `poll(2)`. Oversized frames are rejected from the 4-byte header
//! alone, a close inside a frame is an io error, and every failed
//! connection increments its `ProtoError`-kind counter,
//! `fremont_journal_rpc_aborted_total`, and
//! `fremont_journal_connection_errors_total` exactly once.

use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use fremont_telemetry::{metrics, SpanId, TelTime, Telemetry};

use crate::observation::Observation;
use crate::proto::{
    read_frame_sized, write_frame, IntrospectReport, ProtoError, Request, RequestEnvelope,
    Response, StoreBatchItem, WalStateReport,
};
use crate::query::{InterfaceQuery, SubnetQuery};
use crate::records::{GatewayRecord, InterfaceId, InterfaceRecord, SubnetRecord};
use crate::snapshot::JournalSnapshot;
use crate::store::{Journal, JournalStats, ShardingMetrics, StoreSummary};
use crate::time::JTime;

/// Unified access to a Journal, local or remote.
///
/// [`JournalAccess::store_batch_traced`] is the one write a backend
/// implements; [`JournalAccess::store`] (a batch of one) and
/// [`JournalAccess::store_batch`] (no parent span) are provided on top
/// of it.
pub trait JournalAccess {
    /// Store/Update for several timestamped batches as one group (one
    /// lock acquisition, one WAL group commit, one RPC frame), causally
    /// attributed: `parent`/`at` locate the write under an open span of
    /// the backend's telemetry sink. Backends with span-aware write
    /// paths (the WAL-backed store, the TCP client) emit child spans
    /// under a real `parent`; [`SpanId::NONE`] asks for none.
    fn store_batch_traced(
        &self,
        batches: &[StoreBatchItem],
        parent: SpanId,
        at: TelTime,
    ) -> Result<StoreSummary, ProtoError>;
    /// Get interface records matching the query.
    fn interfaces(&self, q: &InterfaceQuery) -> Result<Vec<InterfaceRecord>, ProtoError>;
    /// Get all gateway records.
    fn gateways(&self) -> Result<Vec<GatewayRecord>, ProtoError>;
    /// Get subnet records matching the query.
    fn subnets(&self, q: &SubnetQuery) -> Result<Vec<SubnetRecord>, ProtoError>;
    /// Delete an interface record; `true` when it existed.
    fn delete(&self, id: InterfaceId) -> Result<bool, ProtoError>;
    /// Journal statistics.
    fn stats(&self) -> Result<JournalStats, ProtoError>;

    /// Store/Update: merge observations, stamped at `now` — a batch of one.
    fn store(&self, now: JTime, observations: &[Observation]) -> Result<StoreSummary, ProtoError> {
        self.store_batch(&[StoreBatchItem {
            now,
            observations: observations.to_vec(),
        }])
    }

    /// [`JournalAccess::store_batch_traced`] with no parent span.
    fn store_batch(&self, batches: &[StoreBatchItem]) -> Result<StoreSummary, ProtoError> {
        self.store_batch_traced(batches, SpanId::NONE, TelTime(0))
    }

    /// Captures a full snapshot image of the journal, for backends with
    /// direct access to one (used by Flush handling and shutdown).
    fn capture_snapshot(&self) -> Result<JournalSnapshot, ProtoError> {
        Err(ProtoError::Unsupported)
    }

    /// Asks the backend to persist itself durably. `Ok(false)` means
    /// the backend has no self-managed durability and the caller may
    /// fall back to [`JournalAccess::capture_snapshot`] + save.
    fn flush(&self) -> Result<bool, ProtoError> {
        Ok(false)
    }

    /// Lock and batch activity of the in-process store (one partition,
    /// reported as shard 0), for backends wrapping it. `None` for remote
    /// or opaque backends.
    fn sharding_metrics(&self) -> Option<ShardingMetrics> {
        None
    }

    /// Write-lock acquisitions made by the store's write transactions
    /// (one per transaction), for backends wrapping the in-process
    /// store; `None` for remote or opaque backends.
    /// Carried outside [`ShardingMetrics`] because that struct is a
    /// frozen wire type (`tests/golden/wire/response-Introspection.frames`).
    fn batch_groups_total(&self) -> Option<u64> {
        None
    }

    /// Write-ahead-log segment state, for durable backends.
    fn wal_state(&self) -> Option<WalStateReport> {
        None
    }
}

/// A shared in-process Journal handle.
///
/// This is the deployment used inside the simulator: the Journal lives in
/// the driving process and every module shares it through this handle.
/// The store locks internally, so this is just an [`Arc`]: queries run
/// concurrently under the store's read lock while write transactions
/// serialize on its write lock.
#[derive(Clone, Default)]
pub struct SharedJournal {
    inner: Arc<Journal>,
}

impl SharedJournal {
    /// Creates an empty shared journal.
    pub fn new() -> Self {
        SharedJournal {
            inner: Arc::new(Journal::new()),
        }
    }

    /// Wraps an existing journal.
    pub fn from_journal(j: Journal) -> Self {
        SharedJournal { inner: Arc::new(j) }
    }

    /// Runs a closure against the underlying journal. No lock is taken
    /// here: each [`Journal`] method the closure calls locks the store
    /// for its own duration.
    pub fn read<R>(&self, f: impl FnOnce(&Journal) -> R) -> R {
        f(&self.inner)
    }
}

impl JournalAccess for SharedJournal {
    fn store_batch_traced(
        &self,
        batches: &[StoreBatchItem],
        _parent: SpanId,
        _at: TelTime,
    ) -> Result<StoreSummary, ProtoError> {
        Ok(self.inner.apply_batch(
            batches
                .iter()
                .flat_map(|b| b.observations.iter().map(move |o| (o, b.now))),
        ))
    }

    fn interfaces(&self, q: &InterfaceQuery) -> Result<Vec<InterfaceRecord>, ProtoError> {
        Ok(self.inner.get_interfaces(q))
    }

    fn gateways(&self) -> Result<Vec<GatewayRecord>, ProtoError> {
        Ok(self.inner.get_gateways())
    }

    fn subnets(&self, q: &SubnetQuery) -> Result<Vec<SubnetRecord>, ProtoError> {
        Ok(self.inner.get_subnets(q))
    }

    fn delete(&self, id: InterfaceId) -> Result<bool, ProtoError> {
        Ok(self.inner.delete_interface(id))
    }

    fn stats(&self) -> Result<JournalStats, ProtoError> {
        Ok(self.inner.stats())
    }

    fn capture_snapshot(&self) -> Result<JournalSnapshot, ProtoError> {
        Ok(self.read(Journal::to_snapshot))
    }

    fn sharding_metrics(&self) -> Option<ShardingMetrics> {
        Some(self.inner.sharding_metrics())
    }

    fn batch_groups_total(&self) -> Option<u64> {
        Some(self.inner.batch_groups_total())
    }
}

/// The TCP Journal Server.
///
/// Serves the [`crate::proto`] protocol over any [`JournalAccess`]
/// backend (defaulting to the in-memory [`SharedJournal`];
/// `fremont-storage`'s `DurableJournal` plugs in the same way), one
/// blocking thread per connection (see the module docs). The journal
/// "maintains an in-memory representation ... which it writes to disk
/// periodically and at termination": backends that persist themselves
/// are flushed on `Flush` requests and at shutdown; for the rest a
/// snapshot path can be configured, written at those same points.
pub struct JournalServer<J: JournalAccess + Clone + Send + Sync + 'static = SharedJournal> {
    journal: J,
    addr: SocketAddr,
    snapshot_path: Option<PathBuf>,
    /// Raised before the connect that wakes the accept loop, so the
    /// loop knows that connection is the shutdown's and not a client's.
    stop: Arc<AtomicBool>,
    /// Returns the connections still live when joined; `None` once the
    /// server has been stopped.
    accept_thread: Option<JoinHandle<Vec<LiveConn>>>,
    telemetry: Telemetry,
}

/// A connection the accept thread still carries: a second handle on its
/// socket, to sever it at shutdown, and the thread serving it.
type LiveConn = (TcpStream, JoinHandle<()>);

impl<J: JournalAccess + Clone + Send + Sync + 'static> JournalServer<J> {
    /// Binds to `addr` (use port 0 for an ephemeral port) and starts
    /// serving in background threads.
    pub fn start(journal: J, addr: &str, snapshot_path: Option<PathBuf>) -> std::io::Result<Self> {
        Self::start_with_telemetry(journal, addr, snapshot_path, Telemetry::noop())
    }

    /// Like [`JournalServer::start`], with a telemetry handle: per-RPC
    /// request counts, framed byte totals, error counters by kind, and
    /// store-merge work histograms flow into the sink, and shutdown
    /// publishes final [`JournalStats`] gauges.
    pub fn start_with_telemetry(
        journal: J,
        addr: &str,
        snapshot_path: Option<PathBuf>,
        telemetry: Telemetry,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let s = stop.clone();
        let (j, snap, tel) = (journal.clone(), snapshot_path.clone(), telemetry.clone());
        let accept_thread = std::thread::spawn(move || {
            let mut live: Vec<LiveConn> = Vec::new();
            while let Ok((stream, _)) = listener.accept() {
                // `stop_inner` raises the flag and then connects once to
                // end this `accept`: that connection is nobody's client.
                if s.load(Ordering::SeqCst) {
                    break;
                }
                tel.counter_add(metrics::JOURNAL_CONNECTIONS_TOTAL, "", 1);
                live.retain(|(_, thread)| !thread.is_finished());
                let spawned = stream.try_clone().and_then(|handle| {
                    let (j, snap, tel) = (j.clone(), snap.clone(), tel.clone());
                    let thread = std::thread::Builder::new()
                        .spawn(move || serve_connection(stream, &j, snap.as_deref(), &tel))?;
                    Ok((handle, thread))
                });
                match spawned {
                    Ok(conn) => live.push(conn),
                    Err(_) => tel.counter_add(metrics::JOURNAL_CONNECTION_ERRORS_TOTAL, "", 1),
                }
            }
            live
        });
        Ok(JournalServer {
            journal,
            addr: local,
            snapshot_path,
            stop,
            accept_thread: Some(accept_thread),
            telemetry,
        })
    }

    /// The bound address (for clients).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop, severs live connections, and writes a
    /// final snapshot if configured.
    ///
    /// Severing is synchronous: when this returns, every connection the
    /// server ever accepted is closed, so a client holding one sees EOF
    /// on its next read — exactly as it would across a real server
    /// restart. Each connection parked at shutdown counts once into
    /// `fremont_journal_connections_severed_total`.
    pub fn shutdown(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        // `shutdown` runs this and then `Drop` runs it again; the second
        // call must not flush the backend and publish the gauges twice.
        let Some(accept_thread) = self.accept_thread.take() else {
            return;
        };
        // The accept thread is blocked in `accept`: raise the flag, then
        // make one throwaway connection for it to wake up on.
        self.stop.store(true, Ordering::SeqCst);
        drop(TcpStream::connect(self.addr));
        for (socket, thread) in accept_thread.join().unwrap_or_default() {
            if !thread.is_finished() {
                self.telemetry
                    .counter_add(metrics::JOURNAL_CONNECTIONS_SEVERED_TOTAL, "", 1);
                sever(&socket);
            }
            #[expect(
                clippy::let_underscore_must_use,
                reason = "a connection thread that panicked has nothing left to hand back; \
                          stopping the server goes on"
            )]
            let _ = thread.join();
        }
        // Termination persistence: self-managed backends flush
        // themselves; otherwise write the configured snapshot path.
        match self.journal.flush() {
            Ok(true) => {}
            _ => {
                if let Some(path) = &self.snapshot_path {
                    if let Ok(snap) = self.journal.capture_snapshot() {
                        if snap.save(path).is_err() {
                            self.telemetry.counter_add(
                                metrics::JOURNAL_SNAPSHOT_ERRORS_TOTAL,
                                "",
                                1,
                            );
                        }
                    }
                }
            }
        }
        // Final journal size gauges for the metrics dump.
        if self.telemetry.enabled() {
            publish_store_metrics(&self.telemetry, &self.journal);
        }
    }
}

impl<J: JournalAccess + Clone + Send + Sync + 'static> Drop for JournalServer<J> {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

/// Ends a connection through any handle on its socket, so the peer (and
/// a thread blocked reading or writing it) observes a closed connection.
fn sever(socket: &TcpStream) {
    #[expect(
        clippy::let_underscore_must_use,
        reason = "a socket the peer already closed is as severed as one shut down here"
    )]
    let _ = socket.shutdown(Shutdown::Both);
}

/// One connection's thread: serves it to its end, then does the final
/// accounting. A connection that dies inside a request/response
/// exchange is an aborted RPC: the caller cannot know the outcome.
fn serve_connection<J: JournalAccess>(
    stream: TcpStream,
    journal: &J,
    snapshot_path: Option<&Path>,
    telemetry: &Telemetry,
) {
    if let Err(e) = serve_until_close(&stream, journal, snapshot_path, telemetry) {
        telemetry.counter_add(metrics::JOURNAL_RPC_ERRORS_TOTAL, error_kind_label(&e), 1);
        telemetry.counter_add(metrics::JOURNAL_RPC_ABORTED_TOTAL, "", 1);
        telemetry.counter_add(metrics::JOURNAL_CONNECTION_ERRORS_TOTAL, "", 1);
    }
    // The accept thread keeps its handle on this socket until its next
    // prune, so dropping ours alone would leave the peer waiting.
    sever(&stream);
}

/// Reads, serves and answers one frame at a time until the peer closes
/// at a frame boundary (`Ok`). A reply the peer is not reading blocks
/// `write_all`, so its next request is not read until this one is out.
fn serve_until_close<J: JournalAccess>(
    mut stream: &TcpStream,
    journal: &J,
    snapshot_path: Option<&Path>,
    telemetry: &Telemetry,
) -> Result<(), ProtoError> {
    let mut reader = BufReader::new(stream);
    while let Some((envelope, wire)) = read_frame_sized::<_, RequestEnvelope>(&mut reader)? {
        let frame_bytes = wire as u64;
        telemetry.counter_add(metrics::JOURNAL_BYTES_READ_TOTAL, "", frame_bytes);
        let mut reply = Vec::new();
        respond(
            journal,
            snapshot_path,
            telemetry,
            envelope,
            frame_bytes,
            &mut reply,
        )?;
        stream.write_all(&reply)?;
        telemetry.counter_add(metrics::JOURNAL_BYTES_WRITTEN_TOTAL, "", reply.len() as u64);
    }
    Ok(())
}

/// Serves one decoded request: telemetry spans stamped with the caller's
/// clock, the request handler, and the reply frame appended to `out`.
fn respond<J: JournalAccess>(
    journal: &J,
    snapshot_path: Option<&Path>,
    telemetry: &Telemetry,
    envelope: RequestEnvelope,
    frame_bytes: u64,
    out: &mut Vec<u8>,
) -> Result<(), ProtoError> {
    let RequestEnvelope { ctx, req } = envelope;
    telemetry.counter_add(metrics::JOURNAL_RPC_TOTAL, rpc_label(&req), 1);
    // A traced frame gets a server-side span tree, stamped with the
    // *caller's* clock — the server has no sim clock, and using the
    // caller's keeps stitched traces deterministic. Untraced frames
    // (queries, probes) leave the server trace untouched.
    let at = TelTime(ctx.at_micros);
    let rpc_span = if ctx.is_traced() {
        telemetry.span_start_remote(
            "server.rpc",
            rpc_label(&req),
            SpanId::NONE,
            ctx.trace_id,
            ctx.parent_span,
            at,
        )
    } else {
        SpanId::NONE
    };
    if rpc_span.is_real() {
        let decode = telemetry.span_start("server.decode", "", rpc_span, at);
        telemetry.work(decode, "bytes", frame_bytes, at);
        telemetry.span_end(decode, &format!("bytes={frame_bytes}"), at);
    }
    let resp = handle_request(journal, snapshot_path, telemetry, req, rpc_span, at);
    if matches!(resp, Response::Error(_)) {
        telemetry.counter_add(metrics::JOURNAL_RPC_ERRORS_TOTAL, "kind=\"server\"", 1);
    }
    let mark = out.len();
    let wres = write_frame(out, &resp);
    if rpc_span.is_real() {
        let reply = telemetry.span_start("server.reply", "", rpc_span, at);
        telemetry.work(reply, "bytes", (out.len() - mark) as u64, at);
        let verdict = if wres.is_ok() { "ok" } else { "aborted" };
        telemetry.span_end(reply, verdict, at);
        telemetry.span_end(rpc_span, verdict, at);
    }
    wres
}

/// Publishes [`JournalStats`] as gauges (shared with the driver's
/// startup dump).
pub fn publish_journal_stats(telemetry: &Telemetry, stats: &JournalStats) {
    telemetry.gauge_set(metrics::JOURNAL_INTERFACES, "", stats.interfaces as u64);
    telemetry.gauge_set(metrics::JOURNAL_GATEWAYS, "", stats.gateways as u64);
    telemetry.gauge_set(metrics::JOURNAL_SUBNETS, "", stats.subnets as u64);
    telemetry.gauge_set(
        metrics::JOURNAL_OBSERVATIONS_APPLIED,
        "",
        stats.observations_applied,
    );
}

/// Publishes a journal's store metrics: its statistics, the store's
/// activity and its write-lock count (shared between server shutdown and
/// the driver's per-pump dump).
pub fn publish_store_metrics(telemetry: &Telemetry, journal: &impl JournalAccess) {
    if let Ok(stats) = journal.stats() {
        publish_journal_stats(telemetry, &stats);
    }
    if let Some(m) = journal.sharding_metrics() {
        publish_sharding_metrics(telemetry, &m);
    }
    if let Some(groups) = journal.batch_groups_total() {
        telemetry.counter_set(metrics::JOURNAL_SHARD_BATCH_GROUPS_TOTAL, "", groups);
    }
}

/// Publishes the store's activity: lock acquisitions and record count
/// (one `shard="0"` series each), query fan-out (always 0) and write
/// batch totals.
fn publish_sharding_metrics(telemetry: &Telemetry, m: &ShardingMetrics) {
    for s in &m.shards {
        let label = format!("shard=\"{}\"", s.shard);
        telemetry.counter_set(
            metrics::JOURNAL_SHARD_READ_LOCKS_TOTAL,
            &label,
            s.read_locks,
        );
        telemetry.counter_set(
            metrics::JOURNAL_SHARD_WRITE_LOCKS_TOTAL,
            &label,
            s.write_locks,
        );
        telemetry.gauge_set(metrics::JOURNAL_SHARD_RECORDS, &label, s.records as u64);
    }
    telemetry.counter_set(metrics::JOURNAL_STORE_BATCHES_TOTAL, "", m.batches);
    telemetry.counter_set(
        metrics::JOURNAL_STORE_BATCHED_OBSERVATIONS_TOTAL,
        "",
        m.batch_observations,
    );
    telemetry.gauge_set(metrics::JOURNAL_STORE_LARGEST_BATCH, "", m.largest_batch);
}

/// Builds the live self-description answered to
/// [`Request::Introspect`] — shared with `journal_server
/// --status-interval` self-reports. Reads only paths that already
/// exist for stats publication: journal stats, store counters, WAL
/// state, and the telemetry sink's own snapshot; no locks beyond
/// those are taken.
pub fn build_introspection<J: JournalAccess>(
    journal: &J,
    telemetry: &Telemetry,
    trace_tail: u64,
) -> IntrospectReport {
    let stats = journal.stats().unwrap_or_default();
    let shards = journal.sharding_metrics();
    let wal = journal.wal_state();
    let metrics = telemetry.exposition().unwrap_or_default();
    let (tail, trace_dropped) = telemetry
        .trace_tail(trace_tail as usize)
        .unwrap_or_default();
    let health = health_verdict(telemetry, trace_dropped);
    IntrospectReport {
        stats,
        shards,
        wal,
        metrics,
        trace_tail: tail,
        trace_dropped,
        health,
    }
}

/// Derives a deterministic health verdict from the telemetry sink's
/// counters: any error-class counter above zero degrades the verdict,
/// and the reasons are listed so the reader need not diff expositions.
fn health_verdict(telemetry: &Telemetry, trace_dropped: u64) -> String {
    let mut reasons = Vec::new();
    for counter in [
        metrics::JOURNAL_RPC_ERRORS_TOTAL,
        metrics::JOURNAL_RPC_ABORTED_TOTAL,
        metrics::JOURNAL_CONNECTION_ERRORS_TOTAL,
        metrics::JOURNAL_SNAPSHOT_ERRORS_TOTAL,
    ] {
        let Some(total) = telemetry.counter_sum(counter) else {
            return "unknown".to_owned();
        };
        if total > 0 {
            reasons.push(format!("{}={total}", counter.name()));
        }
    }
    if trace_dropped > 0 {
        reasons.push(format!("trace_dropped={trace_dropped}"));
    }
    if reasons.is_empty() {
        "ok".to_owned()
    } else {
        format!("degraded: {}", reasons.join(" "))
    }
}

fn rpc_label(req: &Request) -> &'static str {
    match req {
        Request::GetInterfaces(_) => "rpc=\"get_interfaces\"",
        Request::GetGateways => "rpc=\"get_gateways\"",
        Request::GetSubnets(_) => "rpc=\"get_subnets\"",
        Request::Delete(_) => "rpc=\"delete\"",
        Request::Stats => "rpc=\"stats\"",
        Request::Flush => "rpc=\"flush\"",
        Request::StoreBatch { .. } => "rpc=\"store_batch\"",
        Request::Introspect { .. } => "rpc=\"introspect\"",
    }
}

fn error_kind_label(e: &ProtoError) -> &'static str {
    match e {
        ProtoError::Io(_) => "kind=\"io\"",
        ProtoError::Malformed(_) => "kind=\"malformed\"",
        ProtoError::Oversized(_) => "kind=\"oversized\"",
        ProtoError::Server(_) => "kind=\"server\"",
        ProtoError::Unsupported => "kind=\"unsupported\"",
    }
}

fn handle_request<J: JournalAccess>(
    journal: &J,
    snapshot_path: Option<&std::path::Path>,
    telemetry: &Telemetry,
    req: Request,
    rpc_span: SpanId,
    at: TelTime,
) -> Response {
    match req {
        Request::StoreBatch { batches } => {
            let total: u64 = batches.iter().map(|b| b.observations.len() as u64).sum();
            // Merge cost in logical work units (observations offered /
            // records touched) — the deterministic stand-in for wall
            // latency, which the lint's clock ban rules out.
            telemetry.observe(metrics::JOURNAL_STORE_BATCH_OBSERVATIONS, "", total);
            let apply = if rpc_span.is_real() {
                telemetry.span_start("server.apply", "", rpc_span, at)
            } else {
                SpanId::NONE
            };
            match journal.store_batch_traced(&batches, apply, at) {
                Ok(s) => {
                    let merged = (s.created + s.updated + s.verified) as u64;
                    telemetry.observe(metrics::JOURNAL_STORE_MERGE_OPS, "", merged);
                    telemetry.work(apply, "observations", total, at);
                    telemetry.work(apply, "merge_ops", merged, at);
                    telemetry.span_end(apply, &format!("merged={merged}"), at);
                    Response::Stored(s)
                }
                Err(e) => {
                    telemetry.span_end(apply, "error", at);
                    Response::Error(e.to_string())
                }
            }
        }
        Request::Introspect { trace_tail } => {
            // Cap the tail so the reply stays well under MAX_FRAME.
            let capped = trace_tail.min(4096);
            Response::Introspection(Box::new(build_introspection(journal, telemetry, capped)))
        }
        Request::GetInterfaces(q) => match journal.interfaces(&q) {
            Ok(v) => Response::Interfaces(v),
            Err(e) => Response::Error(e.to_string()),
        },
        Request::GetGateways => match journal.gateways() {
            Ok(v) => Response::Gateways(v),
            Err(e) => Response::Error(e.to_string()),
        },
        Request::GetSubnets(q) => match journal.subnets(&q) {
            Ok(v) => Response::Subnets(v),
            Err(e) => Response::Error(e.to_string()),
        },
        Request::Delete(id) => match journal.delete(id) {
            Ok(b) => Response::Deleted(b),
            Err(e) => Response::Error(e.to_string()),
        },
        Request::Stats => match journal.stats() {
            Ok(s) => Response::Stats(s),
            Err(e) => Response::Error(e.to_string()),
        },
        Request::Flush => match journal.flush() {
            Ok(true) => Response::Flushed,
            Err(e) => Response::Error(e.to_string()),
            Ok(false) => match snapshot_path {
                Some(path) => match journal.capture_snapshot().map(|s| s.save(path)) {
                    Ok(Ok(())) => Response::Flushed,
                    Ok(Err(e)) => Response::Error(e.to_string()),
                    Err(e) => Response::Error(e.to_string()),
                },
                // In-memory with nowhere to write: nothing to persist.
                None => Response::Flushed,
            },
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::Source;
    use std::net::Ipv4Addr;

    #[test]
    fn health_verdict_reports_reasons() {
        assert_eq!(health_verdict(&Telemetry::noop(), 0), "unknown");
        let (tel, _rec) = Telemetry::recording();
        tel.counter_add(metrics::JOURNAL_RPC_TOTAL, "", 9);
        assert_eq!(health_verdict(&tel, 0), "ok");
        tel.counter_add(metrics::JOURNAL_RPC_ERRORS_TOTAL, "kind=\"io\"", 2);
        tel.counter_add(metrics::JOURNAL_RPC_ERRORS_TOTAL, "kind=\"server\"", 1);
        let v = health_verdict(&tel, 4);
        assert_eq!(
            v,
            "degraded: fremont_journal_rpc_errors_total=3 trace_dropped=4"
        );
    }

    #[test]
    fn introspection_over_shared_journal() {
        let (tel, _rec) = fremont_telemetry::Telemetry::recording();
        let j = SharedJournal::new();
        j.store(
            JTime(1),
            &[Observation::ip_alive(
                Source::SeqPing,
                Ipv4Addr::new(10, 0, 0, 9),
            )],
        )
        .unwrap();
        tel.event("warm", "", SpanId::NONE, TelTime(5));
        let report = build_introspection(&j, &tel, 16);
        assert_eq!(report.stats.interfaces, 1);
        assert!(report.shards.is_some());
        assert!(report.wal.is_none());
        assert_eq!(report.health, "ok");
        assert_eq!(report.trace_tail.len(), 1);
        assert!(report.metrics.contains("fremont_trace_dropped_total 0"));
        // Without telemetry the report degrades gracefully.
        let bare = build_introspection(&j, &Telemetry::noop(), 16);
        assert_eq!(bare.health, "unknown");
        assert!(bare.metrics.is_empty());
    }

    #[test]
    fn shared_journal_access() {
        let j = SharedJournal::new();
        let locks = |j: &SharedJournal| j.sharding_metrics().unwrap().shards[0];
        let before = locks(&j);
        let s = j
            .store(
                JTime(1),
                &[Observation::ip_alive(
                    Source::SeqPing,
                    Ipv4Addr::new(10, 0, 0, 1),
                )],
            )
            .unwrap();
        assert_eq!(s.created, 1);
        // One transaction: the write lock once, the read lock never
        // (the one read counted is the closing snapshot's own).
        let after = locks(&j);
        assert_eq!(after.write_locks, before.write_locks + 1);
        assert_eq!(after.read_locks, before.read_locks + 1);
        let recs = j.interfaces(&InterfaceQuery::all()).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(j.stats().unwrap().interfaces, 1);
        assert!(j.delete(recs[0].id).unwrap());
        assert_eq!(j.stats().unwrap().interfaces, 0);
        // Two write transactions (the store, the delete), each taking
        // the write lock once.
        assert_eq!(j.batch_groups_total(), Some(2));
    }
}
