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
//! # Connection event loop
//!
//! Connections are served by a small fixed pool of event-loop workers
//! (at most [`MAX_EVENTLOOP_WORKERS`]), not by a thread per connection:
//! an accepted socket is switched to nonblocking mode and handed to one
//! worker round-robin, which folds it into its readiness loop. Each
//! connection is a pair of byte buffers and a tiny state machine:
//!
//! * **write pump** — drain buffered reply bytes until the socket would
//!   block; a connection whose unsent backlog crosses
//!   [`WRITE_HIGH_WATER`] stops being *read* until the backlog drains
//!   (counted once per episode in
//!   `fremont_journal_eventloop_backpressure_total`);
//! * **read pump** — pull available bytes into the request buffer;
//! * **frame serve** — decode every complete length-prefixed frame
//!   ([`crate::proto::decode_frame`]), run it through the normal request
//!   handler, and append the reply frame to the write buffer. Several
//!   requests buffered on one socket are answered in arrival order, so
//!   clients may pipeline.
//!
//! A thousand idle clients therefore cost a thousand file descriptors
//! and two buffers each — not a thousand stacks. Error accounting is
//! unchanged from the threaded server: oversized frames are rejected
//! from the 4-byte header alone, truncation at mid-frame EOF is an io
//! error, and every failed connection increments its `ProtoError`-kind
//! counter, `fremont_journal_rpc_aborted_total`, and
//! `fremont_journal_connection_errors_total` exactly once.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

use fremont_telemetry::{bounds, SpanId, TelTime, Telemetry};

use crate::observation::Observation;
use crate::proto::{
    decode_frame, write_frame, IntrospectReport, ProtoError, Request, RequestEnvelope, Response,
    StoreBatchItem, WalStateReport,
};
use crate::query::{InterfaceQuery, SubnetQuery};
use crate::records::{GatewayRecord, InterfaceId, InterfaceRecord, SubnetRecord};
use crate::snapshot::JournalSnapshot;
use crate::store::{Journal, JournalStats, ShardingMetrics, StoreSummary};
use crate::time::JTime;

/// Upper bound on event-loop worker threads; the pool never exceeds the
/// machine's available parallelism.
pub const MAX_EVENTLOOP_WORKERS: usize = 4;

/// Unsent reply bytes above which a connection stops being read until
/// its backlog drains — the slow-reader backpressure threshold.
pub const WRITE_HIGH_WATER: usize = 4 * 1024 * 1024;

/// Socket read chunk size for the read pump.
const READ_CHUNK: usize = 64 * 1024;

/// Unified access to a Journal, local or remote.
pub trait JournalAccess {
    /// Store/Update: merge observations, stamped at `now`.
    fn store(&self, now: JTime, observations: &[Observation]) -> Result<StoreSummary, ProtoError>;
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

    /// Store/Update for several timestamped batches as one group. The
    /// default applies batch by batch; backends with a batched write path
    /// (one lock acquisition, one WAL group commit, one RPC frame)
    /// override it.
    fn store_batch(&self, batches: &[StoreBatchItem]) -> Result<StoreSummary, ProtoError> {
        let mut sum = StoreSummary::default();
        for b in batches {
            sum.absorb(self.store(b.now, &b.observations)?);
        }
        Ok(sum)
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
    /// frozen wire type (wal-schema golden).
    fn batch_groups_total(&self) -> Option<u64> {
        None
    }

    /// Like [`JournalAccess::store_batch`], causally attributed:
    /// `parent`/`at` locate the write under an open span of the
    /// backend's telemetry sink. The default ignores the attribution;
    /// backends with span-aware write paths (the WAL-backed store,
    /// the TCP client) override it to emit child spans.
    fn store_batch_traced(
        &self,
        batches: &[StoreBatchItem],
        parent: SpanId,
        at: TelTime,
    ) -> Result<StoreSummary, ProtoError> {
        let _ = (parent, at);
        self.store_batch(batches)
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

    /// Runs a closure with shared read access to the underlying journal.
    pub fn read<R>(&self, f: impl FnOnce(&Journal) -> R) -> R {
        f(&self.inner)
    }

    /// Runs a closure against the underlying journal for mutation through
    /// its write path (`apply`, `apply_batch`, `delete_interface`);
    /// mutations serialize on the store's internal lock.
    pub fn write<R>(&self, f: impl FnOnce(&Journal) -> R) -> R {
        f(&self.inner)
    }
}

impl JournalAccess for SharedJournal {
    fn store(&self, now: JTime, observations: &[Observation]) -> Result<StoreSummary, ProtoError> {
        Ok(self
            .inner
            .apply_batch(observations.iter().map(|o| (o, now))))
    }

    fn store_batch(&self, batches: &[StoreBatchItem]) -> Result<StoreSummary, ProtoError> {
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
        Ok(self.read(JournalSnapshot::capture))
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
/// `fremont-storage`'s `DurableJournal` plugs in the same way), using a
/// fixed pool of event-loop workers so concurrent connections cost file
/// descriptors rather than threads (see the module docs). The journal
/// "maintains an in-memory representation ... which it writes to disk
/// periodically and at termination": backends that persist themselves
/// are flushed on `Flush` requests and at shutdown; for the rest a
/// snapshot path can be configured, written at those same points.
pub struct JournalServer<J: JournalAccess + Clone + Send + Sync + 'static = SharedJournal> {
    journal: J,
    addr: SocketAddr,
    snapshot_path: Option<PathBuf>,
    /// Stops the accept loop.
    stop: Arc<AtomicBool>,
    /// Stops the event-loop workers; raised only after the accept
    /// thread is joined, so worker inboxes are complete when workers
    /// drain them one last time.
    workers_stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    telemetry: Telemetry,
}

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
        let workers_stop = Arc::new(AtomicBool::new(false));
        let pool = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(MAX_EVENTLOOP_WORKERS);
        telemetry.gauge_set("fremont_journal_eventloop_workers", "", pool as u64);
        let mut inboxes = Vec::with_capacity(pool);
        let mut workers = Vec::with_capacity(pool);
        for _ in 0..pool {
            let (tx, rx) = mpsc::channel::<TcpStream>();
            inboxes.push(tx);
            let j = journal.clone();
            let snap = snapshot_path.clone();
            let tel = telemetry.clone();
            let ws = workers_stop.clone();
            workers.push(std::thread::spawn(move || {
                run_worker(rx, j, snap, tel, ws);
            }));
        }
        let s = stop.clone();
        let tel = telemetry.clone();
        let accept_thread = std::thread::spawn(move || {
            // Poll for stop between accepts.
            listener
                .set_nonblocking(true)
                .expect("nonblocking accept loop");
            let mut next = 0usize;
            while !s.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        tel.counter_add("fremont_journal_connections_total", "", 1);
                        if stream.set_nonblocking(true).is_err() {
                            tel.counter_add("fremont_journal_connection_errors_total", "", 1);
                            continue;
                        }
                        if inboxes[next].send(stream).is_err() {
                            break;
                        }
                        next = (next + 1) % inboxes.len();
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(std::time::Duration::from_millis(5));
                    }
                    Err(_) => break,
                }
            }
        });
        Ok(JournalServer {
            journal,
            addr: local,
            snapshot_path,
            stop,
            workers_stop,
            accept_thread: Some(accept_thread),
            workers,
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
    /// `fremont_journal_eventloop_severed_total`.
    pub fn shutdown(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // The accept loop is joined, so worker inboxes are complete;
        // stopping the workers now severs every remaining connection
        // before the joins below return.
        self.workers_stop.store(true, Ordering::Relaxed);
        for w in self.workers.drain(..) {
            let _ = w.join();
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
                                "fremont_journal_snapshot_errors_total",
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
            if let Ok(stats) = self.journal.stats() {
                publish_journal_stats(&self.telemetry, &stats);
            }
            if let Some(m) = self.journal.sharding_metrics() {
                publish_sharding_metrics(&self.telemetry, &m);
            }
            if let Some(g) = self.journal.batch_groups_total() {
                self.telemetry
                    .counter_set("fremont_journal_shard_batch_groups_total", "", g);
            }
        }
    }
}

impl<J: JournalAccess + Clone + Send + Sync + 'static> Drop for JournalServer<J> {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

/// One event-loop worker: drains its inbox of freshly accepted sockets,
/// then gives every connection a readiness pass; sleeps briefly only
/// when a full sweep made no progress. On stop it severs whatever is
/// left parked.
fn run_worker<J: JournalAccess>(
    rx: mpsc::Receiver<TcpStream>,
    journal: J,
    snapshot_path: Option<PathBuf>,
    telemetry: Telemetry,
    stop: Arc<AtomicBool>,
) {
    let mut conns: Vec<Conn> = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        let mut progress = false;
        while let Ok(stream) = rx.try_recv() {
            conns.push(Conn::new(stream));
            progress = true;
        }
        let mut i = 0;
        while i < conns.len() {
            match conns[i].tick(&journal, snapshot_path.as_deref(), &telemetry) {
                Tick::Idle => i += 1,
                Tick::Progress => {
                    progress = true;
                    i += 1;
                }
                Tick::Closed(result) => {
                    progress = true;
                    let conn = conns.swap_remove(i);
                    conn.finish(result, &telemetry);
                }
            }
        }
        if !progress {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
    // Shutdown: the accept thread was joined before `stop` was raised,
    // so the inbox cannot grow any more — sever everything left.
    while let Ok(stream) = rx.try_recv() {
        conns.push(Conn::new(stream));
    }
    for conn in conns {
        telemetry.counter_add("fremont_journal_eventloop_severed_total", "", 1);
        conn.sever();
    }
}

/// Outcome of one readiness pass over a connection.
enum Tick {
    /// Nothing to do; the socket was quiet.
    Idle,
    /// Bytes moved or frames were served.
    Progress,
    /// The connection is finished — cleanly (`Ok`) or with the error
    /// that killed it.
    Closed(Result<(), ProtoError>),
}

/// Per-connection state machine: a nonblocking socket plus request and
/// reply byte buffers.
struct Conn {
    stream: TcpStream,
    /// Bytes received but not yet decoded into frames.
    read_buf: Vec<u8>,
    /// Reply bytes not yet accepted by the socket; `write_pos` marks the
    /// sent prefix.
    write_buf: Vec<u8>,
    write_pos: usize,
    read_total: u64,
    write_total: u64,
    published_r: u64,
    published_w: u64,
    /// Reads are suspended while the unsent backlog exceeds
    /// [`WRITE_HIGH_WATER`].
    paused: bool,
    /// The peer has closed its write side.
    eof: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            read_total: 0,
            write_total: 0,
            published_r: 0,
            published_w: 0,
            paused: false,
            eof: false,
        }
    }

    fn pending_write(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }

    /// One readiness pass; byte counters are published per pass so the
    /// totals stay fresh while the connection lives.
    fn tick<J: JournalAccess>(
        &mut self,
        journal: &J,
        snapshot_path: Option<&Path>,
        telemetry: &Telemetry,
    ) -> Tick {
        let before = (self.read_total, self.write_total);
        let res = self.pump(journal, snapshot_path, telemetry);
        self.publish_bytes(telemetry);
        match res {
            Err(e) => Tick::Closed(Err(e)),
            Ok(true) => Tick::Closed(Ok(())),
            Ok(false) if (self.read_total, self.write_total) != before => Tick::Progress,
            Ok(false) => Tick::Idle,
        }
    }

    /// Write pump, read pump, then serve every complete frame.
    /// `Ok(true)` means the peer closed cleanly at a frame boundary and
    /// every buffered reply byte is on the wire.
    fn pump<J: JournalAccess>(
        &mut self,
        journal: &J,
        snapshot_path: Option<&Path>,
        telemetry: &Telemetry,
    ) -> Result<bool, ProtoError> {
        self.pump_write()?;
        self.update_pressure(telemetry);
        if !self.paused && !self.eof {
            self.pump_read()?;
        }
        self.serve_frames(journal, snapshot_path, telemetry)?;
        self.pump_write()?;
        self.update_pressure(telemetry);
        if self.eof {
            if !self.read_buf.is_empty() {
                // The peer promised more frame bytes than it delivered —
                // the same truncation `read_frame` reports as Io.
                return Err(ProtoError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                )));
            }
            if self.pending_write() == 0 {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Drains buffered reply bytes until the socket would block.
    fn pump_write(&mut self) -> Result<(), ProtoError> {
        while self.write_pos < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.write_pos..]) {
                Ok(0) => {
                    return Err(ProtoError::Io(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "socket accepted no reply bytes",
                    )))
                }
                Ok(n) => {
                    self.write_pos += n;
                    self.write_total += n as u64;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
        if self.write_pos > 0 && self.write_pos == self.write_buf.len() {
            self.write_buf.clear();
            self.write_pos = 0;
        }
        Ok(())
    }

    /// Pulls available bytes until the socket would block, the peer
    /// closes, or the buffer already holds a maximum-size frame (the
    /// frames are served before the next pass reads more).
    fn pump_read(&mut self) -> Result<(), ProtoError> {
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.eof = true;
                    return Ok(());
                }
                Ok(n) => {
                    self.read_total += n as u64;
                    self.read_buf.extend_from_slice(&chunk[..n]);
                    if self.read_buf.len() > crate::proto::MAX_FRAME as usize + 4 {
                        return Ok(());
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Counts the transition into (and out of) slow-reader backpressure;
    /// each blocked episode increments the counter exactly once.
    fn update_pressure(&mut self, telemetry: &Telemetry) {
        if !self.paused && self.pending_write() > WRITE_HIGH_WATER {
            self.paused = true;
            telemetry.counter_add("fremont_journal_eventloop_backpressure_total", "", 1);
        } else if self.paused && self.pending_write() == 0 {
            self.paused = false;
        }
    }

    /// Decodes and serves every complete frame in the request buffer,
    /// appending reply frames to the write buffer in arrival order.
    fn serve_frames<J: JournalAccess>(
        &mut self,
        journal: &J,
        snapshot_path: Option<&Path>,
        telemetry: &Telemetry,
    ) -> Result<(), ProtoError> {
        let mut off = 0;
        let mut result = Ok(());
        loop {
            match decode_frame::<RequestEnvelope>(&self.read_buf[off..]) {
                Ok(Some((envelope, consumed))) => {
                    off += consumed;
                    if let Err(e) = respond(
                        journal,
                        snapshot_path,
                        telemetry,
                        envelope,
                        consumed as u64,
                        &mut self.write_buf,
                    ) {
                        result = Err(e);
                        break;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        self.read_buf.drain(..off);
        result
    }

    /// Publishes byte-total deltas accumulated since the last pass.
    fn publish_bytes(&mut self, telemetry: &Telemetry) {
        if self.read_total > self.published_r {
            telemetry.counter_add(
                "fremont_journal_bytes_read_total",
                "",
                self.read_total - self.published_r,
            );
            self.published_r = self.read_total;
        }
        if self.write_total > self.published_w {
            telemetry.counter_add(
                "fremont_journal_bytes_written_total",
                "",
                self.write_total - self.published_w,
            );
            self.published_w = self.write_total;
        }
    }

    /// Final accounting for a finished connection. A connection that
    /// dies inside a request/response exchange is an aborted RPC: the
    /// caller cannot know the outcome.
    fn finish(mut self, result: Result<(), ProtoError>, telemetry: &Telemetry) {
        self.publish_bytes(telemetry);
        if let Err(e) = &result {
            telemetry.counter_add("fremont_journal_rpc_errors_total", error_kind_label(e), 1);
            telemetry.counter_add("fremont_journal_rpc_aborted_total", "", 1);
            telemetry.counter_add("fremont_journal_connection_errors_total", "", 1);
        }
        // Dropping `self.stream` closes the socket.
    }

    /// Severs a connection parked at shutdown so the client observes
    /// the stop as a closed connection.
    fn sever(self) {
        // fremont-lint: allow(ignored-io) -- TcpStream::shutdown severs a socket, nothing flushes
        let _ = self.stream.shutdown(Shutdown::Both);
    }
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
    telemetry.counter_add("fremont_journal_rpc_total", rpc_label(&req), 1);
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
        telemetry.counter_add("fremont_journal_rpc_errors_total", "kind=\"server\"", 1);
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
    telemetry.gauge_set("fremont_journal_interfaces", "", stats.interfaces as u64);
    telemetry.gauge_set("fremont_journal_gateways", "", stats.gateways as u64);
    telemetry.gauge_set("fremont_journal_subnets", "", stats.subnets as u64);
    telemetry.gauge_set(
        "fremont_journal_observations_applied",
        "",
        stats.observations_applied,
    );
}

/// Publishes the store's activity: lock acquisitions and record count
/// (one `shard="0"` series each), query fan-out (always 0) and write
/// batch totals (shared between server shutdown and the driver's
/// per-pump dump).
pub fn publish_sharding_metrics(telemetry: &Telemetry, m: &ShardingMetrics) {
    for s in &m.shards {
        let label = format!("shard=\"{}\"", s.shard);
        telemetry.counter_set(
            "fremont_journal_shard_read_locks_total",
            &label,
            s.read_locks,
        );
        telemetry.counter_set(
            "fremont_journal_shard_write_locks_total",
            &label,
            s.write_locks,
        );
        telemetry.gauge_set("fremont_journal_shard_records", &label, s.records as u64);
    }
    telemetry.counter_set("fremont_journal_query_fanout_total", "", m.fanout_queries);
    telemetry.counter_set("fremont_journal_store_batches_total", "", m.batches);
    telemetry.counter_set(
        "fremont_journal_store_batched_observations_total",
        "",
        m.batch_observations,
    );
    telemetry.gauge_set("fremont_journal_store_largest_batch", "", m.largest_batch);
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
    let health = health_verdict(telemetry.enabled(), &metrics, trace_dropped);
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

/// Derives a deterministic health verdict from the metrics snapshot:
/// any error-class counter above zero degrades the verdict, and the
/// reasons are listed so the reader need not diff expositions.
fn health_verdict(telemetry_on: bool, metrics: &str, trace_dropped: u64) -> String {
    if !telemetry_on {
        return "unknown".to_owned();
    }
    let mut reasons = Vec::new();
    for name in [
        "fremont_journal_rpc_errors_total",
        "fremont_journal_rpc_aborted_total",
        "fremont_journal_connection_errors_total",
        "fremont_journal_snapshot_errors_total",
    ] {
        let total = sum_series(metrics, name);
        if total > 0 {
            reasons.push(format!("{name}={total}"));
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

/// Sums every series of `name` (any label set) in an exposition.
fn sum_series(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .filter_map(|line| {
            let rest = line.strip_prefix(name)?;
            if !(rest.starts_with(' ') || rest.starts_with('{')) {
                return None;
            }
            rest.rsplit(' ').next()?.parse::<u64>().ok()
        })
        .sum()
}

fn rpc_label(req: &Request) -> &'static str {
    match req {
        Request::Store { .. } => "rpc=\"store\"",
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
        Request::Store { now, observations } => {
            // Merge cost in logical work units (observations offered /
            // records touched) — the deterministic stand-in for wall
            // latency, which the lint's clock ban rules out.
            telemetry.observe(
                "fremont_journal_store_batch_observations",
                "",
                bounds::WORK_UNITS,
                observations.len() as u64,
            );
            let apply = if rpc_span.is_real() {
                telemetry.span_start("server.apply", "", rpc_span, at)
            } else {
                SpanId::NONE
            };
            match journal.store(now, &observations) {
                Ok(s) => {
                    let merged = (s.created + s.updated + s.verified) as u64;
                    telemetry.observe(
                        "fremont_journal_store_merge_ops",
                        "",
                        bounds::WORK_UNITS,
                        merged,
                    );
                    telemetry.work(apply, "observations", observations.len() as u64, at);
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
        Request::StoreBatch { batches } => {
            let total: u64 = batches.iter().map(|b| b.observations.len() as u64).sum();
            telemetry.observe(
                "fremont_journal_store_batch_observations",
                "",
                bounds::WORK_UNITS,
                total,
            );
            let apply = if rpc_span.is_real() {
                telemetry.span_start("server.apply", "", rpc_span, at)
            } else {
                SpanId::NONE
            };
            match journal.store_batch_traced(&batches, apply, at) {
                Ok(s) => {
                    let merged = (s.created + s.updated + s.verified) as u64;
                    telemetry.observe(
                        "fremont_journal_store_merge_ops",
                        "",
                        bounds::WORK_UNITS,
                        merged,
                    );
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
        assert_eq!(health_verdict(false, "", 0), "unknown");
        assert_eq!(
            health_verdict(true, "fremont_journal_rpc_total 9\n", 0),
            "ok"
        );
        let expo = "fremont_journal_rpc_errors_total{kind=\"io\"} 2\n\
                    fremont_journal_rpc_errors_total{kind=\"server\"} 1\n";
        let v = health_verdict(true, expo, 4);
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
