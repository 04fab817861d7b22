//! The Journal Server wire protocol.
//!
//! "The Journal Server responds to three primary requests: Store/Update,
//! Get, and Delete. These requests are supported through a common library
//! of access and data transfer routines that the Explorer Modules,
//! Discovery Manager, and data analysis and presentation programs use."
//!
//! Store/Update is [`Request::StoreBatch`], the one write request: a
//! single store is a batch of one. Get is `GetInterfaces`,
//! `GetGateways` and `GetSubnets`; Delete is `Delete`.
//!
//! Frames are length-prefixed JSON: a 4-byte big-endian length followed by
//! the serialized request or response. JSON keeps snapshots and traffic
//! inspectable; the framing keeps the stream message-oriented.

use std::io::{self, Read, Write};

use serde::{Deserialize, Serialize};

use fremont_telemetry::TraceEvent;

use crate::observation::Observation;
use crate::query::{InterfaceQuery, SubnetQuery};
use crate::records::{GatewayRecord, InterfaceId, InterfaceRecord, SubnetRecord};
use crate::store::{JournalStats, ShardingMetrics, StoreSummary};
use crate::time::JTime;

/// Maximum accepted frame size (16 MiB) — a full campus journal fits with
/// room to spare (Table 2 of the paper estimates under 4 MB).
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Cross-process causal context, carried with every request frame.
///
/// A traced caller (the discovery driver) stamps each RPC with its
/// trace id, the caller-side span the RPC belongs to, and the
/// caller's clock; the server opens its spans against that clock so a
/// stitched trace is deterministic even though the server has no sim
/// clock of its own. The all-zero context means "untraced" and costs
/// the server nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TraceContext {
    /// Distributed trace id (0 = untraced).
    pub trace_id: u64,
    /// Caller-side span id this request is causally under.
    pub parent_span: u64,
    /// Caller's clock, in microseconds of simulated/journal time.
    pub at_micros: u64,
}

impl TraceContext {
    /// The untraced context.
    pub const NONE: TraceContext = TraceContext {
        trace_id: 0,
        parent_span: 0,
        at_micros: 0,
    };

    /// Whether the caller asked for server-side spans.
    pub fn is_traced(&self) -> bool {
        self.trace_id != 0
    }
}

/// What actually travels in a request frame: the request plus its
/// causal context.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestEnvelope {
    /// Causal context ([`TraceContext::NONE`] when untraced).
    pub ctx: TraceContext,
    /// The request proper.
    pub req: Request,
}

/// A request to the Journal Server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Get interface records matching a query.
    GetInterfaces(InterfaceQuery),
    /// Get all gateway records.
    GetGateways,
    /// Get subnet records matching a query.
    GetSubnets(SubnetQuery),
    /// Delete one interface record.
    Delete(InterfaceId),
    /// Fetch journal statistics.
    Stats,
    /// Ask the server to snapshot to its configured path.
    Flush,
    /// Store/Update, the only write request: several timestamped
    /// observation batches in one framed round trip (a single store is
    /// a batch of one). The server serializes and stamps updates; each
    /// batch's `now` is the exploration clock supplied by the driving
    /// deployment (simulation time here, wall-clock in a live system).
    /// The server applies the whole request as one group, so
    /// group-commit durability policies amortize to one fsync per frame
    /// instead of one per observation.
    StoreBatch {
        /// The batches, in submission order.
        batches: Vec<StoreBatchItem>,
    },
    /// Live introspection: a point-in-time self-description of the
    /// server (stats, shard activity, WAL state, metrics snapshot,
    /// trace tail, health verdict), served from existing stats paths
    /// with no extra locking.
    Introspect {
        /// How many of the most recent trace events to include.
        trace_tail: u64,
    },
}

/// One timestamped run of observations inside a [`Request::StoreBatch`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoreBatchItem {
    /// Exploration clock for this run.
    pub now: JTime,
    /// Observations to merge at that time.
    pub observations: Vec<Observation>,
}

/// A response from the Journal Server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Result of a StoreBatch.
    Stored(StoreSummary),
    /// Result of GetInterfaces.
    Interfaces(Vec<InterfaceRecord>),
    /// Result of GetGateways.
    Gateways(Vec<GatewayRecord>),
    /// Result of GetSubnets.
    Subnets(Vec<SubnetRecord>),
    /// Result of Delete: whether the record existed.
    Deleted(bool),
    /// Result of Stats.
    Stats(JournalStats),
    /// Result of Flush.
    Flushed,
    /// Result of Introspect.
    Introspection(Box<IntrospectReport>),
    /// The server could not satisfy the request.
    Error(String),
}

/// Write-ahead-log segment state, for durable backends.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WalStateReport {
    /// Sequence number of the first record in the current segment.
    pub segment_first_seq: u64,
    /// Next record sequence number to be assigned.
    pub next_seq: u64,
    /// Bytes written to the current segment so far.
    pub segment_bytes: u64,
    /// The writer's sync policy, rendered for humans.
    pub sync_policy: String,
}

/// The server's live self-description, answered to
/// [`Request::Introspect`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IntrospectReport {
    /// Journal record counts.
    pub stats: JournalStats,
    /// Per-shard store activity, when the backend exposes it.
    pub shards: Option<ShardingMetrics>,
    /// WAL segment state, when the backend is durable.
    pub wal: Option<WalStateReport>,
    /// Prometheus-style metrics snapshot (empty when the server runs
    /// without telemetry).
    pub metrics: String,
    /// The most recent server trace events, oldest-first.
    pub trace_tail: Vec<TraceEvent>,
    /// Events evicted from the server's trace ring so far.
    pub trace_dropped: u64,
    /// Deterministic health verdict: `ok`, `degraded: ...`, or
    /// `unknown` (no telemetry attached).
    pub health: String,
}

/// Errors from the protocol layer.
#[derive(Debug)]
pub enum ProtoError {
    /// Socket-level failure.
    Io(io::Error),
    /// The peer sent a frame that does not decode.
    Malformed(String),
    /// The peer announced a frame larger than [`MAX_FRAME`].
    Oversized(u64),
    /// The server answered with [`Response::Error`].
    Server(String),
    /// The backend does not implement the requested capability. A unit
    /// variant so capability probes (snapshot capture, flush) cost no
    /// allocation on the common unsupported path.
    Unsupported,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "journal protocol i/o error: {e}"),
            ProtoError::Malformed(m) => write!(f, "malformed journal frame: {m}"),
            ProtoError::Oversized(len) => {
                write!(f, "journal frame of {len} bytes exceeds limit {MAX_FRAME}")
            }
            ProtoError::Server(m) => write!(f, "journal server error: {m}"),
            ProtoError::Unsupported => {
                write!(f, "operation not supported by this journal backend")
            }
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e)
    }
}

/// Writes one length-prefixed JSON frame.
pub fn write_frame<W: Write, T: Serialize>(w: &mut W, value: &T) -> Result<(), ProtoError> {
    let body = serde_json::to_vec(value).map_err(|e| ProtoError::Malformed(e.to_string()))?;
    if body.len() as u64 > u64::from(MAX_FRAME) {
        return Err(ProtoError::Oversized(body.len() as u64));
    }
    w.write_all(&(body.len() as u32).to_be_bytes())?;
    w.write_all(&body)?;
    w.flush()?;
    Ok(())
}

/// Reads one length-prefixed JSON frame. Returns `Ok(None)` on clean EOF
/// at a frame boundary.
pub fn read_frame<R: Read, T: for<'de> Deserialize<'de>>(
    r: &mut R,
) -> Result<Option<T>, ProtoError> {
    Ok(read_frame_sized(r)?.map(|(value, _)| value))
}

/// [`read_frame`] that also returns the frame's size on the wire, prefix
/// included. The header check and the JSON decode are
/// [`decode_frame`]'s, so an oversized prefix is rejected before any
/// body byte is allocated for or read.
pub fn read_frame_sized<R: Read, T: for<'de> Deserialize<'de>>(
    r: &mut R,
) -> Result<Option<(T, usize)>, ProtoError> {
    let mut header = [0u8; 4];
    // Only zero bytes at a frame boundary is a clean close; a close
    // after 1–3 prefix bytes is a truncated frame like any other.
    match r.read_exact(&mut header[..1]) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    r.read_exact(&mut header[1..])?;
    if let Some(frame) = decode_frame(&header)? {
        return Ok(Some(frame));
    }
    let mut buf = vec![0u8; 4 + u32::from_be_bytes(header) as usize];
    buf[..4].copy_from_slice(&header);
    r.read_exact(&mut buf[4..])?;
    decode_frame(&buf)
}

/// Decodes one frame from the front of `buf` without performing any IO.
/// Returns `Ok(Some((value, consumed)))` when a complete frame is
/// present and `Ok(None)` when more bytes are needed. The oversized
/// check fires from the 4-byte header alone, before any body bytes
/// arrive, so a hostile length prefix never causes buffering.
pub fn decode_frame<T: for<'de> Deserialize<'de>>(
    buf: &[u8],
) -> Result<Option<(T, usize)>, ProtoError> {
    let Some(header) = buf.first_chunk::<4>() else {
        return Ok(None);
    };
    let len = u32::from_be_bytes(*header);
    if len > MAX_FRAME {
        return Err(ProtoError::Oversized(u64::from(len)));
    }
    let total = 4 + len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    let value =
        serde_json::from_slice(&buf[4..total]).map_err(|e| ProtoError::Malformed(e.to_string()))?;
    Ok(Some((value, total)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::Source;
    use std::io::Cursor;
    use std::net::Ipv4Addr;

    #[test]
    fn frame_roundtrip() {
        let req = Request::StoreBatch {
            batches: vec![StoreBatchItem {
                now: JTime(42),
                observations: vec![Observation::ip_alive(
                    Source::SeqPing,
                    Ipv4Addr::new(10, 0, 0, 1),
                )],
            }],
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &req).unwrap();
        let mut cur = Cursor::new(buf);
        let back: Request = read_frame(&mut cur).unwrap().unwrap();
        assert_eq!(back, req);
        // Clean EOF after the frame.
        let next: Option<Request> = read_frame(&mut cur).unwrap();
        assert!(next.is_none());
    }

    #[test]
    fn multiple_frames_in_sequence() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Request::Stats).unwrap();
        write_frame(&mut buf, &Request::GetGateways).unwrap();
        let mut cur = Cursor::new(buf);
        assert_eq!(
            read_frame::<_, Request>(&mut cur).unwrap().unwrap(),
            Request::Stats
        );
        assert_eq!(
            read_frame::<_, Request>(&mut cur).unwrap().unwrap(),
            Request::GetGateways
        );
    }

    #[test]
    fn decode_frame_is_incremental() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Request::Stats).unwrap();
        write_frame(&mut buf, &Request::GetGateways).unwrap();
        // Every strict prefix of one frame asks for more bytes.
        for cut in 0..8 {
            assert!(matches!(decode_frame::<Request>(&buf[..cut]), Ok(None)));
        }
        let (first, used) = decode_frame::<Request>(&buf).unwrap().unwrap();
        assert_eq!(first, Request::Stats);
        let (second, used2) = decode_frame::<Request>(&buf[used..]).unwrap().unwrap();
        assert_eq!(second, Request::GetGateways);
        assert_eq!(used + used2, buf.len());
        // Oversized headers are rejected without the body.
        let hostile = (MAX_FRAME + 1).to_be_bytes();
        assert!(matches!(
            decode_frame::<Request>(&hostile),
            Err(ProtoError::Oversized(_))
        ));
        // Complete frames with garbage bodies are malformed.
        let mut bad = 3u32.to_be_bytes().to_vec();
        bad.extend_from_slice(b"{{{");
        assert!(matches!(
            decode_frame::<Request>(&bad),
            Err(ProtoError::Malformed(_))
        ));
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME + 1).to_be_bytes());
        let mut cur = Cursor::new(buf);
        assert!(matches!(
            read_frame::<_, Request>(&mut cur),
            Err(ProtoError::Oversized(_))
        ));
    }

    #[test]
    fn truncated_body_is_io_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&100u32.to_be_bytes());
        buf.extend_from_slice(b"short");
        let mut cur = Cursor::new(buf);
        assert!(matches!(
            read_frame::<_, Request>(&mut cur),
            Err(ProtoError::Io(_))
        ));
        // So is a close inside the length prefix: only zero bytes at a
        // frame boundary is a clean close.
        for cut in 1..4 {
            let mut cur = Cursor::new(100u32.to_be_bytes()[..cut].to_vec());
            assert!(matches!(
                read_frame::<_, Request>(&mut cur),
                Err(ProtoError::Io(_))
            ));
        }
    }

    #[test]
    fn garbage_json_is_malformed() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&3u32.to_be_bytes());
        buf.extend_from_slice(b"{{{");
        let mut cur = Cursor::new(buf);
        assert!(matches!(
            read_frame::<_, Request>(&mut cur),
            Err(ProtoError::Malformed(_))
        ));
    }

    #[test]
    fn store_batch_roundtrip() {
        let req = Request::StoreBatch {
            batches: vec![
                StoreBatchItem {
                    now: JTime(7),
                    observations: vec![Observation::ip_alive(
                        Source::SeqPing,
                        Ipv4Addr::new(10, 0, 0, 1),
                    )],
                },
                StoreBatchItem {
                    now: JTime(9),
                    observations: vec![],
                },
            ],
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &req).unwrap();
        let back: Request = read_frame(&mut Cursor::new(buf)).unwrap().unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn envelope_roundtrip_preserves_context() {
        let env = RequestEnvelope {
            ctx: TraceContext {
                trace_id: 7,
                parent_span: 42,
                at_micros: 1_000_000,
            },
            req: Request::StoreBatch {
                batches: vec![StoreBatchItem {
                    now: JTime(1),
                    observations: vec![],
                }],
            },
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &env).unwrap();
        let back: RequestEnvelope = read_frame(&mut Cursor::new(buf)).unwrap().unwrap();
        assert_eq!(back, env);
        assert!(back.ctx.is_traced());
        assert!(!TraceContext::NONE.is_traced());
    }

    #[test]
    fn introspection_roundtrip() {
        let report = IntrospectReport {
            stats: JournalStats {
                interfaces: 3,
                gateways: 1,
                subnets: 2,
                observations_applied: 40,
            },
            shards: None,
            wal: Some(WalStateReport {
                segment_first_seq: 10,
                next_seq: 17,
                segment_bytes: 512,
                sync_policy: "EveryAppend".into(),
            }),
            metrics: "fremont_journal_rpc_total 4\n".into(),
            trace_tail: vec![],
            trace_dropped: 0,
            health: "ok".into(),
        };
        let resp = Response::Introspection(Box::new(report));
        let mut buf = Vec::new();
        write_frame(&mut buf, &resp).unwrap();
        let back: Response = read_frame(&mut Cursor::new(buf)).unwrap().unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn response_roundtrip() {
        let resp = Response::Stored(StoreSummary {
            created: 1,
            updated: 2,
            verified: 3,
        });
        let mut buf = Vec::new();
        write_frame(&mut buf, &resp).unwrap();
        let back: Response = read_frame(&mut Cursor::new(buf)).unwrap().unwrap();
        assert_eq!(back, resp);
    }
}
