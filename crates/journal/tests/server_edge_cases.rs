//! Connection edge cases: slow readers, severed connections, and the
//! exactly-once accounting around both.
//!
//! The mid-frame-disconnect and oversized-header cases live in
//! `server_tcp.rs`; this file covers a client that queues far more
//! reply volume than it reads — its thread blocks in `write_all`, and
//! nobody else's does — and connections parked in their threads when
//! `shutdown()` fires.

use std::net::{Ipv4Addr, TcpStream};

use fremont_journal::client::RemoteJournal;
use fremont_journal::observation::{Observation, Source};
use fremont_journal::proto::{
    read_frame, write_frame, Request, RequestEnvelope, Response, TraceContext,
};
use fremont_journal::query::InterfaceQuery;
use fremont_journal::server::{JournalAccess, JournalServer, SharedJournal};
use fremont_journal::time::JTime;

/// Reply volume the slow reader queues before reading any of it — far
/// beyond anything the kernel socket buffers can absorb.
const QUEUED_REPLY_BYTES: usize = 24 * 1024 * 1024;

fn envelope(req: Request) -> RequestEnvelope {
    RequestEnvelope {
        ctx: TraceContext::NONE,
        req,
    }
}

/// A client that queues far more reply volume than it reads stalls its
/// own connection and no other: a second client is served while the
/// first's replies cannot all have been produced, and the first still
/// gets every reply in order once it drains.
#[test]
fn slow_reader_stalls_only_itself_and_loses_nothing() {
    let (telemetry, rec) = fremont_telemetry::Telemetry::recording();
    let shared = SharedJournal::new();
    // Enough records that one full query reply is a few hundred KiB.
    let observations: Vec<Observation> = (0..2000u32)
        .map(|i| {
            Observation::ip_alive(
                Source::SeqPing,
                Ipv4Addr::new(
                    10,
                    (i / 256) as u8 + 1,
                    (i / 16 % 16) as u8,
                    (i % 16) as u8 + 1,
                ),
            )
        })
        .collect();
    shared.store(JTime(1), &observations).unwrap();
    // Size one reply exactly, then queue `QUEUED_REPLY_BYTES` of them.
    let mut one_reply = Vec::new();
    write_frame(
        &mut one_reply,
        &Response::Interfaces(shared.interfaces(&InterfaceQuery::all()).unwrap()),
    )
    .unwrap();
    let rounds = QUEUED_REPLY_BYTES / one_reply.len() + 1;
    let server =
        JournalServer::start_with_telemetry(shared, "127.0.0.1:0", None, telemetry).unwrap();

    // Raw socket so the test controls exactly when replies are read.
    let stream = TcpStream::connect(server.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = std::io::BufReader::new(stream);
    for _ in 0..rounds {
        write_frame(
            &mut writer,
            &envelope(Request::GetInterfaces(InterfaceQuery::all())),
        )
        .unwrap();
    }

    // The server answers request k+1 only once reply k is wholly in the
    // kernel's hands, and the kernel cannot hold them all: whenever the
    // second client's round trip completes, the first is still stalled.
    let second = RemoteJournal::connect(&server.addr().to_string()).unwrap();
    assert_eq!(second.stats().unwrap().interfaces, 2000);
    assert!(
        rec.counter("fremont_journal_rpc_total", "rpc=\"get_interfaces\"") < rounds as u64,
        "the unread connection cannot have been served to the end"
    );

    // Drain: every reply arrives, in order, none truncated.
    for i in 0..rounds {
        match read_frame::<_, Response>(&mut reader).unwrap() {
            Some(Response::Interfaces(v)) => {
                assert_eq!(v.len(), 2000, "reply {i} must carry the full journal")
            }
            other => panic!("reply {i}: expected Interfaces, got {other:?}"),
        }
    }
    assert_eq!(rec.counter("fremont_journal_rpc_aborted_total", ""), 0);
    server.shutdown();
}

/// `shutdown()` severs connections parked in their threads: each one
/// counts once into the severed counter, and the close is synchronous —
/// by the time `shutdown()` returns, every socket reads EOF.
#[test]
fn shutdown_severs_parked_connections_exactly_once() {
    let (telemetry, rec) = fremont_telemetry::Telemetry::recording();
    let server =
        JournalServer::start_with_telemetry(SharedJournal::new(), "127.0.0.1:0", None, telemetry)
            .unwrap();

    const PARKED: usize = 5;
    let mut conns = Vec::new();
    for _ in 0..PARKED {
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = std::io::BufReader::new(stream);
        // One served round trip proves the connection's thread is
        // running before it parks.
        write_frame(&mut writer, &envelope(Request::Stats)).unwrap();
        match read_frame::<_, Response>(&mut reader).unwrap() {
            Some(Response::Stats(_)) => {}
            other => panic!("expected Stats, got {other:?}"),
        }
        conns.push(reader);
    }

    server.shutdown();
    assert_eq!(
        rec.counter("fremont_journal_connections_severed_total", ""),
        PARKED as u64,
        "each parked connection is severed exactly once"
    );
    // Severing already happened — a blocking read must observe EOF
    // immediately, not hang waiting for a reply that cannot come.
    for mut reader in conns {
        match read_frame::<_, Response>(&mut reader) {
            Ok(None) | Err(_) => {}
            Ok(Some(r)) => panic!("severed connection produced a reply: {r:?}"),
        }
    }
    // Parked connections were idle, not mid-request: severing them is
    // not an RPC abort.
    assert_eq!(rec.counter("fremont_journal_rpc_aborted_total", ""), 0);
}
