//! Integration test: the Journal Server over real TCP sockets.

use std::net::Ipv4Addr;

use fremont_journal::client::RemoteJournal;
use fremont_journal::observation::{Fact, Observation, Source};
use fremont_journal::proto::{Request, Response};
use fremont_journal::query::{InterfaceQuery, SubnetQuery};
use fremont_journal::server::{JournalAccess, JournalServer, SharedJournal};
use fremont_journal::time::JTime;

#[test]
fn store_get_delete_over_tcp() {
    let shared = SharedJournal::new();
    let server = JournalServer::start(shared.clone(), "127.0.0.1:0", None).unwrap();
    let client = RemoteJournal::connect(&server.addr().to_string()).unwrap();

    // Store.
    let summary = client
        .store(
            JTime(10),
            &[
                Observation::arp_pair(
                    Source::ArpWatch,
                    Ipv4Addr::new(10, 0, 0, 1),
                    "08:00:20:00:00:01".parse().unwrap(),
                ),
                Observation::ip_alive(Source::SeqPing, Ipv4Addr::new(10, 0, 0, 2)),
                Observation::subnet(Source::RipWatch, "10.0.0.0/24".parse().unwrap(), true),
            ],
        )
        .unwrap();
    assert_eq!(summary.created, 3);

    // Get.
    let ifaces = client.interfaces(&InterfaceQuery::all()).unwrap();
    assert_eq!(ifaces.len(), 2);
    let by_ip = client
        .interfaces(&InterfaceQuery::by_ip(Ipv4Addr::new(10, 0, 0, 1)))
        .unwrap();
    assert_eq!(by_ip.len(), 1);
    assert_eq!(by_ip[0].verified, JTime(10));
    let subnets = client.subnets(&SubnetQuery::all()).unwrap();
    assert_eq!(subnets.len(), 1);

    // The in-process view and the remote view agree.
    assert_eq!(shared.stats().unwrap().interfaces, 2);

    // Delete.
    assert!(client.delete(by_ip[0].id).unwrap());
    assert!(!client.delete(by_ip[0].id).unwrap());
    assert_eq!(client.stats().unwrap().interfaces, 1);

    server.shutdown();
}

#[test]
fn multiple_clients_share_one_journal() {
    let shared = SharedJournal::new();
    let server = JournalServer::start(shared, "127.0.0.1:0", None).unwrap();
    let addr = server.addr().to_string();

    // Two "explorer modules" on separate connections, plus a reader.
    let a = RemoteJournal::connect(&addr).unwrap();
    let b = RemoteJournal::connect(&addr).unwrap();
    a.store(
        JTime(1),
        &[Observation::ip_alive(
            Source::SeqPing,
            Ipv4Addr::new(10, 1, 0, 1),
        )],
    )
    .unwrap();
    b.store(
        JTime(2),
        &[Observation::arp_pair(
            Source::ArpWatch,
            Ipv4Addr::new(10, 1, 0, 1),
            "08:00:20:aa:00:01".parse().unwrap(),
        )],
    )
    .unwrap();

    let reader = RemoteJournal::connect(&addr).unwrap();
    let recs = reader.interfaces(&InterfaceQuery::all()).unwrap();
    assert_eq!(
        recs.len(),
        1,
        "cross-module correlation through one journal"
    );
    let r = &recs[0];
    assert!(r.sources.contains(Source::SeqPing));
    assert!(r.sources.contains(Source::ArpWatch));
    assert_eq!(r.discovered, JTime(1));
    assert_eq!(r.verified, JTime(2));

    server.shutdown();
}

#[test]
fn gateway_observations_over_tcp() {
    let server = JournalServer::start(SharedJournal::new(), "127.0.0.1:0", None).unwrap();
    let client = RemoteJournal::connect(&server.addr().to_string()).unwrap();
    client
        .store(
            JTime(5),
            &[Observation::new(
                Source::Traceroute,
                Fact::Gateway {
                    interface_ips: vec![Ipv4Addr::new(128, 138, 238, 1)],
                    interface_names: vec![],
                    subnets: vec![
                        "128.138.238.0/24".parse().unwrap(),
                        "128.138.240.0/24".parse().unwrap(),
                    ],
                },
            )],
        )
        .unwrap();
    let gws = client.gateways().unwrap();
    assert_eq!(gws.len(), 1);
    assert_eq!(gws[0].subnets.len(), 2);
    let with_gw = client
        .subnets(&SubnetQuery {
            has_gateway: Some(true),
            ..Default::default()
        })
        .unwrap();
    assert_eq!(with_gw.len(), 2);
    server.shutdown();
}

#[test]
fn snapshot_on_shutdown() {
    let dir = std::env::temp_dir().join("fremont-server-snap-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("journal.json");
    std::fs::remove_file(&path).ok();

    let server =
        JournalServer::start(SharedJournal::new(), "127.0.0.1:0", Some(path.clone())).unwrap();
    let client = RemoteJournal::connect(&server.addr().to_string()).unwrap();
    client
        .store(
            JTime(1),
            &[Observation::ip_alive(
                Source::SeqPing,
                Ipv4Addr::new(10, 9, 9, 9),
            )],
        )
        .unwrap();
    // Explicit flush writes too.
    client.flush().unwrap();
    assert!(path.exists());
    server.shutdown();

    let snap = fremont_journal::snapshot::JournalSnapshot::load(&path).unwrap();
    assert_eq!(snap.interfaces.len(), 1);
    std::fs::remove_file(&path).ok();
}

#[test]
fn flush_without_a_snapshot_path_has_nothing_to_persist() {
    let server = JournalServer::start(SharedJournal::new(), "127.0.0.1:0", None).unwrap();
    let client = RemoteJournal::connect(&server.addr().to_string()).unwrap();
    client
        .store(
            JTime(1),
            &[Observation::ip_alive(
                Source::SeqPing,
                Ipv4Addr::new(10, 9, 9, 8),
            )],
        )
        .unwrap();
    client
        .flush()
        .expect("an in-memory server flushes trivially");
    server.shutdown();

    // A configured path that cannot be written is still an error.
    let unwritable = std::env::temp_dir()
        .join("fremont-server-no-such-dir")
        .join("journal.json");
    let server =
        JournalServer::start(SharedJournal::new(), "127.0.0.1:0", Some(unwritable)).unwrap();
    let client = RemoteJournal::connect(&server.addr().to_string()).unwrap();
    assert!(client.flush().is_err(), "a failed save must not be Flushed");
    server.shutdown();
}

// ---------------------------------------------------------------------
// Error-path behaviour: a hostile or broken client must not take the
// server down, and each failure mode must land in its own error counter.

/// Polls a telemetry counter until it reaches `want` (worker threads
/// update counters slightly after the client observes the disconnect).
fn wait_for_counter(rec: &fremont_telemetry::Recorder, name: &str, label: &str, want: u64) -> u64 {
    for _ in 0..200 {
        let got = rec.counter(name, label);
        if got >= want {
            return got;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    rec.counter(name, label)
}

/// After the bad connection, a fresh client must still get service.
fn assert_server_alive(addr: &str) {
    let client = RemoteJournal::connect(addr).unwrap();
    let summary = client
        .store(
            JTime(2),
            &[Observation::ip_alive(
                Source::SeqPing,
                Ipv4Addr::new(10, 1, 2, 3),
            )],
        )
        .unwrap();
    assert_eq!(summary.created, 1);
}

#[test]
fn malformed_frame_counts_and_server_survives() {
    use std::io::Write;
    let (telemetry, rec) = fremont_telemetry::Telemetry::recording();
    let server =
        JournalServer::start_with_telemetry(SharedJournal::new(), "127.0.0.1:0", None, telemetry)
            .unwrap();
    let addr = server.addr().to_string();

    let mut raw = std::net::TcpStream::connect(&addr).unwrap();
    let garbage = b"this is not json";
    raw.write_all(&(garbage.len() as u32).to_be_bytes())
        .unwrap();
    raw.write_all(garbage).unwrap();
    raw.flush().unwrap();
    drop(raw);

    let errs = wait_for_counter(
        &rec,
        "fremont_journal_rpc_errors_total",
        "kind=\"malformed\"",
        1,
    );
    assert_eq!(errs, 1, "malformed frame must hit the malformed counter");
    assert_server_alive(&addr);
    server.shutdown();
    assert!(rec.counter("fremont_journal_connections_total", "") >= 2);
}

#[test]
fn oversized_frame_counts_and_server_survives() {
    use std::io::Write;
    let (telemetry, rec) = fremont_telemetry::Telemetry::recording();
    let server =
        JournalServer::start_with_telemetry(SharedJournal::new(), "127.0.0.1:0", None, telemetry)
            .unwrap();
    let addr = server.addr().to_string();

    let mut raw = std::net::TcpStream::connect(&addr).unwrap();
    // A length header far past MAX_FRAME; the server must reject it from
    // the header alone, without trying to buffer 2 GiB.
    raw.write_all(&0x7fff_ffffu32.to_be_bytes()).unwrap();
    raw.flush().unwrap();

    let errs = wait_for_counter(
        &rec,
        "fremont_journal_rpc_errors_total",
        "kind=\"oversized\"",
        1,
    );
    assert_eq!(errs, 1, "oversized frame must hit the oversized counter");
    assert_server_alive(&addr);
    server.shutdown();
}

#[test]
fn mid_request_disconnect_counts_and_server_survives() {
    use std::io::Write;
    let (telemetry, rec) = fremont_telemetry::Telemetry::recording();
    let server =
        JournalServer::start_with_telemetry(SharedJournal::new(), "127.0.0.1:0", None, telemetry)
            .unwrap();
    let addr = server.addr().to_string();

    let mut raw = std::net::TcpStream::connect(&addr).unwrap();
    // Promise a 1000-byte frame, deliver only 3 bytes, then vanish.
    raw.write_all(&1000u32.to_be_bytes()).unwrap();
    raw.write_all(b"abc").unwrap();
    raw.flush().unwrap();
    drop(raw);

    let errs = wait_for_counter(&rec, "fremont_journal_rpc_errors_total", "kind=\"io\"", 1);
    assert_eq!(errs, 1, "truncated frame must hit the io counter");

    // Vanishing inside the length prefix is the same truncation, not a
    // clean close at a frame boundary.
    let mut raw = std::net::TcpStream::connect(&addr).unwrap();
    raw.write_all(&1000u32.to_be_bytes()[..2]).unwrap();
    drop(raw);
    let errs = wait_for_counter(&rec, "fremont_journal_rpc_errors_total", "kind=\"io\"", 2);
    assert_eq!(errs, 2, "a 2-byte prefix must hit the io counter");
    assert_eq!(
        wait_for_counter(&rec, "fremont_journal_rpc_aborted_total", "", 2),
        2
    );
    assert_server_alive(&addr);
    server.shutdown();
}

/// Two requests queued on one socket come back as two replies in
/// request order — the framing contract that makes client pipelining
/// legal against the server.
#[test]
fn pipelined_requests_get_in_order_replies() {
    let server = JournalServer::start(SharedJournal::new(), "127.0.0.1:0", None).unwrap();
    let client = RemoteJournal::connect(&server.addr().to_string()).unwrap();

    let ip = Ipv4Addr::new(10, 200, 0, 1);
    let replies = client
        .pipeline(&[
            Request::Store {
                now: JTime(3),
                observations: vec![Observation::ip_alive(Source::SeqPing, ip)],
            },
            Request::GetInterfaces(InterfaceQuery::by_ip(ip)),
            Request::Stats,
        ])
        .unwrap();

    // The replies land in request order: the second sees the record the
    // first created, which only in-order execution can produce.
    assert_eq!(replies.len(), 3);
    match &replies[0] {
        Response::Stored(s) => assert_eq!(s.created, 1),
        other => panic!("slot 0: expected Stored, got {other:?}"),
    }
    match &replies[1] {
        Response::Interfaces(v) => {
            assert_eq!(v.len(), 1);
            assert_eq!(v[0].ip.as_ref().map(|t| *t.get()), Some(ip));
        }
        other => panic!("slot 1: expected Interfaces, got {other:?}"),
    }
    match &replies[2] {
        Response::Stats(s) => assert_eq!(s.interfaces, 1),
        other => panic!("slot 2: expected Stats, got {other:?}"),
    }
    server.shutdown();
}

/// An inverted `ip_range` (`lo > hi`) from the wire is an empty answer,
/// not a panic that kills the connection's thread: the same connection
/// goes on to answer `Stats`. A read timeout turns a dead connection
/// into a failure rather than a hang.
#[test]
fn inverted_ip_range_answers_empty_and_the_connection_lives() {
    use fremont_journal::proto::{read_frame, write_frame, RequestEnvelope, TraceContext};
    let shared = SharedJournal::new();
    let alive = Observation::ip_alive(Source::SeqPing, Ipv4Addr::new(10, 0, 0, 5));
    shared.store(JTime(1), &[alive]).unwrap();
    let server = JournalServer::start(shared, "127.0.0.1:0", None).unwrap();
    let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
    raw.set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();

    let inverted = InterfaceQuery {
        ip_range: Some((Ipv4Addr::new(10, 0, 0, 9), Ipv4Addr::new(10, 0, 0, 1))),
        ..Default::default()
    };
    let mut ask = |req| -> Response {
        let envelope = RequestEnvelope {
            ctx: TraceContext::NONE,
            req,
        };
        write_frame(&mut raw, &envelope).unwrap();
        read_frame(&mut raw)
            .expect("the connection answers")
            .expect("a reply, not a close")
    };
    match ask(Request::GetInterfaces(inverted)) {
        Response::Interfaces(v) => assert!(v.is_empty(), "inverted range matched {v:?}"),
        other => panic!("expected Interfaces([]), got {other:?}"),
    }
    match ask(Request::Stats) {
        Response::Stats(s) => assert_eq!(s.interfaces, 1),
        other => panic!("expected Stats, got {other:?}"),
    }
    server.shutdown();
}
