//! Integration test: the client's reconnect-and-retry behaviour for
//! idempotent query RPCs when the Journal Server restarts between calls,
//! and when the connection dies mid-RPC rather than between clean calls.
//!
//! These tests are deliberately loop-agnostic: they rely only on the
//! server's documented contract that `shutdown()` severs every live
//! connection before returning, never on how connections are torn down
//! or how quickly a serving thread notices the stop.

// Test code: a server that never comes back is a failed test.
#![allow(clippy::panic)]

use std::io::Read;
use std::net::{Ipv4Addr, TcpListener};

use fremont_journal::client::RemoteJournal;
use fremont_journal::observation::{Observation, Source};
use fremont_journal::proto::ProtoError;
use fremont_journal::server::{JournalAccess, JournalServer, SharedJournal};
use fremont_journal::time::JTime;

/// Binds a fresh server to the address a previous one just vacated.
/// The old accepted sockets may briefly linger in TIME_WAIT, so retry.
fn restart_at(shared: &SharedJournal, addr: &str) -> JournalServer {
    for _ in 0..100 {
        match JournalServer::start(shared.clone(), addr, None) {
            Ok(s) => return s,
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(20)),
        }
    }
    panic!("could not rebind journal server at {addr}");
}

#[test]
fn queries_survive_a_server_restart_but_mutations_do_not_retry() {
    let shared = SharedJournal::new();
    let first = JournalServer::start(shared.clone(), "127.0.0.1:0", None).unwrap();
    let addr = first.addr().to_string();
    let client = RemoteJournal::connect(&addr).unwrap();

    client
        .store(
            JTime(1),
            &[Observation::ip_alive(
                Source::SeqPing,
                Ipv4Addr::new(10, 3, 0, 1),
            )],
        )
        .unwrap();
    assert_eq!(client.stats().unwrap().interfaces, 1);

    // Restart the server behind the client's back. `shutdown()` severs
    // live connections synchronously — when it returns, the client's
    // socket is already closed — so nothing below depends on how the
    // server dismantles its connections (per-connection threads once,
    // event-loop workers now) or on any teardown timing.
    first.shutdown();

    // Between servers, an idempotent query attempts its one reconnect,
    // which is refused: the error surfaces instead of retrying forever.
    let err = client.stats().unwrap_err();
    assert!(matches!(err, ProtoError::Io(_)), "got {err}");

    let second = restart_at(&shared, &addr);

    // A mutating RPC on the dead connection fails with an IO error and
    // is NOT retried — even though a healthy server is listening (a
    // lost response leaves it unknown whether the store was applied).
    let before = shared.stats().unwrap().observations_applied;
    let err = client
        .store(
            JTime(2),
            &[Observation::ip_alive(
                Source::SeqPing,
                Ipv4Addr::new(10, 3, 0, 2),
            )],
        )
        .unwrap_err();
    assert!(matches!(err, ProtoError::Io(_)), "got {err}");
    assert_eq!(
        shared.stats().unwrap().observations_applied,
        before,
        "a failed mutation must not be silently replayed"
    );

    // An idempotent query on the same client reconnects and succeeds.
    let stats = client.stats().unwrap();
    assert_eq!(stats.interfaces, 1);

    // The refreshed connection serves mutations again.
    client
        .store(
            JTime(3),
            &[Observation::ip_alive(
                Source::SeqPing,
                Ipv4Addr::new(10, 3, 0, 3),
            )],
        )
        .unwrap();
    assert_eq!(client.stats().unwrap().interfaces, 2);

    second.shutdown();
}

/// The harsher fault: the connection dies *mid-RPC* — after the request
/// leaves the client, before any reply arrives. This is what a crashed
/// server process (or a fault-injected node kill) looks like on the
/// wire, as opposed to the clean shutdown above where the connection is
/// already dead before the client writes. The store must fail without
/// being applied or replayed, and the same client must recover once a
/// real server takes over the address.
#[test]
fn a_mid_rpc_kill_fails_the_mutation_and_the_client_recovers() {
    // A bare listener plays the doomed server: it accepts the client,
    // reads the first byte of the request so the RPC is provably in
    // flight, then drops the socket without ever answering.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let killer = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().unwrap();
        let mut first_byte = [0u8; 1];
        sock.read_exact(&mut first_byte).unwrap();
        // Dropping `sock` and `listener` here kills the connection with
        // the request half-read and frees the port for the real server.
    });

    let client = RemoteJournal::connect(&addr).unwrap();
    let err = client
        .store(
            JTime(1),
            &[Observation::ip_alive(
                Source::SeqPing,
                Ipv4Addr::new(10, 3, 1, 1),
            )],
        )
        .unwrap_err();
    assert!(matches!(err, ProtoError::Io(_)), "got {err}");
    killer.join().unwrap();

    // A real server takes over the same address with an empty journal.
    let shared = SharedJournal::new();
    let server = restart_at(&shared, &addr);

    // The killed mutation was never applied anywhere and must not be
    // silently replayed by the reconnect path.
    let stats = client.stats().unwrap();
    assert_eq!(stats.interfaces, 0, "killed store must not be replayed");
    assert_eq!(shared.stats().unwrap().observations_applied, 0);

    // The same client object is fully usable after the mid-RPC death.
    client
        .store(
            JTime(2),
            &[Observation::ip_alive(
                Source::SeqPing,
                Ipv4Addr::new(10, 3, 1, 2),
            )],
        )
        .unwrap();
    assert_eq!(client.stats().unwrap().interfaces, 1);

    server.shutdown();
}
