//! Swarm test: a thousand concurrent `RemoteJournal` clients against one
//! Journal Server.
//!
//! Every client holds its connection open for the whole test, so the
//! server is carrying ~1k live sockets at once — far past the handful
//! of processes the paper connects. The assertions pin down the three
//! contracts that matter at that scale: every request completes, no
//! observation is lost, and a thousand parked connections cost stacks
//! but no CPU (each is a thread blocked in `read`; the nonblocking
//! sweep this server replaced burned a whole core here).
//!
//! The CPU reading is `/proc/self/stat`, the whole process, and the
//! harness runs a binary's tests on parallel threads: this file holds
//! exactly one `#[test]` so nothing else can be charged to the idle
//! window.

use std::net::Ipv4Addr;

use fremont_journal::client::RemoteJournal;
use fremont_journal::observation::{Observation, Source};
use fremont_journal::proto::StoreBatchItem;
use fremont_journal::query::InterfaceQuery;
use fremont_journal::server::{JournalAccess, JournalServer, SharedJournal};
use fremont_journal::time::JTime;

const CLIENTS: usize = 1024;
const DRIVERS: usize = 16;

/// CPU ticks (user + system) this process has used, from /proc (Linux
/// only; `None` elsewhere).
fn cpu_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // utime and stime are the 14th and 15th fields; count from after
    // the parenthesised command name, which may itself hold spaces.
    let mut fields = stat.rsplit_once(')')?.1.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The unique IP a client owns; distinct for every `k < 4096`.
fn client_ip(k: usize) -> Ipv4Addr {
    Ipv4Addr::new(
        10,
        (k / 256) as u8,
        ((k / 16) % 16) as u8,
        (k % 16 + 1) as u8,
    )
}

#[test]
fn a_thousand_concurrent_clients_complete_without_losing_observations() {
    let (telemetry, rec) = fremont_telemetry::Telemetry::recording();
    let shared = SharedJournal::new();
    let server =
        JournalServer::start_with_telemetry(shared.clone(), "127.0.0.1:0", None, telemetry)
            .unwrap();
    let addr = server.addr().to_string();

    // Open every connection up front so all of them are live at once.
    let mut clients: Vec<RemoteJournal> = (0..CLIENTS)
        .map(|_| RemoteJournal::connect(&addr).unwrap())
        .collect();

    // With a thousand sockets accepted and nothing to do, the whole
    // process (this thread is asleep too) uses next to no CPU.
    if let Some(before) = cpu_ticks() {
        std::thread::sleep(std::time::Duration::from_millis(300));
        let used = cpu_ticks().unwrap() - before;
        assert!(
            used < 10,
            "{CLIENTS} parked connections burned {used} CPU ticks in 300 ms"
        );
    }

    // Sixteen driver threads walk disjoint slices of the client pool;
    // each client stores two observations about its own IP, reads them
    // back, and every eighth also pulls an introspection report.
    let chunk = CLIENTS / DRIVERS;
    let handles: Vec<_> = (0..DRIVERS)
        .map(|d| {
            let mine: Vec<RemoteJournal> = clients.drain(..chunk).collect();
            std::thread::spawn(move || {
                for (i, client) in mine.iter().enumerate() {
                    let k = d * chunk + i;
                    let ip = client_ip(k);
                    let summary = client
                        .store_batch(&[StoreBatchItem {
                            now: JTime(k as u64),
                            observations: vec![
                                Observation::ip_alive(Source::SeqPing, ip),
                                Observation::arp_pair(
                                    Source::ArpWatch,
                                    ip,
                                    format!("08:00:20:0a:{:02x}:{:02x}", k / 256, k % 256)
                                        .parse()
                                        .unwrap(),
                                ),
                            ],
                        }])
                        .unwrap();
                    assert_eq!(
                        summary.created + summary.updated + summary.verified,
                        2,
                        "client {k}: every observation must be accounted for"
                    );
                    let got = client.interfaces(&InterfaceQuery::by_ip(ip)).unwrap();
                    assert_eq!(got.len(), 1, "client {k} must read its own write");
                    if k.is_multiple_of(8) {
                        let report = client.introspect(4).unwrap();
                        assert_eq!(report.health, "ok");
                    }
                }
                mine
            })
        })
        .collect();
    let mut done: Vec<RemoteJournal> = Vec::with_capacity(CLIENTS);
    for h in handles {
        done.extend(h.join().expect("no client thread may fail a request"));
    }

    // No lost observations: one record per client, two observations
    // each, confirmed by the in-process view.
    let stats = shared.stats().unwrap();
    assert_eq!(stats.interfaces, CLIENTS);
    assert_eq!(stats.observations_applied, 2 * CLIENTS as u64);
    shared.read(|j| j.check_invariants().unwrap());

    drop(done);
    server.shutdown();
    assert_eq!(
        rec.counter("fremont_journal_connections_total", ""),
        CLIENTS as u64
    );
    assert_eq!(rec.counter("fremont_journal_rpc_aborted_total", ""), 0);
    assert_eq!(
        rec.counter("fremont_journal_connection_errors_total", ""),
        0
    );
}
