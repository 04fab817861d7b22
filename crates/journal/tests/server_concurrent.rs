//! Integration test: concurrent clients hammering one Journal Server.
//!
//! Eight client threads work disjoint IP ranges, mixing batched stores
//! with queries. Because the ranges are disjoint and the server
//! serializes writes, the final journal must match a serial replay of
//! the same observations — regardless of how the threads interleave.
//!
//! A second, in-process test checks that a batch is atomic to readers:
//! every full-scan Get sees all of a batch or none of it.

use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use fremont_journal::client::RemoteJournal;
use fremont_journal::observation::{Observation, Source};
use fremont_journal::proto::StoreBatchItem;
use fremont_journal::query::InterfaceQuery;
use fremont_journal::server::{JournalAccess, JournalServer, SharedJournal};
use fremont_journal::store::Journal;
use fremont_journal::time::JTime;

const THREADS: u8 = 8;
const ROUNDS: u64 = 6;
const HOSTS_PER_ROUND: u8 = 4;

/// The batches thread `t` sends, in order. Deterministic, so the serial
/// replay below can reproduce them exactly.
fn thread_batches(t: u8) -> Vec<Vec<StoreBatchItem>> {
    (0..ROUNDS)
        .map(|round| {
            let now = JTime(round * 100 + u64::from(t));
            let mut observations = Vec::new();
            for h in 0..HOSTS_PER_ROUND {
                let ip = Ipv4Addr::new(10, t, 0, h + 1);
                observations.push(Observation::ip_alive(Source::SeqPing, ip));
                observations.push(Observation::arp_pair(
                    Source::ArpWatch,
                    ip,
                    format!("08:00:20:00:{t:02x}:{h:02x}").parse().unwrap(),
                ));
            }
            // Split each round across two timestamped items so the
            // server exercises the multi-item batch path.
            let mid = observations.len() / 2;
            let tail = observations.split_off(mid);
            vec![
                StoreBatchItem { now, observations },
                StoreBatchItem {
                    now: JTime(now.0 + 1),
                    observations: tail,
                },
            ]
        })
        .collect()
}

#[test]
fn concurrent_store_batches_match_serial_replay() {
    let shared = SharedJournal::new();
    let server = JournalServer::start(shared.clone(), "127.0.0.1:0", None).unwrap();
    let addr = server.addr().to_string();
    let queries_ok = Arc::new(AtomicU64::new(0));

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let addr = addr.clone();
            let queries_ok = Arc::clone(&queries_ok);
            std::thread::spawn(move || {
                let client = RemoteJournal::connect(&addr).unwrap();
                for batches in thread_batches(t) {
                    let summary = client.store_batch(&batches).unwrap();
                    let sent: usize = batches.iter().map(|b| b.observations.len()).sum();
                    assert_eq!(
                        summary.created + summary.updated + summary.verified,
                        sent,
                        "every observation in the batch must be accounted for"
                    );
                    // Interleave reads: our own range must be visible on
                    // this connection (the server answered the store).
                    let mine = client
                        .interfaces(&InterfaceQuery::by_ip(Ipv4Addr::new(10, t, 0, 1)))
                        .unwrap();
                    assert_eq!(mine.len(), 1);
                    let stats = client.stats().unwrap();
                    assert!(stats.interfaces >= usize::from(HOSTS_PER_ROUND));
                    queries_ok.fetch_add(2, Ordering::Relaxed);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no client thread may fail a request");
    }
    assert_eq!(
        queries_ok.load(Ordering::Relaxed),
        u64::from(THREADS) * ROUNDS * 2
    );

    // Serial replay: one thread at a time, same batches, same times.
    let replay = Journal::new();
    for t in 0..THREADS {
        for batches in thread_batches(t) {
            replay.apply_batch(
                batches
                    .iter()
                    .flat_map(|b| b.observations.iter().map(move |o| (o, b.now))),
            );
        }
    }

    let final_stats = shared.stats().unwrap();
    assert_eq!(final_stats, replay.stats());

    // Every record matches the serial replay field for field, modulo
    // the interface id (allocation order depends on interleaving).
    shared.read(|j| {
        j.check_invariants().unwrap();
        for t in 0..THREADS {
            for h in 0..HOSTS_PER_ROUND {
                let q = InterfaceQuery::by_ip(Ipv4Addr::new(10, t, 0, h + 1));
                let got = j.get_interfaces(&q);
                let want = replay.get_interfaces(&q);
                assert_eq!(got.len(), 1);
                assert_eq!(want.len(), 1);
                assert_eq!(got[0].ip, want[0].ip);
                assert_eq!(got[0].mac, want[0].mac);
                assert_eq!(got[0].sources, want[0].sources);
                assert_eq!(got[0].discovered, want[0].discovered);
                assert_eq!(got[0].changed, want[0].changed);
                assert_eq!(got[0].verified, want[0].verified);
            }
        }
    });

    server.shutdown();
}

/// A writer stores batches of 8 fresh interfaces that share one marker
/// name per batch while readers loop full-scan Gets: every read must
/// see each marker 0 or 8 times. Threads over a `SharedJournal`, no
/// sockets, so the reads are dense enough to land inside a batch.
#[test]
fn a_batch_is_atomic_to_concurrent_readers() {
    const BATCHES: u16 = 400;
    const PER_BATCH: usize = 8;
    const READERS: usize = 2;
    let shared = SharedJournal::new();
    let start = Arc::new(Barrier::new(READERS + 1));
    let done = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let (shared, start, done) = (shared.clone(), start.clone(), done.clone());
            std::thread::spawn(move || {
                start.wait();
                let mut reads = 0u64;
                while !done.load(Ordering::Acquire) {
                    let all = shared.interfaces(&InterfaceQuery::all()).unwrap();
                    let mut seen: HashMap<&str, usize> = HashMap::new();
                    for r in &all {
                        *seen.entry(r.dns_name().unwrap()).or_default() += 1;
                    }
                    for (marker, n) in seen {
                        assert_eq!(n, PER_BATCH, "read {reads} split batch {marker}");
                    }
                    reads += 1;
                }
                reads
            })
        })
        .collect();

    start.wait();
    for k in 0..BATCHES {
        let [hi, lo] = k.to_be_bytes();
        let marker = format!("batch-{k}");
        let observations: Vec<_> = (0..PER_BATCH as u8)
            .map(|h| Observation::named_ip(Source::Dns, Ipv4Addr::new(10, hi, lo, h), &marker))
            .collect();
        let sum = shared.store(JTime(u64::from(k)), &observations).unwrap();
        assert_eq!(sum.created, PER_BATCH);
    }
    done.store(true, Ordering::Release);
    for r in readers {
        assert!(r.join().expect("no read may see a split batch") > 0);
    }
    assert_eq!(
        shared.stats().unwrap().interfaces,
        usize::from(BATCHES) * PER_BATCH
    );
}
