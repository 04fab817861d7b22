//! Criterion benchmarks for the sharded Journal store: batched store
//! and query throughput at 1 / 4 / 8 shards while contending threads
//! hammer the other side of the lock, the uncontended write
//! transaction on an all-ARP batch and on the fact mix a survey
//! actually records, the durable batched write path (group commit: at
//! most one fsync per StoreBatch), and connection churn against the
//! event-loop server.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use fremont_journal::client::RemoteJournal;
use fremont_journal::observation::{Fact, Observation, Source};
use fremont_journal::proto::StoreBatchItem;
use fremont_journal::query::InterfaceQuery;
use fremont_journal::server::{JournalAccess, JournalServer, SharedJournal};
use fremont_journal::store::Journal;
use fremont_journal::time::JTime;
use fremont_net::{MacAddr, Subnet, SubnetMask};
use fremont_storage::{DurableJournal, WalConfig};

const BATCH: u32 = 64;
const HOSTS: u32 = 1024;

fn ip_of(i: u32) -> Ipv4Addr {
    Ipv4Addr::new(10, 7, (i >> 8) as u8, i as u8)
}

fn mac_of(i: u32) -> MacAddr {
    MacAddr::new([8, 0, 0x20, 9, (i >> 8) as u8, i as u8])
}

fn batch_at(t: u64) -> Vec<StoreBatchItem> {
    let base = (t as u32 * BATCH) % HOSTS;
    vec![StoreBatchItem {
        now: JTime(t),
        observations: (0..BATCH)
            .map(|i| {
                let h = (base + i) % HOSTS;
                Observation::arp_pair(Source::ArpWatch, ip_of(h), mac_of(h))
            })
            .collect(),
    }]
}

/// A journal pre-populated with the full host set, so queries hit and
/// stores mostly verify (the steady-state mix of a long survey).
fn populated(shards: usize) -> SharedJournal {
    SharedJournal::from_journal(populated_journal(shards))
}

/// Runs `f` while `contenders` background threads run `noise` in a
/// loop, so the measured path pays real lock contention.
fn under_contention<R>(
    shared: &SharedJournal,
    contenders: usize,
    noise: impl Fn(&SharedJournal, u64) + Send + Sync + 'static,
    f: impl FnOnce() -> R,
) -> R {
    let stop = Arc::new(AtomicBool::new(false));
    let noise = Arc::new(noise);
    let threads: Vec<_> = (0..contenders)
        .map(|t| {
            let shared = shared.clone();
            let stop = stop.clone();
            let noise = noise.clone();
            std::thread::spawn(move || {
                let mut i = t as u64;
                while !stop.load(Ordering::Relaxed) {
                    noise(&shared, i);
                    i += 1;
                }
            })
        })
        .collect();
    let out = f();
    stop.store(true, Ordering::Relaxed);
    for t in threads {
        let _ = t.join();
    }
    out
}

fn bench_contended_store(c: &mut Criterion) {
    let mut g = c.benchmark_group("journal_shard/contended_store_batch");
    g.throughput(Throughput::Elements(u64::from(BATCH)));
    // Contended timings are bimodal on a small host: windows where the
    // readers are parked run at uncontended speed, windows where they
    // share the CPU run at fair-share speed. Long measurement windows
    // average over both modes instead of letting best-window selection
    // report whichever mode a 10ms window happened to land in.
    g.measurement_time(std::time::Duration::from_secs(2));
    for shards in [1usize, 4, 8] {
        g.bench_with_input(BenchmarkId::from_parameter(shards), &shards, |b, &n| {
            let shared = populated(n);
            // Three reader threads sweep keyed queries while the
            // measured thread runs the batched store path.
            under_contention(
                &shared,
                3,
                |s, i| {
                    let q = InterfaceQuery::by_ip(ip_of((i % u64::from(HOSTS)) as u32));
                    black_box(s.interfaces(&q).unwrap().len());
                },
                || {
                    let mut t = 1u64;
                    b.iter(|| {
                        t += 1;
                        black_box(shared.store_batch(&batch_at(t)).unwrap())
                    });
                },
            );
        });
    }
    g.finish();
}

/// A journal (raw, unshared) pre-populated with the full host set, for
/// benchmarking the store paths without the `SharedJournal` lock.
fn populated_journal(shards: usize) -> Journal {
    let journal = Journal::with_shards(shards);
    journal.apply_batch(
        (0..HOSTS)
            .map(|h| Observation::arp_pair(Source::ArpWatch, ip_of(h), mac_of(h)))
            .collect::<Vec<_>>()
            .iter()
            .map(|o| (o, JTime(0))),
    );
    journal
}

fn arp_batch_at(t: u64) -> Vec<Observation> {
    (0..BATCH)
        .map(|i| {
            let h = ((t as u32 * BATCH) + i) % HOSTS;
            Observation::arp_pair(Source::ArpWatch, ip_of(h), mac_of(h))
        })
        .collect()
}

/// A 64-observation batch with the fact mix the benchmark's 2 h survey
/// records (seed 1993: 61 % Gateway, 26 % Interface, 12 % Subnet or
/// SubnetStats, the rest RipSource) rather than 100 % ARP pairs: per 32
/// slots 19 two-interface gateways, 8 ARP pairs, 4 subnet facts and 1
/// RIP source, with the kinds interleaved (slot × 11 mod 32) the way
/// module batches interleave in a pump.
fn recorded_mix_at(t: u64) -> Vec<Observation> {
    let mask = SubnetMask::from_prefix_len(24).unwrap();
    (0..BATCH)
        .map(|i| {
            let h = ((t as u32 * BATCH) + i) % HOSTS;
            let subnet = Subnet::containing(ip_of(h), mask);
            match (i * 11) % 32 {
                0..=18 => Observation::new(
                    Source::Traceroute,
                    Fact::Gateway {
                        interface_ips: vec![ip_of(h), ip_of((h + HOSTS / 2) % HOSTS)],
                        interface_names: vec![],
                        subnets: vec![subnet],
                    },
                ),
                19..=26 => Observation::arp_pair(Source::ArpWatch, ip_of(h), mac_of(h)),
                27 | 28 => Observation::subnet(Source::RipWatch, subnet, true),
                29 | 30 => Observation::new(
                    Source::Dns,
                    Fact::SubnetStats {
                        subnet,
                        host_count: 200,
                        lowest: ip_of(h & !0xff),
                        highest: ip_of(h | 0xff),
                    },
                ),
                _ => Observation::new(
                    Source::RipWatch,
                    Fact::RipSource {
                        ip: ip_of(h),
                        mac: Some(mac_of(h)),
                        advertised_routes: 40,
                        promiscuous: false,
                    },
                ),
            }
        })
        .collect()
}

/// One uncontended write transaction per iteration on a populated
/// journal, at each shard count: `store_batch` with all-ARP batches,
/// `store_batch_recorded_mix` with the recorded fact mix (the journal
/// has seen every batch of the cycle once, so both mostly verify).
/// Flat across shard counts is the claim: a transaction takes each
/// shard lock once and resolves through the shard-mask filter.
fn bench_store_batch(c: &mut Criterion) {
    type BatchAt = fn(u64) -> Vec<Observation>;
    let cases: [(&str, BatchAt); 2] = [
        ("journal_shard/store_batch", arp_batch_at),
        ("journal_shard/store_batch_recorded_mix", recorded_mix_at),
    ];
    for (group, batch_at) in cases {
        let mut g = c.benchmark_group(group);
        g.throughput(Throughput::Elements(u64::from(BATCH)));
        for shards in [1usize, 4, 8] {
            let journal = populated_journal(shards);
            for t in 0..u64::from(HOSTS / BATCH) {
                journal.apply_batch(batch_at(t).iter().map(|o| (o, JTime(0))));
            }
            let mut t = 1u64;
            g.bench_with_input(BenchmarkId::from_parameter(shards), &shards, |b, _| {
                b.iter(|| {
                    t += 1;
                    let obs = batch_at(t);
                    black_box(journal.apply_batch(obs.iter().map(|o| (o, JTime(t)))))
                });
            });
        }
        g.finish();
    }
}

fn bench_contended_query(c: &mut Criterion) {
    let mut g = c.benchmark_group("journal_shard/contended_query");
    g.throughput(Throughput::Elements(u64::from(BATCH)));
    for shards in [1usize, 4, 8] {
        g.bench_with_input(BenchmarkId::from_parameter(shards), &shards, |b, &n| {
            let shared = populated(n);
            // One writer thread keeps the write path busy while the
            // measured thread sweeps keyed queries.
            under_contention(
                &shared,
                1,
                |s, i| {
                    black_box(s.store_batch(&batch_at(i)).unwrap());
                },
                || {
                    let mut i = 0u32;
                    b.iter(|| {
                        let mut hits = 0usize;
                        for _ in 0..BATCH {
                            i = (i + 1) % HOSTS;
                            hits += shared
                                .interfaces(&InterfaceQuery::by_ip(ip_of(i)))
                                .unwrap()
                                .len();
                        }
                        black_box(hits)
                    });
                },
            );
        });
    }
    g.finish();
}

fn bench_cross_shard_scan(c: &mut Criterion) {
    let mut g = c.benchmark_group("journal_shard/full_scan");
    g.throughput(Throughput::Elements(u64::from(HOSTS)));
    for shards in [1usize, 4, 8] {
        g.bench_with_input(BenchmarkId::from_parameter(shards), &shards, |b, &n| {
            let shared = populated(n);
            b.iter(|| black_box(shared.interfaces(&InterfaceQuery::all()).unwrap().len()));
        });
    }
    g.finish();
}

fn bench_durable_batch(c: &mut Criterion) {
    let mut g = c.benchmark_group("journal_shard/durable_store_batch");
    g.throughput(Throughput::Elements(u64::from(BATCH)));
    let dir = std::env::temp_dir().join("fremont-shard-bench-wal");
    let _ = std::fs::remove_dir_all(&dir);
    // Group commit at 8: the batched path amortizes to one fsync per
    // 64-observation StoreBatch where the one-at-a-time path paid 8.
    let (durable, _) = DurableJournal::open(WalConfig::grouped(&dir, 8)).unwrap();
    let mut t = 0u64;
    g.bench_function("every_n_8", |b| {
        b.iter(|| {
            t += 1;
            black_box(durable.store_batch(&batch_at(t)).unwrap())
        })
    });
    g.finish();
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Connection churn against the event-loop server: one iteration opens,
/// exercises, and drops 1024 `RemoteJournal` connections from sixteen
/// driver threads. Each connection costs the server an fd and a `Conn`
/// state machine, never a thread, so the whole churn runs on the fixed
/// worker pool.
fn bench_eventloop_churn(c: &mut Criterion) {
    const CHURN_CLIENTS: usize = 1024;
    const CHURN_DRIVERS: usize = 16;
    let mut g = c.benchmark_group("journal_shard/eventloop_churn");
    g.throughput(Throughput::Elements(CHURN_CLIENTS as u64));
    g.sample_size(3);
    g.measurement_time(std::time::Duration::from_secs(6));
    let server = JournalServer::start(populated(1), "127.0.0.1:0", None).unwrap();
    let addr = Arc::new(server.addr().to_string());
    g.bench_function("connect_stats_drop_1k", |b| {
        b.iter(|| {
            let handles: Vec<_> = (0..CHURN_DRIVERS)
                .map(|_| {
                    let addr = addr.clone();
                    std::thread::spawn(move || {
                        for _ in 0..CHURN_CLIENTS / CHURN_DRIVERS {
                            let client = RemoteJournal::connect(&addr).unwrap();
                            black_box(client.stats().unwrap().interfaces);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
    });
    g.finish();
    server.shutdown();
}

criterion_group!(
    journal_shard_bench,
    bench_contended_store,
    bench_store_batch,
    bench_contended_query,
    bench_cross_shard_scan,
    bench_durable_batch,
    bench_eventloop_churn
);
criterion_main!(journal_shard_bench);
