//! Criterion benchmarks for the Journal: the observation-merge path,
//! query throughput, the batched write transaction (uncontended on an
//! all-ARP batch and on the fact mix a survey actually records, and
//! while contending threads hammer the other side of the lock), the
//! durable batched write path (group commit: at most one fsync per
//! StoreBatch), connection churn against the TCP server, the durable
//! storage engine (WAL append with/without group commit, segment scan,
//! recovery replay), and the wire decode of the largest reply and of a
//! full store request.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use fremont_core::{DiscoveryDriver, DriverConfig};
use fremont_journal::client::RemoteJournal;
use fremont_journal::observation::{Fact, Observation, Source};
use fremont_journal::proto::{
    decode_frame, write_frame, Request, RequestEnvelope, Response, StoreBatchItem, TraceContext,
};
use fremont_journal::query::InterfaceQuery;
use fremont_journal::server::{JournalAccess, JournalServer, SharedJournal};
use fremont_journal::store::Journal;
use fremont_journal::time::JTime;
use fremont_net::{MacAddr, Subnet, SubnetMask};
use fremont_netsim::campus::{generate, CampusConfig};
use fremont_netsim::time::SimDuration;
use fremont_storage::crc32::crc32;
use fremont_storage::wal::{encode_frames, scan_segment, segment_file_name};
use fremont_storage::{DurableJournal, SyncPolicy, WalConfig, WalRecord};

fn ip_of(i: u32) -> Ipv4Addr {
    Ipv4Addr::new(128, 138, (i >> 8) as u8, i as u8)
}

fn mac_of(i: u32) -> MacAddr {
    MacAddr::new([8, 0, 0x20, (i >> 16) as u8, (i >> 8) as u8, i as u8])
}

fn bench_journal_apply(c: &mut Criterion) {
    let mut g = c.benchmark_group("journal");
    g.bench_function("apply_arp_pairs_10k", |b| {
        b.iter(|| {
            let j = Journal::new();
            for i in 0..10_000u32 {
                j.apply(
                    &Observation::arp_pair(Source::ArpWatch, ip_of(i), mac_of(i)),
                    JTime(u64::from(i)),
                );
            }
            black_box(j.stats().interfaces)
        })
    });
    g.bench_function("reverify_known_pairs_10k", |b| {
        let j = Journal::new();
        for i in 0..10_000u32 {
            j.apply(
                &Observation::arp_pair(Source::ArpWatch, ip_of(i), mac_of(i)),
                JTime(u64::from(i)),
            );
        }
        b.iter(|| {
            for i in 0..10_000u32 {
                j.apply(
                    &Observation::arp_pair(Source::ArpWatch, ip_of(i), mac_of(i)),
                    JTime(20_000),
                );
            }
            black_box(j.stats().interfaces)
        })
    });
    let j = Journal::new();
    for i in 0..16_000u32 {
        j.apply(
            &Observation::arp_pair(Source::ArpWatch, ip_of(i), mac_of(i)),
            JTime(u64::from(i)),
        );
    }
    g.bench_function("query_by_ip", |b| {
        b.iter(|| {
            let mut found = 0;
            for i in 0..1000u32 {
                found += j
                    .get_interfaces(&InterfaceQuery::by_ip(ip_of(i * 16)))
                    .len();
            }
            black_box(found)
        })
    });
    g.bench_function("query_subnet_scan", |b| {
        b.iter(|| {
            let q = InterfaceQuery::in_subnet("128.138.7.0/24".parse().expect("subnet"));
            black_box(j.get_interfaces(&q).len())
        })
    });
    g.bench_function("snapshot_roundtrip_16k", |b| {
        b.iter(|| {
            let snap = j.to_snapshot();
            black_box(Journal::from_snapshot(&snap).stats().interfaces)
        })
    });
    g.finish();
}

const BATCH: u32 = 64;
const HOSTS: u32 = 1024;

fn arp_batch_at(t: u64) -> Vec<Observation> {
    (0..BATCH)
        .map(|i| {
            let h = ((t as u32 * BATCH) + i) % HOSTS;
            Observation::arp_pair(Source::ArpWatch, ip_of(h), mac_of(h))
        })
        .collect()
}

fn batch_at(t: u64) -> Vec<StoreBatchItem> {
    vec![StoreBatchItem {
        now: JTime(t),
        observations: arp_batch_at(t),
    }]
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

/// A journal pre-populated with the full host set, so queries hit and
/// stores mostly verify (the steady-state mix of a long survey).
fn populated_journal() -> Journal {
    let journal = Journal::new();
    journal.apply_batch(
        (0..HOSTS)
            .map(|h| Observation::arp_pair(Source::ArpWatch, ip_of(h), mac_of(h)))
            .collect::<Vec<_>>()
            .iter()
            .map(|o| (o, JTime(0))),
    );
    journal
}

fn populated() -> SharedJournal {
    SharedJournal::from_journal(populated_journal())
}

/// One uncontended write transaction per iteration on a populated
/// journal: `store_batch` with all-ARP batches,
/// `store_batch_recorded_mix` with the recorded fact mix (the journal
/// has seen every batch of the cycle once, so both mostly verify).
fn bench_store_batch(c: &mut Criterion) {
    type BatchAt = fn(u64) -> Vec<Observation>;
    let cases: [(&str, BatchAt); 2] = [
        ("store_batch", arp_batch_at),
        ("store_batch_recorded_mix", recorded_mix_at),
    ];
    let mut g = c.benchmark_group("journal");
    g.throughput(Throughput::Elements(u64::from(BATCH)));
    for (name, batch_at) in cases {
        let journal = populated_journal();
        for t in 0..u64::from(HOSTS / BATCH) {
            journal.apply_batch(batch_at(t).iter().map(|o| (o, JTime(0))));
        }
        let mut t = 1u64;
        g.bench_function(name, |b| {
            b.iter(|| {
                t += 1;
                let obs = batch_at(t);
                black_box(journal.apply_batch(obs.iter().map(|o| (o, JTime(t)))))
            });
        });
    }
    g.finish();
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

fn bench_contended(c: &mut Criterion) {
    let mut g = c.benchmark_group("journal");
    g.throughput(Throughput::Elements(u64::from(BATCH)));
    g.bench_function("contended_query", |b| {
        let shared = populated();
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
    // Contended timings are bimodal on a small host: windows where the
    // readers are parked run at uncontended speed, windows where they
    // share the CPU run at fair-share speed. Long measurement windows
    // average over both modes instead of letting best-window selection
    // report whichever mode a 10ms window happened to land in.
    g.measurement_time(std::time::Duration::from_secs(2));
    g.bench_function("contended_store_batch", |b| {
        let shared = populated();
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
    g.finish();
}

fn bench_full_scan(c: &mut Criterion) {
    let mut g = c.benchmark_group("journal");
    g.throughput(Throughput::Elements(u64::from(HOSTS)));
    let shared = populated();
    g.bench_function("full_scan", |b| {
        b.iter(|| black_box(shared.interfaces(&InterfaceQuery::all()).unwrap().len()));
    });
    g.finish();
}

fn bench_durable_batch(c: &mut Criterion) {
    let mut g = c.benchmark_group("journal");
    g.throughput(Throughput::Elements(u64::from(BATCH)));
    let dir = wal_dir("durable-batch");
    // Group commit at 8: the batched path amortizes to one fsync per
    // 64-observation StoreBatch where the one-at-a-time path paid 8.
    let (durable, _) = DurableJournal::open(WalConfig::grouped(&dir, 8)).unwrap();
    let mut t = 0u64;
    g.bench_function("durable_store_batch", |b| {
        b.iter(|| {
            t += 1;
            black_box(durable.store_batch(&batch_at(t)).unwrap())
        })
    });
    g.finish();
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Connection churn against the server: one iteration opens, exercises,
/// and drops 1024 `RemoteJournal` connections from sixteen driver
/// threads. Each connection costs the server one accept, one thread
/// spawn and that thread's exit.
fn bench_connection_churn(c: &mut Criterion) {
    const CHURN_CLIENTS: usize = 1024;
    const CHURN_DRIVERS: usize = 16;
    let mut g = c.benchmark_group("journal");
    g.throughput(Throughput::Elements(CHURN_CLIENTS as u64));
    g.sample_size(3);
    g.measurement_time(std::time::Duration::from_secs(6));
    let server = JournalServer::start(populated(), "127.0.0.1:0", None).unwrap();
    let addr = Arc::new(server.addr().to_string());
    g.bench_function("connection_churn", |b| {
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

fn wal_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("fremont-wal-bench").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `n` (a multiple of 64) WAL records of the recorded fact mix.
fn mix_records(n: u64) -> Vec<WalRecord> {
    (0..n / 64)
        .flat_map(recorded_mix_at)
        .zip(1u64..)
        .map(|(obs, seq)| WalRecord {
            seq,
            at: JTime(seq),
            obs,
        })
        .collect()
}

fn bench_wal(c: &mut Criterion) {
    let mut g = c.benchmark_group("wal");
    g.sample_size(10);

    // Append throughput under the three sync policies. Group commit is
    // the headline: it amortizes one fsync over many acknowledged
    // observations.
    const BATCH: u64 = 256;
    for (label, sync) in [
        ("append_fsync_always", SyncPolicy::Always),
        ("append_group_commit_64", SyncPolicy::EveryN(64)),
        ("append_no_sync", SyncPolicy::Never),
    ] {
        let dir = wal_dir(label);
        let mut cfg = WalConfig::new(&dir);
        cfg.sync = sync;
        cfg.max_segment_bytes = u64::MAX; // isolate the append path
        let (dj, _) = DurableJournal::open(cfg).expect("open");
        let mut next = 0u32;
        g.throughput(Throughput::Elements(BATCH));
        g.bench_function(label, |b| {
            b.iter(|| {
                for _ in 0..BATCH {
                    let o = Observation::arp_pair(Source::ArpWatch, ip_of(next), mac_of(next));
                    dj.store(JTime(u64::from(next)), std::slice::from_ref(&o))
                        .expect("store");
                    next = next.wrapping_add(1);
                }
                black_box(next)
            })
        });
        drop(dj);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // The two CPU layers under a durable 256-observation call, without
    // the file: framing the records (serialize in place + checksum),
    // and the checksum alone over as many bytes as those frames hold.
    let records = mix_records(BATCH);
    let mut frames = Vec::new();
    g.throughput(Throughput::Elements(BATCH));
    g.bench_function("encode_256", |b| {
        b.iter(|| {
            frames.clear();
            encode_frames(black_box(&records), &mut frames).expect("encode");
            black_box(frames.len())
        })
    });
    // Reading back: one segment of 4096 such records, checksummed and
    // decoded frame by frame as recovery does.
    let scan_dir = wal_dir("scan");
    std::fs::create_dir_all(&scan_dir).expect("mkdir");
    let segment = scan_dir.join(segment_file_name(1));
    let history = mix_records(4096);
    let mut segment_bytes = Vec::new();
    encode_frames(&history, &mut segment_bytes).expect("encode");
    std::fs::write(&segment, &segment_bytes).expect("write segment");
    g.throughput(Throughput::Elements(history.len() as u64));
    g.bench_function("scan_4096", |b| {
        b.iter(|| {
            let scan = scan_segment(black_box(&segment)).expect("scan");
            assert_eq!(scan.records.len(), history.len());
            black_box(scan.valid_bytes)
        })
    });
    let _ = std::fs::remove_dir_all(&scan_dir);

    let payload: Vec<u8> = frames.iter().copied().cycle().take(36 * 1024).collect();
    g.throughput(Throughput::Bytes(payload.len() as u64));
    g.bench_function("crc32_36k", |b| {
        b.iter(|| black_box(crc32(black_box(&payload))))
    });

    // Recovery replay: reopen a directory whose snapshot is empty and
    // whose WAL tail holds the whole history.
    for n in [1_000u32, 8_000] {
        let dir = wal_dir(&format!("recover-{n}"));
        let mut cfg = WalConfig::new(&dir);
        cfg.sync = SyncPolicy::Never;
        cfg.max_segment_bytes = u64::MAX;
        let (dj, _) = DurableJournal::open(cfg.clone()).expect("open");
        for i in 0..n {
            let o = Observation::arp_pair(Source::ArpWatch, ip_of(i), mac_of(i));
            dj.store(JTime(u64::from(i)), std::slice::from_ref(&o))
                .expect("store");
        }
        dj.sync().expect("sync");
        // Preserve the WAL-heavy directory: recovery in the timed loop
        // must replay, not just load a snapshot, so work on a copy.
        let seg = fremont_storage::wal::list_segments(&cfg.dir).expect("segments")[0]
            .path
            .clone();
        let snap = cfg.dir.join("snapshot.json");
        drop(dj);
        let replay_dir = wal_dir(&format!("recover-{n}-replay"));
        std::fs::create_dir_all(&replay_dir).expect("mkdir");
        g.throughput(Throughput::Elements(u64::from(n)));
        g.bench_with_input(BenchmarkId::new("recovery_replay", n), &n, |b, &n| {
            b.iter(|| {
                for f in std::fs::read_dir(&replay_dir).expect("ls").flatten() {
                    let _ = std::fs::remove_file(f.path());
                }
                std::fs::copy(&seg, replay_dir.join(seg.file_name().expect("name")))
                    .expect("copy wal");
                let _ = std::fs::copy(&snap, replay_dir.join("snapshot.json"));
                let mut rcfg = WalConfig::new(&replay_dir);
                rcfg.sync = SyncPolicy::Never;
                let (dj, report) = DurableJournal::open(rcfg).expect("recover");
                assert_eq!(
                    report.records_replayed + report.records_skipped,
                    u64::from(n)
                );
                black_box(dj.stats().expect("stats").interfaces)
            })
        });
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&replay_dir);
    }
    g.finish();
}

/// What a client and a server spend taking a frame apart: the reply to
/// `interfaces(all)` after a 2-hour survey of the default (seed 1993)
/// campus, the largest frame the protocol carries in practice, and a
/// `StoreBatch` request of 256 recorded-mix observations.
fn bench_proto(c: &mut Criterion) {
    let mut g = c.benchmark_group("proto");

    let cfg = CampusConfig::default();
    let (sim, truth) = generate(&cfg);
    let home = sim
        .node_by_name(&truth.explorer_host)
        .expect("the generator always creates the explorer host");
    let journal = SharedJournal::new();
    let mut driver = DiscoveryDriver::new(
        sim,
        journal.clone(),
        home,
        DriverConfig::full(cfg.network, Some(truth.dns_server)),
    );
    driver
        .run_for(SimDuration::from_mins(120))
        .expect("in-memory journal");
    let interfaces = journal
        .interfaces(&InterfaceQuery::all())
        .expect("in-memory read");
    assert_eq!(interfaces.len(), 540, "the bench id names the record count");
    let mut reply = Vec::new();
    write_frame(&mut reply, &Response::Interfaces(interfaces)).expect("encode");
    g.throughput(Throughput::Bytes(reply.len() as u64));
    g.bench_function("decode_interfaces_540", |b| {
        b.iter(|| match decode_frame::<Response>(black_box(&reply)) {
            Ok(Some((Response::Interfaces(v), _))) => black_box(v.len()),
            other => panic!("not an interfaces reply: {other:?}"),
        })
    });

    let request = RequestEnvelope {
        ctx: TraceContext::default(),
        req: Request::StoreBatch {
            batches: (0..4)
                .map(|t| StoreBatchItem {
                    now: JTime(t),
                    observations: recorded_mix_at(t),
                })
                .collect(),
        },
    };
    let mut frame = Vec::new();
    write_frame(&mut frame, &request).expect("encode");
    g.throughput(Throughput::Elements(256));
    g.bench_function("decode_store_batch_256", |b| {
        b.iter(
            || match decode_frame::<RequestEnvelope>(black_box(&frame)) {
                Ok(Some((envelope, used))) => black_box((envelope.ctx.trace_id, used)),
                other => panic!("not a request: {other:?}"),
            },
        )
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_journal_apply,
    bench_store_batch,
    bench_contended,
    bench_full_scan,
    bench_durable_batch,
    bench_connection_churn,
    bench_wal,
    bench_proto
);
criterion_main!(benches);
