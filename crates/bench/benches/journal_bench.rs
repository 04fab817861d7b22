//! Criterion benchmarks for the Journal: AVL index operations, the
//! observation-merge path, query throughput, and the durable storage
//! engine (WAL append with/without group commit, recovery replay).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::net::Ipv4Addr;

use fremont_journal::avl::AvlMap;
use fremont_journal::observation::{Observation, Source};
use fremont_journal::query::InterfaceQuery;
use fremont_journal::server::JournalAccess;
use fremont_journal::store::Journal;
use fremont_journal::time::JTime;
use fremont_net::MacAddr;
use fremont_storage::{DurableJournal, SyncPolicy, WalConfig};

fn ip_of(i: u32) -> Ipv4Addr {
    Ipv4Addr::new(128, 138, (i >> 8) as u8, i as u8)
}

fn mac_of(i: u32) -> MacAddr {
    MacAddr::new([8, 0, 0x20, (i >> 16) as u8, (i >> 8) as u8, i as u8])
}

fn bench_avl(c: &mut Criterion) {
    let mut g = c.benchmark_group("avl");
    for n in [1_000u32, 16_000] {
        g.bench_with_input(BenchmarkId::new("insert", n), &n, |b, &n| {
            b.iter(|| {
                let mut m = AvlMap::new();
                for i in 0..n {
                    m.insert(i.wrapping_mul(2_654_435_761), i);
                }
                black_box(m.len())
            })
        });
        let filled: AvlMap<u32, u32> = (0..n).map(|i| (i.wrapping_mul(2_654_435_761), i)).collect();
        g.bench_with_input(BenchmarkId::new("lookup", n), &n, |b, &n| {
            b.iter(|| {
                let mut hits = 0;
                for i in 0..1000 {
                    if filled.get(&((i % n).wrapping_mul(2_654_435_761))).is_some() {
                        hits += 1;
                    }
                }
                black_box(hits)
            })
        });
        g.bench_with_input(BenchmarkId::new("range_scan", n), &n, |b, _| {
            b.iter(|| {
                let count = filled
                    .range((
                        std::ops::Bound::Included(&0),
                        std::ops::Bound::Included(&(u32::MAX / 8)),
                    ))
                    .count();
                black_box(count)
            })
        });
    }
    g.finish();
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

fn wal_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("fremont-wal-bench").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
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

criterion_group!(benches, bench_avl, bench_journal_apply, bench_wal);
criterion_main!(benches);
