//! Criterion benchmarks for the simulator engine: event throughput,
//! campus generation, and routing-table computation.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use fremont_explorers::SeqPing;
use fremont_net::IpRange;
use fremont_netsim::builder::TopologyBuilder;
use fremont_netsim::campus::{generate, CampusConfig};
use fremont_netsim::time::SimDuration;

fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim");
    g.sample_size(20);

    // Ping sweep throughput: how fast does the engine chew through a
    // sweep's worth of events (ARP + echo + timers)? The sweep runs at the
    // module's own 2 s pacing to completion, about 127 simulated seconds.
    g.bench_function("ping_sweep_60_hosts_paced", |b| {
        b.iter(|| {
            let mut builder = TopologyBuilder::new();
            let lan = builder.segment("lan", "10.0.0.0/24");
            for i in 0..60 {
                builder.host(&format!("h{i}"), lan, 10 + i);
            }
            let (mut sim, topo) = builder.build(1);
            let range = IpRange::new(
                "10.0.0.10".parse().expect("ip"),
                "10.0.0.69".parse().expect("ip"),
            );
            let h = sim.spawn(topo.hosts[0], Box::new(SeqPing::new(range)));
            while !sim.process_done(h) {
                sim.run_for(SimDuration::from_secs(30));
            }
            black_box(sim.stats.events_processed)
        })
    });

    // Raw event throughput under RIP chatter on the full campus.
    g.bench_function("campus_idle_minute", |b| {
        b.iter(|| {
            let cfg = CampusConfig {
                cs_traffic: false,
                ..CampusConfig::default()
            };
            let (mut sim, _) = generate(&cfg);
            sim.run_for(SimDuration::from_mins(1));
            black_box(sim.stats.events_processed)
        })
    });

    // Raw wheel churn: interleaved inserts and pops across mixed
    // horizons (sub-slot to minutes), the pattern the campus produces.
    g.bench_function("wheel_churn_64k", |b| {
        b.iter(|| {
            let mut wheel = fremont_netsim::sched::TimerWheel::new();
            let mut seq = 0u64;
            let mut now = 0u64;
            let mut x = 0x9E37_79B9_7F4A_7C15u64; // LCG, deterministic
            for _ in 0..65_536u32 {
                seq += 1;
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let horizon = [63u64, 10_000, 2_000_000, 120_000_000][(x >> 60) as usize & 3];
                wheel.insert(now + (x % horizon) + 1, seq, seq);
                if seq.is_multiple_of(4) {
                    if let Some((at, _, _)) = wheel.pop_due(u64::MAX) {
                        now = at;
                    }
                }
            }
            while wheel.pop_due(u64::MAX).is_some() {}
            black_box(wheel.cascades())
        })
    });

    // Idle skip-ahead: a converged campus advancing a whole hour. The
    // wheel's occupancy bound lets `run_until` jump every silent gap, so
    // this costs events-processed, not microseconds-simulated.
    {
        let cfg = CampusConfig {
            cs_traffic: false,
            ..CampusConfig::default()
        };
        let (mut sim, _) = generate(&cfg);
        sim.run_for(SimDuration::from_mins(2)); // converge first
        g.bench_function("campus_skip_ahead_hour", |b| {
            b.iter(|| {
                sim.run_for(SimDuration::from_mins(60));
                black_box(sim.stats.idle_skipped_micros)
            })
        });
    }

    for subnets in [12usize, 114] {
        g.bench_with_input(
            BenchmarkId::new("campus_generation", subnets),
            &subnets,
            |b, &n| {
                b.iter(|| {
                    let cfg = CampusConfig {
                        subnets_assigned: n + 3,
                        subnets_connected: n,
                        cs_traffic: false,
                        ..Default::default()
                    };
                    let (sim, truth) = generate(&cfg);
                    black_box((sim.nodes.len(), truth.gateways.len()))
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
