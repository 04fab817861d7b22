//! Discovery-strategy benchmarks and ablations.
//!
//! The headline sweep reproduces the paper's qualitative claim that
//! broadcast ping beats sequential ping "if the address space is large but
//! there are not very many hosts on the individual subnets": we measure
//! *simulated* completion time of both modules across subnet sizes (the
//! crossover study), using real time per simulation step as the cost.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use fremont_core::correlate::correlate;
use fremont_core::{Fremont, ProblemReport, TopologyGraph};
use fremont_explorers::{
    BrdcastPing, BrdcastPingConfig, SeqPing, SeqPingConfig, Traceroute, TracerouteConfig,
};
use fremont_net::Subnet;
use fremont_netsim::builder::TopologyBuilder;
use fremont_netsim::campus::{generate, CampusConfig};
use fremont_netsim::time::SimDuration;

/// Builds one sparse subnet of `hosts` hosts inside a wider prefix.
fn sparse_lan(hosts: usize, prefix_len: u8) -> (fremont_netsim::engine::Sim, Subnet) {
    let mut b = TopologyBuilder::new();
    let subnet_str = format!("10.40.0.0/{prefix_len}");
    let lan = b.segment("lan", &subnet_str);
    for i in 0..hosts {
        b.host(&format!("h{i}"), lan, 10 + i as u32);
    }
    let (sim, _) = b.build(9);
    (sim, subnet_str.parse().expect("subnet"))
}

/// The paper's crossover: sequential ping sweeps the whole address space
/// at 2 s/address; broadcast ping finishes in one window regardless.
fn bench_seq_vs_broadcast(c: &mut Criterion) {
    let mut g = c.benchmark_group("seq_vs_broadcast_simtime");
    g.sample_size(10);
    for prefix in [26u8, 24, 22] {
        g.bench_with_input(BenchmarkId::new("seqping", prefix), &prefix, |b, &p| {
            b.iter(|| {
                let (mut sim, subnet) = sparse_lan(12, p);
                let h = sim.spawn(
                    sim.node_by_name("h0").expect("h0"),
                    Box::new(SeqPing::new(SeqPingConfig::over(subnet.host_range()))),
                );
                // Run to completion; report simulated seconds via black_box.
                while !sim.process_done(h) {
                    sim.run_for(SimDuration::from_mins(10));
                }
                black_box(sim.now().as_secs())
            })
        });
        g.bench_with_input(BenchmarkId::new("brdcastping", prefix), &prefix, |b, &p| {
            b.iter(|| {
                let (mut sim, subnet) = sparse_lan(12, p);
                let h = sim.spawn(
                    sim.node_by_name("h0").expect("h0"),
                    Box::new(BrdcastPing::new(BrdcastPingConfig::over(vec![subnet]))),
                );
                while !sim.process_done(h) {
                    sim.run_for(SimDuration::from_mins(1));
                }
                black_box(sim.now().as_secs())
            })
        });
    }
    g.finish();
}

/// Ablation: traceroute's packet budget. The paper throttles to 8 pkt/s;
/// the ablation measures how the budget trades completion time for load.
fn bench_traceroute_budget(c: &mut Criterion) {
    let mut g = c.benchmark_group("traceroute_budget");
    g.sample_size(10);
    for interval_ms in [1000u64, 125, 31] {
        g.bench_with_input(
            BenchmarkId::new("campus_small", interval_ms),
            &interval_ms,
            |b, &ms| {
                b.iter(|| {
                    let cfg = CampusConfig {
                        cs_traffic: false,
                        ..CampusConfig::small()
                    };
                    let (mut sim, truth) = generate(&cfg);
                    let home = sim.node_by_name("bruno").expect("bruno");
                    let mut tc = TracerouteConfig::over(truth.assigned_subnets.clone());
                    tc.boundary = Some(cfg.network);
                    tc.send_interval = SimDuration::from_millis(ms);
                    let h = sim.spawn(home, Box::new(Traceroute::new(tc)));
                    while !sim.process_done(h) {
                        sim.run_for(SimDuration::from_mins(5));
                    }
                    let done = sim
                        .process_mut::<Traceroute>(h)
                        .map(|p| (p.probes_sent(), p.reached_subnets().len()))
                        .unwrap_or((0, 0));
                    black_box((sim.now().as_secs(), done))
                })
            },
        );
    }
    g.finish();
}

/// What the whole-picture readers pay over the journal a 2-hour survey
/// of the default campus (seed 1993) leaves — 545 interface records, 84
/// gateways, 30 shared names and no shared MAC: `correlate` (what a
/// draining pump pays), one problem report at the benchmark's windows,
/// and one topology export.
fn bench_whole_journal_readers(c: &mut Criterion) {
    let mut f = Fremont::over_campus(&CampusConfig::default());
    f.explore(SimDuration::from_hours(2)).expect("in-memory");
    let now = f.now();
    let mut g = c.benchmark_group("correlate");
    g.bench_function("campus_2h", |b| {
        b.iter(|| black_box(f.journal.read(correlate)).len())
    });
    g.finish();
    let mut g = c.benchmark_group("analysis");
    g.bench_function("campus_2h", |b| {
        b.iter(|| {
            let report = f
                .journal
                .read(|j| ProblemReport::generate(j, now, 86_400, 3_600));
            black_box(report).total()
        })
    });
    g.finish();
    let mut g = c.benchmark_group("topology");
    g.bench_function("campus_2h", |b| {
        b.iter(|| {
            black_box(f.journal.read(TopologyGraph::from_journal))
                .gateways
                .len()
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_seq_vs_broadcast,
    bench_traceroute_budget,
    bench_whole_journal_readers
);
criterion_main!(benches);
