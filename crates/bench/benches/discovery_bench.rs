//! Whole-picture reader benchmarks over a surveyed campus journal.
//!
//! The paper's SeqPing-vs-BrdcastPing crossover is a claim about
//! *simulated* time, so it is a test, not a bench:
//! `crates/explorers/tests/prop_explorers.rs::broadcast_beats_sequential_on_large_sparse_subnets`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use fremont_core::correlate::correlate;
use fremont_core::{Fremont, ProblemReport, TopologyGraph};
use fremont_journal::InterfaceQuery;
use fremont_netsim::campus::CampusConfig;
use fremont_netsim::time::SimDuration;

/// What the whole-picture readers pay over the journal a 2-hour survey
/// of the default campus (seed 1993) leaves — 545 interface records, 84
/// gateways, 30 shared names and no shared MAC: `correlate` (what a
/// draining pump pays), one problem report at the benchmark's windows,
/// one topology export, and the two whole-journal copies readers start
/// from: `interfaces(all)` (a remote reader's Get) and `to_snapshot`
/// (what the report and the export take). Last, what a draining pump
/// pays to store
/// `correlate`'s answer back: its 30 name-derived gateway facts as one
/// batch into the same journal, the pump's largest step (measured last
/// because it writes to the journal the readers look at).
fn bench_whole_journal_readers(c: &mut Criterion) {
    let mut f = Fremont::over_campus(&CampusConfig::default());
    f.explore(SimDuration::from_hours(2)).expect("in-memory");
    let now = f.now();
    let mut g = c.benchmark_group("correlate");
    g.bench_function("campus_2h", |b| {
        b.iter(|| black_box(f.driver.journal.read(correlate)).len())
    });
    g.finish();
    let mut g = c.benchmark_group("analysis");
    g.bench_function("campus_2h", |b| {
        b.iter(|| {
            let report = f
                .driver
                .journal
                .read(|j| ProblemReport::generate(j, now, 86_400, 3_600));
            black_box(report).total()
        })
    });
    g.finish();
    let mut g = c.benchmark_group("topology");
    g.bench_function("campus_2h", |b| {
        b.iter(|| {
            black_box(f.driver.journal.read(TopologyGraph::from_journal))
                .gateways
                .len()
        })
    });
    g.finish();
    let mut g = c.benchmark_group("reads");
    g.bench_function("interfaces_all_campus_2h", |b| {
        b.iter(|| {
            black_box(
                f.driver
                    .journal
                    .read(|j| j.get_interfaces(&InterfaceQuery::all())),
            )
            .len()
        })
    });
    g.bench_function("to_snapshot_campus_2h", |b| {
        b.iter(|| {
            black_box(f.driver.journal.read(|j| j.to_snapshot()))
                .interfaces
                .len()
        })
    });
    g.finish();
    let derived = f.driver.journal.read(correlate);
    let mut g = c.benchmark_group("correlate");
    g.bench_function("store_campus_2h", |b| {
        b.iter(|| {
            f.driver
                .journal
                .read(|j| j.apply_batch(derived.iter().map(|o| (o, now))))
                .verified
        })
    });
    g.finish();
}

criterion_group!(benches, bench_whole_journal_readers);
criterion_main!(benches);
