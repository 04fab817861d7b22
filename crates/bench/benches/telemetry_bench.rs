//! Micro-benchmarks for the telemetry layer: the disabled path must be
//! close to free (one branch on an `Option`), and the recording path
//! must stay cheap enough to leave on during experiments.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fremont_telemetry::{metrics, SpanId, TelTime, Telemetry};

fn bench_disabled(c: &mut Criterion) {
    let tel = Telemetry::noop();
    let mut g = c.benchmark_group("telemetry_disabled");
    g.bench_function("counter_add", |b| {
        b.iter(|| tel.counter_add(black_box(metrics::WAL_APPENDS_TOTAL), "", 1))
    });
    g.bench_function("observe", |b| {
        b.iter(|| tel.observe(black_box(metrics::JOURNAL_STORE_MERGE_OPS), "", 17))
    });
    g.finish();
}

fn bench_recording(c: &mut Criterion) {
    let (tel, _rec) = Telemetry::recording();
    let mut g = c.benchmark_group("telemetry_recording");
    g.bench_function("counter_add", |b| {
        b.iter(|| tel.counter_add(black_box(metrics::WAL_APPENDS_TOTAL), "", 1))
    });
    g.bench_function("observe", |b| {
        b.iter(|| tel.observe(black_box(metrics::JOURNAL_STORE_MERGE_OPS), "", 17))
    });
    g.bench_function("span_pair", |b| {
        let mut n = 0u64;
        b.iter(|| {
            n += 1;
            let s = tel.span_start("bench.span", "", SpanId::NONE, TelTime(n));
            tel.span_end(s, "ok", TelTime(n));
        })
    });
    g.finish();
}

fn bench_expose(c: &mut Criterion) {
    let (tel, rec) = Telemetry::recording();
    for i in 0..200u64 {
        let label = format!("series=\"{i}\"");
        tel.counter_add(metrics::JOURNAL_RPC_TOTAL, &label, i);
        tel.observe(metrics::JOURNAL_STORE_MERGE_OPS, "", i);
    }
    c.bench_function("telemetry_expose_200_series", |b| {
        b.iter(|| black_box(rec.expose().len()))
    });
}

criterion_group!(benches, bench_disabled, bench_recording, bench_expose);
criterion_main!(benches);
