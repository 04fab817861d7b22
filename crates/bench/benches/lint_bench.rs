//! Criterion benchmarks for the in-tree static analyzer: workspace
//! source loading, the cross-crate call-graph build, and the full
//! two-rule analysis pass — all measured over the real workspace so
//! the CI `--deny` gate's cost stays visible.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use std::path::Path;

use fremont_lint::callgraph::CallGraph;
use fremont_lint::{analyze, find_workspace_root, Config, Workspace};

fn bench_lint(c: &mut Criterion) {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("bench crate lives inside the workspace");
    let ws = Workspace::load(&root).expect("workspace sources readable");
    let cfg = Config::for_root(root.clone());
    let tokens: u64 = ws.files.iter().map(|f| f.code.len() as u64).sum();

    let mut g = c.benchmark_group("lint");
    g.throughput(Throughput::Elements(tokens));
    g.bench_function("load_workspace", |b| {
        b.iter(|| {
            let ws = Workspace::load(&root).expect("workspace sources readable");
            black_box(ws.files.len())
        })
    });
    g.bench_function("callgraph_build", |b| {
        b.iter(|| {
            let cg = CallGraph::build(&ws);
            black_box(cg.fns.len())
        })
    });
    g.bench_function("analyze_full", |b| {
        b.iter(|| {
            let (analysis, _) = analyze(&ws, &cfg, false);
            black_box(analysis.violations.len())
        })
    });
    g.finish();
}

criterion_group!(benches, bench_lint);
criterion_main!(benches);
