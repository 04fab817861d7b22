//! `compare <a.json> <b.json>`: two sets of runs of the benchmark, one
//! row per workload and end-to-end metric, judged by the bounds in
//! `BENCHMARK.json`.
//!
//! A runs file is what `--out` writes: a JSON array of
//! `{"workload", "seed", "trace", "result"}` records. Only untraced
//! records are compared.

use std::path::Path;

use serde_json::Value;

use crate::harness::{median, quartiles};
use crate::json::{as_array, get, num_field, str_field};

/// One end-to-end metric as `BENCHMARK.json` declares it.
pub struct Declared {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

pub struct Benchmark {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Declared>,
}

pub fn load_benchmark(path: &Path) -> Result<Benchmark, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v: Value = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = |key: &str| get(&v, key).map(as_array).unwrap_or(&[]);
    let name_of = |m: &Value| str_field(m, "name").unwrap_or_default().to_owned();
    Ok(Benchmark {
        workloads: list("workloads").iter().map(name_of).collect(),
        end_to_end: list("end_to_end")
            .iter()
            .map(|m| Declared {
                name: name_of(m),
                higher_is_better: str_field(m, "better") == Some("higher"),
                bound: num_field(m, "bound").unwrap_or(0.0),
            })
            .collect(),
    })
}

/// The untraced values of `metric` on `workload` in a runs file.
fn values(runs: &Value, workload: &str, metric: &str) -> Vec<f64> {
    as_array(runs)
        .iter()
        .filter(|r| str_field(r, "workload") == Some(workload))
        .filter(|r| num_field(r, "trace") == Some(0.0))
        .filter_map(|r| {
            let m = get(get(get(r, "result")?, "metrics")?, metric)?;
            num_field(m, "value")
        })
        .collect()
}

/// Distance between the quartiles as a share of the median.
fn spread(v: &[f64]) -> f64 {
    match quartiles(v) {
        Some((q1, q3)) if median(v) != 0.0 => (q3 - q1) / median(v).abs(),
        _ => 0.0,
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative when
/// better).
fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    let change = (b - a) / a.abs();
    if higher_is_better {
        -change
    } else {
        change
    }
}

fn verdict(a: &[f64], b: &[f64], m: &Declared) -> &'static str {
    let worse_by = worsening(median(a), median(b), m.higher_is_better);
    let clear_win = a.iter().all(|x| {
        b.iter()
            .all(|y| worsening(*x, *y, m.higher_is_better) < 0.0)
    });
    // As in the driver's acceptance rule, `setup_s` answers for its
    // median only: a set-up is a quarter of a second of work and its
    // spread is the machine's.
    if m.name != "setup_s" && (spread(a) > m.bound || spread(b) > m.bound) {
        // Too noisy to say "unchanged" - unless every run of b beats
        // every run of a.
        return if clear_win { "better" } else { "unresolved" };
    }
    if worse_by > m.bound {
        "worse"
    } else if clear_win || -worse_by > spread(a).max(m.bound) {
        "better"
    } else {
        "within"
    }
}

/// Prints the table; `Ok(true)` when no row is `worse` or `unresolved`.
pub fn compare(a_path: &Path, b_path: &Path, benchmark: &Path) -> Result<bool, String> {
    let bench = load_benchmark(benchmark)?;
    let read = |p: &Path| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (a_runs, b_runs) = (read(a_path)?, read(b_path)?);
    println!(
        "{:<22} {:<13} {:>4} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "n", "median a", "median b", "delta", "iqr a", "iqr b", "bound"
    );
    let mut clean = true;
    for w in &bench.workloads {
        for m in &bench.end_to_end {
            let a = values(&a_runs, w, &m.name);
            let b = values(&b_runs, w, &m.name);
            if a.is_empty() || b.is_empty() {
                println!("{w:<22} {:<13} no runs on one side", m.name);
                clean = false;
                continue;
            }
            let v = verdict(&a, &b, m);
            clean &= v == "better" || v == "within";
            println!(
                "{w:<22} {:<13} {:>4} {:>14.4} {:>14.4} {:>+7.1}% {:>7.1}% {:>7.1}% {:>5.0}%  {v}",
                m.name,
                a.len().min(b.len()),
                median(&a),
                median(&b),
                100.0 * (median(&b) - median(&a)) / median(&a).abs().max(f64::MIN_POSITIVE),
                100.0 * spread(&a),
                100.0 * spread(&b),
                100.0 * m.bound,
            );
        }
    }
    Ok(clean)
}
