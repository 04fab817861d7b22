//! Smoke test of the benchmark binary at toy size: every workload,
//! untraced and traced, must emit exactly the metrics `BENCHMARK.json`
//! declares, hold the layer-sum tolerance, and pass its gates — and the
//! gates must fire when a batch is dropped on purpose.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde_json::Value;

#[path = "../benches/json.rs"]
#[allow(dead_code)]
mod json;

const EXE: &str = env!("CARGO_BIN_EXE_fremont-e2e");
const WORKLOADS: [&str; 4] = [
    "survey_mem",
    "survey_remote_durable",
    "journal_replay_local",
    "journal_rpc_mixed",
];

/// The field `key` of a JSON object.
fn get<'a>(v: &'a Value, key: &str) -> &'a Value {
    json::get(v, key).unwrap_or_else(|| panic!("no key {key} in {v:?}"))
}

fn text(v: &Value) -> &str {
    json::as_str(v).unwrap_or_else(|| panic!("not a string: {v:?}"))
}

fn number(v: &Value) -> f64 {
    json::as_f64(v).unwrap_or_else(|| panic!("not a number: {v:?}"))
}

fn benchmark_json() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json")
}

fn out_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("e2e-smoke");
    std::fs::create_dir_all(&dir).expect("create out dir");
    dir
}

/// Runs one workload at toy size; exit status and the parsed last line.
fn run(workload: &str, trace: &str, extra: &[&str]) -> (bool, Value) {
    let out = Command::new(EXE)
        .args(["--workload", workload, "--trace", trace, "--seed", "1993"])
        .args(["--sim-minutes", "5", "--seconds", "1"])
        .arg("--out-dir")
        .arg(out_dir())
        .args(extra)
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result = serde_json::from_str(last).unwrap_or_else(|e| {
        panic!(
            "{workload}: last line is not JSON ({e}): {last}\nstderr: {}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    (out.status.success(), result)
}

/// `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
fn declared(bench: &Value, list: &str) -> Vec<(String, String)> {
    json::as_array(get(bench, list))
        .iter()
        .map(|m| {
            (
                text(get(m, "name")).to_owned(),
                text(get(m, "unit")).to_owned(),
            )
        })
        .collect()
}

#[test]
fn every_workload_emits_the_declared_metrics_and_gates_fire() {
    let bench: Value = serde_json::from_str(
        &std::fs::read_to_string(benchmark_json()).expect("read BENCHMARK.json"),
    )
    .expect("BENCHMARK.json parses");
    let declared_workloads: Vec<&str> = json::as_array(get(&bench, "workloads"))
        .iter()
        .map(|w| text(get(w, "name")))
        .collect();
    assert_eq!(declared_workloads, WORKLOADS);

    let mut records = Vec::new();
    for workload in WORKLOADS {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let (ok, result) = run(workload, trace, &[]);
            assert!(ok, "{workload} trace {trace} exited nonzero: {result:?}");
            assert_eq!(get(&result, "correct"), &Value::Bool(true));
            assert_eq!(number(get(&result, "failed")), 0.0);
            assert!(number(get(&result, "attempted")) >= 1.0);

            let Value::Object(metrics) = get(&result, "metrics") else {
                panic!("metrics is not an object");
            };
            let emitted: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| (name.clone(), text(get(m, "unit")).to_owned()))
                .collect();
            assert_eq!(
                emitted,
                declared(&bench, list),
                "{workload} trace {trace}: emitted metrics differ from BENCHMARK.json"
            );
            for (name, m) in metrics {
                assert!(
                    !name.is_empty()
                        && name
                            .chars()
                            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "metric name {name:?}"
                );
                let value = number(get(m, "value"));
                assert!(value.is_finite(), "{workload} {name} = {value}");
                if trace == "0" {
                    assert!(
                        value > 0.0,
                        "{workload} {name} = {value}: end-to-end metrics are never 0"
                    );
                }
            }
            if trace == "1" && workload.starts_with("survey") {
                let ratio = number(get(
                    get(get(&result, "metrics"), "core.layer_sum_ratio"),
                    "value",
                ));
                assert!(
                    (ratio - 1.0).abs() <= 0.02,
                    "{workload} layer sum ratio {ratio}"
                );
            }
            records.push(format!(
                "{{\"workload\": \"{workload}\", \"seed\": 1993, \"trace\": {trace}, \"result\": {}}}",
                serde_json::to_string(&result).expect("re-serialize")
            ));
        }
    }

    // A dropped batch must trip the fingerprint gates.
    for workload in ["survey_remote_durable", "journal_replay_local"] {
        let (ok, result) = run(workload, "0", &["--inject", "drop-batch"]);
        assert!(!ok, "{workload}: a dropped batch went unnoticed");
        assert_eq!(get(&result, "correct"), &Value::Bool(false));
        assert!(number(get(&result, "failed")) >= 1.0);
    }

    // A set of runs agrees with itself.
    let runs = out_dir().join("runs.json");
    std::fs::write(&runs, format!("[{}]", records.join(","))).expect("write runs file");
    let out = Command::new(EXE)
        .arg("compare")
        .args([&runs, &runs])
        .arg("--benchmark")
        .arg(benchmark_json())
        .output()
        .expect("run compare");
    let table = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "compare failed:\n{table}");
    let rows = table.lines().filter(|l| l.ends_with("within")).count();
    assert_eq!(
        rows,
        WORKLOADS.len() * declared(&bench, "end_to_end").len(),
        "one row per workload and end-to-end metric:\n{table}"
    );
}
