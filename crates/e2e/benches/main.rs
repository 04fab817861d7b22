//! The Fremont benchmark: four workloads from the simulator to the WAL,
//! end-to-end and layer by layer. See `crates/e2e/README.md`.
//!
//! ```sh
//! fremont-e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! fremont-e2e [--seed <n>] [--seconds <s>] [--out runs.json]   # every workload, both ways
//! fremont-e2e compare <a.json> <b.json>
//! ```
//!
//! The sources live under `benches/` because they read the wall clock,
//! which `fremont-lint`'s determinism rule keeps out of `src/` trees.

mod compare;
mod harness;
mod inputs;
mod json;
mod probe;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use workloads::{Ctx, Opts, WORKLOADS};

const USAGE: &str = "usage:
  fremont-e2e --workload <name> [--seed N] [--seconds S] [--trace 0|1]
              [--sim-minutes M] [--out-dir DIR] [--inject drop-batch]
  fremont-e2e [--seed N] [--seconds S] [--sim-minutes M] [--out-dir DIR] [--out FILE]
  fremont-e2e compare <a.json> <b.json> [--benchmark BENCHMARK.json]
workloads: survey_mem survey_remote_durable journal_replay_local journal_rpc_mixed";

fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n{USAGE}");
    ExitCode::from(2)
}

/// Where build products live: the WAL directories and the span files go
/// beside them, so `.gitignore` already covers what a run leaves.
fn default_out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    Path::new(&target).join("fremont-e2e")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare_command(&args[1..]);
    }

    let mut workload = None;
    let mut out_file = None;
    let mut opts = Opts {
        workload: String::new(),
        seed: 1993,
        seconds: 15.0,
        trace: false,
        sim_minutes: 120,
        out_dir: default_out_dir(),
        inject_drop: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return fail(&format!("{flag} needs a value"));
        };
        let parsed = match flag.as_str() {
            "--workload" => {
                workload = Some(value.clone());
                WORKLOADS.contains(&value.as_str())
            }
            "--seed" => value.parse().map(|v| opts.seed = v).is_ok(),
            "--seconds" => value
                .parse()
                .map(|v| opts.seconds = v)
                .is_ok_and(|()| opts.seconds > 0.0),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    opts.trace = value == "1";
                    true
                }
                _ => false,
            },
            "--sim-minutes" => value
                .parse()
                .map(|v| opts.sim_minutes = v)
                .is_ok_and(|()| opts.sim_minutes > 0),
            "--out-dir" => {
                opts.out_dir = PathBuf::from(value);
                true
            }
            "--out" => {
                out_file = Some(PathBuf::from(value));
                true
            }
            "--inject" => {
                opts.inject_drop = value == "drop-batch";
                opts.inject_drop
            }
            _ => return fail(&format!("unknown argument {flag}")),
        };
        if !parsed {
            return fail(&format!("bad value for {flag}: {value}"));
        }
    }
    if let Err(e) = std::fs::create_dir_all(&opts.out_dir) {
        eprintln!("error: cannot create {}: {e}", opts.out_dir.display());
        return ExitCode::FAILURE;
    }
    match workload {
        Some(w) => {
            opts.workload = w;
            run_one(opts)
        }
        None => run_all(&opts, out_file.as_deref()),
    }
}

/// One workload in this process; the result object is the last line.
fn run_one(opts: Opts) -> ExitCode {
    let ctx = Ctx::new(opts);
    let opts = &ctx.opts;
    println!(
        "workload {} seed {} seconds {} trace {} sim-minutes {} (nproc {})",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        opts.sim_minutes,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let report = workloads::run(&ctx);
    ctx.remove_dirs();
    report.print_table(opts.trace);
    if opts.trace {
        println!("  self time by span (span minus its children):");
        for (name, self_s, count) in ctx.tracer.self_times() {
            println!("    {name:<28} {self_s:>10.4} s  {count:>7} spans");
        }
        let path = opts
            .out_dir
            .join(format!("spans-{}-{}.jsonl", opts.workload, opts.seed));
        match ctx.tracer.write_jsonl(&path) {
            Ok(n) => println!("  {n} spans written to {}", path.display()),
            Err(e) => {
                eprintln!("error: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{}", report.result_json(opts.trace));
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload, untraced then traced, each in a child process of its
/// own (so that `peak_rss_mb` is the workload's and nothing else's).
fn run_all(opts: &Opts, out_file: Option<&Path>) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut records = Vec::new();
    let mut all_ok = true;
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            let output = Command::new(&exe)
                .args(["--workload", workload, "--trace", trace])
                .args(["--seed", &opts.seed.to_string()])
                .args(["--seconds", &opts.seconds.to_string()])
                .args(["--sim-minutes", &opts.sim_minutes.to_string()])
                .arg("--out-dir")
                .arg(&opts.out_dir)
                .stderr(std::process::Stdio::inherit())
                .output();
            let output = match output {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("error: cannot run {}: {e}", exe.display());
                    return ExitCode::FAILURE;
                }
            };
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            all_ok &= output.status.success();
            if let Some(result) = stdout.lines().last().filter(|l| l.starts_with('{')) {
                records.push(format!(
                    "{{\"workload\": \"{workload}\", \"seed\": {}, \"trace\": {trace}, \"result\": {result}}}",
                    opts.seed
                ));
            }
        }
    }
    if let Some(path) = out_file {
        if let Err(e) = append_records(path, &records) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Adds `records` to the JSON array in `path` (created when missing).
fn append_records(path: &Path, records: &[String]) -> Result<(), String> {
    let mut all: Vec<String> = match std::fs::read_to_string(path) {
        Ok(text) => {
            let v: serde_json::Value =
                serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            json::as_array(&v)
                .iter()
                .map(|r| serde_json::to_string(r).map_err(|e| e.to_string()))
                .collect::<Result<_, _>>()?
        }
        Err(_) => Vec::new(),
    };
    all.extend_from_slice(records);
    std::fs::write(path, format!("[\n{}\n]\n", all.join(",\n")))
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn compare_command(args: &[String]) -> ExitCode {
    let (mut files, mut benchmark) = (Vec::new(), PathBuf::from("BENCHMARK.json"));
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match (a.as_str(), a.starts_with("--")) {
            ("--benchmark", _) => match it.next() {
                Some(p) => benchmark = PathBuf::from(p),
                None => return fail("--benchmark needs a path"),
            },
            (_, true) => return fail(&format!("unknown argument {a}")),
            _ => files.push(PathBuf::from(a)),
        }
    }
    let [a, b] = files.as_slice() else {
        return fail("compare takes two runs files");
    };
    match compare::compare(a, b, &benchmark) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
