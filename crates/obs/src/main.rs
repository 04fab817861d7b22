//! `fremont-obs`: trace stitching, folding, and validation from the
//! command line.
//!
//! ```text
//! fremont-obs stitch driver.jsonl server.jsonl [--out stitched.jsonl]
//! fremont-obs fold trace.jsonl [--out profile.folded]
//! fremont-obs validate trace.jsonl [more.jsonl ...]
//! ```
//!
//! `stitch` merges per-process JSONL traces into one causal tree
//! (driver file first — input order breaks timestamp ties). `fold`
//! renders a trace as flamegraph-compatible folded stacks keyed by
//! logical work units. `validate` checks structural invariants and
//! prints a one-line summary per file. Output goes to stdout unless
//! `--out` is given; errors exit nonzero.

use std::process::ExitCode;

use fremont_telemetry::profile::fold_events;
use fremont_telemetry::trace::{parse_jsonl, stitch_jsonl, validate};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("fremont-obs: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage: fremont-obs <stitch|fold|validate> <trace.jsonl>... [--out PATH]";

fn run(args: &[String]) -> Result<(), String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(USAGE.into());
    };
    let (files, out) = split_out(rest)?;
    if files.is_empty() {
        return Err(USAGE.into());
    }
    match cmd.as_str() {
        "stitch" => {
            let texts: Vec<String> = files
                .iter()
                .map(|p| read(p))
                .collect::<Result<_, String>>()?;
            write_out(out, &stitch_jsonl(&texts)?)
        }
        "fold" => {
            if files.len() != 1 {
                return Err("fold takes exactly one trace file".into());
            }
            let events = parse_jsonl(&read(&files[0])?).map_err(|e| fmt_err(&files[0], &e))?;
            write_out(out, &fold_events(&events))
        }
        "validate" => {
            if out.is_some() {
                return Err("validate does not take --out".into());
            }
            for path in &files {
                let events = parse_jsonl(&read(path)?).map_err(|e| fmt_err(path, &e))?;
                let s = validate(&events).map_err(|e| fmt_err(path, &e))?;
                println!(
                    "{path}: ok events={} spans={} max_depth={}",
                    s.events, s.spans, s.max_depth
                );
            }
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    }
}

/// Splits `--out PATH` (anywhere in the tail) from the file list.
fn split_out(rest: &[String]) -> Result<(Vec<String>, Option<String>), String> {
    let mut files = Vec::new();
    let mut out = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        if arg == "--out" {
            let path = it.next().ok_or("--out needs a path")?;
            if out.replace(path.clone()).is_some() {
                return Err("--out given twice".into());
            }
        } else if let Some(stripped) = arg.strip_prefix("--") {
            return Err(format!("unknown flag --{stripped}\n{USAGE}"));
        } else {
            files.push(arg.clone());
        }
    }
    Ok((files, out))
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

fn write_out(out: Option<String>, text: &str) -> Result<(), String> {
    match out {
        Some(path) => std::fs::write(&path, text).map_err(|e| format!("{path}: {e}")),
        None => {
            print!("{text}");
            Ok(())
        }
    }
}

fn fmt_err(path: &str, e: &str) -> String {
    format!("{path}: {e}")
}
