//! `fremont-mc`: bounded model checking over fault interleavings.
//!
//! ```text
//! fremont-mc [--budget N] [--deep] [--seed N] [--json]
//!            [--require-states N] [--emit-dir DIR] [--assert-quiet]
//!            [--replay FIXTURE.json]
//! ```
//!
//! Exit codes: `0` all invariants hold (or replay reproduced), `1`
//! invariant violations found (or replay failed to reproduce), `2`
//! usage or infrastructure error.

use std::path::PathBuf;
use std::process::ExitCode;

use fremont_mc::{replay, McConfig, ModelChecker};
use fremont_telemetry::Telemetry;

struct Args {
    budget: usize,
    deep: bool,
    seed: u64,
    json: bool,
    require_states: Option<u64>,
    emit_dir: PathBuf,
    assert_quiet: bool,
    replay: Option<PathBuf>,
}

const USAGE: &str = "usage: fremont-mc [--budget N] [--deep] [--seed N] [--json] \
[--require-states N] [--emit-dir DIR] [--assert-quiet] [--replay FIXTURE.json]";

/// Where counterexample fixtures go unless `--emit-dir` says otherwise:
/// their own directory, not `scenarios/`, where every test that reads
/// each `*.json` as a fault plan would trip over them.
const DEFAULT_EMIT_DIR: &str = "mc-fixtures";

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        budget: 2000,
        deep: false,
        seed: 1993,
        json: false,
        require_states: None,
        emit_dir: PathBuf::from(DEFAULT_EMIT_DIR),
        assert_quiet: false,
        replay: None,
    };
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--budget" => {
                args.budget = value("--budget")?
                    .parse()
                    .map_err(|e| format!("--budget: {e}"))?;
            }
            "--deep" => args.deep = true,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--json" => args.json = true,
            "--require-states" => {
                args.require_states = Some(
                    value("--require-states")?
                        .parse()
                        .map_err(|e| format!("--require-states: {e}"))?,
                );
            }
            "--emit-dir" => args.emit_dir = PathBuf::from(value("--emit-dir")?),
            "--assert-quiet" => args.assert_quiet = true,
            "--replay" => args.replay = Some(PathBuf::from(value("--replay")?)),
            "--help" | "-h" => return Err(USAGE.to_owned()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(args)
}

fn run_replay(path: &std::path::Path, json: bool) -> ExitCode {
    match replay(path) {
        Ok((fixture, violations)) => {
            let reproduced = !violations.is_empty();
            if json {
                let out = serde_json::json!({
                    "fixture": path.display().to_string(),
                    "invariant": fixture.invariant,
                    "seed": fixture.seed,
                    "reproduced": reproduced,
                    "violations": violations.iter().map(|v| v.detail.clone()).collect::<Vec<_>>(),
                });
                match serde_json::to_string(&out) {
                    Ok(line) => println!("{line}"),
                    Err(e) => eprintln!("fremont-mc: json encoding failed: {e}"),
                }
            } else if reproduced {
                println!(
                    "reproduced [{}] with {} event(s): {}",
                    fixture.invariant,
                    fixture.plan.len(),
                    violations[0].detail
                );
            } else {
                println!(
                    "fixture [{}] did NOT reproduce (invariant holds now)",
                    fixture.invariant
                );
            }
            if reproduced {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("fremont-mc: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &args.replay {
        return run_replay(path, args.json);
    }

    let (telemetry, recorder) = Telemetry::recording();
    let mut cfg = McConfig::new(args.budget);
    cfg.seed = args.seed;
    cfg.max_depth = if args.deep { 4 } else { 3 };
    cfg.assert_quiet = args.assert_quiet;
    cfg.emit_dir = Some(args.emit_dir);
    cfg.telemetry = telemetry;
    let report = match ModelChecker::new(cfg).run() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fremont-mc: {e}");
            return ExitCode::from(2);
        }
    };

    if args.json {
        let out = serde_json::json!({
            "seed": args.seed,
            "budget": args.budget,
            "deep": args.deep,
            "states_explored": report.states_explored,
            "states_pruned": report.states_pruned,
            "schedules_checked": report.schedules_checked,
            "distinct_states": report.distinct_states,
            "violations": report.violations,
            "budget_exhausted": report.budget_exhausted,
            "quiescent_at_secs": report.quiescent_at_secs,
            "counterexamples": report
                .counterexamples
                .iter()
                .map(|c| {
                    serde_json::json!({
                        "invariant": c.fixture.invariant,
                        "detail": c.fixture.detail,
                        "found_in": c.found_in,
                        "original_events": c.original_len,
                        "minimal_events": c.fixture.plan.len(),
                        "fixture": c.path.as_ref().map(|p| p.display().to_string()),
                    })
                })
                .collect::<Vec<_>>(),
            "metrics": recorder.expose(),
        });
        match serde_json::to_string(&out) {
            Ok(line) => println!("{line}"),
            Err(e) => eprintln!("fremont-mc: json encoding failed: {e}"),
        }
    } else {
        println!(
            "fremont-mc: seed {} budget {} — explored {} ({} distinct end states), \
             pruned {}, checked {} schedules, quiescent at {}s{}",
            args.seed,
            args.budget,
            report.states_explored,
            report.distinct_states,
            report.states_pruned,
            report.schedules_checked,
            report.quiescent_at_secs,
            if report.budget_exhausted {
                " (budget exhausted)"
            } else {
                ""
            },
        );
        if report.violations == 0 {
            println!("all invariants hold across every checked interleaving");
        } else {
            println!("{} invariant violation(s):", report.violations);
            for c in &report.counterexamples {
                println!(
                    "  [{}] first seen in `{}` ({} events), minimized to {} event(s)",
                    c.fixture.invariant,
                    c.found_in,
                    c.original_len,
                    c.fixture.plan.len(),
                );
                println!("    {}", c.fixture.detail);
                if let Some(p) = &c.path {
                    println!("    fixture: {}", p.display());
                }
            }
        }
    }

    let mut failed = report.violations > 0;
    if let Some(need) = args.require_states {
        if report.states_explored < need {
            eprintln!(
                "fremont-mc: explored {} states, required at least {need}",
                report.states_explored
            );
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        parse_args(argv.iter().map(|a| (*a).to_owned()))
    }

    #[test]
    fn fixtures_go_outside_scenarios_by_default() {
        for argv in [&[][..], &["--deep"], &["--assert-quiet", "--budget", "40"]] {
            let args = parse(argv).map_err(|e| format!("{argv:?}: {e}"));
            let emit_dir = args.map(|a| a.emit_dir);
            assert_eq!(emit_dir, Ok(PathBuf::from("mc-fixtures")), "{argv:?}");
        }
        let chosen = parse(&["--emit-dir", "scenarios"]).map(|a| a.emit_dir);
        assert_eq!(chosen, Ok(PathBuf::from("scenarios")), "still a flag away");
    }
}
