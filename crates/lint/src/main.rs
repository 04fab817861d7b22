//! `fremont-lint` CLI.
//!
//! ```text
//! cargo run -p fremont-lint                 # human report, exit 1 on errors
//! cargo run -p fremont-lint -- --deny       # warnings are fatal too (CI)
//! cargo run -p fremont-lint -- --json       # machine-readable report (schema 2)
//! cargo run -p fremont-lint -- --write-golden   # regenerate both goldens
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use fremont_lint::{analyze, find_workspace_root, report, Config, Workspace};

const USAGE: &str = "usage: fremont-lint [--json] [--deny] [--write-golden] \
                     [--root <dir>] [--max-suppressions <n>]";

fn main() -> ExitCode {
    let mut json = false;
    let mut deny = false;
    let mut write_golden = false;
    let mut root: Option<PathBuf> = None;
    let mut max_suppressions: Option<usize> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--deny" => deny = true,
            "--write-golden" => write_golden = true,
            "--root" => match args.next() {
                Some(d) => root = Some(PathBuf::from(d)),
                None => return usage_error("--root needs a directory"),
            },
            "--max-suppressions" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) => max_suppressions = Some(n),
                None => return usage_error("--max-suppressions needs a number"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown flag `{other}`")),
        }
    }

    // Root: explicit flag, else walk up from the current directory, else
    // from this crate's own manifest (so `cargo run -p fremont-lint`
    // works from anywhere inside the workspace).
    let root = root
        .or_else(|| {
            std::env::current_dir()
                .ok()
                .and_then(|d| find_workspace_root(&d))
        })
        .or_else(|| find_workspace_root(&PathBuf::from(env!("CARGO_MANIFEST_DIR"))));
    let Some(root) = root else {
        eprintln!("fremont-lint: no workspace root found (no Cargo.toml with [workspace])");
        return ExitCode::from(2);
    };

    let ws = match Workspace::load(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!(
                "fremont-lint: failed to read workspace at {}: {e}",
                root.display()
            );
            return ExitCode::from(2);
        }
    };

    let mut cfg = Config::for_root(root);
    if let Some(n) = max_suppressions {
        cfg.max_suppressions = n;
    }

    let (analysis, goldens) = analyze(&ws, &cfg, write_golden);
    if let Some(g) = goldens {
        for (rel, content) in [
            (&cfg.golden_path, &g.wal_schema),
            (&cfg.metrics_golden_path, &g.metrics),
        ] {
            let path = cfg.root.join(rel);
            if let Err(e) = std::fs::write(&path, content) {
                eprintln!("fremont-lint: failed to write {}: {e}", path.display());
                return ExitCode::from(2);
            }
            println!("fremont-lint: wrote {rel}");
        }
        return ExitCode::SUCCESS;
    }

    let out = if json {
        report::json(&analysis, cfg.max_suppressions)
    } else {
        report::human(&analysis, cfg.max_suppressions)
    };
    print!("{out}");

    let failing = analysis.errors() > 0 || (deny && analysis.warnings() > 0);
    if failing {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("fremont-lint: {msg}\n{USAGE}");
    ExitCode::from(2)
}
