//! `fremont-lint` CLI.
//!
//! ```text
//! cargo run -p fremont-lint                 # human report, exit 1 on errors
//! cargo run -p fremont-lint -- --deny       # warnings are fatal too (CI)
//! cargo run -p fremont-lint -- --json       # machine-readable report (schema 3)
//! cargo run -p fremont-lint -- --write-golden   # regenerate the WAL-schema golden
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use fremont_lint::{analyze, find_workspace_root, report, Config, Workspace};

const USAGE: &str = "usage: fremont-lint [--json] [--deny] [--write-golden] [--root <dir>]";

fn main() -> ExitCode {
    let mut json = false;
    let mut deny = false;
    let mut write_golden = false;
    let mut root: Option<PathBuf> = None;

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

    let cfg = Config::for_root(root);

    let (analysis, golden) = analyze(&ws, &cfg, write_golden);
    if let Some(content) = golden {
        let path = cfg.root.join(&cfg.golden_path);
        if let Err(e) = std::fs::write(&path, content) {
            eprintln!("fremont-lint: failed to write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("fremont-lint: wrote {}", cfg.golden_path);
        return ExitCode::SUCCESS;
    }

    let out = if json {
        report::json(&analysis)
    } else {
        report::human(&analysis)
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
