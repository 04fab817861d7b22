//! Checks that read the workspace's program code as a whole: no wall
//! clock or ambient entropy outside test code, the clippy lints denied
//! where panics and discarded `Result`s must not be, and the lock
//! structure that makes lock order a fact rather than a rule (DESIGN.md
//! § 6), each with seeded mutations that must break it.

use std::path::{Path, PathBuf};

use fremont_lint::callgraph::CallGraph;
use fremont_lint::lexer::{matching_close, Tok, TokKind};
use fremont_lint::{find_workspace_root, SourceFile, Workspace};

fn real_workspace() -> (Workspace, PathBuf) {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("lint crate lives inside the workspace");
    let ws = Workspace::load(&root).expect("workspace sources readable");
    (ws, root)
}

/// Types whose mention in program code reads a wall clock.
const CLOCKS: [&str; 2] = ["SystemTime", "Instant"];

/// Functions and types that draw from ambient entropy (`rand::random`
/// is matched as `::random`).
const ENTROPY: [&str; 4] = ["thread_rng", "from_entropy", "OsRng", "getrandom"];

/// Every wall-clock or unseeded-entropy name outside test code, as
/// `path:line: name`. `Workspace::load` already leaves out `tests/`,
/// `benches/`, `examples/` and `vendor/`; string literals and comments
/// are not code tokens.
fn nondeterminism(ws: &Workspace) -> Vec<String> {
    let mut out = Vec::new();
    for f in &ws.files {
        let code = &f.code;
        for (i, t) in code.iter().enumerate() {
            if t.kind != TokKind::Ident || f.in_test(t.line) {
                continue;
            }
            let name = t.text.as_str();
            if CLOCKS.contains(&name)
                || ENTROPY.contains(&name)
                || (name == "random"
                    && punct_at(code, i.wrapping_sub(1), ':')
                    && punct_at(code, i.wrapping_sub(2), ':'))
            {
                out.push(format!("{}:{}: {name}", f.path, t.line));
            }
        }
    }
    out
}

/// A discovery run must replay from its seed: the Journal stamps
/// observations with simulated time and every explorer draws from the
/// simulator's seeded RNG, so one `Instant::now()` in program code makes
/// a replay diverge from the run it replays.
#[test]
fn workspace_is_clean() {
    let (ws, _) = real_workspace();
    let found = nondeterminism(&ws);
    assert!(
        found.is_empty(),
        "program code reads a wall clock or ambient entropy; use simulated time \
         and a seeded RNG: {found:#?}"
    );
}

const EXPLORER: &str = "crates/explorers/src/seqping.rs";

#[test]
fn a_wall_clock_in_an_explorer_fails_the_build() {
    let ws = workspace_with_appended(
        EXPLORER,
        "pub fn lint_probe() -> u64 {\n    \
         let t = std::time::Instant::now();\n    \
         let s = std::time::SystemTime::now();\n    \
         rand::thread_rng().gen::<u64>() ^ rand::random::<u64>()\n}\n",
    );
    let found = nondeterminism(&ws);
    for name in ["Instant", "SystemTime", "thread_rng", "random"] {
        assert!(
            found
                .iter()
                .any(|m| m.starts_with(EXPLORER) && m.ends_with(&format!(": {name}"))),
            "`{name}` in an explorer must be reported: {found:#?}"
        );
    }
}

#[test]
fn a_wall_clock_in_test_code_or_a_string_is_not_reported() {
    for append in [
        "#[cfg(test)]\nmod lint_probe {\n    fn f() {\n        \
         let _ = std::time::Instant::now();\n    }\n}\n",
        "pub fn lint_probe() -> &'static str {\n    \"Instant::now() thread_rng()\"\n}\n",
    ] {
        let found = nondeterminism(&workspace_with_appended(EXPLORER, append));
        assert!(found.is_empty(), "{append:?} reports {found:#?}");
    }
}

/// The clippy lints that keep panics and discarded `Result`s off the
/// discovery, Journal and WAL paths (DESIGN.md § 6).
const DENIED: [&str; 7] = [
    "unwrap_used",
    "expect_used",
    "panic",
    "todo",
    "unimplemented",
    "unreachable",
    "let_underscore_must_use",
];

/// The `key = value` lines of the TOML table headed `[table]`.
fn toml_table<'a>(manifest: &'a str, table: &str) -> Vec<&'a str> {
    let header = format!("[{table}]");
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| l.contains('='))
        .collect()
}

/// Crates outside the policy: the experiment and benchmark harnesses and
/// this test-support crate.
const HARNESS: [&str; 3] = ["bench", "e2e", "lint"];

/// Every attribute in program code outside tests that sets the level of
/// one of the denied lints, as `(path:line, level, gives a reason)`.
fn lint_levels(ws: &Workspace) -> Vec<(String, String, bool)> {
    let mut out = Vec::new();
    for f in ws.files.iter().filter(|f| is_program(&f.path)) {
        let code = &f.code;
        for (i, t) in code.iter().enumerate() {
            let in_attr = punct_at(code, i.wrapping_sub(1), '[')
                && (punct_at(code, i.wrapping_sub(2), '#')
                    || (punct_at(code, i.wrapping_sub(2), '!')
                        && punct_at(code, i.wrapping_sub(3), '#')));
            let level = t.text.as_str();
            if !["allow", "expect", "deny", "forbid"].contains(&level)
                || t.kind != TokKind::Ident
                || !in_attr
                || !punct_at(code, i + 1, '(')
                || f.in_test(t.line)
            {
                continue;
            }
            let args = &code[i + 1..=matching_close(code, i + 1)];
            if args.iter().any(|a| DENIED.contains(&a.text.as_str())) {
                out.push((
                    format!("{}:{}", f.path, t.line),
                    level.to_owned(),
                    args.iter().any(|a| a.is_ident("reason")),
                ));
            }
        }
    }
    out
}

/// Clippy runs in CI, not in `cargo test`: this pins that the workspace
/// table is the one place the seven lints are denied. The root package
/// and every program crate inherit it and state no level of their own,
/// and every exception in program code gives its reason.
#[test]
fn the_panic_and_discard_lints_stay_denied() {
    let (ws, root) = real_workspace();
    let read = |rel: &str| std::fs::read_to_string(root.join(rel)).expect("readable");
    let workspace = read("Cargo.toml");
    let table = toml_table(&workspace, "workspace.lints.clippy");
    for lint in DENIED {
        assert!(
            table.contains(&format!("{lint} = \"deny\"").as_str()),
            "the workspace denies clippy::{lint}"
        );
    }

    let mut manifests = vec!["Cargo.toml".to_owned()];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ readable") {
        let name = entry.expect("crates/ entry").file_name();
        let name = name.to_string_lossy();
        if !HARNESS.contains(&name.as_ref()) {
            manifests.push(format!("crates/{name}/Cargo.toml"));
        }
    }
    assert!(
        manifests.len() > 9,
        "every program crate is found: {manifests:?}"
    );
    for manifest in &manifests {
        let text = read(manifest);
        assert_eq!(
            toml_table(&text, "lints"),
            ["workspace = true"],
            "{manifest} inherits the workspace's denied lints"
        );
        assert!(
            toml_table(&text, "lints.clippy").is_empty(),
            "{manifest} states no lint table of its own"
        );
    }

    let levels = lint_levels(&ws);
    let own: Vec<_> = levels
        .iter()
        .filter(|(_, level, _)| level == "deny" || level == "forbid")
        .collect();
    assert!(
        own.is_empty(),
        "the workspace table denies these lints; no file restates them: {own:?}"
    );
    let reasonless: Vec<_> = levels.iter().filter(|(_, _, reason)| !reason).collect();
    assert!(
        reasonless.is_empty(),
        "an exception to a denied lint gives its `reason`: {reasonless:?}"
    );
}

#[test]
fn a_file_that_restates_a_denied_lint_is_reported() {
    let ws = workspace_with_appended(
        "crates/core/src/correlate.rs",
        "#[deny(clippy::unwrap_used)]\nfn lint_probe() {}\n",
    );
    let levels = lint_levels(&ws);
    assert!(
        levels.iter().any(
            |(at, level, _)| at.starts_with("crates/core/src/correlate.rs:") && level == "deny"
        ),
        "{levels:?}"
    );
}

/// The real workspace with `append` added to the end of the file at
/// `path`.
fn workspace_with_appended(path: &str, append: &str) -> Workspace {
    let (mut ws, root) = real_workspace();
    let idx = ws
        .files
        .iter()
        .position(|f| f.path == path)
        .expect("the mutated file is in the workspace");
    let content = std::fs::read_to_string(root.join(path)).expect("source readable");
    ws.files[idx] = SourceFile::new(path.to_owned(), &format!("{content}\n{append}"));
    ws
}

/// Where the argument these facts serve is written down.
const SEE: &str = "see DESIGN.md § 6, \"Four locks, one order\"";

/// Every lock in the program, as `Owner::field`, sorted.
const LOCKS: [&str; 4] = [
    "DurableJournal::wal",
    "Journal::store",
    "Recorder::inner",
    "RemoteJournal::io",
];

const STORE: &str = "crates/journal/src/store/mod.rs";

/// Direct file IO: path heads followed by `::`, methods followed by `(`.
const IO_PATHS: [&str; 3] = ["fs", "File", "OpenOptions"];
const IO_METHODS: [&str; 11] = [
    "sync_all",
    "sync_data",
    "sync_now",
    "flush",
    "write_all",
    "read_to_end",
    "read_to_string",
    "read_exact",
    "set_len",
    "seek",
    "rename",
];

/// True for program source: `src/` and `crates/*/src/`.
fn is_program(path: &str) -> bool {
    path.starts_with("src/")
        || (path.starts_with("crates/") && path.split('/').nth(2) == Some("src"))
}

fn punct_at(code: &[Tok], i: usize, c: char) -> bool {
    code.get(i).is_some_and(|t| t.is_punct(c))
}

/// `Owner::field` for a lock type at `i` inside a braced struct's
/// fields, else `path:line`.
fn lock_label(path: &str, code: &[Tok], i: usize) -> String {
    let owner = (0..i)
        .rev()
        .find(|&s| code[s].is_ident("struct"))
        .and_then(|s| {
            let open = (s..i).find(|&k| code[k].is_punct('{') || code[k].is_punct(';'))?;
            (code[open].is_punct('{') && i < matching_close(code, open))
                .then(|| code[s + 1].text.clone())
        });
    // The field's own `:`, not a path's `::`.
    let colon = (1..i).rev().find(|&k| {
        code[k].is_punct(':') && !punct_at(code, k - 1, ':') && !punct_at(code, k + 1, ':')
    });
    match (owner, colon) {
        (Some(owner), Some(k)) => format!("{owner}::{}", code[k - 1].text),
        _ => format!("{path}:{}", code[i].line),
    }
}

/// The structural facts DESIGN.md § 6 rests on for lock order, one
/// message per fact broken: (a) the program has exactly [`LOCKS`];
/// (b) only `begin_read`/`begin_write` in the store take the store lock
/// and only the store names its guards; (c) a store function holding
/// the guard calls no `self.` method but `begin_*` and `counters`, so
/// nothing is acquired and no query re-entered under it; (d) the store
/// and the `Recorder` do no file IO, and telemetry depends on no
/// workspace crate.
fn lock_structure(ws: &Workspace) -> Vec<String> {
    let cg = CallGraph::build(ws);
    let innermost_fn = |file: usize, i: usize| {
        cg.fns
            .iter()
            .filter(|f| f.file == file && f.body_start <= i && i <= f.body_end)
            .max_by_key(|f| f.body_start)
            .map(|f| f.name.as_str())
    };
    let mut out = Vec::new();
    let mut locks = Vec::new();
    for (fi, f) in ws.files.iter().enumerate() {
        if !is_program(&f.path) {
            continue;
        }
        let code = &f.code;
        for (i, t) in code.iter().enumerate() {
            if t.kind != TokKind::Ident || f.in_test(t.line) {
                continue;
            }
            let at = format!("{}:{}", f.path, t.line);
            match t.text.as_str() {
                "Mutex" | "RwLock" if punct_at(code, i + 1, '<') => {
                    locks.push(lock_label(&f.path, code, i));
                }
                "RwLockReadGuard" | "RwLockWriteGuard" if f.path != STORE => out.push(format!(
                    "(b) `{}` named at {at}: only the store hands out its guards; {SEE}",
                    t.text
                )),
                "store"
                    if punct_at(code, i.wrapping_sub(1), '.')
                        && punct_at(code, i + 1, '.')
                        && code
                            .get(i + 2)
                            .is_some_and(|m| m.is_ident("read") || m.is_ident("write"))
                        && punct_at(code, i + 3, '(') =>
                {
                    let taker = innermost_fn(fi, i);
                    if f.path != STORE || !matches!(taker, Some("begin_read" | "begin_write")) {
                        out.push(format!(
                            "(b) `.store.{}()` at {at}: the store lock is taken in \
                             `begin_read`/`begin_write` only; {SEE}",
                            code[i + 2].text
                        ));
                    }
                }
                name if (f.path.starts_with("crates/journal/src/store/")
                    || f.path.starts_with("crates/telemetry/src/"))
                    && ((IO_PATHS.contains(&name)
                        && punct_at(code, i + 1, ':')
                        && punct_at(code, i + 2, ':'))
                        || (IO_METHODS.contains(&name) && punct_at(code, i + 1, '('))) =>
                {
                    out.push(format!(
                        "(d) file IO `{name}` at {at}: the store and the `Recorder` are \
                         leaves that do no IO; {SEE}"
                    ));
                }
                _ => {}
            }
        }
    }
    locks.sort();
    if locks != LOCKS {
        out.push(format!(
            "(a) the program's locks are {locks:?}, not exactly {LOCKS:?}: a new lock \
             needs its place in the one order first; {SEE}"
        ));
    }

    for f in cg.fns.iter().filter(|f| !f.in_test) {
        let file = &ws.files[f.file];
        if !file.path.starts_with("crates/journal/src/store/") {
            continue;
        }
        let body = &file.code[f.body_start..f.body_end.min(file.code.len())];
        let holds = body.windows(2).any(|w| {
            (w[0].is_ident("begin_read") || w[0].is_ident("begin_write")) && w[1].is_punct('(')
        });
        if !holds {
            continue;
        }
        for k in 0..body.len() {
            if !(body[k].is_ident("self") && punct_at(body, k + 1, '.')) {
                continue;
            }
            let Some(head) = body.get(k + 2).filter(|t| t.kind == TokKind::Ident) else {
                continue;
            };
            if head.text.starts_with("begin_") || head.text == "counters" {
                continue;
            }
            let mut end = k + 2;
            while punct_at(body, end + 1, '.')
                && body.get(end + 2).is_some_and(|t| t.kind == TokKind::Ident)
            {
                end += 2;
            }
            if punct_at(body, end + 1, '(') {
                let call: Vec<&str> = body[k..=end].iter().map(|t| t.text.as_str()).collect();
                out.push(format!(
                    "(c) `{}` holds the store guard and calls `{}()` at {}:{}: nothing may \
                     be acquired, and no query re-entered, under the store lock; {SEE}",
                    f.name,
                    call.concat(),
                    file.path,
                    head.line
                ));
            }
        }
    }

    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("lint crate lives inside the workspace");
    let manifest = std::fs::read_to_string(root.join("crates/telemetry/Cargo.toml"))
        .expect("telemetry manifest readable");
    for dep in manifest
        .lines()
        .filter(|l| l.trim_start().starts_with("fremont-"))
    {
        out.push(format!(
            "(d) crates/telemetry/Cargo.toml depends on `{}`: the `Recorder` is a leaf \
             that calls into no workspace crate; {SEE}",
            dep.trim()
        ));
    }
    out
}

#[test]
fn the_four_locks_keep_their_one_order() {
    let (ws, _) = real_workspace();
    let problems = lock_structure(&ws);
    assert!(problems.is_empty(), "{problems:#?}");
}

/// `lock_structure` after appending `append` to the file at `path`:
/// asserts it reports the broken fact `fact` and mentions `needle`.
fn assert_mutation_breaks(path: &str, append: &str, fact: &str, needle: &str) {
    let problems = lock_structure(&workspace_with_appended(path, append));
    assert!(
        problems
            .iter()
            .any(|m| m.starts_with(fact) && m.contains(needle) && m.contains(SEE)),
        "the mutation must break fact {fact} at `{needle}`: {problems:#?}"
    );
}

#[test]
fn an_inverted_lock_acquisition_fails_the_build() {
    // Store, then WAL: the inverse of the durable write path's order.
    assert_mutation_breaks(
        STORE,
        "impl Journal {\n    fn lint_probe_inverted(&self) -> u64 {\n        \
         let st = self.begin_read();\n        let w = self.wal.lock();\n        \
         w.next_seq + st.keys_version\n    }\n}\n",
        "(c)",
        "self.wal.lock()",
    );
}

#[test]
fn reentering_the_store_lock_fails_the_build() {
    // A query calling another query with the read guard held deadlocks
    // behind any waiting writer.
    assert_mutation_breaks(
        STORE,
        "impl Journal {\n    fn lint_probe_reentrant(&self) -> usize {\n        \
         let st = self.begin_read();\n        \
         self.get_gateways().len() + st.keys_version as usize\n    }\n}\n",
        "(c)",
        "self.get_gateways()",
    );
}

#[test]
fn a_fifth_lock_fails_the_build() {
    assert_mutation_breaks(
        "crates/core/src/driver.rs",
        "pub struct LintProbe {\n    extra: std::sync::Mutex<u8>,\n}\n",
        "(a)",
        "LintProbe::extra",
    );
}
