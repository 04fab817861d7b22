//! The four workloads. Each sets itself up (five times; the median is
//! `setup_s`), measures for `--seconds`, checks its outputs, and fills
//! a [`Report`]. Every layer is measured from outside, by timing calls
//! into the program's public functions.
//!
//! A traced run measures twice: half of `--seconds` as an untraced run
//! does, half with a recording `Telemetry` sink attached and spans
//! kept. The per-layer numbers come from the second half, and
//! `telemetry.overhead_ratio` is the second half's `wall_s` over the
//! first's.
//!
//! Times are those of the fastest pass, and latencies the fastest round
//! per operation (see [`Best`]): on a shared machine interference only
//! ever adds time, and the minimum repeats from run to run where the
//! median of the same passes moves by 13 %.

use std::cell::RefCell;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use fremont_core::analysis::ProblemReport;
use fremont_core::correlate::correlate;
use fremont_core::driver::DiscoveryDriver;
use fremont_journal::client::RemoteJournal;
use fremont_journal::proto::{decode_frame, write_frame, Request, RequestEnvelope, TraceContext};
use fremont_journal::{JTime, JournalAccess, JournalServer, SharedJournal};
use fremont_netsim::campus::CampusConfig;
use fremont_netsim::time::SimDuration;
use fremont_storage::{DurableJournal, WalConfig};
use fremont_telemetry::{Recorder, Telemetry};

use crate::harness::{median, micros, peak_rss_mb, percentile, secs, Best, Report, Tracer};
use crate::inputs::{
    self, group_len, shifted, Inputs, ReadOp, Stream, PUMP_SECS, READ_CYCLE, READ_ROUND,
};
use crate::probe::{Probe, ProbeState};

pub const WORKLOADS: &[&str] = &[
    "survey_mem",
    "survey_remote_durable",
    "journal_replay_local",
    "journal_rpc_mixed",
];

/// WAL group-commit size of the durable deployments (`EveryN(8)`).
const WAL_GROUP: usize = 8;
/// Campus seeds tried, from `--seed` upward, for a representative one.
const SEED_TRIES: u64 = 16;
/// Times a workload sets itself up; `setup_s` is the median.
const SETUPS: usize = 5;
/// Share of `--seconds` one round of reads may take (it stops early
/// over RPC while every read costs 44 ms).
const READ_SHARE: f64 = 0.2;
/// `ProblemReport::generate` thresholds (as `campus_survey --watch`).
const STALE_AFTER: u64 = 86_400;
const RECENT: u64 = 3_600;

pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Simulated minutes of the survey workloads and of the recorded
    /// stream.
    pub sim_minutes: u64,
    /// Where WAL directories and the span file go.
    pub out_dir: PathBuf,
    /// Self-test: drop one batch, so that the gates must fire.
    pub inject_drop: bool,
}

pub struct Ctx {
    pub opts: Opts,
    pub tracer: Arc<Tracer>,
    /// Data directories handed out so far.
    dirs: RefCell<Vec<PathBuf>>,
}

impl Ctx {
    pub fn new(opts: Opts) -> Self {
        Ctx {
            opts,
            tracer: Arc::new(Tracer::new()),
            dirs: RefCell::new(Vec::new()),
        }
    }

    /// A fresh, empty data directory under the output directory.
    fn fresh_dir(&self) -> PathBuf {
        let mut dirs = self.dirs.borrow_mut();
        let dir = self.opts.out_dir.join(format!(
            "data-{}-{}-{}",
            self.opts.workload,
            std::process::id(),
            dirs.len()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dirs.push(dir.clone());
        dir
    }

    /// Removes whatever data directories the passes left behind (those
    /// of the set-ups that were not measured on).
    pub fn remove_dirs(&self) {
        for dir in self.dirs.borrow().iter() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    /// 1-based index of the store call to drop (0 = none).
    fn drop_store(&self) -> u64 {
        if self.opts.inject_drop {
            3
        } else {
            0
        }
    }

    /// Seconds one phase may measure: all of `--seconds` on an untraced
    /// run, half of it for each phase of a traced run.
    fn phase_budget(&self) -> f64 {
        if self.opts.trace {
            self.opts.seconds / 2.0
        } else {
            self.opts.seconds
        }
    }

    /// The sink a deployment of this phase gets.
    fn sink(&self, traced: bool) -> (Telemetry, Option<Arc<Recorder>>) {
        if traced {
            let (t, r) = Telemetry::recording();
            (t, Some(r))
        } else {
            (Telemetry::noop(), None)
        }
    }
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = match ctx.opts.workload.as_str() {
        "survey_mem" => survey_mem(ctx),
        "survey_remote_durable" => survey_remote_durable(ctx),
        "journal_replay_local" => journal_replay_local(ctx),
        "journal_rpc_mixed" => journal_rpc_mixed(ctx),
        other => unreachable!("workload {other} was validated by the caller"),
    };
    report.set("peak_rss_mb", peak_rss_mb());
    report
}

// ---------------------------------------------------------------------
// Set-up and pacing
// ---------------------------------------------------------------------

/// Resolves the campus seed and sets the workload up [`SETUPS`] times:
/// input generation (campus, recorded stream) plus whatever `extra`
/// builds on top (driver, server, connections). Returns the last
/// set-up's inputs and state, ready to measure.
fn set_up<S>(ctx: &Ctx, report: &mut Report, extra: impl Fn(&Inputs) -> S) -> (Inputs, S) {
    let once = |seed: u64| {
        let cfg = CampusConfig {
            seed,
            ..CampusConfig::default()
        };
        ctx.tracer.time("setup", "", 0, |_| {
            let inputs = inputs::record(&cfg, ctx.opts.sim_minutes);
            let state = extra(&inputs);
            (inputs, state)
        })
    };

    let mut setup_s = Vec::new();
    let mut ready = None;
    for seed in ctx.opts.seed..ctx.opts.seed.saturating_add(SEED_TRIES) {
        let ((inputs, state), took) = once(seed);
        if inputs.representative() {
            setup_s.push(secs(took));
            ready = Some((inputs, state));
            break;
        }
        eprintln!(
            "campus seed {seed}: not representative (subnets {}/{}, dns walk {}); trying the next",
            inputs.subnets_found, inputs.subnets_truth, inputs.dns_walked
        );
    }
    let Some((mut inputs, mut state)) = ready else {
        eprintln!(
            "no representative campus among {SEED_TRIES} seeds from {}",
            ctx.opts.seed
        );
        std::process::exit(1);
    };
    let mut generate_s = vec![inputs.generate_s];
    while setup_s.len() < SETUPS {
        drop(state);
        let ((i, s), took) = once(inputs.cfg.seed);
        setup_s.push(secs(took));
        generate_s.push(i.generate_s);
        (inputs, state) = (i, s);
    }
    println!("campus seed {} (--seed {})", inputs.cfg.seed, ctx.opts.seed);
    println!("{}", inputs.stream.shape());
    report.set("setup_s", median(&setup_s));
    report.set("netsim.generate_s", median(&generate_s));
    report.gate(
        "discovered connected subnets >= 95 % of CampusTruth",
        inputs.subnets_found * 100 >= inputs.subnets_truth * 95,
    );
    (inputs, state)
}

/// Runs `pass` until another one would not fit in `budget` seconds
/// (always at least once); returns what each pass returned.
fn run_passes<P>(budget: f64, wall_of: fn(&P) -> f64, mut pass: impl FnMut() -> P) -> Vec<P> {
    let start = Instant::now();
    let mut passes = Vec::new();
    loop {
        passes.push(pass());
        let walls: Vec<f64> = passes.iter().map(wall_of).collect();
        if secs(start.elapsed()) + median(&walls) > budget {
            return passes;
        }
    }
}

/// The pass that other tenants of the machine disturbed least.
fn fastest<P>(passes: &[P], wall_of: fn(&P) -> f64) -> &P {
    passes
        .iter()
        .min_by(|a, b| wall_of(a).total_cmp(&wall_of(b)))
        .expect("a phase runs at least one pass")
}

/// Per operation, the fastest of the passes' rounds.
fn best_of<'a>(rounds: impl Iterator<Item = &'a Vec<f64>>) -> Best {
    let mut best = Best::default();
    for round in rounds {
        best.add_round(round);
    }
    best
}

fn fingerprint(j: &SharedJournal) -> u64 {
    j.read(|j| j.fingerprint())
}

/// `wall_s`, `obs_per_s` and the two latency pairs, from what the
/// untraced passes measured.
fn set_end_to_end(
    report: &mut Report,
    walls: &[f64],
    obs_per_pass: u64,
    store: &Best,
    query: &Best,
) {
    let wall = percentile(walls, 0.0);
    report.set("wall_s", wall);
    report.set("obs_per_s", obs_per_pass as f64 / wall);
    report.set("store_p50_us", store.percentile(50.0));
    report.set("store_p95_us", store.percentile(95.0));
    report.set("query_p50_us", query.percentile(50.0));
    report.set("query_p95_us", query.percentile(95.0));
    report.note(format!(
        "{} passes, wall_s fastest {wall:.4} median {:.4}; {} store and {} query operations, \
         each the fastest of its rounds",
        walls.len(),
        median(walls),
        store.sampled().len(),
        query.sampled().len(),
    ));
}

// ---------------------------------------------------------------------
// Reads
// ---------------------------------------------------------------------

/// One round of the read sequence against `j`, timing each read; a read
/// that fails or returns nothing counts as failed. Stops early once the
/// round has taken its share of `--seconds`.
fn read_round<J: JournalAccess + ?Sized>(
    ctx: &Ctx,
    j: &J,
    inputs: &Inputs,
    report: &mut Report,
) -> Vec<f64> {
    let start = Instant::now();
    let mut round = Vec::with_capacity(READ_ROUND);
    for i in 0..READ_ROUND {
        if i % READ_CYCLE == 0 && secs(start.elapsed()) > ctx.opts.seconds * READ_SHARE {
            break;
        }
        let (res, took) = ctx
            .tracer
            .time("journal.read", "", 0, |_| inputs.read_op(i).run(j));
        report.ops(1, u64::from(!matches!(res, Ok(n) if n > 0)));
        round.push(micros(took));
    }
    round
}

/// In-process cost of a subnet read and of a read of everything: the
/// floor under the RPC query latencies.
fn in_process_query_costs(j: &SharedJournal, inputs: &Inputs, report: &mut Report) {
    let mut best = Best::default();
    for i in 0..16 * READ_ROUND {
        let op = inputs.read_op(i);
        let t = Instant::now();
        let _ = std::hint::black_box(op.run(j));
        best.add(i % READ_ROUND, micros(t.elapsed()));
    }
    let best = best.sampled();
    let of_kind = |want: fn(&ReadOp) -> bool| -> Vec<f64> {
        (0..READ_ROUND)
            .filter(|i| want(&inputs.read_op(*i)))
            .map(|i| best[i])
            .collect()
    };
    report.set(
        "journal.store.query_subnet_us",
        median(&of_kind(|op| matches!(op, ReadOp::InSubnet(_)))),
    );
    report.set(
        "journal.store.query_all_us",
        median(&of_kind(|op| matches!(op, ReadOp::All))),
    );
}

// ---------------------------------------------------------------------
// The survey loop
// ---------------------------------------------------------------------

/// One survey, timed call by call.
#[derive(Default)]
struct SurveyPass {
    wall_s: f64,
    run_s: f64,
    pump_s: f64,
    flush_s: f64,
    slice_us: Vec<f64>,
    /// Pumps that stored nothing, and pumps that stored something.
    idle_pump_us: Vec<f64>,
    draining_pump_us: Vec<f64>,
    /// A draining pump's time divided by the `store_batch` calls it made.
    store_us: Vec<f64>,
    /// One round of reads against the journal the survey left.
    query_us: Vec<f64>,
    events: u64,
    pumps: u64,
    flush_failed: bool,
}

/// `store_batch` calls the driver's local journal has applied so far.
fn stores_so_far(driver: &DiscoveryDriver) -> u64 {
    driver.journal.sharding_metrics().map_or(0, |m| m.batches)
}

/// Drives `pump` / `run_for` / final `flush` as
/// `DiscoveryDriver::run_for` does, timing each call. `op` says what the
/// pass is for; `probe` is told which pump is waiting, so server-side
/// spans can name it as parent.
fn drive(
    ctx: &Ctx,
    op: &'static str,
    driver: &mut DiscoveryDriver,
    probe: Option<&ProbeState>,
) -> SurveyPass {
    let tracer = &ctx.tracer;
    let mut p = SurveyPass::default();
    let events_before = driver.sim.stats.events_processed;
    let ((), wall) = tracer.time("pass", op, 0, |pass_id| {
        let mut stores_before = stores_so_far(driver);
        let mut pump = |driver: &mut DiscoveryDriver, p: &mut SurveyPass| {
            let ((), took) = tracer.time("core.pump", "", pass_id, |id| {
                if let Some(probe) = probe {
                    probe.store_parent.store(id, Ordering::SeqCst);
                }
                driver.pump();
            });
            p.pump_s += secs(took);
            p.pumps += 1;
            let stores = stores_so_far(driver);
            if stores > stores_before {
                p.draining_pump_us.push(micros(took));
                p.store_us
                    .push(micros(took) / (stores - stores_before) as f64);
            } else {
                p.idle_pump_us.push(micros(took));
            }
            stores_before = stores;
        };
        pump(driver, &mut p);
        for _ in 0..ctx.opts.sim_minutes * 60 / PUMP_SECS {
            let ((), took) = tracer.time("netsim.run_for", "", pass_id, |_| {
                driver.sim.run_for(SimDuration::from_secs(PUMP_SECS));
            });
            p.run_s += secs(took);
            p.slice_us.push(micros(took));
            pump(driver, &mut p);
        }
        let (flushed, took) = tracer.time("core.flush", "", pass_id, |_| driver.flush());
        p.flush_s = secs(took);
        if let Err(e) = flushed {
            eprintln!("flush failed: {e}");
            p.flush_failed = true;
        }
    });
    p.wall_s = secs(wall);
    p.events = driver.sim.stats.events_processed - events_before;
    p
}

/// An in-memory deployment over the campus of `inputs`, ready to drive.
fn mem_driver(inputs: &Inputs, telemetry: Telemetry) -> DiscoveryDriver {
    let c = inputs::campus(&inputs.cfg, telemetry);
    DiscoveryDriver::new(c.sim, SharedJournal::new(), c.home, c.driver_cfg)
}

fn survey_end_to_end(report: &mut Report, passes: &[SurveyPass], obs_per_pass: u64) {
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    set_end_to_end(
        report,
        &walls,
        obs_per_pass,
        &best_of(passes.iter().map(|p| &p.store_us)),
        &best_of(passes.iter().map(|p| &p.query_us)),
    );
}

/// The per-layer survey metrics, from the fastest traced pass.
fn survey_layers(report: &mut Report, passes: &[SurveyPass]) {
    let p = fastest(passes, |p| p.wall_s);
    let events = p.events as f64;
    report.set("netsim.run_s", p.run_s);
    report.set("netsim.slice_p50_us", percentile(&p.slice_us, 50.0));
    report.set("netsim.slice_p99_us", percentile(&p.slice_us, 99.0));
    report.set("netsim.events", events);
    report.set("netsim.us_per_kevent", p.run_s * 1e6 / (events / 1e3));
    report.set("core.pump_s", p.pump_s);
    report.set("core.pump_p50_us", percentile(&p.idle_pump_us, 50.0));
    report.set("core.pump_p99_us", percentile(&p.draining_pump_us, 99.0));
    report.set("core.flush_s", p.flush_s);
    report.set("core.pumps", p.pumps as f64);
    // The three timed calls are all a survey does; the rest of a pass is
    // the benchmark's own bookkeeping between them.
    let ratio = (p.run_s + p.pump_s + p.flush_s) / p.wall_s;
    report.set("core.layer_sum_ratio", ratio);
    report.gate(
        "netsim.run_s + core.pump_s + core.flush_s within 2 % of wall_s",
        (ratio - 1.0).abs() <= 0.02,
    );
}

/// `correlate` and the analysis pass over a finished journal.
fn core_legs(ctx: &Ctx, j: &SharedJournal, now_secs: u64, report: &mut Report) {
    let mut corr = Vec::new();
    let mut analysis = Vec::new();
    for _ in 0..5 {
        let (n, took) = ctx
            .tracer
            .time("core.correlate", "", 0, |_| j.read(correlate).len());
        std::hint::black_box(n);
        corr.push(micros(took));
        let (r, took) = ctx.tracer.time("core.analysis", "", 0, |_| {
            j.read(|j| ProblemReport::generate(j, JTime(now_secs), STALE_AFTER, RECENT))
        });
        std::hint::black_box(r.total());
        analysis.push(micros(took));
    }
    report.set("core.correlate_us", percentile(&corr, 0.0));
    report.set("core.analysis_us", percentile(&analysis, 0.0));
}

/// The same campus and hours with no module enabled: the simulator's
/// idle floor. What the explorers add is the difference.
fn idle_leg(ctx: &Ctx, inputs: &Inputs, report: &mut Report) {
    let idle_run_s = (0..3)
        .map(|_| {
            let c = inputs::campus(&inputs.cfg, Telemetry::noop());
            let mut cfg = c.driver_cfg;
            cfg.enabled = Vec::new();
            let mut driver = DiscoveryDriver::new(c.sim, SharedJournal::new(), c.home, cfg);
            drive(ctx, "idle", &mut driver, None).run_s
        })
        .fold(f64::INFINITY, f64::min);
    let run_s = report.get("netsim.run_s").unwrap_or(0.0);
    report.set("netsim.idle_run_s", idle_run_s);
    report.set("explorers.induced_s", run_s - idle_run_s);
}

fn overhead_ratio(traced: &[SurveyPass], untraced: &[SurveyPass]) -> f64 {
    fastest(traced, |p| p.wall_s).wall_s / fastest(untraced, |p| p.wall_s).wall_s
}

// ---------------------------------------------------------------------
// survey_mem
// ---------------------------------------------------------------------

struct MemRun<'a> {
    ctx: &'a Ctx,
    inputs: Inputs,
    /// The deployment the set-up left ready.
    ready: Option<DiscoveryDriver>,
    prints: Vec<u64>,
    obs_per_pass: u64,
    report: Report,
}

impl MemRun<'_> {
    fn phase(&mut self, traced: bool) -> Vec<SurveyPass> {
        let ctx = self.ctx;
        ctx.tracer.set_recording(traced);
        let mut first = true;
        run_passes(
            ctx.phase_budget(),
            |p: &SurveyPass| p.wall_s,
            || {
                let mut driver = match self.ready.take() {
                    Some(d) if !traced => d,
                    _ => mem_driver(&self.inputs, ctx.sink(traced).0),
                };
                let mut pass = drive(ctx, "survey", &mut driver, None);
                self.report.ops(pass.pumps, u64::from(pass.flush_failed));
                self.prints.push(fingerprint(&driver.journal));
                pass.query_us = read_round(ctx, &driver.journal, &self.inputs, &mut self.report);
                if first {
                    first = false;
                    self.obs_per_pass =
                        driver.journal.stats().map_or(0, |s| s.observations_applied);
                    if traced {
                        in_process_query_costs(&driver.journal, &self.inputs, &mut self.report);
                        let now = driver.sim.now().as_secs();
                        core_legs(ctx, &driver.journal, now, &mut self.report);
                    }
                }
                pass
            },
        )
    }
}

fn survey_mem(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let (inputs, ready) = set_up(ctx, &mut report, |inputs| {
        mem_driver(inputs, Telemetry::noop())
    });
    let mut run = MemRun {
        ctx,
        inputs,
        ready: Some(ready),
        prints: Vec::new(),
        obs_per_pass: 0,
        report,
    };
    let untraced = run.phase(false);
    survey_end_to_end(&mut run.report, &untraced, run.obs_per_pass);
    if ctx.opts.trace {
        let traced = run.phase(true);
        survey_layers(&mut run.report, &traced);
        idle_leg(ctx, &run.inputs, &mut run.report);
        run.report.set(
            "telemetry.overhead_ratio",
            overhead_ratio(&traced, &untraced),
        );
    }
    run.report.gate(
        "same-seed passes give one Journal::fingerprint",
        run.prints.iter().all(|f| *f == run.prints[0]),
    );
    if run.prints[0] != run.inputs.recorded_fingerprint {
        run.report.note(
            "the recorded stream's journal differs from the live survey's (manager adaptivity)"
                .to_owned(),
        );
    }
    run.report
}

// ---------------------------------------------------------------------
// survey_remote_durable
// ---------------------------------------------------------------------

/// A durable Journal Server on loopback and a driver writing through
/// to it.
struct RemoteDeployment {
    cfg: WalConfig,
    durable: DurableJournal,
    probe: Probe<DurableJournal>,
    server: JournalServer<Probe<DurableJournal>>,
    driver: DiscoveryDriver,
    /// The server side's recording sink, on a traced pass.
    recorder: Option<Arc<Recorder>>,
}

fn remote_deployment(ctx: &Ctx, inputs: &Inputs, traced: bool) -> RemoteDeployment {
    let (server_tel, recorder) = ctx.sink(traced);
    let cfg = WalConfig::grouped(ctx.fresh_dir(), WAL_GROUP);
    let (durable, _) =
        DurableJournal::open_with_telemetry(cfg.clone(), server_tel.clone()).expect("open WAL dir");
    let probe = Probe::new(durable.clone(), ctx.tracer.clone(), ctx.drop_store());
    let server =
        JournalServer::start_with_telemetry(probe.clone(), "127.0.0.1:0", None, server_tel)
            .expect("start journal server");
    let c = inputs::campus(&inputs.cfg, ctx.sink(traced).0);
    let mut driver_cfg = c.driver_cfg;
    driver_cfg.remote_journal = Some(server.addr().to_string());
    let driver = DiscoveryDriver::open(c.sim, c.home, driver_cfg).expect("connect driver");
    RemoteDeployment {
        cfg,
        durable,
        probe,
        server,
        driver,
        recorder,
    }
}

struct RemoteRun<'a> {
    ctx: &'a Ctx,
    inputs: Inputs,
    ready: Option<RemoteDeployment>,
    /// Per pass: server journal, driver replica, recovered directory.
    prints: Vec<[u64; 3]>,
    obs_per_pass: u64,
    report: Report,
}

impl RemoteRun<'_> {
    fn phase(&mut self, traced: bool) -> Vec<SurveyPass> {
        let ctx = self.ctx;
        ctx.tracer.set_recording(traced);
        let mut first = true;
        run_passes(
            ctx.phase_budget(),
            |p: &SurveyPass| p.wall_s,
            || {
                let mut dep = match self.ready.take() {
                    Some(d) if !traced => d,
                    _ => remote_deployment(ctx, &self.inputs, traced),
                };
                let mut pass = drive(ctx, "survey", &mut dep.driver, Some(&dep.probe.state));
                self.report.ops(pass.pumps, u64::from(pass.flush_failed));
                let probe = &dep.probe.state;
                let store_rpcs = probe.calls.load(Ordering::SeqCst);
                self.report
                    .ops(store_rpcs, probe.errors.load(Ordering::SeqCst));

                let (reader, took) = ctx.tracer.time("journal.client.connect", "", 0, |_| {
                    RemoteJournal::connect(&dep.server.addr().to_string())
                });
                let reader = reader.expect("connect reader");
                pass.query_us = read_round(ctx, &reader, &self.inputs, &mut self.report);
                if first {
                    first = false;
                    self.obs_per_pass = dep.durable.stats().map_or(0, |s| s.observations_applied);
                    if traced {
                        self.report.set("journal.client.connect_us", micros(took));
                        self.live_layers(&dep, &pass, store_rpcs);
                    }
                }

                let server_print = fingerprint(dep.durable.shared());
                let replica_print = fingerprint(&dep.driver.journal);
                // Shut down, then recover the directory: what the server
                // acknowledged must come back.
                let RemoteDeployment {
                    cfg,
                    durable,
                    probe,
                    server,
                    driver,
                    ..
                } = dep;
                drop((driver, reader));
                server.shutdown();
                drop((probe, durable));
                let (reopened, took) = ctx.tracer.time("storage.recover", "", 0, |_| {
                    DurableJournal::open(cfg.clone())
                });
                let (reopened, _) = reopened.expect("reopen WAL dir");
                if traced && self.report.get("storage.recover_s").is_none() {
                    self.report.set("storage.recover_s", secs(took));
                }
                self.prints
                    .push([server_print, replica_print, fingerprint(reopened.shared())]);
                drop(reopened);
                let _ = std::fs::remove_dir_all(&cfg.dir);
                pass
            },
        )
    }

    /// The layer numbers only the live deployment of a traced pass can
    /// give.
    fn live_layers(&mut self, dep: &RemoteDeployment, pass: &SurveyPass, store_rpcs: u64) {
        let ctx = self.ctx;
        let report = &mut self.report;
        let store_us = dep.probe.state.store_us.lock().expect("samples").clone();
        report.set("journal.server.apply_p50_us", percentile(&store_us, 50.0));
        report.set("journal.server.apply_s", store_us.iter().sum::<f64>() / 1e6);
        report.set("journal.rpc.rpcs_per_s", store_rpcs as f64 / pass.wall_s);
        if let Some(rec) = &dep.recorder {
            let fsyncs = rec.counter("fremont_wal_fsyncs_total", "") as f64;
            report.set(
                "storage.appends",
                rec.counter("fremont_wal_appends_total", "") as f64,
            );
            report.set("storage.fsyncs", fsyncs);
            report.set("storage.fsyncs_per_rpc", fsyncs / store_rpcs as f64);
        }
        if let Some(wal) = dep.probe.state.last_wal.lock().expect("wal state").as_ref() {
            report.set("storage.wal_bytes_per_obs", wal_bytes_per_obs(wal));
        }
        if let Some(groups) = dep.durable.batch_groups_total() {
            report.set(
                "journal.store.batch_groups_per_rpc",
                groups as f64 / store_rpcs as f64,
            );
        }
        // The driver's flush has just compacted; time one more over the
        // same journal (the snapshot write dominates either way).
        let (_, took) = ctx
            .tracer
            .time("storage.compact", "", 0, |_| dep.durable.compact());
        report.set("storage.compact_s", secs(took));
        in_process_query_costs(dep.durable.shared(), &self.inputs, report);
        let now = dep.driver.sim.now().as_secs();
        core_legs(ctx, &dep.driver.journal, now, report);
    }
}

fn survey_remote_durable(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let (inputs, ready) = set_up(ctx, &mut report, |inputs| {
        remote_deployment(ctx, inputs, false)
    });
    let mut run = RemoteRun {
        ctx,
        inputs,
        ready: Some(ready),
        prints: Vec::new(),
        obs_per_pass: 0,
        report,
    };
    let untraced = run.phase(false);
    survey_end_to_end(&mut run.report, &untraced, run.obs_per_pass);

    // The reference: the same survey in memory.
    let mut reference = mem_driver(&run.inputs, Telemetry::noop());
    let mem = drive(ctx, "reference", &mut reference, None);
    let mem_print = fingerprint(&reference.journal);

    if ctx.opts.trace {
        let traced = run.phase(true);
        survey_layers(&mut run.report, &traced);
        idle_leg(ctx, &run.inputs, &mut run.report);
        // What the RPC path adds to the pumps beyond the in-memory store
        // and the server's own apply: transport, framing, waiting.
        let pump = run.report.get("core.pump_s").unwrap_or(0.0);
        let apply = run.report.get("journal.server.apply_s").unwrap_or(0.0);
        run.report
            .set("journal.rpc.overhead_s", pump - mem.pump_s - apply);
        run.report.set(
            "telemetry.overhead_ratio",
            overhead_ratio(&traced, &untraced),
        );
    }
    run.report.gate(
        "server journal, driver replica, recovered directory and survey_mem fingerprint alike",
        run.prints.iter().flatten().all(|f| *f == mem_print),
    );
    run.report
}

// ---------------------------------------------------------------------
// journal_replay_local
// ---------------------------------------------------------------------

fn open_durable(ctx: &Ctx, telemetry: Telemetry) -> (WalConfig, DurableJournal) {
    let cfg = WalConfig::grouped(ctx.fresh_dir(), WAL_GROUP);
    let (durable, _) =
        DurableJournal::open_with_telemetry(cfg.clone(), telemetry).expect("open WAL dir");
    (cfg, durable)
}

/// WAL segment bytes per observation logged in it.
fn wal_bytes_per_obs(wal: &fremont_journal::WalStateReport) -> f64 {
    wal.segment_bytes as f64 / (wal.next_seq - wal.segment_first_seq).max(1) as f64
}

/// One replay of the stream into a `DurableJournal`.
struct ReplayPass {
    wall_s: f64,
    store_us: Vec<f64>,
    query_us: Vec<f64>,
}

struct ReplayRun<'a> {
    ctx: &'a Ctx,
    inputs: Inputs,
    /// The recorded observations in equal calls.
    stream: Stream,
    ready: Option<(WalConfig, DurableJournal)>,
    /// Journal before close, per pass; and after reopening, once a phase.
    prints: Vec<u64>,
    report: Report,
}

impl ReplayRun<'_> {
    fn phase(&mut self, traced: bool) -> Vec<ReplayPass> {
        let ctx = self.ctx;
        ctx.tracer.set_recording(traced);
        let mut first = true;
        run_passes(
            ctx.phase_budget(),
            |p: &ReplayPass| p.wall_s,
            || {
                let (telemetry, recorder) = ctx.sink(traced);
                let (cfg, durable) = match self.ready.take() {
                    Some(d) if !traced => d,
                    _ => open_durable(ctx, telemetry),
                };
                let groups = &self.stream.groups;
                let mut store_us = Vec::with_capacity(groups.len());
                let mut failed = 0;
                let ((), wall) = ctx.tracer.time("pass", "replay", 0, |pass_id| {
                    for (i, g) in groups.iter().enumerate() {
                        if ctx.drop_store() == i as u64 + 1 {
                            continue;
                        }
                        let (res, took) =
                            ctx.tracer.time("storage.store_batch", "", pass_id, |_| {
                                durable.store_batch(g)
                            });
                        failed += u64::from(res.is_err());
                        store_us.push(micros(took));
                    }
                });
                self.report.ops(groups.len() as u64, failed);
                self.prints.push(fingerprint(durable.shared()));
                let query_us = read_round(ctx, &durable, &self.inputs, &mut self.report);
                if first {
                    first = false;
                    if traced {
                        self.live_layers(&durable, recorder);
                    }
                    self.recover(cfg.clone(), durable, traced);
                }
                let _ = std::fs::remove_dir_all(&cfg.dir);
                ReplayPass {
                    wall_s: secs(wall),
                    store_us,
                    query_us,
                }
            },
        )
    }

    /// The exact counters of a traced pass.
    fn live_layers(&mut self, durable: &DurableJournal, recorder: Option<Arc<Recorder>>) {
        let report = &mut self.report;
        let calls = self.stream.groups.len() as f64;
        if let Some(wal) = durable.wal_state() {
            report.set("storage.wal_bytes_per_obs", wal_bytes_per_obs(&wal));
        }
        if let Some(rec) = recorder {
            let fsyncs = rec.counter("fremont_wal_fsyncs_total", "") as f64;
            report.set(
                "storage.appends",
                rec.counter("fremont_wal_appends_total", "") as f64,
            );
            report.set("storage.fsyncs", fsyncs);
            report.set("storage.fsyncs_per_rpc", fsyncs / calls);
        }
        if let Some(groups) = durable.batch_groups_total() {
            report.set("journal.store.batch_groups_per_rpc", groups as f64 / calls);
        }
        in_process_query_costs(durable.shared(), &self.inputs, report);
    }

    /// Closes without compacting, then recovers from the log alone.
    fn recover(&mut self, cfg: WalConfig, durable: DurableJournal, traced: bool) {
        let ctx = self.ctx;
        drop(durable);
        let (reopened, took) = ctx
            .tracer
            .time("storage.recover", "", 0, |_| DurableJournal::open(cfg));
        let (reopened, _) = reopened.expect("reopen WAL dir");
        self.prints.push(fingerprint(reopened.shared()));
        if traced {
            self.report.set("storage.recover_s", secs(took));
            let (_, took) = ctx
                .tracer
                .time("storage.compact", "", 0, |_| reopened.compact());
            self.report.set("storage.compact_s", secs(took));
        }
    }
}

fn journal_replay_local(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let (inputs, ready) = set_up(ctx, &mut report, |_| open_durable(ctx, Telemetry::noop()));
    let stream = inputs.stream.recut();
    println!("{}", stream.shape());
    let mut run = ReplayRun {
        ctx,
        inputs,
        stream,
        ready: Some(ready),
        prints: Vec::new(),
        report,
    };

    // The reference, and the store layer on its own: the stream into a
    // bare in-memory journal.
    let mut bare = Best::default();
    let mut bare_s = f64::INFINITY;
    let mut bare_print = 0;
    for _ in 0..5 {
        let journal = SharedJournal::new();
        let start = Instant::now();
        for (i, g) in run.stream.groups.iter().enumerate() {
            let (res, took) = ctx
                .tracer
                .time("journal.store.apply", "", 0, |_| journal.store_batch(g));
            res.expect("in-memory store");
            bare.add(i, micros(took));
        }
        bare_s = bare_s.min(secs(start.elapsed()));
        bare_print = fingerprint(&journal);
    }
    let untraced = run.phase(false);
    let walls: Vec<f64> = untraced.iter().map(|p| p.wall_s).collect();
    set_end_to_end(
        &mut run.report,
        &walls,
        run.stream.observations,
        &best_of(untraced.iter().map(|p| &p.store_us)),
        &best_of(untraced.iter().map(|p| &p.query_us)),
    );

    if ctx.opts.trace {
        let traced = run.phase(true);
        let store_p50 = best_of(traced.iter().map(|p| &p.store_us)).percentile(50.0);
        let apply_p50 = bare.percentile(50.0);
        let r = &mut run.report;
        r.set("storage.store_p50_us", store_p50);
        r.set("journal.store.apply_p50_us", apply_p50);
        r.set("journal.store.apply_p99_us", bare.percentile(99.0));
        r.set(
            "journal.store.obs_per_s",
            run.stream.observations as f64 / bare_s,
        );
        r.set("storage.wal_share", 1.0 - apply_p50 / store_p50);
        r.set(
            "telemetry.overhead_ratio",
            fastest(&traced, |p| p.wall_s).wall_s / percentile(&walls, 0.0),
        );
    }
    run.report.gate(
        "reopened journal = journal before close = bare in-memory replay",
        run.prints.iter().all(|f| *f == bare_print),
    );
    run.report
}

// ---------------------------------------------------------------------
// journal_rpc_mixed
// ---------------------------------------------------------------------

/// An in-memory Journal Server preloaded with the stream, and the two
/// connections that load it.
struct RpcDeployment {
    journal: SharedJournal,
    probe: Probe<SharedJournal>,
    server: JournalServer<Probe<SharedJournal>>,
    writer: RemoteJournal,
    reader: RemoteJournal,
    connect_us: f64,
}

fn rpc_deployment(ctx: &Ctx, inputs: &Inputs, telemetry: Telemetry) -> RpcDeployment {
    let journal = SharedJournal::new();
    for g in &inputs.stream.groups {
        journal.store_batch(g).expect("in-memory store");
    }
    let probe = Probe::new(journal.clone(), ctx.tracer.clone(), 0);
    let server = JournalServer::start_with_telemetry(probe.clone(), "127.0.0.1:0", None, telemetry)
        .expect("start journal server");
    let addr = server.addr().to_string();
    let (writer, took) = ctx.tracer.time("journal.client.connect", "", 0, |_| {
        RemoteJournal::connect(&addr)
    });
    let reader = RemoteJournal::connect(&addr).expect("connect reader");
    RpcDeployment {
        journal,
        probe,
        server,
        writer: writer.expect("connect writer"),
        reader,
        connect_us: micros(took),
    }
}

/// What one connection measured.
#[derive(Default)]
struct ConnStats {
    /// Latency of every request, in the order sent.
    us: Vec<f64>,
    /// Per position of the repeating request sequence, the fastest.
    best: Best,
    failed: u64,
    observations: u64,
    elapsed_s: f64,
}

/// The closed loop: connection 1 replays the stream cyclically as
/// `StoreBatch` RPCs, each cycle one stream span later; connection 2
/// issues the read sequence. Each sends its next request when the
/// previous one completes, and both stop at the deadline.
fn rpc_loop(
    ctx: &Ctx,
    inputs: &Inputs,
    stream: &Stream,
    dep: &RpcDeployment,
    seconds: f64,
) -> (ConnStats, ConnStats) {
    let tracer = &ctx.tracer;
    let state = &dep.probe.state;
    let (writer, reader) = (&dep.writer, &dep.reader);
    let start = Instant::now();
    let within = move || secs(start.elapsed()) < seconds;
    std::thread::scope(|s| {
        let w = s.spawn(move || {
            let mut c = ConnStats::default();
            'cycles: for cycle in 1u64.. {
                for (i, g) in stream.groups.iter().enumerate() {
                    if !within() {
                        break 'cycles;
                    }
                    let batch = shifted(g, cycle * stream.span_secs);
                    let (res, took) = tracer.time("journal.client.store_batch", "", 0, |id| {
                        state.store_parent.store(id, Ordering::SeqCst);
                        writer.store_batch(&batch)
                    });
                    match res {
                        Ok(s) if s.created + s.updated + s.verified > 0 => {
                            c.observations += group_len(g)
                        }
                        _ => c.failed += 1,
                    }
                    c.us.push(micros(took));
                    c.best.add(i, micros(took));
                }
            }
            c.elapsed_s = secs(start.elapsed());
            c
        });
        let r = s.spawn(move || {
            let mut c = ConnStats::default();
            for i in 0.. {
                if !within() {
                    break;
                }
                let op = inputs.read_op(i);
                let (res, took) = tracer.time("journal.client.read", "", 0, |id| {
                    state.read_parent.store(id, Ordering::SeqCst);
                    op.run(reader)
                });
                c.failed += u64::from(!matches!(res, Ok(n) if n > 0));
                c.us.push(micros(took));
                c.best.add(i % READ_ROUND, micros(took));
            }
            c.elapsed_s = secs(start.elapsed());
            c
        });
        (
            w.join().expect("writer thread"),
            r.join().expect("reader thread"),
        )
    })
}

/// Seconds a whole stream cycle takes at the measured store rate.
fn cycle_wall_s(stream: &Stream, w: &ConnStats) -> f64 {
    w.elapsed_s * stream.groups.len() as f64 / (w.us.len() as f64).max(1.0)
}

fn journal_rpc_mixed(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let (inputs, dep) = set_up(ctx, &mut report, |inputs| {
        rpc_deployment(ctx, inputs, Telemetry::noop())
    });
    let stream = inputs.stream.recut();
    println!("{}", stream.shape());

    let (w, r) = rpc_loop(ctx, &inputs, &stream, &dep, ctx.phase_budget());
    dep.server.shutdown();
    report.ops(w.us.len() as u64, w.failed);
    report.ops(r.us.len() as u64, r.failed);
    let untraced_wall = cycle_wall_s(&stream, &w);
    report.set("wall_s", untraced_wall);
    report.set("obs_per_s", w.observations as f64 / w.elapsed_s);
    report.set("store_p50_us", w.best.percentile(50.0));
    report.set("store_p95_us", w.best.percentile(95.0));
    report.set("query_p50_us", r.best.percentile(50.0));
    report.set("query_p95_us", r.best.percentile(95.0));
    report.note(format!(
        "{} store and {} query RPCs over {} and {} distinct operations, each the fastest of its \
         rounds",
        w.us.len(),
        r.us.len(),
        w.best.sampled().len(),
        r.best.sampled().len(),
    ));

    if ctx.opts.trace {
        let dep = rpc_deployment(ctx, &inputs, ctx.sink(true).0);
        ctx.tracer.set_recording(true);
        let (w, r) = rpc_loop(ctx, &inputs, &stream, &dep, ctx.phase_budget());
        report.ops(w.us.len() as u64, w.failed);
        report.ops(r.us.len() as u64, r.failed);
        let apply_us = dep.probe.state.store_us.lock().expect("samples").clone();
        let read_apply_us = dep.probe.state.read_us.lock().expect("samples").clone();
        report.set("journal.server.apply_p50_us", percentile(&apply_us, 50.0));
        report.set(
            "journal.server.apply_s",
            (apply_us.iter().sum::<f64>() + read_apply_us.iter().sum::<f64>()) / 1e6,
        );
        // One writer in a closed loop: the i-th store RPC is the i-th
        // store the server applied.
        let overhead: Vec<f64> = w.us.iter().zip(&apply_us).map(|(c, s)| c - s).collect();
        report.set("journal.rpc.overhead_p50_us", percentile(&overhead, 50.0));
        report.set("journal.rpc.overhead_s", overhead.iter().sum::<f64>() / 1e6);
        report.set(
            "journal.rpc.rpcs_per_s",
            w.us.len() as f64 / w.elapsed_s + r.us.len() as f64 / r.elapsed_s,
        );
        report.set("journal.client.connect_us", dep.connect_us);
        if let Some(groups) = dep.journal.batch_groups_total() {
            let stores = (inputs.stream.groups.len() + apply_us.len()) as f64;
            report.set("journal.store.batch_groups_per_rpc", groups as f64 / stores);
        }
        in_process_query_costs(&dep.journal, &inputs, &mut report);
        codec_leg(ctx, &stream, &mut report);
        report.set(
            "telemetry.overhead_ratio",
            cycle_wall_s(&stream, &w) / untraced_wall,
        );
        dep.server.shutdown();
    }
    report
}

/// The stream's requests through `write_frame` into a `Vec` and back
/// through `decode_frame`: the codec's share of an RPC.
fn codec_leg(ctx: &Ctx, stream: &Stream, report: &mut Report) {
    let mut encode_us = 0.0;
    let mut decode_us = 0.0;
    let mut bytes = 0usize;
    for g in &stream.groups {
        let env = RequestEnvelope {
            ctx: TraceContext::NONE,
            req: Request::StoreBatch { batches: g.clone() },
        };
        let mut buf = Vec::new();
        let (res, took) = ctx.tracer.time("journal.proto.encode", "", 0, |_| {
            write_frame(&mut buf, &env)
        });
        res.expect("encode into a Vec");
        encode_us += micros(took);
        let (res, took) = ctx.tracer.time("journal.proto.decode", "", 0, |_| {
            decode_frame::<RequestEnvelope>(&buf)
        });
        let round_trip = matches!(res, Ok(Some((ref e, _))) if *e == env);
        report.ops(1, u64::from(!round_trip));
        decode_us += micros(took);
        bytes += buf.len();
    }
    let rpcs = stream.groups.len() as f64;
    report.set("journal.proto.encode_us_per_rpc", encode_us / rpcs);
    report.set("journal.proto.decode_us_per_rpc", decode_us / rpcs);
    report.set(
        "journal.proto.wire_bytes_per_obs",
        bytes as f64 / stream.observations as f64,
    );
}
