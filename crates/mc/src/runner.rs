//! The bounded model-checking loop: execute, fingerprint, prune,
//! check, minimize, report.
//!
//! Every schedule runs on a fresh same-seed micro campus to a fixed
//! 16-hour horizon (fixed, not adaptive: the differential invariants
//! compare findings against the empty-schedule baseline, which is only
//! meaningful at an identical `now`). At each bucket boundary the
//! runner takes a combined fingerprint of the canonical Journal
//! snapshot and the simulator's ground state; two canonical prefixes
//! with equal fingerprints at the same boundary have converged, so a
//! schedule whose prefix aliases an already-run schedule's prefix is
//! *pruned* — its evaluation is reused instead of re-simulated, and
//! its invariants are still checked against its own fault plan.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use fremont_core::fremont::Fremont;
pub use fremont_core::invariants::HORIZON;
use fremont_core::invariants::{
    check_baseline, check_schedule, InvariantConfig, RunEvaluation, Violation,
};
use fremont_netsim::campus::CampusConfig;
use fremont_netsim::faults::FaultPlan;
use fremont_netsim::time::{SimDuration, SimTime};
use fremont_telemetry::{metrics, Telemetry};

use crate::space::{Schedule, Space, TargetNs};

/// Control-window analysis parameters: `stale_after` 4 days (clean on
/// a quiet baseline), `min_overlap` 1 hour.
pub const CONTROL_WINDOW: (u64, u64) = (4 * 86_400, 3_600);

/// Tight-window analysis parameters: `stale_after` 6 hours (surfaces
/// liveness faults within the horizon), `min_overlap` 30 minutes.
pub const TIGHT_WINDOW: (u64, u64) = (6 * 3_600, 1_800);

/// How far past a bucket boundary the state fingerprint is taken
/// (bucket events fire *at* the boundary).
const PROBE_LAG: SimDuration = SimDuration(1_000_000);

/// A checker-level failure (not an invariant violation): bad topology,
/// I/O trouble writing fixtures, a baseline that never converges.
#[derive(Debug)]
pub struct McError(pub String);

impl fmt::Display for McError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for McError {}

impl From<std::io::Error> for McError {
    fn from(e: std::io::Error) -> Self {
        McError(format!("i/o error: {e}"))
    }
}

/// Checker configuration (CLI flags map 1:1 onto this).
#[derive(Debug, Clone)]
pub struct McConfig {
    /// Campus generation seed.
    pub seed: u64,
    /// Maximum schedules to *execute* (pruned schedules are free).
    pub budget: usize,
    /// Maximum schedule depth (events per schedule).
    pub max_depth: usize,
    /// Enable the deliberately broken `assert-quiet` invariant, to
    /// exercise the counterexample pipeline.
    pub assert_quiet: bool,
    /// Where counterexample fixtures are written (`None` = don't).
    pub emit_dir: Option<PathBuf>,
    /// Telemetry sink for the progress counters.
    pub telemetry: Telemetry,
}

impl McConfig {
    /// Defaults matching the CI job: seed 1993, depth 3.
    pub fn new(budget: usize) -> Self {
        McConfig {
            seed: 1993,
            budget,
            max_depth: 3,
            assert_quiet: false,
            emit_dir: None,
            telemetry: Telemetry::noop(),
        }
    }
}

/// A minimal counterexample, as serialized into `scenarios/*.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CounterexampleFixture {
    /// The violated invariant's stable identifier.
    pub invariant: String,
    /// Human-readable account of the violation.
    pub detail: String,
    /// Campus seed the violation reproduces under.
    pub seed: u64,
    /// Run horizon in seconds.
    pub horizon_secs: u64,
    /// The minimized fault plan.
    pub plan: FaultPlan,
}

/// One found violation with its minimized reproduction.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The fixture content (invariant, detail, minimized plan).
    pub fixture: CounterexampleFixture,
    /// Schedule description before minimization.
    pub found_in: String,
    /// Events in the schedule the violation was first seen in.
    pub original_len: usize,
    /// Where the fixture was written, if emission was enabled.
    pub path: Option<PathBuf>,
}

/// The checker's summary.
#[derive(Debug)]
pub struct McReport {
    /// Schedules actually executed on the simulator.
    pub states_explored: u64,
    /// Schedules whose evaluation was reused via prefix aliasing.
    pub states_pruned: u64,
    /// Schedules whose invariants were checked (explored + pruned).
    pub schedules_checked: u64,
    /// Distinct end-of-run fingerprints among executed schedules.
    pub distinct_states: u64,
    /// Total (schedule, invariant) violations observed.
    pub violations: u64,
    /// First counterexample per violated invariant, minimized.
    pub counterexamples: Vec<Counterexample>,
    /// When the baseline's topology census went structurally quiescent.
    pub quiescent_at_secs: u64,
    /// Whether enumeration stopped on the execution budget.
    pub budget_exhausted: bool,
}

/// One run's artifacts.
struct RunOutcome {
    eval: RunEvaluation,
    /// Combined (journal, ground) fingerprint at each bucket boundary.
    boundary_fps: Vec<u64>,
    final_fp: u64,
}

/// Executes schedules on fresh same-seed deployments.
struct Executor {
    seed: u64,
    buckets: Vec<SimTime>,
}

impl Executor {
    fn system_fingerprint(f: &Fremont) -> u64 {
        let mut h = fremont_net::Fnv1a::new();
        h.write_u64(f.driver.journal.read(|j| j.fingerprint()));
        h.write_u64(f.driver.sim.state_fingerprint());
        h.finish()
    }

    /// Runs one plan to the horizon, probing at bucket boundaries.
    fn execute(&self, plan: &FaultPlan) -> Result<RunOutcome, McError> {
        let mut cfg = CampusConfig::micro(self.seed);
        cfg.fault_plan = plan.clone();
        let mut f = Fremont::over_campus(&cfg);
        // Cap module runtime so ARPwatch windows stay bursty and the
        // 16-hour horizon contains several re-verification rounds.
        f.driver
            .set_max_module_runtime(Some(SimDuration::from_hours(1)));
        let mut boundary_fps = Vec::with_capacity(self.buckets.len());
        for &bucket in &self.buckets {
            let target = bucket + PROBE_LAG;
            f.explore(target.since(f.driver.sim.now()))?;
            boundary_fps.push(Self::system_fingerprint(&f));
        }
        let end = SimTime::ZERO + HORIZON;
        f.explore(end.since(f.driver.sim.now()))?;
        let control = f.problems(CONTROL_WINDOW.0, CONTROL_WINDOW.1);
        let tight = f.problems(TIGHT_WINDOW.0, TIGHT_WINDOW.1);
        Ok(RunOutcome {
            eval: RunEvaluation::new(&control, &tight),
            final_fp: Self::system_fingerprint(&f),
            boundary_fps,
        })
    }

    /// Verifies discovery converges well before the first mid-run
    /// bucket, so faults land on a settled census.
    fn quiescence_check(&self) -> Result<u64, McError> {
        let mut f = Fremont::over_campus(&CampusConfig::micro(self.seed));
        f.driver
            .set_max_module_runtime(Some(SimDuration::from_hours(1)));
        match f.explore_until_quiescent(SimDuration::from_hours(2), SimDuration::from_mins(30))? {
            Some(at) => Ok(at.as_secs()),
            None => Err(McError(
                "baseline discovery did not go quiescent within 2 simulated hours".to_owned(),
            )),
        }
    }
}

/// The model checker.
pub struct ModelChecker {
    cfg: McConfig,
    space: Space,
    exec: Executor,
    inv_cfg: InvariantConfig,
    /// Evaluation of every schedule checked so far (executed or
    /// pruned), keyed by canonical schedule.
    evals: HashMap<Schedule, RunEvaluation>,
    /// Boundary fingerprint of each *executed* canonical prefix.
    prefix_fp: HashMap<(usize, Schedule), u64>,
    /// First canonical prefix seen with a given (boundary, fp).
    alias: HashMap<(usize, u64), Schedule>,
    final_fps: HashSet<u64>,
}

impl ModelChecker {
    /// Builds a checker over the micro-campus space.
    pub fn new(cfg: McConfig) -> Self {
        let space = Space::micro();
        let exec = Executor {
            seed: cfg.seed,
            buckets: space.buckets.clone(),
        };
        ModelChecker {
            cfg,
            space,
            exec,
            inv_cfg: InvariantConfig::default(),
            evals: HashMap::new(),
            prefix_fp: HashMap::new(),
            alias: HashMap::new(),
            final_fps: HashSet::new(),
        }
    }

    /// Validates every template target against the generated topology,
    /// so a space written for one campus fails loudly on another, and
    /// captures the invariants' context from the pristine campus: its
    /// explorer host, and the node → address map that detects
    /// duplicate-address masking.
    fn validate_space(&mut self) -> Result<(), McError> {
        let f = Fremont::over_campus(&CampusConfig::micro(self.cfg.seed));
        let nodes: Vec<String> = f
            .driver
            .sim
            .node_names()
            .into_iter()
            .map(str::to_owned)
            .collect();
        let segments: Vec<String> = f
            .driver
            .sim
            .segment_names()
            .into_iter()
            .map(str::to_owned)
            .collect();
        for (target, ns) in self.space.targets() {
            let (pool, what) = match ns {
                TargetNs::Node => (&nodes, "node"),
                TargetNs::Segment => (&segments, "segment"),
            };
            if !pool.iter().any(|n| n == target) {
                return Err(McError(format!(
                    "template target {what} `{target}` does not exist on the micro campus"
                )));
            }
        }
        self.inv_cfg = InvariantConfig::pristine(&f);
        Ok(())
    }

    /// Records an executed run's prefix fingerprints.
    fn record_prefixes(&mut self, schedule: &[u16], outcome: &RunOutcome) {
        for (k, &fp) in outcome.boundary_fps.iter().enumerate() {
            let prefix = self.space.prefix_at(schedule, k);
            self.prefix_fp.insert((k, prefix.clone()), fp);
            self.alias.entry((k, fp)).or_insert(prefix);
        }
    }

    /// Attempts to prune `schedule`: if one of its canonical prefixes
    /// fingerprints identically to a different, earlier-seen prefix,
    /// and the rewritten schedule (alias prefix + identical suffix)
    /// has already been checked, its evaluation carries over.
    fn try_prune(&self, schedule: &[u16]) -> Option<RunEvaluation> {
        for k in (0..self.space.buckets.len()).rev() {
            let prefix = self.space.prefix_at(schedule, k);
            if prefix.is_empty() || prefix.len() == schedule.len() {
                continue;
            }
            let Some(&fp) = self.prefix_fp.get(&(k, prefix.clone())) else {
                continue;
            };
            let Some(canon) = self.alias.get(&(k, fp)) else {
                continue;
            };
            if *canon == prefix {
                continue;
            }
            let mut rewritten = canon.clone();
            rewritten.extend(schedule.iter().filter(|p| !prefix.contains(p)));
            if let Some(eval) = self.evals.get(&rewritten) {
                return Some(*eval);
            }
        }
        None
    }

    /// Evaluation for a schedule: cached if it was already checked,
    /// executed fresh otherwise. Enumerated schedules are distinct, so
    /// only minimization hits the cache; its runs don't count against
    /// the budget.
    fn eval_for(&mut self, schedule: &[u16], explored: &mut u64) -> Result<RunEvaluation, McError> {
        if let Some(eval) = self.evals.get(schedule) {
            return Ok(*eval);
        }
        let plan = self.space.plan_for(schedule);
        let outcome = self.exec.execute(&plan)?;
        self.record_prefixes(schedule, &outcome);
        self.final_fps.insert(outcome.final_fp);
        self.evals.insert(schedule.to_vec(), outcome.eval);
        *explored += 1;
        Ok(outcome.eval)
    }

    fn violations_of(
        &self,
        schedule: &[u16],
        baseline: &RunEvaluation,
        eval: &RunEvaluation,
    ) -> Vec<Violation> {
        let plan = self.space.plan_for(schedule);
        check_schedule(&plan, baseline, eval, &self.inv_cfg, self.cfg.assert_quiet)
    }

    /// Greedy delta-minimization: repeatedly drop any event whose
    /// removal still violates `invariant`, until no single removal
    /// does. The result is 1-minimal.
    fn minimize(
        &mut self,
        schedule: &[u16],
        invariant: &str,
        baseline: &RunEvaluation,
        explored: &mut u64,
    ) -> Result<Schedule, McError> {
        let mut cur: Schedule = schedule.to_vec();
        loop {
            let mut reduced = None;
            for i in 0..cur.len() {
                let mut cand = cur.clone();
                cand.remove(i);
                if cand.is_empty() {
                    continue;
                }
                let eval = self.eval_for(&cand, explored)?;
                let still = self
                    .violations_of(&cand, baseline, &eval)
                    .iter()
                    .any(|v| v.invariant == invariant);
                if still {
                    reduced = Some(cand);
                    break;
                }
            }
            match reduced {
                Some(c) => cur = c,
                None => return Ok(cur),
            }
        }
    }

    fn emit_fixture(&self, fixture: &CounterexampleFixture) -> Result<Option<PathBuf>, McError> {
        let Some(dir) = &self.cfg.emit_dir else {
            return Ok(None);
        };
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("mc-counterexample-{}.json", fixture.invariant));
        let body = serde_json::to_string_pretty(fixture)
            .map_err(|e| McError(format!("fixture serialization failed: {e}")))?;
        fs::write(&path, body + "\n")?;
        Ok(Some(path))
    }

    /// Runs the full check: baseline, enumeration with pruning,
    /// invariant evaluation, counterexample minimization, telemetry.
    pub fn run(mut self) -> Result<McReport, McError> {
        self.validate_space()?;
        let quiescent_at_secs = self.exec.quiescence_check()?;

        let baseline_outcome = self.exec.execute(&FaultPlan::new())?;
        let baseline = baseline_outcome.eval;
        // The empty schedule is the canonical prefix of every bucket.
        for (k, &fp) in baseline_outcome.boundary_fps.iter().enumerate() {
            self.prefix_fp.insert((k, Vec::new()), fp);
            self.alias.entry((k, fp)).or_default();
        }
        self.evals.insert(Vec::new(), baseline);
        let mut violations: u64 = 0;
        let mut counterexamples: Vec<Counterexample> = Vec::new();
        for v in check_baseline(&baseline) {
            violations += 1;
            counterexamples.push(Counterexample {
                fixture: CounterexampleFixture {
                    invariant: v.invariant.to_owned(),
                    detail: v.detail.clone(),
                    seed: self.cfg.seed,
                    horizon_secs: HORIZON.as_secs(),
                    plan: FaultPlan::new(),
                },
                found_in: "(empty)".to_owned(),
                original_len: 0,
                path: None,
            });
        }

        // Enumerate. The visitor only collects per-schedule decisions;
        // minimization happens after, so the borrow of `self` is short.
        let mut explored: u64 = 0;
        let mut pruned: u64 = 0;
        let mut checked: u64 = 0;
        let mut budget_exhausted = false;
        let mut found: Vec<(Schedule, Violation)> = Vec::new();
        let space = self.space.clone();
        let budget = self.cfg.budget;
        let max_depth = self.cfg.max_depth;
        let mut enumeration: Vec<Schedule> = Vec::new();
        space.enumerate(max_depth, &mut |s| {
            enumeration.push(s.to_vec());
            true
        });
        for schedule in enumeration {
            let eval = match self.try_prune(&schedule) {
                Some(eval) => {
                    pruned += 1;
                    self.evals.insert(schedule.clone(), eval);
                    eval
                }
                None => {
                    if explored as usize >= budget {
                        budget_exhausted = true;
                        break;
                    }
                    self.eval_for(&schedule, &mut explored)?
                }
            };
            checked += 1;
            for v in self.violations_of(&schedule, &baseline, &eval) {
                violations += 1;
                found.push((schedule.clone(), v));
            }
        }

        // Minimize and emit the first counterexample per invariant.
        let mut seen_invariants: HashSet<&'static str> = HashSet::new();
        for (schedule, v) in &found {
            if !seen_invariants.insert(v.invariant) {
                continue;
            }
            let minimal = self.minimize(schedule, v.invariant, &baseline, &mut explored)?;
            // Re-derive the violation detail from the minimal schedule.
            let eval = self.eval_for(&minimal, &mut explored)?;
            let detail = self
                .violations_of(&minimal, &baseline, &eval)
                .into_iter()
                .find(|mv| mv.invariant == v.invariant)
                .map(|mv| mv.detail)
                .unwrap_or_else(|| v.detail.clone());
            let fixture = CounterexampleFixture {
                invariant: v.invariant.to_owned(),
                detail,
                seed: self.cfg.seed,
                horizon_secs: HORIZON.as_secs(),
                plan: space.plan_for(&minimal),
            };
            let path = self.emit_fixture(&fixture)?;
            counterexamples.push(Counterexample {
                fixture,
                found_in: space.describe(schedule),
                original_len: schedule.len(),
                path,
            });
        }

        let report = McReport {
            states_explored: explored,
            states_pruned: pruned,
            schedules_checked: checked,
            distinct_states: self.final_fps.len() as u64,
            violations,
            counterexamples,
            quiescent_at_secs,
            budget_exhausted,
        };
        let tel = &self.cfg.telemetry;
        tel.counter_set(
            metrics::MC_STATES_EXPLORED_TOTAL,
            "",
            report.states_explored,
        );
        tel.counter_set(metrics::MC_STATES_PRUNED_TOTAL, "", report.states_pruned);
        tel.counter_set(metrics::MC_VIOLATIONS_TOTAL, "", report.violations);
        Ok(report)
    }
}

/// Replays a counterexample fixture: reruns its plan against a fresh
/// same-seed baseline and returns the violations of the recorded
/// invariant (empty = failed to reproduce).
pub fn replay(path: &Path) -> Result<(CounterexampleFixture, Vec<Violation>), McError> {
    let body = fs::read_to_string(path)?;
    let fixture: CounterexampleFixture =
        serde_json::from_str(&body).map_err(|e| McError(format!("bad fixture: {e}")))?;
    let space = Space::micro();
    let exec = Executor {
        seed: fixture.seed,
        buckets: space.buckets.clone(),
    };
    let baseline = exec.execute(&FaultPlan::new())?.eval;
    let run = exec.execute(&fixture.plan)?.eval;
    let inv_cfg =
        InvariantConfig::pristine(&Fremont::over_campus(&CampusConfig::micro(fixture.seed)));
    let assert_quiet = fixture.invariant == fremont_core::invariants::INV_ASSERT_QUIET;
    let violations = check_schedule(&fixture.plan, &baseline, &run, &inv_cfg, assert_quiet)
        .into_iter()
        .filter(|v| v.invariant == fixture.invariant)
        .collect();
    Ok((fixture, violations))
}
