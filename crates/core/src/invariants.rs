//! Analysis invariants over fault schedules, for the model checker.
//!
//! The paper's claim (§4–5, Table 8) is that Fremont's discovered
//! inconsistencies reliably surface real network problems. `fremont-mc`
//! stress-tests that claim by enumerating fault schedules and checking,
//! for every interleaving, that the analysis layer's findings are
//! *explained* by the injected faults and that injected faults
//! *surface* as findings of their expected class.
//!
//! # The differential method
//!
//! A finding count in isolation is meaningless: discovery has
//! structural artifacts (the explorer host is never re-ARPed after
//! startup, so it always eventually looks stale at tight windows).
//! Every invariant therefore compares a schedule's [`ProblemReport`]s
//! **per class against the same-seed empty-schedule baseline** at the
//! identical horizon. Two evaluations are taken per run:
//!
//! * **control** — `stale_after` of 4 days, `min_overlap` 1 hour: wide
//!   enough that a quiet baseline reports *zero* findings, so any
//!   positive control delta is unambiguous.
//! * **tight** — `stale_after` of 6 hours, `min_overlap` 30 minutes:
//!   narrow enough that liveness faults (crashes, dead gateways,
//!   partitions) surface within a 16-hour run, at the cost of baseline
//!   noise that the differential subtracts away.
//!
//! Negative deltas are always legal: a partition suppresses coverage,
//! which can *remove* baseline findings (the coverage-aware stale
//! detector folds individually-stale hosts into a silent subnet).

use std::fmt;
use std::net::Ipv4Addr;

use fremont_netsim::faults::{FaultKind, FaultPlan};
use fremont_netsim::time::{SimDuration, SimTime};

use crate::analysis::ProblemReport;

/// Number of finding classes in a [`ProblemReport`].
pub const CLASS_COUNT: usize = 8;

/// Class index: "IP Addresses No Longer in Use".
pub const STALE: usize = 0;
/// Class index: "Hardware Changes".
pub const HARDWARE_CHANGES: usize = 1;
/// Class index: "Inconsistent Network Masks".
pub const MASK_CONFLICTS: usize = 2;
/// Class index: "Duplicate Address Assignments".
pub const DUPLICATES: usize = 3;
/// Class index: "Promiscuous RIP Hosts".
pub const PROMISCUOUS: usize = 4;
/// Class index: gateways gone silent while still routed through.
pub const STALE_ROUTES: usize = 5;
/// Class index: subnets whose whole population stopped answering.
pub const SILENT_SUBNETS: usize = 6;
/// Class index: interfaces reported with future timestamps.
pub const CLOCK_SKEW: usize = 7;

/// Human names for the finding classes, indexed by the constants above
/// (the order of [`ProblemReport::class_counts`]).
pub const CLASS_NAMES: [&str; CLASS_COUNT] = [
    "stale",
    "hardware_changes",
    "mask_conflicts",
    "duplicates",
    "promiscuous",
    "stale_routes",
    "silent_subnets",
    "clock_skew",
];

/// The two analysis evaluations taken at the end of one run, reduced
/// to per-class counts (all any invariant needs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunEvaluation {
    /// Counts at the wide control window (clean on a quiet baseline).
    pub control: [usize; CLASS_COUNT],
    /// Counts at the tight liveness window (has structural noise).
    pub tight: [usize; CLASS_COUNT],
}

impl RunEvaluation {
    /// Reduces a pair of full reports.
    pub fn new(control: &ProblemReport, tight: &ProblemReport) -> Self {
        RunEvaluation {
            control: control.class_counts(),
            tight: tight.class_counts(),
        }
    }

    /// Signed per-class deltas `self - baseline` for (control, tight).
    pub fn deltas(&self, baseline: &RunEvaluation) -> [(i64, i64); CLASS_COUNT] {
        let mut d = [(0i64, 0i64); CLASS_COUNT];
        for (i, slot) in d.iter_mut().enumerate() {
            *slot = (
                self.control[i] as i64 - baseline.control[i] as i64,
                self.tight[i] as i64 - baseline.tight[i] as i64,
            );
        }
        d
    }
}

/// One invariant violation: which invariant, and what was observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable invariant identifier (fixture and minimization key).
    pub invariant: &'static str,
    /// Human-readable account of the observed discrepancy.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.invariant, self.detail)
    }
}

/// Invariant: a quiet baseline reports zero control-window findings.
pub const INV_CONTROL_CLEAN: &str = "control-clean-baseline";
/// Invariant: every positive delta is explained by an injected fault.
pub const INV_NO_UNEXPLAINED: &str = "no-unexplained-findings";
/// Invariant: an uncounteracted fault surfaces in its expected class.
pub const INV_EXPECT_SURFACE: &str = "injected-fault-surfaces";
/// Invariant: a healed partition leaves no permanent silent subnet.
pub const INV_HEALED_PARTITION: &str = "healed-partition-recovers";
/// The deliberately broken invariant (`--assert-quiet`): faults must
/// not change the findings at all. Any effective fault violates it —
/// it exists to prove the counterexample pipeline works end to end.
pub const INV_ASSERT_QUIET: &str = "assert-quiet";

/// Context the invariants need beyond the reports themselves.
#[derive(Debug, Clone)]
pub struct InvariantConfig {
    /// End of the run; expectations only apply to faults with enough
    /// remaining runway.
    pub horizon: SimTime,
    /// The node hosting the Explorer Modules. Clock skew only corrupts
    /// journal timestamps when injected here.
    pub explorer_host: String,
    /// Runway a fault needs before the horizon for its finding to be
    /// *expected* (module re-verification is bursty; 8 hours spans the
    /// tight `stale_after` plus an ARPwatch re-verification gap).
    pub surface_margin: SimDuration,
    /// A `WrongMask` is only expected to surface if injected before
    /// the first Subnet Mask sweep (the module queries only interfaces
    /// with no mask observation yet).
    pub mask_deadline: SimTime,
    /// Pristine node → primary-address map of the topology, captured
    /// *before* fault injection (a `DuplicateIp` fault rewrites the
    /// live address). Used to detect when a duplicate-address fault
    /// claims a crashed node's own address and masks its liveness
    /// signal. Empty is legal: masking detection is simply disabled.
    pub node_ips: Vec<(String, Ipv4Addr)>,
}

impl InvariantConfig {
    /// The configuration matched to the 16-hour micro-campus run.
    pub fn for_micro(explorer_host: &str) -> Self {
        InvariantConfig {
            horizon: SimTime::from_hours(16),
            explorer_host: explorer_host.to_owned(),
            surface_margin: SimDuration::from_hours(8),
            mask_deadline: SimTime(60_000_000),
            node_ips: Vec::new(),
        }
    }

    /// The pristine primary address of `node`, if known.
    pub fn ip_of(&self, node: &str) -> Option<Ipv4Addr> {
        self.node_ips
            .iter()
            .find(|(n, _)| n == node)
            .map(|&(_, ip)| ip)
    }
}

/// Which finding classes an injected fault may legitimately move
/// *upward*. Everything else moving up is an unexplained finding.
fn allowed_classes(kind: &FaultKind) -> [bool; CLASS_COUNT] {
    let mut a = [false; CLASS_COUNT];
    match kind {
        // Liveness faults change who answers on the wire; depending on
        // blast radius that shows up as stale addresses, stale routes,
        // or a silent subnet.
        FaultKind::NodeCrash { .. }
        | FaultKind::NodeReboot { .. }
        | FaultKind::GatewayDeath { .. }
        | FaultKind::Partition { .. }
        | FaultKind::Heal { .. }
        | FaultKind::Degrade { .. }
        | FaultKind::ClearDegrade { .. } => {
            a[STALE] = true;
            a[STALE_ROUTES] = true;
            a[SILENT_SUBNETS] = true;
        }
        // A duplicate address is classified as a duplicate assignment
        // or a hardware change depending on observed coexistence, and
        // the losing claimant can additionally look stale.
        FaultKind::DuplicateIp { .. } => {
            a[DUPLICATES] = true;
            a[HARDWARE_CHANGES] = true;
            a[STALE] = true;
        }
        FaultKind::WrongMask { .. } => {
            a[MASK_CONFLICTS] = true;
        }
        // Skew on the explorer stamps records into the future, which
        // both raises clock-skew findings and perturbs every
        // liveness-window comparison.
        FaultKind::ClockSkew { .. } => {
            a[CLOCK_SKEW] = true;
            a[STALE] = true;
            a[STALE_ROUTES] = true;
            a[SILENT_SUBNETS] = true;
        }
    }
    a
}

/// Structural facts about a schedule that gate the expectations.
#[derive(Debug, Clone, Default)]
struct ScheduleFacts {
    /// A crash/gateway-death/partition left standing with runway.
    uncounteracted_liveness: bool,
    /// Any partition event present (suppresses on-wire observation of
    /// the departmental segment, so non-liveness expectations lapse).
    has_partition: bool,
    /// Any positive clock skew on the explorer host (corrupts the
    /// journal timestamps every liveness judgement depends on).
    has_explorer_skew: bool,
    /// A duplicate-address fault with runway.
    dup_with_runway: bool,
    /// A wrong-mask fault injected before the first mask sweep.
    mask_before_sweep: bool,
    /// A positive explorer clock skew with runway.
    skew_with_runway: bool,
    /// Every partition has a later heal (with runway after the heal)
    /// and at least one such healed partition exists.
    all_partitions_healed: bool,
}

fn facts(plan: &FaultPlan, cfg: &InvariantConfig) -> ScheduleFacts {
    let mut f = ScheduleFacts::default();
    let runway = |at: SimTime| at + cfg.surface_margin <= cfg.horizon;
    let mut partitions = 0usize;
    let mut healed = 0usize;
    for ev in &plan.events {
        match &ev.kind {
            FaultKind::NodeCrash { node } => {
                // Same-instant counteractions count: simultaneous events
                // fire in deterministic queue order, and the space
                // schedules the reboot after the crash it cancels.
                let rebooted = plan.events.iter().any(|later| {
                    later.at() >= ev.at()
                        && matches!(&later.kind, FaultKind::NodeReboot { node: n } if n == node)
                });
                // A duplicate-address fault claiming the crashed
                // node's own address keeps that address answered on
                // the wire (the duplicate host takes it over), so the
                // crash surfaces as a hardware change instead of a
                // stale address — covered by the duplicate's own
                // expectation; the crash's lapses.
                let masked = plan.events.iter().any(|other| {
                    matches!(&other.kind, FaultKind::DuplicateIp { ip, .. }
                        if cfg.ip_of(node) == Some(*ip))
                });
                if !rebooted && !masked && runway(ev.at()) {
                    f.uncounteracted_liveness = true;
                }
            }
            FaultKind::GatewayDeath { .. } => {
                if runway(ev.at()) {
                    f.uncounteracted_liveness = true;
                }
            }
            FaultKind::Partition { segment } => {
                f.has_partition = true;
                partitions += 1;
                let heal = plan.events.iter().find(|later| {
                    later.at() >= ev.at()
                        && matches!(&later.kind, FaultKind::Heal { segment: s } if s == segment)
                });
                match heal {
                    Some(h) if runway(h.at()) => healed += 1,
                    _ => {
                        if runway(ev.at()) {
                            f.uncounteracted_liveness = true;
                        }
                    }
                }
            }
            FaultKind::DuplicateIp { .. } => {
                if runway(ev.at()) {
                    f.dup_with_runway = true;
                }
            }
            FaultKind::WrongMask { .. } => {
                if ev.at() <= cfg.mask_deadline {
                    f.mask_before_sweep = true;
                }
            }
            FaultKind::ClockSkew { node, skew_micros } => {
                if node == &cfg.explorer_host && *skew_micros > 0 {
                    f.has_explorer_skew = true;
                    if runway(ev.at()) {
                        f.skew_with_runway = true;
                    }
                }
            }
            FaultKind::NodeReboot { .. }
            | FaultKind::Heal { .. }
            | FaultKind::Degrade { .. }
            | FaultKind::ClearDegrade { .. } => {}
        }
    }
    f.all_partitions_healed = partitions > 0 && healed == partitions;
    f
}

/// Checks the root invariant on the empty-schedule baseline: the quiet
/// campus must report **zero** control-window findings. Everything else
/// is differential, so this is the one absolute anchor.
pub fn check_baseline(baseline: &RunEvaluation) -> Vec<Violation> {
    let mut out = Vec::new();
    for (i, &n) in baseline.control.iter().enumerate() {
        if n != 0 {
            out.push(Violation {
                invariant: INV_CONTROL_CLEAN,
                detail: format!(
                    "empty schedule produced {} control-window `{}` finding(s)",
                    n, CLASS_NAMES[i]
                ),
            });
        }
    }
    out
}

/// Checks every differential invariant for one schedule's evaluation
/// against the same-seed baseline. `assert_quiet` additionally enables
/// the deliberately broken [`INV_ASSERT_QUIET`] invariant.
pub fn check_schedule(
    plan: &FaultPlan,
    baseline: &RunEvaluation,
    run: &RunEvaluation,
    cfg: &InvariantConfig,
    assert_quiet: bool,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let deltas = run.deltas(baseline);
    let f = facts(plan, cfg);

    // INV-NO-UNEXPLAINED: any class that moved upward (in either
    // evaluation) must be in the union of the injected faults'
    // allowed classes.
    let mut allowed = [false; CLASS_COUNT];
    for ev in &plan.events {
        let a = allowed_classes(&ev.kind);
        for (slot, ok) in allowed.iter_mut().zip(a) {
            *slot |= ok;
        }
    }
    for (i, &(dc, dt)) in deltas.iter().enumerate() {
        if (dc > 0 || dt > 0) && !allowed[i] {
            out.push(Violation {
                invariant: INV_NO_UNEXPLAINED,
                detail: format!(
                    "`{}` rose by {:+}/{:+} (control/tight) but no injected fault can cause it",
                    CLASS_NAMES[i], dc, dt
                ),
            });
        }
    }

    // INV-EXPECT-SURFACE: each expectation only applies when nothing
    // else in the schedule can mask the signal (partitions suppress
    // on-wire observation; explorer skew corrupts liveness
    // timestamps). The gates err conservative: a lapsed expectation is
    // never a violation, a missed one always is.
    if f.uncounteracted_liveness && !f.has_explorer_skew {
        let surfaced = [STALE, STALE_ROUTES, SILENT_SUBNETS]
            .iter()
            .any(|&i| deltas[i].1 > 0);
        if !surfaced {
            out.push(Violation {
                invariant: INV_EXPECT_SURFACE,
                detail: format!(
                    "uncounteracted liveness fault left no positive tight delta in \
                     stale/stale_routes/silent_subnets (deltas {:?})",
                    deltas
                ),
            });
        }
    }
    if f.dup_with_runway && !f.has_partition && !f.has_explorer_skew {
        let surfaced = [DUPLICATES, HARDWARE_CHANGES]
            .iter()
            .any(|&i| deltas[i].0 > 0 || deltas[i].1 > 0);
        if !surfaced {
            out.push(Violation {
                invariant: INV_EXPECT_SURFACE,
                detail: format!(
                    "duplicate-address fault surfaced neither as duplicates nor as a \
                     hardware change (deltas {:?})",
                    deltas
                ),
            });
        }
    }
    if f.mask_before_sweep {
        let (dc, dt) = deltas[MASK_CONFLICTS];
        if dc <= 0 && dt <= 0 {
            out.push(Violation {
                invariant: INV_EXPECT_SURFACE,
                detail: format!(
                    "wrong-mask fault before the first mask sweep produced no \
                     mask_conflicts finding (deltas {:+}/{:+})",
                    dc, dt
                ),
            });
        }
    }
    if f.skew_with_runway && !f.has_partition {
        let (dc, dt) = deltas[CLOCK_SKEW];
        if dc <= 0 && dt <= 0 {
            out.push(Violation {
                invariant: INV_EXPECT_SURFACE,
                detail: format!(
                    "explorer clock skew produced no clock_skew finding \
                     (deltas {:+}/{:+})",
                    dc, dt
                ),
            });
        }
    }

    // INV-HEALED-PARTITION: if every partition was healed with runway,
    // the tight silent-subnet population must not have grown.
    if f.all_partitions_healed && deltas[SILENT_SUBNETS].1 > 0 {
        out.push(Violation {
            invariant: INV_HEALED_PARTITION,
            detail: format!(
                "all partitions healed, yet tight silent_subnets rose by {:+}",
                deltas[SILENT_SUBNETS].1
            ),
        });
    }

    // INV-ASSERT-QUIET (deliberately broken, behind the test flag):
    // demands faults change nothing at all.
    if assert_quiet && deltas.iter().any(|&(dc, dt)| dc != 0 || dt != 0) {
        out.push(Violation {
            invariant: INV_ASSERT_QUIET,
            detail: format!("schedule changed the findings (deltas {:?})", deltas),
        });
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> InvariantConfig {
        InvariantConfig::for_micro("bruno")
    }

    fn eval(control: [usize; CLASS_COUNT], tight: [usize; CLASS_COUNT]) -> RunEvaluation {
        RunEvaluation { control, tight }
    }

    fn base() -> RunEvaluation {
        // Typical quiet baseline: clean control, structural tight noise.
        eval([0; 8], [1, 0, 0, 0, 0, 0, 0, 0])
    }

    #[test]
    fn clean_baseline_passes_and_dirty_fails() {
        assert!(check_baseline(&base()).is_empty());
        let dirty = eval([0, 0, 1, 0, 0, 0, 0, 0], [0; 8]);
        let v = check_baseline(&dirty);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, INV_CONTROL_CLEAN);
    }

    #[test]
    fn empty_schedule_with_baseline_counts_is_quiet() {
        let plan = FaultPlan::new();
        let v = check_schedule(&plan, &base(), &base(), &cfg(), true);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn crash_must_surface_in_tight_liveness_classes() {
        let plan = FaultPlan::new().at(
            SimTime::from_hours(8),
            FaultKind::NodeCrash {
                node: "piper".into(),
            },
        );
        // Surfaced: stale rose by one at the tight window.
        let good = eval([0; 8], [2, 0, 0, 0, 0, 0, 0, 0]);
        assert!(check_schedule(&plan, &base(), &good, &cfg(), false).is_empty());
        // Silent: nothing moved — expectation violated.
        let v = check_schedule(&plan, &base(), &base(), &cfg(), false);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, INV_EXPECT_SURFACE);
    }

    #[test]
    fn crash_too_close_to_horizon_has_no_expectation() {
        let plan = FaultPlan::new().at(
            SimTime::from_hours(12),
            FaultKind::NodeCrash {
                node: "piper".into(),
            },
        );
        assert!(check_schedule(&plan, &base(), &base(), &cfg(), false).is_empty());
    }

    #[test]
    fn rebooted_crash_has_no_expectation() {
        let plan = FaultPlan::new()
            .at(
                SimTime::from_hours(2),
                FaultKind::NodeCrash {
                    node: "piper".into(),
                },
            )
            .at(
                SimTime::from_hours(5),
                FaultKind::NodeReboot {
                    node: "piper".into(),
                },
            );
        assert!(check_schedule(&plan, &base(), &base(), &cfg(), false).is_empty());
    }

    #[test]
    fn same_instant_counteractions_count() {
        // Simultaneous events fire in deterministic queue order, and
        // canonical schedules place the counteracting event second.
        let plan = FaultPlan::new()
            .at(
                SimTime::from_hours(2),
                FaultKind::NodeCrash {
                    node: "piper".into(),
                },
            )
            .at(
                SimTime::from_hours(2),
                FaultKind::NodeReboot {
                    node: "piper".into(),
                },
            )
            .at(
                SimTime::from_hours(5),
                FaultKind::Partition {
                    segment: "cs-net".into(),
                },
            )
            .at(
                SimTime::from_hours(5),
                FaultKind::Heal {
                    segment: "cs-net".into(),
                },
            );
        assert!(check_schedule(&plan, &base(), &base(), &cfg(), false).is_empty());
    }

    #[test]
    fn dup_claiming_crashed_nodes_address_masks_liveness() {
        let mut cfg = cfg();
        cfg.node_ips = vec![("piper".to_owned(), Ipv4Addr::new(128, 138, 243, 11))];
        let crash = FaultKind::NodeCrash {
            node: "piper".into(),
        };
        let dup = |ip| FaultKind::DuplicateIp {
            node: "bruno".into(),
            ip,
        };
        // The duplicate takes over piper's address: the crash never
        // goes stale, it surfaces as the duplicate's hardware change.
        let plan = FaultPlan::new()
            .at(
                SimTime::from_hours(2),
                dup(Ipv4Addr::new(128, 138, 243, 11)),
            )
            .at(SimTime::from_hours(5), crash.clone());
        let hw_only = eval([0; 8], [1, 1, 0, 0, 0, 0, 0, 0]);
        assert!(check_schedule(&plan, &base(), &hw_only, &cfg, false).is_empty());
        // A duplicate of an unrelated address masks nothing: the
        // crash's expectation stands.
        let plan = FaultPlan::new()
            .at(
                SimTime::from_hours(2),
                dup(Ipv4Addr::new(128, 138, 243, 99)),
            )
            .at(SimTime::from_hours(5), crash);
        let v = check_schedule(&plan, &base(), &hw_only, &cfg, false);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].invariant, INV_EXPECT_SURFACE);
    }

    #[test]
    fn unexplained_rise_is_a_violation() {
        let plan = FaultPlan::new().at(
            SimTime::from_hours(2),
            FaultKind::WrongMask {
                node: "anchor".into(),
                prefix_len: 16,
            },
        );
        // mask runs after the sweep deadline: allowed but not expected;
        // a clock_skew rise is not explained by a wrong mask.
        let run = eval([0, 0, 0, 0, 0, 0, 0, 2], [1, 0, 0, 0, 0, 0, 0, 0]);
        let v = check_schedule(&plan, &base(), &run, &cfg(), false);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, INV_NO_UNEXPLAINED);
        assert!(v[0].detail.contains("clock_skew"), "{}", v[0].detail);
    }

    #[test]
    fn negative_deltas_are_always_legal() {
        let plan = FaultPlan::new().at(
            SimTime::from_hours(2),
            FaultKind::Partition {
                segment: "cs-net".into(),
            },
        );
        // Partition: stale down, routes and silent up.
        let run = eval([0; 8], [0, 0, 0, 0, 0, 1, 1, 0]);
        assert!(check_schedule(&plan, &base(), &run, &cfg(), false).is_empty());
    }

    #[test]
    fn healed_partition_must_not_grow_silent_subnets() {
        let plan = FaultPlan::new()
            .at(
                SimTime::from_hours(2),
                FaultKind::Partition {
                    segment: "cs-net".into(),
                },
            )
            .at(
                SimTime::from_hours(5),
                FaultKind::Heal {
                    segment: "cs-net".into(),
                },
            );
        assert!(check_schedule(&plan, &base(), &base(), &cfg(), false).is_empty());
        let lingering = eval([0; 8], [1, 0, 0, 0, 0, 0, 1, 0]);
        let v = check_schedule(&plan, &base(), &lingering, &cfg(), false);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, INV_HEALED_PARTITION);
    }

    #[test]
    fn assert_quiet_flags_any_change() {
        let plan = FaultPlan::new().at(
            SimTime::from_hours(8),
            FaultKind::NodeCrash {
                node: "piper".into(),
            },
        );
        let run = eval([0; 8], [2, 0, 0, 0, 0, 0, 0, 0]);
        let v = check_schedule(&plan, &base(), &run, &cfg(), true);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].invariant, INV_ASSERT_QUIET);
    }

    #[test]
    fn explorer_skew_suspends_liveness_expectations() {
        let plan = FaultPlan::new()
            .at(
                SimTime::from_hours(2),
                FaultKind::ClockSkew {
                    node: "bruno".into(),
                    skew_micros: 48 * 3_600_000_000,
                },
            )
            .at(
                SimTime::from_hours(8),
                FaultKind::NodeCrash {
                    node: "piper".into(),
                },
            );
        // Future-stamped records make the crashed host look fresh; the
        // liveness expectation lapses, but skew itself must surface.
        let run = eval([0, 0, 0, 0, 0, 0, 0, 6], [0, 0, 0, 0, 0, 0, 0, 6]);
        assert!(check_schedule(&plan, &base(), &run, &cfg(), false).is_empty());
    }
}
