//! Deterministic fault injection: the [`FaultPlan`] and how `Sim` applies it.
//!
//! The paper's value proposition is discovering *problems*, not just
//! characteristics — stale addresses, duplicate IPs, conflicting masks,
//! dead gateways (§1, §5, Table 8). A `FaultPlan` is a committable,
//! serializable script of such problems: every entry fires at an exact
//! simulated time through the engine's ordinary event queue, so same-seed
//! runs (with the same plan) are byte-identical, and an *empty* plan
//! schedules nothing at all — it cannot perturb the RNG stream or the
//! event order of a fault-free run.
//!
//! Faults address nodes and segments by *name*, not by id, so a plan
//! written against the synthetic campus ("cs-gw", "cs-net", "bruno")
//! stays valid across topology-construction changes and can live in a
//! fixture file under `scenarios/`.

use std::net::Ipv4Addr;

use serde::{Deserialize, Serialize};

use fremont_net::SubnetMask;
use fremont_telemetry::{SpanId, TelTime};

use crate::engine::{Event, Sim};
use crate::time::{SimDuration, SimTime};

/// One injectable fault. See each variant for the Table 8 problem class
/// it reproduces and how the analysis layer is expected to surface it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Powers a node off. Volatile state (ARP cache, pending ARP queue,
    /// RIP-learned routes) is lost, exactly as on `SetNodeUp(false)`.
    /// A long-crashed host surfaces as an "IP address no longer in use".
    NodeCrash {
        /// Node name.
        node: String,
    },
    /// Powers a node back on (cold boot: caches start empty).
    NodeReboot {
        /// Node name.
        node: String,
    },
    /// Kills a router. Semantically a crash, but counted and traced
    /// separately because the payoff differs: subnets behind the dead
    /// gateway go silent and its own interfaces stop verifying, which
    /// the analysis layer reports as a stale route.
    GatewayDeath {
        /// Router name.
        gateway: String,
    },
    /// Severs a segment: every frame offered to the wire is dropped
    /// (both directions — a cut cable, not a lossy one).
    Partition {
        /// Segment name.
        segment: String,
    },
    /// Reconnects a partitioned segment.
    Heal {
        /// Segment name.
        segment: String,
    },
    /// Opens an elevated loss/latency window on a segment (a failing
    /// transceiver, an overloaded bridge). Discovery should degrade
    /// gracefully, not wedge.
    Degrade {
        /// Segment name.
        segment: String,
        /// Additional independent frame-loss probability in `[0, 1]`.
        extra_loss: f64,
        /// Additional per-frame one-way latency, in microseconds.
        extra_latency_micros: u64,
    },
    /// Closes a [`FaultKind::Degrade`] window.
    ClearDegrade {
        /// Segment name.
        segment: String,
    },
    /// Reconfigures a node's primary interface to `ip` — when `ip`
    /// already belongs to another live host, this is the "Duplicate
    /// Address Assignment" of Table 8 appearing mid-run.
    DuplicateIp {
        /// Node whose primary interface is reconfigured.
        node: String,
        /// The (already taken) address it now claims.
        ip: Ipv4Addr,
    },
    /// Misconfigures a node's primary-interface subnet mask — the
    /// "Inconsistent Network Masks" problem. Routes are left alone: the
    /// host now *answers mask requests* wrongly, which is what the
    /// SubnetMasks module observes and the analysis flags.
    WrongMask {
        /// Node whose mask is rewritten.
        node: String,
        /// The wrong prefix length to configure.
        prefix_len: u8,
    },
    /// Skews a node's time-of-day clock by a signed offset. Kernel
    /// timers still fire on true simulated time (an interval timer does
    /// not care what the wall clock says), but everything the node
    /// *timestamps* — including Journal observations emitted by
    /// processes hosted there — carries the skewed clock.
    ClockSkew {
        /// Node whose clock drifts.
        node: String,
        /// Signed offset in microseconds (positive = clock runs ahead).
        skew_micros: i64,
    },
}

/// One row per [`FaultKind`], in [`FaultKind::index`] order: the stable
/// trace-event name. The part after `fault.` is the `kind="…"` label of
/// `fremont_sim_fault_events_total`.
const TRACE_NAMES: [&str; 10] = [
    "fault.node_crash",
    "fault.node_reboot",
    "fault.gateway_death",
    "fault.partition",
    "fault.heal",
    "fault.degrade",
    "fault.clear_degrade",
    "fault.duplicate_ip",
    "fault.wrong_mask",
    "fault.clock_skew",
];

impl FaultKind {
    /// This kind's row in [`TRACE_NAMES`] and [`FaultStats`].
    fn index(&self) -> usize {
        match self {
            FaultKind::NodeCrash { .. } => 0,
            FaultKind::NodeReboot { .. } => 1,
            FaultKind::GatewayDeath { .. } => 2,
            FaultKind::Partition { .. } => 3,
            FaultKind::Heal { .. } => 4,
            FaultKind::Degrade { .. } => 5,
            FaultKind::ClearDegrade { .. } => 6,
            FaultKind::DuplicateIp { .. } => 7,
            FaultKind::WrongMask { .. } => 8,
            FaultKind::ClockSkew { .. } => 9,
        }
    }

    /// Trace-event name for this fault kind (stable, `fault.`-prefixed).
    pub fn trace_name(&self) -> &'static str {
        TRACE_NAMES[self.index()]
    }

    /// The name of the node or segment this fault targets.
    pub fn target(&self) -> &str {
        match self {
            FaultKind::NodeCrash { node }
            | FaultKind::NodeReboot { node }
            | FaultKind::DuplicateIp { node, .. }
            | FaultKind::WrongMask { node, .. }
            | FaultKind::ClockSkew { node, .. } => node,
            FaultKind::GatewayDeath { gateway } => gateway,
            FaultKind::Partition { segment }
            | FaultKind::Heal { segment }
            | FaultKind::Degrade { segment, .. }
            | FaultKind::ClearDegrade { segment } => segment,
        }
    }
}

/// A fault scheduled at an absolute simulated time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// When the fault fires, in microseconds of simulated time.
    pub at_micros: u64,
    /// What happens.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// The firing time as a [`SimTime`].
    pub fn at(&self) -> SimTime {
        SimTime(self.at_micros)
    }
}

/// An ordered script of injectable faults.
///
/// Same-time events fire in plan order (the engine's queue breaks time
/// ties by insertion sequence). The default plan is empty, and an empty
/// plan is *behaviorally invisible*: installing it schedules no events
/// and draws nothing from the engine RNG.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The scheduled faults.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// True when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Schedules one fault at `at`; returns `self` for chaining.
    pub fn at(mut self, at: SimTime, kind: FaultKind) -> Self {
        self.events.push(FaultEvent {
            at_micros: at.as_micros(),
            kind,
        });
        self
    }

    /// Crash `node` at `down_at` and reboot it `downtime` later.
    pub fn crash_between(self, node: &str, down_at: SimTime, downtime: SimDuration) -> Self {
        let node = node.to_owned();
        self.at(down_at, FaultKind::NodeCrash { node: node.clone() })
            .at(down_at + downtime, FaultKind::NodeReboot { node })
    }

    /// Partition `segment` at `from` and heal it `outage` later.
    pub fn partition_between(self, segment: &str, from: SimTime, outage: SimDuration) -> Self {
        let segment = segment.to_owned();
        self.at(
            from,
            FaultKind::Partition {
                segment: segment.clone(),
            },
        )
        .at(from + outage, FaultKind::Heal { segment })
    }

    /// Open a loss/latency window on `segment` at `from`, closing it
    /// `window` later.
    pub fn degrade_window(
        self,
        segment: &str,
        from: SimTime,
        window: SimDuration,
        extra_loss: f64,
        extra_latency: SimDuration,
    ) -> Self {
        let segment = segment.to_owned();
        self.at(
            from,
            FaultKind::Degrade {
                segment: segment.clone(),
                extra_loss,
                extra_latency_micros: extra_latency.as_micros(),
            },
        )
        .at(from + window, FaultKind::ClearDegrade { segment })
    }

    /// Serializes the plan as a committable JSON fixture.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).unwrap_or_else(|_| "{}".to_owned())
    }

    /// Parses a plan from a JSON fixture.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }
}

/// Counters of faults the engine has *applied* (not merely scheduled),
/// plus frames dropped on partitioned segments. Exposed as the
/// `fremont_sim_fault_*` metric family — but only once a non-empty plan
/// is installed, so fault-free expositions stay byte-identical to
/// builds without this module.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Events applied, one slot per kind in [`FaultKind::index`] order.
    applied: [u64; TRACE_NAMES.len()],
    /// Fault events naming an unknown node/segment (skipped).
    pub unresolved: u64,
    /// Frames swallowed by partitioned segments.
    pub frames_dropped: u64,
}

impl FaultStats {
    /// Total fault events applied (excluding per-frame drop counts).
    pub fn total(&self) -> u64 {
        self.applied.iter().sum()
    }

    /// `(kind, events applied)` for every kind, where `kind` is the
    /// snake-case name the `kind="…"` metric label carries.
    pub fn by_kind(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        let kinds = TRACE_NAMES.iter().map(|n| n.trim_start_matches("fault."));
        kinds.zip(self.applied.iter().copied())
    }

    /// Events applied of one kind, named as in [`FaultStats::by_kind`]
    /// (0 for a name that is no kind).
    pub fn applied(&self, kind: &str) -> u64 {
        self.by_kind()
            .find(|(k, _)| *k == kind)
            .map_or(0, |(_, n)| n)
    }
}

impl Sim {
    /// Schedules every event of a [`FaultPlan`] on the ordinary event
    /// queue. Events whose time is already past fire "now" (still in
    /// deterministic queue order).
    ///
    /// Installing an *empty* plan is a guaranteed no-op: it schedules
    /// nothing, draws nothing from the RNG, and leaves the telemetry
    /// exposition untouched, so a fault-free run with an empty plan is
    /// byte-identical to one without this call.
    pub fn install_fault_plan(&mut self, plan: &FaultPlan) {
        if plan.is_empty() {
            return;
        }
        self.faults_installed = true;
        for ev in &plan.events {
            let delay = ev.at().since(self.now()); // saturates to ZERO if past
            let kind = ev.kind.clone();
            self.schedule(delay, Event::Fault { kind });
        }
    }

    /// Applies one fault event. Unknown node/segment names are counted
    /// and traced rather than panicking, so a plan written for one
    /// topology degrades loudly-but-safely on another.
    pub(crate) fn apply_fault(&mut self, kind: FaultKind) {
        let resolved = self.try_apply_fault(&kind).is_some();
        if resolved {
            self.fault_stats.applied[kind.index()] += 1;
        } else {
            self.fault_stats.unresolved += 1;
        }
        if self.telemetry.enabled() {
            let name = if resolved {
                kind.trace_name()
            } else {
                "fault.unresolved"
            };
            let at = TelTime(self.now().as_micros());
            self.telemetry.event(name, kind.target(), SpanId::NONE, at);
        }
    }

    /// `None` when the fault's target (or, for a mask, its value) does
    /// not resolve; nothing has been touched then.
    fn try_apply_fault(&mut self, kind: &FaultKind) -> Option<()> {
        let node = self.node_by_name(kind.target());
        let seg = self.segment_by_name(kind.target());
        match kind {
            FaultKind::NodeCrash { .. } | FaultKind::GatewayDeath { .. } => {
                self.set_node_up(node?, false)
            }
            FaultKind::NodeReboot { .. } => self.set_node_up(node?, true),
            FaultKind::Partition { .. } => self.segments[seg?.0].partitioned = true,
            FaultKind::Heal { .. } => self.segments[seg?.0].partitioned = false,
            FaultKind::Degrade {
                extra_loss,
                extra_latency_micros,
                ..
            } => {
                let seg = &mut self.segments[seg?.0];
                seg.fault_loss = extra_loss.clamp(0.0, 1.0);
                seg.fault_latency = SimDuration::from_micros(*extra_latency_micros);
            }
            FaultKind::ClearDegrade { .. } => {
                let seg = &mut self.segments[seg?.0];
                seg.fault_loss = 0.0;
                seg.fault_latency = SimDuration::ZERO;
            }
            FaultKind::DuplicateIp { ip, .. } => {
                let node = node?;
                self.drop_audiences(node);
                self.nodes[node.0].ifaces.first_mut()?.ip = *ip;
            }
            // Routes are deliberately left alone: the host now *answers
            // mask requests* with the wrong mask, which is the observable
            // symptom the paper reports.
            FaultKind::WrongMask { prefix_len, .. } => {
                let (node, mask) = (node?, SubnetMask::from_prefix_len(*prefix_len).ok()?);
                self.drop_audiences(node);
                self.nodes[node.0].ifaces.first_mut()?.mask = mask;
            }
            FaultKind::ClockSkew { skew_micros, .. } => {
                self.nodes[node?.0].clock_skew = *skew_micros
            }
        }
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_builders_pair_events() {
        let plan = FaultPlan::new()
            .crash_between("piper", SimTime(5_000_000), SimDuration::from_secs(30))
            .partition_between("cs-net", SimTime(1_000_000), SimDuration::from_secs(10))
            .degrade_window(
                "backbone",
                SimTime(2_000_000),
                SimDuration::from_secs(60),
                0.4,
                SimDuration::from_millis(50),
            );
        assert_eq!(plan.len(), 6);
        assert_eq!(plan.events[0].at(), SimTime(5_000_000));
        assert!(matches!(plan.events[1].kind, FaultKind::NodeReboot { .. }));
        assert_eq!(plan.events[5].at_micros, 62_000_000);
    }

    #[test]
    fn json_round_trip_preserves_every_kind() {
        let plan = FaultPlan::new()
            .at(
                SimTime(1),
                FaultKind::GatewayDeath {
                    gateway: "cs-gw".to_owned(),
                },
            )
            .at(
                SimTime(2),
                FaultKind::DuplicateIp {
                    node: "rogue".to_owned(),
                    ip: "128.138.243.10".parse().unwrap(),
                },
            )
            .at(
                SimTime(3),
                FaultKind::WrongMask {
                    node: "badmask".to_owned(),
                    prefix_len: 16,
                },
            )
            .at(
                SimTime(4),
                FaultKind::ClockSkew {
                    node: "bruno".to_owned(),
                    skew_micros: -86_400_000_000,
                },
            )
            .at(
                SimTime(5),
                FaultKind::Degrade {
                    segment: "cs-net".to_owned(),
                    extra_loss: 0.25,
                    extra_latency_micros: 30_000,
                },
            );
        let json = plan.to_json();
        let back = FaultPlan::from_json(&json).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn empty_plan_is_empty() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        assert_eq!(FaultPlan::from_json(&plan.to_json()).unwrap(), plan);
    }

    /// One fault of every kind, in declaration order, all aimed at `target`.
    fn every_kind(target: &str) -> Vec<FaultKind> {
        let (node, segment) = (target.to_owned(), target.to_owned());
        vec![
            FaultKind::NodeCrash { node: node.clone() },
            FaultKind::NodeReboot { node: node.clone() },
            FaultKind::GatewayDeath {
                gateway: node.clone(),
            },
            FaultKind::Partition {
                segment: segment.clone(),
            },
            FaultKind::Heal {
                segment: segment.clone(),
            },
            FaultKind::Degrade {
                segment: segment.clone(),
                extra_loss: 0.5,
                extra_latency_micros: 10,
            },
            FaultKind::ClearDegrade { segment },
            FaultKind::DuplicateIp {
                node: node.clone(),
                ip: Ipv4Addr::new(10, 0, 0, 9),
            },
            FaultKind::WrongMask {
                node: node.clone(),
                prefix_len: 16,
            },
            FaultKind::ClockSkew {
                node,
                skew_micros: -5,
            },
        ]
    }

    /// The `kind="…"` labels dashboards, the CI chaos job and
    /// `tests/chaos_scenarios.rs` know, in sorted (exposition) order.
    const PUBLISHED_KINDS: [&str; 10] = [
        "clear_degrade",
        "clock_skew",
        "degrade",
        "duplicate_ip",
        "gateway_death",
        "heal",
        "node_crash",
        "node_reboot",
        "partition",
        "wrong_mask",
    ];

    #[test]
    fn every_kind_has_a_name_row_and_its_own_counter() {
        let kinds = every_kind("x");
        assert_eq!(kinds.len(), TRACE_NAMES.len(), "a kind without a row");
        let mut stats = FaultStats::default();
        for (i, k) in kinds.iter().enumerate() {
            assert_eq!(k.index(), i, "{k:?}");
            assert!(k.trace_name().starts_with("fault."), "{k:?}");
            stats.applied[k.index()] += i as u64 + 1;
        }
        for (i, k) in kinds.iter().enumerate() {
            let label = k.trace_name().trim_start_matches("fault.");
            assert_eq!(stats.applied(label), i as u64 + 1, "{label}");
        }
        assert_eq!(stats.total(), 55);
        assert_eq!(stats.applied("no_such_kind"), 0);
        let mut labels: Vec<&str> = stats.by_kind().map(|(k, _)| k).collect();
        labels.sort_unstable();
        assert_eq!(labels, PUBLISHED_KINDS);
    }

    #[test]
    fn applied_and_unresolved_faults_publish_the_known_labels() {
        let mut b = crate::builder::TopologyBuilder::new();
        let lan = b.segment("lan", "10.0.0.0/24");
        b.host("lan", lan, 1); // a node and a segment both named "lan"
        let (mut sim, _) = b.build(1);
        let (telemetry, rec) = fremont_telemetry::Telemetry::recording();
        sim.set_telemetry(telemetry);
        let mut plan = FaultPlan::new();
        for kind in every_kind("lan").into_iter().chain(every_kind("nowhere")) {
            plan = plan.at(SimTime(1), kind);
        }
        sim.install_fault_plan(&plan);
        sim.run_for(SimDuration::from_secs(1));
        sim.publish_metrics();
        assert_eq!(sim.fault_stats.total(), 10);
        assert_eq!(sim.fault_stats.unresolved, 10);
        let events = "fremont_sim_fault_events_total";
        assert_eq!(rec.counter(events, ""), 10);
        for k in PUBLISHED_KINDS {
            assert_eq!(rec.counter(events, &format!("kind=\"{k}\"")), 1, "{k}");
        }
        // No other series: the total is the ten plus one per kind.
        let total = 10 + PUBLISHED_KINDS.len() as u64;
        let sum = rec.counter_sum(fremont_telemetry::metrics::SIM_FAULT_EVENTS_TOTAL);
        assert_eq!(sum, total);
        assert_eq!(rec.counter("fremont_sim_fault_unresolved_total", ""), 10);
    }

    #[test]
    fn trace_names_and_targets() {
        let k = FaultKind::Heal {
            segment: "cs-net".to_owned(),
        };
        assert_eq!(k.trace_name(), "fault.heal");
        assert_eq!(k.target(), "cs-net");
    }
}
