//! Per-module operational load: Table 4 as a first-class report.
//!
//! The paper's Table 4 characterises each Explorer Module by its
//! network load (packets per second) and completion time. Each module's
//! schedule accumulates the measured packet counts and busy sim-time of
//! its completed runs (from the engine's per-process counters); the
//! driver adds the run in flight and renders a [`ModuleLoadReport`]
//! next to the paper's own numbers.

use std::fmt::Write as _;

use fremont_journal::observation::Source;
use fremont_netsim::stats::ProcStats;
use fremont_netsim::time::SimDuration;

use crate::registry::info_for;

/// Measured load of one module across its runs so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModuleLoad {
    /// IP packets the module's processes originated.
    pub packets_sent: u64,
    /// UDP/ICMP payloads delivered to the module's handlers.
    pub packets_received: u64,
    /// Frames seen through a promiscuous tap (ARPwatch, RIPwatch).
    pub frames_tapped: u64,
    /// Total simulated time the module spent running.
    pub busy: SimDuration,
}

impl ModuleLoad {
    /// Folds one run's packet counters and its sim time so far into the
    /// totals — at retirement, or live for a module still running.
    pub(crate) fn add_run(&mut self, stats: ProcStats, elapsed: SimDuration) {
        self.packets_sent += stats.packets_sent;
        self.packets_received += stats.packets_received;
        self.frames_tapped += stats.frames_tapped;
        self.busy = self.busy + elapsed;
    }

    /// Whether the module has observably touched the network (sent,
    /// received, or tapped at least one packet).
    pub fn active(&self) -> bool {
        self.packets_sent + self.packets_received + self.frames_tapped > 0
    }

    /// Measured network load in packets per busy second (sent only —
    /// the paper's load column counts traffic a module *injects*).
    pub fn pkts_per_sec(&self) -> f64 {
        let secs = self.busy.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.packets_sent as f64 / secs
    }
}

/// One rendered row of the Table 4 reproduction.
#[derive(Debug, Clone)]
pub struct ModuleLoadRow {
    /// The module.
    pub source: Source,
    /// Runs started: the completed ones plus the one in flight, if any.
    pub runs: u64,
    /// Measured counters.
    pub load: ModuleLoad,
    /// Paper's network-load description (Table 4).
    pub paper_network_load: &'static str,
    /// Paper's completion-time description (Table 4).
    pub paper_completion: &'static str,
}

/// Measured per-module load for all eight Explorer Modules.
#[derive(Debug, Clone)]
pub struct ModuleLoadReport {
    /// One row per module, in the paper's Table 3/4 order.
    pub rows: Vec<ModuleLoadRow>,
}

impl ModuleLoadReport {
    /// Builds the report from `measured`, each module's started runs
    /// and accumulated load; modules that never ran still get a (zeroed)
    /// row, so the shape is always 8 rows.
    pub fn new(measured: impl Fn(Source) -> (u64, ModuleLoad)) -> Self {
        let rows = Source::EXPLORERS
            .iter()
            .map(|&source| {
                let (runs, load) = measured(source);
                let info = info_for(source);
                ModuleLoadRow {
                    source,
                    runs,
                    load,
                    paper_network_load: info.map_or("-", |i| i.network_load),
                    paper_completion: info.map_or("-", |i| i.time_to_complete),
                }
            })
            .collect();
        ModuleLoadReport { rows }
    }

    /// Whether every module shows network activity — the acceptance
    /// bar for a full campus exploration.
    pub fn all_modules_active(&self) -> bool {
        self.rows.iter().all(|r| r.load.active())
    }

    /// Renders the report as a fixed-width text table, measured
    /// columns beside the paper's Table 4 descriptions.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<15} {:>5} {:>9} {:>9} {:>9} {:>9} {:>10}  {:<14} paper completion",
            "Module", "runs", "sent", "recv", "tapped", "busy(s)", "pkts/sec", "paper load",
        );
        let _ = writeln!(out, "{}", "-".repeat(108));
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<15} {:>5} {:>9} {:>9} {:>9} {:>9.0} {:>10.2}  {:<14} {}",
                r.source.name(),
                r.runs,
                r.load.packets_sent,
                r.load.packets_received,
                r.load.frames_tapped,
                r.load.busy.as_secs_f64(),
                r.load.pkts_per_sec(),
                r.paper_network_load,
                r.paper_completion,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_always_has_eight_rows() {
        let report = ModuleLoadReport::new(|_| Default::default());
        assert_eq!(report.rows.len(), 8);
        assert!(!report.all_modules_active());
        let text = report.render();
        assert!(text.contains("ARPwatch"), "{text}");
        assert!(text.contains("DNS"), "{text}");
        assert!(text.contains("paper load"), "{text}");
    }

    #[test]
    fn pkts_per_sec_divides_by_busy_time() {
        let load = ModuleLoad {
            packets_sent: 120,
            busy: SimDuration::from_secs(60),
            ..ModuleLoad::default()
        };
        assert!((load.pkts_per_sec() - 2.0).abs() < 1e-9);
        assert_eq!(ModuleLoad::default().pkts_per_sec(), 0.0);
    }

    #[test]
    fn activity_counts_any_direction() {
        let tapped = ModuleLoad {
            frames_tapped: 1,
            ..ModuleLoad::default()
        };
        assert!(tapped.active());
        assert!(!ModuleLoad::default().active());
    }

    #[test]
    fn rows_carry_paper_descriptions() {
        let report = ModuleLoadReport::new(|_| Default::default());
        let dns = report
            .rows
            .iter()
            .find(|r| r.source == Source::Dns)
            .unwrap();
        assert_eq!(dns.paper_network_load, "10 pkts/sec");
    }
}
