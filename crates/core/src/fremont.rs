//! The Fremont facade: a ready-wired deployment over the synthetic campus.
//!
//! This is the "just run it" entry point the examples use: generate a
//! campus, start the Journal, let the Discovery Manager explore for a
//! simulated span, and hand back the journal plus analyses.

use fremont_journal::server::{JournalAccess, SharedJournal};
use fremont_journal::time::JTime;
use fremont_netsim::campus::{generate, CampusConfig, CampusTruth};
use fremont_netsim::time::SimDuration;
use fremont_telemetry::Telemetry;

use crate::analysis::ProblemReport;
use crate::driver::{DiscoveryDriver, DriverConfig};
use crate::load::ModuleLoadReport;
use crate::topology::TopologyGraph;

/// A Fremont deployment exploring a synthetic campus.
pub struct Fremont {
    /// The driver: simulator, manager, and the journal it writes.
    pub driver: DiscoveryDriver,
    /// Ground truth about the generated campus, for evaluation.
    pub truth: CampusTruth,
}

impl Fremont {
    /// Builds a deployment over a campus generated from `cfg`, with the
    /// Explorer Modules running on a host of the departmental subnet.
    pub fn over_campus(cfg: &CampusConfig) -> Self {
        Self::over_campus_with_telemetry(cfg, Telemetry::noop())
    }

    /// Like [`Fremont::over_campus`], with a telemetry sink attached to
    /// the simulator and driver: same-seed runs produce byte-identical
    /// traces, because every timestamp is simulated time.
    pub fn over_campus_with_telemetry(cfg: &CampusConfig, telemetry: Telemetry) -> Self {
        let (sim, truth) = generate(cfg);
        // The generator always creates the explorer host; fall back to
        // the first node rather than aborting a whole deployment if
        // that invariant ever breaks.
        let home = sim
            .node_by_name(&truth.explorer_host)
            .unwrap_or(fremont_netsim::segment::NodeId(0));
        let mut driver_cfg = DriverConfig::full(cfg.network, Some(truth.dns_server));
        driver_cfg.telemetry = telemetry;
        let driver = DiscoveryDriver::new(sim, SharedJournal::new(), home, driver_cfg);
        Fremont { driver, truth }
    }

    /// Explores for a span of simulated time. The error is the final
    /// journal flush failing (always `Ok` for in-memory deployments).
    pub fn explore(&mut self, duration: SimDuration) -> std::io::Result<()> {
        self.driver.run_for(duration)
    }

    /// Current journal time.
    pub fn now(&self) -> JTime {
        self.driver.sim.now().to_jtime()
    }

    /// Explores until discovery is *structurally quiescent*: the
    /// journal's interface/gateway/subnet counts have not changed for
    /// `idle` of simulated time (checked in `idle/4` slices), or `max`
    /// has elapsed. Returns the simulated instant at which the stable
    /// window began, or `None` if the run hit `max` still churning.
    ///
    /// "Quiescent" here means the topology census has converged —
    /// modules keep re-verifying on their Table 4 intervals, but they
    /// stop finding new objects. The chaos suite and the model checker
    /// use this to know a baseline has settled before judging findings.
    pub fn explore_until_quiescent(
        &mut self,
        max: SimDuration,
        idle: SimDuration,
    ) -> std::io::Result<Option<fremont_netsim::time::SimTime>> {
        let slice = SimDuration(idle.as_micros().div_ceil(4).max(1));
        let mut stable_since = self.driver.sim.now();
        let mut last = self.stats();
        let deadline = self.driver.sim.now() + max;
        while self.driver.sim.now() < deadline {
            let remaining = deadline.since(self.driver.sim.now());
            self.explore(if slice < remaining { slice } else { remaining })?;
            let cur = self.stats();
            let changed = (cur.interfaces, cur.gateways, cur.subnets)
                != (last.interfaces, last.gateways, last.subnets);
            if changed {
                stable_since = self.driver.sim.now();
                last = cur;
            } else if self.driver.sim.now().since(stable_since) >= idle {
                return Ok(Some(stable_since));
            }
        }
        Ok(None)
    }

    /// Runs all Table 8 analyses at the current time.
    pub fn problems(&self, stale_after: u64, recent: u64) -> ProblemReport {
        let now = self.now();
        self.driver
            .journal
            .read(|j| ProblemReport::generate(j, now, stale_after, recent))
    }

    /// Extracts the discovered topology graph (Figure 2 input).
    pub fn topology(&self) -> TopologyGraph {
        self.driver.journal.read(TopologyGraph::from_journal)
    }

    /// Journal statistics.
    pub fn stats(&self) -> fremont_journal::store::JournalStats {
        self.driver.journal.stats().unwrap_or_default()
    }

    /// Measured per-module load — the Table 4 reproduction.
    pub fn load_report(&self) -> ModuleLoadReport {
        self.driver.load_report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fremont_netsim::campus::CampusConfig;

    #[test]
    fn small_campus_exploration_end_to_end() {
        let mut cfg = CampusConfig::small();
        cfg.cs_traffic = false; // Keep the test fast.
        let mut f = Fremont::over_campus(&cfg);
        f.explore(SimDuration::from_mins(30)).unwrap();
        let stats = f.stats();
        assert!(stats.interfaces >= 5, "{stats:?}");
        assert!(stats.subnets >= 5, "{stats:?}");
        let topo = f.topology();
        assert!(!topo.gateways.is_empty());
    }
}
