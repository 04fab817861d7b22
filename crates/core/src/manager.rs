//! The Discovery Manager's scheduling state.
//!
//! "The purpose of the Discovery Manager is to decide what information
//! needs to be collected and what Explorer Modules should be invoked to
//! collect those data." The paper's manager keeps "the command name,
//! invocation frequency, and information about recent runs for each
//! Explorer Module" in a startup/history file; here that entry is a
//! [`ModuleSchedule`], held in memory. It adjusts the schedule by
//! fruitfulness: "if the Discovery Manager sees that 20 of 400
//! interfaces recorded in the Journal do not have subnet masks recorded
//! and that this was true before the 'subnet mask' module was last
//! invoked, then the Discovery Manager will not shorten the interval
//! until the next invocation of that module."

use fremont_journal::observation::Source;
use fremont_journal::store::StoreSummary;
use fremont_journal::time::JTime;
use fremont_netsim::stats::ProcStats;
use fremont_netsim::time::SimDuration;

use crate::load::ModuleLoad;
use crate::registry::{info_for, registry};

/// Per-module scheduling state and run history. Whether a run is in
/// flight, and its start to the microsecond, are the driver's: it holds
/// the run.
#[derive(Debug, Clone)]
pub struct ModuleSchedule {
    /// Which module.
    pub source: Source,
    /// The adaptive re-invocation interval, seconds. Always within the
    /// registry's `[min_interval, max_interval]`.
    pub interval: u64,
    /// When the module last started, in whole Journal seconds. [`due`]
    /// needs it after the run is retired, so it cannot be read off the
    /// driver's in-flight run.
    ///
    /// [`due`]: DiscoveryManager::due
    pub last_run: Option<JTime>,
    /// Completed runs.
    pub runs: u32,
    /// The unmet-need metric (e.g. missing masks) observed before the last
    /// run, for the fruitfulness rule.
    pub deficit_before_last: Option<u64>,
    /// Measured load of the completed runs.
    pub load: ModuleLoad,
}

/// Outcome of one module run, as the manager sees it.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOutcome {
    /// Journal store summary accumulated over the run.
    pub stored: StoreSummary,
    /// The unmet-need metric after the run (module-specific; e.g. number
    /// of interfaces still missing masks).
    pub deficit_after: Option<u64>,
    /// The run's packet counters.
    pub stats: ProcStats,
    /// How long the run took, in simulated time.
    pub elapsed: SimDuration,
}

/// The Discovery Manager's schedule table.
#[derive(Debug, Clone)]
pub struct DiscoveryManager {
    schedules: Vec<ModuleSchedule>,
}

impl DiscoveryManager {
    /// Fresh state for the `enabled` modules, in the registry's Table 3
    /// order: every module starts at its minimum interval so the first
    /// exploration is eager.
    pub fn new(enabled: &[Source]) -> Self {
        DiscoveryManager {
            schedules: registry()
                .iter()
                .filter(|m| enabled.contains(&m.source))
                .map(|m| ModuleSchedule {
                    source: m.source,
                    interval: m.min_interval.as_secs(),
                    last_run: None,
                    runs: 0,
                    deficit_before_last: None,
                    load: ModuleLoad::default(),
                })
                .collect(),
        }
    }

    /// The schedule entry for a module (`None` if it is not enabled).
    pub fn schedule(&self, source: Source) -> Option<&ModuleSchedule> {
        self.schedules.iter().find(|s| s.source == source)
    }

    /// Modules whose interval has elapsed at `now`, in Table 3 order.
    pub fn due(&self, now: JTime) -> Vec<Source> {
        self.schedules
            .iter()
            .filter(|s| match s.last_run {
                None => true,
                Some(last) => now.secs_since(last) >= s.interval,
            })
            .map(|s| s.source)
            .collect()
    }

    /// Marks a module started; `deficit` records the unmet need it was
    /// launched to address.
    pub fn mark_started(&mut self, source: Source, now: JTime, deficit: Option<u64>) {
        if let Some(s) = self.schedules.iter_mut().find(|s| s.source == source) {
            s.last_run = Some(now);
            s.deficit_before_last = deficit;
        }
    }

    /// Records a completed run and adapts the interval.
    ///
    /// Fruitful (new or changed records, or the deficit shrank): halve the
    /// interval toward the minimum. Fruitless, or a deficit that did not
    /// move: double it toward the maximum — the paper's "will not shorten
    /// the interval" rule, generalized to back off.
    pub fn record_run(&mut self, source: Source, outcome: RunOutcome) {
        let Some(info) = info_for(source) else {
            return;
        };
        let Some(s) = self.schedules.iter_mut().find(|s| s.source == source) else {
            return;
        };
        s.runs += 1;
        s.load.add_run(outcome.stats, outcome.elapsed);
        let deficit_unmoved = match (s.deficit_before_last, outcome.deficit_after) {
            (Some(before), Some(after)) => after >= before,
            _ => false,
        };
        let fruitful = (outcome.stored.created + outcome.stored.updated) > 0 && !deficit_unmoved;
        let (min, max) = (info.min_interval.as_secs(), info.max_interval.as_secs());
        s.interval = if fruitful {
            (s.interval / 2).max(min)
        } else {
            (s.interval * 2).min(max)
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all() -> DiscoveryManager {
        DiscoveryManager::new(&Source::EXPLORERS)
    }

    fn outcome(
        created: usize,
        updated: usize,
        verified: usize,
        deficit: Option<u64>,
    ) -> RunOutcome {
        RunOutcome {
            stored: StoreSummary {
                created,
                updated,
                verified,
            },
            deficit_after: deficit,
            ..RunOutcome::default()
        }
    }

    #[test]
    fn everything_due_at_start() {
        let m = all();
        assert_eq!(m.due(JTime(0)), Source::EXPLORERS);
    }

    #[test]
    fn only_enabled_modules_are_scheduled() {
        let m = DiscoveryManager::new(&[Source::Dns, Source::SeqPing]);
        assert_eq!(m.due(JTime(0)), vec![Source::SeqPing, Source::Dns]);
        assert!(m.schedule(Source::ArpWatch).is_none());
        assert!(DiscoveryManager::new(&[]).due(JTime(0)).is_empty());
    }

    #[test]
    fn running_module_not_due() {
        let mut m = all();
        m.mark_started(Source::SeqPing, JTime(0), None);
        assert!(!m.due(JTime(0)).contains(&Source::SeqPing));
    }

    #[test]
    fn interval_elapses() {
        let mut m = all();
        m.mark_started(Source::SeqPing, JTime(0), None);
        m.record_run(Source::SeqPing, outcome(10, 0, 0, None));
        // Fruitful run: interval stays at the 2-day minimum.
        let s = m.schedule(Source::SeqPing).unwrap();
        assert_eq!(s.interval, JTime::from_days(2).as_secs());
        assert_eq!(s.runs, 1);
        assert!(!m.due(JTime::from_days(1)).contains(&Source::SeqPing));
        assert!(m.due(JTime::from_days(2)).contains(&Source::SeqPing));
    }

    #[test]
    fn each_run_adds_its_load() {
        let mut m = all();
        for sent in [3, 4] {
            m.mark_started(Source::SeqPing, JTime(0), None);
            m.record_run(
                Source::SeqPing,
                RunOutcome {
                    stats: ProcStats {
                        packets_sent: sent,
                        ..ProcStats::default()
                    },
                    elapsed: SimDuration::from_secs(10),
                    ..RunOutcome::default()
                },
            );
        }
        let s = m.schedule(Source::SeqPing).unwrap();
        assert_eq!((s.runs, s.load.packets_sent), (2, 7));
        assert_eq!(s.load.busy, SimDuration::from_secs(20));
    }

    #[test]
    fn fruitless_run_backs_off() {
        let mut m = all();
        let before = m.schedule(Source::SeqPing).unwrap().interval;
        m.mark_started(Source::SeqPing, JTime(0), None);
        m.record_run(Source::SeqPing, outcome(0, 0, 50, None));
        let after = m.schedule(Source::SeqPing).unwrap().interval;
        assert_eq!(after, before * 2);
        // Repeated fruitless runs saturate at the maximum.
        for _ in 0..10 {
            m.mark_started(Source::SeqPing, JTime(0), None);
            m.record_run(Source::SeqPing, outcome(0, 0, 1, None));
        }
        assert_eq!(
            m.schedule(Source::SeqPing).unwrap().interval,
            JTime::from_days(14).as_secs()
        );
    }

    #[test]
    fn unmoved_deficit_is_fruitless_even_with_updates() {
        // The paper's example: 20 of 400 interfaces still lack masks after
        // the mask module ran — do not shorten the interval.
        let mut m = all();
        let before = m.schedule(Source::SubnetMasks).unwrap().interval;
        m.mark_started(Source::SubnetMasks, JTime(0), Some(20));
        m.record_run(Source::SubnetMasks, outcome(0, 5, 100, Some(20)));
        assert!(m.schedule(Source::SubnetMasks).unwrap().interval >= before);
    }

    #[test]
    fn shrinking_deficit_is_fruitful() {
        let mut m = all();
        // Push the interval up first.
        m.mark_started(Source::SubnetMasks, JTime(0), None);
        m.record_run(Source::SubnetMasks, outcome(0, 0, 0, None));
        let inflated = m.schedule(Source::SubnetMasks).unwrap().interval;
        m.mark_started(Source::SubnetMasks, JTime(0), Some(20));
        m.record_run(Source::SubnetMasks, outcome(0, 18, 0, Some(2)));
        assert!(m.schedule(Source::SubnetMasks).unwrap().interval < inflated);
    }
}
