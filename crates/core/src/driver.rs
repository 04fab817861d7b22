//! The Discovery Manager driver: runs Explorer Modules on the simulated
//! network, pumps their observations into the Journal, and adapts the
//! schedule.
//!
//! In the paper's deployment the Discovery Manager forks module processes
//! on UNIX hosts and they talk to the Journal Server over BSD sockets;
//! here the driver spawns module [`fremont_netsim::process::Process`]es on a simulated host and
//! forwards their observations to a [`SharedJournal`], preserving the
//! architecture's roles: modules only observe, the Journal stores and
//! timestamps, and the manager decides what runs next based on Journal
//! contents.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use fremont_explorers::{
    ArpWatch, BrdcastPing, DnsExplorer, EtherHostProbe, RipWatch, SeqPing, SubnetMasks, Traceroute,
};
use fremont_journal::client::RemoteJournal;
use fremont_journal::observation::{Observation, Source};
use fremont_journal::proto::StoreBatchItem;
use fremont_journal::query::{InterfaceQuery, SubnetQuery};
use fremont_journal::server::{JournalAccess, SharedJournal};
use fremont_journal::store::StoreSummary;
use fremont_net::Subnet;
use fremont_netsim::engine::Sim;
use fremont_netsim::process::ProcHandle;
use fremont_netsim::segment::NodeId;
use fremont_netsim::time::{SimDuration, SimTime};
use fremont_telemetry::{SpanId, TelTime, Telemetry};

use crate::correlate::correlate;
use crate::load::{ModuleLoad, ModuleLoadReport};
use crate::manager::{DiscoveryManager, RunOutcome};

/// How often the driver pumps observations and re-plans, in sim time.
const PUMP_INTERVAL: SimDuration = SimDuration::from_secs(30);

/// Driver configuration.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Modules the manager schedules (default: all eight); no other
    /// module ever runs.
    pub enabled: Vec<Source>,
    /// The network under exploration (bounds traceroute and DNS).
    pub network: Subnet,
    /// The campus name server (for the DNS module).
    pub dns_server: Option<Ipv4Addr>,
    /// Telemetry sink handle, threaded into the simulator and the
    /// remote journal client (default: no-op).
    pub telemetry: Telemetry,
    /// Address of a remote Journal Server (`host:port`). When set,
    /// [`DiscoveryDriver::open`] writes through: every batch is applied
    /// to the local in-memory journal (the authoritative, deterministic
    /// replica the manager plans from) *and* shipped over TCP, with the
    /// driver's trace context propagated in each frame. Durability is
    /// the server's: run it over a `DurableJournal`.
    pub remote_journal: Option<String>,
    /// Distributed trace id stamped on remote stores (0 disables
    /// propagation). Only meaningful with `remote_journal`.
    pub trace_id: u64,
}

impl DriverConfig {
    /// All modules over a network.
    pub fn full(network: Subnet, dns_server: Option<Ipv4Addr>) -> Self {
        DriverConfig {
            enabled: Source::EXPLORERS.to_vec(),
            network,
            dns_server,
            telemetry: Telemetry::noop(),
            remote_journal: None,
            trace_id: 1,
        }
    }
}

/// The running deployment: simulator + journal + manager.
pub struct DiscoveryDriver {
    /// The simulated network.
    pub sim: Sim,
    /// The shared Journal.
    pub journal: SharedJournal,
    /// The scheduling state.
    pub manager: DiscoveryManager,
    cfg: DriverConfig,
    home: NodeId,
    /// Write-through to a remote Journal Server: the local journal is
    /// the deterministic replica, the server gets a traced copy.
    remote: Option<RemoteJournal>,
    /// The runs in flight: a module is running exactly while it is here.
    running: BTreeMap<Source, RunningModule>,
    /// See [`Self::set_max_module_runtime`].
    max_module_runtime: Option<SimDuration>,
    pump_cycle: u64,
    module_timeouts: u64,
}

/// Book-keeping for one in-flight module run.
struct RunningModule {
    handle: ProcHandle,
    stored: StoreSummary,
    /// Start to the microsecond, for the run's busy time: the
    /// schedule's `last_run` keeps only whole Journal seconds, and a
    /// pump need not fall on a whole second.
    started: SimTime,
}

impl DiscoveryDriver {
    /// Creates a driver running modules on `home`, storing into the
    /// given in-memory journal (use [`DiscoveryDriver::open`] to write
    /// through to a Journal Server).
    pub fn new(sim: Sim, journal: SharedJournal, home: NodeId, cfg: DriverConfig) -> Self {
        Self::start(sim, journal, home, cfg, None)
    }

    /// The one place a driver is put together: attaches the telemetry
    /// sink to the simulator and publishes the startup dump.
    fn start(
        mut sim: Sim,
        journal: SharedJournal,
        home: NodeId,
        cfg: DriverConfig,
        remote: Option<RemoteJournal>,
    ) -> Self {
        sim.set_telemetry(cfg.telemetry.clone());
        let driver = DiscoveryDriver {
            sim,
            journal,
            manager: DiscoveryManager::new(&cfg.enabled),
            cfg,
            home,
            remote,
            running: BTreeMap::new(),
            max_module_runtime: None,
            pump_cycle: 0,
            module_timeouts: 0,
        };
        driver.publish_startup();
        driver
    }

    /// Creates a driver over a fresh in-memory journal that, when
    /// `cfg.remote_journal` is set, also writes through to that Journal
    /// Server.
    pub fn open(sim: Sim, home: NodeId, cfg: DriverConfig) -> std::io::Result<Self> {
        let remote = match &cfg.remote_journal {
            Some(addr) => Some(
                RemoteJournal::connect_traced(addr, cfg.telemetry.clone(), cfg.trace_id)
                    .map_err(|e| std::io::Error::other(e.to_string()))?,
            ),
            None => None,
        };
        Ok(Self::start(sim, SharedJournal::new(), home, cfg, remote))
    }

    /// Startup telemetry dump: the journal's opening statistics.
    fn publish_startup(&self) {
        let tel = &self.cfg.telemetry;
        if !tel.enabled() {
            return;
        }
        if let Ok(stats) = self.journal.stats() {
            fremont_journal::server::publish_journal_stats(tel, &stats);
            let detail = format!(
                "interfaces={} gateways={} subnets={} observations_applied={}",
                stats.interfaces, stats.gateways, stats.subnets, stats.observations_applied
            );
            tel.event(
                "driver.startup",
                &detail,
                SpanId::NONE,
                TelTime(self.sim.now().as_micros()),
            );
        }
    }

    /// Stores a batched request: the in-memory journal applies the
    /// whole group under one write-lock acquisition, then a remote
    /// deployment ships the same group to its server.
    ///
    /// With a real `parent` span, the remote leg joins the pump's trace:
    /// it opens a `client.store_batch` span whose context rides in the
    /// frame to the server.
    fn store_batched(
        &self,
        batches: &[StoreBatchItem],
        parent: SpanId,
        at: TelTime,
    ) -> StoreSummary {
        // The local replica is authoritative: its summary (and the
        // planning reads against it) stay deterministic even if the
        // remote side drops the connection mid-batch.
        let summary = self.journal.store_batch(batches).unwrap_or_default();
        if let Some(client) = &self.remote {
            if client.store_batch_traced(batches, parent, at).is_err() {
                self.cfg
                    .telemetry
                    .counter_add("fremont_driver_remote_errors_total", "", 1);
            }
        }
        summary
    }

    /// Asks the remote Journal Server, if any, to persist what it holds;
    /// in memory this is a no-op. Called automatically at the end of
    /// [`Self::run_for`].
    pub fn flush(&self) -> std::io::Result<()> {
        match &self.remote {
            None => Ok(()),
            Some(client) => client
                .flush()
                .map_err(|e| std::io::Error::other(e.to_string())),
        }
    }

    /// Runs the deployment for a span of simulated time, then flushes
    /// the remote journal (see [`Self::flush`]). The error is the flush
    /// failing: exploration itself has already happened and its results
    /// are in memory, but durability was not achieved.
    pub fn run_for(&mut self, duration: SimDuration) -> std::io::Result<()> {
        let deadline = self.sim.now() + duration;
        // Plan immediately so due modules start at the beginning of the
        // span rather than one pump interval in.
        self.pump();
        while self.sim.now() < deadline {
            let slice = PUMP_INTERVAL.min(deadline - self.sim.now());
            self.sim.run_for(slice);
            self.pump();
        }
        self.flush()
    }

    /// One pump: drain observations, retire finished modules, start due
    /// ones, cross-correlate. With telemetry attached, each pump emits
    /// a span tree (`driver.pump` with one child per phase); all spans
    /// carry the same sim timestamp — a pump is instantaneous in
    /// simulated time — so phase "timing" is reported as logical work
    /// counts in the span end details.
    pub fn pump(&mut self) {
        self.pump_cycle += 1;
        let tel = self.cfg.telemetry.clone();
        let at = TelTime(self.sim.now().as_micros());
        let root = if tel.enabled() {
            tel.span_start(
                "driver.pump",
                &format!("cycle={}", self.pump_cycle),
                SpanId::NONE,
                at,
            )
        } else {
            SpanId::NONE
        };

        // 1. Observations → Journal, attributed to their emitting module.
        // Consecutive observations from the same module travel as one
        // batched store (one write-lock acquisition, at most one fsync)
        // while keeping the exact drain order and per-module summary
        // attribution of the one-at-a-time path.
        let drain_span = tel.span_start("driver.drain", "", root, at);
        let drained = self.sim.drain_observations();
        let had_news = !drained.is_empty();
        let drained_count = drained.len();
        let groups = group_drained(drained);
        let batch_count = groups.len();
        let mut merged = 0u64;
        for (handle, batches) in &groups {
            let summary = self.store_batched(batches, drain_span, at);
            merged += (summary.created + summary.updated + summary.verified) as u64;
            if let Some(m) = self.running.values_mut().find(|m| m.handle == *handle) {
                m.stored.absorb(summary);
            }
        }
        if tel.enabled() {
            tel.work(drain_span, "observations", drained_count as u64, at);
            tel.work(drain_span, "merge_ops", merged, at);
            tel.span_end(
                drain_span,
                &format!("observations={drained_count} batches={batch_count}"),
                at,
            );
        }

        // 2. Retire finished modules — and, when a runtime cap is set,
        // forcibly retire wedged ones so one unreachable target cannot
        // stall the whole schedule (graceful degradation under faults).
        let retire_span = tel.span_start("driver.retire", "", root, at);
        let now_sim = self.sim.now();
        let finished: Vec<(Source, bool)> = self
            .running
            .iter()
            .filter_map(|(s, m)| {
                if self.sim.process_done(m.handle) {
                    Some((*s, false))
                } else if self
                    .max_module_runtime
                    .is_some_and(|cap| now_sim.since(m.started) > cap)
                {
                    Some((*s, true))
                } else {
                    None
                }
            })
            .collect();
        let retired_count = finished.len();
        for (source, timed_out) in finished {
            if timed_out {
                self.module_timeouts += 1;
                if tel.enabled() {
                    tel.event("module.timeout", source.name(), root, at);
                }
            }
            self.retire(source, at, root);
        }
        if tel.enabled() {
            tel.work(retire_span, "module_runs", retired_count as u64, at);
            tel.span_end(retire_span, &format!("retired={retired_count}"), at);
        }

        // 3. Start due modules.
        let start_span = tel.span_start("driver.schedule", "", root, at);
        let now = self.sim.now().to_jtime();
        let mut started_count = 0usize;
        for source in self.manager.due(now) {
            if self.running.contains_key(&source) {
                continue;
            }
            if let Some(handle) = self.spawn_module(source) {
                self.manager
                    .mark_started(source, now, self.deficit_for(source));
                self.running.insert(
                    source,
                    RunningModule {
                        handle,
                        stored: StoreSummary::default(),
                        started: self.sim.now(),
                    },
                );
                started_count += 1;
                if tel.enabled() {
                    tel.event("module.start", source.name(), root, at);
                }
            }
        }
        if tel.enabled() {
            tel.span_end(start_span, &format!("started={started_count}"), at);
        }

        // 4. Cross-correlate — only when the journal actually changed.
        if had_news {
            let corr_span = tel.span_start("driver.correlate", "", root, at);
            let derived = self.journal.read(correlate);
            let derived_count = derived.len();
            if !derived.is_empty() {
                let _ = self.store_batched(
                    &[StoreBatchItem {
                        now,
                        observations: derived,
                    }],
                    corr_span,
                    at,
                );
            }
            if tel.enabled() {
                tel.work(corr_span, "observations", derived_count as u64, at);
                tel.span_end(corr_span, &format!("derived={derived_count}"), at);
            }
        }

        if tel.enabled() {
            tel.span_end(root, "ok", at);
            self.publish_metrics();
        }
    }

    /// Retires one running module: kills the process and records the
    /// run, its per-process packet counters included, with the manager.
    fn retire(&mut self, source: Source, at: TelTime, parent: SpanId) {
        let Some(m) = self.running.remove(&source) else {
            return; // Listed from this very map; cannot miss.
        };
        let stats = self.sim.proc_stats(m.handle);
        let elapsed = self.sim.now().since(m.started);
        self.sim.kill_process(m.handle);
        let tel = &self.cfg.telemetry;
        if tel.enabled() {
            let detail = format!(
                "{} sent={} recv={} tapped={} secs={:.0}",
                source.name(),
                stats.packets_sent,
                stats.packets_received,
                stats.frames_tapped,
                elapsed.as_secs_f64()
            );
            tel.event("module.retire", &detail, parent, at);
        }
        let deficit_after = self.deficit_for(source);
        self.manager.record_run(
            source,
            RunOutcome {
                stored: m.stored,
                deficit_after,
                stats,
                elapsed,
            },
        );
    }

    /// The Table 4 reproduction: measured per-module load, including
    /// still-running modules' live counters.
    pub fn load_report(&self) -> ModuleLoadReport {
        ModuleLoadReport::new(|source| {
            let (mut runs, mut load) = self
                .manager
                .schedule(source)
                .map_or((0, ModuleLoad::default()), |s| (u64::from(s.runs), s.load));
            if let Some(m) = self.running.get(&source) {
                runs += 1;
                load.add_run(
                    self.sim.proc_stats(m.handle),
                    self.sim.now().since(m.started),
                );
            }
            (runs, load)
        })
    }

    /// Publishes sim counters, journal gauges, and per-module packet
    /// counters into the telemetry sink.
    pub fn publish_metrics(&self) {
        let tel = &self.cfg.telemetry;
        if !tel.enabled() {
            return;
        }
        self.sim.publish_metrics();
        if let Ok(stats) = self.journal.stats() {
            fremont_journal::server::publish_journal_stats(tel, &stats);
        }
        if let Some(sharding) = self.journal.sharding_metrics() {
            fremont_journal::server::publish_sharding_metrics(tel, &sharding);
        }
        if let Some(groups) = self.journal.batch_groups_total() {
            tel.counter_set("fremont_journal_shard_batch_groups_total", "", groups);
        }
        let report = self.load_report();
        for row in &report.rows {
            let label = format!("module=\"{}\"", row.source.name());
            tel.counter_set(
                "fremont_module_packets_sent_total",
                &label,
                row.load.packets_sent,
            );
            tel.counter_set(
                "fremont_module_packets_received_total",
                &label,
                row.load.packets_received,
            );
            tel.counter_set(
                "fremont_module_frames_tapped_total",
                &label,
                row.load.frames_tapped,
            );
            tel.counter_set("fremont_module_runs_total", &label, row.runs);
        }
        // Gated on the cap being configured so deployments that never
        // opt in keep a byte-identical exposition.
        if self.max_module_runtime.is_some() {
            tel.counter_set("fremont_module_timeouts_total", "", self.module_timeouts);
        }
    }

    /// Sets the hard cap on a single module run in sim time. A module
    /// still running past it is forcibly retired at the next pump — its
    /// observations so far are kept, and `fremont_module_timeouts_total`
    /// counts it — so a wedged probe (dead gateway, partitioned segment)
    /// degrades discovery instead of stopping it. `None` (the default)
    /// never times out.
    pub fn set_max_module_runtime(&mut self, cap: Option<SimDuration>) {
        self.max_module_runtime = cap;
    }

    /// The unmet-need metric the manager tracks per module.
    fn deficit_for(&self, source: Source) -> Option<u64> {
        match source {
            Source::SubnetMasks => {
                let q = InterfaceQuery {
                    missing_mask: Some(true),
                    ..Default::default()
                };
                Some(
                    self.journal
                        .interfaces(&q)
                        .map(|v| v.len() as u64)
                        .unwrap_or(0),
                )
            }
            Source::Traceroute => {
                // Subnets with no known gateway.
                let q = SubnetQuery {
                    has_gateway: Some(false),
                    within: Some(self.cfg.network),
                    ..Default::default()
                };
                Some(
                    self.journal
                        .subnets(&q)
                        .map(|v| v.len() as u64)
                        .unwrap_or(0),
                )
            }
            _ => None,
        }
    }

    /// The local subnet of the module host.
    fn home_subnet(&self) -> Subnet {
        self.sim.nodes[self.home.0].ifaces[0].subnet()
    }

    /// Known subnets inside the explored network — "the data collected
    /// from RIP packets provide strong indications about the existence of
    /// specific other networks and subnets. This information is used by
    /// the traceroute Explorer Module."
    fn known_subnets(&self) -> Vec<Subnet> {
        let q = SubnetQuery {
            within: Some(self.cfg.network),
            ..Default::default()
        };
        self.journal
            .subnets(&q)
            .map(|v| v.into_iter().map(|r| r.subnet).collect())
            .unwrap_or_default()
    }

    fn spawn_module(&mut self, source: Source) -> Option<ProcHandle> {
        let home = self.home;
        let local = self.home_subnet();
        let handle = match source {
            Source::ArpWatch => self.sim.spawn(home, Box::new(ArpWatch::new())),
            Source::EtherHostProbe => self
                .sim
                .spawn(home, Box::new(EtherHostProbe::new(local.host_range()))),
            Source::SeqPing => self
                .sim
                .spawn(home, Box::new(SeqPing::new(local.host_range()))),
            Source::BrdcastPing => {
                let mut subnets = self.known_subnets();
                if subnets.is_empty() {
                    subnets.push(local);
                }
                self.sim.spawn(home, Box::new(BrdcastPing::new(subnets)))
            }
            Source::SubnetMasks => {
                let q = InterfaceQuery {
                    missing_mask: Some(true),
                    ..Default::default()
                };
                let targets: Vec<Ipv4Addr> = self
                    .journal
                    .interfaces(&q)
                    .unwrap_or_default()
                    .into_iter()
                    .filter_map(|r| r.ip_addr())
                    .collect();
                if targets.is_empty() {
                    return None; // Nothing to ask yet.
                }
                self.sim.spawn(home, Box::new(SubnetMasks::new(targets)))
            }
            Source::Traceroute => {
                let mut subnets = self.known_subnets();
                subnets.retain(|s| *s != local);
                if subnets.is_empty() {
                    return None; // No clues yet; RIPwatch/DNS go first.
                }
                let traceroute = Traceroute::new(subnets, self.cfg.network);
                self.sim.spawn(home, Box::new(traceroute))
            }
            Source::RipWatch => self.sim.spawn(home, Box::new(RipWatch::new())),
            Source::Dns => {
                let server = self.cfg.dns_server?;
                let dns = DnsExplorer::new(self.cfg.network, server);
                self.sim.spawn(home, Box::new(dns))
            }
            Source::Manager => return None,
        };
        Some(handle)
    }
}

/// Groups a drain in order: consecutive observations from the same
/// module form one store group, and within a group consecutive
/// observations at the same sim time share one [`StoreBatchItem`].
/// Apply order and per-module attribution are exactly those of
/// storing one observation at a time.
fn group_drained(
    drained: Vec<(ProcHandle, SimTime, Observation)>,
) -> Vec<(ProcHandle, Vec<StoreBatchItem>)> {
    let mut groups: Vec<(ProcHandle, Vec<StoreBatchItem>)> = Vec::new();
    for (handle, obs_at, obs) in drained {
        let now = obs_at.to_jtime();
        match groups.last_mut() {
            Some((h, batches)) if *h == handle => match batches.last_mut() {
                Some(b) if b.now == now => b.observations.push(obs),
                _ => batches.push(StoreBatchItem {
                    now,
                    observations: vec![obs],
                }),
            },
            _ => groups.push((
                handle,
                vec![StoreBatchItem {
                    now,
                    observations: vec![obs],
                }],
            )),
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use fremont_netsim::builder::TopologyBuilder;

    fn small_world() -> (Sim, NodeId, Subnet) {
        let mut b = TopologyBuilder::new();
        let a = b.segment("net-a", "10.5.1.0/26");
        let c = b.segment("net-c", "10.5.2.0/26");
        b.host("probe", a, 10);
        b.host("other", a, 11);
        b.host("far", c, 10);
        b.router("gw", &[(a, 1), (c, 1)]);
        let (sim, topo) = b.build(77);
        let home = topo.nodes_by_name["probe"];
        (sim, home, "10.5.0.0/16".parse().unwrap())
    }

    #[test]
    fn run_single_seqping_populates_journal() {
        let (sim, home, network) = small_world();
        let journal = SharedJournal::new();
        let mut driver = DiscoveryDriver::new(
            sim,
            journal.clone(),
            home,
            DriverConfig {
                enabled: vec![Source::SeqPing],
                ..DriverConfig::full(network, None)
            },
        );
        driver.run_for(SimDuration::from_mins(20)).unwrap();
        assert!(driver.manager.schedule(Source::SeqPing).unwrap().runs >= 1);
        let stats = journal.stats().unwrap();
        assert!(stats.interfaces >= 2);
    }

    #[test]
    fn full_cycle_discovers_and_correlates() {
        let (sim, home, network) = small_world();
        let journal = SharedJournal::new();
        let mut driver = DiscoveryDriver::new(
            sim,
            journal.clone(),
            home,
            DriverConfig::full(network, None),
        );
        // One simulated hour: RIPwatch hears the router, traceroute maps
        // the far subnet, pings find hosts, masks arrive, correlation
        // builds the gateway.
        driver.run_for(SimDuration::from_hours(1)).unwrap();
        let stats = journal.stats().unwrap();
        assert!(stats.interfaces >= 3, "{stats:?}");
        assert!(stats.subnets >= 2, "{stats:?}");
        let gws = journal.gateways().unwrap();
        assert!(!gws.is_empty(), "gateway discovered through correlation");
        // Both subnets are known.
        let subs = journal.subnets(&SubnetQuery::all()).unwrap();
        let names: Vec<String> = subs.iter().map(|s| s.subnet.to_string()).collect();
        assert!(names.contains(&"10.5.1.0/26".to_owned()), "{names:?}");
        assert!(names.contains(&"10.5.2.0/26".to_owned()), "{names:?}");
        // The schedule recorded completed runs.
        assert!(driver.manager.schedule(Source::SeqPing).unwrap().runs >= 1);
        assert!(driver.manager.schedule(Source::RipWatch).unwrap().runs >= 1);
        journal.read(|j| j.check_invariants()).unwrap();
    }

    #[test]
    fn traceroute_waits_for_clues() {
        let (sim, home, network) = small_world();
        let journal = SharedJournal::new();
        let mut driver = DiscoveryDriver::new(
            sim,
            journal.clone(),
            home,
            DriverConfig {
                enabled: vec![Source::Traceroute],
                ..DriverConfig::full(network, None)
            },
        );
        driver.pump();
        // With an empty journal there are no target subnets: nothing runs.
        assert!(!driver.running.contains_key(&Source::Traceroute));
    }

    #[test]
    fn no_enabled_module_runs_nothing() {
        let (sim, home, network) = small_world();
        let journal = SharedJournal::new();
        let mut driver = DiscoveryDriver::new(
            sim,
            journal.clone(),
            home,
            DriverConfig {
                enabled: vec![],
                ..DriverConfig::full(network, None)
            },
        );
        // One hour of pumps. A spawned run stays in `running` at least
        // until the next pump retires it, so an empty map after every
        // pump means nothing was spawned.
        driver.pump();
        assert!(driver.running.is_empty());
        for _ in 0..120 {
            driver.sim.run_for(PUMP_INTERVAL);
            driver.pump();
            assert!(driver.running.is_empty());
        }
        let stats = journal.stats().unwrap();
        assert_eq!(stats.observations_applied, 0, "{stats:?}");
        assert_eq!(stats.interfaces + stats.subnets + stats.gateways, 0);
        let report = driver.load_report();
        assert_eq!(report.rows.len(), 8);
        for row in &report.rows {
            assert_eq!((row.runs, row.load), (0, ModuleLoad::default()), "{row:?}");
        }
    }

    #[test]
    fn run_counters_agree() {
        let (sim, home, network) = small_world();
        let mut driver = DiscoveryDriver::new(
            sim,
            SharedJournal::new(),
            home,
            DriverConfig::full(network, None),
        );
        driver.run_for(SimDuration::from_hours(1)).unwrap();
        // ARPwatch never finishes, so both terms of the sum are exercised.
        assert!(driver.running.contains_key(&Source::ArpWatch));
        let report = driver.load_report();
        let mut completed = 0;
        for row in &report.rows {
            let runs = driver.manager.schedule(row.source).unwrap().runs;
            completed += runs;
            let in_flight = u64::from(driver.running.contains_key(&row.source));
            assert_eq!(row.runs, u64::from(runs) + in_flight, "{:?}", row.source);
        }
        assert!(completed > 0);
    }
}
