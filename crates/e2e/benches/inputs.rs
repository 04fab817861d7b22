//! Input generation: the campus for a seed, the observation stream
//! recorded from a survey of it, and the fixed read cycle. Everything
//! here is a function of `--seed`; the program under test receives only
//! what this module generates.

use std::time::Instant;

use fremont_core::correlate::correlate;
use fremont_core::driver::{DiscoveryDriver, DriverConfig};
use fremont_journal::observation::Source;
use fremont_journal::proto::StoreBatchItem;
use fremont_journal::time::JTime;
use fremont_journal::{InterfaceQuery, JournalAccess, SharedJournal, SubnetQuery};
use fremont_net::Subnet;
use fremont_netsim::campus::{generate, CampusConfig, CampusTruth};
use fremont_netsim::engine::Sim;
use fremont_netsim::segment::NodeId;
use fremont_netsim::time::SimDuration;
use fremont_telemetry::Telemetry;

use crate::harness::{percentile, secs};

/// The driver's pump interval (`DriverConfig::full`).
pub const PUMP_SECS: u64 = 30;
/// Reads in one cycle of the read sequence, and in one round (four
/// cycles) of it.
pub const READ_CYCLE: usize = 16;
pub const READ_ROUND: usize = 4 * READ_CYCLE;
/// Observations per `store_batch` call of the journal workloads, and
/// how many of the recorded observations they replay: the same amount
/// of work whatever the seed, where the whole stream varies by 10 %.
/// At 256 the fsync is about a tenth of a durable call; at 64 it was
/// over a third, and when another tenant loaded the disk the fastest
/// of 300 passes took twice as long.
pub const BATCH: usize = 256;
pub const REPLAYED: usize = 4096;

/// A generated campus, ready to be explored.
pub struct Campus {
    pub sim: Sim,
    pub truth: CampusTruth,
    pub home: NodeId,
    pub driver_cfg: DriverConfig,
}

pub fn campus(cfg: &CampusConfig, telemetry: Telemetry) -> Campus {
    let (sim, truth) = generate(cfg);
    let home = sim
        .node_by_name(&truth.explorer_host)
        .expect("the generator always creates the explorer host");
    let mut driver_cfg = DriverConfig::full(cfg.network, Some(truth.dns_server));
    driver_cfg.telemetry = telemetry;
    Campus {
        sim,
        truth,
        home,
        driver_cfg,
    }
}

/// One `store_batch` call's worth of observations, as the driver groups
/// a drain.
pub type Group = Vec<StoreBatchItem>;

/// The recorded observation stream of one survey.
pub struct Stream {
    pub groups: Vec<Group>,
    pub observations: u64,
    /// Simulated span the stream covers, in seconds: replaying it again
    /// shifts every `now` by this much.
    pub span_secs: u64,
}

pub fn group_len(g: &Group) -> u64 {
    g.iter().map(|b| b.observations.len() as u64).sum()
}

/// A copy of `g` with every `now` moved `secs` later.
pub fn shifted(g: &Group, secs: u64) -> Group {
    g.iter()
        .map(|b| StoreBatchItem {
            now: JTime(b.now.0 + secs),
            observations: b.observations.clone(),
        })
        .collect()
}

impl Stream {
    /// The first [`REPLAYED`] observations (fewer when the stream is
    /// shorter; always whole calls) in recorded order, cut into calls of
    /// [`BATCH`]. Consecutive observations at one `now` still share a
    /// `StoreBatchItem`.
    ///
    /// As recorded, half the calls carry three observations or fewer and
    /// 48 % of them trigger the WAL's `EveryN(8)` fsync, so the median
    /// call sits on the edge between two modes and jumps fourfold from
    /// one campus to the next. Equal calls all sync, and differ only by
    /// what they carry.
    pub fn recut(&self) -> Stream {
        let take = (self.observations as usize).min(REPLAYED) / BATCH * BATCH;
        let mut groups: Vec<Group> = Vec::new();
        let mut taken = 0;
        'stream: for item in self.groups.iter().flatten() {
            for obs in &item.observations {
                if taken == take {
                    break 'stream;
                }
                if taken % BATCH == 0 {
                    groups.push(Vec::new());
                }
                taken += 1;
                let group = groups.last_mut().expect("pushed above");
                match group.last_mut() {
                    Some(last) if last.now == item.now => last.observations.push(obs.clone()),
                    _ => group.push(StoreBatchItem {
                        now: item.now,
                        observations: vec![obs.clone()],
                    }),
                }
            }
        }
        Stream {
            groups,
            observations: take as u64,
            span_secs: self.span_secs,
        }
    }

    /// Groups, observations, batch-size p50/max: printed so a change to
    /// the generator is visible.
    pub fn shape(&self) -> String {
        let sizes: Vec<f64> = self.groups.iter().map(|g| group_len(g) as f64).collect();
        format!(
            "stream: {} groups, {} observations, batch p50 {} max {}",
            self.groups.len(),
            self.observations,
            percentile(&sizes, 50.0),
            percentile(&sizes, 100.0)
        )
    }
}

/// One read of the fixed cycle.
#[derive(Clone)]
pub enum ReadOp {
    InSubnet(Subnet),
    Subnets,
    Gateways,
    All,
}

impl ReadOp {
    /// Issues the read; the number of records it returned.
    pub fn run<J: JournalAccess + ?Sized>(&self, j: &J) -> Result<usize, String> {
        let n = match self {
            ReadOp::InSubnet(s) => j
                .interfaces(&InterfaceQuery::in_subnet(*s))
                .map(|v| v.len()),
            ReadOp::Subnets => j.subnets(&SubnetQuery::all()).map(|v| v.len()),
            ReadOp::Gateways => j.gateways().map(|v| v.len()),
            ReadOp::All => j.interfaces(&InterfaceQuery::all()).map(|v| v.len()),
        };
        n.map_err(|e| e.to_string())
    }
}

/// Everything a workload needs that depends only on the seed.
pub struct Inputs {
    pub cfg: CampusConfig,
    pub stream: Stream,
    /// Fingerprint of the journal the recording survey ended with.
    pub recorded_fingerprint: u64,
    /// Connected subnets of the campus, and how many the survey found.
    pub subnets_truth: usize,
    pub subnets_found: usize,
    /// Whether the DNS explorer's zone walk ran (it never retries a lost
    /// first reply; a campus where that happens is a different, five
    /// times lighter workload).
    pub dns_walked: bool,
    /// Subnets that hold at least one known interface, for the reads.
    pub read_subnets: Vec<Subnet>,
    /// Seconds spent in `campus::generate`.
    pub generate_s: f64,
}

impl Inputs {
    /// Whether this campus gives the workload the benchmark is built
    /// around: discovery reaches the subnets and the DNS walk runs.
    pub fn representative(&self) -> bool {
        self.dns_walked && self.subnets_found * 100 >= self.subnets_truth * 95
    }

    /// The `i`-th read of the endless read sequence: rounds of
    /// [`READ_ROUND`] reads, each four cycles of 16 - 13 subnet reads
    /// round-robin over the discovered subnets (carrying on where the
    /// previous cycle stopped), then one each of subnets, gateways and
    /// all interfaces.
    pub fn read_op(&self, i: usize) -> ReadOp {
        let i = i % READ_ROUND;
        match i % READ_CYCLE {
            slot @ 0..=12 => ReadOp::InSubnet(
                self.read_subnets[(i / READ_CYCLE * 13 + slot) % self.read_subnets.len()],
            ),
            13 => ReadOp::Subnets,
            14 => ReadOp::Gateways,
            _ => ReadOp::All,
        }
    }
}

/// Generates the campus of `cfg` and records the observation stream of
/// a `minutes`-long in-memory survey of it.
///
/// The recorder pumps the deployment itself: after each slice it drains
/// the simulator ahead of `pump()`, groups the drain exactly as the
/// driver's private `group_drained` does (consecutive observations of
/// one module form a group; inside it, consecutive observations at one
/// `now` share a `StoreBatchItem`), stores each group, then stores the
/// `correlate` output as a group of its own, as `pump()` would have.
/// `pump()` then only retires and schedules modules. The one difference
/// from a live survey: the manager never sees what a run stored, so it
/// backs intervals off where a live survey would shorten them. Within
/// the two hours the benchmark simulates no module is rescheduled by
/// that rule, and the recorded journal fingerprints as the live one.
pub fn record(cfg: &CampusConfig, minutes: u64) -> Inputs {
    let t0 = Instant::now();
    let c = campus(cfg, Telemetry::noop());
    let generate_s = secs(t0.elapsed());
    let journal = SharedJournal::new();
    let truth = c.truth;
    let mut driver = DiscoveryDriver::new(c.sim, journal.clone(), c.home, c.driver_cfg);
    let mut groups: Vec<Group> = Vec::new();
    driver.pump();
    for _ in 0..minutes * 60 / PUMP_SECS {
        driver.sim.run_for(SimDuration::from_secs(PUMP_SECS));
        let drained = driver.sim.drain_observations();
        let had_news = !drained.is_empty();
        let first_new = groups.len();
        let mut last_handle = None;
        for (handle, at, obs) in drained {
            let now = at.to_jtime();
            if last_handle != Some(handle) {
                groups.push(Vec::new());
                last_handle = Some(handle);
            }
            let group = groups.last_mut().expect("pushed above");
            match group.last_mut() {
                Some(item) if item.now == now => item.observations.push(obs),
                _ => group.push(StoreBatchItem {
                    now,
                    observations: vec![obs],
                }),
            }
        }
        for g in &groups[first_new..] {
            journal.store_batch(g).expect("in-memory store");
        }
        if had_news {
            let derived = journal.read(correlate);
            if !derived.is_empty() {
                let g = vec![StoreBatchItem {
                    now: driver.sim.now().to_jtime(),
                    observations: derived,
                }];
                journal.store_batch(&g).expect("in-memory store");
                groups.push(g);
            }
        }
        driver.pump();
    }

    let discovered = journal
        .subnets(&SubnetQuery {
            within: Some(cfg.network),
            ..Default::default()
        })
        .expect("in-memory read");
    let subnets_found = discovered
        .iter()
        .filter(|s| truth.connected_subnets.contains(&s.subnet))
        .count();
    let read_subnets: Vec<Subnet> = discovered
        .iter()
        .map(|s| s.subnet)
        .filter(|s| {
            !journal
                .interfaces(&InterfaceQuery::in_subnet(*s))
                .expect("in-memory read")
                .is_empty()
        })
        .collect();
    let dns_walked = driver
        .load_report()
        .rows
        .iter()
        .find(|r| r.source == Source::Dns)
        .is_some_and(|r| r.load.packets_sent as usize >= truth.dns_subnets.len());
    let observations = groups.iter().map(group_len).sum();
    Inputs {
        cfg: cfg.clone(),
        stream: Stream {
            groups,
            observations,
            span_secs: minutes * 60,
        },
        recorded_fingerprint: journal.read(|j| j.fingerprint()),
        subnets_truth: truth.connected_subnets.len(),
        subnets_found,
        dns_walked,
        read_subnets,
        generate_s,
    }
}
