//! Table 4: Explorer Module characteristics — intervals (from the
//! registry), measured completion time, measured network load, and a
//! system-load proxy (simulator events consumed by the run).

use fremont_core::registry::{info_for, registry};
use fremont_explorers::{
    ArpWatch, BrdcastPing, DnsExplorer, EtherHostProbe, RipWatch, SeqPing, SubnetMasks, Traceroute,
};
use fremont_journal::observation::Source;
use fremont_netsim::campus::{generate, CampusConfig};
use fremont_netsim::process::ProcHandle;
use fremont_netsim::time::{SimDuration, SimTime};

use crate::tables::Table;

/// One measured module run.
#[derive(Debug, Clone)]
pub struct ModuleRun {
    /// The module.
    pub source: Source,
    /// Sim-time to completion (`None` = continuous module).
    pub completion: Option<SimDuration>,
    /// Mean packets/second on the home segment during the run.
    pub pkts_per_sec: f64,
    /// Peak packets in any single second.
    pub peak_pkts: u32,
    /// Simulator events consumed (system-load proxy).
    pub events: u64,
}

fn interval_text(secs: u64) -> String {
    if secs.is_multiple_of(86400) && secs >= 86400 {
        let d = secs / 86400;
        if d.is_multiple_of(7) {
            format!("{} week{}", d / 7, if d / 7 == 1 { "" } else { "s" })
        } else {
            format!("{d} day{}", if d == 1 { "" } else { "s" })
        }
    } else {
        format!("{} hours", secs / 3600)
    }
}

/// Runs one module on a quiet campus (no background traffic) and measures
/// its cost.
fn measure(source: Source, cfg: &CampusConfig) -> ModuleRun {
    let mut quiet = cfg.clone();
    quiet.cs_traffic = source == Source::ArpWatch; // Passive needs traffic.
    let (mut sim, truth) = generate(&quiet);
    let home = sim.node_by_name("bruno").expect("campus has bruno");
    let cs = truth.cs_subnet;
    let home_seg = sim.nodes[home.0].ifaces[0].segment;
    sim.segments[home_seg.0].stats.enable_buckets();

    let start = sim.now();
    let events_before = sim.stats.events_processed;
    let (handle, budget): (ProcHandle, SimDuration) = match source {
        Source::ArpWatch => (
            sim.spawn(home, Box::new(ArpWatch::new())),
            SimDuration::from_hours(1),
        ),
        Source::EtherHostProbe => (
            sim.spawn(home, Box::new(EtherHostProbe::new(cs.host_range()))),
            SimDuration::from_mins(15),
        ),
        Source::SeqPing => (
            sim.spawn(home, Box::new(SeqPing::new(cs.host_range()))),
            SimDuration::from_mins(40),
        ),
        Source::BrdcastPing => (
            sim.spawn(home, Box::new(BrdcastPing::new(vec![cs]))),
            SimDuration::from_mins(5),
        ),
        Source::SubnetMasks => {
            let targets: Vec<_> = truth
                .cs_interfaces
                .iter()
                .map(|(ip, _)| *ip)
                .take(56)
                .collect();
            (
                sim.spawn(home, Box::new(SubnetMasks::new(targets))),
                SimDuration::from_mins(10),
            )
        }
        Source::Traceroute => {
            let tr = Traceroute::new(truth.assigned_subnets.clone(), quiet.network);
            (sim.spawn(home, Box::new(tr)), SimDuration::from_mins(45))
        }
        Source::RipWatch => (
            sim.spawn(home, Box::new(RipWatch::new())),
            SimDuration::from_mins(5),
        ),
        Source::Dns => (
            sim.spawn(
                home,
                Box::new(DnsExplorer::new(quiet.network, truth.dns_server)),
            ),
            SimDuration::from_mins(30),
        ),
        Source::Manager => unreachable!("not a module"),
    };

    // Run until done (or budget for continuous modules), in small slices.
    let deadline = start + budget;
    let continuous = info_for(source).map(|i| i.continuous).unwrap_or(false);
    let mut finished_at: Option<SimTime> = None;
    while sim.now() < deadline {
        sim.run_for(SimDuration::from_secs(10));
        if !continuous && sim.process_done(handle) && finished_at.is_none() {
            finished_at = Some(sim.now());
            break;
        }
    }
    let end = finished_at.unwrap_or_else(|| sim.now());
    let frames = sim.segments[home_seg.0].stats.frames_between(start, end);
    let peak = sim.segments[home_seg.0].stats.peak_rate(start, end);
    let secs = (end - start).as_secs_f64().max(1.0);
    ModuleRun {
        source,
        completion: if continuous { None } else { Some(end - start) },
        pkts_per_sec: frames as f64 / secs,
        peak_pkts: peak,
        events: sim.stats.events_processed - events_before,
    }
}

/// Runs the full Table 4 experiment.
pub fn table4(cfg: &CampusConfig) -> Table {
    let mut t = Table::new(
        "Table 4: Explorer Module Characteristics",
        &[
            "Module",
            "Min/Max Interval",
            "Time to Complete",
            "Paper time",
            "Net load (pkt/s avg, peak/s)",
            "Paper load",
            "Events",
        ],
    );
    for info in registry() {
        let run = measure(info.source, cfg);
        let completion = match run.completion {
            None => "continuous".to_owned(),
            Some(d) => format!("{}", d),
        };
        t.row(&[
            info.source.name().to_owned(),
            format!(
                "{}; {}",
                interval_text(info.min_interval.as_secs()),
                interval_text(info.max_interval.as_secs())
            ),
            completion,
            info.time_to_complete.to_owned(),
            format!("{:.1}, {}", run.pkts_per_sec, run.peak_pkts),
            info.network_load.to_owned(),
            run.events.to_string(),
        ]);
    }
    t.note("network load measured on the module host's segment; passive modules show only ambient traffic");
    t.note("'Events' (simulator events consumed) is the system-load proxy");
    t
}
