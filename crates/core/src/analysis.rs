//! The analysis programs: uncovering network problems from the Journal.
//!
//! The paper ships two analysis programs — subnet-mask conflicts and
//! MAC/IP address conflicts — and summarizes the problem classes Fremont
//! uncovers in Table 8: IP addresses no longer in use, hardware changes,
//! inconsistent network masks, duplicate address assignments, and
//! promiscuous RIP hosts. This module implements all five detectors over
//! Journal records.
//!
//! A report is one state of the Journal: [`ProblemReport::generate`]
//! captures one [`JournalSnapshot`] — one read of the store — and every
//! detector is a private, pure function of that snapshot, so no finding
//! can be computed from records another finding never saw.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use fremont_journal::snapshot::JournalSnapshot;
use fremont_journal::store::Journal;
use fremont_journal::time::JTime;
use fremont_net::{MacAddr, Subnet, SubnetMask};
use fremont_telemetry::Telemetry;

use crate::invariants::CLASS_COUNT;

/// A subnet whose interfaces disagree about the mask.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaskConflict {
    /// The (majority-mask) subnet in question.
    pub subnet: Subnet,
    /// Each mask seen on the subnet, with the interfaces reporting it.
    pub masks: Vec<(SubnetMask, Vec<Ipv4Addr>)>,
}

/// Why two records around one address look suspicious.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddressConflictKind {
    /// Same IP on two MACs, both recently alive: duplicate assignment.
    DuplicateAssignment,
    /// Same IP on two MACs, the older one long silent: hardware change.
    HardwareChange,
    /// Same MAC answering several IPs: a gateway doing proxy ARP, a
    /// multi-address interface, or a reconfigured system.
    MultipleAddressesOneMac,
}

/// A MAC/IP conflict finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddressConflict {
    /// Classification.
    pub kind: AddressConflictKind,
    /// The shared address (IP for duplicate/hw-change, arbitrary member
    /// for one-MAC findings).
    pub ip: Ipv4Addr,
    /// The MACs involved (for MAC-keyed findings, a single entry).
    pub macs: Vec<MacAddr>,
    /// All IPs involved (one for IP-keyed findings).
    pub ips: Vec<Ipv4Addr>,
}

/// An address that has not been seen alive for a long time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaleAddress {
    /// The interface's address.
    pub ip: Ipv4Addr,
    /// Its DNS name, when known.
    pub name: Option<String>,
    /// Last time any non-DNS module verified it (`None` = never seen on
    /// the wire at all).
    pub last_live: Option<JTime>,
}

/// A host flagged as a promiscuous RIP rebroadcaster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PromiscuousRipHost {
    /// The offending interface address.
    pub ip: Ipv4Addr,
    /// Its MAC, when known.
    pub mac: Option<MacAddr>,
}

/// A gateway whose routes look stale: it was seen forwarding once, but
/// none of its known interfaces has answered anything for a long time —
/// hosts still point default routes at a dead box.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaleRoute {
    /// Interface addresses of the silent gateway.
    pub gateway_ips: Vec<Ipv4Addr>,
    /// Subnets the journal believes it connects (the blast radius).
    pub subnets: Vec<Subnet>,
    /// The most recent live verification across all its interfaces.
    pub last_live: JTime,
}

/// A subnet that went quiet wholesale: several interfaces there were
/// once verified on the wire, and now none of them answers. One dead
/// host is a stale address; a whole silent population is a partitioned
/// segment or a downed uplink.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SilentSubnet {
    /// The quiet subnet.
    pub subnet: Subnet,
    /// Interfaces there that were once seen alive.
    pub once_live: usize,
    /// The most recent live verification anywhere on the subnet.
    pub last_live: JTime,
}

/// An interface whose journal timestamps run *ahead of the present* —
/// impossible unless the reporting host's clock is skewed, since every
/// legitimate observation is stamped at or before the store time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClockSkewSuspect {
    /// The interface's address, when known.
    pub ip: Option<Ipv4Addr>,
    /// Its DNS name, when known.
    pub name: Option<String>,
    /// The offending (future) timestamp.
    pub seen_at: JTime,
    /// How far ahead of `now` the timestamp is, in seconds.
    pub ahead_secs: u64,
}

/// Finds subnets whose member interfaces report conflicting masks.
fn subnet_mask_conflicts(snap: &JournalSnapshot) -> Vec<MaskConflict> {
    // Group mask-bearing interfaces by the subnet implied by the
    // *majority* mask on their wire segment. We bucket by each record's
    // own subnet and then merge buckets that overlap.
    let mut by_mask_subnet: HashMap<Subnet, Vec<(SubnetMask, Ipv4Addr)>> = HashMap::new();
    for rec in &snap.interfaces {
        let (Some(ip), Some(mask)) = (rec.ip_addr(), rec.subnet_mask()) else {
            continue;
        };
        // Bucket under every plausible containing subnet so that a /16
        // mask on a /24 wire lands in the same bucket as its neighbors.
        let own = Subnet::containing(ip, mask);
        by_mask_subnet.entry(own).or_default().push((mask, ip));
    }

    // A conflict is reported once per *wire* — keyed by the narrowest
    // claimed subnet — and only involves interfaces whose own addresses
    // fall on that wire. (A host claiming /16 on a /24 wire conflicts with
    // its actual /24 neighbors, not with every /24 of the class B.)
    let mut out = Vec::new();
    let subnets: Vec<Subnet> = by_mask_subnet.keys().copied().collect();
    for &s in &subnets {
        // Only anchor at the narrowest buckets.
        if subnets.iter().any(|t| *t != s && s.contains_subnet(t)) {
            continue;
        }
        let mut masks: HashMap<SubnetMask, Vec<Ipv4Addr>> = HashMap::new();
        for t in &subnets {
            if !(t.contains_subnet(&s) || *t == s) {
                continue;
            }
            for (m, ip) in &by_mask_subnet[t] {
                // Wider-bucket interfaces join only when their address is
                // actually on this wire.
                if s.contains(*ip) {
                    masks.entry(*m).or_default().push(*ip);
                }
            }
        }
        if masks.len() > 1 {
            let mut masks: Vec<(SubnetMask, Vec<Ipv4Addr>)> = masks
                .into_iter()
                .map(|(m, mut ips)| {
                    ips.sort_by_key(|ip| u32::from(*ip));
                    (m, ips)
                })
                .collect();
            masks.sort_by_key(|(m, _)| std::cmp::Reverse(m.prefix_len()));
            out.push(MaskConflict { subnet: s, masks });
        }
    }
    out.sort_by_key(|c| c.subnet);
    out
}

/// Finds MAC/IP conflicts: duplicate addresses, hardware changes, and
/// multi-address MACs.
///
/// Two MACs claiming one IP are a *duplicate assignment* when their
/// liveness intervals overlap: the earlier record was still being seen
/// alive at least `min_overlap` seconds after the later one appeared.
/// Otherwise the address simply moved to new hardware (the old adapter
/// went quiet around when the new one showed up).
fn address_conflicts(snap: &JournalSnapshot, min_overlap: u64) -> Vec<AddressConflict> {
    let mut out = Vec::new();

    // Same IP, several MACs.
    let mut by_ip: HashMap<Ipv4Addr, Vec<&fremont_journal::records::InterfaceRecord>> =
        HashMap::new();
    for r in &snap.interfaces {
        if let (Some(ip), Some(_)) = (r.ip_addr(), r.mac_addr()) {
            by_ip.entry(ip).or_default().push(r);
        }
    }
    let mut ips: Vec<_> = by_ip.keys().copied().collect();
    ips.sort_by_key(|ip| u32::from(*ip));
    for ip in ips {
        let group = &by_ip[&ip];
        if group.len() < 2 {
            continue;
        }
        // Order by appearance; overlapping live intervals = duplicate.
        let mut by_age: Vec<_> = group.clone();
        by_age.sort_by_key(|r| r.discovered);
        // Overlap test: some earlier claimant was seen alive well after a
        // later claimant appeared.
        let mut overlap = false;
        'outer: for (i, older) in by_age.iter().enumerate() {
            let Some(older_live) = older.live_verified else {
                continue;
            };
            for newer in &by_age[i + 1..] {
                if newer.live_verified.is_some()
                    && older_live.as_secs() >= newer.discovered.as_secs() + min_overlap
                {
                    overlap = true;
                    break 'outer;
                }
            }
        }
        let kind = if overlap {
            AddressConflictKind::DuplicateAssignment
        } else {
            AddressConflictKind::HardwareChange
        };
        let mut macs: Vec<MacAddr> = group.iter().filter_map(|r| r.mac_addr()).collect();
        macs.sort();
        macs.dedup();
        if macs.len() < 2 {
            continue;
        }
        out.push(AddressConflict {
            kind,
            ip,
            macs,
            ips: vec![ip],
        });
    }

    // Same MAC, several IPs.
    let mut by_mac: HashMap<MacAddr, Vec<Ipv4Addr>> = HashMap::new();
    for r in &snap.interfaces {
        if let (Some(ip), Some(mac)) = (r.ip_addr(), r.mac_addr()) {
            let v = by_mac.entry(mac).or_default();
            if !v.contains(&ip) {
                v.push(ip);
            }
        }
    }
    let mut macs: Vec<_> = by_mac.keys().copied().collect();
    macs.sort();
    for mac in macs {
        let ips = &by_mac[&mac];
        if ips.len() < 2 {
            continue;
        }
        let mut ips = ips.clone();
        ips.sort_by_key(|ip| u32::from(*ip));
        out.push(AddressConflict {
            kind: AddressConflictKind::MultipleAddressesOneMac,
            ip: ips[0],
            macs: vec![mac],
            ips,
        });
    }
    out
}

/// Finds addresses that look abandoned: known interfaces whose last
/// live (non-DNS) verification is older than `threshold` seconds.
///
/// "We can see when hosts have been removed from the network. ... A
/// network manager can observe this, and then contact the owner of the
/// missing host to verify that the network address can be reused."
///
/// The detector is *coverage-aware*: an address only counts as abandoned
/// when its own subnet demonstrably kept being watched — some other
/// interface there was live-verified within the horizon. Silence on a
/// subnet Fremont has not re-swept means "unmonitored", not "gone".
fn stale_addresses(snap: &JournalSnapshot, now: JTime, threshold: u64) -> Vec<StaleAddress> {
    let cutoff = JTime(now.as_secs().saturating_sub(threshold));
    let default_mask = SubnetMask::CLASS_C;

    // Coverage evidence per subnet: how many of its known interfaces were
    // live-verified within the horizon, out of how many exist. One fresh
    // router reply does not make a subnet "watched"; a sweep does.
    let mut coverage: HashMap<Subnet, (usize, usize)> = HashMap::new();
    for r in &snap.interfaces {
        let Some(ip) = r.ip_addr() else { continue };
        let subnet = Subnet::containing(ip, r.subnet_mask().unwrap_or(default_mask));
        let e = coverage.entry(subnet).or_insert((0, 0));
        e.1 += 1;
        if r.live_verified.map(|lv| lv >= cutoff).unwrap_or(false) {
            e.0 += 1;
        }
    }

    // Last seen alive before the cutoff, or never.
    let mut out: Vec<StaleAddress> = snap
        .interfaces
        .iter()
        .filter(|r| r.live_verified.is_none_or(|lv| lv < cutoff))
        .filter_map(|r| {
            let ip = r.ip_addr()?;
            let subnet = Subnet::containing(ip, r.subnet_mask().unwrap_or(default_mask));
            let (fresh, total) = coverage.get(&subnet).copied().unwrap_or((0, 0));
            // A once-alive host needs the subnet re-swept (half fresh); a
            // never-alive (DNS-only) entry needs *strong* coverage — a
            // couple of traceroute replies on an otherwise unswept subnet
            // say nothing about a host that never answered.
            let watched = if r.live_verified.is_some() {
                fresh * 2 >= total
            } else {
                fresh >= 3 && fresh * 2 > total
            };
            if !watched {
                return None;
            }
            Some(StaleAddress {
                ip,
                name: r.dns_name().map(str::to_owned),
                last_live: r.live_verified,
            })
        })
        .collect();
    out.sort_by_key(|s| u32::from(s.ip));
    out
}

/// Finds dead gateways: every interface of a known gateway was last
/// live-verified more than `threshold` seconds ago (and at least one
/// ever was). "Fremont can also spot the problem where hosts are using a
/// gateway whose route has become stale" — the router disappeared but
/// everything still routes through it.
fn stale_routes(snap: &JournalSnapshot, now: JTime, threshold: u64) -> Vec<StaleRoute> {
    let cutoff = JTime(now.as_secs().saturating_sub(threshold));
    let mut out = Vec::new();
    for gw in &snap.gateways {
        let mut last_live: Option<JTime> = None;
        let mut ips: Vec<Ipv4Addr> = Vec::new();
        for &iface_id in &gw.interfaces {
            let Some(rec) = snap.interface_by_id(iface_id) else {
                continue;
            };
            if let Some(ip) = rec.ip_addr() {
                ips.push(ip);
            }
            if let Some(lv) = rec.live_verified {
                last_live = Some(last_live.map_or(lv, |prev: JTime| prev.max(lv)));
            }
        }
        let Some(last) = last_live else {
            // Never seen alive on the wire (e.g. DNS/traceroute-topology
            // knowledge only): silence proves nothing.
            continue;
        };
        if last < cutoff {
            ips.sort_by_key(|ip| u32::from(*ip));
            ips.dedup();
            out.push(StaleRoute {
                gateway_ips: ips,
                subnets: gw.subnets.clone(),
                last_live: last,
            });
        }
    }
    out.sort_by_key(|r| r.gateway_ips.first().map(|ip| u32::from(*ip)));
    out
}

/// Finds subnets that fell silent wholesale: at least `min_members`
/// interfaces were once live-verified there, and *none* of them (nor any
/// neighbor) has been verified within `threshold` seconds.
///
/// This is the complement of the coverage-aware [`stale_addresses`]
/// detector, which deliberately refuses to call individual hosts
/// abandoned when their whole subnet is quiet — whole-subnet silence is
/// its own finding: a partitioned segment or a dead uplink.
fn silent_subnets(
    snap: &JournalSnapshot,
    now: JTime,
    threshold: u64,
    min_members: usize,
) -> Vec<SilentSubnet> {
    let cutoff = JTime(now.as_secs().saturating_sub(threshold));
    let default_mask = SubnetMask::CLASS_C;
    // Per subnet: (once-live count, fresh count, latest live verification).
    let mut by_subnet: HashMap<Subnet, (usize, usize, JTime)> = HashMap::new();
    for r in &snap.interfaces {
        let Some(ip) = r.ip_addr() else { continue };
        let Some(lv) = r.live_verified else { continue };
        let subnet = Subnet::containing(ip, r.subnet_mask().unwrap_or(default_mask));
        let e = by_subnet.entry(subnet).or_insert((0, 0, JTime(0)));
        e.0 += 1;
        if lv >= cutoff {
            e.1 += 1;
        }
        e.2 = e.2.max(lv);
    }
    let mut out: Vec<SilentSubnet> = by_subnet
        .into_iter()
        .filter(|(_, (once_live, fresh, _))| *once_live >= min_members && *fresh == 0)
        .map(|(subnet, (once_live, _, last_live))| SilentSubnet {
            subnet,
            once_live,
            last_live,
        })
        .collect();
    out.sort_by_key(|s| s.subnet);
    out
}

/// Finds interfaces whose records carry timestamps from the future.
///
/// The Journal stamps every record at store time, so a `live_verified`
/// or `discovered` *ahead* of the query's `now` can only come from an
/// observation timestamped by a host whose clock runs fast — the
/// journal-poisoning symptom of a clock-skewed reporter.
fn clock_skew_suspects(snap: &JournalSnapshot, now: JTime) -> Vec<ClockSkewSuspect> {
    let mut out = Vec::new();
    for r in &snap.interfaces {
        let newest = [Some(r.discovered), Some(r.changed), r.live_verified]
            .into_iter()
            .flatten()
            .max()
            .unwrap_or(JTime(0));
        if newest > now {
            out.push(ClockSkewSuspect {
                ip: r.ip_addr(),
                name: r.dns_name().map(str::to_owned),
                seen_at: newest,
                ahead_secs: newest.as_secs() - now.as_secs(),
            });
        }
    }
    out.sort_by_key(|s| (std::cmp::Reverse(s.ahead_secs), s.ip.map(u32::from)));
    out
}

/// Finds hosts flagged as promiscuous RIP sources.
fn promiscuous_rip_hosts(snap: &JournalSnapshot) -> Vec<PromiscuousRipHost> {
    let mut out: Vec<PromiscuousRipHost> = snap
        .interfaces
        .iter()
        .filter(|r| r.rip_source && r.rip_promiscuous)
        .filter_map(|r| {
            Some(PromiscuousRipHost {
                ip: r.ip_addr()?,
                mac: r.mac_addr(),
            })
        })
        .collect();
    out.sort_by_key(|p| u32::from(p.ip));
    out.dedup();
    out
}

/// The full Table 8 report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProblemReport {
    /// "IP Addresses No Longer in Use".
    pub stale: Vec<StaleAddress>,
    /// "Hardware Changes".
    pub hardware_changes: Vec<AddressConflict>,
    /// "Inconsistent Network Masks".
    pub mask_conflicts: Vec<MaskConflict>,
    /// "Duplicate Address Assignments".
    pub duplicates: Vec<AddressConflict>,
    /// "Promiscuous RIP Hosts".
    pub promiscuous: Vec<PromiscuousRipHost>,
    /// Gateways gone silent while hosts still route through them.
    pub stale_routes: Vec<StaleRoute>,
    /// Subnets whose entire once-alive population stopped answering.
    pub silent_subnets: Vec<SilentSubnet>,
    /// Interfaces reported with future timestamps (skewed reporters).
    pub clock_skew: Vec<ClockSkewSuspect>,
}

impl ProblemReport {
    /// Runs every detector over one snapshot of the journal.
    ///
    /// `stale_after` — seconds without live verification before an address
    /// counts as abandoned; `min_overlap` — minimum observed coexistence
    /// (seconds) separating duplicates from hardware changes.
    pub fn generate(journal: &Journal, now: JTime, stale_after: u64, min_overlap: u64) -> Self {
        let snap = &journal.to_snapshot();
        let conflicts = address_conflicts(snap, min_overlap);
        let (dups, hw): (Vec<_>, Vec<_>) = conflicts
            .into_iter()
            .filter(|c| c.kind != AddressConflictKind::MultipleAddressesOneMac)
            .partition(|c| c.kind == AddressConflictKind::DuplicateAssignment);
        ProblemReport {
            stale: stale_addresses(snap, now, stale_after),
            hardware_changes: hw,
            mask_conflicts: subnet_mask_conflicts(snap),
            duplicates: dups,
            promiscuous: promiscuous_rip_hosts(snap),
            stale_routes: stale_routes(snap, now, stale_after),
            silent_subnets: silent_subnets(snap, now, stale_after, 3),
            clock_skew: clock_skew_suspects(snap, now),
        }
    }

    /// Findings per class, in [`crate::invariants::CLASS_NAMES`] order:
    /// the one place that lists the eight finding vectors.
    pub fn class_counts(&self) -> [usize; CLASS_COUNT] {
        [
            self.stale.len(),
            self.hardware_changes.len(),
            self.mask_conflicts.len(),
            self.duplicates.len(),
            self.promiscuous.len(),
            self.stale_routes.len(),
            self.silent_subnets.len(),
            self.clock_skew.len(),
        ]
    }

    /// Total findings.
    pub fn total(&self) -> usize {
        self.class_counts().iter().sum()
    }
}

/// Publishes a report's per-class finding counts as
/// `fremont_analysis_findings` gauges (labelled by class), so live
/// surfaces — the Introspect RPC, `campus_survey --watch` — can read
/// problem counts out of the exposition. All eight classes are always
/// published (a zero is information), keeping the exposition's line
/// set identical from the first report onward.
pub fn publish_findings(telemetry: &Telemetry, report: &ProblemReport) {
    if !telemetry.enabled() {
        return;
    }
    // The exposition's own labels, in `class_counts` order.
    const LABELS: [&str; CLASS_COUNT] = [
        "stale",
        "hardware_change",
        "mask_conflict",
        "duplicate",
        "promiscuous_rip",
        "stale_route",
        "silent_subnet",
        "clock_skew",
    ];
    for (class, n) in LABELS.into_iter().zip(report.class_counts()) {
        telemetry.gauge_set(
            "fremont_analysis_findings",
            &format!("class=\"{class}\""),
            n as u64,
        );
    }
}

impl std::fmt::Display for ProblemReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Problems Uncovered ({} findings)", self.total())?;
        writeln!(f, "  IP addresses no longer in use: {}", self.stale.len())?;
        for s in &self.stale {
            writeln!(
                f,
                "    {} ({}) last seen alive: {}",
                s.ip,
                s.name.as_deref().unwrap_or("unnamed"),
                s.last_live
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "never".to_owned())
            )?;
        }
        writeln!(f, "  Hardware changes: {}", self.hardware_changes.len())?;
        for c in &self.hardware_changes {
            writeln!(f, "    {} moved across MACs {:?}", c.ip, c.macs)?;
        }
        writeln!(
            f,
            "  Inconsistent network masks: {}",
            self.mask_conflicts.len()
        )?;
        for c in &self.mask_conflicts {
            writeln!(f, "    {}: {} distinct masks", c.subnet, c.masks.len())?;
        }
        writeln!(
            f,
            "  Duplicate address assignments: {}",
            self.duplicates.len()
        )?;
        for c in &self.duplicates {
            writeln!(f, "    {} claimed by MACs {:?}", c.ip, c.macs)?;
        }
        writeln!(f, "  Promiscuous RIP hosts: {}", self.promiscuous.len())?;
        for p in &self.promiscuous {
            writeln!(f, "    {}", p.ip)?;
        }
        writeln!(
            f,
            "  Stale routes (dead gateways): {}",
            self.stale_routes.len()
        )?;
        for r in &self.stale_routes {
            writeln!(
                f,
                "    gateway {:?} silent since {} (connects {:?})",
                r.gateway_ips, r.last_live, r.subnets
            )?;
        }
        writeln!(f, "  Silent subnets: {}", self.silent_subnets.len())?;
        for s in &self.silent_subnets {
            writeln!(
                f,
                "    {} ({} once-alive interfaces, last heard {})",
                s.subnet, s.once_live, s.last_live
            )?;
        }
        writeln!(f, "  Clock-skewed reporters: {}", self.clock_skew.len())?;
        for c in &self.clock_skew {
            writeln!(
                f,
                "    {} ({}) stamped {}s in the future",
                c.ip.map(|ip| ip.to_string())
                    .unwrap_or_else(|| "?".to_owned()),
                c.name.as_deref().unwrap_or("unnamed"),
                c.ahead_secs
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fremont_journal::observation::{Fact, Observation, Source};

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn mac(s: &str) -> MacAddr {
        s.parse().unwrap()
    }

    fn mask(n: u8) -> SubnetMask {
        SubnetMask::from_prefix_len(n).unwrap()
    }

    #[test]
    fn detects_duplicate_assignment() {
        let j = Journal::new();
        // Both adapters keep answering ARP for the same address.
        j.apply(
            &Observation::arp_pair(Source::ArpWatch, ip("10.0.0.9"), mac("08:00:20:00:00:01")),
            JTime(100),
        );
        j.apply(
            &Observation::arp_pair(Source::ArpWatch, ip("10.0.0.9"), mac("00:00:0c:00:00:02")),
            JTime(110),
        );
        j.apply(
            &Observation::arp_pair(Source::ArpWatch, ip("10.0.0.9"), mac("08:00:20:00:00:01")),
            JTime(4000),
        );
        let found = address_conflicts(&j.to_snapshot(), 3600);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].kind, AddressConflictKind::DuplicateAssignment);
        assert_eq!(found[0].macs.len(), 2);
    }

    #[test]
    fn detects_hardware_change() {
        let j = Journal::new();
        // Old adapter seen early, then silent; new one seen recently.
        j.apply(
            &Observation::arp_pair(Source::ArpWatch, ip("10.0.0.9"), mac("08:00:20:00:00:01")),
            JTime(100),
        );
        j.apply(
            &Observation::arp_pair(Source::ArpWatch, ip("10.0.0.9"), mac("00:00:0c:00:00:02")),
            JTime::from_days(30),
        );
        let found = address_conflicts(&j.to_snapshot(), 3600);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].kind, AddressConflictKind::HardwareChange);
    }

    #[test]
    fn detects_proxy_arp_style_mac() {
        let j = Journal::new();
        let m = mac("00:00:0c:aa:bb:cc");
        for i in 1..=3u8 {
            j.apply(
                &Observation::arp_pair(Source::EtherHostProbe, Ipv4Addr::new(10, 0, 0, i), m),
                JTime(1),
            );
        }
        let found = address_conflicts(&j.to_snapshot(), 3600);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].kind, AddressConflictKind::MultipleAddressesOneMac);
        assert_eq!(found[0].ips.len(), 3);
    }

    #[test]
    fn detects_mask_conflict() {
        let j = Journal::new();
        j.apply(
            &Observation::mask(Source::SubnetMasks, ip("10.0.1.5"), mask(24)),
            JTime(1),
        );
        j.apply(
            &Observation::mask(Source::SubnetMasks, ip("10.0.1.6"), mask(24)),
            JTime(1),
        );
        j.apply(
            &Observation::mask(Source::SubnetMasks, ip("10.0.1.7"), mask(16)),
            JTime(1),
        );
        let found = subnet_mask_conflicts(&j.to_snapshot());
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].subnet, "10.0.1.0/24".parse().unwrap());
        assert_eq!(found[0].masks.len(), 2);
        // Majority mask listed first (narrower first by our ordering).
        assert_eq!(found[0].masks[0].0, mask(24));
        assert_eq!(found[0].masks[0].1.len(), 2);
    }

    #[test]
    fn no_conflict_when_masks_agree() {
        let j = Journal::new();
        j.apply(
            &Observation::mask(Source::SubnetMasks, ip("10.0.1.5"), mask(24)),
            JTime(1),
        );
        j.apply(
            &Observation::mask(Source::SubnetMasks, ip("10.0.2.5"), mask(24)),
            JTime(1),
        );
        assert!(subnet_mask_conflicts(&j.to_snapshot()).is_empty());
    }

    #[test]
    fn detects_stale_addresses() {
        let j = Journal::new();
        // Seen alive early, then only DNS keeps mentioning it.
        j.apply(
            &Observation::ip_alive(Source::SeqPing, ip("10.0.0.7")),
            JTime::from_days(1),
        );
        j.apply(
            &Observation::named_ip(Source::Dns, ip("10.0.0.7"), "ghost.cs"),
            JTime::from_days(20),
        );
        // A healthy interface for contrast.
        j.apply(
            &Observation::ip_alive(Source::SeqPing, ip("10.0.0.8")),
            JTime::from_days(20),
        );
        let now = JTime::from_days(21);
        let stale = stale_addresses(&j.to_snapshot(), now, 7 * 86400);
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].ip, ip("10.0.0.7"));
        assert_eq!(stale[0].name.as_deref(), Some("ghost.cs"));
        assert_eq!(stale[0].last_live, Some(JTime::from_days(1)));
    }

    #[test]
    fn dns_only_ghost_is_stale_with_never() {
        let j = Journal::new();
        j.apply(
            &Observation::named_ip(Source::Dns, ip("10.0.0.70"), "never.cs"),
            JTime::from_days(20),
        );
        // Unwatched subnet: the ghost is NOT reported (no coverage).
        assert!(stale_addresses(&j.to_snapshot(), JTime::from_days(21), 86400).is_empty());
        // Several recently-verified neighbors prove the subnet is being
        // swept; only then is the never-seen entry reportable.
        for h in [71u8, 72, 73] {
            j.apply(
                &Observation::ip_alive(Source::SeqPing, Ipv4Addr::new(10, 0, 0, h)),
                JTime::from_days(21),
            );
        }
        let stale = stale_addresses(&j.to_snapshot(), JTime::from_days(21), 86400);
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].last_live, None);
    }

    #[test]
    fn detects_promiscuous_rip() {
        let j = Journal::new();
        j.apply(
            &Observation::new(
                Source::RipWatch,
                Fact::RipSource {
                    ip: ip("10.0.0.1"),
                    mac: None,
                    advertised_routes: 10,
                    promiscuous: false,
                },
            ),
            JTime(1),
        );
        j.apply(
            &Observation::new(
                Source::RipWatch,
                Fact::RipSource {
                    ip: ip("10.0.0.2"),
                    mac: Some(mac("08:00:20:00:00:09")),
                    advertised_routes: 10,
                    promiscuous: true,
                },
            ),
            JTime(1),
        );
        let found = promiscuous_rip_hosts(&j.to_snapshot());
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].ip, ip("10.0.0.2"));
    }

    #[test]
    fn full_report_renders() {
        let j = Journal::new();
        j.apply(
            &Observation::arp_pair(Source::ArpWatch, ip("10.0.0.9"), mac("08:00:20:00:00:01")),
            JTime(100),
        );
        j.apply(
            &Observation::arp_pair(Source::ArpWatch, ip("10.0.0.9"), mac("00:00:0c:00:00:02")),
            JTime(110),
        );
        j.apply(
            &Observation::arp_pair(Source::ArpWatch, ip("10.0.0.9"), mac("08:00:20:00:00:01")),
            JTime(9000),
        );
        let report = ProblemReport::generate(&j, JTime(9100), 86400, 3600);
        assert_eq!(report.duplicates.len(), 1);
        let text = report.to_string();
        assert!(text.contains("Duplicate address assignments: 1"));
        assert!(report.total() >= 1);
    }

    #[test]
    fn detects_stale_route_for_dead_gateway() {
        let j = Journal::new();
        // A gateway with two interfaces, both verified early, then silent.
        j.apply(
            &Observation::new(
                Source::Traceroute,
                Fact::Gateway {
                    interface_ips: vec![ip("10.0.1.1"), ip("10.0.2.1")],
                    interface_names: vec![],
                    subnets: vec!["10.0.1.0/24".parse().unwrap()],
                },
            ),
            JTime::from_days(1),
        );
        for g in ["10.0.1.1", "10.0.2.1"] {
            j.apply(
                &Observation::ip_alive(Source::SeqPing, ip(g)),
                JTime::from_days(1),
            );
        }
        // Healthy gateway for contrast, freshly verified.
        j.apply(
            &Observation::new(
                Source::Traceroute,
                Fact::Gateway {
                    interface_ips: vec![ip("10.0.3.1")],
                    interface_names: vec![],
                    subnets: vec!["10.0.3.0/24".parse().unwrap()],
                },
            ),
            JTime::from_days(1),
        );
        j.apply(
            &Observation::ip_alive(Source::SeqPing, ip("10.0.3.1")),
            JTime::from_days(20),
        );
        let found = stale_routes(&j.to_snapshot(), JTime::from_days(21), 7 * 86400);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].gateway_ips.contains(&ip("10.0.1.1")));
        assert_eq!(found[0].last_live, JTime::from_days(1));
    }

    #[test]
    fn gateway_never_live_is_not_a_stale_route() {
        let j = Journal::new();
        j.apply(
            &Observation::new(
                Source::Dns,
                Fact::Gateway {
                    interface_ips: vec![ip("10.0.9.1")],
                    interface_names: vec![],
                    subnets: vec![],
                },
            ),
            JTime::from_days(1),
        );
        assert!(stale_routes(&j.to_snapshot(), JTime::from_days(30), 86400).is_empty());
    }

    #[test]
    fn detects_silent_subnet() {
        let j = Journal::new();
        // Four hosts verified on day 1, then the whole wire goes dark.
        for h in 10..14u8 {
            j.apply(
                &Observation::ip_alive(Source::SeqPing, Ipv4Addr::new(10, 0, 5, h)),
                JTime::from_days(1),
            );
        }
        // A healthy subnet stays fresh.
        j.apply(
            &Observation::ip_alive(Source::SeqPing, ip("10.0.6.10")),
            JTime::from_days(9),
        );
        let found = silent_subnets(&j.to_snapshot(), JTime::from_days(10), 2 * 86400, 3);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].subnet, "10.0.5.0/24".parse().unwrap());
        assert_eq!(found[0].once_live, 4);
        // And the coverage-aware stale detector stays quiet about those
        // same hosts — whole-subnet silence is not per-host abandonment.
        assert!(
            stale_addresses(&j.to_snapshot(), JTime::from_days(10), 2 * 86400)
                .iter()
                .all(|s| !s.ip.octets().starts_with(&[10, 0, 5]))
        );
    }

    #[test]
    fn small_population_is_not_a_silent_subnet() {
        let j = Journal::new();
        for h in 10..12u8 {
            j.apply(
                &Observation::ip_alive(Source::SeqPing, Ipv4Addr::new(10, 0, 5, h)),
                JTime::from_days(1),
            );
        }
        assert!(silent_subnets(&j.to_snapshot(), JTime::from_days(10), 86400, 3).is_empty());
    }

    #[test]
    fn detects_clock_skew_suspects() {
        let j = Journal::new();
        // A skewed host's observation arrives stamped a day in the future.
        j.apply(
            &Observation::ip_alive(Source::SeqPing, ip("10.0.0.5")),
            JTime::from_days(11),
        );
        j.apply(
            &Observation::ip_alive(Source::SeqPing, ip("10.0.0.6")),
            JTime::from_days(10),
        );
        let found = clock_skew_suspects(&j.to_snapshot(), JTime::from_days(10));
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].ip, Some(ip("10.0.0.5")));
        assert_eq!(found[0].ahead_secs, 86400);
        assert!(clock_skew_suspects(&j.to_snapshot(), JTime::from_days(12)).is_empty());
    }

    #[test]
    fn publish_findings_exports_every_class() {
        let (tel, rec) = fremont_telemetry::Telemetry::recording();
        publish_findings(&tel, &ProblemReport::default());
        let exposition = rec.expose();
        let lines: Vec<&str> = exposition
            .lines()
            .filter(|l| l.starts_with("fremont_analysis_findings{"))
            .collect();
        assert_eq!(lines.len(), 8, "{exposition}");
        assert!(lines.contains(&"fremont_analysis_findings{class=\"stale\"} 0"));
        assert!(lines.contains(&"fremont_analysis_findings{class=\"clock_skew\"} 0"));
    }

    #[test]
    fn class_counts_follow_the_class_indexes() {
        let report = ProblemReport {
            promiscuous: vec![PromiscuousRipHost {
                ip: ip("10.0.0.9"),
                mac: None,
            }],
            ..ProblemReport::default()
        };
        let mut expected = [0; CLASS_COUNT];
        expected[crate::invariants::PROMISCUOUS] = 1;
        assert_eq!(report.class_counts(), expected);
        assert_eq!(report.total(), 1);
    }
}

#[cfg(test)]
mod per_read_oracle {
    //! The seven detectors and the `generate` this file had when each
    //! fetched its own copy of the Journal (five `get_interfaces(all)`,
    //! two filtered scans, one `get_gateways`, one point read per
    //! gateway member), kept verbatim but for `pub` as the reference the
    //! differential tests compare against.

    use std::collections::HashMap;
    use std::net::Ipv4Addr;

    use fremont_journal::query::InterfaceQuery;
    use fremont_journal::store::Journal;
    use fremont_journal::time::JTime;
    use fremont_net::{MacAddr, Subnet, SubnetMask};

    use super::{
        AddressConflict, AddressConflictKind, ClockSkewSuspect, MaskConflict, ProblemReport,
        PromiscuousRipHost, SilentSubnet, StaleAddress, StaleRoute,
    };

    /// Finds subnets whose member interfaces report conflicting masks.
    fn subnet_mask_conflicts(journal: &Journal) -> Vec<MaskConflict> {
        // Group mask-bearing interfaces by the subnet implied by the
        // *majority* mask on their wire segment. We bucket by each record's
        // own subnet and then merge buckets that overlap.
        let mut by_mask_subnet: HashMap<Subnet, Vec<(SubnetMask, Ipv4Addr)>> = HashMap::new();
        for rec in journal.get_interfaces(&InterfaceQuery::all()) {
            let (Some(ip), Some(mask)) = (rec.ip_addr(), rec.subnet_mask()) else {
                continue;
            };
            // Bucket under every plausible containing subnet so that a /16
            // mask on a /24 wire lands in the same bucket as its neighbors.
            let own = Subnet::containing(ip, mask);
            by_mask_subnet.entry(own).or_default().push((mask, ip));
        }

        // A conflict is reported once per *wire* — keyed by the narrowest
        // claimed subnet — and only involves interfaces whose own addresses
        // fall on that wire. (A host claiming /16 on a /24 wire conflicts with
        // its actual /24 neighbors, not with every /24 of the class B.)
        let mut out = Vec::new();
        let subnets: Vec<Subnet> = by_mask_subnet.keys().copied().collect();
        for &s in &subnets {
            // Only anchor at the narrowest buckets.
            if subnets.iter().any(|t| *t != s && s.contains_subnet(t)) {
                continue;
            }
            let mut masks: HashMap<SubnetMask, Vec<Ipv4Addr>> = HashMap::new();
            for t in &subnets {
                if !(t.contains_subnet(&s) || *t == s) {
                    continue;
                }
                for (m, ip) in &by_mask_subnet[t] {
                    // Wider-bucket interfaces join only when their address is
                    // actually on this wire.
                    if s.contains(*ip) {
                        masks.entry(*m).or_default().push(*ip);
                    }
                }
            }
            if masks.len() > 1 {
                let mut masks: Vec<(SubnetMask, Vec<Ipv4Addr>)> = masks
                    .into_iter()
                    .map(|(m, mut ips)| {
                        ips.sort_by_key(|ip| u32::from(*ip));
                        (m, ips)
                    })
                    .collect();
                masks.sort_by_key(|(m, _)| std::cmp::Reverse(m.prefix_len()));
                out.push(MaskConflict { subnet: s, masks });
            }
        }
        out.sort_by_key(|c| c.subnet);
        out
    }

    /// Finds MAC/IP conflicts: duplicate addresses, hardware changes, and
    /// multi-address MACs.
    ///
    /// Two MACs claiming one IP are a *duplicate assignment* when their
    /// liveness intervals overlap: the earlier record was still being seen
    /// alive at least `min_overlap` seconds after the later one appeared.
    /// Otherwise the address simply moved to new hardware (the old adapter
    /// went quiet around when the new one showed up).
    fn address_conflicts(journal: &Journal, now: JTime, min_overlap: u64) -> Vec<AddressConflict> {
        let _ = now;
        let records = journal.get_interfaces(&InterfaceQuery::all());
        let mut out = Vec::new();

        // Same IP, several MACs.
        let mut by_ip: HashMap<Ipv4Addr, Vec<&fremont_journal::records::InterfaceRecord>> =
            HashMap::new();
        for r in &records {
            if let (Some(ip), Some(_)) = (r.ip_addr(), r.mac_addr()) {
                by_ip.entry(ip).or_default().push(r);
            }
        }
        let mut ips: Vec<_> = by_ip.keys().copied().collect();
        ips.sort_by_key(|ip| u32::from(*ip));
        for ip in ips {
            let group = &by_ip[&ip];
            if group.len() < 2 {
                continue;
            }
            // Order by appearance; overlapping live intervals = duplicate.
            let mut by_age: Vec<_> = group.clone();
            by_age.sort_by_key(|r| r.discovered);
            // Overlap test: some earlier claimant was seen alive well after a
            // later claimant appeared.
            let mut overlap = false;
            'outer: for (i, older) in by_age.iter().enumerate() {
                let Some(older_live) = older.live_verified else {
                    continue;
                };
                for newer in &by_age[i + 1..] {
                    if newer.live_verified.is_some()
                        && older_live.as_secs() >= newer.discovered.as_secs() + min_overlap
                    {
                        overlap = true;
                        break 'outer;
                    }
                }
            }
            let kind = if overlap {
                AddressConflictKind::DuplicateAssignment
            } else {
                AddressConflictKind::HardwareChange
            };
            let mut macs: Vec<MacAddr> = group.iter().filter_map(|r| r.mac_addr()).collect();
            macs.sort();
            macs.dedup();
            if macs.len() < 2 {
                continue;
            }
            out.push(AddressConflict {
                kind,
                ip,
                macs,
                ips: vec![ip],
            });
        }

        // Same MAC, several IPs.
        let mut by_mac: HashMap<MacAddr, Vec<Ipv4Addr>> = HashMap::new();
        for r in &records {
            if let (Some(ip), Some(mac)) = (r.ip_addr(), r.mac_addr()) {
                let v = by_mac.entry(mac).or_default();
                if !v.contains(&ip) {
                    v.push(ip);
                }
            }
        }
        let mut macs: Vec<_> = by_mac.keys().copied().collect();
        macs.sort();
        for mac in macs {
            let ips = &by_mac[&mac];
            if ips.len() < 2 {
                continue;
            }
            let mut ips = ips.clone();
            ips.sort_by_key(|ip| u32::from(*ip));
            out.push(AddressConflict {
                kind: AddressConflictKind::MultipleAddressesOneMac,
                ip: ips[0],
                macs: vec![mac],
                ips,
            });
        }
        out
    }

    /// Finds addresses that look abandoned: known interfaces whose last
    /// live (non-DNS) verification is older than `threshold` seconds.
    ///
    /// "We can see when hosts have been removed from the network. ... A
    /// network manager can observe this, and then contact the owner of the
    /// missing host to verify that the network address can be reused."
    ///
    /// The detector is *coverage-aware*: an address only counts as abandoned
    /// when its own subnet demonstrably kept being watched — some other
    /// interface there was live-verified within the horizon. Silence on a
    /// subnet Fremont has not re-swept means "unmonitored", not "gone".
    fn stale_addresses(journal: &Journal, now: JTime, threshold: u64) -> Vec<StaleAddress> {
        let cutoff = JTime(now.as_secs().saturating_sub(threshold));
        let default_mask = SubnetMask::CLASS_C;

        // Coverage evidence per subnet: how many of its known interfaces were
        // live-verified within the horizon, out of how many exist. One fresh
        // router reply does not make a subnet "watched"; a sweep does.
        let mut coverage: HashMap<Subnet, (usize, usize)> = HashMap::new();
        for r in journal.get_interfaces(&InterfaceQuery::all()) {
            let Some(ip) = r.ip_addr() else { continue };
            let subnet = Subnet::containing(ip, r.subnet_mask().unwrap_or(default_mask));
            let e = coverage.entry(subnet).or_insert((0, 0));
            e.1 += 1;
            if r.live_verified.map(|lv| lv >= cutoff).unwrap_or(false) {
                e.0 += 1;
            }
        }

        let q = InterfaceQuery {
            live_verified_before: Some(cutoff),
            ..Default::default()
        };
        let mut out: Vec<StaleAddress> = journal
            .get_interfaces(&q)
            .into_iter()
            .filter_map(|r| {
                let ip = r.ip_addr()?;
                let subnet = Subnet::containing(ip, r.subnet_mask().unwrap_or(default_mask));
                let (fresh, total) = coverage.get(&subnet).copied().unwrap_or((0, 0));
                // A once-alive host needs the subnet re-swept (half fresh); a
                // never-alive (DNS-only) entry needs *strong* coverage — a
                // couple of traceroute replies on an otherwise unswept subnet
                // say nothing about a host that never answered.
                let watched = if r.live_verified.is_some() {
                    fresh * 2 >= total
                } else {
                    fresh >= 3 && fresh * 2 > total
                };
                if !watched {
                    return None;
                }
                Some(StaleAddress {
                    ip,
                    name: r.dns_name().map(str::to_owned),
                    last_live: r.live_verified,
                })
            })
            .collect();
        out.sort_by_key(|s| u32::from(s.ip));
        out
    }

    /// Finds dead gateways: every interface of a known gateway was last
    /// live-verified more than `threshold` seconds ago (and at least one
    /// ever was). "Fremont can also spot the problem where hosts are using a
    /// gateway whose route has become stale" — the router disappeared but
    /// everything still routes through it.
    fn stale_routes(journal: &Journal, now: JTime, threshold: u64) -> Vec<StaleRoute> {
        let cutoff = JTime(now.as_secs().saturating_sub(threshold));
        let mut out = Vec::new();
        for gw in journal.get_gateways() {
            let mut last_live: Option<JTime> = None;
            let mut ips: Vec<Ipv4Addr> = Vec::new();
            for &iface_id in &gw.interfaces {
                let Some(rec) = journal.interface(iface_id) else {
                    continue;
                };
                if let Some(ip) = rec.ip_addr() {
                    ips.push(ip);
                }
                if let Some(lv) = rec.live_verified {
                    last_live = Some(last_live.map_or(lv, |prev: JTime| prev.max(lv)));
                }
            }
            let Some(last) = last_live else {
                // Never seen alive on the wire (e.g. DNS/traceroute-topology
                // knowledge only): silence proves nothing.
                continue;
            };
            if last < cutoff {
                ips.sort_by_key(|ip| u32::from(*ip));
                ips.dedup();
                out.push(StaleRoute {
                    gateway_ips: ips,
                    subnets: gw.subnets.clone(),
                    last_live: last,
                });
            }
        }
        out.sort_by_key(|r| r.gateway_ips.first().map(|ip| u32::from(*ip)));
        out
    }

    /// Finds subnets that fell silent wholesale: at least `min_members`
    /// interfaces were once live-verified there, and *none* of them (nor any
    /// neighbor) has been verified within `threshold` seconds.
    ///
    /// This is the complement of the coverage-aware [`stale_addresses`]
    /// detector, which deliberately refuses to call individual hosts
    /// abandoned when their whole subnet is quiet — whole-subnet silence is
    /// its own finding: a partitioned segment or a dead uplink.
    fn silent_subnets(
        journal: &Journal,
        now: JTime,
        threshold: u64,
        min_members: usize,
    ) -> Vec<SilentSubnet> {
        let cutoff = JTime(now.as_secs().saturating_sub(threshold));
        let default_mask = SubnetMask::CLASS_C;
        // Per subnet: (once-live count, fresh count, latest live verification).
        let mut by_subnet: HashMap<Subnet, (usize, usize, JTime)> = HashMap::new();
        for r in journal.get_interfaces(&InterfaceQuery::all()) {
            let Some(ip) = r.ip_addr() else { continue };
            let Some(lv) = r.live_verified else { continue };
            let subnet = Subnet::containing(ip, r.subnet_mask().unwrap_or(default_mask));
            let e = by_subnet.entry(subnet).or_insert((0, 0, JTime(0)));
            e.0 += 1;
            if lv >= cutoff {
                e.1 += 1;
            }
            e.2 = e.2.max(lv);
        }
        let mut out: Vec<SilentSubnet> = by_subnet
            .into_iter()
            .filter(|(_, (once_live, fresh, _))| *once_live >= min_members && *fresh == 0)
            .map(|(subnet, (once_live, _, last_live))| SilentSubnet {
                subnet,
                once_live,
                last_live,
            })
            .collect();
        out.sort_by_key(|s| s.subnet);
        out
    }

    /// Finds interfaces whose records carry timestamps from the future.
    ///
    /// The Journal stamps every record at store time, so a `live_verified`
    /// or `discovered` *ahead* of the query's `now` can only come from an
    /// observation timestamped by a host whose clock runs fast — the
    /// journal-poisoning symptom of a clock-skewed reporter.
    fn clock_skew_suspects(journal: &Journal, now: JTime) -> Vec<ClockSkewSuspect> {
        let mut out = Vec::new();
        for r in journal.get_interfaces(&InterfaceQuery::all()) {
            let newest = [Some(r.discovered), Some(r.changed), r.live_verified]
                .into_iter()
                .flatten()
                .max()
                .unwrap_or(JTime(0));
            if newest > now {
                out.push(ClockSkewSuspect {
                    ip: r.ip_addr(),
                    name: r.dns_name().map(str::to_owned),
                    seen_at: newest,
                    ahead_secs: newest.as_secs() - now.as_secs(),
                });
            }
        }
        out.sort_by_key(|s| (std::cmp::Reverse(s.ahead_secs), s.ip.map(u32::from)));
        out
    }

    /// Finds hosts flagged as promiscuous RIP sources.
    fn promiscuous_rip_hosts(journal: &Journal) -> Vec<PromiscuousRipHost> {
        let q = InterfaceQuery {
            rip_source: Some(true),
            ..Default::default()
        };
        let mut out: Vec<PromiscuousRipHost> = journal
            .get_interfaces(&q)
            .into_iter()
            .filter(|r| r.rip_promiscuous)
            .filter_map(|r| {
                Some(PromiscuousRipHost {
                    ip: r.ip_addr()?,
                    mac: r.mac_addr(),
                })
            })
            .collect();
        out.sort_by_key(|p| u32::from(p.ip));
        out.dedup();
        out
    }

    /// Runs every detector.
    pub fn generate(
        journal: &Journal,
        now: JTime,
        stale_after: u64,
        min_overlap: u64,
    ) -> ProblemReport {
        let conflicts = address_conflicts(journal, now, min_overlap);
        let (dups, hw): (Vec<_>, Vec<_>) = conflicts
            .into_iter()
            .filter(|c| c.kind != AddressConflictKind::MultipleAddressesOneMac)
            .partition(|c| c.kind == AddressConflictKind::DuplicateAssignment);
        ProblemReport {
            stale: stale_addresses(journal, now, stale_after),
            hardware_changes: hw,
            mask_conflicts: subnet_mask_conflicts(journal),
            duplicates: dups,
            promiscuous: promiscuous_rip_hosts(journal),
            stale_routes: stale_routes(journal, now, stale_after),
            silent_subnets: silent_subnets(journal, now, stale_after, 3),
            clock_skew: clock_skew_suspects(journal, now),
        }
    }
}

#[cfg(test)]
mod differential {
    //! One snapshot against [`per_read_oracle`] (and the topology
    //! export against its own): every report field and every rendering,
    //! order included.

    use super::{per_read_oracle, ProblemReport};
    use crate::topology::{self, TopologyGraph};
    use fremont_journal::observation::{Fact, Observation, Source};
    use fremont_journal::store::Journal;
    use fremont_journal::time::JTime;
    use fremont_net::{MacAddr, Subnet, SubnetMask};
    use fremont_netsim::campus::CampusConfig;
    use fremont_netsim::faults::FaultPlan;
    use fremont_netsim::time::SimDuration;
    use proptest::prelude::*;
    use std::net::Ipv4Addr;

    /// Both answers, new and old, over one journal.
    fn assert_same_answers(j: &Journal, now: JTime, stale_after: u64, min_overlap: u64) {
        let got = ProblemReport::generate(j, now, stale_after, min_overlap);
        let want = per_read_oracle::generate(j, now, stale_after, min_overlap);
        // Field by field, so a failure names the detector.
        assert_eq!(got.stale, want.stale);
        assert_eq!(got.hardware_changes, want.hardware_changes);
        assert_eq!(got.mask_conflicts, want.mask_conflicts);
        assert_eq!(got.duplicates, want.duplicates);
        assert_eq!(got.promiscuous, want.promiscuous);
        assert_eq!(got.stale_routes, want.stale_routes);
        assert_eq!(got.silent_subnets, want.silent_subnets);
        assert_eq!(got.clock_skew, want.clock_skew);
        assert_eq!(got, want);
        let got = TopologyGraph::from_journal(j);
        let want = topology::per_read_oracle::from_journal(j);
        assert_eq!(got.to_sunnet(), want.to_sunnet());
        assert_eq!(got.to_dot(), want.to_dot());
        assert_eq!(got.to_ascii(), want.to_ascii());
    }

    /// One step of a journal's history.
    #[derive(Debug, Clone)]
    enum Op {
        Apply(Observation),
        /// Delete the record at this position (modulo the count) of the
        /// id-ordered listing.
        Delete(usize),
        /// Delete the member at this position (modulo the count) of all
        /// gateways' member lists.
        DeleteMember(usize),
    }

    // Small pools, so records collide: 12 addresses over 4 /24s, 4 MACs,
    // 3 names, 3 masks, 6 instants (the analysis `now` is drawn from the
    // same instants, so some records are stamped ahead of it).
    const TIMES: [u64; 6] = [0, 90, 1_000, 5_000, 40_000, 200_000];

    fn arb_ip() -> impl Strategy<Value = Ipv4Addr> {
        (0u8..4, 1u8..4).prop_map(|(s, h)| Ipv4Addr::new(10, 0, s, h))
    }

    fn arb_mac() -> impl Strategy<Value = MacAddr> {
        (0u8..4).prop_map(|b| MacAddr::new([8, 0, 0x20, 0, 0, b]))
    }

    fn arb_name() -> impl Strategy<Value = String> {
        (0u8..3).prop_map(|n| format!("gw-{n}"))
    }

    fn arb_mask() -> impl Strategy<Value = SubnetMask> {
        prop_oneof![Just(16u8), Just(24), Just(26)]
            .prop_map(|len| SubnetMask::from_prefix_len(len).unwrap())
    }

    fn arb_subnet() -> impl Strategy<Value = Subnet> {
        (arb_ip(), arb_mask()).prop_map(|(ip, mask)| Subnet::containing(ip, mask))
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            arb_ip().prop_map(|ip| Op::Apply(Observation::ip_alive(Source::SeqPing, ip))),
            (arb_ip(), arb_mac()).prop_map(|(ip, m)| Op::Apply(Observation::arp_pair(
                Source::ArpWatch,
                ip,
                m
            ))),
            (arb_ip(), arb_name()).prop_map(|(ip, n)| Op::Apply(Observation::named_ip(
                Source::Dns,
                ip,
                &n
            ))),
            (arb_ip(), arb_mask()).prop_map(|(ip, m)| Op::Apply(Observation::mask(
                Source::SubnetMasks,
                ip,
                m
            ))),
            // DNS-only records that never get an address.
            (proptest::option::of(arb_mac()), arb_name()).prop_map(|(mac, n)| {
                let fact = Fact::Interface {
                    ip: None,
                    mac,
                    name: Some(n),
                    mask: None,
                };
                Op::Apply(Observation::new(Source::Dns, fact))
            }),
            (arb_subnet(), any::<bool>()).prop_map(|(s, assumed)| Op::Apply(Observation::subnet(
                Source::RipWatch,
                s,
                assumed
            ))),
            // Gateways with one to three members, named or not.
            (
                proptest::collection::vec(arb_ip(), 1..4),
                proptest::collection::vec(arb_name(), 0..2),
                proptest::collection::vec(arb_subnet(), 0..3),
            )
                .prop_map(|(interface_ips, interface_names, subnets)| {
                    let fact = Fact::Gateway {
                        interface_ips,
                        interface_names,
                        subnets,
                    };
                    Op::Apply(Observation::new(Source::Traceroute, fact))
                }),
            (arb_ip(), proptest::option::of(arb_mac()), any::<bool>()).prop_map(
                |(ip, mac, promiscuous)| {
                    let fact = Fact::RipSource {
                        ip,
                        mac,
                        advertised_routes: 10,
                        promiscuous,
                    };
                    Op::Apply(Observation::new(Source::RipWatch, fact))
                }
            ),
            (0usize..64).prop_map(Op::Delete),
            (0usize..64).prop_map(Op::DeleteMember),
        ]
    }

    fn arb_time() -> impl Strategy<Value = JTime> {
        (0..TIMES.len()).prop_map(|i| JTime(TIMES[i]))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn matches_the_per_read_oracle(
            history in proptest::collection::vec((arb_op(), arb_time()), 1..60),
            now in arb_time(),
            stale_after in prop_oneof![Just(0u64), Just(50), Just(4_000), Just(86_400)],
            min_overlap in prop_oneof![Just(0u64), Just(10), Just(3_600)],
        ) {
            let j = Journal::new();
            for (op, at) in &history {
                match op {
                    Op::Apply(o) => {
                        j.apply(o, *at);
                    }
                    Op::Delete(k) => {
                        let all = j.to_snapshot().interfaces;
                        if !all.is_empty() {
                            j.delete_interface(all[k % all.len()].id);
                        }
                    }
                    Op::DeleteMember(k) => {
                        let members: Vec<_> = j
                            .get_gateways()
                            .into_iter()
                            .flat_map(|g| g.interfaces)
                            .collect();
                        if !members.is_empty() {
                            j.delete_interface(members[k % members.len()]);
                        }
                    }
                }
                assert_same_answers(&j, now, stale_after, min_overlap);
            }
            j.check_invariants().unwrap();
        }
    }

    #[test]
    fn matches_the_per_read_oracle_after_a_campus_survey() {
        let mut f = crate::fremont::Fremont::over_campus(&CampusConfig::default());
        f.explore(SimDuration::from_hours(2)).unwrap();
        let now = f.now();
        let findings = f.journal.read(|j| {
            // The benchmark's windows, the survey example's, and one
            // tight enough that most of the campus counts as stale.
            for (stale_after, min_overlap) in [(2 * 86_400, 3_600), (86_400, 3_600), (600, 60)] {
                assert_same_answers(j, now, stale_after, min_overlap);
            }
            ProblemReport::generate(j, now, 600, 60).total()
        });
        assert!(findings >= 20, "only {findings} findings after 2 h");
    }

    #[test]
    fn matches_the_per_read_oracle_under_every_fault_scenario() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
        let mut paths: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        paths.sort();
        assert!(paths.len() >= 8, "{paths:?}");
        for path in paths {
            let text = std::fs::read_to_string(&path).unwrap();
            let cfg = CampusConfig {
                fault_plan: FaultPlan::from_json(&text).unwrap(),
                ..CampusConfig::default()
            };
            let mut f = crate::fremont::Fremont::over_campus(&cfg);
            f.explore(SimDuration::from_hours(6)).unwrap();
            let now = f.now();
            f.journal.read(|j| {
                assert_same_answers(j, now, 86_400, 3_600);
                assert_same_answers(j, now, 3_600, 60);
            });
        }
    }

    #[test]
    fn one_report_reads_the_store_once() {
        let j = Journal::new();
        // A gateway with two members: two point reads at the parent.
        let fact = Fact::Gateway {
            interface_ips: vec![Ipv4Addr::new(10, 0, 1, 1), Ipv4Addr::new(10, 0, 2, 1)],
            interface_names: vec![],
            subnets: vec![],
        };
        j.apply(&Observation::new(Source::Traceroute, fact), JTime(1));
        let read_locks = |j: &Journal| j.sharding_metrics().shards[0].read_locks;
        let before = read_locks(&j);
        ProblemReport::generate(&j, JTime(10), 86_400, 3_600);
        // The other lock counted is the closing `sharding_metrics`' own.
        assert_eq!(read_locks(&j), before + 1 + 1);
    }
}
