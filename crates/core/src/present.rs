//! The presentation programs: viewing Journal contents.
//!
//! The paper ships three: a raw dump ("We used this for early debugging"),
//! a three-level interface viewer, and a topology exporter (see
//! [`crate::topology`]). The X-window displays are rendered here as text
//! tables with the same columns.

use std::fmt::Write as _;

use fremont_journal::query::InterfaceQuery;
use fremont_journal::records::InterfaceId;
use fremont_journal::store::Journal;
use fremont_journal::time::JTime;
use fremont_net::Subnet;

/// Program 1: the raw Journal dump — one snapshot, so the header counts
/// the very records listed under it.
pub fn dump(journal: &Journal) -> String {
    let mut out = String::new();
    let snap = journal.to_snapshot();
    let _ = writeln!(
        out,
        "JOURNAL DUMP: {} interfaces, {} gateways, {} subnets ({} observations applied)",
        snap.interfaces.len(),
        snap.gateways.len(),
        snap.subnets.len(),
        snap.observations_applied
    );
    for r in &snap.interfaces {
        let _ = writeln!(out, "interface {:?}: {r:?}", r.id);
    }
    for g in &snap.gateways {
        let _ = writeln!(out, "gateway {:?}: {g:?}", g.id);
    }
    for s in &snap.subnets {
        let _ = writeln!(out, "subnet {}: {s:?}", s.subnet);
    }
    out
}

fn age(now: JTime, then: Option<JTime>) -> String {
    match then {
        None => "never".to_owned(),
        Some(t) => {
            let secs = now.secs_since(t);
            if secs < 120 {
                format!("{secs}s ago")
            } else if secs < 7200 {
                format!("{}m ago", secs / 60)
            } else if secs < 2 * 86400 {
                format!("{}h ago", secs / 3600)
            } else {
                format!("{}d ago", secs / 86400)
            }
        }
    }
}

/// Viewer level 1: "all interfaces in a particular network, including the
/// network layer address, DNS name, and time since last verification of
/// existence (ignoring time of last DNS verification)".
pub fn level1_network(journal: &Journal, network: Subnet, now: JTime) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Interfaces in {network}");
    let _ = writeln!(out, "{:<18} {:<28} LAST SEEN ALIVE", "ADDRESS", "NAME");
    let mut recs = journal.get_interfaces(&InterfaceQuery::in_subnet(network));
    recs.sort_by_key(|r| r.ip_addr().map(u32::from));
    for r in recs {
        let _ = writeln!(
            out,
            "{:<18} {:<28} {}",
            r.ip_addr().map(|i| i.to_string()).unwrap_or_default(),
            r.dns_name().unwrap_or("-"),
            age(now, r.live_verified),
        );
    }
    out
}

/// Viewer level 2: "all subnet interfaces, including the MAC layer address
/// (if available), an indication of whether or not this is a source of RIP
/// packets, and an indication of whether this is one interface of a
/// gateway".
pub fn level2_subnet(journal: &Journal, subnet: Subnet, now: JTime) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Subnet {subnet}");
    let _ = writeln!(
        out,
        "{:<18} {:<19} {:<22} {:<4} {:<8} LAST SEEN",
        "ADDRESS", "ETHERNET", "VENDOR", "RIP", "GATEWAY"
    );
    let mut recs = journal.get_interfaces(&InterfaceQuery::in_subnet(subnet));
    recs.sort_by_key(|r| r.ip_addr().map(u32::from));
    for r in recs {
        let _ = writeln!(
            out,
            "{:<18} {:<19} {:<22} {:<4} {:<8} {}",
            r.ip_addr().map(|i| i.to_string()).unwrap_or_default(),
            r.mac_addr()
                .map(|m| m.to_string())
                .unwrap_or_else(|| "-".into()),
            r.mac_addr().and_then(|m| m.vendor()).unwrap_or("-"),
            if r.rip_source { "yes" } else { "no" },
            if r.is_gateway_member() { "member" } else { "-" },
            age(now, r.live_verified),
        );
    }
    out
}

/// Viewer level 3: "all of the data items stored in the Journal for a
/// particular interface", with the three timestamps per field.
pub fn level3_interface(journal: &Journal, id: InterfaceId, now: JTime) -> String {
    let Some(r) = journal.interface(id) else {
        return format!("no interface record {id:?}\n");
    };
    let mut out = String::new();
    let _ = writeln!(out, "Interface record {:?}", r.id);
    let _ = writeln!(
        out,
        "  record: discovered {} / changed {} / verified {}",
        r.discovered, r.changed, r.verified
    );
    let fmt3 = |f: &mut String, label: &str, value: String, d: JTime, c: JTime, v: JTime| {
        let _ = writeln!(f, "  {label:<14} {value:<24} disc {d} / chg {c} / ver {v}");
    };
    if let Some(t) = &r.ip {
        fmt3(
            &mut out,
            "IP address",
            t.get().to_string(),
            t.discovered,
            t.changed,
            t.verified,
        );
    }
    if let Some(t) = &r.mac {
        let vendor = t.get().vendor().unwrap_or("unknown vendor");
        fmt3(
            &mut out,
            "Ethernet",
            format!("{} ({vendor})", t.get()),
            t.discovered,
            t.changed,
            t.verified,
        );
    }
    if let Some(t) = &r.name {
        fmt3(
            &mut out,
            "DNS name",
            t.get().clone(),
            t.discovered,
            t.changed,
            t.verified,
        );
    }
    if let Some(t) = &r.mask {
        fmt3(
            &mut out,
            "Subnet mask",
            t.get().to_string(),
            t.discovered,
            t.changed,
            t.verified,
        );
    }
    let _ = writeln!(
        out,
        "  gateway:       {}",
        r.gateway
            .map(|g| format!("{g:?}"))
            .unwrap_or_else(|| "-".into())
    );
    let _ = writeln!(
        out,
        "  rip source:    {}{}",
        r.rip_source,
        if r.rip_promiscuous {
            " (promiscuous)"
        } else {
            ""
        }
    );
    let sources: Vec<&str> = r.sources.iter().map(|s| s.name()).collect();
    let _ = writeln!(out, "  reported by:   {}", sources.join(", "));
    let _ = writeln!(out, "  last live:     {}", age(now, r.live_verified));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fremont_journal::observation::{Observation, Source};
    use fremont_net::SubnetMask;
    use std::net::Ipv4Addr;

    fn populated() -> Journal {
        let j = Journal::new();
        j.apply(
            &Observation::arp_pair(
                Source::ArpWatch,
                Ipv4Addr::new(128, 138, 243, 18),
                "08:00:20:01:02:03".parse().unwrap(),
            ),
            JTime::from_mins(5),
        );
        j.apply(
            &Observation::named_ip(Source::Dns, Ipv4Addr::new(128, 138, 243, 18), "bruno"),
            JTime::from_mins(6),
        );
        j.apply(
            &Observation::mask(
                Source::SubnetMasks,
                Ipv4Addr::new(128, 138, 243, 18),
                SubnetMask::from_prefix_len(24).unwrap(),
            ),
            JTime::from_mins(7),
        );
        j.apply(
            &Observation::named_ip(Source::Dns, Ipv4Addr::new(128, 138, 243, 99), "ghost"),
            JTime::from_mins(8),
        );
        j
    }

    #[test]
    fn dump_mentions_counts() {
        let j = populated();
        let d = dump(&j);
        assert!(d.contains("2 interfaces"));
        assert!(d.contains("0 subnets"), "{d}");
    }

    #[test]
    fn one_dump_reads_the_store_once() {
        let j = populated();
        let read_locks = |j: &Journal| j.sharding_metrics().shards[0].read_locks;
        let before = read_locks(&j);
        dump(&j);
        // The other lock counted is the closing `sharding_metrics`' own.
        assert_eq!(read_locks(&j), before + 1 + 1);
    }

    #[test]
    fn level1_shows_dns_only_host_as_never_seen() {
        let j = populated();
        let v = level1_network(&j, "128.138.0.0/16".parse().unwrap(), JTime::from_hours(2));
        assert!(v.contains("bruno"));
        assert!(v.contains("ghost"));
        // bruno was ARP-verified; ghost only ever existed in the DNS.
        let ghost_line = v.lines().find(|l| l.contains("ghost")).unwrap();
        assert!(ghost_line.contains("never"), "{ghost_line}");
        let bruno_line = v.lines().find(|l| l.contains("bruno")).unwrap();
        assert!(!bruno_line.contains("never"), "{bruno_line}");
    }

    #[test]
    fn level2_shows_mac_and_vendor() {
        let j = populated();
        let v = level2_subnet(
            &j,
            "128.138.243.0/24".parse().unwrap(),
            JTime::from_hours(1),
        );
        assert!(v.contains("08:00:20:01:02:03"));
        assert!(v.contains("Sun Microsystems"));
    }

    #[test]
    fn level3_shows_three_timestamps_per_field() {
        let j = populated();
        let id = j.get_interfaces(&InterfaceQuery::by_ip(Ipv4Addr::new(128, 138, 243, 18)))[0].id;
        let v = level3_interface(&j, id, JTime::from_hours(1));
        assert!(v.contains("IP address"));
        assert!(v.contains("Ethernet"));
        assert!(v.contains("DNS name"));
        assert!(v.contains("Subnet mask"));
        assert!(v.matches("disc ").count() >= 4);
        assert!(v.contains("reported by:"));
        assert!(v.contains("ARPwatch"));
    }

    #[test]
    fn level3_missing_record() {
        let j = Journal::new();
        let v = level3_interface(&j, InterfaceId(99), JTime(0));
        assert!(v.contains("no interface record"));
    }

    #[test]
    fn age_formatting() {
        let now = JTime::from_days(10);
        assert_eq!(age(now, None), "never");
        assert_eq!(age(now, Some(now)), "0s ago");
        assert_eq!(age(now, Some(JTime(now.as_secs() - 600))), "10m ago");
        assert_eq!(age(now, Some(JTime::from_days(9))), "24h ago");
        assert_eq!(age(now, Some(JTime::from_days(1))), "9d ago");
    }
}
