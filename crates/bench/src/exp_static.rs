//! Experiments for the paper's *static* tables: Table 1 (interface
//! fields), Table 2 (Journal storage requirements), and Table 3 (module
//! inputs/outputs).

use std::mem::size_of;
use std::net::Ipv4Addr;

use fremont_core::registry::registry;
use fremont_journal::observation::{Fact, Observation, Source};
use fremont_journal::records::{GatewayRecord, InterfaceRecord, SubnetRecord};
use fremont_journal::store::Journal;
use fremont_journal::time::JTime;
use fremont_net::MacAddr;

use crate::tables::Table;

/// Table 1: the interface record fields.
///
/// Regenerated from the actual record type: the experiment constructs a
/// fully-populated record and lists which paper field maps to which
/// implementation field.
pub fn table1() -> Table {
    let mut t = Table::new(
        "Table 1: Interface Fields",
        &["Field (paper)", "Implementation", "Timestamped"],
    );
    // Construct a fully-populated record to prove the schema exists.
    let j = Journal::new();
    j.apply(
        &Observation::arp_pair(
            Source::ArpWatch,
            Ipv4Addr::new(128, 138, 243, 18),
            "08:00:20:01:02:03".parse().expect("mac literal"),
        ),
        JTime(1),
    );
    j.apply(
        &Observation::named_ip(Source::Dns, Ipv4Addr::new(128, 138, 243, 18), "bruno"),
        JTime(2),
    );
    j.apply(
        &Observation::mask(
            Source::SubnetMasks,
            Ipv4Addr::new(128, 138, 243, 18),
            fremont_net::SubnetMask::from_prefix_len(24).expect("valid"),
        ),
        JTime(3),
    );
    j.apply(
        &Observation::new(
            Source::Traceroute,
            Fact::Gateway {
                interface_ips: vec![Ipv4Addr::new(128, 138, 243, 18)],
                interface_names: vec![],
                subnets: vec![],
            },
        ),
        JTime(4),
    );
    let rec = &j.get_interfaces(&fremont_journal::InterfaceQuery::all())[0];
    assert!(rec.mac.is_some() && rec.ip.is_some() && rec.name.is_some() && rec.mask.is_some());
    assert!(rec.gateway.is_some());

    t.row(&["MAC layer address", "InterfaceRecord::mac", "yes"]);
    t.row(&["Network layer address", "InterfaceRecord::ip", "yes"]);
    t.row(&["DNS name", "InterfaceRecord::name", "yes"]);
    t.row(&["Subnet mask", "InterfaceRecord::mask", "yes"]);
    t.row(&[
        "Gateway to which this interface belongs",
        "InterfaceRecord::gateway",
        "record-level",
    ]);
    t.note("every field carries discovery / last-change / last-verification times");
    t
}

/// Rough in-memory footprint of an interface record (struct + heap).
/// A name is one shared allocation: its two reference counters and
/// its bytes.
pub fn interface_bytes(r: &InterfaceRecord) -> usize {
    size_of::<InterfaceRecord>()
        + r.name
            .as_ref()
            .map_or(0, |t| 2 * size_of::<usize>() + t.get().len())
}

/// Rough in-memory footprint of a gateway record.
pub fn gateway_bytes(g: &GatewayRecord) -> usize {
    size_of::<GatewayRecord>()
        + g.interfaces.capacity() * size_of::<fremont_journal::records::InterfaceId>()
        + g.subnets.capacity() * size_of::<fremont_net::Subnet>()
}

/// Rough in-memory footprint of a subnet record.
pub fn subnet_bytes(s: &SubnetRecord) -> usize {
    size_of::<SubnetRecord>()
        + s.gateways.capacity() * size_of::<fremont_journal::records::GatewayId>()
}

/// Table 2: Journal storage requirements.
///
/// The paper reports 200 bytes per interface record, 84 per gateway, 76
/// per subnet, and estimates "a 25% full class B network (16k interfaces)
/// with 192 subnets used (and an equal number of gateways) would require
/// under four megabytes of memory". We build exactly that journal and
/// measure.
pub fn table2() -> Table {
    let j = Journal::new();
    // 16k interfaces across 192 subnets (85 hosts each ≈ 16320).
    let mut count = 0u32;
    for s in 0..192u32 {
        let third = (s % 250) as u8;
        let fourth_base = 1 + (s / 250) * 90;
        for h in 0..85u32 {
            let ip = Ipv4Addr::new(128, 138, third, (fourth_base + h).min(254) as u8);
            let mac = MacAddr::new([
                8,
                0,
                0x20,
                (count >> 16) as u8,
                (count >> 8) as u8,
                count as u8,
            ]);
            let mut obs = Observation::arp_pair(Source::ArpWatch, ip, mac);
            // Half the interfaces also carry names and masks (realistic mix).
            if count.is_multiple_of(2) {
                obs = Observation::new(
                    Source::Dns,
                    Fact::Interface {
                        ip: Some(ip),
                        mac: Some(mac),
                        name: Some(format!("host{count}.colorado.edu")),
                        mask: Some(fremont_net::SubnetMask::from_prefix_len(24).expect("valid")),
                    },
                );
            }
            j.apply(&obs, JTime(u64::from(count)));
            count += 1;
        }
    }
    // 192 gateways, each joining two subnets.
    for g in 0..192u32 {
        let a = Ipv4Addr::new(128, 138, (g % 250) as u8, 1);
        j.apply(
            &Observation::new(
                Source::Traceroute,
                Fact::Gateway {
                    interface_ips: vec![a],
                    interface_names: vec![],
                    subnets: vec![
                        format!("128.138.{}.0/24", g % 250).parse().expect("subnet"),
                        "128.138.1.0/24".parse().expect("subnet"),
                    ],
                },
            ),
            JTime(1_000_000 + u64::from(g)),
        );
    }
    let stats = j.stats();

    let ifaces = j.get_interfaces(&fremont_journal::InterfaceQuery::all());
    let gws = j.get_gateways();
    let subs = j.get_subnets(&fremont_journal::SubnetQuery::all());
    let if_bytes: usize = ifaces.iter().map(interface_bytes).sum::<usize>() / ifaces.len().max(1);
    let gw_bytes: usize = gws.iter().map(gateway_bytes).sum::<usize>() / gws.len().max(1);
    let sn_bytes: usize = subs.iter().map(subnet_bytes).sum::<usize>() / subs.len().max(1);

    let total: usize = ifaces.iter().map(interface_bytes).sum::<usize>()
        + gws.iter().map(gateway_bytes).sum::<usize>()
        + subs.iter().map(subnet_bytes).sum::<usize>();

    let mut t = Table::new(
        "Table 2: Journal Storage Requirements",
        &[
            "Record",
            "Paper bytes/record",
            "Measured bytes/record",
            "Count",
        ],
    );
    t.row(&[
        "Interface".to_owned(),
        "200".to_owned(),
        if_bytes.to_string(),
        stats.interfaces.to_string(),
    ]);
    t.row(&[
        "Gateway".to_owned(),
        "84".to_owned(),
        gw_bytes.to_string(),
        stats.gateways.to_string(),
    ]);
    t.row(&[
        "Subnet".to_owned(),
        "76".to_owned(),
        sn_bytes.to_string(),
        stats.subnets.to_string(),
    ]);
    t.note(&format!(
        "paper claim: 25%-full class B (16k interfaces, 192 subnets+gateways) under 4 MB; \
         measured total: {:.2} MB",
        total as f64 / (1024.0 * 1024.0)
    ));
    t.note("1993 C structs were leaner than timestamped Rust records; the claim to check is the magnitude");
    t
}

/// Table 3: Explorer Module inputs/outputs, straight from the registry.
pub fn table3() -> Table {
    let mut t = Table::new(
        "Table 3: Explorer Module Input/Output",
        &["Source", "Module", "Inputs", "Outputs"],
    );
    for m in registry() {
        t.row(&[m.family, m.source.name(), m.inputs_text, m.outputs_text]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shape() {
        let t = table1();
        assert_eq!(t.rows.len(), 5);
    }

    #[test]
    fn table2_magnitude_holds() {
        let t = table2();
        assert_eq!(t.rows.len(), 3);
        // ~16k interfaces were actually created.
        let count: usize = t.rows[0][3].parse().unwrap();
        assert!(count >= 16_000, "{count}");
        // The 4 MB-magnitude claim: our measured total must be within a
        // small constant factor (Rust records carry more timestamps).
        let note = &t.notes[0];
        let mb: f64 = note
            .split("measured total: ")
            .nth(1)
            .unwrap()
            .split(' ')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(mb < 16.0, "order of magnitude preserved, got {mb} MB");
        assert!(mb > 1.0, "non-trivial storage, got {mb} MB");
    }

    #[test]
    fn table3_has_eight_modules() {
        let t = table3();
        assert_eq!(t.rows.len(), 8);
        assert!(t.rows.iter().any(|r| r[1] == "ARPwatch"));
        assert!(t.rows.iter().any(|r| r[3].contains("gateway-subnet links")));
    }
}
