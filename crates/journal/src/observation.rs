//! Observations: the vocabulary of discovered facts.
//!
//! Every Explorer Module reports what it learned as a stream of
//! [`Observation`]s, which the Journal Server merges into its records
//! (Table 3 of the paper lists each module's outputs). Observations carry
//! no timestamps — the Journal Server stamps them on store, exactly as the
//! paper describes.

use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

use fremont_net::{MacAddr, Subnet, SubnetMask};

/// Which Explorer Module produced an observation.
///
/// The ordering matches Table 3 of the paper (sources ARP, ICMP, RIP, DNS).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Source {
    /// Passive ARP monitoring (requires a tap).
    ArpWatch,
    /// Active UDP-echo probing + ARP cache readback.
    EtherHostProbe,
    /// Sequential ICMP echo sweep.
    SeqPing,
    /// Directed-broadcast ICMP echo.
    BrdcastPing,
    /// ICMP mask request sweep.
    SubnetMasks,
    /// TTL-stepped UDP probing.
    Traceroute,
    /// Passive RIP monitoring (requires a tap).
    RipWatch,
    /// DNS zone walking.
    Dns,
    /// The Discovery Manager or an analysis pass (synthetic entries).
    Manager,
}

impl Source {
    /// All eight Explorer Module sources, in Table 3 order.
    pub const EXPLORERS: [Source; 8] = [
        Source::ArpWatch,
        Source::EtherHostProbe,
        Source::SeqPing,
        Source::BrdcastPing,
        Source::SubnetMasks,
        Source::Traceroute,
        Source::RipWatch,
        Source::Dns,
    ];

    /// Short display name, as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Source::ArpWatch => "ARPwatch",
            Source::EtherHostProbe => "EtherHostProbe",
            Source::SeqPing => "SeqPing",
            Source::BrdcastPing => "BrdcastPing",
            Source::SubnetMasks => "SubnetMasks",
            Source::Traceroute => "Traceroute",
            Source::RipWatch => "RIPwatch",
            Source::Dns => "DNS",
            Source::Manager => "Manager",
        }
    }

    /// Relative data quality, used when merging conflicting facts.
    ///
    /// The paper: "data gathered using the ARP protocol are generally
    /// timely and correct, whereas DNS data are older and often subject to
    /// data entry errors."
    pub fn quality(self) -> u8 {
        match self {
            Source::ArpWatch | Source::EtherHostProbe => 4,
            Source::SeqPing | Source::BrdcastPing | Source::SubnetMasks | Source::Traceroute => 3,
            Source::RipWatch => 2,
            Source::Dns => 1,
            Source::Manager => 0,
        }
    }
}

/// A compact set of [`Source`]s (bit set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash, Serialize, Deserialize)]
pub struct SourceSet(u16);

impl SourceSet {
    /// The empty set.
    pub const EMPTY: SourceSet = SourceSet(0);

    /// Adds a source.
    pub fn insert(&mut self, s: Source) {
        self.0 |= 1 << s as u16;
    }

    /// Membership test.
    pub fn contains(&self, s: Source) -> bool {
        self.0 & (1 << s as u16) != 0
    }

    /// Number of distinct sources.
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// Returns `true` when no source has reported.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Iterates the member sources.
    pub fn iter(&self) -> impl Iterator<Item = Source> + '_ {
        const ALL: [Source; 9] = [
            Source::ArpWatch,
            Source::EtherHostProbe,
            Source::SeqPing,
            Source::BrdcastPing,
            Source::SubnetMasks,
            Source::Traceroute,
            Source::RipWatch,
            Source::Dns,
            Source::Manager,
        ];
        ALL.into_iter().filter(|s| self.contains(*s))
    }
}

/// One fact learned about the network.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Fact {
    /// An interface exists, with whatever attributes the module learned.
    ///
    /// At least one of `ip` / `mac` is present in any useful observation.
    Interface {
        /// Network-layer address, if learned.
        ip: Option<Ipv4Addr>,
        /// MAC-layer address, if learned.
        mac: Option<MacAddr>,
        /// DNS name, if learned.
        name: Option<String>,
        /// Subnet mask, if learned.
        mask: Option<SubnetMask>,
    },
    /// A subnet exists.
    Subnet {
        /// The subnet (mask may be assumed; see `mask_assumed`).
        subnet: Subnet,
        /// `true` when the mask was inferred (e.g. RIPv1 classification)
        /// rather than reported by the network.
        mask_assumed: bool,
    },
    /// Per-subnet statistics, as the DNS module records: "the number of
    /// hosts on each subnet and the highest and lowest addresses assigned".
    SubnetStats {
        /// The subnet.
        subnet: Subnet,
        /// Number of registered interfaces.
        host_count: u32,
        /// Lowest assigned address.
        lowest: Ipv4Addr,
        /// Highest assigned address.
        highest: Ipv4Addr,
    },
    /// A set of interfaces known to belong to one gateway, plus subnets it
    /// connects (possibly without knowing the interface address there).
    Gateway {
        /// Known interface addresses of the gateway.
        interface_ips: Vec<Ipv4Addr>,
        /// Known interface names of the gateway (DNS heuristics).
        interface_names: Vec<String>,
        /// Subnets the gateway is attached to.
        subnets: Vec<Subnet>,
    },
    /// A host was seen sourcing RIP advertisements.
    RipSource {
        /// The advertising interface's IP address.
        ip: Ipv4Addr,
        /// Its MAC, when the watcher saw the frame.
        mac: Option<MacAddr>,
        /// Number of routes in its advertisements.
        advertised_routes: u32,
        /// `true` when the source appears to promiscuously rebroadcast
        /// routes learned elsewhere.
        promiscuous: bool,
    },
}

/// An observation: a fact plus the module that produced it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Observation {
    /// Producing module.
    pub source: Source,
    /// The discovered fact.
    pub fact: Fact,
}

impl Observation {
    /// Convenience constructor.
    pub fn new(source: Source, fact: Fact) -> Self {
        Observation { source, fact }
    }

    /// Shorthand for an interface observation with an IP address only
    /// (what a ping sweep learns).
    pub fn ip_alive(source: Source, ip: Ipv4Addr) -> Self {
        Observation::new(
            source,
            Fact::Interface {
                ip: Some(ip),
                mac: None,
                name: None,
                mask: None,
            },
        )
    }

    /// Shorthand for an ARP-style (IP, MAC) pair observation.
    pub fn arp_pair(source: Source, ip: Ipv4Addr, mac: MacAddr) -> Self {
        Observation::new(
            source,
            Fact::Interface {
                ip: Some(ip),
                mac: Some(mac),
                name: None,
                mask: None,
            },
        )
    }

    /// Shorthand for a mask observation for a known interface.
    pub fn mask(source: Source, ip: Ipv4Addr, mask: SubnetMask) -> Self {
        Observation::new(
            source,
            Fact::Interface {
                ip: Some(ip),
                mac: None,
                name: None,
                mask: Some(mask),
            },
        )
    }

    /// Shorthand for a name+address observation (what DNS learns).
    pub fn named_ip(source: Source, ip: Ipv4Addr, name: &str) -> Self {
        Observation::new(
            source,
            Fact::Interface {
                ip: Some(ip),
                mac: None,
                name: Some(name.to_owned()),
                mask: None,
            },
        )
    }

    /// Shorthand for a subnet-exists observation.
    pub fn subnet(source: Source, subnet: Subnet, mask_assumed: bool) -> Self {
        Observation::new(
            source,
            Fact::Subnet {
                subnet,
                mask_assumed,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_names_match_paper_tables() {
        assert_eq!(Source::ArpWatch.name(), "ARPwatch");
        assert_eq!(Source::RipWatch.name(), "RIPwatch");
        assert_eq!(Source::Dns.name(), "DNS");
        assert_eq!(Source::EXPLORERS.len(), 8);
    }

    #[test]
    fn quality_ordering() {
        assert!(Source::ArpWatch.quality() > Source::Dns.quality());
        assert!(Source::SeqPing.quality() > Source::RipWatch.quality());
    }

    #[test]
    fn source_set_ops() {
        let mut s = SourceSet::EMPTY;
        assert!(s.is_empty());
        s.insert(Source::Dns);
        s.insert(Source::SeqPing);
        s.insert(Source::Dns);
        assert_eq!(s.len(), 2);
        assert!(s.contains(Source::Dns));
        assert!(!s.contains(Source::ArpWatch));
        let members: Vec<_> = s.iter().collect();
        assert_eq!(members, vec![Source::SeqPing, Source::Dns]);
    }

    /// A `SourceSet` is stored as its `u16` (`"sources": 96` in a
    /// snapshot), so each `Source`'s position is its bit on disk:
    /// reordering the variants would reread every committed set.
    #[test]
    fn source_bits_are_the_on_disk_format() {
        let bits = [
            (Source::ArpWatch, 0),
            (Source::EtherHostProbe, 1),
            (Source::SeqPing, 2),
            (Source::BrdcastPing, 3),
            (Source::SubnetMasks, 4),
            (Source::Traceroute, 5),
            (Source::RipWatch, 6),
            (Source::Dns, 7),
            (Source::Manager, 8),
        ];
        for (source, bit) in bits {
            assert_eq!(source as u16, bit, "{source:?}");
        }
        let mut set = SourceSet::EMPTY;
        set.insert(Source::Traceroute);
        set.insert(Source::RipWatch);
        set.insert(Source::Manager);
        assert_eq!(set, SourceSet(0b1_0110_0000));
        assert_eq!(serde_json::to_string(&set).unwrap(), "352");
    }

    #[test]
    fn observation_shorthands() {
        let o = Observation::ip_alive(Source::SeqPing, Ipv4Addr::new(10, 0, 0, 1));
        match o.fact {
            Fact::Interface {
                ip,
                mac,
                name,
                mask,
            } => {
                assert_eq!(ip, Some(Ipv4Addr::new(10, 0, 0, 1)));
                assert!(mac.is_none() && name.is_none() && mask.is_none());
            }
            other => panic!("wrong fact {other:?}"),
        }
    }

    #[test]
    fn observation_serde_roundtrip() {
        let o = Observation::arp_pair(
            Source::ArpWatch,
            Ipv4Addr::new(128, 138, 243, 18),
            "08:00:20:01:02:03".parse().unwrap(),
        );
        let json = serde_json::to_string(&o).unwrap();
        let back: Observation = serde_json::from_str(&json).unwrap();
        assert_eq!(back, o);
    }

    #[test]
    fn gateway_fact_serde() {
        let o = Observation::new(
            Source::Traceroute,
            Fact::Gateway {
                interface_ips: vec![Ipv4Addr::new(128, 138, 238, 1)],
                interface_names: vec!["cs-gw".to_owned()],
                subnets: vec!["128.138.238.0/24".parse().unwrap()],
            },
        );
        let json = serde_json::to_string(&o).unwrap();
        assert_eq!(serde_json::from_str::<Observation>(&json).unwrap(), o);
    }
}
