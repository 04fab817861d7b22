//! The Explorer Module registry.
//!
//! In the paper, the Discovery Manager's "startup/history file records
//! what each Explorer Module needs for input, and what features it
//! discovers" — Table 3. Table 4 adds the operational characteristics:
//! appropriate invocation intervals, completion time, and load. This
//! module is the static source of both tables, in Table 3 order.

use fremont_journal::observation::Source;
use fremont_journal::time::JTime;

/// One registry entry.
#[derive(Debug, Clone)]
pub struct ModuleInfo {
    /// The module's Journal source tag.
    pub source: Source,
    /// Information source family (Table 3 "Source" column).
    pub family: &'static str,
    /// Input description (Table 3 "Inputs" column).
    pub inputs_text: &'static str,
    /// Output description (Table 3 "Outputs" column).
    pub outputs_text: &'static str,
    /// Minimum re-invocation interval (Table 4).
    pub min_interval: JTime,
    /// Maximum re-invocation interval (Table 4).
    pub max_interval: JTime,
    /// Completion-time description (Table 4).
    pub time_to_complete: &'static str,
    /// Network-load description (Table 4).
    pub network_load: &'static str,
    /// System-load description (Table 4).
    pub system_load: &'static str,
    /// Runs continuously rather than to completion.
    pub continuous: bool,
}

/// The eight modules, in the paper's Table 3 order.
pub fn registry() -> &'static [ModuleInfo] {
    &REGISTRY
}

/// Looks up the registry entry for a source.
pub fn info_for(source: Source) -> Option<&'static ModuleInfo> {
    REGISTRY.iter().find(|m| m.source == source)
}

static REGISTRY: [ModuleInfo; 8] = [
    ModuleInfo {
        source: Source::ArpWatch,
        family: "ARP",
        inputs_text: "none",
        outputs_text: "Enet. & IP address matches (over time)",
        min_interval: JTime::from_hours(2),
        max_interval: JTime::from_days(7),
        time_to_complete: "continuous",
        network_load: "none",
        system_load: "minimal",
        continuous: true,
    },
    ModuleInfo {
        source: Source::EtherHostProbe,
        family: "ARP",
        inputs_text: "IP address range",
        outputs_text: "Enet. & IP address matches (immediately)",
        min_interval: JTime::from_days(1),
        max_interval: JTime::from_days(7),
        time_to_complete: "1 sec/address",
        network_load: "1 - 4 pkts/sec",
        system_load: "minimal",
        continuous: false,
    },
    ModuleInfo {
        source: Source::SeqPing,
        family: "ICMP",
        inputs_text: "IP address range",
        outputs_text: "Intf. IP addr.",
        min_interval: JTime::from_days(2),
        max_interval: JTime::from_days(14),
        time_to_complete: "2 sec/address",
        network_load: ".5 pkts/sec",
        system_load: "minimal",
        continuous: false,
    },
    ModuleInfo {
        source: Source::BrdcastPing,
        family: "ICMP",
        inputs_text: "Subnets or Nets",
        outputs_text: "Intf. IP addr.",
        min_interval: JTime::from_days(7),
        max_interval: JTime::from_days(28),
        time_to_complete: "30 sec/subnet",
        network_load: "short storm",
        system_load: "short high load",
        continuous: false,
    },
    ModuleInfo {
        source: Source::SubnetMasks,
        family: "ICMP",
        inputs_text: "IP address",
        outputs_text: "Subnet Masks",
        min_interval: JTime::from_days(1),
        max_interval: JTime::from_days(7),
        time_to_complete: "2 sec/address",
        network_load: ".5 pkts/sec",
        system_load: "minimal",
        continuous: false,
    },
    ModuleInfo {
        source: Source::Traceroute,
        family: "ICMP",
        inputs_text: "Subnets, Nets, or nothing",
        outputs_text: "Intfs. per gateway; gateway-subnet links",
        min_interval: JTime::from_days(2),
        max_interval: JTime::from_days(14),
        time_to_complete: "5 - 20 minutes",
        network_load: "4 - 8 pkts/sec",
        system_load: "moderate",
        continuous: false,
    },
    ModuleInfo {
        source: Source::RipWatch,
        family: "RIP",
        inputs_text: "none",
        outputs_text: "Subnets, Nets, Hosts",
        min_interval: JTime::from_hours(2),
        max_interval: JTime::from_days(7),
        time_to_complete: "2 minutes",
        network_load: "none",
        system_load: "minimal",
        continuous: false,
    },
    ModuleInfo {
        source: Source::Dns,
        family: "DNS",
        inputs_text: "Network number",
        outputs_text: "Intfs. per gateway",
        min_interval: JTime::from_days(2),
        max_interval: JTime::from_days(14),
        time_to_complete: "1 - 5 minutes",
        network_load: "10 pkts/sec",
        system_load: "high",
        continuous: false,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_modules_four_families() {
        let r = registry();
        assert_eq!(r.len(), 8);
        let mut families: Vec<&str> = r.iter().map(|m| m.family).collect();
        families.dedup();
        assert_eq!(families, vec!["ARP", "ICMP", "RIP", "DNS"]);
        assert_eq!(r.iter().filter(|m| m.family == "ICMP").count(), 4);
    }

    #[test]
    fn table3_order_is_the_explorer_order() {
        let order: Vec<Source> = registry().iter().map(|m| m.source).collect();
        assert_eq!(order, Source::EXPLORERS);
    }

    #[test]
    fn intervals_are_ordered() {
        for m in registry() {
            assert!(m.min_interval < m.max_interval, "{:?}", m.source);
        }
    }

    #[test]
    fn lookup_by_source() {
        assert_eq!(
            info_for(Source::Traceroute).unwrap().outputs_text,
            "Intfs. per gateway; gateway-subnet links"
        );
        assert!(info_for(Source::Manager).is_none());
    }
}
