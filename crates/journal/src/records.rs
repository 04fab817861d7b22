//! Journal records: interfaces, gateways, and subnets.
//!
//! "The Journal data are grouped into records representing interfaces,
//! gateways, and subnets" — Table 1 of the paper gives the interface
//! fields (MAC layer address, network layer address, DNS name, subnet
//! mask, owning gateway); gateways are "collections of interfaces" plus
//! the subnets they connect; subnet records list attached gateways.

use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;
use std::sync::Arc;

use fremont_net::{MacAddr, Subnet, SubnetMask};

use crate::observation::SourceSet;
use crate::time::{JTime, Timestamped};

/// Identifier of an interface record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct InterfaceId(pub u64);

/// Identifier of a gateway record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct GatewayId(pub u64);

/// One network interface, as recorded in the Journal (paper Table 1).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InterfaceRecord {
    /// Record identifier.
    pub id: InterfaceId,
    /// MAC layer address, when discovered.
    pub mac: Option<Timestamped<MacAddr>>,
    /// Network layer (IP) address, when discovered.
    pub ip: Option<Timestamped<Ipv4Addr>>,
    /// DNS name, when discovered. One allocation per stored name,
    /// shared by every copy of the record a read hands out; a rename
    /// replaces the pointer, so an earlier copy keeps the old name.
    pub name: Option<Timestamped<Arc<str>>>,
    /// Subnet mask, when discovered.
    pub mask: Option<Timestamped<SubnetMask>>,
    /// Gateway to which this interface belongs, when known.
    pub gateway: Option<GatewayId>,
    /// `true` when the interface has been seen sourcing RIP packets.
    pub rip_source: bool,
    /// `true` when the RIP source appears promiscuous.
    pub rip_promiscuous: bool,
    /// Every module that has reported on this interface.
    pub sources: SourceSet,
    /// Record-level: time of initial discovery.
    pub discovered: JTime,
    /// Record-level: time of last change to any field.
    pub changed: JTime,
    /// Record-level: time of last verification by any module.
    ///
    /// Verification by the DNS module alone does not prove the interface
    /// still exists on the wire; presentation programs therefore also use
    /// [`InterfaceRecord::last_live_verification`].
    pub verified: JTime,
    /// Time of last verification by a module other than DNS (the paper's
    /// viewer shows "time since last verification of existence (ignoring
    /// time of last DNS verification)").
    pub live_verified: Option<JTime>,
}

impl InterfaceRecord {
    /// Creates an empty record discovered at `now`.
    pub fn new(id: InterfaceId, now: JTime) -> Self {
        InterfaceRecord {
            id,
            mac: None,
            ip: None,
            name: None,
            mask: None,
            gateway: None,
            rip_source: false,
            rip_promiscuous: false,
            sources: SourceSet::EMPTY,
            discovered: now,
            changed: now,
            verified: now,
            live_verified: None,
        }
    }

    /// Current IP address, if any.
    pub fn ip_addr(&self) -> Option<Ipv4Addr> {
        self.ip.as_ref().map(|t| *t.get())
    }

    /// Current MAC address, if any.
    pub fn mac_addr(&self) -> Option<MacAddr> {
        self.mac.as_ref().map(|t| *t.get())
    }

    /// Current DNS name, if any.
    pub fn dns_name(&self) -> Option<&str> {
        self.name.as_ref().map(|t| &**t.get())
    }

    /// Current subnet mask, if any.
    pub fn subnet_mask(&self) -> Option<SubnetMask> {
        self.mask.as_ref().map(|t| *t.get())
    }

    /// The subnet this interface sits on, when both IP and mask are known.
    pub fn subnet(&self) -> Option<Subnet> {
        Some(Subnet::containing(self.ip_addr()?, self.subnet_mask()?))
    }

    /// Seconds since the interface was last verified *on the wire* (by a
    /// non-DNS module); `None` when it has only ever appeared in the DNS.
    pub fn last_live_verification(&self) -> Option<JTime> {
        self.live_verified
    }

    /// Returns `true` when the interface belongs to a known gateway.
    pub fn is_gateway_member(&self) -> bool {
        self.gateway.is_some()
    }
}

/// A gateway: a collection of interfaces plus attached subnets.
///
/// "The Traceroute Explorer Module is able, in some cases, to determine the
/// subnet to which a gateway is attached without being able to determine
/// the address of the interface on that subnet" — hence `subnets` is
/// recorded independently of the interface list.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GatewayRecord {
    /// Record identifier.
    pub id: GatewayId,
    /// Interfaces known to belong to this gateway.
    pub interfaces: Vec<InterfaceId>,
    /// Subnets this gateway connects (union of interface subnets and
    /// link-only knowledge).
    pub subnets: Vec<Subnet>,
    /// Every module that has contributed to this gateway.
    pub sources: SourceSet,
    /// Time of initial discovery.
    pub discovered: JTime,
    /// Time of last change.
    pub changed: JTime,
    /// Time of last verification.
    pub verified: JTime,
}

impl GatewayRecord {
    /// Creates an empty gateway record.
    pub fn new(id: GatewayId, now: JTime) -> Self {
        GatewayRecord {
            id,
            interfaces: Vec::new(),
            subnets: Vec::new(),
            sources: SourceSet::EMPTY,
            discovered: now,
            changed: now,
            verified: now,
        }
    }

    /// Adds a subnet if not already present; returns `true` when added.
    pub fn add_subnet(&mut self, s: Subnet) -> bool {
        if self.subnets.contains(&s) {
            false
        } else {
            self.subnets.push(s);
            true
        }
    }

    /// Adds an interface if not already present; returns `true` when added.
    pub fn add_interface(&mut self, i: InterfaceId) -> bool {
        if self.interfaces.contains(&i) {
            false
        } else {
            self.interfaces.push(i);
            true
        }
    }
}

/// A subnet record.
///
/// "For each discovered subnet, we record a list of gateways attached to
/// that subnet. Note that there are cases where we may have discovered a
/// subnet, but do not yet know what gateways are connected to that subnet."
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SubnetRecord {
    /// The subnet itself.
    pub subnet: Subnet,
    /// `true` while the mask is merely assumed (e.g. classified from RIPv1)
    /// rather than confirmed by a mask reply.
    pub mask_assumed: bool,
    /// Gateways known to attach to this subnet (possibly empty).
    pub gateways: Vec<GatewayId>,
    /// Registered host count (from the DNS module), when known.
    pub host_count: Option<Timestamped<u32>>,
    /// Lowest assigned address (from the DNS module), when known.
    pub lowest: Option<Ipv4Addr>,
    /// Highest assigned address (from the DNS module), when known.
    pub highest: Option<Ipv4Addr>,
    /// Every module that has reported this subnet.
    pub sources: SourceSet,
    /// Time of initial discovery.
    pub discovered: JTime,
    /// Time of last change.
    pub changed: JTime,
    /// Time of last verification.
    pub verified: JTime,
}

impl SubnetRecord {
    /// Creates a bare subnet record.
    pub fn new(subnet: Subnet, mask_assumed: bool, now: JTime) -> Self {
        SubnetRecord {
            subnet,
            mask_assumed,
            gateways: Vec::new(),
            host_count: None,
            lowest: None,
            highest: None,
            sources: SourceSet::EMPTY,
            discovered: now,
            changed: now,
            verified: now,
        }
    }

    /// Adds a gateway if not already present; returns `true` when added.
    pub fn add_gateway(&mut self, g: GatewayId) -> bool {
        if self.gateways.contains(&g) {
            false
        } else {
            self.gateways.push(g);
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::Source;

    fn subnet(s: &str) -> Subnet {
        s.parse().unwrap()
    }

    #[test]
    fn interface_accessors() {
        let mut r = InterfaceRecord::new(InterfaceId(1), JTime(5));
        assert_eq!(r.ip_addr(), None);
        assert_eq!(r.subnet(), None);
        r.ip = Some(Timestamped::new(Ipv4Addr::new(128, 138, 243, 18), JTime(5)));
        assert_eq!(r.subnet(), None, "mask still unknown");
        r.mask = Some(Timestamped::new(
            SubnetMask::from_prefix_len(24).unwrap(),
            JTime(6),
        ));
        assert_eq!(r.subnet(), Some(subnet("128.138.243.0/24")));
        assert!(!r.is_gateway_member());
        r.gateway = Some(GatewayId(3));
        assert!(r.is_gateway_member());
    }

    #[test]
    fn gateway_dedup() {
        let mut g = GatewayRecord::new(GatewayId(1), JTime(0));
        assert!(g.add_subnet(subnet("10.1.0.0/16")));
        assert!(!g.add_subnet(subnet("10.1.0.0/16")));
        assert!(g.add_interface(InterfaceId(7)));
        assert!(!g.add_interface(InterfaceId(7)));
        assert_eq!(g.subnets.len(), 1);
        assert_eq!(g.interfaces.len(), 1);
    }

    #[test]
    fn subnet_record_gateways() {
        let mut s = SubnetRecord::new(subnet("128.138.238.0/24"), false, JTime(0));
        assert!(
            s.gateways.is_empty(),
            "subnet may be known without gateways"
        );
        assert!(s.add_gateway(GatewayId(1)));
        assert!(!s.add_gateway(GatewayId(1)));
    }

    #[test]
    fn records_serde_roundtrip() {
        let mut r = InterfaceRecord::new(InterfaceId(9), JTime(1));
        r.mac = Some(Timestamped::new(
            "08:00:20:01:02:03".parse().unwrap(),
            JTime(1),
        ));
        r.name = Some(Timestamped::new("bruno.cs.colorado.edu".into(), JTime(2)));
        let mut set = SourceSet::EMPTY;
        set.insert(Source::ArpWatch);
        r.sources = set;
        let json = serde_json::to_string(&r).unwrap();
        let back: InterfaceRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }
}
