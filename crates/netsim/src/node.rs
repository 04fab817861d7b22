//! Simulated nodes: hosts and routers, with configurable (mis)behaviors.
//!
//! Every discovery result and every problem in the paper's Tables 5–8
//! traces back to some node behavior modeled here: hosts that don't answer
//! mask requests, routers with broken traceroute handling, hosts with
//! duplicate addresses or wrong masks, promiscuous RIP rebroadcasters.

use std::net::Ipv4Addr;

use fremont_net::{Ipv4Packet, MacAddr, Subnet, SubnetMask};

use crate::arp::ArpCache;
use crate::dns_server::DnsServerState;
use crate::routing::RoutingTable;
use crate::segment::SegmentId;

/// A network interface on a node.
#[derive(Debug, Clone)]
pub struct Iface {
    /// MAC address.
    pub mac: MacAddr,
    /// Configured IP address.
    pub ip: Ipv4Addr,
    /// Configured subnet mask. A *misconfigured* host's mask may differ
    /// from the subnet's true mask — the "Inconsistent Network Masks"
    /// problem of Table 8.
    pub mask: SubnetMask,
    /// The segment this interface attaches to.
    pub segment: SegmentId,
}

impl Iface {
    /// The subnet implied by this interface's configuration.
    pub fn subnet(&self) -> Subnet {
        Subnet::containing(self.ip, self.mask)
    }
}

/// How a router mishandles traceroute probes (paper: "Not all routers
/// perform correctly").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TracerouteBug {
    /// Correct behavior.
    #[default]
    None,
    /// Drops expiring packets without sending Time Exceeded at all.
    SilentDrop,
}

/// RIP speaker configuration. A speaker advertises every 30 seconds
/// (RFC 1058); a normal one applies split horizon.
#[derive(Debug, Clone, Default)]
pub struct RipConfig {
    /// `true` for the misconfigured hosts that "promiscuously rebroadcast
    /// all learned routing information without regard to the subnet from
    /// which that information was learned" — no split horizon.
    pub promiscuous: bool,
}

/// Per-node protocol behavior knobs, all defaulting to the common correct
/// 1993 configuration. Every node also runs the UDP echo service on
/// port 7 and sends ICMP Port Unreachable for unicast UDP to a closed
/// port.
#[derive(Debug, Clone)]
pub struct Behavior {
    /// Replies to ICMP echo requests, broadcast ones included.
    pub echo_reply: bool,
    /// Replies to ICMP mask requests ("not as widely implemented as the
    /// echo request/reply ... some implementations allow the interface to
    /// be configured not to respond").
    pub mask_reply: bool,
    /// Treats a packet addressed to host-zero of the local subnet as its
    /// own (4.2BSD-compatible; what the traceroute `.0` trick relies on).
    pub accept_host_zero: bool,
    /// Routers only: forwards directed-broadcast packets onto the target
    /// segment ("many gateways are configured not to broadcast packets
    /// that have a directed broadcast address as the destination").
    pub forward_directed_broadcast: bool,
    /// Routers only: traceroute misbehavior.
    pub traceroute_bug: TracerouteBug,
    /// Routers only: silently drops transit UDP probes to the traceroute
    /// port range instead of forwarding them (the "gateway software
    /// problems" that cost the paper's Traceroute module 23% of the
    /// campus subnets in Table 6).
    pub filter_udp_probes: bool,
    /// RIP speaker settings (routers advertise; a misconfigured host may
    /// too).
    pub rip: Option<RipConfig>,
}

impl Default for Behavior {
    fn default() -> Self {
        Behavior {
            echo_reply: true,
            mask_reply: true,
            accept_host_zero: true,
            forward_directed_broadcast: false,
            traceroute_bug: TracerouteBug::None,
            filter_udp_probes: false,
            rip: None,
        }
    }
}

/// Host or router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// An end host: never forwards packets.
    Host,
    /// A gateway: forwards packets, decrements TTL, emits ICMP errors.
    Router,
}

/// A simulated node.
pub struct Node {
    /// Display name (also its DNS leaf label when registered).
    pub name: String,
    /// Host or router.
    pub kind: NodeKind,
    /// Interfaces (a router has one per attached subnet).
    pub ifaces: Vec<Iface>,
    /// Whether the node is powered on and connected.
    pub up: bool,
    /// The kernel ARP cache.
    pub arp: ArpCache,
    /// Routing table (hosts: connected + default; routers: full).
    pub routes: RoutingTable,
    /// Behavior knobs.
    pub behavior: Behavior,
    /// Authoritative DNS server state, when this node runs named.
    pub dns: Option<DnsServerState>,
    /// Routes learned from RIP, in arrival order. Only a promiscuous
    /// rebroadcaster (`behavior.rip` set and `promiscuous`) keeps this
    /// list — it is what such a host re-advertises; every other node
    /// ignores the responses it hears and leaves it empty.
    pub rip_learned: Vec<(Ipv4Addr, u32)>,
    /// Mutation counter for `rip_learned`, bumped whenever the list
    /// changes or is cleared. The promiscuous advertisement template
    /// cache keys on it, mirroring how the static path keys on
    /// [`RoutingTable::version`].
    pub(crate) rip_version: u64,
    /// Each interface's cached periodic advertisement, by interface
    /// index; filled by its first RIP tick.
    pub(crate) rip_adverts: Vec<Option<crate::rip::RipAdvertTemplate>>,
    /// Signed time-of-day clock offset in microseconds (a
    /// [`crate::faults::FaultKind::ClockSkew`] fault). Kernel interval
    /// timers still fire on true simulated time; only what the node
    /// *reads as the current time* — and therefore every timestamp it
    /// attaches to emitted observations — is shifted.
    pub clock_skew: i64,
    /// Packets queued awaiting ARP resolution: `(next_hop, iface, packet,
    /// queued-at)`.
    pub(crate) arp_pending: Vec<(Ipv4Addr, usize, Ipv4Packet, crate::time::SimTime)>,
    /// Processes running on this node (explorer modules).
    pub(crate) procs: Vec<Option<Box<dyn crate::process::Process>>>,
}

impl Node {
    /// Creates a node with the given interfaces.
    pub fn new(name: &str, kind: NodeKind, ifaces: Vec<Iface>) -> Self {
        Node {
            name: name.to_owned(),
            kind,
            ifaces,
            up: true,
            arp: ArpCache::default(),
            routes: RoutingTable::new(),
            behavior: Behavior::default(),
            dns: None,
            rip_learned: Vec::new(),
            rip_version: 0,
            rip_adverts: Vec::new(),
            clock_skew: 0,
            arp_pending: Vec::new(),
            procs: Vec::new(),
        }
    }

    /// Finds the interface index carrying `ip`.
    pub fn iface_with_ip(&self, ip: Ipv4Addr) -> Option<usize> {
        self.ifaces.iter().position(|i| i.ip == ip)
    }

    /// Finds the interface index attached to `segment`.
    pub fn iface_on_segment(&self, segment: SegmentId) -> Option<usize> {
        self.ifaces.iter().position(|i| i.segment == segment)
    }

    /// Returns `true` when `dst` should be delivered locally on `iface`.
    ///
    /// Local delivery covers: any of our interface addresses, the limited
    /// broadcast, the receiving interface's directed broadcast (per its
    /// *configured* mask), and — when `accept_host_zero` — the receiving
    /// subnet's host-zero address.
    pub fn is_local_dst(&self, dst: Ipv4Addr, iface: usize) -> bool {
        if self.ifaces.iter().any(|i| i.ip == dst) {
            return true;
        }
        if dst == Ipv4Addr::BROADCAST {
            return true;
        }
        let sub = self.ifaces[iface].subnet();
        if dst == sub.directed_broadcast() {
            return true;
        }
        // Host-zero acceptance: a packet addressed to host zero of any
        // *connected* subnet is treated as addressed to this node (the
        // 4.2BSD behavior the traceroute `.0` trick exploits; for routers
        // this covers all attached subnets).
        if self.behavior.accept_host_zero
            && self.ifaces.iter().any(|i| dst == i.subnet().host_zero())
        {
            return true;
        }
        false
    }

    /// Returns `true` when `dst` is a broadcast from this node's viewpoint
    /// on `iface` (governs whether echo replies use the broadcast policy).
    pub fn dst_is_broadcast(&self, dst: Ipv4Addr, iface: usize) -> bool {
        dst == Ipv4Addr::BROADCAST || dst == self.ifaces[iface].subnet().directed_broadcast()
    }
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("name", &self.name)
            .field("kind", &self.kind)
            .field("up", &self.up)
            .field("ifaces", &self.ifaces)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_node() -> Node {
        Node::new(
            "bruno",
            NodeKind::Host,
            vec![Iface {
                mac: MacAddr::new([8, 0, 0x20, 0, 0, 1]),
                ip: Ipv4Addr::new(128, 138, 243, 18),
                mask: SubnetMask::from_prefix_len(24).unwrap(),
                segment: SegmentId(0),
            }],
        )
    }

    #[test]
    fn iface_subnet() {
        let n = test_node();
        assert_eq!(n.ifaces[0].subnet(), "128.138.243.0/24".parse().unwrap());
    }

    #[test]
    fn local_destinations() {
        let n = test_node();
        assert!(n.is_local_dst(Ipv4Addr::new(128, 138, 243, 18), 0));
        assert!(n.is_local_dst(Ipv4Addr::BROADCAST, 0));
        assert!(n.is_local_dst(Ipv4Addr::new(128, 138, 243, 255), 0));
        assert!(
            n.is_local_dst(Ipv4Addr::new(128, 138, 243, 0), 0),
            "host zero"
        );
        assert!(!n.is_local_dst(Ipv4Addr::new(128, 138, 243, 19), 0));
        assert!(!n.is_local_dst(Ipv4Addr::new(128, 138, 244, 255), 0));
    }

    #[test]
    fn host_zero_can_be_disabled() {
        let mut n = test_node();
        n.behavior.accept_host_zero = false;
        assert!(!n.is_local_dst(Ipv4Addr::new(128, 138, 243, 0), 0));
    }

    #[test]
    fn broadcast_classification() {
        let n = test_node();
        assert!(n.dst_is_broadcast(Ipv4Addr::BROADCAST, 0));
        assert!(n.dst_is_broadcast(Ipv4Addr::new(128, 138, 243, 255), 0));
        assert!(!n.dst_is_broadcast(Ipv4Addr::new(128, 138, 243, 18), 0));
    }

    #[test]
    fn misconfigured_mask_changes_broadcast_view() {
        let mut n = test_node();
        // Host wrongly thinks it is on a /16: it will treat the /24
        // broadcast as a normal (non-local) address.
        n.ifaces[0].mask = SubnetMask::from_prefix_len(16).unwrap();
        assert!(!n.dst_is_broadcast(Ipv4Addr::new(128, 138, 243, 255), 0));
        assert!(n.dst_is_broadcast(Ipv4Addr::new(128, 138, 255, 255), 0));
    }

    #[test]
    fn iface_lookups() {
        let n = test_node();
        assert_eq!(n.iface_with_ip(Ipv4Addr::new(128, 138, 243, 18)), Some(0));
        assert_eq!(n.iface_with_ip(Ipv4Addr::new(1, 1, 1, 1)), None);
        assert_eq!(n.iface_on_segment(SegmentId(0)), Some(0));
        assert_eq!(n.iface_on_segment(SegmentId(9)), None);
    }
}
