//! The Routing Information Protocol, version 1 (RFC 1058).
//!
//! Fremont's RIPwatch Explorer Module passively monitors RIPv1 broadcast
//! advertisements to learn "a list of hosts, subnets, and networks", and
//! flags *promiscuous* sources that rebroadcast everything they learned.
//! RIPv1 carries no subnet masks; the receiver classifies each advertised
//! address against its own interface mask — [`classify_route`] implements
//! that judgment exactly as the paper describes.

use std::net::Ipv4Addr;

use crate::error::ParseError;
use crate::subnet::Subnet;

/// "Infinity" metric: the route is unreachable.
pub const METRIC_INFINITY: u32 = 16;

/// Maximum number of entries in one RIP packet (RFC 1058).
pub const MAX_ENTRIES: usize = 25;

/// RIP command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RipCommand {
    /// Request for routes (1). An empty request with one default entry of
    /// metric 16 asks for the full table — the "RIP Poll" usage the paper
    /// lists as future work.
    Request,
    /// Response carrying routes (2): the periodic broadcast advertisement.
    Response,
}

impl RipCommand {
    fn value(self) -> u8 {
        match self {
            RipCommand::Request => 1,
            RipCommand::Response => 2,
        }
    }
}

/// One advertised route.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RipEntry {
    /// Advertised destination (network, subnet, or host — RIPv1 does not
    /// say which; see [`classify_route`]).
    pub addr: Ipv4Addr,
    /// Hop-count metric, 16 = unreachable.
    pub metric: u32,
}

/// A RIPv1 packet.
///
/// # Examples
///
/// ```
/// use std::net::Ipv4Addr;
/// use fremont_net::{RipCommand, RipEntry, RipPacket};
///
/// let adv = RipPacket::response(vec![RipEntry {
///     addr: Ipv4Addr::new(128, 138, 238, 0),
///     metric: 2,
/// }]);
/// let back = RipPacket::decode(&adv.encode()).unwrap();
/// assert_eq!(back.entries.len(), 1);
/// assert_eq!(back.command, RipCommand::Response);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RipPacket {
    /// Command (request/response).
    pub command: RipCommand,
    /// Advertised routes (up to [`MAX_ENTRIES`]).
    pub entries: Vec<RipEntry>,
}

impl RipPacket {
    /// Builds a response (advertisement).
    pub fn response(entries: Vec<RipEntry>) -> Self {
        RipPacket {
            command: RipCommand::Response,
            entries,
        }
    }

    /// Builds the whole-table request ("RIP Poll"): a single entry with
    /// address family 0 and metric 16.
    pub fn poll_request() -> Self {
        RipPacket {
            command: RipCommand::Request,
            entries: vec![RipEntry {
                addr: Ipv4Addr::UNSPECIFIED,
                metric: METRIC_INFINITY,
            }],
        }
    }

    /// Encodes the packet to RIPv1 wire form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + self.entries.len() * 20);
        out.push(self.command.value());
        out.push(1); // version 1
        out.extend_from_slice(&[0, 0]); // must be zero
        for e in &self.entries {
            // Address family: 2 (IP), or 0 for the whole-table request.
            let af: u16 = if e.addr.is_unspecified() && e.metric == METRIC_INFINITY {
                0
            } else {
                2
            };
            out.extend_from_slice(&af.to_be_bytes());
            out.extend_from_slice(&[0, 0]); // must be zero
            out.extend_from_slice(&e.addr.octets());
            out.extend_from_slice(&[0u8; 8]); // must be zero (v1)
            out.extend_from_slice(&e.metric.to_be_bytes());
        }
        out
    }

    /// Decodes from wire form.
    pub fn decode(buf: &[u8]) -> Result<Self, ParseError> {
        if buf.len() < 4 {
            return Err(ParseError::Truncated {
                layer: "rip",
                needed: 4,
                available: buf.len(),
            });
        }
        let command = match buf[0] {
            1 => RipCommand::Request,
            2 => RipCommand::Response,
            other => {
                return Err(ParseError::BadField {
                    layer: "rip",
                    field: "command",
                    value: u64::from(other),
                })
            }
        };
        if buf[1] != 1 {
            return Err(ParseError::BadVersion {
                layer: "rip",
                found: buf[1],
            });
        }
        let body = &buf[4..];
        if !body.len().is_multiple_of(20) {
            return Err(ParseError::BadField {
                layer: "rip",
                field: "entry_block_len",
                value: body.len() as u64,
            });
        }
        let mut entries = Vec::with_capacity(body.len() / 20);
        for chunk in body.chunks_exact(20) {
            let af = u16::from_be_bytes([chunk[0], chunk[1]]);
            if af != 2 && af != 0 {
                return Err(ParseError::BadField {
                    layer: "rip",
                    field: "address_family",
                    value: u64::from(af),
                });
            }
            entries.push(RipEntry {
                addr: Ipv4Addr::new(chunk[4], chunk[5], chunk[6], chunk[7]),
                metric: u32::from_be_bytes([chunk[16], chunk[17], chunk[18], chunk[19]]),
            });
        }
        if entries.len() > MAX_ENTRIES {
            return Err(ParseError::BadField {
                layer: "rip",
                field: "entry_count",
                value: entries.len() as u64,
            });
        }
        Ok(RipPacket { command, entries })
    }
}

/// What a RIPv1 advertised address denotes, as judged by a receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RouteKind {
    /// A whole classful network (host part all zero, not in our network).
    Network(Subnet),
    /// A subnet of the receiver's own network (subnet bits set, host bits
    /// zero under the receiver's mask).
    SubnetRoute(Subnet),
    /// A single host (host bits set).
    Host(Ipv4Addr),
    /// The default route 0.0.0.0.
    Default,
}

/// Classifies an advertised RIPv1 address the way a receiving host does.
///
/// "No subnet mask information is contained in these packets, so routes to
/// networks, subnets, or hosts are determined by comparing the subnet mask
/// of the receiving host to the address being advertised."
///
/// `receiver_subnet` is the subnet of the interface the advertisement
/// arrived on; its mask is assumed for addresses inside the same classful
/// network.
pub fn classify_route(addr: Ipv4Addr, receiver_subnet: Subnet) -> RouteKind {
    if addr.is_unspecified() {
        return RouteKind::Default;
    }
    let natural = match Subnet::natural_network(addr) {
        Some(n) => n,
        // Class D/E: treat as host route; real RIP listeners ignored these.
        None => return RouteKind::Host(addr),
    };
    let receiver_natural = Subnet::natural_network(receiver_subnet.network());
    if Some(natural) == receiver_natural {
        // Inside our classful network: apply our subnet mask.
        let mask = receiver_subnet.mask();
        let sub = Subnet::containing(addr, mask);
        if sub.network() == addr {
            RouteKind::SubnetRoute(sub)
        } else {
            RouteKind::Host(addr)
        }
    } else {
        // Outside: only the natural mask is available.
        if natural.network() == addr {
            RouteKind::Network(natural)
        } else {
            RouteKind::Host(addr)
        }
    }
}

/// Splits a route list into maximally-filled RIP response packets.
pub fn split_into_packets(entries: &[RipEntry]) -> Vec<RipPacket> {
    entries
        .chunks(MAX_ENTRIES)
        .map(|c| RipPacket::response(c.to_vec()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn subnet(s: &str) -> Subnet {
        s.parse().unwrap()
    }

    #[test]
    fn encode_decode_roundtrip() {
        let pkt = RipPacket::response(vec![
            RipEntry {
                addr: Ipv4Addr::new(128, 138, 238, 0),
                metric: 1,
            },
            RipEntry {
                addr: Ipv4Addr::new(192, 52, 106, 0),
                metric: 5,
            },
        ]);
        let bytes = pkt.encode();
        assert_eq!(bytes.len(), 4 + 2 * 20);
        assert_eq!(RipPacket::decode(&bytes).unwrap(), pkt);
    }

    #[test]
    fn poll_request_roundtrip() {
        let pkt = RipPacket::poll_request();
        let back = RipPacket::decode(&pkt.encode()).unwrap();
        assert_eq!(back.command, RipCommand::Request);
        assert_eq!(back.entries[0].metric, METRIC_INFINITY);
        assert!(back.entries[0].addr.is_unspecified());
    }

    #[test]
    fn decode_rejects_version_2() {
        let mut bytes = RipPacket::response(vec![]).encode();
        bytes[1] = 2;
        assert!(matches!(
            RipPacket::decode(&bytes),
            Err(ParseError::BadVersion { found: 2, .. })
        ));
    }

    #[test]
    fn decode_rejects_ragged_entries() {
        let mut bytes = RipPacket::response(vec![RipEntry {
            addr: Ipv4Addr::new(10, 0, 0, 0),
            metric: 1,
        }])
        .encode();
        bytes.pop();
        assert!(RipPacket::decode(&bytes).is_err());
    }

    #[test]
    fn classify_subnet_route_inside_own_network() {
        // Receiver sits on 128.138.243.0/24; 128.138.238.0 is a sibling subnet.
        let recv = subnet("128.138.243.0/24");
        let kind = classify_route(Ipv4Addr::new(128, 138, 238, 0), recv);
        assert_eq!(kind, RouteKind::SubnetRoute(subnet("128.138.238.0/24")));
    }

    #[test]
    fn classify_host_route_inside_own_network() {
        let recv = subnet("128.138.243.0/24");
        let kind = classify_route(Ipv4Addr::new(128, 138, 238, 9), recv);
        assert_eq!(kind, RouteKind::Host(Ipv4Addr::new(128, 138, 238, 9)));
    }

    #[test]
    fn classify_external_network() {
        let recv = subnet("128.138.243.0/24");
        let kind = classify_route(Ipv4Addr::new(192, 52, 106, 0), recv);
        assert_eq!(kind, RouteKind::Network(subnet("192.52.106.0/24")));
        let kind = classify_route(Ipv4Addr::new(10, 0, 0, 0), recv);
        assert_eq!(kind, RouteKind::Network(subnet("10.0.0.0/8")));
    }

    #[test]
    fn classify_external_host() {
        let recv = subnet("128.138.243.0/24");
        let kind = classify_route(Ipv4Addr::new(192, 52, 106, 4), recv);
        assert_eq!(kind, RouteKind::Host(Ipv4Addr::new(192, 52, 106, 4)));
    }

    #[test]
    fn classify_default_route() {
        let recv = subnet("128.138.243.0/24");
        assert_eq!(
            classify_route(Ipv4Addr::UNSPECIFIED, recv),
            RouteKind::Default
        );
    }

    #[test]
    fn split_respects_max_entries() {
        let entries: Vec<RipEntry> = (0..60u32)
            .map(|i| RipEntry {
                addr: Ipv4Addr::new(10, (i >> 8) as u8, i as u8, 0),
                metric: 1,
            })
            .collect();
        let pkts = split_into_packets(&entries);
        assert_eq!(pkts.len(), 3);
        assert_eq!(pkts[0].entries.len(), 25);
        assert_eq!(pkts[2].entries.len(), 10);
        // Each packet must decode.
        for p in &pkts {
            assert!(RipPacket::decode(&p.encode()).is_ok());
        }
    }

    #[test]
    fn class_helper_consistency() {
        // Guard against accidental misuse: a class B address's natural net.
        assert_eq!(
            crate::ip::addr_class(Ipv4Addr::new(128, 138, 0, 0)),
            crate::ip::AddrClass::B
        );
    }
}
