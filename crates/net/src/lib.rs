//! # fremont-net
//!
//! Protocol substrate for the Fremont network-discovery reproduction:
//! addresses, subnets, and byte-exact wire codecs for every protocol the
//! paper's Explorer Modules use — Ethernet, ARP, IPv4, ICMP (echo, mask,
//! and error messages), UDP, RIPv1, and DNS.
//!
//! Design rules, per the paper's environment and the repo guides:
//!
//! * Decoders are total: any byte buffer produces `Ok` or a typed
//!   [`ParseError`] — never a panic (verified by property tests).
//! * Encoders produce canonical wire bytes, so a decoded-then-re-encoded
//!   packet is byte-identical (checksums included).
//! * All types are plain data, `Send + Sync`, with no interior mutability.
//!
//! # Examples
//!
//! ```
//! use bytes::Bytes;
//! use std::net::Ipv4Addr;
//! use fremont_net::{EtherType, EthernetFrame, IcmpMessage, IpProtocol, Ipv4Packet, MacAddr};
//!
//! // Build the ping an explorer module would send.
//! let echo = IcmpMessage::EchoRequest { ident: 1, seq: 1, payload: vec![0; 8] };
//! let ip = Ipv4Packet::new(
//!     Ipv4Addr::new(128, 138, 243, 10),
//!     Ipv4Addr::new(128, 138, 243, 1),
//!     IpProtocol::Icmp,
//!     Bytes::from(echo.encode()),
//! );
//! let frame = EthernetFrame::new(
//!     MacAddr::BROADCAST,
//!     "08:00:20:01:02:03".parse().unwrap(),
//!     EtherType::Ipv4,
//!     Bytes::from(ip.encode()),
//! );
//! let wire = frame.encode();
//! assert!(EthernetFrame::decode(&wire).is_ok());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arp;
pub mod checksum;
pub mod dns;
pub mod error;
pub mod ethernet;
pub mod fnv;
pub mod icmp;
pub mod ip;
pub mod ipv4;
pub mod mac;
pub mod oui;
pub mod rip;
mod serde_impls;
pub mod subnet;
pub mod udp;

pub use arp::{ArpOp, ArpPacket};
pub use dns::{DnsMessage, DnsName, DnsQuestion, DnsRecord, RData, Rcode, RecordType};
pub use error::{AddrError, ParseError};
pub use ethernet::{EtherType, EthernetFrame};
pub use fnv::{fnv1a_64, Fnv1a};
pub use icmp::{IcmpMessage, UnreachableCode};
pub use ip::{AddrClass, IpRange};
pub use ipv4::{IpProtocol, Ipv4Packet};
pub use mac::MacAddr;
pub use rip::{RipCommand, RipEntry, RipPacket, RouteKind};
pub use subnet::{Subnet, SubnetMask};
pub use udp::UdpDatagram;
