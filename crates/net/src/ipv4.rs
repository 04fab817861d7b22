//! IPv4 packet encoding and decoding (RFC 791).
//!
//! The simulated routers forward these packets, decrement the TTL, and
//! generate ICMP errors exactly as the paper's campus routers did — the
//! Time-To-Live mechanics are what Fremont's Traceroute Explorer Module
//! exploits to map topology.

use bytes::Bytes;
use std::net::Ipv4Addr;

use crate::checksum::{internet_checksum, verify};
use crate::error::ParseError;

/// Length of an IPv4 header without options.
pub const HEADER_LEN: usize = 20;

/// Default Time-To-Live used by well-behaved hosts.
pub const DEFAULT_TTL: u8 = 64;

/// IP protocol numbers used by Fremont's explorer traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IpProtocol {
    /// ICMP (1).
    Icmp,
    /// TCP (6). The simulator uses it for DNS zone transfers.
    Tcp,
    /// UDP (17).
    Udp,
    /// Anything else, preserved verbatim. `Other(1 | 6 | 17)` is not
    /// canonical: it encodes as ICMP, TCP or UDP but decodes as the named
    /// variant, and a simulated receiver is handed the packet as built,
    /// not as decoded, so it would see the `Other` form.
    Other(u8),
}

impl IpProtocol {
    /// The 8-bit wire value.
    pub fn value(self) -> u8 {
        match self {
            IpProtocol::Icmp => 1,
            IpProtocol::Tcp => 6,
            IpProtocol::Udp => 17,
            IpProtocol::Other(v) => v,
        }
    }

    /// Builds from an 8-bit wire value.
    pub fn from_value(v: u8) -> Self {
        match v {
            1 => IpProtocol::Icmp,
            6 => IpProtocol::Tcp,
            17 => IpProtocol::Udp,
            other => IpProtocol::Other(other),
        }
    }
}

/// An IPv4 packet (header without options, plus payload).
///
/// # Examples
///
/// ```
/// use bytes::Bytes;
/// use std::net::Ipv4Addr;
/// use fremont_net::{IpProtocol, Ipv4Packet};
///
/// let pkt = Ipv4Packet::new(
///     Ipv4Addr::new(10, 0, 0, 1),
///     Ipv4Addr::new(10, 0, 1, 1),
///     IpProtocol::Udp,
///     Bytes::from_static(b"hello"),
/// );
/// let bytes = pkt.encode();
/// let back = Ipv4Packet::decode(&bytes).unwrap();
/// assert_eq!(back.dst, pkt.dst);
/// assert_eq!(&back.payload[..], b"hello");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ipv4Packet {
    /// Type-of-service byte (0 for all Fremont traffic).
    pub tos: u8,
    /// Identification field (used to correlate traceroute probes).
    pub identification: u16,
    /// Time to live.
    pub ttl: u8,
    /// Payload protocol.
    pub protocol: IpProtocol,
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Payload bytes.
    pub payload: Bytes,
}

impl Ipv4Packet {
    /// Creates a packet with the default TTL and zero id/tos.
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr, protocol: IpProtocol, payload: Bytes) -> Self {
        Ipv4Packet {
            tos: 0,
            identification: 0,
            ttl: DEFAULT_TTL,
            protocol,
            src,
            dst,
            payload,
        }
    }

    /// Sets the TTL (builder style).
    pub fn with_ttl(mut self, ttl: u8) -> Self {
        self.ttl = ttl;
        self
    }

    /// Sets the identification field (builder style).
    pub fn with_id(mut self, id: u16) -> Self {
        self.identification = id;
        self
    }

    /// Encodes header + payload, computing the header checksum.
    ///
    /// # Panics
    ///
    /// Panics if header + payload exceeds the 65,535-byte IPv4 total-length
    /// limit — silently wrapping the length field would corrupt the packet.
    pub fn encode(&self) -> Vec<u8> {
        let total_len = HEADER_LEN + self.payload.len();
        assert!(
            total_len <= u16::MAX as usize,
            "IPv4 packet of {total_len} bytes exceeds the 65535-byte limit"
        );
        let mut out = Vec::with_capacity(total_len);
        out.push(0x45); // version 4, IHL 5
        out.push(self.tos);
        out.extend_from_slice(&(total_len as u16).to_be_bytes());
        out.extend_from_slice(&self.identification.to_be_bytes());
        out.extend_from_slice(&[0, 0]); // flags + fragment offset: never fragment
        out.push(self.ttl);
        out.push(self.protocol.value());
        out.extend_from_slice(&[0, 0]); // checksum placeholder
        out.extend_from_slice(&self.src.octets());
        out.extend_from_slice(&self.dst.octets());
        let ck = internet_checksum(&out[..HEADER_LEN]);
        out[10..12].copy_from_slice(&ck.to_be_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Decodes a packet, verifying version, header length, header checksum,
    /// and total length.
    ///
    /// Trailing bytes beyond the header's total-length field (Ethernet
    /// padding) are discarded, as a real IP input routine does.
    pub fn decode(buf: &[u8]) -> Result<Self, ParseError> {
        if buf.len() < HEADER_LEN {
            return Err(ParseError::Truncated {
                layer: "ipv4",
                needed: HEADER_LEN,
                available: buf.len(),
            });
        }
        let version = buf[0] >> 4;
        if version != 4 {
            return Err(ParseError::BadVersion {
                layer: "ipv4",
                found: version,
            });
        }
        let ihl = usize::from(buf[0] & 0x0f) * 4;
        if ihl < HEADER_LEN {
            return Err(ParseError::BadField {
                layer: "ipv4",
                field: "ihl",
                value: ihl as u64,
            });
        }
        if buf.len() < ihl {
            return Err(ParseError::Truncated {
                layer: "ipv4",
                needed: ihl,
                available: buf.len(),
            });
        }
        if !verify(&buf[..ihl]) {
            let carried = u16::from_be_bytes([buf[10], buf[11]]);
            let mut scratch = buf[..ihl].to_vec();
            scratch[10] = 0;
            scratch[11] = 0;
            return Err(ParseError::BadChecksum {
                layer: "ipv4",
                expected: carried,
                computed: internet_checksum(&scratch),
            });
        }
        let total_len = usize::from(u16::from_be_bytes([buf[2], buf[3]]));
        if total_len < ihl || total_len > buf.len() {
            return Err(ParseError::BadField {
                layer: "ipv4",
                field: "total_length",
                value: total_len as u64,
            });
        }
        Ok(Ipv4Packet {
            tos: buf[1],
            identification: u16::from_be_bytes([buf[4], buf[5]]),
            ttl: buf[8],
            protocol: IpProtocol::from_value(buf[9]),
            src: Ipv4Addr::new(buf[12], buf[13], buf[14], buf[15]),
            dst: Ipv4Addr::new(buf[16], buf[17], buf[18], buf[19]),
            payload: Bytes::copy_from_slice(&buf[ihl..total_len]),
        })
    }

    /// Returns the encoded header plus the first eight payload bytes — the
    /// portion of an offending datagram that ICMP error messages embed, and
    /// that traceroute implementations match probes against.
    pub fn error_snippet(&self) -> Vec<u8> {
        let encoded = self.encode();
        let keep = encoded.len().min(HEADER_LEN + 8);
        encoded[..keep].to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ipv4Packet {
        Ipv4Packet::new(
            Ipv4Addr::new(128, 138, 243, 10),
            Ipv4Addr::new(128, 138, 238, 1),
            IpProtocol::Udp,
            Bytes::from_static(b"0123456789abcdef"),
        )
        .with_ttl(3)
        .with_id(0x4242)
    }

    #[test]
    fn roundtrip() {
        let pkt = sample();
        let back = Ipv4Packet::decode(&pkt.encode()).unwrap();
        assert_eq!(back, pkt);
    }

    #[test]
    fn decode_strips_ethernet_padding() {
        let pkt = Ipv4Packet::new(
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
            IpProtocol::Icmp,
            Bytes::from_static(b"hi"),
        );
        let mut bytes = pkt.encode();
        bytes.resize(46, 0xcc); // Simulate minimum-frame padding.
        let back = Ipv4Packet::decode(&bytes).unwrap();
        assert_eq!(&back.payload[..], b"hi");
    }

    #[test]
    fn decode_detects_corrupted_header() {
        let mut bytes = sample().encode();
        bytes[8] = bytes[8].wrapping_add(1); // Flip TTL without fixing checksum.
        assert!(matches!(
            Ipv4Packet::decode(&bytes),
            Err(ParseError::BadChecksum { layer: "ipv4", .. })
        ));
    }

    #[test]
    fn decode_rejects_wrong_version() {
        let mut bytes = sample().encode();
        bytes[0] = 0x65;
        assert!(matches!(
            Ipv4Packet::decode(&bytes),
            Err(ParseError::BadVersion { found: 6, .. })
        ));
    }

    #[test]
    fn decode_rejects_short_buffer() {
        assert!(Ipv4Packet::decode(&[0x45; 10]).is_err());
    }

    #[test]
    fn decode_rejects_lying_total_length() {
        let mut bytes = sample().encode();
        // Claim more bytes than present; fix checksum so only length trips.
        let bogus = (bytes.len() + 100) as u16;
        bytes[2..4].copy_from_slice(&bogus.to_be_bytes());
        bytes[10] = 0;
        bytes[11] = 0;
        let ck = internet_checksum(&bytes[..HEADER_LEN]);
        bytes[10..12].copy_from_slice(&ck.to_be_bytes());
        assert!(matches!(
            Ipv4Packet::decode(&bytes),
            Err(ParseError::BadField {
                field: "total_length",
                ..
            })
        ));
    }

    #[test]
    fn error_snippet_is_header_plus_8() {
        let pkt = sample();
        let snip = pkt.error_snippet();
        assert_eq!(snip.len(), HEADER_LEN + 8);
        assert_eq!(&snip[HEADER_LEN..], b"01234567");
    }

    #[test]
    fn error_snippet_short_payload() {
        let pkt = Ipv4Packet::new(
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
            IpProtocol::Udp,
            Bytes::from_static(b"abc"),
        );
        assert_eq!(pkt.error_snippet().len(), HEADER_LEN + 3);
    }

    #[test]
    fn protocol_values() {
        assert_eq!(IpProtocol::Icmp.value(), 1);
        assert_eq!(IpProtocol::Udp.value(), 17);
        assert_eq!(IpProtocol::from_value(6), IpProtocol::Tcp);
        assert_eq!(IpProtocol::from_value(89), IpProtocol::Other(89));
    }
}
