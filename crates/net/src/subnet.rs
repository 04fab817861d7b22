//! Subnets and subnet masks.
//!
//! Subnet structure is central to Fremont: the Subnet Masks Explorer Module
//! collects per-interface masks, the Traceroute module probes the `.0`, `.1`
//! and `.2` addresses of target subnets, and the Broadcast Ping module sends
//! to the subnet's directed broadcast address. Analysis programs flag
//! *inconsistent network masks* across the interfaces of one subnet.

use core::fmt;
use core::str::FromStr;
use std::net::Ipv4Addr;

use crate::error::AddrError;
use crate::ip::{addr_class, from_u32, to_u32, AddrClass, IpRange};

/// A contiguous IPv4 subnet mask.
///
/// Only masks whose binary representation is a run of ones followed by a run
/// of zeros are representable; construction validates this, so a
/// `SubnetMask` value is always well-formed.
///
/// # Examples
///
/// ```
/// use fremont_net::SubnetMask;
///
/// let m: SubnetMask = "255.255.255.0".parse().unwrap();
/// assert_eq!(m.prefix_len(), 24);
/// assert_eq!(m.to_string(), "255.255.255.0");
/// assert!("255.0.255.0".parse::<SubnetMask>().is_err());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SubnetMask(u32);

impl SubnetMask {
    /// The classful class-C mask, `255.255.255.0` — Fremont's fallback
    /// when no mask observation has arrived yet.
    pub const CLASS_C: SubnetMask = SubnetMask(0xFFFF_FF00);

    /// Creates a mask from a prefix length (`0..=32`).
    pub fn from_prefix_len(len: u8) -> Result<Self, AddrError> {
        if len > 32 {
            return Err(AddrError::BadPrefixLen(len));
        }
        Ok(SubnetMask(prefix_bits(len)))
    }

    /// Creates a mask from a raw 32-bit value, validating contiguity.
    pub fn from_bits(bits: u32) -> Result<Self, AddrError> {
        let len = bits.leading_ones();
        if bits == prefix_bits(len as u8) {
            Ok(SubnetMask(bits))
        } else {
            Err(AddrError::NonContiguousMask(bits))
        }
    }

    /// Creates a mask from dotted-quad form.
    pub fn from_addr(addr: Ipv4Addr) -> Result<Self, AddrError> {
        Self::from_bits(to_u32(addr))
    }

    /// The natural (classful) mask for an address, if it has one.
    ///
    /// Class D/E addresses have no natural mask.
    pub fn natural_for(addr: Ipv4Addr) -> Option<Self> {
        addr_class(addr)
            .natural_prefix_len()
            .map(|len| SubnetMask(prefix_bits(len)))
    }

    /// The raw mask bits in host order.
    pub fn bits(&self) -> u32 {
        self.0
    }

    /// The prefix length (number of one bits).
    pub fn prefix_len(&self) -> u8 {
        self.0.leading_ones() as u8
    }

    /// The mask as a dotted-quad address.
    pub fn as_addr(&self) -> Ipv4Addr {
        from_u32(self.0)
    }

    /// Number of host addresses under this mask (including the host-zero and
    /// broadcast addresses).
    pub fn address_count(&self) -> u64 {
        1u64 << (32 - self.prefix_len())
    }
}

/// Appends `n` in decimal to `buf[..len]`; the new length.
fn push_decimal(buf: &mut [u8], mut len: usize, n: u8) -> usize {
    if n >= 100 {
        buf[len] = b'0' + n / 100;
        len += 1;
    }
    if n >= 10 {
        buf[len] = b'0' + n / 10 % 10;
        len += 1;
    }
    buf[len] = b'0' + n % 10;
    len + 1
}

/// Appends `bits` as a dotted quad to `buf[..len]`; the new length.
fn push_dotted(buf: &mut [u8], mut len: usize, bits: u32) -> usize {
    for (i, octet) in bits.to_be_bytes().into_iter().enumerate() {
        if i > 0 {
            buf[len] = b'.';
            len += 1;
        }
        len = push_decimal(buf, len, octet);
    }
    len
}

/// `buf` as text for a `Display` impl: the buffers hold only ASCII
/// digits and separators, so this never fails.
pub(crate) fn ascii(buf: &[u8]) -> Result<&str, fmt::Error> {
    core::str::from_utf8(buf).map_err(|_| fmt::Error)
}

impl fmt::Display for SubnetMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut buf = [0u8; 15];
        let len = push_dotted(&mut buf, 0, self.0);
        f.pad(ascii(&buf[..len])?)
    }
}

impl fmt::Debug for SubnetMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SubnetMask(/{})", self.prefix_len())
    }
}

impl FromStr for SubnetMask {
    type Err = AddrError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Some(rest) = s.strip_prefix('/') {
            let len: u8 = rest
                .parse()
                .map_err(|_| AddrError::BadSyntax(s.to_owned()))?;
            return Self::from_prefix_len(len);
        }
        let addr: Ipv4Addr = s.parse().map_err(|_| AddrError::BadSyntax(s.to_owned()))?;
        Self::from_addr(addr)
    }
}

fn prefix_bits(len: u8) -> u32 {
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - u32::from(len))
    }
}

/// An IPv4 subnet: a network address plus a mask.
///
/// The network address is normalized (host bits cleared) on construction.
///
/// # Examples
///
/// ```
/// use std::net::Ipv4Addr;
/// use fremont_net::Subnet;
///
/// let s: Subnet = "128.138.238.0/24".parse().unwrap();
/// assert!(s.contains(Ipv4Addr::new(128, 138, 238, 18)));
/// assert_eq!(s.directed_broadcast(), Ipv4Addr::new(128, 138, 238, 255));
/// assert_eq!(s.host_zero(), Ipv4Addr::new(128, 138, 238, 0));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Subnet {
    network: u32,
    mask: SubnetMask,
}

impl Subnet {
    /// Creates the subnet containing `addr` under `mask` (host bits of
    /// `addr` are ignored).
    pub fn containing(addr: Ipv4Addr, mask: SubnetMask) -> Self {
        Subnet {
            network: to_u32(addr) & mask.bits(),
            mask,
        }
    }

    /// Creates a subnet from an exact network address; errors when `addr`
    /// has host bits set.
    pub fn new(addr: Ipv4Addr, mask: SubnetMask) -> Result<Self, AddrError> {
        if to_u32(addr) & !mask.bits() != 0 {
            return Err(AddrError::HostBitsSet {
                addr: addr.to_string(),
                prefix_len: mask.prefix_len(),
            });
        }
        Ok(Subnet {
            network: to_u32(addr),
            mask,
        })
    }

    /// The classful network containing `addr` (A/B/C only).
    pub fn natural_network(addr: Ipv4Addr) -> Option<Self> {
        SubnetMask::natural_for(addr).map(|m| Subnet::containing(addr, m))
    }

    /// The network (lowest) address.
    pub fn network(&self) -> Ipv4Addr {
        from_u32(self.network)
    }

    /// The subnet mask.
    pub fn mask(&self) -> SubnetMask {
        self.mask
    }

    /// The prefix length of the mask.
    pub fn prefix_len(&self) -> u8 {
        self.mask.prefix_len()
    }

    /// Returns `true` when `addr` is inside this subnet.
    pub fn contains(&self, addr: Ipv4Addr) -> bool {
        to_u32(addr) & self.mask.bits() == self.network
    }

    /// Returns `true` when `other` is entirely contained in `self`.
    pub fn contains_subnet(&self, other: &Subnet) -> bool {
        other.prefix_len() >= self.prefix_len() && self.contains(other.network())
    }

    /// The directed broadcast address (all host bits set).
    pub fn directed_broadcast(&self) -> Ipv4Addr {
        from_u32(self.network | !self.mask.bits())
    }

    /// The "host zero" address (all host bits clear).
    ///
    /// The paper's Traceroute module sends probes to host zero because "if a
    /// host receives a packet that is addressed to host zero on the subnet,
    /// the host is supposed to treat that packet as though it were addressed
    /// to that host".
    pub fn host_zero(&self) -> Ipv4Addr {
        from_u32(self.network)
    }

    /// The `n`-th address in the subnet (`0` is host zero). Returns `None`
    /// beyond the broadcast address.
    pub fn nth(&self, n: u32) -> Option<Ipv4Addr> {
        let host_bits = 32 - u32::from(self.prefix_len());
        let span = if host_bits == 32 {
            u64::from(u32::MAX) + 1
        } else {
            1u64 << host_bits
        };
        if u64::from(n) < span {
            Some(from_u32(self.network + n))
        } else {
            None
        }
    }

    /// The range of *usable host* addresses (excluding host-zero and
    /// directed broadcast). Empty for /31 and /32.
    pub fn host_range(&self) -> IpRange {
        if self.prefix_len() >= 31 {
            // No usable hosts in the classic sense.
            IpRange::new(from_u32(1), from_u32(0))
        } else {
            IpRange::new(
                from_u32(self.network + 1),
                from_u32((self.network | !self.mask.bits()) - 1),
            )
        }
    }

    /// The range of *all* addresses in the subnet, including host-zero and
    /// broadcast.
    pub fn full_range(&self) -> IpRange {
        IpRange::new(self.network(), self.directed_broadcast())
    }

    /// Number of usable host addresses.
    pub fn host_count(&self) -> u64 {
        self.host_range().len()
    }

    /// Returns the class of the containing classful network.
    pub fn class(&self) -> AddrClass {
        addr_class(self.network())
    }
}

impl fmt::Display for Subnet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut buf = [0u8; 18];
        let mut len = push_dotted(&mut buf, 0, self.network);
        buf[len] = b'/';
        len = push_decimal(&mut buf, len + 1, self.prefix_len());
        f.pad(ascii(&buf[..len])?)
    }
}

impl fmt::Debug for Subnet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Subnet({self})")
    }
}

impl FromStr for Subnet {
    type Err = AddrError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr_s, mask_s) = s
            .split_once('/')
            .ok_or_else(|| AddrError::BadSyntax(s.to_owned()))?;
        let addr: Ipv4Addr = addr_s
            .parse()
            .map_err(|_| AddrError::BadSyntax(s.to_owned()))?;
        let mask = if mask_s.contains('.') {
            mask_s.parse::<SubnetMask>()?
        } else {
            let len: u8 = mask_s
                .parse()
                .map_err(|_| AddrError::BadSyntax(s.to_owned()))?;
            SubnetMask::from_prefix_len(len)?
        };
        Subnet::new(addr, mask)
    }
}

/// Ordering: by network address, then by prefix length (wider first).
impl Ord for Subnet {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        self.network
            .cmp(&other.network)
            .then(self.prefix_len().cmp(&other.prefix_len()))
    }
}

impl PartialOrd for Subnet {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn mask_prefix_roundtrip() {
        for len in 0..=32u8 {
            let m = SubnetMask::from_prefix_len(len).unwrap();
            assert_eq!(m.prefix_len(), len);
            assert_eq!(SubnetMask::from_bits(m.bits()).unwrap(), m);
        }
    }

    #[test]
    fn mask_rejects_noncontiguous() {
        assert!(SubnetMask::from_bits(0xff00ff00).is_err());
        assert!(SubnetMask::from_bits(0x00000001).is_err());
        assert!(SubnetMask::from_addr(ip("255.0.255.0")).is_err());
    }

    #[test]
    fn mask_parse_slash_form() {
        let m: SubnetMask = "/26".parse().unwrap();
        assert_eq!(m.to_string(), "255.255.255.192");
        assert!("/33".parse::<SubnetMask>().is_err());
    }

    #[test]
    fn natural_masks() {
        assert_eq!(
            SubnetMask::natural_for(ip("10.1.2.3"))
                .unwrap()
                .prefix_len(),
            8
        );
        assert_eq!(
            SubnetMask::natural_for(ip("128.138.238.18"))
                .unwrap()
                .prefix_len(),
            16
        );
        assert_eq!(
            SubnetMask::natural_for(ip("192.52.106.9"))
                .unwrap()
                .prefix_len(),
            24
        );
        assert!(SubnetMask::natural_for(ip("224.0.0.1")).is_none());
    }

    #[test]
    fn subnet_membership() {
        let s: Subnet = "128.138.238.0/24".parse().unwrap();
        assert!(s.contains(ip("128.138.238.1")));
        assert!(s.contains(ip("128.138.238.255")));
        assert!(!s.contains(ip("128.138.239.1")));
        assert_eq!(s.class(), AddrClass::B);
    }

    #[test]
    fn subnet_new_rejects_host_bits() {
        let m = SubnetMask::from_prefix_len(24).unwrap();
        assert!(Subnet::new(ip("10.0.0.1"), m).is_err());
        assert!(Subnet::new(ip("10.0.0.0"), m).is_ok());
    }

    #[test]
    fn containing_normalizes() {
        let m = SubnetMask::from_prefix_len(20).unwrap();
        let s = Subnet::containing(ip("172.16.31.200"), m);
        assert_eq!(s.network(), ip("172.16.16.0"));
        assert_eq!(s.directed_broadcast(), ip("172.16.31.255"));
    }

    #[test]
    fn host_range_excludes_zero_and_broadcast() {
        let s: Subnet = "192.168.5.0/29".parse().unwrap();
        let hosts: Vec<_> = s.host_range().iter().collect();
        assert_eq!(hosts.len(), 6);
        assert_eq!(hosts[0], ip("192.168.5.1"));
        assert_eq!(hosts[5], ip("192.168.5.6"));
        assert_eq!(s.host_count(), 6);
    }

    #[test]
    fn display_matches_the_formatting_machinery_and_pads() {
        for len in 0..=32u8 {
            let mask = SubnetMask::from_prefix_len(len).unwrap();
            assert_eq!(mask.to_string(), mask.as_addr().to_string());
            for addr in ["255.255.255.255", "128.138.9.10", "10.0.100.99", "0.0.0.0"] {
                let s = Subnet::containing(ip(addr), mask);
                assert_eq!(s.to_string(), format!("{}/{len}", s.network()));
            }
        }
        let s: Subnet = "10.20.30.0/24".parse().unwrap();
        assert_eq!(format!("{s:>20}"), "       10.20.30.0/24");
        assert_eq!(format!("{s:<20}|"), "10.20.30.0/24       |");
        let m = s.mask();
        assert_eq!(format!("{m:>20}"), "       255.255.255.0");
        assert_eq!(format!("{m:<20}|"), "255.255.255.0       |");
    }

    #[test]
    fn full_range_includes_everything() {
        let s: Subnet = "192.168.5.0/29".parse().unwrap();
        assert_eq!(s.full_range().len(), 8);
    }

    #[test]
    fn nth_addressing() {
        let s: Subnet = "128.138.238.0/24".parse().unwrap();
        assert_eq!(s.nth(0), Some(ip("128.138.238.0")));
        assert_eq!(s.nth(2), Some(ip("128.138.238.2")));
        assert_eq!(s.nth(255), Some(ip("128.138.238.255")));
        assert_eq!(s.nth(256), None);
    }

    #[test]
    fn subnet_containment() {
        let outer: Subnet = "128.138.0.0/16".parse().unwrap();
        let inner: Subnet = "128.138.238.0/24".parse().unwrap();
        assert!(outer.contains_subnet(&inner));
        assert!(!inner.contains_subnet(&outer));
        assert!(outer.contains_subnet(&outer));
    }

    #[test]
    fn parse_dotted_mask_form() {
        let s: Subnet = "10.1.0.0/255.255.0.0".parse().unwrap();
        assert_eq!(s.prefix_len(), 16);
    }

    #[test]
    fn display_roundtrip() {
        let s: Subnet = "10.20.30.0/24".parse().unwrap();
        assert_eq!(s.to_string(), "10.20.30.0/24");
        assert_eq!(s.to_string().parse::<Subnet>().unwrap(), s);
    }

    #[test]
    fn slash_31_and_32_have_no_hosts() {
        let s: Subnet = "10.0.0.0/31".parse().unwrap();
        assert_eq!(s.host_count(), 0);
        let s: Subnet = "10.0.0.1/32".parse().unwrap();
        assert_eq!(s.host_count(), 0);
        assert_eq!(s.directed_broadcast(), ip("10.0.0.1"));
    }

    #[test]
    fn zero_prefix_subnet() {
        let s: Subnet = "0.0.0.0/0".parse().unwrap();
        assert!(s.contains(ip("1.2.3.4")));
        assert!(s.contains(ip("255.255.255.255")));
        assert_eq!(s.mask().address_count(), 1u64 << 32);
    }

    #[test]
    fn ordering() {
        let a: Subnet = "10.0.0.0/16".parse().unwrap();
        let b: Subnet = "10.0.0.0/24".parse().unwrap();
        let c: Subnet = "10.1.0.0/16".parse().unwrap();
        assert!(a < b);
        assert!(b < c);
    }
}
