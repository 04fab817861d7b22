//! IEEE 802 MAC (Ethernet) addresses.
//!
//! Fremont records the Medium Access Control address of every discovered
//! interface, and uses the vendor prefix (OUI) to report the interface
//! manufacturer — the paper notes that the ARP modules' Ethernet addresses
//! "can be used in many cases to determine the manufacturer of the
//! discovered interface".

use core::fmt;
use core::str::FromStr;

use crate::error::AddrError;
use crate::oui;

/// A 48-bit IEEE 802 MAC address.
///
/// # Examples
///
/// ```
/// use fremont_net::MacAddr;
///
/// let mac: MacAddr = "08:00:20:1a:2b:3c".parse().unwrap();
/// assert_eq!(mac.octets()[0], 0x08);
/// assert!(!mac.is_broadcast());
/// assert_eq!(mac.vendor(), Some("Sun Microsystems"));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MacAddr([u8; 6]);

impl MacAddr {
    /// The all-ones broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);

    /// The all-zero address, used as the "unknown target" in ARP requests.
    pub const ZERO: MacAddr = MacAddr([0; 6]);

    /// Creates an address from its six octets.
    pub const fn new(octets: [u8; 6]) -> Self {
        MacAddr(octets)
    }

    /// Returns the six octets of the address.
    pub const fn octets(&self) -> [u8; 6] {
        self.0
    }

    /// Returns `true` if this is the broadcast address.
    pub fn is_broadcast(&self) -> bool {
        *self == Self::BROADCAST
    }

    /// Returns `true` if the group (multicast) bit is set.
    ///
    /// Broadcast is a special case of multicast and also returns `true`.
    pub fn is_multicast(&self) -> bool {
        self.0[0] & 0x01 != 0
    }

    /// Returns `true` if the locally-administered bit is set.
    pub fn is_locally_administered(&self) -> bool {
        self.0[0] & 0x02 != 0
    }

    /// Returns the 24-bit Organizationally Unique Identifier prefix.
    pub fn oui(&self) -> [u8; 3] {
        [self.0[0], self.0[1], self.0[2]]
    }

    /// Looks up the interface manufacturer from the OUI prefix.
    ///
    /// Returns `None` for locally administered addresses and unknown
    /// prefixes. The table covers the vendors common on early-1990s campus
    /// networks (Sun, DEC, Cisco, 3Com, ...), which is the population the
    /// paper's ARP modules reported on.
    pub fn vendor(&self) -> Option<&'static str> {
        if self.is_locally_administered() {
            return None;
        }
        oui::vendor_for(self.oui())
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let mut buf = [b':'; 17];
        for (i, octet) in self.0.iter().enumerate() {
            buf[3 * i] = HEX[usize::from(octet >> 4)];
            buf[3 * i + 1] = HEX[usize::from(octet & 0xf)];
        }
        f.pad(crate::subnet::ascii(&buf)?)
    }
}

impl fmt::Debug for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MacAddr({self})")
    }
}

impl FromStr for MacAddr {
    type Err = AddrError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut octets = [0u8; 6];
        let mut parts = s.split([':', '-']);
        for slot in octets.iter_mut() {
            let part = parts
                .next()
                .ok_or_else(|| AddrError::BadSyntax(s.to_owned()))?;
            if part.is_empty() || part.len() > 2 {
                return Err(AddrError::BadSyntax(s.to_owned()));
            }
            *slot = u8::from_str_radix(part, 16).map_err(|_| AddrError::BadSyntax(s.to_owned()))?;
        }
        if parts.next().is_some() {
            return Err(AddrError::BadSyntax(s.to_owned()));
        }
        Ok(MacAddr(octets))
    }
}

impl From<[u8; 6]> for MacAddr {
    fn from(octets: [u8; 6]) -> Self {
        MacAddr(octets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_roundtrip() {
        for s in [
            "00:00:0c:12:34:56",
            "ff:ff:ff:ff:ff:ff",
            "08:00:20:00:00:01",
        ] {
            let mac: MacAddr = s.parse().unwrap();
            assert_eq!(mac.to_string(), s);
        }
    }

    #[test]
    fn display_matches_the_formatting_machinery_and_pads() {
        for b in 0..=255u8 {
            let mac = MacAddr::new([b, !b, b.rotate_left(3), 0, 0xff, b ^ 0x5a]);
            let o = mac.octets();
            assert_eq!(
                mac.to_string(),
                format!(
                    "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
                    o[0], o[1], o[2], o[3], o[4], o[5]
                )
            );
        }
        let mac: MacAddr = "08:00:20:01:02:03".parse().unwrap();
        assert_eq!(format!("{mac:>20}"), "   08:00:20:01:02:03");
        assert_eq!(format!("{mac:<20}|"), "08:00:20:01:02:03   |");
    }

    #[test]
    fn parse_dash_separated() {
        let mac: MacAddr = "08-00-2b-aa-bb-cc".parse().unwrap();
        assert_eq!(mac.to_string(), "08:00:2b:aa:bb:cc");
    }

    #[test]
    fn parse_rejects_bad_syntax() {
        for s in [
            "",
            "08:00:20",
            "08:00:20:00:00:01:02",
            "08:00:20:00:00:0g",
            "123:00:20:00:00:01",
            "::::::",
        ] {
            assert!(s.parse::<MacAddr>().is_err(), "{s:?} should not parse");
        }
    }

    #[test]
    fn broadcast_properties() {
        assert!(MacAddr::BROADCAST.is_broadcast());
        assert!(MacAddr::BROADCAST.is_multicast());
        assert!(!MacAddr::ZERO.is_broadcast());
        assert!(!MacAddr::ZERO.is_multicast());
    }

    #[test]
    fn multicast_bit() {
        let m = MacAddr::new([0x01, 0, 0x5e, 0, 0, 1]);
        assert!(m.is_multicast());
        assert!(!m.is_broadcast());
    }

    #[test]
    fn vendor_lookup() {
        let sun: MacAddr = "08:00:20:11:22:33".parse().unwrap();
        assert_eq!(sun.vendor(), Some("Sun Microsystems"));
        let cisco: MacAddr = "00:00:0c:11:22:33".parse().unwrap();
        assert_eq!(cisco.vendor(), Some("Cisco Systems"));
        let local: MacAddr = "0a:00:20:11:22:33".parse().unwrap();
        assert_eq!(local.vendor(), None);
    }

    #[test]
    fn ordering_is_lexicographic() {
        let a: MacAddr = "00:00:00:00:00:01".parse().unwrap();
        let b: MacAddr = "00:00:00:00:01:00".parse().unwrap();
        assert!(a < b);
    }
}
