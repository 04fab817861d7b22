//! Serde support for the address types (feature `serde`).
//!
//! All types serialize as their canonical display strings, so JSON
//! snapshots are human-readable and deserialization re-validates every
//! invariant (mask contiguity, network alignment) through the normal
//! parsers.

use core::fmt;
use core::str::FromStr;

use serde::de::{Error, Visitor};
use serde::{Deserialize, Deserializer, Serialize, Serializer};

use crate::dns::DnsName;
use crate::mac::MacAddr;
use crate::subnet::{Subnet, SubnetMask};

macro_rules! string_serde {
    ($ty:ty) => {
        impl Serialize for $ty {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                serializer.collect_str(self)
            }
        }

        impl<'de> Deserialize<'de> for $ty {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                /// Parses the text where the deserializer holds it.
                struct Parse;

                impl<'de> Visitor<'de> for Parse {
                    type Value = $ty;

                    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                        f.write_str(concat!("a string holding a ", stringify!($ty)))
                    }

                    fn visit_str<E: Error>(self, s: &str) -> Result<$ty, E> {
                        <$ty>::from_str(s).map_err(E::custom)
                    }
                }

                deserializer.deserialize_str(Parse)
            }
        }
    };
}

string_serde!(MacAddr);
string_serde!(SubnetMask);
string_serde!(Subnet);
string_serde!(DnsName);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_json_roundtrip() {
        let m: MacAddr = "08:00:20:01:02:03".parse().unwrap();
        let json = serde_json::to_string(&m).unwrap();
        assert_eq!(json, "\"08:00:20:01:02:03\"");
        assert_eq!(serde_json::from_str::<MacAddr>(&json).unwrap(), m);
    }

    #[test]
    fn subnet_json_roundtrip() {
        let s: Subnet = "128.138.238.0/24".parse().unwrap();
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(json, "\"128.138.238.0/24\"");
        assert_eq!(serde_json::from_str::<Subnet>(&json).unwrap(), s);
    }

    #[test]
    fn mask_json_validates() {
        assert!(serde_json::from_str::<SubnetMask>("\"255.0.255.0\"").is_err());
        let m: SubnetMask = serde_json::from_str("\"255.255.240.0\"").unwrap();
        assert_eq!(m.prefix_len(), 20);
    }

    #[test]
    fn name_json_roundtrip() {
        let n: DnsName = "cs.colorado.edu".parse().unwrap();
        let json = serde_json::to_string(&n).unwrap();
        assert_eq!(serde_json::from_str::<DnsName>(&json).unwrap(), n);
    }
}
