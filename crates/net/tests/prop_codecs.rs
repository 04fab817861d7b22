//! Property tests for the wire codecs.
//!
//! Two invariants, per the crate contract:
//! 1. **Roundtrip**: encode → decode is the identity for any valid packet.
//! 2. **Totality**: decode never panics on arbitrary bytes.

use bytes::Bytes;
use proptest::prelude::*;
use std::net::Ipv4Addr;

use fremont_net::dns::{DnsName, DnsQuestion, DnsRecord, RData, RecordType};
use fremont_net::{
    ArpOp, ArpPacket, DnsMessage, EtherType, EthernetFrame, IcmpMessage, IpProtocol, Ipv4Packet,
    MacAddr, Rcode, RipCommand, RipEntry, RipPacket, Subnet, SubnetMask, UdpDatagram,
    UnreachableCode,
};

fn arb_mac() -> impl Strategy<Value = MacAddr> {
    any::<[u8; 6]>().prop_map(MacAddr::new)
}

fn arb_ip() -> impl Strategy<Value = Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr::from)
}

fn arb_label() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z0-9-]{1,12}").expect("valid regex")
}

fn arb_name() -> impl Strategy<Value = DnsName> {
    proptest::collection::vec(arb_label(), 0..6)
        .prop_map(|ls| DnsName::from_labels(ls).expect("labels fit"))
}

proptest! {
    #[test]
    fn ethernet_roundtrip(dst in arb_mac(), src in arb_mac(), et in any::<u16>(),
                          payload in proptest::collection::vec(any::<u8>(), 46..200)) {
        let f = EthernetFrame::new(dst, src, EtherType::from_value(et), Bytes::from(payload));
        let back = EthernetFrame::decode(&f.encode()).unwrap();
        prop_assert_eq!(back, f);
    }

    #[test]
    fn ethernet_decode_total(bytes in proptest::collection::vec(any::<u8>(), 0..100)) {
        let _ = EthernetFrame::decode(&bytes);
    }

    #[test]
    fn arp_roundtrip(op in prop_oneof![Just(ArpOp::Request), Just(ArpOp::Reply)],
                     sm in arb_mac(), si in arb_ip(), tm in arb_mac(), ti in arb_ip()) {
        let p = ArpPacket { op, sender_mac: sm, sender_ip: si, target_mac: tm, target_ip: ti };
        prop_assert_eq!(ArpPacket::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn arp_decode_total(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = ArpPacket::decode(&bytes);
    }

    #[test]
    fn ipv4_roundtrip(src in arb_ip(), dst in arb_ip(), ttl in any::<u8>(), id in any::<u16>(),
                      tos in any::<u8>(), proto in any::<u8>(),
                      payload in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut p = Ipv4Packet::new(src, dst, IpProtocol::from_value(proto), Bytes::from(payload))
            .with_ttl(ttl)
            .with_id(id);
        p.tos = tos;
        prop_assert_eq!(Ipv4Packet::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn ipv4_decode_total(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = Ipv4Packet::decode(&bytes);
    }

    #[test]
    fn icmp_echo_roundtrip(ident in any::<u16>(), seq in any::<u16>(),
                           payload in proptest::collection::vec(any::<u8>(), 0..64),
                           reply in any::<bool>()) {
        let m = if reply {
            IcmpMessage::EchoReply { ident, seq, payload }
        } else {
            IcmpMessage::EchoRequest { ident, seq, payload }
        };
        prop_assert_eq!(IcmpMessage::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn icmp_error_roundtrip(code in any::<u8>(),
                            original in proptest::collection::vec(any::<u8>(), 0..64),
                            te in any::<bool>()) {
        let m = if te {
            IcmpMessage::TimeExceeded { original }
        } else {
            IcmpMessage::DestinationUnreachable {
                code: UnreachableCode::Other(code),
                original,
            }
        };
        let back = IcmpMessage::decode(&m.encode()).unwrap();
        // `Other(0..=3)` decodes to the named variant; compare encodings.
        prop_assert_eq!(back.encode(), m.encode());
    }

    #[test]
    fn icmp_decode_total(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = IcmpMessage::decode(&bytes);
    }

    #[test]
    fn udp_roundtrip(sp in any::<u16>(), dp in any::<u16>(),
                     payload in proptest::collection::vec(any::<u8>(), 0..256)) {
        let d = UdpDatagram::new(sp, dp, Bytes::from(payload));
        prop_assert_eq!(UdpDatagram::decode(&d.encode()).unwrap(), d);
    }

    #[test]
    fn udp_decode_total(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = UdpDatagram::decode(&bytes);
    }

    #[test]
    fn rip_roundtrip(addrs in proptest::collection::vec((any::<u32>(), 1u32..16), 0..25)) {
        let entries: Vec<RipEntry> = addrs
            .into_iter()
            .map(|(a, m)| RipEntry { addr: Ipv4Addr::from(a), metric: m })
            .collect();
        let p = RipPacket::response(entries);
        let back = RipPacket::decode(&p.encode()).unwrap();
        prop_assert_eq!(back.command, RipCommand::Response);
        prop_assert_eq!(back, p);
    }

    #[test]
    fn rip_decode_total(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = RipPacket::decode(&bytes);
    }

    #[test]
    fn dns_name_roundtrip(n in arb_name()) {
        let mut buf = Vec::new();
        n.encode_into(&mut buf);
        let (back, end) = DnsName::decode_from(&buf, 0).unwrap();
        prop_assert_eq!(back, n);
        prop_assert_eq!(end, buf.len());
    }

    #[test]
    fn dns_name_decode_total(bytes in proptest::collection::vec(any::<u8>(), 0..64),
                             offset in 0usize..8) {
        let _ = DnsName::decode_from(&bytes, offset);
    }

    #[test]
    fn dns_message_roundtrip(id in any::<u16>(), qname in arb_name(),
                             answers in proptest::collection::vec((arb_name(), any::<u32>(), any::<u32>()), 0..8)) {
        let mut m = DnsMessage::query(id, qname, RecordType::Any);
        m.is_response = true;
        for (name, addr, ttl) in answers {
            m.answers.push(DnsRecord::a(name, Ipv4Addr::from(addr), ttl));
        }
        let back = DnsMessage::decode(&m.encode()).unwrap();
        prop_assert_eq!(back, m);
    }

    #[test]
    fn dns_message_decode_total(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = DnsMessage::decode(&bytes);
    }

    #[test]
    fn subnet_mask_contiguity(len in 0u8..=32) {
        let m = SubnetMask::from_prefix_len(len).unwrap();
        prop_assert_eq!(m.prefix_len(), len);
        prop_assert!(SubnetMask::from_bits(m.bits()).is_ok());
    }

    #[test]
    fn subnet_contains_its_range(addr in arb_ip(), len in 0u8..=32) {
        let mask = SubnetMask::from_prefix_len(len).unwrap();
        let s = Subnet::containing(addr, mask);
        prop_assert!(s.contains(addr));
        prop_assert!(s.contains(s.directed_broadcast()));
        prop_assert!(s.contains(s.host_zero()));
        // Network/broadcast bound every member address.
        prop_assert!(u32::from(s.network()) <= u32::from(addr));
        prop_assert!(u32::from(addr) <= u32::from(s.directed_broadcast()));
    }

    #[test]
    fn subnet_partition(addr in arb_ip(), other in arb_ip(), len in 1u8..=31) {
        // An address is in exactly one same-length subnet.
        let mask = SubnetMask::from_prefix_len(len).unwrap();
        let s1 = Subnet::containing(addr, mask);
        let s2 = Subnet::containing(other, mask);
        if s1 != s2 {
            prop_assert!(!s1.contains(other) || !s2.contains(other));
            prop_assert!(!s1.contains(other));
        } else {
            prop_assert!(s1.contains(other));
        }
    }

    #[test]
    fn icmp_embedded_matches_probe(src in arb_ip(), dst in arb_ip(), id in any::<u16>(),
                                   sp in any::<u16>(), dp in any::<u16>()) {
        // A router's Time Exceeded lets the prober recover src/dst/id/ports.
        let udp = UdpDatagram::new(sp, dp, Bytes::from_static(&[0u8; 8]));
        let ip = Ipv4Packet::new(src, dst, IpProtocol::Udp, Bytes::from(udp.encode())).with_id(id);
        let err = fremont_net::icmp::time_exceeded_for(&ip);
        let decoded = IcmpMessage::decode(&err.encode()).unwrap();
        let emb = decoded.embedded_packet().unwrap();
        prop_assert_eq!(emb.src, src);
        prop_assert_eq!(emb.dst, dst);
        prop_assert_eq!(emb.identification, id);
        prop_assert_eq!(emb.udp_ports(), Some((sp, dp)));
    }

    #[test]
    fn dns_question_preserved(qname in arb_name(),
                              qt in prop_oneof![Just(RecordType::A), Just(RecordType::Ptr),
                                                Just(RecordType::Axfr), Just(RecordType::Soa)]) {
        let q = DnsMessage::query(1, qname.clone(), qt);
        let r = DnsMessage::response_to(&q, Rcode::NoError);
        let back = DnsMessage::decode(&r.encode()).unwrap();
        prop_assert_eq!(back.questions, vec![DnsQuestion { name: qname, qtype: qt }]);
    }

    #[test]
    fn dns_ptr_record_roundtrip(owner in arb_name(), target in arb_name(), ttl in any::<u32>()) {
        let mut m = DnsMessage::query(9, owner.clone(), RecordType::Ptr);
        m.is_response = true;
        m.answers.push(DnsRecord::ptr(owner, target.clone(), ttl));
        let back = DnsMessage::decode(&m.encode()).unwrap();
        match &back.answers[0].rdata {
            RData::Ptr(p) => prop_assert_eq!(p, &target),
            other => prop_assert!(false, "wrong rdata {:?}", other),
        }
    }
}

/// The simulator hands receivers the packet its sender built instead of
/// decoding it, which is only the same thing while every protocol value
/// the sender can name survives the wire: every named variant, and every
/// `Other` that is not a named value in disguise.
#[test]
fn ip_protocol_value_roundtrip() {
    let named = [IpProtocol::Icmp, IpProtocol::Tcp, IpProtocol::Udp];
    let other = (0..=u8::MAX)
        .filter(|v| !matches!(v, 1 | 6 | 17))
        .map(IpProtocol::Other);
    for p in named.into_iter().chain(other) {
        assert_eq!(IpProtocol::from_value(p.value()), p);
    }
}
