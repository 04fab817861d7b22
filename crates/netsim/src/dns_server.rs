//! Authoritative DNS server state (BIND stand-in).
//!
//! The campus runs name servers holding forward zones (name → A records)
//! and reverse `in-addr.arpa` zones (address → PTR records). Fremont's DNS
//! Explorer Module descends the reverse tree with zone transfers; we model
//! per-/24 child zones under the class-B reverse zone so that descent is a
//! real recursion (the parent zone answers AXFR with its SOA and the NS
//! delegations; each child zone answers with its PTR records).

use std::net::Ipv4Addr;

use bytes::Bytes;

use fremont_net::dns::{DnsMessage, DnsName, DnsRecord, RData, Rcode, RecordType};
use fremont_net::udp::DNS_PORT;
use fremont_net::{IpProtocol, Ipv4Packet, UdpDatagram};

use crate::engine::Sim;
use crate::segment::NodeId;

/// One authoritative zone.
#[derive(Debug, Clone)]
pub struct Zone {
    /// Zone origin (e.g. `cs.colorado.edu` or `238.138.128.in-addr.arpa`).
    pub origin: DnsName,
    /// Records in the zone (owner names must be under the origin).
    pub records: Vec<DnsRecord>,
    /// Child zone origins delegated from this zone.
    pub delegations: Vec<DnsName>,
    /// Whether zone transfers are permitted (servers can refuse AXFR).
    pub allow_axfr: bool,
}

impl Zone {
    /// Creates an empty zone.
    pub fn new(origin: DnsName) -> Self {
        Zone {
            origin,
            records: Vec::new(),
            delegations: Vec::new(),
            allow_axfr: true,
        }
    }

    /// Adds an A record.
    pub fn add_a(&mut self, name: DnsName, addr: Ipv4Addr) {
        self.records.push(DnsRecord::a(name, addr, 86400));
    }

    /// Adds a PTR record.
    pub fn add_ptr(&mut self, owner: DnsName, target: DnsName) {
        self.records.push(DnsRecord::ptr(owner, target, 86400));
    }
}

/// State of a node's authoritative DNS service.
#[derive(Debug, Clone, Default)]
pub struct DnsServerState {
    zones: Vec<Zone>,
}

impl DnsServerState {
    /// Creates a server with no zones.
    pub fn new() -> Self {
        DnsServerState { zones: Vec::new() }
    }

    /// Adds a zone.
    pub fn add_zone(&mut self, zone: Zone) {
        self.zones.push(zone);
    }

    /// Number of zones served.
    pub fn zone_count(&self) -> usize {
        self.zones.len()
    }

    /// Total records across zones.
    pub fn record_count(&self) -> usize {
        self.zones.iter().map(|z| z.records.len()).sum()
    }

    /// The most specific zone containing `name`, if any.
    fn zone_for(&self, name: &DnsName) -> Option<&Zone> {
        self.zones
            .iter()
            .filter(|z| name.ends_with(&z.origin))
            .max_by_key(|z| z.origin.labels().len())
    }

    /// The zone whose origin is exactly `name`.
    fn zone_at(&self, name: &DnsName) -> Option<&Zone> {
        self.zones.iter().find(|z| z.origin == *name)
    }

    /// Answers one query (UDP path: A/PTR/NS/ANY; TCP path: AXFR too).
    pub fn answer(&self, query: &DnsMessage) -> DnsMessage {
        let Some(q) = query.questions.first() else {
            return DnsMessage::response_to(query, Rcode::FormErr);
        };
        match q.qtype {
            RecordType::Axfr => self.answer_axfr(query, &q.name),
            _ => self.answer_lookup(query, &q.name, q.qtype),
        }
    }

    fn answer_lookup(&self, query: &DnsMessage, name: &DnsName, qtype: RecordType) -> DnsMessage {
        let Some(zone) = self.zone_for(name) else {
            return DnsMessage::response_to(query, Rcode::Refused);
        };
        let matches: Vec<DnsRecord> = zone
            .records
            .iter()
            .filter(|r| r.name == *name && (qtype == RecordType::Any || r.rtype == qtype))
            .cloned()
            .collect();
        if matches.is_empty() {
            // Exists under a delegation? Point at the child zone.
            if let Some(child) = zone.delegations.iter().find(|d| name.ends_with(d)) {
                let mut resp = DnsMessage::response_to(query, Rcode::NoError);
                resp.authoritative = false;
                resp.authorities.push(DnsRecord {
                    name: child.clone(),
                    rtype: RecordType::Ns,
                    ttl: 86400,
                    rdata: RData::Ns(child.child("ns").unwrap_or_else(|_| child.clone())),
                });
                return resp;
            }
            let name_exists = zone.records.iter().any(|r| r.name == *name);
            let rcode = if name_exists {
                Rcode::NoError // Name exists, no data of this type.
            } else {
                Rcode::NxDomain
            };
            return DnsMessage::response_to(query, rcode);
        }
        let mut resp = DnsMessage::response_to(query, Rcode::NoError);
        resp.answers = matches;
        resp
    }

    fn answer_axfr(&self, query: &DnsMessage, name: &DnsName) -> DnsMessage {
        let Some(zone) = self.zone_at(name) else {
            return DnsMessage::response_to(query, Rcode::NxDomain);
        };
        if !zone.allow_axfr {
            return DnsMessage::response_to(query, Rcode::Refused);
        }
        let mut resp = DnsMessage::response_to(query, Rcode::NoError);
        // SOA bracketing, as a real AXFR stream has.
        let soa = DnsRecord {
            name: zone.origin.clone(),
            rtype: RecordType::Soa,
            ttl: 86400,
            rdata: RData::Soa {
                mname: zone
                    .origin
                    .child("ns")
                    .unwrap_or_else(|_| zone.origin.clone()),
                rname: zone
                    .origin
                    .child("hostmaster")
                    .unwrap_or_else(|_| zone.origin.clone()),
                serial: 19930201,
                refresh: 3600,
                retry: 600,
                expire: 3_600_000,
                minimum: 86400,
            },
        };
        resp.answers.push(soa.clone());
        for d in &zone.delegations {
            resp.answers.push(DnsRecord {
                name: d.clone(),
                rtype: RecordType::Ns,
                ttl: 86400,
                rdata: RData::Ns(d.child("ns").unwrap_or_else(|_| d.clone())),
            });
        }
        resp.answers.extend(zone.records.iter().cloned());
        resp.answers.push(soa);
        resp
    }
}

impl Sim {
    /// A UDP datagram for port 53: name servers answer the query.
    pub(crate) fn handle_dns_udp(
        &mut self,
        node: NodeId,
        iface: usize,
        pkt: &Ipv4Packet,
        dgram: &UdpDatagram,
    ) {
        let Some(dns) = &self.nodes[node.0].dns else {
            return;
        };
        let Ok(query) = DnsMessage::decode(&dgram.payload) else {
            return;
        };
        let answer = Bytes::from(dns.answer(&query).encode());
        let reply = UdpDatagram::new(DNS_PORT, dgram.src_port, answer);
        self.reply_from(node, iface, pkt.src, IpProtocol::Udp, reply.encode());
    }

    /// The reliable-channel stand-in for TCP, used only for zone transfers.
    pub(crate) fn handle_dns_tcp(&mut self, node: NodeId, pkt: &Ipv4Packet) {
        let n = &self.nodes[node.0];
        let Some(dns) = &n.dns else {
            return;
        };
        let Ok(query) = DnsMessage::decode(&pkt.payload) else {
            return;
        };
        if query.is_response {
            return; // Our own reply echoed back; processes already saw it.
        }
        // Answer only queries addressed to one of our interfaces: a zone
        // transfer aimed at a broadcast or host-zero address is dropped.
        if n.iface_with_ip(pkt.dst).is_none() {
            return;
        }
        let answer = dns.answer(&query).encode();
        self.send_reply(node, pkt.dst, pkt.src, IpProtocol::Tcp, answer, None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> DnsName {
        s.parse().unwrap()
    }

    fn server() -> DnsServerState {
        let mut s = DnsServerState::new();
        let mut fwd = Zone::new(name("cs.colorado.edu"));
        fwd.add_a(
            name("bruno.cs.colorado.edu"),
            Ipv4Addr::new(128, 138, 243, 18),
        );
        fwd.add_a(
            name("cs-gw.cs.colorado.edu"),
            Ipv4Addr::new(128, 138, 243, 1),
        );
        fwd.add_a(
            name("cs-gw.cs.colorado.edu"),
            Ipv4Addr::new(128, 138, 238, 1),
        );
        s.add_zone(fwd);

        let mut rev_parent = Zone::new(name("138.128.in-addr.arpa"));
        rev_parent
            .delegations
            .push(name("243.138.128.in-addr.arpa"));
        s.add_zone(rev_parent);

        let mut rev = Zone::new(name("243.138.128.in-addr.arpa"));
        rev.add_ptr(
            name("18.243.138.128.in-addr.arpa"),
            name("bruno.cs.colorado.edu"),
        );
        s.add_zone(rev);
        s
    }

    #[test]
    fn a_lookup() {
        let s = server();
        let q = DnsMessage::query(1, name("bruno.cs.colorado.edu"), RecordType::A);
        let r = s.answer(&q);
        assert_eq!(r.rcode, Rcode::NoError);
        assert_eq!(r.answers.len(), 1);
        match &r.answers[0].rdata {
            RData::A(a) => assert_eq!(*a, Ipv4Addr::new(128, 138, 243, 18)),
            other => panic!("wrong rdata {other:?}"),
        }
    }

    #[test]
    fn multi_a_for_gateway() {
        let s = server();
        let q = DnsMessage::query(2, name("cs-gw.cs.colorado.edu"), RecordType::A);
        let r = s.answer(&q);
        assert_eq!(
            r.answers.len(),
            2,
            "gateways have one A record per interface"
        );
    }

    #[test]
    fn nxdomain_for_unknown_name() {
        let s = server();
        let q = DnsMessage::query(3, name("nosuch.cs.colorado.edu"), RecordType::A);
        assert_eq!(s.answer(&q).rcode, Rcode::NxDomain);
    }

    #[test]
    fn refused_outside_authority() {
        let s = server();
        let q = DnsMessage::query(4, name("mit.edu"), RecordType::A);
        assert_eq!(s.answer(&q).rcode, Rcode::Refused);
    }

    #[test]
    fn axfr_returns_zone_with_soa_bracket_and_delegations() {
        let s = server();
        let q = DnsMessage::query(5, name("138.128.in-addr.arpa"), RecordType::Axfr);
        let r = s.answer(&q);
        assert_eq!(r.rcode, Rcode::NoError);
        assert!(r.answers.len() >= 3);
        assert_eq!(r.answers.first().unwrap().rtype, RecordType::Soa);
        assert_eq!(r.answers.last().unwrap().rtype, RecordType::Soa);
        assert!(r
            .answers
            .iter()
            .any(|rr| rr.rtype == RecordType::Ns && rr.name == name("243.138.128.in-addr.arpa")));
    }

    #[test]
    fn axfr_child_zone_has_ptrs() {
        let s = server();
        let q = DnsMessage::query(6, name("243.138.128.in-addr.arpa"), RecordType::Axfr);
        let r = s.answer(&q);
        assert!(r.answers.iter().any(|rr| rr.rtype == RecordType::Ptr));
    }

    #[test]
    fn axfr_can_be_refused() {
        let mut s = server();
        s.zones[2].allow_axfr = false;
        let q = DnsMessage::query(7, name("243.138.128.in-addr.arpa"), RecordType::Axfr);
        assert_eq!(s.answer(&q).rcode, Rcode::Refused);
    }

    #[test]
    fn axfr_unknown_zone_is_nxdomain() {
        let s = server();
        let q = DnsMessage::query(8, name("244.138.128.in-addr.arpa"), RecordType::Axfr);
        assert_eq!(s.answer(&q).rcode, Rcode::NxDomain);
    }

    #[test]
    fn delegation_referral_on_lookup() {
        let s = server();
        // PTR lookup under the delegated child through the parent: the
        // parent zone does NOT hold the record; most-specific zone wins, so
        // this is answered from the child directly. Ask for something only
        // the parent could referral-answer:
        let mut s2 = DnsServerState::new();
        let mut parent = Zone::new(name("138.128.in-addr.arpa"));
        parent.delegations.push(name("243.138.128.in-addr.arpa"));
        s2.add_zone(parent);
        let q = DnsMessage::query(9, name("18.243.138.128.in-addr.arpa"), RecordType::Ptr);
        let r = s2.answer(&q);
        assert_eq!(r.rcode, Rcode::NoError);
        assert!(!r.authorities.is_empty(), "referral to the child zone");
        assert!(!r.authoritative);
        // And the full server answers it authoritatively from the child.
        let r = s.answer(&q);
        assert_eq!(r.answers.len(), 1);
    }

    #[test]
    fn no_question_is_formerr() {
        let s = server();
        let mut q = DnsMessage::query(10, name("x"), RecordType::A);
        q.questions.clear();
        assert_eq!(s.answer(&q).rcode, Rcode::FormErr);
    }
}
