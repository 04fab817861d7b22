//! Domain Name System messages (RFC 1035).
//!
//! Fremont's DNS Explorer Module walks the reverse (`in-addr.arpa`) tree
//! with zone transfers, derived from `nslookup`. This module provides the
//! wire format: names (with compression-pointer decoding), questions,
//! resource records (A, PTR, NS, CNAME, SOA, HINFO, WKS), and whole
//! messages. The encoder emits uncompressed names; the decoder accepts
//! compressed ones, with loop protection.

use core::fmt;
use core::str::FromStr;
use std::net::Ipv4Addr;

use crate::error::ParseError;

/// Maximum encoded name length (RFC 1035 §2.3.4).
pub const MAX_NAME_LEN: usize = 255;

/// Maximum label length.
pub const MAX_LABEL_LEN: usize = 63;

/// A domain name: a sequence of labels, compared case-insensitively.
///
/// # Examples
///
/// ```
/// use fremont_net::DnsName;
///
/// let n: DnsName = "bruno.CS.Colorado.EDU".parse().unwrap();
/// assert_eq!(n.to_string(), "bruno.cs.colorado.edu");
/// assert_eq!(n.labels().len(), 4);
/// assert!(n.ends_with(&"colorado.edu".parse().unwrap()));
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DnsName {
    labels: Vec<String>,
}

impl DnsName {
    /// The root name (zero labels).
    pub fn root() -> Self {
        DnsName { labels: Vec::new() }
    }

    /// Builds a name from labels; each is lowercased and validated.
    pub fn from_labels<I, S>(labels: I) -> Result<Self, ParseError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut out = Vec::new();
        let mut total = 1usize; // Trailing root byte.
        for l in labels {
            let l = l.as_ref();
            if l.is_empty() {
                return Err(ParseError::BadName {
                    reason: "empty label",
                });
            }
            if l.len() > MAX_LABEL_LEN {
                return Err(ParseError::BadName {
                    reason: "label longer than 63 bytes",
                });
            }
            if !l.bytes().all(|b| b.is_ascii_graphic()) {
                return Err(ParseError::BadName {
                    reason: "non-printable byte in label",
                });
            }
            total += 1 + l.len();
            if total > MAX_NAME_LEN {
                return Err(ParseError::BadName {
                    reason: "name longer than 255 bytes",
                });
            }
            out.push(l.to_ascii_lowercase());
        }
        Ok(DnsName { labels: out })
    }

    /// The labels, most-specific first.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Returns `true` for the root name.
    pub fn is_root(&self) -> bool {
        self.labels.is_empty()
    }

    /// Returns `true` when `suffix` is a (possibly equal) ancestor of
    /// `self`.
    pub fn ends_with(&self, suffix: &DnsName) -> bool {
        let n = self.labels.len();
        let m = suffix.labels.len();
        m <= n && self.labels[n - m..] == suffix.labels[..]
    }

    /// Prepends a label, producing a child name.
    pub fn child(&self, label: &str) -> Result<DnsName, ParseError> {
        let mut labels = Vec::with_capacity(self.labels.len() + 1);
        labels.push(label.to_owned());
        labels.extend(self.labels.iter().cloned());
        DnsName::from_labels(labels)
    }

    /// Drops the leading label, producing the parent name (root's parent is
    /// root).
    pub fn parent(&self) -> DnsName {
        DnsName {
            labels: self.labels.iter().skip(1).cloned().collect(),
        }
    }

    /// The first (most specific) label, if any.
    pub fn leaf(&self) -> Option<&str> {
        self.labels.first().map(String::as_str)
    }

    /// The conventional reverse-lookup name for an IPv4 address,
    /// `d.c.b.a.in-addr.arpa`.
    pub fn reverse_for(addr: Ipv4Addr) -> DnsName {
        // Decimal octets and two fixed lowercase labels: every label is
        // one that `from_labels` would accept unchanged.
        let o = addr.octets();
        DnsName {
            labels: vec![
                o[3].to_string(),
                o[2].to_string(),
                o[1].to_string(),
                o[0].to_string(),
                "in-addr".to_owned(),
                "arpa".to_owned(),
            ],
        }
    }

    /// The reverse-tree *zone* for a network, keeping only the octets
    /// the prefix length covers: `10.0.0.0/8` → `10.in-addr.arpa`,
    /// `128.138.0.0/16` → `138.128.in-addr.arpa`, anything longer →
    /// three octets.
    pub fn reverse_zone_for(network: Ipv4Addr, prefix_len: u8) -> DnsName {
        let o = network.octets();
        let kept = match prefix_len {
            0..=8 => 1,
            9..=16 => 2,
            _ => 3,
        };
        let mut labels: Vec<String> = (0..kept).rev().map(|i| o[i].to_string()).collect();
        labels.push("in-addr".to_owned());
        labels.push("arpa".to_owned());
        DnsName { labels }
    }

    /// If this is a full `d.c.b.a.in-addr.arpa` name, recovers the address.
    pub fn reverse_to_addr(&self) -> Option<Ipv4Addr> {
        if self.labels.len() != 6 || self.labels[4] != "in-addr" || self.labels[5] != "arpa" {
            return None;
        }
        let oct = |i: usize| self.labels[i].parse::<u8>().ok();
        Some(Ipv4Addr::new(oct(3)?, oct(2)?, oct(1)?, oct(0)?))
    }

    /// Encodes to wire form (uncompressed).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        for l in &self.labels {
            out.push(l.len() as u8);
            out.extend_from_slice(l.as_bytes());
        }
        out.push(0);
    }

    /// Decodes a name starting at `offset` in `msg`, following compression
    /// pointers. Returns the name and the offset just past the name's
    /// *direct* encoding (i.e. past the pointer if one was followed).
    pub fn decode_from(msg: &[u8], offset: usize) -> Result<(DnsName, usize), ParseError> {
        let mut labels = Vec::new();
        let mut pos = offset;
        let mut end_of_direct: Option<usize> = None;
        let mut jumps = 0usize;
        let mut total = 1usize;
        loop {
            let len_byte = *msg.get(pos).ok_or(ParseError::Truncated {
                layer: "dns-name",
                needed: pos + 1,
                available: msg.len(),
            })?;
            if len_byte & 0xc0 == 0xc0 {
                // Compression pointer.
                let second = *msg.get(pos + 1).ok_or(ParseError::Truncated {
                    layer: "dns-name",
                    needed: pos + 2,
                    available: msg.len(),
                })?;
                if end_of_direct.is_none() {
                    end_of_direct = Some(pos + 2);
                }
                let target = usize::from(u16::from_be_bytes([len_byte & 0x3f, second]));
                jumps += 1;
                if jumps > 32 || target >= pos {
                    return Err(ParseError::BadName {
                        reason: "compression pointer loop",
                    });
                }
                pos = target;
                continue;
            }
            if len_byte & 0xc0 != 0 {
                return Err(ParseError::BadName {
                    reason: "reserved label type",
                });
            }
            if len_byte == 0 {
                let end = end_of_direct.unwrap_or(pos + 1);
                let name = DnsName::from_labels(labels)?;
                return Ok((name, end));
            }
            let len = usize::from(len_byte);
            total += 1 + len;
            if total > MAX_NAME_LEN {
                return Err(ParseError::BadName {
                    reason: "name longer than 255 bytes",
                });
            }
            let start = pos + 1;
            let bytes = msg.get(start..start + len).ok_or(ParseError::Truncated {
                layer: "dns-name",
                needed: start + len,
                available: msg.len(),
            })?;
            // Accept any bytes on the wire but keep them printable for us.
            let label: String = bytes
                .iter()
                .map(|&b| {
                    if b.is_ascii_graphic() {
                        (b as char).to_ascii_lowercase()
                    } else {
                        '?'
                    }
                })
                .collect();
            labels.push(label);
            pos = start + len;
        }
    }
}

impl fmt::Display for DnsName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.labels.is_empty() {
            return write!(f, ".");
        }
        write!(f, "{}", self.labels.join("."))
    }
}

impl fmt::Debug for DnsName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DnsName({self})")
    }
}

impl FromStr for DnsName {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let trimmed = s.strip_suffix('.').unwrap_or(s);
        if trimmed.is_empty() {
            return Ok(DnsName::root());
        }
        DnsName::from_labels(trimmed.split('.'))
    }
}

/// DNS record/query types used by the Fremont DNS module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecordType {
    /// Host address (1).
    A,
    /// Authoritative name server (2).
    Ns,
    /// Canonical name (5).
    Cname,
    /// Start of authority (6).
    Soa,
    /// Well Known Services (11) — deprecated by RFC 1123, and the paper
    /// found it "notoriously bad" in deployed databases.
    Wks,
    /// Domain name pointer (12): the reverse tree.
    Ptr,
    /// Host information (13).
    Hinfo,
    /// Zone transfer query type (252).
    Axfr,
    /// Any-type query (255).
    Any,
    /// Anything else, verbatim.
    Other(u16),
}

impl RecordType {
    /// The 16-bit wire value.
    pub fn value(self) -> u16 {
        match self {
            RecordType::A => 1,
            RecordType::Ns => 2,
            RecordType::Cname => 5,
            RecordType::Soa => 6,
            RecordType::Wks => 11,
            RecordType::Ptr => 12,
            RecordType::Hinfo => 13,
            RecordType::Axfr => 252,
            RecordType::Any => 255,
            RecordType::Other(v) => v,
        }
    }

    /// Builds from a 16-bit wire value.
    pub fn from_value(v: u16) -> Self {
        match v {
            1 => RecordType::A,
            2 => RecordType::Ns,
            5 => RecordType::Cname,
            6 => RecordType::Soa,
            11 => RecordType::Wks,
            12 => RecordType::Ptr,
            13 => RecordType::Hinfo,
            252 => RecordType::Axfr,
            255 => RecordType::Any,
            other => RecordType::Other(other),
        }
    }
}

/// Typed record data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RData {
    /// An IPv4 address.
    A(Ipv4Addr),
    /// A name server's name.
    Ns(DnsName),
    /// A canonical name.
    Cname(DnsName),
    /// Start-of-authority fields.
    Soa {
        /// Primary name server.
        mname: DnsName,
        /// Responsible mailbox.
        rname: DnsName,
        /// Zone serial number.
        serial: u32,
        /// Refresh interval (seconds).
        refresh: u32,
        /// Retry interval (seconds).
        retry: u32,
        /// Expiry (seconds).
        expire: u32,
        /// Minimum TTL (seconds).
        minimum: u32,
    },
    /// A reverse pointer target.
    Ptr(DnsName),
    /// CPU and OS strings.
    Hinfo {
        /// CPU type string.
        cpu: String,
        /// Operating system string.
        os: String,
    },
    /// Uninterpreted record data (including WKS, which the paper found
    /// useless in practice).
    Raw(Vec<u8>),
}

/// A resource record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnsRecord {
    /// Owner name.
    pub name: DnsName,
    /// Record type.
    pub rtype: RecordType,
    /// Time to live, seconds.
    pub ttl: u32,
    /// Typed data.
    pub rdata: RData,
}

impl DnsRecord {
    /// Convenience A-record constructor.
    pub fn a(name: DnsName, addr: Ipv4Addr, ttl: u32) -> Self {
        DnsRecord {
            name,
            rtype: RecordType::A,
            ttl,
            rdata: RData::A(addr),
        }
    }

    /// Convenience PTR-record constructor.
    pub fn ptr(owner: DnsName, target: DnsName, ttl: u32) -> Self {
        DnsRecord {
            name: owner,
            rtype: RecordType::Ptr,
            ttl,
            rdata: RData::Ptr(target),
        }
    }
}

/// A question entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnsQuestion {
    /// Queried name.
    pub name: DnsName,
    /// Queried type.
    pub qtype: RecordType,
}

/// DNS response codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rcode {
    /// No error (0).
    NoError,
    /// Format error (1).
    FormErr,
    /// Server failure (2).
    ServFail,
    /// Name does not exist (3).
    NxDomain,
    /// Not implemented (4).
    NotImp,
    /// Refused (5) — e.g. an AXFR denied to outsiders.
    Refused,
    /// Any other code.
    Other(u8),
}

impl Rcode {
    fn value(self) -> u8 {
        match self {
            Rcode::NoError => 0,
            Rcode::FormErr => 1,
            Rcode::ServFail => 2,
            Rcode::NxDomain => 3,
            Rcode::NotImp => 4,
            Rcode::Refused => 5,
            Rcode::Other(v) => v & 0x0f,
        }
    }

    fn from_value(v: u8) -> Self {
        match v & 0x0f {
            0 => Rcode::NoError,
            1 => Rcode::FormErr,
            2 => Rcode::ServFail,
            3 => Rcode::NxDomain,
            4 => Rcode::NotImp,
            5 => Rcode::Refused,
            other => Rcode::Other(other),
        }
    }
}

/// A complete DNS message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnsMessage {
    /// Transaction id.
    pub id: u16,
    /// `true` for responses.
    pub is_response: bool,
    /// Authoritative-answer flag.
    pub authoritative: bool,
    /// Recursion-desired flag.
    pub recursion_desired: bool,
    /// Response code.
    pub rcode: Rcode,
    /// Question section.
    pub questions: Vec<DnsQuestion>,
    /// Answer section.
    pub answers: Vec<DnsRecord>,
    /// Authority section.
    pub authorities: Vec<DnsRecord>,
    /// Additional section.
    pub additionals: Vec<DnsRecord>,
}

impl DnsMessage {
    /// Builds a standard query for `name`/`qtype`.
    pub fn query(id: u16, name: DnsName, qtype: RecordType) -> Self {
        DnsMessage {
            id,
            is_response: false,
            authoritative: false,
            recursion_desired: true,
            rcode: Rcode::NoError,
            questions: vec![DnsQuestion { name, qtype }],
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
        }
    }

    /// Builds the response skeleton for a query.
    pub fn response_to(query: &DnsMessage, rcode: Rcode) -> Self {
        DnsMessage {
            id: query.id,
            is_response: true,
            authoritative: true,
            recursion_desired: query.recursion_desired,
            rcode,
            questions: query.questions.clone(),
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
        }
    }

    /// Encodes the message (uncompressed names).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(128);
        out.extend_from_slice(&self.id.to_be_bytes());
        let mut flags: u16 = 0;
        if self.is_response {
            flags |= 0x8000;
        }
        if self.authoritative {
            flags |= 0x0400;
        }
        if self.recursion_desired {
            flags |= 0x0100;
        }
        flags |= u16::from(self.rcode.value());
        out.extend_from_slice(&flags.to_be_bytes());
        out.extend_from_slice(&(self.questions.len() as u16).to_be_bytes());
        out.extend_from_slice(&(self.answers.len() as u16).to_be_bytes());
        out.extend_from_slice(&(self.authorities.len() as u16).to_be_bytes());
        out.extend_from_slice(&(self.additionals.len() as u16).to_be_bytes());
        for q in &self.questions {
            q.name.encode_into(&mut out);
            out.extend_from_slice(&q.qtype.value().to_be_bytes());
            out.extend_from_slice(&1u16.to_be_bytes()); // class IN
        }
        for rr in self
            .answers
            .iter()
            .chain(&self.authorities)
            .chain(&self.additionals)
        {
            encode_record(rr, &mut out);
        }
        out
    }

    /// Decodes a message.
    pub fn decode(buf: &[u8]) -> Result<Self, ParseError> {
        if buf.len() < 12 {
            return Err(ParseError::Truncated {
                layer: "dns",
                needed: 12,
                available: buf.len(),
            });
        }
        let id = u16::from_be_bytes([buf[0], buf[1]]);
        let flags = u16::from_be_bytes([buf[2], buf[3]]);
        let qd = usize::from(u16::from_be_bytes([buf[4], buf[5]]));
        let an = usize::from(u16::from_be_bytes([buf[6], buf[7]]));
        let ns = usize::from(u16::from_be_bytes([buf[8], buf[9]]));
        let ar = usize::from(u16::from_be_bytes([buf[10], buf[11]]));
        let mut pos = 12;
        let mut questions = Vec::with_capacity(qd.min(64));
        for _ in 0..qd {
            let (name, next) = DnsName::decode_from(buf, pos)?;
            pos = next;
            let ty = read_u16(buf, pos, "qtype")?;
            let _class = read_u16(buf, pos + 2, "qclass")?;
            pos += 4;
            questions.push(DnsQuestion {
                name,
                qtype: RecordType::from_value(ty),
            });
        }
        let mut sections = [Vec::new(), Vec::new(), Vec::new()];
        for (i, count) in [an, ns, ar].into_iter().enumerate() {
            for _ in 0..count {
                let (rr, next) = decode_record(buf, pos)?;
                pos = next;
                sections[i].push(rr);
            }
        }
        let [answers, authorities, additionals] = sections;
        Ok(DnsMessage {
            id,
            is_response: flags & 0x8000 != 0,
            authoritative: flags & 0x0400 != 0,
            recursion_desired: flags & 0x0100 != 0,
            rcode: Rcode::from_value(flags as u8),
            questions,
            answers,
            authorities,
            additionals,
        })
    }
}

fn read_u16(buf: &[u8], pos: usize, field: &'static str) -> Result<u16, ParseError> {
    buf.get(pos..pos + 2)
        .map(|b| u16::from_be_bytes([b[0], b[1]]))
        .ok_or(ParseError::BadField {
            layer: "dns",
            field,
            value: pos as u64,
        })
}

fn read_u32(buf: &[u8], pos: usize, field: &'static str) -> Result<u32, ParseError> {
    buf.get(pos..pos + 4)
        .map(|b| u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
        .ok_or(ParseError::BadField {
            layer: "dns",
            field,
            value: pos as u64,
        })
}

fn encode_record(rr: &DnsRecord, out: &mut Vec<u8>) {
    rr.name.encode_into(out);
    out.extend_from_slice(&rr.rtype.value().to_be_bytes());
    out.extend_from_slice(&1u16.to_be_bytes()); // class IN
    out.extend_from_slice(&rr.ttl.to_be_bytes());
    let mut rdata = Vec::new();
    match &rr.rdata {
        RData::A(a) => rdata.extend_from_slice(&a.octets()),
        RData::Ns(n) | RData::Cname(n) | RData::Ptr(n) => n.encode_into(&mut rdata),
        RData::Soa {
            mname,
            rname,
            serial,
            refresh,
            retry,
            expire,
            minimum,
        } => {
            mname.encode_into(&mut rdata);
            rname.encode_into(&mut rdata);
            for v in [serial, refresh, retry, expire, minimum] {
                rdata.extend_from_slice(&v.to_be_bytes());
            }
        }
        RData::Hinfo { cpu, os } => {
            for s in [cpu, os] {
                let b = s.as_bytes();
                let n = b.len().min(255);
                rdata.push(n as u8);
                rdata.extend_from_slice(&b[..n]);
            }
        }
        RData::Raw(bytes) => rdata.extend_from_slice(bytes),
    }
    out.extend_from_slice(&(rdata.len() as u16).to_be_bytes());
    out.extend_from_slice(&rdata);
}

/// Decodes a name whose *direct* encoding must end within this record's
/// rdata (compression pointers may still reference earlier message bytes).
fn bounded_name(buf: &[u8], pos: usize, rdata_end: usize) -> Result<(DnsName, usize), ParseError> {
    let (name, end) = DnsName::decode_from(buf, pos)?;
    if end > rdata_end {
        return Err(ParseError::BadField {
            layer: "dns",
            field: "rdlength",
            value: (end - pos) as u64,
        });
    }
    Ok((name, end))
}

fn decode_record(buf: &[u8], pos: usize) -> Result<(DnsRecord, usize), ParseError> {
    let (name, mut pos) = DnsName::decode_from(buf, pos)?;
    let rtype = RecordType::from_value(read_u16(buf, pos, "rtype")?);
    let _class = read_u16(buf, pos + 2, "rclass")?;
    let ttl = read_u32(buf, pos + 4, "ttl")?;
    let rdlen = usize::from(read_u16(buf, pos + 8, "rdlength")?);
    pos += 10;
    let rdata_end = pos + rdlen;
    if buf.len() < rdata_end {
        return Err(ParseError::Truncated {
            layer: "dns-rdata",
            needed: rdata_end,
            available: buf.len(),
        });
    }
    let rdata = match rtype {
        RecordType::A => {
            if rdlen != 4 {
                return Err(ParseError::BadField {
                    layer: "dns",
                    field: "a_rdlength",
                    value: rdlen as u64,
                });
            }
            RData::A(Ipv4Addr::new(
                buf[pos],
                buf[pos + 1],
                buf[pos + 2],
                buf[pos + 3],
            ))
        }
        RecordType::Ns => RData::Ns(bounded_name(buf, pos, rdata_end)?.0),
        RecordType::Cname => RData::Cname(bounded_name(buf, pos, rdata_end)?.0),
        RecordType::Ptr => RData::Ptr(bounded_name(buf, pos, rdata_end)?.0),
        RecordType::Soa => {
            let (mname, p1) = bounded_name(buf, pos, rdata_end)?;
            let (rname, p2) = bounded_name(buf, p1, rdata_end)?;
            RData::Soa {
                mname,
                rname,
                serial: read_u32(buf, p2, "soa_serial")?,
                refresh: read_u32(buf, p2 + 4, "soa_refresh")?,
                retry: read_u32(buf, p2 + 8, "soa_retry")?,
                expire: read_u32(buf, p2 + 12, "soa_expire")?,
                minimum: read_u32(buf, p2 + 16, "soa_minimum")?,
            }
        }
        RecordType::Hinfo => {
            // Character strings must not run past this record's rdata.
            let read_str = |p: usize| -> Result<(String, usize), ParseError> {
                let len = usize::from(*buf.get(p).ok_or(ParseError::Truncated {
                    layer: "dns-hinfo",
                    needed: p + 1,
                    available: buf.len(),
                })?);
                if p + 1 + len > rdata_end {
                    return Err(ParseError::BadField {
                        layer: "dns",
                        field: "hinfo_rdlength",
                        value: len as u64,
                    });
                }
                let bytes = buf.get(p + 1..p + 1 + len).ok_or(ParseError::Truncated {
                    layer: "dns-hinfo",
                    needed: p + 1 + len,
                    available: buf.len(),
                })?;
                Ok((String::from_utf8_lossy(bytes).into_owned(), p + 1 + len))
            };
            let (cpu, p1) = read_str(pos)?;
            let (os, _) = read_str(p1)?;
            RData::Hinfo { cpu, os }
        }
        _ => RData::Raw(buf[pos..rdata_end].to_vec()),
    };
    Ok((
        DnsRecord {
            name,
            rtype,
            ttl,
            rdata,
        },
        rdata_end,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> DnsName {
        s.parse().unwrap()
    }

    #[test]
    fn name_parse_display() {
        assert_eq!(
            name("Bruno.CS.Colorado.EDU").to_string(),
            "bruno.cs.colorado.edu"
        );
        assert_eq!(name("a.b.c.").to_string(), "a.b.c");
        assert_eq!(name("").to_string(), ".");
        assert!(DnsName::root().is_root());
    }

    #[test]
    fn name_rejects_bad_labels() {
        assert!("a..b".parse::<DnsName>().is_err());
        let long = "x".repeat(64);
        assert!(long.parse::<DnsName>().is_err());
        let huge = vec!["abcdefgh"; 40].join(".");
        assert!(huge.parse::<DnsName>().is_err());
    }

    #[test]
    fn name_hierarchy_ops() {
        let n = name("ns.cs.colorado.edu");
        assert!(n.ends_with(&name("colorado.edu")));
        assert!(n.ends_with(&n));
        assert!(!n.ends_with(&name("berkeley.edu")));
        assert!(n.ends_with(&DnsName::root()));
        assert_eq!(n.parent(), name("cs.colorado.edu"));
        assert_eq!(n.leaf(), Some("ns"));
        assert_eq!(
            name("cs.colorado.edu").child("boulder").unwrap(),
            name("boulder.cs.colorado.edu")
        );
    }

    #[test]
    fn reverse_names() {
        let addr = Ipv4Addr::new(128, 138, 238, 18);
        let r = DnsName::reverse_for(addr);
        assert_eq!(r.to_string(), "18.238.138.128.in-addr.arpa");
        assert_eq!(r.reverse_to_addr(), Some(addr));
        assert_eq!(name("238.138.128.in-addr.arpa").reverse_to_addr(), None);
        assert_eq!(name("a.b.c.d.in-addr.arpa").reverse_to_addr(), None);
    }

    #[test]
    fn reverse_zone_tracks_prefix_len() {
        let net = Ipv4Addr::new(128, 138, 0, 0);
        assert_eq!(
            DnsName::reverse_zone_for(net, 8).to_string(),
            "128.in-addr.arpa"
        );
        assert_eq!(
            DnsName::reverse_zone_for(net, 16).to_string(),
            "138.128.in-addr.arpa"
        );
        assert_eq!(
            DnsName::reverse_zone_for(Ipv4Addr::new(128, 138, 238, 0), 24).to_string(),
            "238.138.128.in-addr.arpa"
        );
        assert_eq!(
            DnsName::reverse_zone_for(Ipv4Addr::new(10, 0, 0, 0), 0).to_string(),
            "10.in-addr.arpa"
        );
    }

    #[test]
    fn name_wire_roundtrip() {
        let n = name("ftp.cs.colorado.edu");
        let mut buf = Vec::new();
        n.encode_into(&mut buf);
        let (back, end) = DnsName::decode_from(&buf, 0).unwrap();
        assert_eq!(back, n);
        assert_eq!(end, buf.len());
    }

    #[test]
    fn name_decode_with_compression_pointer() {
        // Build: at 0 "colorado.edu"; at 14 "cs" + pointer to 0.
        let mut buf = Vec::new();
        name("colorado.edu").encode_into(&mut buf);
        let tail_at = buf.len();
        buf.push(2);
        buf.extend_from_slice(b"cs");
        buf.push(0xc0);
        buf.push(0);
        let (n, end) = DnsName::decode_from(&buf, tail_at).unwrap();
        assert_eq!(n, name("cs.colorado.edu"));
        assert_eq!(end, buf.len());
    }

    #[test]
    fn name_decode_rejects_pointer_loop() {
        // Pointer at offset 2 pointing to 0, which points to... itself via 2.
        let buf = vec![0xc0, 0x02, 0xc0, 0x00];
        assert!(DnsName::decode_from(&buf, 0).is_err());
        // Forward pointers are also rejected (must point backwards).
        let buf = vec![0xc0, 0x02, 0x00];
        assert!(DnsName::decode_from(&buf, 0).is_err());
    }

    #[test]
    fn message_query_roundtrip() {
        let q = DnsMessage::query(0x77aa, name("238.138.128.in-addr.arpa"), RecordType::Axfr);
        let back = DnsMessage::decode(&q.encode()).unwrap();
        assert_eq!(back, q);
    }

    #[test]
    fn message_response_with_records_roundtrip() {
        let q = DnsMessage::query(7, name("bruno.cs.colorado.edu"), RecordType::A);
        let mut r = DnsMessage::response_to(&q, Rcode::NoError);
        r.answers.push(DnsRecord::a(
            name("bruno.cs.colorado.edu"),
            Ipv4Addr::new(128, 138, 243, 18),
            86400,
        ));
        r.authorities.push(DnsRecord {
            name: name("cs.colorado.edu"),
            rtype: RecordType::Ns,
            ttl: 86400,
            rdata: RData::Ns(name("ns.cs.colorado.edu")),
        });
        r.additionals.push(DnsRecord {
            name: name("bruno.cs.colorado.edu"),
            rtype: RecordType::Hinfo,
            ttl: 3600,
            rdata: RData::Hinfo {
                cpu: "SUN-4/65".to_owned(),
                os: "UNIX".to_owned(),
            },
        });
        let back = DnsMessage::decode(&r.encode()).unwrap();
        assert_eq!(back, r);
        assert!(back.is_response);
        assert!(back.authoritative);
    }

    #[test]
    fn soa_roundtrip() {
        let rr = DnsRecord {
            name: name("cs.colorado.edu"),
            rtype: RecordType::Soa,
            ttl: 86400,
            rdata: RData::Soa {
                mname: name("ns.cs.colorado.edu"),
                rname: name("hostmaster.cs.colorado.edu"),
                serial: 19930201,
                refresh: 3600,
                retry: 600,
                expire: 3600000,
                minimum: 86400,
            },
        };
        let q = DnsMessage::query(1, name("cs.colorado.edu"), RecordType::Soa);
        let mut r = DnsMessage::response_to(&q, Rcode::NoError);
        r.answers.push(rr.clone());
        let back = DnsMessage::decode(&r.encode()).unwrap();
        assert_eq!(back.answers[0], rr);
    }

    #[test]
    fn ptr_roundtrip() {
        let q = DnsMessage::query(2, name("18.243.138.128.in-addr.arpa"), RecordType::Ptr);
        let mut r = DnsMessage::response_to(&q, Rcode::NoError);
        r.answers.push(DnsRecord::ptr(
            name("18.243.138.128.in-addr.arpa"),
            name("bruno.cs.colorado.edu"),
            86400,
        ));
        let back = DnsMessage::decode(&r.encode()).unwrap();
        match &back.answers[0].rdata {
            RData::Ptr(p) => assert_eq!(*p, name("bruno.cs.colorado.edu")),
            other => panic!("wrong rdata: {other:?}"),
        }
    }

    #[test]
    fn nxdomain_rcode_roundtrip() {
        let q = DnsMessage::query(3, name("nosuch.cs.colorado.edu"), RecordType::A);
        let r = DnsMessage::response_to(&q, Rcode::NxDomain);
        let back = DnsMessage::decode(&r.encode()).unwrap();
        assert_eq!(back.rcode, Rcode::NxDomain);
    }

    #[test]
    fn raw_record_passthrough() {
        let q = DnsMessage::query(4, name("x.y"), RecordType::Wks);
        let mut r = DnsMessage::response_to(&q, Rcode::NoError);
        r.answers.push(DnsRecord {
            name: name("x.y"),
            rtype: RecordType::Wks,
            ttl: 1,
            rdata: RData::Raw(vec![1, 2, 3, 4, 5, 6]),
        });
        let back = DnsMessage::decode(&r.encode()).unwrap();
        assert_eq!(back.answers[0].rdata, RData::Raw(vec![1, 2, 3, 4, 5, 6]));
    }

    #[test]
    fn record_rdata_cannot_bleed_into_next_record() {
        // An HINFO record whose rdlength covers only the first string must
        // not absorb the following record's bytes as its `os` field.
        let q = DnsMessage::query(6, name("x.y"), RecordType::Hinfo);
        let mut r = DnsMessage::response_to(&q, Rcode::NoError);
        r.answers.push(DnsRecord {
            name: name("x.y"),
            rtype: RecordType::Hinfo,
            ttl: 1,
            rdata: RData::Hinfo {
                cpu: "X".to_owned(),
                os: "Y".to_owned(),
            },
        });
        r.answers
            .push(DnsRecord::a(name("z.y"), Ipv4Addr::new(1, 2, 3, 4), 60));
        let mut enc = r.encode();
        // Locate the HINFO rdata bytes [1,'X',1,'Y']; the rdlength is the
        // two bytes just before them. Shrink it from 4 to 2 (covering only
        // `cpu`) and delete the two `os` bytes to keep the message framed.
        let rdata = [1u8, b'X', 1, b'Y'];
        let at = enc
            .windows(4)
            .position(|w| w == rdata)
            .expect("hinfo rdata present");
        let rdlen_at = at - 2;
        assert_eq!(u16::from_be_bytes([enc[rdlen_at], enc[rdlen_at + 1]]), 4);
        enc[rdlen_at..rdlen_at + 2].copy_from_slice(&2u16.to_be_bytes());
        enc.drain(at + 2..at + 4); // drop the os string
        assert!(
            DnsMessage::decode(&enc).is_err(),
            "overflowing rdata must be rejected, not bled into the next record"
        );
    }

    #[test]
    fn decode_rejects_short_header() {
        assert!(DnsMessage::decode(&[0; 11]).is_err());
    }

    #[test]
    fn decode_rejects_truncated_rdata() {
        let q = DnsMessage::query(5, name("a.b"), RecordType::A);
        let mut r = DnsMessage::response_to(&q, Rcode::NoError);
        r.answers
            .push(DnsRecord::a(name("a.b"), Ipv4Addr::new(1, 2, 3, 4), 60));
        let enc = r.encode();
        assert!(DnsMessage::decode(&enc[..enc.len() - 2]).is_err());
    }
}
