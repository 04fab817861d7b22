//! ARP: the per-host cache with entry timeout, and the protocol around it.
//!
//! Every simulated host keeps the same structure a SunOS kernel did: an
//! IP → MAC table whose entries expire. Fremont's EtherHostProbe module
//! "attempts to send an IP packet to the UDP Echo port of each host ...
//! the responses for which are entered into the host's ARP table, and then
//! read by the EtherHostProbe Explorer Module" — this is the table it
//! reads. The duplicate-address problem is "relatively easy [to detect] if
//! you have a tool that remembers the IP and Ethernet associations longer
//! than the usual timeout of the ARP cache": the Journal remembers; this
//! cache forgets, which is exactly the asymmetry the paper exploits.
//!
//! Below the cache: resolve-or-queue on output, request/reply
//! handling on input, and the sweep that turns an unresolved next hop
//! into ICMP Host Unreachable.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use fremont_net::icmp::unreachable_for;
use fremont_net::{
    ArpOp, ArpPacket, IcmpMessage, IpProtocol, Ipv4Packet, MacAddr, UnreachableCode,
};

use crate::engine::{Event, Sim};
use crate::link::FrameRecord;
use crate::node::{Node, NodeKind};
use crate::segment::NodeId;
use crate::time::{SimDuration, SimTime};

/// Default ARP cache entry lifetime (SunOS-era kernels used ~20 minutes).
pub const DEFAULT_TIMEOUT: SimDuration = SimDuration(20 * 60 * 1_000_000);

/// An ARP cache.
#[derive(Debug, Clone)]
pub struct ArpCache {
    entries: HashMap<Ipv4Addr, (MacAddr, SimTime)>,
    timeout: SimDuration,
}

impl Default for ArpCache {
    fn default() -> Self {
        Self::new(DEFAULT_TIMEOUT)
    }
}

impl ArpCache {
    /// Creates a cache with the given entry lifetime.
    pub fn new(timeout: SimDuration) -> Self {
        ArpCache {
            entries: HashMap::new(),
            timeout,
        }
    }

    /// Inserts or refreshes a mapping at time `now`.
    pub fn insert(&mut self, ip: Ipv4Addr, mac: MacAddr, now: SimTime) {
        self.entries.insert(ip, (mac, now + self.timeout));
    }

    /// Looks up a live mapping at time `now`.
    pub fn lookup(&self, ip: Ipv4Addr, now: SimTime) -> Option<MacAddr> {
        match self.entries.get(&ip) {
            Some((mac, expires)) if *expires > now => Some(*mac),
            _ => None,
        }
    }

    /// Snapshot of all live entries at time `now`, sorted by IP (this is
    /// the view EtherHostProbe reads).
    pub fn snapshot(&self, now: SimTime) -> Vec<(Ipv4Addr, MacAddr)> {
        let mut v: Vec<_> = self
            .entries
            .iter()
            .filter(|(_, (_, expires))| *expires > now)
            .map(|(ip, (mac, _))| (*ip, *mac))
            .collect();
        v.sort_by_key(|(ip, _)| u32::from(*ip));
        v
    }

    /// Drops expired entries (periodic kernel sweep).
    pub fn sweep(&mut self, now: SimTime) {
        self.entries.retain(|_, (_, expires)| *expires > now);
    }

    /// Number of entries including expired-but-unswept ones.
    pub fn raw_len(&self) -> usize {
        self.entries.len()
    }

    /// Empties the cache (host reboot).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

/// How long a packet waits in the ARP pending queue before being dropped.
const ARP_PENDING_TIMEOUT: SimDuration = SimDuration(3_000_000);

impl Node {
    /// Removes and returns, in queue order, the ARP-pending packets
    /// `take(next_hop, queued_at)` selects.
    fn take_arp_pending(
        &mut self,
        take: impl Fn(Ipv4Addr, SimTime) -> bool,
    ) -> Vec<(Ipv4Addr, usize, Ipv4Packet, SimTime)> {
        let (taken, kept) = std::mem::take(&mut self.arp_pending)
            .into_iter()
            .partition(|(next_hop, _, _, at)| take(*next_hop, *at));
        self.arp_pending = kept;
        taken
    }
}

impl Sim {
    /// Sends `pkt` to `next_hop` on `iface`: straight onto the wire when
    /// the address is cached, otherwise queued behind an ARP request.
    pub(crate) fn unicast_output(
        &mut self,
        node: NodeId,
        iface: usize,
        next_hop: Ipv4Addr,
        pkt: Ipv4Packet,
    ) {
        let now = self.now();
        match self.nodes[node.0].arp.lookup(next_hop, now) {
            Some(dst_mac) => {
                let rec = self.ip_frame(node, iface, dst_mac, pkt);
                self.transmit(node, iface, rec);
            }
            None => {
                let n = &mut self.nodes[node.0];
                n.arp_pending.push((next_hop, iface, pkt, now));
                self.schedule(ARP_PENDING_TIMEOUT, Event::ArpGc { node });
                self.stats.arp_requests += 1;
                let my = &self.nodes[node.0].ifaces[iface];
                let req = ArpPacket::request(my.mac, my.ip, next_hop);
                let rec = FrameRecord::arp(MacAddr::BROADCAST, my.mac, req);
                self.transmit(node, iface, rec);
            }
        }
    }

    pub(crate) fn handle_arp(&mut self, node: NodeId, iface: usize, arp: &ArpPacket) {
        self.stats.arp_packets += 1;
        let now = self.now();
        match arp.op {
            ArpOp::Request => {
                let my = &self.nodes[node.0].ifaces[iface];
                let my_mac = my.mac;
                if arp.target_ip == my.ip {
                    // Standard optimization: learn the requester.
                    self.nodes[node.0]
                        .arp
                        .insert(arp.sender_ip, arp.sender_mac, now);
                    let reply = ArpPacket::reply_to(arp, my_mac);
                    let rec = FrameRecord::arp(arp.sender_mac, my_mac, reply);
                    self.transmit(node, iface, rec);
                }
            }
            ArpOp::Reply => {
                let n = &mut self.nodes[node.0];
                n.arp.insert(arp.sender_ip, arp.sender_mac, now);
                // Flush pending packets for the resolved address.
                let ready = n.take_arp_pending(|next_hop, _| next_hop == arp.sender_ip);
                for (_, ifc, pkt, _) in ready {
                    self.unicast_output(node, ifc, arp.sender_ip, pkt);
                }
            }
        }
    }

    /// Expires stale ARP-pending packets. A router that fails to resolve
    /// a next hop on a connected subnet reports ICMP Host Unreachable to
    /// the packet source (RFC 1812 behavior; this is the final-hop signal
    /// traceroute sees when probing a nonexistent address on a reached
    /// subnet).
    pub(crate) fn arp_gc(&mut self, node: NodeId) {
        let now = self.now();
        let n = &mut self.nodes[node.0];
        let failed = n.take_arp_pending(|_, at| now.since(at) >= ARP_PENDING_TIMEOUT);
        n.arp.sweep(now);
        if n.kind != NodeKind::Router || !n.up {
            return;
        }
        for (_, ifc, orig, _) in failed {
            // Never answer errors with errors, and skip broadcasts.
            if orig.protocol == IpProtocol::Icmp {
                if let Ok(msg) = IcmpMessage::decode(&orig.payload) {
                    if msg.is_error() {
                        continue;
                    }
                }
            }
            self.stats.icmp_errors += 1;
            let msg = unreachable_for(UnreachableCode::Host, &orig);
            self.reply_from(node, ifc, orig.src, IpProtocol::Icmp, msg.encode());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mac(b: u8) -> MacAddr {
        MacAddr::new([8, 0, 0x20, 0, 0, b])
    }

    fn ip(h: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, h)
    }

    #[test]
    fn insert_lookup() {
        let mut c = ArpCache::new(SimDuration::from_secs(60));
        c.insert(ip(1), mac(1), SimTime::ZERO);
        assert_eq!(c.lookup(ip(1), SimTime::ZERO), Some(mac(1)));
        assert_eq!(c.lookup(ip(2), SimTime::ZERO), None);
    }

    #[test]
    fn entries_expire() {
        let mut c = ArpCache::new(SimDuration::from_secs(60));
        c.insert(ip(1), mac(1), SimTime::ZERO);
        let late = SimTime::ZERO + SimDuration::from_secs(61);
        assert_eq!(c.lookup(ip(1), late), None);
        // Refresh extends lifetime.
        c.insert(ip(1), mac(1), SimTime::ZERO + SimDuration::from_secs(30));
        assert_eq!(c.lookup(ip(1), late), Some(mac(1)));
    }

    #[test]
    fn reinsert_overwrites_mac() {
        // The duplicate-IP situation: the cache only remembers the latest
        // claimant, which is why the Journal's long memory matters.
        let mut c = ArpCache::default();
        c.insert(ip(1), mac(1), SimTime::ZERO);
        c.insert(ip(1), mac(2), SimTime(1));
        assert_eq!(c.lookup(ip(1), SimTime(2)), Some(mac(2)));
    }

    #[test]
    fn snapshot_sorted_and_filtered() {
        let mut c = ArpCache::new(SimDuration::from_secs(10));
        c.insert(ip(3), mac(3), SimTime::ZERO);
        c.insert(ip(1), mac(1), SimTime::ZERO);
        c.insert(ip(2), mac(2), SimTime::ZERO + SimDuration::from_secs(20));
        let at = SimTime::ZERO + SimDuration::from_secs(15);
        let snap = c.snapshot(at);
        assert_eq!(snap, vec![(ip(2), mac(2))]);
    }

    #[test]
    fn sweep_removes_expired() {
        let mut c = ArpCache::new(SimDuration::from_secs(10));
        c.insert(ip(1), mac(1), SimTime::ZERO);
        c.insert(ip(2), mac(2), SimTime::ZERO + SimDuration::from_secs(100));
        c.sweep(SimTime::ZERO + SimDuration::from_secs(50));
        assert_eq!(c.raw_len(), 1);
        c.clear();
        assert_eq!(c.raw_len(), 0);
    }
}
