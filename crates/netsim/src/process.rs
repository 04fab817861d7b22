//! Processes: event-driven programs running on simulated hosts.
//!
//! Fremont's Explorer Modules are implemented as [`Process`]es: they are
//! started on a host, receive timers, see every IP packet the host
//! receives (the raw-socket view a privileged SunOS process had), and —
//! when they enable the tap — every frame on the attached segment (the
//! Network Interface Tap the paper's passive modules use; a tap is
//! consulted when a frame arrives, not when it was sent). They interact
//! with the network only through [`ProcCtx`], so a module cannot cheat by
//! peeking at simulator state it could not observe in reality.

use std::any::Any;
use std::net::Ipv4Addr;

use bytes::Bytes;

use fremont_journal::observation::Observation;
use fremont_net::{
    EthernetFrame, IcmpMessage, IpProtocol, Ipv4Packet, MacAddr, Subnet, SubnetMask, UdpDatagram,
};

use crate::engine::{Event, Sim};
use crate::ip::SendError;
use crate::segment::NodeId;
use crate::time::{SimDuration, SimTime};

/// Handle to a spawned process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProcHandle {
    /// The node the process runs on.
    pub node: NodeId,
    /// Slot index within the node.
    pub idx: usize,
}

/// A view of one local interface, as a process sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IfaceInfo {
    /// Interface index on the node.
    pub index: usize,
    /// MAC address.
    pub mac: MacAddr,
    /// Configured IP address.
    pub ip: Ipv4Addr,
    /// Configured subnet mask.
    pub mask: SubnetMask,
}

impl IfaceInfo {
    /// The local subnet per the configured mask.
    pub fn subnet(&self) -> Subnet {
        Subnet::containing(self.ip, self.mask)
    }
}

/// An event-driven program on a simulated node.
///
/// All methods have empty defaults so a module only implements what it
/// uses. The [`Any`] supertrait lets [`Sim::process_mut`] downcast a
/// finished module so the driver can read its results.
pub trait Process: Any {
    /// Called once when the process is spawned.
    fn on_start(&mut self, _ctx: &mut ProcCtx<'_>) {}

    /// Called when a timer set via [`ProcCtx::set_timer`] fires.
    fn on_timer(&mut self, _token: u64, _ctx: &mut ProcCtx<'_>) {}

    /// Called for every IP packet delivered locally to the host.
    fn on_ip(&mut self, _pkt: &Ipv4Packet, _ctx: &mut ProcCtx<'_>) {}

    /// Called for every frame arriving on the tapped segment while the
    /// tap is enabled ([`ProcCtx::enable_tap`]), after the frame's
    /// receivers have handled it.
    fn on_tap(&mut self, _frame: &EthernetFrame, _ctx: &mut ProcCtx<'_>) {}

    /// Returns `true` once the process has finished its work.
    fn done(&self) -> bool {
        false
    }
}

/// The capability surface a process sees (its "kernel interface").
pub struct ProcCtx<'a> {
    pub(crate) sim: &'a mut Sim,
    pub(crate) handle: ProcHandle,
}

impl ProcCtx<'_> {
    /// Current time *as this node's clock reads it*. On a healthy host
    /// this is true simulated time; under a
    /// [`crate::faults::FaultKind::ClockSkew`] fault it is shifted by
    /// the node's offset — processes timestamp their observations with
    /// this clock, which is exactly how a real host with a broken clock
    /// poisons a journal.
    pub fn now(&self) -> SimTime {
        let skew = self.sim.nodes[self.handle.node.0].clock_skew;
        if skew == 0 {
            return self.sim.now();
        }
        let shifted = (self.sim.now().as_micros() as i64).saturating_add(skew);
        SimTime(shifted.max(0) as u64)
    }

    fn iface(&self, index: usize) -> IfaceInfo {
        let i = &self.sim.nodes[self.handle.node.0].ifaces[index];
        IfaceInfo {
            index,
            mac: i.mac,
            ip: i.ip,
            mask: i.mask,
        }
    }

    /// The hosting node's interfaces.
    pub fn ifaces(&self) -> Vec<IfaceInfo> {
        let count = self.sim.nodes[self.handle.node.0].ifaces.len();
        (0..count).map(|i| self.iface(i)).collect()
    }

    /// The primary interface (index 0).
    pub fn primary_iface(&self) -> IfaceInfo {
        self.iface(0)
    }

    /// Sets a timer; `token` is returned in [`Process::on_timer`].
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        let handle = self.handle;
        self.sim.schedule(delay, Event::Timer { handle, token });
    }

    /// Sends a UDP datagram (routed through the host stack).
    pub fn send_udp(
        &mut self,
        dst: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        payload: Bytes,
    ) -> Result<(), SendError> {
        let dgram = UdpDatagram::new(src_port, dst_port, payload);
        self.send_ip(
            dst,
            IpProtocol::Udp,
            Bytes::from(dgram.encode()),
            None,
            None,
        )
    }

    /// Sends an ICMP message.
    pub fn send_icmp(&mut self, dst: Ipv4Addr, msg: &IcmpMessage) -> Result<(), SendError> {
        self.send_ip(dst, IpProtocol::Icmp, Bytes::from(msg.encode()), None, None)
    }

    /// Sends a raw IP packet with optional TTL and identification.
    pub fn send_ip(
        &mut self,
        dst: Ipv4Addr,
        protocol: IpProtocol,
        payload: Bytes,
        ttl: Option<u8>,
        id: Option<u16>,
    ) -> Result<(), SendError> {
        let node = self.handle.node;
        let src = self.source_ip_for(dst);
        let assigned_id = id.unwrap_or_else(|| self.sim.next_ip_id());
        let mut pkt = Ipv4Packet::new(src, dst, protocol, payload).with_id(assigned_id);
        if let Some(t) = ttl {
            pkt.ttl = t;
        }
        let handle = self.handle;
        let res = self.sim.node_send_ip(node, pkt);
        if res.is_ok() {
            self.sim.proc_stats_mut(handle).packets_sent += 1;
        }
        res
    }

    fn source_ip_for(&self, dst: Ipv4Addr) -> Ipv4Addr {
        let n = &self.sim.nodes[self.handle.node.0];
        n.routes
            .lookup(dst)
            .map(|r| n.ifaces[r.iface].ip)
            .unwrap_or(n.ifaces[0].ip)
    }

    /// Snapshot of the host's ARP cache (EtherHostProbe's readback).
    pub fn arp_snapshot(&self) -> Vec<(Ipv4Addr, MacAddr)> {
        let node = &self.sim.nodes[self.handle.node.0];
        node.arp.snapshot(self.sim.now())
    }

    /// Enables/disables the promiscuous tap on the primary interface's
    /// segment (the SunOS NIT; "this module must be run with system
    /// privileges").
    pub fn enable_tap(&mut self, on: bool) {
        let seg = self.sim.nodes[self.handle.node.0].ifaces[0].segment;
        let handle = self.handle;
        if on {
            if !self.sim.taps.contains(&(seg, handle)) {
                self.sim.taps.push((seg, handle));
            }
        } else {
            self.sim.taps.retain(|(s, h)| !(*s == seg && *h == handle));
        }
    }

    /// Emits a discovered fact toward the Journal.
    pub fn emit(&mut self, obs: Observation) {
        // Observations carry the *node's* clock, so a clock-skewed host
        // stamps its reports wrongly (see `ProcCtx::now`). Kernel timers
        // (`set_timer`) stay on true simulated time.
        let at = self.now();
        let handle = self.handle;
        self.sim.outbox.push((handle, at, obs));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iface_info_subnet() {
        let info = IfaceInfo {
            index: 0,
            mac: MacAddr::new([8, 0, 0x20, 0, 0, 1]),
            ip: Ipv4Addr::new(128, 138, 243, 18),
            mask: SubnetMask::from_prefix_len(24).unwrap(),
        };
        assert_eq!(info.subnet(), "128.138.243.0/24".parse().unwrap());
    }
}
